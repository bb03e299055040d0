"""Gaussian quantum discord of two-mode states from block determinants.

The measured party is mode 2 (the idler in the return-idler ordering), and
all entropies are in nats. The discord is the closed form of Adesso &
Datta, PRL 105, 030501 (2010), evaluated on floats. A state in standard
form (every two-mode probe and rho_A the package builds) takes its block
determinants from its six covariance entries with no LAPACK call, any other
two-mode state its 2x2 ones in closed form and det V from LAPACK; both take
the spectrum the state was validated with. remained_discord builds no
state: its spectrum comes from symplectic.standard_form_spectrum.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .probes import (
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    _probe_entries,
    _return_entries,
)
from .symplectic import (GaussianState, ValidationError, _standard_entries,
                         standard_form_spectrum)

_ZERO_CLAMP = 1e-10
_EPS = sys.float_info.epsilon
# Relative error of the formula's inputs, in ulps, before cancellation in
# det X det P (standard form) or the condition number of V (any other
# state) multiplies it.
_INPUT_ULPS = 4
# A discord whose rounding estimate exceeds this fraction of it raises.
_DISCORD_RTOL = 1e-6


@dataclass
class BlockDeterminants:
    """Determinants of the 2x2 blocks and of the full covariance matrix."""

    alpha: float
    beta: float
    gamma: float
    delta: float


@dataclass
class DiscordResult:
    value: float
    branch: str  # which closed-form conditional-entropy expression fired
    nu_pair: tuple[float, float]


def entropy_f(x: float) -> float:
    """Thermal-mode entropy f(x) = (x+1)/2 ln (x+1)/2 - (x-1)/2 ln (x-1)/2.

    Evaluated as ln((x+1)/2) + (x-1)/2 ln(1 + 2/(x-1)), a sum of two
    positive terms: the difference above loses ~eps x ln x to cancellation.
    """
    if not 1.0 - _ZERO_CLAMP <= x < math.inf:
        raise ValidationError(f"entropy_f needs finite x >= 1, got {x}")
    if x <= 1.0 + 1e-15:
        return 0.0
    dn = 0.5 * (x - 1.0)
    return math.log(0.5 * (x + 1.0)) + dn * math.log1p(1.0 / dn)


def _standard_determinants(entries) -> BlockDeterminants:
    ax, ap, bx, bp, cx, cp = entries
    return BlockDeterminants(ax * ap, bx * bp, cx * cp,
                             (ax * bx - cx * cx) * (ap * bp - cp * cp))


def block_determinants(state: GaussianState) -> BlockDeterminants:
    """alpha = det A, beta = det B, gamma = det C and delta = det V.

    In standard form all four come from the six covariance entries; else
    the 2x2 ones in closed form and det V from LAPACK.
    """
    if state.n_modes != 2:
        raise ValidationError(
            f"block_determinants needs a 2-mode state, got {state.n_modes}"
        )
    entries = _standard_entries(state.cov)
    if entries is not None:
        return _standard_determinants(entries)
    (a, b, c, d), (e, f, g, h), (i, j, k, l), (m, n, o, p) = state.cov.tolist()
    return BlockDeterminants(a * f - b * e, k * p - l * o, c * h - d * g,
                             float(np.linalg.det(state.cov)))


def gaussian_discord(state: GaussianState) -> DiscordResult:
    """Gaussian discord with the measurement on mode 2.

    A state in standard form takes the closed-form path of remained_discord,
    so gaussian_discord(make_hypotheses(p, sc).rho_a) equals
    remained_discord(p, sc); any other state its block determinants. Both
    take the spectrum the state was validated with (state.spectrum and
    state.spectrum_tol), and raise ValidationError where float64 cannot
    resolve the discord to _DISCORD_RTOL (see _discord).
    """
    entries = _standard_entries(state.cov) if state.n_modes == 2 else None
    if entries is not None:
        return _standard_discord(entries, state.spectrum.tolist(), state.spectrum_tol)
    d = block_determinants(state)
    # The spectrum (eigvals), det V (LU) and the 2x2 determinants lose up
    # to ~eps times the condition number of V: a strongly squeezed mode's.
    lam = np.linalg.eigvalsh(state.cov)
    ulps = _INPUT_ULPS * lam[-1] / lam[0]
    return _discord(d, state.spectrum.tolist(), state.spectrum_tol,
                    not state.cov[:2, 2:].any(), ulps, ulps)


def _standard_discord(entries, nu, tol: float) -> DiscordResult:
    """_discord of a validated standard-form state: entries, nu_+- and tol."""
    ax, ap, bx, bp, cx, cp = entries
    product = not (cx or cp)
    # alpha, beta and gamma are products of two entries. det X det P, and
    # with it delta and nu_+-^2, cancels for a strongly correlated state.
    # A product state has no discord to round, and its det X may underflow.
    det_ulps = 0.0 if product else _INPUT_ULPS * (
        1.0 + (ax * bx + cx * cx) / (ax * bx - cx * cx)
        + (ap * bp + cp * cp) / (ap * bp - cp * cp))
    return _discord(_standard_determinants(entries), nu, tol,
                    product, _INPUT_ULPS, det_ulps)


def _discord(d: BlockDeterminants, nu, tol: float, product: bool,
             ulps: float, det_ulps: float) -> DiscordResult:
    """D = f(sqrt(beta)) - f(nu_+) - f(nu_-) + f(sqrt(eps)).

    nu_+- are the symplectic eigenvalues of the covariance, and eps follows
    the closed-form branch on the block determinants. A spectrum value
    within tol (the shortfall below 1 the covariance was allowed) of 1 is a
    pure mode, and is taken as exactly 1. A product state (zero cross
    block) has no discord.

    The four terms nearly cancel for a weakly correlated state (high noise,
    or little squeezing), where D is small against them. D raises
    ValidationError unless its first-order rounding estimate is within
    _DISCORD_RTOL of it: the terms' own rounding, plus alpha, beta and
    gamma off by ulps ulps and delta and nu_+- off by det_ulps ulps,
    through the slopes of the entropies, plus the entropy a mode taken as
    pure may have had.
    """
    alpha, beta, gamma, delta = d.alpha, d.beta, d.gamma, d.delta
    nu_hi, nu_lo = (1.0 if abs(v - 1.0) <= tol else v for v in nu)
    if product:
        return DiscordResult(0.0, "product", (nu_hi, nu_lo))

    # grad: alpha, beta, gamma, delta times d sqrt(eps) / d each of them.
    if nu_hi == 1.0:
        # Pure state: eps -> 1 and both entropy terms vanish, leaving the
        # marginal entropy. The closed forms below lose ~1e-7 to cancellation
        # exactly on this boundary, so take the limit directly.
        branch, eps, grad = "pure", 1.0, (0.0,) * 4
    elif (delta - alpha * beta) ** 2 <= (beta + 1.0) * gamma**2 * (alpha + delta):
        branch = "measurement-aligned"
        inner = max(gamma**2 + (beta - 1.0) * (delta - alpha), 0.0)
        if beta > 1.0 + _ZERO_CLAMP:
            # sqrt(eps) = (|gamma| + sqrt(inner)) / (beta - 1)
            s = math.sqrt(inner)
            eps = (2.0 * gamma**2 + (beta - 1.0) * (delta - alpha)
                   + 2.0 * abs(gamma) * s) / (beta - 1.0) ** 2
            root = (abs(gamma) + s) / (beta - 1.0)
            ds = 0.5 / s if s > 0.0 else math.inf
            grad = (alpha * ds, beta * ((delta - alpha) * ds - root) / (beta - 1.0),
                    (abs(gamma) + gamma**2 * ds * 2.0) / (beta - 1.0), delta * ds)
        else:
            # A pure mode 2 (beta -> 1) only occurs in a product state, where
            # measuring it leaves mode 1 as it was: the limit is eps -> alpha.
            eps = alpha
            grad = (0.5 * math.sqrt(alpha), 0.0, 0.0, 0.0)
    else:
        branch = "generic"
        ab = alpha * beta
        inner = max(gamma**4 + (delta - ab) ** 2 - 2.0 * gamma**2 * (delta + ab), 0.0)
        q = math.sqrt(inner)
        eps = (ab - gamma**2 + delta - q) / (2.0 * beta)
        # alpha d inner / d alpha = beta d inner / d beta = -2 ab (delta - ab + gamma^2)
        dq = 0.5 / q if q > 0.0 else math.inf
        g_ab = ab * (1.0 + 2.0 * (delta - ab + gamma**2) * dq)
        g_eps = (g_ab, g_ab - 2.0 * beta * eps,
                 -2.0 * gamma**2 * (1.0 + 2.0 * (gamma**2 - delta - ab) * dq),
                 delta * (1.0 - 2.0 * (delta - ab - gamma**2) * dq))
        grad = tuple(g / (2.0 * beta) / (2.0 * math.sqrt(eps)) if eps > 1.0 else 0.0
                     for g in g_eps)

    eps = max(eps, 1.0)
    terms = (entropy_f(math.sqrt(beta)), entropy_f(nu_hi), entropy_f(nu_lo),
             entropy_f(math.sqrt(eps)))
    value = terms[0] - terms[1] - terms[2] + terms[3]
    if value < -_ZERO_CLAMP:
        raise ValidationError(f"discord evaluated to {value}; non-physical input?")
    # x f'(x) for each entropy's argument x, and sqrt(eps)'s through grad.
    slope = _entropy_slope(math.sqrt(eps)) if eps > 1.0 else 0.0
    g_alpha, g_beta, g_gamma, g_delta = grad
    from_products = (0.5 * math.sqrt(beta) * _entropy_slope(math.sqrt(beta))
                     + slope * (abs(g_alpha) + abs(g_beta) + abs(g_gamma)))
    from_dets = (nu_hi * _entropy_slope(nu_hi) + nu_lo * _entropy_slope(nu_lo)
                 + slope * abs(g_delta))
    # A mode taken as pure has an entropy of up to f(1 + |nu - 1|).
    snapped = sum(entropy_f(1.0 + abs(v - 1.0)) for v in nu if 0.0 < abs(v - 1.0) <= tol)
    rounding = (_EPS * (sum(terms) + ulps * from_products + det_ulps * from_dets)
                + snapped)
    if not rounding <= _DISCORD_RTOL * value:
        raise ValidationError(
            f"discord {value:.3g} may be off by ~{rounding:.2g}, more than "
            f"{_DISCORD_RTOL:g} of it: the state is too weakly correlated")
    return DiscordResult(value, branch, (nu_hi, nu_lo))


def _entropy_slope(x: float) -> float:
    """f'(x) = ln((x+1)/(x-1)) / 2, and 0 at a pure mode."""
    return 0.5 * math.log1p(2.0 / (x - 1.0)) if x > 1.0 else 0.0


def remained_discord(probe: ProbeSpec, scenario: TargetScenario) -> DiscordResult:
    """Discord left between the return and idler modes after the channel."""
    if probe.kind is ProbeKind.COHERENT:
        raise ValidationError("remained_discord needs an idler mode")
    entries = _return_entries(_probe_entries(probe.n0, probe.n1, probe.n2),
                              scenario.kappa, scenario.nb)
    spec = standard_form_spectrum(entries)
    if spec.errors[0]:
        raise ValidationError(spec.errors[0])
    return _standard_discord(entries, spec.nu, spec.tol)
