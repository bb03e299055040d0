"""Gaussian quantum discord of two-mode states from block determinants.

The measured party is mode 2 (the idler in the return-idler ordering), and
all entropies are in nats. The discord is the closed form of Adesso &
Datta, PRL 105, 030501 (2010), in one pass over floats, on the six entries
of a standard form, where the block determinants are products of two
entries. The discord is a local invariant: a state in standard form (every
two-mode probe and rho_A the package builds) takes the entries it was
validated with and its spectrum, any other two-mode state the entries of
its local standard form (symplectic._standard_frame) and their spectrum.
remained_discord builds no state: its spectrum comes from
symplectic.standard_form_spectrum.
"""

import math
import sys
from dataclasses import dataclass

from .probes import (
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    _probe_entries,
    _return_entries,
)
from .symplectic import (_WIDE_RANGE, GaussianState, ValidationError, _cancellation,
                         _standard_frame, standard_form_spectrum)

_ZERO_CLAMP = 1e-10
_EPS = sys.float_info.epsilon
# Relative error of the formula's inputs, in ulps, before cancellation in
# det X det P multiplies it.
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
    try:
        if not 1.0 - _ZERO_CLAMP <= x < math.inf:
            raise ValidationError(f"entropy_f needs finite x >= 1, got {x}")
        if x <= 1.0 + 1e-15:
            return 0.0
        dn = 0.5 * (x - 1.0)
        return math.log(0.5 * (x + 1.0)) + dn * math.log1p(1.0 / dn)
    except TypeError:  # x is no real number: a str, a complex, None
        raise ValidationError(f"entropy_f needs a real number, got {x!r}") from None


def _entries(caller: str, state: GaussianState) -> tuple:
    """The six standard-form entries of a two-mode state, as floats: those
    it keeps, else those of its local standard form. Raise ValidationError,
    naming the caller, unless state has two modes."""
    if state.n_modes != 2:
        raise ValidationError(f"{caller} needs a 2-mode state, got {state.n_modes}")
    if state.entries is not None:
        return state.entries
    return tuple(_standard_frame(state.cov)[0].astype(float).tolist())


def block_determinants(state: GaussianState) -> BlockDeterminants:
    """alpha = det A, beta = det B, gamma = det C and delta = det V, all four
    from the six entries of the state's standard form (_entries): local
    invariants, as the discord's inputs must be."""
    ax, ap, bx, bp, cx, cp = _entries("block_determinants", state)
    return BlockDeterminants(ax * ap, bx * bp, cx * cp,
                             (ax * bx - cx * cx) * (ap * bp - cp * cp))


def gaussian_discord(state: GaussianState) -> DiscordResult:
    """Gaussian discord with the measurement on mode 2.

    A state in standard form takes the closed-form path of remained_discord
    on the entries and the spectrum it keeps, so
    gaussian_discord(make_hypotheses(p, sc).rho_a) equals
    remained_discord(p, sc); any other state the same path on the entries
    of its local standard form and their spectrum. Both take a mode within
    state.spectrum_tol of 1 as pure, and raise ValidationError where
    float64 cannot resolve the discord to _DISCORD_RTOL (see
    _standard_discord).
    """
    if state.entries is not None:
        return _standard_discord(state.entries, state.spectrum.tolist(), state.spectrum_tol)
    entries = _entries("gaussian_discord", state)
    return _standard_discord(entries, standard_form_spectrum(entries).nu, state.spectrum_tol)


def _standard_discord(entries, nu, tol: float) -> DiscordResult:
    """D = f(sqrt(beta)) - f(nu_+) - f(nu_-) + f(sqrt(eps)) of a validated
    standard-form state.

    entries are the state's six, from which alpha, beta, gamma and delta
    (the block determinants) follow, nu_+- its symplectic eigenvalues, and
    eps follows the closed-form branch on the block determinants. A
    spectrum value within tol (the shortfall below 1 the covariance was
    allowed) of 1 is a pure mode, and is taken as exactly 1. A product state
    (zero cross block) has no discord.

    The four terms nearly cancel for a weakly correlated state (high noise,
    or little squeezing), where D is small against them. D raises
    ValidationError unless its first-order rounding estimate is within
    _DISCORD_RTOL of it: the terms' own rounding, plus alpha, beta and
    gamma, products of two entries, off by _INPUT_ULPS ulps, and delta and
    nu_+- off by that times the cancellation in det X det P, through the
    slopes of the entropies, plus the entropy a mode taken as pure may have
    had.
    """
    ax, ap, bx, bp, cx, cp = entries
    det_x, det_p = ax * bx - cx * cx, ap * bp - cp * cp
    alpha, beta, gamma, delta = ax * ap, bx * bp, cx * cp, det_x * det_p
    d_hi, d_lo = abs(nu[0] - 1.0), abs(nu[1] - 1.0)
    nu_hi, nu_lo = (1.0 if d_hi <= tol else nu[0]), (1.0 if d_lo <= tol else nu[1])
    if not (cx or cp):  # its det X may underflow
        return DiscordResult(0.0, "product", (nu_hi, nu_lo))
    det_ulps = _INPUT_ULPS * _cancellation(entries, det_x, det_p)

    # grad: alpha, beta, gamma, delta times d sqrt(eps) / d each of them. A
    # float ** raises OverflowError where a square leaves float64.
    try:
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
            g_1, g_2, g_3, g_4 = (g_ab, g_ab - 2.0 * beta * eps,
                                  -2.0 * gamma**2 * (1.0 + 2.0 * (gamma**2 - delta - ab) * dq),
                                  delta * (1.0 - 2.0 * (delta - ab - gamma**2) * dq))
            grad = (0.0,) * 4
            if eps > 1.0:  # each over 2 beta, then times d sqrt(eps) / d eps
                b2, r2 = 2.0 * beta, 2.0 * math.sqrt(eps)
                grad = (g_1 / b2 / r2, g_2 / b2 / r2, g_3 / b2 / r2, g_4 / b2 / r2)
    except OverflowError:
        raise ValidationError(_WIDE_RANGE) from None

    eps = max(eps, 1.0)
    root_beta, root_eps = math.sqrt(beta), math.sqrt(eps)
    terms = (entropy_f(root_beta), entropy_f(nu_hi), entropy_f(nu_lo), entropy_f(root_eps))
    value = terms[0] - terms[1] - terms[2] + terms[3]
    if value < -_ZERO_CLAMP:
        raise ValidationError(f"discord evaluated to {value}; non-physical input?")
    # x f'(x) for each entropy's argument x, and sqrt(eps)'s through grad.
    slope = _entropy_slope(root_eps) if eps > 1.0 else 0.0
    g_alpha, g_beta, g_gamma, g_delta = grad
    from_products = (0.5 * root_beta * _entropy_slope(root_beta)
                     + slope * (abs(g_alpha) + abs(g_beta) + abs(g_gamma)))
    from_dets = (nu_hi * _entropy_slope(nu_hi) + nu_lo * _entropy_slope(nu_lo)
                 + slope * abs(g_delta))
    # A mode taken as pure has an entropy of up to f(1 + |nu - 1|).
    snapped = ((entropy_f(1.0 + d_hi) if 0.0 < d_hi <= tol else 0.0)
               + (entropy_f(1.0 + d_lo) if 0.0 < d_lo <= tol else 0.0))
    rounding = (_EPS * (sum(terms) + _INPUT_ULPS * from_products + det_ulps * from_dets)
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
    return _remained(probe.n0, probe.n1, probe.n2, scenario.kappa, scenario.nb)


def _remained(n0: float, n1: float, n2: float, kappa: float, nb: float) -> DiscordResult:
    """remained_discord of a two-mode probe, from admitted parameters."""
    entries = _return_entries(_probe_entries(n0, n1, n2), kappa, nb)
    spec = standard_form_spectrum(entries)
    if spec.errors[0]:
        raise ValidationError(spec.errors[0])
    return _standard_discord(entries, spec.nu, spec.tol)
