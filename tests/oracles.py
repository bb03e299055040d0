"""Test oracles: general symplectic algebra, the textbook G_p and Lambda_p,
and a truncated-Fock brute-force Q_s.

Independent checks of the closed forms of gqi, which needs numpy alone;
these use scipy.linalg.

Symplectic toolkit: SymplecticMatrix, the Williamson form through the
symmetric square root of the covariance (e.g. Pirandola & Lloyd, PRA 78,
012331 (2008)), squeezers and the photon/squeezing conversions, and the
scalar G_p, Lambda_p and V(p). The LAPACK route to the spectrum that gqi's
closed forms replace: eigvals of i Omega V, and the decision its
eigenvectors gave (eigvals_spectrum, eigvals_decision).

Fock oracle: independent of the covariance-matrix route. The probe is built
from the number-basis TMSV amplitudes, squeezers and the target beam
splitter are truncated matrix exponentials of their generators, and the
thermal source enters as a Fock-diagonal mixture. Intended for small photon
numbers where a modest cutoff captures the populations.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, schur, sqrtm

from gqi.chernoff import _mode_parts
from gqi.discord import (_DISCORD_RTOL, _EPS, _INPUT_ULPS, _ZERO_CLAMP, BlockDeterminants,
                         DiscordResult, _entropy_slope, entropy_f)
from gqi.probes import ProbeKind, ProbeSpec, TargetScenario, _squeezer_gains
from gqi.symplectic import (EIGENVALUE_CLAMP_TOL, GaussianState, ValidationError,
                            _allowed_shortfall, _check_covariance, _standard_entries,
                            _unphysical, symplectic_form)

SYMPLECTIC_RESIDUAL_TOL = 1e-10

# g_func and lambda_func take a bare eigenvalue within this of 1 as pure.
_PURE_TOL = 1e-14


@dataclass
class SymplecticMatrix:
    """Real 2n x 2n matrix S with S Omega S^T = Omega."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValidationError(f"symplectic matrix must be 2n x 2n, got {m.shape}")
        omega = symplectic_form(m.shape[0] // 2)
        residual = np.linalg.norm(m @ omega @ m.T - omega)
        # Rounding in S Omega S^T grows with the entries of S, so the bound
        # scales with |S|^2 (a squeezer with N photons has |S|^2 ~ 4N).
        if residual > SYMPLECTIC_RESIDUAL_TOL * max(1.0, np.vdot(m, m)):
            raise ValidationError(
                f"matrix is not symplectic: |S Omega S^T - Omega| = {residual:g}"
            )

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


@dataclass
class WilliamsonDecomposition:
    """V = S (direct sum nu_k I_2) S^T with S symplectic, nu descending."""

    s_matrix: SymplecticMatrix
    spectrum: np.ndarray = field(default_factory=lambda: np.array([]))

    def reconstruct(self) -> np.ndarray:
        s = self.s_matrix.entries
        d = np.repeat(self.spectrum, 2)
        return (s * d) @ s.T


def williamson(cov: np.ndarray) -> WilliamsonDecomposition:
    """Williamson normal form via the symmetric square root of the covariance.

    Builds W = V^{-1/2} Omega V^{-1/2} (antisymmetric), brings it to real
    canonical form with a Schur decomposition, and assembles the symplectic
    S = V^{1/2} O D^{-1/2}. The covariance is validated as a GaussianState;
    eigenvalues it reads below 1 are then clamped to 1.
    """
    cov = _check_covariance(cov)
    n = cov.shape[0] // 2
    GaussianState(n, np.zeros(2 * n), cov)
    root = np.real(sqrtm(cov))
    root_inv = np.linalg.inv(root)
    w = root_inv @ symplectic_form(n) @ root_inv
    w = 0.5 * (w - w.T)  # exact antisymmetry against roundoff
    t, o = schur(w, output="real")

    # Normalize each 2x2 block to [[0, lambda], [-lambda, 0]] with lambda > 0.
    lam = np.empty(n)
    for k in range(n):
        i = 2 * k
        if t[i, i + 1] < 0.0:
            o[:, [i, i + 1]] = o[:, [i + 1, i]]
            t[[i, i + 1], :] = t[[i + 1, i], :]
            t[:, [i, i + 1]] = t[:, [i + 1, i]]
        lam[k] = t[i, i + 1]
    nu = 1.0 / lam

    order = np.argsort(-nu)
    col_order = np.empty(2 * n, dtype=int)
    for new, old in enumerate(order):
        col_order[2 * new] = 2 * old
        col_order[2 * new + 1] = 2 * old + 1
    o = o[:, col_order]
    nu = nu[order]

    s = root @ o @ np.diag(np.repeat(1.0 / np.sqrt(nu), 2))
    nu = np.maximum(nu, 1.0)
    return WilliamsonDecomposition(SymplecticMatrix(s), nu)


def eigvals_spectrum(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum, descending, as the moduli of the (pairwise
    degenerate) eigenvalues of i Omega V from LAPACK eigvals."""
    ev = np.linalg.eigvals(1j * symplectic_form(cov.shape[0] // 2) @ cov)
    return np.sort(np.sort(np.abs(ev))[::2])[::-1]


def eigvals_decision(cov: np.ndarray) -> float:
    """Validate cov by eigvals; return the shortfall below 1 allowed its
    smallest symplectic eigenvalue, or raise ValidationError.

    Below the EIGENVALUE_CLAMP_TOL floor the eigenvector x of that eigenvalue
    gives nu = x^H V x / |x^H i Omega x|, an upper bound on the exact one
    (Courant-Fischer for the pencil V - nu i Omega) accurate to second order
    in x. eigvals is backward stable, so nu is off by ~eps max|V| times
    |x|^2 / |x^H i Omega x|, the condition of the eigenvalue: the bound of
    _allowed_shortfall. A product state (no entries between modes) holds
    each mode to its own bound.
    """
    if eigvals_spectrum(cov).min() >= 1.0 - EIGENVALUE_CLAMP_TOL:
        return EIGENVALUE_CLAMP_TOL
    n = cov.shape[0] // 2
    blocks = [cov[2 * k:2 * k + 2, 2 * k:2 * k + 2] for k in range(n)]
    if n == 1 or np.count_nonzero(cov) > sum(map(np.count_nonzero, blocks)):
        blocks = [cov]
    bounds = sorted(map(_eigenvector_bound, blocks))  # smallest nu first
    for k, (nu, tol) in enumerate(bounds):
        if nu < 1.0 - tol:
            raise ValidationError(_unphysical(nu, smallest=k == 0))
    return bounds[0][1]


def _eigenvector_bound(cov: np.ndarray) -> tuple[float, float]:
    """(nu, tol) of the smallest symplectic eigenvalue from its eigvals
    eigenvector, as eigvals_decision says."""
    i_omega = 1j * symplectic_form(cov.shape[0] // 2)
    ev, vecs = np.linalg.eig(i_omega @ cov)
    x = vecs[:, np.argmin(np.abs(ev))]
    norm = abs(np.vdot(x, i_omega @ x))
    with np.errstate(all="ignore"):
        nu = np.vdot(x, cov @ x).real / norm
        condition = np.vdot(x, x).real / norm
    return nu, _allowed_shortfall(np.abs(cov).max(), condition)


def apply_symplectic(state: GaussianState, s: SymplecticMatrix) -> GaussianState:
    """Conjugate a state by a symplectic map: cov -> S cov S^T, mean -> S mean."""
    if s.n_modes != state.n_modes:
        raise ValidationError(
            f"dimension mismatch: state has {state.n_modes} modes, "
            f"symplectic acts on {s.n_modes}"
        )
    m = s.entries
    return GaussianState(state.n_modes, m @ state.mean, m @ state.cov @ m.T)


def single_mode_squeezer(n_mean: float, mode: int, n_modes: int) -> SymplecticMatrix:
    """Squeezer on one mode, parameterized by its mean photon number N = sinh^2 r.

    Diagonal with (gamma_-, gamma_+) = (sqrt(N+1) -+ sqrt(N)) on the chosen
    mode's (x, p) entries; identity elsewhere.
    """
    if n_mean < 0:
        raise ValidationError(f"squeezer photon number must be >= 0, got {n_mean}")
    if not 0 <= mode < n_modes:
        raise ValidationError(f"mode {mode} out of range for {n_modes} modes")
    s = np.eye(2 * n_modes)
    s[2 * mode, 2 * mode], s[2 * mode + 1, 2 * mode + 1] = _squeezer_gains(n_mean)
    return SymplecticMatrix(s)


def photons_from_squeezing(r: float) -> float:
    """Mean photon number N = sinh^2 r of a squeezed vacuum."""
    return float(np.sinh(r) ** 2)


def squeezing_from_photons(n_mean: float) -> float:
    """Inverse of photons_from_squeezing: r = arcsinh(sqrt(N))."""
    if n_mean < 0:
        raise ValidationError(f"photon number must be >= 0, got {n_mean}")
    return float(np.arcsinh(np.sqrt(n_mean)))


def _scalar_em(p: float, x: float) -> tuple[float, float]:
    """(nu, em) for one eigenvalue x, with a pure mode snapped to nu = 1.

    em = 1 - ((nu-1)/(nu+1))^p = -expm1(p ln((nu-1)/(nu+1))), free of
    cancellation for nu >> 1 and for p -> 0; a pure mode gives em = 1.
    """
    if not p > 0.0:
        raise ValidationError(f"G_p/Lambda_p need p > 0, got {p}")
    if not x >= 1.0 - EIGENVALUE_CLAMP_TOL:
        raise ValidationError(f"G_p/Lambda_p need x >= 1, got {x}")
    nu = np.array([1.0 if x <= 1.0 + _PURE_TOL else x])
    with np.errstate(divide="ignore"):
        ln_ratio = np.log1p(-2.0 / (nu + 1.0))  # -inf at a pure mode
    return float(nu[0]), float(-np.expm1(float(p) * ln_ratio)[0])


def g_func(p: float, x: float) -> float:
    """G_p(x) = 2^p / ((x+1)^p - (x-1)^p), with G_p(1) = 1 as the limit."""
    nu, em = _scalar_em(p, x)
    return (2.0 / (nu + 1.0)) ** p / em


def lambda_func(p: float, x: float) -> float:
    """Lambda_p(x) = ((x+1)^p + (x-1)^p) / ((x+1)^p - (x-1)^p); limit 1 at x=1."""
    _, em = _scalar_em(p, x)
    return (2.0 - em) / em


def v_of_p(cov: np.ndarray, p: float) -> np.ndarray:
    """S Lambda_p(D) S^T for the Williamson form V = S D S^T of cov."""
    nu, parts = _mode_parts(cov)
    lam = [lambda_func(p, x) for x in nu]
    return np.tensordot(lam, parts, axes=1)


# Truncated-Fock oracle

TRACE_DEFICIT_TOL = 1e-8
_THERMAL_TAIL = 1e-14


def annihilation(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def squeezer_matrix(r: float, cutoff: int) -> np.ndarray:
    """exp[(r/2)(a^2 - a†^2)] truncated to the first `cutoff` Fock levels."""
    a = annihilation(cutoff)
    return expm(0.5 * r * (a @ a - a.T @ a.T))


def beam_splitter_matrix(kappa: float, cutoff: int) -> np.ndarray:
    """Two-mode mixer with output port sqrt(kappa) a_sig + sqrt(1-kappa) a_env."""
    a = annihilation(cutoff)
    theta = np.arccos(np.sqrt(kappa))
    gen = np.kron(a.T, a) - np.kron(a, a.T)
    return expm(theta * gen)


def _thermal_populations(n_mean: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff)
    return n_mean**n / (n_mean + 1.0) ** (n + 1)


def _tmsv_amplitudes(n0: float, cutoff: int) -> np.ndarray:
    # psi[signal, idler] with nonzero entries on the diagonal only
    n = np.arange(cutoff)
    return np.diag(np.sqrt(n0**n / (n0 + 1.0) ** (n + 1)))


def fock_hypotheses(probe: ProbeSpec, scenario: TargetScenario,
                    cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense truncated density matrices (rho_a, rho_b) for both hypotheses."""
    kappa, nb = scenario.kappa, scenario.nb
    n_source = nb / (1.0 - kappa)
    bs = beam_splitter_matrix(kappa, cutoff).reshape(cutoff, cutoff, cutoff, cutoff)
    source = _thermal_populations(n_source, cutoff)

    if probe.kind is ProbeKind.COHERENT:
        k = np.arange(cutoff)
        log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, cutoff)))))
        psi = np.exp(-probe.ns / 2.0 + 0.5 * k * np.log(probe.ns) - 0.5 * log_fact) \
            if probe.ns > 0 else np.eye(cutoff)[0]
        rho_a = np.zeros((cutoff, cutoff))
        for n, p in enumerate(source):
            if p < _THERMAL_TAIL and n > 4:
                break
            out = np.einsum("sexy,x,y->se", bs, psi, np.eye(cutoff)[n])
            rho_a += p * (out @ out.T)
        rho_b = np.diag(_thermal_populations(nb, cutoff))
        _check_trace(rho_a, rho_b, cutoff)
        return rho_a, rho_b

    psi = _tmsv_amplitudes(probe.n0, cutoff)
    psi = squeezer_matrix(squeezing_from_photons(probe.n1), cutoff) @ psi
    psi = psi @ squeezer_matrix(squeezing_from_photons(probe.n2), cutoff).T

    dim = cutoff * cutoff
    rho_a = np.zeros((dim, dim))
    for n, p in enumerate(source):
        if p < _THERMAL_TAIL and n > 4:
            break
        # out[s, i, e]: beam splitter couples the signal leg to the source
        out = np.einsum("sexy,xi,y->sie", bs, psi, np.eye(cutoff)[n])
        flat = out.reshape(dim, cutoff)
        rho_a += p * (flat @ flat.T)

    rho_idler = psi.T @ psi
    rho_b = np.einsum(
        "ab,cd->acbd", np.diag(_thermal_populations(nb, cutoff)), rho_idler
    ).reshape(dim, dim)
    _check_trace(rho_a, rho_b, cutoff)
    return rho_a, rho_b


def _check_trace(rho_a: np.ndarray, rho_b: np.ndarray, cutoff: int) -> None:
    deficit = max(abs(1.0 - np.trace(rho_a)), abs(1.0 - np.trace(rho_b)))
    if deficit > TRACE_DEFICIT_TOL:
        raise ValidationError(
            f"Fock cutoff {cutoff} too small: trace deficit {deficit:g}"
        )


def q_s_from_density_matrices(rho_a: np.ndarray, rho_b: np.ndarray,
                              s: float) -> float:
    """Tr(rho_a^s rho_b^{1-s}) by eigendecomposition of both operators."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"s must lie in [0, 1], got {s}")
    vals_a, vecs_a = np.linalg.eigh(rho_a)
    vals_b, vecs_b = np.linalg.eigh(rho_b)
    vals_a = np.clip(vals_a, 0.0, None)
    vals_b = np.clip(vals_b, 0.0, None)
    overlap = vecs_a.T @ vecs_b
    return float(vals_a**s @ (overlap**2) @ vals_b ** (1.0 - s))


def fock_oracle_q_s(probe: ProbeSpec, scenario: TargetScenario, s: float,
                    cutoff: int = 30) -> float:
    """Brute-force Q_s; refuses when the cutoff visibly truncates the states."""
    rho_a, rho_b = fock_hypotheses(probe, scenario, cutoff)
    return q_s_from_density_matrices(rho_a, rho_b, s)


# ---------------------------------------------------------------------------
# The Gaussian discord as gqi.discord computed it before it took floats:
# _discord on a BlockDeterminants, its standard-form caller, and
# gaussian_discord, which parsed the covariance of every state again. Kept
# verbatim as the reference the float path must match bit for bit, but for
# gaussian_discord's branch for states out of standard form (block
# determinants, det V from LAPACK), a path gqi.discord no longer has.


def _standard_determinants(entries) -> BlockDeterminants:
    ax, ap, bx, bp, cx, cp = entries
    return BlockDeterminants(ax * ap, bx * bp, cx * cp,
                             (ax * bx - cx * cx) * (ap * bp - cp * cp))


def gaussian_discord(state: GaussianState) -> DiscordResult:
    """Gaussian discord with the measurement on mode 2.

    A state in standard form takes the closed-form path of remained_discord,
    so gaussian_discord(make_hypotheses(p, sc).rho_a) equals
    remained_discord(p, sc), with the spectrum the state was validated with
    (state.spectrum and state.spectrum_tol), and raises ValidationError
    where float64 cannot resolve the discord to _DISCORD_RTOL (see
    _discord).
    """
    entries = _standard_entries(state.cov)
    assert entries is not None, "the reference takes states in standard form only"
    return _standard_discord(entries, state.spectrum.tolist(), state.spectrum_tol)


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

