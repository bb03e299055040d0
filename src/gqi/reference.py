"""Reference toolkit: general symplectic algebra, the textbook G_p, Lambda_p,
and the general Q_s path.

Oracles for the closed forms of the other modules (e.g. the Williamson form of
Pirandola & Lloyd, PRA 78, 012331 (2008)). No module imports this one at load
time; gqi.chernoff loads it for q_s on a coherent pair and for pairs neither
in standard form nor coherent, which the package never builds.

General Q_s path (_PairData), in the inverse form of gqi.chernoff. With
P_k = S_k S_k^T for the two columns of S that belong to mode k,
V(p) = sum_k Lambda_p(nu_k) P_k, and both nu_k and P_k have closed forms.
One mode: nu = sqrt(det V) and P = V / nu. Two modes, with blocks
V = [[A, C], [C^T, B]] (Serafini, Illuminati & De Siena, J. Phys. B 37, L21
(2004)):

    nu_+-^2 = (Delta +- sqrt(Delta^2 - 4 det V)) / 2,
    Delta = det A + det B + 2 det C,

and since (Omega V)^2 = -S^{-T} D^2 S^T, (Omega V)^2 + nu_-+^2 annihilates
mode -+, which leaves

    nu_+- P_+- = -+V ((Omega V)^2 + nu_-+^2) / (nu_+^2 - nu_-^2),

the 2-point Lagrange fit of Lambda_p(nu)/nu against -nu^2 in
V(p) = c0 V + c1 V (Omega V)^2. Then Sigma'_s = sum_k Omega P_k Omega^T /
Lambda_k, and one batched determinant (and solve, for displaced pairs)
gives every Q_s.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import schur, sqrtm

from .chernoff import _PURE_ULPS, _SINGULAR, _infimum, _log_ratio, _snap
from .probes import HypothesisPair, _squeezer_gains
from .symplectic import (EIGENVALUE_CLAMP_TOL, GaussianState, ValidationError,
                         _check_covariance, _require_physical, symplectic_form)

SYMPLECTIC_RESIDUAL_TOL = 1e-10

# Relative gap nu_+^2 - nu_-^2 below which the spectrum counts as degenerate:
# P_+- = V / (2 nu_+-), which leaves out a term of this relative size.
_DEGENERATE_RTOL = 1e-14

_EYE2 = np.eye(2)

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
    S = V^{1/2} O D^{-1/2}. Eigenvalues below 1 within the physical-state
    tolerance of GaussianState are clamped to 1; larger violations raise.
    """
    cov = _check_covariance(cov)
    n = cov.shape[0] // 2
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

    _require_physical(cov, nu.min())
    s = root @ o @ np.diag(np.repeat(1.0 / np.sqrt(nu), 2))
    nu = np.maximum(nu, 1.0)
    return WilliamsonDecomposition(SymplecticMatrix(s), nu)


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
    """(nu, em) for one eigenvalue x, with a pure mode snapped to nu = 1."""
    if not p > 0.0:
        raise ValidationError(f"G_p/Lambda_p need p > 0, got {p}")
    if not x >= 1.0 - EIGENVALUE_CLAMP_TOL:
        raise ValidationError(f"G_p/Lambda_p need x >= 1, got {x}")
    nu = _snap(np.array([x]), _PURE_TOL)
    return float(nu[0]), float(_em(float(p), _log_ratio(nu))[0])


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


def _em(p: np.ndarray, ln_r: np.ndarray) -> np.ndarray:
    """em = 1 - ((nu-1)/(nu+1))^p for p > 0, computed cancellation-free.

    G_p = (2/(nu+1))^p / em and Lambda_p = (2 - em) / em stay accurate for
    nu >> 1 and for p -> 0; a pure mode gives em = 1, so G_p = Lambda_p = 1.
    """
    return -np.expm1(p * ln_r)


def _det2(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _mode_parts(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic spectrum nu (descending) and the P_k of a covariance.

    V(p) = sum_k Lambda_p(nu_k) P_k. The P_k rest on the spectrum as found;
    a pure mode's nu snaps to 1 (within the covariance's rounding) only for
    G_p and Lambda_p.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    if cov.shape != (2 * n, 2 * n) or n not in (1, 2):
        raise ValidationError(
            f"Q_s needs a one- or two-mode covariance, got shape {cov.shape}")
    scale = np.sqrt(np.diag(cov))
    det_r = float(np.linalg.det(cov / np.outer(scale, scale)))
    if not det_r > 0.0:
        raise ValidationError("covariance is not positive definite")
    det_v = float(np.prod(scale) ** 2 * det_r)
    pure_tol = _PURE_ULPS * np.finfo(float).eps * (np.abs(cov).max() + 1.0 / det_r)
    if n == 1:
        nu = math.sqrt(det_v)
        return _snap(np.array([nu]), pure_tol), (cov / nu)[None]

    # With x = det A - det B, t = tr(A J C J B J C^T J) and
    # u = det C (det A + det B) + t, the identity
    # det V = det A det B + det C^2 - t gives Delta^2 - 4 det V = x^2 + 4u,
    # so q = nu_+^2 - nu_-^2 = sqrt(x^2 + 4u). As J A J A = -det A and
    # J C J C^T = -det C, the diagonal blocks of (Omega V)^2 + nu_+^2 are
    # (q - x)/2 and (q + x)/2, and those of (Omega V)^2 + nu_-^2 are
    # -(q + x)/2 and -(q - x)/2. The product of the two halves is u, which
    # gives the smaller one without cancellation.
    a, b, c = cov[:2, :2], cov[2:, 2:], cov[:2, 2:]
    det_a, det_b, det_c = _det2(a), _det2(b), _det2(c)
    j = symplectic_form(1)
    x = det_a - det_b
    u = det_c * (det_a + det_b) + float(np.trace(j @ a @ j @ c @ j @ b @ j @ c.T))
    q = math.sqrt(max(x * x + 4.0 * u, 0.0))
    big = 0.5 * (q + abs(x))
    small = u / big if big > 0.0 else 0.0
    q_minus_x, q_plus_x = (small, big) if x >= 0.0 else (big, small)

    hi2 = 0.5 * (det_a + det_b + 2.0 * det_c + q)
    lo2 = det_v / hi2  # not (Delta - q)/2, which cancels for nu_- << nu_+
    if q > _DEGENERATE_RTOL * hi2:
        k_hi = symplectic_form(2) @ cov
        k_hi = k_hi @ k_hi
        k_lo = k_hi.copy()
        k_hi[:2, :2] = q_minus_x * _EYE2
        k_hi[2:, 2:] = q_plus_x * _EYE2
        k_lo[:2, :2] = -q_plus_x * _EYE2
        k_lo[2:, 2:] = -q_minus_x * _EYE2
        p_hi = -cov @ k_lo / (q * math.sqrt(hi2))
        p_lo = cov @ k_hi / (q * math.sqrt(lo2))
        parts = np.array([p_hi + p_hi.T, p_lo + p_lo.T]) / 2.0
    else:
        parts = np.array([cov / (2.0 * math.sqrt(hi2)), cov / (2.0 * math.sqrt(lo2))])
    return _snap(np.sqrt([hi2, lo2]), pure_tol), parts


class _PairData:
    """A hypothesis pair analysed once, for Q_s at any number of s.

    Each column k is one symplectic eigenvalue, of rho_A (power p = s) or
    of rho_B (power p = 1 - s): p = sign * s + offset. The dual parts
    Omega P_k Omega^T are stored scaled to the unit diagonal of
    V_A^-1 + V_B^-1, without which the determinant loses several ulps of Q
    near 1. The factors (2/(nu_k+1))^p_k multiply to g_b * ratio^s with
    g_b = prod_B 2/(nu+1) and ratio = prod_B (nu+1) / prod_A (nu+1), which
    is close to 1 when the hypotheses are; exponentiating each
    ln(2/(nu+1)) ~ -9 separately would lose several ulps of Q.
    """

    def __init__(self, pair: HypothesisPair):
        if pair.rho_a.n_modes != pair.rho_b.n_modes:
            raise ValidationError("hypothesis pair has mismatched mode counts")
        nu_a, parts_a = _mode_parts(pair.rho_a.cov)
        nu_b, parts_b = _mode_parts(pair.rho_b.cov)
        nu = np.concatenate([nu_a, nu_b])
        self.n_modes, self.split = pair.rho_a.n_modes, nu_a.size  # [:split]: rho_A
        omega = symplectic_form(self.n_modes)
        dual = omega @ np.concatenate([parts_a, parts_b]) @ omega.T
        # diag of V_A^-1 + V_B^-1, the size of Sigma' away from s = 0 and 1.
        scale = np.sqrt((np.diagonal(dual, axis1=1, axis2=2) / nu[:, None]).sum(axis=0))
        on_b = np.arange(nu.size) >= nu_a.size
        self.sign, self.offset = np.where(on_b, -1.0, 1.0), on_b.astype(float)
        self.ln_r = _log_ratio(nu)
        self.g_b = float(np.prod(2.0 / (nu_b + 1.0)))
        self.ratio = float(np.prod(nu_b + 1.0) / np.prod(nu_a + 1.0))
        self.dual = (dual / np.outer(scale, scale)).reshape(nu.size, -1)
        self.det_scale = float(np.prod(scale) ** 2)
        d = pair.rho_a.mean - pair.rho_b.mean
        self.dual_d = (dual @ d) / scale if np.any(d) else None

    def q(self, s: np.ndarray) -> np.ndarray:
        """Q_s for an array of s in [_S_EDGE, 1 - _S_EDGE]."""
        em = _em(s[:, None] * self.sign + self.offset, self.ln_r)
        inv_lam = em / (2.0 - em)
        dim = 2 * self.n_modes
        sigma = (inv_lam @ self.dual).reshape(s.size, dim, dim)
        det = np.linalg.det(sigma) * self.det_scale
        if not np.all(det > 0.0):
            raise ValidationError(_SINGULAR)
        g_over_lam = self.g_b * self.ratio**s / np.prod(2.0 - em, axis=1)
        value = 2.0 ** self.n_modes * g_over_lam / np.sqrt(det)
        if self.dual_d is not None:
            # d^T Sigma^-1 d = (V_A(s)^-1 d)^T Sigma'^-1 (V_B(1-s)^-1 d)
            k = self.split
            u_a = inv_lam[:, :k] @ self.dual_d[:k]
            u_b = inv_lam[:, k:] @ self.dual_d[k:]
            sol = np.linalg.solve(sigma, u_b[..., None])[..., 0]
            value = value * np.exp(-0.5 * np.sum(u_a * sol, axis=1))
        return value

    def infimum(self) -> tuple[float, float]:
        """(s_star, q_min) by the search of gqi.chernoff, in float64."""
        q = lambda s: self.q(s[0])[None]  # noqa: E731
        s_star, q_min = _infimum(q, q, 1)
        return float(s_star[0]), min(float(q_min[0]), 1.0)

