"""Quantum Chernoff bound for Gaussian hypothesis pairs and the SNR map.

Q_s = Tr(rho_A^s rho_B^{1-s}) for one- and two-mode Gaussian states follows
Pirandola & Lloyd, PRA 78, 012331 (2008):

    Q_s = 2^n prod_k G_s(alpha_k) G_{1-s}(beta_k) / sqrt(det Sigma_s)
          * exp(-1/2 d^T Sigma_s^{-1} d),
    Sigma_s = V_A(s) + V_B(1-s),   V(p) = S Lambda_p(D) S^T,

where V = S D S^T is the Williamson form of a covariance, alpha_k and beta_k
are the symplectic spectra of the two hypotheses and d is the difference of
their means. No decomposition is computed. With P_k = S_k S_k^T for the two
columns of S that belong to mode k,

    V(p) = sum_k Lambda_p(nu_k) P_k,

and both nu_k and P_k have closed forms. One mode: nu = sqrt(det V) and
P = V / nu. Two modes, with blocks V = [[A, C], [C^T, B]] (Serafini,
Illuminati & De Siena, J. Phys. B 37, L21 (2004)):

    nu_+-^2 = (Delta +- sqrt(Delta^2 - 4 det V)) / 2,
    Delta = det A + det B + 2 det C,

and since (Omega V)^2 = -S^{-T} D^2 S^T, the matrix (Omega V)^2 + nu_-+^2
annihilates mode -+, which leaves

    nu_+- P_+- = -+V ((Omega V)^2 + nu_-+^2) / (nu_+^2 - nu_-^2).

This is the 2-point Lagrange fit of Lambda_p(nu)/nu against -nu^2 in
V(p) = c0 V + c1 V (Omega V)^2, written in its Lagrange basis.

A pair is analysed once: spectra and P_k of both covariances. Q_s is then
evaluated in the inverse form (det V(p) = prod_k Lambda_k^2)

    Q_s = 2^n prod_k (G_k / Lambda_k) / sqrt(det Sigma'_s)
          * exp(-1/2 (V_A(s)^-1 d)^T Sigma'_s^-1 (V_B(1-s)^-1 d)),
    Sigma'_s = V_A(s)^-1 + V_B(1-s)^-1 = sum_k Omega P_k Omega^T / Lambda_k,

whose weights 1/Lambda_k all lie in (0, 1], whereas Lambda_p of a mixed mode
diverges as p -> 0. For a whole array of s, Sigma'_s is one matrix product
of the weights with the fixed Omega P_k Omega^T, and one batched determinant
(and solve, for displaced pairs) gives every Q_s.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .probes import HypothesisPair, ProbeSpec, TargetScenario, make_hypotheses
from .symplectic import EIGENVALUE_CLAMP_TOL, ValidationError, symplectic_form

LN_HALF = -math.log(2.0)

# Endpoint clamp for s: the formula is an indeterminate form at s in {0, 1}
# but Q_s is smooth there, so evaluating a hair inside the interval is exact
# to ~1e-12 for full-rank hypotheses.
_S_EDGE = 1e-12

# Points of the guard scan over [0, 1] and of every zoom round after it.
_SCAN_POINTS = 64

# A symplectic eigenvalue within a tolerance of 1 is a pure mode, where G_p
# and Lambda_p take their exact limit 1. Lambda_p(1 + e) - 1 grows like e^p,
# so the rounding left in a pure mode's eigenvalue must not be passed on.
# g_func and lambda_func, given a bare eigenvalue, use _PURE_TOL.
_PURE_TOL = 1e-14

# Inside Q_s the tolerance is _PURE_ULPS eps (max|V| + 1/det R), R being V
# scaled to unit diagonal: the entries of V carry ~eps max|V| (from the
# squeezers that built it), and the closed-form spectrum loses ~eps / det R
# to cancellation. On random pure-mode covariances (squeezed ASTM channel
# outputs with N_B = 0, two-mode squeezed vacuum modes, S D S^T with random
# symplectic S) a pure eigenvalue's rounding stayed below 13 eps (max|V| +
# 1/det R) in 99% of the draws and below 160 eps (max|V| + 1/det R) in all.
_PURE_ULPS = 256

# Relative gap nu_+^2 - nu_-^2 below which the spectrum counts as degenerate:
# P_+- = V / (2 nu_+-), which leaves out a term of this relative size.
_DEGENERATE_RTOL = 1e-14

DEFAULT_S_TOL = 1e-9

_EYE2 = np.eye(2)


@dataclass
class DiscriminationResult:
    """Chernoff-optimal s, Q minimum, M-copy log error probability, and SNR."""

    s_star: float
    q_min: float
    log_error_prob: float
    snr: float


def _log_ratio(nu: np.ndarray) -> np.ndarray:
    """ln((nu-1)/(nu+1)), -inf at a pure mode."""
    with np.errstate(divide="ignore"):
        return np.log1p(-2.0 / (nu + 1.0))


def _em(p: np.ndarray, ln_r: np.ndarray) -> np.ndarray:
    """em = 1 - ((nu-1)/(nu+1))^p for p > 0, computed cancellation-free.

    G_p = (2/(nu+1))^p / em and Lambda_p = (2 - em) / em stay accurate for
    nu >> 1 and for p -> 0; a pure mode gives em = 1, so G_p = Lambda_p = 1.
    """
    return -np.expm1(p * ln_r)


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


def _snap(nu: np.ndarray, tol: float) -> np.ndarray:
    """Clamp rounding below 1 and set pure modes (nu <= 1 + tol) to exactly 1."""
    return np.where(nu <= 1.0 + tol, 1.0, nu)


def v_of_p(cov: np.ndarray, p: float) -> np.ndarray:
    """S Lambda_p(D) S^T for the Williamson form V = S D S^T of cov."""
    nu, parts = _mode_parts(cov)
    lam = [lambda_func(p, x) for x in nu]
    return np.tensordot(lam, parts, axes=1)


@dataclass(frozen=True)
class _PairData:
    """A hypothesis pair analysed once, for Q_s at any number of s.

    Each column k is one symplectic eigenvalue, of rho_A (power p = s) or
    of rho_B (power p = 1 - s): p = sign * s + offset. The dual parts
    Omega P_k Omega^T are stored scaled to the unit diagonal of
    V_A^-1 + V_B^-1: without it the determinant lost several ulps of Q near
    1, and the figure-table SNRs were up to 1.8e-8 off a 50-digit reference
    instead of 2.7e-9. The factors
    (2/(nu_k+1))^p_k multiply to g_b * ratio^s with g_b = prod_B 2/(nu+1)
    and ratio = prod_B (nu+1) / prod_A (nu+1), which is close to 1 when the
    hypotheses are; exponentiating each ln(2/(nu+1)) ~ -9 separately would
    lose several ulps of Q.
    """

    n_modes: int
    split: int  # columns [:split] belong to rho_A
    sign: np.ndarray
    offset: np.ndarray
    ln_r: np.ndarray
    g_b: float
    ratio: float
    dual: np.ndarray  # (k, 4 n^2), scaled Omega P_k Omega^T
    det_scale: float
    dual_d: np.ndarray | None  # (k, 2n), scaled Omega P_k Omega^T d

    def q(self, s: np.ndarray) -> np.ndarray:
        """Q_s for an array of s in [_S_EDGE, 1 - _S_EDGE]."""
        em = _em(s[:, None] * self.sign + self.offset, self.ln_r)
        inv_lam = em / (2.0 - em)
        dim = 2 * self.n_modes
        sigma = (inv_lam @ self.dual).reshape(s.size, dim, dim)
        det = np.linalg.det(sigma) * self.det_scale
        if not np.all(det > 0.0):
            raise ValidationError("V_A(s) + V_B(1-s) is singular")
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


def _pair_data(pair: HypothesisPair) -> _PairData:
    if pair.rho_a.n_modes != pair.rho_b.n_modes:
        raise ValidationError("hypothesis pair has mismatched mode counts")
    nu_a, parts_a = _mode_parts(pair.rho_a.cov)
    nu_b, parts_b = _mode_parts(pair.rho_b.cov)
    nu = np.concatenate([nu_a, nu_b])
    omega = symplectic_form(pair.rho_a.n_modes)
    dual = omega @ np.concatenate([parts_a, parts_b]) @ omega.T
    # diag of V_A^-1 + V_B^-1, the size of Sigma' away from s = 0 and 1.
    scale = np.sqrt((np.diagonal(dual, axis1=1, axis2=2) / nu[:, None]).sum(axis=0))
    d = pair.rho_a.mean - pair.rho_b.mean
    on_b = np.arange(nu.size) >= nu_a.size
    return _PairData(
        n_modes=pair.rho_a.n_modes, split=nu_a.size,
        sign=np.where(on_b, -1.0, 1.0), offset=on_b.astype(float),
        ln_r=_log_ratio(nu), g_b=float(np.prod(2.0 / (nu_b + 1.0))),
        ratio=float(np.prod(nu_b + 1.0) / np.prod(nu_a + 1.0)),
        dual=(dual / np.outer(scale, scale)).reshape(nu.size, -1),
        det_scale=float(np.prod(scale) ** 2),
        dual_d=(dual @ d) / scale if np.any(d) else None,
    )


def q_s(pair: HypothesisPair, s: float) -> float:
    """Tr(rho_A^s rho_B^{1-s}) for a Gaussian hypothesis pair."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"s must lie in [0, 1], got {s}")
    s = min(max(s, _S_EDGE), 1.0 - _S_EDGE)
    return float(_pair_data(pair).q(np.array([s]))[0])


def chernoff_infimum(pair: HypothesisPair, tol: float = DEFAULT_S_TOL) -> tuple[float, float]:
    """Minimize Q_s over s in [0, 1]; returns (s_star, q_min).

    Q_s is convex in s, so the grid point with the smallest value brackets
    the minimum between its neighbours. A 64-point scan of [0, 1] finds that
    bracket, and 64-point scans of the bracket shrink it by 2/63 per round
    until it is no wider than 2 tol, or until rounding stops it shrinking.
    """
    data = _pair_data(pair)
    lo, hi = _S_EDGE, 1.0 - _S_EDGE
    s_star, q_min = 0.5, math.inf
    while True:
        grid = np.linspace(lo, hi, _SCAN_POINTS)
        values = data.q(grid)
        i = int(np.argmin(values))
        if values[i] < q_min:
            s_star, q_min = float(grid[i]), float(values[i])
        width = hi - lo
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, _SCAN_POINTS - 1)]
        if hi - lo <= 2.0 * tol or hi - lo >= width:
            return s_star, min(q_min, 1.0)


def log_error_prob(q_min: float, ensembles: float) -> float:
    """ln of the M-copy Chernoff bound, (1/2) q_min^M, computed stably."""
    if not 0.0 < q_min <= 1.0:
        raise ValidationError(f"q_min must lie in (0, 1], got {q_min}")
    log_q = math.log1p(q_min - 1.0) if q_min > 0.5 else math.log(q_min)
    return ensembles * log_q + LN_HALF


def snr_from_log_p(log_p: float) -> float:
    """Invert log_p = ln[(1/2) erfc(sqrt(x))] for x >= 0.

    Uses the identity (1/2) erfc(y) = Phi(-y sqrt(2)) so the inversion is a
    single call to the inverse of the log-domain normal CDF, valid far below
    where the probability itself underflows.
    """
    if log_p > LN_HALF + 1e-15:
        raise ValidationError(f"log_p must be <= ln(1/2), got {log_p}")
    y = float(ndtri_exp(min(log_p, LN_HALF)))
    return 0.5 * y * y


def log_p_from_snr(snr_value: float) -> float:
    """Forward map ln[(1/2) erfc(sqrt(x))], the inverse of snr_from_log_p."""
    if snr_value < 0:
        raise ValidationError(f"snr must be >= 0, got {snr_value}")
    return float(log_ndtr(-math.sqrt(2.0 * snr_value)))


def discriminate(pair: HypothesisPair, ensembles: float,
                 tol: float = DEFAULT_S_TOL) -> DiscriminationResult:
    """Chernoff infimum -> M-copy log P -> SNR for a built hypothesis pair."""
    s_star, q_min = chernoff_infimum(pair, tol=tol)
    log_p = log_error_prob(q_min, ensembles)
    return DiscriminationResult(s_star, q_min, log_p, snr_from_log_p(log_p))


def snr(probe: ProbeSpec, scenario: TargetScenario,
        tol: float = DEFAULT_S_TOL) -> DiscriminationResult:
    """Full pipeline: hypotheses -> Chernoff infimum -> log P -> SNR."""
    return discriminate(make_hypotheses(probe, scenario), scenario.ensembles, tol)
