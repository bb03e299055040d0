"""Quantum Chernoff bound for Gaussian hypothesis pairs and the SNR map.

Q_s = Tr(rho_A^s rho_B^{1-s}) for one- and two-mode Gaussian states follows
Pirandola & Lloyd, PRA 78, 012331 (2008):

    Q_s = 2^n prod_k G_s(alpha_k) G_{1-s}(beta_k) / sqrt(det Sigma_s)
          * exp(-1/2 d^T Sigma_s^{-1} d),
    Sigma_s = V_A(s) + V_B(1-s),   V(p) = S Lambda_p(D) S^T,

where V = S D S^T is the Williamson form of a covariance, alpha_k and beta_k
are the symplectic spectra of the two hypotheses and d is the difference of
their means. No decomposition is computed. Q_s is evaluated in the inverse
form (det V(p) = prod_k Lambda_k^2)

    Q_s = 2^n prod_k (G_k / Lambda_k) / sqrt(det Sigma'_s)
          * exp(-1/2 (V_A(s)^-1 d)^T Sigma'_s^-1 (V_B(1-s)^-1 d)),
    Sigma'_s = V_A(s)^-1 + V_B(1-s)^-1,

whose weights 1/Lambda_k all lie in (0, 1], whereas Lambda_p of a mixed mode
diverges as p -> 0. A pair is analysed once, so that Sigma'_s for a whole
array of s is one matrix product of the weights with fixed parts, and the
infimum over s is a zoom over 64-point scans (Q_s is convex in s).

Standard-form core (discriminate_many). Every pair make_hypotheses builds
has no x-p correlations (Duan, Giedke, Cirac & Zoller, PRL 84, 2722 (2000)):
V = X (+) P with X and P the 2x2 x and p blocks. Then nu_+-^2 are the
eigenvalues of PX (symplectic.standard_form_spectrum), Sigma'_s splits into
an x and a p block, and det Sigma'_s is a product of two 2x2 determinants,
so a batch of pairs is elementwise arithmetic over a (points, 64) array of
s per zoom round. The pairs are analysed in np.longdouble, the zoom runs in
float64, and Q is evaluated once more at each s* in np.longdouble, whose
-ln Q goes on to ln P: 1 - Q ~ 1e-7 at the figure presets, where float64
alone leaves ~eps / (1 - Q) ~ 4e-9 of the SNR. Where np.longdouble is
float64 (macOS arm64, Windows) that evaluation is a float64 one. The
coherent pair, a displaced and an undisplaced thermal state, takes its
closed form at s* = 1/2.

General path (q_s, chernoff_infimum and discriminate on any other pair).
With P_k = S_k S_k^T for the two columns of S that belong to mode k,

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
V(p) = c0 V + c1 V (Omega V)^2, written in its Lagrange basis. Then
Sigma'_s = sum_k Omega P_k Omega^T / Lambda_k, and one batched determinant
(and solve, for displaced pairs) gives every Q_s.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from .probes import (HypothesisPair, ProbeKind, ProbeSpec, TargetScenario,
                     _absent_entries, _probe_entries, _return_entries)
from .symplectic import (StandardSpectrum, ValidationError, _require_finite_mean,
                         _standard_entries, standard_form_spectrum, symplectic_form)

LN_HALF = -math.log(2.0)

# Endpoint clamp for s: the formula is an indeterminate form at s in {0, 1}
# but Q_s is smooth there, so evaluating a hair inside the interval is exact
# to ~1e-12 for full-rank hypotheses.
_S_EDGE = 1e-12

# Points of the guard scan over [0, 1] and of every zoom round after it.
_SCAN_POINTS = 64
_STEPS = np.linspace(0.0, 1.0, _SCAN_POINTS)
# Offsets from each grid point to the neighbours that bracket it, inside
# the grid.
_NEIGHBOURS = np.array([[-min(i, 1), min(_SCAN_POINTS - 1 - i, 1)]
                        for i in range(_SCAN_POINTS)])

# Power of each column of a standard-form pair (nu_+, nu_- of rho_A, then
# of rho_B): p = sign s + offset.
_SIGN = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
_OFFSET = np.array([0.0, 0.0, 1.0, 1.0])[:, None]

# Rows of [K; -K_12, -K_21] (K = PX - nu_-^2, entries 11, 12, 21, 22) and of
# the standard-form entries that make the 2x2 factors of K P, K^T X, L P and
# L^T X, where L = nu_+^2 - PX = [[K_22, -K_12], [-K_21, K_11]].
_LEFT = np.array([[[0, 1], [2, 3]], [[0, 2], [1, 3]],
                  [[3, 4], [5, 0]], [[3, 5], [4, 0]]])
_RIGHT = np.array([[[1, 5], [5, 3]], [[0, 4], [4, 2]]] * 2)


# A symplectic eigenvalue within a tolerance of 1 is a pure mode, where G_p
# and Lambda_p take their exact limit 1. Lambda_p(1 + e) - 1 grows like e^p,
# so the rounding left in a pure mode's eigenvalue must not be passed on.
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

# The standard-form analysis splits the modes while nu_+^2 - nu_-^2 exceeds
# this many ulps of nu_+^2 in the dtype it runs in: the projectors then lose
# ~eps / gap of their size, which enters Sigma'_s with a weight difference
# proportional to the gap, so that the product stays ~eps.
_DEGENERATE_ULPS = 64

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


@dataclass(frozen=True)
class _StandardPairs:
    """n standard-form two-mode pairs analysed once, for Q_s at any s.

    Axis 0 runs over the pairs. The four columns are nu_+ and nu_- of rho_A
    (power s) and of rho_B (power 1 - s); dual holds, per column, the x and
    p blocks (entries 11, 12, 22) of its part of Sigma'_s, so that one
    matrix product with the weights 1/Lambda_k gives Sigma'_s and
    det Sigma'_s = det(x block) det(p block). Q_s comes in the dtype of the
    arrays: float64 for the zoom, np.longdouble at s*.
    """

    ln_r: np.ndarray      # (n, 4, 1)
    dual: np.ndarray      # (n, 6, 4)
    ln_g: np.ndarray      # (n, 1): ln 2^n + sum_B ln(2 / (nu + 1))
    ln_ratio: np.ndarray  # (n, 1): sum_B ln(nu + 1) - sum_A ln(nu + 1)

    def astype(self, dtype) -> "_StandardPairs":
        return _StandardPairs(*(getattr(self, f.name).astype(dtype)
                                for f in fields(self)))

    def q(self, s: np.ndarray) -> np.ndarray:
        """Q_s for an (n, m) array of s in [_S_EDGE, 1 - _S_EDGE]."""
        n, m = s.shape
        p = s[:, None, :] * _SIGN + _OFFSET  # s for rho_A, 1 - s for rho_B
        e = np.expm1(np.multiply(p, self.ln_r, out=p), out=p)  # -em
        d = -2.0 - e  # -(2 - em), so prod(d) = prod(2 - em)
        sigma = (self.dual @ (e / d)).reshape(n, 2, 3, m)
        det = sigma[:, :, 0] * sigma[:, :, 2] - sigma[:, :, 1] ** 2
        return np.exp(self.ln_g + s * self.ln_ratio) / (
            np.multiply.reduce(d, axis=1) * np.sqrt(det[:, 0] * det[:, 1]))


def _standard_pairs(entries: np.ndarray, spec: StandardSpectrum) -> _StandardPairs:
    """Analyse n standard-form pairs: entries (6, 2n), rho_A's then rho_B's.

    With X and P the x and p blocks of V and M = PX (Williamson V = S D S^T,
    S = S_x + S_p), V(p)^-1 = X(p)^-1 + P(p)^-1, where

        X(p)^-1 = sum_k Pi_k P / (nu_k Lambda_k),
        P(p)^-1 = sum_k Pi_k^T X / (nu_k Lambda_k),

    Pi_k the spectral projectors of M: Pi_+ = (M - nu_-^2) / g and
    Pi_- = (nu_+^2 - M) / g. Each column of dual is one Pi_k P / nu_k with
    its Pi_k^T X / nu_k, the six entries (11, 12, 22) of both blocks. At a
    gap g within rounding of 0, both take half of P / nu_k and X / nu_k.
    """
    n = entries.shape[1] // 2
    ax, ap, bx, bp, cx, cp = entries
    # K = PX - nu_-^2 = g Pi_+ and L = nu_+^2 - PX = g Pi_-, as 2x2 stacks,
    # times P and X: K P, K^T X, L P, L^T X.
    k = np.concatenate([spec.k, -spec.k[1:3]])
    left = k[_LEFT].transpose(0, 3, 1, 2)
    right = entries[_RIGHT].transpose(0, 3, 1, 2)
    scale = spec.gap * spec.nu[[0, 0, 1, 1]]
    split = spec.gap > _DEGENERATE_ULPS * np.finfo(entries.dtype).eps * spec.nu[0] ** 2
    if split.all():
        prod = left @ right
    else:
        prod = np.where(split[:, None, None], left @ right, right)
        scale = np.where(split, scale, 2.0 * spec.nu[[0, 0, 1, 1]])
    prod = prod.reshape(4, 2 * n, 4)
    sym = (prod[..., [0, 1, 3]] + prod[..., [0, 2, 3]]) * (0.5 / scale)[..., None]
    # (hi x, hi p, lo x, lo p; A then B; entry) -> (pair; x then p entries;
    # A hi, A lo, B hi, B lo)
    dual = sym.reshape(2, 2, 2, n, 3).transpose(3, 1, 4, 2, 0).reshape(n, 6, 4)

    det_r = (spec.nu[0] * spec.nu[1]) ** 2 / (ax * bx * ap * bp)
    pure_tol = _PURE_ULPS * np.finfo(float).eps * (np.abs(entries).max(axis=0)
                                                    + 1.0 / det_r)
    nu = _snap(spec.nu, pure_tol)
    ln_nu1 = np.log1p(nu).reshape(2, 2, n).sum(axis=0)  # sum over a state's modes
    return _StandardPairs(
        ln_r=_log_ratio(nu).reshape(2, 2, n).transpose(2, 1, 0).reshape(n, 4, 1),
        dual=dual,
        ln_g=(4.0 * np.log(entries.dtype.type(2.0)) - ln_nu1[1])[:, None],
        ln_ratio=(ln_nu1[1] - ln_nu1[0])[:, None],
    )


def _discriminate_standard(ent_a: np.ndarray, ent_b: np.ndarray,
                           ensembles: np.ndarray, tol: float) -> list:
    """Chernoff infimum, ln P and SNR of n standard-form two-mode pairs.

    ent_a and ent_b are the (6, n) entries of rho_A and rho_B in float64.
    They are analysed in np.longdouble; a zoom in float64 finds s*, and Q is
    evaluated once more at s* in np.longdouble, whose -ln Q goes on to ln P.
    One entry per pair: its DiscriminationResult or its ValidationError.
    """
    n = ent_a.shape[1]
    entries = np.concatenate([ent_a, ent_b], axis=1).astype(np.longdouble)
    spec = standard_form_spectrum(entries)
    out: list = [None] * n
    for i in range(n):
        reason = spec.errors[i] or spec.errors[n + i]
        if reason:
            out[i] = ValidationError(reason)
    ok = np.flatnonzero([r is None for r in out])
    if not ok.size:
        return out
    if ok.size < n:
        entries = entries[:, np.concatenate([ok, n + ok])]
        spec = standard_form_spectrum(entries)
    pairs = _standard_pairs(entries, spec)
    s_star, _ = _zoom(pairs.astype(float).q, ok.size, tol)
    with np.errstate(invalid="ignore"):
        q = pairs.q(s_star[:, None].astype(np.longdouble))[:, 0]
    exponent = np.maximum(-np.log1p(q - 1.0), 0.0).astype(float)
    for i, result, good in zip(ok, _results(s_star, exponent, ensembles[ok]),
                               np.isfinite(q) & (q > 0.0)):
        out[i] = result if good else ValidationError(
            "V_A(s) + V_B(1-s) is singular")
    return out


def _results(s_star: np.ndarray, exponent: np.ndarray,
             ensembles: np.ndarray) -> list[DiscriminationResult]:
    """Results from s* and -ln Q_min >= 0: ln P = -M (-ln Q_min) + ln(1/2)."""
    log_p = LN_HALF - ensembles * exponent
    y = ndtri_exp(log_p)
    return [DiscriminationResult(*row) for row in zip(
        s_star.tolist(), np.exp(-exponent).tolist(), log_p.tolist(),
        (0.5 * y * y).tolist())]


def _coherent(signal: np.ndarray, nb: np.ndarray, ensembles: np.ndarray) -> list:
    """Displaced against undisplaced thermal state, both of N_B photons.

    Q_s is smallest at s = 1/2 by symmetry, where
    -ln Q = |d|^2/4 (sqrt(N_B + 1) - sqrt(N_B))^2 with |d|^2/4 = signal, the
    classical-illumination exponent kappa N_S (sqrt(N_B + 1) - sqrt(N_B))^2
    (Tan et al., PRL 101, 253601 (2008)), written without cancellation.
    """
    with np.errstate(over="ignore"):
        exponent = signal / (np.sqrt(nb + 1.0) + np.sqrt(nb)) ** 2
        thermal = 2.0 * nb + 1.0
    out = _results(np.full(nb.size, 0.5), exponent, ensembles)
    for i in np.flatnonzero(~np.isfinite(thermal)):
        out[i] = ValidationError("covariance has a non-finite entry")
    return out


def _zoom(q, n: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimize n convex functions of s over [0, 1]; returns (s_star, minimum).

    q maps an (n, m) array of s to the values there. Each row's grid point
    with the smallest value brackets its minimum between its neighbours. A
    64-point scan of [0, 1] finds that bracket, and 64-point scans of the
    bracket shrink it by 2/63 per round until it is no wider than 2 tol, or
    until rounding stops it shrinking. Rows that stop keep their bracket and
    best value while the others go on.
    """
    lo = np.full((n, 1), _S_EDGE)
    width = np.full((n, 1), 1.0 - 2.0 * _S_EDGE)
    s_star, best = np.full(n, 0.5), np.full(n, np.inf)
    active = np.ones(n, dtype=bool)
    row_start = np.arange(n) * _SCAN_POINTS
    while True:
        grid = lo + width * _STEPS
        values = q(grid)
        i = values.argmin(axis=1)
        at = row_start + i
        value = values.take(at)
        better = value < best
        np.copyto(best, value, where=better)
        np.copyto(s_star, grid.take(at), where=better)
        ends = grid.take(at[:, None] + _NEIGHBOURS[i])
        new_width = ends[:, 1] - ends[:, 0]
        active &= (new_width > 2.0 * tol) & (new_width < width[:, 0])
        if not active.any():
            return s_star, best
        np.copyto(lo[:, 0], ends[:, 0], where=active)
        np.copyto(width[:, 0], new_width, where=active)


def q_s(pair: HypothesisPair, s: float) -> float:
    """Tr(rho_A^s rho_B^{1-s}) for a Gaussian hypothesis pair."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"s must lie in [0, 1], got {s}")
    s = min(max(s, _S_EDGE), 1.0 - _S_EDGE)
    return float(_pair_data(pair).q(np.array([s]))[0])


def chernoff_infimum(pair: HypothesisPair, tol: float = DEFAULT_S_TOL) -> tuple[float, float]:
    """Minimize Q_s over s in [0, 1] by a zoom search; returns (s_star, q_min).

    Any one- or two-mode pair, through its general 4x4 analysis.
    """
    data = _pair_data(pair)
    s_star, q_min = _zoom(lambda s: data.q(s[0])[None], 1, tol)
    return float(s_star[0]), min(float(q_min[0]), 1.0)


def _check_ensembles(ensembles: float) -> None:
    if not 0.0 < ensembles < math.inf:
        raise ValidationError(f"ensembles must be > 0 and finite, got {ensembles}")


def log_error_prob(q_min: float, ensembles: float) -> float:
    """ln of the M-copy Chernoff bound, (1/2) q_min^M, computed stably."""
    if not 0.0 < q_min <= 1.0:
        raise ValidationError(f"q_min must lie in (0, 1], got {q_min}")
    _check_ensembles(ensembles)
    log_q = math.log1p(q_min - 1.0) if q_min > 0.5 else math.log(q_min)
    return ensembles * log_q + LN_HALF


def snr_from_log_p(log_p: float) -> float:
    """Invert log_p = ln[(1/2) erfc(sqrt(x))] for x >= 0.

    Uses the identity (1/2) erfc(y) = Phi(-y sqrt(2)) so the inversion is a
    single call to the inverse of the log-domain normal CDF, valid far below
    where the probability itself underflows.
    """
    if not log_p <= LN_HALF + 1e-15:
        raise ValidationError(f"log_p must be <= ln(1/2), got {log_p}")
    y = float(ndtri_exp(min(log_p, LN_HALF)))
    return 0.5 * y * y


def log_p_from_snr(snr_value: float) -> float:
    """Forward map ln[(1/2) erfc(sqrt(x))], the inverse of snr_from_log_p."""
    if not snr_value >= 0:
        raise ValidationError(f"snr must be >= 0, got {snr_value}")
    return float(log_ndtr(-math.sqrt(2.0 * snr_value)))


def discriminate_many(probes: Sequence[ProbeSpec],
                      scenarios: Sequence[TargetScenario],
                      tol: float = DEFAULT_S_TOL) -> list:
    """Chernoff infimum -> M-copy log P -> SNR for many (probe, scenario) points.

    The points are evaluated as one batch: two-mode probes through the
    standard-form core, with one zoom over a (points, 64) array of s per
    round, and coherent probes in closed form at s* = 1/2. Returns, per
    point, its DiscriminationResult or the ValidationError that rejected it;
    a bad point does not fail the others.
    """
    if len(probes) != len(scenarios):
        raise ValidationError(
            f"{len(probes)} probes against {len(scenarios)} scenarios")
    kappa, nb, ensembles = (np.array([getattr(sc, k) for sc in scenarios], dtype=float)
                            for k in ("kappa", "nb", "ensembles"))
    coherent = [i for i, p in enumerate(probes) if p.kind is ProbeKind.COHERENT]
    two_mode = [i for i, p in enumerate(probes) if p.kind is not ProbeKind.COHERENT]
    out: list = [None] * len(probes)
    if coherent:
        ns = np.array([probes[i].ns for i in coherent], dtype=float)
        results = _coherent(kappa[coherent] * ns, nb[coherent], ensembles[coherent])
        for i, result in zip(coherent, results):
            out[i] = result
    if two_mode:
        n0, n1, n2 = (np.array([getattr(probes[i], k) for i in two_mode], dtype=float)
                      for k in ("n0", "n1", "n2"))
        with np.errstate(over="ignore", invalid="ignore"):
            entries = _probe_entries(n0, n1, n2)
            ent_a = np.array(_return_entries(entries, kappa[two_mode], nb[two_mode]))
            ent_b = np.array(_absent_entries(entries, nb[two_mode]))
        results = _discriminate_standard(ent_a, ent_b, ensembles[two_mode], tol)
        for i, result in zip(two_mode, results):
            out[i] = result
    return out


def _one(result):
    if isinstance(result, ValidationError):
        raise result
    return result


def discriminate(pair: HypothesisPair, ensembles: float,
                 tol: float = DEFAULT_S_TOL) -> DiscriminationResult:
    """Chernoff infimum -> M-copy log P -> SNR for a built hypothesis pair.

    The pair's form selects the path: two-mode pairs in standard form with
    equal means (every pair make_hypotheses builds from a two-mode probe)
    and one-mode pairs of one thermal covariance (the coherent probe) take
    the batched core of discriminate_many; any other pair the general one.
    """
    _check_ensembles(ensembles)
    a, b = pair.rho_a, pair.rho_b
    _require_finite_mean(a.mean)
    _require_finite_mean(b.mean)
    m = np.array([ensembles], dtype=float)
    if a.n_modes == b.n_modes == 2 and np.array_equal(a.mean, b.mean):
        ent_a, ent_b = _standard_entries(a.cov), _standard_entries(b.cov)
        if ent_a is not None and ent_b is not None:
            return _one(_discriminate_standard(np.array(ent_a)[:, None],
                                               np.array(ent_b)[:, None], m, tol)[0])
    if (a.n_modes == b.n_modes == 1 and np.array_equal(a.cov, b.cov)
            and a.cov[0, 1] == a.cov[1, 0] == 0.0 and a.cov[0, 0] == a.cov[1, 1]):
        d = a.mean - b.mean
        nb = np.array([max(0.5 * (a.cov[0, 0] - 1.0), 0.0)])
        return _one(_coherent(np.array([0.25 * (d @ d)]), nb, m)[0])
    s_star, q_min = chernoff_infimum(pair, tol=tol)
    log_p = log_error_prob(q_min, ensembles)
    return DiscriminationResult(s_star, q_min, log_p, snr_from_log_p(log_p))


def snr(probe: ProbeSpec, scenario: TargetScenario,
        tol: float = DEFAULT_S_TOL) -> DiscriminationResult:
    """Full pipeline for one point: hypotheses -> Chernoff infimum -> log P -> SNR."""
    return _one(discriminate_many([probe], [scenario], tol)[0])
