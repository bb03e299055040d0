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
array of s is one matrix product of the weights with fixed parts.

The infimum over s (Q_s is convex in s) takes two 64-point float64 scans
(_infimum): one of [0, 1], then one of the bracket around its best point.
Two parabolic vertices refine the second scan's best point: that of its
three values around the best point, which removes the grid's error where
float64 resolves their curvature, and that of a least-squares parabola
through the whole scan, which averages over rounding at high noise, where
the values near the minimum differ by a few ulps. Q is evaluated once more
at the best point and both vertices, and the smallest is kept.

Standard-form core (discriminate_many). Every pair make_hypotheses builds
has no x-p correlations (Duan, Giedke, Cirac & Zoller, PRL 84, 2722 (2000)):
V = X (+) P with X and P the 2x2 x and p blocks. Then nu_+-^2 are the
eigenvalues of PX (symplectic.standard_form_spectrum), Sigma'_s splits into
an x and a p block, and det Sigma'_s is a product of two 2x2 determinants,
so a batch of pairs is elementwise arithmetic over a (points, 64) array of
s per scan. The pairs are analysed in np.longdouble, the scans run in
float64, and the last evaluation, at the three candidates for s*, runs in
np.longdouble, whose -ln Q goes on to ln P: 1 - Q ~ 1e-7 at the figure
presets, where float64 alone leaves ~eps / (1 - Q) ~ 4e-9 of the SNR. Where
np.longdouble is float64 (macOS arm64, Windows) that evaluation is a float64
one. -ln Q is -log1p(Q - 1) above 1/2 and -ln Q below, on every path
(_exponent). The coherent pair, a displaced and an undisplaced thermal
state, takes its closed form at s* = 1/2.

One pair (snr, discriminate, chernoff_infimum, q_s) takes the same core
without arrays of pairs: its entries are analysed as np.longdouble scalars
(_standard_one) and its search is bookkept on floats (_infimum_one), around
the same three numpy evaluations of Q_s. Each step is the operation the
batch applies to the pair's row, so one point gives the bits of its row in
any batch.

Every built pair goes through one router (_route), shared by q_s,
chernoff_infimum and discriminate: two-mode pairs in standard form with
equal means take the standard-form core, and coherent pairs the closed
form. Q_s of a coherent pair away from s* and any other pair take the
general path (_PairData), the one- or two-mode analysis below.

General path. With P_k = S_k S_k^T for the two columns of S that belong
to mode k, V(p) = sum_k Lambda_p(nu_k) P_k, and both nu_k and P_k have
closed forms. One mode: nu = sqrt(det V) and P = V / nu. Two modes, with
blocks V = [[A, C], [C^T, B]] (Serafini, Illuminati & De Siena, J. Phys.
B 37, L21 (2004)):

    nu_+-^2 = (Delta +- sqrt(Delta^2 - 4 det V)) / 2,
    Delta = det A + det B + 2 det C,

and since (Omega V)^2 = -S^{-T} D^2 S^T, (Omega V)^2 + nu_-+^2 annihilates
mode -+, which leaves

    nu_+- P_+- = -+V ((Omega V)^2 + nu_-+^2) / (nu_+^2 - nu_-^2),

the 2-point Lagrange fit of Lambda_p(nu)/nu against -nu^2 in
V(p) = c0 V + c1 V (Omega V)^2. Then Sigma'_s = sum_k Omega P_k Omega^T /
Lambda_k, and one batched determinant (and solve, for displaced pairs)
gives every Q_s.

The SNR map ln P = ln[(1/2) erfc(sqrt(SNR))] and its inverse need numpy
no more than the rest: math.erfc, the asymptotic series of erfc, and
Newton in sqrt(SNR) (_snr_from_log_p).
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .probes import (HypothesisPair, ProbeKind, ProbeSpec, TargetScenario,
                     _absent_entries, _probe_entries, _return_entries)
from .symplectic import (ValidationError, _require_finite_mean, _standard_entries,
                         standard_form_spectrum, symplectic_form)

LN_HALF = -math.log(2.0)

# Endpoint clamp for s: the formula is an indeterminate form at s in {0, 1}
# but Q_s is smooth there, so evaluating a hair inside the interval is exact
# to ~1e-12 for full-rank hypotheses.
_S_EDGE = 1e-12

# The SNR map (_snr_from_log_p). math.erfc is within ~1.5 ulp below
# _ERFC_TAIL, where erfc(26) = 5.7e-296; beyond it erfc nears the subnormal
# numbers, and ln erfc comes from its asymptotic series, whose coefficients
# of w^6 down to w are _ERFC_SERIES. Below _ERF_BELOW, erf keeps more
# digits of ln erfc = log1p(-erf) than erfc does. _QUANTILE holds c0, c1,
# d1 and d2 of Abramowitz & Stegun 26.2.22.
_ERFC_TAIL = 26.0
_ERFC_SERIES = (10395.0, -945.0, 105.0, -15.0, 3.0, -1.0)
_ERF_BELOW = 0.5
_QUANTILE = (2.30753, 0.27061, 0.99229, 0.04481)
_NEWTON_STEPS = 3
# At and below it -2 ln P overflows; x = -ln P - ln(2 sqrt(pi x)) - ... then
# rounds to -ln P, whose ulp (~2e291) dwarfs the logarithms (~355).
_LOG_P_HUGE = -math.ldexp(1.0, 1023)
_SQRT_PI = math.sqrt(math.pi)
_HALF_SQRT_PI = 0.5 * _SQRT_PI
_LN_SQRT_PI = math.log(_SQRT_PI)
_SQRT_HALF = math.sqrt(0.5)

# Points of each of the two scans of the search for s*.
_SCAN_POINTS = 64
_STEPS = np.linspace(0.0, 1.0, _SCAN_POINTS)
_GUARD = _S_EDGE + (1.0 - 2.0 * _S_EDGE) * _STEPS
_THREE = np.array([-1, 0, 1])
_STEPS_LIST, _GUARD_LIST = _STEPS.tolist(), _GUARD.tolist()
# Least-squares fit of a u^2 + b u + c to a scan, u = step - 1/2: the
# columns weigh the values into b and a (1, u and u^2 - mean u^2 are
# orthogonal over the symmetric steps).
_U = _STEPS - 0.5
_U2 = _U * _U - np.mean(_U * _U)
_FIT = np.stack([_U / (_U @ _U), _U2 / (_U2 @ _U2)], axis=1)

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
# The nu_k of each of those four factors, and the entries 11, 12, 22 of a
# 2x2 product M and of M^T, whose sum is twice the symmetric part.
_HI_LO = np.array([0, 0, 1, 1])
_SYM = np.array([0, 1, 3]), np.array([0, 2, 3])


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

# Both analyses (_standard, _mode_parts) split the modes while nu_+^2 - nu_-^2
# exceeds this many ulps of nu_+^2 in the dtype they run in: the projectors
# then lose ~eps / gap of their size, which enters Sigma'_s with a weight
# difference proportional to the gap, so that the product stays ~eps.
_DEGENERATE_ULPS = 64

_SINGULAR = "V_A(s) + V_B(1-s) is singular"

# The constants of _standard, in the dtypes its batch forms them in.
_LN_16 = 4.0 * np.log(np.longdouble(2.0))  # ln 2^n of two modes
_SPLIT_ULPS = _DEGENERATE_ULPS * np.finfo(np.longdouble).eps
_PURE_EPS = _PURE_ULPS * np.finfo(float).eps
_ONE = np.longdouble(1.0)

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


def _snap(nu: np.ndarray, tol: float) -> np.ndarray:
    """Clamp rounding below 1 and set pure modes (nu <= 1 + tol) to exactly 1."""
    return np.where(nu <= 1.0 + tol, 1.0, nu)


@dataclass(frozen=True)
class _StandardPairs:
    """n standard-form two-mode pairs analysed once, for Q_s at any s.

    Axis 0 runs over the pairs. The four columns are nu_+ and nu_- of rho_A
    (power s) and of rho_B (power 1 - s); dual holds, per column, the x and
    p blocks (entries 11, 12, 22) of its part of Sigma'_s. Q_s comes in the
    dtype of the arrays.
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


def _standard(ent_a, ent_b) -> tuple:
    """Validate n standard-form two-mode pairs and analyse them in np.longdouble.

    ent_a and ent_b are the (6, n) float64 entries of rho_A and rho_B, or
    the six floats of one pair, which _standard_one analyses on
    np.longdouble scalars into the bits of the batch's column. Returns
    (errors, pairs): errors[i] is why pair i was rejected, or None, and
    pairs the analysis of all n, one spectrum for the batch. A rejected
    pair's numbers mean nothing: the caller silences what they raise and
    drops its Q_s.

    With X and P the x and p blocks of V and M = PX (Williamson V = S D S^T,
    S = S_x + S_p), V(p)^-1 = X(p)^-1 + P(p)^-1, where

        X(p)^-1 = sum_k Pi_k P / (nu_k Lambda_k),
        P(p)^-1 = sum_k Pi_k^T X / (nu_k Lambda_k),

    Pi_k the spectral projectors of M: Pi_+ = (M - nu_-^2) / g and
    Pi_- = (nu_+^2 - M) / g. Each column of dual is one Pi_k P / nu_k with
    its Pi_k^T X / nu_k, the six entries (11, 12, 22) of both blocks. At a
    gap g within rounding of 0, both take half of P / nu_k and X / nu_k.
    """
    if not isinstance(ent_a, np.ndarray):
        return _standard_one(ent_a, ent_b)
    n = ent_a.shape[1]
    entries = np.concatenate([ent_a, ent_b], axis=1).astype(np.longdouble)
    spec = standard_form_spectrum(entries)
    errors = [spec.errors[i] or spec.errors[n + i] for i in range(n)]
    ax, ap, bx, bp, cx, cp = entries
    # K = PX - nu_-^2 = g Pi_+ and L = nu_+^2 - PX = g Pi_-, as 2x2 stacks,
    # times P and X: K P, K^T X, L P, L^T X.
    k = np.concatenate([spec.k, -spec.k[1:3]])
    left = k.take(_LEFT, axis=0).transpose(0, 3, 1, 2)
    right = entries.take(_RIGHT, axis=0).transpose(0, 3, 1, 2)
    nu_k = spec.nu.take(_HI_LO, axis=0)
    scale = spec.gap * nu_k
    split = spec.gap > _SPLIT_ULPS * spec.nu[0] ** 2
    if split.all():
        prod = left @ right
    else:
        prod = np.where(split[:, None, None], left @ right, right)
        scale = np.where(split, scale, 2.0 * nu_k)
    prod = prod.reshape(4, 2 * n, 4)
    sym = (prod.take(_SYM[0], axis=2) + prod.take(_SYM[1], axis=2)) * (0.5 / scale)[..., None]
    # (hi x, hi p, lo x, lo p; A then B; entry) -> (pair; x then p entries;
    # A hi, A lo, B hi, B lo)
    dual = sym.reshape(2, 2, 2, n, 3).transpose(3, 1, 4, 2, 0).reshape(n, 6, 4)

    det_r = (spec.nu[0] * spec.nu[1]) ** 2 / (ax * bx * ap * bp)
    nu = _snap(spec.nu, _PURE_EPS * (np.abs(entries).max(axis=0) + 1.0 / det_r))
    ln_nu1 = np.log1p(nu).reshape(2, 2, n).sum(axis=0)  # sum over a state's modes
    return errors, _StandardPairs(
        ln_r=_log_ratio(nu).reshape(2, 2, n).transpose(2, 1, 0).reshape(n, 4, 1),
        dual=dual,
        ln_g=(_LN_16 - ln_nu1[1])[:, None],
        ln_ratio=(ln_nu1[1] - ln_nu1[0])[:, None],
    )


def _matmul2(a: tuple, b: tuple) -> tuple:
    """a @ b of 2x2 matrices given as entries (11, 12, 21, 22), summed as
    numpy's matmul loop for dtypes without BLAS sums: 0 + a_i1 b_1j + a_i2 b_2j."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (0.0 + a11 * b11 + a12 * b21, 0.0 + a11 * b12 + a12 * b22,
            0.0 + a21 * b11 + a22 * b21, 0.0 + a21 * b12 + a22 * b22)


def _standard_one(ent_a: tuple, ent_b: tuple) -> tuple:
    """_standard of one pair, from the six floats of rho_A and of rho_B.

    The entries become np.longdouble scalars, which standard_form_spectrum
    takes on the path of six floats, as the batch does for a flagged column.
    K P, K^T X, L P and L^T X are explicit 2x2 products (_matmul2), and the
    rest repeats the batch's operations in its order.
    """
    entries = np.array(ent_a + ent_b, dtype=np.longdouble).tolist()
    errors, dual, nu = [], [[None] * 4 for _ in range(6)], []
    for state in (0, 1):
        ax, ap, bx, bp, cx, cp = state_entries = entries[6 * state:6 * state + 6]
        spec = standard_form_spectrum(state_entries)
        errors.append(spec.errors[0])
        hi, lo = spec.nu
        k11, k12, k21, k22 = spec.k
        x, p = (ax, cx, cx, bx), (ap, cp, cp, bp)
        split = spec.gap > _SPLIT_ULPS * (hi * hi)
        # (left, right, nu_k, first dual row, dual column) of K P, K^T X, L P, L^T X
        for left, right, nu_k, row, col in (
                ((k11, k12, k21, k22), p, hi, 0, 2 * state),
                ((k11, k21, k12, k22), x, hi, 3, 2 * state),
                ((k22, -k12, -k21, k11), p, lo, 0, 2 * state + 1),
                ((k22, -k21, -k12, k11), x, lo, 3, 2 * state + 1)):
            if split:
                prod, half = _matmul2(left, right), 0.5 / (spec.gap * nu_k)
            else:
                prod, half = right, 0.5 / (2.0 * nu_k)
            dual[row][col] = (prod[0] + prod[0]) * half
            dual[row + 1][col] = (prod[1] + prod[2]) * half
            dual[row + 2][col] = (prod[3] + prod[3]) * half
        det_r = (hi * lo) * (hi * lo) / (ax * bx * ap * bp)
        pure_tol = _PURE_EPS * (max(map(abs, state_entries)) + 1.0 / det_r)
        nu += [_ONE if v <= 1.0 + pure_tol else v for v in (hi, lo)]
    nu = np.array(nu, dtype=np.longdouble)  # A hi, A lo, B hi, B lo
    ln_nu1 = np.log1p(nu).tolist()
    ln_a, ln_b = ln_nu1[0] + ln_nu1[1], ln_nu1[2] + ln_nu1[3]
    return [errors[0] or errors[1]], _StandardPairs(
        ln_r=_log_ratio(nu).reshape(1, 4, 1),
        dual=np.array(dual, dtype=np.longdouble)[None],
        ln_g=np.array([[_LN_16 - ln_b]]),
        ln_ratio=np.array([[ln_b - ln_a]]),
    )


def _discriminate_standard(ent_a, ent_b, ensembles) -> list:
    """Chernoff infimum, ln P and SNR of n standard-form two-mode pairs, as
    the module docstring says; per pair its result or its ValidationError.
    The entries are those _standard takes, M an array of n."""
    with np.errstate(all="ignore"):
        errors, pairs = _standard(ent_a, ent_b)
        scan, evaluate = pairs.astype(float).q, lambda s: pairs.q(s.astype(np.longdouble))
        if len(errors) == 1:
            s_star, q = (np.array([v]) for v in _infimum_one(scan, evaluate))
        else:
            s_star, q = _infimum(scan, evaluate, len(errors))
        exponent = np.maximum(_exponent(q), 0.0).astype(float)
        results = _results(s_star, exponent, ensembles)
    good = np.isfinite(q) & (q > 0.0)
    return [result if ok and not error else ValidationError(error or _SINGULAR)
            for error, result, ok in zip(errors, results, good)]


def _exponent(q: np.ndarray) -> np.ndarray:
    """-ln Q: -log1p(Q - 1) above 1/2, keeping the digits of 1 - Q, and -ln Q
    below, where Q - 1 would lose Q's (Q = 0 warns: callers silence it)."""
    return np.where(q > 0.5, -np.log1p(q - 1.0), -np.log(q))


def _results(s_star: np.ndarray, exponent: np.ndarray,
             ensembles: np.ndarray) -> list[DiscriminationResult]:
    """Results from s* and -ln Q_min >= 0: ln P = -M (-ln Q_min) + ln(1/2),
    -inf where M (-ln Q_min) overflows (callers silence the warning)."""
    log_p = (LN_HALF - ensembles * exponent).tolist()
    return [DiscriminationResult(*row) for row in zip(
        s_star.tolist(), np.exp(-exponent).tolist(), log_p, map(_snr_from_log_p, log_p))]


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


def _infimum(scan, evaluate, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimize n convex functions of s over [0, 1]; returns (s_star, minimum).

    scan maps an (n, m) float64 array of s to the values there, and
    evaluate does so in the precision of the result. A 64-point scan of
    [0, 1] brackets each row's minimum between the neighbours of its best
    grid point, and a 64-point scan of that bracket finds the best point
    again. Two vertices refine it: that of the parabola through the three
    values around the best point, clipped to one grid step of it, which
    removes the grid's error where rounding leaves those values their
    curvature; and that of the least-squares parabola through the whole
    second scan, clipped to the bracket, which averages over the rounding
    where the values near the minimum differ by a few ulps only. evaluate
    takes the values at the best point and at both vertices, and each row
    keeps the smallest (the best point's on ties and where another is not a
    number).

    Each row's fit is its own (1, 64) @ (64, 2) product: an (n, 64) product
    sums a row in an order that depends on n and on the row's place, which
    moves s* of ~1.5% of points by an ulp from batch to batch. _infimum_one
    searches one row with the bits of its row here, its bookkeeping on floats.
    """
    last = _SCAN_POINTS - 1
    rows = np.arange(n)
    i = scan(_GUARD * np.ones((n, 1))).argmin(axis=1)[:, None]
    lo = _GUARD.take(np.maximum(i - 1, 0))
    width = _GUARD.take(np.minimum(i + 1, last)) - lo
    values = scan(lo + width * _STEPS)
    j = values.argmin(axis=1)[:, None]
    c = np.minimum(np.maximum(j, 1), last - 1)  # middle of the three values
    f0, f1, f2 = values[rows[:, None], c + _THREE].T[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        at = c + 0.5 * (f0 - f2) / (f0 - 2.0 * f1 + f2)  # as a grid index
        fit = ((values - f1)[:, None, :] @ _FIT)[:, 0]
        mid = 0.5 - 0.5 * fit[:, :1] / fit[:, 1:]  # as a fraction of the bracket
    # A flat stencil's 0/0 becomes the neighbour below, and the fit's the
    # bracket's lower end.
    at = np.fmin(np.fmax(at, np.maximum(j - 1, 0)), np.minimum(j + 1, last))
    mid = np.fmin(np.fmax(mid, 0.0), 1.0)
    s = lo + width * np.concatenate([_STEPS.take(j), at * (1.0 / last), mid], axis=1)
    value = evaluate(s)
    pick = rows, np.fmin(value, value[:, :1]).argmin(axis=1)
    return s[pick], value[pick]


def _quotient(num: float, den: float) -> float:
    """num / den, or numpy's inf or nan where den is 0 (a flat stencil or fit)."""
    if den:
        return num / den
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(num) / den)


def _clip(x: float, lo, hi) -> float:
    """np.fmin(np.fmax(x, lo), hi) of a float: lo where x is not a number."""
    return lo if x != x else min(max(x, lo), hi)


def _infimum_one(scan, evaluate) -> tuple:
    """_infimum of one function, its bookkeeping on floats; returns (s_star,
    minimum), the minimum a scalar of evaluate's dtype.

    The scans, the fit and the last evaluation are _infimum's numpy calls on
    a (1, m) array; the bracket, the stencil's vertex, the clipping and the
    pick are the same operations on floats, so that the result has the bits
    of _infimum's row.
    """
    last = _SCAN_POINTS - 1
    i = int(scan(_GUARD[None]).argmin())
    lo = _GUARD_LIST[max(i - 1, 0)]
    width = _GUARD_LIST[min(i + 1, last)] - lo
    values = scan((lo + width * _STEPS)[None])
    j = int(values.argmin())
    c = min(max(j, 1), last - 1)
    f0, f1, f2 = values[0, c - 1:c + 2].tolist()
    fit_u, fit_u2 = ((values - f1) @ _FIT)[0].tolist()
    at = _clip(c + _quotient(0.5 * (f0 - f2), f0 - 2.0 * f1 + f2),
               max(j - 1, 0), min(j + 1, last))
    mid = _clip(0.5 - _quotient(0.5 * fit_u, fit_u2), 0.0, 1.0)
    s = [lo + width * u for u in (_STEPS_LIST[j], at * (1.0 / last), mid)]
    value = evaluate(np.array([s]))[0]
    best = 0
    for k in (1, 2):
        if value[k] < value[best]:
            best = k
    return s[best], value[best]


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
    pure_tol = _PURE_EPS * (np.abs(cov).max() + 1.0 / det_r)
    if n == 1:
        nu = math.sqrt(det_v)
        return _snap(np.array([nu]), pure_tol), (cov / nu)[None]

    # As J A J A = -det A and J C J C^T = -det C, (Omega V)^2 has diagonal
    # blocks -(det A + det C) and -(det B + det C) times I, and an
    # off-diagonal block N with N N' = det N I. With x = det A - det B and
    # u = det N, q = nu_+^2 - nu_-^2 = sqrt(x^2 + 4u); the diagonal blocks of
    # (Omega V)^2 + nu_+^2 are (q - x)/2 and (q + x)/2, and those of
    # (Omega V)^2 + nu_-^2 are -(q + x)/2 and -(q - x)/2. The product of the
    # two halves is u, which gives the smaller one without cancellation. u
    # comes from the entries of N, not from det C (det A + det B) +
    # tr(A J C J B J C^T J), whose terms cancel to u: nearly product states
    # lost all of u that way, and with it the smaller half.
    a, b, c = cov[:2, :2], cov[2:, 2:], cov[:2, 2:]
    det_a, det_b, det_c = _det2(a), _det2(b), _det2(c)
    k_hi = symplectic_form(2) @ cov
    k_hi = k_hi @ k_hi
    x = det_a - det_b
    u = _det2(k_hi[:2, 2:])
    q = math.sqrt(max(x * x + 4.0 * u, 0.0))
    big = 0.5 * (q + abs(x))
    small = u / big if big > 0.0 else 0.0
    q_minus_x, q_plus_x = (small, big) if x >= 0.0 else (big, small)

    hi2 = 0.5 * (det_a + det_b + 2.0 * det_c + q)
    lo2 = det_v / hi2  # not (Delta - q)/2, which cancels for nu_- << nu_+
    if q > _DEGENERATE_ULPS * np.finfo(float).eps * hi2:
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
        """(s_star, q_min) by the search of _infimum, in float64."""
        q = lambda s: self.q(s[0])[None]  # noqa: E731
        s_star, q_min = _infimum_one(q, q)
        return s_star, min(float(q_min), 1.0)


def _route(pair: HypothesisPair) -> tuple:
    """(core, args) for the form of a built pair (see the module docstring):
    _discriminate_standard on the six float entries of each state of a
    standard-form pair, _coherent on |d|^2/4 and N_B, or None for the
    general path (_PairData)."""
    a, b = pair.rho_a, pair.rho_b
    _require_finite_mean(a.mean)
    _require_finite_mean(b.mean)
    if a.n_modes == b.n_modes == 2 and np.array_equal(a.mean, b.mean):
        ent_a, ent_b = _standard_entries(a.cov), _standard_entries(b.cov)
        if ent_a is not None and ent_b is not None:
            return _discriminate_standard, (ent_a, ent_b)
    if (a.n_modes == b.n_modes == 1 and np.array_equal(a.cov, b.cov)
            and a.cov[0, 1] == a.cov[1, 0] == 0.0 and a.cov[0, 0] == a.cov[1, 1]):
        d = a.mean - b.mean
        return _coherent, (np.array([0.25 * (d @ d)]),
                           np.array([max(0.5 * (a.cov[0, 0] - 1.0), 0.0)]))
    return None, ()


def q_s(pair: HypothesisPair, s: float) -> float:
    """Tr(rho_A^s rho_B^{1-s}) for a Gaussian hypothesis pair."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"s must lie in [0, 1], got {s}")
    s = min(max(s, _S_EDGE), 1.0 - _S_EDGE)
    core, args = _route(pair)
    if core is not _discriminate_standard:
        return float(_PairData(pair).q(np.array([s]))[0])
    with np.errstate(all="ignore"):
        errors, pairs = _standard(*args)
        q = pairs.q(np.array([[s]], dtype=np.longdouble))[0, 0]
    if errors[0]:
        raise ValidationError(errors[0])
    if not (np.isfinite(q) and q > 0.0):
        raise ValidationError(_SINGULAR)
    return float(q)


def chernoff_infimum(pair: HypothesisPair) -> tuple[float, float]:
    """Minimize Q_s over s in [0, 1] by two scans; returns (s_star, q_min).

    A pair in standard form or a coherent pair gives the s* and Q_min of
    discriminate; any other pair is minimized through its general analysis.
    """
    core, args = _route(pair)
    if core is None:
        return _PairData(pair).infimum()
    result = _one(core(*args, np.ones(1))[0])
    return result.s_star, result.q_min


def _check_ensembles(ensembles: float) -> None:
    if not 0.0 < ensembles < math.inf:
        raise ValidationError(f"ensembles must be > 0 and finite, got {ensembles}")


def log_error_prob(q_min: float, ensembles: float) -> float:
    """ln of the M-copy Chernoff bound, (1/2) q_min^M, computed stably."""
    if not 0.0 < q_min <= 1.0:
        raise ValidationError(f"q_min must lie in (0, 1], got {q_min}")
    _check_ensembles(ensembles)
    return LN_HALF - ensembles * float(_exponent(np.float64(q_min)))


def snr_from_log_p(log_p: float) -> float:
    """Invert log_p = ln[(1/2) erfc(sqrt(x))] for x >= 0.

    Works in the log domain, valid far below where the probability itself
    underflows (see _snr_from_log_p).
    """
    if not log_p <= LN_HALF + 1e-15:
        raise ValidationError(f"log_p must be <= ln(1/2), got {log_p}")
    return _snr_from_log_p(min(log_p, LN_HALF))


def log_p_from_snr(snr_value: float) -> float:
    """Forward map ln[(1/2) erfc(sqrt(x))], the inverse of snr_from_log_p."""
    if not snr_value >= 0:
        raise ValidationError(f"snr must be >= 0, got {snr_value}")
    return LN_HALF + _ln_erfc(math.sqrt(snr_value))[0]


def _ln_erfc(y: float) -> tuple[float, float]:
    """ln erfc(y) and erfcx(y) = exp(y^2) erfc(y).

    From math.erfc below _ERFC_TAIL, and beyond it from the asymptotic
    series sqrt(pi) y erfcx(y) = 1 - w + 3 w^2 - 15 w^3 + ..., w = 1/(2 y^2)
    (Abramowitz & Stegun 7.1.23), whose first omitted term is below 2e-17
    there.
    """
    if y < _ERFC_TAIL:
        e = math.erfc(y)
        return math.log(e), math.exp(y * y) * e
    y2 = y * y
    w = 0.5 / y2
    s = 0.0
    for c in _ERFC_SERIES:
        s = (s + c) * w
    return math.log1p(s) - y2 - math.log(y) - _LN_SQRT_PI, (1.0 + s) / (y * _SQRT_PI)


def _snr_from_log_p(log_p: float) -> float:
    """x >= 0 with ln[(1/2) erfc(sqrt(x))] = log_p <= ln(1/2).

    Newton in y = sqrt(x) on ln erfc(y) = -L, L = ln(1/2) - log_p, where
    the slope of ln erfc is -2 / (sqrt(pi) erfcx(y)). It starts from the
    normal quantile of Abramowitz & Stegun 26.2.22, within 3e-3 of y, and
    _NEWTON_STEPS steps reach the root to rounding where y >= _ERF_BELOW.
    Below that, erfc(y) ~ 1 keeps ln erfc to ~eps only, which is ~eps / y
    of y, and one more step takes ln erfc = log1p(-erf(y)).
    """
    if log_p <= _LOG_P_HUGE:
        return -log_p
    big = LN_HALF - log_p
    t = math.sqrt(-2.0 * log_p)
    c0, c1, d1, d2 = _QUANTILE
    y = (t - (c0 + c1 * t) / (1.0 + (d1 + d2 * t) * t)) * _SQRT_HALF
    for _ in range(_NEWTON_STEPS):
        ln_erfc, erfcx = _ln_erfc(y)
        y += (ln_erfc + big) * (_HALF_SQRT_PI * erfcx)
    if y < _ERF_BELOW:
        erf = math.erf(y)
        y += (math.log1p(-erf) + big) * (_HALF_SQRT_PI * math.exp(y * y) * (1.0 - erf))
    return y * y


def discriminate_many(probes: Sequence[ProbeSpec],
                      scenarios: Sequence[TargetScenario]) -> list:
    """Chernoff infimum -> M-copy log P -> SNR for many (probe, scenario) points.

    The points are evaluated as one batch: two-mode probes through the
    standard-form core, with each scan of the search for s* one (points, 64)
    array of s, and coherent probes in closed form at s* = 1/2. Returns, per
    point, its DiscriminationResult or the ValidationError that rejected it;
    a bad point does not fail the others.
    """
    if len(probes) != len(scenarios):
        raise ValidationError(
            f"{len(probes)} probes against {len(scenarios)} scenarios")
    coherent = [i for i, p in enumerate(probes) if p.kind is ProbeKind.COHERENT]
    two_mode = [i for i, p in enumerate(probes) if p.kind is not ProbeKind.COHERENT]
    out: list = [None] * len(probes)
    if coherent:
        ns, kappa, nb, ensembles = _columns(probes, scenarios, coherent, ("ns",))
        for i, result in zip(coherent, _coherent(kappa * ns, nb, ensembles)):
            out[i] = result
    if two_mode:
        n0, n1, n2, kappa, nb, ensembles = _columns(probes, scenarios, two_mode,
                                                    ("n0", "n1", "n2"))
        one = len(two_mode) == 1
        if one:
            # Floats take the same +, * and correctly rounded sqrt as
            # arrays, without ~30 numpy calls on length-1 arrays, and the
            # core takes one pair's entries as floats.
            n0, n1, n2, kappa, nb = (float(v[0]) for v in (n0, n1, n2, kappa, nb))
        with np.errstate(over="ignore", invalid="ignore"):
            entries = _probe_entries(n0, n1, n2)
            ent_a = _return_entries(entries, kappa, nb)
            ent_b = _absent_entries(entries, nb)
        if not one:
            ent_a, ent_b = np.array(ent_a), np.array(ent_b)
        for i, result in zip(two_mode, _discriminate_standard(ent_a, ent_b, ensembles)):
            out[i] = result
    return out


def _columns(probes, scenarios, points: list, names: tuple) -> np.ndarray:
    """Rows of the named probe parameters, then kappa, N_B and M, over points."""
    return np.array([[getattr(probes[i], k) for k in names]
                     + [scenarios[i].kappa, scenarios[i].nb, scenarios[i].ensembles]
                     for i in points], dtype=float).T


def _one(result):
    """A result, or raise the ValidationError that stands in for it."""
    if isinstance(result, ValidationError):
        raise result
    return result


def discriminate(pair: HypothesisPair, ensembles: float) -> DiscriminationResult:
    """Chernoff infimum -> M-copy log P -> SNR for a built hypothesis pair.

    Pairs in standard form and coherent pairs take the batched core of
    discriminate_many, so that discriminate(make_hypotheses(p, sc), M)
    equals snr(p, sc); any other pair its general analysis.
    """
    _check_ensembles(ensembles)
    core, args = _route(pair)
    if core is not None:
        return _one(core(*args, np.array([ensembles], dtype=float))[0])
    s_star, q_min = _PairData(pair).infimum()
    if q_min == 0.0:
        # The general path forms Q before its log, so -ln Q > 745 is lost.
        raise ValidationError(f"Q_min underflows to 0 at s* = {s_star:.6g}")
    log_p = log_error_prob(q_min, ensembles)
    return DiscriminationResult(s_star, q_min, log_p, snr_from_log_p(log_p))


def snr(probe: ProbeSpec, scenario: TargetScenario) -> DiscriminationResult:
    """Full pipeline for one point: hypotheses -> Chernoff infimum -> log P -> SNR."""
    return _one(discriminate_many([probe], [scenario])[0])
