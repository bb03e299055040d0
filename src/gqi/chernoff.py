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
diverges as p -> 0. A pair is analysed once, so that Sigma'_s at any s is
a sum of the weights times fixed parts.

The infimum over s: ln Q_s is convex in s (Audenaert et al., PRL 98,
160501 (2007)), so s* is the root of g = d ln Q_s/ds, or an edge where g
keeps its sign. Each analysis gives g and g' in closed form (slope), in
float64, and one safeguarded Newton search (_s_star) finds the root from
s = 1/2: on a pair's floats, or on (n,) columns with each row frozen where
it stops, by the same operations, so that one pair gets the bits of its
row in any batch. It takes 1 to 2 evaluations for most pairs, and fixes s*
to ~eps / g' where two 64-point float64 scans of Q_s fixed it to
~sqrt(eps / g'').

One pipeline (_discriminate) serves every pair that is not coherent: s*,
then Q_min = Q_{s*} in the analysis' own dtype. -ln Q_min is
-log1p(Q - 1) above 1/2 and -ln Q below (_exponent), and goes on to ln P
and the SNR (_results). The coherent pair, a displaced and an undisplaced
thermal state, takes its closed form at s* = 1/2 instead. _route picks the
analysis, and q_s, chernoff_infimum and discriminate each run one path
after it.

The analyses. Every pair make_hypotheses builds has no x-p correlations
(Duan, Giedke, Cirac & Zoller, PRL 84, 2722 (2000)): V = X (+) P with X
and P the 2x2 x and p blocks, nu_+-^2 are the eigenvalues of PX
(symplectic.standard_form_spectrum), Sigma'_s splits into an x and a p
block, and det Sigma'_s is a product of two 2x2 determinants. _standard
analyses n such pairs in np.longdouble, elementwise on (n,) columns or on
one pair's scalars, into the named fields of _StandardPairs (ln_r, dual,
ln_g, ln_ratio, and their float64 copies for g), so that one point gets
the bits of its column of every field in any batch. rho_B, thermal noise
on the return mode times the untouched idler, is a product state: each
mode has nu_k = sqrt(x_k p_k) and projects on its own quadratures
(_product_parts). The last evaluation in np.longdouble
keeps the digits of 1 - Q ~ 1e-7 at the figure presets, where float64
alone leaves ~eps / (1 - Q) ~ 4e-9 of the SNR; where np.longdouble is
float64 (macOS arm64, Windows) it is a float64 one.

Q_s, s*, ln P and the SNR do not change when one local symplectic acts on
both hypotheses. So every pair that takes neither the coherent closed form
nor the entries of a built pair (standard form, equal means) is taken to
one local frame first (_frame), with its mean difference d: one mode
turns so that rho_B is diagonal; each of two modes turns so that rho_A's
cross block is diagonal; then every mode scales by the power of two that
balances rho_B's quadratures. Where an undisplaced two-mode pair is then
in standard form to rounding (_xp_free), its entries go to _standard, as a
built pair's do. Every other pair (one mode, unequal means, or x-p
correlations no one local frame removes from both states, as a beam
splitter after a phase leaves) takes _PairData in that frame, in float64,
with the parts of each covariance (_mode_parts) and a determinant (and a
solve, for displaced pairs) per s. Each two-mode covariance there is read
in its own local standard form (symplectic._standard_frame), whose nu and
parts come from the standard analysis (_parts) and map back by its L. Both
analyses weigh their parts by the same 1/Lambda_k and prod_k (2 - em_k),
and both snap a nu to a pure mode within the rounding symplectic reports
for it (_snap).

Q_s that underflows to 0 is a value (q_s returns 0.0), but Q_min that does
has lost -ln Q, and with it ln P and the SNR: the pipeline rejects it,
naming s*, in either analysis. Q that is not a positive number means a
singular V_A(s) + V_B(1-s).

The SNR map ln P = ln[(1/2) erfc(sqrt(SNR))] and its inverse need numpy
no more than the rest: math.erfc, the asymptotic series of erfc, and
Newton in sqrt(SNR) (_snr_from_log_p).
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .probes import (HypothesisPair, ProbeKind, ProbeSpec, TargetScenario,
                     _absent_entries, _admit, _probe_entries, _real, _return_entries)
from .symplectic import (_MODE_ROUNDING, ValidationError, _all, _closed_spectrum,
                         _cross_angles, _diagonal_angle, _sqrt, _standard_frame, _turn, _where,
                         standard_form_spectrum, symplectic_form)

LN_HALF = -math.log(2.0)

# Endpoint clamp for s: the formula is an indeterminate form at s in {0, 1}
# but Q_s is smooth there, so evaluating a hair inside the interval is exact
# to ~1e-12 for full-rank hypotheses.
_S_EDGE = 1e-12
_S_TOP = 1.0 - _S_EDGE

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

# The search for s* (_s_star). A last Newton step below _S_RESOLVED s (1 - s)
# leaves ~step^2 / (s (1 - s)) of s*; g within _G_ULPS ulps of the size of its
# terms has no sign to follow. _SEARCH_STEPS caps the evaluations of g.
_S_RESOLVED = 4e-5
_G_ULPS = 64
_G_NOISE = _G_ULPS * float(np.finfo(float).eps)
_SEARCH_STEPS = 12

# Power of each column of a standard-form pair (the two modes of rho_A, then
# the two of rho_B): p = sign s + offset.
_SIGN, _OFFSET = np.array([1.0, 1.0, -1.0, -1.0]), np.array([0.0, 0.0, 1.0, 1.0])

_SINGULAR = "V_A(s) + V_B(1-s) is singular"

# The constants of _standard, in np.longdouble. The standard analysis
# (_state_parts) splits the modes while nu_+^2 - nu_-^2 exceeds _SPLIT_ULPS
# of nu_+^2: the projectors then lose ~eps / gap of their size, which enters
# Sigma'_s with a weight difference proportional to the gap, so that the
# product stays ~eps.
_LN_16 = 4.0 * np.log(np.longdouble(2.0))  # ln 2^n of two modes
_SPLIT_ULPS = 64 * np.finfo(np.longdouble).eps
_LD_ZERO, _LD_ONE = np.longdouble(0.0), np.longdouble(1.0)

# Where each of the six rows of a dual (_StandardPairs.dual: x11, x12, x22,
# p11, p12, p22) sits in a 4x4 matrix on (x1, p1, x2, p2); 6 is zero.
_DUAL_AT = np.array([[0, 6, 1, 6], [6, 3, 6, 4], [1, 6, 2, 6], [6, 4, 6, 5]])

# An x-p entry r of a covariance in _frame is its rounding while
# r <= _XP_ROUNDING sqrt(V_ii V_jj) (_xp_free).
_XP_ROUNDING = math.sqrt(float(np.finfo(float).eps))


@dataclass
class DiscriminationResult:
    """Chernoff-optimal s, Q minimum, M-copy log error probability, and SNR."""

    s_star: float
    q_min: float
    log_error_prob: float
    snr: float


def _snap(nu, tol):
    """Clamp rounding below 1 and set pure modes (nu <= 1 + tol) to exactly
    1, in an array or a scalar, keeping its type: nu ** 0 is 1 in it. tol is
    the rounding symplectic reports for nu, unfloored: Lambda_p(1 + e) - 1
    grows like e^p, so a pure mode's rounding must not reach G_p and
    Lambda_p, and a mixed mode's nu - 1 must."""
    return _where(nu <= 1.0 + tol, nu ** 0, nu)


class _StandardPairs:
    """n standard-form two-mode pairs analysed once, for Q_s at any s, from
    the nu and dual of their four columns (_standard).

    Each field holds one pair's scalars, or (n,) columns of n pairs. The
    columns are the two modes of rho_A (power p = s) and of rho_B (power
    p = 1 - s): nu_+ and nu_- of a state with cross entries, the return and
    idler modes of a product state. In np.longdouble, for q: ln_r =
    ln((nu-1)/(nu+1)) by column (-inf at a pure mode); dual, the entries
    11, 12, 22 of the x, then the p block of Sigma'_s (6), each by column;
    ln_g = ln 2^n + sum_B ln(2 / (nu + 1)) and ln_ratio = sum_B ln(nu + 1)
    - sum_A ln(nu + 1). In float64, for slope: ln_r64, dual64 and
    ln_ratio64, the same, and a_k = sign_k ln_r_k (0 at a pure column).
    Sigma'_s = dual @ (1/Lambda) weighs column k by 1/Lambda_k = -e_k /
    (2 + e_k), e_k = expm1(p_k ln_r_k) = -em_k: em = 1 - ((nu-1)/(nu+1))^p
    is cancellation-free, and a pure mode gives em = 1, so G_p = Lambda_p =
    1. q and slope take one pair's scalars at a float s, or (n,) columns at
    an (n,) column of s, through the same operations, so that one pair
    gets the bits of its row in any batch.
    """

    def __init__(self, nu: list, dual: list):
        # ln((nu - 1) / (nu + 1)), then ln(nu + 1), of the four columns
        ln = np.log1p(np.array([-2.0 / (v + 1.0) for v in nu] + nu, dtype=np.longdouble))
        ln_a, ln_b = ln[4] + ln[5], ln[6] + ln[7]  # over the modes of each state
        self.ln_r, self.dual = list(ln[:4]), dual
        self.ln_g, self.ln_ratio = _LN_16 - ln_b, ln_b - ln_a
        self.ln_r64, self.ln_ratio64 = [_float64(v) for v in self.ln_r], _float64(self.ln_ratio)
        self.dual64 = [[_float64(v) for v in row] for row in dual]
        self.a = [sign * _where(v == -math.inf, 0.0, v)
                  for sign, v in zip(_SIGN.tolist(), self.ln_r64)]

    def q(self, s):
        """Q_s at s in [_S_EDGE, 1 - _S_EDGE], in np.longdouble:
        2^n prod_k G_k / Lambda_k / sqrt(det Sigma'_x det Sigma'_p)."""
        s = _LD_ONE * s
        e = _expm1(s, self.ln_r)
        d = [-2.0 - v for v in e]  # -(2 - em)
        w0, w1, w2, w3 = (v / dv for v, dv in zip(e, d))  # 1/Lambda, then Sigma' = dual @ it
        x11, x12, x22, p11, p12, p22 = (((r0 * w0 + r1 * w1) + r2 * w2) + r3 * w3
                                        for r0, r1, r2, r3 in self.dual)
        det = (x11 * x22 - x12 * x12) * (p11 * p22 - p12 * p12)
        return np.exp(self.ln_g + s * self.ln_ratio) / (d[0] * d[1] * d[2] * d[3] * np.sqrt(det))

    def slope(self, s) -> tuple:
        """(g, g', size): g = d ln Q_s/ds, its derivative and the size of its
        terms, in float64, at a float s of one pair or an (n,) column.

        ln Q_s = ln_g + s ln_ratio - sum_k ln(2 + e_k) - 1/2 ln det Sigma'_x
        - 1/2 ln det Sigma'_p, with de_k/ds = a_k (1 + e_k), a_k = sign_k
        ln_r_k (0 at a pure column, whose e_k is -1 at every s). With d = 2 + e
        and c = a (1 + e) / d, d ln(2 + e)/ds = c, its derivative is a c / d,
        and 1/Lambda = -e/d has the derivatives -2 c / d and 2 (a c / d) e / d;
        Sigma' = dual @ (1/Lambda), whose six entries m holds with their two
        derivatives. g is not a number where Sigma' has a zero determinant;
        callers silence numpy's floating-point warnings.
        """
        terms = []  # per column: 1/Lambda and its two derivatives, c, a c / d
        for a_k, e in zip(self.a, _expm1(s, self.ln_r64)):
            d = 2.0 + e
            c = a_k * (1.0 + e) / d
            c1 = a_k * c / d
            terms.append((-e / d, -2.0 * c / d, 2.0 * c1 * e / d, c, c1))
        (w0, w1, w2, w3), (v0, v1, v2, v3), (u0, u1, u2, u3), c, c1 = zip(*terms)
        m = [(((r0 * w0 + r1 * w1) + r2 * w2) + r3 * w3, ((r0 * v0 + r1 * v1) + r2 * v2) + r3 * v3,
              ((r0 * u0 + r1 * u1) + r2 * u2) + r3 * u3) for r0, r1, r2, r3 in self.dual64]
        r1, r2 = [], []  # d ln det / ds and its derivative, of Sigma'_x then Sigma'_p
        for (a11, b11, c11), (a12, b12, c12), (a22, b22, c22) in (m[:3], m[3:]):
            det = a11 * a22 - a12 * a12
            det = _where(det != 0.0, det, math.nan)
            r1.append(((b11 * a22 + a11 * b22) - 2.0 * (a12 * b12)) / det)
            det2 = ((c11 * a22 + 2.0 * (b11 * b22)) + a11 * c22) - 2.0 * (b12 * b12 + a12 * c12)
            r2.append(det2 / det - r1[-1] * r1[-1])
        lo, hi = c[0] + c[1], c[2] + c[3]
        return ((self.ln_ratio64 - (lo + hi)) - 0.5 * (r1[0] + r1[1]),
                -((c1[0] + c1[1]) + (c1[2] + c1[3])) - 0.5 * (r2[0] + r2[1]),
                (abs(self.ln_ratio64) + (hi - lo)) + 0.5 * (abs(r1[0]) + abs(r1[1])))


def _expm1(s, ln_r) -> list:
    """e_k = expm1(p_k ln_r_k) of the four columns at s, in one numpy call."""
    u = 1.0 - s
    e = np.expm1([s * ln_r[0], s * ln_r[1], u * ln_r[2], u * ln_r[3]])
    return e.tolist() if e.ndim == 1 else list(e)


def _standard(ent_a, ent_b) -> tuple:
    """Validate n standard-form two-mode pairs and analyse them in np.longdouble.

    ent_a and ent_b are the (6, n) float64 entries of rho_A and rho_B, or
    the six floats (np.longdouble scalars, from _frame) of one pair. Returns (errors, pairs): errors[i] is why
    pair i was rejected, or None, and pairs the _StandardPairs of all n. A
    rejected pair's numbers mean nothing: the caller silences what they
    raise and drops its Q_s.

    rho_A is validated and analysed by _parts. A rho_B without cross
    entries, as every built pair has, is analysed mode by mode
    (_product_parts) and not validated: a hand-built one was
    validated as a GaussianState, and a built one shares rho_A's idler,
    while its thermal mode 2 N_B + 1 is finite wherever rho_A's noise
    2 N_B + 1 - kappa is. Any other rho_B takes rho_A's route. One pair runs
    the operations a batch runs on its columns, on np.longdouble scalars
    (its six floats converted one by one), so that each of its fields gets
    the bits of its column in any batch.
    """
    errors, nu, dual = _parts(_longdouble(ent_a))
    if _all(ent_b[4] == 0.0) and _all(ent_b[5] == 0.0):
        nu_b, dual_b = _product_parts(_longdouble(ent_b[:4]))
    else:
        errors_b, nu_b, dual_b = _parts(_longdouble(ent_b))
        errors = [ea or eb for ea, eb in zip(errors, errors_b)]
    return errors, _StandardPairs(nu + nu_b, [[*row, *row_b] for row, row_b in zip(dual, dual_b)])


def _float64(v):
    """An np.longdouble scalar as a float, or a column as float64."""
    return v.astype(float) if isinstance(v, np.ndarray) else float(v)


def _longdouble(entries):
    """np.longdouble entries: of an array, or of floats one by one."""
    if isinstance(entries, np.ndarray):
        return entries.astype(np.longdouble)
    return [_LD_ONE * v for v in entries]


def _mode_nu(x, p):
    """nu of a mode with entries x and p: sqrt(x p), exactly x where x = p;
    sqrt(x) sqrt(p) where x p overflows, which needs an np.longdouble no
    wider than float64."""
    nu = _sqrt(x * p)
    if _all(nu < math.inf):
        return nu
    return _where(nu < math.inf, nu, _sqrt(x) * _sqrt(p))


def _parts(entries, rounding=None) -> tuple:
    """(errors, nu, dual) of standard-form states (np.longdouble scalars of
    one or columns of many): their standard_form_spectrum's errors, then,
    state by state, _product_parts where a state has no cross entries
    (rho_A at n0 = 0 or kappa = 0), else _state_parts. A rho_A equal to its
    rho_B is then analysed as rho_B is, and Q_s of the pair is 1 to
    rounding. A nu snaps to a pure mode within what symplectic reports for
    the entries (spec.rounding, or _MODE_ROUNDING of a product mode), or
    within rounding where it is given: a (mode 1, mode 2) pair, whose first
    is the bound of both of correlated modes."""
    spec = standard_form_spectrum(entries)
    product = (entries[4] == 0.0) & (entries[5] == 0.0)
    if _all(product):
        return (spec.errors, *_product_parts(entries[:4], rounding or (_MODE_ROUNDING,) * 2))
    if rounding:
        spec = spec._replace(rounding=rounding[0])
    nu, dual = _state_parts(entries, spec)
    if not _all(~product):
        nu_p, dual_p = _product_parts(entries[:4])
        nu, *dual = ([np.where(product, m, t) for m, t in zip(row_p, row)]
                     for row_p, row in zip([nu_p, *dual_p], [nu, *dual]))
    return spec.errors, nu, dual


def _product_parts(diagonal, rounding=(_MODE_ROUNDING,) * 2) -> tuple:
    """_state_parts of product states (x1x2 = p1p2 = 0) from their diagonals
    x1x1, p1p1, x2x2, p2p2 (np.longdouble scalars or columns), mode 1 first
    whichever nu is larger.

    Mode k projects on its own quadratures: its parts are p_k / nu_k in the
    x block and x_k / nu_k in the p block, on entry kk. nu_k = sqrt(x_k p_k)
    (_mode_nu) is exact for a thermal mode, whose parts are then exactly 1,
    so that Q_s of two equal states rounds to 1. Mode k is pure within
    rounding[k], by default the rounding symplectic reports for a product
    mode (_MODE_ROUNDING).
    """
    x1, p1, x2, p2 = diagonal
    nu1, nu2 = _mode_nu(x1, p1), _mode_nu(x2, p2)
    zero = np.zeros_like(x1) if isinstance(x1, np.ndarray) else _LD_ZERO
    return ([_snap(nu1, rounding[0]), _snap(nu2, rounding[1])],
            [[p1 / nu1, zero], [zero, zero], [zero, p2 / nu2],
             [x1 / nu1, zero], [zero, zero], [zero, x2 / nu2]])


def _state_parts(entries, spec) -> tuple:
    """(nu, dual) of standard-form states (scalars of one or (n,) columns of
    many) from their standard_form_spectrum, whose rounding decides which
    modes are pure: nu_+ and nu_- with pure modes snapped, and the six rows
    of _StandardPairs.dual, each (part of nu_+, part of nu_-). Where a
    product state splits its modes, its parts are those of
    _product_parts (mode k in the column of its nu) to a few ulps: K is
    then diagonal, and the projectors exact.

    With X and P the x and p blocks of V and M = PX (Williamson
    V = S D S^T, S = S_x + S_p), V(p)^-1 = X(p)^-1 + P(p)^-1, where

        X(p)^-1 = sum_k Pi_k P / (nu_k Lambda_k),
        P(p)^-1 = sum_k Pi_k^T X / (nu_k Lambda_k),

    Pi_k the spectral projectors of M: Pi_+ = K / g and Pi_- = L / g, with
    K = M - nu_-^2 and L = nu_+^2 - M = [[K_22, -K_12], [-K_21, K_11]].
    The parts are the entries 11, 12, 22 of the symmetric parts of K P,
    K^T X, L P and L^T X, each over g nu_k. At a gap g within rounding of
    0, K and L become I and g becomes 2: each part is half of P / nu_k or
    X / nu_k.
    """
    ax, ap, bx, bp, cx, cp = entries
    (hi, lo), gap, (k11, k12, k21, k22) = spec.nu, spec.gap, spec.k
    split = gap > _SPLIT_ULPS * (hi * hi)
    if not _all(split):
        k11, k12, k21, k22, gap = (_where(split, v, one) for v, one in zip(
            (k11, k12, k21, k22, gap), (1.0, 0.0, 0.0, 1.0, 2.0)))
    half_hi, half_lo, n12, n21 = 0.5 / (gap * hi), 0.5 / (gap * lo), -k12, -k21
    out = []  # the parts of nu_+ (K P, K^T X), then of nu_- (L P, L^T X)
    for a11, a12, a21, a22, b11, b12, b22, half in (
            (k11, k12, k21, k22, ap, cp, bp, half_hi),  # K P
            (k11, k21, k12, k22, ax, cx, bx, half_hi),  # K^T X
            (k22, n12, n21, k11, ap, cp, bp, half_lo),  # L P
            (k22, n21, n12, k11, ax, cx, bx, half_lo)):  # L^T X
        # A B for a symmetric B: its entries 11 and 22, and 12 + 21.
        m11, m22 = a11 * b11 + a12 * b12, a21 * b12 + a22 * b22
        m12_21 = (a11 * b12 + a12 * b22) + (a21 * b11 + a22 * b12)
        out += [(m11 + m11) * half, m12_21 * half, (m22 + m22) * half]
    return [_snap(hi, spec.rounding), _snap(lo, spec.rounding)], list(zip(out[:6], out[6:]))


def _discriminate(errors, pairs, ensembles) -> list:
    """Chernoff infimum, ln P and SNR of n analysed pairs (_standard's, or a
    _PairData with n = 1), as the module docstring says; per pair its
    result or its ValidationError (_outcome). errors[i] is why pair i was
    rejected, or None, and M a float or an array of n. Callers silence
    numpy's floating-point warnings."""
    s_star, _ = _s_star(errors, pairs)
    q = pairs.q(s_star)  # -ln Q in Q's dtype, rounded once to a float
    if len(errors) == 1:
        s_star, q, exponent = [s_star], [q], float(max(_exponent(q), 0.0))
    else:
        s_star, exponent = s_star.tolist(), np.maximum(_exponent(q), 0.0).astype(float)
    results = _results(s_star, exponent, ensembles)
    return [_outcome(*row) for row in zip(errors, results, s_star, q)]


def _outcome(error, result, s_star, q):
    """The result, or the ValidationError that stands in for it: the pair's
    error; Q_min = 0, which underflowed in the dtype of its evaluation and
    took -ln Q, ln P and the SNR with it; or Q_min that is not a positive
    number, where V_A(s) + V_B(1-s) is singular."""
    if not error and 0.0 < q < math.inf:
        return result
    return ValidationError(error or (
        f"Q_min underflows to 0 at s* = {s_star:.6g}" if q == 0.0 else _SINGULAR))


def _column(x) -> list:
    """The values of an (n,) column, or [float(x)] of one point's scalar."""
    return x.tolist() if isinstance(x, np.ndarray) else [float(x)]


def _exponent(q):
    """-ln Q of a scalar or column: -log1p(Q - 1) above 1/2, keeping the digits
    of 1 - Q, and -ln Q below, where Q - 1 would lose Q's (Q = 0 warns: callers
    silence it). A scalar evaluates the branch it takes only."""
    if isinstance(q, np.ndarray):
        return np.where(q > 0.5, -np.log1p(q - 1.0), -np.log(q))
    return -np.log1p(q - 1.0) if q > 0.5 else -np.log(q)


def _results(s_star: list, exponent, ensembles) -> list[DiscriminationResult]:
    """Results from s* and -ln Q_min >= 0 (with M, scalars or columns): ln P =
    -M (-ln Q_min) + ln(1/2), -inf where that overflows (callers silence it)."""
    log_p = _column(LN_HALF - ensembles * exponent)
    return [DiscriminationResult(*row) for row in zip(
        s_star, _column(np.exp(-exponent)), log_p, map(_snr_from_log_p, log_p))]


def _coherent(signal, nb, ensembles) -> list:
    """Displaced against undisplaced thermal state, both of N_B photons.

    Q_s is smallest at s = 1/2 by symmetry, where
    -ln Q = |d|^2/4 (sqrt(N_B + 1) - sqrt(N_B))^2 with |d|^2/4 = signal, the
    classical-illumination exponent kappa N_S (sqrt(N_B + 1) - sqrt(N_B))^2
    (Tan et al., PRL 101, 253601 (2008)), written without cancellation.
    Callers silence numpy's floating-point warnings.
    """
    root = _sqrt(nb + 1.0) + _sqrt(nb)
    exponent = signal / (root * root)
    finite = _column(np.isfinite(2.0 * nb + 1.0))  # the thermal covariance
    results = _results([0.5] * len(finite), exponent, ensembles)
    return [result if ok else ValidationError("covariance has a non-finite entry")
            for result, ok in zip(results, finite)]


def _s_star(errors, pairs) -> tuple:
    """s* of n analysed pairs and how many times each evaluated g: floats of
    one pair, or (n,) columns, each row frozen where it stops.

    g = d ln Q_s/ds (pairs.slope) rises through one root, or keeps one sign
    on [_S_EDGE, 1 - _S_EDGE]. Newton runs on h = g s (1 - s), which has g's
    root but not its poles: where Sigma'_s nears singular at an end, ln Q_s
    goes as ln s or ln(1 - s), and a Newton step on g from near that end
    crawls (n1 = 1e124 puts s* at 0.996). It starts from s = 1/2 and keeps
    the bracket [lo, hi] that g's signs have shown, whose ends stay 0 and 1
    until g is evaluated beyond them. A step past an edge goes to the edge,
    which is evaluated only then, and a step out of the bracket goes to its
    middle. A row stops at s where g is within its rounding (_G_NOISE of its
    size) or not a number, or keeps its sign at an edge; it takes one last
    step of at most _S_RESOLVED s (1 - s), or the step it has after
    _SEARCH_STEPS. A rejected pair (errors) is not searched.
    """
    s, lo, hi, steps = 0.5 if len(errors) == 1 else np.full(len(errors), 0.5), 0.0, 1.0, 0
    done = bool(errors[0]) if len(errors) == 1 else np.array([bool(e) for e in errors])
    for _ in range(_SEARCH_STEPS):
        if _all(done):
            break
        g, g1, size = pairs.slope(s)
        w, steps = s * (1.0 - s), _where(done, steps, steps + 1)
        lo, hi, h1 = _where(g < 0.0, s, lo), _where(g > 0.0, s, hi), g1 * w + g * (1.0 - 2.0 * s)
        step = -g * w / _where(h1 > 0.0, h1, math.nan)  # Newton on h = g w, of slope h1
        t = _where(s + step < _S_EDGE, _S_EDGE, _where(s + step > _S_TOP, _S_TOP, s + step))
        t = _where((lo < t) & (t < hi), t, 0.5 * (lo + hi))
        edge = ((s == _S_EDGE) & (g >= 0.0)) | ((s == _S_TOP) & (g <= 0.0))
        hold = _where(abs(g) > _G_NOISE * size, edge, True)  # True where g is no number
        s = _where(done | hold, s, t)
        done = done | hold | (abs(step) <= _S_RESOLVED * w)
    return s, steps


def _mode_parts(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic spectrum nu and the P_k of a covariance, in float64.

    With P_k = S_k S_k^T for the two columns of the Williamson S that belong
    to mode k, V(p) = sum_k Lambda_p(nu_k) P_k. symplectic._closed_spectrum
    validates the covariance and bounds the rounding of its nu. One mode
    has P = V / nu. Two modes are read in their local standard form L V L^T
    (symplectic._standard_frame): the standard analysis (_parts) gives its
    nu (nu_+ and nu_-, or each mode's of a product state) and its dual
    parts D_k, V(p)^-1 = L^T (sum_k D_k / Lambda_k) L, so that
    P_k = Omega^T L^T D_k L Omega. A pure mode's nu snaps to 1, within the
    unfloored bound _closed_spectrum reports (the smallest nu's for both of
    correlated modes, else each mode's own), only for G_p and Lambda_p.
    """
    cov = np.asarray(cov, dtype=float)
    spectrum, bounds = _closed_spectrum(cov)
    if len(spectrum) == 1:
        return _snap(np.array(spectrum), bounds[0][1]), (cov / spectrum[0])[None]
    entries, frame = _standard_frame(cov)
    _, nu, dual = _parts(entries, (bounds[0][1], bounds[-1][1]))
    parts = np.vstack([np.array(dual, dtype=np.longdouble), np.zeros(2)])[_DUAL_AT]
    to_frame = frame @ symplectic_form(2)
    return (np.array(nu, dtype=float),
            (to_frame.T @ parts.transpose(2, 0, 1) @ to_frame).astype(float))


class _PairData:
    """One hypothesis pair of one or two modes, its two covariances and the
    difference d of its means, analysed once in float64, for Q_s at any s,
    with the interface of _StandardPairs.

    Each column k is one symplectic eigenvalue, of rho_A (power p = s) or
    of rho_B (power p = 1 - s), as in _StandardPairs, with its part P_k
    from _mode_parts: a two-mode state's from the standard analysis of its
    local standard form. The dual parts
    Omega P_k Omega^T, Sigma'_s = sum_k Omega P_k Omega^T / Lambda_k, are
    stored scaled to the unit diagonal of V_A^-1 + V_B^-1, without which
    the determinant loses several ulps of Q near 1. The factors
    (2/(nu_k+1))^p_k multiply to g_b * ratio^s with g_b = prod_B 2/(nu+1)
    and ratio = prod_B (nu+1) / prod_A (nu+1), which is close to 1 when the
    hypotheses are; exponentiating each ln(2/(nu+1)) ~ -9 separately would
    lose several ulps of Q. At the ends of s, Sigma' is ~V_B^-1 or ~V_A^-1,
    positive definite: an analysis that finds it singular there has lost the
    pair, and raises. Callers silence numpy's floating-point warnings.
    """

    def __init__(self, cov_a: np.ndarray, cov_b: np.ndarray, d: np.ndarray):
        nu_a, parts_a = _mode_parts(cov_a)
        nu_b, parts_b = _mode_parts(cov_b)
        nu = np.concatenate([nu_a, nu_b])
        self.n_modes = k = len(d) // 2  # [:k]: rho_A
        omega = symplectic_form(k)
        dual = omega @ np.concatenate([parts_a, parts_b]) @ omega.T
        # diag of V_A^-1 + V_B^-1, the size of Sigma' away from s = 0 and 1.
        scale = np.sqrt((np.diagonal(dual, axis1=1, axis2=2) / nu[:, None]).sum(axis=0))
        self.sign, self.offset = _SIGN[2 - k:2 + k], _OFFSET[2 - k:2 + k]
        self.ln_r = np.log1p(-2.0 / (nu + 1.0))  # -inf at a pure mode
        self.a = self.sign * np.where(self.ln_r == -np.inf, 0.0, self.ln_r)
        self.g_b = float(np.prod(2.0 / (nu_b + 1.0)))
        self.ratio = float(np.prod(nu_b + 1.0) / np.prod(nu_a + 1.0))
        self.dual = (dual / np.outer(scale, scale)).reshape(nu.size, -1)
        self.det_scale = float(np.prod(scale) ** 2)
        self.dual_d = (dual @ d) / scale if np.any(d) else None
        self.q(_S_EDGE), self.q(_S_TOP)  # Sigma' ~ V_B^-1, V_A^-1: raises if singular

    def q(self, s: float):
        """Q_s at a float s, as _StandardPairs.q, times exp(-1/2 d^T Sigma_s^-1 d)
        = exp(-1/2 (V_A(s)^-1 d)^T Sigma'^-1 (V_B(1-s)^-1 d)) where displaced."""
        k, e = self.n_modes, np.expm1((s * self.sign + self.offset) * self.ln_r)
        w = -e / (2.0 + e)
        sigma = (w @ self.dual).reshape(2 * k, 2 * k)
        det = np.linalg.det(sigma) * self.det_scale
        if not det > 0.0:
            raise ValidationError(_SINGULAR)
        value = 2.0 ** k * (self.g_b * self.ratio**s / np.prod(2.0 + e)) / np.sqrt(det)
        if self.dual_d is not None:
            u_b = np.linalg.solve(sigma, w[k:] @ self.dual_d[k:])
            value *= np.exp(-0.5 * ((w[:k] @ self.dual_d[:k]) @ u_b))
        return value

    def slope(self, s: float) -> tuple:
        """g, g' and the size of g's terms at s, as _StandardPairs.slope, with
        d ln det Sigma' = tr(Sigma'^-1 dSigma') and its derivative
        tr(Sigma'^-1 d^2Sigma') - tr((Sigma'^-1 dSigma')^2). A displaced pair
        adds those of its quadratic term u_a^T Sigma'^-1 u_b, u_a = dual_d @ w
        over rho_A's columns and u_b over rho_B's. NaNs where det Sigma' is
        not positive."""
        k, a, e = self.n_modes, self.a, np.expm1((s * self.sign + self.offset) * self.ln_r)
        t, d = 1.0 + e, 2.0 + e
        w = np.array([-e / d, -2.0 * a * t / (d * d), 2.0 * a * a * t * e / d**3])  # w, w', w''
        sig, sig1, sig2 = (w @ self.dual).reshape(3, 2 * k, 2 * k)
        if not np.linalg.det(sig) > 0.0:
            return math.nan, math.nan, math.nan
        inv = np.linalg.inv(sig)
        m1, ln_ratio = inv @ sig1, float(np.log(self.ratio))
        g = ln_ratio - np.sum(a * t / d) - 0.5 * np.trace(m1)
        g1 = -np.sum(a * a * t / (d * d)) - 0.5 * (np.trace(inv @ sig2) - np.sum(m1 * m1.T))
        size = abs(ln_ratio) + np.sum(abs(a * t / d)) + 0.5 * abs(np.trace(m1))
        if self.dual_d is not None:
            u_a, u_b = w[:, :k] @ self.dual_d[:k], w[:, k:] @ self.dual_d[k:]  # u, u', u''
            y_a, y_b = inv @ u_a[0], inv @ u_b[0]
            q1 = u_a[1] @ y_b + y_a @ u_b[1] - y_a @ sig1 @ y_b
            q2 = (u_a[2] @ y_b + y_a @ u_b[2] - y_a @ sig2 @ y_b
                  + 2.0 * (u_a[1] - sig1 @ y_a) @ inv @ (u_b[1] - sig1 @ y_b))
            g, g1, size = g - 0.5 * q1, g1 - 0.5 * q2, size + 0.5 * abs(q1)
        return float(g), float(g1), float(size)


def _route(pair: HypothesisPair, closed_form: bool = True) -> tuple:
    """(core, args) of a built pair, for core(*args, M) (see the module
    docstring): _coherent on |d|^2/4 and N_B of a coherent pair where
    closed_form, else _discriminate on the errors and analysis of the pair.
    A two-mode pair with equal means takes _standard's on the entries of its
    states where both are in standard form. Any other pair is taken to its
    local frame (_frame) first: there an undisplaced two-mode pair whose
    states are both in standard form to rounding (_xp_free) takes
    _standard's on their entries, and every other pair a _PairData. Callers
    silence numpy's floating-point warnings."""
    a, b = pair.rho_a, pair.rho_b
    d = a.mean - b.mean
    if (closed_form and a.n_modes == 1 and np.array_equal(a.cov, b.cov)
            and a.cov[0, 1] == a.cov[1, 0] == 0.0 and a.cov[0, 0] == a.cov[1, 1]):
        return _coherent, (0.25 * float(d @ d), max(0.5 * float(a.cov[0, 0] - 1.0), 0.0))
    if a.entries is not None and b.entries is not None and not np.any(d):
        return _discriminate, _standard(a.entries, b.entries)
    cov_a, cov_b, d = _frame(a.cov, b.cov, d)
    if a.n_modes == 2 and not np.any(d):
        entries = [_xp_free(v) for v in (cov_a, cov_b)]
        if None not in entries:
            return _discriminate, _standard(*entries)
    return _discriminate, ([None], _PairData(cov_a, cov_b, d))


def _frame(cov_a: np.ndarray, cov_b: np.ndarray, d: np.ndarray) -> list:
    """The covariances and the mean difference of a pair in one local
    frame, L V L^T and L d with the same L for both states: Q_s, s*, ln P
    and the SNR are those of the pair.

    One mode turns so that rho_B is diagonal (symplectic._diagonal_angle).
    Of two modes, mode 1 turns by R(phi)^T and mode 2 by R(psi)^T, from the
    signed SVD of rho_A's cross block C = R(phi) diag(c_x, c_p) R(psi)^T
    (symplectic._cross_angles), which leaves that block diagonal; an angle
    that c_x = -+c_p leaves free (a TMSV pair's) turns modes whose blocks
    are thermal. Then mode k scales by d_k, 1/d_k on x_k, p_k, with
    d_k the power of two nearest (p_kk / x_kk)^1/4 of rho_B, which balances
    the pair's quadratures exactly in binary. The frame is taken in
    np.longdouble: where that is wider than float64, the turn rounds each
    entry by ~1e-19 of its size, and the float64 entries' own rounding is
    the one that counts. It is the identity on isotropic covariances, and
    L d returns as float64."""
    if len(d) == 2:
        (b11, b12), (_, b22) = cov_b.astype(np.longdouble)
        turn = _turn([_diagonal_angle(b11, b12, b22)])
    else:
        turn = _turn(_cross_angles(cov_a[:2, 2:].astype(np.longdouble)))
    cov_a, cov_b = (turn @ v @ turn.T for v in (cov_a, cov_b))
    x, p = np.log2(np.diagonal(cov_b)).reshape(-1, 2).T
    scale = np.exp2(np.outer(np.round(0.25 * (p - x)), [1.0, -1.0]).ravel())
    return [0.5 * (v + v.T) * np.outer(scale, scale) for v in (cov_a, cov_b)] + [
        (scale * (turn @ d)).astype(float)]


def _xp_free(cov: np.ndarray) -> tuple | None:
    """The six standard-form entries of a two-mode covariance whose x-p
    entries are rounding, else None. With no x-p correlations, nu and
    ln Q_s have no first-order response to an x-p entry r, so an r with
    r^2 <= eps V_ii V_jj moves them by ~eps, and it is dropped."""
    root = np.sqrt(np.diagonal(cov))
    if np.all(np.abs(cov[::2, 1::2]) <= _XP_ROUNDING * np.outer(root[::2], root[1::2])):
        return tuple(cov[[0, 1, 2, 3, 0, 1], [0, 1, 2, 3, 2, 3]])
    return None


def q_s(pair: HypothesisPair, s: float) -> float:
    """Tr(rho_A^s rho_B^{1-s}) for a Gaussian hypothesis pair, 0.0 where it
    underflows, from the analysis of discriminate (a coherent pair's general
    one) in its dtype."""
    s = _real("s", s)
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"s must lie in [0, 1], got {s}")
    s = min(max(s, _S_EDGE), _S_TOP)
    with np.errstate(all="ignore"):
        _, (errors, pairs) = _route(pair, closed_form=False)
        q = pairs.q(s)
    if errors[0]:
        raise ValidationError(errors[0])
    if not 0.0 <= q < math.inf:
        raise ValidationError(_SINGULAR)
    return float(q)


def chernoff_infimum(pair: HypothesisPair) -> tuple[float, float]:
    """Minimize Q_s over s in [0, 1] by the Newton search for the root of
    d ln Q_s/ds; returns (s_star, q_min), those of discriminate."""
    result = discriminate(pair, 1.0)
    return result.s_star, result.q_min


def log_error_prob(q_min: float, ensembles: float) -> float:
    """ln of the M-copy Chernoff bound, (1/2) q_min^M, computed stably."""
    if not 0.0 < q_min <= 1.0:
        raise ValidationError(f"q_min must lie in (0, 1], got {q_min}")
    return LN_HALF - _admit("ensembles", ensembles) * float(_exponent(np.float64(q_min)))


def snr_from_log_p(log_p: float) -> float:
    """Invert log_p = ln[(1/2) erfc(sqrt(x))] for x >= 0.

    Works in the log domain, valid far below where the probability itself
    underflows (see _snr_from_log_p).
    """
    log_p = _real("log_p", log_p)
    if not log_p <= LN_HALF + 1e-15:
        raise ValidationError(f"log_p must be <= ln(1/2), got {log_p}")
    return _snr_from_log_p(min(log_p, LN_HALF))


def log_p_from_snr(snr_value: float) -> float:
    """Forward map ln[(1/2) erfc(sqrt(x))], the inverse of snr_from_log_p."""
    snr_value = _real("snr", snr_value)
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
    if big == 0.0:  # the endpoint, where Newton would stop at y ~ 6e-33
        return 0.0
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
    """Chernoff infimum -> M-copy log P -> SNR for many (probe, scenario) points,
    as one batch (discriminate_columns). Returns, per point, its
    DiscriminationResult or the ValidationError that rejected it; a bad
    point does not fail the others."""
    if len(probes) != len(scenarios):
        raise ValidationError(
            f"{len(probes)} probes against {len(scenarios)} scenarios")
    return discriminate_columns([p.kind is ProbeKind.COHERENT for p in probes],
                                *_columns(probes, scenarios))


def _columns(probes, scenarios) -> np.ndarray:
    """Rows n0, n1, n2, ns, kappa, N_B and M, one column per point."""
    return np.array([(p.n0, p.n1, p.n2, p.ns, s.kappa, s.nb, s.ensembles)
                     for p, s in zip(probes, scenarios)], dtype=float).reshape(-1, 7).T


def discriminate_columns(coherent: list[bool], n0, n1, n2, ns, kappa, nb,
                         ensembles) -> list:
    """discriminate_many on float columns of admitted parameters.

    Coherent probes (flagged by coherent) take their closed form at s* = 1/2;
    the others the standard-form core, whose Newton search for s* steps
    every point's s as one (points,) column; a kind's lone point runs on
    floats, as in snr."""
    params = n0, n1, n2, ns, kappa, nb, ensembles
    out: list = [None] * len(coherent)
    for kind in (True, False):
        rows = [i for i, c in enumerate(coherent) if bool(c) is kind]
        if rows:
            point = ([float(v[rows[0]]) for v in params] if len(rows) == 1
                     else [v[rows] for v in params])
            for i, result in zip(rows, _discriminate_params(kind, *point)):
                out[i] = result
    return out


def _discriminate_params(coherent: bool, n0, n1, n2, ns, kappa, nb, ensembles) -> list:
    """Per point, its result or ValidationError, from one point's floats or
    from (n,) columns of one kind. Floats take the +, * and correctly rounded
    sqrt of arrays, so one point gets the bits of its row."""
    with np.errstate(all="ignore"):
        if coherent:
            return _coherent(kappa * ns, nb, ensembles)
        entries = _probe_entries(n0, n1, n2)
        ent_a = _return_entries(entries, kappa, nb)
        ent_b = _absent_entries(entries, nb)
        if isinstance(n0, np.ndarray):
            ent_a, ent_b = np.array(ent_a), np.array(ent_b)
        return _discriminate(*_standard(ent_a, ent_b), ensembles)


def _one(result):
    """A result, or raise the ValidationError that stands in for it."""
    if isinstance(result, ValidationError):
        raise result
    return result


def discriminate(pair: HypothesisPair, ensembles: float) -> DiscriminationResult:
    """Chernoff infimum -> M-copy log P -> SNR for a built hypothesis pair.

    A pair in standard form takes the analysis of a batch row, so that
    discriminate(make_hypotheses(p, sc), M) equals snr(p, sc), and so does
    a two-mode pair that its local frame puts in standard form; a coherent
    pair its closed form, and any other pair its general analysis in its
    local frame (_route).
    """
    ensembles = _admit("ensembles", ensembles)
    with np.errstate(all="ignore"):
        core, args = _route(pair)
        return _one(core(*args, ensembles)[0])


def snr(probe: ProbeSpec, scenario: TargetScenario) -> DiscriminationResult:
    """Full pipeline for one point: hypotheses -> Chernoff infimum -> log P -> SNR,
    on the point's floats, with the bits of its row in any batch."""
    p, s = probe, scenario
    return _one(_discriminate_params(p.kind is ProbeKind.COHERENT, p.n0, p.n1, p.n2,
                                     p.ns, s.kappa, s.nb, s.ensembles)[0])
