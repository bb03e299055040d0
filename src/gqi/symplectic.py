"""Gaussian states in the quadrature picture: validation and the symplectic spectrum.

Convention (single source of truth for the whole package):
    x = a + a†,  p = -i(a - a†),  ordering (x1, p1, x2, p2, ...).
The vacuum covariance is the identity and a thermal state with mean photon
number N has covariance (2N+1) I_2.

Each spectrum routine reports the rounding of the nu it returns. Validation
floors it at EIGENVALUE_CLAMP_TOL; the Chernoff core takes a nu within it of
1, unfloored, as a pure mode.
"""

import math
import operator
from typing import NamedTuple

import numpy as np

EIGENVALUE_CLAMP_TOL = 1e-9
SYMMETRY_RTOL = 1e-12

# A covariance is rejected only if its smallest symplectic eigenvalue falls
# short of 1 by more than the error of the closed form that computed it
# (_spectrum_error): ~eps max|V| for a thermal mode (diag(2e8, 2e8, 0.9,
# 0.9) is rejected), ~eps max|V|^2 for a strongly squeezed one. Against 80
# digits, _two_mode's nu_- stayed within 1.8 eps tr V (k_+ + k_-) of the
# exact one on 3000 phase-turned and 3000 beam-split lossy ASTM returns,
# 3000 S diag(nu) S^T and 1616 pure ASTM probes (max|V| <= 1e5) turned and
# beam-split; within eps max|V| times the condition of nu_- alone it did
# not (345 times that, as the elimination for det V loses ~eps tr V tr V^-1).
# standard_form_spectrum holds its covariances to that eigenvector bound.
_SPECTRUM_ULPS = 8
_EPS = float(np.finfo(float).eps)  # a float: no numpy warning on overflow
_TINY = float(np.finfo(float).tiny)

# nu_+- from six standard-form entries are off by ~eps _cancellation
# relative: the entries' own rounding, carried through det X det P, which a
# local squeezer scales alike in each ratio's terms. On 20000 log-uniform
# draws of rho_A and pure probes (n0, n1, n2 in [1e-6, 1e8], kappa in
# [1e-4, 0.99], N_B in [1e-12, 1e8], N_B = 0 or n0 = 0 in 25%), the 17909
# correlated states kept nu_- within 1.05 eps _cancellation of 200 digits,
# in float64 and np.longdouble: a margin of ~245. A product mode, sqrt(x p),
# has 1 + 1 + 1, and a pure one stayed within 1.0 eps of 1.
_ROUNDING_ULPS = 256
_MODE_ROUNDING = _ROUNDING_ULPS * _EPS * 3.0


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


def _mode_count(n_modes) -> int:
    """n_modes as an int, where it is the integer 1 or 2: an int or a numpy
    integer (a bool or a float is no mode count)."""
    if (n_modes.__class__ is int or isinstance(n_modes, np.integer)) and n_modes in (1, 2):
        return int(n_modes)
    raise ValidationError(f"n_modes must be 1 or 2, got {n_modes!r}")


def symplectic_form(n_modes: int) -> np.ndarray:
    """Canonical symplectic form Omega = direct sum of [[0, 1], [-1, 0]] of one
    or two modes, read-only, so that every caller may share it."""
    return _OMEGA[_mode_count(n_modes)]


_OMEGA = {n: np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]]) + 0.0 for n in (1, 2)}  # no -0.0
for _omega in _OMEGA.values():
    _omega.flags.writeable = False


def _check_covariance(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape not in ((2, 2), (4, 4)):
        raise ValidationError(
            f"covariance must be 2n x 2n with n = 1 or 2 modes, got shape {cov.shape}")
    scale = np.abs(cov).max()  # NaN or inf if any entry is
    if not np.isfinite(scale):
        raise ValidationError("covariance has a non-finite entry")
    if np.abs(cov - cov.T).max() > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValidationError("covariance matrix is not symmetric")
    return cov


def _closed_spectrum(cov: np.ndarray) -> tuple:
    """(nu descending, bounds) of a one- or two-mode covariance. bounds
    pairs each value held to a bound (the smallest of correlated modes,
    else each mode in order) with its _spectrum_error. Raises
    ValidationError where it is not positive definite or float64 resolves
    no spectrum."""
    v = cov.tolist()
    if len(v) == 4:
        return _two_mode(v)
    (x, c), (c2, p) = v
    bound = _one_mode(x, c, c2, p)
    return (bound[0],), [bound]


def _require_positive(minor: float, rounding: float = 0.0) -> None:
    """Raise unless a leading minor (or ratio of two) is positive and finite.
    From finite entries, a NaN or inf minor is a product out of range, and
    so is one <= 0 within rounding, the error it may carry: float64 cannot
    tell its sign."""
    if not 0.0 < minor < math.inf:
        raise ValidationError("covariance matrix is not positive definite"
                              if minor <= -rounding else _WIDE_RANGE)


def _one_mode(x: float, c: float, c2: float, p: float) -> tuple[float, float]:
    """(nu, the error bound of nu) of the one-mode covariance [[x, c], [c2, p]].

    det V = x s, with s = p - c c2 / x the second leading minor over the
    first; nu = sqrt(x) sqrt(s) where det V is out of range. nu is off by
    ~eps max|V| times its condition (x + p) / (2 nu).
    """
    _require_positive(x)
    s = p - c * (c2 / x)
    _require_positive(s, 2.0 * _EPS * (abs(p) + abs(c * (c2 / x))))
    det = x * s
    nu = math.sqrt(det) if _TINY <= det < math.inf else math.sqrt(x) * math.sqrt(s)
    return nu, _spectrum_error(max(x, p, abs(c)), (x + p) / (2.0 * nu))


def _two_mode(v: list) -> tuple:
    """_closed_spectrum of V = [[A, C], [C^T, B]] (Serafini, Illuminati & De
    Siena, J. Phys. B 37, L21 (2004)).

    nu_+^2 = (det A + det B + 2 det C + q) / 2, nu_-^2 = det V / nu_+^2. As
    (Omega V)^2 has diagonal blocks -(det A + det C) I, -(det B + det C) I
    and off-diagonal N, N' with N N' = det N I, q = nu_+^2 - nu_-^2 =
    sqrt(x^2 + 4u), x = det A - det B, u = det N. det V = det A det S,
    S = B - C^T A^-1 C, and the leading minors A_11, det A, S_11 and det S
    decide definiteness. One that fails within the first-order rounding of
    the products that formed it (S's entries by norms, |C^T A^-1 C| <=
    |C|_F^2 tr A / det A, with det A's own rounding) has a sign float64
    cannot tell, and raises "entries span too wide a range", not "not
    positive definite".

    The elimination is exact for V + E, |E| ~ eps |V|, so nu_- is off by
    ~eps tr V (k_+ + k_-), k_+- the conditions |x|^2 / |x^H i Omega x| of
    nu_+- (x their eigenvectors), which bound the rounding of nu_+^2 too.
    With V = S D S^T, k_+ + k_- = (tr V + nu_+ nu_- tr V^-1) / (2 (nu_+ + nu_-)),
    positive terms that need no eigenvector: no branch where the gap is
    within rounding. A product state holds each mode to its own bound.
    """
    (a, b, c, d), (e, f, g, h), (i, j, k, l), (m, n, o, p) = v
    det_a, det_b, det_c = a * f - b * e, k * p - l * o, c * h - d * g
    mag_a = abs(a * f) + abs(b * e)
    _require_positive(a)
    _require_positive(det_a, 2.0 * _EPS * mag_a)
    t00, t01, t10, t11 = f * c - b * g, f * d - b * h, a * g - e * c, a * h - e * d  # adj(A) C
    s00, s01 = k - (i * t00 + j * t10) / det_a, l - (i * t01 + j * t11) / det_a
    s10, s11 = o - (m * t00 + n * t10) / det_a, p - (m * t01 + n * t11) / det_a
    det_s = s00 * s11 - s01 * s10
    err_s = _SPECTRUM_ULPS * _EPS * (max(abs(k), abs(l), abs(o), abs(p)) + (
        (c * c + d * d + g * g + h * h) * ((a + f) / det_a) * (mag_a / det_a)))
    _require_positive(s00, err_s)
    _require_positive(det_s, err_s * (abs(s00) + abs(s01) + abs(s10) + abs(s11) + 2.0 * err_s)
                      + 2.0 * _EPS * (abs(s00 * s11) + abs(s01 * s10)))
    x = det_a - det_b
    u = ((e * g - f * c + g * o - h * k) * (b * d - a * h + d * l - c * p)
         - (e * h - f * d + g * p - h * l) * (b * c - a * g + d * k - c * o))
    q = math.sqrt(max(x * x + 4.0 * u, 0.0))
    det, hi2 = det_a * det_s, 0.5 * (det_a + det_b + 2.0 * det_c + q)
    # Past its leading minors, V is positive definite as far as float64 can
    # tell: what fails now is out of range.
    _require_positive(det, math.inf)
    _require_positive(hi2, math.inf)
    _require_positive(det / hi2, math.inf)
    nu = sorted((math.sqrt(hi2), math.sqrt(det / hi2)), reverse=True)
    if c or d or g or h:
        # tr V^-1 = tr A^-1 + tr S^-1 + tr(S^-1 T^T T) / det A^2, T = adj(A) C;
        # below 0 it is rounding that has left S no digit.
        g00, g01, g11 = t00 * t00 + t10 * t10, t00 * t01 + t10 * t11, t01 * t01 + t11 * t11
        inv_trace = max(0.0, (a + f) / det_a + (s00 + s11) / det_s
                        + (s11 * g00 + s00 * g11 - (s01 + s10) * g01) / (det_s * det_a**2))
        trace = a + f + k + p
        bounds = [(nu[1], _spectrum_error(
            trace, (trace + nu[0] * nu[1] * inv_trace) / (2.0 * (nu[0] + nu[1]))))]
    else:
        bounds = [_one_mode(a, b, e, f), _one_mode(k, l, o, p)]
    return tuple(nu), bounds


def _spectrum_error(scale: float, condition: float) -> float:
    """_SPECTRUM_ULPS eps scale condition, the error of a closed-form nu.

    eps scale is the rounding a closed-form spectrum starts from (max|V|,
    or tr V for two modes, _two_mode) and condition how far the formula
    carries it into the eigenvalue. Where that bound is not finite, no bound
    follows, and the covariance is rejected: the condition (x + p) / (2 nu)
    of diag(1e-300, 1e300) overflows, and so do the squares in _shortfall's
    condition for entries of ~1e154.
    """
    bound = _SPECTRUM_ULPS * _EPS * scale * condition
    if not bound < math.inf:  # inf or NaN
        raise ValidationError(_WIDE_RANGE)
    return bound


def _allowed_shortfall(scale: float, condition: float) -> float:
    """The shortfall below 1 validation allows: _spectrum_error, >= 1e-9."""
    return max(EIGENVALUE_CLAMP_TOL, _spectrum_error(scale, condition))


_WIDE_RANGE = "covariance entries span too wide a range"


def _unphysical(nu: float, smallest: bool = True) -> str:
    """Why a covariance is rejected: its smallest symplectic eigenvalue, or
    another mode of a product state, falls short of 1."""
    which = "smallest symplectic eigenvalue" if smallest else (
        "symplectic eigenvalue of a mode of a product state")
    return f"covariance violates the physical-state condition: {which} {nu}"


class StandardSpectrum(NamedTuple):
    """Closed-form spectra of standard-form two-mode covariances.

    From a (6, n) array, each field has one entry (or column) per
    covariance; from six floats, floats (nu and k as tuples) and one error.
    With X and P the 2x2 x and p blocks, nu_+-^2 are the eigenvalues of PX.
    """

    nu: np.ndarray        # (2, n): nu_+ and nu_-
    gap: np.ndarray       # nu_+^2 - nu_-^2
    k: np.ndarray         # (4, n): PX - nu_-^2, entries 11, 12, 21, 22
    errors: list          # None, or why the covariance is not a physical state
    tol: np.ndarray       # the shortfall below 1 that validation allowed nu_-, >= 1e-9
    rounding: np.ndarray  # of nu_+-, relative, unfloored: what the Chernoff core snaps by


# Standard-form positions in a flattened 4x4 covariance: the six entries
# standard_form_spectrum takes, the x-p correlations such a covariance
# lacks, and the transposes of its two cross entries.
_ENTRY_FLAT = operator.itemgetter(0, 5, 10, 15, 2, 7)
_XP_FLAT = operator.itemgetter(1, 3, 4, 6, 9, 11, 12, 14)


def _standard_entries(cov: np.ndarray) -> tuple | None:
    """(x1x1, p1p1, x2x2, p2p2, x1x2, p1p2) of a two-mode covariance in
    standard form, exactly symmetric and without x-p correlations; else None."""
    v = cov.ravel().tolist()
    if len(v) != 16 or any(_XP_FLAT(v)) or v[2] != v[8] or v[7] != v[13]:
        return None
    return _ENTRY_FLAT(v)


def _diagonal_angle(v11, v12, v22):
    """theta = atan2(2 v12, v11 - v22) / 2, whose R(theta)^T turns the
    symmetric block [[v11, v12], [v12, v22]] diagonal."""
    return 0.5 * np.arctan2(v12 + v12, v11 - v22)


def _cross_angles(cross) -> list:
    """[phi, psi] of the signed SVD C = R(phi) diag(c_x, c_p) R(psi)^T of a
    2x2 cross block: c11 + c22 = (c_x + c_p) cos(phi - psi), c21 - c12 =
    (c_x + c_p) sin(phi - psi), and likewise c11 - c22 and c21 + c12 with
    c_x - c_p and phi + psi. A sign of c_x +- c_p moves an angle by pi, and
    c_x = -+c_p leaves one angle free."""
    (c11, c12), (c21, c22) = cross
    plus, minus = np.arctan2(c21 + c12, c11 - c22), np.arctan2(c21 - c12, c11 + c22)
    return [0.5 * (plus + minus), 0.5 * (plus - minus)]


def _turn(angles) -> np.ndarray:
    """The local turn R(theta_1)^T (+) R(theta_2)^T ... of one angle per
    mode, in the angles' dtype."""
    turn = np.zeros((2 * len(angles),) * 2, dtype=np.result_type(*angles))
    for k, angle in enumerate(angles):
        c, s = np.cos(angle), np.sin(angle)
        turn[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, s], [-s, c]]
    return turn


def _standard_frame(cov: np.ndarray) -> tuple:
    """(entries, L): the local symplectic L that takes a two-mode
    covariance V to standard form, and the six entries (x1x1, p1p1, x2x2,
    p2p2, x1x2, p1p2) of L V L^T, both in np.longdouble.

    Each mode block turns diagonal (_diagonal_angle) and then squeezes to
    sqrt(det) I; both modes then turn by the signed SVD of the cross block
    (_cross_angles), which leaves the mode blocks as they are (Duan,
    Giedke, Cirac & Zoller, PRL 84, 2722 (2000)). The x-p entries left are
    the turns' rounding, ~eps (of np.longdouble) times each mode block's
    larger eigenvalue, and are dropped: nu and ln Q_s have no first-order
    response to them.
    """
    v = np.asarray(cov, dtype=np.longdouble)
    frame = _turn([_diagonal_angle(v[k, k], v[k, k + 1], v[k + 1, k + 1]) for k in (0, 2)])
    x, p = np.diagonal(frame @ v @ frame.T).reshape(2, 2).T
    squeeze = np.repeat(np.sqrt(np.sqrt(p / x)), 2) ** np.array([1, -1, 1, -1])
    frame = squeeze[:, None] * frame
    frame = _turn(_cross_angles((frame @ v @ frame.T)[:2, 2:])) @ frame
    v = frame @ v @ frame.T
    return v[[0, 1, 2, 3, 0, 1], [0, 1, 2, 3, 2, 3]], frame


def _sqrt(x):
    """math.sqrt of a float, np.sqrt of an array or np.longdouble; both round correctly."""
    return math.sqrt(x) if isinstance(x, (float, int)) else np.sqrt(x)


def _where(cond, a, b):
    """np.where on arrays, a conditional expression on floats."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _all(cond) -> bool:
    """cond.all() of an array, bool(cond) of a scalar (whose .all() would run a
    reduction)."""
    return cond.all() if isinstance(cond, np.ndarray) else bool(cond)


def _ratio(num, den):
    """num / den where den > 0, else 0."""
    if isinstance(den, np.ndarray):
        return np.where(den > 0.0, num / den, 0.0)
    return num / den if den > 0.0 else 0.0


def standard_form_spectrum(entries) -> StandardSpectrum:
    """Symplectic spectra and validation of standard-form covariances.

    entries is (x1x1, p1p1, x2x2, p2p2, x1x2, p1p2) of covariances with no
    x-p correlations (Duan, Giedke, Cirac & Zoller, PRL 84, 2722 (2000)):
    six floats, or a (6, n) array of n covariances in any float dtype. Then
    X = [[x1x1, x1x2], [x1x2, x2x2]], P likewise, and nu_+-^2 are the
    eigenvalues of PX:

        nu_+^2 = (tr PX + g) / 2,   nu_-^2 = det X det P / nu_+^2,
        g = sqrt(x^2 + 4 (PX)_12 (PX)_21),   x = (PX)_11 - (PX)_22,

    which cancels neither for nu_- << nu_+ nor for a diagonal X and P. The
    diagonal of PX - nu_-^2 is (g + x)/2 and (g - x)/2, whose product is
    (PX)_12 (PX)_21, so the smaller one comes without cancellation too.

    A covariance that GaussianState would reject gets its reason in errors:
    the smallest eigenvalue may fall short of 1 by tol, max(1e-9, eps max|V|
    times its condition). With u the eigenvector of PX for nu_-^2, that of
    i Omega V is (u, -i X u / nu_-), which gives the condition in closed form.
    A column flagged on the common path (not finite, not positive definite,
    det X det P overflowing, or nu_- below 1 - EIGENVALUE_CLAMP_TOL or infinite) takes
    the path of six floats, as numpy scalars of its dtype. Six floats take
    no numpy call, and their fields are nan when errors holds a reason
    other than the shortfall.
    """
    ax, ap, bx, bp, cx, cp = entries
    if isinstance(ax, np.ndarray):
        with np.errstate(all="ignore"):
            det_x, det_p = ax * bx - cx * cx, ap * bp - cp * cp
            nu, gap, k = _spectrum(entries, det_x, det_p)
            nu, k = np.array(nu), np.array(k)
            # det_x det_p is not finite where an entry is not, or it overflows.
            bad = ~((np.minimum(np.minimum(ax, ap), np.minimum(det_x, det_p)) > 0.0)
                    & (nu[1] >= 1.0 - EIGENVALUE_CLAMP_TOL) & np.isfinite(det_x * det_p)
                    & (nu[1] < np.inf))  # inf where tr PX cancels to 0
            errors, tol = [None] * nu.shape[1], np.full(nu.shape[1], EIGENVALUE_CLAMP_TOL)
            rounding = _ROUNDING_ULPS * _EPS * _cancellation(entries, det_x, det_p)
            for i in np.flatnonzero(bad):
                nu[:, i], gap[i], k[:, i], (errors[i],), tol[i], rounding[i] = (
                    standard_form_spectrum(tuple(entries[:, i])))
        return StandardSpectrum(nu, gap, k, errors, tol, rounding)
    det_x, det_p = ax * bx - cx * cx, ap * bp - cp * cp
    error = _definiteness(entries, det_x, det_p)
    if not error:
        try:
            nu, gap, k = _spectrum(entries, det_x, det_p)
            if _range_error(nu):
                nu, gap, k = _centred_spectrum(entries)
                error = _range_error(nu)
        except (ZeroDivisionError, ValueError):  # floats whose tr PX cancels to 0 or below
            error = _WIDE_RANGE
    if not error:
        try:
            error, tol = _shortfall(entries, nu, k)
        except ValidationError as exc:  # no finite bound on the shortfall
            error = str(exc)
        else:
            rounding = _MODE_ROUNDING if not (cx or cp) else (  # det X may underflow
                _ROUNDING_ULPS * _EPS * _cancellation(entries, det_x, det_p))
            return StandardSpectrum(nu, gap, k, [error], tol, rounding)
    return StandardSpectrum((math.nan,) * 2, math.nan, (math.nan,) * 4, [error], math.nan, math.nan)


def _cancellation(entries, det_x, det_p):
    """1 + (x1x1 x2x2 + x1x2^2) / det X + (p1p1 p2p2 + p1p2^2) / det P, the
    growth of the entries' rounding in det X det P (see _ROUNDING_ULPS)."""
    ax, ap, bx, bp, cx, cp = entries
    return 1.0 + (ax * bx + cx * cx) / det_x + (ap * bp + cp * cp) / det_p


def _spectrum(entries, det_x, det_p) -> tuple:
    """nu_+-, g and the entries of PX - nu_-^2, as tuples of floats or arrays."""
    ax, ap, bx, bp, cx, cp = entries
    k12, k21 = ap * cx + cp * bx, cp * ax + bp * cx
    x = ap * ax - bp * bx
    u = k12 * k21
    disc = x * x + 4.0 * u
    gap = _sqrt(_where(disc > 0.0, disc, 0.0))
    big = 0.5 * (gap + abs(x))
    small = _ratio(u, big)
    first = x >= 0.0
    k = (_where(first, big, small), k12, k21, _where(first, small, big))
    hi2 = 0.5 * (ap * ax + bp * bx + 2.0 * cp * cx + gap)
    return (_sqrt(hi2), _sqrt(det_x * det_p / hi2)), gap, k


def _range_error(nu) -> str | None:
    """Why a computed nu_+, nu_- is not a spectrum (0, inf or NaN), or None."""
    if 0.0 < nu[1] < math.inf and nu[0] < math.inf:
        return None
    return _WIDE_RANGE


def _centred_spectrum(entries) -> tuple:
    """_spectrum of one covariance whose products of entries overflow or
    underflow, from its six entries (floats or numpy scalars).

    The entries are scaled by the power of 2 that centres the exponents of
    the largest and smallest nonzero ones. nu_+- scale by it and g and the
    entries of PX - nu_-^2 by its square, all exactly, so undoing the scale
    gives the spectrum where the entries alone are in range:
    diag(1, 1, 1, 1e300) has nu = (1e150, 1), though x^2 ~ 1e600.

    A product state (x1x2 = p1p2 = 0) takes each mode's nu as
    sqrt(x x) sqrt(p p), which squares no product: diag(1e200, 1e200, 1, 1)
    has nu = (1e200, 1) and diag(1e-300, 1e300, 1e-300, 1e300) nu = (1, 1),
    though no scale brings their x^2 or det X into range.
    """
    with np.errstate(all="ignore"):
        if not (entries[4] or entries[5]):
            ax, ap, bx, bp, zero, _ = entries
            first, second = _sqrt(ax) * _sqrt(ap), _sqrt(bx) * _sqrt(bp)
            hi, lo = (first, second) if first >= second else (second, first)
            k = ((first - lo) * (first + lo), zero, zero, (second - lo) * (second + lo))
            return (hi, lo), (hi - lo) * (hi + lo), k
        sizes = [abs(e) for e in entries if e]
        shift = (math.frexp(max(sizes))[1] + math.frexp(min(sizes))[1]) // 2
        scale = math.ldexp(1.0, -shift)
        ax, ap, bx, bp, cx, cp = scaled = [e * scale for e in entries]
        square = scale * scale
        (hi, lo), gap, k = _spectrum(scaled, ax * bx - cx * cx, ap * bp - cp * cp)
        return (hi / scale, lo / scale), gap / square, tuple(v / square for v in k)


def _definiteness(entry, det_x, det_p) -> str | None:
    """Why one standard-form covariance is not positive definite, or None.

    Without cross entries det X = x1x1 x2x2 > 0 iff x2x2 > 0, whether or not
    the product underflows; det P likewise.
    """
    if not all(map(math.isfinite, entry)):
        return "covariance has a non-finite entry"
    ax, ap, bx, bp, cx, cp = entry
    if not (ax > 0.0 and ap > 0.0 and (det_x > 0.0 or not cx and bx > 0.0)
            and (det_p > 0.0 or not cp and bp > 0.0)):
        return "covariance matrix is not positive definite"
    return None


def _shortfall(entry, nu, k) -> tuple[str | None, float]:
    """The physical-state check of one positive-definite standard-form covariance.

    nu is (nu_+, nu_-). Returns why the covariance is not physical (or
    None) and the shortfall allowed for nu_-; raises where no finite bound
    follows (_allowed_shortfall). A product state (x1x2 = p1p2 = 0) holds
    each mode to GaussianState(1, ...)'s bound for it, from its own
    entries: the other mode's cannot round into it.
    """
    nu_hi, nu_lo = nu
    if nu_lo >= 1.0 - EIGENVALUE_CLAMP_TOL:
        return None, EIGENVALUE_CLAMP_TOL
    ax, ap, bx, bp, cx, cp = entry
    k11, k12, k21, k22 = k
    # (PX - nu_-^2) u = 0: the larger of the two vectors its rows give.
    u0, u1 = max(((k12, -k11), (k22, -k21)), key=lambda r: abs(r[0]) + abs(r[1]))
    if not (u0 or u1):
        u0, u1 = 1.0, 0.0
    xu0, xu1 = ax * u0 + cx * u1, cx * u0 + bx * u1
    # |x|^2 / |x^H i Omega x| with x = (u, -i X u / nu)
    condition = ((u0 * u0 + u1 * u1 + (xu0 * xu0 + xu1 * xu1) / nu_lo**2) * nu_lo
                 / (2.0 * (u0 * xu0 + u1 * xu1)))
    if cx or cp:
        tol = _allowed_shortfall(max(map(abs, entry)), condition)
        return (None if nu_lo >= 1.0 - tol else _unphysical(nu_lo)), tol
    # u lies in the short mode; the long one has condition (x + p) / (2 nu).
    (sx, sp), (lx, lp) = ((ax, ap), (bx, bp)) if u0 else ((bx, bp), (ax, ap))
    tol = _allowed_shortfall(max(sx, sp), condition)
    if nu_lo < 1.0 - tol:
        return _unphysical(nu_lo), tol
    if nu_hi < 1.0 - _allowed_shortfall(max(lx, lp), (lx + lp) / (2.0 * nu_hi)):
        return _unphysical(nu_hi, smallest=False), tol
    return None, tol


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a one- or two-mode covariance, descending.

    The moduli of the (pairwise degenerate) eigenvalues of i Omega cov, in
    closed form (_closed_spectrum): each is >= 1 for a physical covariance,
    which this does not check. Raises ValidationError for any other mode
    count and where cov is not symmetric and positive definite.
    """
    return np.array(_closed_spectrum(_check_covariance(cov))[0])


def _real_array(name: str, value) -> np.ndarray:
    """A float64 copy of value; ValidationError where numpy cannot make one
    (an entry that is not a number, or ragged rows)."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must hold real numbers, got {value!r}") from None


class GaussianState:
    """Gaussian state of one or two modes: quadrature mean and covariance.

    Construction validates the state and keeps the symplectic spectrum of
    its covariance (descending) as ``spectrum``, with no LAPACK call. A
    two-mode covariance in standard form (no x-p correlations, as
    _standard_entries decides: every probe and hypothesis state the package
    builds) takes standard_form_spectrum, any other the closed form of
    symplectic_eigenvalues. The smallest eigenvalue may fall below 1 by
    max(1e-9, the error of that closed form), ``spectrum_tol`` (out of
    standard form, whatever the spectrum reads). That error follows the
    conditioning of the eigenvalues, not |V| alone, so diag(2e8, 1e-9)
    (nu = 0.45) passes: it is within eps * 2e8 = 4.4e-8 of the pure
    diag(2e8, 5e-9), and its float64 entries cannot tell the two apart. A
    product state holds each mode to the bound it would have alone. Three
    or more modes raise ValidationError.

    A state in standard form keeps the entries it was validated with,
    (x1x1, p1p1, x2x2, p2p2, x1x2, p1p2), as ``entries`` (else None). A state
    cannot be changed, so what was validated stays true: its properties cannot
    be rebound, and mean, cov and spectrum are read-only copies.
    """

    __slots__ = ("_n_modes", "_mean", "_cov", "_spectrum", "_spectrum_tol", "_entries")
    n_modes, mean, cov, spectrum, spectrum_tol, entries = map(
        property, map(operator.attrgetter, __slots__))

    def __init__(self, n_modes: int, mean, cov):
        if n_modes.__class__ is not int or n_modes not in (1, 2):  # an int 1 or 2 in one check
            n_modes = _mode_count(n_modes)
        dim, mean = 2 * n_modes, _real_array("mean", mean)
        if mean.shape != (dim,):
            raise ValidationError(f"mean must have length {dim}, got shape {mean.shape}")
        if not all(map(math.isfinite, mean.tolist())):
            raise ValidationError("mean has a non-finite entry")
        cov = _real_array("cov", cov)
        if cov.shape != (dim, dim):
            raise ValidationError(f"cov must be {dim} x {dim}, got {cov.shape}")
        entries = _standard_entries(cov) if n_modes == 2 else None
        if entries is None:
            nu, bounds = _closed_spectrum(_check_covariance(cov))
            bounds.sort()  # smallest nu first
            for rank, (value, bound) in enumerate(bounds):
                if value < 1.0 - max(EIGENVALUE_CLAMP_TOL, bound):
                    raise ValidationError(_unphysical(value, smallest=rank == 0))
            tol = max(EIGENVALUE_CLAMP_TOL, bounds[0][1])
        else:
            spec = standard_form_spectrum(entries)
            if spec.errors[0]:
                raise ValidationError(spec.errors[0])
            # Where nu_+ and nu_- are both ~1 (a pure probe), the closed form may
            # round nu_+ an ulp below nu_-.
            nu, tol = sorted(spec.nu, reverse=True), spec.tol
        spectrum = np.array(nu)
        for array in (mean, cov, spectrum):
            array.setflags(write=False)
        self._n_modes, self._mean, self._cov = n_modes, mean, cov
        self._spectrum, self._spectrum_tol, self._entries = spectrum, tol, entries

    def __reduce__(self):  # a copy or an unpickled state is validated again
        return GaussianState, (self._n_modes, self._mean, self._cov)

    def __repr__(self) -> str:
        return f"GaussianState({self._n_modes}, {self._mean!r}, {self._cov!r})"
