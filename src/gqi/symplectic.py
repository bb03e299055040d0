"""Gaussian states in the quadrature picture: validation and the symplectic spectrum.

Convention (single source of truth for the whole package):
    x = a + a†,  p = -i(a - a†),  ordering (x1, p1, x2, p2, ...).
The vacuum covariance is the identity and a thermal state with mean photon
number N has covariance (2N+1) I_2.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

EIGENVALUE_CLAMP_TOL = 1e-9
SYMMETRY_RTOL = 1e-12

# A covariance whose spectrum reads below 1 - EIGENVALUE_CLAMP_TOL is
# rejected only if its smallest symplectic eigenvalue falls short of 1 by
# more than the error of the computed spectrum. eigvals is backward stable:
# its spectrum is exact for i Omega V + E, |E| ~ eps max|V|, so nu_k is off
# by up to |E| |x|^2 / |x^H i Omega x| (x its eigenvector, i Omega x the left
# one): |E| times the condition number of nu_k. That is ~eps max|V|^2 for a
# strongly squeezed mode (symplectic_eigenvalues reads the pure covariance of
# tmsv_state(1e4) as 1 - 3.7e-8, and the same state of 5e3 photons through
# a beam splitter, out of standard form, as 1 - 1.9e-8) and ~eps max|V| for
# one that is not (diag(2e8, 2e8, 0.9, 0.9) is rejected). On ~9000 sampled
# pure and nearly pure states (closed-form TMSV and ASTM probes with n0 up
# to 3e4 and squeezers up to 1e6 photons, the same through random beam
# splitters and phases, S diag(nu) S^T for random one- and two-mode
# symplectic S) whose shortfall exceeded 1e-10, it stayed below 1.4 times
# that bound. A covariance in standard form is held to the same bound in
# closed form (standard_form_spectrum).
_SPECTRUM_ULPS = 8


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Canonical symplectic form Omega = direct sum of [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise ValidationError(f"n_modes must be >= 1, got {n_modes}")
    return _symplectic_form(n_modes)


@lru_cache(maxsize=8)
def _symplectic_form(n_modes: int) -> np.ndarray:
    """Read-only, so that every caller may share the cached array."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    omega.flags.writeable = False
    return omega


def _check_covariance(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if (cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2
            or cov.size == 0):
        raise ValidationError(f"covariance must be 2n x 2n, got shape {cov.shape}")
    scale = np.abs(cov).max()  # NaN or inf if any entry is
    if not np.isfinite(scale):
        raise ValidationError("covariance has a non-finite entry")
    if np.abs(cov - cov.T).max() > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValidationError("covariance matrix is not symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance matrix is not positive definite") from None
    return cov


def _require_finite_mean(mean: np.ndarray) -> None:
    if not np.isfinite(mean).all():
        raise ValidationError("mean has a non-finite entry")


def _require_physical(cov: np.ndarray, nu_min: float) -> float:
    """Raise unless cov is physical to within the error of its spectrum.

    nu_min is the computed smallest symplectic eigenvalue. Below the
    EIGENVALUE_CLAMP_TOL floor, the eigenvector x of that eigenvalue gives
    nu = x^H V x / |x^H i Omega x|, an upper bound on the exact smallest
    eigenvalue (Courant-Fischer for the pencil V - nu i Omega) that is
    accurate to second order in x, and the bound above gives its error.
    A product of one-mode states (no entries between modes) holds each mode
    to GaussianState(1, ...)'s bound, from its own entries, as
    standard_form_spectrum does. Returns the shortfall below 1 that it
    allowed for the smallest eigenvalue.
    """
    if nu_min >= 1.0 - EIGENVALUE_CLAMP_TOL:
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
    """(nu, tol): the smallest symplectic eigenvalue from its eigenvector, as
    _require_physical says, and the shortfall below 1 allowed it."""
    i_omega = 1j * symplectic_form(cov.shape[0] // 2)
    ev, vecs = np.linalg.eig(i_omega @ cov)
    x = vecs[:, np.argmin(np.abs(ev))]
    norm = abs(np.vdot(x, i_omega @ x))
    with np.errstate(all="ignore"):
        nu = np.vdot(x, cov @ x).real / norm
        tol = _allowed_shortfall(np.abs(cov).max(), np.vdot(x, x).real / norm)
    # eigvals reads the spectrum of diag(1e-300, 1e300) as 0, and norm with
    # it: no bound follows.
    if not tol < math.inf:
        raise ValidationError(_WIDE_RANGE)
    return nu, tol


def _allowed_shortfall(scale: float, condition: float) -> float:
    """max(EIGENVALUE_CLAMP_TOL, the error of an eigvals spectrum).

    scale is max|V|, condition |x|^2 / |x^H i Omega x| for the eigenvector
    x of the smallest symplectic eigenvalue.
    """
    return max(EIGENVALUE_CLAMP_TOL,
               _SPECTRUM_ULPS * np.finfo(float).eps * scale * condition)


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

    nu: np.ndarray   # (2, n): nu_+ and nu_-
    gap: np.ndarray  # nu_+^2 - nu_-^2
    k: np.ndarray    # (4, n): PX - nu_-^2, entries 11, 12, 21, 22
    errors: list     # None, or why the covariance is not a physical state
    tol: np.ndarray  # the shortfall below 1 that nu_- was allowed


# Standard-form positions in a flattened 4x4 covariance: the six entries
# standard_form_spectrum takes, the x-p correlations such a covariance
# lacks, and the transposes of its two cross entries.
_ENTRY_FLAT = (0, 5, 10, 15, 2, 7)
_XP_FLAT = (1, 3, 4, 6, 9, 11, 12, 14)


def _standard_entries(cov: np.ndarray) -> tuple | None:
    """(x1x1, p1p1, x2x2, p2p2, x1x2, p1p2) of a two-mode covariance in
    standard form, exactly symmetric and without x-p correlations; else None."""
    v = cov.ravel().tolist()
    if (len(v) != 16 or any(v[i] for i in _XP_FLAT)
            or v[2] != v[8] or v[7] != v[13]):
        return None
    return tuple(v[i] for i in _ENTRY_FLAT)


def _sqrt(x):
    """math.sqrt of a float, np.sqrt of an array or np.longdouble; both round correctly."""
    return math.sqrt(x) if isinstance(x, (float, int)) else np.sqrt(x)


def _where(cond, a, b):
    """np.where on arrays, a conditional expression on floats."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


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

    A covariance that GaussianState would reject gets its reason in errors,
    with the same bound: the smallest eigenvalue may fall short of 1 by
    max(EIGENVALUE_CLAMP_TOL, the error of an eigvals spectrum), which is
    tol. With u the eigenvector of PX for nu_-^2, the eigenvector of
    i Omega V is (u, -i X u / nu_-), which gives that error in closed form.
    A column flagged on the common path (not finite, not positive definite,
    det X det P overflowing, or nu_- below 1 - EIGENVALUE_CLAMP_TOL) takes
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
                    & (nu[1] >= 1.0 - EIGENVALUE_CLAMP_TOL) & np.isfinite(det_x * det_p))
            errors, tol = [None] * nu.shape[1], np.full(nu.shape[1], EIGENVALUE_CLAMP_TOL)
            for i in np.flatnonzero(bad):
                nu[:, i], gap[i], k[:, i], (errors[i],), tol[i] = standard_form_spectrum(
                    tuple(entries[:, i]))
        return StandardSpectrum(nu, gap, k, errors, tol)
    det_x, det_p = ax * bx - cx * cx, ap * bp - cp * cp
    error = _definiteness(entries, det_x, det_p)
    if not error:
        nu, gap, k = _spectrum(entries, det_x, det_p)
        if _range_error(nu):
            nu, gap, k = _centred_spectrum(entries)
            error = _range_error(nu)
    if error:
        return StandardSpectrum((math.nan,) * 2, math.nan, (math.nan,) * 4,
                                [error], math.nan)
    error, tol = _shortfall(entries, nu, k)
    return StandardSpectrum(nu, gap, k, [error], tol)


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
    if 0.0 < nu[1] and nu[0] < math.inf:
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
    """_require_physical for one positive-definite standard-form covariance.

    nu is (nu_+, nu_-). Returns why the covariance is not physical (or
    None) and the shortfall allowed for nu_-. A product state (x1x2 = p1p2 =
    0) holds each mode to GaussianState(1, ...)'s bound for it, from its own
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
    """Symplectic spectrum of a symmetric positive-definite matrix, descending.

    The n values are the moduli of the (pairwise degenerate) eigenvalues of
    i Omega cov; each is >= 1 for a physical covariance.
    """
    cov = _check_covariance(cov)
    n = cov.shape[0] // 2
    ev = np.linalg.eigvals(1j * symplectic_form(n) @ cov)
    nus = np.sort(np.abs(ev))[::2]
    return np.sort(nus)[::-1]


@dataclass
class GaussianState:
    """Gaussian state: quadrature mean vector and covariance over n modes.

    Construction validates the state and keeps the symplectic spectrum of
    the covariance it was given (descending) as ``spectrum``. A two-mode
    covariance in standard form (no x-p correlations, as _standard_entries
    decides: every probe and hypothesis state the package builds) takes the
    closed form of standard_form_spectrum, with no LAPACK call; any other
    covariance takes the Cholesky and eigvals of symplectic_eigenvalues.
    Either way the smallest symplectic eigenvalue may fall below 1 by
    max(1e-9, the error of an eigvals spectrum). That error follows
    the conditioning of the eigenvalue, not |V| alone, so a state whose
    small entries sit below the rounding of its large ones passes:
    diag(2e8, 1e-9) (nu = 0.45) is within eps * 2e8 = 4.4e-8 of the pure
    diag(2e8, 5e-9), and its float64 entries cannot tell the two apart.
    A product state holds each mode to the bound it would have alone.
    ``spectrum_tol`` is the shortfall below 1 that the smallest eigenvalue
    was allowed.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    spectrum_tol: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValidationError(f"n_modes must be >= 1, got {self.n_modes}")
        self.mean = np.asarray(self.mean, dtype=float)
        if self.mean.shape != (2 * self.n_modes,):
            raise ValidationError(
                f"mean must have length {2 * self.n_modes}, got shape {self.mean.shape}"
            )
        _require_finite_mean(self.mean)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise ValidationError(
                f"cov must be {2 * self.n_modes} x {2 * self.n_modes}, got {self.cov.shape}"
            )
        entries = _standard_entries(self.cov) if self.n_modes == 2 else None
        if entries is None:
            # symplectic_eigenvalues runs the symmetry and positivity checks.
            self.spectrum = symplectic_eigenvalues(self.cov)
            self.spectrum_tol = _require_physical(self.cov, self.spectrum.min())
            return
        spec = standard_form_spectrum(entries)
        if spec.errors[0]:
            raise ValidationError(spec.errors[0])
        # Where nu_+ and nu_- are both ~1 (a pure probe), the closed form may
        # round nu_+ an ulp below nu_-.
        self.spectrum = np.array(sorted(spec.nu, reverse=True))
        self.spectrum_tol = spec.tol

