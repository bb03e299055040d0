"""Gaussian states in the quadrature picture: validation and the symplectic spectrum.

Convention (single source of truth for the whole package):
    x = a + a†,  p = -i(a - a†),  ordering (x1, p1, x2, p2, ...).
The vacuum covariance is the identity and a thermal state with mean photon
number N has covariance (2N+1) I_2.
"""

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
# one): |E| times the condition number of nu_k. That is ~eps max|V|^2 for a strongly squeezed
# mode (tmsv_state(1e4) reads 1 - 3.7e-8) and ~eps max|V| for one that is
# not (diag(2e8, 2e8, 0.9, 0.9) is rejected). On ~9000 sampled pure and
# nearly pure states (closed-form TMSV and ASTM probes with n0 up to 3e4 and
# squeezers up to 1e6 photons, the same through random beam splitters and
# phases, S diag(nu) S^T for random one- and two-mode symplectic S) whose
# shortfall exceeded 1e-10, it stayed below 1.4 times that bound.
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


def _require_physical(cov: np.ndarray, nu_min: float) -> float:
    """Raise unless cov is physical to within the error of its spectrum.

    nu_min is the computed smallest symplectic eigenvalue. Below the
    EIGENVALUE_CLAMP_TOL floor, the eigenvector x of that eigenvalue gives
    nu = x^H V x / |x^H i Omega x|, an upper bound on the exact smallest
    eigenvalue (Courant-Fischer for the pencil V - nu i Omega) that is
    accurate to second order in x, and the bound above gives its error.
    Returns the shortfall below 1 that it allowed.
    """
    if nu_min >= 1.0 - EIGENVALUE_CLAMP_TOL:
        return EIGENVALUE_CLAMP_TOL
    i_omega = 1j * symplectic_form(cov.shape[0] // 2)
    ev, vecs = np.linalg.eig(i_omega @ cov)
    x = vecs[:, np.argmin(np.abs(ev))]
    norm = abs(np.vdot(x, i_omega @ x))
    nu = np.vdot(x, cov @ x).real / norm
    tol = _allowed_shortfall(np.abs(cov).max(), np.vdot(x, x).real / norm)
    if nu < 1.0 - tol:
        raise ValidationError(_unphysical(nu))
    return tol


def _allowed_shortfall(scale: float, condition: float) -> float:
    """max(EIGENVALUE_CLAMP_TOL, the error of an eigvals spectrum).

    scale is max|V|, condition |x|^2 / |x^H i Omega x| for the eigenvector
    x of the smallest symplectic eigenvalue.
    """
    return max(EIGENVALUE_CLAMP_TOL,
               _SPECTRUM_ULPS * np.finfo(float).eps * scale * condition)


def _unphysical(nu: float) -> str:
    return ("covariance violates the physical-state condition: "
            f"smallest symplectic eigenvalue {nu}")


class StandardSpectrum(NamedTuple):
    """Closed-form spectra of a batch of standard-form two-mode covariances.

    Each array has one entry (or column) per covariance. With X and P the
    2x2 x and p blocks, nu_+-^2 are the eigenvalues of PX.
    """

    nu: np.ndarray   # (2, n): nu_+ and nu_-
    gap: np.ndarray  # nu_+^2 - nu_-^2
    k: np.ndarray    # (4, n): PX - nu_-^2, entries 11, 12, 21, 22
    errors: list     # None, or why the covariance is not a physical state


def standard_form_spectrum(entries: np.ndarray) -> StandardSpectrum:
    """Symplectic spectra and validation of standard-form covariances.

    entries is (6, n): (x1x1, p1p1, x2x2, p2p2, x1x2, p1p2) of n covariances
    with no x-p correlations (Duan, Giedke, Cirac & Zoller, PRL 84, 2722
    (2000)), in any float dtype. Then X = [[x1x1, x1x2], [x1x2, x2x2]],
    P likewise, and nu_+-^2 are the eigenvalues of PX:

        nu_+^2 = (tr PX + g) / 2,   nu_-^2 = det X det P / nu_+^2,
        g = sqrt(x^2 + 4 (PX)_12 (PX)_21),   x = (PX)_11 - (PX)_22,

    which cancels neither for nu_- << nu_+ nor for a diagonal X and P. The
    diagonal of PX - nu_-^2 is (g + x)/2 and (g - x)/2, whose product is
    (PX)_12 (PX)_21, so the smaller one comes without cancellation too.

    A covariance that GaussianState would reject gets its reason in errors,
    with the same bound: the smallest eigenvalue may fall short of 1 by
    max(EIGENVALUE_CLAMP_TOL, the error of an eigvals spectrum). With u the
    eigenvector of PX for nu_-^2, the eigenvector of i Omega V is
    (u, -i X u / nu_-), which gives that error in closed form.
    """
    ax, ap, bx, bp, cx, cp = entries
    with np.errstate(all="ignore"):
        k12, k21 = ap * cx + cp * bx, cp * ax + bp * cx
        x = ap * ax - bp * bx
        u = k12 * k21
        gap = np.sqrt(np.maximum(x * x + 4.0 * u, 0.0))
        big = 0.5 * (gap + np.abs(x))
        small = np.where(big > 0.0, u / big, 0.0)
        first = x >= 0.0
        k = np.array([np.where(first, big, small), k12, k21,
                      np.where(first, small, big)])
        det_x, det_p = ax * bx - cx * cx, ap * bp - cp * cp
        hi2 = 0.5 * (ap * ax + bp * bx + 2.0 * cp * cx + gap)
        nu = np.sqrt([hi2, det_x * det_p / hi2])
    errors = [None] * nu.shape[1]
    bad = ~(np.isfinite(entries).all(axis=0) & (ax > 0.0) & (ap > 0.0)
            & (det_x > 0.0) & (det_p > 0.0) & (nu[1] >= 1.0 - EIGENVALUE_CLAMP_TOL))
    for i in np.flatnonzero(bad):
        if not np.isfinite(entries[:, i]).all():
            errors[i] = "covariance has a non-finite entry"
        elif not (ax[i] > 0.0 and ap[i] > 0.0 and det_x[i] > 0.0 and det_p[i] > 0.0):
            errors[i] = "covariance matrix is not positive definite"
        else:
            errors[i] = _standard_shortfall(entries[:, i], nu[1, i], k[:, i])
    return StandardSpectrum(nu, gap, k, errors)


def _standard_shortfall(entry, nu_lo, k) -> str | None:
    """_require_physical for one standard-form covariance, in closed form."""
    ax, _, bx, _, cx, _ = (float(v) for v in entry)
    # (PX - nu_-^2) u = 0: the larger of the two vectors its rows give.
    rows = np.array([[k[1], -k[0]], [k[3], -k[2]]], dtype=float)
    u = rows[np.argmax(np.abs(rows).sum(axis=1))]
    if not np.any(u):
        u = np.array([1.0, 0.0])
    x_u = np.array([ax * u[0] + cx * u[1], cx * u[0] + bx * u[1]])
    nu = float(nu_lo)
    # |x|^2 / |x^H i Omega x| with x = (u, -i X u / nu)
    condition = (u @ u + x_u @ x_u / nu**2) * nu / (2.0 * (u @ x_u))
    if nu < 1.0 - _allowed_shortfall(float(np.abs(entry).max()), condition):
        return _unphysical(nu)
    return None


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
    the covariance it was given (descending) as ``spectrum``. The smallest
    symplectic eigenvalue may fall below 1 by max(1e-9, the error of the
    computed spectrum); williamson applies the same test. That error follows
    the conditioning of the eigenvalue, not |V| alone, so a state whose
    small entries sit below the rounding of its large ones passes:
    diag(2e8, 1e-9) (nu = 0.45) is within eps * 2e8 = 4.4e-8 of the pure
    diag(2e8, 5e-9), and its float64 entries cannot tell the two apart.
    ``spectrum_tol`` is the shortfall below 1 that the state was allowed.
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
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise ValidationError(
                f"cov must be {2 * self.n_modes} x {2 * self.n_modes}, got {self.cov.shape}"
            )
        # symplectic_eigenvalues runs the symmetry and positivity checks.
        self.spectrum = symplectic_eigenvalues(self.cov)
        self.spectrum_tol = _require_physical(self.cov, self.spectrum.min())

