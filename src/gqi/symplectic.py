"""Gaussian states in the quadrature picture: validation and the symplectic spectrum.

Convention (single source of truth for the whole package):
    x = a + a†,  p = -i(a - a†),  ordering (x1, p1, x2, p2, ...).
The vacuum covariance is the identity and a thermal state with mean photon
number N has covariance (2N+1) I_2.
"""

from dataclasses import dataclass, field
from functools import lru_cache

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
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
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


def _require_physical(cov: np.ndarray, nu_min: float) -> None:
    """Raise unless cov is physical to within the error of its spectrum.

    nu_min is the computed smallest symplectic eigenvalue. Below the
    EIGENVALUE_CLAMP_TOL floor, the eigenvector x of that eigenvalue gives
    nu = x^H V x / |x^H i Omega x|, an upper bound on the exact smallest
    eigenvalue (Courant-Fischer for the pencil V - nu i Omega) that is
    accurate to second order in x, and the bound above gives its error.
    """
    if nu_min >= 1.0 - EIGENVALUE_CLAMP_TOL:
        return
    i_omega = 1j * symplectic_form(cov.shape[0] // 2)
    ev, vecs = np.linalg.eig(i_omega @ cov)
    x = vecs[:, np.argmin(np.abs(ev))]
    norm = abs(np.vdot(x, i_omega @ x))
    nu = np.vdot(x, cov @ x).real / norm
    rounding = (_SPECTRUM_ULPS * np.finfo(float).eps * np.abs(cov).max()
                * np.vdot(x, x).real / norm)
    if nu < 1.0 - max(EIGENVALUE_CLAMP_TOL, rounding):
        raise ValidationError(
            f"covariance violates the physical-state condition: "
            f"smallest symplectic eigenvalue {nu}"
        )


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
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

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
        _require_physical(self.cov, self.spectrum.min())

