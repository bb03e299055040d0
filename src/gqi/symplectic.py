"""Dense real linear algebra for Gaussian states in the quadrature picture.

Convention (single source of truth for the whole package):
    x = a + a†,  p = -i(a - a†),  ordering (x1, p1, x2, p2, ...).
The vacuum covariance is the identity and a thermal state with mean photon
number N has covariance (2N+1) I_2.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import schur, sqrtm

SYMPLECTIC_RESIDUAL_TOL = 1e-10
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
    scale = max(np.abs(cov).max(), 1.0)
    if np.abs(cov - cov.T).max() > SYMMETRY_RTOL * scale:
        raise ValidationError("covariance matrix is not symmetric")
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
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance matrix is not positive definite") from None
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
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance matrix is not positive definite") from None

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


def _squeezer_gains(n_mean: float) -> tuple[float, float]:
    """(gamma_-, gamma_+) = sqrt(N+1) -+ sqrt(N)."""
    root_plus, root = math.sqrt(n_mean + 1.0), math.sqrt(n_mean)
    return root_plus - root, root_plus + root


def photons_from_squeezing(r: float) -> float:
    """Mean photon number N = sinh^2 r of a squeezed vacuum."""
    return float(np.sinh(r) ** 2)


def squeezing_from_photons(n_mean: float) -> float:
    """Inverse of photons_from_squeezing: r = arcsinh(sqrt(N))."""
    if n_mean < 0:
        raise ValidationError(f"photon number must be >= 0, got {n_mean}")
    return float(np.arcsinh(np.sqrt(n_mean)))
