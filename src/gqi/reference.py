"""Reference toolkit: general symplectic algebra and the textbook G_p, Lambda_p.

Oracles for the closed forms of the other modules (e.g. the Williamson form of
Pirandola & Lloyd, PRA 78, 012331 (2008)), none of which imports this one.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import schur, sqrtm

from .chernoff import _em, _log_ratio, _mode_parts, _snap
from .probes import _squeezer_gains
from .symplectic import (EIGENVALUE_CLAMP_TOL, GaussianState, ValidationError,
                         _check_covariance, _require_physical, symplectic_form)

SYMPLECTIC_RESIDUAL_TOL = 1e-10

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
