"""Truncated-Fock brute-force oracle for Q_s.

Independent of the covariance-matrix route: the probe is built from the
number-basis TMSV amplitudes, squeezers and the target beam splitter are
truncated matrix exponentials of their generators, and the thermal source
enters as a Fock-diagonal mixture. Intended for small photon numbers where
a modest cutoff captures the populations.
"""

import numpy as np
from scipy.linalg import expm

from .probes import ProbeKind, ProbeSpec, TargetScenario
from .reference import squeezing_from_photons
from .symplectic import ValidationError

TRACE_DEFICIT_TOL = 1e-8
_THERMAL_TAIL = 1e-14


def annihilation(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def squeezer_matrix(r: float, cutoff: int) -> np.ndarray:
    """exp[(r/2)(a^2 - a†^2)] truncated to the first `cutoff` Fock levels."""
    a = annihilation(cutoff)
    return expm(0.5 * r * (a @ a - a.T @ a.T))


def beam_splitter_matrix(kappa: float, cutoff: int) -> np.ndarray:
    """Two-mode mixer with output port sqrt(kappa) a_sig + sqrt(1-kappa) a_env."""
    a = annihilation(cutoff)
    theta = np.arccos(np.sqrt(kappa))
    gen = np.kron(a.T, a) - np.kron(a, a.T)
    return expm(theta * gen)


def _thermal_populations(n_mean: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff)
    return n_mean**n / (n_mean + 1.0) ** (n + 1)


def _tmsv_amplitudes(n0: float, cutoff: int) -> np.ndarray:
    # psi[signal, idler] with nonzero entries on the diagonal only
    n = np.arange(cutoff)
    return np.diag(np.sqrt(n0**n / (n0 + 1.0) ** (n + 1)))


def fock_hypotheses(probe: ProbeSpec, scenario: TargetScenario,
                    cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense truncated density matrices (rho_a, rho_b) for both hypotheses."""
    kappa, nb = scenario.kappa, scenario.nb
    n_source = nb / (1.0 - kappa)
    bs = beam_splitter_matrix(kappa, cutoff).reshape(cutoff, cutoff, cutoff, cutoff)
    source = _thermal_populations(n_source, cutoff)

    if probe.kind is ProbeKind.COHERENT:
        k = np.arange(cutoff)
        log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, cutoff)))))
        psi = np.exp(-probe.ns / 2.0 + 0.5 * k * np.log(probe.ns) - 0.5 * log_fact) \
            if probe.ns > 0 else np.eye(cutoff)[0]
        rho_a = np.zeros((cutoff, cutoff))
        for n, p in enumerate(source):
            if p < _THERMAL_TAIL and n > 4:
                break
            out = np.einsum("sexy,x,y->se", bs, psi, np.eye(cutoff)[n])
            rho_a += p * (out @ out.T)
        rho_b = np.diag(_thermal_populations(nb, cutoff))
        _check_trace(rho_a, rho_b, cutoff)
        return rho_a, rho_b

    psi = _tmsv_amplitudes(probe.n0, cutoff)
    psi = squeezer_matrix(squeezing_from_photons(probe.n1), cutoff) @ psi
    psi = psi @ squeezer_matrix(squeezing_from_photons(probe.n2), cutoff).T

    dim = cutoff * cutoff
    rho_a = np.zeros((dim, dim))
    for n, p in enumerate(source):
        if p < _THERMAL_TAIL and n > 4:
            break
        # out[s, i, e]: beam splitter couples the signal leg to the source
        out = np.einsum("sexy,xi,y->sie", bs, psi, np.eye(cutoff)[n])
        flat = out.reshape(dim, cutoff)
        rho_a += p * (flat @ flat.T)

    rho_idler = psi.T @ psi
    rho_b = np.einsum(
        "ab,cd->acbd", np.diag(_thermal_populations(nb, cutoff)), rho_idler
    ).reshape(dim, dim)
    _check_trace(rho_a, rho_b, cutoff)
    return rho_a, rho_b


def _check_trace(rho_a: np.ndarray, rho_b: np.ndarray, cutoff: int) -> None:
    deficit = max(abs(1.0 - np.trace(rho_a)), abs(1.0 - np.trace(rho_b)))
    if deficit > TRACE_DEFICIT_TOL:
        raise ValidationError(
            f"Fock cutoff {cutoff} too small: trace deficit {deficit:g}"
        )


def q_s_from_density_matrices(rho_a: np.ndarray, rho_b: np.ndarray,
                              s: float) -> float:
    """Tr(rho_a^s rho_b^{1-s}) by eigendecomposition of both operators."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"s must lie in [0, 1], got {s}")
    vals_a, vecs_a = np.linalg.eigh(rho_a)
    vals_b, vecs_b = np.linalg.eigh(rho_b)
    vals_a = np.clip(vals_a, 0.0, None)
    vals_b = np.clip(vals_b, 0.0, None)
    overlap = vecs_a.T @ vecs_b
    return float(vals_a**s @ (overlap**2) @ vals_b ** (1.0 - s))


def fock_oracle_q_s(probe: ProbeSpec, scenario: TargetScenario, s: float,
                    cutoff: int = 30) -> float:
    """Brute-force Q_s; refuses when the cutoff visibly truncates the states."""
    rho_a, rho_b = fock_hypotheses(probe, scenario, cutoff)
    return q_s_from_density_matrices(rho_a, rho_b, s)
