"""Probe states (TMSV / ASTM / coherent) and the target-detection channel.

The channel mixes the signal mode with a thermal source of mean photon
number N_B / (1 - kappa) on a beam splitter of reflectivity kappa, so the
receiver sees noise energy N_B regardless of kappa.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .symplectic import (
    GaussianState,
    ValidationError,
    apply_symplectic,
    single_mode_squeezer,
)


class ProbeKind(str, Enum):
    TMSV = "tmsv"
    ASTM = "astm"
    COHERENT = "coherent"


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")


@dataclass
class ProbeSpec:
    """Declarative probe description by photon-number parameters.

    n0: per-mode photons of the initial two-mode squeezed vacuum.
    n1, n2: photon numbers of the extra squeezers on signal / idler mode.
    ns: |alpha|^2 of the coherent probe (COHERENT only).
    """

    kind: ProbeKind = ProbeKind.TMSV
    n0: float = 0.0
    n1: float = 0.0
    n2: float = 0.0
    ns: float = 0.0

    def __post_init__(self):
        self.kind = ProbeKind(self.kind)
        for name in ("n0", "n1", "n2", "ns"):
            value = getattr(self, name)
            _check_finite(name, value)
            if value < 0:
                raise ValidationError(
                    f"probe parameter {name} must be >= 0, got {value}"
                )

    @property
    def signal_energy(self) -> float:
        """Mean photon number sent towards the target."""
        if self.kind is ProbeKind.COHERENT:
            return self.ns
        return self.n0 + 2.0 * self.n0 * self.n1 + self.n1

    @property
    def idler_energy(self) -> float:
        if self.kind is ProbeKind.COHERENT:
            raise ValidationError("coherent probe has no idler mode")
        return self.n0 + 2.0 * self.n0 * self.n2 + self.n2


@dataclass
class TargetScenario:
    """Target reflectivity, receiver noise energy, and copy count."""

    kappa: float
    nb: float
    ensembles: float = 1.0

    def __post_init__(self):
        for name in ("kappa", "nb", "ensembles"):
            _check_finite(name, getattr(self, name))
        if not 0.0 <= self.kappa < 1.0:
            raise ValidationError(f"kappa must lie in [0, 1), got {self.kappa}")
        if self.nb < 0:
            raise ValidationError(f"nb must be >= 0, got {self.nb}")
        if self.ensembles <= 0:
            raise ValidationError(f"ensembles must be > 0, got {self.ensembles}")


@dataclass
class HypothesisPair:
    """Target-present (rho_a) and target-absent (rho_b) states."""

    rho_a: GaussianState
    rho_b: GaussianState

    @property
    def n_modes(self) -> int:
        return self.rho_a.n_modes


def tmsv_state(n0: float) -> GaussianState:
    """Two-mode squeezed vacuum with per-mode photon number n0."""
    if n0 < 0:
        raise ValidationError(f"n0 must be >= 0, got {n0}")
    a = 2.0 * n0 + 1.0
    c = 2.0 * np.sqrt(n0 * (n0 + 1.0))
    cov = np.diag([a, a, a, a])
    cov[0, 2] = cov[2, 0] = c
    cov[1, 3] = cov[3, 1] = -c
    return GaussianState(2, np.zeros(4), cov)


def astm_state(spec: ProbeSpec) -> GaussianState:
    """Asymmetrically squeezed two-mode state: independent squeezers on TMSV."""
    if spec.kind is ProbeKind.COHERENT:
        raise ValidationError("astm_state requires a TMSV or ASTM probe")
    state = tmsv_state(spec.n0)
    state = apply_symplectic(state, single_mode_squeezer(spec.n1, 0, 2))
    state = apply_symplectic(state, single_mode_squeezer(spec.n2, 1, 2))
    return state


def coherent_state(ns: float) -> GaussianState:
    """Coherent probe with |alpha|^2 = ns; phase fixed to 0."""
    if ns < 0:
        raise ValidationError(f"ns must be >= 0, got {ns}")
    return GaussianState(1, np.array([2.0 * np.sqrt(ns), 0.0]), np.eye(2))


def probe_state(spec: ProbeSpec) -> GaussianState:
    if spec.kind is ProbeKind.COHERENT:
        return coherent_state(spec.ns)
    return astm_state(spec)


def mean_photon(state: GaussianState, mode: int) -> float:
    """Mean photon number of one mode: (V_xx + V_pp - 2)/4 + |d|^2/4."""
    if not 0 <= mode < state.n_modes:
        raise ValidationError(f"mode {mode} out of range for {state.n_modes} modes")
    i = 2 * mode
    quad = (state.cov[i, i] + state.cov[i + 1, i + 1] - 2.0) / 4.0
    disp = (state.mean[i] ** 2 + state.mean[i + 1] ** 2) / 4.0
    return quad + disp


def cross_correlation(state: GaussianState) -> float:
    """Re<a1 a2> of a two-mode state: (V_x1x2 - V_p1p2)/4."""
    if state.n_modes != 2:
        raise ValidationError(f"cross_correlation needs 2 modes, got {state.n_modes}")
    return (state.cov[0, 2] - state.cov[1, 3]) / 4.0


def make_hypotheses(probe: ProbeSpec, scenario: TargetScenario) -> HypothesisPair:
    """Push a probe through the channel and return the hypothesis pair.

    Two-mode probes: the signal block is attenuated by sqrt(kappa) and the
    transmitted thermal noise adds 2 N_B + (1 - kappa) to its diagonal; the
    target-absent state is thermal(N_B) on the return mode with the idler
    block untouched. Coherent probes give a single-mode displaced/undisplaced
    thermal pair of covariance (2 N_B + 1) I_2.
    """
    kappa, nb = scenario.kappa, scenario.nb
    if probe.kind is ProbeKind.COHERENT:
        cov = (2.0 * nb + 1.0) * np.eye(2)
        rho_a = GaussianState(
            1, np.array([2.0 * np.sqrt(kappa * probe.ns), 0.0]), cov
        )
        rho_b = GaussianState(1, np.zeros(2), cov.copy())
        return HypothesisPair(rho_a, rho_b)

    v_probe = astm_state(probe).cov
    k = np.diag([np.sqrt(kappa), np.sqrt(kappa), 1.0, 1.0])
    v_a = k @ v_probe @ k
    noise = 2.0 * nb + (1.0 - kappa)
    v_a[0, 0] += noise
    v_a[1, 1] += noise

    v_b = np.zeros((4, 4))
    v_b[0, 0] = v_b[1, 1] = 2.0 * nb + 1.0
    v_b[2:, 2:] = v_probe[2:, 2:]

    return HypothesisPair(
        GaussianState(2, np.zeros(4), v_a),
        GaussianState(2, np.zeros(4), v_b),
    )
