"""Probe states (TMSV / ASTM / coherent) and the target-detection channel.

The channel mixes the signal mode with a thermal source of mean photon
number N_B / (1 - kappa) on a beam splitter of reflectivity kappa, so the
receiver sees noise energy N_B regardless of kappa.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .symplectic import GaussianState, ValidationError, _sqrt


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
    n1, n2: photon numbers of the extra squeezers on signal / idler mode
    (ASTM only: a TMSV probe has none, and rejects n1 or n2 != 0).
    ns: |alpha|^2 of the coherent probe (COHERENT only).
    """

    kind: ProbeKind = ProbeKind.TMSV
    n0: float = 0.0
    n1: float = 0.0
    n2: float = 0.0
    ns: float = 0.0

    def __post_init__(self):
        try:
            self.kind = ProbeKind(self.kind)
        except ValueError:
            raise ValidationError(
                f"probe kind must be one of {[k.value for k in ProbeKind]}, "
                f"got {self.kind!r}") from None
        for name in ("n0", "n1", "n2", "ns"):
            value = getattr(self, name)
            _check_finite(name, value)
            if value < 0:
                raise ValidationError(
                    f"probe parameter {name} must be >= 0, got {value}"
                )
        if self.kind is ProbeKind.TMSV and (self.n1 or self.n2):
            raise ValidationError("a tmsv probe has no squeezers n1, n2: use kind astm")

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


def _two_mode_cov(ax: float, ap: float, bx: float, bp: float,
                  cx: float, cp: float) -> np.ndarray:
    """Standard-form covariance: modes diag(ax, ap) and diag(bx, bp), cross diag(cx, cp)."""
    return np.array([[ax, 0.0, cx, 0.0],
                     [0.0, ap, 0.0, cp],
                     [cx, 0.0, bx, 0.0],
                     [0.0, cp, 0.0, bp]])


def _squeezer_gains(n_mean):
    """(gamma_-, gamma_+) = sqrt(N+1) -+ sqrt(N) of a squeezer with N photons.

    gamma_- is taken as 1 / gamma_+: the difference cancels, and its
    relative error grows like 4N eps.
    """
    root_plus, root = _sqrt(n_mean + 1.0), _sqrt(n_mean)
    gain = root_plus + root
    return 1.0 / gain, gain


def _probe_entries(n0, n1, n2) -> tuple:
    """Nonzero covariance entries of a TMSV/ASTM probe, as _two_mode_cov takes them.

    Takes floats or equal-shaped arrays, and returns the same. The squeezers
    (diagonal symplectic maps) scale rows and then columns of the TMSV
    covariance by m = (gamma_-, gamma_+) on their mode, cov -> (cov m_i) m_j,
    which is what S cov S^T does with a diagonal S, rounding included.
    """
    a = 2.0 * n0 + 1.0
    c = 2.0 * _sqrt(n0 * (n0 + 1.0))
    s_minus, s_plus = _squeezer_gains(n1)
    i_minus, i_plus = _squeezer_gains(n2)
    return ((a * s_minus) * s_minus, (a * s_plus) * s_plus,
            (a * i_minus) * i_minus, (a * i_plus) * i_plus,
            (c * s_minus) * i_minus, (-c * s_plus) * i_plus)


def _return_entries(entries: tuple, kappa, nb) -> tuple:
    """rho_A's entries: the probe's signal mode after the channel, with its idler.

    The channel scales the signal rows and columns by k = sqrt(kappa),
    (v k_i) k_j, and adds the transmitted noise to the signal diagonal.
    Floats or arrays, like _probe_entries.
    """
    ax, ap, bx, bp, cx, cp = entries
    k = _sqrt(kappa)
    noise = 2.0 * nb + (1.0 - kappa)
    return ((ax * k) * k + noise, (ap * k) * k + noise, bx, bp, cx * k, cp * k)


def _absent_entries(entries: tuple, nb) -> tuple:
    """rho_B's entries: thermal noise N_B on the return mode, the idler untouched."""
    thermal = 2.0 * nb + 1.0
    zero = np.zeros_like(thermal)
    return (thermal, thermal, entries[2], entries[3], zero, zero)


def tmsv_state(n0: float) -> GaussianState:
    """Two-mode squeezed vacuum with per-mode photon number n0."""
    return astm_state(ProbeSpec(n0=n0))


def astm_state(spec: ProbeSpec) -> GaussianState:
    """Asymmetrically squeezed two-mode state: independent squeezers on TMSV."""
    if spec.kind is ProbeKind.COHERENT:
        raise ValidationError("astm_state requires a TMSV or ASTM probe")
    return GaussianState(2, np.zeros(4),
                         _two_mode_cov(*_probe_entries(spec.n0, spec.n1, spec.n2)))


def coherent_state(ns: float) -> GaussianState:
    """Coherent probe with |alpha|^2 = ns; phase fixed to 0."""
    _check_finite("ns", ns)
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

    entries = _probe_entries(probe.n0, probe.n1, probe.n2)
    v_a = _two_mode_cov(*_return_entries(entries, kappa, nb))
    v_b = _two_mode_cov(*_absent_entries(entries, nb))
    return HypothesisPair(GaussianState(2, np.zeros(4), v_a),
                          GaussianState(2, np.zeros(4), v_b))
