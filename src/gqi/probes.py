"""Probe states (TMSV / ASTM / coherent) and the target-detection channel.

The channel mixes the signal mode with a thermal source of mean photon
number N_B / (1 - kappa) on a beam splitter of reflectivity kappa, so the
receiver sees noise energy N_B regardless of kappa.
"""

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .symplectic import GaussianState, ValidationError, _sqrt


class ProbeKind(str, Enum):
    TMSV = "tmsv"
    ASTM = "astm"
    COHERENT = "coherent"


# The probe fields, what each is, and the ones each kind reads. ProbeSpec
# raises on a nonzero field its kind does not read, naming what the field is
# and the kinds that read it; a sweep over it reports each nonzero value.
_FIELDS = {"n0": "TMSV photons n0", "n1": "squeezers n1, n2",
           "n2": "squeezers n1, n2", "ns": "coherent photons ns"}
_READS = {ProbeKind.TMSV: ("n0",), ProbeKind.ASTM: ("n0", "n1", "n2"),
          ProbeKind.COHERENT: ("ns",)}
_KINDS = {k.value: k for k in ProbeKind}

# The values lo <= v < hi that each parameter admits, and the rule's text.
# The classes, and each function that takes M alone, admit a value by it
# (_admit); a sweep checks a grid against it.
_ADMITTED = {**{n: (0.0, math.inf, f"probe parameter {n} must be >= 0") for n in _FIELDS},
             "kappa": (0.0, 1.0, "kappa must lie in [0, 1)"),
             "nb": (0.0, math.inf, "nb must be >= 0"),
             # M > 0: the least float above 0 is the least M admitted.
             "ensembles": (math.ulp(0.0), math.inf, "ensembles must be > 0")}


def _real(name: str, value) -> float:
    """value as a Python float, if it is a real number (numbers.Real); else
    ValidationError. An int beyond float range is +-inf."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond float range
        return math.inf if value > 0 else -math.inf


def _admit(name: str, value) -> float:
    """value as a Python float, if it is a real number the named parameter
    admits; else ValidationError. An admitted float passes with one comparison."""
    if value.__class__ is not float:
        value = _real(name, value)
    lo, hi, rule = _ADMITTED[name]
    if lo <= value < hi:
        return value
    raise ValidationError(f"{rule}, got {value}" if math.isfinite(value)
                          else f"{name} must be finite, got {value}")


def _unread(kind: ProbeKind, name: str) -> ValidationError:
    """The error of a nonzero field the kind does not read, naming what the
    field is and the kinds that read it."""
    readers = " or ".join(k.value for k in ProbeKind if name in _READS[k])
    return ValidationError(f"{'an' if kind == 'astm' else 'a'} {kind.value} probe "
                           f"has no {_FIELDS[name]}: use kind {readers}")


def _energy(n0, n):
    """Photons in one mode of a TMSV of n0 per mode squeezed by n: N0 + 2 N0 N + N."""
    return n0 + 2.0 * n0 * n + n


# ProbeSpec, TargetScenario and HypothesisPair are checked once and frozen,
# and the numbers of the first two are Python floats, so nothing inward
# checks them again.
# Both write their __init__, since a frozen dataclass's would double their
# cost; TargetScenario's three checks are written out, since a loop adds half.
@dataclass(frozen=True, init=False)
class ProbeSpec:
    """Declarative probe description by photon-number parameters.

    n0: per-mode photons of the initial two-mode squeezed vacuum (TMSV, ASTM).
    n1, n2: photon numbers of the extra squeezers on signal / idler mode (ASTM).
    ns: |alpha|^2 of the coherent probe (COHERENT).
    Each kind reads only its own fields (_READS) and rejects any other that is
    not 0: a TMSV probe with n1 = 1 is an ASTM probe under the wrong label.
    """

    kind: ProbeKind
    n0: float
    n1: float
    n2: float
    ns: float

    def __init__(self, kind=ProbeKind.TMSV, n0=0.0, n1=0.0, n2=0.0, ns=0.0):
        if kind.__class__ is not ProbeKind:
            if not isinstance(kind, str) or kind not in _KINDS:
                raise ValidationError(f"probe kind must be one of {list(_KINDS)}, got {kind!r}")
            kind = _KINDS[kind]
        fields = self.__dict__
        fields["kind"] = kind
        for name, value in zip(_FIELDS, (n0, n1, n2, ns)):
            fields[name] = value = _admit(name, value)
            if value and name not in _READS[kind]:
                raise _unread(kind, name)

    @property
    def signal_energy(self) -> float:
        """Mean photon number sent towards the target."""
        if self.kind is ProbeKind.COHERENT:
            return self.ns
        return _energy(self.n0, self.n1)

    @property
    def idler_energy(self) -> float:
        if self.kind is ProbeKind.COHERENT:
            raise ValidationError("coherent probe has no idler mode")
        return _energy(self.n0, self.n2)


def _carrier(kind: ProbeKind, ns, n0=0.0) -> tuple:
    """The field that carries signal energy ns in a probe of this kind, and
    the value that gives it there, signal_energy inverted: n0 = N_S for a
    TMSV, n1 from N_S = N0 + 2 N0 N1 + N1 at n0 for an ASTM probe, and
    ns = |alpha|^2 for a coherent one. ns may be an array."""
    if kind is ProbeKind.ASTM:
        return "n1", (ns - n0) / (2.0 * n0 + 1.0)
    return ("n0" if kind is ProbeKind.TMSV else "ns"), ns


@dataclass(frozen=True, init=False)
class TargetScenario:
    """Target reflectivity, receiver noise energy, and copy count."""

    kappa: float
    nb: float
    ensembles: float

    def __init__(self, kappa, nb, ensembles=1.0):
        fields = self.__dict__
        fields["kappa"] = _admit("kappa", kappa)
        fields["nb"] = _admit("nb", nb)
        fields["ensembles"] = _admit("ensembles", ensembles)


@dataclass(frozen=True)
class HypothesisPair:
    """Target-present (rho_a) and target-absent (rho_b) states."""

    rho_a: GaussianState
    rho_b: GaussianState

    def __post_init__(self):
        a, b = self.rho_a, self.rho_b
        if not (isinstance(a, GaussianState) and isinstance(b, GaussianState)
                and a.n_modes == b.n_modes):
            raise ValidationError("a hypothesis pair is two GaussianStates of one mode count")

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
    zero = np.zeros_like(thermal) if isinstance(thermal, np.ndarray) else 0.0
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
    return probe_state(ProbeSpec(kind=ProbeKind.COHERENT, ns=ns))


def probe_state(spec: ProbeSpec) -> GaussianState:
    if spec.kind is ProbeKind.COHERENT:
        return GaussianState(1, np.array([2.0 * np.sqrt(spec.ns), 0.0]), np.eye(2))
    return astm_state(spec)


def mean_photon(state: GaussianState, mode: int) -> float:
    """Mean photon number of one mode: (V_xx + V_pp - 2)/4 + |d|^2/4."""
    if not isinstance(mode, numbers.Integral):
        raise ValidationError(f"mode must be an integer, got {mode!r}")
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
        rho_b = GaussianState(1, np.zeros(2), cov)
        return HypothesisPair(rho_a, rho_b)

    entries = _probe_entries(probe.n0, probe.n1, probe.n2)
    v_a = _two_mode_cov(*_return_entries(entries, kappa, nb))
    v_b = _two_mode_cov(*_absent_entries(entries, nb))
    return HypothesisPair(GaussianState(2, np.zeros(4), v_a),
                          GaussianState(2, np.zeros(4), v_b))
