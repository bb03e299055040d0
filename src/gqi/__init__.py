"""Gaussian quantum illumination with asymmetrically squeezed two-mode probes.

The reference toolkit (gqi.reference) and the Fock oracle (gqi.fock) are not
imported with gqi; they load on first use of one of their names.
"""

from importlib import import_module as _import_module

from .symplectic import (GaussianState, ValidationError, symplectic_eigenvalues,
                         symplectic_form)
from .probes import (HypothesisPair, ProbeKind, ProbeSpec, TargetScenario,
                     astm_state, coherent_state, cross_correlation,
                     make_hypotheses, mean_photon, probe_state, tmsv_state)
from .chernoff import (DiscriminationResult, chernoff_infimum, discriminate,
                       log_error_prob, log_p_from_snr, q_s, snr, snr_from_log_p)
from .discord import (BlockDeterminants, DiscordResult, block_determinants,
                      entropy_f, gaussian_discord, remained_discord)
from .sweeps import (LOW_NOISE, MICROWAVE, SweepRow, SweepTable,
                     advantage_threshold, read_table, reproduce_figure,
                     run_scenario, slope_fit, solve_n1_for_signal_energy, sweep,
                     write_table)

# Modules loaded on first use, and the names they define.
_LAZY = {
    "reference": ("SymplecticMatrix", "WilliamsonDecomposition",
                  "apply_symplectic", "g_func", "lambda_func",
                  "photons_from_squeezing", "single_mode_squeezer",
                  "squeezing_from_photons", "v_of_p", "williamson"),
    "fock": ("fock_hypotheses", "fock_oracle_q_s", "q_s_from_density_matrices"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([n for n in dir() if not n.startswith("_")] + [*_LAZY, *_HOME])


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
