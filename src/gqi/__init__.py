"""Gaussian quantum illumination with asymmetrically squeezed two-mode probes."""

from .symplectic import (GaussianState, ValidationError, symplectic_eigenvalues,
                         symplectic_form)
from .probes import (HypothesisPair, ProbeKind, ProbeSpec, TargetScenario,
                     astm_state, coherent_state, cross_correlation,
                     make_hypotheses, mean_photon, probe_state, tmsv_state)
from .chernoff import (DiscriminationResult, chernoff_infimum, discriminate,
                       discriminate_many, log_error_prob, log_p_from_snr, q_s,
                       snr, snr_from_log_p)
from .discord import (BlockDeterminants, DiscordResult, block_determinants,
                      entropy_f, gaussian_discord, remained_discord)
from .sweeps import (LOW_NOISE, MICROWAVE, SweepRow, SweepTable,
                     advantage_threshold, read_table, reproduce_figure,
                     run_scenario, slope_fit, solve_n1_for_signal_energy, sweep,
                     write_table)

__all__ = sorted(n for n in dir() if not n.startswith("_"))
