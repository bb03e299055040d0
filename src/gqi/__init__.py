"""Gaussian quantum illumination with asymmetrically squeezed two-mode probes."""

from .symplectic import (
    GaussianState,
    SymplecticMatrix,
    ValidationError,
    WilliamsonDecomposition,
    apply_symplectic,
    photons_from_squeezing,
    single_mode_squeezer,
    squeezing_from_photons,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)
from .probes import (
    HypothesisPair,
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    astm_state,
    coherent_state,
    cross_correlation,
    make_hypotheses,
    mean_photon,
    probe_state,
    tmsv_state,
)
from .chernoff import (
    DiscriminationResult,
    chernoff_infimum,
    discriminate,
    g_func,
    lambda_func,
    log_error_prob,
    log_p_from_snr,
    q_s,
    snr,
    snr_from_log_p,
    v_of_p,
)
from .fock import fock_hypotheses, fock_oracle_q_s, q_s_from_density_matrices
from .discord import (
    BlockDeterminants,
    DiscordResult,
    block_determinants,
    entropy_f,
    gaussian_discord,
    remained_discord,
)
from .sweeps import (
    LOW_NOISE,
    MICROWAVE,
    SweepRow,
    SweepTable,
    advantage_threshold,
    read_table,
    reproduce_figure,
    run_scenario,
    slope_fit,
    solve_n1_for_signal_energy,
    sweep,
    write_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
