"""End-to-end acceptance checks for the target-detection pipeline.

Each test evaluates one reference-behavior criterion and prints a single
PASS/FAIL line (bypassing capture) so the full scorecard is visible in any
pytest run, then asserts so failures are counted normally.
"""
import sys

import numpy as np
from scipy.linalg import expm

from gqi import (
    GaussianState,
    HypothesisPair,
    LOW_NOISE,
    MICROWAVE,
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    ValidationError,
    advantage_threshold,
    astm_state,
    chernoff_infimum,
    cross_correlation,
    entropy_f,
    gaussian_discord,
    make_hypotheses,
    mean_photon,
    probe_state,
    q_s,
    slope_fit,
    snr,
    solve_n1_for_signal_energy,
    sweep,
    symplectic_form,
    tmsv_state,
)
from gqi.sweeps import FIT_TO_DEFAULT, _astm_ci_slopes
from oracles import SymplecticMatrix, fock_oracle_q_s, single_mode_squeezer, williamson


SCORECARD: list[str] = []


def report(label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {label}: {detail}"
    SCORECARD.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"{label}: {detail}"


def astm_at_energy(ns: float, n0: float) -> ProbeSpec:
    return ProbeSpec(kind=ProbeKind.ASTM, n0=n0,
                     n1=solve_n1_for_signal_energy(ns, n0))


def snr_ratio_astm_tmsv(ns: float, scenario: TargetScenario,
                        n0: float = 1.0) -> float:
    astm = snr(astm_at_energy(ns, n0), scenario).snr
    tmsv = snr(ProbeSpec(kind=ProbeKind.TMSV, n0=ns), scenario).snr
    return astm / tmsv


def test_snr_vs_signal_squeezing():
    """SNR at N0=1 in the microwave preset for signal squeezer N1 = 0..3."""
    expected = {0: 7.0, 1: 25.0, 2: 43.0, 3: 61.0}
    got = {
        n1: snr(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=float(n1)),
                MICROWAVE).snr
        for n1 in expected
    }
    worst = max(abs(got[k] / expected[k] - 1.0) for k in expected)
    report(
        "SNR vs signal squeezing",
        worst < 0.10,
        "N1=0..3 -> " + ", ".join(f"{got[k]:.3f}" for k in expected)
        + f" (targets 7/25/43/61, worst rel dev {worst:.3f})",
    )


def test_idler_squeezing_invariance():
    """Idler squeezing N2 must not move the SNR at fixed N0, N1."""
    worst = 0.0
    for n1 in (0.0, solve_n1_for_signal_energy(2.0, 1.0)):
        values = np.array([
            snr(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=n1, n2=float(n2)),
                MICROWAVE).snr
            for n2 in (0, 1, 2, 4)
        ])
        worst = max(worst, (values.max() - values.min()) / values.min())
    report(
        "idler-squeezing invariance",
        worst < 1e-6,
        f"max relative SNR variation over N2 in {{0,1,2,4}} = {worst:.3e}",
    )


def test_squeezed_vs_tmsv_ratio_microwave():
    """ASTM/TMSV SNR ratio at matched signal energy, microwave preset."""
    r2 = snr_ratio_astm_tmsv(2.0, MICROWAVE)
    r4 = snr_ratio_astm_tmsv(4.0, MICROWAVE)
    floor = min(
        snr_ratio_astm_tmsv(float(ns), MICROWAVE)
        for ns in np.linspace(1.5, 4.0, 11)
    )
    ok = abs(r2 - 0.938) < 0.01 and abs(r4 - 0.919) < 0.01 and floor > 0.90
    report(
        "ASTM/TMSV ratio (low reflectivity)",
        ok,
        f"ratio(NS=2)={r2:.4f} (target 0.938), ratio(NS=4)={r4:.4f} "
        f"(target 0.919), min over NS in [1.5,4] = {floor:.4f}",
    )


def test_squeezed_vs_tmsv_ratio_higher_reflectivity():
    scenario = TargetScenario(kappa=0.05, nb=MICROWAVE.nb,
                              ensembles=MICROWAVE.ensembles)
    ratio = snr_ratio_astm_tmsv(2.0, scenario)
    report(
        "ASTM/TMSV ratio (kappa=0.05)",
        abs(ratio - 0.934) < 0.01,
        f"ratio(NS=2)={ratio:.4f} (target 0.934)",
    )


def test_advantage_threshold_value():
    """Advantage threshold N0* against the coherent-state Chernoff benchmark.

    The benchmark is the coherent probe with |alpha|^2 = N_S run through the
    same Chernoff pipeline; its error exponent per copy is
    kappa*N_S*(sqrt(NB+1)-sqrt(NB))^2, so its SNR slope is M times that
    factor.  On LOW_NOISE the ASTM slope climbs toward this slope from below
    as N0 grows and never reaches it, so the search on the default bracket
    must report that no crossing exists.  A returned N0 fails the check.

    The paper quotes N0* = 0.15.  At that N0 the ASTM slope is half the
    coherent slope, so the quoted value belongs to a benchmark at half this
    exponent; the ratio is printed to keep that in view.
    """
    try:
        n0_star = advantage_threshold(LOW_NOISE)
        crossing = f"crossing at N0* = {n0_star:.4f}"
    except ValidationError as exc:
        crossing = None if "no slope crossing" in str(exc) else str(exc)

    # The ASTM SNR is close to linear in N_S at fixed N0, so a short fit
    # suffices (8 and 32 points agree to ~1e-4).
    lo, hi = 0.02, 1.0
    slopes = {
        n0: _astm_ci_slopes(n0, LOW_NOISE, None, FIT_TO_DEFAULT, 8)
        for n0 in (lo, 0.15, hi)
    }
    closed_form = LOW_NOISE.ensembles * LOW_NOISE.kappa * (
        np.sqrt(LOW_NOISE.nb + 1.0) - np.sqrt(LOW_NOISE.nb)) ** 2
    ci_dev = max(abs(ci / closed_form - 1.0) for _, ci in slopes.values())
    gap_lo = slopes[lo][0] - slopes[lo][1]
    gap_hi = slopes[hi][0] - slopes[hi][1]
    ratio = slopes[0.15][0] / slopes[0.15][1]

    ok = (
        crossing is None
        and ci_dev < 1e-3
        and gap_lo < 0.0 and gap_hi < 0.0 and abs(gap_hi) < abs(gap_lo)
    )
    report(
        "advantage threshold N0*",
        ok,
        (crossing or f"no crossing against the coherent-state Chernoff "
                     f"benchmark on [{lo:g}, {hi:g}]")
        + f"; gap {gap_lo:.1f} at N0={lo:g}, {gap_hi:.1f} at N0={hi:g}; "
        f"benchmark slope within {ci_dev:.1e} of closed form "
        f"{closed_form:.2f}; slope ratio at the paper's N0* = 0.15 is "
        f"{ratio:.2f}",
    )


def test_slope_ordering_at_small_n0():
    """At N0=0.1 the fitted ASTM slope sits below the benchmark slope."""
    grid = np.linspace(0.1, 4.0, 32)
    table = sweep("ns", grid, ProbeSpec(kind=ProbeKind.ASTM, n0=0.1),
                  LOW_NOISE)
    s_astm = slope_fit(table, kind="astm")
    s_ci = slope_fit(table, kind="coherent")
    report(
        "slope ordering at N0=0.1",
        s_astm < s_ci,
        f"ASTM slope {s_astm:.1f} < benchmark slope {s_ci:.1f}",
    )


def test_advantage_and_discord_trends():
    """Quantum advantage falls monotonically in NS while the surviving
    discord dips and then rises, so the two end-of-grid slopes disagree."""
    grid = np.linspace(0.1, 4.0, 32)
    table = sweep("ns", grid, ProbeSpec(kind=ProbeKind.ASTM, n0=0.1),
                  LOW_NOISE, with_discord=True)
    advantage = table.column("snr", kind="astm") / table.column(
        "snr", kind="coherent")
    discord = table.column("discord", kind="astm")
    adv_diff = np.diff(advantage)
    dis_diff = np.diff(discord)
    ok = (
        bool(np.all(adv_diff < 0.0))
        and np.any(dis_diff < 0.0) and np.any(dis_diff > 0.0)
        and dis_diff[-1] > 0.0 and adv_diff[-1] < 0.0
    )
    report(
        "advantage/discord trends",
        ok,
        f"advantage monotone decreasing: {bool(np.all(adv_diff < 0.0))}, "
        f"discord dips then rises: {bool(np.any(dis_diff < 0.0) and dis_diff[-1] > 0.0)}",
    )


def test_number_basis_oracle_agreement():
    """Gaussian Q_s must match the truncated number-basis computation."""
    scenario = TargetScenario(kappa=0.3, nb=0.4, ensembles=1.0)
    worst = 0.0
    for n0 in (0.05, 0.1):
        for n1 in (0.0, 0.5):
            probe = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1)
            pair = make_hypotheses(probe, scenario)
            for s in (0.3, 0.5, 0.7):
                gap = abs(q_s(pair, s) - fock_oracle_q_s(probe, scenario, s))
                worst = max(worst, gap)
    coherent = ProbeSpec(kind=ProbeKind.COHERENT, ns=0.1)
    pair = make_hypotheses(coherent, scenario)
    for s in (0.3, 0.5, 0.7):
        gap = abs(q_s(pair, s) - fock_oracle_q_s(coherent, scenario, s))
        worst = max(worst, gap)
    report(
        "number-basis oracle agreement",
        worst < 1e-4,
        f"max |Q_s - oracle| = {worst:.3e} over the small-parameter grid",
    )


def test_structural_properties():
    """Bundle of structural invariants of the core machinery."""
    rng = np.random.default_rng(20260826)
    omega = symplectic_form(2)
    checks = []

    # symplectic-form preservation for constructed symplectics
    worst_sp = 0.0
    for n_mean in (0.0, 0.5, 2.0):
        for mode in (0, 1):
            s = single_mode_squeezer(n_mean, mode, 2).entries
            worst_sp = max(worst_sp, np.max(np.abs(s @ omega @ s.T - omega)))
    checks.append(("symplectic residual", worst_sp < 1e-10))

    # Williamson reconstruction on random physical covariances
    worst_w = 0.0
    for _ in range(100):
        a = rng.standard_normal((4, 4)) * 0.4
        s = SymplecticMatrix(expm(omega @ (a + a.T) / 2.0)).entries
        nu = 1.0 + rng.uniform(0.0, 3.0, size=2)
        cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
        wd = williamson(cov)
        worst_w = max(worst_w, np.max(np.abs(wd.reconstruct() - cov)))
    checks.append(("Williamson reconstruction", worst_w < 1e-9))

    # Q_s -> 1 at both endpoints, and swap symmetry of the infimum
    pair = make_hypotheses(ProbeSpec(kind=ProbeKind.ASTM, n0=0.5, n1=1.0),
                           TargetScenario(kappa=0.1, nb=2.0, ensembles=10.0))
    endpoints_ok = (abs(q_s(pair, 0.0) - 1.0) < 1e-8
                    and abs(q_s(pair, 1.0) - 1.0) < 1e-8)
    checks.append(("Q_s endpoints", endpoints_ok))
    swapped = HypothesisPair(rho_a=pair.rho_b, rho_b=pair.rho_a)
    _, q_fwd = chernoff_infimum(pair)
    _, q_rev = chernoff_infimum(swapped)
    checks.append(("infimum swap symmetry", abs(q_fwd - q_rev) < 1e-9))

    # discord vanishes on product states
    product = GaussianState(
        n_modes=2, mean=np.zeros(4), cov=np.diag([3.0, 3.0, 1.8, 1.8]))
    checks.append(("product-state discord",
                   abs(gaussian_discord(product).value) < 1e-10))

    # probe discord is invariant under local squeezing of either mode
    base = gaussian_discord(tmsv_state(0.7)).value
    worst_inv = max(
        abs(gaussian_discord(probe_state(
            ProbeSpec(kind=ProbeKind.ASTM, n0=0.7,
                      n1=float(n1), n2=float(n2)))).value - base)
        for n1 in (0, 1, 3) for n2 in (0, 1, 3)
    )
    checks.append(("local-squeezing discord invariance", worst_inv < 1e-8))

    # pure two-mode squeezed vacuum: discord equals the marginal entropy
    worst_pure = max(
        abs(gaussian_discord(tmsv_state(n0)).value - entropy_f(2.0 * n0 + 1.0))
        for n0 in (0.5, 1.0, 2.0)
    )
    checks.append(("pure-state discord closed form", worst_pure < 1e-8))

    failed = [name for name, ok in checks if not ok]
    report(
        "structural property suite",
        not failed,
        "all 7 invariants hold" if not failed else "failed: " + ", ".join(failed),
    )


def test_energy_closed_forms():
    """Mean photon number and cross correlation of the two-mode probe."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n0 = float(rng.uniform(0.05, 3.0))
        n1 = float(rng.uniform(0.0, 3.0))
        state = astm_state(ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1))
        ns = n0 + 2.0 * n0 * n1 + n1
        cc = np.sqrt(n0 * (n0 + 1.0) * (n1 + 1.0))
        worst = max(
            worst,
            abs(mean_photon(state, 0) - ns),
            abs(cross_correlation(state) - cc),
        )
    report(
        "energy bookkeeping closed forms",
        worst < 1e-10,
        f"max |deviation| = {worst:.3e} over 50 random (N0, N1) draws",
    )
