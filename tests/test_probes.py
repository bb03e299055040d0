import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gqi import (
    GaussianState,
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    ValidationError,
    astm_state,
    coherent_state,
    cross_correlation,
    make_hypotheses,
    mean_photon,
    symplectic_eigenvalues,
    snr,
    tmsv_state,
)
from gqi.probes import _squeezer_gains
from oracles import apply_symplectic, single_mode_squeezer

photons = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


class TestTmsvState:
    def test_vacuum(self):
        np.testing.assert_array_equal(tmsv_state(0.0).cov, np.eye(4))

    def test_one_photon_entries(self):
        v = tmsv_state(1.0).cov
        assert v[0, 0] == pytest.approx(3.0)
        assert v[0, 2] == pytest.approx(2 * np.sqrt(2))
        assert v[1, 3] == pytest.approx(-2 * np.sqrt(2))

    @given(n0=photons)
    @settings(max_examples=40, deadline=None)
    def test_pure_for_any_energy(self, n0):
        nus = symplectic_eigenvalues(tmsv_state(n0).cov)
        np.testing.assert_allclose(nus, [1, 1], atol=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            tmsv_state(-0.1)


class TestAstmState:
    def test_no_squeezing_equals_tmsv(self):
        spec = ProbeSpec(kind=ProbeKind.ASTM, n0=0.8)
        np.testing.assert_array_equal(astm_state(spec).cov, tmsv_state(0.8).cov)

    def test_signal_energy_closed_form(self):
        state = astm_state(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0))
        assert mean_photon(state, 0) == pytest.approx(4.0)  # 1 + 2 + 1

    def test_amplified_cross_correlation(self):
        state = astm_state(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0))
        assert cross_correlation(state) == pytest.approx(2.0)  # sqrt(1*2*2)

    def test_rejects_coherent_kind(self):
        with pytest.raises(ValidationError):
            astm_state(ProbeSpec(kind=ProbeKind.COHERENT, ns=1.0))

    @given(n0=photons, n1=photons, n2=photons)
    @settings(max_examples=60, deadline=None)
    def test_energy_bookkeeping(self, n0, n1, n2):
        spec = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
        state = astm_state(spec)
        assert mean_photon(state, 0) == pytest.approx(
            n0 + 2 * n0 * n1 + n1, abs=1e-10
        )
        assert mean_photon(state, 1) == pytest.approx(
            n0 + 2 * n0 * n2 + n2, abs=1e-10
        )
        # general two-squeezer form; reduces to sqrt(n0 (n0+1) (n1+1)) at n2 = 0
        expected = np.sqrt(n0 * (n0 + 1)) * (
            np.sqrt((n1 + 1) * (n2 + 1)) + np.sqrt(n1 * n2)
        )
        assert cross_correlation(state) == pytest.approx(expected, abs=1e-9)

    def test_squeezer_gains_are_reciprocal(self):
        # gamma_- = sqrt(N+1) - sqrt(N) cancels; its relative error grew like
        # 4N eps, and gamma_- gamma_+ drifted from 1 by as much.
        eps = np.finfo(float).eps
        for n in np.concatenate([[0.0], np.geomspace(1e-6, 1e15, 400)]):
            minus, plus = _squeezer_gains(float(n))
            assert abs(minus * plus - 1.0) <= 2.0 * eps, n
        minus, plus = _squeezer_gains(np.geomspace(1e-6, 1e15, 400))
        np.testing.assert_allclose(minus * plus, 1.0, rtol=2.0 * eps, atol=0.0)

    def test_idler_squeezing_leaves_the_snr(self):
        # Local squeezing of the idler, which never leaves the lab, changes
        # neither hypothesis' distinguishability; with the cancelling gamma_-
        # the SNR moved by 9.2e-8 at n2 = 1e9.
        scenario = TargetScenario(0.1, 1e-3, 1e6)
        values = [snr(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0, n2=n2),
                      scenario).snr for n2 in (0.0, 1e4, 1e6, 1e8, 1e9)]
        np.testing.assert_allclose(values, values[0], rtol=1e-13, atol=0.0)

    @given(n0=photons, n1=photons, n2=photons)
    @settings(max_examples=40, deadline=None)
    def test_remains_pure(self, n0, n1, n2):
        spec = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
        nus = symplectic_eigenvalues(astm_state(spec).cov)
        np.testing.assert_allclose(nus, [1, 1], atol=1e-9)


class TestCoherentState:
    def test_vacuum(self):
        state = coherent_state(0.0)
        np.testing.assert_array_equal(state.cov, np.eye(2))
        np.testing.assert_array_equal(state.mean, [0, 0])

    def test_displacement_and_energy(self):
        state = coherent_state(4.0)
        np.testing.assert_allclose(state.mean, [4.0, 0.0])
        assert mean_photon(state, 0) == pytest.approx(4.0)

    @given(ns=photons)
    @settings(max_examples=30, deadline=None)
    def test_covariance_always_identity(self, ns):
        np.testing.assert_array_equal(coherent_state(ns).cov, np.eye(2))


class TestMeanPhoton:
    def test_vacuum_is_zero(self):
        assert mean_photon(tmsv_state(0.0), 0) == 0.0

    def test_thermal_convention(self):
        from gqi import GaussianState

        state = GaussianState(1, np.zeros(2), np.diag([7.0, 7.0]))
        assert mean_photon(state, 0) == pytest.approx(3.0)

    def test_astm_ns_example(self):
        state = astm_state(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=3.0))
        assert mean_photon(state, 0) == pytest.approx(10.0)


class TestCrossCorrelation:
    def test_product_state_is_zero(self):
        from gqi import GaussianState

        state = GaussianState(2, np.zeros(4), np.diag([3.0, 3.0, 5.0, 5.0]))
        assert cross_correlation(state) == 0.0

    @given(n0=photons)
    @settings(max_examples=40, deadline=None)
    def test_tmsv_closed_form(self, n0):
        assert cross_correlation(tmsv_state(n0)) == pytest.approx(
            np.sqrt(n0 * (n0 + 1)), abs=1e-10
        )

    def test_rejects_single_mode(self):
        with pytest.raises(ValidationError):
            cross_correlation(coherent_state(1.0))


class TestMakeHypotheses:
    def test_zero_reflectivity_collapses_hypotheses(self):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.5, n1=0.3, n2=0.2)
        pair = make_hypotheses(probe, TargetScenario(kappa=0.0, nb=1.5))
        np.testing.assert_allclose(pair.rho_a.cov, pair.rho_b.cov, atol=1e-14)

    def test_lossless_noiseless_limit_returns_probe(self):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.5, n1=0.3)
        eps = 1e-9
        pair = make_hypotheses(probe, TargetScenario(kappa=1 - eps, nb=0.0))
        np.testing.assert_allclose(pair.rho_a.cov, astm_state(probe).cov, atol=1e-6)

    def test_return_mode_diagonal_hand_computation(self):
        # kappa * A + 2 N_B + (1 - kappa) with A = 3: 0.03 + 7600 + 0.99
        probe = ProbeSpec(kind=ProbeKind.TMSV, n0=1.0)
        pair = make_hypotheses(probe, TargetScenario(kappa=0.01, nb=3.8e3))
        assert pair.rho_a.cov[0, 0] == pytest.approx(7601.02)
        assert pair.rho_a.cov[1, 1] == pytest.approx(7601.02)

    def test_absent_hypothesis_matches_closed_form(self):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n2=2.0)
        pair = make_hypotheses(probe, TargetScenario(kappa=0.3, nb=3.0))
        gm = np.sqrt(3.0) - np.sqrt(2.0)
        gp = np.sqrt(3.0) + np.sqrt(2.0)
        expected = np.diag([7.0, 7.0, 3 * gm**2, 3 * gp**2])
        np.testing.assert_allclose(pair.rho_b.cov, expected, rtol=1e-12)

    def test_coherent_pair(self):
        probe = ProbeSpec(kind=ProbeKind.COHERENT, ns=4.0)
        pair = make_hypotheses(probe, TargetScenario(kappa=0.25, nb=2.0))
        np.testing.assert_allclose(pair.rho_a.mean, [2.0, 0.0])
        np.testing.assert_allclose(pair.rho_a.cov, 5.0 * np.eye(2))
        np.testing.assert_allclose(pair.rho_b.mean, [0.0, 0.0])
        assert pair.n_modes == 1

    @given(
        n0=photons, n1=photons, n2=photons,
        kappa=st.floats(0.0, 0.99), nb=st.floats(0.0, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_channel_invariants(self, n0, n1, n2, kappa, nb):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
        pair = make_hypotheses(probe, TargetScenario(kappa=kappa, nb=nb))
        # receiver noise energy is N_B for every kappa
        assert mean_photon(pair.rho_b, 0) == pytest.approx(nb, abs=1e-9)
        # channel acts on the signal arm only
        np.testing.assert_array_equal(pair.rho_a.cov[2:, 2:], pair.rho_b.cov[2:, 2:])
        # both states physical (validated on construction, re-check explicitly)
        assert symplectic_eigenvalues(pair.rho_a.cov).min() >= 1 - 1e-9
        assert symplectic_eigenvalues(pair.rho_b.cov).min() >= 1 - 1e-9

    def test_rejects_unit_reflectivity(self):
        with pytest.raises(ValidationError):
            TargetScenario(kappa=1.0, nb=1.0)


def toolkit_states(probe: ProbeSpec, scenario: TargetScenario):
    """Probe, rho_A and rho_B covariances composed from the toolkit.

    A TMSV, the two single-mode squeezers through apply_symplectic, and the
    channel as the matrix product K V K plus noise: the reference the closed
    forms must reproduce bit for bit.
    """
    a = 2.0 * probe.n0 + 1.0
    c = 2.0 * np.sqrt(probe.n0 * (probe.n0 + 1.0))
    cov = np.diag([a, a, a, a])
    cov[0, 2] = cov[2, 0] = c
    cov[1, 3] = cov[3, 1] = -c
    state = GaussianState(2, np.zeros(4), cov)
    state = apply_symplectic(state, single_mode_squeezer(probe.n1, 0, 2))
    state = apply_symplectic(state, single_mode_squeezer(probe.n2, 1, 2))
    kappa, nb = scenario.kappa, scenario.nb
    k = np.diag([np.sqrt(kappa), np.sqrt(kappa), 1.0, 1.0])
    v_a = k @ state.cov @ k
    v_a[0, 0] += 2.0 * nb + (1.0 - kappa)
    v_a[1, 1] += 2.0 * nb + (1.0 - kappa)
    v_b = np.zeros((4, 4))
    v_b[0, 0] = v_b[1, 1] = 2.0 * nb + 1.0
    v_b[2:, 2:] = state.cov[2:, 2:]
    return state.cov, v_a, v_b


class TestClosedFormsMatchToolkit:
    @given(
        n0=st.floats(0.0, 10.0), n1=st.floats(0.0, 1e3), n2=st.floats(0.0, 1e3),
        kappa=st.floats(0.0, 0.99), nb=st.floats(0.0, 1e8),
    )
    @example(n0=1.0, n1=1.0, n2=1e6, kappa=0.01, nb=3.8e3)
    @example(n0=3.0, n1=0.0, n2=0.0, kappa=0.5, nb=1.0)
    @settings(max_examples=150, deadline=None)
    def test_bit_for_bit(self, n0, n1, n2, kappa, nb):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
        scenario = TargetScenario(kappa=kappa, nb=nb)
        v_probe, v_a, v_b = toolkit_states(probe, scenario)
        pair = make_hypotheses(probe, scenario)
        assert np.array_equal(astm_state(probe).cov, v_probe)
        assert np.array_equal(pair.rho_a.cov, v_a)
        assert np.array_equal(pair.rho_b.cov, v_b)
        if n1 == 0.0 and n2 == 0.0:
            assert np.array_equal(tmsv_state(n0).cov, v_probe)


class TestProbeSpec:
    def test_derived_energies(self):
        spec = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0, n2=2.0)
        assert spec.signal_energy == pytest.approx(4.0)
        assert spec.idler_energy == pytest.approx(7.0)

    @given(n0=photons, n1=photons)
    @settings(max_examples=40, deadline=None)
    def test_signal_energy_at_least_n0(self, n0, n1):
        spec = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1)
        assert spec.signal_energy >= n0 - 1e-12

    def test_rejects_negative_parameter(self):
        with pytest.raises(ValidationError):
            ProbeSpec(kind=ProbeKind.TMSV, n0=-1.0)

    def test_kind_from_its_value(self):
        assert ProbeSpec(kind="astm").kind is ProbeKind.ASTM

    def test_rejects_unknown_kind(self):
        # a bare ValueError, which the CLI reported as an internal error
        with pytest.raises(ValidationError, match="'foo'"):
            ProbeSpec(kind="foo")


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["n0", "n1", "n2", "ns"])
    def test_probe_rejects(self, name, value):
        with pytest.raises(ValidationError, match=name):
            ProbeSpec(kind=ProbeKind.ASTM, **{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["kappa", "nb", "ensembles"])
    def test_scenario_rejects(self, name, value):
        fields = {"kappa": 0.01, "nb": 30.0, "ensembles": 1e7, name: value}
        with pytest.raises(ValidationError, match=name):
            TargetScenario(**fields)
