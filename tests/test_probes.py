import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gqi import (
    LOW_NOISE,
    MICROWAVE,
    GaussianState,
    HypothesisPair,
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    ValidationError,
    astm_state,
    coherent_state,
    cross_correlation,
    make_hypotheses,
    mean_photon,
    remained_discord,
    run_scenario,
    symplectic_eigenvalues,
    snr,
    tmsv_state,
)
from gqi.discord import gaussian_discord
from gqi.probes import _squeezer_gains
from gqi.symplectic import _allowed_shortfall, symplectic_form
from oracles import apply_symplectic, eigvals_spectrum, single_mode_squeezer

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
    def test_signal_energy_is_ns_and_there_is_no_idler(self):
        probe = ProbeSpec(kind=ProbeKind.COHERENT, ns=2.5)
        assert probe.signal_energy == 2.5
        with pytest.raises(ValidationError, match="coherent probe has no idler mode"):
            probe.idler_energy

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

    @pytest.mark.parametrize("mode", [-1, 2])
    def test_rejects_mode_out_of_range(self, mode):
        with pytest.raises(ValidationError, match=f"mode {mode} out of range for 2 modes"):
            mean_photon(tmsv_state(1.0), mode)

    @pytest.mark.parametrize("mode", [1.5, "0"])
    def test_rejects_a_mode_that_is_not_an_integer(self, mode):
        # 1.5 raised IndexError, "0" TypeError.
        with pytest.raises(ValidationError, match="mode must be an integer"):
            mean_photon(tmsv_state(1.0), mode)

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


def eigvals_bounds(cov: np.ndarray) -> np.ndarray:
    """The error GaussianState allows each eigvals symplectic eigenvalue,
    descending: max(1e-9, 8 eps max|V| times its condition number)."""
    i_omega = 1j * symplectic_form(cov.shape[0] // 2)
    ev, vecs = np.linalg.eig(i_omega @ cov)
    pairs = sorted(((abs(e), np.vdot(x, x).real / abs(np.vdot(x, i_omega @ x)))
                    for e, x in zip(ev, vecs.T) if e.real > 0), reverse=True)
    return np.array([_allowed_shortfall(np.abs(cov).max(), c) for _, c in pairs])


class TestClosedFormValidation:
    """Standard-form states are validated from their six entries, with no LAPACK."""

    @given(
        n0=st.floats(0.0, 1e4), n1=st.floats(0.0, 1e8), n2=st.floats(0.0, 1e8),
        kappa=st.floats(1e-4, 0.99), nb=st.floats(0.0, 1e9),
    )
    @example(n0=1e4, n1=1e8, n2=1e8, kappa=0.99, nb=0.0)
    @example(n0=9225.7, n1=0.0, n2=0.0, kappa=1.84e-3, nb=1.75e8)
    @settings(max_examples=150, deadline=None)
    def test_spectra_match_eigvals(self, n0, n1, n2, kappa, nb):
        # Each side may be off by the bound the state is validated with.
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
        pair = make_hypotheses(probe, TargetScenario(kappa=kappa, nb=nb))
        for state in (astm_state(probe), pair.rho_a, pair.rho_b):
            bound = np.maximum(eigvals_bounds(state.cov), state.spectrum_tol)
            np.testing.assert_array_less(
                np.abs(state.spectrum - eigvals_spectrum(state.cov)), 2.0 * bound)

    def test_pure_spectrum_descends(self):
        # The closed form reads n0 = n1 = 1, n2 = 1e4 as nu_+ = 1 - 4e-16,
        # nu_- = 1 + 2e-16.
        for n0, n1, n2 in itertools.product([0.0, 1.0, 1e2, 1e4],
                                            [0.0, 1.0, 1e4, 1e6, 1e8],
                                            [0.0, 1.0, 1e4, 1e6, 1e8]):
            spectrum = astm_state(ProbeSpec(kind=ProbeKind.ASTM,
                                            n0=n0, n1=n1, n2=n2)).spectrum
            assert spectrum[0] >= spectrum[1], (n0, n1, n2)
            np.testing.assert_allclose(spectrum, [1.0, 1.0], atol=1e-6)

    def test_no_lapack_call(self, monkeypatch):
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        for name in ("eig", "eigvals", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse(name))
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0, n2=1e6)
        astm_state(probe)
        tmsv_state(1e4)
        pair = make_hypotheses(probe, TargetScenario(kappa=0.01, nb=3.8e3))
        # Out of standard form, validation takes the closed form of
        # symplectic_eigenvalues: a phase turn on the signal mode, a rotated
        # squeezed mode, and a product state with x-p correlations.
        c, s = np.cos(0.3), np.sin(0.3)
        turn = np.eye(4)
        turn[:2, :2] = [[c, -s], [s, c]]
        GaussianState(2, np.zeros(4), turn @ pair.rho_a.cov @ turn.T)
        coherent_state(1.0)
        squeezed = turn[:2, :2] @ np.diag([1e-3, 1e3]) @ turn[:2, :2].T
        GaussianState(1, np.zeros(2), squeezed)
        product = np.zeros((4, 4))
        product[:2, :2], product[2:, 2:] = squeezed, 3.0 * np.eye(2)
        assert GaussianState(2, np.zeros(4), product).spectrum == pytest.approx([3.0, 1.0])

    # gaussian_discord(astm_state(p)) where it read the eigvals spectrum
    # validation kept, over the discord_map draw domain (n0 in [0.1, 4],
    # n1 in [0, 4], n2 in [1e-3, 1e3]) and three of its edge probes.
    PROBE_DISCORDS = [
        ((3.4727105893646875, 3.421210059728236, 73.47513500118097), 2.3767959216703085),
        ((1.1196408095242587, 0.3087978308736856, 477.30356998371116), 1.4658447583751408),
        ((2.493787595083697, 0.01052301450519888, 290.03009737089735), 2.0918510497647893),
        ((3.9407335534264663, 1.1451864166646817, 76.20206461175125), 2.4886985909588044),
        ((0.42139098113710205, 1.7531201892136856, 80.57914380407858), 0.8639758103734194),
        ((1.6940599974901172, 2.0709988287479084, 0.005037781193944026), 1.7769599245968513),
        ((3.274625425075436, 1.9914696333300488, 0.030879849093610377), 2.32536119987087),
        ((3.129076008403387, 3.9169131567582505, 1.6984759606015), 2.2857961820239066),
        ((2.974885868221056, 3.9710427553934506, 0.001516229626258636), 2.2420892839660818),
        ((2.436012844230408, 3.8691811111663466, 0.005058473079260169), 2.0721762157059436),
        ((1.0, 1.0, 1e6), 1.3862943611198906),
        ((0.0, 1.0, 0.0), 0.0),
        ((3.7614462458241293, 2.67089304626055, 79815.16583773255), 2.447304628875966),
    ]

    @pytest.mark.parametrize("params, value", PROBE_DISCORDS)
    def test_probe_discord_bit_for_bit(self, params, value):
        n0, n1, n2 = params
        result = gaussian_discord(astm_state(ProbeSpec(kind=ProbeKind.ASTM,
                                                       n0=n0, n1=n1, n2=n2)))
        assert result.value == value
        assert result.branch == ("product" if n0 == 0.0 else "pure")
        assert result.nu_pair == (1.0, 1.0)


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

    @pytest.mark.parametrize("squeezer", ["n1", "n2"])
    def test_tmsv_has_no_squeezers(self, squeezer):
        # A TMSV with squeezers is an ASTM probe under the wrong label.
        with pytest.raises(ValidationError, match="tmsv probe has no squeezers"):
            ProbeSpec(kind="tmsv", n0=1.0, **{squeezer: 0.25})

    @pytest.mark.parametrize("kind, name, message", [
        ("tmsv", "n1", "a tmsv probe has no squeezers n1, n2: use kind astm"),
        ("tmsv", "n2", "a tmsv probe has no squeezers n1, n2: use kind astm"),
        ("tmsv", "ns", "a tmsv probe has no coherent photons ns: use kind coherent"),
        ("astm", "ns", "an astm probe has no coherent photons ns: use kind coherent"),
        ("coherent", "n0", "a coherent probe has no TMSV photons n0: use kind tmsv or astm"),
        ("coherent", "n1", "a coherent probe has no squeezers n1, n2: use kind astm"),
        ("coherent", "n2", "a coherent probe has no squeezers n1, n2: use kind astm"),
    ])
    def test_rejects_a_field_its_kind_does_not_read(self, kind, name, message):
        # ProbeSpec(kind="astm", ns=9) gave the row of n0 = n1 = 0 and ns = 0.
        with pytest.raises(ValidationError) as info:
            ProbeSpec(kind=kind, **{name: 9.0})
        assert str(info.value) == message
        ProbeSpec(kind=kind, **{name: 0.0})  # 0, the default, is no input

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


class TestTrustBoundary:
    """A ProbeSpec, TargetScenario or HypothesisPair is checked once, holds
    Python floats and stays frozen, so nothing inward checks it again."""

    @pytest.mark.parametrize("spec, name, value", [
        (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0), name, value)
        for name, value in [("kind", ProbeKind.TMSV), ("n0", 2.0), ("n1", 5.0),
                            ("n2", 1.0), ("ns", 1.0)]
    ] + [
        (scenario, name, value) for scenario in (TargetScenario(0.01, 30.0, 1e7),
                                                 MICROWAVE, LOW_NOISE)
        for name, value in [("kappa", 1.5), ("nb", 1.0), ("ensembles", -5.0)]
    ] + [
        (make_hypotheses(ProbeSpec(n0=1.0), MICROWAVE), name, tmsv_state(1.0))
        for name in ("rho_a", "rho_b")
    ])
    def test_rebinding_a_field_raises(self, spec, name, value):
        # With kappa = 1.5 rebound, snr returned an SNR of 481888; with
        # ensembles = -5, 2.5e-7; a tmsv probe given n1 = 5, an ASTM result.
        before = getattr(spec, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, value)
        assert getattr(spec, name) is before

    def test_replace_validates_the_changed_field(self):
        assert dataclasses.replace(MICROWAVE, nb=30.0) == LOW_NOISE
        with pytest.raises(ValidationError, match="kappa must lie in"):
            dataclasses.replace(MICROWAVE, kappa=1.5)
        with pytest.raises(ValidationError, match="tmsv probe has no squeezers"):
            dataclasses.replace(ProbeSpec(n0=1.0), n1=5.0)

    def test_pickle_round_trip(self):
        spec = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=0.5)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert pickle.loads(pickle.dumps(MICROWAVE)) == MICROWAVE

    # n0, n1, n2, kappa, N_B and M that every cast below holds (M < 65504,
    # the largest float16), read as the cast's value.
    _POINT = dict(n0=1.0, n1=2.0, n2=4.0, kappa=0.01, nb=30.0, ensembles=1e3)

    @pytest.mark.parametrize("cast", [np.float16, np.float32, np.float64,
                                      np.longdouble, int],
                             ids=lambda c: c.__name__)
    def test_numbers_of_any_type_give_the_results_of_floats(self, cast):
        # A np.float32 field ran the discord in float32: remained_discord
        # returned np.float32(6.008e-5) where floats give 6.028e-5.
        given = {k: cast(v) if cast is not int or v.is_integer() else v
                 for k, v in self._POINT.items()}
        floats = {k: float(v) for k, v in given.items()}

        def build(values):
            probe = ProbeSpec(ProbeKind.ASTM, values["n0"], values["n1"], values["n2"])
            coherent = ProbeSpec(ProbeKind.COHERENT, ns=values["n1"])
            return probe, coherent, TargetScenario(values["kappa"], values["nb"],
                                                   values["ensembles"])

        def outcomes(values):
            probe, coherent, scenario = build(values)
            row = run_scenario(probe, scenario, with_discord=True)
            return [*dataclasses.astuple(snr(probe, scenario)),
                    *dataclasses.astuple(snr(coherent, scenario)),
                    remained_discord(probe, scenario).value,
                    *remained_discord(probe, scenario).nu_pair,
                    gaussian_discord(astm_state(probe)).value,
                    *astm_state(probe).spectrum.tolist(),
                    *(getattr(row, c) for c in ("n0", "n1", "n2", "ns", "kappa", "nb",
                                                "ensembles", "s_star", "q_min",
                                                "log_error_prob", "snr", "discord"))]

        got, expected = outcomes(given), outcomes(floats)
        assert list(map(repr, got)) == list(map(repr, expected))
        assert all(type(v) is float for v in got)
        probe, coherent, scenario = build(given)
        for value in (*dataclasses.astuple(probe)[1:], *dataclasses.astuple(coherent)[1:],
                      *dataclasses.astuple(scenario)):
            assert type(value) is float

    @pytest.mark.parametrize("build", [
        lambda: ProbeSpec(n0="1"),
        lambda: ProbeSpec(n0=None),
        lambda: ProbeSpec(n0=np.array([1.0, 2.0])),
        lambda: ProbeSpec(kind="astm", n1=1j),
        lambda: TargetScenario(0.01, None),
        lambda: TargetScenario("0.01", 30.0),
        lambda: TargetScenario(0.01, 30.0, [1e7]),
    ], ids=["n0-str", "n0-None", "n0-array", "n1-complex", "nb-None", "kappa-str",
            "ensembles-list"])
    def test_non_numbers_raise_validation_error(self, build):
        # They raised TypeError or ValueError, which the CLI reports as an
        # internal error.
        with pytest.raises(ValidationError, match="must be a real number"):
            build()

    def test_an_integer_beyond_float_range_is_infinite(self):
        with pytest.raises(ValidationError, match="n0 must be finite, got inf"):
            ProbeSpec(n0=10**400)

    def test_pair_modes_are_checked_at_construction(self):
        one, two = coherent_state(1.0), tmsv_state(1.0)
        for rho_a, rho_b in ((one, two), (two, one), (two, two.cov), (None, two)):
            with pytest.raises(ValidationError, match="two GaussianStates of one mode"):
                HypothesisPair(rho_a, rho_b)
