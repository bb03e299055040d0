import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqi import (
    LOW_NOISE,
    GaussianState,
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    ValidationError,
    astm_state,
    block_determinants,
    entropy_f,
    gaussian_discord,
    remained_discord,
    tmsv_state,
)

photons = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


class TestEntropyF:
    def test_pure_mode(self):
        assert entropy_f(1.0) == 0.0

    def test_value_at_three(self):
        assert entropy_f(3.0) == pytest.approx(2 * math.log(2), rel=1e-12)

    @pytest.mark.parametrize("n", [0.5, 2.0])
    def test_thermal_entropy_identity(self, n):
        assert entropy_f(2 * n + 1) == pytest.approx(
            (n + 1) * math.log(n + 1) - n * math.log(n), rel=1e-12
        )

    def test_monotone(self):
        xs = np.linspace(1.0, 20.0, 50)
        fs = [entropy_f(x) for x in xs]
        assert all(b > a for a, b in zip(fs, fs[1:]))

    def test_rejects_below_one(self):
        with pytest.raises(ValidationError):
            entropy_f(0.5)


class TestBlockDeterminants:
    def test_tmsv_one_photon(self):
        d = block_determinants(tmsv_state(1.0))
        assert d.alpha == pytest.approx(9.0)
        assert d.beta == pytest.approx(9.0)
        assert d.gamma == pytest.approx(-8.0)
        assert d.delta == pytest.approx(1.0)

    def test_two_mode_vacuum(self):
        d = block_determinants(tmsv_state(0.0))
        assert (d.alpha, d.beta, d.gamma, d.delta) == (1.0, 1.0, 0.0, 1.0)

    @given(n1=photons, n2=photons)
    @settings(max_examples=40, deadline=None)
    def test_local_squeezers_preserve_determinants(self, n1, n2):
        base = block_determinants(tmsv_state(1.0))
        spec = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=n1, n2=n2)
        d = block_determinants(astm_state(spec))
        assert d.alpha == pytest.approx(base.alpha, rel=1e-10)
        assert d.beta == pytest.approx(base.beta, rel=1e-10)
        assert d.gamma == pytest.approx(base.gamma, rel=1e-10)
        assert d.delta == pytest.approx(base.delta, rel=1e-9, abs=1e-9)

    def test_rejects_single_mode(self):
        with pytest.raises(ValidationError):
            block_determinants(GaussianState(1, np.zeros(2), np.eye(2)))


class TestGaussianDiscord:
    def test_product_thermal_states_zero(self):
        state = GaussianState(2, np.zeros(4), np.diag([3.0, 3.0, 5.0, 5.0]))
        assert gaussian_discord(state).value == pytest.approx(0.0, abs=1e-10)

    def test_two_mode_vacuum_zero(self):
        assert gaussian_discord(tmsv_state(0.0)).value == pytest.approx(
            0.0, abs=1e-10
        )

    @pytest.mark.parametrize("n0", [0.5, 1.0, 2.0])
    def test_pure_tmsv_equals_marginal_entropy(self, n0):
        # pure-state discord is the entropy of entanglement f(2 N0 + 1)
        assert gaussian_discord(tmsv_state(n0)).value == pytest.approx(
            entropy_f(2 * n0 + 1), abs=1e-8
        )

    @pytest.mark.parametrize("n1", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("n2", [0.0, 1.0, 3.0])
    def test_local_squeezing_invariance(self, n1, n2):
        spec = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=n1, n2=n2)
        assert gaussian_discord(astm_state(spec)).value == pytest.approx(
            gaussian_discord(tmsv_state(1.0)).value, abs=1e-9
        )

    def test_mixed_state_independent_recomputation(self):
        # same closed forms coded straight from the determinants, no reuse
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=0.5)
        scenario = TargetScenario(kappa=0.3, nb=0.4)
        from gqi import make_hypotheses

        state = make_hypotheses(probe, scenario).rho_a
        v = state.cov
        a = np.linalg.det(v[:2, :2])
        b = np.linalg.det(v[2:, 2:])
        g = np.linalg.det(v[:2, 2:])
        dd = np.linalg.det(v)
        big_delta = a + b + 2 * g
        nu_sq_plus = 0.5 * (big_delta + math.sqrt(big_delta**2 - 4 * dd))
        nu_sq_minus = 0.5 * (big_delta - math.sqrt(big_delta**2 - 4 * dd))
        if (dd - a * b) ** 2 <= (b + 1) * g * g * (a + dd):
            eps = (
                2 * g * g + (b - 1) * (dd - a)
                + 2 * abs(g) * math.sqrt(g * g + (b - 1) * (dd - a))
            ) / (b - 1) ** 2
        else:
            eps = (
                a * b - g * g + dd
                - math.sqrt(g**4 + (dd - a * b) ** 2 - 2 * g * g * (dd + a * b))
            ) / (2 * b)
        expected = (
            entropy_f(math.sqrt(b))
            - entropy_f(math.sqrt(nu_sq_plus))
            - entropy_f(math.sqrt(nu_sq_minus))
            + entropy_f(math.sqrt(eps))
        )
        assert remained_discord(probe, scenario).value == pytest.approx(
            expected, abs=1e-10
        )

    def test_rank_one_cross_block_is_correlated(self):
        # det C = 0 without C = 0: discord is zero only for product states
        v = np.diag([2.0, 2.0, 2.0, 2.0])
        v[0, 2] = v[2, 0] = 1.0
        result = gaussian_discord(GaussianState(2, np.zeros(4), v))
        expected = (entropy_f(2.0) - entropy_f(math.sqrt(6.0))
                    - entropy_f(math.sqrt(2.0)) + entropy_f(math.sqrt(3.0)))
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.value > 0.02

    def test_nonnegative_on_channel_outputs(self):
        for n1 in (0.0, 0.5, 2.0):
            probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=n1)
            value = remained_discord(probe, TargetScenario(0.01, 30.0)).value
            assert value >= 0.0


class TestRemainedDiscord:
    def test_vacuum_probe_no_noise_is_zero(self):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.0, n2=0.5)
        assert remained_discord(probe, TargetScenario(0.0, 0.0)).value == (
            pytest.approx(0.0, abs=1e-10)
        )

    def test_product_state_is_zero(self):
        # n0 = 0 leaves the idler in vacuum (beta = 1): the eps -> alpha limit
        probe = ProbeSpec(kind="astm", n0=0, n1=1)
        assert remained_discord(probe, LOW_NOISE).value == 0.0

    def test_rejects_coherent_probe(self):
        with pytest.raises(ValidationError):
            remained_discord(
                ProbeSpec(kind=ProbeKind.COHERENT, ns=1.0), TargetScenario(0.1, 1.0)
            )

    def test_dip_then_rise_in_signal_energy(self):
        # the post-channel discord is non-monotonic in N_S
        n0 = 0.1
        scenario = TargetScenario(kappa=0.01, nb=30.0, ensembles=1e7)
        values = []
        for ns in np.linspace(n0, 4.0, 16):
            n1 = (ns - n0) / (2 * n0 + 1)
            probe = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1)
            values.append(remained_discord(probe, scenario).value)
        assert min(values) < values[0]
        assert values[-1] > values[-2] > values[-3]


class TestSpectrumSnap:
    def test_probe_at_strong_idler_squeezing(self):
        # The spectrum of this pure probe reads 1 - 1.1e-10, which
        # GaussianState accepts (its tolerance is 1e-9) and the fixed 1e-10
        # clamp of entropy_f rejected. Against a 50-digit evaluation of the
        # marginal entropy f(sqrt(det B)) this is off by 1.2e-11.
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=3.7614462458241293,
                          n1=2.67089304626055, n2=79815.16583773255)
        result = gaussian_discord(astm_state(probe))
        assert result.branch == "pure"
        assert result.value == pytest.approx(2.447304628875966, rel=1e-9)

    def test_strongly_squeezed_tmsv_is_pure(self):
        # tmsv_state(1e4) reads its spectrum as 1 -+ ~4e-8, within the
        # tolerance it was validated with.
        state = tmsv_state(1e4)
        result = gaussian_discord(state)
        assert result.nu_pair == (1.0, 1.0)
        n0 = 1e4
        marginal = (n0 + 1) * math.log(n0 + 1) - n0 * math.log(n0)
        assert result.value == pytest.approx(marginal, rel=1e-9)
