import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from conftest import random_physical_cov
from gqi import (
    LOW_NOISE,
    MICROWAVE,
    GaussianState,
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    ValidationError,
    chernoff_infimum,
    log_error_prob,
    log_p_from_snr,
    make_hypotheses,
    q_s,
    snr,
    snr_from_log_p,
    sweep,
    symplectic_form,
)
from gqi import chernoff
from gqi.chernoff import discriminate, discriminate_many
from gqi.probes import (HypothesisPair, _absent_entries, _probe_entries, _return_entries,
                        tmsv_state)
from gqi.chernoff import _PairData
from oracles import (SymplecticMatrix, apply_symplectic, g_func, lambda_func, v_of_p,
                     williamson)


EPS = np.finfo(float).eps


def pure_tol(cov: np.ndarray) -> float:
    """The bound within which gqi takes a symplectic eigenvalue as exactly 1."""
    scale = np.sqrt(np.diag(cov))
    det_r = np.linalg.det(cov / np.outer(scale, scale))
    return 256 * EPS * (np.abs(cov).max() + 1.0 / det_r)


def williamson_q_s(pair: HypothesisPair, s: float, snap: bool = True) -> float:
    """Q_s from the Williamson form of both covariances at one s (oracle).

    With snap, eigenvalues within pure_tol of 1 are set to 1 as in gqi;
    without it only g_func/lambda_func's own 1e-14 applies. Sigma_s is
    factored as V_A(s) (V_A(s)^-1 + V_B(1-s)^-1) V_B(1-s), with
    V(p)^-1 = (Omega S) Lambda_p^-1 (Omega S)^T: at the ends of [0, 1] a
    Lambda_p ~ 1e12 next to a pure mode's 1 costs the sum V_A + V_B
    itself up to 8e-4 of Q.
    """
    s = min(max(s, 1e-12), 1.0 - 1e-12)
    value, dual, inverses = 2.0 ** pair.n_modes, 0.0, []
    omega = symplectic_form(pair.n_modes)
    for state, p in ((pair.rho_a, s), (pair.rho_b, 1.0 - s)):
        dec = williamson(state.cov)
        nu = dec.spectrum
        if snap:
            nu = np.where(nu <= 1.0 + pure_tol(state.cov), 1.0, nu)
        lam = np.array([lambda_func(p, x) for x in nu])
        value *= np.prod([g_func(p, x) for x in nu] / lam)
        w = omega @ dec.s_matrix.entries
        inverses.append((w / np.repeat(lam, 2)) @ w.T)
        dual = dual + inverses[-1]
    value /= math.sqrt(np.linalg.det(dual))
    d = pair.rho_a.mean - pair.rho_b.mean
    return value * math.exp(
        -0.5 * (inverses[0] @ d) @ np.linalg.solve(dual, inverses[1] @ d))


def inv_det_r(cov: np.ndarray) -> float:
    scale = np.sqrt(np.diag(cov))
    return 1.0 / np.linalg.det(cov / np.outer(scale, scale))


def thermal_q_s(m: float, n: float, s: float) -> float:
    """Tr(rho_m^s rho_n^(1-s)) for thermal states of m and n photons."""
    x, y = m / (m + 1.0), n / (n + 1.0)
    return (1.0 - x) ** s * (1.0 - y) ** (1.0 - s) / (1.0 - x**s * y ** (1.0 - s))


class TestGAndLambda:
    def test_pure_state_limit(self):
        for p in (0.1, 0.5, 1.0):
            assert g_func(p, 1.0) == 1.0
            assert lambda_func(p, 1.0) == 1.0

    def test_p_equal_one(self):
        for x in (1.5, 3.0, 7601.02):
            assert g_func(1.0, x) == pytest.approx(1.0, rel=1e-12)
            assert lambda_func(1.0, x) == pytest.approx(x, rel=1e-12)

    def test_half_power_at_three(self):
        # 2^(1/2) / (4^(1/2) - 2^(1/2)) and (2 + sqrt 2)/(2 - sqrt 2)
        assert g_func(0.5, 3.0) == pytest.approx(
            math.sqrt(2) / (2 - math.sqrt(2)), rel=1e-12
        )
        assert lambda_func(0.5, 3.0) == pytest.approx(
            (2 + math.sqrt(2)) / (2 - math.sqrt(2)), rel=1e-12
        )

    def test_nearly_pure_mode_is_mixed(self):
        # only rounding of a pure mode (1e-14) is snapped to 1
        x, p = 1.0 + 1e-9, 0.01
        up, dn = (x + 1.0) ** p, (x - 1.0) ** p
        assert lambda_func(p, x) == pytest.approx((up + dn) / (up - dn), rel=1e-9)
        assert g_func(p, x) == pytest.approx(2.0**p / (up - dn), rel=1e-9)
        assert lambda_func(p, x) > 9.0

    def test_rejects_x_below_one(self):
        with pytest.raises(ValidationError):
            g_func(0.5, 0.9)

    # x is kept away from the pure boundary at 1, where the textbook
    # expression below is itself the better-conditioned one (it uses the
    # exactly representable x - 1) and the two legitimately differ by ~1e-8.
    @given(p=st.floats(0.01, 1.0), x=st.floats(1.0 + 1e-6, 1e4))
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_evaluation(self, p, x):
        denom = (x + 1) ** p - (x - 1) ** p
        assert g_func(p, x) == pytest.approx(2**p / denom, rel=1e-9)
        assert lambda_func(p, x) == pytest.approx(
            ((x + 1) ** p + (x - 1) ** p) / denom, rel=1e-9
        )


class TestVOfP:
    def test_identity_at_p_one(self):
        v = make_hypotheses(
            ProbeSpec(kind=ProbeKind.TMSV, n0=0.4), TargetScenario(0.3, 0.7)
        ).rho_a.cov
        np.testing.assert_allclose(v_of_p(v, 1.0), v, rtol=1e-10, atol=1e-12)

    def test_pure_state_any_p(self):
        v = tmsv_state(1.0).cov
        np.testing.assert_allclose(v_of_p(v, 0.3), v, rtol=1e-9, atol=1e-9)

    def test_thermal_half_power(self):
        expected = lambda_func(0.5, 3.0)
        np.testing.assert_allclose(
            v_of_p(np.diag([3.0, 3.0]), 0.5), np.diag([expected, expected]),
            rtol=1e-10,
        )


def _small_pair():
    return make_hypotheses(
        ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=0.5),
        TargetScenario(kappa=0.3, nb=0.4),
    )


class TestQs:
    def test_identical_states_give_one(self):
        pair = make_hypotheses(
            ProbeSpec(kind=ProbeKind.ASTM, n0=0.5, n1=0.2),
            TargetScenario(kappa=0.0, nb=1.0),
        )
        for s in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert q_s(pair, s) == pytest.approx(1.0, abs=1e-10)

    def test_endpoints_for_full_rank_pair(self):
        pair = _small_pair()
        assert q_s(pair, 0.0) == pytest.approx(1.0, abs=1e-8)
        assert q_s(pair, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_endpoints_large_noise(self):
        pair = make_hypotheses(
            ProbeSpec(kind=ProbeKind.TMSV, n0=1.0), TargetScenario(0.01, 3.8e3)
        )
        assert q_s(pair, 0.0) == pytest.approx(1.0, abs=1e-8)
        assert q_s(pair, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_within_unit_interval(self):
        pair = _small_pair()
        for s in np.linspace(0, 1, 21):
            assert 0.0 < q_s(pair, s) <= 1.0 + 1e-12

    def test_zero_mean_displacement_is_inert(self):
        # adding equal means to both hypotheses leaves Q_s unchanged
        pair = _small_pair()
        shifted = HypothesisPair(
            pair.rho_a.__class__(2, pair.rho_a.mean + 1.0, pair.rho_a.cov),
            pair.rho_b.__class__(2, pair.rho_b.mean + 1.0, pair.rho_b.cov),
        )
        for s in (0.3, 0.5, 0.7):
            assert q_s(shifted, s) == pytest.approx(q_s(pair, s), rel=1e-12)

    def test_pure_displaced_overlap_closed_form(self):
        # coherent |alpha> against vacuum: Q_s = exp(-|alpha|^2) for s in (0,1)
        from gqi import GaussianState

        ns = 0.8
        pair = HypothesisPair(
            GaussianState(1, [2 * math.sqrt(ns), 0.0], np.eye(2)),
            GaussianState(1, np.zeros(2), np.eye(2)),
        )
        for s in (0.2, 0.5, 0.8):
            assert q_s(pair, s) == pytest.approx(math.exp(-ns), rel=1e-10)

    def test_coherent_bhattacharyya_closed_form(self):
        # known CI exponent: Q_1/2 = exp(-kappa ns (sqrt(nb+1) - sqrt(nb))^2)
        kappa, nb, ns = 0.01, 3.8e3, 2.0
        pair = make_hypotheses(
            ProbeSpec(kind=ProbeKind.COHERENT, ns=ns), TargetScenario(kappa, nb)
        )
        expected = math.exp(-kappa * ns * (math.sqrt(nb + 1) - math.sqrt(nb)) ** 2)
        assert q_s(pair, 0.5) == pytest.approx(expected, rel=1e-10)

    def test_rejects_s_out_of_range(self):
        with pytest.raises(ValidationError):
            q_s(_small_pair(), 1.2)

    @pytest.mark.parametrize("nb", [1e-3, 0.1, 1.0])
    def test_strongly_correlated_pair_near_the_ends_against_mpmath(self, nb):
        # The general 4x4 path lost 1.5e-9 to 6.4e-9 of 1 - Q here, at
        # s = 1 - 1e-6, to cancellation in its closed-form parts; the
        # standard-form core that q_s now takes keeps ~7e-12.
        mpmath = pytest.importorskip("mpmath")
        scenario = TargetScenario(0.5, nb)
        pair = make_hypotheses(ProbeSpec(kind=ProbeKind.TMSV, n0=10.0), scenario)
        with mpmath.workdps(80):
            q = mp_tmsv_q(10.0, scenario)
            for s in (1e-6, 1.0 - 1e-6):
                expected = q(mpmath.mpf(s))
                assert abs(q_s(pair, s) - expected) <= 1e-10 * (1 - expected)


class TestAgainstWilliamsonForm:
    # N_B = n0 makes the target-absent spectrum exactly degenerate, N_B = 0
    # gives a pure return mode and N_B = 1e-12, 1e-10 nearly pure ones. The
    # bound is 1e-9 relative on 1 - Q plus what either formula loses to
    # rounding, each term set against a 110-digit evaluation:
    #   32 ulps of 1: where 1 - Q ~ 1e-6, 1e-9 of it is ~4 ulps, and either
    #     formula alone moves Q by 1-4e-15;
    #   4 (1/det R_A + 1/det R_B) ulps, R = V scaled to unit diagonal: the
    #     closed-form spectrum cancels for strongly correlated modes, up to
    #     1.3 eps / det R (5e-9 of 1 - Q at n0 = 10, kappa = 0.5, s near 1,
    #     where the Williamson form keeps 1e-10);
    #   eps max|V| / N_B relative on 1 - Q: both formulas know the return
    #     mode's nu - 1 = 2 N_B only to ~eps max|V|. At N_B = 1e-10 and
    #     s < 0.1 the Williamson form is off by up to 1.3e-5, this one by
    #     up to 1.2e-6.
    # 18000 random draws over these ranges stayed within 0.6 of the bound.
    @given(
        n0=st.floats(0.0, 10.0),
        n1=st.floats(0.0, 1e3),
        n2=st.floats(0.0, 1e3),
        kappa=st.floats(1e-3, 0.9),
        noise=st.one_of(st.sampled_from(["degenerate", 0.0, 1e-12, 1e-10]),
                        st.floats(0.0, 1e3)),
        s=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_williamson_form(self, n0, n1, n2, kappa, noise, s):
        nb = n0 if noise == "degenerate" else noise
        pair = make_hypotheses(ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2),
                               TargetScenario(kappa, nb))
        expected = williamson_q_s(pair, s)
        if 1.0 - expected > 1e-6:
            covs = (pair.rho_a.cov, pair.rho_b.cov)
            rel = 1e-9
            if nb > 0.0:
                rel += EPS * max(np.abs(v).max() for v in covs) / nb
            ulps = 32 + 4 * sum(inv_det_r(v) for v in covs)
            assert abs(q_s(pair, s) - expected) <= (
                rel * (1.0 - expected) + ulps * EPS)

    @pytest.mark.parametrize("nb", [1e-12, 1e-10])
    def test_small_noise_is_not_pure(self, nb):
        # nu - 1 = 2 N_B lies far above the rounding of these covariances,
        # so it must reach G_p and Lambda_p: a 1e-9 snap made Q_s equal to
        # that of N_B = 0, 3.5e-3 (1e-12) and 8.7e-3 (1e-10) off in 1 - Q.
        # Both formulas stay within 2e-7 of a 110-digit evaluation here.
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=1.7, n1=0.1)
        pair = make_hypotheses(probe, TargetScenario(0.03, nb))
        pure = make_hypotheses(probe, TargetScenario(0.03, 0.0))
        for s in (0.2, 0.8):
            expected = williamson_q_s(pair, s, snap=False)
            bound = 1e-4 * (1.0 - expected)
            assert abs(q_s(pair, s) - expected) <= bound
            assert abs(q_s(pure, s) - expected) > 10 * bound

    def test_random_covariances(self, rng):
        # x-p correlated states, which no probe produces, and one mode
        for n_modes in (1, 2, 2, 2):
            for _ in range(10):
                mean = rng.normal(size=2 * n_modes)
                pair = HypothesisPair(
                    GaussianState(n_modes, mean, random_physical_cov(n_modes, rng)),
                    GaussianState(n_modes, -mean, random_physical_cov(n_modes, rng)),
                )
                for s in (0.0, 0.2, 0.5, 0.9, 1.0):
                    assert q_s(pair, s) == pytest.approx(
                        williamson_q_s(pair, s), rel=1e-10)

    def test_v_of_p_matches_williamson_form(self, rng):
        for _ in range(20):
            v = random_physical_cov(2, rng)
            dec = williamson(v)
            sm = dec.s_matrix.entries
            lam = np.repeat([lambda_func(0.3, nu) for nu in dec.spectrum], 2)
            np.testing.assert_allclose(v_of_p(v, 0.3), (sm * lam) @ sm.T,
                                       rtol=1e-10, atol=1e-12)


class TestRankDeficientPairs:
    # Both hypotheses carried by one two-mode squeezer S: Q_s is invariant,
    # so it factorises into single-mode thermal overlaps; a vacuum mode
    # (m = 0) makes rho_A rank-deficient. The bound is set by the squeezing:
    # the closed-form spectrum sums products of the blocks of V and loses
    # about eps (|V| / nu)^4, here ~5e-11.
    @pytest.mark.parametrize("s", [0.0, 1e-6, 0.3, 0.7, 1.0 - 1e-6, 1.0])
    @pytest.mark.parametrize("m1, m2, n1, n2", [
        (0.0, 2.0, 0.5, 3.0), (0.0, 0.0, 1.0, 0.2), (4.0, 0.0, 4.0, 0.5),
    ])
    def test_squeezed_thermal_closed_form(self, s, m1, m2, n1, n2):
        r = math.asinh(math.sqrt(5.0))
        z = np.diag([1.0, -1.0])
        sq = SymplecticMatrix(np.block([[math.cosh(r) * np.eye(2), math.sinh(r) * z],
                                        [math.sinh(r) * z, math.cosh(r) * np.eye(2)]]))

        def state(a, b):
            cov = np.diag(np.repeat([2 * a + 1, 2 * b + 1], 2))
            return apply_symplectic(GaussianState(2, np.zeros(4), cov), sq)

        pair = HypothesisPair(state(m1, m2), state(n1, n2))
        t = min(max(s, 1e-12), 1.0 - 1e-12)
        expected = thermal_q_s(m1, n1, t) * thermal_q_s(m2, n2, t)
        assert q_s(pair, s) == pytest.approx(expected, rel=2e-10)


def dense_scan(pair: HypothesisPair) -> float:
    """min of q_s over 4001 points of [0, 1], then over 4001 points between
    the neighbours of the best."""
    grid = np.linspace(0.0, 1.0, 4001)
    i = int(np.argmin([q_s(pair, s) for s in grid]))
    fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, 4000)], 4001)
    return min(q_s(pair, s) for s in fine)


class TestChernoffInfimum:
    def test_identical_states(self):
        pair = make_hypotheses(
            ProbeSpec(kind=ProbeKind.TMSV, n0=0.5), TargetScenario(0.0, 1.0)
        )
        _, q_min = chernoff_infimum(pair)
        assert q_min == pytest.approx(1.0, abs=1e-9)

    def test_undisplaced_coherent_pair(self):
        pair = make_hypotheses(
            ProbeSpec(kind=ProbeKind.COHERENT, ns=0.0), TargetScenario(0.3, 0.5)
        )
        _, q_min = chernoff_infimum(pair)
        assert q_min == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_scan(self):
        pair = make_hypotheses(
            ProbeSpec(kind=ProbeKind.COHERENT, ns=1.0),
            TargetScenario(kappa=0.01, nb=3.8e3),
        )
        s_star, q_min = chernoff_infimum(pair)
        scan = min(q_s(pair, s) for s in np.linspace(1e-9, 1 - 1e-9, 20001))
        assert q_min <= scan + 1e-15
        assert q_min == pytest.approx(scan, abs=1e-12)
        for probe, scenario in (
            (ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=1.2, n2=3.0),
             TargetScenario(kappa=0.01, nb=30.0)),
            (ProbeSpec(kind=ProbeKind.TMSV, n0=2.0),
             TargetScenario(kappa=0.2, nb=0.5)),
            # nb = 0: Q_s falls all the way to s = 0, so s* is the edge
            (ProbeSpec(kind=ProbeKind.TMSV, n0=1.0),
             TargetScenario(kappa=0.1, nb=0.0)),
            # 1 - Q ~ 3e-9, a few million ulps of Q
            (ProbeSpec(kind=ProbeKind.TMSV, n0=1.0),
             TargetScenario(kappa=0.01, nb=1e6)),
        ):
            pair = make_hypotheses(probe, scenario)
            _, q_min = chernoff_infimum(pair)
            scan = dense_scan(pair)
            assert q_min <= scan + 1e-15
            assert q_min == pytest.approx(scan, abs=1e-12)

    def test_search_is_below_a_dense_scan(self):
        # The two-scan search on the general path's float64 Q_s and on the
        # standard-form core's.
        pair = _small_pair()
        scan = dense_scan(pair)
        assert _PairData(pair).infimum()[1] <= scan + 1e-15
        assert chernoff_infimum(pair)[1] <= scan + 1e-15

    @pytest.mark.parametrize("scenario", [MICROWAVE, LOW_NOISE])
    @pytest.mark.parametrize("probe", [
        ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0),
        ProbeSpec(kind=ProbeKind.TMSV, n0=0.3),
        ProbeSpec(kind=ProbeKind.COHERENT, ns=2.0),
    ])
    def test_built_pair_has_the_answer_of_snr(self, probe, scenario):
        # One pair, one answer: the general 4x4 path put s* at 0.4999957
        # for the ASTM probe at MICROWAVE, snr at 0.4999992.
        result = snr(probe, scenario)
        assert chernoff_infimum(make_hypotheses(probe, scenario)) == (
            result.s_star, result.q_min)

    def test_swap_symmetry(self):
        pair = _small_pair()
        swapped = HypothesisPair(pair.rho_b, pair.rho_a)
        s1, q1 = chernoff_infimum(pair)
        s2, q2 = chernoff_infimum(swapped)
        assert q1 == pytest.approx(q2, abs=1e-10)
        assert s1 == pytest.approx(1.0 - s2, abs=1e-4)

    def test_below_midpoint_value(self):
        pair = _small_pair()
        _, q_min = chernoff_infimum(pair)
        assert q_min <= q_s(pair, 0.5) + 1e-15


class TestSnrInversion:
    def test_snr_zero_at_half(self):
        assert snr_from_log_p(math.log(0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_snr_one(self):
        log_p = math.log(0.5 * erfc(1.0))
        assert snr_from_log_p(log_p) == pytest.approx(1.0, rel=1e-10)

    @given(x=st.floats(0.001, 300.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_against_erfc(self, x):
        log_p = math.log(0.5 * erfc(math.sqrt(x)))
        assert snr_from_log_p(log_p) == pytest.approx(x, rel=1e-8)

    @given(x=st.floats(0.01, 1e5))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_log_domain(self, x):
        # valid far beyond the underflow point of erfc itself
        assert snr_from_log_p(log_p_from_snr(x)) == pytest.approx(x, rel=1e-8)

    def test_rejects_log_p_above_half(self):
        with pytest.raises(ValidationError):
            snr_from_log_p(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            snr_from_log_p(math.nan)
        with pytest.raises(ValidationError):
            log_p_from_snr(math.nan)

    def test_infinite_limits(self):
        assert snr_from_log_p(-math.inf) == math.inf
        assert log_p_from_snr(math.inf) == -math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_copies_whose_exponent_overflows(self):
        # M (-ln Q_min) = 5e311: ln P is -inf and the SNR inf, which the
        # parent returned after an overflow RuntimeWarning.
        result = snr(ProbeSpec(kind=ProbeKind.COHERENT, ns=1e300), TargetScenario(0.5, 0.0, 1e12))
        assert (result.log_error_prob, result.snr) == (-math.inf, math.inf)

    @pytest.mark.parametrize("log_p", [-math.ldexp(1.0, 1023), -1e308, -1.7e308])
    def test_log_p_whose_double_overflows(self, log_p):
        # -2 ln P overflowed in the starting guess, and the SNR came out NaN
        # (a coherent probe of N_S = 1e300 at kappa = 1e-4, N_B = 0 and
        # M = 1e12 reached it); it is -ln P to rounding there.
        assert snr_from_log_p(log_p) == -log_p
        assert log_p_from_snr(-log_p) == pytest.approx(log_p, rel=1e-15)

    def test_map_against_mpmath(self):
        # Forward on 3000 log-uniform x in [1e-12, 1e8]; inverse on the
        # float ln P of those with x > 1e-4 and on the ln P that M = 1e12
        # copies give at exponents 1e-14 to 1. Below x ~ 1e-4 the rounding
        # of ln P itself, ~eps / sqrt(x) of x, sets the inverse's error.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261019)
        xs = 10.0 ** rng.uniform(-12.0, 8.0, 3000)
        with mpmath.workdps(40):
            def exact(x):
                return mpmath.log(mpmath.erfc(mpmath.sqrt(x)) / 2)

            worst = max(abs(log_p_from_snr(x) / exact(x) - 1) for x in xs)
            assert worst <= 1e-15
            log_ps = [float(exact(x)) for x in xs if x > 1e-4]
            log_ps += [math.log(0.5) - 1e12 * e for e in np.geomspace(1e-14, 1.0, 200)]
            for log_p in log_ps:
                x = snr_from_log_p(log_p)
                root = mpmath.mpf(x)
                for _ in range(2):  # Newton at 40 digits from x
                    y = mpmath.sqrt(root)
                    slope = -mpmath.exp(-root) / (mpmath.sqrt(mpmath.pi) * y * mpmath.erfc(y))
                    root -= (exact(root) - log_p) / slope
                assert abs(x / root - 1) <= 2e-14, log_p


class TestLogErrorProb:
    def test_matches_direct_formula(self):
        assert log_error_prob(0.9, 100.0) == pytest.approx(
            100 * math.log(0.9) - math.log(2), rel=1e-12
        )

    def test_stable_near_one(self):
        q = 1.0 - 1e-12
        assert log_error_prob(q, 1e7) == pytest.approx(
            1e7 * math.log1p(-1e-12) - math.log(2), rel=1e-9
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            log_error_prob(0.0, 10.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n0", [1e12, 1e14, 1e20])
    def test_small_q_min_keeps_its_exponent(self, n0):
        # The batch took -log1p(Q - 1) at any Q: Q - 1 rounds away the
        # digits of a small Q (6.1e-10 and 1.5e-7 of the exponent at n0 =
        # 1e12 and 1e14), and all of Q = 1e-20, whose exponent read inf.
        probe, scenario = ProbeSpec(kind=ProbeKind.TMSV, n0=n0), TargetScenario(0.5, 0.0, 1e7)
        result = snr(probe, scenario)
        exponent = -(result.log_error_prob - math.log(0.5)) / scenario.ensembles
        expected = -math.log(q_s(make_hypotheses(probe, scenario), result.s_star))
        assert exponent == pytest.approx(expected, rel=1e-12)
        assert result.q_min > 0.0 and math.isfinite(result.snr)

    @pytest.mark.parametrize("ensembles", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_copy_count(self, ensembles):
        # M = -1 gave ln P = -0.588, above ln(1/2); NaN gave NaN.
        with pytest.raises(ValidationError, match="ensembles"):
            log_error_prob(0.9, ensembles)


def mp_tmsv_q(n0: float, scenario: TargetScenario):
    """Q_s of a TMSV pair, as a function of an mpmath s (oracle).

    rho_A = [[a I, c Z], [c Z, b I]] with Z = diag(1, -1) is a two-mode
    squeezer S with cosh 2r = (a+b)/y, sinh 2r = 2c/y on thermal modes
    nu = (y +- (a - b))/2, y = sqrt((a+b)^2 - 4c^2); rho_B = diag(t I, b I)
    is already in Williamson form. Then V_A(s) = S Lambda_s(D) S^T keeps the
    block form, and Sigma_s = [[x I, z Z], [z Z, w I]] has det (x w - z^2)^2.
    Evaluates at the working precision of the caller.
    """
    mpmath = pytest.importorskip("mpmath")
    n0, kappa, nb = (mpmath.mpf(v) for v in (n0, scenario.kappa, scenario.nb))
    a = kappa * (2 * n0 + 1) + 2 * nb + 1 - kappa
    b = 2 * n0 + 1
    c = mpmath.sqrt(kappa) * 2 * mpmath.sqrt(n0 * (n0 + 1))
    t = 2 * nb + 1
    y = mpmath.sqrt((a + b) ** 2 - 4 * c**2)
    nu1, nu2 = (y + a - b) / 2, (y - a + b) / 2
    ch, sh = (a + b) / y, 2 * c / y

    def diff(p, x):
        return (x + 1) ** p - (x - 1) ** p

    def lam(p, x):
        return ((x + 1) ** p + (x - 1) ** p) / diff(p, x)

    def q(s):
        l1, l2 = lam(s, nu1), lam(s, nu2)
        x = l1 * (1 + ch) / 2 + l2 * (ch - 1) / 2 + lam(1 - s, t)
        w = l1 * (ch - 1) / 2 + l2 * (1 + ch) / 2 + lam(1 - s, b)
        z = (l1 + l2) * sh / 2
        g = 4 / (diff(s, nu1) * diff(s, nu2) * diff(1 - s, t) * diff(1 - s, b))
        return 4 * g / (x * w - z * z)

    return q


def mp_tmsv_snr(n0: float, scenario: TargetScenario, dps: int = 40) -> float:
    """SNR of a TMSV probe at dps digits, independently of gqi (oracle).

    A golden-section search over s finds the infimum of the convex
    Q_s of mp_tmsv_q.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        q = mp_tmsv_q(n0, scenario)
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        golden = (mpmath.sqrt(5) - 1) / 2
        while hi - lo > mpmath.mpf(10) ** -15:
            s1, s2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
            lo, hi = (lo, s2) if q(s1) < q(s2) else (s1, hi)
        m = mpmath.mpf(scenario.ensembles)
        log_p = m * mpmath.log(q((lo + hi) / 2)) - mpmath.log(2)
        return float(mpmath.findroot(
            lambda v: mpmath.log(mpmath.erfc(mpmath.sqrt(v)) / 2) - log_p, -log_p))


class TestSnrPipeline:
    @pytest.mark.parametrize("n0", [1.0, 1e4])
    def test_strongly_squeezed_tmsv_against_mpmath(self, n0):
        # The n0 = 1e4 probe reads its pure spectrum as 1 - 3.7e-8: the
        # pair must still be built, and its SNR stay exact.
        result = snr(ProbeSpec(kind=ProbeKind.TMSV, n0=n0), LOW_NOISE)
        assert result.snr == pytest.approx(mp_tmsv_snr(n0, LOW_NOISE), rel=1e-9)

    @pytest.mark.parametrize("n0, nb", [(1.0, 1e7), (0.1, 1e6)])
    def test_high_noise_tmsv_against_mpmath(self, n0, nb):
        # 1 - Q ~ 4e-10: float64 Q_s near s* differs by a few ulps, so the
        # best scan point alone leaves ~1e-7 of the SNR.
        scenario = TargetScenario(0.01, nb, 1e12)
        result = snr(ProbeSpec(kind=ProbeKind.TMSV, n0=n0), scenario)
        assert result.snr == pytest.approx(mp_tmsv_snr(n0, scenario, dps=50), rel=1e-8)

    def test_microwave_tmsv_operating_point(self):
        result = snr(
            ProbeSpec(kind=ProbeKind.TMSV, n0=1.0),
            TargetScenario(kappa=0.01, nb=3.8e3, ensembles=1e7),
        )
        assert result.snr == pytest.approx(7.0, rel=0.10)
        assert result.log_error_prob == pytest.approx(
            1e7 * math.log(result.q_min) - math.log(2), rel=1e-9
        )
        assert log_p_from_snr(result.snr) == pytest.approx(
            result.log_error_prob, rel=1e-8
        )

    def test_snr_monotone_in_signal_squeezing(self):
        scenario = TargetScenario(kappa=0.01, nb=3.8e3, ensembles=1e7)
        values = [
            snr(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=n1), scenario).snr
            for n1 in (0.0, 0.5, 1.0, 2.0, 3.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n0, n1, expected", [
        (0.6, 1.0, 16.223446923856670511),  # 50-digit values
        (1.4, 0.0, 10.06955345956105121),
    ])
    def test_microwave_snr_to_rounding(self, n0, n1, expected):
        # 1 - Q ~ 1e-7 here, so every ulp of Q is ~1e-9 of the SNR; the
        # determinant of Sigma' needs its diagonal scaling to keep them
        # (without it: 1.6e-9 off at both points)
        result = snr(ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1), MICROWAVE)
        assert result.snr == pytest.approx(expected, rel=2e-10)

    def test_strong_idler_squeezing_has_no_effect(self):
        values = [
            snr(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0, n2=n2), MICROWAVE).snr
            for n2 in (0.0, 1e6)
        ]
        assert values[1] == pytest.approx(values[0], rel=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "_standard snaps a mode to pure within 256 eps (max|V| + 1/det R); a "
        "1e6-photon idler squeezer makes max|V| ~ 1e7 and snaps the mixed "
        "return mode (ROADMAP item 7)"))
    def test_strong_idler_squeezing_at_low_noise(self):
        # The 50-digit reference (perfbench/reference.py) gives
        # 282.344474187836 here, as does n2 = 0; the core returns 284.926
        # with s* = 0.967, 0.9% off and with no error.
        result = snr(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0, n2=1e6),
                     TargetScenario(0.1, 1e-7, 1e3))
        assert result.snr == pytest.approx(282.344474187836, rel=1e-9)

    def test_idler_squeezing_has_no_effect(self):
        scenario = TargetScenario(kappa=0.01, nb=3.8e3, ensembles=1e7)
        values = [
            snr(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n2=n2), scenario).snr
            for n2 in (0.0, 1.0, 2.0, 4.0)
        ]
        spread = (max(values) - min(values)) / values[0]
        assert spread < 1e-6


def mp_coherent_snr(ns: float, scenario: TargetScenario, dps: int = 50) -> float:
    """SNR of the coherent benchmark from its closed-form exponent (oracle)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        kappa, nb, m = (mpmath.mpf(v) for v in (
            scenario.kappa, scenario.nb, scenario.ensembles))
        exponent = kappa * ns * (mpmath.sqrt(nb + 1) - mpmath.sqrt(nb)) ** 2
        log_p = -m * exponent - mpmath.log(2)
        # ln[(1/2) erfc(sqrt(x))] falls from ln(1/2) at 0 to below log_p
        # at -log_p, so the root is bracketed there.
        return float(mpmath.findroot(
            lambda v: mpmath.log(mpmath.erfc(mpmath.sqrt(v)) / 2) - log_p,
            (mpmath.mpf(0), -log_p), solver="illinois"))


point = st.tuples(
    st.floats(0.0, 10.0), st.floats(0.0, 1e3), st.floats(0.0, 1e3),
    st.floats(1e-3, 0.9), st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    st.booleans())


# Points for one point against its batch row: both probe kinds of the
# standard-form core and coherent ones, with the edges of the core: nb = 0,
# where s* sits on the boundary and the return mode of rho_B is pure (a
# snap); n0 = 0, a product probe whose rho_B at nb = 0 has no gap to split;
# and n0 = 1e300, whose entries overflow.
mixed_point = st.tuples(
    st.sampled_from([ProbeKind.ASTM, ProbeKind.TMSV, ProbeKind.COHERENT]),
    st.one_of(st.just(0.0), st.just(1e300), st.floats(0.0, 1e4)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e8)),
    st.floats(1e-4, 0.99),
    st.one_of(st.just(0.0), st.floats(0.0, 1e8)),
    st.sampled_from([1.0, 1e6, 1e12]))


def outcome(call, *args) -> tuple:
    """("ok", what call returns) or ("error", the ValidationError's text)."""
    try:
        return "ok", call(*args)
    except ValidationError as err:
        return "error", str(err)


def standard_entries_of(probes, scenarios) -> tuple:
    """The (6, n) entries of rho_A and rho_B that discriminate_many builds."""
    n0, n1, n2 = (np.array([getattr(p, k) for p in probes]) for k in ("n0", "n1", "n2"))
    kappa, nb = (np.array([getattr(sc, k) for sc in scenarios]) for k in ("kappa", "nb"))
    with np.errstate(all="ignore"):
        entries = _probe_entries(n0, n1, n2)
        return (np.array(_return_entries(entries, kappa, nb)),
                np.array(_absent_entries(entries, nb)))


class TestDiscriminateMany:
    # Each point of one batch against the general 4x4 path of gqi.reference
    # on its pair (not the routed chernoff_infimum, which is the batch), with
    # the bound of TestAgainstWilliamsonForm: the batched Q_min is
    # evaluated in np.longdouble, so the general path's own rounding sets it.
    @given(points=st.lists(point, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_general_path(self, points):
        probes, scenarios = [], []
        for n0, n1, n2, kappa, nb, coherent in points:
            probes.append(ProbeSpec(kind=ProbeKind.COHERENT, ns=n0) if coherent
                          else ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2))
            scenarios.append(TargetScenario(kappa, nb, 1e6))
        for probe, scenario, result in zip(
                probes, scenarios, discriminate_many(probes, scenarios)):
            pair = make_hypotheses(probe, scenario)
            _, expected = _PairData(pair).infimum()
            covs = (pair.rho_a.cov, pair.rho_b.cov)
            rel = 1e-9
            if scenario.nb > 0.0:
                rel += EPS * max(np.abs(v).max() for v in covs) / scenario.nb
            ulps = 32 + 4 * sum(inv_det_r(v) for v in covs)
            assert abs(result.q_min - expected) <= rel * (1.0 - expected) + ulps * EPS
            assert result.log_error_prob <= math.log(0.5)
            assert log_p_from_snr(result.snr) == pytest.approx(
                result.log_error_prob, rel=1e-9, abs=1e-12)

    def test_bad_point_does_not_fail_the_batch(self):
        probes = [ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=0.5),
                  ProbeSpec(kind=ProbeKind.TMSV, n0=1e300),  # overflows
                  ProbeSpec(kind=ProbeKind.COHERENT, ns=2.0),
                  ProbeSpec(kind=ProbeKind.COHERENT, ns=2.0)]
        scenarios = [MICROWAVE, MICROWAVE, MICROWAVE, TargetScenario(0.01, 1e308)]
        results = discriminate_many(probes, scenarios)
        assert isinstance(results[1], ValidationError)
        assert "non-finite" in str(results[1])
        assert isinstance(results[3], ValidationError)
        for i in (0, 2):
            assert results[i] == snr(probes[i], scenarios[i])
        with pytest.raises(ValidationError, match="non-finite"):
            snr(probes[1], MICROWAVE)

    def test_empty_batch(self):
        assert discriminate_many([], []) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_spectrum_per_batch(self, monkeypatch):
        # A rejected pair stays in the batch and its result is dropped: the
        # spectrum was computed again for the pairs that passed, and the
        # rejected pair's numbers raised no RuntimeWarning either way.
        calls = []
        spectrum = chernoff.standard_form_spectrum

        def spy(entries):
            calls.append(np.shape(entries))
            return spectrum(entries)

        monkeypatch.setattr(chernoff, "standard_form_spectrum", spy)
        probes = [ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=0.5),
                  ProbeSpec(kind=ProbeKind.TMSV, n0=1e300),
                  ProbeSpec(kind=ProbeKind.TMSV, n0=2.0)]
        scenarios = [MICROWAVE, MICROWAVE, TargetScenario(0.01, 1e308)]
        results = discriminate_many(probes, scenarios)
        assert calls == [(6, 6)]
        assert [isinstance(r, ValidationError) for r in results] == [False, True, True]
        assert results[0] == snr(probes[0], scenarios[0])

    @given(points=st.lists(point, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_one_point_builds_the_entries_of_a_batch(self, points):
        # One two-mode point is built from floats and handed over as floats,
        # a batch from arrays; the core must receive the same entries from
        # both, bit for bit.
        seen = []
        core = chernoff._discriminate_standard

        def spy(ent_a, ent_b, ensembles):
            if not isinstance(ent_a, np.ndarray):
                assert not isinstance(ent_b, np.ndarray) and len(ent_a) == len(ent_b) == 6
            seen.append(np.vstack([np.reshape(np.array(v, dtype=float), (-1, len(ensembles)))
                                   for v in (ent_a, ent_b, ensembles)]))
            return core(ent_a, ent_b, ensembles)

        probes = [ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
                  for n0, n1, n2, *_ in points]
        scenarios = [TargetScenario(kappa, nb, 1e6) for *_, kappa, nb, _ in points]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chernoff, "_discriminate_standard", spy)
            discriminate_many(probes, scenarios)
            for probe, scenario in zip(probes, scenarios):
                discriminate_many([probe], [scenario])
        batch, *alone = seen
        np.testing.assert_array_equal(np.concatenate(alone, axis=1), batch)

    @given(points=st.lists(mixed_point, min_size=2, max_size=8))
    @example(points=[
        (ProbeKind.ASTM, 0.0, 0.0, 0.0, 0.5, 0.0, 1e6),  # no gap to split, s* = _S_EDGE
        (ProbeKind.TMSV, 1.0, 0.0, 0.0, 0.1, 0.0, 1e6),  # nu_- of rho_A snaps to 1
        (ProbeKind.ASTM, 1e300, 0.0, 0.0, 0.5, 1.0, 1e6),  # entries overflow
        (ProbeKind.COHERENT, 1.0, 0.0, 0.0, 0.01, 3.8e3, 1e7),
        (ProbeKind.ASTM, 1.0, 1.0, 0.0, 0.01, 3.8e3, 1e7)])
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_one_point_is_its_row_of_a_batch(self, points):
        # snr, discriminate, chernoff_infimum and q_s of one point give the
        # bits of its row in a batch: the result under ==, or the same
        # ValidationError text.
        probes, scenarios = [], []
        for kind, n0, n1, n2, kappa, nb, m in points:
            if kind is ProbeKind.COHERENT:
                probes.append(ProbeSpec(kind=kind, ns=n0))
            else:
                squeezed = kind is ProbeKind.ASTM
                probes.append(ProbeSpec(kind=kind, n0=n0, n1=n1 * squeezed, n2=n2 * squeezed))
            scenarios.append(TargetScenario(kappa, nb, m))
        rows = discriminate_many(probes, scenarios)
        for probe, scenario, row in zip(probes, scenarios, rows):
            expected = outcome(chernoff._one, row)
            assert outcome(snr, probe, scenario) == expected
            if probe.kind is ProbeKind.COHERENT:
                continue  # a built coherent pair forms |d|^2/4 from its means
            try:
                pair = make_hypotheses(probe, scenario)
            except ValidationError:
                continue  # rejected before the core, as the batch row was
            assert outcome(discriminate, pair, scenario.ensembles) == expected
            assert outcome(chernoff_infimum, pair) == (
                expected if expected[0] == "error" else ("ok", (row.s_star, row.q_min)))
        two_mode = [i for i, p in enumerate(probes) if p.kind is not ProbeKind.COHERENT]
        if not two_mode:
            return
        ent_a, ent_b = standard_entries_of(
            [probes[i] for i in two_mode], [scenarios[i] for i in two_mode])
        with np.errstate(all="ignore"):
            errors, batch = chernoff._standard(ent_a, ent_b)
            s = np.array([[0.3]], dtype=np.longdouble)
            batch_q = batch.q(np.repeat(s, len(two_mode), axis=0))[:, 0]
        for col, i in enumerate(two_mode):
            with np.errstate(all="ignore"):
                one_errors, one = chernoff._standard(tuple(ent_a[:, col]), tuple(ent_b[:, col]))
            assert one_errors == [errors[col]]
            if errors[col]:
                continue
            for name in ("ln_r", "dual", "ln_g", "ln_ratio"):
                a, b = getattr(one, name)[0], getattr(batch, name)[col]
                assert np.array_equal(a, b, equal_nan=True), name
                assert np.array_equal(np.signbit(a), np.signbit(b)), name
            try:
                pair = make_hypotheses(probes[i], scenarios[i])
            except ValidationError:
                continue
            good = np.isfinite(batch_q[col]) and batch_q[col] > 0.0
            assert outcome(q_s, pair, 0.3) == (outcome(lambda: float(batch_q[col])) if good
                                                else ("error", chernoff._SINGULAR))

    @pytest.mark.parametrize("nb", [30.0, 3.8e3, 1e6, 1e8, 1e10])
    def test_coherent_snr_against_closed_form(self, nb):
        # -ln Q goes from the closed form straight into ln P; the SNR at
        # N_B = 1e10 was 5.4e-3 off when it went through Q_min.
        scenario = TargetScenario(0.01, nb, 1e12)
        result = snr(ProbeSpec(kind=ProbeKind.COHERENT, ns=2.0), scenario)
        assert result.s_star == 0.5
        assert result.snr == pytest.approx(mp_coherent_snr(2.0, scenario), rel=1e-9)

    @pytest.mark.parametrize("probe", [
        ProbeSpec(kind=ProbeKind.ASTM, n0=0.5, n1=1.2, n2=0.3),
        ProbeSpec(kind=ProbeKind.TMSV, n0=2.0),
    ])
    def test_pair_in_standard_form_takes_the_batched_path(self, probe):
        scenario = TargetScenario(0.05, 12.0, 1e6)
        assert discriminate(make_hypotheses(probe, scenario), 1e6) == snr(probe, scenario)

    @pytest.mark.parametrize("ensembles", [0.0, -1.0, math.nan, math.inf])
    def test_discriminate_rejects_bad_copy_count(self, ensembles):
        pair = make_hypotheses(ProbeSpec(kind=ProbeKind.TMSV, n0=1.0), MICROWAVE)
        with pytest.raises(ValidationError, match="ensembles"):
            discriminate(pair, ensembles)

    def test_coherent_pair_takes_the_closed_form(self):
        probe = ProbeSpec(kind=ProbeKind.COHERENT, ns=1.5)
        scenario = TargetScenario(0.05, 12.0, 1e6)
        result = discriminate(make_hypotheses(probe, scenario), 1e6)
        expected = snr(probe, scenario)
        assert result.s_star == 0.5
        assert result.snr == pytest.approx(expected.snr, rel=1e-14)

    def test_other_pairs_take_the_general_path(self, rng):
        for n_modes in (1, 2):
            pair = HypothesisPair(
                GaussianState(n_modes, np.zeros(2 * n_modes),
                              random_physical_cov(n_modes, rng)),
                GaussianState(n_modes, np.zeros(2 * n_modes),
                              random_physical_cov(n_modes, rng)))
            s_star, q_min = chernoff_infimum(pair)
            result = discriminate(pair, 10.0)
            assert (result.s_star, result.q_min) == (s_star, q_min)

    def test_nearly_product_pair_on_the_general_path(self):
        # rho_A of TMSV n0 = 1e-9 at kappa = 0.5, N_B = 0 is nearly a product
        # state (nu_+ - 1 = 1e-9, nu_- = 1). Formed as det C (det A + det B)
        # + tr(A J C J B J C^T J), u cancelled to 0, which put 1 - Q near
        # s = 0 at 7.5e-10. At 120 digits it is 5.0e-10 there and
        # 5.43035402e-10 at s = 0.47.
        pair = make_hypotheses(ProbeSpec(kind=ProbeKind.TMSV, n0=1e-9),
                               TargetScenario(0.5, 0.0, 1e6))
        one_minus_q = 1.0 - _PairData(pair).q(np.array([1e-12, 0.47]))
        np.testing.assert_allclose(one_minus_q, [5.0e-10, 5.43035402045e-10], rtol=1e-6)

    def test_underflow_on_the_general_path_is_named(self):
        # -ln Q ~ 2500: Q_min is 0.0 in float64, which log_error_prob
        # rejected as "q_min must lie in (0, 1], got 0.0".
        pair = HypothesisPair(
            GaussianState(1, np.array([100.0, 0.0]), np.diag([2.0, 0.6])),
            GaussianState(1, np.zeros(2), np.diag([1.5, 1.0])))
        s_star, _ = chernoff_infimum(pair)
        with pytest.raises(ValidationError,
                           match=f"underflows to 0 at s\\* = {s_star:.6g}$"):
            discriminate(pair, 10.0)

    def test_microwave_table_against_mpmath(self):
        # The fig2b_n1_0 table (TMSV, N0 = 0.1..2 at MICROWAVE), each SNR
        # against the 50-digit infimum. Q evaluated in float64 left 2.7e-9
        # at N0 = 0.1; evaluated in np.longdouble at the s* of a six-round
        # zoom it left 1.8e-10, at that of the two-scan search 2.7e-12.
        table = sweep("n0", np.linspace(0.1, 2.0, 20),
                      ProbeSpec(kind=ProbeKind.ASTM, n1=0.0), MICROWAVE)
        worst = max(abs(row.snr / mp_tmsv_snr(row.n0, MICROWAVE, dps=50) - 1.0)
                    for row in table.rows)
        assert worst <= 2e-11
