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
    reproduce_figure,
    snr,
    snr_from_log_p,
    sweep,
    symplectic_form,
)
from gqi import chernoff
from gqi.chernoff import discriminate, discriminate_many
from gqi.probes import (HypothesisPair, _absent_entries, _probe_entries, _return_entries,
                        _two_mode_cov, tmsv_state)
from gqi.chernoff import _PairData
from gqi.symplectic import _MODE_ROUNDING, _ROUNDING_ULPS
from oracles import (SymplecticMatrix, apply_symplectic, g_func, lambda_func, v_of_p,
                     williamson)


EPS = np.finfo(float).eps


def general(pair: HypothesisPair) -> _PairData:
    """The general analysis of a pair as it is written, in no other frame."""
    return _PairData(pair.rho_a.cov, pair.rho_b.cov, pair.rho_a.mean - pair.rho_b.mean)


def general_infimum(pair: HypothesisPair) -> tuple[float, float]:
    """(s*, Q_min) of the pair's general analysis (_PairData), whatever its
    form, through the search and tail that every analysis shares."""
    with np.errstate(all="ignore"):
        result = chernoff._one(chernoff._discriminate([None], general(pair), 1.0)[0])
    return result.s_star, result.q_min


def pure_modes(n0: float, n1: float, nb: float) -> tuple[int, int]:
    """How many modes of rho_A and of rho_B of a built ASTM pair its
    parameters make pure. rho_A is pure in its smaller mode exactly where
    D = (nu_+^2 - 1)(nu_-^2 - 1) = 16 N_B n0 (n0 + 1) (N_B + 1 - kappa) is
    0, and in its return mode too where n0 = N_B = n1 = 0 (vacuum in,
    vacuum out); rho_B's return mode is pure at N_B = 0, its idler at n0 = 0."""
    return (int(nb == 0.0 or n0 == 0.0) + int(n0 == nb == n1 == 0.0),
            int(nb == 0.0) + int(n0 == 0.0))


def williamson_q_s(pair: HypothesisPair, s: float, pure: tuple = (0, 0)) -> float:
    """Q_s from the Williamson form of both covariances at one s (oracle).

    The pure[k] smallest eigenvalues of state k (rho_A, rho_B) are set to
    exactly 1: the modes the parameters make pure (pure_modes), whatever
    their rounding. The others keep their nu - 1, however small, but for
    g_func/lambda_func's own 1e-14. Sigma_s is
    factored as V_A(s) (V_A(s)^-1 + V_B(1-s)^-1) V_B(1-s), with
    V(p)^-1 = (Omega S) Lambda_p^-1 (Omega S)^T: at the ends of [0, 1] a
    Lambda_p ~ 1e12 next to a pure mode's 1 costs the sum V_A + V_B
    itself up to 8e-4 of Q.
    """
    s = min(max(s, 1e-12), 1.0 - 1e-12)
    value, dual, inverses = 2.0 ** pair.n_modes, 0.0, []
    omega = symplectic_form(pair.n_modes)
    for state, p, k in ((pair.rho_a, s, pure[0]), (pair.rho_b, 1.0 - s, pure[1])):
        dec = williamson(state.cov)
        nu = dec.spectrum.copy()  # descending
        nu[nu.size - k:] = 1.0
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

    @pytest.mark.parametrize("s", ["0.5", None])
    def test_rejects_s_that_is_not_a_number(self, s):
        # Both raised TypeError from the range check.
        with pytest.raises(ValidationError, match="s must be a real number"):
            q_s(_small_pair(), s)

    # Where the analysis cannot give Q_s as a finite positive number, q_s
    # raises rather than return it: here at s = 1 - 1e-12, against a nearly
    # pure return mode.
    def test_singular_sum_raises_on_the_standard_analysis(self):
        pair = make_hypotheses(ProbeSpec(kind=ProbeKind.ASTM, n0=2e9, n1=0.05, n2=0.002),
                               TargetScenario(0.6, 6e-8))
        with pytest.raises(ValidationError, match="V_A\\(s\\) \\+ V_B\\(1-s\\) is singular"):
            q_s(pair, 1.0 - 1e-12)

    def test_singular_sum_raises_on_the_general_analysis(self):
        # A phase on mode 1 and then a 50:50 beam splitter on both
        # hypotheses: no local frame takes both states to standard form, so
        # the pair keeps the general analysis, whose sum has a determinant
        # <= 0 at the ends of s. The standard analysis of the untouched
        # pair reads Q_s = 0.99999928 at s = 1 - 1e-12.
        pair = make_hypotheses(ProbeSpec(kind=ProbeKind.ASTM, n0=1e3, n1=1e3, n2=1e5),
                               TargetScenario(0.15, 0.1))
        with pytest.raises(ValidationError, match="is singular"):
            q_s(beam_split(pair, 1.0), 1.0 - 1e-12)

    def test_turned_pair_gets_the_answer_of_the_untouched_one(self):
        # PR 27's pair turned by 0.3 rad on mode 1. The general analysis
        # read its Q_s 5e4x too high near s = 0 and singular near s = 1, and
        # raised; the local frame turns it back to standard form. Turning
        # the pair there and back rounds its float64 entries, which moved
        # Q_min by 4.8e-8 when the known 0.3 rad was undone by hand.
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=7e4, n1=1e4, n2=0.002)
        scenario = TargetScenario(0.4, 2e-7, 1e6)
        pair = make_hypotheses(probe, scenario)
        expected = snr(probe, scenario)
        result = assert_one_tail(turned(pair, 0.3), 1e6)
        assert result.s_star == expected.s_star == 1e-12
        assert result.q_min == pytest.approx(1.936857043283625e-05, rel=4.8e-8)
        assert result.snr == pytest.approx(expected.snr, rel=4.8e-8)
        for s in (1e-12, 0.3, 1.0 - 1e-12):
            assert q_s(turned(pair, 0.3), s) == pytest.approx(q_s(pair, s), rel=4.8e-8)

    def test_state_the_analysis_rejects_raises(self):
        # GaussianState reads this two-mode squeezed state's spectrum as
        # (1, 1) in float64 and accepts it; the np.longdouble analysis reads
        # its smaller symplectic eigenvalue as 1 - 1.17e-9, past the 1e-9
        # bound, and q_s raises the reason.
        a, b, c = 197.71215608717205, 197.7121560859988, 197.70962714144065
        rho = GaussianState(2, np.zeros(4), _two_mode_cov(a, a, b, b, c, -c))
        thermal = GaussianState(2, np.zeros(4), np.diag([3.0, 3.0, 2.0, 2.0]))
        for pair in (HypothesisPair(rho, thermal), HypothesisPair(thermal, rho)):
            with pytest.raises(ValidationError, match="physical-state condition"):
                q_s(pair, 0.5)

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
        expected = williamson_q_s(pair, s, pure_modes(n0, n1, nb))
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
            expected = williamson_q_s(pair, s)
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
        assert general_infimum(pair)[1] <= scan + 1e-15
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
    @pytest.mark.parametrize("call, name", [(snr_from_log_p, "log_p"), (log_p_from_snr, "snr")])
    @pytest.mark.parametrize("value", ["-1", None, 1j])
    def test_rejects_what_is_not_a_real_number(self, call, name, value):
        # Each raised TypeError from the range check.
        with pytest.raises(ValidationError, match=f"{name} must be a real number"):
            call(value)

    def test_snr_zero_at_half(self):
        # Newton stopped at sqrt(SNR) ~ 6e-33: SNR 3.8e-65, not 0.
        assert snr_from_log_p(math.log(0.5)) == 0.0

    def test_pair_whose_q_min_rounds_to_one(self):
        # Nothing reaches the receiver at kappa = 0: P = 1/2 and SNR 0.
        result = snr(ProbeSpec(kind=ProbeKind.ASTM, n0=100.0, n1=10.0),
                     TargetScenario(kappa=0.0, nb=0.0, ensembles=1e7))
        assert (result.q_min, result.log_error_prob, result.snr) == (1.0, math.log(0.5), 0.0)

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

    def test_strong_idler_squeezing_at_low_noise(self):
        # The 50-digit reference (perfbench/reference.py) gives
        # 282.344474187836 here, as does n2 = 0. A pure-mode tolerance that
        # grew with max|V| ~ 1e7 snapped the mixed return mode and read
        # 284.926 at s* = 0.967, 0.9% off and with no error.
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


def assert_dual_is_symmetric_parts(ent_a, ent_b, errors, dual):
    """Each column of a batch's dual field (six rows of four (n,) columns).
    A state with cross entries, against np.matmul of the 2x2 np.longdouble
    factors K P, K^T X, L P and L^T X, K from standard_form_spectrum and
    L = [[K_22, -K_12], [-K_21, K_11]]: the entries 11, 12, 22 of (M + M^T)
    0.5 / (g nu_k), or of (P + P) 0.5 / (2 nu_k) and (X + X) 0.5 / (2 nu_k)
    where the gap does not split. A product state (every rho_B; rho_A at
    n0 = 0 or kappa = 0), mode k in column k: p_k / nu_k and x_k / nu_k on
    the entries kk of the x and p blocks, nu_k = sqrt(x_k p_k) in
    np.longdouble. == takes -0 for +0."""
    n, dual = ent_a.shape[1], np.array(dual)
    entries = np.concatenate([ent_a, ent_b], axis=1).astype(np.longdouble)
    with np.errstate(all="ignore"):
        spec = chernoff.standard_form_spectrum(entries)
    for j in range(2 * n):  # the columns of rho_A, then of rho_B
        pair, state = j % n, j // n
        if errors[pair]:
            continue
        ax, ap, bx, bp, cx, cp = entries[:, j]
        if not (cx or cp):
            for mode, (x_k, p_k) in enumerate(((ax, ap), (bx, bp))):
                nu_k = np.sqrt(x_k * p_k)
                expected = np.zeros(6, dtype=np.longdouble)
                expected[2 * mode], expected[3 + 2 * mode] = p_k / nu_k, x_k / nu_k
                assert (dual[:, 2 * state + mode, pair] == expected).all(), (pair, state, mode)
            continue
        x, p = np.array([[ax, cx], [cx, bx]]), np.array([[ap, cp], [cp, bp]])
        k11, k12, k21, k22 = spec.k[:, j]
        k, l = np.array([[k11, k12], [k21, k22]]), np.array([[k22, -k12], [-k21, k11]])
        (hi, lo), g = spec.nu[:, j], spec.gap[j]
        split = g > chernoff._SPLIT_ULPS * (hi * hi)
        for mode, (proj, nu_k) in enumerate(((k, hi), (l, lo))):
            expected = []
            for right, left in ((p, proj), (x, proj.T)):
                if split:
                    m = np.matmul(left, right)
                    part = (m + m.T) * (0.5 / (g * nu_k))
                else:
                    part = (right + right) * (0.5 / (2.0 * nu_k))
                expected += [part[0, 0], part[0, 1], part[1, 1]]
            assert (dual[:, 2 * state + mode, pair] == expected).all(), (pair, state, mode)


# rho_B of a built pair, thermal noise N_B times the idler of a probe of n0
# photons squeezed by n2 (n1 does not reach it), and whether N_B = n0, where
# its return and idler modes have the same nu.
absent_state = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 1e8)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    st.booleans())


class TestProductParts:
    # Mode by mode against the two-mode analysis of the same np.longdouble
    # entries. Where the latter splits the modes, its projectors are exact
    # (K is diagonal), and nu and every part agree to PART_ULPS ulps of
    # np.longdouble; mode k is the column whose part sits on entry kk.
    # Where it does not split (nu_1^2 and nu_2^2 within 64 ulps), it gives
    # each column half of P / nu and X / nu, so only the sums over the two
    # columns compare: to half the nu gap it ignores, 16 ulps, plus
    # rounding.
    PART_ULPS = 4
    UNSPLIT_ULPS = 24

    @given(state=absent_state)
    @example(state=(0.0, 0.0, 0.0, False))  # vacuum times vacuum: both modes pure
    @example(state=(1.0, 1.0, 0.0, False))  # nu = 3 on both modes, no gap
    @example(state=(1.0, 1.0, 3.0, False))  # nu = 3 but for the idler squeezer's rounding
    @example(state=(1e8, 1e4, 1e6, False))
    @example(state=(30.0, 0.0, 1e6, False))  # n0 = 0: the idler is pure
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_two_mode_analysis(self, state):
        nb, n0, n2, equal = state
        entries = [np.longdouble(v) for v in _absent_entries(
            _probe_entries(n0, 0.0, n2), n0 if equal else nb)]
        spec = chernoff.standard_form_spectrum(entries)
        assert spec.errors == [None]
        nu_two, two = chernoff._state_parts(entries, spec)
        nu_modes, modes = chernoff._product_parts(entries[:4])
        eps = np.finfo(np.longdouble).eps

        def close(a, b, ulps):
            return abs(a - b) <= ulps * eps * abs(b)

        # Pure modes snap alike.
        assert sorted(nu == 1.0 for nu in nu_two) == sorted(nu == 1.0 for nu in nu_modes)
        (hi, _), gap = spec.nu, spec.gap
        if gap > chernoff._SPLIT_ULPS * (hi * hi):
            order = (0, 1) if two[0][0] else (1, 0)  # the mode of rho_B's nu_+, then nu_-
            for column, mode in enumerate(order):
                assert close(nu_two[column], nu_modes[mode], self.PART_ULPS), (column, mode)
                for i in range(6):
                    assert close(two[i][column], modes[i][mode], self.PART_ULPS), (column, mode, i)
        else:
            # Each nu to rounding, the larger against nu_+: the gap ignored
            # lies between the two nu, up to 32 ulps.
            for nu, nu_k in zip(sorted(nu_modes, reverse=True), nu_two):
                assert close(nu, nu_k, self.PART_ULPS)
            for i in range(6):
                assert close(two[i][0] + two[i][1], modes[i][0] + modes[i][1],
                             self.UNSPLIT_ULPS), i

    def test_mode_order(self):
        # Return mode first, idler second, whichever nu is larger.
        x1, p1, x2, p2 = (np.longdouble(v) for v in (3.0, 3.0, 2.0, 8.0))
        (nu1, nu2), parts = chernoff._product_parts([x1, p1, x2, p2])
        assert (nu1, nu2) == (3.0, 4.0)
        # Rows x11, x12, x22, p11, p12, p22 of dual, each [mode 1, mode 2].
        assert parts == [[1.0, 0.0], [0.0, 0.0], [0.0, 2.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.5]]


def transformed(pair: HypothesisPair, m: np.ndarray) -> HypothesisPair:
    """The pair with the symplectic m applied to both states: the same Q_s."""
    return HypothesisPair(*(GaussianState(2, m @ v.mean, m @ v.cov @ m.T)
                            for v in (pair.rho_a, pair.rho_b)))


def turned(pair: HypothesisPair, angle: float, mode: int = 1) -> HypothesisPair:
    """pair with one mode of both states turned by angle in phase space: the
    same Q_s, with x-p correlations that a local frame (chernoff._frame)
    turns back to standard form."""
    c, s = math.cos(angle), math.sin(angle)
    rot, k = np.eye(4), 2 * mode - 2
    rot[k:k + 2, k:k + 2] = [[c, -s], [s, c]]
    return transformed(pair, rot)


def beam_split(pair: HypothesisPair, angle: float, t2: float = 0.5) -> HypothesisPair:
    """pair with mode 1 turned by angle, then both modes mixed by a beam
    splitter of transmissivity t2: the same Q_s, with x-p correlations
    between the modes that no local frame removes."""
    t, r = math.sqrt(t2), math.sqrt(1.0 - t2)
    return transformed(turned(pair, angle), np.kron([[t, r], [-r, t]], np.eye(2)))


def assert_one_tail(pair: HypothesisPair, ensembles: float):
    """chernoff_infimum and discriminate of a pair give one s* and Q_min,
    and ln P and the SNR follow from Q_min as log_error_prob and
    snr_from_log_p say. ln P comes from -ln Q_min before Q_min is formed as
    exp(-(-ln Q_min)), which rounds it by up to (|ln Q_min| + 1) eps.
    Returns the result."""
    result = discriminate(pair, ensembles)
    assert chernoff_infimum(pair) == (result.s_star, result.q_min)
    expected = log_error_prob(result.q_min, ensembles)
    bound = 2.0 * EPS * (ensembles * (abs(math.log(result.q_min)) + 1.0) + abs(expected))
    assert abs(result.log_error_prob - expected) <= bound
    assert result.snr == snr_from_log_p(result.log_error_prob)
    return result


class TestDiscriminateMany:
    # Each point of one batch against the general 4x4 path of gqi.reference
    # on its pair (not the routed chernoff_infimum, which is the batch), with
    # the bound of TestAgainstWilliamsonForm: the batched Q_min is
    # evaluated in np.longdouble, so the general path's own rounding sets it.
    @given(points=st.lists(point, min_size=1, max_size=8))
    @example(points=[(0.0, 1e-12, 6.0, 0.5, 0.0, False)])  # a nearly pure return mode
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
            _, expected = general_infimum(pair)
            covs = (pair.rho_a.cov, pair.rho_b.cov)
            rel = 1e-9
            if scenario.nb > 0.0:
                rel += EPS * max(np.abs(v).max() for v in covs) / scenario.nb
            ulps = 32 + 4 * sum(inv_det_r(v) for v in covs)
            assert abs(result.q_min - expected) <= rel * (1.0 - expected) + ulps * EPS
            assert result.log_error_prob <= math.log(0.5)
            assert log_p_from_snr(result.snr) == pytest.approx(
                result.log_error_prob, rel=1e-9, abs=1e-12)

    def test_nearly_pure_return_mode_against_mpmath(self):
        # n0 = 0, n1 = 1e-12, N_B = 0: rho_A's return mode is mixed, with
        # nu - 1 = 5.0e-13, and rho_B's is the vacuum; the idler is pure and
        # the same in both, so Q_s = 2 G_s(nu) / sqrt(det(Lambda_s V / nu + I))
        # of the return mode V alone, whose float64 entries are taken as
        # exact. 1 - Q = 3.75e-13 at s = 1 - 1e-12. A tolerance that took the
        # mode as pure read 1.25e-13 at s = 1e-12 on both analyses.
        mpmath = pytest.importorskip("mpmath")
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.0, n1=1e-12, n2=6.0)
        scenario = TargetScenario(0.5, 0.0, 1e6)
        result = snr(probe, scenario)
        with mpmath.workdps(60):
            x, p = map(mpmath.mpf, _return_entries(_probe_entries(0.0, 1e-12, 6.0), 0.5, 0.0)[:2])
            nu, s = mpmath.sqrt(x * p), mpmath.mpf(result.s_star)
            up, down = (nu + 1) ** s, (nu - 1) ** s
            lam = (up + down) / (up - down)
            expected = float(2 * 2**s / (up - down)
                             / mpmath.sqrt((lam * x / nu + 1) * (lam * p / nu + 1)))
        assert result.s_star == 1.0 - 1e-12
        for q_min in (result.q_min, general_infimum(make_hypotheses(probe, scenario))[1]):
            assert abs(q_min - expected) <= 1e-9 * (1.0 - expected) + 32 * EPS

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

    def test_rejects_unmatched_lengths(self):
        probe = ProbeSpec(kind=ProbeKind.TMSV, n0=1.0)
        with pytest.raises(ValidationError, match="2 probes against 1 scenarios"):
            discriminate_many([probe, probe], [MICROWAVE])

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
        assert calls == [(6, 3)]  # rho_A's columns: each rho_B is a product
        assert [isinstance(r, ValidationError) for r in results] == [False, True, True]
        assert results[0] == snr(probes[0], scenarios[0])

    @given(points=st.lists(point, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_one_point_builds_the_entries_of_a_batch(self, points):
        # One two-mode point is built from floats and handed over as floats,
        # M included, a batch from arrays; the analysis (_standard) must
        # receive the same entries from both, and the tail the same M, bit
        # for bit. rho_B's cross entries of a lone point were 0-d arrays.
        seen = []
        standard, tail = chernoff._standard, chernoff._discriminate

        def spy_standard(ent_a, ent_b):
            if not isinstance(ent_a, np.ndarray):
                assert len(ent_a) == len(ent_b) == 6
                assert all(type(v) is float for v in (*ent_a, *ent_b))
            seen.append((ent_a, ent_b))
            return standard(ent_a, ent_b)

        def spy_tail(errors, pairs, ensembles):
            ent_a, ent_b = seen.pop()
            if not isinstance(ent_a, np.ndarray):
                assert type(ensembles) is float
            seen.append(np.vstack([np.reshape(np.array(v, dtype=float), (-1, np.size(ensembles)))
                                   for v in (ent_a, ent_b, ensembles)]))
            return tail(errors, pairs, ensembles)

        probes = [ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
                  for n0, n1, n2, *_ in points]
        scenarios = [TargetScenario(kappa, nb, 1e6) for *_, kappa, nb, _ in points]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chernoff, "_standard", spy_standard)
            mp.setattr(chernoff, "_discriminate", spy_tail)
            discriminate_many(probes, scenarios)
            for probe, scenario in zip(probes, scenarios):
                discriminate_many([probe], [scenario])
                snr(probe, scenario)
        batch, *alone = seen
        for lone in (alone[0::2], alone[1::2]):  # discriminate_many, then snr
            np.testing.assert_array_equal(np.concatenate(lone, axis=1), batch)

    @given(points=st.lists(mixed_point, min_size=2, max_size=8))
    @example(points=[
        (ProbeKind.ASTM, 0.0, 0.0, 0.0, 0.5, 0.0, 1e6),  # no gap to split, s* = _S_EDGE
        (ProbeKind.TMSV, 1.0, 0.0, 0.0, 0.1, 0.0, 1e6),  # nu_- of rho_A snaps to 1
        (ProbeKind.ASTM, 1e300, 0.0, 0.0, 0.5, 1.0, 1e6),  # entries overflow
        (ProbeKind.COHERENT, 1.0, 0.0, 0.0, 0.01, 3.8e3, 1e7),
        (ProbeKind.ASTM, 1.0, 1.0, 0.0, 0.01, 3.8e3, 1e7)])
    # The branches of the tail, each on two points of a kind, which the
    # batch takes as columns and snr as floats: Q_min <= 1/2 (-ln Q, where
    # -log1p(Q - 1) reads inf at Q = 1e-20); M (-ln Q) overflowing to
    # ln P = -inf (the SNR map's _LOG_P_HUGE path); Q_min rounding above 1
    # at kappa = 0 (-ln Q clamped to 0, where np.longdouble is wider than
    # float64); a coherent point whose thermal covariance 2 N_B + 1
    # overflows.
    @example(points=[(ProbeKind.TMSV, 1e20, 0.0, 0.0, 0.5, 0.0, 1e6),
                     (ProbeKind.ASTM, 4.0, 4.0, 0.0, 0.9, 0.0, 1e6)])
    @example(points=[(ProbeKind.TMSV, 10.0, 0.0, 0.0, 0.9, 0.0, 1e308),
                     (ProbeKind.ASTM, 4.0, 4.0, 0.0, 0.9, 0.0, 1e308)])
    @example(points=[(ProbeKind.TMSV, 100.0, 0.0, 0.0, 0.0, 0.0, 1e6),
                     (ProbeKind.ASTM, 100.0, 10.0, 0.0, 0.0, 0.0, 1e6)])
    @example(points=[(ProbeKind.COHERENT, 1.0, 0.0, 0.0, 0.01, 1e308, 1e7),
                     (ProbeKind.COHERENT, 2.0, 0.0, 0.0, 0.01, 3.8e3, 1e7)])
    # rho_B mode by mode: N_B = n0, where its return and idler modes have the
    # same nu (exactly at n2 = 0, within the squeezer's rounding at n2 = 3);
    # N_B = 0, a pure return mode; n0 = 0 at n2 = 1e6, a pure idler with
    # max|V| ~ 4e6 (rho_A at n0 = 0 is a product too).
    @example(points=[(ProbeKind.ASTM, 1.0, 1.0, 0.0, 0.01, 1.0, 1e7),
                     (ProbeKind.ASTM, 2.5, 0.5, 3.0, 0.1, 2.5, 1e6)])
    @example(points=[(ProbeKind.TMSV, 1.0, 0.0, 0.0, 0.1, 0.0, 1e7),
                     (ProbeKind.ASTM, 3.0, 0.2, 3e3, 0.006, 0.0, 2e5)])
    @example(points=[(ProbeKind.ASTM, 0.0, 1.0, 1e6, 0.01, 30.0, 1e7),
                     (ProbeKind.ASTM, 0.0, 0.0, 1e6, 0.1, 3.8e3, 1e6)])
    # rho_A of a TMSV probe at N_B = n0 (1 - kappa) has no gap to split its
    # modes.
    @example(points=[(ProbeKind.TMSV, 1.0, 0.0, 0.0, 0.5, 0.5, 1e6),
                     (ProbeKind.TMSV, 2.0, 0.0, 0.0, 0.25, 1.5, 1e6)])
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
            batch_q = batch.q(np.full(len(two_mode), 0.3))
        assert_dual_is_symmetric_parts(ent_a, ent_b, errors, batch.dual)
        for col, i in enumerate(two_mode):
            with np.errstate(all="ignore"):
                one_errors, one = chernoff._standard(tuple(ent_a[:, col]), tuple(ent_b[:, col]))
            assert one_errors == [errors[col]]
            if errors[col]:
                continue
            for name, field in vars(one).items():  # one pair's scalars, its batch column
                a, b = np.array(field), np.array(getattr(batch, name))[..., col]
                assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
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
        # The general analysis goes through the search and tail of the
        # standard-form core, displaced or not.
        for n_modes in (1, 2):
            for shift in (0.0, 0.3, 2.0) * 40:
                pair = HypothesisPair(
                    GaussianState(n_modes, shift * rng.normal(size=2 * n_modes),
                                  random_physical_cov(n_modes, rng)),
                    GaussianState(n_modes, np.zeros(2 * n_modes),
                                  random_physical_cov(n_modes, rng)))
                assert_one_tail(pair, 10.0)

    @pytest.mark.parametrize("angle", [0.3, 2.0, 5.0])
    @pytest.mark.parametrize("probe, scenario", [
        (ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=0.5), TargetScenario(0.3, 0.4, 1e3)),
        (ProbeSpec(kind=ProbeKind.TMSV, n0=2.0), TargetScenario(0.5, 0.0, 1e2)),
        (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0, n2=2.0), TargetScenario(0.01, 30.0, 1e7)),
        (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0), MICROWAVE),
    ])
    def test_turned_pairs_take_the_general_path(self, probe, scenario, angle):
        # discriminate on a hand-built pair, turned out of standard form:
        # the local frame turns it back, and the standard analysis takes
        # its six entries. The turn there and back rounds each entry by
        # ~eps, which moves Q_min by a few eps and the SNR by a few
        # eps / (1 - Q_min) of itself; the general analysis in float64 was
        # allowed 32 of those.
        result = assert_one_tail(turned(make_hypotheses(probe, scenario), angle),
                                 scenario.ensembles)
        expected = snr(probe, scenario)
        assert result.snr == pytest.approx(expected.snr, rel=4 * EPS / (1.0 - expected.q_min))

    def test_nearly_product_pair_on_the_general_path(self):
        # rho_A of TMSV n0 = 1e-9 at kappa = 0.5, N_B = 0 is nearly a product
        # state (nu_+ - 1 = 1e-9, nu_- = 1). Formed as det C (det A + det B)
        # + tr(A J C J B J C^T J), u cancelled to 0, which put 1 - Q near
        # s = 0 at 7.5e-10. At 120 digits it is 5.0e-10 there and
        # 5.43035402e-10 at s = 0.47.
        pair = make_hypotheses(ProbeSpec(kind=ProbeKind.TMSV, n0=1e-9),
                               TargetScenario(0.5, 0.0, 1e6))
        with np.errstate(all="ignore"):
            one_minus_q = [1.0 - general(pair).q(s) for s in (1e-12, 0.47)]
        np.testing.assert_allclose(one_minus_q, [5.0e-10, 5.43035402045e-10], rtol=1e-6)

    def test_underflow_on_the_general_path_is_named(self):
        # -ln Q ~ 2500: Q_min is 0.0 in float64, and -ln Q, ln P and the
        # SNR are lost, so chernoff_infimum and discriminate both reject it,
        # naming the s* of the search, where Q_s is 0.0.
        pair = HypothesisPair(
            GaussianState(1, np.array([100.0, 0.0]), np.diag([2.0, 0.6])),
            GaussianState(1, np.zeros(2), np.diag([1.5, 1.0])))
        with np.errstate(all="ignore"):
            s_star, _ = chernoff._s_star([None], general(pair))
        text = f"Q_min underflows to 0 at s* = {s_star:.6g}"
        assert outcome(discriminate, pair, 10.0) == ("error", text)
        assert outcome(chernoff_infimum, pair) == ("error", text)
        assert q_s(pair, s_star) == 0.0

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


def mp_standard_q(n0: float, n1: float, n2: float, scenario: TargetScenario):
    """ln Q_s of a built ASTM (or TMSV, n1 = n2 = 0) pair, as a function of an
    mpmath s, from the parameters at the working precision (oracle).

    Both covariances are X (+) P, with 2x2 blocks on (x1, x2) and (p1, p2).
    nu_+-^2 are the eigenvalues of PX, and V(p) = S Lambda_p(D) S^T is
    X f(PX) (+) P f(XP), f(nu^2) = Lambda_p(nu) / nu fitted through nu_+-^2
    (the Lagrange form of perfbench/reference.py). Then
    Q_s = 4 prod G_s(alpha_k) G_{1-s}(beta_k) / sqrt(det Sigma_x det Sigma_p).
    """
    mpmath = pytest.importorskip("mpmath")
    n0, n1, n2, kappa, nb = (mpmath.mpf(v) for v in (n0, n1, n2, scenario.kappa, scenario.nb))
    a, c = 2 * n0 + 1, 2 * mpmath.sqrt(n0 * (n0 + 1))
    g1, g2 = (mpmath.sqrt(n + 1) + mpmath.sqrt(n) for n in (n1, n2))  # squeezer gains
    k, noise, thermal = mpmath.sqrt(kappa), 2 * nb + 1 - kappa, 2 * nb + 1
    cross_x, cross_p = k * c / (g1 * g2), -k * c * g1 * g2
    rho_a = (mpmath.matrix([[kappa * a / g1**2 + noise, cross_x], [cross_x, a / g2**2]]),
             mpmath.matrix([[kappa * a * g1**2 + noise, cross_p], [cross_p, a * g2**2]]))
    rho_b = (mpmath.diag([thermal, a / g2**2]), mpmath.diag([thermal, a * g2**2]))

    def power(state, t):
        """X(t), P(t) and prod_k G_t(nu_k) of a state."""
        x, p = state
        m = p * x
        root = mpmath.sqrt(max((m[0, 0] - m[1, 1]) ** 2 + 4 * m[0, 1] * m[1, 0], 0))
        hi = (m[0, 0] + m[1, 1] + root) / 2
        nu = [mpmath.sqrt(hi), mpmath.sqrt(max(mpmath.det(m) / hi, 1))]  # no cancellation
        up, down = [(v + 1) ** t for v in nu], [(v - 1) ** t for v in nu]
        f = [(u + d) / (u - d) / v for u, d, v in zip(up, down, nu)]
        c1 = (f[0] - f[1]) / (nu[0] ** 2 - nu[1] ** 2) if root else 0
        c0, eye = f[0] - c1 * nu[0] ** 2, mpmath.eye(2)
        g = 4**t / ((up[0] - down[0]) * (up[1] - down[1]))
        return x * (c0 * eye + c1 * p * x), p * (c0 * eye + c1 * x * p), g

    def ln_q(s):
        (xa, pa, ga), (xb, pb, gb) = power(rho_a, s), power(rho_b, 1 - s)
        return mpmath.log(4 * ga * gb / mpmath.sqrt(mpmath.det(xa + xb) * mpmath.det(pa + pb)))

    return ln_q


def mp_argmin(ln_q, tol: float = 1e-13) -> float:
    """The s in [1e-12, 1 - 1e-12] that minimizes the convex ln_q: an edge where
    its slope keeps one sign, else the bisection of the slope's sign, the
    slope a central difference at the working precision."""
    mpmath = pytest.importorskip("mpmath")
    h = mpmath.mpf(10) ** (-mpmath.mp.dps // 2)

    def rising(s):
        return ln_q(s + h) > ln_q(s - h)

    lo, hi = mpmath.mpf("1e-12"), 1 - mpmath.mpf("1e-12")
    if rising(lo):
        return float(lo)
    if not rising(hi):
        return float(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if rising(mid) else (mid, hi)
    return float((lo + hi) / 2)


# Edge probes of perfbench's point_mix (two-mode, valid), then the three
# points CI pins to 80 digits, as (probe, scenario).
EDGE_POINTS = [
    (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0, n2=1e6), TargetScenario(0.01, 3.8e3, 1e7)),
    (ProbeSpec(kind=ProbeKind.ASTM, n0=0.0, n1=1.0), TargetScenario(0.01, 30.0, 1e7)),
    (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0), TargetScenario(0.01, 3.8e3, 1e7)),
    (ProbeSpec(kind=ProbeKind.TMSV, n0=1.0), TargetScenario(0.01, 1e8, 1e12)),
    (ProbeSpec(kind=ProbeKind.TMSV, n0=1.0), TargetScenario(0.01, 0.0, 1e7)),
    (ProbeSpec(kind=ProbeKind.TMSV, n0=1.0), TargetScenario(0.1, 0.0, 1e7)),
    (ProbeSpec(kind=ProbeKind.ASTM, n0=3.0, n1=0.2, n2=3e3), TargetScenario(0.006, 0.0, 2e5)),
]
PINNED_POINTS = [
    (ProbeSpec(kind=ProbeKind.TMSV, n0=1e6), TargetScenario(0.5, 0.03, 1.0)),
    (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1e124), TargetScenario(0.01, 30.0, 1.0)),
    (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0, n2=1e6), TargetScenario(0.1, 1e-7, 1e3)),
]


def analysis(probe: ProbeSpec, scenario: TargetScenario) -> tuple:
    """(errors, _StandardPairs) of one built pair, from its floats."""
    entries = _probe_entries(probe.n0, probe.n1, probe.n2)
    with np.errstate(all="ignore"):
        return chernoff._standard(_return_entries(entries, scenario.kappa, scenario.nb),
                                  _absent_entries(entries, scenario.nb))


def scan_draws(seed: int, count: int):
    """The first count draws of the turned-pair scan: log-uniform n0, n1, n2
    in [1e-6, 1e8], kappa in [1e-6, 0.99], N_B in [1e-12, 1e8] and M in
    [1, 1e12], 70% ASTM and else TMSV, and a phase in [0, pi)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        astm = rng.random() < 0.7
        n0, n1, n2 = 10.0 ** rng.uniform(-6, 8, 3)
        kappa = 10.0 ** rng.uniform(-6, math.log10(0.99))
        nb = 10.0 ** rng.uniform(-12, 8)
        ensembles = 10.0 ** rng.uniform(0, 12)
        angle = rng.uniform(0, math.pi)
        probe = (ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2) if astm
                 else ProbeSpec(kind=ProbeKind.TMSV, n0=n0))
        yield probe, TargetScenario(kappa, nb, ensembles), angle


def turn_rounding(pair: HypothesisPair, mode: int, q_min: float) -> float:
    """The SNR's relative error that turning one mode of a pair in float64
    can cause, to first order.

    The turn rounds each entry of the mode by ~eps max(x_kk, p_kk), which
    is eps sq of its smaller diagonal entry, sq = max / min of the two over
    both states. A standard-form nu carries its entries' relative rounding
    times their cancellation in det X det P (symplectic._ROUNDING_ULPS),
    and nu - 1, which G_p and Lambda_p read, that times nu / (nu - 1). ln Q
    moves by no more; -ln Q_min >= 1 - Q_min, and the SNR, which goes as
    (M ln Q)^2 near 0, moves by up to twice -ln Q_min's relative error. 8
    ulps more are the SNR's own rounding.
    """
    k, factor = 2 * mode - 2, 0.0
    for state in (pair.rho_a, pair.rho_b):
        ax, ap, bx, bp, cx, cp = state.entries
        x, p = state.cov[k, k], state.cov[k + 1, k + 1]
        nu = state.spectrum[-1]
        cancel = 1.0 + (ax * bx + cx * cx) / (ax * bx - cx * cx) + (ap * bp + cp * cp) / (
            ap * bp - cp * cp)
        factor = max(factor, max(x, p) / min(x, p) * cancel * nu / (nu - 1.0))
    return 2.0 * EPS * (factor / (1.0 - q_min) + 8.0)


def pair_data_spy(monkeypatch) -> list:
    """The covariances of every general analysis built from now on."""
    built, cls = [], chernoff._PairData

    def spy(cov_a, cov_b, d):
        built.append((cov_a, cov_b))
        return cls(cov_a, cov_b, d)
    monkeypatch.setattr(chernoff, "_PairData", spy)
    return built


class TestLocalFrame:
    """A pair in another local frame gets the analysis of the pair it came
    from (chernoff._frame): Q_s, s*, ln P and the SNR are local invariants."""

    def test_turned_scan_pairs_get_the_untouched_answer(self):
        # The first 300 draws of the turned-pair scan with n0, n1, n2 <= 1e4
        # and 1 - Q_min >= 1e-6, 96 of them, each turned on mode 1 and on
        # mode 2. The general analysis put 5 of these 192 SNRs outside their
        # bound, draw 255 on mode 1 by 5.7e-3 where its entries resolve
        # 9.6e-5. A pair whose entries do not resolve its SNR to 1%
        # (turn_rounding > 1e-2: an idler squeezed 1e5x, a mode pure within
        # 1e-10) has no bound to hold; they are 30 of the 192.
        checked = 0
        for probe, scenario, angle in scan_draws(2, 300):
            if max(probe.n0, probe.n1, probe.n2) > 1e4:
                continue
            expected = snr(probe, scenario)
            if 1.0 - expected.q_min < 1e-6:
                continue
            pair = make_hypotheses(probe, scenario)
            for mode in (1, 2):
                bound = turn_rounding(pair, mode, expected.q_min)
                if bound <= 1e-2:
                    result = discriminate(turned(pair, angle, mode), scenario.ensembles)
                    assert result.snr == pytest.approx(expected.snr, rel=bound)
                    checked += 1
        assert checked == 162

    def test_found_pair_turned_gets_the_standard_answer(self):
        # rho_A's nu_- = 34.85 read as pure through the general analysis'
        # inflated bound (1151), which gave -ln Q_min = 3.380 at s* = 1e-12.
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=871.0, n1=1.41e-5, n2=6.73e6)
        scenario = TargetScenario(0.0135, 16.7)
        _, q_min = chernoff_infimum(turned(make_hypotheses(probe, scenario), 0.7))
        assert -math.log(q_min) == pytest.approx(0.157925080156856, rel=1e-12)
        assert -math.log(snr(probe, scenario).q_min) == pytest.approx(0.157925080156856,
                                                                     rel=1e-12)

    @pytest.mark.parametrize("mode", [1, 2])
    @pytest.mark.parametrize("angle", [0.3, 1.5707963267948966, 2.0, 3.0])
    @pytest.mark.parametrize("probe", [
        ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0, n2=2.0),
        ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=5.0),
        ProbeSpec(kind=ProbeKind.TMSV, n0=2.0),
    ])
    def test_frame_turns_a_turned_pair_back(self, probe, angle, mode, monkeypatch):
        # The frame's turn undoes the phase, up to signs of the quadratures
        # and a quarter turn of both modes (x and p swap), and its squeeze
        # is exact: the entries it hands the standard analysis are the
        # untouched pair's, scaled by the powers of two that balance rho_B's
        # modes, within the rounding of the two turns (~eps max|V| before
        # the scaling). TMSV's cross block has c_x = -c_p, which leaves one
        # angle free.
        built = pair_data_spy(monkeypatch)
        pair = make_hypotheses(probe, TargetScenario(0.1, 0.5))
        pair_t = turned(pair, angle, mode)
        covs = chernoff._frame(pair_t.rho_a.cov, pair_t.rho_b.cov)

        def turned_back(order) -> bool:
            """Whether covs are the untouched covariances with x and p in
            order, balanced, to rounding."""
            views = [v.cov[np.ix_(order, order)] for v in (pair.rho_a, pair.rho_b)]
            x, p = np.diagonal(views[1]).reshape(2, 2).T
            d = 2.0 ** np.round(0.25 * np.log2(p / x))
            scale = np.repeat(d, 2) ** np.array([1.0, -1.0, 1.0, -1.0])
            return all(np.abs(np.abs(cov) / np.outer(scale, scale) - np.abs(v)).max()
                       <= 4 * EPS * np.abs(v).max() for cov, v in zip(covs, views))

        assert turned_back([0, 1, 2, 3]) or turned_back([1, 0, 3, 2])
        chernoff_infimum(pair_t)
        assert built == []

    @pytest.mark.parametrize("angle, t2", [(0.3, 0.64), (1.0, 0.5), (2.0, 0.09)])
    def test_beam_split_pairs_take_the_general_analysis(self, angle, t2, monkeypatch):
        # A beam splitter after a phase correlates x of one mode with p of
        # the other in both states, which no one local frame undoes.
        built = pair_data_spy(monkeypatch)
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=0.5)
        scenario = TargetScenario(0.3, 0.4, 1e3)
        result = assert_one_tail(beam_split(make_hypotheses(probe, scenario), angle, t2),
                                 scenario.ensembles)
        assert len(built) == 2  # by discriminate and by chernoff_infimum
        assert result.snr == pytest.approx(snr(probe, scenario).snr, rel=1e-13)


class TestSearch:
    # s* is the root of g = d ln Q_s/ds, found by a safeguarded Newton
    # iteration on g s (1 - s) (chernoff._s_star).
    H = 1e-4

    def central(self, ln_q, s):
        """First and second central differences of ln_q at s."""
        h = self.H
        lo, mid, hi = (ln_q(v) for v in (s - h, s, s + h))
        return (hi - lo) / (2 * h), (hi - 2 * mid + lo) / (h * h)

    @pytest.mark.parametrize("probe, scenario", [
        (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0), LOW_NOISE),
        (ProbeSpec(kind=ProbeKind.ASTM, n0=3.0, n1=2.0, n2=1.0), TargetScenario(0.3, 0.5)),
        (ProbeSpec(kind=ProbeKind.TMSV, n0=1.0), TargetScenario(0.1, 0.0)),  # pure columns
        (ProbeSpec(kind=ProbeKind.TMSV, n0=0.5), TargetScenario(0.5, 0.5)),  # no gap to split
        (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0, n2=1e6), TargetScenario(0.1, 1e-7)),
    ])
    def test_standard_slope_against_central_differences(self, probe, scenario):
        # g and g' against differences of the analysis' own np.longdouble
        # ln Q_s, whose h^2 terms stay below 5e-7 of g's size and of g'; a
        # batch's columns give one pair's floats, bit for bit.
        _, pairs = analysis(probe, scenario)
        with np.errstate(all="ignore"):
            _, batch = chernoff._standard(*(np.repeat(v, 3, axis=1)
                                            for v in standard_entries_of([probe], [scenario])))
            for s in (0.1, 0.5, 0.9):
                g, g1, size = pairs.slope(s)
                fd, fd1 = self.central(lambda v: np.log(pairs.q(v)), s)
                assert abs(g - fd) <= 1e-6 * size and abs(g1 - fd1) <= 2e-6 * abs(g1), s
                columns = batch.slope(np.array([0.3, s, 0.7]))
                assert [float(v[1]) for v in columns] == [g, g1, size]

    @pytest.mark.parametrize("n_modes", [1, 2])
    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_general_slope_against_central_differences(self, n_modes, shift, rng):
        # The general analysis, displaced or not: g, g' and the quadratic
        # term's derivatives against differences of its float64 ln Q_s.
        for _ in range(4):
            pair = HypothesisPair(
                GaussianState(n_modes, shift * rng.normal(size=2 * n_modes),
                              random_physical_cov(n_modes, rng)),
                GaussianState(n_modes, np.zeros(2 * n_modes), random_physical_cov(n_modes, rng)))
            data = general(pair)
            for s in (0.2, 0.5, 0.8):
                g, g1, size = data.slope(s)
                fd, fd1 = self.central(lambda v: math.log(data.q(v)), s)
                assert abs(g - fd) <= 1e-6 * size and abs(g1 - fd1) <= 1e-6 * abs(g1), s

    @pytest.mark.parametrize("probe, scenario", [
        (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0), MICROWAVE),
        (ProbeSpec(kind=ProbeKind.TMSV, n0=0.3), MICROWAVE),
        (ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0), LOW_NOISE),
        (ProbeSpec(kind=ProbeKind.TMSV, n0=0.3), LOW_NOISE),
        *PINNED_POINTS,
    ])
    def test_s_star_against_the_argmin(self, probe, scenario):
        # s* within 1e-8 of the 50-digit argmin (200 digits for the entries
        # of n1 = 1e124), where 1 - Q >= 3.6e-7. The two-scan search was off
        # by 5e-8 (ASTM at MICROWAVE) to 2.2e-5 (n1 = 1e124, whose -ln Q_min
        # fell 6.7e-8 short).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(200 if probe.n1 > 1e100 else 50):
            expected = mp_argmin(mp_standard_q(probe.n0, probe.n1, probe.n2, scenario))
        assert abs(snr(probe, scenario).s_star - expected) <= 1e-8

    def test_search_steps_are_capped(self, tmp_path):
        # Evaluations of g per pair: at most 2 on every row of the seven
        # figure batches (1.54 on average), 2 on perfbench's edge probes
        # and 6 on CI's pinned points, against 64 + 64 + 3 values of Q_s
        # of the two-scan search. A boundary s* lands on the edge exactly.
        seen = []
        search = chernoff._s_star

        def spy(errors, pairs):
            s, steps = search(errors, pairs)
            seen.extend(np.atleast_1d(steps)[[not e for e in errors]].tolist())
            return s, steps

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chernoff, "_s_star", spy)
            for figure in ("fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "fig5"):
                reproduce_figure(figure, str(tmp_path))
        assert len(seen) == 954 and max(seen) <= 2 and sum(seen) <= 1.6 * len(seen)
        for points, cap in ((EDGE_POINTS, 2), (PINNED_POINTS, 6)):
            for probe, scenario in points:
                errors, pairs = analysis(probe, scenario)
                with np.errstate(all="ignore"):
                    s_star, steps = chernoff._s_star(errors, pairs)
                assert errors == [None] and 1 <= steps <= cap
                if scenario.nb == 0.0:
                    assert s_star == chernoff._S_EDGE


class TestSnap:
    def test_keeps_the_type_of_its_input(self):
        # A pure mode snapped to the Python float 1.0, which handed one
        # pair's np.array a mix of floats and np.longdouble scalars.
        tol = np.longdouble(1e-13)
        one = chernoff._snap(np.longdouble(1.0) + np.longdouble(1e-15), tol)
        assert type(one) is np.longdouble and one == 1.0
        assert type(chernoff._snap(np.longdouble(3.0), tol)) is np.longdouble
        nu = chernoff._snap(np.array([1.0 + 1e-15, 3.0]), 1e-13)
        assert nu.dtype == np.float64 and nu.tolist() == [1.0, 3.0]

    def test_agrees_with_the_parameters_about_purity(self):
        # rho_A of a built pair is pure in its smaller mode exactly where
        # D = (nu_+^2 - 1)(nu_-^2 - 1) = 16 N_B n0 (n0 + 1)(N_B + 1 - kappa)
        # is 0 (N_B = 0 or n0 = 0), rho_B's return mode where N_B = 0 and
        # its idler where n0 = 0. Every such mode snaps to exactly 1, and no
        # mode snaps whose nu - 1, to 60 digits from the parameters (nu_-^2
        # - 1 the smaller root of t^2 - (Delta - 2) t + D), exceeds the
        # tolerance it was snapped by. A correlated rho_A's nu_- is off by
        # at most 2 eps times the cancellation model, and is snapped within
        # _ROUNDING_ULPS eps times it: the model from the parameters, in
        # which the idler squeezer cancels, however large max|V| grows.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(25)
        n = 2000
        n0, n1, n2 = 10.0 ** rng.uniform(-6.0, 8.0, (3, n))
        kappa = 10.0 ** rng.uniform(-4.0, math.log10(0.99), n)
        nb = 10.0 ** rng.uniform(-12.0, 8.0, n)
        n0[rng.uniform(size=n) < 0.1] = 0.0
        n1[rng.uniform(size=n) < 0.05] = 0.0
        nb[rng.uniform(size=n) < 0.15] = 0.0
        probe = _probe_entries(n0, n1, n2)
        ent_a = chernoff._longdouble(np.array(_return_entries(probe, kappa, nb)))
        spec = chernoff.standard_form_spectrum(ent_a)
        nu_lo = np.minimum(*chernoff._parts(ent_a)[1])
        product = (ent_a[4] == 0.0) & (ent_a[5] == 0.0)
        tol_a = np.where(product, _MODE_ROUNDING, spec.rounding).astype(float)
        ent_b = chernoff._longdouble(np.array(_absent_entries(probe, nb)[:4]))
        nu_b = chernoff._product_parts(ent_b)[0]
        accepted = [i for i, error in enumerate(spec.errors) if not error]
        assert len(accepted) > 0.9 * n
        with mpmath.workdps(60):
            for i in accepted:
                n0_, n1_, kappa_, nb_ = (mpmath.mpf(v[i]) for v in (n0, n1, kappa, nb))
                a, c2 = 2 * n0_ + 1, 4 * kappa_ * n0_ * (n0_ + 1)  # c2: kappa c^2
                gain = (mpmath.sqrt(n1_ + 1) + mpmath.sqrt(n1_)) ** 2
                noise = 2 * nb_ + 1 - kappa_
                ax, ap = kappa_ * a / gain + noise, kappa_ * a * gain + noise
                # det A + det B + 2 det C, and det X, det P without the idler
                # squeezer, which scales them and their terms alike
                t = ax * ap + a * a - 2 * c2 - 2
                d = 16 * nb_ * n0_ * (n0_ + 1) * (nb_ + 1 - kappa_)
                lo2 = 2 * d / (t + mpmath.sqrt(max(t * t - 4 * d, 0))) if d else 0  # nu_-^2 - 1
                excess = mpmath.sqrt(1 + lo2) - 1
                for pure, nu, tol, exact in ((d == 0, nu_lo[i], tol_a[i], excess),
                                             (nb[i] == 0.0, nu_b[0][i], _MODE_ROUNDING, 2 * nb_),
                                             (n0[i] == 0.0, nu_b[1][i], _MODE_ROUNDING, 2 * n0_)):
                    if pure:
                        assert nu == 1.0, (i, n0[i], n1[i], n2[i], kappa[i], nb[i])
                    if nu == 1.0:
                        assert exact <= tol, (i, n0[i], n1[i], n2[i], kappa[i], nb[i])
                if not product[i]:
                    x, p = ax * a, ap * a
                    model = (1 + (x + c2 / gain) / (x - c2 / gain)
                             + (p + c2 * gain) / (p - c2 * gain))
                    raw = mpmath.mpf(np.format_float_scientific(spec.nu[1, i], unique=True))
                    assert abs(raw - 1 - excess) <= 2 * EPS * model * (1 + excess), i
                    assert tol_a[i] <= _ROUNDING_ULPS * EPS * model * (1 + 8 * EPS * model), i
