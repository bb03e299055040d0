import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from conftest import random_physical_cov
from gqi import (
    LOW_NOISE,
    MICROWAVE,
    GaussianState,
    ProbeKind,
    ProbeSpec,
    SymplecticMatrix,
    TargetScenario,
    ValidationError,
    apply_symplectic,
    chernoff_infimum,
    g_func,
    lambda_func,
    log_error_prob,
    log_p_from_snr,
    make_hypotheses,
    q_s,
    snr,
    snr_from_log_p,
    sweep,
    symplectic_form,
    v_of_p,
    williamson,
)
from gqi.chernoff import discriminate, discriminate_many
from gqi.probes import HypothesisPair, tmsv_state


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
        ):
            pair = make_hypotheses(probe, scenario)
            _, q_min = chernoff_infimum(pair)
            # 4001 points, then 4001 more between the neighbours of the best
            grid = np.linspace(1e-9, 1 - 1e-9, 4001)
            i = int(np.argmin([q_s(pair, s) for s in grid]))
            fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, 4000)], 4001)
            scan = min(q_s(pair, s) for s in fine)
            assert q_min <= scan + 1e-15
            assert q_min == pytest.approx(scan, abs=1e-12)

    def test_zero_tolerance_stops_at_rounding(self):
        pair = _small_pair()
        assert chernoff_infimum(pair, tol=0.0)[1] == pytest.approx(
            chernoff_infimum(pair)[1], abs=1e-15)

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

    @pytest.mark.parametrize("ensembles", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_copy_count(self, ensembles):
        # M = -1 gave ln P = -0.588, above ln(1/2); NaN gave NaN.
        with pytest.raises(ValidationError, match="ensembles"):
            log_error_prob(0.9, ensembles)


def mp_tmsv_snr(n0: float, scenario: TargetScenario, dps: int = 40) -> float:
    """SNR of a TMSV probe at dps digits, independently of gqi (oracle).

    rho_A = [[a I, c Z], [c Z, b I]] with Z = diag(1, -1) is a two-mode
    squeezer S with cosh 2r = (a+b)/y, sinh 2r = 2c/y on thermal modes
    nu = (y +- (a - b))/2, y = sqrt((a+b)^2 - 4c^2); rho_B = diag(t I, b I)
    is already in Williamson form. Then V_A(s) = S Lambda_s(D) S^T keeps the
    block form, Sigma_s = [[x I, z Z], [z Z, w I]] has det (x w - z^2)^2, and
    a golden-section search over s finds the infimum of the convex Q_s.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        n0, kappa, nb, m = (mpmath.mpf(v) for v in (
            n0, scenario.kappa, scenario.nb, scenario.ensembles))
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

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        golden = (mpmath.sqrt(5) - 1) / 2
        while hi - lo > mpmath.mpf(10) ** -15:
            s1, s2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
            lo, hi = (lo, s2) if q(s1) < q(s2) else (s1, hi)
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


class TestDiscriminateMany:
    # Each point of one batch against the general 4x4 path on its pair,
    # with the bound of TestAgainstWilliamsonForm: the batched Q_min is
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
            _, expected = chernoff_infimum(pair)
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

    def test_microwave_table_against_mpmath(self):
        # The fig2b_n1_0 table (TMSV, N0 = 0.1..2 at MICROWAVE), each SNR
        # against the 50-digit infimum. Q evaluated in float64 left 2.7e-9
        # at N0 = 0.1; evaluated at s* in np.longdouble it leaves 1.8e-10,
        # most of it from where the float64 zoom put s*.
        table = sweep("n0", np.linspace(0.1, 2.0, 20),
                      ProbeSpec(kind=ProbeKind.ASTM, n1=0.0), MICROWAVE)
        worst = max(abs(row.snr / mp_tmsv_snr(row.n0, MICROWAVE, dps=50) - 1.0)
                    for row in table.rows)
        assert worst <= 5e-10
