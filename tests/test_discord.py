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
    coherent_state,
    entropy_f,
    gaussian_discord,
    make_hypotheses,
    remained_discord,
    run_scenario,
    sweep,
    tmsv_state,
)
from gqi import discord
from gqi.probes import _probe_entries, _return_entries, _two_mode_cov
from gqi.symplectic import standard_form_spectrum

import oracles

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValidationError):
            entropy_f(x)

    @pytest.mark.parametrize("x", ["2", 2j, None])
    def test_rejects_what_is_not_a_real_number(self, x):
        # Each raised TypeError from the range check.
        with pytest.raises(ValidationError, match="entropy_f needs a real number"):
            entropy_f(x)


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
    def test_one_mode_state_is_named(self):
        with pytest.raises(ValidationError, match="gaussian_discord needs a 2-mode state, got 1"):
            gaussian_discord(coherent_state(1.0))

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

    def test_block_determinants_whose_squares_overflow_are_rejected(self):
        # At n1 = 1e300, alpha and delta are ~1.3e301: (delta - alpha beta)^2
        # raised OverflowError, which the CLI reported as an internal error.
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1e300)
        scenario = TargetScenario(0.05, 10.0)
        with pytest.raises(ValidationError, match="^covariance entries span too wide a range$"):
            remained_discord(probe, scenario)
        with pytest.raises(ValidationError, match="^covariance entries span too wide a range$"):
            gaussian_discord(make_hypotheses(probe, scenario).rho_a)

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

    def test_wide_product_state(self):
        # GaussianState accepts diag(1, 1, 1, 1e300) (spectrum 1e150, 1);
        # its discord raised ZeroDivisionError in the closed-form spectrum.
        state = GaussianState(2, np.zeros(4), np.diag([1.0, 1.0, 1.0, 1e300]))
        result = gaussian_discord(state)
        assert result.value == 0.0
        assert result.nu_pair == pytest.approx((1e150, 1.0), rel=1e-15)

    def test_strongly_squeezed_tmsv_is_pure(self):
        # tmsv_state(1e4) reads its spectrum as 1 -+ ~4e-8, within the
        # tolerance it was validated with.
        state = tmsv_state(1e4)
        result = gaussian_discord(state)
        assert result.nu_pair == (1.0, 1.0)
        n0 = 1e4
        marginal = (n0 + 1) * math.log(n0 + 1) - n0 * math.log(n0)
        assert result.value == pytest.approx(marginal, rel=1e-9)


def mp_remained_discord(n0, n1, n2, kappa, nb, dps: int = 50) -> float:
    """Discord of rho_A at dps digits from the probe parameters (oracle).

    The same closed form (Adesso & Datta) on the covariance built in
    mpmath, so that it checks the float64 evaluation, not the formula.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        n0, n1, n2, kappa, nb = (mpmath.mpf(v) for v in (n0, n1, n2, kappa, nb))
        a, c = 2 * n0 + 1, 2 * mpmath.sqrt(n0 * (n0 + 1))
        s_m, s_p, i_m, i_p = (mpmath.sqrt(n + 1) + sign * mpmath.sqrt(n)
                              for n in (n1, n2) for sign in (-1, 1))
        noise = 2 * nb + 1 - kappa
        ax, ap = kappa * a * s_m**2 + noise, kappa * a * s_p**2 + noise
        bx, bp = a * i_m**2, a * i_p**2
        cx, cp = mpmath.sqrt(kappa) * c * s_m * i_m, -mpmath.sqrt(kappa) * c * s_p * i_p
        return float(_mp_discord(mpmath, ax * ap, bx * bp, cx * cp,
                                 (ax * bx - cx**2) * (ap * bp - cp**2)))


def mp_state_discord(cov: np.ndarray, dps: int = 50) -> float:
    """Discord of a two-mode covariance at dps digits, its float64 entries
    taken as exact (oracle): the closed form on its block determinants."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        v = mpmath.matrix(cov.tolist())
        return float(_mp_discord(mpmath, mpmath.det(v[0:2, 0:2]), mpmath.det(v[2:4, 2:4]),
                                 mpmath.det(v[0:2, 2:4]), mpmath.det(v)))


def _mp_discord(mpmath, alpha, beta, gamma, delta):
    """The closed form of the discord on block determinants, at the working
    precision."""
    big = alpha + beta + 2 * gamma
    root = mpmath.sqrt(big**2 - 4 * delta)
    nus = [mpmath.sqrt((big + sign * root) / 2) for sign in (1, -1)]
    if (delta - alpha * beta) ** 2 <= (beta + 1) * gamma**2 * (alpha + delta):
        eps = ((abs(gamma) + mpmath.sqrt(gamma**2 + (beta - 1) * (delta - alpha)))
               / (beta - 1)) ** 2
    else:
        eps = (alpha * beta - gamma**2 + delta - mpmath.sqrt(
            gamma**4 + (delta - alpha * beta) ** 2
            - 2 * gamma**2 * (delta + alpha * beta))) / (2 * beta)

    def f(x):
        return ((x + 1) / 2 * mpmath.log((x + 1) / 2)
                - (x - 1) / 2 * mpmath.log((x - 1) / 2)) if x > 1 else 0

    return f(mpmath.sqrt(beta)) - f(nus[0]) - f(nus[1]) + f(mpmath.sqrt(max(eps, 1)))


def rotated(state: GaussianState, theta1: float, theta2: float) -> GaussianState:
    """The state after a phase rotation on each mode: no longer in standard form."""
    rot = np.zeros((4, 4))
    for k, t in enumerate((theta1, theta2)):
        rot[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = [[math.cos(t), math.sin(t)],
                                                   [-math.sin(t), math.cos(t)]]
    return GaussianState(2, np.zeros(4), rot @ state.cov @ rot.T)


class TestClosedFormDiscord:
    """remained_discord and standard-form states: six entries, no LAPACK."""

    def test_matches_general_path_after_local_rotation(self):
        # The ranges of TestDiscriminateMany. A local phase rotation leaves
        # the discord unchanged and breaks standard form, so gaussian_discord
        # reads the state in its local standard form. Each path returns only
        # a value it estimates to be within 1e-6 of the exact one and raises
        # otherwise, so two values differ by at most 2e-6 of it. Here 69 of
        # the 80 examples return on both paths; 56 did when a state out of
        # standard form took its block determinants, with det V from LAPACK
        # and an eigvalsh condition number of V.
        returned = []

        @given(n0=st.floats(0.0, 10.0), n1=st.floats(0.0, 1e3), n2=st.floats(0.0, 1e3),
               kappa=st.floats(1e-3, 0.9), nb=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
               theta1=st.floats(0.0, 2 * math.pi), theta2=st.floats(0.0, 2 * math.pi))
        @settings(max_examples=80, deadline=None, derandomize=True)
        def check(n0, n1, n2, kappa, nb, theta1, theta2):
            probe = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
            scenario = TargetScenario(kappa, nb)
            try:
                expected = remained_discord(probe, scenario).value
                general = gaussian_discord(rotated(make_hypotheses(probe, scenario).rho_a,
                                                   theta1, theta2)).value
            except ValidationError:
                return  # a discord float64 cannot resolve to 1e-6
            assert abs(general - expected) <= 2e-6 * expected
            returned.append(general)

        check()
        assert len(returned) == 69

    def test_turned_states_against_mpmath(self):
        # rho_A of the first 100 draws of the turned-discord recipe, seed 7:
        # n0 = 10^U(-3, 2); n1 = 0 with p = 0.25, else 10^U(-3, 3); n2
        # likewise with 10^U(-3, 4); kappa = 10^U(-4, -0.01); N_B = 0 with
        # p = 0.1, else 10^U(-6, 9); both modes turned by U(0, 2 pi). Each
        # value gaussian_discord returns is within 1e-6 of the discord of
        # the state's own float64 entries at 50 digits. 78 of the 100
        # return, as many as remained_discord of the untouched states; 48
        # did through block determinants with det V from LAPACK.
        rng, returned = np.random.default_rng(7), 0
        for _ in range(100):
            n0 = 10.0 ** rng.uniform(-3, 2)
            n1, n2 = (0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-3, e)
                      for e in (3, 4))
            kappa = 10.0 ** rng.uniform(-4, -0.01)
            nb = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6, 9)
            state = GaussianState(2, np.zeros(4), _two_mode_cov(
                *_return_entries(_probe_entries(n0, n1, n2), kappa, nb)))
            state = rotated(state, *rng.uniform(0.0, 2.0 * math.pi, 2))
            try:
                value = gaussian_discord(state).value
            except ValidationError:
                continue
            assert value == pytest.approx(mp_state_discord(state.cov), rel=1e-6)
            returned += 1
        assert returned == 78

    @pytest.mark.parametrize("n0, n1, n2, kappa, nb", [
        (0.1, 0.5, 0.0, 0.01, 30.0), (1.0, 1.0, 0.3, 0.01, 3.8e3),
        (2.0, 0.0, 0.0, 0.3, 0.4), (3.0, 0.2, 3e3, 0.006, 0.0),
        (0.0, 1.0, 0.0, 0.01, 30.0),
    ])
    def test_built_state_takes_the_closed_form(self, n0, n1, n2, kappa, nb):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
        scenario = TargetScenario(kappa, nb)
        built = gaussian_discord(make_hypotheses(probe, scenario).rho_a)
        closed = remained_discord(probe, scenario)
        assert (built.value, built.branch, built.nu_pair) == (
            closed.value, closed.branch, closed.nu_pair)

    def test_built_state_keeps_its_spectrum(self, monkeypatch):
        # The state was validated with its spectrum; the discord computed
        # it again.
        state = astm_state(ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0))
        expected = gaussian_discord(state)

        def refuse(entries):
            raise AssertionError("spectrum computed again")

        monkeypatch.setattr(discord, "standard_form_spectrum", refuse)
        assert gaussian_discord(state) == expected

    def test_builds_no_state_and_calls_no_lapack(self, monkeypatch):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=0.5)
        state = astm_state(probe)
        expected = remained_discord(probe, LOW_NOISE)

        def refuse(*args, **kwargs):
            raise AssertionError("called on the closed-form discord path")

        for name in ("det", "eig", "eigvals", "eigvalsh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(GaussianState, "__init__", refuse)
        assert remained_discord(probe, LOW_NOISE) == expected
        assert gaussian_discord(state).branch == "pure"

    def test_fig5_against_mpmath(self):
        # Every discord cell of fig5 against its 50-digit evaluation: 3.5e-10
        # with the entropy as a difference of x ln x terms, 2.0e-11 with it
        # as a sum of positive ones.
        table = sweep("ns", np.linspace(0.1, 4.0, 32),
                      ProbeSpec(kind=ProbeKind.ASTM, n0=0.1), LOW_NOISE,
                      with_discord=True, compare=False)
        assert len(table.rows) == 32
        worst = max(abs(row.discord / mp_remained_discord(
            row.n0, row.n1, row.n2, row.kappa, row.nb) - 1.0) for row in table.rows)
        assert worst <= 5e-10

    @pytest.mark.parametrize("n0, n1, n2, kappa, nb", [
        (1.0, 1.0, 0.0, 0.01, 3.8e3),  # the MICROWAVE preset
        (1.0, 1.0, 1e6, 0.01, 3.8e3),  # strong idler squeezing
    ])
    def test_high_noise_against_mpmath(self, n0, n1, n2, kappa, nb):
        # With the entropy as a difference of x ln x terms these were 1.1e-5
        # and 1.6e-5 off: it lost ~eps x ln x with x ~ 2 N_B.
        value = remained_discord(ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2),
                                 TargetScenario(kappa, nb)).value
        assert value == pytest.approx(mp_remained_discord(n0, n1, n2, kappa, nb),
                                      rel=1e-8)

    @pytest.mark.parametrize("n0, n1, n2, kappa, nb", [
        # The perfbench high-noise probe: the discord, 3.9e-11, is 1e-12 of
        # its entropy terms. Evaluated anyway it was 2.6 relative off.
        (1.0, 0.0, 0.0, 0.01, 1e8),
        (1.0, 0.0, 0.0, 0.01, 1e6),
        # Little squeezing: inputs off by 1e-16 move the discord by 4e-4.
        (1e-6, 0.0, 0.0, 0.01, 30.0),
        # nu_- within 1e-9 of 1, taken as pure: 1.4e-3 off when that was
        # left out of the estimate.
        (1.4719472697289494e-08, 124.39942979379245, 0.07810850272395181,
         0.07177758959642935, 0.008173318078218667),
    ])
    def test_weak_correlations_are_never_silently_wrong(self, n0, n1, n2, kappa, nb):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
        try:
            value = remained_discord(probe, TargetScenario(kappa, nb)).value
        except ValidationError:
            return
        assert value == pytest.approx(
            mp_remained_discord(n0, n1, n2, kappa, nb), rel=1e-6)

    def test_overflowing_probe_is_rejected(self):
        probe = ProbeSpec(kind=ProbeKind.TMSV, n0=1e300)
        with pytest.raises(ValidationError, match="non-finite"):
            remained_discord(probe, LOW_NOISE)
        with pytest.raises(ValidationError):
            run_scenario(probe, LOW_NOISE, with_discord=True)


def _outcome(call):
    """A discord's value, branch and nu_pair as reprs, which tell -0.0 from
    0.0 and a numpy scalar from a float; or the ValidationError's text."""
    try:
        result = call()
    except ValidationError as exc:
        return "raises", str(exc)
    return repr(result.value), result.branch, tuple(map(repr, result.nu_pair))


class TestFloatPathKeepsEveryBit:
    """_discord on floats, and gaussian_discord on the entries a state keeps,
    against the code they replaced (oracles): the same value, branch and
    nu_pair, bit for bit, or the same ValidationError text."""

    DRAWS = 500

    def test_against_the_block_determinant_path(self):
        rng = np.random.default_rng(24)
        seen, compared = set(), 0

        def check(new, old, nu=None, tol=None):
            nonlocal compared
            got, expected = _outcome(new), _outcome(old)
            assert got == expected
            compared += 1
            seen.add(expected[1][:13])
            if nu is not None and any(0.0 < abs(v - 1.0) <= tol for v in nu):
                seen.add("snapped")

        for _ in range(self.DRAWS):
            n0 = 0.0 if rng.random() < 0.05 else 10.0 ** rng.uniform(-3, 2)
            n1, n2 = (0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-3, e)
                      for e in (3, 4))
            kappa = 0.0 if rng.random() < 0.03 else 10.0 ** rng.uniform(-4, -0.01)
            nb = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6, 9)
            entries = _return_entries(_probe_entries(n0, n1, n2), kappa, nb)
            spec = standard_form_spectrum(entries)
            if spec.errors[0]:
                continue
            # remained_discord's path, and a state built from the same entries
            check(lambda: discord._remained(n0, n1, n2, kappa, nb),
                  lambda: oracles._standard_discord(entries, spec.nu, spec.tol),
                  spec.nu, spec.tol)
            state = GaussianState(2, np.zeros(4), _two_mode_cov(*entries))
            check(lambda: gaussian_discord(state), lambda: oracles.gaussian_discord(state),
                  state.spectrum.tolist(), state.spectrum_tol)
            # The probe itself (pure). A state out of standard form takes its
            # local standard form (TestClosedFormDiscord::test_turned_states_against_mpmath).
            probe = astm_state(ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2))
            check(lambda: gaussian_discord(probe), lambda: oracles.gaussian_discord(probe),
                  probe.spectrum.tolist(), probe.spectrum_tol)
            # A spectrum the entries do not have: nu_+ too large makes the
            # discord negative, nu_- below 1 leaves entropy_f no value.
            bad = (spec.nu[0] * rng.uniform(1.0, 3.0), spec.nu[1] * rng.uniform(0.5, 1.0))
            check(lambda: discord._standard_discord(entries, bad, spec.tol),
                  lambda: oracles._standard_discord(entries, bad, spec.tol))
        assert compared >= 2000
        assert seen >= {"product", "pure", "measurement-a", "generic", "snapped",
                        "discord evalu", "entropy_f nee"}
        # "discord 3.86e-11 may be off by ...": the estimate's raise
        assert any(kind.startswith("discord ") and kind != "discord evalu" for kind in seen)
