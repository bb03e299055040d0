import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqi import (
    GaussianState,
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    ValidationError,
    symplectic_eigenvalues,
    symplectic_form,
)
from gqi.chernoff import discriminate
from gqi.discord import gaussian_discord
from gqi.probes import (HypothesisPair, _probe_entries, _return_entries, _two_mode_cov,
                        coherent_state, make_hypotheses, probe_state, tmsv_state)
from gqi.symplectic import (EIGENVALUE_CLAMP_TOL, _allowed_shortfall, _require_physical,
                            _standard_entries, standard_form_spectrum)

from conftest import random_physical_cov, random_symplectic
from oracles import (SymplecticMatrix, apply_symplectic, photons_from_squeezing,
                     single_mode_squeezer, squeezing_from_photons, williamson)

photons = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


class TestSymplecticForm:
    def test_single_mode(self):
        assert np.array_equal(symplectic_form(1), [[0, 1], [-1, 0]])

    def test_two_modes_block_structure(self):
        omega = symplectic_form(2)
        assert omega.shape == (4, 4)
        assert np.array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
        assert np.array_equal(omega[2:, 2:], [[0, 1], [-1, 0]])
        assert np.all(omega[:2, 2:] == 0)

    def test_squares_to_minus_identity(self):
        omega = symplectic_form(2)
        assert np.array_equal(omega @ omega, -np.eye(4))
        assert np.array_equal(omega, -omega.T)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValidationError):
            symplectic_form(0)

    def test_shared_form_is_read_only(self):
        omega = symplectic_form(2)
        assert symplectic_form(2) is omega
        with pytest.raises(ValueError):
            omega[0, 1] = 2.0


class TestSymplecticEigenvalues:
    def test_two_mode_vacuum(self):
        np.testing.assert_allclose(symplectic_eigenvalues(np.eye(4)), [1, 1])

    def test_no_target_covariance(self):
        # thermal return mode at N_B = 3 with an unsqueezed N0 = 1 idler
        a = 2 * 1 + 1
        v = np.diag([7.0, 7.0, a, a])
        np.testing.assert_allclose(symplectic_eigenvalues(v), [7, 3])

    def test_tmsv_is_pure(self):
        nus = symplectic_eigenvalues(tmsv_state(1.0).cov)
        np.testing.assert_allclose(nus, [1, 1], atol=1e-12)

    def test_rejects_asymmetric(self):
        v = np.eye(4)
        v[0, 1] = 0.5
        with pytest.raises(ValidationError):
            symplectic_eigenvalues(v)

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            symplectic_eigenvalues(np.diag([1.0, -1.0]))

    def test_invariant_under_symplectic_conjugation(self, rng):
        for _ in range(20):
            v = random_physical_cov(2, rng)
            s = random_symplectic(2, rng).entries
            before = symplectic_eigenvalues(v)
            after = symplectic_eigenvalues(s @ v @ s.T)
            np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)


def _displaced_pair(x: float) -> HypothesisPair:
    """A coherent hypothesis pair whose mean was set to x after validation."""
    pair = make_hypotheses(ProbeSpec(kind=ProbeKind.COHERENT, ns=1.0),
                           TargetScenario(0.01, 1.0))
    pair.rho_a.mean = np.array([x, 0.0])
    return pair


class TestCovarianceCheck:
    """The check every covariance passes, for states and the toolkit alike."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [
        lambda cov: GaussianState(1, np.zeros(2), cov),
        symplectic_eigenvalues,
        williamson,
    ], ids=["GaussianState", "symplectic_eigenvalues", "williamson"])
    def test_rejects_non_finite_covariance(self, call, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            call(np.diag([bad, 1.0]))
        with pytest.raises(ValidationError, match="non-finite"):
            call(np.diag([bad, bad]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [
        lambda x: GaussianState(1, np.array([x, 0.0]), np.eye(2)),
        coherent_state,
        lambda x: discriminate(_displaced_pair(x), 1e6),
    ], ids=["GaussianState", "coherent_state", "discriminate"])
    def test_rejects_non_finite_mean(self, call, bad):
        # discriminate gave DiscriminationResult(0.5, nan, nan, nan).
        with pytest.raises(ValidationError, match="finite"):
            call(bad)

    @pytest.mark.parametrize("call", [symplectic_eigenvalues, williamson],
                             ids=["symplectic_eigenvalues", "williamson"])
    def test_rejects_empty_covariance(self, call):
        with pytest.raises(ValidationError, match="2n x 2n"):
            call(np.zeros((0, 0)))


class TestWilliamson:
    def test_identity(self):
        dec = williamson(np.eye(4))
        np.testing.assert_allclose(dec.spectrum, [1, 1])
        np.testing.assert_allclose(dec.reconstruct(), np.eye(4), atol=1e-12)

    def test_thermal_already_canonical(self):
        dec = williamson(np.diag([9.0, 9.0]))
        np.testing.assert_allclose(dec.spectrum, [9.0])
        np.testing.assert_allclose(dec.reconstruct(), np.diag([9.0, 9.0]),
                                   rtol=1e-12)

    def test_random_physical_reconstruction(self, rng):
        for _ in range(100):
            v = random_physical_cov(2, rng)
            dec = williamson(v)
            residual = np.linalg.norm(dec.reconstruct() - v) / np.linalg.norm(v)
            assert residual < 1e-9
            # constructor of SymplecticMatrix already enforces S Omega S^T
            assert isinstance(dec.s_matrix, SymplecticMatrix)

    def test_spectrum_matches_eigenvalue_routine(self, rng):
        v = random_physical_cov(2, rng)
        np.testing.assert_allclose(
            dec := williamson(v).spectrum, symplectic_eigenvalues(v), rtol=1e-9
        )
        assert dec[0] >= dec[-1]

    def test_pure_state_spectrum_clamped_to_one(self):
        dec = williamson(tmsv_state(2.0).cov)
        assert np.all(dec.spectrum >= 1.0)
        np.testing.assert_allclose(dec.spectrum, [1, 1], atol=1e-9)

    def test_rejects_unphysical(self):
        with pytest.raises(ValidationError):
            williamson(np.diag([0.3, 0.3]))

    @pytest.mark.parametrize("n0", [3e3, 1e4])
    def test_accepts_what_gaussian_state_accepts(self, n0):
        # Schur reads tmsv_state(1e4) as 1 - 7e-9; the check is shared.
        dec = williamson(tmsv_state(n0).cov)
        np.testing.assert_allclose(dec.spectrum, [1.0, 1.0], atol=1e-6)

    def test_rejects_well_conditioned_shortfall_next_to_large_mode(self):
        with pytest.raises(ValidationError):
            williamson(np.diag([2e8, 2e8, 0.9, 0.9]))

    def test_idempotent_on_canonical_forms(self):
        v = np.diag([5.0, 5.0, 2.0, 2.0])
        dec = williamson(v)
        again = williamson(dec.reconstruct())
        np.testing.assert_allclose(again.spectrum, dec.spectrum, rtol=1e-12)
        np.testing.assert_allclose(again.reconstruct(), v, rtol=1e-12)


class TestApplySymplectic:
    def test_identity_leaves_state(self):
        state = tmsv_state(0.7)
        out = apply_symplectic(state, SymplecticMatrix(np.eye(4)))
        np.testing.assert_array_equal(out.cov, state.cov)

    def test_squeezer_inverse_pair(self):
        state = tmsv_state(0.5)
        n = photons_from_squeezing(0.9)
        fwd = single_mode_squeezer(n, 0, 2)
        rev = SymplecticMatrix(np.linalg.inv(fwd.entries))
        out = apply_symplectic(apply_symplectic(state, fwd), rev)
        assert np.abs(out.cov - state.cov).max() < 1e-12

    def test_dimension_mismatch(self):
        state = GaussianState(1, np.zeros(2), np.eye(2))
        with pytest.raises(ValidationError):
            apply_symplectic(state, SymplecticMatrix(np.eye(4)))

    @given(ra=st.floats(0.0, 1.5), rb=st.floats(0.0, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_squeezers_compose_additively_on_vacuum(self, ra, rb):
        # S(ra) S(rb) |vac> = S(ra + rb) |vac>
        vac = GaussianState(1, np.zeros(2), np.eye(2))
        split = apply_symplectic(
            apply_symplectic(vac, single_mode_squeezer(photons_from_squeezing(rb), 0, 1)),
            single_mode_squeezer(photons_from_squeezing(ra), 0, 1),
        )
        joint = apply_symplectic(
            vac, single_mode_squeezer(photons_from_squeezing(ra + rb), 0, 1)
        )
        np.testing.assert_allclose(split.cov, joint.cov, rtol=1e-10, atol=1e-10)


class TestSingleModeSqueezer:
    def test_zero_photons_is_identity(self):
        np.testing.assert_array_equal(
            single_mode_squeezer(0.0, 0, 2).entries, np.eye(4)
        )

    def test_one_photon_gammas(self):
        s = single_mode_squeezer(1.0, 1, 2).entries
        assert s[2, 2] == pytest.approx(np.sqrt(2) - 1)
        assert s[3, 3] == pytest.approx(np.sqrt(2) + 1)
        np.testing.assert_array_equal(s[:2, :2], np.eye(2))

    @given(n=photons)
    @settings(max_examples=50, deadline=None)
    def test_unit_determinant_block(self, n):
        s = single_mode_squeezer(n, 0, 1).entries
        assert s[0, 0] * s[1, 1] == pytest.approx(1.0, rel=1e-12)

    def test_strong_squeezing_accepted(self):
        # S Omega S^T - Omega rounds to ~1e-10 on entries of size ~2e3
        s = single_mode_squeezer(1e6, 1, 2).entries
        assert s[3, 3] == pytest.approx(2.0 * np.sqrt(1e6), rel=1e-6)

    def test_scaled_tolerance_still_rejects(self):
        with pytest.raises(ValidationError):
            SymplecticMatrix(np.diag([2e3, 2e3, 1.0, 1.0]))
        with pytest.raises(ValidationError):
            SymplecticMatrix(np.diag([1.0 + 1e-9, 1.0, 1.0, 1.0]))

    def test_mode_out_of_range(self):
        with pytest.raises(ValidationError):
            single_mode_squeezer(1.0, 2, 2)

    @given(n=photons)
    @settings(max_examples=30, deadline=None)
    def test_photon_squeezing_round_trip(self, n):
        assert photons_from_squeezing(squeezing_from_photons(n)) == pytest.approx(
            n, abs=1e-12
        )


class TestGaussianStateValidation:
    def test_rejects_unphysical_covariance(self):
        with pytest.raises(ValidationError):
            GaussianState(1, np.zeros(2), 0.5 * np.eye(2))

    def test_rejects_slightly_unphysical_covariance(self):
        # below the 1e-9 floor, which the scaled bound keeps for small |V|
        with pytest.raises(ValidationError):
            GaussianState(1, np.zeros(2), (1.0 - 1e-6) * np.eye(2))

    @pytest.mark.parametrize("n0", [3e3, 1e4])
    def test_accepts_strongly_squeezed_tmsv(self, n0):
        # symplectic_eigenvalues reads the smaller eigenvalue of this
        # covariance as 1 - 3.7e-8 (n0 = 1e4), rounding of ~0.4 eps max|V|^2
        # that a fixed 1e-9 bound rejected. The state itself is in standard
        # form and takes the closed form, which reads 1.
        state = tmsv_state(n0)
        np.testing.assert_allclose(state.spectrum, [1.0, 1.0], atol=1e-6)

    @pytest.mark.parametrize("cov", [
        np.diag([2e8, 2e8, 0.9, 0.9]),
        np.diag([2e8, 2e8, 1.0 - 1e-6, 1.0 - 1e-6]),
        np.diag([2e6, 2e6, 0.5, 1.5]),
    ])
    def test_tolerance_follows_conditioning_not_size(self, cov):
        # The smallest eigenvalue sits in a mode of its own and is fixed to
        # ~eps |V|, so a large thermal mode next to it no longer hides the
        # shortfall, as a bound of eps max|V|^2 (~9 at 2e8) would.
        with pytest.raises(ValidationError, match="smallest symplectic eigenvalue"):
            GaussianState(2, np.zeros(4), cov)

    def test_accepts_squeezed_probe_through_beam_splitter(self):
        # The matrix products of a beam splitter (angle 0.1) on
        # tmsv_state(5e3) leave the pure spectrum at 1 - 1.9e-8.
        c, s = np.cos(0.1), np.sin(0.1)
        bs = np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])
        state = apply_symplectic(tmsv_state(5e3), SymplecticMatrix(bs))
        np.testing.assert_allclose(state.spectrum, [1.0, 1.0], atol=1e-6)

    def test_keeps_the_spectrum_it_validated(self, rng):
        for _ in range(20):
            cov = random_physical_cov(2, rng)
            state = GaussianState(2, np.zeros(4), cov)
            assert np.array_equal(state.spectrum, symplectic_eigenvalues(cov))

    def test_rejects_wrong_mean_length(self):
        with pytest.raises(ValidationError):
            GaussianState(2, np.zeros(2), np.eye(4))

    def test_accepts_marginally_pure(self):
        GaussianState(1, np.zeros(2), (1.0 - 1e-10) * np.eye(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_spectrum_eigvals_cannot_resolve(self):
        # eigvals reads the spectrum of diag(1e-300, 1e300) as 0 and the
        # bound divided by a zero norm: the state was accepted with
        # spectrum [0.] and spectrum_tol inf, after two RuntimeWarnings.
        with pytest.raises(ValidationError, match="too wide a range"):
            GaussianState(1, np.zeros(2), np.diag([1e-300, 1e300]))

    @pytest.mark.parametrize("diagonal", [(1e16, 1e16, 0.5, 0.5), (0.5, 0.5, 1e16, 1e16)])
    def test_product_state_short_mode_takes_its_own_bound(self, diagonal):
        # The bound scaled with max|V| over both modes, 1e16: the state was
        # accepted with spectrum (1e16, 0.5) and spectrum_tol 17.8, though
        # the 0.5 mode's entries are exact to an ulp.
        with pytest.raises(ValidationError, match="smallest symplectic eigenvalue 0.5"):
            GaussianState(2, np.zeros(4), np.diag(diagonal))
        entries = diagonal + (0.0, 0.0)
        for dtype in (float, np.longdouble):
            column = standard_form_spectrum(np.array(entries, dtype=dtype)[:, None])
            assert "smallest symplectic eigenvalue" in column.errors[0]

    @pytest.mark.parametrize("short, other", [((5e-9, 5e7), (1.0, 1.0)),
                                              ((5e-9, 5e7), (1e16, 1e16)),
                                              ((1.0, 1.0), (1e16, 1e16))])
    def test_product_state_keeps_the_one_mode_decision(self, short, other):
        # Each order of the modes gets what GaussianState(1, ...) gives the
        # short mode alone: diag(5e-9, 5e7) (nu = 0.5) is within its own
        # rounding of a pure mode, and is accepted with tolerance 4.44.
        alone = GaussianState(1, np.zeros(2), np.diag(short))
        for diagonal in (short + other, other + short):
            state = GaussianState(2, np.zeros(4), np.diag(diagonal))
            assert state.spectrum[1] == pytest.approx(alone.spectrum[0], rel=1e-12)
            assert state.spectrum_tol == pytest.approx(alone.spectrum_tol, rel=1e-12)

    @pytest.mark.parametrize("diagonal", [(1e16, 8.1e-17, 0.95, 0.95),
                                          (0.95, 0.95, 1e16, 8.1e-17)])
    def test_product_state_long_mode_takes_its_own_bound(self, diagonal):
        # The 0.9 mode is within its own rounding of a pure mode (its bound
        # is ~1e17), but the 0.95 mode alone is rejected: only the short
        # mode was held to a bound, and the state passed with spectrum
        # (0.95, 0.9).
        with pytest.raises(ValidationError, match="smallest symplectic eigenvalue 0.95"):
            GaussianState(1, np.zeros(2), np.diag([0.95, 0.95]))
        with pytest.raises(ValidationError, match="eigenvalue of a mode of a product state 0.95"):
            GaussianState(2, np.zeros(4), np.diag(diagonal))
        entries = diagonal + (0.0, 0.0)
        for dtype in (float, np.longdouble):
            column = standard_form_spectrum(np.array(entries, dtype=dtype)[:, None])
            assert "of a mode of a product state" in column.errors[0]

    @pytest.mark.parametrize("first", [True, False])
    def test_product_state_out_of_standard_form_takes_each_mode_alone(self, first):
        # The eigvals path scaled the bound by max|V| over both modes: with
        # the second mode R diag(0.25, 1) R^T (nu = 0.5, x-p correlated) the
        # state was accepted with spectrum (1e16, 0.5) and spectrum_tol 22.2.
        c, s = np.cos(0.3), np.sin(0.3)
        rotation = np.array([[c, -s], [s, c]])
        cov = np.zeros((4, 4))
        big, small = (slice(0, 2), slice(2, 4)) if first else (slice(2, 4), slice(0, 2))
        cov[big, big] = np.diag([1e16, 1e16])
        cov[small, small] = rotation @ np.diag([0.25, 1.0]) @ rotation.T
        with pytest.raises(ValidationError, match="smallest symplectic eigenvalue 0.4999"):
            GaussianState(1, np.zeros(2), cov[small, small])
        with pytest.raises(ValidationError, match="smallest symplectic eigenvalue 0.4999"):
            GaussianState(2, np.zeros(4), cov)
        cov[small, small] = rotation @ np.diag([0.5, 2.0]) @ rotation.T  # nu = 1
        state = GaussianState(2, np.zeros(4), cov)
        assert state.spectrum == pytest.approx([1e16, 1.0], rel=1e-12)
        assert state.spectrum_tol == EIGENVALUE_CLAMP_TOL

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("diagonal, spectrum", [
        ((1e-300, 1e300, 1e-300, 1e300), (1.0, 1.0)),
        ((1e200, 1e200, 1.0, 1.0), (1e200, 1.0)),
        ((1.0, 1.0, 1e200, 1e200), (1e200, 1.0)),
    ])
    def test_wide_product_states(self, diagonal, spectrum):
        # det X of the first underflows and x^2 of the others overflows; each
        # mode has nu = sqrt(x x) sqrt(p p). The state and its discord agree.
        state = GaussianState(2, np.zeros(4), np.diag(diagonal))
        assert tuple(state.spectrum) == pytest.approx(spectrum, rel=1e-15)
        assert state.spectrum_tol == EIGENVALUE_CLAMP_TOL
        result = gaussian_discord(state)
        assert (result.value, result.branch) == (0.0, "product")
        assert result.nu_pair == pytest.approx(spectrum, rel=1e-15)
        entries = diagonal + (0.0, 0.0)
        for dtype in (float, np.longdouble):
            column = standard_form_spectrum(np.array(entries, dtype=dtype)[:, None])
            assert column.errors == [None]
            np.testing.assert_allclose(column.nu[:, 0].astype(float), spectrum, rtol=1e-15)


def exact_nu_minus(entries) -> float:
    """nu_- of six standard-form entries, taken as exact, to 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        ax, ap, bx, bp, cx, cp = map(mpmath.mpf, entries)
        det = (ax * bx - cx * cx) * (ap * bp - cp * cp)
        trace = ap * ax + bp * bx + 2 * cp * cx
        return float(mpmath.sqrt(2 * det / (trace + mpmath.sqrt(trace**2 - 4 * det))))


def exact_decision(entries) -> bool:
    """Whether six standard-form entries, taken as exact, are physical within
    the shortfall gqi allows: nu_- to 60 digits against the bound of the
    closed form; in a product state, each mode's nu against its own
    one-mode bound, max(1e-9, 8 eps max(x, p) (x + p) / (2 nu))."""
    mpmath = pytest.importorskip("mpmath")
    ax, ap, bx, bp, cx, cp = entries
    allowed = standard_form_spectrum(entries).tol
    if cx or cp:
        return exact_nu_minus(entries) >= 1.0 - allowed
    with mpmath.workdps(60):
        modes = sorted((float(mpmath.sqrt(mpmath.mpf(x) * mpmath.mpf(p))), x, p)
                       for x, p in ((ax, ap), (bx, bp)))
    (nu_short, _, _), (nu_long, x, p) = modes
    return (nu_short >= 1.0 - allowed
            and nu_long >= 1.0 - _allowed_shortfall(max(x, p), (x + p) / (2.0 * nu_long)))


class TestValidationRoute:
    """A standard-form covariance is validated in closed form, any other by eigvals."""

    @staticmethod
    def accepts(validate, cov: np.ndarray) -> bool:
        try:
            validate(cov)
        except ValidationError:
            return False
        return True

    def test_decisions_at_the_edge(self):
        # Each probe, rho_A and rho_B is scaled so that its closed-form nu_-
        # reads 1 - m tol, tol the shortfall it would be allowed there. Where
        # the eigvals path decides otherwise, its spectrum is off by about
        # tol: the closed-form decision is the one nu_- to 60 digits gives,
        # or, in a product state such as rho_B, each mode's nu against its
        # own bound.
        rng = np.random.default_rng(13)
        for _ in range(150):
            n0, n1, n2, nb = 10.0 ** rng.uniform([-3, -3, -3, -3], [4, 8, 8, 9])
            probe = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1, n2=n2)
            pair = make_hypotheses(probe, TargetScenario(10.0 ** rng.uniform(-4, -0.01), nb))
            for cov in (probe_state(probe).cov, pair.rho_a.cov, pair.rho_b.cov):
                nu_lo = standard_form_spectrum(_standard_entries(cov)).nu[1]
                edge = cov * ((1.0 - 2.0 * EIGENVALUE_CLAMP_TOL) / nu_lo)
                tol = standard_form_spectrum(_standard_entries(edge)).tol
                for m in (0.5, 2.0):
                    scaled = cov * ((1.0 - m * tol) / nu_lo)
                    accepted = self.accepts(lambda v: GaussianState(2, np.zeros(4), v),
                                            scaled)
                    if accepted != self.accepts(lambda v: _require_physical(
                            v, symplectic_eigenvalues(v).min()), scaled):
                        assert accepted == exact_decision(_standard_entries(scaled))


def standard_entries(cov: np.ndarray) -> np.ndarray:
    """The six entries standard_form_spectrum takes, as a (6, 1) column."""
    return cov[[0, 1, 2, 3, 0, 1], [0, 1, 2, 3, 2, 3]][:, None]


class TestStandardFormSpectrum:
    @given(n0=st.floats(0.0, 10.0), n1=st.floats(0.0, 1e3), n2=st.floats(0.0, 1e3),
           kappa=st.floats(0.0, 0.99), nb=st.floats(0.0, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_matches_eigvals_spectrum(self, n0, n1, n2, kappa, nb):
        entries = _return_entries(_probe_entries(n0, n1, n2), kappa, nb)
        cov = _two_mode_cov(*entries)
        spec = standard_form_spectrum(np.array(entries)[:, None])
        assert spec.errors == [None]
        np.testing.assert_allclose(spec.nu[:, 0], symplectic_eigenvalues(cov),
                                   rtol=1e-12, atol=1e-6 * np.finfo(float).eps
                                   * np.abs(cov).max() ** 2)

    def test_rejects_what_gaussian_state_rejects(self):
        covs = [0.5 * np.eye(4), (1.0 - 1e-6) * np.eye(4),
                np.diag([2e8, 2e8, 0.9, 0.9]), np.diag([2e6, 2e6, 0.5, 1.5])]
        spec = standard_form_spectrum(np.hstack([standard_entries(c) for c in covs]))
        for cov, error in zip(covs, spec.errors):
            with pytest.raises(ValidationError, match="smallest symplectic eigenvalue"):
                GaussianState(2, np.zeros(4), cov)
            assert "smallest symplectic eigenvalue" in error

    @pytest.mark.parametrize("n0", [3e3, 1e4])
    def test_accepts_strongly_squeezed_tmsv(self, n0):
        spec = standard_form_spectrum(standard_entries(tmsv_state(n0).cov))
        assert spec.errors == [None]
        np.testing.assert_allclose(spec.nu[:, 0], [1.0, 1.0], atol=1e-6)

    @given(n0=st.floats(0.0, 10.0), n1=st.floats(0.0, 1e3), n2=st.floats(0.0, 1e3),
           kappa=st.floats(0.0, 0.99), nb=st.floats(0.0, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_floats_match_a_column(self, n0, n1, n2, kappa, nb):
        # Six floats take no numpy call and round as the array path does.
        entries = _return_entries(_probe_entries(n0, n1, n2), kappa, nb)
        floats = standard_form_spectrum(entries)
        column = standard_form_spectrum(np.array(entries)[:, None])
        assert floats.nu == tuple(column.nu[:, 0])
        assert (floats.gap, floats.k) == (column.gap[0], tuple(column.k[:, 0]))
        assert (floats.errors, floats.tol) == (column.errors, column.tol[0])

    def test_floats_rejected_alone(self):
        good = tuple(standard_entries(tmsv_state(1.0).cov)[:, 0])
        for bad, reason in ((good[:2] + (np.nan,) + good[3:], "non-finite"),
                            (good[:4] + (10.0,) + good[5:], "positive definite"),
                            ((1.0 - 1e-6,) * 4 + (0.0, 0.0), "smallest symplectic")):
            spec = standard_form_spectrum(bad)
            assert len(spec.errors) == 1 and reason in spec.errors[0]

    def test_wide_entries_keep_their_spectrum(self):
        # x^2 ~ 1e600 overflowed, nu_- came out 0 and the shortfall check
        # divided by it (ZeroDivisionError), as floats and as a column.
        entries = (1.0, 1.0, 1.0, 1e300, 0.0, 0.0)
        floats = standard_form_spectrum(entries)
        assert floats.errors == [None]
        assert floats.nu == pytest.approx((1e150, 1.0), rel=1e-15)
        column = standard_form_spectrum(np.array(entries)[:, None])
        assert column.errors == [None]
        np.testing.assert_allclose(column.nu[:, 0], [1e150, 1.0], rtol=1e-15)

    def test_underflowing_entries_are_rejected(self):
        # det X det P ~ 1e-400 underflowed to 0: nu_- read 0, then the same
        # division by it.
        entries = (1e-100,) * 4 + (0.0, 0.0)
        for spec in (standard_form_spectrum(entries),
                     standard_form_spectrum(np.array(entries)[:, None])):
            assert "smallest symplectic eigenvalue 1e-100" in spec.errors[0]

    def test_entries_beyond_range_are_rejected(self):
        # PX has entries of 1e400 and, with the cross entries, no scale
        # brings them into range: no float64 spectrum, and a ValidationError
        # reason rather than a NaN one. (Without them the modes are apart,
        # as TestGaussianStateValidation::test_wide_product_states checks.)
        entries = (1e200, 1e200, 1.0, 1.0, 1e-5, 1e-5)
        for spec in (standard_form_spectrum(entries),
                     standard_form_spectrum(np.array(entries)[:, None])):
            assert spec.errors == ["covariance entries span too wide a range"]

    def test_rejects_each_bad_covariance_alone(self):
        good = standard_entries(tmsv_state(1.0).cov)[:, 0]
        nan, indefinite = good.copy(), good.copy()
        nan[2] = np.nan
        indefinite[4] = 10.0  # x1x2 beyond sqrt(x1x1 x2x2)
        spec = standard_form_spectrum(np.array([good, nan, indefinite, good]).T)
        assert spec.errors == [None, "covariance has a non-finite entry",
                               "covariance matrix is not positive definite", None]
        assert spec.nu[:, 0] == pytest.approx([1.0, 1.0])
