import numpy as np
import pytest

from gqi import (
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    ValidationError,
    make_hypotheses,
    q_s,
)
from oracles import (annihilation, beam_splitter_matrix, fock_hypotheses, fock_oracle_q_s,
                     q_s_from_density_matrices, squeezer_matrix)

CUTOFF = 30
SMALL_SCENARIO = TargetScenario(kappa=0.3, nb=0.4)


def fock_moments(rho, cutoff):
    """Quadrature covariance and mean of a two-mode Fock density matrix."""
    a = annihilation(cutoff)
    eye = np.eye(cutoff)
    x1 = np.kron(a + a.T, eye)
    p1 = np.kron(-1j * (a - a.T), eye)
    x2 = np.kron(eye, a + a.T)
    p2 = np.kron(eye, -1j * (a - a.T))
    ops = [x1, p1, x2, p2]
    mean = np.array([np.trace(rho @ op).real for op in ops])
    cov = np.empty((4, 4))
    for i, oi in enumerate(ops):
        for j, oj in enumerate(ops):
            sym = 0.5 * (oi @ oj + oj @ oi)
            cov[i, j] = np.trace(rho @ sym).real - mean[i] * mean[j]
    return mean, cov


class TestFockBuildingBlocks:
    def test_squeezer_matches_gaussian_variances(self):
        # <x^2> = gamma_-^2, <p^2> = gamma_+^2 on squeezed vacuum
        n = 0.5
        r = np.arcsinh(np.sqrt(n))
        vec = squeezer_matrix(r, 40)[:, 0]
        a = annihilation(40)
        x = a + a.T
        p = -1j * (a - a.T)
        gm = np.sqrt(n + 1) - np.sqrt(n)
        gp = np.sqrt(n + 1) + np.sqrt(n)
        # agreement limited by the cutoff, not by machine precision
        assert vec @ (x @ x) @ vec == pytest.approx(gm**2, rel=1e-6)
        assert (vec @ (p @ p) @ vec).real == pytest.approx(gp**2, rel=1e-6)

    def test_beam_splitter_transmits_expected_energy(self):
        kappa = 0.3
        cutoff = 25
        bs = beam_splitter_matrix(kappa, cutoff).reshape(
            cutoff, cutoff, cutoff, cutoff
        )
        # one photon in the signal port, vacuum in the source port
        inp = np.zeros((cutoff, cutoff))
        inp[1, 0] = 1.0
        out = np.einsum("sexy,xy->se", bs, inp)
        number = np.arange(cutoff)
        signal_energy = np.einsum("se,s->", out**2, number)
        assert signal_energy == pytest.approx(kappa, rel=1e-10)

    def test_hypothesis_moments_match_gaussian_channel(self):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=0.5)
        rho_a, rho_b = fock_hypotheses(probe, SMALL_SCENARIO, CUTOFF)
        pair = make_hypotheses(probe, SMALL_SCENARIO)
        for rho, state in ((rho_a, pair.rho_a), (rho_b, pair.rho_b)):
            mean, cov = fock_moments(rho, CUTOFF)
            np.testing.assert_allclose(mean, state.mean, atol=1e-8)
            np.testing.assert_allclose(cov, state.cov, atol=1e-4)


class TestOracleAgreement:
    def test_no_target_gives_unity(self):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=0.3)
        scenario = TargetScenario(kappa=0.0, nb=0.4)
        rho_a, rho_b = fock_hypotheses(probe, scenario, CUTOFF)
        for s in (0.3, 0.5, 0.7):
            assert q_s_from_density_matrices(rho_a, rho_b, s) == pytest.approx(
                1.0, abs=1e-9
            )

    @pytest.mark.parametrize("n0", [0.05, 0.1])
    @pytest.mark.parametrize("n1", [0.0, 0.5])
    def test_two_mode_grid(self, n0, n1):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=n0, n1=n1)
        pair = make_hypotheses(probe, SMALL_SCENARIO)
        rho_a, rho_b = fock_hypotheses(probe, SMALL_SCENARIO, CUTOFF)
        for s in (0.3, 0.5, 0.7):
            oracle = q_s_from_density_matrices(rho_a, rho_b, s)
            assert abs(q_s(pair, s) - oracle) < 1e-4

    def test_single_mode_coherent(self):
        probe = ProbeSpec(kind=ProbeKind.COHERENT, ns=0.5)
        pair = make_hypotheses(probe, SMALL_SCENARIO)
        rho_a, rho_b = fock_hypotheses(probe, SMALL_SCENARIO, CUTOFF)
        for s in (0.3, 0.5, 0.7):
            oracle = q_s_from_density_matrices(rho_a, rho_b, s)
            assert abs(q_s(pair, s) - oracle) < 1e-4

    def test_refuses_insufficient_cutoff(self):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=2.0, n1=2.0)
        with pytest.raises(ValidationError):
            fock_oracle_q_s(probe, TargetScenario(0.3, 3.0), 0.5, cutoff=6)
