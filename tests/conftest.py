import numpy as np
import pytest

from gqi import symplectic_form
from oracles import SymplecticMatrix


def random_symplectic(n_modes: int, rng: np.random.Generator,
                      scale: float = 0.5) -> SymplecticMatrix:
    """Random symplectic via exp(Omega A) with A symmetric."""
    from scipy.linalg import expm

    a = rng.normal(scale=scale, size=(2 * n_modes, 2 * n_modes))
    a = 0.5 * (a + a.T)
    return SymplecticMatrix(expm(symplectic_form(n_modes) @ a))


def random_physical_cov(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """S diag(nu) S^T with nu >= 1 and S a random symplectic."""
    s = random_symplectic(n_modes, rng).entries
    nu = 1.0 + rng.uniform(0.0, 4.0, size=n_modes)
    return (s * np.repeat(nu, 2)) @ s.T


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance scorecard after the run, outside output capture."""
    import sys

    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    lines = getattr(module, "SCORECARD", None) if module else None
    if lines:
        terminalreporter.section("acceptance scorecard")
        for line in lines:
            terminalreporter.write_line(line)
