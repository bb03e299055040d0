"""Gaussian quantum discord of two-mode states from block determinants.

The measured party is mode 2 (the idler in the return-idler ordering), and
all entropies are in nats.
"""

from dataclasses import dataclass

import numpy as np

from .probes import (
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    _probe_entries,
    _return_idler_state,
)
from .symplectic import GaussianState, ValidationError

_ZERO_CLAMP = 1e-10


@dataclass
class BlockDeterminants:
    """Determinants of the 2x2 blocks and of the full covariance matrix."""

    alpha: float
    beta: float
    gamma: float
    delta: float


@dataclass
class DiscordResult:
    value: float
    branch: str  # which closed-form conditional-entropy expression fired
    nu_pair: tuple[float, float]


def entropy_f(x: float) -> float:
    """Thermal-mode entropy f(x) = (x+1)/2 ln (x+1)/2 - (x-1)/2 ln (x-1)/2."""
    if x < 1.0 - _ZERO_CLAMP:
        raise ValidationError(f"entropy_f needs x >= 1, got {x}")
    if x <= 1.0 + 1e-15:
        return 0.0
    up = 0.5 * (x + 1.0)
    dn = 0.5 * (x - 1.0)
    return up * np.log(up) - dn * np.log(dn)


def block_determinants(state: GaussianState) -> BlockDeterminants:
    if state.n_modes != 2:
        raise ValidationError(
            f"block_determinants needs a 2-mode state, got {state.n_modes}"
        )
    v = state.cov
    return BlockDeterminants(
        alpha=float(np.linalg.det(v[:2, :2])),
        beta=float(np.linalg.det(v[2:, 2:])),
        gamma=float(np.linalg.det(v[:2, 2:])),
        delta=float(np.linalg.det(v)),
    )


def gaussian_discord(state: GaussianState) -> DiscordResult:
    """Gaussian discord with the measurement on mode 2.

    D = f(sqrt(beta)) - f(nu_+) - f(nu_-) + f(sqrt(eps)), where nu_+- are the
    symplectic eigenvalues of the full covariance matrix (state.spectrum) and
    eps follows the closed-form branch on the block determinants. A
    spectrum value within the tolerance the state was validated with
    (state.spectrum_tol) of 1 is a pure mode, and is taken as exactly 1.
    """
    d = block_determinants(state)
    alpha, beta, gamma, delta = d.alpha, d.beta, d.gamma, d.delta
    nu_hi, nu_lo = (1.0 if abs(nu - 1.0) <= state.spectrum_tol else nu
                    for nu in state.spectrum.tolist())

    if nu_hi == 1.0:
        # Pure state: eps -> 1 and both entropy terms vanish, leaving the
        # marginal entropy. The closed forms below lose ~1e-7 to cancellation
        # exactly on this boundary, so take the limit directly.
        return DiscordResult(entropy_f(np.sqrt(beta)), "pure", (nu_hi, nu_lo))

    if (delta - alpha * beta) ** 2 <= (beta + 1.0) * gamma**2 * (alpha + delta):
        branch = "measurement-aligned"
        inner = max(gamma**2 + (beta - 1.0) * (delta - alpha), 0.0)
        # A pure mode 2 (beta -> 1) only occurs in a product state, where
        # measuring it leaves mode 1 as it was: the limit is eps -> alpha.
        eps = (
            2.0 * gamma**2
            + (beta - 1.0) * (delta - alpha)
            + 2.0 * abs(gamma) * np.sqrt(inner)
        ) / (beta - 1.0) ** 2 if beta > 1.0 + _ZERO_CLAMP else alpha
    else:
        branch = "generic"
        inner = max(
            gamma**4 + (delta - alpha * beta) ** 2
            - 2.0 * gamma**2 * (delta + alpha * beta),
            0.0,
        )
        eps = (alpha * beta - gamma**2 + delta - np.sqrt(inner)) / (2.0 * beta)

    eps = max(eps, 1.0)
    value = (
        entropy_f(np.sqrt(beta))
        - entropy_f(nu_hi)
        - entropy_f(nu_lo)
        + entropy_f(np.sqrt(eps))
    )
    if value < -_ZERO_CLAMP:
        raise ValidationError(f"discord evaluated to {value}; non-physical input?")
    return DiscordResult(max(value, 0.0), branch, (nu_hi, nu_lo))


def remained_discord(probe: ProbeSpec, scenario: TargetScenario) -> DiscordResult:
    """Discord left between the return and idler modes after the channel."""
    if probe.kind is ProbeKind.COHERENT:
        raise ValidationError("remained_discord needs an idler mode")
    entries = _probe_entries(probe.n0, probe.n1, probe.n2)
    return gaussian_discord(_return_idler_state(entries, scenario))
