"""Truncated Fock-space representations of the two physical input states.

A coherent state of complex amplitude alpha, phase-locked to a reference
with phase phi, has number-basis amplitudes

    a_n = exp(-|alpha|^2 / 2) alpha^n e^(i n phi) / sqrt(n!),

and a two-mode squeezed state with parameter eta in [0, 1) is already
Schmidt-decomposed over the pair basis |n>|n> with coefficients

    c_n = sqrt(1 - eta^2) eta^n e^(2 i n phi).

Both are truncated at an explicit, epsilon-controlled photon-number cutoff
so the discarded tail mass is a declared quantity, not an accident.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .encoding import _require_eta
from .numerics import log_poisson_weight

DEFAULT_EPSILON = 1e-12

# Hard stop for the truncation search; mean + 60 sigma is unreachable for any
# epsilon all the way down to the subnormal range.
_WINDOW_SIGMAS = 60.0


@dataclass(frozen=True)
class CoherentParams:
    """Coherent-state amplitude plus the reference phase it is locked to."""

    alpha: complex
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha.real) and math.isfinite(self.alpha.imag)):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")


@dataclass(frozen=True)
class TmssParams:
    """Two-mode squeezing parameter eta = tanh r, plus the reference phase."""

    eta: float
    phi: float = 0.0

    def __post_init__(self):
        _require_eta(self.eta)


@dataclass(frozen=True)
class TruncatedKet:
    """Single-mode state over Fock occupations 0..n_max with norm bookkeeping.

    Invariant: sum(|amplitudes|^2) + truncation_loss == 1 to 1e-12.
    """

    amplitudes: np.ndarray
    n_max: int
    truncation_loss: float

    def norm_squared(self) -> float:
        return float(math.fsum(np.abs(self.amplitudes) ** 2))


def _frozen(amplitudes: np.ndarray) -> np.ndarray:
    amplitudes.setflags(write=False)
    return amplitudes


def coherent_amplitudes(params: CoherentParams, epsilon: float = DEFAULT_EPSILON) -> TruncatedKet:
    """Truncated coherent ket; the cutoff is the smallest n_max whose Poisson
    upper-tail mass (mean |alpha|^2) does not exceed epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    alpha = complex(params.alpha)
    mean = abs(alpha) ** 2
    if mean == 0.0:
        return TruncatedKet(_frozen(np.array([1.0 + 0.0j])), 0, 0.0)

    hard_stop = int(math.ceil(mean + _WINDOW_SIGMAS * math.sqrt(mean))) + 64
    pmf = []
    loss = 1.0
    n_max = -1
    for k in range(hard_stop + 1):
        pmf.append(math.exp(log_poisson_weight(mean, k)))
        loss = 1.0 - math.fsum(pmf)
        if loss <= epsilon:
            n_max = k
            break
    if n_max < 0:
        raise RuntimeError(
            f"coherent truncation search did not converge (mean={mean}, epsilon={epsilon})"
        )

    theta = cmath.phase(alpha) + params.phi
    n = np.arange(n_max + 1)
    amplitudes = np.sqrt(np.array(pmf)) * np.exp(1j * theta * n)
    return TruncatedKet(_frozen(amplitudes), n_max, max(0.0, loss))


def tmss_schmidt_amplitudes(params: TmssParams, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Schmidt amplitudes c_n of the two-mode squeezed state, truncated where
    the geometric tail sum_{n > n_max} (1-eta^2) eta^(2n) = eta^(2(n_max+1))
    first drops to epsilon or below."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    eta = params.eta
    if eta == 0.0:
        return _frozen(np.array([1.0 + 0.0j]))

    # Smallest n_max with eta^(2(n_max+1)) <= epsilon.
    n_max = max(0, math.ceil(math.log(epsilon) / (2.0 * math.log(eta)) - 1.0))
    while eta ** (2 * (n_max + 1)) > epsilon:
        n_max += 1

    n = np.arange(n_max + 1)
    magnitudes = math.sqrt(1.0 - eta * eta) * eta ** n.astype(float)
    return _frozen(magnitudes * np.exp(2j * params.phi * n))


def fidelity(a: TruncatedKet, b: TruncatedKet) -> float:
    """|<a|b>|^2 with the shorter amplitude vector zero-padded."""
    va, vb = a.amplitudes, b.amplitudes
    m = min(va.size, vb.size)
    return float(abs(np.vdot(va[:m], vb[:m])) ** 2)
