"""Independent brute-force verification path on dense truncated tensors.

Everything here is deliberately naive: amplitudes come from direct
factorial formulas (no shared log-space kernels), measurements are literal
projector sums over a dense multimode array, and entanglement comes from a
singular value decomposition.  Small photon cutoffs only; the point is an
independent cross-check of the closed-form encoding path, not performance.

Mode layout for the pair construction: (ancilla A, ancilla B, squeezed
half A, squeezed half B).  The first total-number measurement acts on
modes (0, 2) and yields K; the second acts on (1, 3) and yields L.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# Above this cutoff the direct factorial in the amplitude formulas would
# overflow binary64; the oracle is meant for far smaller instances anyway.
_MAX_CUTOFF = 120

_SINGULAR_VALUE_FLOOR = 1e-13

PAIR_GROUP_K = (0, 2)
PAIR_GROUP_L = (1, 3)


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, like the encoded states
class DenseJointState:
    """Dense multimode amplitude array with declared truncation loss.

    Invariant: total squared magnitude == 1 - truncation_loss to 1e-10.
    """

    amplitudes: np.ndarray
    per_mode_cutoffs: tuple[int, ...]
    truncation_loss: float


def _check_cutoff(cutoff: int) -> int:
    cutoff = operator.index(cutoff)
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if cutoff > _MAX_CUTOFF:
        raise ValueError(f"dense oracle supports cutoffs up to {_MAX_CUTOFF}, got {cutoff}")
    return cutoff


def _coherent_vector(amplitude: complex, phi: float, cutoff: int) -> np.ndarray:
    out = np.empty(cutoff + 1, dtype=complex)
    rotated = complex(amplitude) * complex(math.cos(phi), math.sin(phi))
    for n in range(cutoff + 1):
        out[n] = rotated**n / math.sqrt(math.factorial(n))
    return math.exp(-abs(amplitude) ** 2 / 2.0) * out


def _tmss_vector(eta: float, phi: float, cutoff: int) -> np.ndarray:
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta!r}")
    n = np.arange(cutoff + 1)
    return math.sqrt(1.0 - eta * eta) * eta**n * np.exp(2j * phi * n)


def _finish(amplitudes: np.ndarray, cutoffs: tuple[int, ...]) -> DenseJointState:
    amplitudes.setflags(write=False)
    loss = max(0.0, 1.0 - float(np.sum(np.abs(amplitudes) ** 2)))
    return DenseJointState(amplitudes, cutoffs, loss)


def build_joint_coherent(alpha, beta, phi: float, cutoff: int) -> DenseJointState:
    """Signal |alpha> and ancilla |beta>, both phase-locked to phi, as a
    dense two-mode array truncated at cutoff photons per mode."""
    cutoff = _check_cutoff(cutoff)
    joint = np.outer(
        _coherent_vector(alpha, phi, cutoff),
        _coherent_vector(beta, phi, cutoff),
    )
    return _finish(joint, (cutoff, cutoff))


def build_joint_pair(eta: float, beta, phi: float, cutoff: int) -> DenseJointState:
    """Two coherent ancillas |beta> and a two-mode squeezed pair, all
    phase-locked to phi, as a dense four-mode array."""
    cutoff = _check_cutoff(cutoff)
    ancilla = _coherent_vector(beta, phi, cutoff)
    squeezed = _tmss_vector(eta, phi, cutoff)
    joint = np.zeros((cutoff + 1,) * 4, dtype=complex)
    pair_block = np.outer(ancilla, ancilla)
    for n in range(cutoff + 1):
        joint[:, :, n, n] = pair_block * squeezed[n]
    return _finish(joint, (cutoff,) * 4)


@functools.lru_cache(maxsize=8)
def _occupation_grids(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    return tuple(np.indices(shape))


def project_total_number(
    state: DenseJointState,
    mode_group: tuple[int, ...] | list[int],
    outcome: int,
) -> tuple[float, DenseJointState | None]:
    """Project onto the subspace where the occupations of mode_group sum to
    outcome.  Returns (probability, renormalized state); an impossible
    outcome returns (0.0, None)."""
    modes = tuple(mode_group)
    if not modes:
        raise ValueError("mode_group must be non-empty")
    ndim = state.amplitudes.ndim
    if any(not 0 <= m < ndim for m in modes):
        raise ValueError(f"mode indices must lie in [0, {ndim}), got {modes}")
    outcome = operator.index(outcome)
    if outcome < 0:
        raise ValueError(f"outcome must be >= 0, got {outcome}")

    grids = _occupation_grids(state.amplitudes.shape)
    total = sum(grids[m] for m in modes)
    mask = total == outcome
    probability = float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
    if probability == 0.0:
        return 0.0, None
    projected = np.where(mask, state.amplitudes, 0.0) / math.sqrt(probability)
    projected.setflags(write=False)
    return probability, DenseJointState(projected, state.per_mode_cutoffs, 0.0)


def pair_outcomes(joint: DenseJointState, top: int) -> Iterator[tuple[int, int, float, DenseJointState]]:
    """The protocol's two measurements on a four-mode pair state: K on
    PAIR_GROUP_K, then L on PAIR_GROUP_L.  Yields (K, L, P(K, L), state
    after both) for K, L <= top, K-major, skipping outcomes that a
    projection leaves empty."""
    for k in range(top + 1):
        p_k, after_k = project_total_number(joint, PAIR_GROUP_K, k)
        if after_k is None:
            continue
        for l in range(top + 1):
            p_l, after_l = project_total_number(after_k, PAIR_GROUP_L, l)
            if after_l is not None:
                yield k, l, p_k * p_l, after_l


def schmidt_entropy_dense(state: DenseJointState, cut: tuple[int, ...] | list[int]) -> float:
    """Entanglement entropy in ebits across the bipartition (cut | rest),
    from singular values of the reshaped amplitude matrix."""
    side_a = tuple(cut)
    ndim = state.amplitudes.ndim
    if not side_a or any(not 0 <= m < ndim for m in side_a):
        raise ValueError(f"cut must name a non-empty subset of modes 0..{ndim - 1}")
    side_b = tuple(m for m in range(ndim) if m not in side_a)
    if not side_b:
        raise ValueError("cut must leave at least one mode on the other side")

    reordered = np.transpose(state.amplitudes, side_a + side_b)
    dim_a = int(np.prod([reordered.shape[i] for i in range(len(side_a))]))
    matrix = reordered.reshape(dim_a, -1)
    singular = np.linalg.svd(matrix, compute_uv=False)
    singular = singular[singular >= _SINGULAR_VALUE_FLOOR]
    weights = singular**2
    weights = weights / weights.sum()
    nonzero = weights[weights > 0.0]
    return float(-(nonzero * np.log2(nonzero)).sum())


def coherent_logical_amplitudes(state: DenseJointState, total: int) -> np.ndarray:
    """Amplitude vector over the logical index n for a two-mode state
    supported on occupations summing to total: entry n is <n, total-n|state>."""
    if state.amplitudes.ndim != 2:
        raise ValueError("expected a two-mode state")
    total = operator.index(total)
    cutoff = state.per_mode_cutoffs[0]
    out = np.zeros(total + 1, dtype=complex)
    for n in range(total + 1):
        if n <= cutoff and 0 <= total - n <= state.per_mode_cutoffs[1]:
            out[n] = state.amplitudes[n, total - n]
    return out


def pair_schmidt_amplitudes(state: DenseJointState, k: int, l: int) -> np.ndarray:
    """Schmidt-coefficient vector over n for a four-mode state supported on
    occupations (k-n, l-n, n, n)."""
    if state.amplitudes.ndim != 4:
        raise ValueError("expected a four-mode state")
    k = operator.index(k)
    l = operator.index(l)
    cutoff = state.per_mode_cutoffs[0]
    top = min(k, l)
    out = np.zeros(top + 1, dtype=complex)
    for n in range(top + 1):
        if n <= cutoff and k - n <= cutoff and l - n <= cutoff:
            out[n] = state.amplitudes[k - n, l - n, n, n]
    return out
