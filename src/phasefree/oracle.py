"""Independent brute-force verification path on dense truncated tensors.

Everything here is deliberately naive: each ket is a running product
from its vacuum amplitude (no shared log-space kernels), measurements are
literal projector sums over a dense multimode array, and entanglement comes
from a singular value decomposition.  A coherent ket is
a_0 = e^(-|alpha|^2/2), a_n = a_(n-1) alpha e^(i phi) / sqrt(n), and a
squeezed one s_0 = sqrt(1 - eta^2), s_n = s_(n-1) eta u^2 with
u = cos phi + i sin phi: every partial product is an amplitude, so none
overflows, and the phase enters only through u.  A state is its amplitude
array and its truncation loss; its cutoffs are its array's shape less one.
Only the inputs are shared with the library: each count, eta, amplitude
and phase is checked by its ``numerics._require_*`` rule, while every
amplitude, projection and SVD stays this module's own arithmetic.  Small
photon cutoffs only, 0 to 120 photons per mode, and a pair state at most
80, as its array and |amplitude|^2 may take 2^30 bytes; the point is an
independent cross-check of the closed-form encoding path, not performance.

Mode layout for the pair construction: (ancilla A, ancilla B, squeezed
half A, squeezed half B).  The first total-number measurement acts on
modes (0, 2) and yields K; the second acts on (1, 3) and yields L.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .numerics import _require_amplitude, _require_eta, _require_finite, _require_outcome

# The oracle's scope: small dense instances; this cap guards no float range.
_MAX_CUTOFF = 120

# A pair state peaks at 24 bytes a cell, its complex array and the float
# |amplitude|^2 that _finish sums; one may take at most 2^30 bytes, the
# budget of encoding's grids, which allows cutoffs up to 80.
_PAIR_BYTES_PER_CELL = 24
_PAIR_BUDGET_BYTES = 1 << 30

_SINGULAR_VALUE_FLOOR = 1e-13

PAIR_GROUP_K = (0, 2)
PAIR_GROUP_L = (1, 3)


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, like the encoded states
class DenseJointState:
    """Dense multimode amplitude array with declared truncation loss; mode
    i holds 0 to amplitudes.shape[i] - 1 photons.

    Invariant: total squared magnitude == 1 - truncation_loss to 1e-10.
    """

    amplitudes: np.ndarray
    truncation_loss: float


def _check_cutoff(cutoff: int) -> int:
    cutoff = _require_outcome(cutoff, "cutoff")
    if cutoff > _MAX_CUTOFF:
        raise ValueError(f"dense oracle supports cutoffs up to {_MAX_CUTOFF}, got {cutoff}")
    return cutoff


def _coherent_vector(amplitude: complex, phi: float, cutoff: int) -> np.ndarray:
    """a_0 = e^(-|amplitude|^2/2), a_n = a_(n-1) amplitude e^(i phi) / sqrt(n)."""
    step = complex(amplitude) * complex(math.cos(phi), math.sin(phi))
    return np.cumprod(np.append(math.exp(-abs(amplitude) ** 2 / 2.0), step / np.sqrt(np.arange(1.0, cutoff + 1))))


def _tmss_vector(eta: float, phi: float, cutoff: int) -> np.ndarray:
    """s_0 = sqrt(1 - eta^2), s_n = s_(n-1) eta u^2 with u = cos phi + i sin phi."""
    eta = _require_eta(eta)
    return np.cumprod(np.append(math.sqrt(1.0 - eta * eta), np.full(cutoff, eta * complex(math.cos(phi), math.sin(phi)) ** 2)))


def _finish(amplitudes: np.ndarray) -> DenseJointState:
    amplitudes.setflags(write=False)
    loss = max(0.0, 1.0 - float(np.sum(np.abs(amplitudes) ** 2)))
    return DenseJointState(amplitudes, loss)


def build_joint_coherent(alpha, beta, phi: float, cutoff: int) -> DenseJointState:
    """Signal |alpha> and ancilla |beta>, both phase-locked to phi, as a
    dense two-mode array truncated at cutoff photons per mode."""
    cutoff, phi = _check_cutoff(cutoff), _require_finite(phi, "phi")
    joint = np.outer(
        _coherent_vector(_require_amplitude(alpha, "alpha"), phi, cutoff),
        _coherent_vector(_require_amplitude(beta, "beta"), phi, cutoff),
    )
    return _finish(joint)


def build_joint_pair(eta: float, beta, phi: float, cutoff: int) -> DenseJointState:
    """Two coherent ancillas |beta> and a two-mode squeezed pair, all
    phase-locked to phi, as a dense four-mode array."""
    cutoff, phi = _check_cutoff(cutoff), _require_finite(phi, "phi")
    nbytes = _PAIR_BYTES_PER_CELL * (cutoff + 1) ** 4
    if nbytes > _PAIR_BUDGET_BYTES:
        raise ValueError(f"a pair state at cutoff {cutoff} needs {nbytes} bytes, over the budget of {_PAIR_BUDGET_BYTES} bytes")
    ancilla = _coherent_vector(_require_amplitude(beta, "beta"), phi, cutoff)
    squeezed = _tmss_vector(eta, phi, cutoff)
    joint = np.zeros((cutoff + 1,) * 4, dtype=complex)
    pair_block = np.outer(ancilla, ancilla)
    for n in range(cutoff + 1):
        joint[:, :, n, n] = pair_block * squeezed[n]
    return _finish(joint)


def project_total_number(
    state: DenseJointState,
    mode_group: tuple[int, ...] | list[int],
    outcome: int,
) -> tuple[float, DenseJointState | None]:
    """Project onto the subspace where the occupations of mode_group sum to
    outcome.  Returns (probability, renormalized state); an impossible
    outcome returns (0.0, None)."""
    modes = tuple(mode_group)
    shape = state.amplitudes.shape
    if not modes or len(set(modes)) < len(modes) or any(not 0 <= m < len(shape) for m in modes):
        raise ValueError(f"mode_group must name distinct modes in [0, {len(shape)}), got {modes}")
    outcome = _require_outcome(outcome, "outcome")

    # one arange per mode, broadcast: the occupation sum spans only the group's axes
    grids = np.indices(shape, sparse=True)
    mask = np.broadcast_to(sum(grids[m] for m in modes) == outcome, shape)
    probability = float(np.sum(np.abs(state.amplitudes[mask]) ** 2))
    if probability == 0.0:
        return 0.0, None
    projected = np.where(mask, state.amplitudes, 0.0) / math.sqrt(probability)
    projected.setflags(write=False)
    return probability, DenseJointState(projected, 0.0)


def pair_outcomes(joint: DenseJointState, top: int) -> Iterator[tuple[int, int, float, DenseJointState]]:
    """The protocol's two measurements on a four-mode pair state: K on
    PAIR_GROUP_K, then L on PAIR_GROUP_L.  Yields (K, L, P(K, L), state
    after both) for K, L <= top, K-major, skipping outcomes that a
    projection leaves empty; no total past what a group's modes hold is
    walked."""
    shape = joint.amplitudes.shape
    if len(shape) != 4:
        raise ValueError("expected a four-mode state")
    top = min(_require_outcome(top, "top"), max(shape[a] + shape[b] - 2 for a, b in (PAIR_GROUP_K, PAIR_GROUP_L)))
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
    if not side_a or len(set(side_a)) < len(side_a) or any(not 0 <= m < ndim for m in side_a):
        raise ValueError(f"cut must name a non-empty subset of modes 0..{ndim - 1}, got {side_a}")
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
    total = _require_outcome(total, "total")
    rows, columns = state.amplitudes.shape
    out = np.zeros(total + 1, dtype=complex)
    for n in range(total + 1):
        if n < rows and total - n < columns:
            out[n] = state.amplitudes[n, total - n]
    return out


def pair_schmidt_amplitudes(state: DenseJointState, k: int, l: int) -> np.ndarray:
    """Schmidt-coefficient vector over n for a four-mode state supported on
    occupations (k-n, l-n, n, n)."""
    if state.amplitudes.ndim != 4:
        raise ValueError("expected a four-mode state")
    k, l = _require_outcome(k, "k"), _require_outcome(l, "l")
    top = min(k, l)
    out = np.zeros(top + 1, dtype=complex)
    for n in range(top + 1):
        if all(np.less((k - n, l - n, n, n), state.amplitudes.shape)):
            out[n] = state.amplitudes[k - n, l - n, n, n]
    return out
