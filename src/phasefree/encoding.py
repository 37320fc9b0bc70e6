"""Total-photon-number projection onto phase-reference-free logical states.

A QND measurement of the combined photon number of a signal mode and a
coherent ancilla |beta> collapses the pair onto a fixed-total subspace.  In
the logical basis |n; M> = |n>|M - n> the surviving coefficients are, for a
coherent signal alpha and outcome M,

    c_n  proportional to  (alpha/beta)^n / sqrt(n! (M-n)!),   n = 0..M,

and for one half of a two-mode squeezed pair (parameter eta) whose two
halves are measured jointly with two ancillas |beta>, outcomes K and L,

    c_n  proportional to  (eta/beta^2)^n / sqrt((K-n)! (L-n)!),
                                                  n = 0..min(K, L).

Every reference-phase factor collects into a single global phase, which is
why the encoded states need no phase standard.  Magnitudes are evaluated on
the log scale throughout; the quotient alpha/beta (or eta/beta^2) is taken
once and powered as log-magnitude plus phase so that large photon numbers
never overflow and small quotients never underflow.

Outcome statistics follow from the same amplitudes:

    P(M)    = sum_n Pois(|alpha|^2, n) Pois(|beta|^2, M-n)
    P(K, L) = sum_n (1-eta^2) eta^(2n) Pois(|beta|^2, K-n) Pois(|beta|^2, L-n)

enumerated over an adaptive window [0, mu + w sqrt(mu)] whose unenumerated
tail mass is reported, never ignored.  The n-th summand of P(K, L) vanishes
for K < n or L < n and underflows to exactly 0.0 far from the Poisson peak,
so each slice n is computed only on one square live block of the window;
the sums, and every bit of the result, are those of the full window.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .numerics import (
    LOG_ZERO,
    log_factorial_table,
    log_poisson_table,
    log_sum_exp,
)

DEFAULT_EPSILON_TAIL = 1e-10

# exp() of anything below this is exactly 0.0 in binary64 (subnormals end
# near -744.4); slices that are all-zero can be skipped without error.
_UNDERFLOW_LOG = -760.0

# exp() of anything below ln(2^-1075) ~ -745.13 rounds to exactly 0.0, so
# outcome-grid cells whose log lies below this are never computed.
_EXP_ZERO_LOG = -746.0

# Window growth factor limit; reaching it means epsilon_tail is below what
# float64 summation can resolve.
_MAX_WINDOW_GROWTH = float(2**24)


@dataclass(frozen=True)
class EncodedCoherentState:
    """Post-measurement logical state for total-photon outcome M.

    coeffs[n] is the amplitude of |n; M>, normalized; norm_log is the log of
    the normalizer sum_n |alpha/beta|^(2n) / (n! (M-n)!).
    """

    M: int
    coeffs: np.ndarray
    norm_log: float


@dataclass(frozen=True)
class EncodedPairState:
    """Post-measurement two-party logical state for outcomes (K, L).

    schmidt_coeffs[n] multiplies |n; K> on one side and |n; L> on the other;
    the expansion is already a Schmidt decomposition across that split.
    """

    K: int
    L: int
    schmidt_coeffs: np.ndarray
    norm_log: float


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class OutcomeTable(Mapping):
    """Read-only map from an outcome to its probability over the enumerated
    window, backed by one frozen dense array.

    A 1-D table maps an int M to probabilities[M]; a 2-D table maps an
    (int K, int L) pair to probabilities[K, L].  Keys outside the window,
    negative ones included, raise KeyError.
    """

    __slots__ = ("probabilities",)

    def __init__(self, probabilities: np.ndarray):
        self.probabilities = _frozen(probabilities)

    def _index(self, key) -> tuple[int, ...]:
        shape = self.probabilities.shape
        try:
            if len(shape) == 1:
                index = (operator.index(key),)
            else:
                k, l = key
                index = (operator.index(k), operator.index(l))
        except (TypeError, ValueError):
            raise KeyError(key) from None
        # checked here because numpy would wrap a negative index
        if not (0 <= index[0] < shape[0] and 0 <= index[-1] < shape[-1]):
            raise KeyError(key)
        return index

    def __getitem__(self, key):
        return self.probabilities.item(self._index(key))

    def __iter__(self):
        shape = self.probabilities.shape
        if len(shape) == 1:
            return iter(range(shape[0]))
        return itertools.product(*map(range, shape))

    def __len__(self):
        return self.probabilities.size


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability table over measurement outcomes with explicit tail mass.

    support maps an outcome (int M, or an (int K, int L) pair) to its
    probability; residual is the mass of every outcome left unenumerated.
    """

    support: OutcomeTable
    residual: float

    def total(self) -> float:
        return math.fsum(self.support.probabilities.ravel().tolist())


def _require_outcome(value, name: str) -> int:
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value}")
    return value


def _require_amplitude(value, name: str) -> complex:
    """value as a complex amplitude whose mean photon number |value|^2 is a
    finite float."""
    value = complex(value)
    magnitude = math.hypot(value.real, value.imag)
    if not math.isfinite(magnitude * magnitude):
        raise ValueError(f"{name} must be finite with a finite |{name}|^2, got {value!r}")
    return value


def _require_ancilla(beta) -> complex:
    beta = _require_amplitude(beta, "beta")
    if beta == 0:
        raise ValueError("beta must be nonzero: a vacuum ancilla makes the encoding degenerate")
    return beta


def _require_eta(eta: float) -> float:
    eta = float(eta)
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta!r}")
    return eta


def _require_tail(epsilon_tail: float) -> float:
    epsilon_tail = float(epsilon_tail)
    if not 0.0 < epsilon_tail < 1.0:
        raise ValueError(f"epsilon_tail must lie in (0, 1), got {epsilon_tail!r}")
    return epsilon_tail


def _series_state(quot: complex, log_denominator: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized coefficients c_n proportional to quot^n / sqrt(exp(log_denominator[n])),
    built as log-magnitude plus phase, and the log of their normalizer
    sum_n |quot|^(2n) / exp(log_denominator[n])."""
    coeffs = np.zeros(log_denominator.size, dtype=complex)
    if quot == 0:
        coeffs[0] = 1.0
        return _frozen(coeffs), float(-log_denominator[0])

    n = np.arange(log_denominator.size)
    log_mag = n * math.log(abs(quot)) - 0.5 * log_denominator
    norm_log = log_sum_exp(2.0 * log_mag)
    mags = np.exp(log_mag - 0.5 * norm_log)
    mags /= math.sqrt(math.fsum((mags * mags).tolist()))
    return _frozen(mags * np.exp(1j * cmath.phase(quot) * n)), float(norm_log)


def encode_coherent(alpha, beta, M: int) -> EncodedCoherentState:
    """Logical state after measuring total photon number M on a coherent
    signal alpha paired with a coherent ancilla beta."""
    beta = _require_ancilla(beta)
    alpha = _require_amplitude(alpha, "alpha")
    M = _require_outcome(M, "M")

    lf = log_factorial_table(M)
    coeffs, norm_log = _series_state(alpha / beta, lf + lf[::-1])
    return EncodedCoherentState(M, coeffs, norm_log)


def coherent_approx_param(alpha, beta, M: int) -> complex:
    """Amplitude alpha' = alpha sqrt(M) / beta of the coherent state the
    encoded state approaches when |beta| is large."""
    beta = _require_ancilla(beta)
    M = _require_outcome(M, "M")
    return complex(alpha) * math.sqrt(M) / beta


def encode_pair(eta: float, beta, K: int, L: int) -> EncodedPairState:
    """Two-party logical state after measuring totals K and L on the two
    halves of a squeezed pair, each joined with a coherent ancilla beta."""
    eta = _require_eta(eta)
    beta = _require_ancilla(beta)
    K = _require_outcome(K, "K")
    L = _require_outcome(L, "L")

    n_top = min(K, L)
    lf = log_factorial_table(max(K, L))
    lf_k = lf[K::-1][: n_top + 1]  # ln((K-n)!) for n = 0..n_top
    lf_l = lf[L::-1][: n_top + 1]
    coeffs, norm_log = _series_state(eta / (beta * beta), lf_k + lf_l)
    return EncodedPairState(K, L, coeffs, norm_log)


def pair_approx_param(eta: float, beta, K: int, L: int) -> float:
    """Squeezing magnitude eta' = eta sqrt(K L) / |beta|^2 of the two-mode
    squeezed state the encoded pair approaches when |beta| is large."""
    eta = _require_eta(eta)
    beta = _require_ancilla(beta)
    K = _require_outcome(K, "K")
    L = _require_outcome(L, "L")
    return eta * math.sqrt(float(K) * float(L)) / abs(beta) ** 2


# ---------------------------------------------------------------------------
# outcome distributions
# ---------------------------------------------------------------------------


def _window_sizes(mu: float) -> Iterator[int]:
    """Outcome-window tops k_max = ceil(mu + w sqrt(mu)) for a distribution
    of mean mu, with w = 8, 16, 32, ... up to _MAX_WINDOW_GROWTH; the caller
    takes the first window whose tail fits its budget."""
    w = 8.0
    while True:
        yield math.ceil(mu + w * math.sqrt(mu)) if mu > 0 else 0
        if w >= _MAX_WINDOW_GROWTH:
            return
        w *= 2.0


def _coherent_outcome_vector(mean_a: float, mean_b: float, m_max: int) -> np.ndarray:
    """P(M) for M = 0..m_max by direct convolution of the two Poisson laws."""
    lpa = log_poisson_table(mean_a, m_max)
    lpb = log_poisson_table(mean_b, m_max)
    out = np.empty(m_max + 1)
    for m in range(m_max + 1):
        terms = lpa[: m + 1] + lpb[m::-1]
        shift = float(terms.max())
        out[m] = 0.0 if shift == LOG_ZERO else math.exp(shift) * float(np.exp(terms - shift).sum())
    return out


def coherent_outcome_distribution(alpha, beta, epsilon_tail: float = DEFAULT_EPSILON_TAIL) -> OutcomeDistribution:
    """Distribution of the total-photon outcome M for signal alpha and
    ancilla beta; equals Poisson(|alpha|^2 + |beta|^2) by additivity, but is
    evaluated by the defining convolution so that identity stays testable."""
    epsilon_tail = _require_tail(epsilon_tail)
    mean_a = abs(_require_amplitude(alpha, "alpha")) ** 2
    mean_b = abs(_require_amplitude(beta, "beta")) ** 2
    mu = mean_a + mean_b

    for m_max in _window_sizes(mu):
        probs = _coherent_outcome_vector(mean_a, mean_b, m_max)
        residual = max(0.0, 1.0 - math.fsum(probs.tolist()))
        if residual <= epsilon_tail:
            return OutcomeDistribution(OutcomeTable(probs), residual)
    raise RuntimeError(f"outcome window failed to reach tail {epsilon_tail} (mean={mu})")


def _pair_log_slices(
    eta: float, mean_b: float, k_max: int, floor: float
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (n, lo, log_block) with log_block[i, j] the log of the n-th
    summand of P(lo + i, lo + j); the iteration stops once every remaining
    summand underflows.

    The block [lo, lo + m)^2 is the slice's live square: every summand
    outside it has a log below floor, being exactly zero for K < n or
    L < n and cut where even its row's largest cell lies below floor.
    log_block is a view of one scratch buffer that the next slice reuses.
    """
    lp = log_poisson_table(mean_b, k_max)
    lp_max = float(lp.max())
    lw0 = math.log1p(-eta * eta)
    scratch = np.empty((k_max + 1) ** 2)
    for n in range(k_max + 1):
        if n > 0 and eta == 0.0:
            return
        lw = lw0 + 2.0 * n * math.log(eta) if n > 0 else lw0
        if lw + 2.0 * lp_max < _UNDERFLOW_LOG:
            return
        # splitting the weight over both factors keeps the grid exactly
        # symmetric under K <-> L (float addition is commutative)
        shifted = 0.5 * lw + lp[: k_max + 1 - n]  # index K - n
        live = np.flatnonzero(shifted + shifted.max() >= floor)
        start, stop = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
        row = shifted[start:stop]
        m = stop - start
        log_block = np.add(row[:, None], row[None, :], out=scratch[: m * m].reshape(m, m))
        yield n, n + start, log_block


def _pair_window_grid(
    eta: float,
    mean_b: float,
    epsilon_tail: float,
    with_entropy: bool,
) -> tuple[np.ndarray, np.ndarray | None, float, int]:
    """Joint probability grid A[K, L] over an adaptively grown square window,
    plus (optionally) the companion accumulator B = sum_n t_n ln(t_n) needed
    for per-outcome Schmidt entropies.  Returns (A, B, residual, k_max)."""
    mu = mean_b + (eta * eta / (1.0 - eta * eta))
    for k_max in _window_sizes(mu):
        a_grid = np.zeros((k_max + 1, k_max + 1))
        b_grid = np.zeros_like(a_grid) if with_entropy else None
        scratch = np.empty(a_grid.size)
        for _, lo, log_block in _pair_log_slices(eta, mean_b, k_max, _EXP_ZERO_LOG):
            hi = lo + len(log_block)
            # log_block is finite, so a term that underflows adds -0.0 to B
            term = np.exp(log_block, out=scratch[: log_block.size].reshape(log_block.shape))
            a_grid[lo:hi, lo:hi] += term
            if with_entropy:
                term *= log_block
                b_grid[lo:hi, lo:hi] += term
        residual = max(0.0, 1.0 - float(a_grid.sum()))
        if residual <= epsilon_tail:
            return a_grid, b_grid, residual, k_max
    raise RuntimeError(f"outcome window failed to reach tail {epsilon_tail} (eta={eta}, mean={mean_b})")


def pair_outcome_distribution(eta: float, beta, epsilon_tail: float = DEFAULT_EPSILON_TAIL) -> OutcomeDistribution:
    """Joint distribution of the two total-photon outcomes (K, L); exactly
    symmetric under K <-> L by construction."""
    eta = _require_eta(eta)
    epsilon_tail = _require_tail(epsilon_tail)
    mean_b = abs(_require_amplitude(beta, "beta")) ** 2

    a_grid, _, residual, _ = _pair_window_grid(eta, mean_b, epsilon_tail, with_entropy=False)
    return OutcomeDistribution(OutcomeTable(a_grid), residual)


# ---------------------------------------------------------------------------
# large-|beta| approximation quality
# ---------------------------------------------------------------------------


def mean_coherent_approx_fidelity(alpha, beta, epsilon_tail: float = DEFAULT_EPSILON_TAIL) -> float:
    """P(M)-weighted fidelity between the encoded state and the coherent
    state of amplitude alpha' = alpha sqrt(M)/beta it approximates.

    Outcomes outside the enumerated window contribute zero, so the result
    underestimates by at most the window residual.
    """
    beta = _require_ancilla(beta)
    alpha = _require_amplitude(alpha, "alpha")
    dist = coherent_outcome_distribution(alpha, beta, epsilon_tail)

    weighted = 0.0
    for m, prob in enumerate(dist.support.probabilities.tolist()):
        if prob == 0.0:
            continue
        exact = encode_coherent(alpha, beta, m).coeffs
        approx_amp = coherent_approx_param(alpha, beta, m)
        n = np.arange(m + 1)
        lf = log_factorial_table(m)
        if approx_amp == 0:
            approx = np.zeros(m + 1, dtype=complex)
            approx[0] = 1.0
        else:
            mag = abs(approx_amp)
            log_mag = -0.5 * mag * mag + n * math.log(mag) - 0.5 * lf
            approx = np.exp(log_mag) * np.exp(1j * cmath.phase(approx_amp) * n)
        # by Cauchy-Schwarz only float noise can push a fidelity above 1
        weighted += prob * min(abs(np.vdot(approx, exact)) ** 2, 1.0)
    return min(float(weighted), 1.0)


def mean_pair_approx_fidelity(eta: float, beta, epsilon_tail: float = DEFAULT_EPSILON_TAIL) -> float:
    """P(K, L)-weighted fidelity between the encoded pair state and the
    two-mode squeezed state of parameter eta' = eta sqrt(KL)/|beta|^2.

    The squeezed-state family carries a phase degree of freedom, so the
    approximant is taken with the squeezing phase of the exact state; the
    overlap then involves coefficient magnitudes only and the result cannot
    depend on the phase of beta.  Outcomes where eta' >= 1 (far tail at
    small |beta|) admit no squeezed approximant and count as fidelity zero.
    """
    eta = _require_eta(eta)
    beta = _require_ancilla(beta)
    epsilon_tail = _require_tail(epsilon_tail)
    mean_b = abs(beta) ** 2

    a_grid, _, _, k_max = _pair_window_grid(eta, mean_b, epsilon_tail, with_entropy=False)
    k = np.arange(k_max + 1, dtype=float)
    numer = eta * np.sqrt(np.outer(k, k))
    # eta' = 0 wherever eta K L = 0, its limit value, also when |beta|^2
    # underflows to 0.0; eta' is then infinite for K L > 0, an invalid cell
    with np.errstate(divide="ignore"):
        eta_prime = np.divide(numer, mean_b, out=np.zeros_like(numer), where=numer > 0.0)
    valid = eta_prime < 1.0
    # invalid cells get eta'^n = 0 so that no power of eta' >= 1 overflows
    log_eta_prime = np.where(
        valid & (eta_prime > 0.0), np.log(np.where(eta_prime > 0.0, eta_prime, 1.0)), LOG_ZERO
    )

    # overlap[K, L] = sum_n sqrt(q_n) eta'^n, with q_n the Schmidt weights;
    # sqrt(t_n) = sqrt(q_n P) so one division by P at the end suffices.
    # sqrt(t_n) underflows to 0 where log t_n < 2 * _EXP_ZERO_LOG.
    overlap = np.zeros((k_max + 1, k_max + 1))
    for n, lo, log_block in _pair_log_slices(eta, mean_b, k_max, 2.0 * _EXP_ZERO_LOG):
        hi = lo + len(log_block)
        log_block *= 0.5
        half = np.exp(log_block, out=log_block)
        if n > 0:
            half *= np.exp(n * log_eta_prime[lo:hi, lo:hi])
        overlap[lo:hi, lo:hi] += half

    positive = a_grid > 0.0
    fid = np.where(
        positive & valid,
        np.clip(1.0 - eta_prime * eta_prime, 0.0, None)
        * overlap**2
        / np.where(positive, a_grid, 1.0),
        0.0,
    )
    # by Cauchy-Schwarz only float noise can push a fidelity above 1
    np.clip(fid, 0.0, 1.0, out=fid)
    return min(float((a_grid * fid).sum()), 1.0)
