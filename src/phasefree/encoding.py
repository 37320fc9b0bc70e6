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
the sums, and every bit of the result, are those of the full window.  P(M)
is summed over the band of n where Pois(|alpha|^2, n) is not negligible,
so each P(M) is fixed once computed and a grown window only appends.

The approximant fidelities are array passes, not loops over outcomes.  For
the coherent encoding the phases cancel, so the overlap with |alpha'> for
outcome M is sum_n |a_n| |c_n|, built in log space over a band of n (in row
chunks, so memory is O(window x band)) with the closed-form normalizer
sum_n |q|^(2n) / (n! (M-n)!) = (1 + |q|^2)^M / M!, q = alpha/beta.  For
the pair, the overlap summand sqrt(t_n) eta'^n, with t_n the n-th summand
of P(K, L), equals sqrt(1 - eta^2) G[K, n] G[L, n] for
G[X, n] = (eta sqrt(X/|beta|^2))^n sqrt(Pois(|beta|^2, X-n)), so every
overlap comes from one contraction G G^T, taken on row-scaled G with
numpy's own einsum loop rather than a threaded BLAS.
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

# Photon-number bands cut a Poisson law where each tail holds at most
# exp(-_BAND_LOG_CUT) ~ 2e-35 of its mass: far below float64 resolution,
# also after the square root that an overlap of amplitudes takes.
_BAND_LOG_CUT = 80.0

# Cells per row chunk of a banded (rows, width) array: 2 MiB of float64.
_BAND_CHUNK_CELLS = 1 << 18

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


def _poisson_band(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends lo <= hi of the photon-number range outside which the Poisson(lam)
    tail on each side holds at most exp(-_BAND_LOG_CUT) of the mass, from
    Bernstein's bounds P(X <= lam - x) <= exp(-x^2 / (2 lam)) and
    P(X >= lam + x) <= exp(-x^2 / (2 (lam + x/3)))."""
    cut = _BAND_LOG_CUT
    lo = np.floor(lam - np.sqrt(2.0 * cut * lam))
    hi = np.ceil(lam + cut / 3.0 + np.sqrt(cut * cut / 9.0 + 2.0 * cut * lam))
    return np.maximum(lo, 0.0).astype(np.int64), hi.astype(np.int64)


def _band_sums(lo: np.ndarray, width: int, log_term) -> np.ndarray:
    """out[r] = sum of exp(log_term(r, n)) over n = lo[r] .. lo[r] + width - 1,
    where log_term maps a column of row indices r and the matching
    (rows, width) block of n to the log of each summand (LOG_ZERO for none).
    Rows are processed in chunks of about _BAND_CHUNK_CELLS cells, and each
    row is summed on its own, so out[r] depends on neither the chunking nor
    the number of rows."""
    out = np.empty(lo.size)
    step = max(1, _BAND_CHUNK_CELLS // width)
    for start in range(0, lo.size, step):
        r = np.arange(start, min(start + step, lo.size))[:, None]
        out[start : start + r.size] = np.exp(log_term(r, lo[r] + np.arange(width))).sum(axis=1)
    return out


def _coherent_outcome_vector(mean_a: float, mean_b: float, m_max: int) -> np.ndarray:
    """P(M) for M = 0..m_max by direct convolution of the two Poisson laws,
    over the band of signal photon numbers n outside which Pois(mean_a, n)
    is negligible; P(M) does not depend on m_max."""
    n_lo, n_hi = (int(end) for end in _poisson_band(np.float64(mean_a)))
    lpa = log_poisson_table(mean_a, n_hi)
    lpb = log_poisson_table(mean_b, m_max)

    def log_term(m, n):
        return np.where(n <= m, lpa[n] + lpb[np.maximum(m - n, 0)], LOG_ZERO)

    return _band_sums(np.full(m_max + 1, n_lo), n_hi - n_lo + 1, log_term)


def coherent_outcome_distribution(alpha, beta, epsilon_tail: float = DEFAULT_EPSILON_TAIL) -> OutcomeDistribution:
    """Distribution of the total-photon outcome M for signal alpha and
    ancilla beta; equals Poisson(|alpha|^2 + |beta|^2) by additivity, but is
    evaluated by the defining convolution so that identity stays testable."""
    epsilon_tail = _require_tail(epsilon_tail)
    mean_a = abs(_require_amplitude(alpha, "alpha")) ** 2
    mean_b = abs(_require_amplitude(beta, "beta")) ** 2
    mu = mean_a + mean_b

    top, last = -1, None
    for m_max in _window_sizes(mu):
        if m_max == top:
            continue  # the same window as the previous round
        probs = _coherent_outcome_vector(mean_a, mean_b, m_max)
        residual = max(0.0, 1.0 - math.fsum(probs.tolist()))
        if residual <= epsilon_tail:
            return OutcomeDistribution(OutcomeTable(probs), residual)
        # a grown window keeps probs[:top + 1] and only adds mass, so a
        # residual it leaves unchanged can never fall any further
        if residual == last:
            raise RuntimeError(
                f"outcome window stalled at residual {residual!r}: tail {epsilon_tail} "
                f"is below float64 resolution (mean={mu})"
            )
        top, last = m_max, residual
    raise RuntimeError(f"outcome window failed to reach tail {epsilon_tail} (mean={mu})")


def _pair_log_slices(eta: float, mean_b: float, k_max: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (n, lo, log_block) with log_block[i, j] the log of the n-th
    summand of P(lo + i, lo + j); the iteration stops once every remaining
    summand underflows.

    The block [lo, lo + m)^2 is the slice's live square: every summand
    outside it has a log below _EXP_ZERO_LOG, being exactly zero for K < n
    or L < n and cut where even its row's largest cell lies below that.
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
        live = np.flatnonzero(shifted + shifted.max() >= _EXP_ZERO_LOG)
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
        for _, lo, log_block in _pair_log_slices(eta, mean_b, k_max):
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


def _coherent_overlaps(quot: complex, m_max: int) -> np.ndarray:
    """overlap[M] = |<alpha'|encoded M>| for M = 0..m_max, with
    quot = alpha/beta nonzero.

    The phases of both states are n arg(quot), so the overlap is
    sum_n |a_n| |c_n|: |a_n|^2 is Poisson(M s) at n and |c_n|^2 is
    Binomial(M, s/(1+s)) at n, s = |quot|^2, whose normalizer
    sum_n s^n / (n! (M-n)!) is (1+s)^M / M!.  By Cauchy-Schwarz the terms
    outside the Poisson(M s) band sum to at most sqrt(2 exp(-_BAND_LOG_CUT)).
    """
    log_s = 2.0 * math.log(abs(quot))
    s = abs(quot) * abs(quot)  # inf when |quot|^2 overflows
    m_all = np.arange(m_max + 1)

    def times_m(value: float) -> np.ndarray:
        # M value: 0 at M = 0 also when value is inf, and inf, its limit in
        # every use below, where the product overflows
        with np.errstate(over="ignore"):
            return np.multiply(m_all, value, out=np.zeros(m_max + 1), where=m_all > 0)

    # beyond 2 (m_max + cut) the band's lower end passes m_max, so a larger
    # M s changes no band once clipped to n <= M
    lo, hi = _poisson_band(np.minimum(times_m(s), 2.0 * (m_max + _BAND_LOG_CUT)))
    lo, hi = np.minimum(lo, m_all), np.minimum(hi, m_all)
    lf = log_factorial_table(m_max)
    log_norm = 0.5 * (lf - times_m(s + math.log1p(s)))

    def log_term(m, n):
        # ln |a_n| + ln |c_n|
        live = n <= m
        n = np.where(live, n, m)
        terms = n * (log_s + 0.5 * np.log(np.maximum(m, 1))) - lf[n] - 0.5 * lf[m - n] + log_norm[m]
        return np.where(live, terms, LOG_ZERO)

    return _band_sums(lo, int((hi - lo).max()) + 1, log_term)


def mean_coherent_approx_fidelity(alpha, beta, epsilon_tail: float = DEFAULT_EPSILON_TAIL) -> float:
    """P(M)-weighted fidelity between the encoded state and the coherent
    state of amplitude alpha' = alpha sqrt(M)/beta it approximates.

    Outcomes outside the enumerated window contribute zero, so the result
    underestimates by at most the window residual.
    """
    beta = _require_ancilla(beta)
    alpha = _require_amplitude(alpha, "alpha")
    probs = coherent_outcome_distribution(alpha, beta, epsilon_tail).support.probabilities

    quot = alpha / beta
    if quot == 0:
        fid = np.ones(probs.size)  # the vacuum on both sides for every M
    else:
        # by Cauchy-Schwarz only float noise can push a fidelity above 1
        fid = np.minimum(_coherent_overlaps(quot, probs.size - 1) ** 2, 1.0)
    return min(float((probs * fid).sum()), 1.0)


def _pair_log_factor(eta: float, mean_b: float, k_max: int) -> np.ndarray:
    """ln G[X, n] = n ln(eta sqrt(X/|beta|^2)) + ln Pois(|beta|^2, X - n) / 2
    for X = 0..k_max and n = 0..X (LOG_ZERO for n > X), the factor of
    overlap[K, L] = sqrt(1 - eta^2) sum_n G[K, n] G[L, n].  With eta = 0 or
    |beta|^2 = 0 (underflowed) only n = 0 survives."""
    lp = log_poisson_table(mean_b, k_max)
    n_top = k_max if eta > 0.0 and mean_b > 0.0 else 0
    x = np.arange(k_max + 1)[:, None]
    n = np.arange(n_top + 1)
    live = n <= x
    log_g = 0.5 * lp[np.where(live, x - n, 0)]
    if n_top:
        # row X = 0 holds only n = 0, so its ratio is never used
        log_g += n * (math.log(eta) + 0.5 * (np.log(np.maximum(x, 1)) - math.log(mean_b)))
    log_g[~live] = LOG_ZERO
    return log_g


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

    # overlap[K, L] = sum_n sqrt(t_n) eta'^n with t_n the summands of A, in
    # the factorised form sqrt(1 - eta^2) sum_n G[K, n] G[L, n]; each row of
    # G is scaled by its largest entry, restored in log space below
    log_g = _pair_log_factor(eta, mean_b, k_max)
    shift = log_g.max(axis=1)
    shift[shift == LOG_ZERO] = 0.0  # an all-zero row
    g = np.exp(log_g - shift[:, None])
    scaled = np.einsum("kn,ln->kl", g, g)

    # fid = (1 - eta'^2) overlap^2 / A on the outcomes that admit an
    # approximant (eta' < 1); 1 - eta'^2 is formed only there
    kk, ll = np.nonzero((eta_prime < 1.0) & (a_grid > 0.0) & (scaled > 0.0))
    ep = eta_prime[kk, ll]
    a = a_grid[kk, ll]
    log_overlap = 0.5 * math.log1p(-eta * eta) + np.log(scaled[kk, ll]) + shift[kk] + shift[ll]
    fid = np.exp(np.log1p(-ep * ep) + 2.0 * log_overlap - np.log(a))
    # by Cauchy-Schwarz only float noise can push a fidelity above 1
    return min(float((a * np.minimum(fid, 1.0)).sum()), 1.0)
