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
as ln|alpha| - ln|beta| (or ln eta - 2 ln|beta|) plus a phase and powered
in that form, so that neither a tiny |beta| nor a large photon number
overflows and small quotients never underflow.

Outcome statistics follow from the same amplitudes:

    P(M)    = sum_n Pois(|alpha|^2, n) Pois(|beta|^2, M-n) = Pois(|alpha|^2 + |beta|^2, M)
    P(K, L) = sum_n (1-eta^2) eta^(2n) Pois(|beta|^2, K-n) Pois(|beta|^2, L-n)

enumerated over a window [0, k_max] whose unenumerated tail mass is
reported, never ignored.  One rule sizes every window: the distinct tops
k_max = ceil(mu + w sqrt(mu)), w = 8, 16, 32, ..., are tried in turn, and
each table is built once, on the first top whose outside mass, summed
directly from the Poisson (and geometric) laws rather than taken as
1 - sum P, is at most epsilon_tail.  That mass is the table's residual,
so a tail below float64 resolution is met like any other; _outside_law
forms it, with the entropy bound of an entanglement report, from one
vector of outside weights per top.  The walk has no length limit: it
ends at the tail, or at a top whose arrays would exceed
_GRID_BUDGET_BYTES, which fails before allocating.

The n-th summand t_n of P(K, L) vanishes for K < n or L < n and
underflows to exactly 0.0 far from the Poisson peak, so slice n lives on
one square block of the window.  A slice n > 0 also drops the leading rows
and columns of that block where t_n < 2^-66 t_0, terms that round away (see
_NEGLIGIBLE_LOG); at weak squeezing and large |beta| that is most of the
block.  The grid is symmetric, so only its upper triangle is summed, in row
strips of one height, set by the block size, over the rows some slice
lives on: each strip takes all the slices that meet it as (slices, rows,
columns) blocks of a bounded size, reduced over the slices in n order, and
the lower triangle is its mirror.  Every bit of the result is that of the
full window.  For an entanglement report each strip then turns its rows of
B, from its first column on, into P(K, L) E(K, L) in place, in the same two
buffers, before the mirror carries them below the diagonal.  So the grid
holds A (and B) and two buffers of one block, and no other array larger
than a byte mask of a strip's rows.

The approximant fidelities are array passes, not loops over outcomes.  For
the coherent encoding the phases cancel, so the overlap with |alpha'> for
outcome M is sum_n |a_n| |c_n|, built in log space with the closed-form
normalizer sum_n |q|^(2n) / (n! (M-n)!) = (1 + |q|^2)^M / M!, q =
alpha/beta.  One pass takes the M of the Poisson(|alpha|^2 + |beta|^2)
band up to the window's top, each over its band of n, in row chunks of
_STRIP_BLOCK_CELLS cells: it costs (rows of M) x (band of n) cells and
holds no (rows, band) array larger than a chunk.  For
the pair, the overlap summand sqrt(t_n) eta'^n, with t_n the n-th summand
of P(K, L), equals sqrt(1 - eta^2) G[K, n] G[L, n] for
G[X, n] = (eta sqrt(X/|beta|^2))^n sqrt(Pois(|beta|^2, X-n)), so every
overlap comes from one contraction G G^T, over the n up to where eta^(2n)
falls to e^-80 (see _pair_factor), taken on row-scaled G with numpy's own
einsum loop rather than a threaded BLAS.  The fidelity of outcome (K, L)
is (1 - eta'^2) overlap^2 / P(K, L), so the P-weighted mean is the sum of
(1 - eta'^2) overlap^2 over the outcomes with eta' < 1 and needs no
probability table.  Each fidelity runs on the first top the
window rule admits and underestimates by at most the mass outside it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .numerics import (
    LN2,
    LOG_ZERO,
    _require_amplitude,
    _require_ancilla,
    _require_eta,
    _require_mean,
    _require_outcome,
    _require_tail,
    _times,
    log_factorial_table,
    log_poisson_table,
    log_poisson_weight,
)

DEFAULT_EPSILON_TAIL = 1e-10

# exp() of anything below ln(2^-1075) ~ -745.13 rounds to exactly 0.0, so
# outcome-grid cells whose log lies below this are never computed.
_EXP_ZERO_LOG = -746.0

# A slice n > 0 of the outcome grid skips the cells where t_n < 2^-66 t_0.
# Where t_0 >= e^-700, a normal float: A and B are summed in n order from
# terms of one sign, so at slice n |A| >= t_0 and |B| >= t_0 |ln t_0| >= t_0
# (t_0 <= e^-2 once K, L >= 1, as Pois(mu, k) <= 1/e for k >= 1).  A term
# that does not underflow to 0 has |ln t_n| < 746 < 2^10, so each skipped
# A or B term is below 2^-56 of its running sum, while half an ulp of that
# sum exceeds 2^-54 of it: the term rounds away and every bit of A and B is
# kept, with a factor 4 to spare for the rounding of the logs.  Where
# t_0 < e^-700, a skipped t_n is below e^-745.7 and exp rounds it to 0.
_NEGLIGIBLE_LOG = -66.0 * math.log(2.0)

# Log held where a slice has no summand (K < n, or a Poisson weight of 0):
# finite, so its exp is 0 and t ln t is -0.0, with no NaN.
_LOG_SENTINEL = -1e300

# Most cells of one (slices, rows, columns) block of the outcome-grid sum
# (see _block_cells, which caps a block at its window's size^2 cells), and
# of one (rows, band) chunk of the coherent fidelity pass (see
# _coherent_overlaps).  A strip's P E chunk, its rows on every column from
# its first, reuses the two block buffers on the same window bound as a
# strip's rows of one slice (see _GRID_BUDGET_BYTES).
_STRIP_BLOCK_CELLS = 1 << 16

# Photon-number bands cut a Poisson law where each tail holds at most
# exp(-_BAND_LOG_CUT) ~ 2e-35 of its mass: far below float64 resolution,
# also after the square root that an overlap of amplitudes takes.
_BAND_LOG_CUT = 80.0

# Most bytes the outcome grid may allocate for A, B and two strip-block
# buffers, the pair fidelity for its _PAIR_FIDELITY_GRIDS arrays or the
# coherent table with its temporaries, and most cells (8 bytes each) the
# coherent fidelity pass may compute; a window that needs more fails first.
# Every window walk checks each top against it, which ends a walk that does
# not reach its tail.  It must keep a window below _STRIP_BLOCK_CELLS / 3
# rows, as it does below 11 600: _row_strips relies on that for a strip's
# rows of one slice to fit a block, and _pair_window_grid for a strip's P E
# chunk, (k1 - k0) rows by at most the window's columns, to fit one.
_GRID_BUDGET_BYTES = 1 << 30

# (window x window) float64 arrays the pair fidelity holds at once: the
# factor G and the overlaps G G^T, then the overlaps and eta'.
_PAIR_FIDELITY_GRIDS = 2

# float64 cells that building an encoded state may hold at once, per row of
# max(K, L) and per row of min(K, L) (both M for the coherent state): the
# log-factorial slice and the doubling of its cache grow with the first, the
# passes of _series_state with the second.  With the cache one entry short,
# tracemalloc measures at most 4 (max + 1) + 10 (min + 1) cells, plus 1.2
# KiB, at max(K, L) = 20 000, 40 000 and 80 000 with min(K, L) from 0 to
# max(K, L); (20 000, 10 000) needs the most of the max term, 3.7 per row.
# Below about 16 000 rows numpy makes a new array for every temporary of
# the complex passes (it reuses one only from 256 KiB): at K = L = 500,
# 1 000 and 5 000 the state takes 13.9, 13.5 and 13.1 cells per row, under
# 14 (n + 1) cells plus 2.1 KiB from n = 100 on.
_STATE_CELLS_PER_MAX_ROW = 4
_STATE_CELLS_PER_MIN_ROW = 10

_FLOAT_MAX = float(np.finfo(float).max)


# eq=False on the array-holding states: compared and hashed by identity,
# as == on their arrays has no truth value
@dataclass(frozen=True, eq=False)
class EncodedCoherentState:
    """Post-measurement logical state for total-photon outcome M.

    coeffs[n] is the amplitude of |n; M>, normalized; norm_log is the log of
    the normalizer sum_n |alpha/beta|^(2n) / (n! (M-n)!).
    """

    M: int
    coeffs: np.ndarray
    norm_log: float


@dataclass(frozen=True, eq=False)
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
    (int K, int L) tuple to probabilities[K, L], numpy integers taken as
    ints.  Any other key raises KeyError: one outside the window, negative
    ones included, a float, a bool, bytes, or a list or array in place of
    the tuple.
    """

    __slots__ = ("probabilities",)

    def __init__(self, probabilities: np.ndarray):
        self.probabilities = _frozen(probabilities)

    def __getitem__(self, key):
        index = (key,) if self.probabilities.ndim == 1 else key
        try:
            # item() would wrap a negative index, and read a 2-D table's one-entry key as a flat index
            if len(index) == self.probabilities.ndim and min(index) >= 0:
                return self.probabilities.item(index)
        except (TypeError, ValueError, IndexError, OverflowError):
            pass
        raise KeyError(key)

    def __iter__(self):
        shape = self.probabilities.shape
        if len(shape) == 1:
            return iter(range(shape[0]))
        return itertools.product(*map(range, shape))

    def __len__(self):
        return self.probabilities.size


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as == on two tables walks every cell
class OutcomeDistribution:
    """Probability table over measurement outcomes with explicit tail mass.

    support maps an outcome (int M, or an (int K, int L) pair) to its
    probability; residual is the mass of the outcomes left unenumerated,
    summed directly from the Poisson (and geometric) laws, at most the tail
    asked for.  The entries carry the rounding of log_poisson_table, so
    1 - sum P - residual is not 0: 3.4e-11 at the coherent mean 1.8e5, below
    1e-13 on the pair tables of the reference sweeps.
    """

    support: OutcomeTable
    residual: float

    def total(self) -> float:
        """sum P over the window by numpy's pairwise sum, as an entanglement
        report's residual takes it, with no copy of the table: within
        1.1e-16 of an fsum of every cell at (0.5, 40)."""
        return float(self.support.probabilities.sum())


def _series_state(log_quot: float, phase: float, log_denominator: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized coefficients c_n proportional to quot^n / sqrt(exp(log_denominator[n])),
    with ln |quot| = log_quot (LOG_ZERO for quot = 0) and arg quot = phase,
    built as log-magnitude plus phase, and the log of their normalizer
    sum_n |quot|^(2n) / exp(log_denominator[n]).

    The magnitudes take one shift, by their largest log, and one fsum of
    their squares, which both normalizes them and gives the normalizer's
    log.  quot = 0 needs no case of its own: n ln|quot| is taken as 0 at
    n = 0 (_times), so c_0 = 1 and every other c_n is exp(-inf) = 0."""
    n = np.arange(log_denominator.size)
    log_mag = _times(n, log_quot) - 0.5 * log_denominator
    top = float(log_mag.max())
    mags = np.exp(log_mag - top)
    total = math.fsum((mags * mags).tolist())
    mags /= math.sqrt(total)
    return _frozen(mags * np.exp(1j * phase * n)), 2.0 * top + math.log(total)


def encode_coherent(alpha, beta, M: int) -> EncodedCoherentState:
    """Logical state after measuring total photon number M on a coherent
    signal alpha paired with a coherent ancilla beta."""
    beta = _require_ancilla(beta)
    alpha = _require_amplitude(alpha, "alpha")
    M = _require_outcome(M, "M")

    cells = (_STATE_CELLS_PER_MAX_ROW + _STATE_CELLS_PER_MIN_ROW) * (M + 1)
    _require_budget(cells, "M", M, f"for the encoded state of outcome M={M}")
    lf = log_factorial_table(M)
    log_quot = (math.log(abs(alpha)) if alpha else LOG_ZERO) - math.log(abs(beta))
    coeffs, norm_log = _series_state(log_quot, cmath.phase(alpha) - cmath.phase(beta), lf + lf[::-1])
    return EncodedCoherentState(M, coeffs, norm_log)


def coherent_approx_param(alpha, beta, M: int) -> complex:
    """Amplitude alpha' = alpha sqrt(M) / beta of the coherent state the
    encoded state approaches when |beta| is large."""
    beta = _require_ancilla(beta)
    alpha = _require_amplitude(alpha, "alpha")
    M = _require_outcome(M, "M")
    return alpha * math.sqrt(M) / beta


def encode_pair(eta: float, beta, K: int, L: int) -> EncodedPairState:
    """Two-party logical state after measuring totals K and L on the two
    halves of a squeezed pair, each joined with a coherent ancilla beta."""
    eta = _require_eta(eta)
    beta = _require_ancilla(beta)
    K = _require_outcome(K, "K")
    L = _require_outcome(L, "L")

    n_top = min(K, L)
    context = f"for the encoded state of outcome (K, L) = ({K}, {L})"
    cells = _STATE_CELLS_PER_MAX_ROW * (max(K, L) + 1) + _STATE_CELLS_PER_MIN_ROW * (n_top + 1)
    _require_budget(cells, "max(K, L)", max(K, L), context)
    lf = log_factorial_table(max(K, L))
    lf_k = lf[K::-1][: n_top + 1]  # ln((K-n)!) for n = 0..n_top
    lf_l = lf[L::-1][: n_top + 1]
    log_quot = (math.log(eta) if eta else LOG_ZERO) - 2.0 * math.log(abs(beta))
    coeffs, norm_log = _series_state(log_quot, -2.0 * cmath.phase(beta), lf_k + lf_l)
    return EncodedPairState(K, L, coeffs, norm_log)


def pair_approx_param(eta: float, beta, K: int, L: int) -> float:
    """Squeezing magnitude eta' = eta sqrt(K L) / |beta|^2 of the two-mode
    squeezed state the encoded pair approaches when |beta| is large; inf
    where |beta|^2 is too small for the quotient, if eta K L > 0."""
    eta = _require_eta(eta)
    beta = _require_ancilla(beta)
    K = _require_outcome(K, "K")
    L = _require_outcome(L, "L")
    # divided by |beta| twice, as |beta|^2 may underflow to 0
    return eta * math.sqrt(float(K) * float(L)) / abs(beta) / abs(beta)


# ---------------------------------------------------------------------------
# outcome distributions
# ---------------------------------------------------------------------------


def _require_budget(cells: int, top: str, k: int, context: str) -> None:
    """Raise RuntimeError when cells float64 cells exceed _GRID_BUDGET_BYTES,
    naming the window by its top, top=k; a count of more than 15 digits is
    printed as %.3e."""
    nbytes = 8 * cells
    if nbytes > _GRID_BUDGET_BYTES:
        from decimal import Decimal  # rounds an int past 1e308; imported only on failure
        k, nbytes = (str(v) if v < 10**15 else f"{Decimal(v):.3e}" for v in (k, nbytes))
        raise RuntimeError(
            f"outcome window {top}={k} needs {nbytes} bytes, over the grid budget of "
            f"{_GRID_BUDGET_BYTES} bytes, {context}"
        )


def _window_sizes(mu: float) -> Iterator[int]:
    """The distinct outcome-window tops k_max = ceil(mu + w sqrt(mu)) for a
    distribution of mean mu, w = 8, 16, 32, ..., in rising order and without
    end (only top 0 at mu = 0, whose outside mass is 0); the callers build a
    table only on a top whose directly summed outside mass is within the
    tail, and check every top against the grid budget, which ends the walk
    otherwise."""
    if mu == 0.0:
        return iter([0])
    tops = (math.ceil(mu + 2.0**r * math.sqrt(mu)) for r in itertools.count(3))
    return (top for top, _ in itertools.groupby(tops))


def _poisson_band(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends lo <= hi of the photon-number range outside which the Poisson(lam)
    tail on each side holds at most exp(-_BAND_LOG_CUT) of the mass, from
    Bernstein's bounds P(X <= lam - x) <= exp(-x^2 / (2 lam)) and
    P(X >= lam + x) <= exp(-x^2 / (2 (lam + x/3)))."""
    cut = _BAND_LOG_CUT
    lo = np.floor(lam - np.sqrt(2.0 * cut * lam))
    hi = np.ceil(lam + cut / 3.0 + np.sqrt(cut * cut / 9.0 + 2.0 * cut * lam))
    return np.maximum(lo, 0.0).astype(np.int64), hi.astype(np.int64)


def _coherent_window(alpha, beta, epsilon_tail: float) -> tuple[float, int, float]:
    """(mu, m_max, mass): mu = |alpha|^2 + |beta|^2 and the first top whose
    directly summed Poisson(mu) tail mass is at most epsilon_tail; a top
    before it that does not fit the grid budget raises."""
    epsilon_tail = _require_tail(epsilon_tail)
    alpha, beta = _require_amplitude(alpha, "alpha"), _require_amplitude(beta, "beta")
    mu = _require_mean(abs(alpha) ** 2 + abs(beta) ** 2, "|alpha|^2 + |beta|^2")
    for m_max in _window_sizes(mu):
        # the table, the temporaries of log_poisson_table and the growth of
        # the log-factorial cache (up to 2 new cells per row, filled through
        # a temporary) take up to 6 cells per row; this also caps the tail sum
        _require_budget(6 * (m_max + 1), "m_max", m_max, f"before reaching tail {epsilon_tail} (mean={mu})")
        mass = _poisson_tail(mu, m_max, math.exp(log_poisson_weight(mu, m_max)))
        if mass <= epsilon_tail:
            return mu, m_max, mass


def coherent_outcome_distribution(alpha, beta, epsilon_tail: float = DEFAULT_EPSILON_TAIL) -> OutcomeDistribution:
    """Distribution of the total-photon outcome M for signal alpha and
    ancilla beta: Poisson(|alpha|^2 + |beta|^2) by additivity, with the
    Poisson tail past the window, summed directly, as residual."""
    mu, m_max, mass = _coherent_window(alpha, beta, epsilon_tail)
    return OutcomeDistribution(OutcomeTable(np.exp(log_poisson_table(mu, m_max))), mass)


def _poisson_tail(mean: float, k: int, pois_k: float) -> float:
    """P(X > k) for X Poisson(mean), k >= mean, given pois_k = P(X = k),
    summed directly: term by term until the geometric bound on the rest,
    with ratio r = mean / (j + 1) < 1, is below 2^-60 of the sum; the bound
    is added."""
    j, term, tail = k, pois_k, 0.0
    while True:
        j += 1
        term *= mean / j
        tail += term
        r = mean / (j + 1)
        if r < 1.0 and term * r <= 2.0**-60 * tail * (1.0 - r):
            return tail + term * r / (1.0 - r)


def _outside_law(eta: float, mean_b: float, lp: np.ndarray) -> tuple[float, float]:
    """(P, P h(M / P)) for the pair outcomes outside the window O = [0, k_max]^2:
    their mass P, the table's residual, and the residual_bound of an
    entanglement report; lp is the window's log_poisson_table(mean_b, k_max),
    with k_max >= mean_b as every top.

    (K, L) = (n + X, n + Y) with n geometric, weights w_n = (1 - eta^2)
    eta^(2n), and X, Y iid Poisson(mean_b), so an outcome lies outside
    unless X, Y <= k_max - n: P(n, O) = w_n U(k_max - n) (2 - U(k_max - n))
    (and w_n for n > k_max), with U(j) = P(X > j) formed as suffix sums of
    the Poisson table from the tail past k_max (_poisson_tail).  P =
    sum_n P(n, O) and M = sum_n n P(n, O) are summed directly rather than
    taken as 1 - sum P, so they have no float64 floor; past k_max both sums
    are geometric.

    h(m) = log2(1 + m) + m log2(1 + 1/m) is the entropy of the geometric law
    of mean m.  As E_avg = H(n | K, L), the outcomes outside O add
    P H(n | K, L, O) <= P H(n | O) <= P h(E[n | O]), as the geometric law
    has the largest entropy of any law on n >= 0 with a given mean (Cover
    and Thomas, ch. 12).  This bounds the truncation only, not the rounding
    of E_avg's own sum.  At eta = 0 every outcome is a product state and
    the bound is 0.
    """
    e2 = eta * eta
    pois = np.exp(lp)
    tail = _poisson_tail(mean_b, lp.size - 1, float(pois[-1]))
    upper = np.cumsum(np.concatenate([[tail], pois[:0:-1]]))  # U(k_max - n)
    outside = (1.0 - e2) * e2 ** np.arange(lp.size) * upper * (2.0 - upper)
    past = e2**lp.size
    mass = math.fsum(outside.tolist()) + past
    moment = math.fsum((np.arange(lp.size) * outside).tolist()) + past * (lp.size + e2 / (1.0 - e2))
    if moment == 0.0:
        return mass, 0.0  # the outside mass, if any, lies at n = 0
    m = max(moment / mass, np.finfo(float).tiny)  # h rises with m, and 1/m stays finite
    return mass, mass * (math.log1p(m) + m * math.log1p(1.0 / m)) / math.log(2.0)


def _pair_window(eta: float, mean_b: float, epsilon_tail: float, grids: int, blocks: int) -> tuple[np.ndarray, tuple[float, float]]:
    """(lp, law): log_poisson_table(mean_b, k_max) and its _outside_law on
    the first top k_max of _window_sizes whose outside mass is at most
    epsilon_tail, built once per top; each top is first budgeted for grids
    window arrays and blocks arrays of _block_cells, failing before any
    allocation."""
    context = f"before reaching tail {epsilon_tail} (eta={eta}, mean={mean_b})"
    mu = mean_b + eta * eta / (1.0 - eta * eta)
    for k_max in _window_sizes(mu):
        _require_budget(grids * (k_max + 1) ** 2 + blocks * _block_cells(k_max + 1), "k_max", k_max, context)
        lp = log_poisson_table(mean_b, k_max)
        law = _outside_law(eta, mean_b, lp)
        if law[0] <= epsilon_tail:
            return lp, law


def _pair_window_grid(
    eta: float,
    mean_b: float,
    epsilon_tail: float,
    with_entropy: bool,
) -> tuple[np.ndarray, np.ndarray | None, tuple[float, float], int]:
    """Joint probability grid A[K, L] = P(K, L) over the window of
    _pair_window, plus (with_entropy) the grid P(K, L) E(K, L) whose sum is
    E_avg.  Returns (A, P E or None, law, k_max), with law the window's
    _outside_law, whose mass is at most epsilon_tail; each grid is built
    once, from the window's Poisson table.

    Slice n holds every summand that neither underflows nor rounds away on
    its square [cut_n, hi_n)^2 (_slice_squares).  The upper triangle is
    summed in the row strips [k0, k1) of _row_strips over the rows those
    squares cover: each takes the slices whose squares meet its rows, in n
    order, as (slices, strip rows, columns) blocks on the columns from k0 to
    the right edge of those squares, and the lower triangle is its mirror.
    A summand that a block holds outside the squares, or that no block
    holds, is exactly 0 or rounds away, so every bit of A and B is that of
    the full window.

    With the Schmidt weights t_n / A of outcome (K, L), A E = A log2 A -
    sum_n t_n log2 t_n, so P E comes from A and the accumulator
    B = sum_n t_n ln t_n as max(log2 A - B / (A ln 2), 0) A, cell by cell.
    Each strip writes it over B on its rows [k0, k1) from column k0 on,
    after its slices and before its mirror, in the two block buffers
    ((k1 - k0) size <= block); beside A, B and those buffers it allocates
    only the A > 0 mask of that chunk, one byte a cell.  As A and B are
    symmetric, the mirror gives the lower triangle the same bits, and rows
    that no strip covers hold A = B = +0.0, already their P E.  Row and
    column 0, where min(K, L) = 0 leaves a single Schmidt term, are pinned
    at 0 in the first strip, whose mirror carries row 0 into column 0."""
    grids = 2 if with_entropy else 1
    # two buffers of a block, for a strip's slice blocks and then its P E
    lp, law = _pair_window(eta, mean_b, epsilon_tail, grids, 2)
    size = lp.size
    a_grid = np.zeros((size, size))
    b_grid = np.zeros_like(a_grid) if with_entropy else None
    # ln t_n(K, L) = v[n, K] + v[n, L] with v[n, K] = half[n] + lp[K - n],
    # half[n] = ln(w_n) / 2 (-inf past n = 0 at eta = 0, where _slice_squares
    # keeps only slice 0 live), read through a strided view of lp behind
    # size - 1 sentinels; splitting the weight over both factors keeps the
    # grid exactly symmetric under K <-> L (float addition is commutative)
    half = 0.5 * (math.log1p(-eta * eta) + _times(2.0 * np.arange(size), math.log(eta) if eta else LOG_ZERO))
    padded = np.concatenate([np.full(size - 1, _LOG_SENTINEL), np.maximum(lp, _LOG_SENTINEL)])
    lp_view = np.lib.stride_tricks.sliding_window_view(padded, size)[::-1]
    block = _block_cells(size)
    log_scratch, term_scratch = np.empty(block), np.empty(block)  # the logs, and v then the terms
    cut, hi = _slice_squares(half, padded[size - 1 :])

    for k0, k1 in _row_strips(cut, hi, size, block):
        touch = np.flatnonzero((cut < k1) & (hi > k0))
        n_lo, n_hi = int(touch[0]), int(touch[-1]) + 1
        # the strip's rows of one slice fit a block (see _row_strips)
        step = block // ((k1 - k0) * (max(int(hi[n_lo:n_hi].max()), k1) - k0))
        for n0 in range(n_lo, n_hi, step):
            n1 = min(n0 + step, n_hi)
            l1 = max(int(hi[n0:n1].max()), k1)
            v = np.add(half[n0:n1, None], lp_view[n0:n1, k0:l1], out=term_scratch[: (n1 - n0) * (l1 - k0)].reshape(n1 - n0, -1))
            logs = np.add(v[:, : k1 - k0, None], v[:, None, :], out=log_scratch[: v.size * (k1 - k0)].reshape(n1 - n0, k1 - k0, -1))
            terms = np.exp(logs, out=term_scratch[: logs.size].reshape(logs.shape))
            if with_entropy:
                # the logs are finite, so a term that underflows adds -0.0 to B
                _add_slices(np.multiply(logs, terms, out=logs), b_grid[k0:k1, k0:l1])
            _add_slices(terms, a_grid[k0:k1, k0:l1])
        if with_entropy:
            # P E into B on the strip's rows from column k0, (k1 - k0) size
            # <= block cells; the columns left of k0 came by earlier mirrors.
            # A cell with A = 0 has B = +-0, so it comes out 0
            a, b = a_grid[k0:k1, k0:], b_grid[k0:k1, k0:]
            safe = log_scratch[: a.size].reshape(a.shape)
            np.copyto(safe, 1.0)
            np.copyto(safe, a, where=a > 0.0)
            entropies = np.log2(safe, out=term_scratch[: a.size].reshape(a.shape))
            np.divide(b, np.multiply(safe, LN2, out=safe), out=b)
            np.maximum(np.subtract(entropies, b, out=entropies), 0.0, out=entropies)
            np.multiply(entropies, a, out=b)
            if k0 == 0:
                # min(K, L) == 0 admits a single Schmidt term; pin the float
                # noise, and the mirror carries row 0 into column 0
                b[0, :] = b[:, 0] = 0.0
        for grid in (a_grid, b_grid)[:grids]:
            grid[k1:, k0:k1] = grid[k0:k1, k1:].T
    return a_grid, b_grid, law, size - 1


def _slice_squares(half: np.ndarray, lp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cut, hi): slice n of the outcome grid, up to its last live n, holds
    every summand that neither underflows nor rounds away on the square
    [cut_n, hi_n)^2; lp is the window's Poisson table floored at
    _LOG_SENTINEL, as the grid reads it.

    Outside the rows [lo_n, hi_n) even the slice's largest log v[n, L] brings
    a row below _EXP_ZERO_LOG: lp[K - n] falls below a floor.  lp rises to
    its mode and falls after it, so lo_n and hi_n come from one search on
    each monotone half; a row within rounding of the floor holds only
    summands that exp rounds to 0.  The rows [lo_n, cut_n) hold t_n < 2^-66 t_0
    (_NEGLIGIBLE_LOG) in every live column: ln t_n - ln t_0 = d[K] + d[L],
    and d[K] = v[n, K] - v[0, K] rises with K, so d[hi_n - 1] is its largest
    live value, and cut_n, the first live row where d reaches the rest of
    the cut, is bisected for, all slices at once."""
    size = lp.size
    rising = np.maximum.accumulate(lp)
    falling = np.maximum.accumulate(lp[::-1])[::-1]
    # the largest log of slice n is 2 top[n], which falls with n
    top = half + rising[size - 1 - np.arange(half.size)]
    n = np.arange(np.count_nonzero(top + top >= _EXP_ZERO_LOG))
    floor = (_EXP_ZERO_LOG - top[n]) - half[n]
    hi = np.minimum(n + np.searchsorted(-falling, -floor, side="right"), size)
    lo = np.minimum(n + np.searchsorted(rising, floor), hi)

    def d(k):
        # on a closed range k may be n - 1, and lp[-1] a value that is not used
        return (half[n] + lp[k - n]) - (half[0] + lp[k])

    rest, cut, end = _NEGLIGIBLE_LOG - d(hi - 1), lo, hi
    while (open_ := cut < end).any():
        mid = (cut + end - 1) // 2
        below = d(mid) < rest
        cut, end = np.where(open_ & below, mid + 1, cut), np.where(open_ & ~below, mid, end)
    return cut, hi


def _block_cells(size: int) -> int:
    """Most cells of one block on a window of size^2 outcomes:
    _STRIP_BLOCK_CELLS, but at most the window, so that the block buffers
    never outweigh the grids.  A strip's rows of one slice fit one (see
    _row_strips)."""
    return min(_STRIP_BLOCK_CELLS, size * size)


def _add_slices(terms: np.ndarray, acc: np.ndarray) -> None:
    """acc += terms[0] + terms[1] + ..., added one slice at a time in order,
    as a loop of acc += terms[i] would; terms is C-contiguous (slices, rows,
    cols) with rows * cols >= 2 or a single slice, and is overwritten."""
    # numpy reduces over the outer axis plane by plane, in order; were a
    # plane a single cell, the slice axis would be the innermost and numpy
    # would sum it pairwise
    terms[0] += acc
    np.add.reduce(terms, axis=0, out=acc)


def _row_strips(cut: np.ndarray, hi: np.ndarray, size: int, block: int) -> Iterator[tuple[int, int]]:
    """Row strips [k0, k1) of R = max(2, isqrt(block // size)) rows that
    tile the rows from the first one some square [cut, hi) covers to the
    last; a trailing strip of one row joins the strip before it.  So every
    strip holds at least two rows unless the squares cover one row (a
    window of one outcome), and a full-width block of a strip takes about R
    slices.  The rows of one slice of a strip fit a block: R size <= block,
    and (R + 1) size <= block wherever a strip joins, as size^2 <= block or
    block // size >= 3 (see _block_cells)."""
    rows = max(2, math.isqrt(block // size))
    last = int(hi.max())
    bounds = [*range(int(cut.min()), last, rows), last]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # the last row joins the strip before it
    return zip(bounds[:-1], bounds[1:])


def pair_outcome_distribution(eta: float, beta, epsilon_tail: float = DEFAULT_EPSILON_TAIL) -> OutcomeDistribution:
    """Joint distribution of the two total-photon outcomes (K, L); exactly
    symmetric under K <-> L by construction."""
    eta = _require_eta(eta)
    epsilon_tail = _require_tail(epsilon_tail)
    mean_b = abs(_require_amplitude(beta, "beta")) ** 2

    a_grid, _, law, _ = _pair_window_grid(eta, mean_b, epsilon_tail, with_entropy=False)
    return OutcomeDistribution(OutcomeTable(a_grid), law[0])


# ---------------------------------------------------------------------------
# large-|beta| approximation quality
# ---------------------------------------------------------------------------


def _coherent_overlaps(log_q: float, m_lo: int, m_max: int) -> np.ndarray:
    """overlap[M - m_lo] = |<alpha'|encoded M>| for M = m_lo..m_max, with
    log_q = ln |alpha/beta|, LOG_ZERO at alpha = 0, where every overlap is
    exactly 1: n ln s is 0 at n = 0 and LOG_ZERO after (_times).

    The phases of both states are n arg(alpha/beta), so the overlap is
    sum_n |a_n| |c_n|: |a_n|^2 is Poisson(M s) at n and |c_n|^2 is
    Binomial(M, s/(1+s)) at n, s = |alpha/beta|^2, whose normalizer
    sum_n s^n / (n! (M-n)!) is (1+s)^M / M!.  By Cauchy-Schwarz the terms
    outside the Poisson(M s) band sum to at most sqrt(2 exp(-_BAND_LOG_CUT)).
    The rows are summed in chunks of about _STRIP_BLOCK_CELLS cells, each
    row on its own, so overlap[M] does not depend on the chunks.
    """
    log_s = 2.0 * log_q
    m_all = np.arange(m_lo, m_max + 1)
    # s is inf when |alpha/beta|^2 overflows, and so is M s and
    # M (s + ln(1 + s)) past M = 0: their limit in every use below
    with np.errstate(over="ignore"):
        s = float(np.exp(log_s))
        m_s, m_log_norm = _times(m_all, s), _times(m_all, s + math.log1p(s))
    # beyond 2 (m_max + cut) the band's lower end passes m_max, so a larger
    # M s changes no band once clipped to n <= M
    lo, hi = _poisson_band(np.minimum(m_s, 2.0 * (m_max + _BAND_LOG_CUT)))
    lo, hi = np.minimum(lo, m_all), np.minimum(hi, m_all)
    width = int((hi - lo).max()) + 1
    context = f"for a fidelity band of {width} photon numbers (|alpha/beta|^2={s})"
    _require_budget(m_all.size * width, "m_max", m_max, context)
    lf = log_factorial_table(m_max)
    log_norm = 0.5 * (lf[m_lo:] - m_log_norm)
    out = np.empty(m_all.size)
    step = max(1, _STRIP_BLOCK_CELLS // width)
    for start in range(0, m_all.size, step):
        rows = slice(start, start + step)
        m, n = m_all[rows, None], lo[rows, None] + np.arange(width)
        # ln |a_n| + ln |c_n|, LOG_ZERO past n = M
        live = n <= m
        n = np.where(live, n, m)
        terms = _times(n, log_s + 0.5 * np.log(np.maximum(m, 1))) - lf[n] - 0.5 * lf[m - n] + log_norm[rows, None]
        out[rows] = np.exp(np.where(live, terms, LOG_ZERO)).sum(axis=1)
    return out


def mean_coherent_approx_fidelity(alpha, beta, epsilon_tail: float = DEFAULT_EPSILON_TAIL) -> float:
    """P(M)-weighted fidelity between the encoded state and the coherent
    state of amplitude alpha' = alpha sqrt(M)/beta it approximates.

    Only the outcomes from the lower end of the Poisson(mu) band
    (_poisson_band, mu = |alpha|^2 + |beta|^2; 0 while mu <= 160) to the
    top of the coherent table's window are summed.  The others contribute
    zero, so the result underestimates by at most the table's residual,
    plus the rounding of its entries (see OutcomeDistribution), plus the
    exp(-_BAND_LOG_CUT) ~ 2e-35 of mass below the band.
    """
    beta = _require_ancilla(beta)
    alpha = _require_amplitude(alpha, "alpha")
    mu, m_max, _ = _coherent_window(alpha, beta, epsilon_tail)
    m_lo = int(_poisson_band(np.float64(mu))[0])

    # ln |alpha/beta| taken apart, as alpha/beta may overflow; the band pass
    # runs before the table, so that one over the budget fails first, and by
    # Cauchy-Schwarz only float noise can push a fidelity above 1
    log_q = (math.log(abs(alpha)) if alpha else LOG_ZERO) - math.log(abs(beta))
    fid = np.minimum(_coherent_overlaps(log_q, m_lo, m_max) ** 2, 1.0)
    return min(float((np.exp(log_poisson_table(mu, m_max))[m_lo:] * fid).sum()), 1.0)


def _pair_factor(eta: float, mean_b: float, lp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G[X, n] = (eta sqrt(X/|beta|^2))^n sqrt(Pois(|beta|^2, X - n)) for
    X = 0..k_max and n = 0..n_top (0 for n > X), the factor of
    overlap[K, L] = sqrt(1 - eta^2) sum_n G[K, n] G[L, n], with each row
    divided by its largest entry; returns (scaled G, ln of those entries).
    n_top = min(k_max, ceil(_BAND_LOG_CUT / (-2 ln eta))): by Cauchy-Schwarz
    the photon numbers left out change the mean fidelity by at most
    2 eta^(n_top + 1) <= 2 e^-40.  With eta = 0, ln eta = LOG_ZERO gives
    n_top = 0, so only n = 0 survives.
    lp = log_poisson_table(mean_b, k_max), |beta|^2 > 0.  Built in one array, in place."""
    half = 0.5 * lp
    log_eta = math.log(eta) if eta else LOG_ZERO
    n_top = min(lp.size - 1, math.ceil(_BAND_LOG_CUT / (-2.0 * log_eta)))
    # g[X, n] = n ratio[X], ratio[X] = ln(eta sqrt(X / |beta|^2)); row X = 0
    # holds only n = 0, so its ratio is never used
    ratio = log_eta + 0.5 * (np.log(np.maximum(np.arange(lp.size), 1)) - math.log(mean_b))
    g = _times(np.arange(n_top + 1), ratio[:, None])
    # g[X, n] += half[X - n], LOG_ZERO for n > X, read through a strided view
    padded = np.concatenate([np.full(n_top, LOG_ZERO), half])
    g += np.lib.stride_tricks.sliding_window_view(padded, n_top + 1)[:, ::-1]
    shift = g.max(axis=1)  # finite: half[X] is, as |beta|^2 > 0
    g -= shift[:, None]
    return np.exp(g, out=g), shift


def mean_pair_approx_fidelity(eta: float, beta, epsilon_tail: float = DEFAULT_EPSILON_TAIL) -> float:
    """P(K, L)-weighted fidelity between the encoded pair state and the
    two-mode squeezed state of parameter eta' = eta sqrt(KL)/|beta|^2.

    The squeezed-state family carries a phase degree of freedom, so the
    approximant is taken with the squeezing phase of the exact state; the
    overlap then involves coefficient magnitudes only and the result cannot
    depend on the phase of beta.  Outcomes where eta' >= 1 (far tail at
    small |beta|) admit no squeezed approximant and count as fidelity zero.

    The fidelity of outcome (K, L) is (1 - eta'^2) overlap^2 / P(K, L), so
    the weighted sum is that of (1 - eta'^2) overlap^2 and needs no
    probability table.  It runs over the window of _pair_window, the first
    top whose directly summed outside mass is at most epsilon_tail; the
    outcomes outside contribute zero, so the result underestimates by at
    most that mass.  Its terms also carry the rounding of
    log_poisson_table, up to 3.0e-11 relative near the mode at
    |beta|^2 = 10^4, seen as about 1e-11 in 1 - F at |beta| = 80 to 120.
    """
    eta = _require_eta(eta)
    beta = _require_ancilla(beta)
    epsilon_tail = _require_tail(epsilon_tail)
    mean_b = abs(beta) ** 2
    if mean_b == 0.0:
        # |beta|^2 underflowed: every outcome is (n, n), and only (0, 0), of
        # probability 1 - eta^2, admits an approximant (eta' = 0, exact)
        return 1.0 - eta * eta

    lp, _ = _pair_window(eta, mean_b, epsilon_tail, _PAIR_FIDELITY_GRIDS, 0)
    # overlap[K, L] = sum_n sqrt(t_n) eta'^n with t_n the summands of
    # P(K, L), in the factorised form sqrt(1 - eta^2) sum_n G[K, n] G[L, n]
    g, shift = _pair_factor(eta, mean_b, lp)
    terms = np.einsum("kn,ln->kl", g, g)
    del g
    # ln((1 - eta^2) overlap^2), -inf where the overlap is 0
    with np.errstate(divide="ignore"):
        np.log(terms, out=terms)
    terms += shift[:, None]
    terms += shift[None, :]
    terms *= 2.0
    terms += math.log1p(-eta * eta)

    # eta' = sqrt(K) sqrt(L) eta/|beta|^2, clipped to 1 where there is no
    # approximant, so that ln(1 - eta'^2) is -inf there; eta/|beta|^2 is
    # capped at the largest float so that eta' = 0 wherever K L = 0
    factor = np.sqrt(np.arange(float(lp.size)))
    eta_prime = np.multiply.outer(factor, factor)
    with np.errstate(over="ignore", divide="ignore"):
        eta_prime *= min(eta / mean_b, _FLOAT_MAX)
        np.minimum(eta_prime, 1.0, out=eta_prime)
        np.square(eta_prime, out=eta_prime)
        np.negative(eta_prime, out=eta_prime)
        terms += np.log1p(eta_prime, out=eta_prime)
    # by Cauchy-Schwarz only float noise can push the sum above 1
    return min(float(np.exp(terms, out=terms).sum()), 1.0)
