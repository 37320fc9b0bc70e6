"""Exact, per-outcome, and measurement-averaged entanglement accounting.

The encoded pair state for outcomes (K, L) is already Schmidt-decomposed,
so its entanglement is the Shannon entropy of the squared Schmidt
coefficients.  Averaging that entropy over the outcome distribution,

    E_avg = sum_{K,L} P(K, L) E(K, L),

and comparing against the entanglement of the original two-mode squeezed
state gives the fraction sacrificed by converting to the
phase-reference-free encoding.  The squeezed-state benchmark has the closed
form (with tanh r = eta)

    E = cosh^2(r) log2(cosh^2 r) - sinh^2(r) log2(sinh^2 r).

The average runs on the same log-space outcome grid as the distribution:
with t_n(K, L) the n-th summand of P(K, L), the per-outcome Schmidt weights
are q_n = t_n / P, so

    P * E = P log2 P - sum_n t_n log2 t_n.

encoding._pair_window_grid returns P and that P * E as two grids over the
window: it adds the slices n in order, all of a row strip of the upper
triangle at once (the encoding module says which cells a strip skips and
why that changes no bit), then forms P * E in place in its own block
buffers, so no float array beside the two grids and those buffers is
allocated.  E_avg is the sum of the second grid; a report keeps neither
grid, only its numbers.  That E_avg equals the P-weighted sum of the
encode/entropy composition is pinned by tests.

Outcomes outside the window are not enumerated; residual_bound caps what
they could add to E_avg.  With n geometric and (K, L) = (n + X, n + Y),
X and Y iid Poisson(|beta|^2), E_avg = H(n | K, L), so the outcomes
outside the window O add P H(n | K, L, O) <= P H(n | O), with P their
mass; the geometric law has the largest entropy for a given mean, so that
is at most P h(E[n | O]), h(m) = log2(1 + m) + m log2(1 + 1/m), from the
directly summed outside mass and its photon-number moment.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import (
    DEFAULT_EPSILON_TAIL,
    EncodedPairState,
    _outside_entropy_bound,
    _pair_window_grid,
)
from .numerics import _require_ancilla, _require_eta, _require_tail, shannon_entropy_bits


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement accounting for one (eta, |beta|) operating point.

    The enumerated outcomes are [0, window)^2.  residual is the float64
    1 - sum P over their probabilities P(K, L), the table that
    pair_outcome_distribution returns at the same tail: that table's
    directly summed residual, at most the tail, up to the rounding of
    sum P.  A report holds no table; the one public path to it is
    pair_outcome_distribution.  residual_bound caps what the outcomes
    outside the window could add to E_avg: P h(M / P), with P their mass,
    M its photon-number moment sum_n n P(n, outside) and h(m) the entropy
    of the geometric law of mean m, the largest of any law on n >= 0 with
    that mean.  It is exactly 0 at eta = 0.  It covers truncation only.
    E_avg is the sum of the P E grid that
    encoding._pair_window_grid forms in its block buffers; its absolute
    rounding error was measured at up to 2.2e-13 against a 34-digit truth
    (2.198e-13 low at (0.9315, 9.252)), because the three terms of
    log_poisson_table cancel (ROADMAP Finding 2); the tests allow
    r = 3e-13 of it.  E_avg is capped at E_exact.
    """

    eta: float
    beta_abs: float
    E_exact: float
    E_avg: float
    fraction_lost: float
    residual: float
    residual_bound: float
    window: int


def tmss_entanglement(eta: float) -> float:
    """Entanglement (ebits) of the two-mode squeezed state with parameter
    eta; equals the entropy of the geometric Schmidt spectrum
    (1 - eta^2) eta^(2n)."""
    eta = _require_eta(eta)
    if eta == 0.0:
        return 0.0
    r = math.atanh(eta)
    ch2 = math.cosh(r) ** 2
    sh2 = math.sinh(r) ** 2
    if sh2 == 0.0:
        # eta below about 1e-162: sinh^2 r underflows, and 0 log2 0 = 0
        return ch2 * math.log2(ch2)
    return ch2 * math.log2(ch2) - sh2 * math.log2(sh2)


def entropy_of_entanglement(state: EncodedPairState) -> float:
    """Schmidt entropy in ebits of an encoded pair state."""
    probs = np.abs(state.schmidt_coeffs) ** 2
    return shannon_entropy_bits(probs)


def average_entanglement(
    eta: float,
    beta,
    epsilon_tail: float = DEFAULT_EPSILON_TAIL,
) -> EntanglementReport:
    """Outcome-averaged entanglement of the encoded pair at one operating
    point, with explicit tail accounting."""
    return _report_and_grid(eta, beta, epsilon_tail)[0]


def _report_and_grid(eta: float, beta, epsilon_tail: float) -> tuple[EntanglementReport, np.ndarray]:
    """average_entanglement's report and the P(K, L) grid it was built from."""
    eta = _require_eta(eta)
    beta = _require_ancilla(beta)
    epsilon_tail = _require_tail(epsilon_tail)
    mean_b = abs(beta) ** 2

    a_grid, pe_grid, outside, k_max = _pair_window_grid(eta, mean_b, epsilon_tail, with_entropy=True)
    # the CSV's residual column, which both reference sweeps pin
    residual = max(0.0, 1.0 - float(a_grid.sum()))
    # every outcome is a product state, or (with |beta|^2 underflowed) an
    # (n, n) outcome with a single Schmidt term
    e_avg = 0.0 if eta == 0.0 or mean_b == 0.0 else float(pe_grid.sum())

    e_exact = tmss_entanglement(eta)
    # a local protocol cannot raise entanglement: only float noise can lift E_avg past E_exact
    e_avg = min(e_avg, e_exact)
    fraction_lost = (e_exact - e_avg) / e_exact if e_exact > 0.0 else 0.0
    return EntanglementReport(
        eta=eta,
        beta_abs=abs(beta),
        E_exact=e_exact,
        E_avg=e_avg,
        fraction_lost=fraction_lost,
        residual=residual,
        residual_bound=_outside_entropy_bound(eta, outside),
        window=k_max + 1,
    ), a_grid


def entanglement_sweep(
    etas: Sequence[float],
    betas: Sequence[float],
    epsilon_tail: float = DEFAULT_EPSILON_TAIL,
    max_workers: int | None = None,
) -> list[EntanglementReport]:
    """One report per (eta, beta) grid point, eta-major order.  Every eta,
    beta and the tail are checked before the first point is computed.
    Points are independent; max_workers, None (serial) or an int >= 1,
    computes them concurrently when above 1, with output order (and
    content) unchanged."""
    etas = [_require_eta(eta) for eta in etas]
    betas = [_require_ancilla(beta) for beta in betas]
    epsilon_tail = _require_tail(epsilon_tail)
    if not etas or not betas:
        raise ValueError("eta and beta grids must be non-empty")
    if max_workers is not None and not (isinstance(max_workers, numbers.Integral) and max_workers >= 1):
        raise ValueError(f"max_workers must be a positive number of worker threads, got {max_workers!r}")
    points = [(eta, beta) for eta in etas for beta in betas]
    # Serial in the calling thread: a one-worker pool here raised the default
    # sweep's peak RSS from 31.45-31.48 to 31.89-31.93 MiB in 4 of 4
    # alternating bench/run.py pairs (2-vCPU Xeon), as the pool's thread
    # gets its own allocator arena.
    if max_workers is None or max_workers <= 1:
        return [average_entanglement(eta, beta, epsilon_tail) for eta, beta in points]
    from concurrent.futures import ThreadPoolExecutor  # here: it loads logging and queue

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(lambda p: average_entanglement(p[0], p[1], epsilon_tail), points))
