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
window; its docstring says how it sums them and forms P * E, and what
memory that takes.  E_avg is the sum of the second grid; a report keeps
neither grid, only its numbers.  That E_avg equals the P-weighted sum of
the encode/entropy composition is pinned by tests.  At eta = 0, or where
|beta|^2 underflows to 0, every outcome has a single Schmidt term, so
E_avg is 0 and no P E grid is built.

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
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import DEFAULT_EPSILON_TAIL, EncodedPairState, _pair_window_grid
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
    that mean, formed with that mass by encoding._outside_law.  It is
    exactly 0 at eta = 0.  It covers truncation only.
    E_avg is the sum of the P E grid of encoding._pair_window_grid (its
    docstring says how that grid is formed); its absolute rounding error
    was measured at up to 2.2e-13 against a 34-digit truth (2.198e-13 low
    at (0.9315, 9.252)), because the three terms of log_poisson_table
    cancel (ROADMAP Finding 2); the tests allow r = 3e-13 of it.  E_avg is
    capped at E_exact, and is exactly 0 at eta = 0 and where |beta|^2
    underflows to 0, as every outcome there has one Schmidt term.
    fraction_lost's absolute error is at most
    (r + residual_bound) / E_exact + 2 delta, with delta the relative
    error of E_exact (see tmss_entanglement).  At |beta| = 2 against the
    34-digit truth it is 1.0e-13 at eta = 1e-2, 1.4e-11 at 1e-3 and 3.4e-8
    at 1e-5; below that E_exact's cancellation takes over, and at eta = 1e-7
    and 1e-9 it reads 0.00865674 and 0 for 0.00800695 and 0.00626954.
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
    (1 - eta^2) eta^(2n).  Its two terms cancel, so against a 50-digit
    value of that entropy the relative error is at most 2.65e-15 at the
    reference eta (0.1-0.5, 0.9081, 0.9315) and at 0.95, but 1.4e-13 at
    0.01, 2.6e-2 at 1e-8, 1.6e-14 at 0.99 and 1.3e-10 at 0.999999.  Nearer
    eta = 1, against a 60-digit value, it is 9.8e-9 at 1 - 1e-8, 5.7e-7 at
    1 - 1e-10, 6.8e-5 at 1 - 1e-12 and 1.0e-3 at 1 - 1e-14, and at
    0.9999999999999999 it returns 128.0 for 53.44.  encoding._outside_law
    forms the same entropy, h(m) at m = eta^2 / (1 - eta^2), without the
    cancellation."""
    eta = _require_eta(eta)
    r = math.atanh(eta)
    ch2 = math.cosh(r) ** 2
    sh2 = math.sinh(r) ** 2
    # sinh^2 r is 0 at eta = 0 and where it underflows, below about 1e-162;
    # its log at the floor 2^-1074 (see numerics) makes 0 log2 0 = -0.0
    return ch2 * math.log2(ch2) - sh2 * math.log2(max(sh2, math.ulp(0.0)))


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

    # at eta = 0 or with |beta|^2 underflowed each outcome has one Schmidt
    # term, so E_avg is 0; the kernel's P E sum there is rounding noise, not
    # 0 (3.2e-16 at eta = 0.99), so P E is built only where it can be nonzero
    entangled = eta > 0.0 and mean_b > 0.0
    a_grid, pe_grid, law, k_max = _pair_window_grid(eta, mean_b, epsilon_tail, with_entropy=entangled)
    # the CSV's residual column, which both reference sweeps pin
    residual = max(0.0, 1.0 - float(a_grid.sum()))
    e_exact = tmss_entanglement(eta)
    # a local protocol cannot raise entanglement: only float noise can lift E_avg past E_exact
    e_avg = min(float(pe_grid.sum()), e_exact) if entangled else 0.0
    fraction_lost = (e_exact - e_avg) / e_exact if e_exact > 0.0 else 0.0
    return EntanglementReport(
        eta=eta,
        beta_abs=abs(beta),
        E_exact=e_exact,
        E_avg=e_avg,
        fraction_lost=fraction_lost,
        residual=residual,
        residual_bound=law[1],
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
    Points are independent; max_workers, None (serial) or an int >= 1 that
    is not a bool, computes them concurrently when above 1, on at most one
    thread per CPU and per point, with output order (and content)
    unchanged."""
    etas = [_require_eta(eta) for eta in etas]
    betas = [_require_ancilla(beta) for beta in betas]
    epsilon_tail = _require_tail(epsilon_tail)
    if not etas or not betas:
        raise ValueError("eta and beta grids must be non-empty")
    # a bool is not a count: False fails >= 1, and True must not pass as 1
    if max_workers is not None and not (isinstance(max_workers, numbers.Integral) and max_workers >= 1 and max_workers is not True):
        raise ValueError(f"max_workers must be a positive number of worker threads, got {max_workers!r}")
    points = [(eta, beta) for eta in etas for beta in betas]
    # A pool starts a thread per submitted point while none is idle, so it
    # gets no more workers than there are CPUs or points.
    workers = min(max_workers or 1, len(points), os.cpu_count() or 1)
    # Serial in the calling thread: a one-worker pool here raised the default
    # sweep's peak RSS from 31.45-31.48 to 31.89-31.93 MiB in 4 of 4
    # alternating bench/run.py pairs (2-vCPU Xeon), as the pool's thread
    # gets its own allocator arena.
    if workers == 1:
        return [average_entanglement(eta, beta, epsilon_tail) for eta, beta in points]
    from concurrent.futures import ThreadPoolExecutor  # here: it loads logging and queue

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda p: average_entanglement(p[0], p[1], epsilon_tail), points))
