"""Log-domain scalar kernels shared by every other module.

Photon-number amplitudes involve factorials of numbers well past 100, so
every quantity that could overflow or underflow is kept on the natural-log
scale and only exponentiated after normalization.  A log of zero is the
explicit sentinel ``LOG_ZERO``; ``log_sum_exp`` skips such terms instead of
letting NaNs propagate.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

LOG_ZERO = float("-inf")

LN2 = math.log(2.0)

# Largest n whose factorial is taken by exact integer product; above this,
# lgamma is accurate to a couple of ulp, well below every tolerance used here.
_EXACT_FACTORIAL_MAX = 20


def log_factorial(n: int) -> float:
    """ln(n!) for a nonnegative integer n."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"log_factorial requires n >= 0, got {n}")
    if n <= _EXACT_FACTORIAL_MAX:
        return math.log(math.factorial(n))
    return math.lgamma(n + 1.0)


# ln(k!) for k = 0..len - 1, each value from log_factorial.  Growing it binds
# a new array, so a concurrent reader sees either the old or the new table.
_log_factorials = np.array([log_factorial(0)])


def log_factorial_table(n_max: int) -> np.ndarray:
    """ln(k!) for k = 0..n_max, as a float array the caller owns."""
    global _log_factorials
    n_max = operator.index(n_max)
    if n_max < 0:
        raise ValueError(f"log_factorial_table requires n_max >= 0, got {n_max}")
    table = _log_factorials
    if n_max >= table.size:
        size = max(n_max + 1, 2 * table.size)
        grown = np.empty(size)
        grown[: table.size] = table
        # above _EXACT_FACTORIAL_MAX, log_factorial(k) is math.lgamma(k + 1)
        start = min(size, max(table.size, _EXACT_FACTORIAL_MAX + 1))
        grown[table.size : start] = [log_factorial(k) for k in range(table.size, start)]
        grown[start:] = np.fromiter(map(math.lgamma, range(start + 1, size + 1)), float, size - start)
        _log_factorials = table = grown
    return table[: n_max + 1].copy()


def log_poisson_weight(mean: float, k: int) -> float:
    """ln of the Poisson pmf  e^(-mean) mean^k / k!.

    mean == 0 degenerates to certainty at k == 0 and LOG_ZERO elsewhere.
    """
    k = operator.index(k)
    if k < 0:
        raise ValueError(f"log_poisson_weight requires k >= 0, got {k}")
    if not mean >= 0.0:
        raise ValueError(f"log_poisson_weight requires mean >= 0, got {mean}")
    if mean == 0.0:
        return 0.0 if k == 0 else LOG_ZERO
    return -mean + k * math.log(mean) - log_factorial(k)


def log_poisson_table(mean: float, k_max: int) -> np.ndarray:
    """ln Poisson(mean) pmf for k = 0..k_max."""
    k_max = operator.index(k_max)
    if k_max < 0:
        raise ValueError(f"log_poisson_table requires k_max >= 0, got {k_max}")
    if not mean >= 0.0:
        raise ValueError(f"log_poisson_table requires mean >= 0, got {mean}")
    if mean == 0.0:
        out = np.full(k_max + 1, LOG_ZERO)
        out[0] = 0.0
        return out
    k = np.arange(k_max + 1, dtype=float)
    return -mean + k * math.log(mean) - log_factorial_table(k_max)


def log_sum_exp(terms: Sequence[float] | np.ndarray) -> float:
    """ln(sum_i exp(t_i)) via max-shift; LOG_ZERO entries are skipped, and a
    +inf entry gives +inf."""
    arr = np.asarray(terms, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("log_sum_exp requires a non-empty list of terms")
    m = float(arr.max())
    if math.isinf(m):
        # LOG_ZERO when every term is; +inf when one is, where the shift gives inf - inf
        return m
    # fsum keeps the shifted sum exact; terms at LOG_ZERO exponentiate to 0.
    return m + math.log(math.fsum(np.exp(arr - m).tolist()))


def shannon_entropy_bits(probabilities: Sequence[float] | np.ndarray) -> float:
    """-sum p log2 p over a normalized distribution, with 0 log 0 = 0.

    The caller is responsible for normalization; a total off by more than
    1e-9 is rejected rather than silently rescaled.
    """
    p = np.asarray(probabilities, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("shannon_entropy_bits requires at least one probability")
    if np.any(p < 0.0):
        raise ValueError("shannon_entropy_bits requires nonnegative probabilities")
    total = math.fsum(p.tolist())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"shannon_entropy_bits requires probabilities summing to 1, got {total!r}"
        )
    nz = p[p > 0.0]
    # 0.0 - sum rather than -sum, so that a pure state gives 0.0, not -0.0
    return 0.0 - math.fsum((nz * (np.log(nz) / LN2)).tolist())
