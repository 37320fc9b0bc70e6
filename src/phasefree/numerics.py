"""Log-domain scalar kernels and every input rule of the library.

The _require_* rules here are the one place where the library checks a
count, a Poisson mean, an amplitude, eta or the tail budget; eta, the tail
and the mean share one range rule.  A number past the float range, such
as the int 10**400, fails its rule as +-inf does, with a ValueError that
names the quantity, never an OverflowError.

Photon-number amplitudes involve factorials of numbers well past 100, so
every quantity that could overflow or underflow is kept on the natural-log
scale and only exponentiated after normalization.  A log of zero is the
explicit sentinel ``LOG_ZERO``; ``log_sum_exp`` skips such terms, and it and
``shannon_entropy_bits`` reject a NaN instead of letting it propagate.  A
power taken on the log scale, n ln x, reads 0 ln 0 = 0 at n = 0: ``_times``
forms every such product, so a zero mean, amplitude or eta needs no path of
its own.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Sequence

import numpy as np

LOG_ZERO = float("-inf")

LN2 = math.log(2.0)

# Largest n whose factorial is taken by exact integer product; above this,
# lgamma is accurate to a couple of ulp, well below every tolerance used here.
_EXACT_FACTORIAL_MAX = 20


def _require_outcome(value, name: str) -> int:
    """value as a nonnegative int that converts to a finite float."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value}")
    if value > sys.float_info.max:
        raise ValueError(f"{name} must be at most {sys.float_info.max!r}, the largest float")
    return value


def _require_range(value, name: str, low: float, high: float, rule: str) -> float:
    """value as a float with low <= value < high, else a ValueError that
    states the rule; a number past the float range is taken as +-inf."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if not low <= value < high:
        raise ValueError(f"{name} must {rule}, got {value!r}")
    return value


def _require_mean(value, name: str) -> float:
    """value as a finite float mean >= 0."""
    value = _require_range(value, name, -sys.float_info.max, math.inf, "be finite")
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def _require_amplitude(value, name: str) -> complex:
    """value as a complex amplitude whose mean photon number |value|^2 is a
    finite float; a number past the float range is taken as +-inf."""
    try:
        value = complex(value)
    except OverflowError:
        value = complex(math.inf if value > 0 else -math.inf)
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
    return _require_range(eta, "eta", 0.0, 1.0, "lie in [0, 1)")


def _require_tail(epsilon_tail: float) -> float:
    return _require_range(epsilon_tail, "epsilon_tail", math.ulp(0.0), 1.0, "lie in (0, 1)")


def _times(counts, value) -> np.ndarray:
    """counts * value as a new float array, 0 wherever the count is 0, also
    where value is +-inf: the one place of the rule 0 ln 0 = 0."""
    return np.multiply(counts, value, out=np.zeros(np.broadcast(counts, value).shape), where=counts > 0)


def log_factorial(n: int) -> float:
    """ln(n!) for a nonnegative integer n; past n ~ 2.56e305 ln(n!) exceeds
    the largest float, and such an n raises ValueError."""
    n = _require_outcome(n, "n")
    if n <= _EXACT_FACTORIAL_MAX:
        return math.log(math.factorial(n))
    try:
        return math.lgamma(n + 1.0)
    except OverflowError:
        raise ValueError(f"a count must be at most about 2.56e305, where ln(count!) passes the largest float, got {n:.4g}") from None


# ln(k!) for k = 0..len - 1, each value from log_factorial.  Growing it binds
# a new array, so a concurrent reader sees either the old or the new table.
_log_factorials = np.array([log_factorial(0)])


def log_factorial_table(n_max: int) -> np.ndarray:
    """ln(k!) for k = 0..n_max, as a float array the caller owns."""
    global _log_factorials
    n_max = _require_outcome(n_max, "n_max")
    table = _log_factorials
    if n_max >= table.size:
        size = max(n_max + 1, 2 * table.size)
        grown = np.empty(size)
        grown[: table.size] = table
        grown[table.size :] = np.fromiter(map(log_factorial, range(table.size, size)), float, size - table.size)
        _log_factorials = table = grown
    return table[: n_max + 1].copy()


def log_poisson_weight(mean: float, k: int) -> float:
    """ln of the Poisson pmf  e^(-mean) mean^k / k!.

    mean == 0 degenerates to certainty at k == 0 and LOG_ZERO elsewhere,
    answered without ln k!, which would fail past k ~ 2.56e305.  The three
    terms -mean, k ln mean and ln k! cancel: against 40-digit mpmath over
    +-5 sigma at mean 64, 144, 1e4, 9e4 and 1e10 the error stayed within
    2^-52 (mean + k |ln mean| + ln k!), at up to 0.87 of it (mean 1e4), and
    up to 5.3e-5 absolute at mean 1e10; at mean 1e300 and k = 10^300 the
    result is 0.0, where the truth is -1.378e267.
    """
    k = _require_outcome(k, "k")
    mean = _require_mean(mean, "mean")
    if mean == 0.0:
        return 0.0 if k == 0 else LOG_ZERO
    return -mean + k * math.log(mean) - log_factorial(k)


def log_poisson_table(mean: float, k_max: int) -> np.ndarray:
    """ln Poisson(mean) pmf for k = 0..k_max, each entry that of
    log_poisson_weight, with its error bound; mean == 0 gives 0 at k == 0
    and LOG_ZERO elsewhere, as k ln 0 is 0 at k == 0 and LOG_ZERO after."""
    k_max = _require_outcome(k_max, "k_max")
    mean = _require_mean(mean, "mean")
    return -mean + _times(np.arange(k_max + 1.0), math.log(mean) if mean else LOG_ZERO) - log_factorial_table(k_max)


def log_sum_exp(terms: Sequence[float] | np.ndarray) -> float:
    """ln(sum_i exp(t_i)) via max-shift; LOG_ZERO entries are skipped, a
    +inf entry gives +inf, and a NaN entry raises."""
    arr = np.asarray(terms, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("log_sum_exp requires a non-empty list of terms")
    m = float(arr.max())
    if math.isnan(m):
        raise ValueError("log_sum_exp requires terms that are not NaN")
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
    if not np.all(p >= 0.0):
        raise ValueError("shannon_entropy_bits requires nonnegative probabilities, none NaN")
    total = math.fsum(p.tolist())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(
            f"shannon_entropy_bits requires probabilities summing to 1, got {total!r}"
        )
    nz = p[p > 0.0]
    # 0.0 - sum rather than -sum, so that a pure state gives 0.0, not -0.0
    return 0.0 - math.fsum((nz * (np.log(nz) / LN2)).tolist())
