"""Log-domain kernel tests: frozen values, error contracts, invariants.

Reference values come from 50-digit mpmath arithmetic, recomputed in-test
so the oracle derivation stays visible next to the frozen literal.
"""

import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasefree import numerics
from phasefree.encoding import (
    coherent_approx_param,
    coherent_outcome_distribution,
    encode_coherent,
    encode_pair,
    pair_approx_param,
    pair_outcome_distribution,
)
from phasefree.entanglement import average_entanglement, entanglement_sweep, tmss_entanglement
from phasefree.numerics import (
    LOG_ZERO,
    log_factorial,
    log_factorial_table,
    log_poisson_table,
    log_poisson_weight,
    log_sum_exp,
    shannon_entropy_bits,
)
from phasefree.oracle import build_joint_coherent, build_joint_pair, project_total_number

mp.mp.dps = 50


def _ulp_bound(value: float, abs_floor: float = 1e-12, ulps: float = 8.0) -> float:
    """Absolute tolerance: abs_floor where binary64 can honor it, a few ulp
    of the value's magnitude where it cannot."""
    return max(abs_floor, ulps * np.spacing(abs(value)))


class TestABoolIsNotACount:
    @pytest.mark.parametrize(
        "call,error,name",
        [
            pytest.param(lambda: encode_coherent(1.0, 1.0, True), TypeError, "M", id="encode_coherent-M"),
            pytest.param(lambda: encode_pair(0.5, 1.0, True, 2), TypeError, "K", id="encode_pair-K"),
            pytest.param(lambda: encode_pair(0.5, 1.0, 2, True), TypeError, "L", id="encode_pair-L"),
            pytest.param(lambda: coherent_approx_param(1.0, 1.0, True), TypeError, "M", id="coherent_approx_param-M"),
            pytest.param(lambda: pair_approx_param(0.5, 1.0, True, 2), TypeError, "K", id="pair_approx_param-K"),
            pytest.param(lambda: pair_approx_param(0.5, 1.0, 2, True), TypeError, "L", id="pair_approx_param-L"),
            pytest.param(lambda: log_factorial(True), TypeError, "n", id="log_factorial-True"),
            pytest.param(lambda: log_factorial(False), TypeError, "n", id="log_factorial-False"),
            pytest.param(lambda: log_poisson_weight(1.0, True), TypeError, "k", id="log_poisson_weight-k"),
            pytest.param(
                lambda: entanglement_sweep([0.1], [1.0], max_workers=True), ValueError, "max_workers", id="entanglement_sweep-max_workers"
            ),
        ],
    )
    def test_a_bool_is_refused_by_name(self, call, error, name):
        """operator.index once took True as 1 and False as 0, so
        encode_pair(0.5, 1.0, True, 2) built the K = 1 state and
        log_factorial(True) returned 0.0; numpy bools already fail there."""
        with pytest.raises(error, match=rf"^{name} must .*(True|False)$"):
            call()


class TestAFloatIsNotACount:
    @pytest.mark.parametrize(
        "call,name,value",
        [
            pytest.param(lambda: encode_pair(0.5, 1.0, 3.0, 2), "K", "3.0", id="encode_pair-K"),
            pytest.param(lambda: log_factorial(2.5), "n", "2.5", id="log_factorial-n"),
            pytest.param(lambda: log_poisson_weight(1.0, 3.0), "k", "3.0", id="log_poisson_weight-k"),
            pytest.param(lambda: build_joint_pair(0.5, 1.0, 0.0, 3.0), "cutoff", "3.0", id="oracle-cutoff"),
            pytest.param(
                lambda: project_total_number(build_joint_coherent(1.0, 1.0, 0.0, 3), (0, 1), np.float64(2.0)),
                "outcome",
                "np.float64(2.0)",
                id="projection-outcome",
            ),
        ],
    )
    def test_a_float_is_refused_by_name(self, call, name, value):
        """A float, even a whole one, once raised "'float' object cannot be
        interpreted as an integer", which names no quantity."""
        with pytest.raises(TypeError, match=rf"^{name} must be an integer count, not {re.escape(value)}$"):
            call()


class TestLogFactorial:
    def test_zero_and_one(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0

    def test_exact_small_values(self):
        for n in range(2, 21):
            assert log_factorial(n) == pytest.approx(math.log(math.factorial(n)), abs=0.0)

    def test_170_is_finite_where_naive_factorial_is_not(self):
        value = log_factorial(170)
        assert math.isfinite(math.exp(value))
        # 171! no longer fits a double at all
        with pytest.raises(OverflowError):
            float(math.factorial(171))
        oracle = float(mp.loggamma(171))
        assert value == pytest.approx(706.5730622457874, abs=1e-10)
        assert value == pytest.approx(oracle, abs=_ulp_bound(oracle))

    @pytest.mark.parametrize("n", [25, 100, 1000, 10**6])
    def test_against_high_precision_loggamma(self, n):
        oracle = float(mp.loggamma(n + 1))
        assert log_factorial(n) == pytest.approx(oracle, abs=_ulp_bound(oracle))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_factorial(-1)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            log_factorial(2.5)

    def test_a_count_whose_log_factorial_passes_the_float_range_fails_cleanly(self):
        """math.lgamma overflows past n ~ 2.56e305; that once escaped as a
        bare OverflowError, also from log_poisson_weight."""
        assert log_factorial(2 * 10**305) == 1.4039632010874876e308
        assert log_poisson_weight(0.0, 10**308) == LOG_ZERO
        for call in (lambda: log_factorial(3 * 10**305), lambda: log_poisson_weight(1e300, 10**306)):
            with pytest.raises(ValueError, match=r"^a count must be at most about 2\.56e305, .*, got [13]e\+30[56]$"):
                call()

    @given(st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, n):
        """lf(n+1) - lf(n) == ln(n+1), up to the cancellation floor set by
        the magnitude of lf itself."""
        diff = log_factorial(n + 1) - log_factorial(n)
        tol = max(1e-12 * math.log(n + 1) if n > 0 else 1e-12,
                  8.0 * np.spacing(log_factorial(n + 1)))
        assert abs(diff - math.log(n + 1)) <= tol

    def test_table_matches_scalar(self):
        table = log_factorial_table(40)
        assert table.shape == (41,)
        for n in (0, 1, 20, 21, 40):
            assert table[n] == log_factorial(n)

    def test_table_matches_scalar_after_uneven_growth(self, monkeypatch):
        monkeypatch.setattr(numerics, "_log_factorials", numerics._log_factorials[:1].copy())
        for n_max in (3, 2, 57, 58, 130, 7, 1000, 999):
            table = log_factorial_table(n_max)
            assert table.shape == (n_max + 1,)
            assert table.tolist() == [log_factorial(k) for k in range(n_max + 1)]

    def test_grown_cache_is_the_scalar_values_bit_for_bit(self, monkeypatch):
        """A growth from 15 entries fills k = 15..29 across the switch from
        exact factorials to lgamma at k = 20/21; the next, past 29, doubles
        the cache to 60 entries."""
        monkeypatch.setattr(numerics, "_log_factorials", numerics.log_factorial_table(14))
        for n_max, size in ((25, 30), (30, 60)):
            log_factorial_table(n_max)
            expected = np.array([log_factorial(k) for k in range(size)])
            assert numerics._log_factorials.tobytes() == expected.tobytes()

    def test_table_is_consistent_under_concurrent_growth(self, monkeypatch):
        """Threads that grow the shared table at once each see a complete
        table of scalar values."""
        monkeypatch.setattr(numerics, "_log_factorials", numerics._log_factorials[:1].copy())
        sizes = list(range(1, 1500, 37)) * 4
        expected = [log_factorial(k) for k in range(max(sizes) + 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                tables = list(pool.map(log_factorial_table, sizes))
        finally:
            sys.setswitchinterval(interval)
        for n_max, table in zip(sizes, tables):
            assert table.tolist() == expected[: n_max + 1]

    def test_table_is_a_private_copy(self):
        first = log_factorial_table(30)
        expected = first.copy()
        first[:] = -1.0
        assert np.array_equal(log_factorial_table(30), expected)


class TestLogPoissonWeight:
    def test_vacuum_certainty(self):
        assert log_poisson_weight(0.0, 0) == 0.0
        assert log_poisson_weight(0.0, 3) == LOG_ZERO

    def test_mean_one(self):
        assert log_poisson_weight(1.0, 1) == pytest.approx(-1.0, abs=1e-15)

    def test_mean_100_at_100(self):
        # oracle: ln(e^-100 100^100 / 100!) by 50-digit arithmetic
        oracle = float(-100 + 100 * mp.log(100) - mp.loggamma(101))
        value = log_poisson_weight(100.0, 100)
        assert value == pytest.approx(-3.2223569567543535, abs=1e-11)
        assert value == pytest.approx(oracle, abs=_ulp_bound(oracle))
        assert math.exp(value) == pytest.approx(0.03986, abs=2e-5)

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            log_poisson_weight(-0.5, 0)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            log_poisson_weight(1.0, -1)

    @pytest.mark.parametrize("call", [log_poisson_weight, log_poisson_table], ids=["weight", "table"])
    @pytest.mark.parametrize("mean", [math.inf, math.nan])
    def test_rejects_a_non_finite_mean(self, call, mean):
        """inf once gave nan (and a table of NaNs, with RuntimeWarnings)."""
        with pytest.raises(ValueError, match=rf"mean must be finite, got {mean!r}"):
            call(mean, 3)

    def test_rejects_an_outcome_past_the_float_range(self):
        """k = 10^400 has no float, so k ln(mean) once raised OverflowError."""
        with pytest.raises(ValueError, match=r"^k must be at most 1\.79\d+e\+308, the largest float$"):
            log_poisson_weight(1.0, 10**400)

    @pytest.mark.parametrize("mean", [0.0, 0.5, 4.0, 100.0])
    def test_table_matches_scalar_and_sums_to_one(self, mean):
        k_max = int(mean + 40 * math.sqrt(mean)) + 40
        table = log_poisson_table(mean, k_max)
        for k in (0, 1, k_max // 2, k_max):
            assert table[k] == pytest.approx(log_poisson_weight(mean, k), abs=1e-13)
        assert math.fsum(np.exp(table).tolist()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mean", [64.0, 144.0, 1e4, 9e4, 1e10])
    def test_error_within_the_stated_bound(self, mean):
        """The three terms cancel, so the error is stated against their sizes:
        within 2^-52 (mean + k |ln mean| + ln k!) over +-5 sigma, measured at
        up to 0.87 of it.  The table is checked on every k there, the scalar
        on 401 k at mean 1e10, whose table would not fit in memory."""
        sigma = math.sqrt(mean)
        lo, hi = math.floor(mean - 5 * sigma), math.ceil(mean + 5 * sigma)
        if mean < 1e6:
            ks = range(lo, hi + 1)
            values = log_poisson_table(mean, hi)[lo:]
        else:
            ks = np.linspace(lo, hi, 401).round().astype(int).tolist()
            values = [log_poisson_weight(mean, k) for k in ks]
        log_mean = mp.log(mean)
        for k, value in zip(ks, values):
            truth = -mp.mpf(mean) + k * log_mean - mp.loggamma(k + 1)
            bound = 2.0**-52 * (mean + k * abs(math.log(mean)) + math.lgamma(k + 1.0))
            assert abs(float(value - truth)) <= bound, k


@pytest.mark.parametrize(
    "call,quantity",
    [
        (lambda: encode_coherent(10**400, 1.0, 3), "alpha"),
        (lambda: encode_pair(10**400, 1.0, 1, 1), "eta"),
        (lambda: pair_outcome_distribution(0.5, 10**400), "beta"),
        (lambda: average_entanglement(10**400, 1.0), "eta"),
        (lambda: entanglement_sweep([0.5], [10**400]), "beta"),
        (lambda: tmss_entanglement(10**400), "eta"),
        (lambda: coherent_outcome_distribution(1, 1, 10**400), "epsilon_tail"),
        (lambda: log_poisson_weight(10**400, 3), "mean"),
    ],
    ids=[
        "encode_coherent",
        "encode_pair",
        "pair_outcome_distribution",
        "average_entanglement",
        "entanglement_sweep",
        "tmss_entanglement",
        "coherent_outcome_distribution",
        "log_poisson_weight",
    ],
)
def test_a_number_past_the_float_range_fails_its_rule(call, quantity):
    """An int with no float fails its input rule as inf does; each of these
    once raised OverflowError from float() or complex()."""
    with pytest.raises(ValueError, match=rf"^{quantity} must .*, got \(?inf"):
        call()


class TestLogSumExp:
    def test_single_term(self):
        assert log_sum_exp([0.0]) == 0.0
        assert log_sum_exp([-3.7]) == -3.7

    def test_exact_small_sum(self):
        assert log_sum_exp([math.log(1.0), math.log(3.0)]) == pytest.approx(math.log(4.0), abs=1e-15)

    def test_shift_case(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_ignores_log_zero_sentinel(self):
        assert log_sum_exp([LOG_ZERO, 0.0, LOG_ZERO]) == 0.0
        assert log_sum_exp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO

    def test_infinite_term_gives_infinity(self):
        """A +inf term makes the sum +inf; the max-shift would form inf - inf."""
        assert log_sum_exp([math.inf, 0.0]) == math.inf
        assert log_sum_exp([LOG_ZERO, math.inf, math.inf]) == math.inf

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    @pytest.mark.parametrize("terms", [[math.nan, 0.0], [LOG_ZERO, math.nan], [math.inf, math.nan]])
    def test_rejects_nan(self, terms):
        with pytest.raises(ValueError, match="not NaN"):
            log_sum_exp(terms)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_permutation_and_shift_invariance(self, terms):
        base = log_sum_exp(terms)
        assert log_sum_exp(list(reversed(terms))) == pytest.approx(base, abs=1e-12)
        shift = 123.456
        assert log_sum_exp([t + shift for t in terms]) == pytest.approx(base + shift, abs=1e-9)


class TestShannonEntropyBits:
    def test_deterministic(self):
        assert shannon_entropy_bits([1.0]) == 0.0

    def test_uniform_pair(self):
        assert shannon_entropy_bits([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_biased_pair(self):
        # oracle: -(0.8 log2 0.8 + 0.2 log2 0.2) by direct evaluation
        oracle = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
        value = shannon_entropy_bits([0.8, 0.2])
        assert value == pytest.approx(0.7219280948873623, abs=1e-14)
        assert value == pytest.approx(oracle, abs=1e-14)

    def test_zero_entries_contribute_nothing(self):
        assert shannon_entropy_bits([0.5, 0.0, 0.5, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_zero_weights_keep_every_bit(self):
        """A zero weight takes its log at 2^-1074, where its term is -0.0:
        a pure state with zeros is +0.0, a fair coin with a zero is exactly
        1, and the least positive weight adds its own exact term,
        1074 * 2^-1074, beside a weight of 1."""
        pure = shannon_entropy_bits([0.0, 1.0, 0.0])
        assert pure == 0.0 and math.copysign(1.0, pure) == 1.0
        assert shannon_entropy_bits([0.5, 0.0, 0.5]) == 1.0
        assert shannon_entropy_bits([5e-324, 1.0]) == float.fromhex("0x0.0000000000432p-1022") == 1074 * 5e-324

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            shannon_entropy_bits([1.1, -0.1])

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            shannon_entropy_bits([0.5, 0.6])

    @pytest.mark.parametrize("p", [[math.nan, math.nan], [0.5, math.nan, 0.5], [1.0, math.nan]])
    def test_rejects_nan(self, p):
        """These once gave 0.0 and 1.0: NaN fails no comparison."""
        with pytest.raises(ValueError, match="NaN"):
            shannon_entropy_bits(p)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one probability"):
            shannon_entropy_bits([])

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_uniform_maximizes(self, n):
        assert shannon_entropy_bits([1.0 / n] * n) == pytest.approx(math.log2(n), abs=1e-10)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance_and_bound(self, weights):
        p = np.array(weights) / math.fsum(weights)
        h = shannon_entropy_bits(p)
        assert shannon_entropy_bits(p[::-1]) == pytest.approx(h, abs=1e-12)
        assert -1e-12 <= h <= math.log2(p.size) + 1e-12
