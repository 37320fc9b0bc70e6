"""Entanglement accounting: exact benchmark, per-outcome, and averages."""

import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from phasefree import encoding, entanglement
from phasefree.cli import _DEFAULT_BETAS, _DEFAULT_ETAS, parse_grid
from phasefree.encoding import (
    DEFAULT_EPSILON_TAIL,
    EncodedPairState,
    _poisson_band,
    encode_pair,
    pair_outcome_distribution,
)
from phasefree.entanglement import (
    _report_and_grid,
    average_entanglement,
    entanglement_sweep,
    entropy_of_entanglement,
    tmss_entanglement,
)
from phasefree.numerics import LN2, log_poisson_table


class TestTmssEntanglement:
    def test_vacuum(self):
        assert tmss_entanglement(0.0) == 0.0

    def test_weak_squeezing_endpoint(self):
        assert tmss_entanglement(0.1) == pytest.approx(0.08160922817768805, abs=1e-12)

    def test_strong_squeezing_endpoint(self):
        assert tmss_entanglement(0.5) == pytest.approx(1.0817041659455104, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.7])
    def test_matches_geometric_spectrum_entropy(self, eta):
        """Closed form equals the entropy of the truncated Schmidt spectrum
        (1-eta^2) eta^(2n), truncated after the first n whose tail
        eta^(2(n+1)) is at most 1e-12."""
        n_top = next(n for n in itertools.count() if eta ** (2 * (n + 1)) <= 1e-12)
        weights = (1.0 - eta * eta) * eta ** (2.0 * np.arange(n_top + 1))
        entropy = float(-(weights * np.log2(weights)).sum())
        assert tmss_entanglement(eta) == pytest.approx(entropy, abs=1e-8)

    @pytest.mark.parametrize("eta", [-0.2, 1.0, 2.0])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError):
            tmss_entanglement(eta)

    @pytest.mark.parametrize("eta", [5e-324, 1e-300, 1e-162, 1e-160])
    def test_tiny_eta_is_finite(self, eta):
        """Below about 1e-162 sinh^2 r underflows to 0, and 0 log2 0 is 0."""
        value = tmss_entanglement(eta)
        assert math.isfinite(value) and value >= 0.0


class TestEntropyOfEntanglement:
    def test_product_state(self):
        assert entropy_of_entanglement(encode_pair(0.5, 1.0, 0, 7)) == 0.0

    def test_uniform_two_term_state(self):
        state = EncodedPairState(1, 1, np.array([1.0, 1.0j]) / math.sqrt(2.0), 0.0)
        assert entropy_of_entanglement(state) == pytest.approx(1.0, abs=1e-12)

    def test_unit_outcomes_half_eta(self):
        # entropy of Schmidt weights (0.8, 0.2)
        value = entropy_of_entanglement(encode_pair(0.5, 1.0, 1, 1))
        assert value == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_rejects_unnormalized_state(self):
        bad = EncodedPairState(1, 1, np.array([1.0, 1.0]), 0.0)
        with pytest.raises(ValueError):
            entropy_of_entanglement(bad)

    def test_exchange_symmetry(self):
        a = entropy_of_entanglement(encode_pair(0.4, 1.3, 5, 9))
        b = entropy_of_entanglement(encode_pair(0.4, 1.3, 9, 5))
        assert a == pytest.approx(b, abs=1e-13)


class TestAverageEntanglement:
    def test_no_squeezing_means_nothing_to_lose(self):
        report = average_entanglement(0.0, 2.0)
        assert report.E_exact == 0.0
        assert report.E_avg == 0.0
        assert report.fraction_lost == 0.0
        assert report.residual_bound == 0.0

    def test_tiny_ancilla_reads_out_the_pair(self):
        """As beta -> 0 the measurement reveals n itself: almost every
        outcome is (n, n) with a single surviving Schmidt term."""
        report = average_entanglement(0.5, 1e-3)
        assert report.E_avg < 1e-8

    def test_underflowing_ancilla_leaves_no_entanglement(self):
        """|beta|^2 = 1e-400 underflows to 0.0: every outcome is (n, n) with
        a single Schmidt term, so E_avg is exactly 0."""
        report = average_entanglement(0.5, 1e-200)
        assert report.E_avg == 0.0
        assert report.fraction_lost == 1.0

    @pytest.mark.parametrize("eta", [1e-9, 1e-160])
    def test_rounding_cannot_lift_e_avg_above_e_exact(self, eta):
        """At a tiny eta the rounding of the per-outcome entropies, about
        6e-16 in all, exceeds E_exact (6e-17 at eta = 1e-9, subnormal at
        1e-160); E_avg is capped there, so fraction_lost stays in [0, 1]."""
        report = average_entanglement(eta, 2.0)
        assert 0.0 <= report.E_avg <= report.E_exact
        assert 0.0 <= report.fraction_lost <= 1.0

    def test_report_invariants(self):
        report, probs = _report_and_grid(0.45, 2.5, epsilon_tail=1e-10)
        assert 0.0 <= report.E_avg <= report.E_exact + 1e-9
        assert report.fraction_lost == pytest.approx(
            (report.E_exact - report.E_avg) / report.E_exact, abs=1e-15
        )
        assert float(probs.sum()) + report.residual == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= report.residual <= 1e-10
        # P h(M / P) with h(m) = log2(1 + m) + m log2(1 + 1/m), P and M the
        # outside mass and its photon-number moment: P(n, O) = w_n for n past
        # the window, else w_n P((X, Y) outside [0, k_max - n]^2) = w_n U (2 - U)
        # with the Poisson tail U = P(X > k_max - n) summed term by term
        k_max = report.window - 1
        with mp.workdps(30):
            e2, mean_b = mp.mpf(0.45) ** 2, mp.mpf(2.5) ** 2
            pois = [mp.exp(-mean_b) * mean_b**j / mp.factorial(j) for j in range(k_max + 400)]
            upper = [mp.fsum(pois[j + 1 :]) for j in range(k_max + 1)]
            outside = [
                (1 - e2) * e2**n * (upper[k_max - n] * (2 - upper[k_max - n]) if n <= k_max else 1)
                for n in range(k_max + 400)
            ]
            mass = mp.fsum(outside)
            m = mp.fsum(n * p for n, p in enumerate(outside)) / mass
            expected = float(mass * (mp.log1p(m) + m * mp.log1p(1 / m)) / mp.log(2))
        assert report.residual_bound == pytest.approx(expected, rel=1e-9, abs=0.0)
        # a window with no float-resolved residual still leaves a tail
        assert report.residual == 0.0
        assert report.residual_bound > 0.0

    @pytest.mark.parametrize("eta,beta,finer_tail", [(0.5, 12.0, 1e-14), (0.2, 8.0, 1e-13)])
    def test_residual_bound_covers_a_wider_window(self, eta, beta, finer_tail):
        """What a wider window adds to E_avg stays within the default
        window's bound, which it nearly meets."""
        default = average_entanglement(eta, beta)
        wider = average_entanglement(eta, beta, epsilon_tail=finer_tail)
        assert wider.window > default.window
        added = wider.E_avg - default.E_avg
        assert 0.0 < added <= default.residual_bound <= 1.05 * added

    @pytest.mark.parametrize("eta,beta", [(0.3, 1.0), (0.5, 1.5), (0.05, 1.0), (0.7, 0.5)])
    def test_residual_bound_is_a_bound(self, eta, beta):
        """E_avg summed at 30 digits over a window twice the report's, where
        the outcomes left out hold far less than 1e-13, lies between the
        report's E_avg and E_avg + residual_bound, and the part of that sum
        outside the report's window is at most residual_bound."""
        report = average_entanglement(eta, beta)
        inside = _mp_average_entanglement(eta, beta * beta, report.window)
        outside = _mp_average_entanglement(eta, beta * beta, 2 * report.window, start=report.window)
        truth = inside + outside
        assert report.E_avg - 1e-13 <= truth <= report.E_avg + report.residual_bound + 1e-13
        assert 0.0 < outside <= report.residual_bound

    @pytest.mark.parametrize("eta,beta", [(0.3, 3.0), (0.5, 3.0), (0.9, 12.0)])
    def test_loss_is_a_mutual_information(self, eta, beta):
        """With n geometric and X, Y iid Poisson(|beta|^2), (K, L) =
        (n + X, n + Y) and E_avg = H(n | K, L), so E_exact - E_avg =
        I(n; K, L) = H(K, L) - 2 H(Pois(|beta|^2)); at these points the
        default window leaves no residual."""
        report = average_entanglement(eta, beta)
        assert report.residual == 0.0
        probs = pair_outcome_distribution(eta, beta).support.probabilities
        probs = probs[probs > 0.0]
        h_kl = -math.fsum((probs * np.log2(probs)).tolist())
        lo, hi = (int(end) for end in _poisson_band(np.float64(beta * beta)))
        lp = log_poisson_table(beta * beta, hi)[lo:]
        h_pois = -math.fsum((np.exp(lp) * lp).tolist()) / LN2
        assert report.E_exact - report.E_avg == pytest.approx(h_kl - 2.0 * h_pois, abs=1e-12)

    @pytest.mark.parametrize("eta,beta", [(0.1, 5.0), (0.4, 9.0), (0.5, 8.0)])
    def test_reference_rows_match_a_34_digit_truth(self, eta, beta):
        """Three rows of the default sweep against the identity summed at 34
        digits: E_avg lies below the truth by at most residual_bound, up to
        r = 3e-13 of rounding (ROADMAP Finding 2: the three terms of
        log_poisson_table cancel).  The truths sit 1.027e-12, 5.37e-13 and
        1.913e-12 above E_avg, against residual_bounds of 1.031e-12,
        5.82e-13 and 1.880e-12; at (0.5, 8) the bound alone falls 3.3e-14
        short."""
        report = average_entanglement(eta, beta)
        truth = float(_mp_identity_entanglement(eta, beta))
        r = 3e-13
        assert truth - report.residual_bound - r <= report.E_avg <= truth + r

    def test_identity_truth_matches_the_direct_sum(self):
        """The identity and the 30-digit sum over every outcome's Schmidt
        entropy agree, on a window twice the report's."""
        window = average_entanglement(0.3, 1.0).window
        direct = _mp_average_entanglement(0.3, 1.0, 2 * window)
        assert float(_mp_identity_entanglement(0.3, 1.0)) == pytest.approx(direct, abs=1e-15)

    def test_entropies_respect_schmidt_rank_bound(self):
        """Each outcome's entropy is at most log2 of its Schmidt rank
        min(K, L) + 1, over the whole window."""
        eta, beta = 0.5, 1.5
        report = average_entanglement(eta, beta)
        for k, l in itertools.product(range(report.window), repeat=2):
            ebits = entropy_of_entanglement(encode_pair(eta, beta, k, l))
            assert 0.0 <= ebits <= math.log2(min(k, l) + 1.0) + 1e-12

    def test_contributions_match_per_outcome_recomputation(self):
        """E_avg is the P-weighted sum of the encode/entropy composition over
        the window; the report is built from the distribution's table, and
        its residual is 1 - sum P over that table."""
        for eta, beta in [(0.4, 2.0), (0.5, 1.5), (0.3, 3.0)]:
            report, grid = _report_and_grid(eta, beta, DEFAULT_EPSILON_TAIL)
            probs = pair_outcome_distribution(eta, beta).support.probabilities
            assert np.array_equal(grid, probs)
            assert report.residual == max(0.0, 1.0 - float(probs.sum()))
            direct = math.fsum(
                probs[k, l] * entropy_of_entanglement(encode_pair(eta, beta, k, l))
                for k, l in zip(*np.nonzero(probs))
            )
            assert report.E_avg == pytest.approx(direct, abs=1e-12)

    def test_is_deterministic(self):
        a, a_grid = _report_and_grid(0.3, 3.0, DEFAULT_EPSILON_TAIL)
        b, b_grid = _report_and_grid(0.3, 3.0, DEFAULT_EPSILON_TAIL)
        assert a.E_avg == b.E_avg
        assert a.residual == b.residual
        np.testing.assert_array_equal(a_grid, b_grid)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            average_entanglement(1.0, 2.0)
        with pytest.raises(ValueError):
            average_entanglement(0.5, 0.0)
        with pytest.raises(ValueError):
            average_entanglement(0.5, 2.0, epsilon_tail=0.0)

    @pytest.mark.parametrize("eta,beta", [(0.5, 14.0), (0.9, 12.0)])
    def test_memory_is_what_it_budgets(self, eta, beta):
        """At windows of 310 and 345 the peak is at least the 2 window arrays
        the report is built from (A and B) and at most those plus the 2
        blocks the grid budget counts (the grid's two block buffers, then the
        two row chunks of the entropy reduction), numpy's broadcasting
        buffers (np.getbufsize() cells per operand) and O(window) vectors."""
        size = average_entanglement(eta, beta).window  # grow the log-factorial cache
        tracemalloc.start()
        try:
            average_entanglement(eta, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        windows = 2 * 8 * size * size
        budgeted = windows + 2 * 8 * encoding._block_cells(size)
        assert windows <= peak <= budgeted + 4 * 8 * np.getbufsize() + 64 * 8 * size


def _mp_average_entanglement(eta, mean_b, window, start=0):
    """sum (P log2 P - sum_n t_n log2 t_n) over K, L < window with
    max(K, L) >= start, at 30 digits, with t_n(K, L) = (1 - eta^2) eta^(2n)
    Pois(K - n) Pois(L - n) and P = sum_n t_n, summed over L <= K and
    doubled off the diagonal."""
    with mp.workdps(30):
        eta, mean_b = mp.mpf(eta), mp.mpf(mean_b)
        log_w = [mp.log1p(-eta * eta) + 2 * n * mp.log(eta) for n in range(window)]
        log_p = [-mean_b + j * mp.log(mean_b) - mp.loggamma(j + 1) for j in range(window)]
        total = []
        for k in range(start, window):
            for l in range(k + 1):
                logs = [log_w[n] + log_p[k - n] + log_p[l - n] for n in range(l + 1)]
                terms = [mp.exp(x) for x in logs]
                prob = mp.fsum(terms)
                weighted = prob * mp.log(prob) - mp.fsum(t * x for t, x in zip(terms, logs))
                total.append(weighted if k == l else 2 * weighted)
        return float(mp.fsum(total) / mp.log(2))


def _mp_identity_entanglement(eta, beta):
    """E_avg = E_exact - [H(K, L) - 2 H(Pois(|beta|^2))] at 34 digits, for
    0 < eta < 1.  P(K, L) comes from the filter y_K = eta^2 y_(K-1) +
    (1 - eta^2) p(K) p(K - D) along each diagonal D = K - L >= 0, p the
    Poisson(|beta|^2) pmf, on a window [0, top]^2 that leaves out under
    1e-40 of the mass."""
    with mp.workdps(34):
        eta2, mean_b = mp.mpf(eta) ** 2, mp.mpf(beta) ** 2
        # K = n + X > a + b needs n > a, of mass eta^(2(a + 1)), or X > b, of
        # mass at most e^-mu (e mu / b)^b for b > mu (Chernoff); with both
        # below 1e-42, K or L > top holds under 4e-42
        log_cut = -42 * mp.log(10)
        a = int(mp.ceil(log_cut / mp.log(eta2)))
        b = int(mp.floor(mean_b)) + 1
        while -mean_b + b * (1 + mp.log(mean_b / b)) > log_cut:
            b += 1
        top = a + b
        p = [mp.exp(-mean_b)]
        for k in range(1, top + 1):
            p.append(p[-1] * mean_b / k)
        h_pois = -mp.fsum(q * mp.log(q) for q in p)
        p_log_p = []
        for d in range(top + 1):
            y = mp.mpf(0)
            for k in range(d, top + 1):
                y = eta2 * y + (1 - eta2) * p[k] * p[k - d]
                p_log_p.append(y * mp.log(y) if d == 0 else 2 * y * mp.log(y))
        h_kl = -mp.fsum(p_log_p)
        e_exact = -mp.log(1 - eta2) - eta2 * mp.log(eta2) / (1 - eta2)
        return (e_exact - h_kl + 2 * h_pois) / mp.log(2)


class TestReportSupport:
    """The pair table of a report's operating point, which
    pair_outcome_distribution returns, is a read-only Mapping."""

    @pytest.fixture()
    def table(self):
        return pair_outcome_distribution(0.3, 1.0).support

    def test_mapping_protocol(self, table):
        size = table.probabilities.shape[0]
        assert len(table) == size * size
        keys = list(table)
        assert keys[0] == (0, 0)
        assert keys[1] == (0, 1)
        assert keys[-1] == (size - 1, size - 1)
        assert table[(0, 0)] == float(table.probabilities[0, 0])
        with pytest.raises(KeyError):
            table[(size, 0)]


class TestEntanglementSweep:
    def test_ordering_is_eta_major(self):
        reports = entanglement_sweep([0.1, 0.2], [1.0, 2.0, 3.0])
        grid = [(r.eta, r.beta_abs) for r in reports]
        assert grid == [(0.1, 1.0), (0.1, 2.0), (0.1, 3.0), (0.2, 1.0), (0.2, 2.0), (0.2, 3.0)]

    def test_zero_eta_rows(self):
        for report in entanglement_sweep([0.0], [1.0, 4.0]):
            assert report.E_exact == 0.0
            assert report.fraction_lost == 0.0

    def test_average_recovers_with_growing_beta(self):
        reports = entanglement_sweep([0.4], [1.0, 2.0, 3.0, 4.0])
        e_values = [r.E_avg for r in reports]
        assert all(b >= a for a, b in zip(e_values, e_values[1:]))
        assert all(r.E_avg <= r.E_exact + r.residual_bound + 1e-9 for r in reports)

    def test_workers_do_not_change_results(self):
        serial = entanglement_sweep([0.2, 0.5], [1.0, 2.0])
        threaded = entanglement_sweep([0.2, 0.5], [1.0, 2.0], max_workers=4)
        for a, b in zip(serial, threaded):
            assert (a.eta, a.beta_abs, a.E_avg, a.E_exact, a.residual) == (
                b.eta,
                b.beta_abs,
                b.E_avg,
                b.E_exact,
                b.residual,
            )

    @pytest.mark.parametrize("workers", [0, -1, 1.5, float("nan")])
    def test_rejects_non_positive_workers(self, workers):
        """Only None or an int >= 1 is a worker count: 1.5 would run
        serially, and nan would start a pool of no threads that never
        returns."""
        with pytest.raises(ValueError, match="max_workers"):
            entanglement_sweep([0.1], [1.0], max_workers=workers)

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize(
        "etas,betas,tail,name",
        [
            ([0.5, 1.0], [1.0, 2.0, 3.0], 1e-10, "eta"),
            ([0.5], [1.0, 0.0], 1e-10, "beta"),
            ([0.5], [1.0], 0.0, "epsilon_tail"),
        ],
        ids=["eta", "beta", "tail"],
    )
    def test_checks_every_input_before_the_first_point(self, monkeypatch, workers, etas, betas, tail, name):
        """A bad eta, beta or tail anywhere in the grid fails before any
        outcome grid is built."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return encoding._pair_window_grid(*args, **kwargs)

        monkeypatch.setattr(entanglement, "_pair_window_grid", counted)
        with pytest.raises(ValueError, match=name):
            entanglement_sweep(etas, betas, tail, max_workers=workers)
        assert calls == []

    def test_reports_hold_no_tables(self):
        """The 60 reports of the default sweep keep only their numbers: well
        under 256 KiB traced, where one 242 x 242 outcome grid alone takes
        458 KiB."""
        etas, betas = parse_grid(_DEFAULT_ETAS), parse_grid(_DEFAULT_BETAS)
        entanglement_sweep(etas, betas)  # grow the log-factorial cache
        tracemalloc.start()
        try:
            reports = entanglement_sweep(etas, betas)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(reports) == 60
        assert held < 256 * 1024

    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            entanglement_sweep([], [1.0])
        with pytest.raises(ValueError):
            entanglement_sweep([0.1], [])
