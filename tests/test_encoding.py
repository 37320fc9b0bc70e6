"""Encoded-state construction and outcome statistics."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from phasefree import encoding
from phasefree.encoding import (
    DEFAULT_EPSILON_TAIL,
    _pair_window_grid,
    _window_sizes,
    coherent_approx_param,
    coherent_outcome_distribution,
    encode_coherent,
    encode_pair,
    mean_coherent_approx_fidelity,
    mean_pair_approx_fidelity,
    pair_approx_param,
    pair_outcome_distribution,
)
from phasefree.entanglement import average_entanglement
from phasefree.numerics import LOG_ZERO, log_poisson_table, log_poisson_weight
from phasefree.oracle import (
    PAIR_GROUP_K,
    PAIR_GROUP_L,
    build_joint_pair,
    project_total_number,
)


class TestEncodeCoherent:
    def test_vacuum_signal_pins_n_zero(self):
        state = encode_coherent(0.0, 1.0, 3)
        np.testing.assert_allclose(state.coeffs, [1.0, 0.0, 0.0, 0.0])

    def test_unit_alpha_beta_outcome_two(self):
        # unnormalized (1/sqrt2, 1, 1/sqrt2) from the defining formula, so
        # the normalizer is 2 and the coefficients are (1/2, 1/sqrt2, 1/2)
        state = encode_coherent(1.0, 1.0, 2)
        np.testing.assert_allclose(state.coeffs, [0.5, 1.0 / math.sqrt(2.0), 0.5], atol=1e-14)
        assert state.norm_log == pytest.approx(math.log(2.0), abs=1e-13)

    def test_outcome_zero(self):
        state = encode_coherent(1.0, 1.0, 0)
        np.testing.assert_allclose(state.coeffs, [1.0])

    @pytest.mark.parametrize("alpha,beta,M", [
        (0.7 + 0.2j, 1.1, 37),
        (1.0, 2.0 * cmath.exp(0.9j), 60),
        (0.05, 9.0, 180),
    ])
    def test_normalization_and_ratio_recurrence(self, alpha, beta, M):
        state = encode_coherent(alpha, beta, M)
        total = math.fsum((np.abs(state.coeffs) ** 2).tolist())
        assert total == pytest.approx(1.0, abs=1e-12)
        ratio = complex(alpha) / complex(beta)
        c = state.coeffs
        for n in range(M):
            if abs(c[n]) < 1e-200 or abs(c[n + 1]) < 1e-200:
                continue
            expected = ratio * math.sqrt((M - n) / (n + 1.0))
            assert c[n + 1] / c[n] == pytest.approx(expected, rel=1e-10)

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            encode_coherent(1.0, 0.0, 2)

    def test_rejects_negative_outcome(self):
        with pytest.raises(ValueError):
            encode_coherent(1.0, 1.0, -1)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, complex(0.0, math.inf)])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            encode_coherent(alpha, 1.0, 2)


class TestCoherentApproxParam:
    def test_matched_outcome_returns_alpha(self):
        assert coherent_approx_param(0.3, 4.0, 16) == pytest.approx(0.3)
        assert coherent_approx_param(1.0, 10.0, 100) == pytest.approx(1.0)

    def test_direct_formula(self):
        assert coherent_approx_param(1.0, 10.0, 81) == pytest.approx(0.9)

    def test_complex_quotient(self):
        value = coherent_approx_param(1.0j, 2.0 * cmath.exp(0.5j), 16)
        assert value == pytest.approx(2.0j / cmath.exp(0.5j), abs=1e-14)

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            coherent_approx_param(1.0, 0.0, 4)


class TestEncodePair:
    def test_zero_min_outcome_is_product_state(self):
        state = encode_pair(0.4, 1.0, 0, 5)
        np.testing.assert_allclose(state.schmidt_coeffs, [1.0])

    def test_half_eta_unit_outcomes(self):
        # unnormalized (1, 0.5): normalizer 1.25, Schmidt weights (0.8, 0.2)
        state = encode_pair(0.5, 1.0, 1, 1)
        np.testing.assert_allclose(np.abs(state.schmidt_coeffs) ** 2, [0.8, 0.2], atol=1e-14)
        assert state.norm_log == pytest.approx(math.log(1.25), abs=1e-13)

    def test_eta_zero_kills_excitations(self):
        state = encode_pair(0.0, 1.0, 3, 3)
        np.testing.assert_allclose(state.schmidt_coeffs, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("eta,beta,K,L", [
        (0.5, 1.0, 7, 11),
        (0.3, 2.0 * cmath.exp(1.1j), 40, 25),
        (0.9, 0.5, 12, 12),
    ])
    def test_normalization_and_ratio_recurrence(self, eta, beta, K, L):
        state = encode_pair(eta, beta, K, L)
        total = math.fsum((np.abs(state.schmidt_coeffs) ** 2).tolist())
        assert total == pytest.approx(1.0, abs=1e-12)
        quot = eta / complex(beta) ** 2
        c = state.schmidt_coeffs
        for n in range(min(K, L)):
            if abs(c[n]) < 1e-200 or abs(c[n + 1]) < 1e-200:
                continue
            expected = quot * math.sqrt(float((K - n) * (L - n)))
            assert c[n + 1] / c[n] == pytest.approx(expected, rel=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            encode_pair(0.5, 0.0, 1, 1)
        with pytest.raises(ValueError):
            encode_pair(1.0, 1.0, 1, 1)
        with pytest.raises(ValueError):
            encode_pair(-0.2, 1.0, 1, 1)
        with pytest.raises(ValueError):
            encode_pair(0.5, 1.0, -1, 1)


class TestPairApproxParam:
    def test_matched_outcomes_return_eta(self):
        assert pair_approx_param(0.3, 10.0, 100, 100) == pytest.approx(0.3)

    def test_direct_formula(self):
        assert pair_approx_param(0.3, 10.0, 90, 110) == pytest.approx(0.3 * math.sqrt(9900.0) / 100.0)

    def test_zero_outcome(self):
        assert pair_approx_param(0.3, 10.0, 0, 100) == 0.0

    def test_uses_beta_magnitude(self):
        assert pair_approx_param(0.4, 4.0 * cmath.exp(2.2j), 9, 16) == pytest.approx(0.4 * 12.0 / 16.0)


class TestCoherentOutcomeDistribution:
    def test_no_photons(self):
        dist = coherent_outcome_distribution(0.0, 0.0)
        assert dist.support == {0: 1.0}
        assert dist.residual == 0.0

    def test_poisson_additivity(self):
        """Convolution of Poisson(1) and Poisson(4) is Poisson(5), term by term."""
        dist = coherent_outcome_distribution(1.0, 2.0, epsilon_tail=1e-10)
        for m, p in dist.support.items():
            assert p == pytest.approx(math.exp(log_poisson_weight(5.0, m)), abs=1e-12)

    def test_single_source(self):
        dist = coherent_outcome_distribution(0.0, 1.0)
        for m, p in dist.support.items():
            assert p == pytest.approx(math.exp(-1.0) / math.factorial(m), abs=1e-13)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1e-3), (1.0, 2.0), (0.5, 12.0)])
    def test_sum_rule_and_tail_budget(self, alpha, beta):
        eps = 1e-10
        dist = coherent_outcome_distribution(alpha, beta, epsilon_tail=eps)
        assert dist.total() + dist.residual == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= dist.residual <= eps

    def test_phases_cancel(self):
        plain = coherent_outcome_distribution(1.0, 2.0)
        spun = coherent_outcome_distribution(1.0 * cmath.exp(0.4j), 2.0 * cmath.exp(-1.3j))
        assert plain.support.keys() == spun.support.keys()
        for m in plain.support:
            assert plain.support[m] == pytest.approx(spun.support[m], abs=1e-14)

    def test_rejects_bad_tail(self):
        with pytest.raises(ValueError):
            coherent_outcome_distribution(1.0, 1.0, epsilon_tail=0.0)

    def test_rows_do_not_depend_on_the_window(self):
        """A grown window leaves P(M) of the smaller one bit-identical, also
        when the band is summed in several row chunks."""
        for mean_a, mean_b in [(0.49, 49.0), (900.0, 49.0)]:
            small = encoding._coherent_outcome_vector(mean_a, mean_b, 300)
            grown = encoding._coherent_outcome_vector(mean_a, mean_b, 5000)
            assert small.tobytes() == grown[:301].tobytes()

    def test_stalled_residual_fails_within_a_few_rounds(self, monkeypatch):
        """At (0.7, 7.0) the float64 residual 1 - sum P(M) stops near 5e-15,
        so a tail of 1e-15 is unreachable: the first grown window that leaves
        the residual unchanged raises, instead of doubling up to w = 2^24."""
        tops = []
        vector = encoding._coherent_outcome_vector

        def counted(mean_a, mean_b, m_max):
            tops.append(m_max)
            return vector(mean_a, mean_b, m_max)

        monkeypatch.setattr(encoding, "_coherent_outcome_vector", counted)
        with pytest.raises(RuntimeError, match="below float64 resolution"):
            coherent_outcome_distribution(0.7, 7.0, epsilon_tail=1e-15)
        assert len(tops) <= 4


class TestPairOutcomeDistribution:
    def test_vacuum_ancilla_is_diagonal_geometric(self):
        eta = 0.6
        dist = pair_outcome_distribution(eta, 0.0, epsilon_tail=1e-10)
        for (k, l), p in dist.support.items():
            if k == l:
                assert p == pytest.approx((1 - eta * eta) * eta ** (2 * k), abs=1e-13)
            else:
                assert p == 0.0

    def test_eta_zero_factorizes(self):
        dist = pair_outcome_distribution(0.0, 1.0)
        for (k, l), p in dist.support.items():
            expected = math.exp(-2.0) / (math.factorial(k) * math.factorial(l))
            assert p == pytest.approx(expected, abs=1e-13)

    def test_exchange_symmetry_is_exact(self):
        dist = pair_outcome_distribution(0.5, 1.5)
        for (k, l), p in dist.support.items():
            assert dist.support[(l, k)] == p
        grid = dist.support.probabilities
        assert np.array_equal(grid, grid.T)

    @pytest.mark.parametrize("eta,beta", [(0.5, 1e-3), (0.3, 1.0), (0.5, 4.0)])
    def test_sum_rule_and_tail_budget(self, eta, beta):
        eps = 1e-10
        dist = pair_outcome_distribution(eta, beta, epsilon_tail=eps)
        assert dist.total() + dist.residual == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= dist.residual <= eps

    def test_phase_of_beta_cancels(self):
        plain = pair_outcome_distribution(0.4, 1.2)
        spun = pair_outcome_distribution(0.4, 1.2 * cmath.exp(2.2j))
        for key in plain.support:
            assert plain.support[key] == pytest.approx(spun.support[key], abs=1e-14)

    def test_against_dense_projection(self):
        """Joint probabilities reproduce literal projector sums on a dense
        tensor product (cutoff high enough that truncation is below 1e-11)."""
        eta, beta = 0.5, 2.0
        dist = pair_outcome_distribution(eta, beta, epsilon_tail=1e-10)
        joint = build_joint_pair(eta, beta, 0.0, cutoff=26)
        for k in range(9):
            p_k, after_k = project_total_number(joint, PAIR_GROUP_K, k)
            for l in range(9):
                if after_k is None:
                    continue
                p_l, after_l = project_total_number(after_k, PAIR_GROUP_L, l)
                assert p_k * p_l == pytest.approx(dist.support[(k, l)], abs=1e-10)

    def test_marginal_approaches_poisson_for_weak_squeezing(self):
        """At eta = 0.1 and beta = 10 the K marginal is within 1e-6 of a
        Poisson law with the combined mean (total-variation distance)."""
        eta, beta = 0.1, 10.0
        dist = pair_outcome_distribution(eta, beta, epsilon_tail=1e-10)
        k_max = max(k for k, _ in dist.support)
        marginal = np.zeros(k_max + 1)
        for (k, _), p in dist.support.items():
            marginal[k] += p
        mu = beta**2 + eta**2 / (1 - eta**2)
        poisson = np.exp([log_poisson_weight(mu, k) for k in range(k_max + 1)])
        tv = 0.5 * float(np.abs(marginal - poisson).sum())
        assert tv <= dist.residual + 1e-6


class TestOutcomeTable:
    """The support of every distribution is a read-only Mapping over one
    frozen dense array."""

    def test_pair_table_is_dense_and_read_only(self):
        dist = pair_outcome_distribution(0.4, 1.5)
        report = average_entanglement(0.4, 1.5)
        assert dist.support.probabilities.shape == (report.window_K, report.window_L)
        assert len(dist.support) == report.window_K * report.window_L
        with pytest.raises(ValueError):
            dist.support.probabilities[0, 0] = 1.0

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (1,), (1, 1, 1), 1, "ab", (0.5, 0), "window"])
    def test_pair_keys_outside_the_window_raise(self, key):
        support = pair_outcome_distribution(0.3, 1.0).support
        if key == "window":
            key = (support.probabilities.shape[0], 0)
        with pytest.raises(KeyError):
            support[key]
        assert key not in support
        assert support.get(key) is None

    @pytest.mark.parametrize("key", [-1, (0,), (0, 0), 0.5, "window"])
    def test_coherent_keys_outside_the_window_raise(self, key):
        support = coherent_outcome_distribution(1.0, 2.0).support
        if key == "window":
            key = support.probabilities.size
        with pytest.raises(KeyError):
            support[key]
        assert key not in support
        assert support.get(key) is None


@pytest.mark.parametrize("beta", [math.inf, math.nan, complex(1.0, math.inf), 1e200])
@pytest.mark.parametrize(
    "call",
    [
        lambda beta: encode_coherent(1.0, beta, 2),
        lambda beta: encode_pair(0.5, beta, 1, 1),
        lambda beta: coherent_outcome_distribution(1.0, beta),
        lambda beta: pair_outcome_distribution(0.5, beta),
        lambda beta: mean_pair_approx_fidelity(0.5, beta),
    ],
    ids=["encode_coherent", "encode_pair", "coherent_outcome_distribution", "pair_outcome_distribution", "mean_pair_approx_fidelity"],
)
def test_rejects_unrepresentable_beta(call, beta):
    """A non-finite beta, or one whose |beta|^2 overflows, is rejected
    before any window is sized."""
    with pytest.raises(ValueError, match="beta"):
        call(beta)


def _full_grid_reference(eta, mean_b, epsilon_tail=DEFAULT_EPSILON_TAIL):
    """The outcome-grid loop over full (k_max+1)^2 slices with the same
    window growth and summation order as the library kernel."""
    mu, w = mean_b + eta * eta / (1.0 - eta * eta), 8.0
    while True:
        k_max = int(math.ceil(mu + w * math.sqrt(mu))) if mu > 0 else 0
        lp = log_poisson_table(mean_b, k_max)
        a_grid, b_grid = np.zeros((k_max + 1, k_max + 1)), np.zeros((k_max + 1, k_max + 1))
        for n in range(k_max + 1 if eta > 0.0 else 1):
            lw = math.log1p(-eta * eta) + 2.0 * n * math.log(eta) if n > 0 else math.log1p(-eta * eta)
            if lw + 2.0 * float(lp.max()) < -760.0:
                break
            shifted = np.full(k_max + 1, LOG_ZERO)
            shifted[n:] = 0.5 * lw + lp[: k_max + 1 - n]
            log_term = shifted[:, None] + shifted[None, :]
            term = np.exp(log_term)
            a_grid += term
            b_grid += term * np.where(term > 0.0, log_term, 0.0)
        residual = max(0.0, 1.0 - float(a_grid.sum()))
        if residual <= epsilon_tail:
            return a_grid, b_grid, residual, k_max
        w *= 2.0


class TestWindowSizes:
    def test_tops_double_the_width_up_to_the_growth_limit(self):
        """k_max = ceil(mu + w sqrt(mu)) for w = 8, 16, ..., 2^24: the policy
        that both outcome distributions share."""
        mu = 4.25
        assert list(_window_sizes(mu)) == [math.ceil(mu + 8.0 * 2**r * math.sqrt(mu)) for r in range(22)]
        assert list(_window_sizes(0.0)) == [0] * 22

    def test_both_distributions_fail_past_the_growth_limit(self, monkeypatch):
        monkeypatch.setattr(encoding, "_MAX_WINDOW_GROWTH", 16.0)
        with pytest.raises(RuntimeError, match=r"failed to reach tail 1e-300 \(eta=0\.5, mean=4\.0\)"):
            pair_outcome_distribution(0.5, 2.0, epsilon_tail=1e-300)
        with pytest.raises(RuntimeError, match=r"failed to reach tail 1e-300 \(mean=4\.25\)"):
            coherent_outcome_distribution(0.5, 2.0, epsilon_tail=1e-300)


class TestOutcomeGridKernel:
    @pytest.mark.parametrize(
        "eta,beta",
        [(0.3, 3.0), (0.5, 1e-200), (0.0, 2.0), (0.5, 12.0), (0.93, 9.25), (0.8, 0.05)],
        ids=["one-doubling-round", "mean-b-zero", "eta-zero", "large-beta", "strong-squeezing", "floor-cut"],
    )
    def test_bit_identical_to_full_grid_loop(self, eta, beta):
        """Skipping the cells whose summands are exactly zero changes no bit.
        At (0.8, 0.05) the window has grown far past the Poisson peak, so
        cells whose summands lie just above the floor are in play."""
        ref_a, ref_b, ref_residual, ref_k_max = _full_grid_reference(eta, beta * beta)
        a_grid, b_grid, residual, k_max = _pair_window_grid(eta, beta * beta, DEFAULT_EPSILON_TAIL, True)
        assert (k_max, residual) == (ref_k_max, ref_residual)
        assert a_grid.tobytes() == ref_a.tobytes()
        assert b_grid.tobytes() == ref_b.tobytes()
        a_only, b_none, _, _ = _pair_window_grid(eta, beta * beta, DEFAULT_EPSILON_TAIL, False)
        assert b_none is None and a_only.tobytes() == ref_a.tobytes()


class TestApproxFidelities:
    @pytest.mark.parametrize("eta,beta", [(0.95, 0.3), (0.9, 1.0), (0.95, 8.0), (0.5, 1e-200), (0.5, 1e-100)])
    def test_pair_fidelity_is_warning_free_at_strong_squeezing(self, eta, beta):
        """Outcomes with eta' >= 1 must not overflow eta'^n (or eta'^2 at a
        tiny nonzero |beta|) on the way to being counted as fidelity zero,
        and an underflowing |beta|^2 must not make eta' = 0/0 at K L = 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fid = mean_pair_approx_fidelity(eta, beta)
        assert 0.0 <= fid <= 1.0

    def test_pair_fidelity_at_underflowing_beta(self):
        """|beta|^2 = 1e-400 underflows to 0.0; only the (0, 0) outcome,
        of probability 1 - eta^2, keeps an approximant (eta' = 0)."""
        value = mean_pair_approx_fidelity(0.5, 1e-200)
        assert value == pytest.approx(0.75, abs=1e-12)
        assert value == pytest.approx(mean_pair_approx_fidelity(0.5, 1e-3), abs=1e-12)

    @pytest.mark.parametrize("fidelity", [mean_pair_approx_fidelity, mean_coherent_approx_fidelity])
    def test_exact_approximant_gives_fidelity_at_most_one(self, fidelity):
        """At eta = 0 (alpha = 0) the approximant is exact, and float noise
        must not lift the result above 1."""
        value = fidelity(0.0, 3.0)
        assert type(value) is float
        assert 1.0 - 1e-12 <= value <= 1.0

    def test_coherent_fidelity_near_one_at_large_beta(self):
        assert mean_coherent_approx_fidelity(0.5, 8.0) > 0.999

    def test_pair_fidelity_near_one_at_large_beta(self):
        assert mean_pair_approx_fidelity(0.25, 8.0) > 0.999

    def test_pair_fidelity_ignores_beta_phase(self):
        plain = mean_pair_approx_fidelity(0.5, 3.0)
        spun = mean_pair_approx_fidelity(0.5, 3.0 * cmath.exp(1.7j))
        assert spun == pytest.approx(plain, abs=1e-10)

    def test_coherent_fidelity_matches_per_outcome_recomputation(self):
        """The banded pass against the overlap of each encode_coherent state
        with its coherent approximant, for real and complex alpha and beta,
        a tiny and a large |beta|."""
        cases = [
            (0.8, 3.0),
            (0.8 - 0.5j, 3.0),
            (0.8, 3.0 * cmath.exp(2.2j)),
            (0.6 + 0.3j, 2.0 - 1.0j),
            (0.8, 1e-3),
            (0.8, 15.0),
        ]
        for alpha, beta in cases:
            expected = _coherent_fidelity_reference(alpha, beta)
            assert mean_coherent_approx_fidelity(alpha, beta) == pytest.approx(expected, abs=1e-12), (alpha, beta)

    @pytest.mark.parametrize("eta,beta", [(0.3, 3.0), (0.5, 1.0), (0.9, 2.0), (0.93, 9.25)])
    def test_pair_fidelity_matches_per_outcome_recomputation(self, eta, beta):
        expected = _pair_fidelity_reference(eta, beta)
        assert mean_pair_approx_fidelity(eta, beta) == pytest.approx(expected, abs=1e-12)

    def test_coherent_fidelity_memory_stays_banded(self):
        """At |beta| = 100 the window holds about 10 800 outcomes; a dense
        (M, n) array would take about 0.9 GB."""
        tracemalloc.start()
        try:
            mean_coherent_approx_fidelity(3.0, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _coherent_fidelity_reference(alpha, beta):
    """mean_coherent_approx_fidelity outcome by outcome: the overlap of each
    encode_coherent state with the coherent state alpha sqrt(M)/beta."""
    weighted = 0.0
    for m, p in coherent_outcome_distribution(alpha, beta).support.items():
        if p == 0.0:
            continue
        state = encode_coherent(alpha, beta, m)
        ap = coherent_approx_param(alpha, beta, m)
        n = np.arange(m + 1)
        if ap == 0:
            approx = np.zeros(m + 1, dtype=complex)
            approx[0] = 1.0
        else:
            approx = np.exp(
                -0.5 * abs(ap) ** 2
                + n * np.log(abs(ap))
                - 0.5 * np.array([math.lgamma(i + 1) for i in range(m + 1)])
            ) * np.exp(1j * cmath.phase(ap) * n)
        weighted += p * abs(np.vdot(approx, state.coeffs)) ** 2
    return weighted


def _pair_fidelity_reference(eta, beta):
    """mean_pair_approx_fidelity outcome by outcome: the overlap of each
    encode_pair Schmidt vector with sqrt(1 - eta'^2) eta'^n, the squeezed
    state it approaches; outcomes with eta' >= 1 count as zero."""
    weighted = 0.0
    for (k, l), p in np.ndenumerate(pair_outcome_distribution(eta, beta).support.probabilities):
        eta_prime = pair_approx_param(eta, beta, k, l)
        if p == 0.0 or eta_prime >= 1.0:
            continue
        coeffs = np.abs(encode_pair(eta, beta, k, l).schmidt_coeffs)
        approx = math.sqrt(1.0 - eta_prime**2) * eta_prime ** np.arange(coeffs.size)
        weighted += p * float(coeffs @ approx) ** 2
    return weighted
