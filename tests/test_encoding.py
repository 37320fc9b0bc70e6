"""Encoded-state construction and outcome statistics."""

import cmath
import itertools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from phasefree import encoding, numerics
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
from phasefree.oracle import build_joint_pair, pair_outcomes


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

    def test_tiny_beta_puts_every_photon_in_the_signal(self):
        """At |beta| = 1e-320 the quotient alpha/beta overflows; its log
        does not, and the state is |M; M> up to a subnormal."""
        state = encode_coherent(1.0, 1e-320, 2)
        assert np.all(np.isfinite(state.coeffs))
        np.testing.assert_allclose(state.coeffs, [0.0, 0.0, 1.0], atol=1e-300)


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

    def test_rejects_a_nan_alpha(self):
        """As encode_coherent does; this once returned (nan+nanj)."""
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_approx_param(math.nan, 1.0, 4)

    def test_rejects_an_outcome_past_the_float_range(self):
        """sqrt(10^400) once raised OverflowError."""
        with pytest.raises(ValueError, match=r"^M must be at most .*, the largest float$"):
            coherent_approx_param(1, 1, 10**400)


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

    def test_underflowing_beta_squared(self):
        """|beta|^2 = 1e-400 underflows: eta' is inf where K L > 0 and 0
        where K L = 0, with no division by zero."""
        assert pair_approx_param(0.5, 1e-200, 1, 1) == math.inf
        assert pair_approx_param(0.5, 1e-200, 0, 3) == 0.0

    def test_zero_outcome(self):
        assert pair_approx_param(0.3, 10.0, 0, 100) == 0.0

    def test_uses_beta_magnitude(self):
        assert pair_approx_param(0.4, 4.0 * cmath.exp(2.2j), 9, 16) == pytest.approx(0.4 * 12.0 / 16.0)

    def test_rejects_an_outcome_past_the_float_range(self):
        """float(10^400) once raised OverflowError."""
        with pytest.raises(ValueError, match=r"^K must be at most .*, the largest float$"):
            pair_approx_param(0.5, 1, 10**400, 1)


@pytest.mark.parametrize("build,args", [(encode_coherent, (0.5, 1.0, 3)), (encode_pair, (0.5, 1, 2, 2))], ids=["coherent", "pair"])
def test_states_compare_by_identity(build, args):
    """Two states built alike compare unequal without raising on their
    arrays; a state equals itself and can be hashed into a set."""
    state, twin = build(*args), build(*args)
    assert state != twin and state not in [twin]
    assert state == state and state in [twin, state]
    assert len({state, twin, state}) == 2


@pytest.mark.parametrize(
    "build,args", [(coherent_outcome_distribution, (1.0, 2.0)), (pair_outcome_distribution, (0.5, 2))], ids=["coherent", "pair"]
)
def test_distributions_compare_by_identity(build, args, monkeypatch):
    """Two distributions built alike compare unequal without walking their
    tables, which a Mapping comparison would do cell by cell; a
    distribution equals itself and can be hashed into a set."""
    dist, twin = build(*args), build(*args)

    def no_iteration(self):
        raise AssertionError("the comparison iterated an outcome table")

    monkeypatch.setattr(encoding.OutcomeTable, "__iter__", no_iteration)
    assert dist != twin and dist not in [twin]
    assert dist == dist and dist in [twin, dist]
    assert len({dist, twin, dist}) == 2


class TestCoherentOutcomeDistribution:
    def test_no_photons(self):
        dist = coherent_outcome_distribution(0.0, 0.0)
        assert dist.support == {0: 1.0}
        assert dist.residual == 0.0

    def test_poisson_additivity(self):
        """P(M) at |alpha|^2 = 1, |beta|^2 = 4 is the defining convolution of
        Poisson(1) and Poisson(4), summed here term by term."""
        dist = coherent_outcome_distribution(1.0, 2.0, epsilon_tail=1e-10)
        for m, p in dist.support.items():
            assert p == pytest.approx(_poisson_convolution(1.0, 4.0, m), abs=1e-12)

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
        """A smaller tail grows the window and leaves P(M) of the smaller
        one bit-identical."""
        for alpha, beta in [(0.7, 7.0), (30.0, 7.0)]:
            small = coherent_outcome_distribution(alpha, beta, 1e-4).support.probabilities
            grown = coherent_outcome_distribution(alpha, beta, 1e-20).support.probabilities
            assert grown.size > small.size
            assert small.tobytes() == grown[: small.size].tobytes()

    def test_reaches_a_tail_below_float64_resolution(self):
        """At (0.7, 7.0) the float64 value 1 - sum P(M) stops near 5e-15; the
        residual is the Poisson tail past the window, summed directly, so a
        tail of 1e-15 is met on the first top that holds it, 163."""
        dist = coherent_outcome_distribution(0.7, 7.0, 1e-15)
        assert dist.support.probabilities.size == 164
        mu = abs(0.7) ** 2 + abs(7.0) ** 2
        with mp.workdps(30):
            mean = mp.mpf(mu)
            tail = mp.fsum(mp.exp(-mean) * mean**k / mp.factorial(k) for k in range(164, 400))
        assert 0.0 < dist.residual <= 1e-15
        assert dist.residual == pytest.approx(float(tail), rel=1e-10, abs=0.0)

    def test_large_means_fit(self):
        """At alpha = beta = 300 (mean 1.8e5) the table of 183 396 outcomes
        is built within the budget, and with its residual it sums to 1 up to
        the rounding of log_poisson_table, 3.4e-11 there."""
        dist = coherent_outcome_distribution(300.0, 300.0)
        assert dist.total() + dist.residual == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("call", [coherent_outcome_distribution, mean_coherent_approx_fidelity])
    def test_rejects_an_overflowing_total_mean(self, call):
        """Each |.|^2 is finite, but their sum overflows to inf."""
        with pytest.raises(ValueError, match=r"\|alpha\|\^2 \+ \|beta\|\^2 must be finite, got inf"):
            call(1e154, 1e154)


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
        compared = []
        for k, l, prob, _ in pair_outcomes(build_joint_pair(eta, beta, 0.0, cutoff=26), 8):
            assert prob == pytest.approx(dist.support[(k, l)], abs=1e-10)
            compared.append((k, l))
        assert compared == list(itertools.product(range(9), repeat=2))

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
        assert dist.support.probabilities.shape == (report.window, report.window)
        assert len(dist.support) == report.window * report.window
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
    def test_tops_double_the_width_without_a_limit(self):
        """k_max = ceil(mu + w sqrt(mu)) for w = 8, 16, 32, ...: the policy
        that every outcome table shares; each top is new, and at mu = 0 the
        only top is 0."""
        mu = 4.25
        tops = list(itertools.islice(_window_sizes(mu), 22))
        assert tops == [math.ceil(mu + 8.0 * 2**r * math.sqrt(mu)) for r in range(22)]
        assert all(a < b for a, b in zip(tops, tops[1:]))
        assert list(_window_sizes(0.0)) == [0]

    def test_a_tiny_mean_reaches_its_tail(self):
        """At |beta| = 1e-15 the tops ceil(mu + w sqrt(mu)) stay at 1 until
        w passes 1e15; the walk goes on until the mass outside a 4-row
        window, about mu^4 / 24 = 4.2e-122, meets a tail of 1e-100."""
        coherent = coherent_outcome_distribution(0.0, 1e-15, epsilon_tail=1e-100)
        assert coherent.support.probabilities.shape == (4,)
        assert coherent.residual == pytest.approx(1e-120 / 24, rel=1e-12)
        pair = pair_outcome_distribution(0.0, 1e-15, epsilon_tail=1e-100)
        assert pair.support.probabilities.shape == (4, 4)
        report = average_entanglement(0.0, 1e-15, epsilon_tail=1e-100)
        assert report.window == 4 and report.E_avg == 0.0
        assert mean_pair_approx_fidelity(0.0, 1e-15, epsilon_tail=1e-100) == 1.0
        assert mean_coherent_approx_fidelity(0.0, 1e-15, epsilon_tail=1e-100) == 1.0


def _mp_pair_probability(eta, mean_b, k, l):
    """P(K, L) = sum_n (1 - eta^2) eta^(2n) Pois(K - n) Pois(L - n) at the
    working precision."""
    e2, mean_b = mp.mpf(eta) ** 2, mp.mpf(mean_b)

    def pois(j):
        return mp.exp(-mean_b) * mean_b**j / mp.factorial(j)

    return mp.fsum((1 - e2) * e2**n * pois(k - n) * pois(l - n) for n in range(min(k, l) + 1))


def _outside(eta, mean_b, k_max):
    """_outside_law of the window [0, k_max]^2: (mass, residual_bound)."""
    return encoding._outside_law(eta, mean_b, log_poisson_table(mean_b, k_max))


class TestOutsideMass:
    def test_matches_an_mpmath_sum(self):
        """The mass outside [0, 20]^2 at (0.5, |beta|^2 = 4), about 7e-8,
        against 1 - sum P(K, L) over the window at 30 digits."""
        eta, mean_b, k_max = 0.5, 4.0, 20
        with mp.workdps(30):
            inside = mp.fsum(_mp_pair_probability(eta, mean_b, k, l) for k in range(k_max + 1) for l in range(k_max + 1))
            expected = float(1 - inside)
        assert _outside(eta, mean_b, k_max)[0] == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("eta,mean_b,k_max", [(0.5, 4.0, 21), (0.9, 1.0, 24), (0.2, 64.0, 129), (0.0, 9.0, 33)])
    def test_is_at_least_the_marginal_tail(self, eta, mean_b, k_max):
        """An outcome outside the window has K > k_max or L > k_max, so the
        joint mass is at least the marginal tail sum_{K > k_max} P_K(K) (1 -
        sum over K <= k_max at 30 digits)."""
        with mp.workdps(30):
            e2 = mp.mpf(eta) ** 2
            pois = [mp.exp(-mean_b) * mp.mpf(mean_b) ** j / mp.factorial(j) for j in range(k_max + 1)]
            inside = mp.fsum((1 - e2) * e2**n * pois[k - n] for k in range(k_max + 1) for n in range(k + 1))
            marginal = float(1 - inside)
        mass = _outside(eta, mean_b, k_max)[0]
        assert marginal <= mass * (1.0 + 1e-12)

    @pytest.mark.parametrize("eta,beta", [(0.5, 0.7), (0.8, 0.5), (0.3, 0.5), (0.9, 1.0), (0.5, 2.0), (0.6, 1.2)])
    def test_agrees_with_the_grid_residual(self, eta, beta):
        """On a first window round whose outside mass (1e-8 to 1e-2) is far
        above the float64 noise of 1 - sum P, both give the same mass."""
        a_grid, _, (mass, _), k_max = _pair_window_grid(eta, beta * beta, 0.5, False)
        assert mass == _outside(eta, beta * beta, k_max)[0] > 1e-8
        assert mass == pytest.approx(1.0 - float(a_grid.sum()), rel=0.0, abs=1e-13)


class TestOutsideEntropyBound:
    @pytest.mark.parametrize("eta,mean_b,k_max", [(0.0, 9.0, 33), (0.0, 0.0, 0)])
    def test_is_zero_without_squeezing(self, eta, mean_b, k_max):
        """At eta = 0 the outside mass P lies at n = 0, so M = 0 (and at
        |beta|^2 = 0 also P = 0): the bound is exactly 0, with no 0/0."""
        assert _outside(eta, mean_b, k_max)[1] == 0.0

    def test_stays_finite_when_the_outside_mean_is_subnormal(self):
        """At eta = 1e-155 the outside photon-number mean M / P, about
        5e-310, is subnormal, so 1 / (M / P) would overflow to inf."""
        bound = _outside(1e-155, 4.0, 21)[1]
        assert 0.0 < bound < 1e-300


class TestWindowRule:
    """Each outcome table is built only on a window top whose directly
    summed outside mass is within the tail."""

    def test_pair_grid_is_built_once(self, monkeypatch):
        """At (0.9081, 7.006) the tops 113 and 172 leave more than 1e-10
        outside the window, so only the grid of top 289 is allocated."""
        counting = _GridCountingNumpy()
        monkeypatch.setattr(encoding, "np", counting)
        k_max = _pair_window_grid(0.9081, 7.006**2, 1e-10, True)[3]
        assert k_max == 289
        assert counting.grids == [(290, 290)]

    def test_coherent_table_is_built_once(self, monkeypatch):
        """At alpha = 0, |beta| = 0.3 the tops 3 and 5 leave more than 1e-10
        outside the window; only the Poisson table of top 10 is built."""
        built = []
        original = encoding.log_poisson_table

        def counted(mean, k_max):
            built.append(k_max)
            return original(mean, k_max)

        monkeypatch.setattr(encoding, "log_poisson_table", counted)
        dist = coherent_outcome_distribution(0, 0.3)
        assert built == [10] and dist.support.probabilities.size == 11

    def test_a_near_tie_takes_the_first_admitted_top(self):
        """At (0, |beta| = 1e-3) and a tail of 1e-12 the mass outside top 1,
        9.999993e-13, meets the tail, while the float64 1 - sum P, 1.00009e-12,
        does not: the table is the 2 x 2 window of top 1, with that mass as
        its residual."""
        dist = pair_outcome_distribution(0.0, 1e-3, 1e-12)
        assert dist.support.probabilities.shape == (2, 2)
        assert dist.residual == _outside(0.0, 1e-3**2, 1)[0]
        assert dist.residual == pytest.approx(9.999993e-13, rel=1e-7, abs=0.0)
        assert 1.0 - float(dist.support.probabilities.sum()) > 1e-12

    @pytest.mark.parametrize("eta,beta,epsilon_tail", [(0.2, 8.0, 1e-14), (0.5, 2.0, 1e-17), (0.0, 1e-3, 1e-12)])
    def test_each_pair_table_is_built_once(self, monkeypatch, eta, beta, epsilon_tail):
        """Tails at or below what the float64 1 - sum P resolves: the table,
        the report and the fidelity each size one window, the same one, and
        the table and the report allocate a single A grid on it; the
        table's residual is the directly summed mass, within the tail."""
        windows, factors = [], []

        def sized(*args, original=encoding._pair_window):
            windows.append(original(*args))
            return windows[-1]

        def factored(eta, mean_b, lp, original=encoding._pair_factor):
            factors.append(lp.size - 1)
            return original(eta, mean_b, lp)

        monkeypatch.setattr(encoding, "_pair_window", sized)
        monkeypatch.setattr(encoding, "_pair_factor", factored)
        counting = _GridCountingNumpy()
        monkeypatch.setattr(encoding, "np", counting)
        dist = pair_outcome_distribution(eta, beta, epsilon_tail)
        report = average_entanglement(eta, beta, epsilon_tail)
        size = report.window
        assert counting.grids == [(size, size)] * 2
        monkeypatch.setattr(encoding, "np", np)
        mean_pair_approx_fidelity(eta, beta, epsilon_tail)
        lp, law = windows[0]
        k_max, mass = lp.size - 1, law[0]
        window = (lp.tobytes(), law)
        assert [(l.tobytes(), w) for l, w in windows] == [window] * 3 and factors == [k_max]
        assert dist.support.probabilities.shape == (size, size) and size == k_max + 1
        assert dist.residual == mass <= epsilon_tail

    @pytest.mark.parametrize(
        "call",
        [average_entanglement, pair_outcome_distribution, mean_pair_approx_fidelity],
        ids=["report", "pair-table", "pair-fidelity"],
    )
    def test_pair_poisson_table_is_built_once(self, monkeypatch, call):
        """At (0.5, 12) the first top, 241, meets the tail: the window's
        Poisson table is built once and serves the outside weights, the
        grid (or the fidelity's factor) and the residual bound."""
        built = []
        original = encoding.log_poisson_table

        def counted(mean, k_max):
            built.append(k_max)
            return original(mean, k_max)

        monkeypatch.setattr(encoding, "log_poisson_table", counted)
        call(0.5, 12.0)
        assert built == [241]

    @pytest.mark.parametrize(
        "eta,beta,epsilon_tail,pinned",
        [
            (0.5, 12.0, 1e-10, ("0x1.13c7c15a26df7p+0", "0x1.6c40000000000p-43", "0x1.353014af298d7p-42", "0x1.fffd6db96d2a1p-1")),
            (0.9081, 7.006, 1e-10, ("0x1.ac075cbf988bdp+1", "0x0.0p+0", "0x1.497ad85506070p-62", "0x1.c221767761c86p-2")),
            (0.2, 8.0, 1e-14, ("0x1.01710c81083e4p-2", "0x1.c600000000000p-45", "0x1.03b8257839c19p-127", "0x1.ffffede0d2f47p-1")),
        ],
    )
    def test_report_and_fidelity_bits_are_pinned(self, eta, beta, epsilon_tail, pinned):
        """E_avg, residual, residual_bound and the pair fidelity, bit for bit."""
        report = average_entanglement(eta, beta, epsilon_tail)
        fidelity = mean_pair_approx_fidelity(eta, beta, epsilon_tail)
        assert (report.E_avg.hex(), report.residual.hex(), report.residual_bound.hex(), fidelity.hex()) == pinned

    @pytest.mark.parametrize(
        "eta,beta,epsilon_tail,pinned",
        [
            (0.5, 12.0, 1e-10, "0x1.6d55427daaffep-43"),
            (0.9081, 7.006, 1e-10, "0x1.1b01122a82fcep-65"),
            (0.2, 8.0, 1e-14, "0x1.abe0603031d60p-127"),
        ],
    )
    def test_table_residual_bits_are_pinned(self, eta, beta, epsilon_tail, pinned):
        """The pair table's directly summed outside mass, bit for bit, at the
        points whose report bits are pinned above."""
        assert pair_outcome_distribution(eta, beta, epsilon_tail).residual.hex() == pinned


class _GridCountingNumpy:
    """numpy as encoding sees it, recording the shape of every array that
    np.zeros allocates: in the pair grid, one A grid per built window."""

    def __init__(self):
        self.grids = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, *args, **kwargs):
        self.grids.append(shape)
        return np.zeros(shape, *args, **kwargs)


def _entropy_weighted(a_grid, b_grid):
    """P E = max(log2 A - B / (A ln 2), 0) A per outcome, with A = 1 in
    the logs where A = 0, and 0 on row and column 0."""
    safe = np.where(a_grid > 0.0, a_grid, 1.0)
    entropies = np.log2(safe) - b_grid / (safe * numerics.LN2)
    pe = np.maximum(entropies, 0.0) * a_grid
    pe[0, :] = 0.0
    pe[:, 0] = 0.0
    return pe


class TestOutcomeGridKernel:
    @pytest.mark.parametrize(
        "eta,beta,epsilon_tail",
        [
            (0.3, 3.0, DEFAULT_EPSILON_TAIL),
            (0.5, 1e-200, DEFAULT_EPSILON_TAIL),
            (0.0, 2.0, DEFAULT_EPSILON_TAIL),
            (0.5, 12.0, DEFAULT_EPSILON_TAIL),
            (0.93, 9.25, DEFAULT_EPSILON_TAIL),
            (0.8, 0.05, DEFAULT_EPSILON_TAIL),
            (0.1, 12.0, DEFAULT_EPSILON_TAIL),
            (0.2, 8.0, DEFAULT_EPSILON_TAIL),
            (0.5, 0.3, DEFAULT_EPSILON_TAIL),
            (0.05, 20.0, DEFAULT_EPSILON_TAIL),
            (0.02, 6.0, DEFAULT_EPSILON_TAIL),
            (0.3, 0.1, 1e-4),
        ],
        ids=[
            "one-doubling-round",
            "mean-b-zero",
            "eta-zero",
            "large-beta",
            "strong-squeezing",
            "floor-cut",
            "weak-squeezing-cut",
            "mid-beta-cut",
            "small-mean",
            "cut-below-normal-t0",
            "few-live-slices",
            "row-sub-blocks",
        ],
    )
    def test_bit_identical_to_full_grid_loop(self, eta, beta, epsilon_tail):
        """Skipping the cells whose summands are exactly zero, or below half
        an ulp of their running sums, changes no bit of A, nor of P E formed
        from A and B per outcome.  At (0.8, 0.05) the
        window has grown far past the Poisson peak, so cells whose summands
        lie just above the floor are in play; at (0.1, 12) and (0.2, 8) most
        cells of the later slices are negligible; at (0.5, 0.3) t_0 exceeds
        e^-1 at (0, 0).  At (0.5, 1e-200) |beta|^2 underflows to 0, so ln Pois
        is -inf off n = K = L, where a NaN in B would show (and its
        RuntimeWarning fails the test).  At (0.05, 20) t_0 < e^-700 on cells
        whose later summands the 2^-66 cut drops, which exp rounds to 0; at
        (0.02, 6) only a few slices are live at all.  At (0.3, 0.1) and a
        tail of 1e-4 the window is 4 outcomes and a strip is summed in row
        sub-blocks where E > 0."""
        ref_a, ref_b, _, ref_k_max = _full_grid_reference(eta, beta * beta, epsilon_tail)
        a_grid, pe_grid, law, k_max = _pair_window_grid(eta, beta * beta, epsilon_tail, True)
        assert k_max == ref_k_max and law[0] <= epsilon_tail
        assert a_grid.tobytes() == ref_a.tobytes()
        assert pe_grid.tobytes() == _entropy_weighted(ref_a, ref_b).tobytes()
        a_only, b_none, _, _ = _pair_window_grid(eta, beta * beta, epsilon_tail, False)
        assert b_none is None and a_only.tobytes() == ref_a.tobytes()


    def test_negligible_summands_are_most_cells_at_weak_squeezing(self, monkeypatch):
        """At (0.1, 12) the slices n > 0 are below 2^-66 of t_0 on most of
        their live blocks, so the cut at least halves the cells summed."""

        class CountingNumpy:
            """numpy as encoding sees it, counting the cells given to exp."""

            def __init__(self):
                self.cells = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                self.cells += np.size(x)
                return np.exp(x, *args, **kwargs)

        def cells():
            counting = CountingNumpy()
            monkeypatch.setattr(encoding, "np", counting)
            _pair_window_grid(0.1, 144.0, DEFAULT_EPSILON_TAIL, False)
            return counting.cells

        cut = cells()
        monkeypatch.setattr(encoding, "_NEGLIGIBLE_LOG", -math.inf)
        assert 2 * cut <= cells()

    @pytest.mark.parametrize(
        "cut,hi,size,block",
        [([0], [16], 20, 200), ([0], [16], 20, 100), ([3], [20], 20, 17), ([2, 5], [9, 12], 30, 64), ([0], [1], 1, 1)],
    )
    def test_row_strips_start_on_covered_rows(self, cut, hi, size, block):
        """The strips tile the rows from the first one a square [cut, hi)
        covers to the last, and each starts on a covered row, also when the
        summed work is an exact multiple of the block (the first two cases)."""
        cut, hi = np.array(cut), np.array(hi)
        strips = list(encoding._row_strips(cut, hi, size, block))
        assert strips[0][0] == cut.min() and strips[-1][1] in (hi.max(), size)
        assert all(k1 == next_k0 for (_, k1), (next_k0, _) in zip(strips, strips[1:]))
        assert all(((cut <= k0) & (k0 < hi)).any() for k0, _ in strips)

    def test_strips_end_on_the_last_covered_row(self):
        """At eta = 0, |beta| = 1.35e-10 and a tail of 1e-230 the window is
        20 outcomes, slice 0 lives on rows 0..15 and its summed work is
        exactly one block: the report is computed, and A is the product of
        the Poisson weights."""
        report = average_entanglement(0.0, 1.35e-10, epsilon_tail=1e-230)
        assert report.window == 20 and report.E_avg == 0.0 and report.residual == 0.0
        mean_b = 1.35e-10**2
        a_grid, _, _, k_max = _pair_window_grid(0.0, mean_b, 1e-230, True)
        lp = log_poisson_table(mean_b, k_max)
        assert a_grid.tobytes() == np.exp(np.add.outer(lp, lp)).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1, 2), (9, 1, 2), (64, 1, 2), (17, 3, 5), (300, 1, 3), (300, 2, 1)])
    def test_strip_blocks_add_their_slices_in_order(self, shape):
        """The reduction of a (slices, rows, columns) block equals acc +=
        terms[n] for n in order, bit for bit, also on a block one row high and
        two columns wide.  From 17 slices on, the data tell the orders apart:
        numpy's pairwise sum, its order when the slice axis is the innermost
        (as for a block one cell wide), differs from it in some last bit."""
        rng = np.random.default_rng(list(shape))
        terms, acc = rng.random(shape), rng.random(shape[1:])
        expected = acc.copy()
        for plane in terms:
            expected += plane
        first = terms[0] + acc
        pairwise = np.add.reduce(np.concatenate([first[None], terms[1:]]).reshape(shape[0], -1).T.copy(), axis=1)
        encoding._add_slices(terms, acc)
        assert acc.tobytes() == expected.tobytes()
        assert shape[0] < 17 or pairwise.tobytes() != expected.tobytes()

    @pytest.mark.parametrize("eta,beta", [(0.9315, 9.252), (0.9081, 7.006), (0.5, 40.0)])
    @pytest.mark.parametrize("with_entropy", [True, False], ids=["with-B", "A-only"])
    def test_memory_is_what_it_budgets(self, eta, beta, with_entropy):
        """The traced peak of the grid is at least the window arrays it keeps
        (A and B; A alone without B) and at most those plus the two block
        buffers it budgets (_block_cells each: the logs, and v then the
        terms), numpy's broadcasting buffers (np.getbufsize() cells per
        operand) and O(window) vectors.  At (0.5, 40), window 1922, one
        window-sized scratch array would already break the bound."""
        _pair_window_grid(eta, beta * beta, DEFAULT_EPSILON_TAIL, with_entropy)  # grow the log-factorial cache
        tracemalloc.start()
        try:
            size = _pair_window_grid(eta, beta * beta, DEFAULT_EPSILON_TAIL, with_entropy)[3] + 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grids = 2 if with_entropy else 1
        windows = grids * 8 * size * size
        budgeted = windows + 2 * 8 * encoding._block_cells(size)
        assert windows <= peak <= budgeted + 4 * 8 * np.getbufsize() + 64 * 8 * size


class TestGridBudget:
    def test_fails_before_allocating_past_the_budget(self, monkeypatch):
        """At a tail of 1e-17 the window tops run 21, 38, ...; the outside
        mass first meets it at 38, whose grid of 39^2 cells (two with B) and
        two block buffers of 760 cells do not fit a budget of 20 000 bytes,
        so that top raises before any grid is allocated."""
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", 20_000)
        counting = _GridCountingNumpy()
        monkeypatch.setattr(encoding, "np", counting)
        with pytest.raises(RuntimeError, match=r"k_max=38 needs 24328 bytes, over the grid budget of 20000 bytes"):
            pair_outcome_distribution(0.5, 2.0, epsilon_tail=1e-17)
        with pytest.raises(RuntimeError, match=r"k_max=38 needs 36496 bytes"):
            average_entanglement(0.5, 2.0, epsilon_tail=1e-17)
        assert counting.grids == []

    def test_default_windows_fit(self, monkeypatch):
        """A budget of exactly the default round's bytes still computes it."""
        k_max = _pair_window_grid(0.5, 4.0, DEFAULT_EPSILON_TAIL, True)[3]
        budgeted = 8 * (2 * (k_max + 1) ** 2 + 2 * encoding._block_cells(k_max + 1))
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", budgeted)
        assert _pair_window_grid(0.5, 4.0, DEFAULT_EPSILON_TAIL, True)[3] == k_max
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", budgeted - 1)
        with pytest.raises(RuntimeError, match=rf"k_max={k_max} needs {budgeted} bytes"):
            _pair_window_grid(0.5, 4.0, DEFAULT_EPSILON_TAIL, True)

    def test_a_report_at_beta_80_fits(self, monkeypatch):
        """(0.5, 80) has window top 7041: its two grids and two block buffers
        take 794 484 800 bytes, within the budget of 1 GiB, which its first
        top is checked against before anything is built."""

        class Budgeted(Exception):
            pass

        def table_after_the_budget_check(mean, k_max):
            raise Budgeted(k_max)

        monkeypatch.setattr(encoding, "log_poisson_table", table_after_the_budget_check)
        with pytest.raises(Budgeted, match="^7041$"):
            average_entanglement(0.5, 80.0)
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", 794_484_799)
        with pytest.raises(RuntimeError, match="k_max=7041 needs 794484800 bytes"):
            average_entanglement(0.5, 80.0)

    def test_coherent_band_passes_fail_before_running_past_the_budget(self, monkeypatch):
        """The banded coherent fidelity pass costs rows x band cells of 8
        bytes; a pass over the budget raises before its first work, the
        log-factorial table.  Both public calls fail on the table's 6 cells
        per row first, and with room for the table the fidelity fails on
        its band pass before the table is built.  mu = 109 <= 160, so the
        pass starts at M = 0."""
        factorials, tables = [], []
        monkeypatch.setattr(encoding, "log_factorial_table", lambda *args: factorials.append(args))
        monkeypatch.setattr(encoding, "log_poisson_table", lambda *args: tables.append(args))
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", 8 * 194 - 1)
        with pytest.raises(RuntimeError, match=r"m_max=193 needs \d+ bytes, over the grid budget"):
            encoding._coherent_overlaps(math.log(0.3), 0, 193)
        for call in (coherent_outcome_distribution, mean_coherent_approx_fidelity):
            with pytest.raises(RuntimeError, match="m_max=193 needs 9312 bytes, over the grid budget"):
                call(3.0, 10.0)
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", 9312)
        with pytest.raises(RuntimeError, match=r"m_max=193 needs \d+ bytes, over the grid budget.*fidelity band"):
            mean_coherent_approx_fidelity(3.0, 10.0)
        assert factorials == [] and tables == []

    @pytest.mark.parametrize("call", [coherent_outcome_distribution, pair_outcome_distribution])
    def test_huge_window_error_is_short(self, call):
        """|beta| = 1e150 has a finite mean 1e300, whose first window top
        has 301 digits and its byte count over 600: both print as %.3e."""
        with pytest.raises(RuntimeError, match=r"window [mk]_max=1\.000e\+300 needs \d\.\d{3}e\+\d+ bytes") as info:
            call(0.0, 1e150)
        assert len(str(info.value)) < 200

    def test_coherent_table_fails_before_allocating_past_the_budget(self, monkeypatch):
        """At beta = 300 the window holds 92 401 outcomes.  Building the
        table with the log-factorial cache one entry short, so that it
        doubles, allocates at most the 6 cells per row the budget counts;
        one byte less raises before the cache grows or any table exists."""
        m_max = 92400
        budgeted = 6 * 8 * (m_max + 1)
        monkeypatch.setattr(numerics, "_log_factorials", numerics.log_factorial_table(m_max - 1))
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", budgeted - 1)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match=rf"m_max={m_max} needs {budgeted} bytes, over the grid budget"):
                coherent_outcome_distribution(0.0, 300.0)
            refused = tracemalloc.get_traced_memory()[1]
            cache_size = numerics._log_factorials.size
            tracemalloc.reset_peak()
            monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", budgeted)
            dist = coherent_outcome_distribution(0.0, 300.0)
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused < 8 * m_max and cache_size == m_max
        assert dist.support.probabilities.size == m_max + 1
        assert 4 * 8 * (m_max + 1) < built <= budgeted

    @pytest.mark.parametrize("n", [500, 1_000, 5_000, 20_000])
    @pytest.mark.parametrize(
        "build,top,outcome",
        [
            (lambda n: encode_pair(0.5, 1.0, n, n), r"max\(K, L\)", r"outcome \(K, L\) = \({n}, {n}\)"),
            (lambda n: encode_coherent(1.0, 1.0, n), "M", "outcome M={n}"),
        ],
        ids=["encode_pair", "encode_coherent"],
    )
    def test_encoded_states_fail_before_allocating_past_the_budget(self, monkeypatch, build, top, outcome, n):
        """An encoded state takes up to 14 cells per row of max(K, L) (or
        M), 2 of them for doubling the log-factorial cache; that holds also
        below about 16 000 rows, where numpy makes a new array for every
        temporary.  With the cache one entry short, a budget of exactly that
        builds the state (its peak is those arrays plus a few KiB of Python
        objects); one byte less raises, naming the outcome, before the cache
        grows or any array exists.  The default budget refuses outcomes of
        10^9."""
        budgeted = 14 * 8 * (n + 1)
        monkeypatch.setattr(numerics, "_log_factorials", numerics.log_factorial_table(n - 1))
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", budgeted - 1)
        tracemalloc.start()
        try:
            match = rf"{top}={n} needs {budgeted} bytes, over the grid budget.*{outcome.format(n=n)}$"
            with pytest.raises(RuntimeError, match=match):
                build(n)
            refused = tracemalloc.get_traced_memory()[1]
            cache_size = numerics._log_factorials.size
            tracemalloc.reset_peak()
            monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", budgeted)
            build(n)
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # raising takes about 5 KiB of Python objects: more than n cells at n = 500
        assert refused < 8 * max(n, 1024) and cache_size == n
        assert 12 * 8 * (n + 1) < built <= budgeted + 8 * 1024
        monkeypatch.undo()
        with pytest.raises(RuntimeError, match=rf"{top}={10**9} needs \d+ bytes.*{outcome.format(n=10**9)}$"):
            build(10**9)

    def test_lopsided_pair_state_fails_before_allocating_past_the_budget(self, monkeypatch):
        """encode_pair counts 4 cells per row of max(K, L) and 10 per row of
        min(K, L), the rows that _series_state runs on.  At (20 000, 5 000),
        with the log-factorial cache one entry short, a budget of exactly
        that builds the state; one byte less raises, before the cache grows
        or any array exists.  An outcome (10^7, 0) fits the default budget."""
        K, L = 20_000, 5_000
        budgeted = 8 * (4 * (K + 1) + 10 * (L + 1))
        monkeypatch.setattr(numerics, "_log_factorials", numerics.log_factorial_table(K - 1))
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", budgeted - 1)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match=rf"max\(K, L\)={K} needs {budgeted} bytes, over the grid budget"):
                encode_pair(0.5, 1.0, K, L)
            refused = tracemalloc.get_traced_memory()[1]
            cache_size = numerics._log_factorials.size
            tracemalloc.reset_peak()
            monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", budgeted)
            state = encode_pair(0.5, 1.0, K, L)
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused < 8 * K and cache_size == K
        assert state.schmidt_coeffs.size == L + 1
        assert 8 * (3 * (K + 1) + 10 * (L + 1)) < built <= budgeted + 8 * 1024

        class WithinBudget(Exception):
            pass

        def table_after_the_budget_check(n_max):
            raise WithinBudget(n_max)

        monkeypatch.undo()
        monkeypatch.setattr(encoding, "log_factorial_table", table_after_the_budget_check)
        with pytest.raises(WithinBudget):
            encode_pair(0.5, 1.0, 10**7, 0)


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

    def test_coherent_fidelity_at_a_tiny_beta(self):
        """At |beta| = 1e-320 every M >= 1 overlap vanishes, so the fidelity
        is P(M = 0) = e^-1, not NaN."""
        value = mean_coherent_approx_fidelity(1.0, 1e-320)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_coherent_fidelity_near_one_at_large_beta(self):
        assert mean_coherent_approx_fidelity(0.5, 8.0) > 0.999

    def test_pair_fidelity_near_one_at_large_beta(self):
        assert mean_pair_approx_fidelity(0.25, 8.0) > 0.999

    def test_pair_fidelity_ignores_beta_phase(self):
        plain = mean_pair_approx_fidelity(0.5, 3.0)
        spun = mean_pair_approx_fidelity(0.5, 3.0 * cmath.exp(1.7j))
        assert spun == pytest.approx(plain, abs=1e-10)

    def test_coherent_overlaps_do_not_depend_on_the_row_chunks(self, monkeypatch):
        """At |q| = 0.3 and m_max = 3000 the band is 446 photon numbers wide,
        so the default chunks of 2^16 cells split the 3001 rows 21 ways; the
        second window starts its rows above 0, where a pass from M = 0 has
        the same band width and gives the same bits.  Chunks of one row or
        of 5000 cells give the same bits as the default ones."""
        assert 20 * encoding._STRIP_BLOCK_CELLS < 3001 * 446 <= 21 * encoding._STRIP_BLOCK_CELLS
        windows = [(math.log(0.3), 0, 3000), (math.log(0.03), 9000, 12000)]
        default = [encoding._coherent_overlaps(*window) for window in windows]
        assert [rows.size for rows in default] == [3001, 3001]
        assert encoding._coherent_overlaps(math.log(0.03), 0, 12000)[9000:].tobytes() == default[1].tobytes()
        for cells in (1, 5000):
            monkeypatch.setattr(encoding, "_STRIP_BLOCK_CELLS", cells)
            for window, rows in zip(windows, default):
                assert encoding._coherent_overlaps(*window).tobytes() == rows.tobytes()

    def test_coherent_fidelity_sums_only_the_poisson_band_of_outcomes(self, monkeypatch):
        """At alpha = 3, beta = 100 the band of M starts at 8743, so the pass
        returns m_max - 8743 + 1 rows; the fidelity keeps the value of a
        pass from M = 0, 0.9999980762450028, to 1e-15."""
        _, m_max, _ = encoding._coherent_window(3.0, 100.0, DEFAULT_EPSILON_TAIL)
        passes = []
        overlaps = encoding._coherent_overlaps

        def record(log_q, m_lo, top):
            rows = overlaps(log_q, m_lo, top)
            passes.append((m_lo, top, rows.size))
            return rows

        monkeypatch.setattr(encoding, "_coherent_overlaps", record)
        value = mean_coherent_approx_fidelity(3.0, 100.0)
        assert passes == [(8743, m_max, m_max - 8743 + 1)]
        assert abs(value - 0.9999980762450028) <= 1e-15

    def test_coherent_fidelity_at_alpha_and_beta_300(self):
        """mu = 1.8e5: a pass from M = 0 would need about 16 GB; the band of
        M holds about 8 800 rows and fits the grid budget."""
        assert 0.0 <= mean_coherent_approx_fidelity(300.0, 300.0) <= 1.0

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

    @pytest.mark.parametrize("eta,beta", [(0.5, 14.0), (0.3, 3.0)])
    def test_pair_fidelity_leaves_out_only_negligible_photon_numbers(self, monkeypatch, eta, beta):
        """G keeps only n <= ceil(_BAND_LOG_CUT / (-2 ln eta)), n <= 58 at
        eta = 0.5, of a window of 300; at (0.5, 14) (window about 310) and
        (0.3, 3) the full width gives the same bits."""
        n_top = math.ceil(encoding._BAND_LOG_CUT / (-2.0 * math.log(eta)))
        assert encoding._pair_factor(eta, beta * beta, log_poisson_table(beta * beta, 300))[0].shape == (301, n_top + 1)
        cut = mean_pair_approx_fidelity(eta, beta)
        monkeypatch.setattr(encoding, "_BAND_LOG_CUT", 1e6)
        assert encoding._pair_factor(eta, beta * beta, log_poisson_table(beta * beta, 300))[0].shape == (301, 301)
        assert mean_pair_approx_fidelity(eta, beta) == cut

    def test_pair_fidelity_needs_no_probability_table(self, monkeypatch):
        expected = mean_pair_approx_fidelity(0.5, 3.0)

        def refuse(*args):
            raise AssertionError("the pair fidelity built an outcome grid")

        monkeypatch.setattr(encoding, "_pair_window_grid", refuse)
        assert mean_pair_approx_fidelity(0.5, 3.0) == expected

    def test_coherent_fidelity_reaches_a_tail_below_float64_resolution(self):
        value = mean_coherent_approx_fidelity(0.7, 7.0, epsilon_tail=1e-15)
        assert value == pytest.approx(mean_coherent_approx_fidelity(0.7, 7.0), abs=1e-10)

    def test_pair_fidelity_reaches_a_tail_below_float64_resolution(self):
        """A tail of 1e-17 lies below the float64 resolution of 1 - sum P;
        the outcome table and the fidelity both take the window of the
        directly summed outside mass, 39 x 39, and get there."""
        dist = pair_outcome_distribution(0.5, 2.0, epsilon_tail=1e-17)
        assert dist.support.probabilities.shape == (39, 39) and dist.residual <= 1e-17
        value = mean_pair_approx_fidelity(0.5, 2.0, epsilon_tail=1e-17)
        assert value == pytest.approx(mean_pair_approx_fidelity(0.5, 2.0), abs=1e-10)

    @staticmethod
    def _pair_fidelity_window(eta, mean_b):
        mu = mean_b + eta * eta / (1.0 - eta * eta)
        return next(
            k for k in _window_sizes(mu) if _outside(eta, mean_b, k)[0] <= DEFAULT_EPSILON_TAIL
        )

    @pytest.mark.parametrize("eta", [0.5, 0.0])
    def test_pair_fidelity_memory_is_what_it_budgets(self, eta):
        """At |beta| = 14 (window about 310) the peak is the budgeted
        _PAIR_FIDELITY_GRIDS window arrays, plus numpy's broadcasting
        buffers (np.getbufsize() cells per operand) and O(window) vectors."""
        mean_pair_approx_fidelity(eta, 14.0)  # grow the log-factorial cache
        size = self._pair_fidelity_window(eta, 196.0) + 1
        tracemalloc.start()
        try:
            mean_pair_approx_fidelity(eta, 14.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budgeted = encoding._PAIR_FIDELITY_GRIDS * 8 * size * size
        assert budgeted <= peak <= budgeted + 4 * 8 * np.getbufsize() + 64 * 8 * size

    def test_pair_fidelity_fails_before_allocating_past_the_budget(self, monkeypatch):
        """A budget of exactly the window's arrays still computes the
        fidelity; one byte less raises before any window array exists."""
        size = self._pair_fidelity_window(0.5, 196.0) + 1
        budgeted = encoding._PAIR_FIDELITY_GRIDS * 8 * size * size
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", budgeted)
        expected = mean_pair_approx_fidelity(0.5, 14.0)
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", budgeted - 1)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match=rf"k_max={size - 1} needs {budgeted} bytes, over the grid budget"):
                mean_pair_approx_fidelity(0.5, 14.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * size * size
        assert 0.999 < expected <= 1.0

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


def _poisson_convolution(mean_a, mean_b, m):
    """sum_n Pois(mean_a, n) Pois(mean_b, m - n), summed with math.fsum."""

    def pois(mean, k):
        return math.exp(-mean) * mean**k / math.factorial(k)

    return math.fsum(pois(mean_a, n) * pois(mean_b, m - n) for n in range(m + 1))


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
