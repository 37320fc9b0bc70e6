"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL verdict (run with `pytest -s` to see the lines).

Every tolerance is pinned here explicitly; nothing is deferred to later
calibration.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from oracle_checks import (
    coherent_dense_outcomes,
    coherent_equivalence_deviations,
    global_phase_mismatch,
    pair_dense_outcomes,
    pair_equivalence_deviations,
)
from phasefree.cli import main as cli_main
from phasefree.encoding import (
    coherent_outcome_distribution,
    encode_coherent,
    encode_pair,
    mean_coherent_approx_fidelity,
    mean_pair_approx_fidelity,
    pair_outcome_distribution,
)
from phasefree.entanglement import entanglement_sweep, tmss_entanglement


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS")


def test_criterion_1_squeezed_state_entanglement_endpoints():
    """E(0.1) and E(0.5) round to the reported 0.08 and 1.08 ebits."""
    with criterion(1, "entanglement endpoints"):
        assert 0.075 <= tmss_entanglement(0.1) <= 0.085
        assert 1.075 <= tmss_entanglement(0.5) <= 1.085


def test_criterion_2_fraction_lost_sweep():
    """Across eta in {0.1..0.5} and beta in {1..12}: fraction_lost is
    nonincreasing in beta (slack 1e-9) and drops below 1% by beta = 10."""
    with criterion(2, "retention sweep"):
        etas = [0.1, 0.2, 0.3, 0.4, 0.5]
        betas = [float(b) for b in range(1, 13)]
        reports = entanglement_sweep(etas, betas, epsilon_tail=1e-10)
        assert len(reports) == 60
        for i, eta in enumerate(etas):
            row = reports[i * len(betas) : (i + 1) * len(betas)]
            fractions = [r.fraction_lost for r in row]
            for earlier, later in zip(fractions, fractions[1:]):
                assert later <= earlier + 1e-9, (eta, fractions)
            at_ten = row[betas.index(10.0)]
            assert at_ten.fraction_lost < 0.01, (eta, at_ten.fraction_lost)


def test_criterion_3_oracle_equivalence():
    """Dense projector sums reproduce the closed-form path to 1e-10 over
    the full verification grids."""
    with criterion(3, "oracle equivalence"):
        for alpha in (0.5, 1.0):
            for beta in (0.5, 1.0, 2.0):
                for phi in (0.0, 1.1):
                    dev_prob, dev_vec = coherent_equivalence_deviations(
                        alpha, beta, phi, cutoff=12, m_top=10, prob_floor=1e-8
                    )
                    assert dev_prob < 1e-10, (alpha, beta, phi, dev_prob)
                    assert dev_vec < 1e-10, (alpha, beta, phi, dev_vec)
        for eta in (0.3, 0.5):
            for beta in (0.5, 1.0):
                for phi in (0.0, 2.2):
                    dev_prob, dev_weight, dev_ent = pair_equivalence_deviations(
                        eta, beta, phi, cutoff=12, outcome_top=8
                    )
                    assert dev_prob < 1e-10, (eta, beta, phi, dev_prob)
                    assert dev_weight < 1e-10, (eta, beta, phi, dev_weight)
                    assert dev_ent < 1e-10, (eta, beta, phi, dev_ent)


def test_criterion_4_phase_independence():
    """Outcome statistics and entropies are identical for any reference
    phase, and post-measurement vectors differ by one global phase only."""
    with criterion(4, "phase independence"):
        phis = (0.0, 0.7, math.pi, 4.2)

        coherent_runs = [coherent_dense_outcomes(1.0, 1.0, phi, cutoff=12, m_top=8) for phi in phis]
        for other in coherent_runs[1:]:
            assert other.keys() == coherent_runs[0].keys()
            for m, (p_ref, v_ref) in coherent_runs[0].items():
                p_other, v_other = other[m]
                assert abs(p_other - p_ref) < 1e-12
                assert global_phase_mismatch(v_ref, v_other) < 1e-12

        pair_runs = [pair_dense_outcomes(0.5, 1.0, phi, cutoff=10, outcome_top=5) for phi in phis]
        for other in pair_runs[1:]:
            assert other.keys() == pair_runs[0].keys()
            for key, (p_ref, v_ref, e_ref) in pair_runs[0].items():
                p_other, v_other, e_other = other[key]
                assert abs(p_other - p_ref) < 1e-12
                assert abs(e_other - e_ref) < 1e-12
                assert global_phase_mismatch(v_ref, v_other) < 1e-12


def test_criterion_5_approximation_convergence():
    """Outcome-weighted fidelity to the coherent / squeezed approximants is
    monotone over |beta| in {2,4,6,8,10} and exceeds 0.99 at |beta| = 10."""
    with criterion(5, "approximation convergence"):
        betas = [2.0, 4.0, 6.0, 8.0, 10.0]
        for alpha in (0.5, 1.0):
            values = [mean_coherent_approx_fidelity(alpha, b) for b in betas]
            for earlier, later in zip(values, values[1:]):
                assert later >= earlier - 1e-12, (alpha, values)
            assert values[-1] > 0.99, (alpha, values[-1])
        for eta in (0.25, 0.5):
            values = [mean_pair_approx_fidelity(eta, b) for b in betas]
            for earlier, later in zip(values, values[1:]):
                assert later >= earlier - 1e-12, (eta, values)
            assert values[-1] > 0.99, (eta, values[-1])


def test_criterion_6_conservation_suite():
    """States normalize to 1e-12, distributions to 1e-10 with residual
    inside the tail budget, and P(M) obeys Poisson additivity."""
    with criterion(6, "conservation and normalization"):
        for alpha, beta, m in ((0.0, 1.0, 3), (1.0, 1.0, 2), (0.7 + 0.2j, 2.0, 40), (0.05, 9.0, 140)):
            state = encode_coherent(alpha, beta, m)
            assert math.fsum((np.abs(state.coeffs) ** 2).tolist()) == pytest.approx(1.0, abs=1e-12)
        for eta, beta, k, l in ((0.5, 1.0, 1, 1), (0.3, 2.0, 30, 24), (0.9, 0.5, 9, 9)):
            state = encode_pair(eta, beta, k, l)
            assert math.fsum((np.abs(state.schmidt_coeffs) ** 2).tolist()) == pytest.approx(1.0, abs=1e-12)

        tail_budget = 1e-10
        for alpha, beta in ((0.0, 1e-3), (1.0, 2.0), (0.5, 10.0)):
            dist = coherent_outcome_distribution(alpha, beta, epsilon_tail=tail_budget)
            assert dist.total() + dist.residual == pytest.approx(1.0, abs=1e-10)
            assert 0.0 <= dist.residual <= tail_budget
        for eta, beta in ((0.5, 1e-3), (0.3, 1.0), (0.5, 4.0)):
            dist = pair_outcome_distribution(eta, beta, epsilon_tail=tail_budget)
            assert dist.total() + dist.residual == pytest.approx(1.0, abs=1e-10)
            assert 0.0 <= dist.residual <= tail_budget

        # additivity: P(M) is the convolution of Poisson(1) with Poisson(4),
        # summed here from its definition
        def pois(mean, k):
            return math.exp(-mean) * mean**k / math.factorial(k)

        dist = coherent_outcome_distribution(1.0, 2.0, epsilon_tail=1e-10)
        for m, p in dist.support.items():
            convolution = math.fsum(pois(1.0, n) * pois(4.0, m - n) for n in range(m + 1))
            assert p == pytest.approx(convolution, abs=1e-12)


def test_criterion_7_deterministic_csv(tmp_path):
    """Sweep CSV bytes are identical across repeat runs and thread counts."""
    with criterion(7, "deterministic CSV"):
        blobs = []
        for i, threads in enumerate(("1", "1", "4")):
            path = tmp_path / f"sweep{i}.csv"
            code = cli_main(
                ["sweep", "--etas", "0.1,0.3,0.5", "--betas", "1:4:1",
                 "--csv", str(path), "--threads", threads]
            )
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


def test_criterion_8_one_percent_line_at_beta_ten():
    """The paper's "99% near beta = 10": at beta = 10 the 1% loss line lies
    between eta = 0.63 (0.97% lost) and eta = 0.65 (1.06%).  The outcomes
    outside the window can only raise E_avg, by at most residual_bound
    (about 1e-12), so the crossing holds for the untruncated sum as well."""
    with criterion(8, "1% loss line at beta = 10"):
        below, above = entanglement_sweep([0.63, 0.65], [10.0], epsilon_tail=1e-10)
        assert below.fraction_lost < 0.01, below.fraction_lost
        assert 0.01 < above.fraction_lost - above.residual_bound / above.E_exact, above.fraction_lost
