"""Dense brute-force path: construction, projection, SVD entropy, and
agreement with the closed-form encoding."""

import cmath
import itertools
import math

import numpy as np
import pytest

from oracle_checks import (
    PAIR_SCHMIDT_CUT,
    coherent_dense_outcomes,
    coherent_equivalence_deviations,
    global_phase_mismatch,
    pair_dense_outcomes,
    pair_equivalence_deviations,
)
from phasefree.oracle import (
    PAIR_GROUP_K,
    PAIR_GROUP_L,
    DenseJointState,
    build_joint_coherent,
    build_joint_pair,
    coherent_logical_amplitudes,
    pair_outcomes,
    pair_schmidt_amplitudes,
    project_total_number,
    schmidt_entropy_dense,
)
from phasefree.numerics import log_poisson_weight


class TestBuildJointCoherent:
    def test_double_vacuum(self):
        state = build_joint_coherent(0.0, 0.0, 0.0, 3)
        assert state.amplitudes[0, 0] == 1.0
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-14)
        assert state.truncation_loss == 0.0

    def test_outer_product_of_validated_kets(self):
        """Against kets built from the Poisson weights instead of the
        oracle's direct factorials: a_n = sqrt(Pois(|alpha|^2, n)) e^(i n arg alpha)."""
        alpha, beta = 1.0, 0.6 - 0.8j
        state = build_joint_coherent(alpha, beta, 0.0, 12)

        def ket(a):
            return np.array(
                [math.sqrt(math.exp(log_poisson_weight(abs(a) ** 2, n))) * cmath.exp(1j * n * cmath.phase(a)) for n in range(13)]
            )

        expected = np.outer(ket(alpha), ket(beta))
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_norm_bookkeeping(self):
        state = build_joint_coherent(1.5, 0.5, 0.3, 9)
        total = float(np.sum(np.abs(state.amplitudes) ** 2))
        assert total + state.truncation_loss == pytest.approx(1.0, abs=1e-10)

    def test_phase_shift_multiplies_by_total_occupation_phase(self):
        base = build_joint_coherent(0.8, 1.2, 0.0, 6)
        spun = build_joint_coherent(0.8, 1.2, 0.9, 6)
        n, m = np.indices(base.amplitudes.shape)
        np.testing.assert_allclose(
            spun.amplitudes, base.amplitudes * np.exp(1j * 0.9 * (n + m)), atol=1e-13
        )


class TestCutoffLimits:
    @pytest.mark.parametrize("build", [build_joint_coherent, build_joint_pair], ids=["coherent", "pair"])
    @pytest.mark.parametrize(
        "cutoff,message", [(-1, "cutoff must be >= 0, got -1"), (121, "cutoffs up to 120, got 121")]
    )
    def test_rejects_a_cutoff_out_of_range(self, build, cutoff, message):
        with pytest.raises(ValueError, match=message):
            build(0.5, 1.0, 0.0, cutoff)


class TestBuildJointPair:
    def test_vacuum_everywhere(self):
        state = build_joint_pair(0.0, 0.0, 0.0, 2)
        assert state.amplitudes[0, 0, 0, 0] == pytest.approx(1.0)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_prestate_schmidt_spectrum_is_geometric(self):
        """Before any measurement, the Schmidt weights across the
        (ancillaA, squeezedA) | (ancillaB, squeezedB) cut are the geometric
        weights (1-eta^2) eta^(2n), up to truncation renormalization."""
        eta, cutoff = 0.5, 10
        state = build_joint_pair(eta, 1.0, 0.0, cutoff)
        reordered = np.transpose(state.amplitudes, PAIR_SCHMIDT_CUT + PAIR_GROUP_L)
        matrix = reordered.reshape((cutoff + 1) ** 2, (cutoff + 1) ** 2)
        weights = np.linalg.svd(matrix, compute_uv=False) ** 2
        weights = np.sort(weights[weights > 1e-20] / weights.sum())[::-1]
        geometric = (1 - eta * eta) * eta ** (2.0 * np.arange(weights.size))
        geometric /= geometric.sum()
        np.testing.assert_allclose(weights, geometric, atol=1e-12)

    @pytest.mark.parametrize("eta,beta", [(0.5, 1.0), (0.9, 1.5)])
    def test_small_outcomes_do_not_depend_on_the_cutoff(self, eta, beta):
        """Every component (K - n, L - n, n, n) that the projection onto
        outcomes K, L <= 6 keeps lies inside a cutoff of 6, so a cutoff of
        12 gives the same probabilities, Schmidt weights and ebits."""

        def dense(cutoff):
            return {
                (k, l): (prob, np.abs(pair_schmidt_amplitudes(post, k, l)) ** 2, schmidt_entropy_dense(post, (0, 2)))
                for k, l, prob, post in pair_outcomes(build_joint_pair(eta, beta, 0.0, cutoff), 6)
            }

        small, large = dense(6), dense(12)
        assert len(small) == 49
        for key, (p, weights, ebits) in small.items():
            assert p == pytest.approx(large[key][0], rel=0, abs=1e-15)
            np.testing.assert_allclose(weights, large[key][1], rtol=0, atol=1e-15)
            assert ebits == pytest.approx(large[key][2], rel=0, abs=1e-15)

    def test_phase_shift_is_total_occupation_phase(self):
        # the squeezed pair carries e^(2 i n phi) on its diagonal support
        # (n2 = n3 = n), which is e^(i phi (n2 + n3)) there, so every
        # amplitude picks up the phase of its total occupation
        base = build_joint_pair(0.4, 0.7, 0.0, 4)
        spun = build_joint_pair(0.4, 0.7, 1.1, 4)
        n0, n1, n2, n3 = np.indices(base.amplitudes.shape)
        phases = np.exp(1j * 1.1 * (n0 + n1 + n2 + n3))
        np.testing.assert_allclose(spun.amplitudes, base.amplitudes * phases, atol=1e-13)

    def test_states_compare_by_identity(self):
        """Two joint states built alike compare unequal without raising on
        their arrays; a state equals itself and can be hashed into a set."""
        state, twin = build_joint_pair(0.4, 0.7, 0.0, 4), build_joint_pair(0.4, 0.7, 0.0, 4)
        assert state.amplitudes.tobytes() == twin.amplitudes.tobytes()
        assert state != twin and state not in [twin]
        assert state == state and len({state, twin, state}) == 2


class TestProjectTotalNumber:
    def test_vacuum_certain_outcome(self):
        state = build_joint_coherent(0.0, 0.0, 0.0, 2)
        prob, post = project_total_number(state, (0, 1), 0)
        assert prob == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(post.amplitudes, state.amplitudes, atol=1e-14)

    def test_vacuum_impossible_outcome(self):
        state = build_joint_coherent(0.0, 0.0, 0.0, 2)
        prob, post = project_total_number(state, (0, 1), 1)
        assert prob == 0.0
        assert post is None

    def test_unit_coherent_outcome_two(self):
        """Outcome M=2 on alpha=beta=1: probability 2 e^-2 and logical
        coefficients (1/2, 1/sqrt2, 1/2)."""
        state = build_joint_coherent(1.0, 1.0, 0.0, 12)
        prob, post = project_total_number(state, (0, 1), 2)
        assert prob == pytest.approx(0.2706705664732254, abs=1e-12)
        vector = np.array([post.amplitudes[n, 2 - n] for n in range(3)])
        np.testing.assert_allclose(np.abs(vector), [0.5, 1 / math.sqrt(2), 0.5], atol=1e-12)
        assert float(np.sum(np.abs(post.amplitudes) ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        state = build_joint_coherent(1.0, 1.0, 0.0, 4)
        with pytest.raises(ValueError):
            project_total_number(state, (), 0)
        with pytest.raises(ValueError):
            project_total_number(state, (0, 5), 0)
        with pytest.raises(ValueError):
            project_total_number(state, (0,), -1)


class TestPairOutcomes:
    def test_k_major_with_the_state_after_both_projections(self):
        joint = build_joint_pair(0.5, 1.0, 0.0, 6)
        walk = {(k, l): (prob, post) for k, l, prob, post in pair_outcomes(joint, 3)}
        assert list(walk) == list(itertools.product(range(4), repeat=2))
        p_k, after_k = project_total_number(joint, PAIR_GROUP_K, 3)
        p_l, after_l = project_total_number(after_k, PAIR_GROUP_L, 2)
        assert walk[3, 2][0] == p_k * p_l
        np.testing.assert_array_equal(walk[3, 2][1].amplitudes, after_l.amplitudes)

    def test_vacuum_ancillas_leave_only_equal_outcomes(self):
        """With |beta> = |0>, K = L = n: every K != L projects to nothing
        and is skipped, and P(n, n) is the geometric (1 - eta^2) eta^(2n)."""
        eta = 0.5
        walk = list(pair_outcomes(build_joint_pair(eta, 0.0, 0.0, 4), 4))
        assert [(k, l) for k, l, _, _ in walk] == [(n, n) for n in range(5)]
        geometric = (1 - eta * eta) * eta ** (2.0 * np.arange(5))
        np.testing.assert_allclose([prob for _, _, prob, _ in walk], geometric, rtol=1e-14)


class TestSchmidtEntropyDense:
    def test_product_state(self):
        state = build_joint_coherent(0.9, 1.4, 0.2, 10)
        assert schmidt_entropy_dense(state, (0,)) == pytest.approx(0.0, abs=1e-10)

    def test_bell_like_state(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = amps[1, 1] = 1 / math.sqrt(2)
        state = DenseJointState(amps, (1, 1), 0.0)
        assert schmidt_entropy_dense(state, (0,)) == pytest.approx(1.0, abs=1e-12)

    def test_doubly_projected_pair(self):
        joint = build_joint_pair(0.5, 1.0, 0.7, 10)
        _, after_k = project_total_number(joint, PAIR_GROUP_K, 1)
        _, after_l = project_total_number(after_k, PAIR_GROUP_L, 1)
        value = schmidt_entropy_dense(after_l, PAIR_SCHMIDT_CUT)
        assert value == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_rejects_bad_cut(self):
        state = build_joint_coherent(1.0, 1.0, 0.0, 3)
        with pytest.raises(ValueError, match="non-empty subset of modes 0..1"):
            schmidt_entropy_dense(state, ())
        with pytest.raises(ValueError, match="at least one mode on the other side"):
            schmidt_entropy_dense(state, (0, 1))


class TestOracleEquivalence:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("phi", [0.0, 1.1])
    def test_coherent_path(self, alpha, beta, phi):
        dev_prob, dev_vec = coherent_equivalence_deviations(alpha, beta, phi)
        assert dev_prob < 1e-10
        assert dev_vec < 1e-10

    @pytest.mark.parametrize("eta", [0.3, 0.5])
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("phi", [0.0, 2.2])
    def test_pair_path(self, eta, beta, phi):
        dev_prob, dev_weight, dev_ent = pair_equivalence_deviations(eta, beta, phi)
        assert dev_prob < 1e-10
        assert dev_weight < 1e-10
        assert dev_ent < 1e-10


class TestPhaseIndependence:
    PHIS = (0.0, 0.7, math.pi, 4.2)

    def test_coherent_probabilities_and_vectors(self):
        runs = [coherent_dense_outcomes(1.0, 1.0, phi, cutoff=12, m_top=8) for phi in self.PHIS]
        reference = runs[0]
        for other in runs[1:]:
            assert other.keys() == reference.keys()
            for m in reference:
                p_ref, v_ref = reference[m]
                p_other, v_other = other[m]
                assert abs(p_other - p_ref) < 1e-12
                assert global_phase_mismatch(v_ref, v_other) < 1e-12

    def test_pair_probabilities_vectors_and_entropies(self):
        runs = [pair_dense_outcomes(0.5, 1.0, phi, cutoff=10, outcome_top=5) for phi in self.PHIS]
        reference = runs[0]
        for other in runs[1:]:
            assert other.keys() == reference.keys()
            for key in reference:
                p_ref, v_ref, e_ref = reference[key]
                p_other, v_other, e_other = other[key]
                assert abs(p_other - p_ref) < 1e-12
                assert abs(e_other - e_ref) < 1e-12
                assert global_phase_mismatch(v_ref, v_other) < 1e-12


class TestLogicalExtraction:
    def test_pair_amplitudes_land_on_diagonal_support(self):
        joint = build_joint_pair(0.5, 1.0, 0.0, 8)
        _, after_k = project_total_number(joint, PAIR_GROUP_K, 3)
        _, after_l = project_total_number(after_k, PAIR_GROUP_L, 2)
        vector = pair_schmidt_amplitudes(after_l, 3, 2)
        assert vector.shape == (3,)
        # everything not of the form (3-n, 2-n, n, n) must have been zeroed
        total = float(np.sum(np.abs(after_l.amplitudes) ** 2))
        recovered = float(np.sum(np.abs(vector) ** 2))
        assert recovered == pytest.approx(total, abs=1e-12)

    def test_extraction_refuses_a_state_of_the_other_kind(self):
        """The coherent extraction reads a two-mode state and the pair one a
        four-mode state; each refuses the other's."""
        with pytest.raises(ValueError, match="expected a two-mode state"):
            coherent_logical_amplitudes(build_joint_pair(0.5, 1.0, 0.0, 4), 2)
        with pytest.raises(ValueError, match="expected a four-mode state"):
            pair_schmidt_amplitudes(build_joint_coherent(1.0, 1.0, 0.0, 4), 2, 2)
