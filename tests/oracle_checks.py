"""Shared dense-oracle comparison helpers for the test suite."""

import numpy as np

from phasefree.encoding import (
    coherent_outcome_distribution,
    encode_coherent,
    encode_pair,
    pair_outcome_distribution,
)
from phasefree.entanglement import entropy_of_entanglement
from phasefree.oracle import (
    build_joint_coherent,
    build_joint_pair,
    coherent_logical_amplitudes,
    pair_outcomes,
    pair_schmidt_amplitudes,
    project_total_number,
    schmidt_entropy_dense,
)

PAIR_SCHMIDT_CUT = (0, 2)


def global_phase_mismatch(reference: np.ndarray, other: np.ndarray) -> float:
    """Max absolute component deviation after rotating `other` by the single
    global phase that aligns its largest component with `reference`."""
    assert reference.shape == other.shape
    pivot = int(np.argmax(np.abs(reference)))
    if abs(other[pivot]) == 0.0:
        return float(np.max(np.abs(reference - other)))
    rotation = (reference[pivot] / abs(reference[pivot])) / (other[pivot] / abs(other[pivot]))
    return float(np.max(np.abs(reference - other * rotation)))


def coherent_dense_outcomes(alpha, beta, phi, cutoff=12, m_top=10):
    """Dense-path (probability, logical amplitude vector) per outcome M."""
    joint = build_joint_coherent(alpha, beta, phi, cutoff)
    results = {}
    for m in range(m_top + 1):
        prob, post = project_total_number(joint, (0, 1), m)
        if post is None:
            continue
        results[m] = (prob, coherent_logical_amplitudes(post, m))
    return results


def coherent_equivalence_deviations(alpha, beta, phi, cutoff=12, m_top=10, prob_floor=1e-8):
    """Max |dense - closed form| over outcome probabilities and
    post-measurement probability vectors."""
    dense = coherent_dense_outcomes(alpha, beta, phi, cutoff, m_top)
    dist = coherent_outcome_distribution(alpha, beta)
    dev_prob = dev_vec = 0.0
    for m, (prob, vector) in dense.items():
        if prob <= prob_floor:
            continue
        dev_prob = max(dev_prob, abs(prob - dist.support[m]))
        exact = encode_coherent(alpha, beta, m).coeffs
        dev_vec = max(dev_vec, float(np.max(np.abs(np.abs(vector) ** 2 - np.abs(exact) ** 2))))
    return dev_prob, dev_vec


def pair_dense_outcomes(eta, beta, phi, cutoff=12, outcome_top=8):
    """Dense-path (probability, Schmidt amplitudes, ebits) per outcome (K, L)."""
    return {
        (k, l): (prob, pair_schmidt_amplitudes(post, k, l), schmidt_entropy_dense(post, PAIR_SCHMIDT_CUT))
        for k, l, prob, post in pair_outcomes(build_joint_pair(eta, beta, phi, cutoff), outcome_top)
    }


def pair_equivalence_deviations(eta, beta, phi, cutoff=12, outcome_top=8):
    """Max |dense - closed form| over joint probabilities, Schmidt weights,
    and entanglement entropies."""
    dense = pair_dense_outcomes(eta, beta, phi, cutoff, outcome_top)
    dist = pair_outcome_distribution(eta, beta)
    dev_prob = dev_weight = dev_ent = 0.0
    for (k, l), (prob, amplitudes, ebits) in dense.items():
        dev_prob = max(dev_prob, abs(prob - dist.support[(k, l)]))
        state = encode_pair(eta, beta, k, l)
        dev_weight = max(
            dev_weight,
            float(np.max(np.abs(np.abs(amplitudes) ** 2 - np.abs(state.schmidt_coeffs) ** 2))),
        )
        dev_ent = max(dev_ent, abs(ebits - entropy_of_entanglement(state)))
    return dev_prob, dev_weight, dev_ent
