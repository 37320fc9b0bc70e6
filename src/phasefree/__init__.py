"""Phase-reference-free encodings of coherent and two-mode squeezed light.

Projecting a signal mode together with a coherent ancilla onto a
total-photon-number eigenspace produces logical states |n; M> = |n>|M-n>
that carry no reference phase.  This package builds those encoded states,
their measurement-outcome statistics, and the entanglement retained by the
conversion, with an independent dense-tensor oracle for verification and a
CLI for parameter sweeps.
"""

from .encoding import (
    EncodedCoherentState,
    EncodedPairState,
    OutcomeDistribution,
    OutcomeTable,
    coherent_approx_param,
    coherent_outcome_distribution,
    encode_coherent,
    encode_pair,
    mean_coherent_approx_fidelity,
    mean_pair_approx_fidelity,
    pair_approx_param,
    pair_outcome_distribution,
)
from .entanglement import (
    EntanglementReport,
    average_entanglement,
    entanglement_sweep,
    entropy_of_entanglement,
    tmss_entanglement,
)
from .numerics import (
    LOG_ZERO,
    log_factorial,
    log_poisson_weight,
    log_sum_exp,
    shannon_entropy_bits,
)

__version__ = "0.1.0"

__all__ = [
    "LOG_ZERO",
    "EncodedCoherentState",
    "EncodedPairState",
    "EntanglementReport",
    "OutcomeDistribution",
    "OutcomeTable",
    "average_entanglement",
    "coherent_approx_param",
    "coherent_outcome_distribution",
    "encode_coherent",
    "encode_pair",
    "entanglement_sweep",
    "entropy_of_entanglement",
    "log_factorial",
    "log_poisson_weight",
    "log_sum_exp",
    "mean_coherent_approx_fidelity",
    "mean_pair_approx_fidelity",
    "pair_approx_param",
    "pair_outcome_distribution",
    "shannon_entropy_bits",
    "tmss_entanglement",
]
