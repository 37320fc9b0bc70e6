"""Phase-reference-free encodings of coherent and two-mode squeezed light.

Projecting a signal mode together with a coherent ancilla onto a
total-photon-number eigenspace produces logical states |n; M> = |n>|M-n>
that carry no reference phase.  This package builds those encoded states,
their measurement-outcome statistics, and the entanglement retained by the
conversion, with an independent dense-tensor oracle for verification and a
CLI for parameter sweeps.

The package root imports no submodule, and so not numpy: each public name
loads its submodule on first use (PEP 562).  ``python -m phasefree`` thus
reaches the CLI, which picks numpy's BLAS thread count, before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE_OF = {
    "LOG_ZERO": "numerics",
    "EncodedCoherentState": "encoding",
    "EncodedPairState": "encoding",
    "EntanglementReport": "entanglement",
    "OutcomeDistribution": "encoding",
    "OutcomeTable": "encoding",
    "average_entanglement": "entanglement",
    "coherent_approx_param": "encoding",
    "coherent_outcome_distribution": "encoding",
    "encode_coherent": "encoding",
    "encode_pair": "encoding",
    "entanglement_sweep": "entanglement",
    "entropy_of_entanglement": "entanglement",
    "log_factorial": "numerics",
    "log_poisson_weight": "numerics",
    "log_sum_exp": "numerics",
    "mean_coherent_approx_fidelity": "encoding",
    "mean_pair_approx_fidelity": "encoding",
    "pair_approx_param": "encoding",
    "pair_outcome_distribution": "encoding",
    "shannon_entropy_bits": "numerics",
    "tmss_entanglement": "entanglement",
}

__all__ = list(_SUBMODULE_OF)

# submodules that `import phasefree` has always made attributes of the package
_SUBMODULES = frozenset(_SUBMODULE_OF.values())


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
