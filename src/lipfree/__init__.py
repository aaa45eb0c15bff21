"""Norms, optimal representations, monotonicity certificates and extremal
potentials for functionals on Lipschitz-free spaces over finite metric
spaces, plus the weighting operators, embedding modulus and exotic-metric
generator that go with them.

Every public name loads on first use: ``lipfree.optimal_coupling`` imports
``lipfree.transport`` the first time it is read, and a submodule such as
``lipfree.metric`` imports on first access too.  A fresh interpreter with
no cached bytecode compiles each module it loads, so a caller pays only for
the layers it touches.  ``from lipfree import *`` reads every name in
``__all__`` and so loads every module.
"""

import functools
import importlib

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "errors": ("Error",),
    "numerics": ("Comparator", "DEFAULT_TOLERANCE", "EXACT_SIZE_LIMIT"),
    "metric": (
        "AsymmetricMatrix", "FiniteMetricSpace", "Functional", "InvalidPair",
        "LipschitzPotential", "MetricError", "Molecule", "NegativeDistance",
        "NonFiniteDistance", "NonzeroDiagonal", "TriangleViolation", "ZeroOffDiagonal",
        "de_leeuw_transform", "delta", "evaluate", "lip_constant", "molecule", "rho",
        "validate_metric",
    ),
    "transport": (
        "NotARepresentation", "PairMeasure", "SignedMeasure", "TransportResult",
        "apply_representation", "free_norm", "functional_of", "is_optimal",
        "molecule_decomposition", "norming_functions_check", "optimal_coupling",
        "reflect", "restrict",
    ),
    "monotonicity": (
        "CycleCertificate", "EmptySet", "NotMonotone", "PairSet", "TooLarge",
        "brute_force_monotone", "build_extremal_potential", "check_cyclically_monotone",
        "cycle_slack", "pair_graph", "verify_extremal",
    ),
    "weighting": ("WeightFunction", "daleth", "pi_window", "weight_function", "weighted_adjoint"),
    "embedding": (
        "EmbeddingReport", "EmptyFamily", "alpha_objective", "best_embedding_search",
        "frechet_embedding",
    ),
    "exotic": (
        "ExoticMetric", "IFamily", "build_i_family", "exotic_metric", "gamma_pairs",
        "rational_enumeration",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


@functools.cache
def _export(name):
    """``name`` as its submodule held it at the first read.  ``lipfree.cli`` reads through
    this too, so a wrapper set on the submodule after that read is never what it caches."""
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, _export(name))


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
