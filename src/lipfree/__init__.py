"""Norms, optimal representations, monotonicity certificates and extremal
potentials for functionals on Lipschitz-free spaces over finite metric
spaces, plus the weighting operators, embedding modulus and exotic-metric
generator that go with them.
"""

from .errors import Error
from .numerics import Comparator, DEFAULT_TOLERANCE, EXACT_SIZE_LIMIT
from .metric import (
    AsymmetricMatrix,
    FiniteMetricSpace,
    Functional,
    LipschitzPotential,
    MetricError,
    Molecule,
    NegativeDistance,
    NonFiniteDistance,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroOffDiagonal,
    de_leeuw_transform,
    delta,
    evaluate,
    lip_constant,
    molecule,
    rho,
    validate_metric,
)
from .transport import (
    NotARepresentation,
    PairMeasure,
    SignedMeasure,
    TransportResult,
    apply_representation,
    free_norm,
    functional_of,
    is_optimal,
    molecule_decomposition,
    norming_functions_check,
    optimal_coupling,
    reflect,
    restrict,
)
from .monotonicity import (
    CycleCertificate,
    EmptySet,
    NotMonotone,
    PairSet,
    TooLarge,
    brute_force_monotone,
    build_extremal_potential,
    check_cyclically_monotone,
    cycle_slack,
    pair_graph,
    verify_extremal,
)
from .weighting import WeightFunction, daleth, pi_window, weight_function, weighted_adjoint
from .embedding import (
    EmbeddingReport,
    EmptyFamily,
    alpha_objective,
    best_embedding_search,
    frechet_embedding,
)
from .exotic import (
    ExoticMetric,
    IFamily,
    build_i_family,
    exotic_metric,
    gamma_pairs,
    rational_enumeration,
)

__version__ = "0.1.0"
