"""Exact gcd-symmetric invariants of integer partitions and the matrix
algebras fixed by a permutation: enumeration and counting, g- and h-vectors,
partition polynomials and their equivalence classes, block decompositions,
isomorphism and Morita decisions, with brute-force oracles for everything.
"""

from .algebra import (
    FieldSpec,
    MoritaResult,
    OrbitDecomposition,
    Permutation,
    WedderburnShape,
    canonical_permutation,
    dimension,
    is_semisimple,
    isomorphic,
    morita_equivalent,
    pair_orbits,
    wedderburn,
)
from .classify import EquivalenceClasses, classify, count_classes, self_equivalent
from .errors import BoundExceededError, ConsistencyError, InputError
from .gcd_symm import (
    DetBounds,
    euler_phi,
    g_vector,
    gcd_matrix,
    gcd_matrix_det_and_bounds,
    h_vector,
    is_prime,
    power_norm,
)
from .oracles import (
    ReducedFraction,
    VerificationReport,
    brute_g,
    commutant_dimension,
    eigenvalue_multiplicities,
    root_union,
    verify_all,
)
from .partition_poly import (
    PartitionPolynomial,
    distinct_eigenvalue_count,
    epsilon,
    equivalent,
)
from .partitions import (
    Partition,
    concat,
    count_partitions,
    enumerate_partitions,
    parse_partition,
    scale,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceededError",
    "ConsistencyError",
    "DetBounds",
    "EquivalenceClasses",
    "FieldSpec",
    "InputError",
    "MoritaResult",
    "OrbitDecomposition",
    "Partition",
    "PartitionPolynomial",
    "Permutation",
    "ReducedFraction",
    "VerificationReport",
    "WedderburnShape",
    "brute_g",
    "canonical_permutation",
    "classify",
    "commutant_dimension",
    "concat",
    "count_classes",
    "count_partitions",
    "dimension",
    "distinct_eigenvalue_count",
    "eigenvalue_multiplicities",
    "enumerate_partitions",
    "epsilon",
    "equivalent",
    "euler_phi",
    "g_vector",
    "gcd_matrix",
    "gcd_matrix_det_and_bounds",
    "h_vector",
    "is_prime",
    "is_semisimple",
    "isomorphic",
    "morita_equivalent",
    "pair_orbits",
    "parse_partition",
    "power_norm",
    "root_union",
    "scale",
    "self_equivalent",
    "verify_all",
    "wedderburn",
]
