"""Combinatorial skeleton of theta correspondence for classical dual pairs:
admissible tableaux for nilpotent orbits, descent and lift along moment maps,
stabilizer factorizations, Whittaker grading data, associated-cycle transport,
and an exact-rational matrix oracle cross-checking all of it."""

from .errors import (BadShape, BadSign, BoundExceeded, DomainError, EmptyLift,
                     IdentityViolated, IncomparableSupports, IncompatiblePair,
                     MismatchedType, NonpositiveDimCirc, NotAdmissible,
                     NotDescentPair, NotEmbeddable, NotInAlgebra, NotInImage,
                     NotNilpotent, UnsupportedRealClosure)
from .forms import (FormedSpace, GroupDescriptor, GroupFactor, complexify,
                    complex_orthogonal_space, complex_symplectic_space,
                    direct_sum, embeds, formed_space, hermitian_space,
                    isometry_group, iter_spaces, orth_complement,
                    orthogonal_space, quaternionic_hermitian_space,
                    quaternionic_skew_space, skew_hermitian_space,
                    symplectic_space, tensor_with_sl2)
from .orbits import (AdmissibleTableau, TableauRow, WhittakerDatum,
                     closure_leq, column_partition, complexify_tableau,
                     enumerate_orbits, orbit_dimension, real_forms,
                     stabilizer, tableau, validate, whittaker_datum,
                     zero_orbit)
from .theta import (DescentResult, PairFactorization, generalized_descent,
                    in_moment_image, k_descent, pair_factorization,
                    reduced_pair_dims, theta_lift)
from .oracle import (MatrixRealization, RationalMap, centralizer_dim,
                     construct_descent_element, identify, moment_maps,
                     realize_triple, verify_dimension_identity)
from .cycles import (Cycle, RangeReport, cycle_leq, dlift_cycle,
                     equality_hypotheses, range_report, zero_cycle)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleTableau", "BadShape", "BadSign", "BoundExceeded", "Cycle",
    "DescentResult", "DomainError", "EmptyLift", "FormedSpace",
    "GroupDescriptor", "GroupFactor", "IdentityViolated",
    "IncomparableSupports", "IncompatiblePair", "MatrixRealization",
    "MismatchedType", "NonpositiveDimCirc", "NotAdmissible", "NotDescentPair",
    "NotEmbeddable", "NotInAlgebra", "NotInImage", "NotNilpotent",
    "PairFactorization", "RangeReport", "RationalMap", "TableauRow",
    "UnsupportedRealClosure", "WhittakerDatum", "centralizer_dim",
    "closure_leq", "column_partition", "complexify", "complexify_tableau",
    "complex_orthogonal_space", "complex_symplectic_space",
    "construct_descent_element", "cycle_leq", "direct_sum", "dlift_cycle",
    "embeds", "enumerate_orbits", "equality_hypotheses", "formed_space",
    "generalized_descent", "hermitian_space", "identify", "in_moment_image",
    "isometry_group", "iter_spaces", "k_descent", "moment_maps",
    "orbit_dimension",
    "orth_complement", "orthogonal_space", "pair_factorization",
    "quaternionic_hermitian_space", "quaternionic_skew_space", "range_report",
    "real_forms", "realize_triple", "reduced_pair_dims", "skew_hermitian_space",
    "stabilizer", "symplectic_space", "tableau", "tensor_with_sl2",
    "theta_lift", "validate",
    "verify_dimension_identity", "whittaker_datum", "zero_cycle", "zero_orbit",
]
