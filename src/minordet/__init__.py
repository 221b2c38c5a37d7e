"""Exact verification of determinant identities on matrices of bordered minors."""

from .exactmat import (
    MatrixExpr,
    brute_force_det,
    det_bareiss,
    det_laplace,
    evaluate_matrix,
    matmul,
    submatrix,
)
from .identities import (
    CompoundMatrix,
    GenericSpec,
    QuotientReport,
    VerificationReport,
    build_generic,
    check_chio,
    check_lemma_adb0,
    check_sylvester,
    compound_minor_products,
    compound_minors,
    quotient,
)
from .oracle import (
    FuzzPlan,
    FuzzReport,
    check_cauchy_binet,
    check_griolv_k2,
    fuzz_divisibility,
    negative_control,
    random_instance,
)
from .polyring import (
    PolyStats,
    Polynomial,
    UniverseMismatch,
    VariableUniverse,
    exact_div,
)

__version__ = "0.1.0"

__all__ = [
    "CompoundMatrix",
    "FuzzPlan",
    "FuzzReport",
    "GenericSpec",
    "MatrixExpr",
    "PolyStats",
    "Polynomial",
    "QuotientReport",
    "UniverseMismatch",
    "VariableUniverse",
    "VerificationReport",
    "brute_force_det",
    "build_generic",
    "check_cauchy_binet",
    "check_chio",
    "check_griolv_k2",
    "check_lemma_adb0",
    "check_sylvester",
    "compound_minor_products",
    "compound_minors",
    "det_bareiss",
    "det_laplace",
    "evaluate_matrix",
    "exact_div",
    "fuzz_divisibility",
    "matmul",
    "negative_control",
    "quotient",
    "random_instance",
    "submatrix",
]
