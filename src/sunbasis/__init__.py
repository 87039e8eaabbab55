"""Exact projector and transition-operator bases for the algebra of SU(N)
invariants on m-fold tensor-power spaces, with the dimension N kept symbolic.
"""

import importlib
import os
import sys

# Every kernel of the package is exact integer or object arithmetic and no
# float BLAS routine runs, so numpy starts without OpenBLAS's thread pool,
# about 70 ms of every process, unless a thread count is already chosen.  The
# variable is removed again, so child processes see the caller's environment.
_THREAD_COUNTS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in _THREAD_COUNTS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .permutations import Permutation, all_permutations, compose, cycle_count, embed, inverse, sign
from .coefficients import PolyN, Surd
from .algebra import (
    AlgebraElement,
    dagger,
    element_from_json,
    element_to_json,
    multiply,
    proportionality,
    scalar_product,
    trace,
)
from .tableaux import (
    YoungDiagram,
    YoungTableau,
    enumerate_tableaux,
    partitions,
    tableau_from_json,
    tableau_permutation,
    tableau_to_json,
    tableaux_of_shape,
)
from .projectors import (
    Projector,
    SymmetrizerSet,
    columns_of,
    dimension_formula,
    dimension_poly,
    hermitian_mold,
    hermitian_projector,
    hermitian_staircase,
    mold_factors,
    rows_of,
    symmetrizer,
    young_projector,
)
from .transitions import (
    TransitionOperator,
    transition,
    unitary_transition_compact,
    unitary_transition_general,
    young_transition,
)
from .basis import (
    BasisBlock,
    BasisMatrix,
    CheckFailure,
    VerificationReport,
    assemble,
    basis_from_json,
    basis_to_json,
    run_suite,
    verify_completeness_and_nesting,
    verify_linear_independence,
    verify_multiplication_table,
    verify_orthonormality,
)
from .matrix_rep import (
    ConcreteMatrix,
    matrix_from_json,
    matrix_to_json,
    rank,
    represent,
)

__all__ = [
    "AlgebraElement",
    "BasisBlock",
    "BasisMatrix",
    "CheckFailure",
    "ConcreteMatrix",
    "Permutation",
    "PolyN",
    "Projector",
    "Surd",
    "SymmetrizerSet",
    "TransitionOperator",
    "VerificationReport",
    "YoungDiagram",
    "YoungTableau",
    "all_permutations",
    "assemble",
    "basis_from_json",
    "basis_to_json",
    "columns_of",
    "compose",
    "cycle_count",
    "dagger",
    "dimension_formula",
    "dimension_poly",
    "element_from_json",
    "element_to_json",
    "embed",
    "enumerate_tableaux",
    "hermitian_mold",
    "hermitian_projector",
    "hermitian_staircase",
    "inverse",
    "matrix_from_json",
    "matrix_to_json",
    "mold_factors",
    "multiply",
    "partitions",
    "proportionality",
    "rank",
    "represent",
    "rows_of",
    "run_suite",
    "scalar_product",
    "sign",
    "symmetrizer",
    "tableau_from_json",
    "tableau_permutation",
    "tableau_to_json",
    "tableaux_of_shape",
    "trace",
    "transition",
    "unitary_transition_compact",
    "unitary_transition_general",
    "verify_completeness_and_nesting",
    "verify_linear_independence",
    "verify_multiplication_table",
    "verify_orthonormality",
    "young_projector",
    "young_transition",
]
