"""Exact projector and transition-operator bases for the algebra of SU(N)
invariants on m-fold tensor-power spaces, with the dimension N kept symbolic.

Every name of ``__all__`` is imported on first access (PEP 562), so
``import sunbasis`` is cheap and imports no numpy.  Numpy starts with the
first name read from ``algebra``, ``projectors``, ``transitions`` or
``basis``, through ``_fast``, the one module that imports it.
"""

import importlib

# where ``__getattr__`` looks for a name of ``__all__``; those without numpy come first
_MODULES = (
    "permutations",
    "coefficients",
    "tableaux",
    "matrix_rep",
    "algebra",
    "projectors",
    "transitions",
    "basis",
)


def __getattr__(name: str):
    """Import the module that binds ``name`` and keep the name here, so that
    it is looked up once, as an eager import would have bound it."""
    if name in __all__:
        for module in _MODULES:
            namespace = vars(importlib.import_module(f"{__name__}.{module}"))
            if name in namespace:
                globals()[name] = namespace[name]
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
