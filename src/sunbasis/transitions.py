"""Transition operators between projectors of equal shape.

Two standard tableaux of the same shape select equivalent invariant
subspaces of the tensor power, and the algebra contains operators mapping
one subspace bijectively onto the other.  Three constructions are provided:

* ``young`` — the permutation-twisted Young projector ``rho * Y``.  Cheap,
  but not a partial isometry, and only forms a consistent basis when the
  total box count is at most four.
* ``general`` — the Hermitian-projector sandwich ``tau * P * rho * P``,
  valid for every box count.  A true partial isometry.
* ``compact`` — an equal operator assembled from far fewer symmetrizer-set
  factors by cutting both shortened Hermitian factor sequences at a full
  antisymmetrizer set and gluing the halves across the relabelling
  permutation: ``projectors._mold_bar``, which also forms the Hermitian
  projector as the transition from a tableau to itself.

The scalar ``tau`` is fixed by requiring ``T * dagger(T)`` to equal the
target projector exactly; its square is always rational here, and the
positive square root is taken (the remaining blockwise sign freedom is a
genuine convention).  ``projectors._normalize`` places the bare product in
E_θ·A·E_φ by Jucys–Murphy eigen-checks of it and its adjoint; its product
with its dagger is then a multiple of the target E_θ, whose identity
coefficient is 1/H_λ (H_λ the hook product), so ``projectors._unit`` reads
``tau**-2`` off one dot product.  ``basis.assemble`` scales its grid's
compact bars by ``_unit`` alone and checks the grid once by its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .algebra import AlgebraElement
from .projectors import _mold_bar, _normalize, hermitian_projector, young_projector
from .tableaux import YoungTableau, tableau_permutation

__all__ = [
    "TransitionOperator",
    "young_transition",
    "unitary_transition_general",
    "unitary_transition_compact",
    "transition",
]

@dataclass(frozen=True, slots=True)
class TransitionOperator:
    """An algebra element carrying one projector's image onto an equivalent one.

    ``element`` maps the invariant subspace selected by ``from_tableau``'s
    projector onto the subspace selected by ``to_tableau``'s; composing it
    with its own dagger recovers the target projector exactly for the
    unitary kinds (``general`` and ``compact``).  ``tau_squared`` is the
    square of the normalization scalar applied to the bare product, with
    the positive root chosen when forming ``element``.
    """

    from_tableau: YoungTableau
    to_tableau: YoungTableau
    kind: str
    element: AlgebraElement
    tau_squared: Fraction

    def __post_init__(self) -> None:
        if self.kind not in _METHODS:
            raise ValueError(f"unknown transition kind: {self.kind!r}")
        if self.from_tableau.shape != self.to_tableau.shape:
            raise ValueError("transition endpoints must have equal shapes")


def _require_same_shape(theta: YoungTableau, phi: YoungTableau) -> None:
    if theta.shape != phi.shape:
        raise ValueError(
            "transition requires tableaux of equal shape, got "
            f"{theta.shape.rows} and {phi.shape.rows}"
        )


@cache
def young_transition(theta: YoungTableau, phi: YoungTableau) -> TransitionOperator:
    """Transition ``rho * Y_phi`` in the Young-projector basis (four boxes at most).

    Equals ``Y_theta * rho`` by the conjugation property, absorbs the Young
    projectors on either side, and composes back to ``Y_theta`` against its
    reverse — but it is not a partial isometry, and beyond four boxes the
    Young projectors stop being mutually orthogonal, so no consistent basis
    of this kind exists there.
    """
    _require_same_shape(theta, phi)
    if theta.n >= 5:
        raise ValueError("Young transition basis undefined beyond m=4")
    rho = tableau_permutation(theta, phi)
    element = rho * young_projector(phi).element
    return TransitionOperator(
        from_tableau=phi,
        to_tableau=theta,
        kind="young",
        element=element,
        tau_squared=Fraction(1),
    )


@cache
def unitary_transition_general(theta: YoungTableau, phi: YoungTableau) -> TransitionOperator:
    """Unitary transition ``tau * P_theta * rho * P_phi`` for any same-shape pair.

    The Hermitian projectors are primitive, so sandwiching any element
    between two copies of one yields a multiple of it; that fixes
    ``tau**-2`` as the constant relating ``bar * dagger(bar)`` to the
    target projector.
    """
    _require_same_shape(theta, phi)
    p_theta = hermitian_projector(theta).element
    p_phi = hermitian_projector(phi).element
    rho = tableau_permutation(theta, phi)
    bar = p_theta * rho * p_phi
    element, tau_squared = _normalize(bar, theta, phi)
    return TransitionOperator(
        from_tableau=phi,
        to_tableau=theta,
        kind="general",
        element=element,
        tau_squared=tau_squared,
    )


@cache
def unitary_transition_compact(theta: YoungTableau, phi: YoungTableau) -> TransitionOperator:
    """Unitary transition assembled from cut halves of the two factor sequences.

    ``projectors._mold_bar`` glues them across the relabelling permutation;
    normalized, the product equals the full sandwich of
    ``unitary_transition_general`` at a fraction of the factor count.
    """
    _require_same_shape(theta, phi)
    element, tau_squared = _normalize(_mold_bar(theta, phi), theta, phi)
    return TransitionOperator(
        from_tableau=phi,
        to_tableau=theta,
        kind="compact",
        element=element,
        tau_squared=tau_squared,
    )


def transition(theta: YoungTableau, phi: YoungTableau, method: str = "compact") -> TransitionOperator:
    """Build the transition from ``phi``'s image onto ``theta``'s by the named method."""
    if method not in _METHODS:
        raise ValueError(f"unknown transition method: {method!r}")
    return _METHODS[method](theta, phi)


# each transition method by name, which is also its operator's ``kind``
_METHODS = {
    "young": young_transition,
    "general": unitary_transition_general,
    "compact": unitary_transition_compact,
}
