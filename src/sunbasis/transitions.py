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
  permutation.

The scalar ``tau`` is fixed by requiring ``T * dagger(T)`` to equal the
target projector exactly; its square is always rational here, and the
positive square root is taken (the remaining blockwise sign freedom is a
genuine convention).  ``projectors._normalize``, the rule that also
scales the Hermitian projectors, places the bare product in E_θ·A·E_φ by
Jucys–Murphy eigen-checks of it and its adjoint; its product with its
dagger is then a multiple of the target E_θ, whose identity coefficient is
1/H_λ (H_λ the hook product), so ``tau**-2`` is read off one dot product;
neither that square nor the target projector is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .algebra import AlgebraElement, _translate, multiply
from .projectors import (
    _level0_anti_indices,
    _mold_prefix,
    _mold_suffix,
    _normalize,
    hermitian_projector,
    mold_factors,
    young_projector,
)
from .tableaux import YoungTableau, tableau_permutation

__all__ = [
    "TransitionOperator",
    "young_transition",
    "unitary_transition_general",
    "unitary_transition_compact",
    "transition",
]

_KINDS = frozenset({"young", "general", "compact"})


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
        if self.kind not in _KINDS:
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
    element = _translate(young_projector(phi).element, rho, left=True)
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
    bar = multiply(_translate(p_theta, rho, left=False), p_phi)
    element, tau_squared = _normalize(bar, theta, phi)
    return TransitionOperator(
        from_tableau=phi,
        to_tableau=theta,
        kind="general",
        element=element,
        tau_squared=tau_squared,
    )


def _cut_sites(theta: YoungTableau, phi: YoungTableau) -> tuple[int, int]:
    """Indices of the antisymmetrizer factors to cut at, target side first.

    With two copies in both sequences the cut must sit on the same side of
    both, and the left-most pair is used; otherwise the left-most copy of
    the target sequence meets the right-most copy of the source sequence
    (each being the only copy when the centre is symmetrizer-flanked).
    """
    hits_theta = _level0_anti_indices(mold_factors(theta))
    hits_phi = _level0_anti_indices(mold_factors(phi))
    if len(hits_theta) == 2 and len(hits_phi) == 2:
        return hits_theta[0], hits_phi[0]
    return hits_theta[0], hits_phi[-1]


@cache
def unitary_transition_compact(theta: YoungTableau, phi: YoungTableau) -> TransitionOperator:
    """Unitary transition assembled from cut halves of the two factor sequences.

    The target sequence is kept up to and including its cut antisymmetrizer
    set, the source sequence strictly after its own, and the relabelling
    permutation joins them; since the cut sets match across the relabelling
    (``A_theta * rho == rho * A_phi``), the glued product equals the full
    sandwich of ``unitary_transition_general`` after normalization — at a
    fraction of the factor count.
    """
    _require_same_shape(theta, phi)
    i_theta, i_phi = _cut_sites(theta, phi)
    rho = tableau_permutation(theta, phi)
    a_theta = mold_factors(theta)[i_theta][0].element()
    a_phi = mold_factors(phi)[i_phi][0].element()
    if _translate(a_theta, rho, left=False) != _translate(a_phi, rho, left=True):
        raise ValueError("cut antisymmetrizer sets do not match across the relabelling")
    bar = multiply(_translate(_mold_prefix(theta), rho, left=False), _mold_suffix(phi, i_phi))
    element, tau_squared = _normalize(bar, theta, phi)
    return TransitionOperator(
        from_tableau=phi,
        to_tableau=theta,
        kind="compact",
        element=element,
        tau_squared=tau_squared,
    )


def transition(theta: YoungTableau, phi: YoungTableau, method: str = "compact") -> TransitionOperator:
    """Build the transition from ``phi``'s image onto ``theta``'s by the named method."""
    if method == "young":
        return young_transition(theta, phi)
    if method == "general":
        return unitary_transition_general(theta, phi)
    if method == "compact":
        return unitary_transition_compact(theta, phi)
    raise ValueError(f"unknown transition method: {method!r}")
