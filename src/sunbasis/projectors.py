"""Projection operators attached to standard Young tableaux.

Three constructions, all returning exactly normalized idempotents in the
S_m group algebra:

* ``young_projector`` -- row symmetrizers times column antisymmetrizers,
  scaled by the closed form ``alpha_formula``.  Not Hermitian for mixed
  shapes.
* ``hermitian_staircase`` -- the palindromic product of the Young projectors
  of all ancestors around the tableau's own Young projector.  Hermitian,
  same image as the Young projector.
* ``hermitian_mold`` -- the shortened construction that climbs only to the
  nearest *ordered* ancestor and sandwiches the tableau's symmetrizer pair
  between alternating ancestor sets.  Equal to the staircase operator.

Every construction multiplies by symmetrizer sets one at a time through
``_times_sets``, Jucys' factorisation of each set into transposition moves
(``_fast.times_set``); a set's own element is the identity times the set.
A projector is the transition from its tableau to itself: ``_mold_bar``
cuts two mold sequences at a full antisymmetrizer set and glues them across
the relabelling, and it forms the bare product of ``hermitian_mold`` and of
every compact transition.  ``_unit`` scales every Hermitian operator on
its Jucys–Murphy line by one rule, E_θ[e] = 1/H_λ.  ``_normalize`` checks
a standalone operator's line; ``basis.assemble`` checks its grid's once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Literal

from . import _fast
from .algebra import AlgebraElement, _square_sum, dagger, trace
from .coefficients import PolyN, Surd
from .tableaux import YoungTableau, _contents, tableau_permutation

SetKind = Literal["sym", "anti"]


@dataclass(frozen=True)
class SymmetrizerSet:
    """A product of (anti)symmetrizers over pairwise disjoint index blocks.

    Blocks of size one contribute identity factors but are kept, so that
    the blocks of ``rows_of(t)``, and those of ``columns_of(t)``, partition 1..n.
    """

    degree: int
    blocks: tuple[tuple[int, ...], ...]
    kind: SetKind

    def __post_init__(self) -> None:
        if self.kind not in ("sym", "anti"):
            raise ValueError(f"kind must be 'sym' or 'anti', got {self.kind!r}")
        seen: set[int] = set()
        for b in self.blocks:
            if tuple(sorted(b)) != b:
                raise ValueError(f"block not sorted: {b}")
            for x in b:
                if not 1 <= x <= self.degree:
                    raise ValueError(f"block entry {x} outside 1..{self.degree}")
                if x in seen:
                    raise ValueError(f"blocks not disjoint at {x}")
                seen.add(x)

    def element(self) -> AlgebraElement:
        return _times_sets(AlgebraElement.identity(self.degree), [self])

    def __str__(self) -> str:
        tag = "S" if self.kind == "sym" else "A"
        return " ".join(
            f"{tag}_{''.join(map(str, b))}" for b in self.blocks if len(b) > 1
        ) or "id"


def _times_sets(a: AlgebraElement, sets: list[SymmetrizerSet]) -> AlgebraElement:
    """``a`` times the sets, left to right, without forming a set's vector."""
    for s in sets:
        a = AlgebraElement._raw(a.m, _fast.times_set(a.m, a._parts, s.blocks, s.kind == "anti"))
    return a


def symmetrizer(
    blocks: tuple[tuple[int, ...], ...], m: int, kind: SetKind
) -> AlgebraElement:
    """The normalized (anti)symmetrizer over the given disjoint blocks in S_m."""
    return SymmetrizerSet(m, tuple(tuple(b) for b in blocks), kind).element()


def rows_of(t: YoungTableau, degree: int | None = None) -> SymmetrizerSet:
    return SymmetrizerSet(degree or t.n, t.rows, "sym")


def columns_of(t: YoungTableau, degree: int | None = None) -> SymmetrizerSet:
    return SymmetrizerSet(degree or t.n, t.columns(), "anti")


# -- projectors ------------------------------------------------------------


@dataclass(frozen=True)
class Projector:
    tableau: YoungTableau
    kind: Literal["young", "staircase", "mold"]
    element: AlgebraElement
    normalization: Surd
    """Scalar relating the element to the bare product of its symmetrizer
    sets (all per-set 1/k! weights included, no other constants)."""


def _unit(bar: AlgebraElement, theta: YoungTableau) -> tuple[AlgebraElement, Fraction]:
    """Scale ``bar``, on the line E_θ·A·E_φ, so that the result times its own
    dagger is E_θ; returns it and τ², the square of the scale.

    bar·bar† lies in E_θ·A·E_θ, the line of E_θ: bar·bar† = λ·E_θ.  As
    E_θ[e] = f_λ/m! = 1/H_λ, H_λ the hook product, λ = H_λ·Σ_g bar[g]², one
    dot product per radicand pair, and τ² = 1/λ, a positive rational; the
    positive root is taken.  A Hermitian bar c·E_θ is scaled to E_θ when
    c > 0, as for the mold's palindrome B·f·B†, f a Hermitian idempotent:
    c/H_λ = Σ_g (B·f)[g]² > 0.
    """
    if bar.is_zero():
        raise ValueError("product vanished; it lies in no Jucys–Murphy eigenspace")
    scale_sq = 1 / (theta.shape.hook_length() * _square_sum(bar).as_fraction())
    if scale_sq <= 0:
        raise ValueError(f"normalization square must be positive, got {scale_sq}")
    return bar.scale(Surd.sqrt(scale_sq)), scale_sq


def _normalize(
    bar: AlgebraElement, theta: YoungTableau, phi: YoungTableau
) -> tuple[AlgebraElement, Fraction]:
    """Check that ``bar``, a transition's bare product from ``phi`` to ``theta``
    or with θ = φ a Hermitian projector's, lies on the line E_θ·A·E_φ, then
    scale it by ``_unit``.

    Proof.  Content vectors separate standard tableaux, so X_k·a = c_θ(k)·a
    for k = 2..m puts a in E_θ·A, E_θ the Jucys–Murphy idempotent of θ
    (Okounkov–Vershik), and a·X_k = c_φ(k)·a puts it in A·E_φ.  One
    ``_fast.in_eigenspaces`` call checks the right sides on bar's vectors
    and, X_k being Hermitian, the left sides on bar†'s.
    """
    vecs = [vec for a in (bar, dagger(bar)) for _, vec in a._parts.values()]
    contents = [_contents(phi)] * len(bar._parts) + [_contents(theta)] * len(bar._parts)
    # a zero bar is on no line; ``_unit`` refuses it
    if vecs and not _fast.in_eigenspaces(bar.m, vecs, contents).all():
        raise ValueError("product is not in its tableaux' Jucys–Murphy eigenspaces")
    return _unit(bar, theta)


def alpha_formula(t: YoungTableau) -> Fraction:
    """Closed form for the Young normalization:
    (product of row lengths factorial) * (product of column lengths factorial)
    divided by the shape's hook length."""
    num = 1
    for r in t.shape.rows:
        num *= factorial(r)
    for c in t.shape.column_lengths():
        num *= factorial(c)
    return Fraction(num, t.shape.hook_length())


@cache
def young_projector(t: YoungTableau) -> Projector:
    """Rows symmetrized, then columns antisymmetrized, scaled by ``alpha_formula``."""
    alpha = Surd.rational(alpha_formula(t))
    bar = _times_sets(AlgebraElement.identity(t.n), [rows_of(t), columns_of(t)])
    return Projector(t, "young", bar.scale(alpha), alpha)


@cache
def hermitian_staircase(t: YoungTableau) -> Projector:
    """Palindromic ancestor product; Hermitian idempotent.

    Each Young projector is a multiple of its row set times its column set,
    so the sets are multiplied and the product normalised once.
    """
    n = t.n
    ancestors = [t.ancestor(k) for k in range(max(n - 2, 0), 0, -1)]
    pairs = [(rows_of(a, n), columns_of(a, n)) for a in ancestors]
    sets = [s for pair in pairs + [(rows_of(t), columns_of(t))] + pairs[::-1] for s in pair]
    element, tau_squared = _normalize(_times_sets(AlgebraElement.identity(n), sets), t, t)
    return Projector(t, "staircase", element, Surd.sqrt(tau_squared))


@cache
def mold_factors(t: YoungTableau) -> tuple[tuple[SymmetrizerSet, int], ...]:
    """The symmetrizer-set factor sequence of the shortened Hermitian
    construction, each tagged with its ancestor level (0 = the tableau
    itself).  The sequence is palindromic; the central triple alternates
    against the ancestor chain and contributes the level-0 sets.
    """
    n = t.n
    m = t.mold()
    row_branch = t.ancestor(m).is_row_ordered()  # ties resolve to the row form

    def factor(level: int, sym: bool) -> tuple[SymmetrizerSet, int]:
        anc = t.ancestor(level)
        return (rows_of(anc, n) if sym else columns_of(anc, n), level)

    def is_sym(level: int) -> bool:
        return row_branch if (m - level) % 2 == 0 else not row_branch

    prefix = [factor(k, is_sym(k)) for k in range(m, 0, -1)]
    center = [factor(0, is_sym(0)), factor(0, not is_sym(0)), factor(0, is_sym(0))]
    return tuple(prefix + center + list(reversed(prefix)))


def _level0_anti_indices(factors: tuple[tuple[SymmetrizerSet, int], ...]) -> list[int]:
    """Positions of the tableau's own full antisymmetrizer set in the sequence.

    Ancestor sets can coincide with the full set element-wise, so factors
    are selected by their recorded level rather than by set equality.
    """
    hits = [i for i, (s, level) in enumerate(factors) if level == 0 and s.kind == "anti"]
    if len(hits) not in (1, 2):
        raise ValueError(
            "malformed factor sequence: expected one or two full antisymmetrizer sets, "
            f"found {len(hits)}"
        )
    return hits


@cache
def _mold_prefix(t: YoungTableau) -> AlgebraElement:
    """The product of ``t``'s mold factors through its first full antisymmetrizer set."""
    factors = mold_factors(t)
    cut = _level0_anti_indices(factors)[0]
    return _times_sets(AlgebraElement.identity(t.n), [f for f, _ in factors[: cut + 1]])


def _mold_bar(theta: YoungTableau, phi: YoungTableau) -> AlgebraElement:
    """The bare mold product from ``phi``'s image onto ``theta``'s: θ's prefix
    through its cut antisymmetrizer set, ρ = ``tableau_permutation(θ, φ)``,
    then φ's sets after its cut, one set product at a time.

    θ is cut at its first full antisymmetrizer set, φ at its first when both
    sequences hold two (both cuts on one side) and at its last otherwise.
    As ρ carries the blocks of φ's cut set onto those of θ's, the cut sets
    match across ρ (A_θ·ρ = ρ·A_φ), and the product is a multiple of
    P_θ·ρ·P_φ; with θ = φ, ρ = e and it is the projector's palindrome.
    """
    before, after = mold_factors(theta), mold_factors(phi)
    hits_theta, hits_phi = _level0_anti_indices(before), _level0_anti_indices(after)
    cut = hits_phi[0] if len(hits_theta) == len(hits_phi) == 2 else hits_phi[-1]
    rho = tableau_permutation(theta, phi)
    a_theta, a_phi = before[hits_theta[0]][0], after[cut][0]
    carried = {tuple(sorted(map(rho, b))) for b in a_phi.blocks if len(b) > 1}
    if carried != {b for b in a_theta.blocks if len(b) > 1}:
        raise ValueError("cut antisymmetrizer sets do not match across the relabelling")
    return _times_sets(_mold_prefix(theta) * rho, [f for f, _ in after[cut + 1 :]])


@cache
def hermitian_mold(t: YoungTableau) -> Projector:
    """Shortened Hermitian construction, the transition from ``t`` to itself;
    equals hermitian_staircase exactly."""
    element, tau_squared = _normalize(_mold_bar(t, t), t, t)
    return Projector(t, "mold", element, Surd.sqrt(tau_squared))


# the canonical Hermitian projector, used by transitions and basis assembly
hermitian_projector = hermitian_mold


def dimension_poly(p: Projector) -> PolyN:
    """Dimension of the projector's invariant image as a polynomial in N."""
    return trace(p.element)
