"""The group algebra of S_m over the surd field, with an N-dependent trace.

An ``AlgebraElement`` is a finite formal sum of permutations of a common
degree m with ``Surd`` coefficients.  It is stored as one exact integer
vector per squarefree radicand d, indexed by the lexicographic order of S_m:

    element  =  sum over d of  sqrt(d) / denom_d * vector_d

In canonical form every vector is nonzero, its denominator shares no factor
with all of its entries, and it is int64 exactly when every entry lies below
2**24 (Python integers otherwise), so equal elements have equal vectors.
With m ≤ ``permutations._MAX_DEGREE`` = 7 that bound keeps every sum of m!
products of stored entries in int64; only ``scale`` checks, through
``_fast._times``.  Coefficients, supports, term counts and the term table
that ``matrix_rep.represent`` reads are views derived from the vectors.

The product is the convolution induced by group multiplication (right factor
acts first, matching ``permutations.compose``).  ``multiply`` is the one
caller of ``_fast.convolve``, one row loop through the (m!)² composition
table, and so the one reader of that table; ``*`` by a ``Permutation``, on
either side, is one gather of the vectors by ``_translate``.  ``dagger``
maps every permutation to its inverse and is an anti-automorphism;
``trace`` weights each permutation by N^(cycle count), producing a
polynomial in the symbolic dimension N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Iterator, Optional, Union

from . import _fast
from ._fast import np
from .coefficients import LATEX, PolyN, Surd, SurdLike, squarefree_decompose, write_sum
from .permutations import (
    Permutation,
    Terms,
    _check_degree,
    all_permutations,
    latex_permutation,
    permutation_index,
    radicand_parts,
    terms_from_json,
)

_Scalar = Union[int, Fraction, Surd]


class AlgebraElement:
    """A Q(sqrt)-linear combination of permutations of fixed degree."""

    __slots__ = ("m", "_parts")

    def __init__(self, m: int, terms: dict[Permutation, SurdLike] | None = None):
        _check_degree(m)
        index, positions, values = permutation_index(m), [], []
        for p, c in (terms or {}).items():
            if p.degree != m:
                raise ValueError(f"term degree {p.degree} != element degree {m}")
            for d, q in Surd._coerce(c).terms():
                positions.append(index[p.images])
                values.append((d, q.numerator, q.denominator))
        parts = _parts_of(Terms(m, positions, radicand_parts(values, range(len(values)))))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_parts", parts)

    @classmethod
    def _raw(cls, m: int, parts: _fast.Parts) -> "AlgebraElement":
        """Trusted constructor: vectors already canonical."""
        el = object.__new__(cls)
        object.__setattr__(el, "m", m)
        object.__setattr__(el, "_parts", parts)
        return el

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(m: int) -> "AlgebraElement":
        return AlgebraElement(m)

    @staticmethod
    def identity(m: int) -> "AlgebraElement":
        return _identity(m)

    @staticmethod
    def from_permutation(p: Permutation, coeff: SurdLike = 1) -> "AlgebraElement":
        return AlgebraElement(p.degree, {p: Surd._coerce(coeff)})

    # -- inspection --------------------------------------------------------

    def _positions(self) -> np.ndarray:
        """Canonical positions with a nonzero coefficient, ascending."""
        mask = np.zeros(factorial(self.m), dtype=bool)
        for _, vec in self._parts.values():
            mask |= vec != 0
        return np.flatnonzero(mask)

    def _coefficient_at(self, pos: int) -> Surd:
        return Surd(
            {d: Fraction(int(vec[pos]), denom) for d, (denom, vec) in self._parts.items()}
        )

    def coefficient(self, p: Permutation) -> Surd:
        pos = permutation_index(self.m).get(p.images)
        return Surd() if pos is None else self._coefficient_at(pos)

    def support(self) -> tuple[Permutation, ...]:
        perms = all_permutations(self.m)
        return tuple(perms[pos] for pos in self._positions().tolist())

    def items(self) -> Iterator[tuple[Permutation, Surd]]:
        perms = all_permutations(self.m)
        return ((perms[pos], self._coefficient_at(pos)) for pos in self._positions().tolist())

    def term_count(self) -> int:
        return len(self._positions())

    def term_table(self) -> Terms:
        """The support and, per radicand, its numerators: what
        ``matrix_rep.represent`` reads."""
        support = self._positions()
        parts = {d: (denom, vec[support].tolist()) for d, (denom, vec) in self._parts.items()}
        return Terms(self.m, support.tolist(), parts)

    def is_zero(self) -> bool:
        return not self._parts

    def __bool__(self) -> bool:
        return bool(self._parts)

    # -- linear structure -------------------------------------------------

    def _require_same_degree(self, other: "AlgebraElement") -> None:
        if self.m != other.m:
            raise ValueError(f"degree mismatch: {self.m} != {other.m}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_degree(other)
        return AlgebraElement._raw(self.m, _fast.add(self._parts, other._parts))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._raw(
            self.m, {d: (denom, -vec) for d, (denom, vec) in self._parts.items()}
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c: _Scalar) -> "AlgebraElement":
        # q·√e times √d/denom·vec is √s·(q·g·vec)/denom with √d·√e = g·√s
        acc: dict = {}
        for e, q in Surd._coerce(c).terms():
            for d, (denom, vec) in self._parts.items():
                root, whole = squarefree_decompose(d * e)
                scaled = _fast._times(vec, q.numerator * whole)
                _fast._accumulate(acc, root, denom * q.denominator, scaled)
        return AlgebraElement._raw(self.m, _fast.canonical(acc))

    def __rmul__(self, c):  # scalar or permutation * element
        if isinstance(c, Permutation):
            return _translate(self, c, left=True)
        if isinstance(c, (int, Fraction, Surd)):
            return self.scale(c)
        return NotImplemented

    # -- multiplicative structure ------------------------------------------

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        if isinstance(other, Permutation):
            return _translate(self, other, left=False)
        if isinstance(other, (int, Fraction, Surd)):
            return self.scale(other)
        return NotImplemented

    def dagger(self) -> "AlgebraElement":
        return dagger(self)

    def trace(self) -> PolyN:
        return trace(self)

    def embed(self, m: int) -> "AlgebraElement":
        """View as an element of the S_m algebra (each permutation padded)."""
        if m < self.m:
            raise ValueError(f"cannot embed degree {self.m} into degree {m}")
        _check_degree(m)
        where = _embedding(self.m, m)
        parts = {}
        for d, (denom, vec) in self._parts.items():
            padded = np.zeros(factorial(m), dtype=vec.dtype)
            padded[where] = vec
            parts[d] = (denom, padded)
        return AlgebraElement._raw(m, parts)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.m != other.m or self._parts.keys() != other._parts.keys():
            return False
        return all(
            denom == other._parts[d][0] and np.array_equal(vec, other._parts[d][1])
            for d, (denom, vec) in self._parts.items()
        )

    def __hash__(self) -> int:
        vectors = tuple((d, denom, tuple(vec.tolist())) for d, (denom, vec) in self._parts.items())
        return hash((self.m, vectors))

    def __repr__(self) -> str:
        return f"AlgebraElement(m={self.m}, {self})"

    def __str__(self) -> str:
        if not self._parts:
            return "0"
        parts = []
        for p, c in self.items():
            cs = f"({c})" if len(c.terms()) > 1 else str(c)
            parts.append(f"{cs}*{p}")
        return " + ".join(parts)


def latex_element(a: AlgebraElement) -> str:
    """A signed sum of coefficients times permutations in cycle notation."""
    return write_sum(((c, latex_permutation(p)) for p, c in a.items()), LATEX, "\\,")


def _parts_of(t: Terms) -> _fast.Parts:
    """Canonical vectors of a term table: one scatter of its numerators per radicand."""
    where = np.array(t.positions, dtype=np.intp)
    acc = {
        d: (denom, _fast.scatter(factorial(t.m), where, _fast.vector(nums)))
        for d, (denom, nums) in t.parts.items()
    }
    return _fast.canonical(acc)


@cache
def _identity(m: int) -> AlgebraElement:
    return AlgebraElement(m, {Permutation.identity(m): Surd.rational(1)})


@cache
def _embedding(k: int, m: int) -> np.ndarray:
    """Positions in S_m of the degree-k permutations padded with fixed points."""
    images = _fast.lexicographic(k)[0]
    return _fast.positions(m, np.c_[images, np.tile(np.arange(k, m), (len(images), 1))])


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution product; the right factor acts first."""
    a._require_same_degree(b)
    return AlgebraElement._raw(a.m, _fast.convolve(a.m, a._parts, b._parts))


def _translate(a: AlgebraElement, p: Permutation, *, left: bool) -> AlgebraElement:
    """p·a when ``left``, else a·p: one gather of the images, no product."""
    if a.m != p.degree:
        first, second = (p.degree, a.m) if left else (a.m, p.degree)
        raise ValueError(f"degree mismatch: {first} != {second}")
    images, r = _fast.lexicographic(a.m)[0], np.array(p.inverse().images) - 1
    # (p·a)[q] = a[p⁻¹·q] and (a·p)[q] = a[q·p⁻¹]
    where = _fast.positions(a.m, r[images] if left else images[:, r])
    return AlgebraElement._raw(a.m, {d: (denom, vec[where]) for d, (denom, vec) in a._parts.items()})


def dagger(a: AlgebraElement) -> AlgebraElement:
    """The linear anti-automorphism sending each permutation to its inverse."""
    inv = _fast.inverse_table(a.m)
    return AlgebraElement._raw(
        a.m, {d: (denom, vec[inv]) for d, (denom, vec) in a._parts.items()}
    )


def trace(a: AlgebraElement) -> PolyN:
    """Sum of coeff * N^(cycle count) over all terms, as a polynomial in N."""
    cycles = _fast.cycle_count_vector(a.m)
    poly = PolyN()
    for d, (denom, vec) in a._parts.items():
        sums = np.zeros(a.m + 1, dtype=vec.dtype)
        np.add.at(sums, cycles, vec)
        poly = poly + PolyN({k: Surd({d: Fraction(s, denom)}) for k, s in enumerate(sums.tolist())})
    return poly


def scalar_product(a: AlgebraElement, b: AlgebraElement) -> PolyN:
    """<a, b> = trace(dagger(a) * b); symmetric and positive definite for N >= m."""
    return trace(multiply(dagger(a), b))


def _square_sum(a: AlgebraElement) -> Surd:
    """Σ_g a[g]², the identity coefficient of a·a†: one dot product per radicand pair."""
    total = Surd()
    for d, (p, v) in a._parts.items():
        for e, (q, w) in a._parts.items():
            total = total + Surd({d * e: Fraction(int(v @ w), p * q)})
    return total


def proportionality(a: AlgebraElement, b: AlgebraElement) -> Optional[Surd]:
    """The scalar c with a == c*b if one exists (b nonzero), else None.

    Prefers the identity permutation's coefficient as the probe when present.
    """
    a._require_same_degree(b)
    if b.is_zero():
        return None
    if a.is_zero():
        return Surd()
    pos = int(b._positions()[0])  # the identity is position 0
    c = a._coefficient_at(pos) / b._coefficient_at(pos)
    return c if a == b.scale(c) else None


# -- JSON wire format -----------------------------------------------------
#
# operator -> {"m": int, "terms": [{"perm": [one-line ints], "coeff": surd}]}
# with terms sorted by one-line form; bit-exact round trip.  Both directions
# pass over the stored vectors in bulk and make no Permutation, Surd or
# Fraction per term; only a rational spelt other than the canonical "p/q"
# is read through a Fraction.  ``permutations.terms_from_json`` reads the
# wire form into plain integers without numpy.


def element_to_json(a: AlgebraElement) -> dict:
    """The wire form of ``a``: its support's images off the lexicographic
    table, and each radicand's entries in lowest terms by one ``np.gcd``."""
    support = a._positions()
    # per radicand, ascending: each support term's [d, "p/q"], or None at a zero
    columns = []
    for d, (denom, vec) in a._parts.items():
        nums, dens = _fast.lowest_terms(denom, vec[support])
        fractions = zip(nums.tolist(), dens.tolist())
        columns.append([[d, f"{n}/{q}"] if n else None for n, q in fractions])
    images = (_fast.lexicographic(a.m)[0][support] + 1).tolist()
    return {
        "m": a.m,
        "terms": [
            {"perm": p, "coeff": [pair for pair in row if pair]}
            for p, row in zip(images, zip(*columns))
        ],
    }


def element_from_json(obj: dict) -> AlgebraElement:
    """Parse the wire format straight into vectors; malformed input raises
    ValueError.  ``terms_from_json`` reads the terms, and ``_parts_of``
    scatters them."""
    t = terms_from_json(obj)
    return AlgebraElement._raw(t.m, _parts_of(t))
