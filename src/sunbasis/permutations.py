"""Exact arithmetic in the symmetric group S_m.

Permutations are stored in 1-based one-line form: ``images[i-1]`` is the image
of the point ``i``.  Products follow the operator convention -- the *right*
factor acts first::

    (p * q)(i) == p(q(i))

so e.g. ``transposition(3, 1, 2) * transposition(3, 1, 3)`` is the 3-cycle
mapping 1 -> 3, 3 -> 2, 2 -> 1.

A formal sum of permutations is read from its JSON wire form here too, by
``terms_from_json``, into a ``Terms`` table of plain integers: the group
algebra's vectors are one numpy scatter of that table away, and a concrete
matrix is built from the table itself, so neither reading the wire form
nor ``sunbasis represent`` needs numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import lcm
from operator import countOf
from typing import Iterable, NamedTuple

from .coefficients import (
    int_from_json,
    ints_from_json,
    rational_from_json,
    rationals_from_json,
    squarefree_decompose,
)

# A dense vector has m! entries and a product needs an (m!)^2 table.
_MAX_DEGREE = 7


def _check_degree(m: int) -> None:
    if not 1 <= m <= _MAX_DEGREE:
        raise ValueError(f"degree must be between 1 and {_MAX_DEGREE}, got {m}")


@dataclass(frozen=True, order=True)
class Permutation:
    """An element of S_m in one-line form (1-based)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.images)
        if sorted(self.images) != list(range(1, m + 1)):
            raise ValueError(f"not a permutation of 1..{m}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(m: int) -> "Permutation":
        if m < 0:
            raise ValueError("degree must be >= 0")
        return Permutation(tuple(range(1, m + 1)))

    @staticmethod
    def transposition(m: int, i: int, j: int) -> "Permutation":
        """The transposition (i j) in S_m."""
        if not (1 <= i <= m and 1 <= j <= m and i != j):
            raise ValueError(f"bad transposition ({i} {j}) in S_{m}")
        images = list(range(1, m + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    @staticmethod
    def from_cycles(m: int, cycles: tuple[tuple[int, ...], ...]) -> "Permutation":
        """Build a permutation of S_m from disjoint cycles.

        >>> Permutation.from_cycles(3, ((1, 3, 2),)).images
        (3, 1, 2)
        """
        images = list(range(1, m + 1))
        seen: set[int] = set()
        for cyc in cycles:
            for a in cyc:
                if not 1 <= a <= m:
                    raise ValueError(f"cycle entry {a} outside 1..{m}")
                if a in seen:
                    raise ValueError(f"cycles not disjoint at {a}")
                seen.add(a)
            for k, a in enumerate(cyc):
                images[a - 1] = cyc[(k + 1) % len(cyc)]
        return Permutation(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return inverse(self)

    def sign(self) -> int:
        return sign(self)

    def cycle_count(self) -> int:
        return cycle_count(self)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles (fixed points omitted), each starting at its minimum."""
        out: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for start in range(1, self.degree + 1):
            cyc, j = [], start
            while j not in seen:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def embed(self, m: int) -> "Permutation":
        return embed(self, m)

    def written(self, sep: str = " ", identity: str = "id") -> str:
        """Cycle notation, entries split by ``sep``; ``identity`` for no cycle."""
        cycs = self.cycles()
        if not cycs:
            return identity
        return "".join("(" + sep.join(map(str, c)) + ")" for c in cycs)

    __str__ = written


def latex_permutation(p: Permutation) -> str:
    return p.written("\\,", "\\mathrm{id}")


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product p*q, with q applied first: (p*q)(i) = p(q(i))."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    pi = p.images
    return Permutation(tuple(pi[qi - 1] for qi in q.images))


def inverse(p: Permutation) -> Permutation:
    images = [0] * p.degree
    for i, j in enumerate(p.images, start=1):
        images[j - 1] = i
    return Permutation(tuple(images))


def cycle_count(p: Permutation) -> int:
    """Number of cycles of p, *including* fixed points."""
    return p.degree - sum(len(c) - 1 for c in p.cycles())


def sign(p: Permutation) -> int:
    # parity of m minus number of cycles
    return -1 if (p.degree - cycle_count(p)) % 2 else 1


def embed(p: Permutation, m: int) -> Permutation:
    """View p as an element of S_m fixing degree+1 .. m."""
    if m < p.degree:
        raise ValueError(f"cannot embed degree {p.degree} into S_{m}")
    return Permutation(p.images + tuple(range(p.degree + 1, m + 1)))


@cache
def all_permutations(m: int) -> tuple[Permutation, ...]:
    """All of S_m in lexicographic one-line order."""
    return tuple(Permutation(t) for t in itertools.permutations(range(1, m + 1)))


@cache
def permutation_index(m: int) -> dict[tuple[int, ...], int]:
    """Map each degree-``m`` permutation's one-line images to its position."""
    return {p.images: i for i, p in enumerate(all_permutations(m))}


# -- JSON wire format -----------------------------------------------------
#
# operator -> {"m": int, "terms": [{"perm": [one-line ints], "coeff": surd}]}
# A permutation may repeat and a coefficient need not be canonical: a
# radicand is any positive integer and a rational any text ``Fraction`` reads.


class Terms(NamedTuple):
    """A sum of degree-``m`` permutations as plain integers, not canonical.

    Term k is the permutation at ``positions[k]`` in ``all_permutations(m)``
    times Σ_d √d·nums[k]/denom over the items d: (denom, nums) of
    ``parts``, one per squarefree radicand, ascending.  A position may
    repeat and a numerator may be 0.
    """

    m: int
    positions: list[int]
    parts: dict[int, tuple[int, list[int]]]


def radicand_parts(
    values: list[tuple[int, int, int]], which: Iterable[int]
) -> dict[int, tuple[int, list[int]]]:
    """The ``parts`` of terms whose coefficients are num/den·√d for the
    values (d, num, den) at ``which``: per squarefree root of d, one lcm of
    its values' denominators and each term's numerator over it."""
    roots = [squarefree_decompose(d) for d, _, _ in values]
    parts = {}
    for r in sorted({s for s, _ in roots}):
        denom = lcm(*(q for (s, _), (_, _, q) in zip(roots, values) if s == r))
        scaled = [x * g * (denom // q) if s == r else 0 for (s, g), (_, x, q) in zip(roots, values)]
        parts[r] = (denom, list(map(scaled.__getitem__, which)))
    return parts


def terms_from_json(obj: dict) -> Terms:
    """Read the wire format into a ``Terms`` table; malformed input raises ValueError.

    The terms' positions, radicands and coefficient texts are gathered in bulk,
    and each distinct (radicand, text) pair is read once: ``rationals_from_json``
    reads the canonical ``p/q`` all at once, any other spelling as ``Fraction``
    does.  Every term is one table row per pair of its coefficient.
    """
    if not isinstance(obj, dict) or "m" not in obj or "terms" not in obj:
        raise ValueError("operator JSON must have 'm' and 'terms'")
    m = int_from_json(obj["m"])
    _check_degree(m)
    terms = obj["terms"]
    if not isinstance(terms, list):
        raise ValueError(f"operator 'terms' must be a list, got {terms!r}")
    index = permutation_index(m)
    try:
        perms = [tuple(t["perm"]) for t in terms]
        coeffs = [t["coeff"] for t in terms]
        counts = list(map(len, coeffs))
        pairs = list(itertools.chain.from_iterable(coeffs))
        radicands = [d for d, _ in pairs]
        texts = [c for _, c in pairs]
    except (KeyError, TypeError):
        raise ValueError(
            "operator terms must be {'perm': [ints], 'coeff': [[d, 'p/q'], ...]} objects"
        ) from None
    positions = list(map(index.get, perms))
    entries = itertools.chain.from_iterable(perms)
    if None in positions or countOf(map(type, entries), int) != m * len(perms):
        for t in terms:  # say what is wrong
            images = ints_from_json(t["perm"])
            if index.get(images) is None:
                raise ValueError(f"term degree {Permutation(images).degree} != element degree {m}")
    if countOf(map(type, radicands), int) != len(radicands):
        int_from_json(next(d for d in radicands if type(d) is not int))
    if countOf(map(type, texts), str) != len(texts):
        rational_from_json(next(c for c in texts if type(c) is not str))
    codes = dict.fromkeys(zip(radicands, texts))  # each distinct pair, then its index
    nums, dens = rationals_from_json([c for _, c in codes])
    values = [(d, x, q) for (d, _), x, q in zip(codes, nums, dens)]
    codes.update(zip(codes, range(len(codes))))
    which = list(map(codes.__getitem__, zip(radicands, texts)))
    rows = itertools.chain.from_iterable(map(itertools.repeat, positions, counts))  # one per pair
    return Terms(m, list(rows), radicand_parts(values, which))
