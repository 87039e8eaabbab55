"""Exact arithmetic in the symmetric group S_m.

Permutations are stored in 1-based one-line form: ``images[i-1]`` is the image
of the point ``i``.  Products follow the operator convention -- the *right*
factor acts first::

    (p * q)(i) == p(q(i))

so e.g. ``transposition(3, 1, 2) * transposition(3, 1, 3)`` is the 3-cycle
mapping 1 -> 3, 3 -> 2, 2 -> 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache


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
