"""Concrete evaluation of algebra elements as exact matrices.

For an integer dimension ``n`` every permutation acts on the tensor power
of an ``n``-dimensional space by shuffling factors; extending linearly
turns any algebra element into an ``n**m`` by ``n**m`` matrix with surd
entries.  This makes statements that are invisible at the symbolic level
checkable: operators whose tableau has a column longer than ``n`` vanish
outright, and the rank of a surviving projector equals its dimension
polynomial evaluated at ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _fast
from ._linalg import surd_rank
from .algebra import AlgebraElement, _check_degree
from .coefficients import Surd, int_from_json, ints_from_json, surd_from_json, surd_to_json

__all__ = [
    "ConcreteMatrix",
    "represent",
    "rank",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True, eq=False, slots=True)
class ConcreteMatrix:
    """Sparse square matrix over the surd field, indexed 0..n**m - 1.

    Entries map (row, column) to a nonzero Surd; absent pairs are zero, and
    an entry outside the matrix raises ValueError.
    """

    n: int
    m: int
    entries: dict[tuple[int, int], Surd] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("both dimensions must be positive")
        size, cleaned = self.size, {}
        for pos, v in self.entries.items():
            r, c = pos
            if not (0 <= r < size and 0 <= c < size):
                raise ValueError(f"matrix entry {pos} outside 0..{size - 1}")
            if v:
                cleaned[pos] = v
        object.__setattr__(self, "entries", cleaned)

    @property
    def size(self) -> int:
        return self.n**self.m

    def is_zero(self) -> bool:
        return not self.entries

    def entry(self, row: int, col: int) -> Surd:
        return self.entries.get((row, col), Surd())

    def transpose(self) -> "ConcreteMatrix":
        return ConcreteMatrix(
            self.n, self.m, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def trace(self) -> Surd:
        total = Surd()
        for (r, c), v in self.entries.items():
            if r == c:
                total = total + v
        return total

    def __add__(self, other: "ConcreteMatrix") -> "ConcreteMatrix":
        self._check_compatible(other)
        merged = dict(self.entries)
        for pos, v in other.entries.items():
            merged[pos] = merged.get(pos, Surd()) + v
        return ConcreteMatrix(self.n, self.m, merged)

    def __matmul__(self, other: "ConcreteMatrix") -> "ConcreteMatrix":
        self._check_compatible(other)
        by_row: dict[int, list[tuple[int, Surd]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], Surd] = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                pos = (r, c)
                out[pos] = out.get(pos, Surd()) + v * w
        return ConcreteMatrix(self.n, self.m, out)

    def scale(self, factor: Surd) -> "ConcreteMatrix":
        return ConcreteMatrix(
            self.n, self.m, {pos: v * factor for pos, v in self.entries.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConcreteMatrix):
            return NotImplemented
        return (
            self.n == other.n and self.m == other.m and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"ConcreteMatrix(n={self.n}, m={self.m}, nonzeros={len(self.entries)})"

    def _check_compatible(self, other: "ConcreteMatrix") -> None:
        if self.n != other.n or self.m != other.m:
            raise ValueError("matrices act on different tensor spaces")


def represent(a: AlgebraElement, n: int, *, cap: int = 10_000) -> ConcreteMatrix:
    """Exact matrix of an element on the degree-``m`` power of an ``n``-space.

    A permutation moves the tensor factor at slot ``k`` to the slot the
    permutation sends ``k`` to; equivalently, column ``t`` holds a single 1
    in the row whose index tuple reads ``t`` through the inverse
    permutation.  Elements extend linearly: each cell sums its terms'
    numerators in one array pass, and each distinct sum is one ``Surd``.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    size = n**a.m
    if size > cap:
        raise ValueError(
            f"matrix would have {size} rows, above the cap of {cap}; "
            f"pass cap={size} or more to allow it"
        )
    m = a.m
    if a.is_zero():
        return ConcreteMatrix(n, m)
    powers = n ** np.arange(m - 1, -1, -1)
    cols = np.arange(size)
    digits = cols[:, None] // powers % n  # column t's index tuple
    support = a._positions()
    # the zero-based images of each support permutation's inverse
    inverses = _fast.lexicographic(m)[0][_fast.inverse_table(m)[support]]
    rows = np.concatenate([digits[:, inv] @ powers for inv in inverses])
    cells, where = np.unique(rows * size + np.tile(cols, len(support)), return_inverse=True)
    # per radicand, each cell's numerator: the sum of its terms' entries
    scales, sums = [], []
    for d, (denom, vec) in a._parts.items():
        total = np.zeros(len(cells), dtype=vec.dtype)
        np.add.at(total, where, np.repeat(vec[support], size))
        scales.append((d, denom))
        sums.append(total.tolist())
    surds: dict[tuple, Surd] = {}  # one per distinct tuple of numerators
    entries = {}
    for cell, key in zip(cells.tolist(), zip(*sums)):
        if any(key):
            if key not in surds:
                surds[key] = Surd({d: Fraction(x, denom) for (d, denom), x in zip(scales, key)})
            entries[divmod(cell, size)] = surds[key]
    return ConcreteMatrix(n, m, entries)


def rank(c: ConcreteMatrix) -> int:
    """Exact rank over the surd field.

    The nonzero entries are grouped into sparse rows, one rational row per
    radicand, so the work scales with the nonzeros; ``surd_rank`` ranks them
    by their rational coordinates.
    """
    rows: dict[int, dict[int, dict[int, Fraction]]] = {}
    for (r, col), v in c.entries.items():
        row = rows.setdefault(r, {})
        for d, x in v.terms():
            row.setdefault(d, {})[col] = x
    return surd_rank([rows[r] for r in sorted(rows)])


# -- JSON wire format ---------------------------------------------------------


def matrix_to_json(c: ConcreteMatrix) -> dict:
    wire = {v: surd_to_json(v) for v in set(c.entries.values())}
    return {
        "n": c.n,
        "m": c.m,
        "size": c.size,
        "entries": [[r, col, wire[v]] for (r, col), v in sorted(c.entries.items())],
    }


def matrix_from_json(obj: dict) -> ConcreteMatrix:
    """Parse a concrete matrix; malformed input, an entry outside it included, raises ValueError."""
    if not isinstance(obj, dict) or not {"n", "m", "entries"} <= obj.keys():
        raise ValueError("matrix JSON must have 'n', 'm' and 'entries'")
    n, m = int_from_json(obj["n"]), int_from_json(obj["m"])
    _check_degree(m)
    try:
        entries = {ints_from_json((r, c)): surd_from_json(v) for r, c, v in obj["entries"]}
    except TypeError:
        raise ValueError("matrix entries must be [row, col, surd] triples") from None
    return ConcreteMatrix(n, m, entries)
