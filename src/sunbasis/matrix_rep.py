"""Concrete evaluation of algebra elements as exact matrices.

For an integer dimension ``n`` every permutation acts on the tensor power
of an ``n``-dimensional space by shuffling factors; extending linearly
turns any algebra element into an ``n**m`` by ``n**m`` matrix with surd
entries.  This makes statements that are invisible at the symbolic level
checkable: operators whose tableau has a column longer than ``n`` vanish
outright, and the rank of a surviving projector equals its dimension
polynomial evaluated at ``n``.

The matrix is built from a ``permutations.Terms`` table, in pure Python: an
element gives its table by ``term_table``, and ``sunbasis represent`` reads
one from the operator's JSON by ``terms_from_json``, so the command never
imports numpy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import TYPE_CHECKING

from ._linalg import surd_rank
from .coefficients import Surd, int_from_json, ints_from_json, surd_from_json, surd_to_json
from .permutations import Terms, _check_degree, all_permutations

if TYPE_CHECKING:
    from .algebra import AlgebraElement

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


def represent(a: AlgebraElement | Terms, n: int, *, cap: int = 10_000) -> ConcreteMatrix:
    """Exact matrix of an element, or of a term table, on the degree-``m``
    power of an ``n``-space.

    A permutation moves the tensor factor at slot ``k`` to the slot the
    permutation sends ``k`` to; equivalently, column ``t`` holds a single 1
    in the row whose index tuple reads ``t`` through the inverse
    permutation.  So digit ``t_j`` of the column adds ``t_j·n^(m − p(j))``
    to the row, and a term's cells are built up one digit at a time.  Terms
    with equal numerators are counted together, each cell sums its counts
    times their numerators, and each distinct sum is one ``Surd``.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    table = a if isinstance(a, Terms) else a.term_table()
    m = table.m
    size = n**m
    if size > cap:
        raise ValueError(
            f"matrix would have {size} rows, above the cap of {cap}; "
            f"pass cap={size} or more to allow it"
        )
    place = [n**k for k in range(m - 1, -1, -1)]  # of digit j in an index
    perms = all_permutations(m)
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for pos, key in zip(table.positions, zip(*(nums for _, nums in table.parts.values()))):
        if any(key):
            groups.setdefault(key, []).append(perms[pos].images)
    # per radicand, each cell's numerator, the cell being row·size + column
    sums: list[dict[int, int]] = [{} for _ in table.parts]
    for key, images in groups.items():
        counts: Counter = Counter()
        for image in images:
            cells = [0]
            for j, p in enumerate(image):
                step = place[p - 1] * size + place[j]
                cells = [t + c for t in range(0, n * step, step) for c in cells]
            counts.update(cells)
        for total, x in zip(sums, key):
            if x and total:
                get = total.get
                for cell, c in counts.items():
                    total[cell] = get(cell, 0) + c * x
            elif x:
                total.update(zip(counts, map(x.__mul__, counts.values())))
    scales = [(d, denom) for d, (denom, _) in table.parts.items()]
    surds: dict[tuple[int, ...], Surd] = {}  # one per distinct tuple of numerators
    entries = {}
    cells = list(set().union(*sums))
    for cell, key in zip(cells, zip(*(map(total.get, cells, repeat(0)) for total in sums))):
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
    """The wire form; each distinct entry object is written once, found by
    identity, as ``represent`` shares one ``Surd`` per distinct value."""
    distinct = {id(v): v for v in c.entries.values()}
    wire = {k: surd_to_json(v) for k, v in distinct.items()}
    return {
        "n": c.n,
        "m": c.m,
        "size": c.size,
        "entries": [[r, col, wire[id(v)]] for (r, col), v in sorted(c.entries.items())],
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
