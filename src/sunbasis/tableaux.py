"""Young diagrams and standard Young tableaux, with the ancestor structure
used by the projector constructions.

Conventions:

* A diagram is a weakly decreasing tuple of positive row lengths.
* A standard tableau stores its filling as a tuple of row tuples; entries
  1..n each appear once, increasing along rows and down columns.
* ``parent`` removes the box holding the largest entry; ``ancestor(t, k)``
  iterates that k times.  ``descendants`` are the valid one-box extensions.
* The *row word* reads the filling row-wise top to bottom, the *column word*
  column-wise left to right.  A tableau is row-/column-ordered when the
  corresponding word is (1, 2, ..., n).
* ``mold(t)`` is the smallest k for which ``ancestor(t, k)`` is ordered
  (0 if t itself is).  It is bounded by n - 3 for n >= 3 because every
  3-box standard tableau is ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial

from .coefficients import PolyN, ints_from_json
from .permutations import Permutation


@dataclass(frozen=True, order=True)
class YoungDiagram:
    """A partition drawn as left-justified rows of boxes."""

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("diagram needs at least one row")
        if any(r < 1 for r in self.rows):
            raise ValueError(f"row lengths must be positive: {self.rows}")
        if any(self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise ValueError(f"row lengths must weakly decrease: {self.rows}")

    @property
    def n(self) -> int:
        return sum(self.rows)

    def conjugate(self) -> "YoungDiagram":
        cols = tuple(
            sum(1 for r in self.rows if r > c) for c in range(self.rows[0])
        )
        return YoungDiagram(cols)

    def column_lengths(self) -> tuple[int, ...]:
        return self.conjugate().rows

    def hook_length(self) -> int:
        """Product over boxes of (arm + leg + 1), computed once per diagram."""
        return self._hook_product

    @cached_property
    def _hook_product(self) -> int:
        cols = self.column_lengths()
        h = 1
        for i, r in enumerate(self.rows):
            for j in range(r):
                h *= (r - j - 1) + (cols[j] - i - 1) + 1
        return h

    def tableau_count(self) -> int:
        """Number of standard fillings, n! / hook_length."""
        return factorial(self.n) // self.hook_length()


def dimension_formula(shape: YoungDiagram) -> PolyN:
    """Image dimension as a polynomial in N, from the shape alone.

    Product over boxes of (N + column - row), divided by the shape's hook
    length.  Agrees with ``projectors.dimension_poly`` of any projector of
    that shape but needs no group-algebra products, so it stays cheap at
    high degree; the product has integer coefficients, divided once.
    """
    coeffs = [1]  # of N^0, N^1, ...: (N + c)·Σ a_k N^k = Σ (a_{k-1} + c·a_k) N^k
    for i, r in enumerate(shape.rows):
        for j in range(r):
            coeffs = [a + (j - i) * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return PolyN({k: Fraction(a, shape.hook_length()) for k, a in enumerate(coeffs)})


def partitions(n: int) -> tuple[YoungDiagram, ...]:
    """All diagrams with n boxes in reverse-lexicographic (descending) order,
    e.g. (4), (3,1), (2,2), (2,1,1), (1,1,1,1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    def gen(rest: int, maxpart: int) -> list[tuple[int, ...]]:
        if rest == 0:
            return [()]
        out = []
        for first in range(min(rest, maxpart), 0, -1):
            out.extend((first,) + tail for tail in gen(rest - first, first))
        return out

    return tuple(YoungDiagram(p) for p in gen(n, n))


@dataclass(frozen=True, order=True)
class YoungTableau:
    """A standard filling of a Young diagram."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.shape.n  # building the shape validates it
        entries = [e for row in self.rows for e in row]
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"entries must be 1..{n} exactly once: {self.rows}")
        for row in self.rows:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"row not increasing: {row}")
        for i in range(len(self.rows) - 1):
            upper, lower = self.rows[i], self.rows[i + 1]
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise ValueError(f"column not increasing at rows {i},{i+1}")

    def __hash__(self) -> int:
        # the filling's tuple hash: every tableau-keyed cache reads it, and the
        # dataclass hash of a one-field tuple costs about three times as much
        return hash(self.rows)

    @cached_property
    def shape(self) -> YoungDiagram:
        """The diagram of the filling, built once per tableau."""
        return YoungDiagram(tuple(len(r) for r in self.rows))

    @property
    def n(self) -> int:
        return sum(map(len, self.rows))

    def columns(self) -> tuple[tuple[int, ...], ...]:
        ncols = len(self.rows[0])
        return tuple(
            tuple(row[c] for row in self.rows if len(row) > c) for c in range(ncols)
        )

    def row_word(self) -> tuple[int, ...]:
        return tuple(e for row in self.rows for e in row)

    def column_word(self) -> tuple[int, ...]:
        return tuple(e for col in self.columns() for e in col)

    def is_row_ordered(self) -> bool:
        return self.row_word() == tuple(range(1, self.n + 1))

    def is_column_ordered(self) -> bool:
        return self.column_word() == tuple(range(1, self.n + 1))

    def is_ordered(self) -> bool:
        return self.is_row_ordered() or self.is_column_ordered()

    # -- ancestry ----------------------------------------------------------

    def parent(self) -> "YoungTableau":
        """Remove the box holding the largest entry (n must be >= 2)."""
        if self.n < 2:
            raise ValueError("a single-box tableau has no parent")
        n = self.n
        rows = []
        for row in self.rows:
            if row and row[-1] == n:
                row = row[:-1]
            if row:
                rows.append(row)
        return YoungTableau(tuple(rows))

    def ancestor(self, k: int) -> "YoungTableau":
        """The k-th iterated parent; k = 0 is the tableau itself."""
        if not 0 <= k <= self.n - 1:
            raise ValueError(f"ancestor level {k} out of range for n={self.n}")
        t = self
        for _ in range(k):
            t = t.parent()
        return t

    def descendants(self) -> tuple["YoungTableau", ...]:
        """All standard tableaux with one more box whose parent is this one."""
        n = self.n
        out = []
        for i in range(len(self.rows) + 1):
            if i == len(self.rows):
                rows = self.rows + ((n + 1,),)
            elif i == 0 or len(self.rows[i]) < len(self.rows[i - 1]):
                rows = tuple(
                    row + (n + 1,) if j == i else row
                    for j, row in enumerate(self.rows)
                )
            else:
                continue
            out.append(YoungTableau(rows))
        return tuple(out)

    def mold(self) -> int:
        """Smallest k with ancestor(self, k) ordered; <= n-3 for n >= 3."""
        t = self
        for k in range(self.n):
            if t.is_ordered():
                return k
            t = t.parent()
        raise AssertionError("single-box ancestor is always ordered")

    def __str__(self) -> str:
        return "|".join(",".join(map(str, row)) for row in self.rows)


def tableau_permutation(theta: YoungTableau, phi: YoungTableau) -> Permutation:
    """The permutation carrying phi's filling onto theta's, cell by cell.

    theta and phi must share a shape; the result rho satisfies
    rho(phi[r][c]) = theta[r][c] for every cell, so conjugating by rho maps
    operators built from phi's rows/columns to operators built from theta's.
    """
    if theta.shape != phi.shape:
        raise ValueError(f"shape mismatch: {theta.shape.rows} != {phi.shape.rows}")
    images = [0] * theta.n
    for rt, rp in zip(theta.rows, phi.rows):
        for a, b in zip(rt, rp):
            images[b - 1] = a
    return Permutation(tuple(images))


@cache
def _contents(t: YoungTableau) -> tuple[int, ...]:
    """c_T(k) at [k - 1]: the column minus the row of the box holding k."""
    contents = [0] * t.n
    for i, row in enumerate(t.rows):
        for j, e in enumerate(row):
            contents[e - 1] = j - i
    return tuple(contents)


@cache
def tableaux_of_shape(diagram: YoungDiagram) -> tuple[YoungTableau, ...]:
    """All standard tableaux of one shape, ascending by lexicographic row word."""
    n = diagram.n

    def build(t: tuple[tuple[int, ...], ...], entry: int) -> list:
        if entry > n:
            return [YoungTableau(t)]
        out = []
        for i in range(len(diagram.rows)):
            if i > len(t):
                break  # cannot start a row below an unstarted one
            cur = len(t[i]) if i < len(t) else 0
            if cur >= diagram.rows[i]:
                continue
            if i > 0 and len(t[i - 1]) <= cur:
                continue
            grown = (
                tuple((t[j] + (entry,)) if j == i else t[j] for j in range(len(t)))
                if i < len(t)
                else t + ((entry,),)
            )
            out.extend(build(grown, entry + 1))
        return out

    return tuple(sorted(build((), 1), key=lambda t: t.row_word()))


def enumerate_tableaux(n: int) -> tuple[YoungTableau, ...]:
    """All standard tableaux with n boxes, grouped by diagram in
    reverse-lexicographic diagram order, each group ascending by row word."""
    out: list[YoungTableau] = []
    for d in partitions(n):
        out.extend(tableaux_of_shape(d))
    return tuple(out)


# -- JSON wire format -------------------------------------------------------


def tableau_to_json(t: YoungTableau) -> dict:
    return {"shape": list(t.shape.rows), "rows": [list(r) for r in t.rows]}


def tableau_from_json(obj: dict) -> YoungTableau:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError("tableau JSON must have 'rows'")
    t = YoungTableau(tuple(ints_from_json(row) for row in obj["rows"]))
    if "shape" in obj and ints_from_json(obj["shape"]) != t.shape.rows:
        raise ValueError("tableau JSON shape does not match rows")
    return t
