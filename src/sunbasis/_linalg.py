"""Exact rank computation over the rationals and the surd field.

Matrices are given as sparse rows: each row maps a column index to its
entry, and absent columns are zero, so the work scales with the nonzeros
rather than with the width of the matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .coefficients import Surd


def _primitive(row: Mapping[int, int | Fraction]) -> dict[int, int]:
    """The row's nonzeros scaled to integers with no common factor; the rank is unchanged."""
    den = lcm(*(x.denominator for x in row.values()))
    ints = {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}
    g = gcd(*ints.values())
    return ints if g <= 1 else {c: x // g for c, x in ints.items()}


def fraction_rank(rows: Iterable[Mapping[int, int | Fraction]]) -> int:
    """Rank of a sparse matrix of rationals by fraction-free elimination.

    Each row is scaled to a primitive integer row and reduced against the
    pivot rows found so far, each keyed by its lowest column.  Reducing with
    the pivot ``lead`` at the row's lowest column replaces ``row`` by
    ``p·row − q·lead`` (``p``, ``q`` the pivot and the row's entry divided by
    their gcd) and divides out the row's gcd, so every entry stays an integer
    and no ``Fraction`` is made.  A row that survives becomes a pivot; the
    rank is the number of pivots.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        row = _primitive(r)
        while row:
            col = min(row)
            lead = pivots.get(col)
            if lead is None:
                pivots[col] = row
                break
            g = gcd(lead[col], row[col])
            p, q = lead[col] // g, row[col] // g
            # p == 1 whenever the pivot divides the entry; update in place then
            new = {c: p * x for c, x in row.items()} if p != 1 else row
            for c, y in lead.items():
                x = new.get(c, 0) - q * y
                if x:
                    new[c] = x
                else:
                    del new[c]
            g = gcd(*new.values())
            row = new if g <= 1 else {c: x // g for c, x in new.items()}
    return len(pivots)


def _single_radicand(entries: Iterable[Surd]) -> int | None:
    """The lone radicand shared by the entries, or None if mixed."""
    rads: set[int] = set()
    for entry in entries:
        rads.update(d for d, _ in entry.terms())
        if len(rads) > 1:
            return None
    return next(iter(rads), 1)


def surd_rank(rows: Sequence[Mapping[int, Surd]]) -> int:
    """Rank of a sparse matrix over the surd field.

    Scaling a row by a nonzero scalar keeps the rank, so a row whose
    nonzeros share one radicand is divided by its root.  If that
    rationalizes every row, the rational elimination applies; otherwise the
    rows are densified and eliminated over the surd field.
    """
    rational_rows: list[dict[int, Fraction]] = []
    for row in rows:
        d = _single_radicand(row.values())
        if d is None:
            width = 1 + max(c for r in rows for c in r)
            zero = Surd()
            return _surd_elimination(
                [[r.get(c, zero) for c in range(width)] for r in rows]
            )
        rational_rows.append({c: x.coefficient(d) for c, x in row.items()})
    return fraction_rank(rational_rows)


def _surd_elimination(rows: Sequence[Sequence[Surd]]) -> int:
    """Rank of a dense matrix over the surd field by Gaussian elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        lead = work[row]
        inv = lead[col].inverse()
        for i in range(row + 1, len(work)):
            f = work[i][col]
            if f:
                ratio = f * inv
                work[i] = [a - ratio * b for a, b in zip(work[i], lead)]
        row += 1
        rank += 1
        if row == len(work):
            break
    return rank
