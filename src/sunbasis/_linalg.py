"""Exact rank computation over the rationals and the surd field.

Matrices are given as sparse rows: each row maps a column index to its
entry, and absent columns are zero, so the work scales with the nonzeros
rather than with the width of the matrix.  ``fraction_rank`` is the one
exact elimination; ``surd_rank`` reduces a rank over the surd field to it
by writing every row in rational coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .coefficients import squarefree_decompose


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


def surd_rank(rows: Iterable[Mapping[int, Mapping[int, int | Fraction]]]) -> int:
    """Rank of a sparse matrix over the surd field, by its rational coordinates.

    Each row maps a squarefree radicand d to the sparse rational row that √d
    multiplies: the layout of ``AlgebraElement`` parts and of
    ``Surd.terms()``.  A row with one radicand is divided by its root, which
    keeps the rank and makes the row rational.  The rows that still mix
    radicands lie in K^n, where B is {1} closed under squarefree products
    with their radicands and {√e : e ∈ B} is a Q-basis of K.  The rational
    rows √e·row, e ∈ B, span the K-span of the rows written in those
    coordinates, so their rank is |B| times the rank over K.  In √e·row the
    coefficient of √s at column c sits at key c·|B| + index(s), where
    √e·√d = g·√s.  When no row mixes radicands, |B| = 1 and the rows are
    ranked as they are.
    """
    rows = list(rows)
    basis = [1]
    for row in rows:
        if len(row) > 1:
            for d in row:
                if d not in basis:
                    basis += [squarefree_decompose(e * d)[0] for e in basis]
    if len(basis) == 1:
        return fraction_rank(part for row in rows for part in row.values())
    index = {s: k for k, s in enumerate(basis)}
    width = len(basis)
    expanded: list[dict[int, int | Fraction]] = []
    for row in rows:
        if len(row) == 1:
            row = {1: next(iter(row.values()))}
        for e in basis:
            out: dict[int, int | Fraction] = {}
            for d, part in row.items():
                s, g = squarefree_decompose(e * d)
                k = index[s]
                for c, x in part.items():
                    out[c * width + k] = x * g
            expanded.append(out)
    return fraction_rank(expanded) // width

