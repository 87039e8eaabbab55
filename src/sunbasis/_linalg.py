"""Exact rank computation over the rationals and the surd field."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .coefficients import Surd


def _primitive(row: Sequence[int | Fraction]) -> list[int]:
    """The row scaled to integers with no common factor; the rank is unchanged."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return ints if g == 1 else [x // g for x in ints]


def fraction_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank of a matrix of rationals by fraction-free Gaussian elimination.

    Each row is scaled to a primitive integer row; eliminating with the
    pivot row ``lead`` replaces ``row`` by ``lead[col]·row − row[col]·lead``
    (both factors first divided by their gcd) and divides out the row's gcd,
    so every entry stays an integer and no ``Fraction`` is made.
    """
    work = [_primitive(r) for r in rows if any(r)]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                g = gcd(lead[col], f)
                p, q = lead[col] // g, f // g
                row = [p * a - q * b for a, b in zip(work[i], lead)]
                g = gcd(*row)
                work[i] = row if g <= 1 else [x // g for x in row]
        rank += 1
        if rank == len(work):
            break
    return rank


def _single_radicand(row: Sequence[Surd]) -> int | None:
    """The lone radicand shared by a row's entries, or None if mixed."""
    rads: set[int] = set()
    for entry in row:
        rads.update(d for d, _ in entry.terms())
        if len(rads) > 1:
            return None
    return next(iter(rads), 1)


def surd_rank(rows: Sequence[Sequence[Surd]]) -> int:
    """Rank of a matrix over the surd field.

    Scaling a row by a nonzero scalar keeps the rank, so rows whose entries
    share one radicand are divided by its root; if that rationalizes every
    row the cheap rational elimination applies, otherwise a full elimination
    over the surd field runs.
    """
    rational_rows: list[list[Fraction]] = []
    for row in rows:
        d = _single_radicand(row)
        if d is None:
            return _surd_elimination(rows)
        scaled = [entry.coefficient(d) for entry in row]
        if any(scaled):
            rational_rows.append(scaled)
    return fraction_rank(rational_rows)


def _surd_elimination(rows: Sequence[Sequence[Surd]]) -> int:
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
