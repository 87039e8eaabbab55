"""Exact integer-vector kernel of the group algebra.

Every ``AlgebraElement`` is stored as one exact integer vector per squarefree
radicand, indexed by the lexicographic order of S_m:

    element  =  sum over radicands d of  sqrt(d)/denom_d * vector_d

This module is the one that imports numpy, and every other module takes it
from here.  No kernel calls a float BLAS routine, so numpy starts without
OpenBLAS's thread pool, about 70 ms of every process that imports it,
unless a thread count is already chosen; the variable is removed again, so
child processes see the caller's environment.

It holds what the vector form needs beyond plain numpy: ``positions``,
the place of a permutation in the lexicographic order, from which every
gather takes its indices, the cycle counts, the exact sum of two such forms
and their product ``convolve``, one row loop through the (m!)² composition
table that only ``algebra.multiply`` calls, the product by a symmetrizer set
``times_set``, the Jucys–Murphy eigen-check ``in_eigenspaces``, ``stack``,
which puts stored vectors into one array in their common dtype, and the wire
format's two bulk steps: ``scatter`` reads terms into a vector, and
``lowest_terms`` writes its entries out.  Every result is in canonical form
(see ``reduce``), so equal elements have equal vectors.

A stored vector is int64 exactly when every entry lies below ``_STORED`` =
2**24, and an array of Python integers (dtype object) otherwise.  As m ≤ 7
and 7! < 2**13, a sum of m! products of two stored entries stays below
2**61, and a set product multiplies an entry by at most m!, so the
products, the eigen-check, the trace and the dot products run in their
operands' dtype and check nothing.  The one other check is ``_times``, the
product of a vector with an unbounded integer.
"""

from __future__ import annotations

import importlib
import os
import sys
from functools import cache
from itertools import chain, permutations
from math import factorial, gcd, lcm

_THREAD_COUNTS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in _THREAD_COUNTS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np

from .coefficients import squarefree_decompose
from .permutations import all_permutations

# radicand -> (denominator, integer numerator vector over the permutation basis)
Parts = dict[int, tuple[int, np.ndarray]]

# the storage bound of ``reduce`` and the guard of ``_times``
_STORED = 2**24
_INT64_GUARD = 2**62
# entries of one gathered block in a product, to bound its memory at m = 7
_GATHER_LIMIT = 2**20


@cache
def lexicographic(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based images of S_m in lexicographic order, and their positions by base-m digits."""
    flat = chain.from_iterable(permutations(range(m)))
    images = np.fromiter(flat, dtype=np.intp, count=factorial(m) * m).reshape(-1, m)
    where = np.zeros(m**m, dtype=np.intp)
    where[images @ m ** np.arange(m - 1, -1, -1)] = np.arange(len(images))
    return images, where


def positions(m: int, images: np.ndarray) -> np.ndarray:
    """The lexicographic position of the zero-based images along the last axis."""
    return lexicographic(m)[1][images @ m ** np.arange(m - 1, -1, -1)]


@cache
def composition_table(m: int) -> np.ndarray:
    """``table[i, j]`` is the index of ``p_i`` after ``p_j``; only ``_product`` reads it."""
    images, n = lexicographic(m)[0], factorial(m)
    # native indices gather fastest; int16 halves the 5040 x 5040 table at m = 7
    table = np.empty((n, n), dtype=np.intp if m <= 6 else np.int16)
    for i, row in enumerate(images):
        table[i] = positions(m, row[images])
    return table


@cache
def inverse_table(m: int) -> np.ndarray:
    """``table[i]`` is the index of p_i⁻¹, which sends v to the one k with p_i[k] = v."""
    images = lexicographic(m)[0]
    inverse = np.empty_like(images)
    inverse[np.arange(len(images))[:, None], images] = np.arange(m)
    return positions(m, inverse)


@cache
def _moves(m: int) -> np.ndarray:
    """Right transposition moves: ``[i - 1, j - 1, q]`` is the index of
    p_q·(i j), p_q's images with columns i and j swapped, so that
    (a·(i j))[q] = a[moves[i - 1, j - 1, q]]; the diagonal holds p_q's."""
    i, j, k = np.indices((m, m, m))
    swaps = np.where(k == i, j, np.where(k == j, i, k))
    return positions(m, lexicographic(m)[0][:, swaps].transpose(1, 2, 0, 3))


def stack(vecs: list[np.ndarray]) -> np.ndarray:
    """The vectors, not none and of one length, as the rows of one array in
    their common dtype: one concatenation, which copies many short rows
    about twice as fast as ``np.stack``."""
    return np.concatenate(vecs).reshape(len(vecs), -1)


def in_eigenspaces(m: int, vecs: list[np.ndarray], contents: np.ndarray | tuple) -> np.ndarray:
    """Per row, whether v·X_k = contents[r][k - 1]·v for v = vecs[r], a
    stored vector, X_k = Σ_{i<k} (i k) and k = 2..m; one content tuple may
    serve all rows.

    X_k is Hermitian, so X_k·v = c·v is the same identity as v†·X_k = c·v†:
    a caller checks a left side on the adjoint's vectors.  Each
    transposition (i k) is one ``np.take`` of its right moves, added in
    place into v·X_k, in row chunks of at most ``_GATHER_LIMIT`` / (m²·m!)
    rows.
    """
    contents = np.broadcast_to(np.asarray(contents, dtype=np.intp), (len(vecs), m))
    moves = _moves(m)
    held = np.ones(len(vecs), dtype=bool)
    step = max(1, _GATHER_LIMIT // (m * m * factorial(m)))
    for lo in range(0, len(vecs), step):
        vs = stack(vecs[lo : lo + step])
        for k in range(2, m + 1):
            # at row r: v·X_k against c·v, c the row's content of k
            total = np.take(vs, moves[0, k - 1], axis=1)
            for i in range(1, k - 1):
                total += np.take(vs, moves[i, k - 1], axis=1)
            held[lo : lo + step] &= (total == contents[lo : lo + step, k - 1, None] * vs).all(axis=1)
    return held


def times_set(m: int, parts: Parts, blocks: tuple[tuple[int, ...], ...], anti: bool) -> Parts:
    """Exact product of an element's vectors by the normalized (anti)symmetrizer
    over disjoint ``blocks``, which acts first: the set is the right factor.

    Jucys: over a block b_1 < … < b_k, with X_j = Σ_{i<j} (b_i b_j), the sum
    of the block's permutations is Π_{j=2..k} (1 + X_j), and their signed sum
    Π_{j=2..k} (1 − X_j).  So each factor is one right gather per
    transposition, and the denominator takes Π_B |B|!.  A stored entry grows
    by at most that factor, m! < 2**13, before ``reduce``.
    """
    moves = _moves(m)
    sign = -1 if anti else 1
    acc = {}
    for d, (denom, vec) in parts.items():
        for b in blocks:
            for j in range(1, len(b)):
                lower = [x - 1 for x in b[:j]]
                vec = vec + sign * np.take(vec, moves[lower, b[j] - 1]).sum(axis=0)
            denom *= factorial(len(b))
        acc[d] = (denom, vec)
    return canonical(acc)


@cache
def cycle_count_vector(m: int) -> np.ndarray:
    """Cycle counts (fixed points included) per canonical permutation."""
    return np.array([p.cycle_count() for p in all_permutations(m)], dtype=np.intp)


# -- storage -------------------------------------------------------------------


def _abs_max(vec: np.ndarray) -> int:
    # max and min apart: np.abs wraps -2**63 to itself
    return max(int(vec.max()), -int(vec.min())) if vec.size else 0


def _times(vec: np.ndarray, k: int) -> np.ndarray:
    """Exact ``vec * k``: int64 while every entry stays below ``_INT64_GUARD``,
    so that two such products add in int64 (a zero vector counts as 1, so
    that k fits too), Python integers otherwise."""
    if vec.dtype == np.int64 and max(_abs_max(vec), 1) * abs(k) >= _INT64_GUARD:
        vec = vec.astype(object)
    return vec * k


def vector(values: list[int]) -> np.ndarray:
    """Exact vector of Python ints, int64 where they fit; ``reduce`` fixes the dtype."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def reduce(denom: int, vec: np.ndarray) -> tuple[int, np.ndarray] | None:
    """Canonical form of ``vec / denom``, or None when it is zero.

    The denominator is positive and has no factor common to all entries,
    and the vector is int64 exactly when all entries lie below ``_STORED``.
    """
    g = int(np.gcd.reduce(vec)) if vec.size else 0
    if not g:
        return None
    g = gcd(g, denom)
    if g != 1:
        vec = vec // g
        denom //= g
    return denom, vec.astype(np.int64 if _abs_max(vec) < _STORED else object, copy=False)


def scatter(size: int, where: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The exact vector of ``values`` added up at the positions ``where``:
    int64 while no sum can reach ``_INT64_GUARD``, Python integers otherwise."""
    if values.dtype == np.int64 and _abs_max(values) * len(values) >= _INT64_GUARD:
        values = values.astype(object)
    out = np.zeros(size, dtype=values.dtype)
    np.add.at(out, where, values)
    return out


def lowest_terms(denom: int, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every entry of ``vec / denom`` in lowest terms by one ``np.gcd``: the
    numerators, and the denominators, positive (1 at a zero entry)."""
    if vec.dtype == np.int64 and denom >= _INT64_GUARD:
        vec = vec.astype(object)
    g = np.gcd(vec, denom)
    return vec // g, denom // g


def _accumulate(acc: dict, d: int, denom: int, vec: np.ndarray) -> None:
    if d not in acc:
        acc[d] = (denom, vec)
        return
    denom0, vec0 = acc[d]
    common = lcm(denom0, denom)
    acc[d] = (common, _times(vec0, common // denom0) + _times(vec, common // denom))


def canonical(acc: dict[int, tuple[int, np.ndarray]]) -> Parts:
    """Canonical form of (denominator, vector) pairs keyed by squarefree radicand."""
    out: Parts = {}
    for d in sorted(acc):
        part = reduce(*acc[d])
        if part is not None:
            out[d] = part
    return out


def add(x: Parts, y: Parts) -> Parts:
    """Exact sum of two elements' vectors."""
    acc = dict(x)
    for d, (denom, vec) in y.items():
        _accumulate(acc, d, denom, vec)
    return canonical(acc)


# -- product -------------------------------------------------------------------


def _product(m: int, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Exact convolution: ``out[k]`` sums ``va[i] * vb[j]`` over ``p_i p_j = p_k``.

    One loop: for fixed ``k`` each index ``i`` fixes ``p_j = p_i⁻¹ p_k``, so
    the sum runs over the left factor's nonzeros and gathers one table row
    of partners per nonzero.  When the right factor is the sparser, the
    factors swap by a·b = (b†·a†)†, so the loop runs over its nonzeros.
    """
    table = composition_table(m)
    inv = inverse_table(m)
    flip = np.count_nonzero(vb) < np.count_nonzero(va)
    if flip:
        va, vb = vb[inv], va[inv]
    rows = np.flatnonzero(va)
    out = np.zeros(len(inv), dtype=np.result_type(va, vb))
    step = max(1, _GATHER_LIMIT // len(inv))
    for lo in range(0, len(rows), step):
        chunk = rows[lo : lo + step]
        out = out + va[chunk] @ vb[table[inv[chunk]]]
    return out[inv] if flip else out


def convolve(m: int, x: Parts, y: Parts) -> Parts:
    """Exact product of two elements' vectors; the right factor acts first."""
    acc: dict = {}
    for da, (la, va) in x.items():
        for db, (lb, vb) in y.items():
            root, whole = squarefree_decompose(da * db)
            _accumulate(acc, root, la * lb, _times(_product(m, va, vb), whole))
    return canonical(acc)

