"""Exact integer-vector kernel of the group algebra.

Every ``AlgebraElement`` is stored as one exact integer vector per squarefree
radicand, indexed by the lexicographic order of S_m:

    element  =  sum over radicands d of  sqrt(d)/denom_d * vector_d

This module holds what that form needs beyond plain numpy: the position of
each permutation, the composition and inverse tables, the cycle counts, and
the exact sum and product of two such forms.  Vectors are int64 while a
bound computed in Python integers shows that no entry can reach 2**62, and
arrays of Python integers (dtype object) otherwise.  Every result is in
canonical form (see ``reduce``), so equal elements have equal vectors.

Two batched kernels check identities over every ordered pair of a list of
elements at once: ``table_mismatches`` forms each left factor's products
with all right factors by one integer matmul with its left-regular matrix,
and ``gram_mismatches`` forms every trace pairing as one Gram matrix per
power of N.  The same 2**62 guard covers each of their matmuls, the sums
across radicand pairs and the cross-multiplied comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

import numpy as np

from .coefficients import PolyN, squarefree_decompose
from .permutations import all_permutations

# radicand -> (denominator, integer numerator vector over the permutation basis)
Parts = dict[int, tuple[int, np.ndarray]]

_INT64_GUARD = 2**62
# entries of one gathered block in a product, to bound its memory at m = 7
_GATHER_LIMIT = 2**20


@cache
def permutation_index(m: int) -> dict[tuple[int, ...], int]:
    """Map each degree-``m`` permutation's one-line images to its position."""
    return {p.images: i for i, p in enumerate(all_permutations(m))}


@cache
def composition_table(m: int) -> np.ndarray:
    """``table[i, j]`` is the index of ``p_i`` after ``p_j``."""
    perms = np.array([p.images for p in all_permutations(m)], dtype=np.intp) - 1
    n = len(perms)
    # a permutation's images read as base-m digits key its position
    weights = m ** np.arange(m - 1, -1, -1)
    position = np.zeros(m**m, dtype=np.intp)
    position[perms @ weights] = np.arange(n)
    # native indices gather fastest; int16 halves the 5040 x 5040 table at m = 7
    table = np.empty((n, n), dtype=np.intp if m <= 6 else np.int16)
    step = max(1, _GATHER_LIMIT // (n * m))
    for lo in range(0, n, step):
        # composed[i, j] = perms[lo + i] after perms[j], as image rows
        composed = perms[lo : lo + step][:, perms]
        table[lo : lo + step] = position[composed @ weights]
    return table


@cache
def inverse_table(m: int) -> np.ndarray:
    """``table[i]`` is the index of the inverse of ``p_i``."""
    # p_i after p_j is the identity, position 0, exactly when p_j inverts p_i
    return np.nonzero(composition_table(m) == 0)[1]


@cache
def cycle_count_vector(m: int) -> np.ndarray:
    """Cycle counts (fixed points included) per canonical permutation."""
    return np.array([p.cycle_count() for p in all_permutations(m)], dtype=np.intp)


# -- overflow guards -----------------------------------------------------------


def _abs_max(vec: np.ndarray) -> int:
    return int(np.abs(vec).max()) if vec.size else 0


def _fits(*bound: int) -> bool:
    """Whether the product of the Python-int factors stays below the guard."""
    return prod(bound) < _INT64_GUARD


def _objects(*vecs: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(v.astype(object) for v in vecs)


def vector(values: list[int]) -> np.ndarray:
    """Exact vector of Python ints, int64 where they fit; ``reduce`` fixes the dtype."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def reduce(denom: int, vec: np.ndarray) -> tuple[int, np.ndarray] | None:
    """Canonical form of ``vec / denom``, or None when it is zero.

    The denominator is positive and has no factor common to all entries,
    and the vector is int64 exactly when all entries lie below the guard.
    """
    g = int(np.gcd.reduce(vec)) if vec.size else 0
    if not g:
        return None
    g = gcd(g, denom)
    if g != 1:
        vec = vec // g
        denom //= g
    return denom, vec.astype(np.int64 if _fits(_abs_max(vec)) else object, copy=False)


def _accumulate(acc: dict, d: int, denom: int, vec: np.ndarray) -> None:
    if d not in acc:
        acc[d] = (denom, vec)
        return
    denom0, vec0 = acc[d]
    common = lcm(denom0, denom)
    s0, s1 = common // denom0, common // denom
    if vec0.dtype != vec.dtype or (
        vec0.dtype == np.int64
        and not _fits(2, max(_abs_max(vec0) * s0, _abs_max(vec) * s1))
    ):
        vec0, vec = _objects(vec0, vec)
    acc[d] = (common, vec0 * s0 + vec * s1)


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

    For fixed ``k`` each index of the sparser factor fixes the other, so the
    sum runs over that factor's nonzeros and gathers the partner entries.
    """
    table = composition_table(m)
    inv = inverse_table(m)
    n = table.shape[0]
    nza, nzb = np.flatnonzero(va), np.flatnonzero(vb)
    terms = min(len(nza), len(nzb))
    if va.dtype != np.int64 or vb.dtype != np.int64 or not _fits(
        terms, _abs_max(va), _abs_max(vb)
    ):
        va, vb = _objects(va, vb)
    out = np.zeros(n, dtype=va.dtype)
    step = max(1, _GATHER_LIMIT // n)
    for lo in range(0, terms, step):
        if len(nza) <= len(nzb):
            # p_j = p_i^-1 p_k
            rows = nza[lo : lo + step]
            out = out + va[rows] @ vb[table[inv[rows]]]
        else:
            # p_i = p_k p_j^-1
            cols = nzb[lo : lo + step]
            out = out + va[table[:, inv[cols]]] @ vb[cols]
    return out


def convolve(m: int, x: Parts, y: Parts) -> Parts:
    """Exact product of two elements' vectors; the right factor acts first."""
    acc: dict = {}
    for da, (la, va) in x.items():
        for db, (lb, vb) in y.items():
            root, whole = squarefree_decompose(da * db)
            vec = _product(m, va, vb)
            if whole != 1:
                if vec.dtype == np.int64 and not _fits(_abs_max(vec), whole):
                    (vec,) = _objects(vec)
                vec = vec * whole
            _accumulate(acc, root, la * lb, vec)
    return canonical(acc)


# -- batched checks over many elements -----------------------------------------


def _exact(op, a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """Exact ``np.matmul`` or ``np.multiply`` of a and b; ``bound`` caps every partial sum."""
    if a.dtype != np.int64 or b.dtype != np.int64 or not _fits(bound):
        a, b = _objects(a, b)
    return op(a, b)


def _sum_at(shape: tuple[int, int], terms: list) -> tuple[np.ndarray, int]:
    """Exact sum of the terms g·(a @ b), each added at its index of a zero matrix.

    Each term is (index, g, a, b, a bound on the entries of a @ b); the
    bound on the sum comes back with it.
    """
    total = sum(g * bound for _, g, _, _, bound in terms)
    products = [
        (index, g * _exact(np.matmul, a, b, g * bound)) for index, g, a, b, bound in terms
    ]
    wide = not _fits(total) or any(p.dtype == object for _, p in products)
    out = np.zeros(shape, dtype=object if wide else np.int64)
    for index, p in products:
        out[index] += p
    return out, total


def _stack(elements: list[Parts]) -> tuple[list[int], dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Each element as (1/den)·Σ_d √d·V_d, with its rows grouped by radicand.

    Returns every element's den (the lcm of its part denominators) and, per
    radicand d, the indices of the elements with a part there and the
    integer matrix of their rows V_d.
    """
    dens = [lcm(*(denom for denom, _ in parts.values())) for parts in elements]
    rows: dict[int, list[int]] = {}
    vecs: dict[int, list[np.ndarray]] = {}
    for x, parts in enumerate(elements):
        for d, (denom, vec) in parts.items():
            scale = dens[x] // denom
            if vec.dtype == np.int64 and not _fits(_abs_max(vec), scale):
                (vec,) = _objects(vec)
            rows.setdefault(d, []).append(x)
            vecs.setdefault(d, []).append(vec * scale)
    groups = {d: (np.array(rows[d], dtype=np.intp), np.stack(vecs[d])) for d in sorted(rows)}
    return dens, groups


def table_mismatches(
    m: int, elements: list[Parts], targets: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Boolean matrix of the pairs (x, y) whose product x·y is not its target.

    ``targets[x] = (ys, zs)`` says that x·ys[i] must equal the element zs[i];
    every other product with x must vanish.  With T[k, j] the index of
    p_k p_j⁻¹, L(a) = a[T] is the left-regular matrix of a, so one integer
    matmul V_e @ L(V_d[x]).T forms x's products with every element of
    radicand group e at once.  They land under s = sqf(d·e), scaled by g
    where √d·√e = g·√s, and the check got·den_z == V_s[z]·den_x·den_y is
    exact: int64 under the guard, Python integers otherwise.
    """
    dens, groups = _stack(elements)
    count = len(elements)
    den = vector(dens)
    top = {d: _abs_max(mat) for d, (_, mat) in groups.items()}
    row_of = {}
    for d, (rows, _) in groups.items():
        row_of[d] = np.full(count, -1, dtype=np.intp)
        row_of[d][rows] = np.arange(len(rows))
    table, inv = composition_table(m), inverse_table(m)
    n = table.shape[0]
    bad = np.zeros((count, count), dtype=bool)
    step = max(1, _GATHER_LIMIT // n)
    for lo in range(0, n, step):
        # left[j, k] = T[k, j] for the products' coordinates k in this block
        left = table[lo : lo + step][:, inv].T
        for x, parts in enumerate(elements):
            terms: dict[int, list] = {}
            for d in parts:
                a = groups[d][1][row_of[d][x]]
                lt, top_a = a[left], _abs_max(a)
                for e, (rows, mat) in groups.items():
                    s, g = squarefree_decompose(d * e)
                    terms.setdefault(s, []).append((rows, g, mat, lt, n * top_a * top[e]))
            ys, zs = targets[x]
            # x·ys must land on zs: scale both sides to den_x·den_y·den_z
            den_xy = _exact(np.multiply, den[ys], vector([dens[x]]), dens[x] * _abs_max(den[ys]))
            expected = {s for s in groups if (row_of[s][zs] >= 0).any()}
            for s in terms.keys() | expected:
                got, total = _sum_at((count, left.shape[1]), terms.get(s, []))
                want = np.zeros((len(ys), left.shape[1]), dtype=np.int64)
                if s in groups:
                    where = row_of[s][zs]
                    want = groups[s][1][np.maximum(where, 0), lo : lo + step]
                    want[where < 0] = 0
                lhs = _exact(np.multiply, got[ys], den[zs, None], total * _abs_max(den[zs]))
                rhs = _exact(
                    np.multiply, want, den_xy[:, None], top.get(s, 0) * _abs_max(den_xy)
                )
                # every product vanishes but those with a target
                wrong = (got != 0).any(axis=1)
                wrong[ys] = (lhs != rhs).any(axis=1)
                bad[x] |= wrong
    return bad


def gram_mismatches(m: int, elements: list[Parts], diagonal: list[PolyN]) -> np.ndarray:
    """Boolean matrix of the pairs (x, y) whose pairing ⟨x, y⟩ is not δ_xy·diagonal[x].

    ⟨x, y⟩ = tr(x†·y) weights x_g·y_h by N^k, k the cycle count of
    p_g⁻¹p_h.  With G_k = [that count is k], the N^k coefficient of every
    pair is one Gram matrix per pair of radicand groups, V_d·G_k·V_eᵀ,
    landing under s = sqf(d·e) scaled by g.  Powers are taken one at a
    time, so only one power's matrices are alive.  ``diagonal`` holds the
    expected self-pairings as ``PolyN``s; off the diagonal every
    coefficient must vanish.
    """
    dens, groups = _stack(elements)
    count = len(elements)
    top = {d: _abs_max(mat) for d, (_, mat) in groups.items()}
    want = [
        {(k, s): q for k, c in poly.coeffs() for s, q in c.terms()} for poly in diagonal
    ]
    pairs: dict[int, list] = {s: [] for _, s in set().union(*want)}
    for d in groups:
        for e in groups:
            s, g = squarefree_decompose(d * e)
            pairs.setdefault(s, []).append((np.ix_(groups[d][0], groups[e][0]), g, d, e))
    table, inv = composition_table(m), inverse_table(m)
    cycles = cycle_count_vector(m)
    n = table.shape[0]
    step = max(1, _GATHER_LIMIT // n)
    bad = np.zeros((count, count), dtype=bool)
    off = ~np.eye(count, dtype=bool)
    for k in range(1, m + 1):
        weighted = dict.fromkeys(groups, 0)  # V_d·G_k
        for lo in range(0, n, step):
            block = (cycles[table[inv[lo : lo + step]]] == k).astype(np.int64)
            for d, (_, mat) in groups.items():
                part = _exact(np.matmul, mat[:, lo : lo + step], block, n * top[d])
                weighted[d] = weighted[d] + part
        for s, terms in pairs.items():
            grams = [
                (index, g, weighted[d], groups[e][1].T, n * n * top[d] * top[e])
                for index, g, d, e in terms
            ]
            gram, _ = _sum_at((count, count), grams)
            bad |= (gram != 0) & off
            for x in range(count):
                q = want[x].get((k, s), Fraction(0))
                bad[x, x] |= int(gram[x, x]) * q.denominator != q.numerator * dens[x] ** 2
    return bad
