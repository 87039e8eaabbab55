import random
import re
from fractions import Fraction

import pytest

from sunbasis.algebra import AlgebraElement, dagger, multiply, trace
from sunbasis.basis import assemble
from sunbasis.coefficients import Surd, surd_to_json
from sunbasis.matrix_rep import (
    ConcreteMatrix,
    matrix_from_json,
    matrix_to_json,
    rank,
    represent,
)
from sunbasis.permutations import Permutation, all_permutations
from sunbasis.projectors import dimension_poly, hermitian_projector, symmetrizer
from sunbasis.tableaux import YoungTableau, dimension_formula, enumerate_tableaux
from sunbasis.transitions import unitary_transition_compact
from sunbasis._linalg import surd_rank


def T(*rows):
    return YoungTableau(tuple(tuple(r) for r in rows))


def P(m, *cycles):
    return Permutation.from_cycles(m, tuple(tuple(c) for c in cycles))


def rand_element(m, rng, terms=5, surd=False):
    perms = all_permutations(m)
    out = {}
    for _ in range(terms):
        p = rng.choice(perms)
        c = Surd({1: Fraction(rng.randint(-6, 6), rng.randint(1, 5))})
        if surd:
            c = c + Surd({2: Fraction(rng.randint(-3, 3))})
        out[p] = out.get(p, Surd()) + c
    return AlgebraElement(m, {p: c for p, c in out.items() if c})


# -- basic structure ----------------------------------------------------------


def test_identity_representation():
    mat = represent(AlgebraElement.identity(2), 2)
    assert mat.size == 4
    assert mat.entries == {(i, i): Surd.rational(1) for i in range(4)}
    assert rank(mat) == 4


def test_swap_matrix_m2():
    mat = represent(AlgebraElement.from_permutation(P(2, (1, 2))), 2)
    one = Surd.rational(1)
    assert mat.entries == {(0, 0): one, (3, 3): one, (1, 2): one, (2, 1): one}
    assert mat.trace() == Surd.rational(2)


def test_permutation_matrix_is_orthogonal():
    for p in all_permutations(3):
        mat = represent(AlgebraElement.from_permutation(p), 2)
        assert mat @ mat.transpose() == represent(AlgebraElement.identity(3), 2)


def test_size_cap():
    a = AlgebraElement.identity(5)
    with pytest.raises(ValueError, match="cap"):
        represent(a, 10)
    assert represent(a, 10, cap=100_000).size == 100_000


def test_dimension_validation():
    with pytest.raises(ValueError, match="positive"):
        represent(AlgebraElement.identity(2), 0)


def test_incompatible_spaces_rejected():
    a = represent(AlgebraElement.identity(2), 2)
    b = represent(AlgebraElement.identity(2), 3)
    with pytest.raises(ValueError, match="different tensor spaces"):
        a @ b


# -- homomorphism and dagger ---------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_representation_is_a_homomorphism(n):
    rng = random.Random(n)
    for trial in range(8):
        a = rand_element(3, rng, surd=(trial % 2 == 0))
        b = rand_element(3, rng)
        assert represent(multiply(a, b), n) == represent(a, n) @ represent(b, n)
        assert represent(a + b, n) == represent(a, n) + represent(b, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dagger_becomes_transpose(n):
    rng = random.Random(10 + n)
    for trial in range(6):
        a = rand_element(3, rng, surd=(trial % 3 == 0))
        assert represent(dagger(a), n) == represent(a, n).transpose()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_matches_symbolic_polynomial(n):
    rng = random.Random(20 + n)
    for _ in range(6):
        a = rand_element(4, rng, terms=4)
        assert represent(a, n).trace() == trace(a).eval(n)


# -- dimensional zeros and ranks -------------------------------------------------


def test_full_antisymmetrizer_vanishes_below_its_length():
    a123 = symmetrizer(((1, 2, 3),), 3, "anti")
    mat = represent(a123, 2)
    assert mat.is_zero()
    assert mat.size == 8
    assert rank(mat) == 0
    assert rank(represent(a123, 3)) == 1


@pytest.mark.parametrize(
    "tableau,n,expected",
    [
        (T((1, 2), (3,)), 3, 8),  # N(N^2-1)/3 at N=3
        (T((1, 2), (3,)), 2, 2),
        (T((1, 2, 3),), 2, 4),  # N(N+1)(N+2)/6 at N=2
        (T((1,), (2,), (3,)), 2, 0),
    ],
)
def test_projector_rank_equals_dimension_polynomial(tableau, n, expected):
    p = hermitian_projector(tableau)
    mat = represent(p.element, n)
    assert rank(mat) == expected
    assert dimension_poly(p).eval(n) == Surd.rational(expected)


@pytest.mark.parametrize("n", [2, 3])
def test_concrete_projectors_idempotent(n):
    for t in enumerate_tableaux(3):
        mat = represent(hermitian_projector(t).element, n)
        assert mat @ mat == mat


def test_blocks_vanish_together():
    # every operator of a block dies at the same dimension: the longest
    # column decides, and transitions share their block's column length
    for n in (1, 2, 3):
        for m in (3, 4):
            b = assemble(m, "hermitian")
            for blk in b.blocks:
                longest_column = max(blk.diagram.column_lengths())
                flags = {
                    represent(op, n).is_zero()
                    for row in blk.operators
                    for op in row
                }
                assert len(flags) == 1
                assert flags == {longest_column > n}


def test_rank_at_the_default_cap():
    # size 21**3 = 9261, just below the default cap of 10 000
    p = hermitian_projector(T((1, 2), (3,)))
    got = rank(represent(p.element, 21))
    assert got == 3080
    assert dimension_poly(p).eval(21) == Surd.rational(got)


def test_rank_of_a_mixed_radicand_operator():
    # P + √2·T, T the √3 transition into P's image: rows mix 1 and √6, and
    # the image is still P's, so the rank is P's dimension at n = 7
    theta, phi = T((1, 2), (3,)), T((1, 3), (2,))
    p = hermitian_projector(theta).element
    t = unitary_transition_compact(theta, phi).element
    mixed = p + t.scale(Surd.sqrt(2))
    mat = represent(mixed, 7)
    assert any(len(v.terms()) > 1 for v in mat.entries.values())
    assert rank(mat) == 112
    assert dimension_formula(theta.shape).eval(7) == Surd.rational(112)


def test_permutations_become_dependent_below_the_degree():
    # at n=2, m=3 the six permutation matrices only span a 5-dimensional space
    def flat_rows(n, m):
        # each matrix flattened to one sparse rational row: r*size + c -> entry
        rows = []
        size = n**m
        for p in all_permutations(m):
            mat = represent(AlgebraElement.from_permutation(p), n)
            rows.append({1: {r * size + c: v.as_fraction() for (r, c), v in mat.entries.items()}})
        return rows

    assert surd_rank(flat_rows(2, 3)) == 5
    assert surd_rank(flat_rows(3, 3)) == 6


def test_transition_matrix_with_surd_entries():
    theta, phi = T((1, 2), (3,)), T((1, 3), (2,))
    op = unitary_transition_compact(theta, phi)
    mat = represent(op.element, 2)
    assert not mat.is_zero()
    assert any(not v.is_rational() for v in mat.entries.values())
    p_theta = represent(hermitian_projector(theta).element, 2)
    assert mat @ mat.transpose() == p_theta


def entrywise(a: AlgebraElement, n: int) -> dict:
    """The matrix entries term by term: permutation p sends column t to the
    row whose index tuple reads t through p⁻¹."""
    entries = {}
    for p, c in a.items():
        inv = p.inverse().images
        for col in range(n**a.m):
            t = [col // n ** (a.m - 1 - k) % n for k in range(a.m)]
            row = sum(t[inv[k] - 1] * n ** (a.m - 1 - k) for k in range(a.m))
            entries[row, col] = entries.get((row, col), Surd()) + c
    return {cell: v for cell, v in entries.items() if v}


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3)])
def test_represent_matches_the_entrywise_sum(m, n):
    rng = random.Random(10 * m + n)
    for surd in (False, True):
        a = rand_element(m, rng, terms=6, surd=surd)
        # a cancelling pair and an object-dtype vector
        b = a - a.scale(Fraction(1, 2)) + AlgebraElement.identity(m).scale(2**40)
        for el in (a, b, AlgebraElement.zero(m)):
            assert represent(el, n).entries == entrywise(el, n)


# -- serialization ---------------------------------------------------------------


def test_matrix_json_round_trip():
    theta, phi = T((1, 2), (3,)), T((1, 3), (2,))
    op = unitary_transition_compact(theta, phi)
    for source in (op.element, hermitian_projector(theta).element):
        mat = represent(source, 2)
        data = matrix_to_json(mat)
        assert data["size"] == 8
        assert matrix_from_json(data) == mat
        assert data["entries"] == sorted(data["entries"])
        # one wire surd per distinct value, the same as entry by entry
        assert data["entries"] == [
            [r, c, surd_to_json(v)] for (r, c), v in sorted(mat.entries.items())
        ]


def test_an_entry_outside_the_matrix_is_refused():
    # n^m = 4: rows and columns run 0..3, and a zero entry is placed too
    one = Surd.rational(1)
    with pytest.raises(ValueError, match=r"^matrix entry \(9, 9\) outside 0\.\.3$"):
        ConcreteMatrix(2, 2, {(9, 9): one, (-1, 0): Surd.rational(2)})
    for pos in [(-1, 0), (0, 4), (4, 0)]:
        with pytest.raises(ValueError, match=re.escape(f"matrix entry {pos} outside 0..3")):
            ConcreteMatrix(2, 2, {(0, 0): one, pos: Surd()})
    mat = ConcreteMatrix(2, 2, {(0, 3): one, (3, 0): one})
    with pytest.raises(ValueError, match="outside 0..0"):
        ConcreteMatrix(1, 2, mat.entries)
    assert rank(mat) == 2


def test_zero_entries_are_stripped():
    mat = ConcreteMatrix(2, 2, {(0, 0): Surd(), (1, 1): Surd.rational(1)})
    assert (0, 0) not in mat.entries
    assert len(mat.entries) == 1
