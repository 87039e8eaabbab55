import itertools
import random
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunbasis import _fast
from sunbasis import projectors as projectors_module
from sunbasis.algebra import (
    AlgebraElement,
    dagger,
    multiply,
    proportionality,
    scalar_product,
    trace,
)
from sunbasis.coefficients import PolyN, Surd
from sunbasis.permutations import Permutation, all_permutations
from sunbasis.projectors import (
    Projector,
    SymmetrizerSet,
    _mold_bar,
    _normalize,
    alpha_formula,
    columns_of,
    dimension_poly,
    hermitian_mold,
    hermitian_projector,
    hermitian_staircase,
    mold_factors,
    rows_of,
    symmetrizer,
    young_projector,
)
from sunbasis.tableaux import (
    YoungTableau,
    enumerate_tableaux,
    partitions,
    tableau_permutation,
    tableaux_of_shape,
)


def T(*rows):
    return YoungTableau(tuple(tuple(r) for r in rows))


def P(m, *cycles):
    return Permutation.from_cycles(m, tuple(tuple(c) for c in cycles))


def E(m, d):
    return AlgebraElement(
        m, {P(m, *cycs): Surd.rational(c) for cycs, c in d.items()}
    )


# -- independent oracle: expand symmetrizer products from first principles


def oracle_symmetrizer(blocks, m, anti):
    import itertools as it
    from fractions import Fraction as F

    def parity(seq):
        inv = sum(
            1
            for i in range(len(seq))
            for j in range(i + 1, len(seq))
            if seq[i] > seq[j]
        )
        return -1 if inv % 2 else 1

    terms = {}
    denom = 1
    for b in blocks:
        import math

        denom *= math.factorial(len(b))
    for choice in it.product(*(it.permutations(b) for b in blocks)):
        images = list(range(1, m + 1))
        sgn = 1
        for b, tgt in zip(blocks, choice):
            order = {v: i for i, v in enumerate(sorted(b))}
            for src, dst in zip(sorted(b), tgt):
                images[src - 1] = dst
            if anti:
                sgn *= parity([order[v] for v in tgt])
        terms[tuple(images)] = F(sgn, denom)
    return terms


def oracle_multiply(a, b):
    out = {}
    for p, cp in a.items():
        for q, cq in b.items():
            r = tuple(p[qi - 1] for qi in q)
            out[r] = out.get(r, Fraction(0)) + cp * cq
    return {k: v for k, v in out.items() if v}


def to_element(m, d):
    return AlgebraElement(m, {Permutation(p): c for p, c in d.items()})


# -- symmetrizer sets ---------------------------------------------------------


def test_single_symmetrizer_expansion():
    # S_134 in degree 5: six terms, uniform weight 1/6
    s = symmetrizer(((1, 3, 4),), 5, "sym")
    assert s.term_count() == 6
    assert all(c == Surd.rational(Fraction(1, 6)) for _, c in s.items())
    assert s.coefficient(P(5, (1, 3), (4,))) == Surd.rational(Fraction(1, 6))
    assert s == to_element(5, oracle_symmetrizer([(1, 3, 4)], 5, False))


def test_antisymmetrizer_signs():
    a = symmetrizer(((1, 2, 3),), 3, "anti")
    assert a.coefficient(Permutation.identity(3)) == Surd.rational(Fraction(1, 6))
    assert a.coefficient(P(3, (1, 2))) == Surd.rational(Fraction(-1, 6))
    assert a.coefficient(P(3, (1, 2, 3))) == Surd.rational(Fraction(1, 6))
    assert a == to_element(3, oracle_symmetrizer([(1, 2, 3)], 3, True))


def test_multi_block_set_matches_oracle():
    got = symmetrizer(((1, 2, 5), (3, 4)), 5, "anti")
    want = to_element(5, oracle_symmetrizer([(1, 2, 5), (3, 4)], 5, True))
    assert got == want
    assert got.term_count() == 12


def test_sets_are_idempotent_and_hermitian():
    for blocks, kind in [
        (((1, 2, 3),), "sym"),
        (((1, 3), (2, 4)), "anti"),
        (((1, 2, 5), (3, 4)), "sym"),
    ]:
        s = symmetrizer(blocks, 5, kind)
        assert multiply(s, s) == s
        assert dagger(s) == s


def test_opposite_sets_annihilate():
    s = symmetrizer(((1, 2),), 2, "sym")
    a = symmetrizer(((1, 2),), 2, "anti")
    assert multiply(a, s).is_zero()
    assert multiply(s, a).is_zero()


def test_absorption_of_contained_symmetrizer():
    s12 = symmetrizer(((1, 2),), 3, "sym")
    s123 = symmetrizer(((1, 2, 3),), 3, "sym")
    assert multiply(s12, s123) == s123
    assert multiply(s123, s12) == s123


def test_set_validation():
    with pytest.raises(ValueError):
        SymmetrizerSet(3, ((1, 2), (2, 3)), "sym")  # overlap
    with pytest.raises(ValueError):
        SymmetrizerSet(3, ((2, 1),), "sym")  # unsorted block
    with pytest.raises(ValueError):
        SymmetrizerSet(3, ((1, 4),), "sym")  # out of range
    with pytest.raises(ValueError):
        SymmetrizerSet(3, ((1, 2),), "symmetric")  # bad kind


def test_out_of_range_degree_fails_before_enumerating(monkeypatch):
    # the set itself stays constructible, as mold_factors needs it at any degree
    blocks = (tuple(range(1, 9)),)
    assert SymmetrizerSet(8, blocks, "sym").degree == 8
    started = []
    for name in ("times_set", "lexicographic"):
        monkeypatch.setattr(_fast, name, lambda *args, name=name: started.append(name))
    with pytest.raises(ValueError, match="degree must be between 1 and 7, got 8"):
        symmetrizer(blocks, 8, "sym")
    assert started == []


def _set_products_agree(m, a, blocks, anti):
    """``_fast.times_set`` against ``multiply`` by the oracle's dict expansion."""
    got = AlgebraElement._raw(m, _fast.times_set(m, a._parts, blocks, anti))
    want = multiply(a, to_element(m, oracle_symmetrizer(blocks, m, anti)))
    assert got == want
    assert [v.dtype for _, v in got._parts.values()] == [v.dtype for _, v in want._parts.values()]


@st.composite
def _set_products(draw):
    """An element with several radicands and entries up to the storage bound,
    and a random disjoint block layout of degree m ≤ 5."""
    m = draw(st.integers(1, 5))
    order = draw(st.permutations(range(1, m + 1)))
    cuts = sorted(draw(st.lists(st.integers(0, m), max_size=m)))
    blocks = [tuple(sorted(order[lo:hi])) for lo, hi in zip([0] + cuts, cuts + [m])]
    blocks = tuple(b for b in blocks if b and draw(st.booleans()))
    numerators = st.one_of(st.integers(-50, 50), st.sampled_from([2**24 - 1, 2**24, -(2**24)]))
    radicands = st.sampled_from([1, 2, 3, 6])
    terms = draw(
        st.dictionaries(
            st.sampled_from(all_permutations(m)),
            st.tuples(radicands, numerators, st.integers(1, 12)),
            max_size=8,
        )
    )
    coefficients = {p: Surd({d: Fraction(n, q)}) for p, (d, n, q) in terms.items()}
    return m, AlgebraElement(m, coefficients), blocks, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_set_products())
def test_set_product_is_the_product_by_the_expanded_set(case):
    _set_products_agree(*case)


@pytest.mark.parametrize("t", [2**24 - 1, 2**24])
def test_set_product_of_stored_entries_at_the_bound(t):
    # t·Σ_g g times a set is t·Σ_g g again: int64 below the bound, Python ints at it
    a = AlgebraElement(5, {g: t for g in all_permutations(5)})
    ((_, v),) = a._parts.values()
    assert v.dtype == np.dtype(np.int64 if t < 2**24 else object)
    for anti in (False, True):
        _set_products_agree(5, a, ((1, 3, 4), (2, 5)), anti)


@pytest.mark.parametrize("seed", range(4))
def test_set_products_at_degree_seven(seed):
    # seed + 1 blocks over all seven points, from one block of seven up
    rng = random.Random(seed)
    order = rng.sample(range(1, 8), 7)
    cuts = sorted(rng.sample(range(1, 7), seed))
    blocks = tuple(tuple(sorted(order[lo:hi])) for lo, hi in zip([0] + cuts, cuts + [7]))
    perms = all_permutations(7)
    terms = {}
    for _ in range(12):
        coefficient = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        terms[rng.choice(perms)] = Surd({rng.choice([1, 2]): coefficient})
    _set_products_agree(7, AlgebraElement(7, terms), blocks, seed % 2 == 1)


def test_row_and_column_sets():
    t = T((1, 2, 5), (3, 4))
    assert rows_of(t).blocks == ((1, 2, 5), (3, 4))
    assert columns_of(t).blocks == ((1, 3), (2, 4), (5,))
    assert rows_of(t, 6).degree == 6


# -- Young projectors ---------------------------------------------------------


def test_young_projector_m3_expansions():
    y12_3 = young_projector(T((1, 2), (3,)))
    third = Fraction(1, 3)
    assert y12_3.element == E(
        3, {(): third, ((1, 2),): third, ((1, 3),): -third, ((1, 3, 2),): -third}
    )
    assert y12_3.normalization == Surd.rational(Fraction(4, 3))
    y13_2 = young_projector(T((1, 3), (2,)))
    assert y13_2.element == E(
        3, {(): third, ((1, 2),): -third, ((1, 3),): third, ((1, 2, 3),): -third}
    )


def test_alpha_values():
    assert young_projector(T((1, 2), (3,))).normalization == Surd.rational(
        Fraction(4, 3)
    )
    assert young_projector(T((1, 2, 5), (3, 4))).normalization == Surd.rational(2)
    assert young_projector(T((1, 2), (3, 4))).normalization == Surd.rational(
        Fraction(4, 3)
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_young_idempotency(n):
    # the projector is scaled by the closed form, so Y·Y = Y checks it
    for t in enumerate_tableaux(n):
        y = young_projector(t)
        assert y.normalization == Surd.rational(alpha_formula(t))
        assert multiply(y.element, y.element) == y.element


def test_young_conjugation_by_tableau_permutation():
    for n in (3, 4):
        for d in partitions(n):
            group = tableaux_of_shape(d)
            for theta, phi in itertools.product(group, repeat=2):
                rho = tableau_permutation(theta, phi)
                conj = multiply(
                    multiply(
                        AlgebraElement.from_permutation(rho),
                        young_projector(phi).element,
                    ),
                    AlgebraElement.from_permutation(rho.inverse()),
                )
                assert conj == young_projector(theta).element


def test_young_orthogonality_small_degrees():
    for n in (2, 3):
        ts = enumerate_tableaux(n)
        for a, b in itertools.permutations(ts, 2):
            prod = multiply(young_projector(a).element, young_projector(b).element)
            assert prod.is_zero(), (a, b)


def test_young_completeness_m3():
    total = AlgebraElement.zero(3)
    for t in enumerate_tableaux(3):
        total = total + young_projector(t).element
    assert total == AlgebraElement.identity(3)


def test_young_scalar_product_m3():
    y2 = young_projector(T((1, 2), (3,))).element
    y3 = young_projector(T((1, 3), (2,))).element
    assert scalar_product(y2, y3) == PolyN(
        {3: Fraction(-1, 9), 1: Fraction(1, 9)}
    )


def test_dimension_poly_m3():
    third = Fraction(1, 3)
    expected = PolyN({3: third, 1: -third})  # N (N^2 - 1) / 3
    assert dimension_poly(young_projector(T((1, 2), (3,)))) == expected
    assert dimension_poly(hermitian_projector(T((1, 2), (3,)))) == expected


# -- Hermitian projectors -----------------------------------------------------


def test_hermitian_m3_expansion():
    sixth = Fraction(1, 6)
    expected = E(
        3,
        {
            (): 2 * sixth,
            ((1, 2),): 2 * sixth,
            ((1, 3),): -sixth,
            ((2, 3),): -sixth,
            ((1, 2, 3),): -sixth,
            ((1, 3, 2),): -sixth,
        },
    )
    assert hermitian_staircase(T((1, 2), (3,))).element == expected
    assert hermitian_mold(T((1, 2), (3,))).element == expected


def test_mold_factor_structure():
    # row-ordered tableau: central triple S A S only
    fs = mold_factors(T((1, 2), (3,)))
    assert [(f.kind, lvl) for f, lvl in fs] == [
        ("sym", 0), ("anti", 0), ("sym", 0)
    ]
    # column-ordered: A S A
    fs = mold_factors(T((1, 3), (2,)))
    assert [(f.kind, lvl) for f, lvl in fs] == [
        ("anti", 0), ("sym", 0), ("anti", 0)
    ]
    # one ancestor level, column-ordered ancestor
    fs = mold_factors(T((1, 3), (2,), (4,)))
    assert [(f.kind, lvl) for f, lvl in fs] == [
        ("anti", 1), ("sym", 0), ("anti", 0), ("sym", 0), ("anti", 1)
    ]
    # two ancestor levels, row-ordered ancestor
    fs = mold_factors(T((1, 2, 4), (3, 5)))
    assert [(f.kind, lvl) for f, lvl in fs] == [
        ("sym", 2), ("anti", 1), ("sym", 0), ("anti", 0), ("sym", 0),
        ("anti", 1), ("sym", 2),
    ]


def test_mold_bar_refuses_a_relabelling_that_misses_the_cut_set(monkeypatch):
    # the identity carries 13/2's cut columns {1,2} onto themselves, not onto
    # 12/3's {1,3}
    theta, phi = T((1, 2), (3,)), T((1, 3), (2,))
    assert _mold_bar(theta, phi) != AlgebraElement.zero(3)
    monkeypatch.setattr(projectors_module, "tableau_permutation", lambda *args: Permutation.identity(3))
    with pytest.raises(ValueError, match="do not match across the relabelling"):
        _mold_bar(theta, phi)


def test_worked_four_box_mold_operators():
    # column-ordered ((1,4),(2),(3)):  (3/2) A_123 S_14 A_123
    p = hermitian_mold(T((1, 4), (2,), (3,)))
    a123 = symmetrizer(((1, 2, 3),), 4, "anti")
    s14 = symmetrizer(((1, 4),), 4, "sym")
    assert p.element == multiply(multiply(a123, s14), a123).scale(
        Surd.rational(Fraction(3, 2))
    )
    # one-level tableau ((1,3),(2),(4)):  2 A_12 S_13 A_124 S_13 A_12
    p2 = hermitian_mold(T((1, 3), (2,), (4,)))
    a12 = symmetrizer(((1, 2),), 4, "anti")
    s13 = symmetrizer(((1, 3),), 4, "sym")
    a124 = symmetrizer(((1, 2, 4),), 4, "anti")
    expected = multiply(
        multiply(multiply(multiply(a12, s13), a124), s13), a12
    ).scale(Surd.rational(2))
    assert p2.element == expected


def test_four_box_normalizations():
    betas = [hermitian_mold(t).normalization for t in enumerate_tableaux(4)]
    assert betas == [
        Surd.rational(x)
        for x in [
            1, Fraction(3, 2), 2, Fraction(3, 2), Fraction(4, 3), Fraction(4, 3),
            Fraction(3, 2), 2, Fraction(3, 2), 1,
        ]
    ]


def test_four_box_dimension_polys():
    n = PolyN({1: 1})
    expected = {
        (4,): n * (n + 1) * (n + 2) * (n + 3) * Fraction(1, 24),
        (3, 1): n * (n + 2) * (n * n - 1) * Fraction(1, 8),
        (2, 2): n * n * (n * n - 1) * Fraction(1, 12),
        (2, 1, 1): n * (n - 2) * (n * n - 1) * Fraction(1, 8),
        (1, 1, 1, 1): n * (n - 1) * (n - 2) * (n - 3) * Fraction(1, 24),
    }
    for t in enumerate_tableaux(4):
        assert dimension_poly(hermitian_projector(t)) == expected[t.shape.rows]


@pytest.mark.parametrize("n", range(1, 5))
def test_hermitian_constructions_agree(n):
    # the two constructions differ as factor sequences (and hence in their
    # bar-product normalization constants) but give the same element
    for t in enumerate_tableaux(n):
        ps = hermitian_staircase(t)
        pm = hermitian_mold(t)
        assert ps.element == pm.element, t


@pytest.mark.parametrize("n", range(1, 5))
def test_hermitian_invariants(n):
    for t in enumerate_tableaux(n):
        p = hermitian_projector(t).element
        y = young_projector(t).element
        assert multiply(p, p) == p
        assert dagger(p) == p
        # mutual sandwich identities: each projector restricts to the
        # identity on the other's image (the one-sided absorption direction
        # depends on the tableau, so only the sandwiched form is universal)
        assert multiply(multiply(p, y), p) == p
        assert multiply(multiply(y, p), y) == y
        # identical dimension polynomial across constructions
        assert trace(p) == trace(y)


# -- independent oracle: the Jucys–Murphy (Gelfand–Tsetlin) idempotents


def _addable_contents(t):
    """Contents (column − row) of the boxes that can be added to t's shape."""
    rows = [len(r) for r in t.rows]
    return {r - i for i, r in enumerate(rows) if i == 0 or rows[i - 1] > r} | {-len(rows)}


@cache
def jm_projector(t):
    """P_T = P_T'·Π_a (X_m − a)/(c_T(m) − a), as a dict of one-line images.

    T' is T without m, X_m = Σ_{i<m} (i m), and a runs over the contents of
    the addable boxes of T' other than c_T(m).  No symmetrizer, sandwich or
    normalization enters, and products are ``oracle_multiply``.
    """
    m = t.n
    if m == 1:
        return {(1,): Fraction(1)}
    parent = t.parent()
    (c,) = [j - i for i, row in enumerate(t.rows) for j, e in enumerate(row) if e == m]
    p = {images + (m,): q for images, q in jm_projector(parent).items()}
    for a in sorted(_addable_contents(parent) - {c}):
        factor = {tuple(range(1, m + 1)): Fraction(-a, c - a)}
        for i in range(1, m):
            swap = list(range(1, m + 1))
            swap[i - 1], swap[m - 1] = m, i
            factor[tuple(swap)] = Fraction(1, c - a)
        p = oracle_multiply(p, factor)
    return p


@pytest.mark.parametrize("n", range(1, 6))
def test_hermitian_projectors_are_the_jucys_murphy_idempotents(n):
    young = 0
    for t in enumerate_tableaux(n):
        jm = to_element(n, jm_projector(t))
        assert hermitian_projector(t).element == jm, t
        assert hermitian_staircase(t).element == jm, t
        # E_T[e] = f_λ/m! = 1/H_λ, the coefficient the normalisation relies on
        at_identity = hermitian_projector(t).element.coefficient(Permutation.identity(n))
        assert at_identity == Fraction(1, t.shape.hook_length()), t
        young += young_projector(t).element == jm
    # only the one-row and the one-column tableau have a Hermitian Young projector
    assert young == min(n, 2)


def test_hermitian_scale_refuses_a_bar_that_is_not_jucys_murphy_diagonal():
    # the Young bar of 12/3 squares to a multiple of itself, but Y·(1 2) != Y
    t = T((1, 2), (3,))
    bar = multiply(rows_of(t).element(), columns_of(t).element())
    assert proportionality(multiply(bar, bar), bar) == Surd.rational(Fraction(3, 4))
    with pytest.raises(ValueError, match="Jucys–Murphy eigenspaces"):
        _normalize(bar, t, t)
    with pytest.raises(ValueError, match="vanished"):
        _normalize(AlgebraElement.zero(3), t, t)
    e_t = hermitian_mold(t).element
    assert _normalize(e_t.scale(5), t, t) == (e_t, Fraction(1, 25))


@pytest.mark.slow
def test_hermitian_projectors_are_the_jucys_murphy_idempotents_at_m6():
    for t in enumerate_tableaux(6):
        jm = to_element(6, jm_projector(t))
        assert hermitian_projector(t).element == jm, t
        assert hermitian_staircase(t).element == jm, t


def test_hermitian_staircase_m5_sample():
    t = T((1, 2, 4), (3, 5))
    ps = hermitian_staircase(t)
    pm = hermitian_mold(t)
    assert ps.element == pm.element
    assert dagger(pm.element) == pm.element
    assert multiply(pm.element, pm.element) == pm.element


def test_single_box():
    t = T((1,))
    assert young_projector(t).element == AlgebraElement.identity(1)
    assert hermitian_mold(t).element == AlgebraElement.identity(1)
    assert hermitian_staircase(t).element == AlgebraElement.identity(1)
    assert dimension_poly(young_projector(t)) == PolyN({1: 1})


def test_two_box_projectors():
    sym = hermitian_mold(T((1, 2)))
    assert sym.element == symmetrizer(((1, 2),), 2, "sym")
    anti = hermitian_mold(T((1,), (2,)))
    assert anti.element == symmetrizer(((1, 2),), 2, "anti")
