import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sunbasis import _fast
from sunbasis.algebra import AlgebraElement, dagger, multiply, proportionality
from sunbasis.coefficients import Surd
from sunbasis.permutations import Permutation
from sunbasis.projectors import (
    _normalize,
    hermitian_mold,
    hermitian_projector,
    mold_factors,
    symmetrizer,
    young_projector,
)
from sunbasis.tableaux import YoungTableau, enumerate_tableaux, tableau_permutation
from sunbasis.transitions import (
    TransitionOperator,
    transition,
    unitary_transition_compact,
    unitary_transition_general,
    young_transition,
)


def T(*rows):
    return YoungTableau(tuple(tuple(r) for r in rows))


def P(m, *cycles):
    return Permutation.from_cycles(m, tuple(tuple(c) for c in cycles))


def E(m, d):
    return AlgebraElement(
        m, {P(m, *cycs): Surd.rational(c) for cycs, c in d.items()}
    )


def same_shape_pairs(m):
    groups: dict = {}
    for t in enumerate_tableaux(m):
        groups.setdefault(t.shape, []).append(t)
    for ts in groups.values():
        yield from itertools.combinations(ts, 2)


# -- fixed m=3 pair used throughout: the two tableaux of the hook shape

TH3, PH3 = T((1, 2), (3,)), T((1, 3), (2,))


# -- young kind -------------------------------------------------------------


def test_young_m3_frozen_expansion():
    t = young_transition(TH3, PH3)
    assert t.kind == "young"
    assert t.tau_squared == Fraction(1)
    assert t.element == E(
        3,
        {
            ((2, 3),): Fraction(1, 3),
            ((1, 2, 3),): Fraction(1, 3),
            ((1, 3, 2),): Fraction(-1, 3),
            ((1, 3),): Fraction(-1, 3),
        },
    )


def test_young_equals_twisted_projector_both_ways():
    # rho * Y_phi and Y_theta * rho describe the same operator
    for theta, phi in same_shape_pairs(4):
        rho = AlgebraElement.from_permutation(tableau_permutation(theta, phi))
        t = young_transition(theta, phi)
        assert t.element == multiply(rho, young_projector(phi).element)
        assert t.element == multiply(young_projector(theta).element, rho)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_young_absorption_and_composition(m):
    for theta, phi in same_shape_pairs(m):
        y_theta = young_projector(theta).element
        y_phi = young_projector(phi).element
        t = young_transition(theta, phi).element
        t_rev = young_transition(phi, theta).element
        assert multiply(y_theta, t) == t
        assert multiply(t, y_phi) == t
        assert multiply(t, t_rev) == y_theta
        assert multiply(t_rev, t) == y_phi


def test_young_same_tableau_is_projector():
    for t in enumerate_tableaux(3):
        assert young_transition(t, t).element == young_projector(t).element


def test_young_is_not_a_partial_isometry():
    # the reverse operator differs from the dagger, unlike the unitary kinds
    t = young_transition(TH3, PH3)
    t_rev = young_transition(PH3, TH3)
    assert dagger(t.element) != t_rev.element


def test_young_rejects_five_boxes():
    a = T((1, 2, 3), (4,), (5,))
    b = T((1, 2, 4), (3,), (5,))
    with pytest.raises(ValueError, match="Young transition basis undefined beyond m=4"):
        young_transition(a, b)


def test_shape_mismatch_rejected():
    a, b = T((1, 2), (3,)), T((1, 2, 3))
    for build in (young_transition, unitary_transition_general, unitary_transition_compact):
        with pytest.raises(ValueError, match="equal shape"):
            build(a, b)


# -- general (sandwich) kind ------------------------------------------------


def test_general_m3_frozen():
    t = unitary_transition_general(TH3, PH3)
    assert t.tau_squared == Fraction(4, 3)
    s12 = symmetrizer(((1, 2),), 3, "sym")
    a12 = symmetrizer(((1, 2),), 3, "anti")
    rho = AlgebraElement.from_permutation(P(3, (2, 3)))
    expected = multiply(multiply(s12, rho), a12).scale(Surd.sqrt(Fraction(4, 3)))
    assert t.element == expected


@pytest.mark.parametrize("m", [2, 3, 4])
def test_general_partial_isometry(m):
    for theta, phi in same_shape_pairs(m):
        p_theta = hermitian_projector(theta).element
        p_phi = hermitian_projector(phi).element
        t = unitary_transition_general(theta, phi).element
        assert multiply(t, dagger(t)) == p_theta
        assert multiply(dagger(t), t) == p_phi
        assert multiply(p_theta, t) == t
        assert multiply(t, p_phi) == t
        assert dagger(t) == unitary_transition_general(phi, theta).element


def test_general_same_tableau_is_projector():
    for t in enumerate_tableaux(4):
        op = unitary_transition_general(t, t)
        assert op.element == hermitian_projector(t).element
        assert op.tau_squared == Fraction(1)


# -- compact (cut-and-glue) kind ---------------------------------------------


def test_compact_m3_equals_general():
    c = unitary_transition_compact(TH3, PH3)
    g = unitary_transition_general(TH3, PH3)
    assert c.element == g.element
    assert c.tau_squared == Fraction(4, 3)


def test_compact_m4_worked_pair():
    # target has a doubly-occurring antisymmetrizer set, source a single one
    theta, phi = T((1, 4), (2,), (3,)), T((1, 3), (2,), (4,))
    op = unitary_transition_compact(theta, phi)
    assert op.tau_squared == Fraction(2)
    a123 = symmetrizer(((1, 2, 3),), 4, "anti")
    s13 = symmetrizer(((1, 3),), 4, "sym")
    a12 = symmetrizer(((1, 2),), 4, "anti")
    rho = AlgebraElement.from_permutation(P(4, (3, 4)))
    bar = multiply(multiply(multiply(a123, rho), s13), a12)
    assert op.element == bar.scale(Surd.sqrt(Fraction(2)))


def test_compact_tau_squared_grid_m4():
    # normalization squares for every same-shape pair with four boxes,
    # keyed by (shape, positions in row-word order)
    expected = {
        ((3, 1), 1, 2): Fraction(2),
        ((3, 1), 1, 3): Fraction(3, 2),
        ((3, 1), 2, 3): Fraction(3),
        ((2, 2), 1, 2): Fraction(4, 3),
        ((2, 1, 1), 1, 2): Fraction(3),
        ((2, 1, 1), 1, 3): Fraction(3, 2),
        ((2, 1, 1), 2, 3): Fraction(2),
    }
    groups: dict = {}
    for t in enumerate_tableaux(4):
        groups.setdefault(t.shape.rows, []).append(t)
    seen = {}
    for rows, ts in groups.items():
        for (i, a), (j, b) in itertools.combinations(enumerate(ts, 1), 2):
            seen[(rows, i, j)] = unitary_transition_compact(a, b).tau_squared
    assert seen == expected


@pytest.mark.parametrize("m", [2, 3, 4])
def test_compact_equals_general(m):
    for theta, phi in same_shape_pairs(m):
        c = unitary_transition_compact(theta, phi)
        g = unitary_transition_general(theta, phi)
        assert c.element == g.element
        assert dagger(c.element) == unitary_transition_compact(phi, theta).element


def test_compact_m5_sample_pairs():
    pairs = [
        (T((1, 2, 3), (4, 5)), T((1, 3, 5), (2, 4))),
        (T((1, 2), (3, 4), (5,)), T((1, 3), (2, 5), (4,))),
        (T((1, 2, 3, 4), (5,)), T((1, 3, 4, 5), (2,))),
    ]
    for theta, phi in pairs:
        c = unitary_transition_compact(theta, phi)
        g = unitary_transition_general(theta, phi)
        assert c.element == g.element
        p_theta = hermitian_projector(theta).element
        p_phi = hermitian_projector(phi).element
        assert multiply(c.element, dagger(c.element)) == p_theta
        assert multiply(dagger(c.element), c.element) == p_phi


@pytest.mark.parametrize("n", range(1, 6))
def test_compact_same_tableau_is_projector(n):
    # a projector is the transition from its tableau to itself
    for t in enumerate_tableaux(n):
        op = unitary_transition_compact(t, t)
        assert op.element == hermitian_mold(t).element
        assert Surd.sqrt(op.tau_squared) == hermitian_mold(t).normalization


def test_compact_cut_cases_all_occur_at_m4():
    # the cut-site rule distinguishes single and double occurrences of the
    # full antisymmetrizer set; four boxes already exercise every case
    def copies(t):
        return sum(
            1 for s, level in mold_factors(t) if level == 0 and s.kind == "anti"
        )

    cases = set()
    for theta, phi in same_shape_pairs(4):
        cases.add((copies(theta), copies(phi)))
        cases.add((copies(phi), copies(theta)))
    assert {(1, 1), (1, 2), (2, 1), (2, 2)} <= cases


def test_compact_double_double_cut_side_is_immaterial():
    # with two copies in both sequences, cutting at the right-most pair
    # instead of the left-most one gives the same operator after scaling
    theta, phi = T((1, 2, 4), (3,)), T((1, 3, 4), (2,))
    f_theta, f_phi = mold_factors(theta), mold_factors(phi)

    def anti_positions(factors):
        return [
            i for i, (s, level) in enumerate(factors) if level == 0 and s.kind == "anti"
        ]

    assert len(anti_positions(f_theta)) == 2
    assert len(anti_positions(f_phi)) == 2
    rho = AlgebraElement.from_permutation(tableau_permutation(theta, phi))

    def glue(i_theta, i_phi):
        acc = AlgebraElement.identity(5 - 1)
        for s, _ in f_theta[: i_theta + 1]:
            acc = multiply(acc, s.element())
        acc = multiply(acc, rho)
        for s, _ in f_phi[i_phi + 1 :]:
            acc = multiply(acc, s.element())
        return acc

    left_bar = glue(anti_positions(f_theta)[0], anti_positions(f_phi)[0])
    right_bar = glue(anti_positions(f_theta)[-1], anti_positions(f_phi)[-1])
    ratio = proportionality(left_bar, right_bar)
    assert ratio is not None and ratio
    p_theta = hermitian_projector(theta).element
    for bar in (left_bar, right_bar):
        c = proportionality(multiply(bar, dagger(bar)), p_theta).as_fraction()
        scaled = bar.scale(Surd.sqrt(Fraction(1) / c))
        assert scaled == unitary_transition_compact(theta, phi).element


def test_cross_image_products_vanish():
    # transitions whose inner endpoints differ annihilate each other
    ops = {}
    for theta, phi in same_shape_pairs(4):
        ops[(theta, phi)] = unitary_transition_compact(theta, phi).element
        ops[(phi, theta)] = unitary_transition_compact(phi, theta).element
    items = list(ops.items())
    checked = 0
    for (a, b), t1 in items[:6]:
        for (c, d), t2 in items:
            if b != c:
                assert multiply(t1, t2).is_zero()
                checked += 1
    assert checked > 0


# -- normalization -------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("build", [unitary_transition_compact, unitary_transition_general])
def test_unitary_transitions_square_to_their_projectors(build, m):
    # the full squares that _normalize no longer forms, as an oracle
    groups: dict = {}
    for t in enumerate_tableaux(m):
        groups.setdefault(t.shape, []).append(t)
    for ts in groups.values():
        for theta, phi in itertools.product(ts, repeat=2):
            t = build(theta, phi).element
            assert multiply(t, dagger(t)) == hermitian_projector(theta).element
            assert multiply(dagger(t), t) == hermitian_projector(phi).element


def test_normalize_refuses_a_bar_outside_the_eigenspaces():
    op = unitary_transition_general(TH3, PH3).element
    rho = AlgebraElement.from_permutation(tableau_permutation(TH3, PH3))
    p_theta = hermitian_projector(TH3).element
    # each lies in E_θ·A·E_φ for no pair (θ, φ) but the one it is tried at
    for bar, theta, phi in [
        (op, TH3, TH3),
        (op, PH3, PH3),
        (rho, TH3, PH3),
        (op + p_theta, TH3, PH3),
        (multiply(p_theta, rho), TH3, PH3),
    ]:
        with pytest.raises(ValueError, match="Jucys–Murphy eigenspaces"):
            _normalize(bar, theta, phi)
    assert _normalize(op, TH3, PH3) == (op, Fraction(1))


@pytest.mark.parametrize("scale", [2**40, 3**45, Fraction(1, 2**64), 2**70 + 3], ids=str)
def test_normalize_is_exact_beyond_int64(scale):
    # entries past 2**62 take the eigen-sums and the dot products to Python ints;
    # at 2**70 + 3 the root of τ² = 1/scale² lies past the trial divisors
    theta, phi = T((1, 2, 4), (3, 5)), T((1, 3, 5), (2, 4))
    op = unitary_transition_compact(theta, phi)
    element, tau_squared = _normalize(op.element.scale(scale), theta, phi)
    assert element == op.element
    assert tau_squared == 1 / Fraction(scale) ** 2


def test_normalize_sums_entries_near_the_int64_guard():
    # entries just below 2**24 are stored as int64 and those at or past it as
    # Python ints; either way the eigen-sums and the dot products are exact
    theta, phi = T((1, 2, 4), (3, 5)), T((1, 3, 5), (2, 4))
    op = unitary_transition_compact(theta, phi)
    parts = list(op.element._parts.values())
    t = max(int(abs(vec).max()) for _, vec in parts)
    # scales near the bound with no factor to cancel against a denominator
    near = (_fast._STORED - 1) // t
    ks = [k for k in range(near - 10, near + 10) if all(math.gcd(k, q) == 1 for q, _ in parts)]
    below = max(k for k in ks if k * t < _fast._STORED)
    above = min(k for k in ks if k > below)
    for k, dtype in ((below, np.int64), (above, object)):
        scaled = op.element.scale(k)
        assert max(int(abs(v).max()) for _, v in scaled._parts.values()) == k * t
        stored = {v.dtype for _, v in scaled._parts.values()}
        assert (np.dtype(object) in stored) is (dtype is object)
        assert _normalize(scaled, theta, phi) == (op.element, Fraction(1, k * k))


# -- shared surface -----------------------------------------------------------


def test_dispatcher_routes_all_methods():
    assert transition(TH3, PH3, "young").kind == "young"
    assert transition(TH3, PH3, "general").kind == "general"
    assert transition(TH3, PH3).kind == "compact"
    with pytest.raises(ValueError, match="unknown transition method"):
        transition(TH3, PH3, "fast")


def test_operator_validation():
    with pytest.raises(ValueError, match="unknown transition kind"):
        TransitionOperator(TH3, PH3, "twist", AlgebraElement.identity(3), Fraction(1))
    with pytest.raises(ValueError, match="equal shapes"):
        TransitionOperator(
            TH3, T((1, 2, 3)), "general", AlgebraElement.identity(3), Fraction(1)
        )


def test_tau_squared_is_rational_and_positive():
    for theta, phi in same_shape_pairs(4):
        for build in (unitary_transition_general, unitary_transition_compact):
            op = build(theta, phi)
            assert isinstance(op.tau_squared, Fraction)
            assert op.tau_squared > 0
