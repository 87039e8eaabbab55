from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunbasis.permutations import Permutation
from sunbasis.tableaux import (
    YoungDiagram,
    YoungTableau,
    enumerate_tableaux,
    partitions,
    tableau_from_json,
    tableau_to_json,
    tableau_permutation,
    tableaux_of_shape,
)


def T(*rows):
    return YoungTableau(tuple(tuple(r) for r in rows))


def any_tableau(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.sampled_from(enumerate_tableaux(n))
    )


# -- diagrams ----------------------------------------------------------------


def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))
    assert YoungDiagram((3, 1)).n == 4


def test_conjugate():
    assert YoungDiagram((4, 3, 1)).conjugate() == YoungDiagram((3, 2, 2, 1))
    assert YoungDiagram((1, 1, 1)).conjugate() == YoungDiagram((3,))


def test_hook_lengths():
    assert YoungDiagram((4, 3, 1)).hook_length() == 576
    assert YoungDiagram((3, 2)).hook_length() == 24
    assert YoungDiagram((2, 1)).hook_length() == 3
    assert YoungDiagram((5,)).hook_length() == 120


@pytest.mark.parametrize("n", range(1, 9))
def test_hook_lengths_are_computed_once_and_unchanged(n):
    for d in partitions(n):
        cols = [sum(1 for r in d.rows if r > c) for c in range(d.rows[0])]
        hooks = [r - j + cols[j] - i - 1 for i, r in enumerate(d.rows) for j in range(r)]
        product = 1
        for h in hooks:
            product *= h
        assert d.hook_length() == d.hook_length() == product
        assert d.tableau_count() * product == factorial(n)


def test_shape_is_built_once_and_leaves_identity_alone():
    t = T((1, 2, 5), (3, 4))
    fresh = T((1, 2, 5), (3, 4))
    assert t.shape is t.shape
    assert t.shape == YoungDiagram((3, 2))
    # a tableau that holds its shape compares, orders, hashes and prints as
    # one that does not
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert not t < fresh and not fresh < t
    assert sorted([T((1, 3, 5), (2, 4)), t]) == [t, T((1, 3, 5), (2, 4))]
    assert tableau_to_json(t) == tableau_to_json(fresh)
    d = YoungDiagram((3, 2))
    d.hook_length()
    assert d == YoungDiagram((3, 2)) and hash(d) == hash(YoungDiagram((3, 2)))
    assert repr(d) == "YoungDiagram(rows=(3, 2))"


@pytest.mark.parametrize("n", [1, 4, 6])
def test_a_tableau_hashes_as_its_filling(n):
    # equal tableaux hash equal, and a tableau hashes as its rows tuple, so a
    # tableau-keyed cache pays one tuple hash per tableau, not one per lookup
    tableaux = enumerate_tableaux(n)
    for t in tableaux:
        fresh = YoungTableau(t.rows)
        assert fresh == t and fresh is not t
        assert hash(t) == hash(fresh) == hash(t.rows) == hash(t)
    assert len({YoungTableau(t.rows) for t in tableaux} | set(tableaux)) == len(tableaux)


def test_tableau_counts():
    assert YoungDiagram((4, 3, 1)).tableau_count() == 70
    assert YoungDiagram((2, 1)).tableau_count() == 2
    assert YoungDiagram((2, 2)).tableau_count() == 2


@pytest.mark.parametrize("n", range(1, 8))
def test_squared_counts_sum_to_factorial(n):
    assert sum(d.tableau_count() ** 2 for d in partitions(n)) == factorial(n)


def test_partition_order_is_reverse_lexicographic():
    assert [d.rows for d in partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    assert len(partitions(7)) == 15


# -- tableaux ----------------------------------------------------------------


def test_tableau_validation():
    with pytest.raises(ValueError):
        T((1, 3), (2, 4), (5, 6, 7))  # not a diagram shape
    with pytest.raises(ValueError):
        T((2, 1), (3,))  # row not increasing
    with pytest.raises(ValueError):
        T((1, 2), (4,), (3,))  # column not increasing
    with pytest.raises(ValueError):
        T((1, 2), (2, 3))  # duplicate entry


def test_words():
    t = T((1, 3), (2,), (4,))
    assert t.row_word() == (1, 3, 2, 4)
    assert t.column_word() == (1, 2, 4, 3)
    assert not t.is_row_ordered()
    assert not t.is_column_ordered()
    assert T((1, 2), (3,)).is_row_ordered()
    assert T((1, 3), (2,)).is_column_ordered()


def test_columns():
    t = T((1, 2, 5), (3, 4))
    assert t.columns() == ((1, 3), (2, 4), (5,))


def test_parent_chain():
    t = T((1, 2, 5), (3, 4))
    assert t.parent() == T((1, 2), (3, 4))
    assert t.ancestor(2) == T((1, 2), (3,))
    assert t.ancestor(0) == t
    assert t.ancestor(4) == T((1,))
    with pytest.raises(ValueError):
        t.ancestor(5)
    with pytest.raises(ValueError):
        T((1,)).parent()


def test_descendants():
    t = T((1, 2), (3,))
    assert set(t.descendants()) == {
        T((1, 2, 4), (3,)),
        T((1, 2), (3, 4)),
        T((1, 2), (3,), (4,)),
    }


@given(any_tableau())
def test_parent_of_descendants(t):
    for d in t.descendants():
        assert d.parent() == t
    if t.n > 1:
        assert t in t.parent().descendants()


def test_mold_values():
    assert T((1, 2), (3,)).mold() == 0  # row-ordered
    assert T((1, 3), (2,)).mold() == 0  # column-ordered
    assert T((1, 3), (2,), (4,)).mold() == 1
    assert T((1, 2, 4), (3, 5)).mold() == 2
    assert T((1, 3, 5), (2, 4), (6,)).mold() == 1
    # the definition picks the *smallest* ordered ancestor:
    # ancestor(2) of the following 6-box tableau is row-ordered ((1,2),(3),(4))
    assert T((1, 2, 6), (3, 5), (4,)).mold() == 2


@given(any_tableau())
def test_mold_bound(t):
    m = t.mold()
    assert 0 <= m <= max(t.n - 3, 0)
    assert t.ancestor(m).is_ordered()
    for k in range(m):
        assert not t.ancestor(k).is_ordered()


# -- enumeration -------------------------------------------------------------


def test_enumeration_m3():
    assert enumerate_tableaux(3) == (
        T((1, 2, 3)),
        T((1, 2), (3,)),
        T((1, 3), (2,)),
        T((1,), (2,), (3,)),
    )


def test_enumeration_m4_group_order_and_row_word_order():
    ts = enumerate_tableaux(4)
    assert len(ts) == 10
    shapes = [t.shape.rows for t in ts]
    assert shapes == [(4,)] + [(3, 1)] * 3 + [(2, 2)] * 2 + [(2, 1, 1)] * 3 + [
        (1, 1, 1, 1)
    ]
    assert ts[1:4] == (
        T((1, 2, 3), (4,)),
        T((1, 2, 4), (3,)),
        T((1, 3, 4), (2,)),
    )
    assert ts[4:6] == (T((1, 2), (3, 4)), T((1, 3), (2, 4)))
    assert ts[6:9] == (
        T((1, 2), (3,), (4,)),
        T((1, 3), (2,), (4,)),
        T((1, 4), (2,), (3,)),
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_counts(n):
    ts = enumerate_tableaux(n)
    assert len(ts) == sum(d.tableau_count() for d in partitions(n))
    assert len(set(ts)) == len(ts)
    for d in partitions(n):
        group = [t for t in ts if t.shape == d]
        assert len(group) == d.tableau_count()
        words = [t.row_word() for t in group]
        assert words == sorted(words)


# -- the relabelling permutation ---------------------------------------------


def test_tableau_permutation_small():
    theta, phi = T((1, 2), (3,)), T((1, 3), (2,))
    rho = tableau_permutation(theta, phi)
    assert rho == Permutation.transposition(3, 2, 3)


def test_tableau_permutation_six_boxes():
    theta = T((1, 3, 5), (2, 4), (6,))
    phi = T((1, 2, 6), (3, 5), (4,))
    rho = tableau_permutation(theta, phi)
    assert rho == Permutation.from_cycles(6, ((2, 3), (4, 6, 5)))


def test_tableau_permutation_requires_equal_shapes():
    with pytest.raises(ValueError):
        tableau_permutation(T((1, 2), (3,)), T((1, 2, 3)))


@given(st.integers(2, 5), st.data())
@settings(max_examples=50)
def test_tableau_permutation_properties(n, data):
    diagram = data.draw(st.sampled_from(partitions(n)))
    group = tableaux_of_shape(diagram)
    theta = data.draw(st.sampled_from(group))
    phi = data.draw(st.sampled_from(group))
    psi = data.draw(st.sampled_from(group))
    rho = tableau_permutation(theta, phi)
    # cell-by-cell relabelling carries phi onto theta
    relabelled = tuple(tuple(rho(e) for e in row) for row in phi.rows)
    assert relabelled == theta.rows
    # composition and inverse laws
    assert tableau_permutation(theta, phi) * tableau_permutation(
        phi, psi
    ) == tableau_permutation(theta, psi)
    assert rho.inverse() == tableau_permutation(phi, theta)
    assert tableau_permutation(theta, theta) == Permutation.identity(n)


# -- serialization ------------------------------------------------------------


def test_tableau_json_roundtrip():
    t = T((1, 2, 5), (3, 4))
    j = tableau_to_json(t)
    assert j == {"shape": [3, 2], "rows": [[1, 2, 5], [3, 4]]}
    assert tableau_from_json(j) == t
    with pytest.raises(ValueError):
        tableau_from_json({"shape": [2, 2], "rows": [[1, 2, 5], [3, 4]]})
