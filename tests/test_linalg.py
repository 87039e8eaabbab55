from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sunbasis import _linalg
from sunbasis._linalg import _surd_elimination, fraction_rank, surd_rank
from sunbasis.coefficients import Surd
from sunbasis.matrix_rep import ConcreteMatrix, rank


def sparse(rows):
    """Each dense row as its nonzeros, column -> entry."""
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


def reference_rank(rows):
    """Gaussian elimination over ``Fraction``, dividing by every pivot."""
    work = [[Fraction(x) for x in r] for r in rows if any(r)]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank]
        inv = 1 / lead[col]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                ratio = f * inv
                work[i] = [a - ratio * b for a, b in zip(work[i], lead)]
        rank += 1
        if rank == len(work):
            break
    return rank


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    # append integer combinations of drawn rows, so many matrices lose rank
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([x * u + y * v for u, v in zip(a, b)])
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_fraction_rank_matches_reference(rows):
    assert fraction_rank(sparse(rows)) == reference_rank(rows)


def test_fraction_rank_keeps_big_entries_exact():
    big = 2**80
    assert fraction_rank(sparse([[big, 1], [big + 1, 1]])) == 2
    assert fraction_rank(sparse([[big, 3 * big], [Fraction(1, big), Fraction(3, big)]])) == 1


r2 = Surd.sqrt(2)
one = Surd.rational(1)


def test_surd_elimination_on_mixed_radicands():
    assert _surd_elimination([[one, r2], [r2, Surd.rational(2)]]) == 1
    assert _surd_elimination([[one, r2], [one + r2, one]]) == 2
    assert _surd_elimination([[one, r2], [r2, Surd.rational(2)], [one + r2, one]]) == 2
    assert _surd_elimination([[Surd(), Surd()]]) == 0


# -- sparse surd rows, against the dense surd elimination ------------------------

RADICANDS = (1, 2, 3, 6)


@st.composite
def surd_matrices(draw, max_cols=5, max_rows=8):
    """Dense surd rows of three kinds: one radicand per row (differing between
    rows, with √d-multiples of other rows so the rank drops), all-zero rows,
    and optionally one row that mixes radicands."""
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = []
    for _ in range(draw(st.integers(0, max_rows // 2))):
        d = draw(st.sampled_from(RADICANDS))
        rows.append([Surd({d: c}) for c in draw(row)])
    for _ in range(draw(st.integers(0, max_rows // 4)) if rows else 0):
        scale = Surd.sqrt(draw(st.sampled_from(RADICANDS))) * draw(st.integers(1, 3))
        rows.append([scale * x for x in draw(st.sampled_from(rows))])
    rows.extend([Surd()] * ncols for _ in range(draw(st.integers(0, max_rows // 4))))
    if draw(st.booleans()):
        rows.append([Surd({1: x, 2: y}) for x, y in zip(draw(row), draw(row))])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(surd_matrices())
def test_surd_rank_matches_dense_elimination(rows):
    assert surd_rank(sparse(rows)) == _surd_elimination(rows)


@st.composite
def concrete_matrices(draw):
    n, m = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2)]))
    size = n**m
    rows = draw(surd_matrices(max_cols=size, max_rows=size))
    entries = {}
    for r, row in zip(draw(st.permutations(range(size))), rows):
        entries.update({(r, c): x for c, x in enumerate(row) if x})
    return ConcreteMatrix(n, m, entries)


@settings(max_examples=200, deadline=None)
@given(concrete_matrices())
def test_concrete_rank_matches_dense_elimination(c):
    dense = [[c.entry(r, col) for col in range(c.size)] for r in range(c.size)]
    assert rank(c) == _surd_elimination(dense)


def test_single_radicand_rows_skip_the_dense_fallback(monkeypatch):
    calls = []
    real = _linalg._surd_elimination

    def spy(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(_linalg, "_surd_elimination", spy)
    r3 = Surd.sqrt(3)
    # a √2 row, a √3 row and √2 times the √2 row (rational): rank 2
    rows = [{0: r2, 4: r2 * 3}, {1: r3}, {0: Surd.rational(2), 4: Surd.rational(6)}, {}]
    assert surd_rank(rows) == 2
    assert calls == []
    rows.append({0: one + r2, 7: one})
    assert surd_rank(rows) == 3
    assert calls == [5]
