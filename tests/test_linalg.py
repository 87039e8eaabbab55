from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sunbasis import _linalg
from sunbasis._linalg import fraction_rank, surd_rank
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


def _surd_elimination(rows):
    """Dense Gaussian elimination over the surd field, dividing by every pivot."""
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


def by_radicand(rows):
    """Each dense surd row as radicand -> {column: coefficient}."""
    out = []
    for r in rows:
        row = {}
        for c, x in enumerate(r):
            for d, q in x.terms():
                row.setdefault(d, {})[c] = q
        out.append(row)
    return out


r2 = Surd.sqrt(2)
one = Surd.rational(1)


def test_surd_elimination_on_mixed_radicands():
    cases = [
        ([[one, r2], [r2, Surd.rational(2)]], 1),
        ([[one, r2], [one + r2, one]], 2),
        ([[one, r2], [r2, Surd.rational(2)], [one + r2, one]], 2),
        ([[Surd(), Surd()]], 0),
    ]
    for rows, want in cases:
        assert _surd_elimination(rows) == want
        assert surd_rank(by_radicand(rows)) == want


# -- sparse surd rows, against the dense surd elimination ------------------------

RADICANDS = (1, 2, 3, 5, 6, 10)

# small nonzero surds mixing up to two radicands, to combine rows over the field
scalars = st.builds(
    lambda d, e, x, y: Surd({d: x, e: y}),
    st.sampled_from(RADICANDS),
    st.sampled_from(RADICANDS),
    st.integers(-2, 2),
    st.integers(1, 2),
).filter(bool)


@st.composite
def surd_matrices(draw, max_cols=5, max_rows=8):
    """Dense surd rows of four kinds: rows with one radicand each (differing
    between rows), rows mixing two or three radicands, field combinations
    k1·a + k2·b of drawn rows with surd k1, k2 (so the rank drops), and
    all-zero rows."""
    ncols = draw(st.integers(1, max_cols))

    def draw_row(nrads):
        rads = draw(st.lists(st.sampled_from(RADICANDS), min_size=nrads, max_size=nrads, unique=True))
        return [Surd({d: draw(entries) for d in rads}) for _ in range(ncols)]

    rows = [draw_row(1) for _ in range(draw(st.integers(0, max_rows // 2)))]
    rows += [draw_row(draw(st.integers(2, 3))) for _ in range(draw(st.integers(0, max_rows // 4)))]
    for _ in range(draw(st.integers(0, max_rows // 4)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k1, k2 = draw(scalars), draw(scalars)
        rows.append([k1 * x + k2 * y for x, y in zip(a, b)])
    rows.extend([Surd()] * ncols for _ in range(draw(st.integers(0, max_rows // 4))))
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(surd_matrices())
def test_surd_rank_matches_dense_elimination(rows):
    assert surd_rank(by_radicand(rows)) == _surd_elimination(rows)


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


def test_single_radicand_rows_are_not_expanded(monkeypatch):
    calls = []
    real = _linalg.fraction_rank

    def spy(rows):
        rows = list(rows)
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(_linalg, "fraction_rank", spy)
    # a √2 row, a √3 row and √2 times the √2 row (rational): rank 2
    rows = [{2: {0: 1, 4: 3}}, {3: {1: 1}}, {1: {0: 2, 4: 6}}, {}]
    assert surd_rank(rows) == 2
    assert calls == [3]
    # a row mixing 1 and √2 expands every row over the basis {1, √2}
    rows.append({1: {0: 1, 7: 1}, 2: {0: 1}})
    assert surd_rank(rows) == 3
    assert calls == [3, 10]
