from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sunbasis._linalg import _surd_elimination, fraction_rank
from sunbasis.coefficients import Surd


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
    assert fraction_rank(rows) == reference_rank(rows)


def test_fraction_rank_keeps_big_entries_exact():
    big = 2**80
    assert fraction_rank([[big, 1], [big + 1, 1]]) == 2
    assert fraction_rank([[big, 3 * big], [Fraction(1, big), Fraction(3, big)]]) == 1


r2 = Surd.sqrt(2)
one = Surd.rational(1)


def test_surd_elimination_on_mixed_radicands():
    assert _surd_elimination([[one, r2], [r2, Surd.rational(2)]]) == 1
    assert _surd_elimination([[one, r2], [one + r2, one]]) == 2
    assert _surd_elimination([[one, r2], [r2, Surd.rational(2)], [one + r2, one]]) == 2
    assert _surd_elimination([[Surd(), Surd()]]) == 0

