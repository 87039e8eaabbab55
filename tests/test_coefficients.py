from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sunbasis.coefficients import (
    PolyN,
    Surd,
    poly_from_json,
    poly_to_json,
    rational_from_json,
    rational_to_json,
    squarefree_decompose,
    surd_from_json,
    surd_to_json,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15])


def surds(max_terms=3):
    return st.dictionaries(radicands, rationals, max_size=max_terms).map(Surd)


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (3, 2)
    assert squarefree_decompose(49) == (1, 7)
    assert squarefree_decompose(360) == (10, 6)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_squarefree_decompose_past_the_trial_bound():
    big, bigger = 2**31 - 1, 2**61 - 1  # primes past the trial bound
    # a square is taken whole, whatever its factors
    assert squarefree_decompose(12 * big**2) == (3, 2 * big)
    assert squarefree_decompose((2**70 + 3) ** 2) == (1, 2**70 + 3)
    # below the cube of the bound the rest is p or p·q
    assert squarefree_decompose(5 * 65537) == (5 * 65537, 1)
    assert squarefree_decompose(65537 * 65539) == (65537 * 65539, 1)
    assert squarefree_decompose(4 * 65537**2) == (1, 2 * 65537)
    # above it a product of large primes is refused, not factored
    with pytest.raises(ValueError, match="squarefree part of"):
        squarefree_decompose(big * bigger)
    with pytest.raises(ValueError, match="squarefree part of"):
        squarefree_decompose(65537**3)


def test_sqrt_of_rational():
    # sqrt(4/3) = (2/3) sqrt(3)
    assert Surd.sqrt(Fraction(4, 3)).terms() == ((3, Fraction(2, 3)),)
    assert Surd.sqrt(9) == Surd.rational(3)
    assert Surd.sqrt(Fraction(1, (2**70 + 3) ** 2)) == Surd.rational(Fraction(1, 2**70 + 3))
    with pytest.raises(ValueError):
        Surd.sqrt(0)
    with pytest.raises(ValueError):
        Surd.sqrt(Fraction(-1, 2))


def test_sqrt_squares_back():
    x = Surd.sqrt(Fraction(4, 3))
    assert (x * x).as_fraction() == Fraction(4, 3)


def test_canonical_radicands():
    # sqrt(8) = 2 sqrt(2), so both spellings are the same surd
    assert Surd({8: 1}) == Surd({2: 2})
    assert Surd({2: Fraction(1, 2)}).coefficient(8) == Fraction(1, 4)


def test_distinct_radicals_are_independent():
    assert Surd({2: 1}) != Surd({3: 1})
    assert Surd({1: 1, 2: 1}) - Surd({2: 1}) == Surd.rational(1)


def test_product_of_radicals():
    assert Surd.sqrt(2) * Surd.sqrt(3) == Surd.sqrt(6)
    assert Surd.sqrt(2) * Surd.sqrt(2) == Surd.rational(2)
    assert Surd.sqrt(6) * Surd.sqrt(10) == Surd({15: 2})


def test_rationality_checks():
    assert Surd.rational(Fraction(3, 4)).is_rational()
    assert not Surd.sqrt(2).is_rational()
    with pytest.raises(ValueError):
        Surd.sqrt(2).as_fraction()
    assert Surd().as_fraction() == 0


def test_inverse_single_radical():
    x = Surd({2: Fraction(3, 4)})
    assert x.inverse() * x == Surd.rational(1)


def test_inverse_mixed():
    x = Surd({1: 1, 2: 1})  # 1 + sqrt(2)
    assert x.inverse() == Surd({1: -1, 2: 1})
    y = Surd({1: Fraction(1, 2), 2: 1, 3: -2})
    assert (y.inverse() * y) == Surd.rational(1)
    with pytest.raises(ZeroDivisionError):
        Surd().inverse()


@given(surds(), surds(), surds())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Surd() == a
    assert a * Surd.rational(1) == a


@given(surds())
def test_field_inverse(a):
    if a:
        assert a * a.inverse() == Surd.rational(1)
        assert (1 / a) * a == Surd.rational(1)


def test_inverse_of_a_surd_with_a_large_prime_radicand():
    # the split needs no prime factor of 2**31 - 1, only the radicand itself
    x = Surd({2**31 - 1: 1}) + 1
    assert x * x.inverse() == Surd.rational(1)


# radicands sharing factors in every way, with two past the trial bound
mixed_radicands = st.sampled_from(
    [1, 2, 3, 5, 6, 10, 14, 15, 21, 30, 35, 42, 2**31 - 1, 2 * (2**31 - 1)]
)


@given(st.dictionaries(mixed_radicands, rationals, min_size=1, max_size=4).map(Surd))
def test_field_inverse_over_mixed_radicands(x):
    if x:
        assert x * x.inverse() == Surd.rational(1)


@given(st.fractions(min_value=Fraction(1, 40), max_value=50, max_denominator=40))
def test_sqrt_roundtrip(q):
    r = Surd.sqrt(q)
    assert r * r == Surd.rational(q)
    # positivity: every canonical coefficient of a principal root is positive
    assert all(c > 0 for _, c in r.terms())


@given(surds())
def test_surd_json_roundtrip(a):
    assert surd_from_json(surd_to_json(a)) == a


def test_rational_json():
    assert rational_to_json(Fraction(-3, 6)) == "-1/2"
    assert rational_from_json("-1/2") == Fraction(-1, 2)
    assert rational_to_json(5) == "5/1"


# -- PolyN ------------------------------------------------------------------


def n_poly():
    return PolyN({1: 1})


def test_poly_arithmetic_and_eval():
    # (N^3 - N)/3 at N = 3 gives 8
    p = PolyN({3: Fraction(1, 3), 1: Fraction(-1, 3)})
    assert p.eval(3) == Surd.rational(8)
    # same polynomial built structurally: N (N-1) (N+1) / 3
    n = n_poly()
    q = n * (n - 1) * (n + 1) * Fraction(1, 3)
    assert q == p
    assert q.degree == 3
    assert q.coefficient(2) == Surd()


def test_poly_eval_is_a_homomorphism():
    a = PolyN({2: 1, 0: Fraction(1, 2)})
    b = PolyN({1: Surd.sqrt(2)})
    for n in (0, 1, 5, Fraction(7, 3)):
        assert (a * b).eval(n) == a.eval(n) * b.eval(n)
        assert (a + b).eval(n) == a.eval(n) + b.eval(n)


@given(
    st.dictionaries(st.integers(0, 4), surds(max_terms=2), max_size=3).map(PolyN),
    st.dictionaries(st.integers(0, 4), surds(max_terms=2), max_size=3).map(PolyN),
)
def test_poly_ring(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert poly_from_json(poly_to_json(a)) == a


def test_poly_str():
    p = PolyN({3: Fraction(1, 3), 1: Fraction(-1, 3)})
    assert str(p) == "1/3*N^3 - 1/3*N"
