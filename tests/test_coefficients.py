import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sunbasis.coefficients import (
    PolyN,
    Surd,
    latex_poly,
    latex_surd,
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

# A first trial division past the bound costs milliseconds.  Every radicand
# an inverse forms is squarefree over the primes of these radicands, so each
# product of two of them is decomposed once here: the deadline then times
# only arithmetic.
for _exponents in itertools.product(range(3), repeat=5):
    squarefree_decompose(math.prod(p**e for p, e in zip((2, 3, 5, 7, 2**31 - 1), _exponents)))


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


def _unsigned(written: str) -> str:
    """``written`` with every sign taken out: only the signs of a sum carry a '-'."""
    return written.replace(" - ", " ± ").replace(" + ", " ± ").replace("-", "")


@given(st.one_of(surds(), st.dictionaries(st.integers(0, 4), surds(max_terms=2), max_size=3).map(PolyN)))
def test_negation_changes_only_the_signs_of_the_written_value(x):
    # text and LaTeX write each term by one rule, so a unit coefficient -1
    # loses its 1 exactly as a unit coefficient 1 does
    latex = latex_surd if isinstance(x, Surd) else latex_poly
    for write in (str, latex):
        assert _unsigned(write(-x)) == _unsigned(write(x))
        assert (write(-x) == write(x)) == (not x)


def test_a_unit_minus_one_is_its_sign_alone():
    assert str(-Surd.sqrt(2)) == "-sqrt(2)" and latex_surd(-Surd.sqrt(2)) == "-\\sqrt{2}"
    assert str(PolyN({3: -1})) == "-N^3" and latex_poly(PolyN({3: -1})) == "-N^{3}"
    assert str(PolyN({1: -1, 0: 2})) == "-N + 2" and latex_poly(PolyN({1: -1, 0: 2})) == "-N + 2"
    assert str(Surd.rational(-1)) == "-1" and str(PolyN({0: -1})) == "-1"


# -- every branch of the two rings ------------------------------------------


def test_constructors_refuse_bad_keys_and_coefficients():
    with pytest.raises(TypeError, match="radicands must be ints"):
        Surd({2.0: 1})
    with pytest.raises(TypeError, match="expected int or Fraction, got float"):
        Surd({2: 0.5})
    with pytest.raises(TypeError, match="expected int or Fraction, got str"):
        Surd.rational("1/2")
    with pytest.raises(ValueError, match="bad exponent -1"):
        PolyN({-1: 1})
    with pytest.raises(ValueError, match="bad exponent 1.0"):
        PolyN({1.0: 1})
    with pytest.raises(TypeError, match="expected int or Fraction, got float"):
        PolyN({1: 0.5})


def test_terms_that_cancel_inside_a_constructor_are_dropped():
    # sqrt(8) = 2 sqrt(2), so the two terms cancel
    assert Surd({2: 1, 8: Fraction(-1, 2)}).terms() == ()
    assert Surd({2: 1, 8: Fraction(-1, 2), 3: 2}).terms() == ((3, Fraction(2)),)
    assert Surd({5: 0}).terms() == ()
    assert PolyN({2: Surd(), 1: Surd({2: 1, 8: Fraction(-1, 2)})}).coeffs() == ()
    # the readers add up a repeated key through the same path
    assert surd_from_json([[2, "1/1"], [8, "-1/2"]]).terms() == ()
    assert surd_from_json([[3, "1/2"], [3, "1/2"], [12, "1/4"]]) == Surd({3: Fraction(3, 2)})
    assert poly_from_json([[1, [[1, "1/1"]]], [1, [[1, "-1/1"]]]]).coeffs() == ()
    assert poly_from_json([[2, [[1, "1/2"]]], [0, []], [2, [[1, "1/2"]]]]) == PolyN({2: 1})


def test_a_scalar_minus_a_ring_element():
    assert 1 - Surd.sqrt(2) == Surd({1: 1, 2: -1})
    assert Fraction(1, 2) - Surd.rational(2) == Surd.rational(Fraction(-3, 2))
    assert 2 - n_poly() == PolyN({0: 2, 1: -1})
    assert Surd.sqrt(3) - n_poly() == PolyN({0: Surd.sqrt(3), 1: -1})


def test_other_operands_get_not_implemented():
    x, p = Surd.sqrt(2), n_poly()
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__"):
        assert getattr(x, op)(0.5) is NotImplemented
        assert getattr(p, op)("N") is NotImplemented
    assert x.__add__(p) is NotImplemented
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        "N" - p
    with pytest.raises(TypeError):
        p * 1.5
    assert x != "sqrt(2)" and p != None  # noqa: E711


def test_mixed_equality_hash_repr_and_bool():
    # a surd or a rational equals the constant polynomial, from either side
    assert PolyN.constant(Surd.sqrt(2)) == Surd.sqrt(2)
    assert Surd.sqrt(2) == PolyN.constant(Surd.sqrt(2))
    assert PolyN({0: 3}) == 3 and PolyN({0: Fraction(1, 2)}) == Fraction(1, 2)
    assert PolyN({1: 1}) != Surd.rational(1)
    # equal values hash alike, whatever spelling built them
    assert hash(Surd.sqrt(8)) == hash(Surd({2: 2}))
    assert hash(PolyN({1: 1})) == hash(PolyN({1: Surd.rational(1)}))
    assert len({n_poly(), PolyN({1: 1}), n_poly() + 0}) == 1
    assert repr(Surd.sqrt(2)) == "Surd(sqrt(2))"
    assert repr(PolyN({1: 1, 0: -1})) == "PolyN(N - 1)"
    assert repr(Surd()) == "Surd(0)" and repr(PolyN()) == "PolyN(0)"
    assert not Surd() and Surd.rational(1)
    assert not PolyN() and not PolyN({2: 0}) and PolyN({0: 1})


def test_coefficient_lookups():
    p = PolyN({3: Fraction(1, 3), 1: Fraction(-1, 3)})
    assert p.coefficient(1) == Surd.rational(Fraction(-1, 3))
    assert p.coefficient(0) == Surd()
    assert Surd.sqrt(2).coefficient(5) == 0
    assert Surd.sqrt(2).coefficient(2) == 1


def test_poly_str_with_constant_terms():
    assert str(PolyN({2: 1, 0: Fraction(-1, 2)})) == "N^2 - 1/2"
    assert str(PolyN({1: -1, 0: 2})) == "-N + 2"
    assert str(PolyN({0: 1})) == "1" and str(PolyN()) == "0"
    assert str(PolyN({1: 1 + Surd.sqrt(2), 0: Surd.sqrt(3) - 1})) == (
        "(1 + sqrt(2))*N + (-1 + sqrt(3))"
    )
    # a unit coefficient -1 is written as its sign alone, as in LaTeX
    assert str(PolyN({3: 1 - Surd.sqrt(2), 0: Surd.sqrt(5)})) == "(1 - sqrt(2))*N^3 + sqrt(5)"
