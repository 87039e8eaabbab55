import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunbasis import _fast
from sunbasis.algebra import (
    AlgebraElement,
    _embedding,
    dagger,
    element_from_json,
    element_to_json,
    multiply,
    proportionality,
    scalar_product,
    trace,
)
from sunbasis.basis import basis_from_json
from sunbasis.coefficients import (
    PolyN,
    Surd,
    poly_from_json,
    rational_from_json,
    surd_from_json,
    surd_to_json,
)
from sunbasis.matrix_rep import matrix_from_json
from sunbasis.permutations import _MAX_DEGREE, Permutation, all_permutations, compose
from sunbasis.tableaux import tableau_from_json


# -- independent oracle: elements as plain dicts from one-line tuples to
#    Fraction or Surd coefficients, so the vector engine can be checked
#    against first principles


def oracle_compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[q[i] - 1] for i in range(len(q)))


def oracle_multiply(a: dict, b: dict) -> dict:
    out = {}
    for p, cp in a.items():
        for q, cq in b.items():
            r = oracle_compose(p, q)
            c = cp * cq
            out[r] = out[r] + c if r in out else c
    return {k: v for k, v in out.items() if v}


def oracle_cycle_count(p: tuple) -> int:
    seen, count = set(), 0
    for start in range(1, len(p) + 1):
        if start not in seen:
            count += 1
            while start not in seen:
                seen.add(start)
                start = p[start - 1]
    return count


def oracle_trace(a: dict) -> dict:
    out = {}
    for p, c in a.items():
        k = oracle_cycle_count(p)
        out[k] = out[k] + c if k in out else c
    return {k: v for k, v in out.items() if v}


def as_dict(a: AlgebraElement) -> dict:
    return {p.images: c for p, c in a.items()}


def to_element(m: int, d: dict) -> AlgebraElement:
    return AlgebraElement(m, {Permutation(p): c for p, c in d.items()})


def rational_elements(m, max_terms=4):
    perm = st.permutations(list(range(1, m + 1))).map(tuple)
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    return st.dictionaries(perm, coeff, max_size=max_terms)


def test_single_permutation_product():
    t12 = AlgebraElement.from_permutation(Permutation.transposition(3, 1, 2))
    t13 = AlgebraElement.from_permutation(Permutation.transposition(3, 1, 3))
    expected = AlgebraElement.from_permutation(
        Permutation.from_cycles(3, ((1, 3, 2),))
    )
    assert t12 * t13 == expected


def test_degree_mismatch_errors():
    a = AlgebraElement.identity(3)
    b = AlgebraElement.identity(4)
    with pytest.raises(ValueError, match="^degree mismatch: 3 != 4$"):
        multiply(a, b)
    # a permutation factor is named in the order the factors are written
    p = Permutation.identity(4)
    with pytest.raises(ValueError, match="^degree mismatch: 3 != 4$"):
        a * p
    with pytest.raises(ValueError, match="^degree mismatch: 4 != 3$"):
        p * a
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        AlgebraElement(3, {Permutation.identity(4): 1})


def test_zero_terms_are_dropped():
    p = Permutation.identity(2)
    a = AlgebraElement(2, {p: 1})
    b = AlgebraElement(2, {p: -1})
    assert (a + b).is_zero()
    assert (a - a).term_count() == 0


def test_trace_of_permutations():
    # trace weights each permutation by N^(number of cycles)
    assert trace(AlgebraElement.identity(3)) == PolyN({3: 1})
    t23 = AlgebraElement.from_permutation(Permutation.transposition(3, 2, 3))
    assert trace(t23) == PolyN({2: 1})
    c123 = AlgebraElement.from_permutation(Permutation.from_cycles(3, ((1, 2, 3),)))
    assert trace(c123) == PolyN({1: 1})


def test_dagger_inverts_permutations():
    p = Permutation.from_cycles(4, ((1, 2, 3),))
    a = AlgebraElement(4, {p: Surd.sqrt(2)})
    assert dagger(a) == AlgebraElement(4, {p.inverse(): Surd.sqrt(2)})
    assert dagger(dagger(a)) == a


@given(st.data())
@settings(max_examples=60)
def test_multiply_matches_oracle(data):
    m = data.draw(st.integers(2, 4))
    da = data.draw(rational_elements(m))
    db = data.draw(rational_elements(m))
    got = multiply(to_element(m, da), to_element(m, db))
    want = to_element(m, oracle_multiply(da, db))
    assert got == want


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_permutation_factor_on_either_side_is_its_product(data):
    m = data.draw(st.integers(1, 5))
    a = to_element(m, data.draw(surd_elements(m)))
    p = Permutation(tuple(data.draw(st.permutations(list(range(1, m + 1))))))
    single = AlgebraElement.from_permutation(p)
    assert a * p == multiply(a, single)
    assert p * a == multiply(single, a)


def test_a_permutation_factor_builds_no_composition_table(monkeypatch):
    calls = []
    table = _fast.composition_table
    monkeypatch.setattr(_fast, "composition_table", lambda m: calls.append(m) or table(m))
    a = AlgebraElement(6, {q: i + 1 for i, q in enumerate(all_permutations(6)[::7])})
    p = Permutation((2, 3, 1, 5, 6, 4))
    assert (a * p).coefficient(p) == 1
    assert (p * a).coefficient(p) == 1
    assert calls == []


@given(st.data())
@settings(max_examples=40)
def test_dagger_is_an_antiautomorphism(data):
    m = data.draw(st.integers(2, 4))
    a = to_element(m, data.draw(rational_elements(m)))
    b = to_element(m, data.draw(rational_elements(m)))
    assert dagger(a * b) == dagger(b) * dagger(a)
    assert dagger(a + b) == dagger(a) + dagger(b)


@given(st.data())
@settings(max_examples=40)
def test_trace_is_cyclic(data):
    m = data.draw(st.integers(2, 4))
    a = to_element(m, data.draw(rational_elements(m)))
    b = to_element(m, data.draw(rational_elements(m)))
    assert trace(a * b) == trace(b * a)


@given(st.data())
@settings(max_examples=40)
def test_scalar_product_positive_definite(data):
    m = data.draw(st.integers(2, 4))
    a = to_element(m, data.draw(rational_elements(m)))
    form = scalar_product(a, a)
    if a.is_zero():
        assert form == PolyN()
    else:
        # strictly positive at every integer dimension N >= m
        for n in (m, m + 1, m + 2):
            assert form.eval(n).as_fraction() > 0


def test_scalar_product_with_irrational_coefficients():
    p = Permutation.identity(2)
    q = Permutation.transposition(2, 1, 2)
    a = AlgebraElement(2, {p: Surd.sqrt(2), q: Surd.rational(1)})
    form = scalar_product(a, a)
    # <a,a> = 2 N^2 + N^2 ... expanded by hand:
    #   dagger(a)*a = (sqrt2 id + (12))(sqrt2 id + (12)) = 3 id + 2 sqrt2 (12)
    assert form == PolyN({2: 3, 1: Surd({2: 2})})
    val = form.eval(2)  # 12 + 4 sqrt2 > 0
    approx = sum(c * math.sqrt(d) for d, c in val.terms())
    assert approx > 0


@given(st.data())
@settings(max_examples=40)
def test_embedding_commutes_with_products(data):
    m = data.draw(st.integers(2, 3))
    a = to_element(m, data.draw(rational_elements(m)))
    b = to_element(m, data.draw(rational_elements(m)))
    assert (a * b).embed(m + 2) == a.embed(m + 2) * b.embed(m + 2)


def test_proportionality():
    m = 3
    a = to_element(m, {(1, 2, 3): Fraction(2), (2, 1, 3): Fraction(-4)})
    b = to_element(m, {(1, 2, 3): Fraction(1), (2, 1, 3): Fraction(-2)})
    assert proportionality(a, b) == Surd.rational(2)
    assert proportionality(AlgebraElement.zero(m), b) == Surd()
    c = to_element(m, {(1, 2, 3): Fraction(1), (2, 1, 3): Fraction(1)})
    assert proportionality(a, c) is None
    assert proportionality(a, AlgebraElement.zero(m)) is None
    # proportional elements with no identity component
    d = to_element(m, {(2, 1, 3): Fraction(3)})
    e = to_element(m, {(2, 1, 3): Fraction(1)})
    assert proportionality(d, e) == Surd.rational(3)


@given(st.data())
@settings(max_examples=50)
def test_json_roundtrip(data):
    m = data.draw(st.integers(1, 4))
    a = to_element(m, data.draw(rational_elements(m)))
    # sprinkle an irrational coefficient
    a = a + AlgebraElement(m, {Permutation.identity(m): Surd.sqrt(Fraction(3, 2))})
    assert element_from_json(element_to_json(a)) == a


def test_json_shape():
    a = AlgebraElement(
        2,
        {
            Permutation.identity(2): Surd.rational(Fraction(1, 2)),
            Permutation.transposition(2, 1, 2): Surd.sqrt(2),
        },
    )
    assert element_to_json(a) == {
        "m": 2,
        "terms": [
            {"perm": [1, 2], "coeff": [[1, "1/2"]]},
            {"perm": [2, 1], "coeff": [[2, "1/1"]]},
        ],
    }


def parts(a: AlgebraElement) -> list:
    """The stored form bit for bit: radicands in order, denominators, dtypes, values."""
    return [(d, denom, vec.dtype, vec.tolist()) for d, (denom, vec) in a._parts.items()]


def wire_terms(m):
    """Wire terms with repeated permutations, non-squarefree radicands, two
    radicands that one float64 cannot tell apart, and numerators past the
    int64 storage bound."""
    perm = st.permutations(list(range(1, m + 1)))
    radicand = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 18, 2**63, 2**63 + 2])
    numerator = st.integers(-6, 6) | st.integers(-(2**70), 2**70)
    rational = st.builds(Fraction, numerator, st.integers(1, 12))
    coeff = st.lists(st.tuples(radicand, rational), max_size=3)
    return st.lists(st.tuples(perm, coeff), max_size=8)


def wire(m: int, terms) -> dict:
    return {
        "m": m,
        "terms": [
            {"perm": p, "coeff": [[d, f"{q.numerator}/{q.denominator}"] for d, q in coeff]}
            for p, coeff in terms
        ],
    }


def reference_to_json(a: AlgebraElement) -> dict:
    """The wire form term by term, through ``items``."""
    return {
        "m": a.m,
        "terms": [{"perm": list(p.images), "coeff": surd_to_json(c)} for p, c in a.items()],
    }


@given(st.data())
@settings(max_examples=80)
def test_wire_round_trip_is_bit_identical(data):
    m = data.draw(st.integers(1, 4))
    terms = data.draw(wire_terms(m))
    # the independent reading: one element per term, summed
    expected = AlgebraElement.zero(m)
    for p, coeff in terms:
        for d, q in coeff:
            expected = expected + AlgebraElement(m, {Permutation(tuple(p)): Surd({d: q})})
    # ... and a term that cancels the first one
    if terms and terms[0][1]:
        (d, q), p = terms[0][1][0], terms[0][0]
        terms = [*terms, (p, [(d, -q)])]
        expected = expected - AlgebraElement(m, {Permutation(tuple(p)): Surd({d: q})})
    a = element_from_json(wire(m, terms))
    assert parts(a) == parts(expected)
    assert element_to_json(a) == reference_to_json(a)
    assert parts(element_from_json(element_to_json(a))) == parts(a)


def test_wire_round_trip_keeps_object_vectors():
    p, q = Permutation.identity(3), Permutation.transposition(3, 1, 2)
    a = AlgebraElement(3, {p: Fraction(2**70, 3), q: Surd({8: Fraction(-5, 6)})})
    assert {vec.dtype for _, vec in a._parts.values()} == {np.dtype(object), np.dtype(np.int64)}
    data = element_to_json(a)
    assert data == reference_to_json(a)
    assert parts(element_from_json(json.loads(json.dumps(data)))) == parts(a)
    # a denominator past int64 beside an int64 vector
    b = AlgebraElement(3, {p: Fraction(1, 3**50), q: Fraction(2, 3**50)})
    assert element_to_json(b) == reference_to_json(b)
    assert parts(element_from_json(element_to_json(b))) == parts(b)


@pytest.mark.parametrize(
    "text",
    ["0.5", " 1/2 ", "+1/2", "1_0/2", "3", "-.25", "1e2", "2/4", "007/3", "-0/5",
     "1/2\n", "\u0661/\u0662", "\uff11/\uff12"],
)
def test_non_canonical_spellings_read_as_fraction_reads_them(text):
    p, q = Permutation.identity(2), Permutation.transposition(2, 1, 2)
    expected = AlgebraElement(2, {p: Fraction(text), q: Surd({2: Fraction(text) + 1})})
    obj = {"m": 2, "terms": [{"perm": [1, 2], "coeff": [[1, text]]},
                             {"perm": [2, 1], "coeff": [[2, text], [2, "1/1"]]}]}
    assert parts(element_from_json(obj)) == parts(expected)


@pytest.mark.parametrize("text", ["x", "1/0", "1/2,3/4", "1/-2", "", "1//2", "1/2 3"])
def test_bad_rationals_raise_the_fraction_reading_error(text):
    obj = {"m": 1, "terms": [{"perm": [1], "coeff": [[1, "1/3"], [1, text]]}]}
    with pytest.raises(ValueError) as got:
        element_from_json(obj)
    with pytest.raises(ValueError) as expected:
        rational_from_json(text)
    assert str(got.value) == str(expected.value)


def test_identity_element_is_neutral():
    e = AlgebraElement.identity(4)
    for p in all_permutations(4)[:8]:
        a = AlgebraElement.from_permutation(p, Surd.sqrt(3))
        assert e * a == a
        assert a * e == a


# -- the vector engine against the oracle ---------------------------------------


def surd_elements(m, max_terms=6):
    """Elements whose coefficients mix sqrt(2), sqrt(3) and sqrt(6)."""
    perm = st.permutations(list(range(1, m + 1))).map(tuple)
    rational = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    coeff = st.dictionaries(st.sampled_from([1, 2, 3, 6]), rational, min_size=1, max_size=2).map(Surd)
    return st.dictionaries(perm, coeff, max_size=max_terms)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_multiply_matches_oracle_on_basis_operators(m):
    from sunbasis.basis import assemble

    ops = [op for _, op in assemble(m, "hermitian").flat()]
    for a in ops:
        for b in ops:
            assert as_dict(multiply(a, b)) == oracle_multiply(as_dict(a), as_dict(b))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_multiply_matches_oracle_with_surds(data):
    da = data.draw(surd_elements(4))
    db = data.draw(surd_elements(4))
    got = multiply(to_element(4, da), to_element(4, db))
    assert as_dict(got) == oracle_multiply(da, db)
    assert got == to_element(4, oracle_multiply(da, db))


# -- the storage bound and ``_times`` at their boundaries -------------------------

BOUNDARIES = (2**24, 2**31, 2**61, 2**62, 2**63, 2**70)


def dtypes(a: AlgebraElement) -> set:
    return {vec.dtype for _, vec in a._parts.values()}


def big_integers():
    near = st.sampled_from(BOUNDARIES).flatmap(lambda b: st.integers(b - 2, b + 2))
    return st.tuples(near, st.sampled_from([1, -1])).map(lambda t: t[0] * t[1])


def big_elements(m):
    perm = st.permutations(list(range(1, m + 1))).map(tuple)
    rational = st.tuples(big_integers(), st.sampled_from([1, 3, 5])).map(
        lambda t: Fraction(t[0], t[1])
    )
    coeff = st.one_of(
        rational,
        st.tuples(rational, st.sampled_from([2, 3, 6])).map(lambda t: Surd({t[1]: t[0]})),
    )
    return st.dictionaries(perm, coeff, min_size=1, max_size=4)


def dense_big_elements(m):
    """Two terms or more, each with a part of every radicand 1, 2, 3 and 6."""
    perm = st.permutations(list(range(1, m + 1))).map(tuple)
    coeff = st.tuples(*[big_integers()] * 4).map(lambda t: Surd(dict(zip((1, 2, 3, 6), t))))
    return st.dictionaries(perm, coeff, min_size=2, max_size=6)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_big_coefficients_match_oracle(data):
    m = data.draw(st.integers(2, 4))
    da, db = data.draw(big_elements(m)), data.draw(big_elements(m))
    a, b = to_element(m, da), to_element(m, db)
    assert as_dict(multiply(a, b)) == oracle_multiply(da, db)
    total = dict(da)
    for p, c in db.items():
        total[p] = total[p] + c if p in total else c
    assert as_dict(a + b) == {p: c for p, c in total.items() if c}
    factor = data.draw(big_integers())
    assert as_dict(a.scale(factor)) == {p: c * factor for p, c in da.items()}
    assert trace(a) == PolyN(oracle_trace(da))
    # each radicand's vector of ``dense`` has more nonzeros than a one-term
    # element's, so the product loops over the left factor's nonzeros in one
    # order and, under the adjoint, over the right factor's in the other
    one = dict(list(da.items())[:1])
    dense = data.draw(dense_big_elements(m))
    for x, y in ((one, dense), (dense, one)):
        assert as_dict(multiply(to_element(m, x), to_element(m, y))) == oracle_multiply(x, y)


def assert_stored(a: AlgebraElement) -> None:
    # int64 exactly when every entry lies below the storage bound, else Python ints
    for _, vec in a._parts.values():
        top = max(abs(x) for x in vec.tolist())
        assert vec.dtype == np.dtype(np.int64 if top < _fast._STORED else object)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_every_operation_stores_by_the_bound(data):
    m = data.draw(st.integers(2, 4))
    a, b = to_element(m, data.draw(big_elements(m))), to_element(m, data.draw(big_elements(m)))
    p = Permutation(tuple(data.draw(st.permutations(list(range(1, m + 1))))))
    factor = data.draw(big_integers() | st.fractions(max_denominator=2**30).filter(bool))
    for result in (
        a + b,
        a - b,
        -a,
        a.scale(factor),
        a.scale(Surd.sqrt(6) * factor),
        multiply(a, b),
        dagger(a),
        a.embed(m + 1),
        p * a,
        a * p,
        element_from_json(element_to_json(a)),
    ):
        assert_stored(result)


def test_products_of_stored_entries_stay_in_int64():
    # a sum of m! products of two stored entries, m up to the degree cap,
    # must stay below 2**62 so that two such sums still add in int64; one
    # symmetrizer-set product multiplies a stored entry by at most m!
    assert math.factorial(_MAX_DEGREE) * _fast._STORED**2 < 2**62
    assert _fast._STORED * math.factorial(_MAX_DEGREE) < 2**62


def test_scalars_on_the_left_defer_to_the_element():
    p, q = Permutation.identity(3), Permutation.transposition(3, 1, 2)
    a = AlgebraElement(3, {p: 1, q: Surd.sqrt(3)})
    r2 = Surd.sqrt(2)
    assert r2 * a == a.scale(r2)
    assert Fraction(1, 2) * a == a.scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        r2 + a
    with pytest.raises(TypeError):
        PolyN.constant(2) * a


def _times_dtypes(monkeypatch, build):
    """The value ``build`` returns, and the dtypes of every ``_fast._times`` product on the way."""
    dtypes_seen = set()
    times = _fast._times

    def spy(vec, k):
        out = times(vec, k)
        dtypes_seen.add(out.dtype)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(_fast, "_times", spy)
        return build(), dtypes_seen


def test_vectors_promote_exactly_at_the_guard(monkeypatch):
    p, q = Permutation.identity(3), Permutation.transposition(3, 1, 2)
    int64, obj = np.dtype(np.int64), np.dtype(object)
    # storage: int64 exactly below 2**24
    assert dtypes(AlgebraElement(3, {p: _fast._STORED - 1})) == {int64}
    assert dtypes(AlgebraElement(3, {p: _fast._STORED})) == {obj}
    assert dtypes(AlgebraElement(3, {p: -(_fast._STORED - 1), q: 1})) == {int64}
    # -2**63 fits int64, but its absolute value does not
    low = AlgebraElement(3, {p: -(2**63)})
    assert dtypes(low) == {obj}
    assert (-low).coefficient(p) == Surd.rational(2**63)
    assert (low + low).coefficient(p) == Surd.rational(-(2**64))
    # a sum reaching the bound is stored as Python ints, exactly
    half = AlgebraElement(3, {p: 2**23, q: 1})
    assert dtypes(half + half) == {obj}
    assert (half + half).coefficient(p) == Surd.rational(2**24)
    # a product of stored entries sums in int64 and stores past the bound
    x = AlgebraElement(3, {p: 2**23, q: 2**23})
    assert multiply(x, x) == AlgebraElement(3, {p: 2**47, q: 2**47})
    assert dtypes(multiply(x, x)) == {obj}
    # ``_times`` keeps int64 below 2**62, a zero vector counting as 1, and
    # takes Python ints at it
    v = np.array([2**22, -1], dtype=np.int64)
    assert _fast._times(v, 2**40 - 1).dtype == int64
    assert _fast._times(v, 2**40).dtype == obj
    assert _fast._times(v, -(2**40)).tolist() == [-(2**62), 2**40]
    assert _fast._times(np.zeros(2, dtype=np.int64), 2**62).dtype == obj
    cases = {
        # a scalar of 2**40 - 1 or 2**40 times entries of 2**22
        "scale": lambda k: (
            AlgebraElement(3, {p: 2**22, q: 1}).scale(k),
            AlgebraElement(3, {p: 2**22 * k, q: k}),
        ),
        # a common denominator whose cofactor takes 2**22 to 2**62
        "common denominator": lambda k: (
            AlgebraElement(3, {p: Fraction(2**22, 3)}) + AlgebraElement(3, {p: Fraction(1, k)}),
            AlgebraElement(3, {p: Fraction(2**22 * k + 3, 3 * k)}),
        ),
        # √r·√r = r folds the prime radicand r into the product 2**22·2**18·r
        "radicand fold": lambda r: (
            multiply(
                AlgebraElement(3, {p: Surd({r: Fraction(2**22)})}),
                AlgebraElement(3, {p: Surd({r: Fraction(2**18)})}),
            ),
            AlgebraElement(3, {p: 2**40 * r}),
        ),
    }
    sides = {
        "scale": (2**40 - 1, 2**40),
        "common denominator": (2**40 - 3, 2**40 + 1),
        # the primes next to 2**22 on either side
        "radicand fold": (4194301, 4194319),
    }
    for name, build in cases.items():
        for k, dtype in zip(sides[name], (int64, obj)):
            (got, want), seen = _times_dtypes(monkeypatch, lambda: build(k))
            assert got == want, name
            assert max(seen, key=lambda d: d == obj) == dtype, name
    # the trace sums six transpositions in the vectors' dtype, exactly
    transpositions = [t for t in all_permutations(4) if t.cycle_count() == 3]
    for weight, dtype in ((_fast._STORED - 1, int64), (2**61, obj)):
        y = AlgebraElement(4, {t: weight for t in transpositions})
        assert dtypes(y) == {dtype}
        assert trace(y) == PolyN({3: 6 * weight})


def test_equal_values_have_one_canonical_form():
    p, q = Permutation.identity(3), Permutation.transposition(3, 1, 2)
    small = AlgebraElement(3, {p: 1, q: Fraction(1, 3)})
    big = AlgebraElement(3, {p: 2**70})
    via_objects = (small + big) - big
    assert dtypes(big) == {np.dtype(object)}
    assert dtypes(via_objects) == {np.dtype(np.int64)}
    assert via_objects == small
    assert hash(via_objects) == hash(small)
    # denominators are reduced by the gcd of the vector
    halves = AlgebraElement(3, {p: Fraction(2, 4), q: Fraction(6, 4)})
    ((denom, vec),) = halves._parts.values()
    assert denom == 2 and vec.tolist()[:2] == [1, 0] and sum(map(abs, vec.tolist())) == 4
    scaled = AlgebraElement(3, {p: 1, q: 3}).scale(Fraction(1, 2))
    assert scaled == halves and hash(scaled) == hash(halves)


def test_degree_above_the_dense_limit_is_rejected():
    with pytest.raises(ValueError, match="between 1 and 7"):
        AlgebraElement.identity(8)
    with pytest.raises(ValueError, match="between 1 and 7"):
        AlgebraElement.identity(3).embed(8)
    with pytest.raises(ValueError, match="between 1 and 7"):
        element_from_json({"m": 9, "terms": []})


@pytest.mark.parametrize(
    "parse, obj",
    [
        *(
            (element_from_json, obj)
            for obj in [
                {"m": 3, "terms": [{"perm": [1, 2], "coeff": [[1, "1/1"]]}]},
                {"m": 3, "terms": [{"perm": [1, 1, 2], "coeff": [[1, "1/1"]]}]},
                {"m": 3, "terms": [{"perm": [1, 2, 3], "coeff": [[1, "x"]]}]},
                {"m": 3, "terms": [{"perm": [1, 2, 3], "coeff": [[1, "1/0"]]}]},
                {"m": 3, "terms": [{"perm": [1, 2, 3], "coeff": [[0, "1/1"]]}]},
                {"m": 3, "terms": [{"perm": [1, 2, 3], "coeff": [[1, 1]]}]},
                {"m": 0, "terms": []},
                {"terms": []},
                # a float, bool or string where the wire format writes an int
                {"m": 3, "terms": [{"perm": [1, 2, 3], "coeff": [[1.5, "1/1"]]}]},
                {"m": True, "terms": []},
                {"m": 3.7, "terms": []},
                {"m": "3", "terms": []},
                {"m": 3, "terms": [{"perm": "123", "coeff": [[1, "1/1"]]}]},
                {"m": 3, "terms": [{"perm": [1.0, 2, 3], "coeff": [[1, "1/1"]]}]},
                {"m": 1, "terms": [{"perm": [True], "coeff": [[1, "1/1"]]}]},
                # a term, a term list or a coefficient pair of the wrong shape
                {"m": 2, "terms": [{"coeff": [[1, "1/2"]]}]},
                {"m": 2, "terms": [{"perm": [1, 2]}]},
                {"m": 2, "terms": 5},
                {"m": 2, "terms": [[[1, 2], [[1, "1/2"]]]]},
                {"m": 2, "terms": [{"perm": 12, "coeff": [[1, "1/2"]]}]},
                {"m": 2, "terms": [{"perm": [1, 2], "coeff": 5}]},
                {"m": 2, "terms": [{"perm": [1, 2], "coeff": [5]}]},
                {"m": 2, "terms": [{"perm": [1, 2], "coeff": [[1, "1/2", 3]]}]},
                {"m": 2, "terms": [{"perm": [1, 2], "coeff": [[1, ["1/2"]]]}]},
            ]
        ),
        (surd_from_json, [[2.9, "1/1"]]),
        (poly_from_json, [[1.5, [[1, "1/1"]]]]),
        (tableau_from_json, {"rows": [[1.9, 2], [3]]}),
        (tableau_from_json, {"rows": [[1, 2], [3]], "shape": [2.0, 1]}),
        (basis_from_json, {"m": True, "kind": "hermitian", "blocks": []}),
        # a degree outside the gate of 1..7
        *((basis_from_json, {"m": m, "kind": "hermitian", "blocks": []}) for m in (0, 8, 100)),
        (basis_from_json, {"kind": "hermitian", "blocks": []}),
        (basis_from_json, {"m": 1, "kind": "hermitian", "blocks": 3}),
        (basis_from_json, {"m": 1, "kind": "hermitian", "blocks": [[1]]}),
        (basis_from_json, {"m": 1, "kind": "hermitian", "blocks": [{"diagram": [1]}]}),
        (basis_from_json, [1, "hermitian", []]),
        (basis_from_json, {"m": 1, "kind": ["hermitian"], "blocks": []}),
        (
            basis_from_json,
            {
                "m": 1,
                "kind": "hermitian",
                "blocks": [{"diagram": [1.0], "tableaux": [], "operators": []}],
            },
        ),
        (matrix_from_json, {}),
        (matrix_from_json, {"n": 2.0, "m": 2, "entries": []}),
        # an entry outside the 4 x 4 matrix
        (matrix_from_json, {"n": 2, "m": 2, "entries": [[9, 9, [[1, "1/1"]]]]}),
    ],
)
def test_malformed_json_raises_value_error(parse, obj):
    with pytest.raises(ValueError):
        parse(obj)


def test_json_accepts_non_canonical_input():
    obj = {
        "m": 2,
        "terms": [
            {"perm": [2, 1], "coeff": [[8, "1/2"], [2, "1/1"]]},
            {"perm": [1, 2], "coeff": [[1, "2/4"]]},
            {"perm": [2, 1], "coeff": [[1, "0/1"]]},
        ],
    }
    a = element_from_json(obj)
    # sqrt(8)/2 + sqrt(2) = 2 sqrt(2)
    assert a == AlgebraElement(
        2, {Permutation.identity(2): Fraction(1, 2), Permutation.transposition(2, 1, 2): Surd({2: 2})}
    )


# -- the kernel's tables ----------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 8))
def test_positions_derive_compose_inverse_and_embed(m):
    # every gather's indices come from ``_fast.positions`` on the images;
    # each derivation against ``permutations``, over all rows up to m = 5 and
    # a seeded sample of 12 rows above
    perms = all_permutations(m)
    index = {p: i for i, p in enumerate(perms)}
    images = _fast.lexicographic(m)[0]
    rows = range(len(perms))
    if m > 5:
        rows = sorted(random.Random(m).sample(rows, 12))
    for i in rows:
        p = perms[i]
        # row i: p_i after every q; column i: every q after p_i
        row, column = images[i][images], images[:, images[i]]
        assert _fast.positions(m, row).tolist() == [index[compose(p, q)] for q in perms]
        assert _fast.positions(m, column).tolist() == [index[compose(q, p)] for q in perms]
    if m <= 5:
        table = [[index[compose(p, q)] for q in perms] for p in perms]
        assert np.array_equal(_fast.composition_table(m), table)
    assert _fast.inverse_table(m).tolist() == [index[p.inverse()] for p in perms]
    assert _fast.cycle_count_vector(m).tolist() == [oracle_cycle_count(p.images) for p in perms]
    moves = _fast._moves(m)
    for i in range(1, m + 1):
        assert moves[i - 1, i - 1].tolist() == list(range(len(perms)))
        for j in range(1, m + 1):
            if i != j:
                t = Permutation.transposition(m, i, j)
                want = [index[compose(perms[q], t)] for q in rows]
                assert moves[i - 1, j - 1, rows].tolist() == want
    for k in range(1, m + 1):
        padded = [index[p.embed(m)] for p in all_permutations(k)]
        assert _embedding(k, m).tolist() == padded


def test_element_text_writes_every_coefficient_and_adds_every_term():
    # the text format the goldens pin: unlike a Surd or a PolyN, an element
    # keeps a unit coefficient and joins a negative term with " + "
    a = (
        AlgebraElement.identity(3)
        - AlgebraElement.from_permutation(Permutation((2, 1, 3)))
        + AlgebraElement.from_permutation(Permutation((2, 3, 1)), 1 + Surd.sqrt(2))
        + AlgebraElement.from_permutation(Permutation((3, 1, 2)), -Surd.sqrt(Fraction(3, 4)))
    )
    assert str(a) == "1*id + -1*(1 2) + (1 + sqrt(2))*(1 2 3) + -1/2*sqrt(3)*(1 3 2)"
    assert str(AlgebraElement.zero(3)) == "0"
