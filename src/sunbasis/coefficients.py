"""Exact coefficient arithmetic: rationals, square-root extensions, and
polynomials in a symbolic dimension N.

Both rings are sparse sums of coefficient-times-monomial terms, and one
private base, ``_Terms``, keeps them in canonical form: (key, nonzero
coefficient) pairs sorted by key, so equality and hashing are structural.
It builds that form (each key made canonical, repeated keys added up, zero
terms dropped) and implements +, -, *, ==, hash, bool and repr once.  Each
ring supplies how a key is made canonical, how two monomials multiply, and
the key of its unit monomial.

``Surd`` is a finite Q-linear combination of sqrt(d) for distinct squarefree
d >= 1 (d = 1 being the rational part).  A radicand is made canonical by its
squarefree part, sqrt(g*g*s) = g sqrt(s), so sqrt(d) sqrt(e) = sqrt(d*e)
needs nothing more.  Surds form a field (a real multiquadratic extension of
Q); division rationalizes one radical at a time.

``PolyN`` is a polynomial in N with Surd coefficients, used for traces and
dimension formulas that stay symbolic in the ambient dimension.  Its keys
are exponents, checked and added: N^j N^k = N^(j+k).

Every exact sum is written by one rule, ``write_sum``: a compound
coefficient is grouped, a unit one is left out unless the monomial is 1, a
later negative term is subtracted, and an empty sum is 0.  Its spellings
``TEXT`` (``str``: ``-N^3 + (1 - sqrt(2))*N``) and ``LATEX`` (``-N^{3} +
\\bigl(1 - \\sqrt{2}\\bigr)N``) differ only in how they write rationals,
radicals, powers of N, products and groups.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, isqrt
from operator import countOf
from typing import Callable, Iterable, NamedTuple, Union

RationalLike = Union[int, Fraction]
SurdLike = Union[int, Fraction, "Surd"]


_TRIAL_BOUND = 2**16


@cache
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = g*g*s with s squarefree; return (s, g).  Requires n >= 1.

    Trial division stops at B = ``_TRIAL_BOUND``.  The rest has no prime
    factor below B: a square is taken whole by ``isqrt``, any other rest
    below B³ is p or p·q, and a larger one raises ValueError.
    """
    if n < 1:
        raise ValueError(f"squarefree_decompose needs n >= 1, got {n}")
    whole, s, g = n, 1, 1
    d = 2
    while d * d <= n and d < _TRIAL_BOUND:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            g *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    root = isqrt(n)
    if root * root == n:
        return s, g * root
    if n >= _TRIAL_BOUND**3:
        raise ValueError(f"cannot find the squarefree part of {whole}: too large to factor")
    return s * n, g


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class _Terms:
    """A sum of coefficient-times-monomial terms in canonical form.

    A subclass supplies ``_canonical(key, c)``, the canonical key of a term
    and its coefficient rescaled to match; ``_times(j, k)``, the key of the
    product of two monomials, before it is made canonical; ``_UNIT``, the
    key of the monomial 1; and ``_OPERANDS``, the other types it takes as a
    constant.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self._terms = self._added(terms.items() if terms else ())

    @classmethod
    def _added(cls, pairs: Iterable[tuple]) -> tuple:
        """``pairs`` with canonical keys, added up per key, zeros dropped, sorted."""
        out: dict = {}
        for key, c in pairs:
            key, c = cls._canonical(key, c)
            out[key] = out[key] + c if key in out else c
        return tuple(sorted((key, c) for key, c in out.items() if c))

    @classmethod
    def _sum(cls, pairs: Iterable[tuple]):
        """The sum of the terms (key, coefficient) ``pairs``; a key may repeat."""
        new = object.__new__(cls)
        new._terms = cls._added(pairs)
        return new

    @classmethod
    def _coerce(cls, x):
        return x if isinstance(x, cls) else cls({cls._UNIT: x})

    @classmethod
    def _operand(cls, x: object):
        """``x`` in this ring, or NotImplemented if it is of no type the ring takes."""
        return cls._coerce(x) if isinstance(x, (cls, *cls._OPERANDS)) else NotImplemented

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        o = self._operand(other)
        return o if o is NotImplemented else self._sum(self._terms + o._terms)

    __radd__ = __add__

    def __neg__(self):
        return self._sum((key, -c) for key, c in self._terms)

    def __sub__(self, other):
        o = self._operand(other)
        return o if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        o = self._operand(other)
        return o if o is NotImplemented else o + (-self)

    def __mul__(self, other):
        o = self._operand(other)
        if o is NotImplemented:
            return o
        times = self._times
        return self._sum((times(j, k), a * b) for j, a in self._terms for k, b in o._terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._operand(other)
        return o if o is NotImplemented else self._terms == o._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __str__(self) -> str:
        return self.written(TEXT)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Surd(_Terms):
    """A sum of rational multiples of square roots of distinct squarefree ints.

    >>> (Surd.sqrt(2) * Surd.sqrt(2)).as_fraction()
    Fraction(2, 1)
    """

    __slots__ = ()
    _UNIT = 1
    _OPERANDS = (int, Fraction)

    @staticmethod
    def _canonical(d: int, c: RationalLike) -> tuple[int, Fraction]:
        if not isinstance(d, int):
            raise TypeError("radicands must be ints")
        s, g = squarefree_decompose(d)
        return s, _as_fraction(c) * g

    @staticmethod
    def _times(d: int, e: int) -> int:
        return d * e

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(x: RationalLike) -> "Surd":
        return Surd({1: x})

    @staticmethod
    def sqrt(x: RationalLike) -> "Surd":
        """Positive square root of a positive rational, e.g. sqrt(4/3) = (2/3)sqrt(3)."""
        q = _as_fraction(x)
        if q <= 0:
            raise ValueError(f"sqrt of non-positive rational {q}")
        s, g = squarefree_decompose(q.numerator * q.denominator)
        return Surd({s: Fraction(g, q.denominator)})

    # -- inspection -----------------------------------------------------

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Canonical (radicand, coefficient) pairs, sorted by radicand."""
        return self._terms

    def is_rational(self) -> bool:
        return all(d == 1 for d, _ in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self._terms[0][1]

    def coefficient(self, d: int) -> Fraction:
        """Coefficient of sqrt(d); non-squarefree d is rescaled (sqrt(d) = g sqrt(s))."""
        s, g = squarefree_decompose(d)
        for rad, c in self._terms:
            if rad == s:
                return c / g
        return Fraction(0)

    # -- division ----------------------------------------------------------

    def inverse(self) -> "Surd":
        """Multiplicative inverse (self must be nonzero)."""
        if not self._terms:
            raise ZeroDivisionError("inverse of zero surd")
        if self.is_rational():
            return Surd.rational(1 / self._terms[0][1])
        # refine the radicands by gcds down to one element p > 1 of their
        # coprime base, so that each radicand is a multiple of p or prime to
        # it; split x = a + sqrt(p)*b with a, b prime to p, then
        # 1/x = (a - sqrt(p) b) / (a^2 - p b^2), whose radicals have strictly
        # fewer prime factors.  No radicand is factored.
        p = 0
        for d, _ in self._terms:
            if gcd(p, d) > 1:
                p = gcd(p, d)
        a: dict[int, Fraction] = {}
        b: dict[int, Fraction] = {}
        for d, c in self._terms:
            if d % p == 0:
                b[d // p] = c
            else:
                a[d] = c
        sa, sb = Surd(a), Surd(b)
        conj = sa - Surd({p: Fraction(1)}) * sb
        denom = sa * sa - Surd.rational(p) * sb * sb
        return conj * denom.inverse()

    def __truediv__(self, other: SurdLike) -> "Surd":
        o = Surd._operand(other)
        return o if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other: SurdLike) -> "Surd":
        o = Surd._operand(other)
        return o if o is NotImplemented else o * self.inverse()

    def written(self, spelling: Spelling) -> str:
        terms = ((c, spelling.radical.format(d) if d > 1 else "") for d, c in self._terms)
        return write_sum(terms, spelling, spelling.times)


ZERO = Surd()


class PolyN(_Terms):
    """Polynomial in the symbolic dimension N with Surd coefficients."""

    __slots__ = ()
    _UNIT = 0
    _OPERANDS = (int, Fraction, Surd)

    def __init__(self, coeffs: dict[int, SurdLike] | None = None):
        super().__init__(coeffs)

    @staticmethod
    def _canonical(k: int, c: SurdLike) -> tuple[int, Surd]:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"bad exponent {k}")
        return k, Surd._coerce(c)

    @staticmethod
    def _times(j: int, k: int) -> int:
        return j + k

    @staticmethod
    def constant(x: SurdLike) -> "PolyN":
        return PolyN({0: x})

    def coeffs(self) -> tuple[tuple[int, Surd], ...]:
        return self._terms

    def coefficient(self, k: int) -> Surd:
        for kk, c in self._terms:
            if kk == k:
                return c
        return ZERO

    @property
    def degree(self) -> int:
        return self._terms[-1][0] if self._terms else -1

    def eval(self, n: RationalLike) -> Surd:
        """Exact value at a concrete dimension N = n."""
        x = _as_fraction(n)
        acc = ZERO
        for k, c in self._terms:
            acc = acc + c * Surd.rational(x**k)
        return acc

    def written(self, spelling: Spelling) -> str:
        power = spelling.power.format
        terms = ((c, power(k) if k > 1 else "N" if k else "") for k, c in reversed(self._terms))
        return write_sum(terms, spelling, spelling.times)


# -- writing -------------------------------------------------------------


class Spelling(NamedTuple):
    """How one output format writes the pieces of an exact sum."""

    rational: Callable[[Fraction], str]
    radical: str  # sqrt(d), formatted with d
    power: str  # N^k for k > 1, formatted with k
    times: str  # between a coefficient and its monomial
    group: str  # around a compound coefficient, formatted with it


def latex_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\tfrac{{{abs(q.numerator)}}}{{{q.denominator}}}"


TEXT = Spelling(str, "sqrt({})", "N^{}", "*", "({})")
LATEX = Spelling(latex_rational, "\\sqrt{{{}}}", "N^{{{}}}", "", "\\bigl({}\\bigr)")


def write_sum(terms: Iterable[tuple], spelling: Spelling, times: str) -> str:
    """The (coefficient, monomial) ``terms`` as one sum by the module's rule, a
    monomial of 1 being empty and ``times`` put between the two."""
    out = []
    for c, monomial in terms:
        if isinstance(c, Fraction):
            cs = spelling.rational(c)
        else:
            cs = c.written(spelling)
            cs = spelling.group.format(cs) if len(c.terms()) > 1 else cs
        if monomial:
            cs = cs[:-1] + monomial if cs in ("1", "-1") else cs + times + monomial
        if out:
            cs = f"- {cs[1:]}" if cs.startswith("-") else f"+ {cs}"
        out.append(cs)
    return " ".join(out) or "0"


def latex_surd(x: Surd) -> str:
    return x.written(LATEX)


def latex_poly(poly: PolyN) -> str:
    return poly.written(LATEX)


# -- JSON wire formats ---------------------------------------------------
#
# rational  ->  "p/q"
# surd      ->  [[d, "p/q"], ...] sorted by radicand d
# poly      ->  [[exponent, surd], ...] sorted by exponent
#
# An int of the wire format is a JSON integer: a float, bool or string there
# raises ValueError instead of being truncated.


def int_from_json(x: object) -> int:
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def ints_from_json(obj: Iterable) -> tuple[int, ...]:
    try:
        xs = tuple(obj)
    except TypeError:
        raise ValueError(f"expected a list of integers, got {obj!r}") from None
    if countOf(map(type, xs), int) != len(xs):
        raise ValueError(f"expected a list of integers, got {obj!r}")
    return xs


def rational_to_json(x: RationalLike) -> str:
    f = _as_fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rational_from_json(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"rational must be a 'p/q' string, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"rational {s!r} has a zero denominator") from None


# the spelling ``rational_to_json`` writes, as a comma-separated list
_CANONICAL_RATIONALS = re.compile(r"-?[0-9]+/[0-9]+(?:,-?[0-9]+/[0-9]+)*")


def rationals_from_json(texts: list[str]) -> tuple[list[int], list[int]]:
    """The numerators and denominators of wire rationals, not reduced.

    A list in the canonical ``p/q`` spelling is read at once: one join, one
    match and one split into ints.  Any other list is read item by item by
    ``rational_from_json``, as ``Fraction`` reads it, with its errors.
    """
    joined = ",".join(texts)
    # a text that holds a comma adds a slash, so the count tells it apart
    if _CANONICAL_RATIONALS.fullmatch(joined) and joined.count("/") == len(texts):
        ints = list(map(int, joined.replace("/", ",").split(",")))
        if 0 not in ints[1::2]:  # else the item by item reading names the zero
            return ints[0::2], ints[1::2]
    fractions = [rational_from_json(s) for s in texts]
    return [f.numerator for f in fractions], [f.denominator for f in fractions]


def surd_to_json(x: SurdLike) -> list:
    return [[d, rational_to_json(c)] for d, c in Surd._coerce(x).terms()]


def surd_from_json(obj: Iterable) -> Surd:
    return Surd._sum((int_from_json(d), rational_from_json(c)) for d, c in obj)


def poly_to_json(p: PolyN) -> list:
    return [[k, surd_to_json(c)] for k, c in p.coeffs()]


def poly_from_json(obj: Iterable) -> PolyN:
    return PolyN._sum((int_from_json(k), surd_from_json(c)) for k, c in obj)
