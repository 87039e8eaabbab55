"""Exact coefficient arithmetic: rationals, square-root extensions, and
polynomials in a symbolic dimension N.

``Surd`` is a finite Q-linear combination of sqrt(d) for distinct squarefree
d >= 1 (d = 1 being the rational part).  Canonical form keys every term by its
squarefree radicand, so equality and hashing are structural.  Surds form a
field (a real multiquadratic extension of Q); division rationalizes one
radical at a time.

``PolyN`` is a polynomial in N with Surd coefficients, used for traces and
dimension formulas that stay symbolic in the ambient dimension.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, isqrt
from operator import countOf
from typing import Iterable, Union

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


class Surd:
    """A sum of rational multiples of square roots of distinct squarefree ints.

    >>> (Surd.sqrt(2) * Surd.sqrt(2)).as_fraction()
    Fraction(2, 1)
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        canon: dict[int, Fraction] = {}
        if terms:
            for d, c in terms.items():
                if not isinstance(d, int):
                    raise TypeError("radicands must be ints")
                s, g = squarefree_decompose(d)
                c = _as_fraction(c) * g
                if c:
                    canon[s] = canon.get(s, Fraction(0)) + c
                    if not canon[s]:
                        del canon[s]
        object.__setattr__(self, "_terms", tuple(sorted(canon.items())))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(x: RationalLike) -> "Surd":
        return Surd({1: _as_fraction(x)})

    @staticmethod
    def sqrt(x: RationalLike) -> "Surd":
        """Positive square root of a positive rational, e.g. sqrt(4/3) = (2/3)sqrt(3)."""
        q = _as_fraction(x)
        if q <= 0:
            raise ValueError(f"sqrt of non-positive rational {q}")
        s, g = squarefree_decompose(q.numerator * q.denominator)
        return Surd({s: Fraction(g, q.denominator)})

    @staticmethod
    def _coerce(x: SurdLike) -> "Surd":
        if isinstance(x, Surd):
            return x
        return Surd.rational(_as_fraction(x))

    @staticmethod
    def _operand(x: object) -> "Surd":
        """``x`` as a surd, or NotImplemented if it is no scalar."""
        return Surd._coerce(x) if isinstance(x, _SCALARS) else NotImplemented

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

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: SurdLike) -> "Surd":
        o = Surd._operand(other)
        if o is NotImplemented:
            return o
        out = dict(self._terms)
        for d, c in o._terms:
            out[d] = out.get(d, Fraction(0)) + c
        return Surd(out)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd({d: -c for d, c in self._terms})

    def __sub__(self, other: SurdLike) -> "Surd":
        o = Surd._operand(other)
        return o if o is NotImplemented else self + (-o)

    def __rsub__(self, other: SurdLike) -> "Surd":
        o = Surd._operand(other)
        return o if o is NotImplemented else o + (-self)

    def __mul__(self, other: SurdLike) -> "Surd":
        o = Surd._operand(other)
        if o is NotImplemented:
            return o
        out: dict[int, Fraction] = {}
        for d1, c1 in self._terms:
            for d2, c2 in o._terms:
                s, g = squarefree_decompose(d1 * d2)
                c = c1 * c2 * g
                out[s] = out.get(s, Fraction(0)) + c
        return Surd(out)

    __rmul__ = __mul__

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

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Surd.rational(other)
        if not isinstance(other, Surd):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"Surd({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for d, c in self._terms:
            if d == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"sqrt({d})")
            else:
                parts.append(f"{c}*sqrt({d})")
        return " + ".join(parts).replace("+ -", "- ")


ZERO = Surd()

# Operand types the binary operators accept; any other operand gets
# NotImplemented, so Python tries the other operand's reflected method.
_SCALARS = (int, Fraction, Surd)


class PolyN:
    """Polynomial in the symbolic dimension N with Surd coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, SurdLike] | None = None):
        canon: dict[int, Surd] = {}
        if coeffs:
            for k, c in coeffs.items():
                if not isinstance(k, int) or k < 0:
                    raise ValueError(f"bad exponent {k}")
                c = Surd._coerce(c)
                if c:
                    canon[k] = canon.get(k, ZERO) + c
                    if not canon[k]:
                        del canon[k]
        object.__setattr__(self, "_coeffs", tuple(sorted(canon.items())))

    @staticmethod
    def constant(x: SurdLike) -> "PolyN":
        return PolyN({0: Surd._coerce(x)})

    @staticmethod
    def _coerce(x: Union["PolyN", SurdLike]) -> "PolyN":
        if isinstance(x, PolyN):
            return x
        return PolyN.constant(x)

    @staticmethod
    def _operand(x: object) -> "PolyN":
        """``x`` as a polynomial, or NotImplemented if it is no scalar or polynomial."""
        return PolyN._coerce(x) if isinstance(x, (PolyN, *_SCALARS)) else NotImplemented

    def coeffs(self) -> tuple[tuple[int, Surd], ...]:
        return self._coeffs

    def coefficient(self, k: int) -> Surd:
        for kk, c in self._coeffs:
            if kk == k:
                return c
        return ZERO

    @property
    def degree(self) -> int:
        return self._coeffs[-1][0] if self._coeffs else -1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: Union["PolyN", SurdLike]) -> "PolyN":
        o = PolyN._operand(other)
        if o is NotImplemented:
            return o
        out = {k: c for k, c in self._coeffs}
        for k, c in o._coeffs:
            out[k] = out.get(k, ZERO) + c
        return PolyN(out)

    __radd__ = __add__

    def __neg__(self) -> "PolyN":
        return PolyN({k: -c for k, c in self._coeffs})

    def __sub__(self, other: Union["PolyN", SurdLike]) -> "PolyN":
        o = PolyN._operand(other)
        return o if o is NotImplemented else self + (-o)

    def __rsub__(self, other: Union["PolyN", SurdLike]) -> "PolyN":
        o = PolyN._operand(other)
        return o if o is NotImplemented else o + (-self)

    def __mul__(self, other: Union["PolyN", SurdLike]) -> "PolyN":
        o = PolyN._operand(other)
        if o is NotImplemented:
            return o
        out: dict[int, Surd] = {}
        for k1, c1 in self._coeffs:
            for k2, c2 in o._coeffs:
                k = k1 + k2
                out[k] = out.get(k, ZERO) + c1 * c2
        return PolyN(out)

    __rmul__ = __mul__

    def eval(self, n: RationalLike) -> Surd:
        """Exact value at a concrete dimension N = n."""
        x = _as_fraction(n)
        acc = ZERO
        for k, c in self._coeffs:
            acc = acc + c * Surd.rational(x**k)
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Surd)):
            other = PolyN.constant(other)
        if not isinstance(other, PolyN):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"PolyN({self})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in reversed(self._coeffs):
            cs = str(c)
            if "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*N" if cs != "1" else "N")
            else:
                parts.append(f"{cs}*N^{k}" if cs != "1" else f"N^{k}")
        return " + ".join(parts).replace("+ -", "- ")


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
    terms: dict[int, Fraction] = {}
    for pair in obj:
        d, c = pair
        d = int_from_json(d)
        terms[d] = terms.get(d, Fraction(0)) + rational_from_json(c)
    return Surd(terms)


def poly_to_json(p: PolyN) -> list:
    return [[k, surd_to_json(c)] for k, c in p.coeffs()]


def poly_from_json(obj: Iterable) -> PolyN:
    coeffs: dict[int, Surd] = {}
    for pair in obj:
        k, c = pair
        k = int_from_json(k)
        coeffs[k] = coeffs.get(k, ZERO) + surd_from_json(c)
    return PolyN(coeffs)
