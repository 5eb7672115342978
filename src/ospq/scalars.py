"""Exact arithmetic in the real quadratic field Q(sqrt 2).

An element (a + b*sqrt(2))/d is stored as the integer triple (a, b, d) in
canonical form: d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1) and
equality is structural.  This is the smallest field containing the
normalization constants of the paraboson generators (their matrix entries
involve sqrt(2)), so all exact computations in the package bottom out here
rather than in floats.

The denominators that occur in the package are small powers of two, so the
arithmetic stays on plain integers: a sum of two elements over the same d
adds numerators without cross-multiplying, and a result is reduced by one
`math.gcd(a, b, d)`, skipped when d == 1.  The rational and radical parts
r = a/d and w = b/d are available as `Fraction`s for display and
serialization.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]

_SQRT2 = math.sqrt(2.0)
_gcd = math.gcd
_new = object.__new__


def _make(a: int, b: int, d: int) -> "Q2":
    """A Q2 from a triple already in canonical form."""
    out = _new(Q2)
    out.a = a
    out.b = b
    out.d = d
    return out


def _reduced(a: int, b: int, d: int) -> "Q2":
    """(a + b*sqrt(2))/d for any integers with d > 0, in canonical form."""
    if d != 1:
        g = _gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    # built here rather than through _make: the hottest constructor
    out = _new(Q2)
    out.a = a
    out.b = b
    out.d = d
    return out


def _ratio_text(a: int, d: int) -> str:
    """a/d (d > 0) in lowest terms, printed as `str(Fraction(a, d))` does."""
    g = _gcd(a, d)
    return str(a // g) if d == g else f"{a // g}/{d // g}"


class Q2:
    """An element (a + b*sqrt(2))/d of Q(sqrt 2), immutable by convention.

    Built from its rational and radical parts: Q2(r, w) is r + w*sqrt(2).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, r: RatLike = 0, w: RatLike = 0) -> None:
        if type(r) is int and type(w) is int:
            self.a, self.b, self.d = r, w, 1
            return
        r = Fraction(r)
        w = Fraction(w)
        rd, wd = r.denominator, w.denominator
        # both parts are reduced, so the triple over lcm(rd, wd) is too
        d = rd * wd // _gcd(rd, wd)
        self.a = r.numerator * (d // rd)
        self.b = w.numerator * (d // wd)
        self.d = d

    @property
    def r(self) -> Fraction:
        """The rational part a/d."""
        return Fraction(self.a, self.d)

    @property
    def w(self) -> Fraction:
        """The coefficient b/d of sqrt(2)."""
        return Fraction(self.b, self.d)

    from_triple = staticmethod(_reduced)

    # -- coercion -----------------------------------------------------

    @staticmethod
    def _coerce(x: object) -> "Q2 | None":
        if isinstance(x, Q2):
            return x
        if isinstance(x, int):
            return _make(int(x), 0, 1)
        if isinstance(x, Fraction):
            return _make(x.numerator, 0, x.denominator)
        return None

    # -- ring / field operations --------------------------------------

    def __add__(self, other: object) -> "Q2":
        o = other if type(other) is Q2 else Q2._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d
        od = o.d
        if d == od:
            return _reduced(self.a + o.a, self.b + o.b, d)
        return _reduced(self.a * od + o.a * d, self.b * od + o.b * d, d * od)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Q2":
        o = other if type(other) is Q2 else Q2._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d
        od = o.d
        if d == od:
            return _reduced(self.a - o.a, self.b - o.b, d)
        return _reduced(self.a * od - o.a * d, self.b * od - o.b * d, d * od)

    def __rsub__(self, other: object) -> "Q2":
        o = Q2._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "Q2":
        o = other if type(other) is Q2 else Q2._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 v)(a2 + b2 v) / (d1 d2) with v^2 = 2
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        d = self.d * o.d
        if not b1 and not b2:
            a, b = a1 * a2, 0
        else:
            a, b = a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2
        return _reduced(a, b, d)

    __rmul__ = __mul__

    def conjugate(self) -> "Q2":
        """Galois conjugate r - w*sqrt(2)."""
        return _make(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm r^2 - 2 w^2 (zero iff the element is zero)."""
        return Fraction(self.a * self.a - 2 * self.b * self.b, self.d * self.d)

    def inverse(self) -> "Q2":
        # d / (a + b v) = d (a - b v) / (a^2 - 2 b^2)
        a, b, d = self.a, self.b, self.d
        n = a * a - 2 * b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        if n < 0:
            return _reduced(-d * a, d * b, -n)
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other: object) -> "Q2":
        o = Q2._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "Q2":
        o = Q2._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self) -> "Q2":
        return _make(-self.a, -self.b, self.d)

    def __pos__(self) -> "Q2":
        return self

    def __pow__(self, n: int) -> "Q2":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = _make(1, 0, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates / conversions -------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __eq__(self, other: object) -> bool:
        o = other if type(other) is Q2 else Q2._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self) -> int:
        # a rational element hashes like the equal int or Fraction
        if not self.b:
            return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __float__(self) -> float:
        # int / int is correctly rounded, so a/d is float(Fraction(a, d))
        if not self.b:
            return self.a / self.d
        return self.a / self.d + (self.b / self.d) * _SQRT2

    def __complex__(self) -> complex:
        return complex(float(self))

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        """Rational part, then the radical with an explicit marker:
        "1-2√2", "-√2", "-1/2"."""
        a, b, d = self.a, self.b, self.d
        if not b:
            return _ratio_text(a, d)
        if b == d:
            root = "√2"
        elif b == -d:
            root = "-√2"
        else:
            root = f"{_ratio_text(b, d)}√2"
        if not a:
            return root
        sign = "+" if b > 0 else ""
        return f"{_ratio_text(a, d)}{sign}{root}"

    def __repr__(self) -> str:
        return f"Q2({self.r!r}, {self.w!r})"


ONE = Q2(1)
SQRT2 = Q2(0, 1)


def add_into(acc: dict, key: object, c) -> None:
    """acc[key] += c, dropping the key when the sum is exactly zero.

    A dropped key that is added again goes to the end of the dict, so the
    order of the terms depends on the order of the additions."""
    old = acc.get(key)
    s = c if old is None else old + c
    if s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s
