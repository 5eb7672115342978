"""Exact arithmetic in the real quadratic field Q(sqrt 2).

Elements are r + w*sqrt(2) with rational r, w.  This is the smallest field
containing the normalization constants of the paraboson generators (their
matrix entries involve sqrt(2)), so all exact computations in the package
bottom out here rather than in floats.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]

_SQRT2 = math.sqrt(2.0)


class Q2:
    """An element r + w*sqrt(2) of Q(sqrt 2), immutable by convention."""

    __slots__ = ("r", "w")

    def __init__(self, r: RatLike = 0, w: RatLike = 0) -> None:
        self.r = Fraction(r)
        self.w = Fraction(w)

    # -- coercion -----------------------------------------------------

    @staticmethod
    def _coerce(x: object) -> "Q2 | None":
        if isinstance(x, Q2):
            return x
        if isinstance(x, (int, Fraction)):
            return Q2(x)
        return None

    @staticmethod
    def _fast(r: Fraction, w: Fraction) -> "Q2":
        # fields are known Fractions: skip the normalizing constructor
        out = Q2.__new__(Q2)
        out.r = r
        out.w = w
        return out

    # -- ring / field operations --------------------------------------

    def __add__(self, other: object) -> "Q2":
        o = Q2._coerce(other)
        if o is None:
            return NotImplemented
        return Q2._fast(self.r + o.r, self.w + o.w)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Q2":
        o = Q2._coerce(other)
        if o is None:
            return NotImplemented
        return Q2._fast(self.r - o.r, self.w - o.w)

    def __rsub__(self, other: object) -> "Q2":
        o = Q2._coerce(other)
        if o is None:
            return NotImplemented
        return Q2._fast(o.r - self.r, o.w - self.w)

    def __mul__(self, other: object) -> "Q2":
        o = Q2._coerce(other)
        if o is None:
            return NotImplemented
        # (r1 + w1 v)(r2 + w2 v) with v^2 = 2
        if not self.w and not o.w:
            return Q2._fast(self.r * o.r, self.w)
        return Q2._fast(self.r * o.r + 2 * self.w * o.w,
                        self.r * o.w + self.w * o.r)

    __rmul__ = __mul__

    def conjugate(self) -> "Q2":
        """Galois conjugate r - w*sqrt(2)."""
        return Q2(self.r, -self.w)

    def norm(self) -> Fraction:
        """Field norm r^2 - 2 w^2 (zero iff the element is zero)."""
        return self.r * self.r - 2 * self.w * self.w

    def inverse(self) -> "Q2":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        return Q2(self.r / n, -self.w / n)

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
        return Q2._fast(-self.r, -self.w)

    def __pos__(self) -> "Q2":
        return self

    def __pow__(self, n: int) -> "Q2":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = Q2(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates / conversions -------------------------------------

    def __bool__(self) -> bool:
        return bool(self.r) or bool(self.w)

    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other: object) -> bool:
        o = Q2._coerce(other)
        if o is None:
            return NotImplemented
        return self.r == o.r and self.w == o.w

    def __hash__(self) -> int:
        if self.w == 0:
            return hash(self.r)
        return hash((self.r, self.w))

    def __float__(self) -> float:
        return float(self.r) + float(self.w) * _SQRT2

    def __complex__(self) -> complex:
        return complex(float(self))

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        """Rational part, then the radical with an explicit marker:
        "1-2√2", "-√2", "-1/2"."""
        r, w = self.r, self.w
        if w == 0:
            return str(r)
        if w == 1:
            root = "√2"
        elif w == -1:
            root = "-√2"
        else:
            root = f"{w}√2"
        if r == 0:
            return root
        sign = "+" if not root.startswith("-") else ""
        return f"{r}{sign}{root}"

    def __repr__(self) -> str:
        return f"Q2({self.r!r}, {self.w!r})"


ZERO = Q2(0)
ONE = Q2(1)
SQRT2 = Q2(0, 1)
