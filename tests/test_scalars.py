"""Q(sqrt 2) on integer triples, pinned against a Fraction-pair reference."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import pytest

from ospq.qcoeff import QFrac
from ospq.scalars import Q2, add_into

SQRT2 = math.sqrt(2.0)


class Ref:
    """r + w*sqrt(2) with Fraction parts: the plain reference arithmetic."""

    def __init__(self, r, w=0):
        self.r, self.w = Fraction(r), Fraction(w)

    def __add__(self, o):
        return Ref(self.r + o.r, self.w + o.w)

    def __sub__(self, o):
        return Ref(self.r - o.r, self.w - o.w)

    def __mul__(self, o):
        return Ref(self.r * o.r + 2 * self.w * o.w, self.r * o.w + self.w * o.r)

    def __neg__(self):
        return Ref(-self.r, -self.w)

    def conjugate(self):
        return Ref(self.r, -self.w)

    def norm(self):
        return self.r * self.r - 2 * self.w * self.w

    def inverse(self):
        n = self.norm()
        return Ref(self.r / n, -self.w / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = Ref(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def float(self):
        return float(self.r) + float(self.w) * SQRT2

    def text(self):
        r, w = self.r, self.w
        if w == 0:
            return str(r)
        root = "√2" if w == 1 else "-√2" if w == -1 else f"{w}√2"
        if r == 0:
            return root
        return f"{r}{'' if root.startswith('-') else '+'}{root}"


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 4, 8, 3, 6)))


def _pair(rng: random.Random) -> tuple[Q2, Ref]:
    r = _rational(rng)
    w = _rational(rng) if rng.random() < 0.6 else Fraction(0)
    return Q2(r, w), Ref(r, w)


def _check(q: Q2, ref: Ref) -> None:
    assert (q.r, q.w) == (ref.r, ref.w)
    a, b, d = q.a, q.b, q.d
    assert all(type(x) is int for x in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    assert float(q).hex() == ref.float().hex()
    assert str(q) == ref.text()


def test_matches_fraction_pair_reference():
    rng = random.Random(20251)
    binary = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}
    for _ in range(12_000):
        x, rx = _pair(rng)
        y, ry = _pair(rng)
        op = rng.choice(("+", "-", "*", "/", "neg", "pow", "conj", "norm",
                         "inv", "==", "int", "frac"))
        if op in binary:
            if op == "/" and not (ry.r or ry.w):
                with pytest.raises(ZeroDivisionError):
                    x / y
                continue
            _check(binary[op](x, y), binary[op](rx, ry))
        elif op == "neg":
            _check(-x, -rx)
        elif op == "pow":
            e = rng.randint(-3, 4)
            if e < 0 and not (rx.r or rx.w):
                continue
            _check(x ** e, rx ** e)
        elif op == "conj":
            _check(x.conjugate(), rx.conjugate())
        elif op == "norm":
            assert x.norm() == rx.norm() and type(x.norm()) is Fraction
        elif op == "inv":
            if rx.r or rx.w:
                _check(x.inverse(), rx.inverse())
        elif op == "==":
            assert (x == y) == (rx.r == ry.r and rx.w == ry.w)
            assert x == Q2(rx.r, rx.w)
        else:
            # mixed with int / Fraction on either side
            c = rng.randint(-5, 5) if op == "int" else _rational(rng)
            rc = Ref(c)
            name = rng.choice(tuple(binary))
            if name != "/" or c:
                _check(binary[name](x, c), binary[name](rx, rc))
            if name != "/" or rx.r or rx.w:
                _check(binary[name](c, x), binary[name](rc, rx))


def test_canonical_form():
    assert (Q2(0).a, Q2(0).b, Q2(0).d) == (0, 0, 1)
    zero = Q2(Fraction(1, 2), Fraction(1, 4)) - Q2(Fraction(2, 4), Fraction(1, 4))
    assert (zero.a, zero.b, zero.d) == (0, 0, 1) and zero == Q2(0) and not zero
    x = Q2(Fraction(1, 2), Fraction(3, 4))  # (2 + 3 sqrt2)/4
    assert (x.a, x.b, x.d) == (2, 3, 4)
    y = x + Q2(Fraction(1, 2), Fraction(1, 4))  # (4 + 4 sqrt2)/4 = 1 + sqrt2
    assert (y.a, y.b, y.d) == (1, 1, 1)
    z = Q2(Fraction(-1, 3)).inverse()
    assert (z.a, z.b, z.d) == (-3, 0, 1)
    n = Q2(1, 2).inverse()  # 1/(1 + 2 sqrt2) = (-1 + 2 sqrt2)/7
    assert (n.a, n.b, n.d) == (-1, 2, 7)


def test_hash_agrees_with_rationals():
    for value in (0, 1, -7, Fraction(1, 2), Fraction(-3, 8), Fraction(10, 4)):
        q = Q2(value)
        assert q == value and hash(q) == hash(value) == hash(Fraction(value))
    assert Q2(Fraction(4, 2)) == 2 and hash(Q2(Fraction(4, 2))) == hash(2)
    assert len({Q2(Fraction(1, 2), 1), Q2(Fraction(2, 4), Fraction(3, 3))}) == 1
    assert {Q2(3): "x"}[3] == "x"


def test_float_matches_fraction_formula():
    rng = random.Random(7)
    for _ in range(2_000):
        r = Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 2, 4, 8, 3, 1024)))
        w = Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 2, 4, 8, 5)))
        got = float(Q2(r, w))
        assert got.hex() == (float(r) + float(w) * SQRT2).hex()


def test_text_and_json_round_trip():
    assert str(Q2(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4√2"
    assert repr(Q2(Fraction(1, 2), 1)) == "Q2(Fraction(1, 2), Fraction(1, 1))"


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Q2(0).inverse()
    with pytest.raises(ZeroDivisionError):
        Q2(1, 1) / Q2(0)
    with pytest.raises(ZeroDivisionError):
        1 / Q2(0)
    with pytest.raises(ZeroDivisionError):
        Q2(0) ** -1


def test_add_into_drops_an_exact_zero_and_puts_a_returning_key_last():
    for one, two in ((Q2(1), Q2(0, 1)), (QFrac.one(), QFrac({1: Q2(1)}))):
        acc = {}
        add_into(acc, "a", one)
        add_into(acc, "b", two)
        add_into(acc, "a", one)
        assert list(acc) == ["a", "b"] and acc["a"] == one + one
        add_into(acc, "a", -(one + one))
        assert list(acc) == ["b"]
        add_into(acc, "a", two)
        assert list(acc) == ["b", "a"] and acc["a"] == two
