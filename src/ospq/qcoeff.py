"""Exact coefficient arithmetic for the deformed algebras.

All symbolic dependence on the deformation parameter lives in one field:
rational functions in s = q^(1/2) over Q(sqrt 2) whose denominators are
products of the two coprime binomials

    Dp = s + s^-1        Dm = s - s^-1        (note Dp*Dm = q - q^-1).

The coefficient type is

    QFrac : (sum_e (r_e + w_e*sqrt(2)) s^e) / (Dp^dp * Dm^dm),  dp, dm >= 0,

with the numerator held as a dict {e: Q2}; a Laurent polynomial is the
fraction with dp = dm = 0.  Fractions are kept in reduced form (the
numerator is divisible by neither binomial unless the corresponding exponent
is zero).  Since Dp ~ (s^2+1)/s and Dm ~ (s^2-1)/s share no roots, the
reduced (numerator, dp, dm) triple is a canonical form and equality is
structural.

Products, and the reduction by Dp and Dm, run on the integer triples
(a, b, d) of `scalars.Q2` directly and build one Q2 per resulting term.

Evaluation at the root of unity q = exp(i*pi/k) substitutes
s = exp(i*pi/(2k)); `eval_one` evaluates at s = 1 (the classical point),
which is exact (a Q2 number) whenever no Dm factor survives reduction.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

from .scalars import Q2, add_into

_from_triple = Q2.from_triple

ScalarLike = Union[int, Fraction, Q2]

# a numerator: {power of s: nonzero Q2}
_Poly = dict[int, Q2]


def _spow_text(e: int) -> str:
    """Even powers of s print as powers of q = s^2."""
    if e == 0:
        return ""
    if e % 2 == 0:
        h = e // 2
        return "q" if h == 1 else f"q^{h}"
    return "s" if e == 1 else f"s^{e}"


def _grouped(scalar: str) -> str:
    """Parenthesize a printed scalar that would be ambiguous next to a
    power or a fraction bar: "1+√2", "1/2", "-1-√2" (not "-2" or "√2")."""
    if any(ch in scalar for ch in "+/") or "-" in scalar[1:]:
        return f"({scalar})"
    return scalar


def join_signed(pieces: list[str]) -> str:
    """Join printed terms with " + ", writing a leading minus as " - "."""
    text = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            text += f" - {piece[1:]}"
        else:
            text += f" + {piece}"
    return text


# ---------------------------------------------------------------- numerators


def _padd(t: _Poly, u: _Poly) -> _Poly:
    """t + u; a power whose sum cancels leaves the dict."""
    t = dict(t)
    for e, c in u.items():
        add_into(t, e, c)
    return t


def _pmul(t: _Poly, u: _Poly) -> _Poly:
    """t * u.  Each power's coefficient is summed as an unreduced integer
    triple (a, b, d) and reduced once; a sum that cancels leaves the dict and
    a later term puts it back at the end, which fixes the term order."""
    acc: dict[int, tuple[int, int, int]] = {}
    get = acc.get
    for e1, c1 in t.items():
        a1, b1, d1 = c1.a, c1.b, c1.d
        for e2, c2 in u.items():
            a2, b2 = c2.a, c2.b
            if b1 or b2:
                a = a1 * a2 + 2 * b1 * b2
                b = a1 * b2 + b1 * a2
            else:
                a, b = a1 * a2, 0
            d = d1 * c2.d
            e = e1 + e2
            prev = get(e)
            if prev is not None:
                pa, pb, pd = prev
                if pd == d:
                    a += pa
                    b += pb
                else:
                    g = gcd(pd, d)
                    a = a * (pd // g) + pa * (d // g)
                    b = b * (pd // g) + pb * (d // g)
                    d = d // g * pd
                if not (a or b):
                    del acc[e]
                    continue
            acc[e] = (a, b, d)
    return {e: _from_triple(a, b, d) for e, (a, b, d) in acc.items()}


def _pstr(t: _Poly) -> str:
    """Terms in descending powers; even powers of s print as powers
    of q = s^2: "2q^3 + 4q + 2q^-1", "(1/2)s - √2"."""
    pieces: list[str] = []
    for e, z in sorted(t.items(), key=lambda p: -p[0]):
        scalar = str(z)
        power = _spow_text(e)
        if not power:
            pieces.append(scalar)
        elif scalar == "1":
            pieces.append(power)
        elif scalar == "-1":
            pieces.append(f"-{power}")
        else:
            pieces.append(f"{_grouped(scalar)}{power}")
    return join_signed(pieces) if pieces else "0"


def _rescale(t: _Poly, dp: int, dm: int) -> _Poly:
    """t * Dp^dp * Dm^dm, multiplying only by a factor that is not 1.

    The two factors are applied one after the other, as t * Dp^dp * Dm^dm
    associates: the product's terms then come out in the same order, which
    keeps every float sum over them (`eval_root`) the same to the last bit.
    """
    if dp:
        t = _pmul(t, _den_pow(dp, 0)._t)
    if dm:
        t = _pmul(t, _den_pow(0, dm)._t)
    return t


def _cancel_binomials(t: _Poly, dp: int, dm: int) -> tuple[_Poly, int, int]:
    """Divide t by Dp while it is divisible and dp > 0, then by Dm.

    With x = s and t = s^mn P(x), Dp = s^-1 (x^2 + 1) and
    Dm = s^-1 (x^2 - 1).  Both are irreducible over Q(sqrt 2), so x^2 + 1
    divides P iff P(i) = 0, and x^2 - 1 divides P iff P(1) = P(-1) = 0.
    P is kept as two integer lists, the a and b parts of its coefficients
    times the lcm L of their denominators, which changes neither test; each
    division by x^2 + sign is synthetic, and the quotient's terms come out in
    ascending powers.
    """
    mn = min(t)
    L = 1
    for c in t.values():
        if L % c.d:
            L = L // gcd(L, c.d) * c.d
    A = [0] * (max(t) - mn + 1)
    B = list(A)
    for e, c in t.items():
        f = L // c.d
        A[e - mn] = c.a * f
        B[e - mn] = c.b * f
    # t = s^shift P(s); dividing by s^-1 (s^2 +- 1) raises the shift by 1
    shift = mn
    while dp and _divides(A, 1) and _divides(B, 1):
        A, B, dp, shift = _divide(A, 1), _divide(B, 1), dp - 1, shift + 1
    while dm and _divides(A, -1) and _divides(B, -1):
        A, B, dm, shift = _divide(A, -1), _divide(B, -1), dm - 1, shift + 1
    if shift != mn:
        t = {i + shift: _from_triple(a, b, L)
             for i, (a, b) in enumerate(zip(A, B)) if a or b}
    return t, dp, dm


def _divides(P: list[int], sign: int) -> bool:
    """Whether x^2 + sign divides sum P[j] x^j: P(i) = 0, or P(1) = P(-1) = 0."""
    if sign > 0:
        return sum(P[0::4]) == sum(P[2::4]) and sum(P[1::4]) == sum(P[3::4])
    return sum(P[0::2]) == 0 and sum(P[1::2]) == 0


def _divide(P: list[int], sign: int) -> list[int]:
    """The quotient of sum P[j] x^j by x^2 + sign, which divides it."""
    R = list(P)
    Q = [0] * (len(P) - 2)
    for i in range(len(Q) - 1, -1, -1):
        c = Q[i] = R[i + 2]
        if c:
            R[i] -= sign * c
    return Q


def _frac(t: _Poly, dp: int = 0, dm: int = 0) -> "QFrac":
    """The reduced t / (Dp^dp * Dm^dm), for a numerator with no zero terms."""
    out = QFrac.__new__(QFrac)
    if not t:
        dp = dm = 0
    elif dp or dm:
        t, dp, dm = _cancel_binomials(t, dp, dm)
    out._t, out.dp, out.dm = t, dp, dm
    return out


# ------------------------------------------------------------------ fractions


class QFrac:
    """A Laurent numerator over Q(sqrt 2) divided by Dp^dp * Dm^dm.

    `QFrac(num, dp, dm)` is num / (Dp^dp * Dm^dm), where num is a QFrac (its
    own denominator adds), a {power of s: Q2} dict or a scalar.  Instances
    are reduced on construction; equality is then structural because Dp and
    Dm are coprime non-units of the Laurent ring.
    """

    __slots__ = ("_t", "dp", "dm")

    def __init__(self, num: "QFrac | _Poly | ScalarLike", dp: int = 0, dm: int = 0) -> None:
        if dp < 0 or dm < 0:
            raise ValueError("denominator exponents must be nonnegative")
        if isinstance(num, QFrac):
            t, dp, dm = num._t, dp + num.dp, dm + num.dm
        elif isinstance(num, dict):
            t = {e: c for e, c in num.items() if c}
        else:
            c = Q2._coerce(num)
            if c is None:
                raise TypeError(f"cannot build QFrac from {type(num).__name__}")
            t = {0: c} if c else {}
        if not t:
            dp = dm = 0
        elif dp or dm:
            t, dp, dm = _cancel_binomials(t, dp, dm)
        self._t, self.dp, self.dm = t, dp, dm

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "QFrac":
        return _frac({})

    @classmethod
    def one(cls) -> "QFrac":
        return _frac({0: Q2(1)})

    @classmethod
    def s_pow(cls, e: int, coeff: ScalarLike = 1) -> "QFrac":
        """The monomial coeff * s^e."""
        c = Q2._coerce(coeff)
        if c is None:
            raise TypeError("coefficient must be rational or Q2")
        return _frac({e: c} if c else {})

    @staticmethod
    def _coerce(x: object) -> "QFrac | None":
        if isinstance(x, QFrac):
            return x
        c = Q2._coerce(x)
        if c is not None:
            return _frac({0: c} if c else {})
        return None

    # -- the numerator ----------------------------------------------------

    @property
    def num(self) -> "QFrac":
        """The numerator, as a Laurent polynomial."""
        return _frac(self._t) if self.dp or self.dm else self

    def terms(self) -> list[tuple[int, Q2]]:
        """The numerator's (exponent, coefficient) pairs by descending exponent."""
        return sorted(self._t.items(), key=lambda p: -p[0])

    def min_exp(self) -> int:
        return min(self._t)

    def max_exp(self) -> int:
        return max(self._t)

    def coeff(self, e: int) -> Q2:
        return self._t.get(e, Q2(0))

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._t == o._t and self.dp == o.dp and self.dm == o.dm

    def __hash__(self) -> int:
        # a constant hashes like the equal Q2, int or Fraction, as it compares
        t = self._t
        if len(t) < 2 and not (self.dp or self.dm) and (not t or 0 in t):
            return hash(t.get(0, 0))
        return hash((frozenset(t.items()), self.dp, self.dm))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: object) -> "QFrac":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        dp = max(self.dp, o.dp)
        dm = max(self.dm, o.dm)
        return _frac(_padd(_rescale(self._t, dp - self.dp, dm - self.dm),
                           _rescale(o._t, dp - o.dp, dm - o.dm)), dp, dm)

    __radd__ = __add__

    def __neg__(self) -> "QFrac":
        out = QFrac.__new__(QFrac)
        out._t, out.dp, out.dm = {e: -c for e, c in self._t.items()}, self.dp, self.dm
        return out

    def __sub__(self, other: object) -> "QFrac":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "QFrac":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "QFrac":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _frac(_pmul(self._t, o._t), self.dp + o.dp, self.dm + o.dm)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QFrac":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QFrac.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def mul_s_pow(self, e: int) -> "QFrac":
        """self * s^e, by moving the numerator's exponents.

        s is a unit, so the reduced form stays reduced: this is
        `self * QFrac.s_pow(e)` term for term and in the same order, without
        a product or a reduction pass.
        """
        if not e:
            return self
        out = QFrac.__new__(QFrac)
        out._t, out.dp, out.dm = {k + e: c for k, c in self._t.items()}, self.dp, self.dm
        return out

    # -- involutions and evaluation ------------------------------------

    def conjugate(self) -> "QFrac":
        """Bar involution s -> s^-1 (coefficients in Q(sqrt 2) are real).

        Dp is invariant while Dm flips sign, so the conjugate picks up
        (-1)^dm on the numerator; reduction state is unchanged.
        """
        t = {-e: c for e, c in self._t.items()}
        if self.dm % 2:
            t = {e: -c for e, c in t.items()}
        out = QFrac.__new__(QFrac)
        out._t, out.dp, out.dm = t, self.dp, self.dm
        return out

    def eval_root(self, k: int) -> complex:
        """Numerical value at s = exp(i*pi/(2k)), i.e. q = exp(i*pi/k).
        At k = 1, s = i is a root of s + s^-1, so a Dp factor is a pole."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        if k == 1 and self.dp:
            raise ValueError("pole at q = -1: s + s^-1 vanishes")
        z = 0j
        for e, c in self._t.items():
            z += float(c) * cmath.exp(1j * cmath.pi * e / (2 * k))
        s = cmath.exp(1j * cmath.pi / (2 * k))
        den = (s + 1 / s) ** self.dp * (s - 1 / s) ** self.dm
        return z / den

    def eval_one(self) -> Q2:
        """Exact value at s = 1; Dp(1) = 2, while a surviving Dm factor
        would be a pole, so that raises unless the fraction is zero."""
        if self.is_zero():
            return Q2(0)
        if self.dm > 0:
            raise ValueError("pole at s = 1 (Dm factor in denominator)")
        v = Q2(0)
        for c in self._t.values():
            v = v + c
        return _from_triple(v.a, v.b, v.d << self.dp)

    def eval_scalar(self, s_val: complex) -> complex:
        """Numerical value at an arbitrary nonzero s.  A denominator factor
        that is 0 there, exactly or by underflow near a pole, raises
        ValueError."""
        z = 0j
        for e, c in self._t.items():
            z += float(c) * s_val**e
        dp_pow = (s_val + 1 / s_val) ** self.dp
        dm_pow = (s_val - 1 / s_val) ** self.dm
        for factor, binomial in ((dp_pow, "s + s^-1"), (dm_pow, "s - s^-1")):
            if factor == 0:
                raise ValueError(f"pole at s = {s_val}: the {binomial} factor is 0")
        return z / (dp_pow * dm_pow)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        """Numerator over the denominator: "(2/(s+s^-1))"; a numerator
        with several terms is parenthesized, as is the whole fraction, and
        so is a lone scalar with an inner sign or a fraction bar:
        "((1+√2)/(s+s^-1))", "((1/2)/(s+s^-1))"."""
        num = _pstr(self._t)
        if len(self._t) > 1:
            num = f"({num})"
        elif (self.dp or self.dm) and 0 in self._t:
            num = _grouped(num)
        dens = []
        if self.dp:
            dens.append("(s+s^-1)" + (f"^{self.dp}" if self.dp > 1 else ""))
        if self.dm:
            dens.append("(s-s^-1)" + (f"^{self.dm}" if self.dm > 1 else ""))
        if not dens:
            return num
        den = dens[0] if len(dens) == 1 else "(" + " ".join(dens) + ")"
        return f"({num}/{den})"

    def __repr__(self) -> str:
        return f"QFrac({self})"


# the two canonical denominator binomials, and frequently used constants
DPLUS = _frac({1: Q2(1), -1: Q2(1)})     # s + s^-1
DMINUS = _frac({1: Q2(1), -1: Q2(-1)})   # s - s^-1
Q_MINUS_QINV = DPLUS * DMINUS            # q - q^-1 = s^2 - s^-2
C_WEYL = QFrac(2, 1, 0)                  # c = 2/(s+s^-1)
INV_QMQI = QFrac(1, 1, 1)                # 1/(q - q^-1)


@lru_cache(maxsize=None)
def _den_pow(dp: int, dm: int) -> QFrac:
    """Dp^dp * Dm^dm, shared by every addition that rescales a numerator
    (callers never mutate a QFrac, so the cached value stays exact)."""
    return DPLUS ** dp * DMINUS ** dm


def q_int(m: int) -> QFrac:
    """The symmetric q-integer [m] = (q^m - q^-m)/(q - q^-1).

    Laurent-polynomial form: q^(m-1) + q^(m-3) + ... + q^(1-m); [0] = 0 and
    [-m] = -[m].
    """
    if m < 0:
        return -q_int(-m)
    return _frac({2 * (m - 1 - 2 * j): Q2(1) for j in range(m)})


def q_factorial(m: int) -> QFrac:
    """[m]! = [1][2]...[m]; [0]! = 1."""
    if m < 0:
        raise ValueError("q-factorial needs m >= 0")
    out = QFrac.one()
    for t in range(2, m + 1):
        out = out * q_int(t)
    return out


def fock_norm_factor(m: int) -> QFrac:
    """Squared norm (2/(s+s^-1))^m * [m]! of the unnormalized level-m vector.

    Note this is the *reciprocal* of the normalization constant quoted in
    some conventions (which divide by this quantity rather than multiply);
    consistency with the ladder action and the vacuum pairing fixes the
    present choice.  At q = exp(i*pi/k) the value is real, positive for
    0 <= m <= k-1, and zero at m = k.
    """
    if m < 0:
        raise ValueError("level must be nonnegative")
    return QFrac(QFrac(2 ** m) * q_factorial(m), m, 0)


def fock_norm_factors(levels: int) -> list[QFrac]:
    """`fock_norm_factor(m)` for m = 0..levels-1 from one running [m]!.

    Each value is built by the same products as `fock_norm_factor(m)`, so it
    is the same QFrac down to the order of its terms, at the cost of one
    q-integer product per level instead of m.
    """
    out: list[QFrac] = []
    fact = QFrac.one()
    for m in range(levels):
        if m > 1:
            fact = fact * q_int(m)
        out.append(QFrac(QFrac(2 ** m) * fact, m, 0))
    return out


def eval_root(x: QFrac | ScalarLike, k: int) -> complex:
    """Evaluate any coefficient-like object at q = exp(i*pi/k)."""
    if isinstance(x, QFrac):
        return x.eval_root(k)
    c = Q2._coerce(x)
    if c is None:
        raise TypeError(f"cannot evaluate {type(x).__name__}")
    return complex(c)
