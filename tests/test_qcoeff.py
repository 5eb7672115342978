"""Tests for the exact coefficient layer: Q(sqrt 2), Laurent polynomials and
fractions, one QFrac type."""
from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ospq.scalars import Q2
from ospq.qcoeff import (
    C_WEYL,
    DMINUS,
    DPLUS,
    INV_QMQI,
    QFrac,
    Q_MINUS_QINV,
    _den_pow,
    eval_root,
    fock_norm_factor,
    fock_norm_factors,
    q_factorial,
    q_int,
)
from ospq.uqosp import catalog, realize
from ospq.walgebra import DEFAULT_RULES, Rules, normal_order


# ---------------------------------------------------------------- Q(sqrt 2)

def test_q2_basic_identities():
    a = Q2(1, 1)   # 1 + sqrt2
    b = Q2(-1, 1)  # -1 + sqrt2
    assert a * b == Q2(1)          # (sqrt2)^2 - 1 = 1
    assert Q2(0, 1) * Q2(0, 1) == Q2(2)
    assert Q2(3, 2).inverse() == Q2(3, -2)  # 1/(3+2*sqrt2) = 3-2*sqrt2
    assert Q2(3, 2) * Q2(3, -2) == Q2(1)
    assert (a ** 2) == Q2(3, 2)
    assert abs(float(a) - (1 + math.sqrt(2))) < 1e-15


def test_q2_field_random():
    rng = random.Random(7)
    for _ in range(200):
        a = Q2(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        b = Q2(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        c = Q2(rng.randint(-5, 5), rng.randint(-5, 5))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if b:
            assert (a / b) * b == a
        # Galois conjugation is a ring automorphism
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


# ------------------------------------------------------------- q-integers

def test_q_int_small_values():
    assert q_int(0).is_zero()
    assert q_int(1) == QFrac.one()
    assert q_int(2) == QFrac({2: Q2(1), -2: Q2(1)})          # q + q^-1
    assert q_int(3) == QFrac({4: Q2(1), 0: Q2(1), -4: Q2(1)})
    assert q_int(-3) == -q_int(3)


def test_q_int_defining_identity():
    # [m] * (q - q^-1) == q^m - q^-m, exactly
    for m in range(13):
        lhs = q_int(m) * Q_MINUS_QINV
        rhs = QFrac({2 * m: Q2(1)}) - QFrac({-2 * m: Q2(1)})
        assert lhs == rhs


def test_q_int_classical_limit_exact():
    for m in range(10):
        assert q_int(m).eval_one() == Q2(m)


def test_q_int_at_roots_matches_sines():
    # [m] at q = e^{i pi/k} equals sin(m pi/k)/sin(pi/k)
    for k in (2, 3, 5, 7):
        for m in range(2 * k + 1):
            got = eval_root(q_int(m), k)
            want = math.sin(m * math.pi / k) / math.sin(math.pi / k)
            assert abs(got - want) < 1e-12


def test_golden_ratio_values():
    phi = (1 + math.sqrt(5)) / 2
    assert abs(eval_root(q_int(2), 5) - phi) < 1e-12
    assert abs(eval_root(q_int(3), 5) - phi) < 1e-12
    assert abs(eval_root(q_int(2), 3) - 1.0) < 1e-12


# ------------------------------------------------------------ Laurent ring

def _random_laurent(rng: random.Random, size: int = 4) -> QFrac:
    t = {}
    for _ in range(rng.randint(0, size)):
        e = rng.randint(-6, 6)
        t[e] = Q2(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return QFrac(t)


def test_qcoeff_ring_axioms_random():
    rng = random.Random(20240)
    for _ in range(150):
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        c = _random_laurent(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == QFrac.zero()
        assert a * QFrac.one() == a
        # conjugation is an involutive ring automorphism
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_qcoeff_eval_is_ring_hom():
    rng = random.Random(9)
    for _ in range(60):
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        for k in (2, 5):
            assert abs(eval_root(a * b, k) - eval_root(a, k) * eval_root(b, k)) < 1e-10
            assert abs(eval_root(a + b, k) - (eval_root(a, k) + eval_root(b, k))) < 1e-10


# ------------------------------------------------------------- fractions

def test_qfrac_reduction_cancels_denominators():
    x = _random_laurent(random.Random(5), 3) + QFrac.one()
    f = QFrac(x * DPLUS * DMINUS, 1, 1)
    assert f == QFrac(x)
    assert f.dp == 0 and f.dm == 0
    g = QFrac(x * DPLUS ** 2, 3, 1)
    assert g.dp == 1 and g.dm == 1
    assert g.num == x or g.num == x  # reduced numerator no longer divisible
    # q - q^-1 factors across both binomials
    h = QFrac(Q_MINUS_QINV, 1, 1)
    assert h == QFrac.one()


def test_qfrac_field_like_identities():
    rng = random.Random(77)
    for _ in range(80):
        a = QFrac(_random_laurent(rng), rng.randint(0, 2), rng.randint(0, 2))
        b = QFrac(_random_laurent(rng), rng.randint(0, 2), rng.randint(0, 2))
        c = QFrac(_random_laurent(rng), rng.randint(0, 2), rng.randint(0, 2))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a - a == QFrac.zero()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a.conjugate().conjugate() == a
        for k in (3, 5):
            assert abs((a * b).eval_root(k) - a.eval_root(k) * b.eval_root(k)) < 1e-9


def _termwise_product(x: QFrac, y: QFrac) -> list:
    """x * y summed one Q2 product at a time into a dict, a cancelled power
    dropped and re-inserted at the end: the term order eval_root sums in."""
    t: dict = {}
    for e1, c1 in x._t.items():
        for e2, c2 in y._t.items():
            e, p = e1 + e2, c1 * c2
            if e not in t:
                t[e] = p
            elif t[e] + p:
                t[e] = t[e] + p
            else:
                del t[e]
    return list(t.items())


def _long_division(num: QFrac, dp: int, dm: int) -> tuple[list, int, int]:
    """Cancel Dp, then Dm, by Q2 long division while the remainder is zero."""
    for den, left in ((DPLUS, dp), (DMINUS, dm)):
        while left and num:
            lo, hi = min(num._t), max(num._t)
            R = [num.coeff(e) for e in range(lo, hi + 1)]
            D = [den.coeff(e) for e in (-1, 0, 1)]
            Q = [Q2(0)] * max(len(R) - 2, 0)
            for i in range(len(Q) - 1, -1, -1):
                Q[i] = R[i + 2] / D[2]
                for j in range(3):
                    R[i + j] = R[i + j] - Q[i] * D[j]
            if len(R) < 3 or any(R[:2]):
                break
            num = QFrac({i + lo + 1: c for i, c in enumerate(Q) if c})
            left -= 1
        dp, dm = (left, dm) if den is DPLUS else (dp, left)
    return list(num._t.items()), dp, dm


def test_integer_paths_keep_terms_and_order():
    rng = random.Random(77)
    for _ in range(400):
        # unit coefficients on few powers cancel and come back often
        u, v = (QFrac({rng.randint(-3, 3): Q2(rng.choice((1, -1)))
                        for _ in range(rng.randint(1, 5))}) for _ in range(2))
        assert list((u * v)._t.items()) == _termwise_product(u, v)
        x = _random_laurent(rng, 6)
        y = _random_laurent(rng, 6)
        assert list((x * y)._t.items()) == _termwise_product(x, y)
        if not x:
            continue
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        num = x * DPLUS ** a * DMINUS ** b
        dp, dm = rng.randint(0, 4), rng.randint(0, 4)
        f = QFrac(num, dp, dm)
        assert (list(f.num._t.items()), f.dp, f.dm) == _long_division(num, dp, dm)
        assert (f.dp, f.dm) == (max(dp - a, 0), max(dm - b, 0))


def test_s_power_shift_matches_the_product():
    rng = random.Random(515)
    checked = 0
    for _ in range(300):
        x = _random_laurent(rng, 6)
        f = QFrac(x, rng.randint(1, 4), rng.randint(1, 4))
        if not (f.dp and f.dm):
            continue
        e = rng.choice((rng.randrange(-9, 10, 2), rng.randint(-9, -1)))
        got = f.mul_s_pow(e)
        want = f * QFrac.s_pow(e)
        assert got == want
        assert (list(got.num._t.items()), got.dp, got.dm) == \
            (list(want.num._t.items()), want.dp, want.dm)
        checked += 1
    assert checked > 100
    assert QFrac.zero().mul_s_pow(3) == QFrac.zero()


def test_qfrac_addition_rescales_to_common_denominator():
    rng = random.Random(404)
    checked = 0
    while checked < 150:
        a = QFrac(_random_laurent(rng), rng.randint(0, 3), rng.randint(0, 3))
        b = QFrac(_random_laurent(rng), rng.randint(0, 3), rng.randint(0, 3))
        if (a.dp, a.dm) == (b.dp, b.dm):
            continue
        dp, dm = max(a.dp, b.dp), max(a.dm, b.dm)
        num = (a.num * DPLUS ** (dp - a.dp) * DMINUS ** (dm - a.dm)
               + b.num * DPLUS ** (dp - b.dp) * DMINUS ** (dm - b.dm))
        assert a + b == QFrac(num, dp, dm)
        assert b + a == a + b
        checked += 1
    # the cached powers were shared by all those additions; none was mutated
    assert _den_pow(2, 1) == DPLUS ** 2 * DMINUS
    assert _den_pow(3, 0) == DPLUS ** 3
    assert _den_pow(0, 3) == DMINUS ** 3


def test_qfrac_str_groups_a_lone_signed_scalar():
    assert str(QFrac({0: Q2(1, 1)}, 1, 0)) == "((1+√2)/(s+s^-1))"
    assert str(QFrac({0: Q2(0, 1)}, 1, 0)) == "(√2/(s+s^-1))"
    assert str(QFrac({0: Q2(-1, -1)}, 0, 1)) == "((-1-√2)/(s-s^-1))"
    assert str(QFrac({0: Q2(-2)}, 1, 0)) == "(-2/(s+s^-1))"
    # a power already groups its scalar, and without a denominator the
    # scalar stands alone
    assert str(QFrac({2: Q2(1, 1)}, 1, 0)) == "((1+√2)q/(s+s^-1))"
    assert str(QFrac({0: Q2(1, 1)})) == "1+√2"


def test_qfrac_conjugation_signs():
    assert C_WEYL.conjugate() == C_WEYL
    assert INV_QMQI.conjugate() == -INV_QMQI
    assert QFrac(DMINUS).conjugate() == -QFrac(DMINUS)
    assert QFrac(DPLUS).conjugate() == QFrac(DPLUS)


def test_qfrac_eval_one():
    assert QFrac(2, 1, 0).eval_one() == Q2(1)  # c -> 1 at s=1
    assert QFrac.zero().eval_one() == Q2(0)
    try:
        INV_QMQI.eval_one()
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected a pole at s=1")


def test_qfrac_eval_root_refuses_the_pole_at_q_minus_one():
    # k = 1 gives s = i, where s + s^-1 = 0: c = 2/(s+s^-1) has a pole
    with pytest.raises(ValueError, match=r"s \+ s\^-1"):
        C_WEYL.eval_root(1)
    with pytest.raises(ValueError, match=r"s \+ s\^-1"):
        C_WEYL.eval_scalar(1j)
    # a Laurent polynomial still evaluates there: [3] = q^2 + 1 + q^-2 = 3
    assert abs(q_int(3).eval_root(1) - 3) < 1e-12
    assert abs(DMINUS.eval_root(1) - 2j) < 1e-12


# ----------------------------------------------------------- norm factors

def test_fock_norm_factor_small():
    assert fock_norm_factor(0) == QFrac.one()
    assert fock_norm_factor(1) == C_WEYL
    f2 = fock_norm_factor(2)
    assert f2.dp == 2 and f2.dm == 0
    assert f2.num == QFrac({2: Q2(4), -2: Q2(4)})
    assert fock_norm_factor(3) == C_WEYL ** 3 * QFrac(q_factorial(3))


def test_fock_norm_factors_match_per_level():
    levels = fock_norm_factors(12)
    assert len(levels) == 12
    for m, f in enumerate(levels):
        ref = fock_norm_factor(m)
        assert f == ref
        # same terms in the same order, so root evaluation is bit-identical
        assert list(f.num._t) == list(ref.num._t)
        assert f.eval_root(7) == ref.eval_root(7)


def test_fock_norm_factor_at_roots():
    # beta(m) = prod_{t=1}^m sin(t pi/k) / (cos(pi/2k) sin(pi/k)), real
    for k in (2, 3, 5, 7):
        for m in range(k + 1):
            got = eval_root(fock_norm_factor(m), k)
            want = 1.0
            for t in range(1, m + 1):
                want *= math.sin(t * math.pi / k) / (
                    math.cos(math.pi / (2 * k)) * math.sin(math.pi / k))
            assert abs(got.imag) < 1e-12
            assert abs(got.real - want) < 1e-12
        # positive strictly below the truncation level, zero exactly at it
        vals = [eval_root(fock_norm_factor(m), k).real for m in range(k + 1)]
        assert all(v > 1e-12 for v in vals[:k])
        assert abs(vals[k]) < 1e-12


def test_norm_factor_generic_phase_goes_negative():
    # at q = e^{1.1 i} the first non-positive squared norm is at m = 3
    s = np.exp(1j * 0.55)
    vals = [fock_norm_factor(m).eval_scalar(s).real for m in range(6)]
    assert vals[1] > 0 and vals[2] > 0
    assert vals[3] <= 0


def test_norm_factor_real_q_all_positive():
    s = math.sqrt(1.1)
    for m in range(20):
        v = fock_norm_factor(m).eval_scalar(s)
        assert abs(complex(v).imag) < 1e-12
        assert complex(v).real > 0


def test_equal_fractions_keep_their_stored_term_order():
    # q^-3 + q^-2 - q^-1 - 1 with its terms stored in two orders: equal
    # fractions, whose values at the root differ in the last bit
    terms = {-6: Q2(1), -4: Q2(1), -2: Q2(-1), 0: Q2(-1)}
    a = QFrac(terms)
    b = QFrac({e: terms[e] for e in (-2, -6, 0, -4)})
    assert a == b and hash(a) == hash(b)
    assert list(a._t.items()) != list(b._t.items())
    assert a.eval_root(2) != b.eval_root(2)
    assert list(QFrac(dict(terms))._t.items()) == list(a._t.items())


def test_constant_fractions_hash_like_the_equal_scalar():
    for c in (2, -7, Fraction(3, 5), Q2(0, 1), Q2(Fraction(1, 3), -2), 0):
        x = QFrac(c)
        assert x == c and hash(x) == hash(c), c
        assert c in {x} and x in {c}, c
    assert hash(QFrac.zero()) == hash(0) and 0 in {QFrac.zero()}
    # equal fractions stored in two term orders still hash alike
    terms = {-2: Q2(1), 0: Q2(2), 2: Q2(1)}
    a, b = QFrac(terms), QFrac({e: terms[e] for e in (2, -2, 0)})
    assert list(a._t.items()) != list(b._t.items()) and hash(a) == hash(b)
    # a fraction with a denominator is not a constant
    assert QFrac(2, 0, 1) != 2


# ------------------------------------------------------------ golden digest

# sha256 of one line per coefficient of the realized catalog (n = 1..3) and of
# long normal forms, under the default and the corrupted rules: it pins each
# term's value, its place in the numerator's order (which fixes the float sum
# in eval_root to the last bit) and the printed form
_COEFFICIENT_DIGEST = "c547da6f13ebbb85637f94f3ee644ff0ee3bb2c3f9c9111d1ed7e7b915faac72"


def _coefficient_lines(rules):
    elements = [realize(side, n, rules)
                for n in (1, 2, 3) for inst in catalog(n) for side in (inst.lhs, inst.rhs)]
    words = ([(" ".join(["a1-"] * m + ["a1+"] * m), 1) for m in range(1, 7)]
             + [(" ".join(["a1- a2-"] * m + ["a1+ a2+"] * m), 2) for m in range(1, 4)])
    elements += [normal_order(w, n, rules=rules, contract=contract)
                 for w, n in words for contract in (False, True)]
    for el in elements:
        for mono, c in el.terms():
            yield f"{mono}|{c}|{c.eval_root(5)!r}|{c.eval_root(7)!r}\n"


def test_coefficient_layer_golden_digest():
    lines = [line for rules in (DEFAULT_RULES, Rules.corrupted())
             for line in _coefficient_lines(rules)]
    assert len(lines) == 1415
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == _COEFFICIENT_DIGEST
