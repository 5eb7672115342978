"""Tests for W_q(n): rewriting engine, append calculus, Fock action."""
from __future__ import annotations

import random
import time

import pytest

from ospq.qcoeff import C_WEYL, INV_QMQI, QFrac, fock_norm_factor, q_int
from ospq.walgebra import (
    AM,
    AP,
    KA,
    DEFAULT_RULES,
    Rules,
    WeylElement,
    WeylMonomial,
    WordBudgetError,
    WordParseError,
    a_minus,
    a_plus,
    commutator,
    fock_letter,
    kappa_el,
    mul,
    normal_order,
    parse_word,
    _inversions,
    _reduce_word,
    _rule,
)
from ospq import walgebra


def _sq(e: int) -> QFrac:
    return QFrac.s_pow(e)


def _rand_word(rng: random.Random, n: int, max_len: int = 10) -> list:
    out = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice([AP, AM, KA, AP, AM])
        mode = rng.randrange(n)
        out.append((kind, mode, rng.choice([1, -1]) if kind == KA else 0))
    return out


def _rand_element(rng: random.Random, n: int, max_len: int = 5) -> WeylElement:
    return normal_order(_rand_word(rng, n, max_len), n=n, contract=True)


# ------------------------------------------------------------ single steps

def test_prenormal_matches_local_rules():
    e = normal_order("a1- a1+", contract=False)
    m_swap = WeylMonomial((1,), (0,), (1,))
    m_k = WeylMonomial((0,), (-1,), (0,))
    assert e.coeff(m_swap) == _sq(2)          # q a1+ a1-
    assert e.coeff(m_k) == C_WEYL             # + c k1^-1
    assert len(e) == 2


def test_exchange_and_kappa_steps():
    assert normal_order("a2+ a1+", n=2, contract=True) == \
        _sq(-2) * normal_order("a1+ a2+", n=2, contract=True)
    assert normal_order("a2- a1+", n=2, contract=True) == \
        _sq(2) * normal_order("a1+ a2-", n=2, contract=True)
    assert normal_order("a2- a1-", n=2, contract=True) == \
        _sq(-2) * normal_order("a1- a2-", n=2, contract=True)
    assert normal_order("k1 a1+", contract=True) == _sq(2) * normal_order("a1+ k1", contract=True)
    assert normal_order("k1 a2+", n=2, contract=True) == normal_order("a2+ k1", n=2, contract=True)
    assert normal_order("a1- k1", contract=True) == _sq(2) * normal_order("k1 a1-", contract=True)
    assert normal_order("k1 k1^-1", contract=True) == WeylElement.one(1)
    assert normal_order("k2 k1", n=2, contract=True) == normal_order("k1 k2", n=2, contract=True)


def test_canonical_form_of_minus_plus():
    # a1- a1+ = c (q k1 - q^-1 k1^-1)/(q - q^-1)
    e = normal_order("a1- a1+", contract=True)
    scale = C_WEYL * INV_QMQI
    up = WeylMonomial((0,), (1,), (0,))
    dn = WeylMonomial((0,), (-1,), (0,))
    assert e.coeff(up) == scale * _sq(2)
    assert e.coeff(dn) == -(scale * _sq(-2))
    assert len(e) == 2
    # and every canonical monomial avoids simultaneous a_i^+ a_i^- powers
    assert all(m.is_canonical() for m, _ in e.terms())


def test_contraction_identity():
    # a1+ a1- = c (k1 - k1^-1)/(q - q^-1)
    e = mul(a_plus(1, 1), a_minus(1, 1))
    scale = C_WEYL * INV_QMQI
    assert e.coeff(WeylMonomial((0,), (1,), (0,))) == scale
    assert e.coeff(WeylMonomial((0,), (-1,), (0,))) == -scale
    assert len(e) == 2


def test_defining_relations_hold_in_canonical_algebra():
    for n in (1, 2, 3):
        for i in range(1, n + 1):
            ap, am, k = a_plus(n, i), a_minus(n, i), kappa_el(n, i)
            kinv = kappa_el(n, i, -1)
            assert mul(k, kinv) == WeylElement.one(n)
            # kappa a± kappa^-1 = q^{±1} a±
            assert mul(mul(k, ap), kinv) == _sq(2) * ap
            assert mul(mul(k, am), kinv) == _sq(-2) * am
            # both sign variants of the mixed relation
            assert mul(am, ap) - _sq(2) * mul(ap, am) == C_WEYL * kinv
            assert mul(am, ap) - _sq(-2) * mul(ap, am) == C_WEYL * k
            for j in range(i + 1, n + 1):
                bp, bm = a_plus(n, j), a_minus(n, j)
                assert mul(ap, bp) == _sq(2) * mul(bp, ap)
                assert mul(ap, bm) == _sq(-2) * mul(bm, ap)
                assert mul(am, bp) == _sq(-2) * mul(bp, am)
                assert mul(am, bm) == _sq(2) * mul(bm, am)
                # kappas of different modes commute with everything else
                assert mul(kappa_el(n, i), bp) == mul(bp, kappa_el(n, i))


def test_engine_agrees_with_append_calculus():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 3)
        w = _rand_word(rng, n)
        assert normal_order(w, n=n, contract=True) == WeylElement.from_word(n, w)


def test_confluence_of_strategies():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 3)
        w = _rand_word(rng, n)
        left = normal_order(w, n=n, strategy="leftmost", contract=False)
        right = normal_order(w, n=n, strategy="rightmost", contract=False)
        assert left == right
        assert normal_order(w, n=n, strategy="leftmost", contract=True) == \
            normal_order(w, n=n, strategy="rightmost", contract=True)


def _dfs_reduce(word, n, strategy, rules):
    """Reference reducer: follows every rewrite path on its own, with no
    merging of words, and prices each path with QFrac products."""
    out: dict[WeylMonomial, QFrac] = {}
    stack = [(QFrac.one(), tuple(word))]
    while stack:
        c, w = stack.pop()
        sites = range(len(w) - 1)
        if strategy == "rightmost":
            sites = reversed(sites)
        hit = next(((t, br) for t in sites
                     if (br := _rule(w[t], w[t + 1])) is not None), None)
        if hit is None:
            counts = [[0] * n, [0] * n, [0] * n]
            for kind, i, e in w:
                counts[kind][i] += e if kind == KA else 1
            m = WeylMonomial(*(tuple(x) for x in counts))
            out[m] = out[m] + c if m in out else c
            continue
        t, branches = hit
        for ds, repl in branches:
            c2 = c * _sq(ds)
            # the contraction a- a+ -> kappa^-1 carries the rule constant
            if len(repl) == 1:
                c2 = c2 * rules.s1_kappa
            stack.append((c2, w[:t] + repl + w[t + 2:]))
    return {m: c for m, c in out.items() if not c.is_zero()}


def test_merging_engine_matches_path_enumeration():
    rng = random.Random(515)
    words = [(n, _rand_word(rng, n)) for n in (1, 2, 3) for _ in range(170)]
    words += [(1, [(AM, 0, 0)] * m + [(AP, 0, 0)] * m) for m in range(1, 5)]
    words += [(2, [(AM, 0, 0), (AM, 1, 0), (AP, 1, 0), (AP, 0, 0)] * 2)]
    for rules in (DEFAULT_RULES, DEFAULT_RULES.corrupted()):
        for n, w in words:
            for strategy in ("leftmost", "rightmost"):
                got = _reduce_word(tuple(w), n, strategy, rules)
                assert got == _dfs_reduce(w, n, strategy, rules), (w, strategy)


def _ref_letter(m: WeylMonomial, letter, rules) -> list:
    """The terms of m * letter, each factor priced as one whole QFrac built
    from QFrac products, with no exponent shifting and no cached constant."""
    kind, j, e = letter
    scale = C_WEYL * INV_QMQI
    tweak = lambda t, d: t[:j] + (t[j] + d,) + t[j + 1:]  # noqa: E731
    below = sum(m.minus[:j])
    above = sum(m.minus[j + 1:])
    if kind == KA:
        return [(_sq(2 * e * m.minus[j]), m._replace(kappa=tweak(m.kappa, e)))]
    if kind == AP:
        dj = m.minus[j]
        if dj == 0:
            ds = 2 * (above - below + m.kappa[j] - sum(m.plus[j + 1:]))
            return [(_sq(ds), m._replace(plus=tweak(m.plus, 1)))]
        pre, qd = _sq(-2 * below), _sq(2 * dj)
        up = pre * qd * scale
        down = pre * (rules.s1_kappa * QFrac(q_int(dj)) - qd * scale)
        minus = tweak(m.minus, -1)
        return [(c, WeylMonomial(m.plus, tweak(m.kappa, z), minus))
                for c, z in ((up, 1), (down, -1)) if not c.is_zero()]
    if m.minus[j] > 0 or m.plus[j] == 0:
        return [(_sq(2 * below), m._replace(minus=tweak(m.minus, 1)))]
    coeff = _sq(2 * (below - above - m.kappa[j] + sum(m.plus[j + 1:]))) * scale
    plus = tweak(m.plus, -1)
    return [(coeff, WeylMonomial(plus, tweak(m.kappa, 1), m.minus)),
            (-coeff, WeylMonomial(plus, tweak(m.kappa, -1), m.minus))]


def _ref_from_word(n: int, word, rules) -> dict:
    """Reference append calculus: every letter factor is multiplied in as a
    full QFrac product."""
    cur = {WeylMonomial.identity(n): QFrac.one()}
    for letter in word:
        nxt: dict = {}
        for m, c in cur.items():
            for c2, m2 in _ref_letter(m, letter, rules):
                s = c * c2 if m2 not in nxt else nxt[m2] + c * c2
                if s.is_zero():
                    nxt.pop(m2, None)
                else:
                    nxt[m2] = s
        cur = nxt
    return cur


def _layout(terms: dict) -> list:
    """Monomials in dict order, each with its numerator's terms in dict
    order and its denominator exponents: what float sums see."""
    return [(m, list(c.num._t.items()), c.dp, c.dm) for m, c in terms.items()]


def test_append_shifts_match_full_products():
    rng = random.Random(3131)
    words = [(n, _rand_word(rng, n)) for n in (1, 2, 3) for _ in range(180)]
    words += [(2, [(AM, 0, 0), (AM, 1, 0)] * 2 + [(AP, 1, 0), (AP, 0, 0)] * 2)]
    for rules in (DEFAULT_RULES, DEFAULT_RULES.corrupted()):
        for n, w in words:
            got = WeylElement.from_word(n, w, rules)
            ref = _ref_from_word(n, w, rules)
            assert got == WeylElement(n, ref), w
            assert _layout(got._terms) == _layout(ref), w


def test_dissolve_factors_follow_the_rule_set():
    # a1+ appended onto (a1-)^2 reads the rule constant c through c [2]
    word, _ = parse_word("a1- a1- a1+")
    bad = DEFAULT_RULES.corrupted()
    first = WeylElement.from_word(1, word)
    middle = WeylElement.from_word(1, word, bad)
    third = WeylElement.from_word(1, word)
    assert first == third
    assert middle != first
    assert middle == WeylElement(1, _ref_from_word(1, word, bad))


def test_long_crossing_words_are_fast():
    t0 = time.perf_counter()
    cases = [(1, "a1- " * 10 + "a1+ " * 10),
             (3, "a1- a2- a3- " * 3 + "a1+ a2+ a3+ " * 3)]
    for n, text in cases:
        letters, _ = parse_word(text, n)
        left = normal_order(letters, n=n, strategy="leftmost", contract=False)
        right = normal_order(letters, n=n, strategy="rightmost", contract=False)
        assert left == right
        contracted = normal_order(letters, n=n, contract=True)
        assert contracted == WeylElement.from_word(n, letters)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"long crossing words took {elapsed:.1f}s"


def test_termination_measure_strictly_drops():
    """Every rewrite either strategy can take, at any position, lowers
    (inversions, length) lexicographically; an exchange keeps the length and
    removes exactly one inversion, which the engine's heap key relies on."""
    rng = random.Random(4)
    todo = []
    for _ in range(60):
        n = rng.randint(1, 3)
        todo.append(tuple(_rand_word(rng, n, 8)))
    seen: set = set()
    edges = 0
    while todo:
        w = todo.pop()
        if w in seen:
            continue
        seen.add(w)
        before = (_inversions(w), len(w))
        for t in range(len(w) - 1):
            for _, repl in _rule(w[t], w[t + 1]) or ():
                w2 = w[:t] + repl + w[t + 2:]
                after = (_inversions(w2), len(w2))
                assert after < before, (w, t, w2)
                if len(repl) == 2:
                    assert after == (before[0] - 1, before[1]), (w, t, w2)
                todo.append(w2)
                edges += 1
    assert (len(seen), edges) == (2042, 4614)


def test_inversions_counted_once_per_queued_word(monkeypatch):
    word = [(AM, 0, 0)] * 6 + [(AP, 0, 0)] * 6
    counted: list = []

    def spy(w):
        counted.append(tuple(w))
        return _inversions(w)

    monkeypatch.setattr(walgebra, "_inversions", spy)
    for strategy in ("leftmost", "rightmost"):
        counted.clear()
        normal_order(word, n=1, strategy=strategy, contract=False)
        assert counted, strategy  # the a1- a1+ branch points were queued
        assert tuple(word) not in counted, strategy
        assert len(set(counted)) == len(counted), strategy


def test_associativity_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        x = _rand_element(rng, n)
        y = _rand_element(rng, n)
        z = _rand_element(rng, n)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_distributivity_and_scaling():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 2)
        x, y, z = (_rand_element(rng, n) for _ in range(3))
        assert mul(x, y + z) == mul(x, y) + mul(x, z)
        assert mul(x + y, z) == mul(x, z) + mul(y, z)
        c = QFrac.s_pow(rng.randint(-3, 3), rng.randint(1, 4))
        assert mul(c * x, y) == c * mul(x, y)


def test_normal_order_idempotent_on_canonical():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 3)
        x = _rand_element(rng, n)
        assert normal_order(x, contract=True) == x


# ----------------------------------------------------------------- dagger

def test_dagger_properties():
    rng = random.Random(17)
    assert a_plus(2, 1).dagger() == a_minus(2, 1)
    assert kappa_el(2, 2).dagger() == kappa_el(2, 2, -1)
    for _ in range(40):
        n = rng.randint(1, 3)
        x = _rand_element(rng, n)
        y = _rand_element(rng, n)
        assert x.dagger().dagger() == x
        assert mul(x, y).dagger() == mul(y.dagger(), x.dagger())
        assert (x + y).dagger() == x.dagger() + y.dagger()


# ---------------------------------------------------------------- corrupt

def test_corrupted_rules_change_the_algebra():
    bad = Rules.corrupted()
    good = normal_order("a1- a1+", contract=False)
    broken = normal_order("a1- a1+", contract=False, rules=bad)
    m_k = WeylMonomial((0,), (-1,), (0,))
    assert broken.coeff(m_k) == C_WEYL + QFrac.one()
    assert broken != good
    # the canonical route uses the same perturbed constant
    assert normal_order("a1- a1+", rules=bad, contract=True) != \
        normal_order("a1- a1+", contract=True)


# -------------------------------------------------------------- Fock space

# a Fock vector is {occupation tuple: QFrac}, zeros dropped

def _act(x: WeylElement, v: dict) -> dict:
    """x on v, each monomial's word applied letter by letter, right to left."""
    out: dict = {}
    for mono, c in x.terms():
        for m, cv in v.items():
            coeff, state = c * cv, m
            for letter in reversed(mono.word()):
                hit = fock_letter(letter, state)
                if hit is None:
                    break
                coeff, state = coeff * hit[0], hit[1]
            else:
                out[state] = out.get(state, QFrac.zero()) + coeff
    return {m: c for m, c in out.items() if not c.is_zero()}


def _pair(u: dict, v: dict) -> QFrac:
    """<u|v> with <m|m> = prod_i fock_norm_factor(m_i), antilinear on the left."""
    out = QFrac.zero()
    for m, cu in u.items():
        if m in v:
            w = cu.conjugate() * v[m]
            for mi in m:
                w = w * fock_norm_factor(mi)
            out = out + w
    return out


def test_fock_ladder_oracle():
    vac = {(0,): QFrac.one()}
    two = _act(normal_order("a1+ a1+", contract=True), vac)
    assert two == {(2,): QFrac.one()}
    assert fock_letter((AM, 0, 0), (2,)) == (C_WEYL * QFrac(q_int(2)), (1,))
    # <0| a1- a1+ |0> = c
    assert _pair(vac, _act(normal_order("a1- a1+", contract=True), vac)) == C_WEYL
    # a2+ and a2- see the mode-1 prefix as q^-1 and q^+1
    assert fock_letter((AP, 1, 0), (1, 0)) == (_sq(-2), (1, 1))
    assert fock_letter((AM, 1, 0), (1, 1)) == (_sq(2) * C_WEYL, (1, 0))
    assert fock_letter((KA, 0, -1), (3,)) == (_sq(-6), (3,))


def test_fock_action_respects_products():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 2)
        x = _rand_element(rng, n, 4)
        y = _rand_element(rng, n, 4)
        m = tuple(rng.randint(0, 2) for _ in range(n))
        v = {m: QFrac.one()}
        assert _act(mul(x, y), v) == _act(x, _act(y, v))


def test_fock_adjointness():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 2)
        u: dict = {}
        v: dict = {}
        for _ in range(3):
            mu = tuple(rng.randint(0, 3) for _ in range(n))
            mv = tuple(rng.randint(0, 3) for _ in range(n))
            cu = QFrac.s_pow(rng.randint(-2, 2), rng.randint(1, 3))
            cv = QFrac.s_pow(rng.randint(-2, 2), rng.randint(1, 3))
            u[mu] = u.get(mu, QFrac.zero()) + cu
            v[mv] = v.get(mv, QFrac.zero()) + cv
        x = _rand_element(rng, n, 3)
        assert _pair(_act(x, u), v) == _pair(u, _act(x.dagger(), v))


def test_fock_truncation_at_root_level():
    # the action is not truncated; at q = exp(i pi/k) level k is null instead:
    # a1- brings |k> back with c [k], which vanishes there, as does its norm
    for k in (2, 3, 4, 7):
        coeff, state = fock_letter((AM, 0, 0), (k,))
        assert state == (k - 1,)
        assert abs(coeff.eval_root(k)) < 1e-12
        assert abs(fock_norm_factor(k).eval_root(k)) < 1e-12
        assert abs(coeff.eval_root(k + 1)) > 0.1
    assert fock_letter((AM, 0, 0), (0,)) is None
    assert fock_letter((AM, 1, 0), (2, 0)) is None


# ----------------------------------------------------------------- parser

def test_parse_round_trip():
    letters, n = parse_word("a1+ a2- k1^-1 k2")
    assert n == 2
    assert letters == [(AP, 0, 0), (AM, 1, 0), (KA, 0, -1), (KA, 1, 1)]
    letters2, _ = parse_word("a1+ * a2-  *k1^-1 k2")
    assert letters2 == letters
    assert parse_word("k2^3", n=2)[0] == [(KA, 1, 1)] * 3
    assert parse_word("k1^-2")[0] == [(KA, 0, -1)] * 2
    assert parse_word("", n=1) == ([], 1)
    assert parse_word("k1^18", budget=18)[0] == [(KA, 0, 1)] * 18
    with pytest.raises(WordBudgetError) as ei:
        parse_word("a1+ k1^-1000000000000000", budget=18)
    assert ei.value.letters == 10**15 + 1


def test_parse_errors_carry_positions():
    with pytest.raises(WordParseError) as ei:
        parse_word("a1+ b2-")
    assert ei.value.position == 4
    with pytest.raises(WordParseError):
        parse_word("a1")
    with pytest.raises(WordParseError):
        parse_word("k0")
    with pytest.raises(WordParseError):
        parse_word("a3+", n=2)
    with pytest.raises(ValueError):
        normal_order([(AP, 5, 0)], n=2, contract=True)
    # a bad kind, a negative mode, a kappa exponent other than ±1 and a
    # ladder exponent other than 0 are refused, not misread
    for letters, n in (([(7, 0, 0)], 1), ([(AP, -1, 0)], 2),
                       ([(KA, 0, 2), (KA, 0, -1)], 1), ([(AM, 0, 1)], 1)):
        for contract in (False, True):
            with pytest.raises(ValueError):
                normal_order(letters, n=n, contract=contract)


def test_str_formats():
    e = normal_order("a1- a1+", contract=False)
    txt = str(e)
    assert "k1^-1" in txt and "a1+ a1-" in txt
    assert str(WeylElement.one(2)) == "1"
    assert str(WeylElement.zero(1)) == "0"


# -------------------------------------------------------------- commutator

def test_commutator_helper():
    x = a_minus(1, 1)
    y = a_plus(1, 1)
    # [a-, a+]_{q} with our sign convention: a- a+ - q a+ a- = c k^-1
    assert commutator(x, y, s_exp=2) == C_WEYL * kappa_el(1, 1, -1)
    assert commutator(x, y, s_exp=-2) == C_WEYL * kappa_el(1, 1)
    # anticommutator flavor
    z = commutator(x, y, sign=+1)
    assert z == mul(x, y) + mul(y, x)
