"""The deformed Weyl algebra W_q(n) with exact normal ordering.

W_q(n) is generated by a_i^+, a_i^-, kappa_i^{±1} (i = 1..n, kappa_i is the
group-like q^{N_i}) subject to

    kappa_i kappa_i^-1 = 1,
    kappa_i a_j^±  = q^{±delta_ij} a_j^± kappa_i,
    a_i^- a_i^+ - q^{±1} a_i^+ a_i^-  = (2/(q^(1/2)+q^(-1/2))) kappa_i^{∓1},
    a_i^xi a_j^eta = q^{xi*eta} a_j^eta a_i^xi   (i < j, signs xi,eta = ±1).

Both sign choices of the third line are imposed; their difference is the
*contraction* identity

    a_i^+ a_i^- = c (kappa_i - kappa_i^-1)/(q - q^-1),   c = 2/(s + s^-1),

so the canonical basis consists of monomials

    (a_1^+)^{p_1}..(a_n^+)^{p_n} kappa_1^{z_1}..kappa_n^{z_n}
        (a_n^-)^{d_n}..(a_1^-)^{d_1}         with min(p_i, d_i) = 0.

Two reduction routes are implemented and cross-checked:

- a literal word-rewriting engine (`normal_order` with contract=False uses
  only the local exchange rules above, oriented left-to-right; with
  contract=True a deterministic contraction pass follows).  Its
  leftmost/rightmost strategies back the confluence property tests, and a
  test checks its termination measure on every rule.  It merges identical
  intermediate words and reduces each distinct word once, so its cost grows
  polynomially with the number of a^- a^+ crossings: (a_1^-)^10 (a_1^+)^10
  takes a few hundredths of a second per strategy.
- a closed-form append calculus (`mul`) that multiplies canonical monomials
  directly; all structure constants were derived from the same relations.

The defining Fock action lives here too: `fock_letter` applies one letter to
an unnormalized state |m>, exactly.  fockrep's weight checks read it at the
root of unity.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Iterable, NamedTuple, Sequence, Union

from .qcoeff import (
    C_WEYL,
    INV_QMQI,
    QFrac,
    join_signed,
    q_int,
)
from .scalars import Q2

# A letter is a tuple (kind, mode, exp): kind is one of AP/KA/AM below; mode
# is 0-based internally; exp is ±1 for kappa letters and 0 otherwise.
Letter = tuple[int, int, int]

AP, KA, AM = 0, 1, 2  # raising, kappa, lowering

_KIND_TXT = {AP: "a{}+", KA: "k{}", AM: "a{}-"}


def letter_str(letter: Letter) -> str:
    kind, mode, e = letter
    txt = _KIND_TXT[kind].format(mode + 1)
    if kind == KA and e == -1:
        txt += "^-1"
    return txt


def _rank(letter: Letter) -> tuple[int, int]:
    """Position of a letter in the canonical word order.

    Plus letters ascend by mode, kappas sit in the middle, minus letters
    descend by mode; inversions against this order strictly drop under
    every rewrite (with word length as the tiebreaker), which is the
    termination measure.
    """
    kind, mode, _ = letter
    if kind == AM:
        return (2, -mode)
    return (kind, mode)


def _inversions(word: Sequence[Letter]) -> int:
    count = 0
    ranks = [_rank(x) for x in word]
    for a in range(len(ranks)):
        for b in range(a + 1, len(ranks)):
            if ranks[a] > ranks[b]:
                count += 1
    return count


# ----------------------------------------------------------------- rules


@dataclass(frozen=True)
class Rules:
    """The structure constant of the rewrite system.

    `s1_kappa` is the constant c of a_i^- a_i^+ - q^{±1} a_i^+ a_i^- =
    c kappa_i^{∓1}, the one rule constant of W_q(n).  The default is its
    W_q(n) value 2/(s+s^-1); `corrupted()` perturbs it, as a negative-control
    hook used by the verifier (every oscillator relation must then fail).
    """

    s1_kappa: QFrac = C_WEYL

    @classmethod
    def corrupted(cls) -> "Rules":
        return cls(s1_kappa=C_WEYL + QFrac.one())


DEFAULT_RULES = Rules()

# C_WEYL/(q-q^-1), the scale of the contraction identity; a perturbed rule
# constant (`Rules.corrupted`) leaves it at its W_q(n) value
_CONTRACT_SCALE = C_WEYL * INV_QMQI
_NEG_CONTRACT_SCALE = -_CONTRACT_SCALE

# a rewrite branch: (s-exponent delta, replacement word).  The contraction
# a_i^- a_i^+ -> c kappa_i^-1 is the only branch that drops an a^+ letter; its
# factor c is priced per collected monomial, not per step.
_Branch = tuple[int, tuple[Letter, ...]]


def _rule(x: Letter, y: Letter) -> list[_Branch] | None:
    """Rewrite for the adjacent pair x y, or None if it is in order."""
    kx, ix, ex = x
    ky, iy, ey = y
    if kx == AM and ky == AP:
        if ix == iy:
            # a- a+ -> q a+ a- + c kappa^-1
            return [(2, (y, x)), (0, ((KA, ix, -1),))]
        if ix < iy:
            return [(-2, (y, x))]
        return [(2, (y, x))]
    if kx == AP and ky == AP and ix > iy:
        return [(-2, (y, x))]
    if kx == AM and ky == AM and ix < iy:
        return [(2, (y, x))]
    if kx == KA and ky == AP:
        return [(2 * ex if ix == iy else 0, (y, x))]
    if kx == AM and ky == KA:
        return [(2 * ey if ix == iy else 0, (y, x))]
    if kx == KA and ky == KA:
        if ix == iy and ex != ey:
            return [(0, ())]
        if ix > iy:
            return [(0, (y, x))]
    return None


# ------------------------------------------------------------- monomials


class WeylMonomial(NamedTuple):
    """Normal-ordered monomial (plus powers, kappa exponents, minus powers)."""

    plus: tuple[int, ...]
    kappa: tuple[int, ...]
    minus: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.plus)

    @classmethod
    def identity(cls, n: int) -> "WeylMonomial":
        z = (0,) * n
        return cls(z, z, z)

    def is_canonical(self) -> bool:
        return all(p == 0 or d == 0 for p, d in zip(self.plus, self.minus))

    def word(self) -> tuple[Letter, ...]:
        out: list[Letter] = []
        for i, p in enumerate(self.plus):
            out.extend([(AP, i, 0)] * p)
        for i, z in enumerate(self.kappa):
            if z:
                out.extend([(KA, i, 1 if z > 0 else -1)] * abs(z))
        for i in range(self.n - 1, -1, -1):
            out.extend([(AM, i, 0)] * self.minus[i])
        return tuple(out)

    def dagger(self) -> "WeylMonomial":
        # reversing the word and starring each letter lands directly on the
        # canonical order, so no exchange factors appear
        return WeylMonomial(self.minus, tuple(-z for z in self.kappa), self.plus)

    def __str__(self) -> str:
        parts: list[str] = []
        for i, p in enumerate(self.plus):
            parts.extend([f"a{i + 1}+"] * p)
        for i, z in enumerate(self.kappa):
            if z == 1:
                parts.append(f"k{i + 1}")
            elif z:
                parts.append(f"k{i + 1}^{z}")
        for i in range(self.n - 1, -1, -1):
            parts.extend([f"a{i + 1}-"] * self.minus[i])
        return " ".join(parts) if parts else "1"


def _tweak(t: tuple[int, ...], i: int, delta: int) -> tuple[int, ...]:
    return t[:i] + (t[i] + delta,) + t[i + 1:]


# an appended letter's term: s^a times a constant factor (None for 1), landing
# on a monomial
_Term = tuple[int, QFrac | None, WeylMonomial]


@lru_cache(maxsize=None)
def _dissolve_factors(dj: int, rules: Rules) -> tuple[QFrac, QFrac]:
    """(q^d S, c [d] - q^d S) with d = dj: the constants of (a_j^-)^d a_j^+."""
    up = QFrac.s_pow(2 * dj) * _CONTRACT_SCALE
    return up, rules.s1_kappa * q_int(dj) - up


def _append_kappa(m: WeylMonomial, j: int, e: int) -> list[_Term]:
    # kappa_j^e passes the whole minus block: q^{e*d_j}
    return [(2 * e * m.minus[j], None, WeylMonomial(m.plus, _tweak(m.kappa, j, e), m.minus))]


def _append_plus(m: WeylMonomial, j: int, rules: Rules) -> list[_Term]:
    dj = m.minus[j]
    if dj == 0:
        s_exp = 2 * (sum(m.minus[j + 1:]) - sum(m.minus[:j])
                     + m.kappa[j] - sum(m.plus[j + 1:]))
        return [(s_exp, None, WeylMonomial(_tweak(m.plus, j, 1), m.kappa, m.minus))]
    # the appended a_j^+ dissolves against (a_j^-)^{d_j}:
    #   (a-)^d a+ = q^d * S * (kappa - ...) (a-)^{d-1} + c [d] kappa^-1 (a-)^{d-1}
    # with S = _CONTRACT_SCALE, after crossing the lower-mode minus letters
    s_exp = -2 * sum(m.minus[:j])
    up, down = _dissolve_factors(dj, rules)
    out = [(s_exp, up, WeylMonomial(m.plus, _tweak(m.kappa, j, 1), _tweak(m.minus, j, -1)))]
    if not down.is_zero():
        out.append((s_exp, down,
                    WeylMonomial(m.plus, _tweak(m.kappa, j, -1), _tweak(m.minus, j, -1))))
    return out


def _append_minus(m: WeylMonomial, j: int) -> list[_Term]:
    if m.minus[j] > 0 or m.plus[j] == 0:
        # joins its own group after crossing the lower-mode minus letters
        return [(2 * sum(m.minus[:j]), None,
                 WeylMonomial(m.plus, m.kappa, _tweak(m.minus, j, 1)))]
    # crosses everything and contracts against the last a_j^+
    s_exp = 2 * (sum(m.minus[:j]) - sum(m.minus[j + 1:])
                 - m.kappa[j] + sum(m.plus[j + 1:]))
    p2 = _tweak(m.plus, j, -1)
    return [(s_exp, _CONTRACT_SCALE, WeylMonomial(p2, _tweak(m.kappa, j, 1), m.minus)),
            (s_exp, _NEG_CONTRACT_SCALE, WeylMonomial(p2, _tweak(m.kappa, j, -1), m.minus))]


def _append_letter(m: WeylMonomial, letter: Letter, rules: Rules) -> list[_Term]:
    kind, j, e = letter
    if kind == KA:
        return _append_kappa(m, j, e)
    if kind == AP:
        return _append_plus(m, j, rules)
    return _append_minus(m, j)


def _append_word(cur: dict[WeylMonomial, QFrac], word: Iterable[Letter],
                 rules: Rules) -> dict[WeylMonomial, QFrac]:
    """Multiply a combination of canonical monomials by a word on the right.

    Each term is multiplied by s^a by moving exponents (s is a unit) and by
    its constant factor, if any, as one QFrac product.  Products associate,
    and shifting keeps the order of the terms, so the result is the one a
    QFrac product with the whole factor s^a * constant gives, term for term.
    """
    for letter in word:
        nxt: dict[WeylMonomial, QFrac] = {}
        for m, c in cur.items():
            for s_exp, k, m2 in _append_letter(m, letter, rules):
                c2 = c.mul_s_pow(s_exp)
                if k is not None:
                    c2 = c2 * k
                acc = nxt.get(m2)
                s = c2 if acc is None else acc + c2
                if s.is_zero():
                    nxt.pop(m2, None)
                else:
                    nxt[m2] = s
        cur = nxt
    return cur


def _add_into(acc: dict, key: object, c: QFrac) -> None:
    """acc[key] += c, dropping the key when the sum is exactly zero."""
    old = acc.get(key)
    s = c if old is None else old + c
    if s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s


# -------------------------------------------------------------- elements


class WeylElement:
    """A finite QFrac-linear combination of Weyl monomials, zeros dropped."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict | None = None) -> None:
        self.n = n
        self._terms: dict[WeylMonomial, QFrac] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self._terms[m] = c

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "WeylElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "WeylElement":
        return cls(n, {WeylMonomial.identity(n): QFrac.one()})

    @classmethod
    def from_monomial(cls, m: WeylMonomial, coeff: QFrac | int = 1) -> "WeylElement":
        cc = QFrac._coerce(coeff)
        if cc is None:
            raise TypeError(f"bad coefficient type {type(coeff).__name__}")
        return cls(m.n, {m: cc})

    @classmethod
    def from_word(cls, n: int, word: Iterable[Letter],
                  rules: Rules = DEFAULT_RULES) -> "WeylElement":
        """Canonical element of a product of letters (append calculus)."""
        return cls(n, _append_word({WeylMonomial.identity(n): QFrac.one()}, word, rules))

    # -- container ------------------------------------------------------

    def terms(self) -> list[tuple[WeylMonomial, QFrac]]:
        return sorted(self._terms.items(), key=lambda t: t[0])

    def coeff(self, m: WeylMonomial) -> QFrac:
        return self._terms.get(m, QFrac.zero())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- linear structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeylElement):
            return self.n == other.n and self._terms == other._terms
        return NotImplemented

    def _check(self, other: "WeylElement") -> None:
        if self.n != other.n:
            raise ValueError(f"mode count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: object) -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check(other)
        t = dict(self._terms)
        for m, c in other._terms.items():
            _add_into(t, m, c)
        return WeylElement(self.n, t)

    def __sub__(self, other: object) -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "WeylElement":
        return WeylElement(self.n, {m: -c for m, c in self._terms.items()})

    def scale(self, c: QFrac | int) -> "WeylElement":
        cc = QFrac._coerce(c)
        if cc is None:
            raise TypeError(f"cannot scale by {type(c).__name__}")
        return WeylElement(self.n, {m: v * cc for m, v in self._terms.items()})

    def __rmul__(self, other: object) -> "WeylElement":
        cc = QFrac._coerce(other)
        if cc is None:
            return NotImplemented
        return self.scale(cc)

    def __mul__(self, other: object) -> "WeylElement":
        if isinstance(other, WeylElement):
            return mul(self, other)
        cc = QFrac._coerce(other)
        if cc is None:
            return NotImplemented
        return self.scale(cc)

    # -- involution ---------------------------------------------------------

    def dagger(self) -> "WeylElement":
        """Anti-involution with (a^-)^dagger = a^+, kappa^dagger = kappa^-1,
        and the bar involution on coefficients."""
        return WeylElement(
            self.n, {m.dagger(): c.conjugate() for m, c in self._terms.items()})

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        """Ordered form: coefficient then monomial, terms joined by +/- in
        descending monomial order: "q a1+ a1- + (2/(s+s^-1)) k1^-1"."""
        pieces: list[str] = []
        for m, c in sorted(self._terms.items(), reverse=True):
            mtxt = str(m)
            ctxt = str(c)
            if mtxt == "1":
                pieces.append(ctxt)
            elif ctxt == "1":
                pieces.append(mtxt)
            elif ctxt == "-1":
                pieces.append(f"-{mtxt}")
            else:
                pieces.append(f"{ctxt} {mtxt}")
        return join_signed(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"WeylElement({self})"


# ------------------------------------------------------------ generators


def a_plus(n: int, i: int) -> WeylElement:
    """The raising generator a_i^+ (1-based mode index)."""
    _check_mode(n, i)
    m = WeylMonomial.identity(n)
    return WeylElement.from_monomial(m._replace(plus=_tweak(m.plus, i - 1, 1)))


def a_minus(n: int, i: int) -> WeylElement:
    """The lowering generator a_i^- (1-based mode index)."""
    _check_mode(n, i)
    m = WeylMonomial.identity(n)
    return WeylElement.from_monomial(m._replace(minus=_tweak(m.minus, i - 1, 1)))


def kappa_el(n: int, i: int, e: int = 1) -> WeylElement:
    """kappa_i^e (1-based mode index)."""
    _check_mode(n, i)
    m = WeylMonomial.identity(n)
    return WeylElement.from_monomial(m._replace(kappa=_tweak(m.kappa, i - 1, e)))


def _check_mode(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"mode index {i} out of range 1..{n}")


def mul(x: WeylElement, y: WeylElement, rules: Rules = DEFAULT_RULES) -> WeylElement:
    """Canonical product, via the closed-form append calculus."""
    x._check(y)
    out: dict[WeylMonomial, QFrac] = {}
    for my, cy in y._terms.items():
        wy = my.word()
        for mx, cx in x._terms.items():
            for m, c in _append_word({mx: cx * cy}, wy, rules).items():
                _add_into(out, m, c)
    return WeylElement(x.n, out)


def commutator(x: WeylElement, y: WeylElement, s_exp: int = 0,
               sign: int = -1, rules: Rules = DEFAULT_RULES) -> WeylElement:
    """[x, y]_{s^e} = x y + sign * s^e * y x (sign=-1 commutator-like,
    sign=+1 anticommutator-like)."""
    xy = mul(x, y, rules)
    yx = mul(y, x, rules)
    w = WeylElement(x.n, {m: c.mul_s_pow(s_exp) for m, c in yx._terms.items()}) if s_exp else yx
    return xy + w if sign > 0 else xy - w


# --------------------------------------------------------------- engine


# a pending coefficient: {s exponent: number of rewrite paths}, i.e. the sum
# of count * s^a, still to be multiplied by c^t for the word's t contractions
_Counts = dict[int, int]


def _redex(w: tuple[Letter, ...], hint: int,
           left: bool) -> tuple[int, list[_Branch]] | None:
    """The leftmost (rightmost) redex of `w`, scanning from `hint` on.

    A hint is a bound on the redex position: no redex lies before it
    (leftmost) or after it (rightmost).
    """
    last = len(w) - 2
    if left:
        t = hint if hint > 0 else 0
        while t <= last:
            br = _rule(w[t], w[t + 1])
            if br is not None:
                return t, br
            t += 1
    else:
        t = hint if hint < last else last
        while t >= 0:
            br = _rule(w[t], w[t + 1])
            if br is not None:
                return t, br
            t -= 1
    return None


def _shifted(counts: _Counts, ds: int, into: _Counts) -> None:
    for se, k in counts.items():
        into[se + ds] = into.get(se + ds, 0) + k


def _reduce_word(word: tuple[Letter, ...], n: int, strategy: str,
                 rules: Rules) -> dict[WeylMonomial, QFrac]:
    """Rewrite `word` to pre-normal form with the local exchange rules only.

    Identical intermediate words are merged, so each distinct word is reduced
    once however many rewrite paths reach it.  Pending words wait in a heap
    keyed by (-length, -inversions): an exchange removes exactly one
    inversion and every other rewrite shortens the word, so a word is popped
    only after all of its sources.  Runs of single-branch rewrites are
    followed in place; only branch points enter the heap, together with
    their redex, which every path into the word finds at the same place.
    Inversions are counted once per queued word, when it is first pushed;
    the start word is alone in the heap and popped first, so it needs none.

    Every rewrite path is priced s^a c^t with c = `rules.s1_kappa`: the
    contraction a_i^- a_i^+ -> c kappa_i^-1 is the only rule that drops an
    a^+ letter, so t, the number of contractions, is fixed for a monomial by
    its drop in a^+ count.  A pending coefficient is therefore a count of
    paths per s exponent, priced once per collected monomial, whatever the
    rule set.  The cost is polynomial in the number of a- a+ crossings where
    following every path separately was exponential.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError("strategy must be 'leftmost' or 'rightmost'")
    left = strategy == "leftmost"
    # word -> (pending coefficient, its redex)
    pending: dict[tuple[Letter, ...], tuple[_Counts, tuple | None]] = {
        word: ({0: 1}, _redex(word, 0 if left else len(word) - 2, left))}
    heap = [(-len(word), 0, 0, word)]
    pushed = 1
    collected: dict[WeylMonomial, _Counts] = {}
    while heap:
        w = heappop(heap)[3]
        counts, hit = pending.pop(w)
        if hit is None:
            _shifted(counts, 0, collected.setdefault(_collect_prenormal(w, n), {}))
            continue
        for branch in hit[1]:
            cur, t = w, hit[0]
            ds = 0
            while True:
                b_ds, repl = branch
                w2 = cur[:t] + repl + cur[t + 2:]
                ds += b_ds
                # locality: only the boundary pairs around the rewrite site
                # can become new redexes, so the scan resumes there
                nxt = _redex(w2, t - 1 if left else t + len(repl) - 1, left)
                if nxt is None:
                    _shifted(counts, ds, collected.setdefault(_collect_prenormal(w2, n), {}))
                    break
                if len(nxt[1]) == 1:
                    cur, (t, (branch,)) = w2, nxt
                    continue
                # a branch point: merge into the pending word
                entry = pending.get(w2)
                if entry is None:
                    entry = pending[w2] = ({}, nxt)
                    heappush(heap, (-len(w2), -_inversions(w2), pushed, w2))
                    pushed += 1
                _shifted(counts, ds, entry[0])
                break
    n_plus = sum(1 for kind, _, _ in word if kind == AP)
    out: dict[WeylMonomial, QFrac] = {}
    for m, counts in collected.items():
        c = QFrac({se: Q2(k) for se, k in counts.items()})
        t = n_plus - sum(m.plus)
        if t:
            c = c * _contraction_power(rules, t)
        if not c.is_zero():
            out[m] = c
    return out


@lru_cache(maxsize=None)
def _contraction_power(rules: Rules, t: int) -> QFrac:
    """c^t with c = `rules.s1_kappa`, the price of t contractions."""
    return rules.s1_kappa ** t


def _collect_prenormal(word: tuple[Letter, ...], n: int) -> WeylMonomial:
    plus = [0] * n
    kappa = [0] * n
    minus = [0] * n
    for kind, i, e in word:
        if kind == AP:
            plus[i] += 1
        elif kind == KA:
            kappa[i] += e
        else:
            minus[i] += 1
    return WeylMonomial(tuple(plus), tuple(kappa), tuple(minus))


WordLike = Union[str, Sequence[Letter], WeylElement]


def normal_order(word: WordLike, n: int | None = None, *, contract: bool,
                 strategy: str = "leftmost", rules: Rules = DEFAULT_RULES) -> WeylElement:
    """Normal-order a word (or re-normalize an element).

    With contract=False the result is the pre-normal form produced by the
    local exchange rules alone (a_i^+ a_i^- left untouched); contract=True
    applies the contraction identity afterwards, landing in the canonical
    min(p_i, d_i) = 0 basis used by `mul`.  Callers choose: `ospq
    normal-order` leaves the pairs unless given --contract.
    """
    # (scale, word) pairs; a bare word has no scale to multiply in
    items: list[tuple[QFrac | None, tuple[Letter, ...]]]
    if isinstance(word, WeylElement):
        items = [(c, m.word()) for m, c in word._terms.items()]
        n = word.n
    else:
        if isinstance(word, str):
            letters, n_seen = parse_word(word, n)
        else:
            letters = list(word)
            n_seen = 0
            for kind, mode, e in letters:
                if (kind not in (AP, KA, AM) or mode < 0
                        or (e not in (1, -1) if kind == KA else e != 0)):
                    raise ValueError(f"not a letter: {(kind, mode, e)!r}")
                n_seen = max(n_seen, mode + 1)
            if n is not None and n_seen > n:
                raise ValueError(f"letter mode exceeds n={n}")
        n = max(n_seen, 1) if n is None else n
        items = [(None, tuple(letters))]
    acc: dict[WeylMonomial, QFrac] = {}
    for c0, w in items:
        pre = _reduce_word(w, n, strategy, rules)
        for m, c in pre.items():
            if c0 is not None:
                c = c * c0
            # pre-normal monomials may straddle the contraction identity;
            # replaying their word through the append calculus contracts them
            if contract and not m.is_canonical():
                for m2, c2 in WeylElement.from_word(n, m.word(), rules)._terms.items():
                    _add_into(acc, m2, c2 * c)
            else:
                _add_into(acc, m, c)
    return WeylElement(n, acc)


# ---------------------------------------------------------------- parser


class WordParseError(ValueError):
    """Raised for malformed generator words; carries the token position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at character {position})")
        self.position = position


class WordBudgetError(ValueError):
    """Raised for a word of more letters than the parser's budget allows."""

    def __init__(self, letters: int, budget: int) -> None:
        super().__init__(f"word has {letters} letters; at most {budget} allowed")
        self.letters = letters


_TOKEN_RE = re.compile(r"a(\d+)([+-])|k(\d+)(?:\^([+-]?\d+))?")


def parse_word(text: str, n: int | None = None,
               budget: int | None = None) -> tuple[list[Letter], int]:
    """Parse a generator word like "a1+ a2- k1^-1 k2" into letters.

    Tokens are separated by whitespace or '*'; k_i^e stands for |e| letters.
    Returns (letters, n) with n the given mode count or the largest mode
    mentioned.  Raises WordParseError (with character position) on malformed
    tokens or out-of-range modes, and WordBudgetError when the word has more
    than `budget` letters, before any power is expanded.
    """
    runs: list[tuple[Letter, int]] = []  # (letter, repeat count)
    max_mode = 0
    pos = 0
    for raw in re.split(r"([\s*]+)", text):
        if not raw or not raw.strip(" \t\r\n*"):
            pos += len(raw)
            continue
        tok = raw
        m = _TOKEN_RE.fullmatch(tok)
        if m is None:
            raise WordParseError(f"unrecognized token {tok!r}", pos)
        if m.group(1) is not None:
            mode = int(m.group(1))
            kind = AP if m.group(2) == "+" else AM
            exp = 1
        else:
            mode = int(m.group(3))
            kind = KA
            exp = int(m.group(4)) if m.group(4) is not None else 1
        if mode < 1:
            raise WordParseError(f"mode index must be >= 1 in {tok!r}", pos)
        if n is not None and mode > n:
            raise WordParseError(
                f"mode index {mode} exceeds n={n} in {tok!r}", pos)
        max_mode = max(max_mode, mode)
        if kind == KA:
            sgn = 1 if exp > 0 else -1
            runs.append(((KA, mode - 1, sgn), abs(exp)))
        else:
            runs.append(((kind, mode - 1, 0), 1))
        pos += len(raw)
    size = sum(count for _, count in runs)
    if budget is not None and size > budget:
        raise WordBudgetError(size, budget)
    letters = [letter for letter, count in runs for _ in range(count)]
    return letters, (n if n is not None else max(max_mode, 1))


# ------------------------------------------------------------ Fock space


def fock_letter(letter: Letter,
                m: tuple[int, ...]) -> tuple[QFrac, tuple[int, ...]] | None:
    """One letter on the unnormalized Fock state |m>, the defining action.

    a_j^+ raises m_j with factor q^{-(m_1+..+m_{j-1})}, a_j^- lowers it with
    factor q^{+(m_1+..+m_{j-1})} c [m_j], and kappa_j^e scales by q^{e m_j}.
    Returns (coefficient, image), or None where a_j^- meets m_j = 0.  The
    states pair as <m|m> = prod_i fock_norm_factor(m_i), under which
    (a_j^-)^dagger = a_j^+.
    """
    kind, j, e = letter
    if kind == KA:
        return QFrac.s_pow(2 * e * m[j]), m
    prefix = sum(m[:j])
    if kind == AP:
        return QFrac.s_pow(-2 * prefix), _tweak(m, j, 1)
    if m[j] == 0:
        return None
    return (C_WEYL * q_int(m[j])).mul_s_pow(2 * prefix), _tweak(m, j, -1)
