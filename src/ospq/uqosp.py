"""The deformed enveloping superalgebra U_q[osp(1|2n)] realized inside W_q(n).

This module builds symbolic expressions over the generators of the deformed
algebra -- Chevalley triples (e_i, f_i, k_i = q^{h_i}), pre-oscillator
operators (A_i^+-, L_i^+-1) and the gl(n) root vectors e_ij -- and maps them
through the homomorphism

    phi(A_i^+-) = a_i^+-,        phi(L_i) = q^{-1/2} kappa_i^{-1},

into the deformed Weyl algebra, where every expression has a unique normal
form.  All defining and derived relations are verified there: a relation
holds exactly when the normal form of (lhs - rhs) is the zero element.
phi is written once: leaf_word gives the image of every leaf but e_i, f_i,
which build_chevalley_from_pre writes over A and L.

The expression layer is a small immutable AST (GenExpr) on the U_q side of
phi only, with leaves for the generators e, f, k, A, L and nodes for
products, weighted sums and the bracket [u, v]_x = uv + sign x vu, x a
power of s = q^{1/2}: QBracket (sign -1) and AntiComm (sign +1, x = 1).

The relation catalog covers:

* CK       -- Cartan-Kac relations of the Chevalley presentation,
* SERRE_E / SERRE_F -- Serre relations, including the quartic relation for
               the short root with coefficient (1 - q - q^{-1}),
* PRE1..5  -- the minimal pre-oscillator relations (the deformed analogue of
               the trilinear paraboson relation),
* T1..T4   -- the complete list of triple relations between deformed
               paraboson operators,
* G1..G3   -- the Cartan-Weyl relations of the U_q[gl(n)] subalgebra.

The helper signs tau (+-1 for strictly monotone index words, else 0) and
theta (1 for strictly decreasing, else 0) are evaluated during catalog
expansion, so every instance is a concrete pair of expressions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .ospclassic import (
    SIGN_STR,
    anticommutator_table,
    cartan_h_upper,
    cartan_matrix,
    generator_keys,
    parabose_set,
    pbose_residual,
)
from .qcoeff import INV_QMQI, Q_MINUS_QINV, QFrac
from .report import CheckResult, residual_row
from .scalars import Q2
from .walgebra import (
    AM,
    AP,
    DEFAULT_RULES,
    KA,
    Letter,
    Rules,
    WeylElement,
    WeylMonomial,
    check_mode,
    commutator,
    mul,
)


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


class GenExpr:
    """Base class for immutable generator expressions."""

    __slots__ = ()

    def _hash_once(self) -> int:
        """The dataclass hash of the fields, computed on first use and kept
        in the instance __dict__: a node is frozen, and the memos that
        realize a catalog hash it on every lookup.  Until "_hash" joins
        them, a frozen dataclass's __dict__ holds exactly its fields, in
        order.  Each non-leaf node class binds this as its __hash__."""
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = hash(tuple(d.values()))
        return h


@dataclass(frozen=True)
class Gen(GenExpr):
    """A single generator leaf of U_q[osp(1|2n)].

    kind is one of "e", "f", "k" (Chevalley) or "A", "L" (pre-oscillator);
    exp is the sign (+-1) for the ladder kind "A" and the integer exponent
    for the invertible kinds "k"/"L".
    """

    kind: str
    index: int
    exp: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("e", "f", "k", "A", "L"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("e", "f") and self.exp != 1:
            raise ValueError("simple generators carry no exponent")
        if self.kind == "A" and self.exp not in (+1, -1):
            raise ValueError("ladder generators need sign +1 or -1")


@dataclass(frozen=True)
class Product(GenExpr):
    factors: tuple[GenExpr, ...]

    __hash__ = GenExpr._hash_once


@dataclass(frozen=True)
class Sum(GenExpr):
    """Weighted sum; weights are exact scalars of the coefficient field."""

    terms: tuple[tuple[QFrac, GenExpr], ...]

    __hash__ = GenExpr._hash_once


@dataclass(frozen=True)
class QBracket(GenExpr):
    """[u, v]_x = uv - x vu with x = s^{s_exp} (s_exp = 0 is the plain
    commutator, s_exp = +-2 the commutators deformed by q^{+-1}); the class
    constant sign = -1 is not a field, so repr and hash read the fields only."""

    left: GenExpr
    right: GenExpr
    s_exp: int = 0
    sign = -1

    __hash__ = GenExpr._hash_once


@dataclass(frozen=True)
class AntiComm(GenExpr):
    """{u, v} = uv + vu; sign = +1 and s_exp = 0 are class constants."""

    left: GenExpr
    right: GenExpr
    sign = +1
    s_exp = 0

    __hash__ = GenExpr._hash_once


ONE_EXPR = Product(())
ZERO_EXPR = Sum(())

_SQRT2_Q = QFrac(Q2(0, 1))
_INV_SQRT2_Q = QFrac(Q2(0, Fraction(1, 2)))
_HALF_Q = QFrac(Fraction(1, 2))


def scaled(c: QFrac, x: GenExpr) -> GenExpr:
    """c * x as a one-term sum."""
    return Sum(((c, x),))


def prod(*factors: GenExpr) -> GenExpr:
    flat: list[GenExpr] = []
    for fac in factors:
        if isinstance(fac, Product):
            flat.extend(fac.factors)
        else:
            flat.append(fac)
    return Product(tuple(flat))


# ---------------------------------------------------------------------------
# index-word signs
# ---------------------------------------------------------------------------


def tau(*indices: int) -> int:
    """-1 for a strictly decreasing index word, +1 for strictly increasing,
    0 otherwise."""
    if all(a < b for a, b in zip(indices, indices[1:])):
        return 1
    if all(a > b for a, b in zip(indices, indices[1:])):
        return -1
    return 0


def theta(*indices: int) -> int:
    """1 for a strictly decreasing index word, 0 otherwise."""
    return 1 if all(a > b for a, b in zip(indices, indices[1:])) else 0


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_preoscillator(n: int, i: int, sign: int) -> GenExpr:
    """Deformed paraboson A_i^sign as a nested bracket chain over simple
    generators:

        A_i^- = -sqrt(2) [e_i, [e_{i+1}, ... [e_{n-1}, e_n]_{q^-1} ...]_{q^-1}
        A_i^+ =  sqrt(2) [...[f_n, f_{n-1}]_q, ...]_q, f_i]_q

    with every bracket deformed, and A_n^- = -sqrt(2) e_n,
    A_n^+ = sqrt(2) f_n.
    """
    check_mode(n, i)
    if sign == -1:
        expr: GenExpr = Gen("e", n)
        for j in range(n - 1, i - 1, -1):
            expr = QBracket(Gen("e", j), expr, -2)
        return scaled(-_SQRT2_Q, expr)
    if sign == +1:
        expr = Gen("f", n)
        for j in range(n - 1, i - 1, -1):
            expr = QBracket(expr, Gen("f", j), +2)
        return scaled(_SQRT2_Q, expr)
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def build_cartan_L(n: int, i: int, exp: int = 1) -> GenExpr:
    """L_i = k_i k_{i+1} ... k_n (or the reversed product of inverses)."""
    check_mode(n, i)
    if exp == 1:
        return Product(tuple(Gen("k", j) for j in range(i, n + 1)))
    if exp == -1:
        return Product(tuple(Gen("k", j, -1) for j in range(n, i - 1, -1)))
    raise ValueError(f"exponent must be +1 or -1, got {exp!r}")


def build_chevalley_from_pre(n: int, i: int) -> tuple[GenExpr, GenExpr]:
    """(e_i, f_i) written over pre-oscillator leaves:

        e_i = -(q/2) {A_i^-, A_{i+1}^+} L_{i+1}^{-1}
        f_i = -(1/(2q)) L_{i+1} {A_i^+, A_{i+1}^-}       for i < n,
        e_n = -2^{-1/2} A_n^-,   f_n = 2^{-1/2} A_n^+.
    """
    check_mode(n, i)
    if i == n:
        return (
            scaled(-_INV_SQRT2_Q, Gen("A", n, -1)),
            scaled(_INV_SQRT2_Q, Gen("A", n, +1)),
        )
    e_expr = scaled(
        QFrac.s_pow(2, Fraction(-1, 2)),
        prod(AntiComm(Gen("A", i, -1), Gen("A", i + 1, +1)), Gen("L", i + 1, -1)),
    )
    f_expr = scaled(
        QFrac.s_pow(-2, Fraction(-1, 2)),
        prod(Gen("L", i + 1), AntiComm(Gen("A", i, +1), Gen("A", i + 1, -1))),
    )
    return e_expr, f_expr


def build_gl_generator(n: int, i: int, j: int) -> GenExpr:
    """Root vector e_ij of the gl(n) subalgebra (i != j):

        e_ij = -1/2 L_j^{-1} {A_i^-, A_j^+}   for i < j,
        e_ij = -1/2 {A_i^-, A_j^+} L_i        for i > j.
    """
    check_mode(n, i)
    check_mode(n, j)
    if i == j:
        raise ValueError("diagonal directions are carried by the L_i")
    body = AntiComm(Gen("A", i, -1), Gen("A", j, +1))
    if i < j:
        return scaled(-_HALF_Q, prod(Gen("L", j, -1), body))
    return scaled(-_HALF_Q, prod(body, Gen("L", i)))


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


def leaf_word(
    kind: str, index: int, exp: int, n: int
) -> tuple[int, tuple[Letter, ...]]:
    """phi on a leaf A, L or k: (a, word) for s^a times a word of W_q(n)
    letters.  phi(A_i^+-) = a_i^+-, phi(L_i^e) = q^{-e/2} kappa_i^{-e},
    phi(k_i^e) = kappa_i^{-e} kappa_{i+1}^e for i < n, phi(k_n) = phi(L_n).
    realize() and the matrix route of fockrep both read phi here."""
    check_mode(n, index)
    mode = index - 1
    if kind == "A":
        return 0, ((AP if exp == +1 else AM, mode, 0),)
    if kind == "L" or (kind == "k" and index == n):
        return -exp, ((KA, mode, -exp),)
    if kind == "k":
        return 0, ((KA, mode, -exp), (KA, mode + 1, exp))
    raise ValueError(f"generator kind {kind!r} has no letter word")


@lru_cache(maxsize=None)
def _leaf_image(kind: str, index: int, exp: int, n: int, rules: Rules) -> WeylElement:
    if kind in ("e", "f"):
        e_expr, f_expr = build_chevalley_from_pre(n, index)
        return realize(e_expr if kind == "e" else f_expr, n, rules)
    a, word = leaf_word(kind, index, exp, n)
    return WeylElement.from_word(n, word, rules).mul_s_pow(a)


def realize(x: GenExpr, n: int, rules: Rules = DEFAULT_RULES) -> WeylElement:
    """Normal-ordered image of an expression under phi."""
    if isinstance(x, Gen):
        return _leaf_image(x.kind, x.index, x.exp, n, rules)
    return _realize_node(x, n, rules)


# Catalog instances share subexpressions (anticommutators, e_ij, bracket
# chains); the builders hold each anticommutator and e_ij as one object, but
# the memo keys by value, so it also serves equal nodes built apart.  A
# lookup costs one hash of the node and one of the rules, each computed once
# per object and then read back (GenExpr._hash_once, Rules.__hash__); only
# a lookup that finds an equal node built apart compares the trees.  One
# pass over a catalog visits each distinct non-leaf node two to three times
# (n = 5: 7,118 visits, 2,691 distinct nodes), and this memo serves that
# pass; it cannot hold a catalog, so relation_patterns keeps the realized
# sides for later passes.  The bound keeps the memo small: 256 entries
# measured as fast as unbounded, which grows to megabytes over the catalogs
# for n = 1..5.
# Cached elements are shared between callers and never mutated.
@lru_cache(maxsize=256)
def _realize_node(x: GenExpr, n: int, rules: Rules) -> WeylElement:
    if isinstance(x, Product):
        if not x.factors:
            return WeylElement.one(n)
        acc = realize(x.factors[0], n, rules)
        for fac in x.factors[1:]:
            acc = mul(acc, realize(fac, n, rules), rules)
        return acc
    if isinstance(x, Sum):
        acc = WeylElement.zero(n)
        for coeff, term in x.terms:
            acc = acc + realize(term, n, rules).scale(coeff)
        return acc
    if isinstance(x, (QBracket, AntiComm)):
        return commutator(
            realize(x.left, n, rules), realize(x.right, n, rules), x.s_exp, x.sign, rules
        )
    raise TypeError(f"not a generator expression: {type(x).__name__}")


# ---------------------------------------------------------------------------
# relation catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RelationInstance:
    """One concrete relation: lhs = rhs after realization."""

    id: str
    family: str
    lhs: GenExpr
    rhs: GenExpr


def _ck_instances(n: int) -> list[RelationInstance]:
    out: list[RelationInstance] = []
    alpha = cartan_matrix(n)
    for i in range(1, n + 1):
        out.append(
            RelationInstance(
                f"CK.kk[n={n},i={i}]", "CK",
                prod(Gen("k", i), Gen("k", i, -1)), ONE_EXPR,
            )
        )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(
                RelationInstance(
                    f"CK.kcomm[n={n},i={i},j={j}]", "CK",
                    prod(Gen("k", i), Gen("k", j)), prod(Gen("k", j), Gen("k", i)),
                )
            )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a_ij = alpha[i - 1][j - 1]
            out.append(
                RelationInstance(
                    f"CK.ke[n={n},i={i},j={j}]", "CK",
                    prod(Gen("k", i), Gen("e", j)),
                    scaled(QFrac.s_pow(2 * a_ij), prod(Gen("e", j), Gen("k", i))),
                )
            )
            out.append(
                RelationInstance(
                    f"CK.kf[n={n},i={i},j={j}]", "CK",
                    prod(Gen("k", i), Gen("f", j)),
                    scaled(QFrac.s_pow(-2 * a_ij), prod(Gen("f", j), Gen("k", i))),
                )
            )
            if i == j == n:
                lhs: GenExpr = AntiComm(Gen("e", n), Gen("f", n))
            else:
                lhs = QBracket(Gen("e", i), Gen("f", j), 0)
            if i == j:
                rhs: GenExpr = Sum(
                    ((INV_QMQI, Gen("k", i, 1)), (-INV_QMQI, Gen("k", i, -1)))
                )
            else:
                rhs = ZERO_EXPR
            out.append(RelationInstance(f"CK.ef[n={n},i={i},j={j}]", "CK", lhs, rhs))
    return out


def _serre_instances(n: int) -> list[RelationInstance]:
    """Both Serre families: every SERRE_E instance, then every SERRE_F one."""
    out: list[RelationInstance] = []
    one = QFrac(1)
    q_plus_qinv = QFrac({2: Q2(1), -2: Q2(1)})
    c4 = QFrac({0: Q2(1), 2: Q2(-1), -2: Q2(-1)})  # 1 - q - q^-1
    for family, kind in (("SERRE_E", "e"), ("SERRE_F", "f")):
        g = {i: Gen(kind, i) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1):
                out.append(
                    RelationInstance(
                        f"{family}.far[n={n},i={i},j={j}]", family,
                        QBracket(g[i], g[j], 0), ZERO_EXPR,
                    )
                )
        for i, j in [(i, i + 1) for i in range(1, n)] + [(i, i - 1) for i in range(2, n)]:
            lhs = Sum(
                (
                    (one, prod(g[i], g[i], g[j])),
                    (-q_plus_qinv, prod(g[i], g[j], g[i])),
                    (one, prod(g[j], g[i], g[i])),
                )
            )
            out.append(
                RelationInstance(
                    f"{family}.quad[n={n},i={i},j={j}]", family, lhs, ZERO_EXPR,
                )
            )
        if n >= 2:
            x, y = g[n], g[n - 1]
            lhs = Sum(
                (
                    (one, prod(x, x, x, y)),
                    (c4, prod(x, x, y, x)),
                    (c4, prod(x, y, x, x)),
                    (one, prod(y, x, x, x)),
                )
            )
            out.append(
                RelationInstance(f"{family}.quartic[n={n}]", family, lhs, ZERO_EXPR)
            )
    return out


def _ladder_tables(n: int) -> tuple[dict, dict]:
    """(A, anti): A[(i, xi)] is the leaf A_i^xi and anti[(a, b)] is {A[a],
    A[b]} for every ordered pair of keys.  The PRE and T builders read each
    ladder leaf and anticommutator here, as the classical sweeps read
    anticommutator_table, so a catalog holds one object per anticommutator."""
    A = {key: Gen("A", *key) for key in generator_keys(n)}
    return A, {(a, b): AntiComm(A[a], A[b]) for a in A for b in A}


def _pre_instances(n: int) -> list[RelationInstance]:
    out: list[RelationInstance] = []
    A, anti = _ladder_tables(n)
    for i in range(1, n + 1):
        out.append(
            RelationInstance(
                f"PRE1.inv[n={n},i={i}]", "PRE1",
                prod(Gen("L", i), Gen("L", i, -1)), ONE_EXPR,
            )
        )
        for j in range(i + 1, n + 1):
            out.append(
                RelationInstance(
                    f"PRE1.comm[n={n},i={i},j={j}]", "PRE1",
                    prod(Gen("L", i), Gen("L", j)), prod(Gen("L", j), Gen("L", i)),
                )
            )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for s in (+1, -1):
                # L_i A_j^+- = q^{-+delta_ij} A_j^+- L_i
                out.append(
                    RelationInstance(
                        f"PRE2[n={n},i={i},j={j},sign={SIGN_STR[s]}]", "PRE2",
                        prod(Gen("L", i), A[j, s]),
                        scaled(
                            QFrac.s_pow(-2 * s * (1 if i == j else 0)),
                            prod(A[j, s], Gen("L", i)),
                        ),
                    )
                )
    for i in range(1, n + 1):
        out.append(
            RelationInstance(
                f"PRE3[n={n},i={i}]", "PRE3",
                anti[(i, -1), (i, +1)],
                Sum(
                    (
                        (-2 * INV_QMQI, Gen("L", i, 1)),
                        (2 * INV_QMQI, Gen("L", i, -1)),
                    )
                ),
            )
        )
    for sigma in (+1, -1):
        for i in range(1, n + 1):
            if not 1 <= i + sigma <= n:
                continue
            for xi in (+1, -1):
                for j in range(1, n + 1):
                    lhs = QBracket(
                        anti[(i, -xi), (i + sigma, xi)],
                        A[j, -xi],
                        2 * sigma * (1 if i == j else 0),
                    )
                    if j == i + sigma:
                        rhs: GenExpr = scaled(
                            QFrac(-2 * xi), prod(Gen("L", j, sigma * xi), A[i, -xi])
                        )
                    else:
                        rhs = ZERO_EXPR
                    out.append(
                        RelationInstance(
                            f"PRE4[n={n},i={i},sigma={sigma:+d},"
                            f"xi={SIGN_STR[xi]},j={j}]",
                            "PRE4", lhs, rhs,
                        )
                    )
    if n >= 2:
        for xi in (+1, -1):
            out.append(
                RelationInstance(
                    f"PRE5[n={n},xi={SIGN_STR[xi]}]", "PRE5",
                    QBracket(anti[(n - 1, xi), (n, xi)], A[n, xi], 2),
                    ZERO_EXPR,
                )
            )
    return out


def _t_instances(n: int) -> list[RelationInstance]:
    out: list[RelationInstance] = []
    A, anti = _ladder_tables(n)
    modes = range(1, n + 1)
    for xi in (+1, -1):
        # T1: [{A_i^-xi, A_j^xi}, A_k^xi]_{q^{tau_ji delta_jk}}, i != j
        for i in modes:
            for j in modes:
                if i == j:
                    continue
                for k in modes:
                    lhs = QBracket(
                        anti[(i, -xi), (j, xi)],
                        A[k, xi],
                        2 * tau(j, i) * (1 if j == k else 0),
                    )
                    terms: list[tuple[QFrac, GenExpr]] = []
                    if i == k:
                        terms.append(
                            (
                                QFrac(2 * xi),
                                prod(A[j, xi], Gen("L", k, xi * tau(i, j))),
                            )
                        )
                    t = tau(i, k, j)
                    if t:
                        terms.append(
                            (-t * Q_MINUS_QINV, prod(anti[(i, -xi), (k, xi)], A[j, xi]))
                        )
                    out.append(
                        RelationInstance(
                            f"T1[n={n},i={i},j={j},k={k},xi={SIGN_STR[xi]}]",
                            "T1", lhs, Sum(tuple(terms)),
                        )
                    )
        # T2: [{A_i^xi, A_j^xi}, A_k^-xi], i != j
        for i in modes:
            for j in modes:
                if i == j:
                    continue
                for k in modes:
                    lhs = QBracket(anti[(i, xi), (j, xi)], A[k, -xi], 0)
                    terms = []
                    t = tau(k, i, j)
                    if t:
                        terms.append(
                            (t * Q_MINUS_QINV, prod(anti[(i, xi), (k, -xi)], A[j, xi]))
                        )
                    t = tau(k, j, i)
                    if t:
                        terms.append(
                            (t * Q_MINUS_QINV, prod(anti[(j, xi), (k, -xi)], A[i, xi]))
                        )
                    if i == k:
                        terms.append(
                            (
                                QFrac(-2 * xi),
                                prod(A[j, xi], Gen("L", i, xi * tau(i, j))),
                            )
                        )
                    if j == k:
                        terms.append(
                            (
                                QFrac(-2 * xi),
                                prod(A[i, xi], Gen("L", j, xi * tau(j, i))),
                            )
                        )
                    out.append(
                        RelationInstance(
                            f"T2[n={n},i={i},j={j},k={k},xi={SIGN_STR[xi]}]",
                            "T2", lhs, Sum(tuple(terms)),
                        )
                    )
    # T3: [{A_i^xi, A_i^eta}, A_k^-eta]
    for i in modes:
        for k in modes:
            for xi in (+1, -1):
                for eta in (+1, -1):
                    lhs = QBracket(anti[(i, xi), (i, eta)], A[k, -eta], 0)
                    terms = []
                    if xi == eta and tau(k, i):
                        coeff = QFrac(
                            {2 * tau(k, i): Q2(2), 0: Q2(-2)}
                        )  # 2 (q^{tau_ki} - 1)
                        terms.append((coeff, prod(anti[(i, xi), (k, -xi)], A[i, xi])))
                    if i == k:
                        base = -2 * xi * eta * (2 if xi == eta else 1)
                        w_minus = (
                            base
                            * INV_QMQI
                            * QFrac({2 * xi: Q2(1), 0: Q2(-1)})
                        )  # (q^xi - 1)
                        w_plus = (
                            base
                            * INV_QMQI
                            * QFrac({0: Q2(1), -2 * xi: Q2(-1)})
                        )  # (1 - q^-xi)
                        terms.append((w_minus, prod(A[i, xi], Gen("L", i, -1))))
                        terms.append((w_plus, prod(A[i, xi], Gen("L", i, 1))))
                    out.append(
                        RelationInstance(
                            f"T3[n={n},i={i},k={k},xi={SIGN_STR[xi]},"
                            f"eta={SIGN_STR[eta]}]",
                            "T3", lhs, Sum(tuple(terms)),
                        )
                    )
    # T4: [{A_i^xi, A_j^xi}, A_k^xi]_{q^{tau_ik + tau_jk}} = 0
    for i in modes:
        for j in modes:
            for k in modes:
                for xi in (+1, -1):
                    lhs = QBracket(
                        anti[(i, xi), (j, xi)], A[k, xi], 2 * (tau(i, k) + tau(j, k))
                    )
                    out.append(
                        RelationInstance(
                            f"T4[n={n},i={i},j={j},k={k},xi={SIGN_STR[xi]}]",
                            "T4", lhs, ZERO_EXPR,
                        )
                    )
    return out


def _g_instances(n: int) -> list[RelationInstance]:
    out: list[RelationInstance] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for xi in (+1, -1):
                for eta in (+1, -1):
                    out.append(
                        RelationInstance(
                            f"G1.LL[n={n},i={i},j={j},xi={SIGN_STR[xi]},"
                            f"eta={SIGN_STR[eta]}]", "G1",
                            prod(Gen("L", i, xi), Gen("L", j, eta)),
                            prod(Gen("L", j, eta), Gen("L", i, xi)),
                        )
                    )
    # every root vector e_ij, built once; the keys run over i, then j
    e = {
        (i, j): build_gl_generator(n, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    }
    for i in range(1, n + 1):
        for j, k in e:
            out.append(
                RelationInstance(
                    f"G1.Le[n={n},i={i},j={j},k={k}]", "G1",
                    prod(Gen("L", i), e[j, k]),
                    scaled(
                        QFrac.s_pow(2 * ((i == j) - (i == k))), prod(e[j, k], Gen("L", i))
                    ),
                )
            )
    pos = [(i, j) for i, j in e if i < j]
    neg = [(i, j) for i, j in e if i > j]
    for i, j in pos:
        for k, l in neg:
            terms: list[tuple[QFrac, GenExpr]] = []
            # first group, right-multiplied by L_k L_i^{-1}
            tail1 = (Gen("L", k), Gen("L", i, -1))
            if theta(j, k, i, l):
                terms.append((Q_MINUS_QINV, prod(e[k, j], e[i, l], *tail1)))
            if i == l and theta(j, k):
                terms.append((QFrac(-1), prod(e[k, j], *tail1)))
            if j == k and theta(i, l):
                terms.append((QFrac(1), prod(e[i, l], *tail1)))
            # second group, left-multiplied by L_l L_j^{-1}
            head2 = (Gen("L", l), Gen("L", j, -1))
            if theta(k, j, l, i):
                terms.append((-Q_MINUS_QINV, prod(*head2, e[i, l], e[k, j])))
            if i == l and theta(k, j):
                terms.append((QFrac(-1), prod(*head2, e[k, j])))
            if j == k and theta(l, i):
                terms.append((QFrac(1), prod(*head2, e[i, l])))
            if i == l and j == k:
                terms.append((INV_QMQI, prod(Gen("L", i), Gen("L", j, -1))))
                terms.append((-INV_QMQI, prod(Gen("L", i, -1), Gen("L", j))))
            out.append(
                RelationInstance(
                    f"G2[n={n},i={i},j={j},k={k},l={l}]", "G2",
                    QBracket(e[i, j], e[k, l], 0), Sum(tuple(terms)),
                )
            )
    # G3: same-sign root vectors, ordered pairs
    for roots, xi in ((pos, +1), (neg, -1)):
        for a in range(len(roots)):
            for b in range(len(roots)):
                (i, j), (k, l) = roots[a], roots[b]
                if xi == +1 and not (i < k or (i == k and j < l)):
                    continue
                if xi == -1 and not (i > k or (i == k and j > l)):
                    continue
                exponent = xi * (
                    (i == k) - (i == l) - (j == k) + (j == l)
                )
                lhs = Sum(
                    (
                        (QFrac(1), prod(e[i, j], e[k, l])),
                        (-QFrac.s_pow(2 * exponent), prod(e[k, l], e[i, j])),
                    )
                )
                terms = []
                if j == k:
                    terms.append((QFrac(1), e[i, l]))
                t = tau(i, k, j, l)
                if t:
                    terms.append((t * Q_MINUS_QINV, prod(e[k, j], e[i, l])))
                out.append(
                    RelationInstance(
                        f"G3[n={n},i={i},j={j},k={k},l={l},xi={SIGN_STR[xi]}]",
                        "G3", lhs, Sum(tuple(terms)),
                    )
                )
    return out


# the catalog families in catalog order; `ospq verify --families` names them
FAMILY_BUILDERS = {
    "CK": _ck_instances,
    "SERRE": _serre_instances,
    "PRE": _pre_instances,
    "T": _t_instances,
    "G": _g_instances,
}


CATALOG_SAMPLE = 500  # instances per family at most, when a seed is given


def catalog(
    n: int,
    families: Sequence[str] | None = None,
    seed: int | None = None,
) -> list[RelationInstance]:
    """Every relation instance for n modes, family by family in builder order.

    With a ``seed``, each family of more than CATALOG_SAMPLE instances is
    reduced to a deterministic pseudo-random sample of that many, drawn from
    the seed (up to n = 5 that is only T at n = 5).  The program always
    checks every instance; only the benchmark's symbolic workload samples.
    """
    if n < 1:
        raise ValueError("mode count must be at least 1")
    out: list[RelationInstance] = []
    for name in _chosen_families(families):
        instances = FAMILY_BUILDERS[name](n)
        if seed is not None and len(instances) > CATALOG_SAMPLE:
            rng = random.Random(seed + len(name))
            instances = rng.sample(instances, CATALOG_SAMPLE)
        out.extend(instances)
    return out


def _chosen_families(families: Sequence[str] | None) -> tuple[str, ...]:
    """Builder families in catalog order: the named ones (a str names one) or all."""
    chosen = [families] if isinstance(families, str) else families
    for name in chosen or ():
        if name not in FAMILY_BUILDERS:
            raise ValueError(f"unknown family {name!r} "
                             f"(choose from {', '.join(FAMILY_BUILDERS)})")
    return tuple(f for f in FAMILY_BUILDERS if chosen is None or f in chosen)


# one side of a relation: its normal form's sorted (monomial, coefficient) pairs
Terms = tuple[tuple[WeylMonomial, QFrac], ...]


@dataclass(frozen=True, eq=False)
class RelationPattern:
    """Both sides of a relation relabelled onto the modes 1..n it touches,
    in order, with each side's normal form realized at that n as
    realize(side, n, rules).terms().  Catalog instances whose relabelled
    sides are equal share one pattern.  Shared, so never mutated."""

    n: int
    lhs: GenExpr
    rhs: GenExpr
    lhs_terms: Terms
    rhs_terms: Terms


def _children(x: GenExpr) -> tuple[GenExpr, ...]:
    if isinstance(x, Product):
        return x.factors
    if isinstance(x, Sum):
        return tuple(term for _, term in x.terms)
    if isinstance(x, (QBracket, AntiComm)):
        return (x.left, x.right)
    return ()


def _touched(x: GenExpr, n: int, leaf_modes: dict[Gen, int]) -> int:
    """The modes of every letter in phi of x's leaves, bit i for mode i:
    leaf_word's letters, and for e_i, f_i those of the A and L leaves that
    build_chevalley_from_pre writes them over.  leaf_modes memoizes leaves."""
    if not isinstance(x, Gen):
        modes = 0
        for c in _children(x):
            modes |= _touched(c, n, leaf_modes)
        return modes
    modes = leaf_modes.get(x)
    if modes is None:
        if x.kind in ("e", "f"):
            e_expr, f_expr = build_chevalley_from_pre(n, x.index)
            modes = _touched(e_expr if x.kind == "e" else f_expr, n, leaf_modes)
        else:
            word = leaf_word(x.kind, x.index, x.exp, n)[1]
            modes = sum({1 << (mode + 1) for _, mode, _ in word})
        leaf_modes[x] = modes
    return modes


def _relabel(x: GenExpr, modes: tuple[int, ...]) -> GenExpr:
    """x with every leaf index modes[j - 1] moved to j.

    A leaf's image depends on n only through whether its index is n (k_n,
    e_n, f_n), and an order-keeping relabelling of the touched modes moves n
    to the new top mode, so a relabelled leaf means what it did."""
    if isinstance(x, Gen):
        return Gen(x.kind, modes.index(x.index) + 1, x.exp)
    parts = tuple(_relabel(c, modes) for c in _children(x))
    if isinstance(x, Product):
        return Product(parts)
    if isinstance(x, Sum):
        return Sum(tuple((w, c) for (w, _), c in zip(x.terms, parts)))
    if isinstance(x, QBracket):
        return QBracket(*parts, x.s_exp)
    return AntiComm(*parts)


def relation_patterns(
    n: int, rules: Rules = DEFAULT_RULES
) -> tuple[tuple[RelationInstance, tuple[int, ...], RelationPattern], ...]:
    """(instance, touched modes, pattern) for every instance of catalog(n).

    A relation's letters act on a mode they do not touch only through the
    phases of the q-commuting oscillators, so its matrices need only the
    touched modes (fockrep.check_matrix_relations), and its normal form is
    its pattern's placed on them (verify_relations).  Both sides are
    relabelled onto those modes in order: at n = 5, 1,350 instances share
    189 patterns, and n = 1..5 together have those 189.  Patterns come from
    one table per process keyed by (m, sides, rules), so each is realized
    once across n, k and commands; two entries keep the rows of two mode
    counts, as the acceptance grid alternates n = 2, 3.  Never mutated."""
    return _relation_patterns(n, rules)


@lru_cache(maxsize=2)
def _relation_patterns(
    n: int, rules: Rules
) -> tuple[tuple[RelationInstance, tuple[int, ...], RelationPattern], ...]:
    """relation_patterns, cached by (n, rules) however the rules were passed."""
    leaf_modes: dict[Gen, int] = {}
    out = []
    for inst in catalog(n):
        mask = _touched(inst.lhs, n, leaf_modes) | _touched(inst.rhs, n, leaf_modes)
        modes = tuple(i for i in range(1, n + 1) if mask >> i & 1)
        # k_1 means one thing at m = 1 and another at m = 2, so m counts too
        out.append((inst, modes, _pattern(len(modes), _relabel(inst.lhs, modes),
                                          _relabel(inst.rhs, modes), rules)))
    return tuple(out)


@lru_cache(maxsize=None)
def _pattern(m: int, lhs: GenExpr, rhs: GenExpr, rules: Rules) -> RelationPattern:
    """The process-wide table: sides relabelled onto m modes, realized once."""
    return RelationPattern(m, lhs, rhs, tuple(realize(lhs, m, rules).terms()),
                           tuple(realize(rhs, m, rules).terms()))


def verify_instance(
    inst: RelationInstance, n: int, rules: Rules = DEFAULT_RULES
) -> CheckResult:
    """Realize both sides and compare normal forms."""
    return residual_row(inst.id, realize(inst.lhs, n, rules) - realize(inst.rhs, n, rules))


def verify_relations(
    n: int,
    rules: Rules = DEFAULT_RULES,
    families: Sequence[str] | None = None,
) -> list[CheckResult]:
    """verify_instance's row for every instance of the catalog, or of the
    named families, in catalog order, each from its pattern's residual
    (relation_patterns), built once per call and placed on its modes."""
    chosen = _chosen_families(families)
    residuals: dict[RelationPattern, WeylElement] = {}
    out = []
    for inst, modes, p in relation_patterns(n, rules) if chosen else ():
        if inst.family.startswith(chosen):  # SERRE_E is a SERRE family
            if p not in residuals:
                residuals[p] = WeylElement(p.n, dict(p.lhs_terms)) - WeylElement(
                    p.n, dict(p.rhs_terms))
            # exponent j moves to modes[j - 1], every other mode reads the 0
            # appended at -1; the monomial order is kept, so rows print as at n
            at = [modes.index(i) if i in modes else -1 for i in range(1, n + 1)]
            placed = {WeylMonomial(*(tuple((*e, 0)[j] for j in at) for e in mono)): c
                      for mono, c in residuals[p].terms()}
            out.append(residual_row(inst.id, WeylElement(n, placed)))
    return out


# ---------------------------------------------------------------------------
# consistency checks across layers
# ---------------------------------------------------------------------------


def round_trip_checks(n: int, rules: Rules = DEFAULT_RULES) -> list[CheckResult]:
    """phi applied to the bracket-chain and telescoped expressions must land
    exactly on the images of the leaves they spell out:

        phi(chain for A_i^+-) = phi(A_i^+-) = a_i^+-,
        phi(k_i k_{i+1} ... k_n) = phi(L_i) = q^{-1/2} kappa_i^{-1}.
    """
    out: list[CheckResult] = []
    for i in range(1, n + 1):
        for s in (-1, +1):
            target = realize(Gen("A", i, s), n, rules)
            out.append(residual_row(
                f"RT.A[n={n},i={i},sign={SIGN_STR[s]}]",
                realize(build_preoscillator(n, i, s), n, rules) - target,
            ))
    for i in range(1, n + 1):
        target = realize(Gen("L", i), n, rules)
        out.append(residual_row(
            f"RT.L[n={n},i={i}]", realize(build_cartan_L(n, i), n, rules) - target))
    return out


def _image_at_one(x: WeylElement) -> dict | None:
    """x with every coefficient evaluated at s = 1, zeros dropped; None when
    a coefficient has a pole there (a Dm factor in its denominator)."""
    out = {}
    for mono, coeff in x.terms():
        if coeff.dm:
            return None
        value = coeff.eval_one()
        if value:
            out[mono] = value
    return out


def classical_limit_checks(n: int, rules: Rules = DEFAULT_RULES) -> list[CheckResult]:
    """Degeneration of the pre-oscillator relations at q = 1.

    Both realized sides of every PRE4/PRE5 instance are evaluated
    coefficient-wise at s = 1: neither may have a pole there, and the two
    images must agree.  Each instance's lhs is [{A_a^xi, A_b^eta}, A_c^eps]_x,
    and its three ladder leaves name the trilinear para-Bose instance
    (a, xi, b, eta, c, eps) of the classical matrix realization, which is
    checked independently.  PRE3 degenerates to the anticommutator-Cartan
    identity of the matrices.
    """
    out: list[CheckResult] = []
    A = parabose_set(n)
    anti = anticommutator_table(A)
    for i in range(1, n + 1):
        lhs = anti[(i, -1), (i, +1)]
        ok = lhs == cartan_h_upper(n, i).scale(-2)
        out.append(
            CheckResult(
                f"LIM.PRE3[n={n},i={i}]", ok, None,
                "{A-,A+} = -2H at q=1" if ok else "classical mismatch",
            )
        )
    for inst in _pre_instances(n):
        if inst.family not in ("PRE4", "PRE5"):
            continue
        leaves = (inst.lhs.left.left, inst.lhs.left.right, inst.lhs.right)
        keys = [(leaf.index, leaf.exp) for leaf in leaves]
        lhs_one = _image_at_one(realize(inst.lhs, n, rules))
        rhs_one = _image_at_one(realize(inst.rhs, n, rules))
        if lhs_one is None or rhs_one is None:
            why = "; pole at s=1"
        elif lhs_one != rhs_one:
            why = "; images differ at s=1"
        elif not pbose_residual(A, anti, *keys).is_zero():
            why = "; classical matrix residual nonzero"
        else:
            why = ""
        (a, x), (b, y), (c, z) = keys
        out.append(
            CheckResult(
                f"LIM.{inst.id}", not why, None,
                f"classical instance (i={a},xi={SIGN_STR[x]},j={b},"
                f"eta={SIGN_STR[y]},k={c},eps={SIGN_STR[z]}){why}",
            )
        )
    return out
