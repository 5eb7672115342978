"""Tests for the symbolic deformed-algebra layer and its realization."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from ospq import uqosp, walgebra
from ospq.cli import main
from ospq.qcoeff import INV_QMQI, QFrac
from ospq.report import RESIDUAL_TEXT_LIMIT, TRUNCATED_MARK
from ospq.scalars import Q2
from ospq.uqosp import (
    FAMILY_BUILDERS,
    ONE_EXPR,
    ZERO_EXPR,
    AntiComm,
    Gen,
    Product,
    QBracket,
    RelationInstance,
    Sum,
    build_cartan_L,
    build_chevalley_from_pre,
    build_gl_generator,
    build_preoscillator,
    catalog,
    classical_limit_checks,
    realize,
    relation_patterns,
    round_trip_checks,
    tau,
    theta,
    verify_instance,
    verify_relations,
)
from ospq.walgebra import DEFAULT_RULES, Rules, a_minus, a_plus, kappa_el, mul


def _spow(e: int, c=1) -> QFrac:
    return QFrac.s_pow(e, c)


# ---------------------------------------------------------------------------
# helper signs
# ---------------------------------------------------------------------------


def test_tau_values():
    assert tau(1, 2) == 1
    assert tau(2, 1) == -1
    assert tau(1, 1) == 0
    assert tau(1, 2, 3) == 1
    assert tau(3, 2, 1) == -1
    assert tau(2, 1, 3) == 0
    assert tau(1, 3, 2) == 0
    # antisymmetry in two indices
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert tau(i, j) == -tau(j, i)
            assert tau(i, j) in (-1, 0, 1)


def test_theta_values():
    assert theta(2, 1) == 1
    assert theta(1, 2) == 0
    assert theta(1, 1) == 0
    assert theta(4, 3, 2, 1) == 1
    assert theta(4, 3, 3, 1) == 0
    assert theta(1, 3, 2) == 0


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_preoscillator_structure():
    # single-mode case: A_1^- = -sqrt(2) e_1
    expr = build_preoscillator(1, 1, -1)
    assert isinstance(expr, Sum) and len(expr.terms) == 1
    coeff, body = expr.terms[0]
    assert body == Gen("e", 1)
    assert coeff == QFrac(Q2(0, -1))
    # two modes: A_1^- = -sqrt(2) [e_1, e_2]_{q^-1}
    expr = build_preoscillator(2, 1, -1)
    _, body = expr.terms[0]
    assert body == QBracket(Gen("e", 1), Gen("e", 2), -2)
    # and A_2^+ = sqrt(2) f_2
    expr = build_preoscillator(2, 2, +1)
    coeff, body = expr.terms[0]
    assert body == Gen("f", 2)
    assert coeff == QFrac(Q2(0, 1))
    # plus chain nests on the left
    expr = build_preoscillator(3, 1, +1)
    _, body = expr.terms[0]
    assert body == QBracket(QBracket(Gen("f", 3), Gen("f", 2), 2), Gen("f", 1), 2)


def test_builder_errors():
    with pytest.raises(ValueError):
        build_preoscillator(2, 3, +1)
    with pytest.raises(ValueError):
        build_preoscillator(2, 1, 0)
    with pytest.raises(ValueError):
        build_cartan_L(2, 0)
    with pytest.raises(ValueError):
        build_gl_generator(3, 2, 2)
    with pytest.raises(ValueError):
        Gen("x", 1)
    with pytest.raises(ValueError):
        Gen("A", 1, 2)
    with pytest.raises(ValueError):
        Gen("e", 1, -1)


def test_letters_of_the_weyl_algebra_are_not_generators():
    # phi(A_i^+-) = a_i^+- and phi(L_i^-1) = q^{1/2} kappa_i name them on
    # the U_q side
    for kind in ("a", "kappa"):
        with pytest.raises(ValueError, match="unknown generator kind"):
            Gen(kind, 1)


def test_cartan_L_products():
    assert build_cartan_L(3, 2).factors == (Gen("k", 2), Gen("k", 3))
    assert build_cartan_L(3, 3).factors == (Gen("k", 3),)
    inv = build_cartan_L(3, 2, -1)
    assert inv.factors == (Gen("k", 3, -1), Gen("k", 2, -1))


# ---------------------------------------------------------------------------
# realization of single generators
# ---------------------------------------------------------------------------


def test_leaf_images():
    n = 3
    for i in (1, 2, 3):
        assert realize(Gen("A", i, +1), n) == a_plus(n, i)
        assert realize(Gen("A", i, -1), n) == a_minus(n, i)
        # L_i -> q^{-1/2} kappa_i^{-1}
        assert realize(Gen("L", i), n) == kappa_el(n, i, -1).scale(_spow(-1))
        assert realize(Gen("L", i, -1), n) == kappa_el(n, i, 1).scale(_spow(1))
    # k_i -> kappa_i^{-1} kappa_{i+1} for i < n, k_n -> q^{-1/2} kappa_n^{-1}
    assert realize(Gen("k", 1), n) == mul(kappa_el(n, 1, -1), kappa_el(n, 2, 1))
    assert realize(Gen("k", 3), n) == kappa_el(n, 3, -1).scale(_spow(-1))
    assert realize(Product((Gen("k", 1), Gen("k", 1, -1))), n).is_zero() is False


def test_short_root_images():
    n = 2
    assert realize(Gen("e", 2), n) == a_minus(n, 2).scale(
        QFrac(Q2(0, Fraction(-1, 2)))
    )
    assert realize(Gen("f", 2), n) == a_plus(n, 2).scale(
        QFrac(Q2(0, Fraction(1, 2)))
    )


def test_long_root_image_normal_form():
    # e_1 for n=2 realizes to -(s^3+s)/2 * a_2^+ kappa_2 a_1^-
    n = 2
    img = realize(Gen("e", 1), n)
    expected = (
        mul(mul(a_plus(n, 2), kappa_el(n, 2)), a_minus(n, 1))
    ).scale(QFrac({3: Q2(Fraction(-1, 2)), 1: Q2(Fraction(-1, 2))}))
    assert img == expected


def test_gl_generator_image_matches_cos_form():
    # e_12 -> -(1/2)(q^{3/2}+q^{1/2}) a_2^+ kappa_2 a_1^-, i.e. the normal
    # ordering of -cos(pi/2k) kappa_2 a_2^+ a_1^- at a root of unity
    n = 2
    img = realize(build_gl_generator(n, 1, 2), n)
    expected = (
        mul(mul(a_plus(n, 2), kappa_el(n, 2)), a_minus(n, 1))
    ).scale(QFrac({3: Q2(Fraction(-1, 2)), 1: Q2(Fraction(-1, 2))}))
    assert img == expected
    # same element as the realized e_1 (they differ only by L-dressing
    # conventions that cancel for this index pattern)
    assert img == realize(Gen("e", 1), n)
    # the mirrored generator carries L_2 itself, whose image is an inverse
    # kappa, so the normal form is -(s^-1+s^-3)/2 a_1^+ kappa_2^-1 a_2^-
    img21 = realize(build_gl_generator(n, 2, 1), n)
    expected21 = (
        mul(mul(a_plus(n, 1), kappa_el(n, 2, -1)), a_minus(n, 2))
    ).scale(QFrac({-1: Q2(Fraction(-1, 2)), -3: Q2(Fraction(-1, 2))}))
    assert img21 == expected21


def test_anticommutator_cartan_identity():
    # {A_1^-, A_1^+} realizes to -2(l - l^-1)/(q - q^-1) with
    # l = q^{-1/2} kappa_1^{-1}
    n = 1
    img = realize(AntiComm(Gen("A", 1, -1), Gen("A", 1, +1)), n)
    expected = kappa_el(n, 1, -1).scale(-2 * INV_QMQI * _spow(-1)) + kappa_el(
        n, 1, 1
    ).scale(2 * INV_QMQI * _spow(1))
    assert img == expected


def test_qbracket_is_deformed_commutator():
    n = 2
    x, y = Gen("A", 1, +1), Gen("A", 2, +1)
    img = realize(QBracket(x, y, 2), n)
    direct = mul(a_plus(n, 1), a_plus(n, 2)) - mul(
        a_plus(n, 2), a_plus(n, 1)
    ).scale(_spow(2))
    assert img == direct


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_sizes():
    by_family = {}
    for inst in catalog(2):
        by_family[inst.family] = by_family.get(inst.family, 0) + 1
    assert by_family == {
        "CK": 15, "SERRE_E": 2, "SERRE_F": 2,
        "PRE1": 3, "PRE2": 8, "PRE3": 2, "PRE4": 8, "PRE5": 2,
        "T1": 8, "T2": 8, "T3": 16, "T4": 16,
        "G1": 8, "G2": 1,
    }
    assert len(catalog(1)) == 14
    assert len(catalog(3)) == 303


def test_catalog_ids_unique_and_deterministic():
    ids = [inst.id for inst in catalog(3)]
    assert len(ids) == len(set(ids))
    assert ids == [inst.id for inst in catalog(3)]


# sha256 over f"{id}|{family}|{lhs!r}|{rhs!r}\n" for every
# instance of catalog(n): pins each relation's expression, not only its ids
_CATALOG_DIGESTS = {
    1: "5c0a41a16752d3a8565579c5cff0b9fe732b68f453f8d4c47f22c9ebe3bc6013",
    2: "8f02ab6f37c1be4c71f34cc4cceb3ef6adff74b4f3a69ee907c860f632391010",
    3: "40663ece0213f73a78da008049caf88f2d45a0d3b79b06926eaa35e241366f14",
    4: "776d05564e115090158209e03d2e06e719f119629fe4301c9ab42f079d289f5d",
    5: "f8cfc29cef6f19bd68ecfb06629cf9d5cc195280eb37259d034722f85eb10069",
}


def test_catalog_golden_digest():
    for n, expected in _CATALOG_DIGESTS.items():
        lines = "".join(
            f"{i.id}|{i.family}|{i.lhs!r}|{i.rhs!r}\n"
            for i in catalog(n)
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == expected, n


# sha256 over every realized side of catalog(n), realize(side, n, rules): one
# line per term in term order, after the instance id: str(monomial), then the
# coefficient's numerator terms in their stored order with dp and dm.  It
# pins each normal form, its term order and each coefficient's numerator
# order.
_REALIZED_CATALOG_DIGEST = "2b4b931e7117bc53cc38f876a52ddb2e59de1ea1a6bbadd3108fd67bd839762d"


def test_realized_catalog_golden_digest():
    cases = [(n, DEFAULT_RULES) for n in (1, 2, 3, 4, 5)]
    cases += [(n, Rules.corrupted()) for n in (2, 3)]
    digest = hashlib.sha256()
    for n, rules in cases:
        for inst in catalog(n):
            digest.update(f"{inst.id}\n".encode())
            for side, expr in (("lhs", inst.lhs), ("rhs", inst.rhs)):
                for mono, coeff in realize(expr, n, rules).terms():
                    exact = (tuple(coeff._t.items()), coeff.dp, coeff.dm)
                    digest.update(f"{side}|{mono}|{exact!r}\n".encode())
    assert digest.hexdigest() == _REALIZED_CATALOG_DIGEST


def test_unknown_family_is_refused():
    for call in (lambda: catalog(2, families=["X"]),
                 lambda: verify_relations(2, families=["CK", "X"])):
        with pytest.raises(ValueError, match="unknown family 'X'.*CK, SERRE, PRE, T, G"):
            call()


def _subtrees(x, seen):
    """Every node of x by identity, a shared subtree once."""
    if id(x) in seen:
        return
    seen[id(x)] = x
    if isinstance(x, Product):
        children = x.factors
    elif isinstance(x, Sum):
        children = [term for _, term in x.terms]
    elif isinstance(x, (QBracket, AntiComm)):
        children = (x.left, x.right)
    else:
        children = ()
    for child in children:
        _subtrees(child, seen)


def test_builders_share_ladder_anticommutator_and_root_vector_subtrees():
    n = 4
    for family in ("PRE", "T"):
        seen: dict = {}
        for inst in FAMILY_BUILDERS[family](n):
            _subtrees(inst.lhs, seen)
            _subtrees(inst.rhs, seen)
        nodes = seen.values()
        assert sum(isinstance(x, AntiComm) for x in nodes) <= (2 * n) ** 2, family
        assert sum(isinstance(x, Gen) and x.kind == "A" for x in nodes) <= 2 * n, family
    roots = {build_gl_generator(n, i, j)
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    seen = {}
    for inst in FAMILY_BUILDERS["G"](n):
        _subtrees(inst.lhs, seen)
        _subtrees(inst.rhs, seen)
    assert sum(x in roots for x in seen.values()) <= n * (n - 1)


def test_node_and_rules_hashes_are_field_hashes_kept_once():
    # a node hashes like the dataclass it is, equal nodes built apart hash
    # alike, and the kept hash changes neither equality nor repr
    n = 3
    for inst in catalog(n):
        seen: dict = {}
        _subtrees(inst.lhs, seen)
        _subtrees(inst.rhs, seen)
        for x in seen.values():
            if isinstance(x, Gen):
                continue
            fields = tuple(getattr(x, f.name) for f in dataclasses.fields(x))
            text = repr(x)
            assert hash(x) == hash(fields) == hash(x)
            assert x.__dict__["_hash"] == hash(fields)
            assert repr(x) == text
    kept, fresh = build_gl_generator(n, 1, 2), build_gl_generator(n, 1, 2)
    hash(kept)
    assert "_hash" not in fresh.__dict__ and kept == fresh
    assert hash(kept) == hash(fresh)
    assert hash(Rules()) == hash((DEFAULT_RULES.s1_kappa,)) == hash(DEFAULT_RULES)
    assert Rules.corrupted() != DEFAULT_RULES


def test_t2_instance_shape():
    # for (i,j,k) = (1,2,1), xi = +: plain bracket, single delta-term rhs
    inst = next(
        i for i in catalog(2) if i.id == "T2[n=2,i=1,j=2,k=1,xi=+]"
    )
    assert isinstance(inst.lhs, QBracket) and inst.lhs.s_exp == 0
    assert isinstance(inst.rhs, Sum) and len(inst.rhs.terms) == 1
    coeff, body = inst.rhs.terms[0]
    assert coeff == QFrac(-2)
    assert body == Product((Gen("A", 2, +1), Gen("L", 1, 1)))


def test_g2_instance_has_cartan_tail():
    inst = next(i for i in catalog(2) if i.id == "G2[n=2,i=1,j=2,k=2,l=1]")
    tails = [
        (c, t) for c, t in inst.rhs.terms
        if isinstance(t, Product) and all(isinstance(f, Gen) and f.kind == "L" for f in t.factors)
    ]
    assert (INV_QMQI, Product((Gen("L", 1), Gen("L", 2, -1)))) in tails
    assert (-INV_QMQI, Product((Gen("L", 1, -1), Gen("L", 2)))) in tails


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_all_relations_hold_small():
    for n in (1, 2):
        results = verify_relations(n)
        assert all(r.ok for r in results), [r.id for r in results if not r.ok]


def test_all_relations_hold_three_modes():
    results = verify_relations(3)
    assert len(results) == 303
    assert all(r.ok for r in results), [r.id for r in results if not r.ok]


def test_t_and_g_hold_exhaustively_at_four_and_five_modes():
    # the G3 crossing term needs four distinct indices, so n >= 4; the
    # family builders give every instance, unsampled
    for n, size in ((4, 522), (5, 1080)):
        insts = FAMILY_BUILDERS["T"](n) + FAMILY_BUILDERS["G"](n)
        assert len(insts) == size
        failing = [i.id for i in insts if not verify_instance(i, n).ok]
        assert not failing, failing[:5]


def test_catalog_is_every_instance_unless_seeded(capsys):
    # every mode count the CLI accepts gets the whole catalog, in builder order
    for n in range(1, 6):
        built = [i.id for f in FAMILY_BUILDERS for i in FAMILY_BUILDERS[f](n)]
        assert [i.id for i in catalog(n)] == built
    t5 = [i.id for i in FAMILY_BUILDERS["T"](5)]
    assert len(t5) == 750
    assert [i.id for i in catalog(5, families=["T"])] == t5
    assert len(verify_relations(5, families=["T"])) == 750
    # only an explicit seed samples: the largest family, T at n = 5, drops to
    # CATALOG_SAMPLE, and two seeds draw different samples
    samples = [[i.id for i in catalog(5, families=["T"], seed=seed)] for seed in (7, 20250)]
    assert all(len(ids) == uqosp.CATALOG_SAMPLE == 500 for ids in samples)
    assert samples[0] != samples[1] and set(samples[0]) <= set(t5)
    # and the command line offers no seed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "1", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_round_trips():
    for n in (1, 2, 3):
        rows = round_trip_checks(n)
        assert len(rows) == 3 * n
        assert all(r.ok for r in rows), [r.id for r in rows if not r.ok]


def test_classical_limits():
    for n in (2, 3):
        rows = classical_limit_checks(n)
        assert rows and all(r.ok for r in rows)
        # PRE4 rows name the classical instance they degenerate to
        pre4 = [r for r in rows if r.id.startswith("LIM.PRE4")]
        assert pre4 and all("classical instance" in r.detail for r in pre4)


def test_classical_limit_rejects_a_pole_at_one(monkeypatch):
    # both sides pick up the same term with a pole at s = 1: the exact
    # residual stays zero, but the q -> 1 limit of the realization is gone
    pole = a_plus(2, 1).scale(INV_QMQI)
    exact = uqosp.realize
    monkeypatch.setattr(uqosp, "realize",
                        lambda x, n, rules=DEFAULT_RULES: exact(x, n, rules) + pole)
    rows = [r for r in classical_limit_checks(2) if not r.id.startswith("LIM.PRE3")]
    assert rows and not any(r.ok for r in rows)
    assert all(r.detail.endswith("; pole at s=1") for r in rows)


def test_classical_limit_compares_images_at_one():
    # [{A_1^-, A_2^+}, A_2^-] = -2 L_2 A_1^- has a nonzero image at s = 1
    rows = {r.id: r for r in classical_limit_checks(2)}
    row = rows["LIM.PRE4[n=2,i=1,sigma=+1,xi=+,j=2]"]
    assert row.ok and row.residual is None
    assert row.detail == "classical instance (i=1,xi=-,j=2,eta=+,k=2,eps=-)"
    bad = {r.id: r for r in classical_limit_checks(2, DEFAULT_RULES.corrupted())}
    assert bad[row.id].detail.endswith("; images differ at s=1")


def test_classical_limit_reads_the_instance_off_the_lhs(monkeypatch):
    # the row names the para-Bose instance its own tree spells, whatever the
    # id says: [{A_2^-, A_1^+}, A_2^-]_{q^-1}, sigma = -1 read from mode 2
    lhs = QBracket(AntiComm(Gen("A", 2, -1), Gen("A", 1, +1)), Gen("A", 2, -1), -2)
    inst = RelationInstance("PRE4[read-off]", "PRE4", lhs, ZERO_EXPR)
    monkeypatch.setattr(uqosp, "_pre_instances", lambda n: [inst])
    rows = [r for r in classical_limit_checks(2) if not r.id.startswith("LIM.PRE3")]
    assert [r.id for r in rows] == ["LIM.PRE4[read-off]"]
    assert rows[0].ok
    assert rows[0].detail == "classical instance (i=2,xi=-,j=1,eta=+,k=2,eps=-)"


def test_corrupted_rules_break_scale_sensitive_relations():
    bad = DEFAULT_RULES.corrupted()
    rows = verify_relations(2, rules=bad)
    failing = {r.id for r in rows if not r.ok}
    assert len(failing) == 31
    assert "CK.ef[n=2,i=1,j=1]" in failing
    assert "PRE3[n=2,i=1]" in failing
    assert "SERRE_F.quartic[n=2]" in failing
    # pure kappa-commutation relations do not involve the corrupted constant
    assert "CK.kk[n=2,i=1]" not in failing
    assert "CK.kcomm[n=2,i=1,j=2]" not in failing
    assert "PRE1.comm[n=2,i=1,j=2]" not in failing


_APPEND_KAPPA, _APPEND_PLUS = walgebra._append_kappa, walgebra._append_plus
_LEAF_WORD = uqosp.leaf_word


def _doubled_kappa_power(m, j, e):
    # kappa_j^e passes the minus block with s^{4 e d_j}, not s^{2 e d_j}
    return [(2 * s_exp, k, m2) for s_exp, k, m2 in _APPEND_KAPPA(m, j, e)]


def _noncommuting_kappa(m, j, e):
    # kappa_j^e also picks up s^{2 e z_i} from every kappa_i^{z_i} with i > j
    return [(s_exp + 2 * e * sum(m.kappa[j + 1:]), k, m2)
            for s_exp, k, m2 in _APPEND_KAPPA(m, j, e)]


def _doubled_plus_exchange(m, j, rules):
    # with d_j = 0, a_j^+ passes each higher-mode a_i^+ with s^-4, not s^-2
    terms = _APPEND_PLUS(m, j, rules)
    if m.minus[j]:
        return terms
    return [(s_exp - 2 * sum(m.plus[j + 1:]), k, m2) for s_exp, k, m2 in terms]


def _non_inverting_l_image(kind, index, exp, n):
    # phi(L_i^e) and phi(k_n^e) carry s^-1 whatever e is
    a, word = _LEAF_WORD(kind, index, exp, n)
    return (-1 if kind == "L" or (kind == "k" and index == n) else a), word


# each mutation of the realization, and the families of catalog(2) that must
# fail under it, each with at least one row
_MUTATIONS = {
    "doubled-kappa-power": (walgebra, "_append_kappa", _doubled_kappa_power,
                            {"CK.ke", "CK.kf", "PRE2", "G1.Le", "SERRE_E.quartic"}),
    "non-inverting-L": (uqosp, "leaf_word", _non_inverting_l_image,
                        {"CK.kk", "PRE1.inv"}),
    "noncommuting-kappa": (walgebra, "_append_kappa", _noncommuting_kappa,
                           {"CK.kcomm", "PRE1.comm", "G1.LL"}),
    "doubled-plus-exchange": (walgebra, "_append_plus", _doubled_plus_exchange,
                              {"PRE5", "T4"}),
}


def _clear_realization():
    uqosp._leaf_image.cache_clear()
    uqosp._realize_node.cache_clear()


@pytest.mark.parametrize("name", list(_MUTATIONS))
def test_each_mutation_fails_its_families(name, monkeypatch):
    module, attr, mutant, families = _MUTATIONS[name]
    _clear_realization()
    monkeypatch.setattr(module, attr, mutant)
    try:
        rows = verify_relations(2)
    finally:
        monkeypatch.undo()
        _clear_realization()
    failing = {r.id.split("[")[0] for r in rows if not r.ok}
    assert families <= failing, families - failing
    assert all(r.ok for r in verify_relations(2))


def test_realization_memo_separates_rule_sets():
    # images realized under one rule set must never answer for another
    bad = DEFAULT_RULES.corrupted()
    failing = [
        {inst.id for inst in catalog(2) if not verify_instance(inst, 2, rules).ok}
        for rules in (DEFAULT_RULES, bad, DEFAULT_RULES)
    ]
    assert ["CK.ef[n=2,i=1,j=1]" in f for f in failing] == [False, True, False]
    assert failing[0] == failing[2] == set()


def test_realization_memo_is_bounded_and_keeps_normal_forms():
    assert uqosp._realize_node.cache_info().maxsize is not None
    instances = catalog(3)

    def printed():
        return [(str(realize(inst.lhs, 3)), str(realize(inst.rhs, 3)))
                for inst in instances]

    warm = printed()
    uqosp._realize_node.cache_clear()
    assert printed() == warm


def test_verify_instance_reports_residual_size():
    inst = RelationInstance(
        "FAKE[x]", "FAKE",
        Product((Gen("A", 1, +1),)),
        Product((Gen("A", 1, -1),)),
    )
    row = verify_instance(inst, 1)
    assert not row.ok
    assert row.residual == "nonzero"
    assert "residual terms" in row.detail


def test_failing_rows_show_their_residual():
    bad = DEFAULT_RULES.corrupted()
    serre = {i.id: i for i in catalog(2, families=["SERRE"])}
    row = verify_instance(serre["SERRE_E.quad[n=2,i=1,j=2]"], 2, bad)
    assert not row.ok
    assert row.detail.startswith("1 residual terms: ")
    assert "a2+ k2 a1- a1-" in row.detail
    ck = {i.id: i for i in catalog(2, families=["CK"])}["CK.ef[n=2,i=1,j=1]"]
    row = verify_instance(ck, 2, bad)
    assert row.detail == ("2 residual terms: ((-1/2)/(s-s^-1)) k1 k2^-1"
                          " + ((1/2)/(s-s^-1)) k1^-1 k2")
    # passing rows carry no detail
    assert verify_instance(ck, 2).detail == ""


def test_long_residuals_are_cut():
    inst = RelationInstance(
        "FAKE[long]", "FAKE",
        Product((Gen("A", 1, -1),) * 4 + (Gen("A", 1, +1),) * 4), ONE_EXPR,
    )
    row = verify_instance(inst, 1)
    assert not row.ok and row.detail.endswith(TRUNCATED_MARK)
    text = row.detail.split(": ", 1)[1]
    assert len(text) == RESIDUAL_TEXT_LIMIT + len(TRUNCATED_MARK)


def test_round_trip_rows_show_their_residual():
    rows = {r.id: r for r in round_trip_checks(2, DEFAULT_RULES.corrupted())}
    assert rows["RT.A[n=2,i=1,sign=+]"].detail == (
        "1 residual terms: ((1/2)s + (1/2)s^-1) a1+ k2^-2")


# ---------------------------------------------------------------------------
# the held catalog: one relabelled pattern per class of instances
# ---------------------------------------------------------------------------


def _exact(terms):
    # the coefficients' stored term order too, which fixes their floats
    return [(mono, (tuple(c._t.items()), c.dp, c.dm)) for mono, c in terms]


def _onto(mono, modes):
    """mono's exponents on the given 1-based modes, after checking that it
    holds no letter on any other mode."""
    picked = [i - 1 for i in modes]
    for part in mono:
        assert not any(e for i, e in enumerate(part) if i not in picked), mono
    return type(mono)(*(tuple(part[i] for i in picked) for part in mono))


@pytest.mark.parametrize("rules", [DEFAULT_RULES, DEFAULT_RULES.corrupted()],
                         ids=["default", "corrupted"])
def test_realized_catalog_holds_each_sides_terms(rules):
    # each pattern holds its own sides' normal forms, and those are the
    # instance's normal forms at n, relabelled onto the touched modes: the
    # same monomials in the same order with the same exact coefficients
    for n in (1, 2, 3, 4):
        held = relation_patterns(n, rules)
        assert [inst.id for inst, _, _ in held] == [inst.id for inst in catalog(n)]
        for inst, modes, pattern in held:
            assert len(modes) == pattern.n and list(modes) == sorted(set(modes))
            for expr, side, terms in ((inst.lhs, pattern.lhs, pattern.lhs_terms),
                                      (inst.rhs, pattern.rhs, pattern.rhs_terms)):
                assert _exact(terms) == _exact(realize(side, pattern.n, rules).terms())
                relabelled = [(_onto(mono, modes), coeff)
                              for mono, coeff in realize(expr, n, rules).terms()]
                assert _exact(relabelled) == _exact(terms), inst.id


def test_relation_patterns_relabel_onto_the_touched_modes():
    counts = {n: len({id(p) for _, _, p in relation_patterns(n)}) for n in range(1, 6)}
    assert counts == {1: 14, 2: 86, 3: 168, 4: 189, 5: 189}
    rows = {inst.id: (modes, pattern) for inst, modes, pattern in relation_patterns(5)}
    # e_2 is written over A_2, A_3 and L_3; k_5 is phi(L_5) on mode 5 alone
    modes, pattern = rows["CK.ke[n=5,i=5,j=2]"]
    assert modes == (2, 3, 5) and pattern.lhs == Product((Gen("k", 3), Gen("e", 1)))
    # instances that differ only by a shift of their modes share a pattern
    assert rows["PRE3[n=5,i=1]"][1] is rows["PRE3[n=5,i=4]"][1]
    assert rows["PRE3[n=5,i=1]"][0] == (1,)
    # no instance at n = 5 touches all five modes
    assert max(len(modes) for modes, _ in rows.values()) == 4


def test_relation_patterns_share_sides_equal_as_values(monkeypatch):
    # two instances whose sides hold one weight stored in two term orders
    # are one relation, so they get one pattern
    terms = {0: Q2(1), 2: Q2(-1), -2: Q2(-1)}
    w = QFrac(terms)
    w2 = QFrac({e: terms[e] for e in (2, -2, 0)})
    assert w == w2 and list(w._t.items()) != list(w2._t.items())
    instances = [RelationInstance(f"X[{i}]", "X", Sum(((c, Gen("A", 2)),)),
                                  Sum(((c, Gen("A", 2)),)))
                 for i, c in enumerate((w, w2))]
    monkeypatch.setattr(uqosp, "catalog", lambda n: instances)
    uqosp._relation_patterns.cache_clear()
    try:
        (_, modes, p), (_, modes2, p2) = relation_patterns(2)
    finally:
        uqosp._relation_patterns.cache_clear()
    assert modes == modes2 == (2,) and p is p2
    assert p.lhs == Sum(((w, Gen("A", 1)),))


def test_realized_catalog_is_emptied_with_every_program_cache(monkeypatch):
    # the benchmark starts each sweep cold by calling cache_clear on every
    # module-level callable of the ospq submodules
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    relation_patterns(1)
    assert uqosp._relation_patterns.cache_info().currsize > 0
    workloads.clear_caches()
    assert uqosp._relation_patterns.cache_info().currsize == 0
