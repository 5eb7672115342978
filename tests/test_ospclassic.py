"""Tests for the exact matrix realization of osp(1|2n)."""

from __future__ import annotations

import random

import pytest

from ospq import ospclassic
from ospq.ospclassic import (
    SIGN_STR,
    GradedMatrix,
    anticommutator,
    anticommutator_table,
    cartan_h_upper,
    cartan_matrix,
    chevalley_from_table,
    classical_parabose,
    commutator,
    generator_keys,
    parabose_from_chevalley,
    parabose_set,
    pbose_relation_checks,
    q2_rank,
    sp2n_relation_checks,
    supercommutator,
    verify_classical,
)
from ospq.report import residual_row
from ospq.scalars import ONE, SQRT2, Q2


def _corrupt_plus2(n: int = 2) -> dict:
    """Generator set with the sign of one entry of A_2^+ flipped."""
    A = parabose_set(n)
    m = A[(2, +1)]
    ent = dict(m.entries)
    ent[(2, 0)] = -ent[(2, 0)]
    A[(2, +1)] = GradedMatrix(n, ent)
    return A


def _random_odd(n: int) -> dict:
    """Seeded random odd matrices: the table's symmetries are the only ones
    they share, so nearly every C21 and C28 row has a nonzero residual."""
    rng = random.Random(3119 + n)
    def entry():
        return Q2(rng.randint(-4, 4), rng.randint(-4, 4))
    odd = [(0, r) for r in range(1, 2 * n + 1)] + [(r, 0) for r in range(1, 2 * n + 1)]
    return {key: GradedMatrix(n, {e: entry() for e in odd}) for key in generator_keys(n)}


# ---------------------------------------------------------------------------
# generator matrices
# ---------------------------------------------------------------------------


def test_parabose_matrix_entries():
    n = 2
    am = classical_parabose(n, 1, -1)
    ap = classical_parabose(n, 1, +1)
    assert am.entries == {(0, 1): SQRT2, (3, 0): -SQRT2}
    assert ap.entries == {(0, 3): SQRT2, (1, 0): SQRT2}
    assert am.grade == 1 and ap.grade == 1
    assert am.dim == 5


def test_parabose_index_errors():
    with pytest.raises(ValueError):
        classical_parabose(2, 0, +1)
    with pytest.raises(ValueError):
        classical_parabose(2, 3, -1)
    with pytest.raises(ValueError):
        classical_parabose(2, 1, 2)


def test_generators_satisfy_block_constraints():
    for n in (1, 2, 3):
        for (i, s), mat in parabose_set(n).items():
            assert mat.in_osp(), (n, i, s)
            assert mat.grade == 1


def test_anticommutator_gives_cartan_element():
    # {A_i^-, A_i^+} = -2 H_i with H_i = -E_{ii} + E_{n+i,n+i}
    n = 3
    A = parabose_set(n)
    for i in range(1, n + 1):
        lhs = anticommutator(A[(i, -1)], A[(i, +1)])
        assert lhs == cartan_h_upper(n, i).scale(-2)


def test_grade_structure_enforced():
    with pytest.raises(ValueError, match="breaks the grade-1 block structure"):
        GradedMatrix(2, {(0, 1): ONE, (1, 2): ONE})  # an odd and an even entry
    with pytest.raises(ValueError):
        GradedMatrix(2, {(5, 0): ONE})  # out of range
    a = GradedMatrix.unit(2, 1, 2)
    b = GradedMatrix.unit(2, 0, 1)
    assert a.grade == 0 and b.grade == 1
    assert GradedMatrix.zero(2).grade == 0 and (b - b).grade == 0
    with pytest.raises(ValueError):
        a + b  # nonzero matrices of different grade
    with pytest.raises(ValueError, match="block structure"):
        a - b
    with pytest.raises(ValueError):
        supercommutator(a, GradedMatrix.unit(3, 1, 2))  # dimension mismatch


def test_matrix_arithmetic_basics():
    n = 2
    a = classical_parabose(n, 1, -1)
    z = a - a
    assert z.is_zero()
    assert (a + z) == a
    assert (2 * a).entries[(0, 1)] == Q2(2) * SQRT2
    assert (-a) + a == GradedMatrix.zero(n)
    dense = a.dense()
    assert dense[0][1] == SQRT2 and dense[3][0] == -SQRT2
    assert dense[0][0].is_zero()


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------


def test_triple_relation_all_instances():
    for n in (1, 2, 3):
        A = parabose_set(n)
        results = pbose_relation_checks(A, anticommutator_table(A), n)
        assert len(results) == 8 * n**3
        assert all(r.ok for r in results)


def test_quadrilinear_relation_all_instances():
    for n in (1, 2):
        results = sp2n_relation_checks(anticommutator_table(parabose_set(n)), n)
        assert len(results) == 16 * n**4
        assert all(r.ok for r in results)


def _reference_rows(A: dict, n: int) -> list:
    """The C21 and C28 rows written out from their definitions: every
    anticommutator is its own product, each side is built from products,
    and the right side is summed term by term."""
    anti = {(a, b): A[a] @ A[b] + A[b] @ A[a] for a in A for b in A}
    keys = [(i, s) for i in range(1, n + 1) for s in (+1, -1)]
    sign = SIGN_STR
    rows = []
    for a in keys:
        for b in keys:
            for c in keys:
                (i, xi), (j, eta), (k, eps) = a, b, c
                rhs = GradedMatrix.zero(n)
                if j == k:
                    rhs = rhs + A[a].scale(eps - eta)
                if i == k:
                    rhs = rhs + A[b].scale(eps - xi)
                x, y = anti[a, b], A[c]
                rows.append(residual_row(
                    f"C21[n={n},i={i},j={j},k={k},"
                    f"xi={sign[xi]},eta={sign[eta]},eps={sign[eps]}]",
                    x @ y - y @ x - rhs,
                ))
    for a in keys:
        for b in keys:
            for c in keys:
                for d in keys:
                    (i, xi), (j, eta), (k, eps), (l, phi) = a, b, c, d
                    rhs = GradedMatrix.zero(n)
                    if j == k:
                        rhs = rhs + anti[a, d].scale(eps - eta)
                    if i == k:
                        rhs = rhs + anti[b, d].scale(eps - xi)
                    if j == l:
                        rhs = rhs + anti[a, c].scale(phi - eta)
                    if i == l:
                        rhs = rhs + anti[b, c].scale(phi - xi)
                    x, y = anti[a, b], anti[c, d]
                    rows.append(residual_row(
                        f"C28[n={n},i={i},j={j},k={k},l={l},xi={sign[xi]},"
                        f"eta={sign[eta]},eps={sign[eps]},phi={sign[phi]}]",
                        x @ y - y @ x - rhs,
                    ))
    return rows


@pytest.mark.parametrize("n, gens", [
    (1, parabose_set), (2, parabose_set), (3, parabose_set),
    (2, _corrupt_plus2), (3, _corrupt_plus2),  # there is no A_2^+ at n = 1
    (2, _random_odd), (3, _random_odd),
])
def test_relation_tables_match_reference_rows(n, gens):
    A = gens(n)
    anti = anticommutator_table(A)
    rows = pbose_relation_checks(A, anti, n) + sp2n_relation_checks(anti, n)
    got = [(r.id, r.ok, r.residual, r.detail) for r in rows]
    want = [(r.id, r.ok, r.residual, r.detail) for r in _reference_rows(A, n)]
    assert got == want
    assert all(ok for _, ok, _, _ in got) == (gens is parabose_set)
    if gens is _random_odd:
        # all but the rows that vanish for any odd set, such as C28's [X, X]
        assert sum(not ok for _, ok, _, _ in got) > 0.85 * len(got)


def test_generator_keys_order():
    assert generator_keys(2) == [(1, +1), (1, -1), (2, +1), (2, -1)]
    assert list(parabose_set(3)) == generator_keys(3)


@pytest.mark.parametrize("n, orbits", [(1, 6), (3, 231), (5, 1540)])
def test_sp2n_sweep_builds_each_residual_once_per_orbit(n, orbits, monkeypatch):
    # an orbit is an unordered pair of unordered key pairs: with p = n(2n + 1)
    # unordered key pairs there are p(p + 1)/2 of them among the (2n)^4 rows
    calls = []
    build = ospclassic.sp2n_residual
    def counted(*args):
        calls.append(args[1:])  # the keys; args[0] is the table
        return build(*args)
    monkeypatch.setattr(ospclassic, "sp2n_residual", counted)
    rows = sp2n_relation_checks(anticommutator_table(parabose_set(n)), n)
    p = n * (2 * n + 1)
    assert len(rows) == 16 * n**4
    assert len(calls) == len(set(calls)) == orbits == p * (p + 1) // 2


def test_graded_jacobi_identity():
    # [[a,[[b,c]]]] = [[[[a,b]],c]] + (-1)^{|a||b|} [[b,[[a,c]]]]
    n = 2
    A = parabose_set(n)
    odd = list(A.values())
    even = [
        anticommutator(A[(i, s)], A[(j, t)])
        for i in (1, 2)
        for j in (1, 2)
        for s in (+1, -1)
        for t in (+1, -1)
    ]
    rng = random.Random(20313)
    pool = [(m, 1) for m in odd] + [(m, 0) for m in even]
    for _ in range(60):
        (a, ga), (b, gb), (c, _) = (rng.choice(pool) for _ in range(3))
        lhs = supercommutator(a, supercommutator(b, c))
        rhs = supercommutator(supercommutator(a, b), c)
        term = supercommutator(b, supercommutator(a, c))
        rhs = rhs + term.scale(-1 if (ga and gb) else 1) if not term.is_zero() else rhs
        assert (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# Chevalley generators
# ---------------------------------------------------------------------------


def test_chevalley_matrices_explicit():
    n = 2
    A = parabose_set(n)
    e, f, h = chevalley_from_table(A, anticommutator_table(A))
    # e_1 = E_{21} - E_{34}, f_1 = E_{12} - E_{43} for n = 2
    assert e[1].entries == {(2, 1): ONE, (3, 4): -ONE}
    assert f[1].entries == {(1, 2): ONE, (4, 3): -ONE}
    # h_i = H_i - H_{i+1}, h_n = H_n
    assert h[1] == cartan_h_upper(n, 1) - cartan_h_upper(n, 2)
    assert h[2] == cartan_h_upper(n, 2)
    # short-root generators are rescaled odd generators
    assert e[2] == classical_parabose(n, 2, -1).scale(-SQRT2.inverse())
    assert f[2] == classical_parabose(n, 2, +1).scale(SQRT2.inverse())


def test_cartan_matrix_shape():
    assert cartan_matrix(1) == [[1]]
    assert cartan_matrix(2) == [[2, -1], [-1, 1]]
    assert cartan_matrix(3) == [[2, -1, 0], [-1, 2, -1], [0, -1, 1]]


def test_cartan_kac_explicit_instances():
    n = 2
    A = parabose_set(n)
    e, f, h = chevalley_from_table(A, anticommutator_table(A))
    assert commutator(h[1], e[1]) == e[1].scale(2)
    assert commutator(h[2], e[1]) == e[1].scale(-1)
    assert commutator(h[1], e[2]) == e[2].scale(-1)
    assert commutator(h[2], e[2]) == e[2]  # alpha_nn = 1
    assert supercommutator(e[1], f[1]) == h[1]
    # both short-root generators are odd, so their pairing anticommutes
    assert (e[2] @ f[2] + f[2] @ e[2]) == h[2]
    assert supercommutator(e[1], f[2]).is_zero()


def test_quartic_serre_holds_degenerately():
    # In the defining representation the short-root relation
    # x^3 y - (x^2 y x + x y x^2) + y x^3 = 0 holds with every monomial
    # separately zero (x^2 kills the words), so no coefficient test is
    # meaningful here; sensitivity is exercised in the symbolic deformed
    # algebra where the monomials survive.
    for n in (2, 3):
        A = parabose_set(n)
        e, _, _ = chevalley_from_table(A, anticommutator_table(A))
        x, y = e[n], e[n - 1]
        assert (x @ x @ x).is_zero()
        for word in (x @ x @ x @ y, x @ x @ y @ x, x @ y @ x @ x, y @ x @ x @ x):
            assert word.is_zero()
        # quadratic relation words collapse the same way: x acts nilpotently
        assert (y @ y).is_zero()
        assert (y @ x @ y).is_zero()


def test_chain_round_trip_all_modes():
    for n in (1, 2, 3, 4):
        A = parabose_set(n)
        e, f, _ = chevalley_from_table(A, anticommutator_table(A))
        for i in range(1, n + 1):
            for s in (+1, -1):
                assert parabose_from_chevalley(e, f, i, s) == A[(i, s)], (n, i, s)


def test_chain_intermediate_identities():
    # the recursions that force the alternating chain signs
    n = 3
    A = parabose_set(n)
    e, f, _ = chevalley_from_table(A, anticommutator_table(A))
    for i in (1, 2):
        assert commutator(e[i], A[(i + 1, -1)]) == -A[(i, -1)]
        assert commutator(A[(i + 1, +1)], f[i]) == -A[(i, +1)]


# ---------------------------------------------------------------------------
# spans and rank
# ---------------------------------------------------------------------------


def test_rank_detects_dependencies():
    v1 = {(0, 0): ONE}
    v2 = {(0, 0): SQRT2}  # dependent over Q(sqrt 2)
    v3 = {(0, 0): ONE, (1, 1): Q2(3)}
    assert q2_rank([v1, v2]) == 1
    assert q2_rank([v1, v3]) == 2
    assert q2_rank([v1, v2, v3, {}]) == 2
    w = {(0, 0): Q2(1, 1), (1, 1): Q2(0, 2)}
    combo = {(0, 0): w[(0, 0)] * Q2(0, 1) + ONE, (1, 1): w[(1, 1)] * Q2(0, 1)}
    assert q2_rank([v1, w, combo]) == 2


def test_span_dimensions():
    # generators plus anticommutators span the full superalgebra: 2n^2 + 3n
    for n, expected in ((1, 5), (2, 14), (3, 27)):
        A = parabose_set(n)
        vectors = [m.entries for m in A.values()]
        vectors += [
            anticommutator(A[(i, s)], A[(j, t)]).entries
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for s in (+1, -1)
            for t in (+1, -1)
        ]
        assert q2_rank(vectors) == expected


def test_gl_subalgebra_dimension():
    # the mixed anticommutators {A_i^-, A_j^+} are n^2 independent elements
    for n in (1, 2, 3):
        A = parabose_set(n)
        vectors = [
            anticommutator(A[(i, -1)], A[(j, +1)]).entries
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
        assert q2_rank(vectors) == n * n


# ---------------------------------------------------------------------------
# full battery
# ---------------------------------------------------------------------------


def test_verify_classical_all_pass():
    expected_counts = {1: 38, 2: 366, 3: 1608, 4: 4772, 5: 11250}
    for n, count in expected_counts.items():
        results = verify_classical(n)
        assert len(results) == count
        failing = [r.id for r in results if not r.ok]
        assert failing == []


def test_verify_classical_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_classical(0)
    with pytest.raises(ValueError):
        verify_classical(6)


def test_corrupted_generator_is_detected(monkeypatch):
    monkeypatch.setattr(ospclassic, "parabose_set", _corrupt_plus2)
    results = verify_classical(2)
    failing = {r.id for r in results if not r.ok}
    assert failing, "corruption must be detected"
    # specific triple-relation instances involving the corrupted generator fail
    assert "C21[n=2,i=1,j=2,k=2,xi=+,eta=+,eps=-]" in failing
    assert "C21[n=2,i=2,j=2,k=2,xi=+,eta=-,eps=+]" in failing
    assert "MEM.gen[n=2,i=2,sign=+]" in failing
    # instances on disjoint indices are untouched
    assert "C21[n=2,i=1,j=1,k=1,xi=+,eta=+,eps=-]" not in failing
    assert "C28[n=2,i=1,j=1,k=1,l=1,xi=+,eta=-,eps=+,phi=-]" not in failing
    # deterministic damage profile
    c21 = [x for x in failing if x.startswith("C21")]
    c28 = [x for x in failing if x.startswith("C28")]
    mem_pair = [x for x in failing if x.startswith("MEM.pair")]
    assert len(c21) == 18
    assert len(c28) == 90
    assert len(mem_pair) == 6
    # a failing exact row names its nonzero entries
    row = next(r for r in results if r.id == "C21[n=2,i=1,j=2,k=2,xi=+,eta=+,eps=-]")
    assert row.residual == "nonzero"
    assert row.detail == "1 residual terms: (0,3): 4√2"


_CHEVALLEY = ospclassic.chevalley_from_table


def _added(target: str, i: int, source: tuple) -> object:
    """chevalley_from_table, then target_i += source, where source names a
    Chevalley generator ("e", 2) or an odd generator ("A", (2, +1))."""
    def mutant(A, anti):
        gens = dict(zip("efh", _CHEVALLEY(A, anti)), A=A)
        gens[target][i] = gens[target][i] + gens[source[0]][source[1]]
        return gens["e"], gens["f"], gens["h"]
    return mutant


def _a2_plus_is_a1_plus(n: int) -> dict:
    """Generator set with A_2^+ replaced by A_1^+."""
    A = parabose_set(n)
    A[(2, +1)] = A[(1, +1)]
    return A


# each mutation of the classical layer, and the families of
# verify_classical(3) that must fail under it, each with at least one row
_MUTATIONS = {
    "h1+=e1": ("chevalley_from_table", _added("h", 1, ("e", 1)), {"CCK.hh"}),
    "e1+=e2": ("chevalley_from_table", _added("e", 1, ("e", 2)), {"CS.e.far"}),
    "f1+=f2": ("chevalley_from_table", _added("f", 1, ("f", 2)), {"CS.f.far"}),
    "e1+=h1": ("chevalley_from_table", _added("e", 1, ("h", 1)), {"CS.e.quad"}),
    "f1+=h1": ("chevalley_from_table", _added("f", 1, ("h", 1)), {"CS.f.quad"}),
    "e3+=A2+": ("chevalley_from_table", _added("e", 3, ("A", (2, +1))),
                {"CS.e.quartic"}),
    "f3+=A2-": ("chevalley_from_table", _added("f", 3, ("A", (2, -1))),
                {"CS.f.quartic"}),
    "A2+:=A1+": ("parabose_set", _a2_plus_is_a1_plus, {"SPAN.osp", "SPAN.gl"}),
    "A2+-sign-flip": ("parabose_set", _corrupt_plus2,
                      {"MEM.gen", "MEM.pair", "C21", "C28", "CCK.he", "CCK.hf",
                       "CCK.ef", "CHAIN"}),
}


def _families(rows, ok: bool) -> set[str]:
    return {r.id.split("[")[0] for r in rows if r.ok == ok}


@pytest.mark.parametrize("name", list(_MUTATIONS))
def test_each_classical_mutation_fails_its_families(name, monkeypatch):
    attr, mutant, families = _MUTATIONS[name]
    monkeypatch.setattr(ospclassic, attr, mutant)
    failing = _families(verify_classical(3), ok=False)
    assert families <= failing, families - failing


def test_classical_mutations_cover_every_family():
    rows = verify_classical(3)
    assert all(r.ok for r in rows)
    targets = set().union(*(families for _, _, families in _MUTATIONS.values()))
    assert targets == _families(rows, ok=True)
    assert len(targets) == 17


def test_check_result_rows_serialize():
    rows = [r.to_row() for r in verify_classical(1)]
    for row in rows:
        assert set(row) == {"id", "status", "residual", "detail"}
        assert row["status"] == "pass"
