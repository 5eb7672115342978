"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Each test is a single pass/fail line in the verbose pytest report.  Timing
bounds are asserted where the guarantee includes a runtime budget.
"""

from __future__ import annotations

import cmath
import math
import random
import time

from ospq.fockrep import (
    build_generator_matrix,
    check_decomposition,
    check_matrix_relations,
    check_unitarity,
    check_weights,
    decompose_gl,
    positivity_diagnostic,
)
from ospq.qcoeff import fock_norm_factor
from ospq.uqosp import (
    catalog,
    classical_limit_checks,
    verify_instance,
    verify_relations,
)
from ospq.ospclassic import verify_classical
from ospq.walgebra import AM, AP, KA, DEFAULT_RULES, mul, normal_order

ROOT_GRID = ((1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (2, 5))


def _failing(rows):
    return [r.id for r in rows if not r.ok]


def test_criterion_1_classical_suite_exact_and_fast():
    t0 = time.time()
    for n in (1, 2, 3):
        rows = verify_classical(n)
        assert not _failing(rows), _failing(rows)[:5]
        triple = [r for r in rows if r.id.startswith("C21[")]
        assert len(triple) == 8 * n**3
        quad = [r for r in rows if r.id.startswith("C28[")]
        assert quad and all(r.ok for r in quad)
        span = [r for r in rows if r.id.startswith("SPAN.osp")]
        assert len(span) == 1 and span[0].ok
        expected_dim = 2 * n**2 + 3 * n
        assert str(expected_dim) in span[0].detail
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"classical suite took {elapsed:.1f}s"


def test_criterion_2_quantum_catalog_exact_zero():
    for n in (1, 2):
        rows = verify_relations(n)
        assert not _failing(rows), _failing(rows)[:5]
    t0 = time.time()
    rows = verify_relations(3)
    elapsed = time.time() - t0
    assert len(rows) == 303
    assert not _failing(rows), _failing(rows)[:5]
    assert all(r.residual == "exact-zero" for r in rows)
    assert elapsed < 60.0, f"n=3 catalog took {elapsed:.1f}s"
    # the quartic short-root relation and both Serre shapes are present
    ids = [r.id for r in rows]
    assert any(i.startswith("SERRE_E.quartic") for i in ids)
    assert any(i.startswith("SERRE_F.quartic") for i in ids)
    assert any(i.startswith("CK.ef") for i in ids)
    assert any(i.startswith("G") for i in ids)


def test_criterion_3_classical_limit_of_pre_relations():
    for n in (1, 2, 3):
        rows = classical_limit_checks(n)
        assert rows and not _failing(rows), _failing(rows)[:5]
        if n >= 2:
            # the s = 1 specialization is matched against named instances
            # of the classical triple relation, not just against zero
            mapped = [r for r in rows if "classical instance" in r.detail]
            assert mapped


def test_criterion_4_root_of_unity_matrices():
    t0 = time.time()
    for n, k in ROOT_GRID:
        assert build_generator_matrix("a1+", n, k).matrix.shape == (k**n, k**n)
        uni = check_unitarity(n, k)  # 1e-12 entrywise
        assert not _failing(uni), (n, k, _failing(uni)[:3])
        rel = check_matrix_relations(n, k)  # 1e-9, both routes per instance
        assert not _failing(rel), (n, k, _failing(rel)[:3])
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"matrix grid took {elapsed:.1f}s"


def test_criterion_5_norm_consistency_bridge():
    for n, k in ROOT_GRID:
        rows = check_weights(n, k)  # amplitude^2 vs exact ratios, 1e-10
        assert not _failing(rows), (n, k, _failing(rows)[:3])
    # exhaustive single-mode sweep of every interior transition
    for k in (2, 3, 5, 7):
        mat = build_generator_matrix("a1+", 1, k).matrix.toarray()
        for m in range(k - 1):
            num = complex(fock_norm_factor(m + 1).eval_root(k))
            den = complex(fock_norm_factor(m).eval_root(k))
            assert abs(abs(mat[m + 1, m]) ** 2 - (num / den).real) < 1e-10
    # the squared-norm convention is documented where it is defined
    assert "reciprocal" in (fock_norm_factor.__doc__ or "")


def test_criterion_6_decomposition_counts():
    for n, k in ROOT_GRID:
        dec = decompose_gl(n, k)
        assert len(dec.blocks) == n * k - n + 1
        rows = check_decomposition(n, k)  # dims, invariance, connectivity
        assert not _failing(rows), (n, k, _failing(rows)[:3])
    assert [b.dim for b in decompose_gl(2, 3).blocks] == [1, 2, 3, 2, 1]
    assert [b.dim for b in decompose_gl(3, 2).blocks] == [1, 3, 3, 1]


def test_criterion_7_rewriting_robustness():
    def rand_word(rng, n, max_len=10):
        out = []
        for _ in range(rng.randint(0, max_len)):
            kind = rng.choice([AP, AM, KA, AP, AM])
            mode = rng.randrange(n)
            out.append((kind, mode, rng.choice([1, -1]) if kind == KA else 0))
        return out

    rng = random.Random(90210)
    t0 = time.time()
    for _ in range(10_000):
        n = rng.randint(1, 3)
        w = rand_word(rng, n)
        left = normal_order(w, n=n, strategy="leftmost", contract=True)
        right = normal_order(w, n=n, strategy="rightmost", contract=True)
        assert left == right  # exact coefficient equality
    for _ in range(1_000):
        n = rng.randint(1, 3)
        x = normal_order(rand_word(rng, n, 5), n=n, contract=True)
        y = normal_order(rand_word(rng, n, 5), n=n, contract=True)
        z = normal_order(rand_word(rng, n, 5), n=n, contract=True)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"robustness battery took {elapsed:.1f}s"


def test_criterion_8_negative_controls():
    # generic q: diagnostic instead of matrices
    generic = positivity_diagnostic(1.1)
    assert generic["modulus_ok"] is False
    assert generic["first_non_positive"] is None
    phase_only = positivity_diagnostic(cmath.exp(1.1j))
    assert phase_only["modulus_ok"] is True
    assert phase_only["first_non_positive"] == 3
    at_root = positivity_diagnostic(cmath.exp(1j * math.pi / 4))
    assert at_root["first_non_positive"] == 4  # truncation level m = k
    # corrupted rewriting constant: the catalog fails with named instances
    corrupted = DEFAULT_RULES.corrupted()
    rows = [verify_instance(inst, 2, corrupted) for inst in catalog(2)]
    failing = _failing(rows)
    assert failing, "corrupted rules must break the catalog"
    assert "CK.ef[n=2,i=1,j=1]" in failing
    assert "PRE3[n=2,i=1]" in failing
    passing = {r.id for r in rows if r.ok}
    assert any(i.startswith("CK.kk") for i in passing)
