"""Tests for the finite-dimensional unitary Fock representation."""

from __future__ import annotations

import cmath
import gc
import hashlib
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ospq import fockrep, uqosp
from ospq.cli import _export_labels, main
from ospq.fockrep import (
    block_dims_multinomial,
    block_dims_polynomial,
    build_generator_matrix,
    check_decomposition,
    check_matrix_relations,
    check_unitarity,
    check_weights,
    csv_rows,
    decompose_gl,
    decomposition_to_json,
    matrix_of_expr,
    matrix_of_weyl,
    positivity_diagnostic,
    root_s,
    _amp_plus,
    _connected_blocks,
    _gl_matrix_direct,
)
from ospq.qcoeff import QFrac, fock_norm_factor, q_int
from ospq.report import STRUCTURAL_TOL
from ospq.uqosp import ZERO_EXPR, Gen, Product, Sum, build_gl_generator, catalog, realize
from ospq.walgebra import AM, AP, DEFAULT_RULES, KA, Rules, WeylElement, letter_str, parse_word


def dense(label: str, n: int, k: int) -> np.ndarray:
    return build_generator_matrix(label, n, k).matrix.toarray()


def _occupations(col: int, n: int, k: int) -> tuple[int, ...]:
    """m_1..m_n of basis vector col, m_1 most significant."""
    return tuple(int(x) for x in np.unravel_index(col, (k,) * n))


def test_raising_amplitude_known_value():
    mat = dense("a1+", 1, 2)
    assert abs(mat[1, 0] - 2**0.25) < 1e-12
    assert abs(mat[0, 0]) == 0 and abs(mat[0, 1]) == 0 and abs(mat[1, 1]) == 0


def test_ladder_column_structure():
    for n, k in ((1, 4), (2, 3), (3, 2)):
        for i in range(1, n + 1):
            for sgn in "+-":
                mat = build_generator_matrix(f"a{i}{sgn}", n, k).matrix
                col_counts = np.bincount(mat.col, minlength=k**n)
                assert col_counts.max() <= 1
                for col in range(k**n):
                    m = _occupations(col, n, k)
                    truncated = (
                        m[i - 1] == k - 1 if sgn == "+" else m[i - 1] == 0
                    )
                    assert col_counts[col] == (0 if truncated else 1)


def _per_column_ladder(i, sign, n, k):
    """Reference: a_i^{sign} entries walked one basis vector at a time."""
    entries = {}
    for col in range(k**n):
        m = _occupations(col, n, k)
        prefix = sum(m[: i - 1])
        target = list(m)
        if sign == +1:
            if m[i - 1] == k - 1:
                continue
            target[i - 1] += 1
            amp = _amp_plus(m[i - 1], k) * cmath.exp(-1j * math.pi * prefix / k)
        else:
            if m[i - 1] == 0:
                continue
            target[i - 1] -= 1
            amp = _amp_plus(m[i - 1] - 1, k) * cmath.exp(1j * math.pi * prefix / k)
        entries[int(np.ravel_multi_index(target, (k,) * n)), col] = amp
    return entries


def _per_column_kappa(i, exp, n, k):
    return {
        (idx, idx): cmath.exp(1j * math.pi * exp * _occupations(idx, n, k)[i - 1] / k)
        for idx in range(k**n)
    }


def test_letter_matrices_equal_per_column_formula():
    for n, k in ((1, 4), (2, 3), (3, 2), (2, 4)):
        for i in range(1, n + 1):
            for label, expected in (
                (f"a{i}+", _per_column_ladder(i, +1, n, k)),
                (f"a{i}-", _per_column_ladder(i, -1, n, k)),
                (f"k{i}", _per_column_kappa(i, 1, n, k)),
                (f"k{i}^-1", _per_column_kappa(i, -1, n, k)),
            ):
                mat = build_generator_matrix(label, n, k).matrix
                got = {
                    (int(r), int(c)): complex(v)
                    for r, c, v in zip(mat.row, mat.col, mat.data)
                }
                assert got == expected, (label, n, k)


def test_fock_space_holds_one_shape():
    build_generator_matrix("e1,2", 2, 3)
    build_generator_matrix("a1+", 3, 2)
    misses = fockrep.fock_space.cache_info().misses
    build_generator_matrix("k2", 3, 2)
    assert fockrep.fock_space.cache_info().currsize == 1
    space = fockrep.fock_space(3, 2)
    assert fockrep.fock_space.cache_info().misses == misses  # the same space
    assert (space.n, space.k, space.dim) == (3, 2, 8)
    # the letters of this shape only, each built once and then shared
    assert {(AP, 0, 0), (KA, 1, 1)} <= set(space.letters)
    assert all(0 <= mode < 3 for _, mode, _ in space.letters)
    assert all(len(w) == 8 for op in space.letters.values() for w in op.values())
    assert space.letter((AP, 0, 0)) is space.letters[AP, 0, 0]
    assert space.digits.shape == (8, 3) and not space.digits.flags.writeable
    with pytest.raises(ValueError):
        space.digits[0, 0] = 1


@pytest.mark.parametrize("n, k", [(0, 3), (2, 1)])
def test_every_entry_point_refuses_a_bad_shape(n, k):
    calls = [
        lambda: build_generator_matrix("a1+", n, k),
        lambda: build_generator_matrix("e1,2", n, k),
        lambda: matrix_of_expr(Gen("A", 1, +1), n, k),
        lambda: check_unitarity(n, k),
        lambda: check_weights(n, k),
        lambda: check_matrix_relations(n, k),
        lambda: check_decomposition(n, k),
        lambda: decompose_gl(n, k),
    ]
    if n >= 1:
        calls.append(lambda: matrix_of_weyl(realize(Gen("A", 1, +1), n), k))
    message = "mode count must be at least 1" if n < 1 else "root order k must be at least 2"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def _program_objects():
    """Weak references to what the module builds for one shape: the space,
    its digits, a letter's weights, the labels and the decomposition."""
    check_unitarity(2, 3)
    check_decomposition(2, 3)
    space = fockrep.fock_space(2, 3)
    ((_, w),) = space.letter((AP, 0, 0)).items()
    return [weakref.ref(x) for x in (space, space.digits, w, space.labels,
                                     space.decomposition)]


def test_clearing_every_cache_starts_cold():
    # the benchmark starts each sweep cold by calling every cache_clear it
    # finds in the module: nothing of a shape may outlive that
    refs = _program_objects()
    assert all(ref() is not None for ref in refs)
    for value in list(vars(fockrep).values()):
        clear = getattr(value, "cache_clear", None)
        if callable(clear):
            clear()
    assert fockrep.fock_space.cache_info().currsize == 0
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    # nor does any other module-level object hold one: no dict of letters
    for name, value in vars(fockrep).items():
        if not name.startswith("__"):
            assert not isinstance(value, (fockrep.FockSpace, np.ndarray,
                                          fockrep.GlDecomposition, dict)), name


def test_structural_checks_at_size_guard_are_fast():
    t0 = time.perf_counter()
    rows = check_unitarity(5, 10) + check_weights(5, 10) + check_decomposition(5, 10)
    elapsed = time.perf_counter() - t0
    assert rows and all(r.ok for r in rows)
    assert elapsed < 15.0, f"checks at k^n = 10^5 took {elapsed:.1f}s"


def test_norm_ratio_is_c_times_q_integer():
    # the ratio check_weights evaluates at the root is exact
    for m in range(20):
        step = QFrac(2 * q_int(m + 1), 1, 0)
        assert fock_norm_factor(m + 1) == fock_norm_factor(m) * step


def test_weights_at_large_k_pass_and_are_fast():
    # the full norm factors c^m [m]! cancel at the root (norm_ratio residual
    # 1.3e-7 at k = 30 and 2.7e-4 at k = 40); their level ratios do not
    t0 = time.perf_counter()
    rows = check_weights(1, 30) + check_weights(1, 40)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"check_weights(1, 30) and (1, 40) took {elapsed:.1f}s"
    assert len(rows) == 6 and all(r.ok for r in rows)
    assert all(r.residual < 1e-12 for r in rows)


def test_kappa_weight_on_basis_vector():
    # kappa_2 |0,1> = e^{i pi / 3} |0,1> for k = 3
    mat = dense("k2", 2, 3)
    idx = int(np.ravel_multi_index((0, 1), (3, 3)))
    assert abs(mat[idx, idx] - cmath.exp(1j * math.pi / 3)) < 1e-14
    off = mat - np.diag(np.diag(mat))
    assert np.abs(off).max() == 0.0


def test_unitarity_rows():
    for n, k in ((1, 2), (2, 3), (3, 2), (2, 5)):
        rows = check_unitarity(n, k)
        assert rows and all(r.ok for r in rows)
        assert all(r.residual < 1e-12 for r in rows)


def test_weight_rows_and_norm_bridge():
    for n, k in ((2, 3), (1, 6), (3, 2)):
        rows = check_weights(n, k)
        assert rows and all(r.ok for r in rows)


def test_weight_rows_golden_digest():
    # the repr of every WGT residual over the acceptance ROOT_GRID plus larger
    # shapes: the expected tables come from walgebra.fock_letter at the root,
    # and a change that moves any last bit of them or of the letters shows here
    grid = ((1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (2, 5))
    digest = hashlib.sha256()
    count = 0
    for n, k in grid + ((3, 4), (4, 3), (4, 10), (5, 6), (2, 316)):
        for r in check_weights(n, k):
            digest.update(f"{r.id}|{r.ok}|{r.residual!r}\n".encode())
            count += 1
    assert count == 54
    assert digest.hexdigest() == (
        "6f484c4d8196cceefd98c240ff1dc06eb1b47e01615dadad34f49ac3cce7d878"
    )


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="names numpy's x86 dispatch targets")
def test_weight_and_coefficient_digests_hold_without_simd_dispatch():
    # unlike the matrix residuals, these two digests do not depend on which
    # SIMD loops numpy dispatches to: rerun them with AVX2 and AVX-512 off
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_fockrep.py::test_weight_rows_golden_digest",
         "tests/test_qcoeff.py::test_coefficient_layer_golden_digest"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert re.search(r"^2 passed\b", proc.stdout, re.M), proc.stdout[-2000:]


def _failing_families(rows):
    return {r.id.split("[")[0] for r in rows if not r.ok}


def test_weight_rows_fail_under_phase_mutations(monkeypatch):
    shapes = ((2, 3), (3, 4))
    for n, k in shapes:
        assert not _failing_families(check_weights(n, k))
    # the letters: every a^+ weight carries the phase of the next prefix sum
    letter = fockrep.FockSpace.letter

    def shifted_letter(space, x):
        op = letter(space, x)
        step = cmath.exp(-1j * math.pi / space.k)
        return {d: w * step for d, w in op.items()} if x[0] == AP else op

    with monkeypatch.context() as patch:
        patch.setattr(fockrep.FockSpace, "letter", shifted_letter)
        for n, k in shapes:
            assert _failing_families(check_weights(n, k)) == {"WGT.phase"}, (n, k)
    # the exact action: every s-power sign flipped (s -> s^-1), which leaves
    # the level ratios c [m+1] as they are
    action = fockrep.fock_letter

    def flipped_action(letter, m):
        coeff, image = action(letter, m)
        return coeff.conjugate(), image

    monkeypatch.setattr(fockrep, "fock_letter", flipped_action)
    for n, k in shapes:
        assert _failing_families(check_weights(n, k)) == {"WGT.kappa", "WGT.phase"}, (n, k)


def test_squared_amplitudes_match_exact_norm_ratios():
    for k in (2, 3, 5, 7):
        mat = dense("a1+", 1, k)
        for m in range(k - 1):
            num = complex(fock_norm_factor(m + 1).eval_root(k))
            den = complex(fock_norm_factor(m).eval_root(k))
            assert abs(abs(mat[m + 1, m]) ** 2 - (num / den).real) < 1e-10


def test_matrix_relations_small():
    rows = check_matrix_relations(1, 2)
    assert len(rows) == 14 and all(r.ok for r in rows)
    rows = check_matrix_relations(2, 3)
    assert len(rows) == 99 and all(r.ok for r in rows)
    assert all(r.residual < 1e-9 for r in rows)


def test_perturbed_letter_fails_unitarity_and_relations(monkeypatch):
    # negative control: one wrong weight in a letter of the space must show
    # up both entrywise and in the relations built from it
    n, k = 2, 3
    assert all(r.ok for r in check_unitarity(n, k))
    letters = fockrep.fock_space(n, k).letters
    ((d, w),) = letters[AP, 0, 0].items()
    bad = w.copy()
    bad[np.flatnonzero(w)[0]] *= 1.001
    monkeypatch.setitem(letters, (AP, 0, 0), {d: bad})
    rows = {r.id: r for r in check_unitarity(n, k)}
    assert not rows["UNI.adjoint[n=2,k=3,i=1]"].ok
    assert rows["UNI.adjoint[n=2,k=3,i=2]"].ok
    weights = {r.id: r for r in check_weights(n, k)}
    assert not weights["WGT.norm_ratio[n=2,k=3]"].ok
    failing = [r.id for r in check_matrix_relations(n, k) if not r.ok]
    assert any(i.startswith("MAT.") for i in failing)
    # the per-call memo cannot hide it: a second call builds afresh, and the
    # same rows fail
    assert [r.id for r in check_matrix_relations(n, k) if not r.ok] == failing
    # every check above read the one space that holds the planted letter
    assert fockrep.fock_space(n, k).letters[AP, 0, 0][d] is bad


def test_matrix_relations_three_modes():
    rows = check_matrix_relations(3, 2)
    assert len(rows) == 303 and all(r.ok for r in rows)


def test_matrix_residuals_golden_digest():
    # the repr of every residual, over the acceptance ROOT_GRID plus larger
    # shapes: a change that moves any last bit of any route shows here.
    # These bits follow numpy's CPU dispatch (see fockrep._cmul): pinned on
    # an x86 machine with numpy's AVX-512 loops in use, the digest reads
    # 8eedfc41... under NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL
    # AVX512_SPR"
    grid = ((1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (2, 5))
    digest = hashlib.sha256()
    count = 0
    for n, k in grid + ((3, 4), (4, 3), (2, 7), (1, 50)):
        for r in check_matrix_relations(n, k):
            digest.update(f"{r.id}|{r.ok}|{r.residual!r}\n".encode())
            count += 1
    assert count == 1752
    assert digest.hexdigest() == (
        "3e69973ee07688999326a8940bc81ea76477d87597e255f13076f104495978ae"
    )


def test_matrix_relations_realize_each_catalog_once(monkeypatch):
    # realize runs once per side of each pattern, never per instance; the
    # calls it makes on subexpressions go through it too, so only the
    # outermost calls count
    calls = []
    depth = [0]
    real = uqosp.realize

    def counting(x, n, rules=DEFAULT_RULES):
        if not depth[0]:
            calls.append((x, n))
        depth[0] += 1
        try:
            return real(x, n, rules)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(uqosp, "realize", counting)
    uqosp._relation_patterns.cache_clear()
    check_matrix_relations(3, 2)
    # the table check_matrix_relations read, so a hit, not a second table
    patterns = {id(p): p for _, _, p in uqosp.relation_patterns(3, DEFAULT_RULES)}.values()
    assert sorted((id(x), n) for x, n in calls) == sorted(
        (id(side), p.n) for p in patterns for side in (p.lhs, p.rhs))
    assert len(calls) == 2 * 168 < 2 * 303
    assert uqosp._relation_patterns.cache_info().misses == 1
    # the normal forms do not depend on k: a second root order reads them
    realized = len(calls)
    check_matrix_relations(3, 4)
    assert len(calls) == realized
    assert uqosp._relation_patterns.cache_info().misses == 1


def test_relation_patterns_share_one_entry_however_the_rules_are_passed(monkeypatch):
    check_matrix_relations(3, 2)
    calls = []
    real = uqosp.realize
    monkeypatch.setattr(uqosp, "realize", lambda *args: calls.append(args) or real(*args))
    tables = [uqosp.relation_patterns(3), uqosp.relation_patterns(3, DEFAULT_RULES),
              uqosp.relation_patterns(3, rules=DEFAULT_RULES)]
    assert calls == [] and all(t is tables[0] for t in tables)


def _full_space_residuals(n, k, rules=DEFAULT_RULES):
    """Every instance evaluated on the whole k^n space, both routes, as the
    reference for the residuals read on the touched modes."""
    space = fockrep.FockSpace(n, k)
    memo = {}
    out = {}
    for inst in catalog(n):
        lhs = fockrep._matrix_of_expr(inst.lhs, space, memo)
        rhs = fockrep._matrix_of_expr(inst.rhs, space, memo)
        sym_lhs = fockrep._matrix_of_weyl(realize(inst.lhs, n, rules).terms(), space, memo)
        sym_rhs = fockrep._matrix_of_weyl(realize(inst.rhs, n, rules).terms(), space, memo)
        out[f"MAT.{inst.id}[k={k}]"] = max(
            fockrep._residual(lhs, rhs),
            fockrep._residual(sym_lhs, lhs),
            fockrep._residual(sym_rhs, rhs),
        )
    return out


@pytest.mark.parametrize("n,k", [(3, 4), (4, 5), (2, 7)])
def test_scaled_reduced_residuals_equal_the_full_space_ones(n, k):
    # under corrupted rules the residuals are far from rounding, so the
    # touched-mode residual, scaled by sqrt(k^(n-|S|)), must equal the one
    # on the whole space to rounding, with the same rows failing
    rules = Rules.corrupted()
    rows = check_matrix_relations(n, k, rules=rules)
    reference = _full_space_residuals(n, k, rules)
    assert [r.id for r in rows] == list(reference)
    failing = [r.id for r in rows if not r.ok]
    assert failing == [i for i, res in reference.items() if not res < fockrep.RESIDUAL_TOL]
    assert len(failing) > 20
    reduced = 0
    for r in rows:
        if r.id in failing:
            assert abs(r.residual / reference[r.id] - 1) < 1e-12, r.id
            reduced += "sqrt" in r.detail
    assert reduced > 0


@pytest.mark.parametrize("n,k,whole", [(2, 5, 75), (3, 4, 82), (4, 3, 21)])
def test_rows_on_every_mode_are_bit_identical_to_the_full_space(n, k, whole):
    reference = _full_space_residuals(n, k)
    touched = {f"MAT.{inst.id}[k={k}]": modes
               for inst, modes, _ in uqosp.relation_patterns(n, DEFAULT_RULES)}
    rows = [r for r in check_matrix_relations(n, k) if len(touched[r.id]) == n]
    assert len(rows) == whole
    for r in rows:
        assert r.residual == reference[r.id], r.id
        assert r.detail == f"matrix residual on modes {','.join(map(str, range(1, n + 1)))} of {n}"


def test_matrix_rows_name_the_touched_modes_and_the_scale():
    rows = {r.id: r for r in check_matrix_relations(3, 2)}
    assert rows["MAT.PRE3[n=3,i=2][k=2]"].detail == "matrix residual on modes 2 of 3, x sqrt(k^2)"
    assert rows["MAT.CK.ke[n=3,i=1,j=3][k=2]"].detail == (
        "matrix residual on modes 1,2,3 of 3")
    assert rows["MAT.CK.kk[n=3,i=3][k=2]"].detail == (
        "matrix residual on modes 3 of 3, x sqrt(k^2)")


def test_matrix_relations_at_the_size_guard_are_fast():
    for n, k, bound in ((5, 10, 4.0), (4, 17, 3.0)):
        start = time.perf_counter()
        rows = check_matrix_relations(n, k)
        elapsed = time.perf_counter() - start
        assert len(rows) == len(catalog(n)) and all(r.ok for r in rows), (n, k)
        assert elapsed < bound, f"relations at ({n}, {k}) took {elapsed:.1f}s"


def _spy_on_memos(monkeypatch, fresh=False):
    """Wrap both evaluators; the returned list gets the memo of every
    outermost call.  With fresh, every call, inner ones too, gets a memo of
    its own in place of the one passed."""
    outer = []
    depth = [0]

    def wrap(real):
        def spy(x, space, memo):
            if fresh:
                memo = {}
            if not depth[0]:
                outer.append(memo)
            depth[0] += 1
            try:
                return real(x, space, memo)
            finally:
                depth[0] -= 1
        return spy

    for name in ("_matrix_of_expr", "_matrix_of_weyl"):
        monkeypatch.setattr(fockrep, name, wrap(getattr(fockrep, name)))
    return outer


def test_only_check_matrix_relations_shares_a_memo(monkeypatch):
    outer = _spy_on_memos(monkeypatch)
    n, k = 2, 3
    check_unitarity(n, k)
    check_decomposition(n, k)
    build_generator_matrix("L1", n, k)
    matrix_of_expr(Gen("e", 1), n, k)
    matrix_of_weyl(realize(Gen("f", 1), n), k)
    # every one-shot expression gets a memo of its own
    assert len(outer) > 5 and len({id(m) for m in outer}) == len(outer)
    outer.clear()
    check_matrix_relations(n, k)
    first = outer[:]
    outer.clear()
    check_matrix_relations(n, k)
    # one memo per call, shared by every pattern, then dropped
    assert len(first) == 4 * 86 and all(m is first[0] for m in first)
    assert outer[0] is not first[0] and all(m is outer[0] for m in outer)


def test_memo_keeps_rows_and_only_letters_outlive_the_call(monkeypatch):
    def rows():
        return [(r.id, r.ok, repr(r.residual)) for r in check_matrix_relations(3, 2)]

    with monkeypatch.context() as m:
        _spy_on_memos(m, fresh=True)
        unshared = rows()
    outer = _spy_on_memos(monkeypatch)
    assert rows() == unshared
    memo = outer[0]  # one memo shared across the catalog, then dropped
    stored = [w for op in memo.values() for w in op.values()]
    assert stored
    for w in stored:
        with pytest.raises(ValueError):
            w[0] = 0  # shared with later rows, so read-only
    # nothing but letters outlives the call: the space holds no memo, and
    # every operator it keeps is one letter's shift
    space = fockrep.fock_space(3, 2)
    assert set(vars(space)) <= {"n", "k", "dim", "digits", "letters", "labels",
                                "decomposition"}
    assert space.letters
    for (kind, mode, exp), op in space.letters.items():
        assert kind in (AP, AM, KA) and 0 <= mode < 3 and len(op) == 1


def test_cartan_anticommutator_as_two_by_two_matrices():
    # {e_1, f_1} = (k_1 - k_1^{-1}) / (q - q^{-1}) at n = 1, k = 2 (q = i)
    e1 = matrix_of_expr(Gen("e", 1), 1, 2).toarray()
    f1 = matrix_of_expr(Gen("f", 1), 1, 2).toarray()
    lhs = e1 @ f1 + f1 @ e1
    kmat = matrix_of_expr(Gen("k", 1), 1, 2).toarray()
    kinv = matrix_of_expr(Gen("k", 1, -1), 1, 2).toarray()
    q = 1j
    rhs = (kmat - kinv) / (q - 1 / q)
    assert np.abs(lhs - rhs).max() < 1e-12
    assert np.abs(lhs + 2**-0.5 * np.eye(2)).max() < 1e-12


def _letter_gen(letter):
    """A letter as a U_q expression: a_i^+- = phi(A_i^+-) and
    kappa_i^e = s^{-e} phi(L_i^{-e})."""
    kind, mode, exp = letter
    if kind == KA:
        return uqosp.scaled(QFrac.s_pow(-exp), Gen("L", mode + 1, -exp))
    return Gen("A", mode + 1, +1 if kind == AP else -1)


def test_symbolic_and_matrix_routes_agree_on_random_words():
    rng = random.Random(40917)
    words = []
    for _ in range(25):
        n = rng.choice((1, 2, 3))
        k = rng.choice((2, 3))
        letters = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice((AP, KA, AM))
            mode = rng.randrange(n)
            exp = rng.choice((1, -1)) if kind == KA else 0
            letters.append((kind, mode, exp))
        words.append((n, k, letters))
    # words that raise past k - 1 or lower below 0 on some basis vectors,
    # and words whose every shift leaves the space
    words += [
        (2, 3, [(AP, 0, 0), (AP, 1, 0), (AP, 1, 0)]),
        (2, 3, [(AM, 1, 0), (AM, 1, 0), (AP, 0, 0), (KA, 1, 1)]),
        (3, 2, [(AM, 0, 0), (AP, 2, 0), (AM, 0, 0)]),
        (1, 3, [(AP, 0, 0)] * 3),
    ]
    for n, k, letters in words:
        direct = np.eye(k**n, dtype=complex)
        for letter in letters:
            direct = direct @ dense(letter_str(letter), n, k)
        ordered = WeylElement.from_word(n, letters)
        sym = matrix_of_weyl(ordered, k).toarray()
        assert np.abs(direct - sym).max() < 1e-9
        word = Product(tuple(_letter_gen(letter) for letter in letters))
        assert np.abs(direct - matrix_of_expr(word, n, k).toarray()).max() < 1e-12


def test_gl_root_vector_routes_agree():
    for n, k in ((2, 3), (3, 2)):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                explicit = dense(f"e{i},{j}", n, k)
                realized = matrix_of_expr(
                    build_gl_generator(n, i, j), n, k
                ).toarray()
                via_weyl = matrix_of_weyl(
                    realize(build_gl_generator(n, i, j), n), k
                ).toarray()
                assert np.abs(explicit - realized).max() < 1e-12
                assert np.abs(explicit - via_weyl).max() < 1e-12


def test_long_root_vector_matrix_form():
    # pi(e_12) = -cos(pi/(2k)) kappa_2 a_2^+ a_1^- entry by entry
    n, k = 2, 3
    kap = dense("k2", n, k)
    up = dense("a2+", n, k)
    dn = dense("a1-", n, k)
    expected = -math.cos(math.pi / (2 * k)) * (kap @ up @ dn)
    assert np.abs(dense("e1,2", n, k) - expected).max() < 1e-14


def test_decomposition_dims_frozen():
    dec = decompose_gl(2, 3)
    assert [(b.m, b.dim) for b in dec.blocks] == [
        (0, 1), (1, 2), (2, 3), (3, 2), (4, 1),
    ]
    dec = decompose_gl(3, 2)
    assert [b.dim for b in dec.blocks] == [1, 3, 3, 1]
    dec = decompose_gl(1, 5)
    assert [b.dim for b in dec.blocks] == [1] * 5
    # blocks partition the basis
    seen = sorted(idx for b in dec.blocks for idx in b.indices)
    assert seen == list(range(5))


def test_dimension_oracles_agree():
    rng = random.Random(61402)
    for _ in range(12):
        n = rng.randint(1, 4)
        k = rng.randint(2, 6)
        if k**n > 5000:
            continue
        poly = block_dims_polynomial(n, k)
        multi = block_dims_multinomial(n, k)
        assert poly == multi
        assert len(poly) == n * (k - 1) + 1
        assert sum(poly) == k**n
        assert poly == poly[::-1]  # symmetric under m -> n(k-1) - m


def test_multinomial_oracle_at_long_occupation_ranges():
    # one mode with a thousand levels used to exceed the recursion limit
    assert block_dims_multinomial(1, 1000) == [1] * 1000
    for n, k in ((1, 2), (2, 3), (3, 5), (4, 10), (5, 10), (2, 316), (3, 46), (1, 10**5)):
        assert block_dims_multinomial(n, k) == block_dims_polynomial(n, k)


def test_decomposition_checks_pass():
    for n, k in ((2, 3), (3, 2), (2, 4)):
        rows = check_decomposition(n, k)
        assert rows and all(r.ok for r in rows)
        ids = [r.id for r in rows]
        assert len(ids) == len(set(ids))
        assert any(r.id.startswith("DEC.root_form") for r in rows)
        assert any(r.id.startswith("OSP.connected") for r in rows)


def test_one_mode_decomposition_at_long_occupation_ranges_is_fast():
    t0 = time.perf_counter()
    rows = check_decomposition(1, 20000)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 2 * 20000 + 1 and all(r.ok for r in rows)
    assert elapsed < 10.0, f"check_decomposition(1, 20000) took {elapsed:.1f}s"


def test_block_invariance_is_exact():
    n, k = 2, 4
    dec = decompose_gl(n, k)
    block_of = {}
    for b in dec.blocks:
        for idx in b.indices:
            block_of[idx] = b.m
    for i, j in ((1, 2), (2, 1)):
        mat = build_generator_matrix(f"e{i},{j}", n, k).matrix
        for r, c in zip(mat.row, mat.col):
            assert block_of[int(r)] == block_of[int(c)]


def test_strong_connectivity_needs_both_directions():
    n, k = 2, 3
    dec = decompose_gl(n, k)
    labels = np.empty(k**n, dtype=np.int64)
    for b in dec.blocks:
        labels[list(b.indices)] = b.m
    block = next(b for b in dec.blocks if b.m == 1)
    space = fockrep.fock_space(n, k)
    one_way = _edges([_gl_matrix_direct(1, 2, space)], labels)
    both = one_way + _edges([_gl_matrix_direct(2, 1, space)], labels)
    assert not _connected_blocks(one_way, labels)[block.m]
    assert _connected_blocks(both, labels)[block.m]


def _edges(ops, labels):
    """The edge masks check_decomposition reads: (d, has) with has[col] where
    the weight has modulus above STRUCTURAL_TOL and col + d is in col's block."""
    edges = []
    for op in ops:
        for d, w in op.items():
            has = fockrep._modulus(w) > STRUCTURAL_TOL
            cols = np.flatnonzero(has)
            has[cols] = labels[cols] == labels[cols + d]
            edges.append((d, has))
    return edges


def _connected_blocks_csgraph(edges, labels):
    """Reference verdicts: the same edges as a CSR graph, split into strongly
    connected components by scipy."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    srcs = [np.empty(0, dtype=np.int64)]
    dsts = [np.empty(0, dtype=np.int64)]
    for d, has in edges:
        cols = np.flatnonzero(has)
        srcs.append(cols)
        dsts.append(cols + d)
    src = np.concatenate(srcs)
    adj = sparse.csr_matrix(
        (np.ones(len(src), dtype=np.int8), (src, np.concatenate(dsts))),
        shape=(len(labels), len(labels)),
    )
    _, comp = connected_components(adj, directed=True, connection="strong")
    label_comp = np.unique(np.stack([labels, comp]), axis=1)
    return np.bincount(label_comp[0]) == 1


def test_connectivity_search_matches_csgraph():
    pytest.importorskip("scipy")
    for n, k in ((2, 3), (3, 4), (4, 10), (5, 6), (2, 316), (1, 50)):
        space = fockrep.fock_space(n, k)
        labels = space.labels
        whole = np.zeros(k**n, dtype=np.int64)
        gl = {
            (i, j): _gl_matrix_direct(i, j, space)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        }
        ladder = [space.letter((kind, mode, 0)) for mode in range(n) for kind in (AP, AM)]
        cases = [
            (list(gl.values()), labels),
            ([op for (i, j), op in gl.items() if i < j], labels),
            (ladder, whole),
            (ladder[::2], whole),  # a+ only
            (ladder, labels),  # every edge leaves its block
        ]
        if n == 2:
            # a block of two modes is a chain, so one missing step cuts it
            ((d, w),) = gl[1, 2].items()
            w = w.copy()
            col = np.flatnonzero(w)[0]
            w[col] = 0
            cases.append(([{d: w}, gl[2, 1]], labels))
        verdicts = []
        for ops, blocks in cases:
            edges = _edges(ops, blocks)
            got = _connected_blocks(edges, blocks)
            assert np.array_equal(got, _connected_blocks_csgraph(edges, blocks)), (n, k)
            verdicts.append(got)
        assert verdicts[0].all() and verdicts[2].all()
        assert not verdicts[3].any()
        if n == 2:
            assert not verdicts[5][labels[col]] and verdicts[5].sum() == len(verdicts[5]) - 1


def test_root_forms_are_evaluated_once_per_order_type(monkeypatch):
    # both forms of e_ij touch modes i and j alone: the realized side is built
    # on two modes, once for i < j and once for i > j, and never at n = 1
    build = fockrep.build_gl_generator
    calls = []

    def counted(n, i, j):
        calls.append((n, i, j))
        return build(n, i, j)

    monkeypatch.setattr(fockrep, "build_gl_generator", counted)
    for n, k, expected in ((3, 4, [(2, 1, 2), (2, 2, 1)]), (5, 6, [(2, 1, 2), (2, 2, 1)]),
                           (1, 5, [])):
        calls.clear()
        assert all(r.ok for r in check_decomposition(n, k))
        assert calls == expected, (n, k)


def test_connectivity_reads_boolean_edge_masks(monkeypatch):
    search = fockrep._connected_blocks
    seen = []

    def spy(edges, labels):
        seen.extend((type(d), has.dtype, has.shape) for d, has in edges)
        return search(edges, labels)

    monkeypatch.setattr(fockrep, "_connected_blocks", spy)
    check_decomposition(3, 4)
    # six root vectors and six ladder letters, one shift each
    assert len(seen) == 12
    assert set(seen) == {(int, np.dtype(bool), (4**3,))}


def test_root_form_rows_name_the_modes_and_the_scale():
    rows = {r.id: r for r in check_decomposition(4, 3)}
    for e in ("1,3", "3,1"):
        assert rows[f"DEC.root_form[n=4,k=3,e={e}]"].detail == (
            "explicit form vs realized root vector on modes 1,3 of 4, x sqrt(k^2)")
    rows = {r.id: r for r in check_decomposition(2, 3)}
    assert rows["DEC.root_form[n=2,k=3,e=2,1]"].detail == (
        "explicit form vs realized root vector on modes 1,2 of 2")


def _scale_realized_root_vectors(monkeypatch, factor):
    build = fockrep.build_gl_generator
    monkeypatch.setattr(fockrep, "build_gl_generator",
                        lambda n, i, j: uqosp.scaled(QFrac(factor), build(n, i, j)))


@pytest.mark.parametrize("n,k", [(3, 4), (4, 5), (5, 6)])
def test_root_forms_on_two_modes_equal_the_full_space_ones(monkeypatch, n, k):
    # with the realized e_ij scaled by 1.01 the residuals are far from
    # rounding: every row fails, and each equals, to rounding, the residual
    # of the two forms on the whole space
    _scale_realized_root_vectors(monkeypatch, Fraction(101, 100))
    rows = [r for r in check_decomposition(n, k) if r.id.startswith("DEC.root_form")]
    assert len(rows) == n * (n - 1)
    space = fockrep.fock_space(n, k)
    for r in rows:
        i, j = map(int, re.search(r"e=(\d+),(\d+)", r.id).groups())
        reference = fockrep._residual(
            _gl_matrix_direct(i, j, space),
            fockrep._matrix_of_expr(fockrep.build_gl_generator(n, i, j), space, {}))
        assert not r.ok
        assert abs(r.residual / reference - 1) < 1e-12, r.id


# ---------------------------------------------------------------------------
# every family `rep` and `decompose` report fails under a named mutation
# ---------------------------------------------------------------------------


def _scale_letter(monkeypatch, space, letter, factor, where):
    """Multiply the weights of a letter of the space by factor wherever
    where(digits) holds."""
    ((d, w),) = space.letter(letter).items()
    bad = w.copy()
    bad[where(space.digits)] *= factor
    monkeypatch.setitem(space.letters, letter, {d: bad})


def _phase_step(monkeypatch, space):
    letter = fockrep.FockSpace.letter

    def shifted_letter(self, x):
        op = letter(self, x)
        step = cmath.exp(-1j * math.pi / self.k)
        return {d: w * step for d, w in op.items()} if x[0] == AP else op

    monkeypatch.setattr(fockrep.FockSpace, "letter", shifted_letter)


def _conjugated_action(monkeypatch, space):
    action = fockrep.fock_letter

    def flipped(letter, m):
        coeff, image = action(letter, m)
        return coeff.conjugate(), image

    monkeypatch.setattr(fockrep, "fock_letter", flipped)


def _corrupted_rules(monkeypatch, space):
    patterns = fockrep.relation_patterns
    monkeypatch.setattr(fockrep, "relation_patterns",
                        lambda n, rules: patterns(n, Rules.corrupted()))


def _polynomial_off_by_one(monkeypatch, space):
    poly = fockrep.block_dims_polynomial
    monkeypatch.setattr(fockrep, "block_dims_polynomial",
                        lambda n, k: [d + (m == 0) for m, d in enumerate(poly(n, k))])


def _raising_root_vectors(monkeypatch, space):
    # e_ij ~ a_j^+ a_i^+: raises the total number by two, so leaves its block
    def raising(i, j, space):
        word = ((AP, j - 1, 0), (AP, i - 1, 0))
        return fockrep._sum([(-math.cos(math.pi / (2 * space.k)), space.word(word))])

    monkeypatch.setattr(fockrep, "_gl_matrix_direct", raising)


def _cut_e12_edge(monkeypatch, space):
    # at n = 2 a block is a chain, so one missing step of e_12 cuts it
    direct = fockrep._gl_matrix_direct

    def cut(i, j, space):
        op = direct(i, j, space)
        if (i, j) != (1, 2):
            return op
        ((d, w),) = op.items()
        w = w.copy()
        w[np.flatnonzero(w)[0]] = 0
        return {d: w}

    monkeypatch.setattr(fockrep, "_gl_matrix_direct", cut)


_MUTATIONS = {
    "a1+ x1.001 at one state": lambda patch, space: _scale_letter(
        patch, space, (AP, 0, 0), 1.001, lambda m: np.arange(len(m)) == 0),
    "kappa1 x1.001 at one state": lambda patch, space: _scale_letter(
        patch, space, (KA, 0, 1), 1.001, lambda m: np.arange(len(m)) == 0),
    "a1- cut at m_1 = 1": lambda patch, space: _scale_letter(
        patch, space, (AM, 0, 0), 0.0, lambda m: m[:, 0] == 1),
    "a+ phases one step off": _phase_step,
    "exact action conjugated": _conjugated_action,
    "corrupted rewriting rules": _corrupted_rules,
    "polynomial oracle off by one": _polynomial_off_by_one,
    "e_ij raises mode i": _raising_root_vectors,
    "realized e_ij x1.01": lambda patch, space: _scale_realized_root_vectors(
        patch, Fraction(101, 100)),
    "e_12 edge cut": _cut_e12_edge,
}

_FAMILY_MUTATION = {
    "UNI.adjoint": "a1+ x1.001 at one state",
    "UNI.diag": "kappa1 x1.001 at one state",
    "WGT.kappa": "exact action conjugated",
    "WGT.norm_ratio": "a1+ x1.001 at one state",
    "WGT.phase": "a+ phases one step off",
    "MAT": "corrupted rewriting rules",
    "DEC.dim": "polynomial oracle off by one",
    "DEC.invariant": "e_ij raises mode i",
    "DEC.root_form": "realized e_ij x1.01",
    "DEC.connected": "e_12 edge cut",
    "OSP.connected": "a1- cut at m_1 = 1",
}


def _families(capsys, command, n, k):
    """Every family the command reports at (n, k), with whether a row of it
    fails; MAT rows form one family."""
    main([command, "--n", str(n), "--k", str(k), "--format", "json"])
    out: dict[str, bool] = {}
    for row in json.loads(capsys.readouterr().out)["results"]:
        family = "MAT" if row["id"].startswith("MAT.") else row["id"].split("[")[0]
        out[family] = out.get(family, False) or row["status"] != "pass"
    return out


def test_every_representation_family_has_a_mutation(capsys):
    emitted = set()
    for command, n, k in (("rep", 2, 3), ("rep", 3, 4), ("decompose", 2, 3)):
        families = _families(capsys, command, n, k)
        assert not any(families.values()), (command, n, k)
        emitted |= set(families)
    assert set(_FAMILY_MUTATION) == emitted
    assert set(_FAMILY_MUTATION.values()) == set(_MUTATIONS)


@pytest.mark.parametrize("family", list(_FAMILY_MUTATION))
def test_each_representation_family_fails_under_its_mutation(family, monkeypatch, capsys):
    _MUTATIONS[_FAMILY_MUTATION[family]](monkeypatch, fockrep.fock_space(2, 3))
    families = _families(capsys, "rep", 2, 3)
    assert families[family], sorted(f for f, bad in families.items() if bad)
    if family.startswith(("DEC.", "OSP.")):
        assert _families(capsys, "decompose", 2, 3)[family]


def _entries_csr(op, dim):
    """Reference entries: the shifts as scipy's DIA storage with offset -d,
    converted to CSR and read row by row with the columns sorted."""
    from scipy import sparse

    data = np.array(list(op.values()), dtype=np.complex128).reshape(len(op), dim)
    mat = sparse.dia_matrix((data, [-d for d in op]), shape=(dim, dim)).tocsr()
    rows = np.repeat(np.arange(dim), np.diff(mat.indptr))
    order = np.lexsort((mat.indices, rows))
    return rows[order], mat.indices[order], mat.data[order]


def _named_op(label, space):
    """The operator an a/k/L label names, built apart from
    build_generator_matrix: a letter read by parse_word, or the leaf L_i."""
    if label.startswith("L"):
        return fockrep._matrix_of_expr(Gen("L", int(label[1:])), space, {})
    ((letter,), _) = parse_word(label, space.n)
    assert letter_str(letter) == label
    return space.letter(letter)


def _assert_entries_match_csr(mat, op):
    row, col, data = _entries_csr(op, mat.shape[0])
    assert mat.nnz == len(data)
    assert np.array_equal(mat.row, row)
    assert np.array_equal(mat.col, col)
    assert np.array_equal(mat.data, data)


def test_entries_match_scipy_csr_in_order():
    pytest.importorskip("scipy")
    for n, k in ((2, 3), (3, 4), (1, 50)):
        labels = [
            f"{p}{i}{s}" for i in range(1, n + 1)
            for p, s in (("a", "+"), ("a", "-"), ("k", ""), ("L", ""))
        ]
        space = fockrep.fock_space(n, k)
        for label in labels:
            op = _named_op(label, space)
            _assert_entries_match_csr(build_generator_matrix(label, n, k).matrix, op)
        if n >= 2:
            for i, j in ((1, 2), (2, 1)):
                mat = build_generator_matrix(f"e{i},{j}", n, k).matrix
                _assert_entries_match_csr(mat, _gl_matrix_direct(i, j, space))
    # shifts +3, -1 and 0 meet in one row: its columns must still rise
    n, k = 2, 3
    space = fockrep.fock_space(n, k)
    one = QFrac.one()
    mixed = Sum(((one, Gen("A", 1, +1)), (one, Gen("A", 2, -1)),
                 (one, _letter_gen((KA, 0, 1)))))
    for x in (mixed, ZERO_EXPR):
        _assert_entries_match_csr(matrix_of_expr(x, n, k), fockrep._matrix_of_expr(x, space, {}))
    assert matrix_of_expr(ZERO_EXPR, n, k).nnz == 0
    for inst in catalog(n):
        x = realize(inst.lhs, n)
        op = fockrep._matrix_of_weyl(x.terms(), space, {})
        _assert_entries_match_csr(matrix_of_weyl(x, k), op)


def test_positivity_diagnostic():
    d = positivity_diagnostic(1.1)
    assert d["modulus_ok"] is False
    assert d["first_non_positive"] is None
    d = positivity_diagnostic(cmath.exp(1.1j))
    assert d["modulus_ok"] is True
    assert d["first_non_positive"] == 3
    # at the root q = e^{i pi / 5} the norms stay positive until the
    # truncation point m = k
    d = positivity_diagnostic(cmath.exp(1j * math.pi / 5))
    assert d["modulus_ok"] is True
    assert d["first_non_positive"] == 5
    assert all(v > 0 for v in d["norms"][:4])
    with pytest.raises(ValueError):
        positivity_diagnostic(0)
    # q = -1 puts s = i on a root of s + s^-1, a pole of every norm m >= 1;
    # at the rounded e^{i pi} a power of s + s^-1 underflows to 0
    for q in (-1, cmath.exp(1j * math.pi)):
        with pytest.raises(ValueError, match=r"s \+ s\^-1"):
            positivity_diagnostic(q)


def test_label_parsing_and_errors():
    n, k = 2, 3
    kinv = dense("k1^-1", n, k)
    assert np.abs(kinv @ dense("k1", n, k) - np.eye(k**n)).max() < 1e-14
    lmat = dense("L1", n, k)
    expected = complex(root_s(k)) ** -1 * kinv
    assert np.abs(lmat - expected).max() < 1e-14
    linv = dense("L1^-1", n, k)
    assert np.abs(lmat @ linv - np.eye(k**n)).max() < 1e-14
    for bad in ("b1+", "a0+", "a3+", "e1,1", "e1,3", "L1^2", "a1", ""):
        with pytest.raises(ValueError):
            build_generator_matrix(bad, n, k)
    with pytest.raises(ValueError):
        build_generator_matrix("a1+", 0, 3)
    with pytest.raises(ValueError):
        build_generator_matrix("a1+", 1, 1)


def test_exported_labels_build_the_operators_they_name():
    for n in (1, 2, 3):
        k = 3
        space = fockrep.fock_space(n, k)
        for label in _export_labels(n):
            got = build_generator_matrix(label, n, k).matrix
            expected = fockrep._entries(_named_op(label, space), space.dim)
            assert np.array_equal(got.row, expected.row), (label, n)
            assert np.array_equal(got.col, expected.col), (label, n)
            assert np.array_equal(got.data, expected.data), (label, n)


def test_labels_other_than_letter_names_are_refused():
    # a kappa power is not an operator label, nor a second name for k_i
    for bad in ("kappa1", "k1^2", "k1^-2"):
        with pytest.raises(ValueError, match="unknown operator label"):
            build_generator_matrix(bad, 2, 3)


def test_verify_representation_bundle():
    n, k = 2, 3
    rows = (
        check_unitarity(n, k)
        + check_weights(n, k)
        + check_matrix_relations(n, k)
        + check_decomposition(n, k)
    )
    assert all(r.ok for r in rows)
    ids = [r.id for r in rows]
    assert len(ids) == len(set(ids))
    assert sum(r.id.startswith("MAT.") for r in rows) == 99
    assert sum(r.id.startswith("UNI.") for r in rows) == 6
    assert sum(r.id.startswith("WGT.") for r in rows) == 4


def test_L_matrix_matches_realized_image():
    # every leaf kind but e/f, k_n included: both routes read phi from
    # uqosp.leaf_word, so this guards what each route does with it (s^a as
    # a complex power or as an exact scale, the word as letter matrices or
    # through the append calculus)
    for n, k in ((1, 2), (2, 3), (3, 2)):
        for i in range(1, n + 1):
            leaves = [Gen(kind, i, e) for kind in ("A", "L", "k") for e in (+1, -1)]
            for leaf in leaves:
                direct = matrix_of_expr(leaf, n, k).toarray()
                via_weyl = matrix_of_weyl(realize(leaf, n), k).toarray()
                assert np.abs(direct - via_weyl).max() < 1e-14, (leaf, n, k)
            # the exported label L{i} is the same leaf
            direct = matrix_of_expr(Gen("L", i), n, k).toarray()
            assert np.array_equal(dense(f"L{i}", n, k), direct)


def test_csv_export_format():
    lines = list(csv_rows(build_generator_matrix("a1+", 1, 2)))
    assert lines == ["row,col,re,im", "1,0,1.189207115002721,0.0"]
    lines = list(csv_rows(build_generator_matrix("e1,2", 2, 3)))
    assert lines[0] == "row,col,re,im"
    coords = [tuple(int(p) for p in ln.split(",")[:2]) for ln in lines[1:]]
    assert coords == sorted(coords)
    # entries round-trip through the text form
    mat = np.zeros((9, 9), dtype=complex)
    for ln in lines[1:]:
        r, c, re_part, im_part = ln.split(",")
        mat[int(r), int(c)] = float(re_part) + 1j * float(im_part)
    assert np.abs(mat - dense("e1,2", 2, 3)).max() == 0.0


def test_json_export():
    doc = decomposition_to_json(decompose_gl(2, 3))
    assert doc["n"] == 2 and doc["k"] == 3
    assert [b["dim"] for b in doc["blocks"]] == [1, 2, 3, 2, 1]
    assert [b["m"] for b in doc["blocks"]] == [0, 1, 2, 3, 4]
    for b in doc["blocks"]:
        assert b["indices"] == sorted(b["indices"])
    json.dumps(doc)
