"""The four workloads: inputs from the seed, and one sweep over them.

Each sweep function calls only public entry points of `ospq` (plus the
read-only cache statistics in `cache_stats`), checks every output against
the independent oracle it has, and counts one verdict per check:

symbolic   what `ospq verify` does for n = 1..5: the classical suite, the
           U_q catalog (sampled from the workload seed for n >= 4), round
           trips, classical limits, and the corrupted-rules negative
           control.  The append calculus and QFrac arithmetic do the work.
rewrite    what `ospq normal-order` does over seeded random words plus long
           crossing words: the rewrite engine (both strategies, with and
           without contraction) against the append calculus, rendering,
           and associativity of `mul`.  The only workload where the
           engine's exponential branching dominates.
matrices   what `ospq rep` does over the acceptance grid plus (3,4) and
           (4,3): many small sparse products and symbolic realization.
decompose  generator matrices, the gl(n) decomposition and the structural
           checks at large Fock spaces (4,10) and (5,6): matrix
           construction, per-column loops and connectivity.

The sizes let every workload repeat its sweep at least three times in a
25-second run.  matrices and decompose have fixed inputs; the seed only
changes symbolic (the n >= 4 catalog sample) and rewrite (the words).
"""

from __future__ import annotations

import json
import random
import re

from ospq import fockrep, uqosp, walgebra
from ospq.cli import build_report, render_element
from ospq.fockrep import (
    block_dims_multinomial,
    block_dims_polynomial,
    build_generator_matrix,
    check_decomposition,
    check_matrix_relations,
    check_unitarity,
    check_weights,
    decompose_gl,
    decomposition_to_json,
)
from ospq.ospclassic import verify_classical
from ospq.uqosp import catalog, classical_limit_checks, round_trip_checks, verify_instance
from ospq.walgebra import AM, AP, DEFAULT_RULES, KA, WeylElement, mul, normal_order

from harness import Sweep

ACCEPTANCE_GRID = ((1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (2, 5))

SIZES = {
    "full": {
        "classical": (1, 2, 3, 4),
        "catalog": (1, 2, 3, 4, 5),
        "round_trip": (1, 2, 3, 4, 5),
        "limit": (1, 2, 3, 4),
        "words": 660,
        "long_m": 7,
        "pair_m": 3,
        "triples": 99,
        "grid": ACCEPTANCE_GRID + ((3, 4), (4, 3)),
        "large": ((4, 10), (5, 6)),
    },
    # for the benchmark's own smoke test
    "tiny": {
        "classical": (1, 2),
        "catalog": (1, 2),
        "round_trip": (1, 2),
        "limit": (1, 2),
        "words": 33,
        "long_m": 3,
        "pair_m": 2,
        "triples": 10,
        "grid": ((1, 2), (2, 2)),
        "large": ((2, 3),),
    },
}

# the negative control must fail on these ids
NEGATIVE_CONTROL_IDS = ("CK.ef[n=2,i=1,j=1]", "PRE3[n=2,i=1]")

_G3_ID = re.compile(r"G3\[n=\d+,i=(\d+),j=(\d+),k=(\d+),l=(\d+),xi=([+-])\]")


def is_known_defect(ident: str) -> bool:
    """The G3 relation fails on crossing root pairs i<k<j<l (and the mirror
    i>k>j>l for xi=-), symbolically and as matrices.  These failures count
    as failed checks; they are only kept from marking the run incorrect."""
    m = _G3_ID.search(ident)
    if not m:
        return False
    i, j, k, l = (int(x) for x in m.groups()[:4])
    return i < k < j < l if m.group(5) == "+" else i > k > j > l


# ------------------------------------------------------------------- caches


# (metric prefix, module, attribute) of the lru caches whose counters are read
LRU_CACHES = (
    ("walgebra.contract_cache", walgebra, "_contract_monomial"),
    ("walgebra.dplus_cache", walgebra, "_dplus_pow"),
    ("uqosp.leaf_cache", uqosp, "_leaf_image"),
)


def clear_caches() -> None:
    """Empty every program cache, as in a fresh `ospq` process."""
    import ospq

    for name in dir(ospq):
        module = getattr(ospq, name)
        if getattr(module, "__name__", "").startswith("ospq.") and hasattr(module, "__dict__"):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
    cache = getattr(fockrep, "_MATRIX_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


def cache_stats(sw: Sweep) -> None:
    """Per-sweep cache counters; a cache that is gone reads 0 with a note."""
    for prefix, module, attr in LRU_CACHES:
        info = getattr(getattr(module, attr, None), "cache_info", None)
        hits = misses = 0
        if callable(info):
            stats = info()
            hits, misses = stats.hits, stats.misses
        else:
            sw.notes.append(f"{prefix}: {module.__name__}.{attr} has no cache_info, "
                            "counters read 0")
        sw.counters[f"{prefix}.hits"] = hits
        sw.counters[f"{prefix}.misses"] = misses
        sw.counters[f"{prefix}.lookups"] = hits + misses
        sw.counters[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    cache = getattr(fockrep, "_MATRIX_CACHE", None)
    entries = nbytes = 0
    if isinstance(cache, dict):
        entries = len(cache)
        for mat in cache.values():
            for part in ("data", "indices", "indptr"):
                nbytes += getattr(getattr(mat, part, None), "nbytes", 0)
    else:
        sw.notes.append("fockrep.matrix_cache: fockrep._MATRIX_CACHE is not a dict, "
                        "counters read 0")
    sw.counters["fockrep.matrix_cache.entries"] = entries
    sw.counters["fockrep.matrix_cache.bytes"] = nbytes


# ------------------------------------------------------------------- inputs


def _rand_word(rng: random.Random, n: int, length: int) -> list:
    """Random letters as drawn by the acceptance rewriting battery."""
    out = []
    for _ in range(length):
        kind = rng.choice([AP, AM, KA, AP, AM])
        mode = rng.randrange(n)
        out.append((kind, mode, rng.choice([1, -1]) if kind == KA else 0))
    return out


def make_inputs(workload: str, seed: int, size: str) -> dict:
    sz = SIZES[size]
    if workload != "rewrite":
        return {"seed": seed}
    rng = random.Random(seed)
    # n in 1..3 and length in 0..10 as in the acceptance battery, stratified:
    # every (n, length) cell gets the same number of words, so seeds differ
    # in the letters drawn, not in how many long words they happen to get
    words = [(1 + i % 3, _rand_word(rng, 1 + i % 3, (i // 3) % 11), False)
             for i in range(sz["words"])]
    rng.shuffle(words)
    # crossing words: the engine branches on every a- a+ exchange
    for m in range(1, sz["long_m"] + 1):
        words.append((1, [(AM, 0, 0)] * m + [(AP, 0, 0)] * m, True))
    for m in range(1, sz["pair_m"] + 1):
        words.append((2, [(AM, 0, 0), (AM, 1, 0)] * m + [(AP, 0, 0), (AP, 1, 0)] * m, True))
    triples = [(1 + i % 3, [_rand_word(rng, 1 + i % 3, rng.randint(0, 5)) for _ in range(3)])
               for i in range(sz["triples"])]
    return {"words": words, "triples": triples}


# ------------------------------------------------------------------- sweeps


def _report(sw: Sweep, command: str, parameters: dict, rows: list,
            extra: dict | None = None) -> None:
    """What the CLI emits: the report dict and its JSON text."""

    def build():
        report = build_report(command, parameters, rows)
        if extra:
            report.update(extra)
        return json.dumps(report, indent=2)

    sw.guard(f"report[{command},{parameters}]", lambda: sw.call("cli.report", build))


def _relation_rows(sw: Sweep, rows: list) -> None:
    """Symbolic relation rows pass only as exact zero."""
    for r in rows:
        sw.verdict(r.id, r.ok and r.residual == "exact-zero")


def _family(inst) -> str:
    for prefix in ("SERRE", "PRE", "CK", "T", "G"):
        if inst.family.startswith(prefix):
            return prefix
    return inst.family


def _negative_control(sw: Sweep) -> None:
    corrupted = DEFAULT_RULES.corrupted()
    rows = [verify_instance(inst, 2, corrupted) for inst in catalog(2)]
    failing = {r.id for r in rows if not r.ok}
    missing = [i for i in NEGATIVE_CONTROL_IDS if i not in failing]
    statuses = ",".join(f"{r.id}={'pass' if r.ok else 'fail'}" for r in rows)
    sw.verdict("NEG.corrupt_rules[n=2]", not missing,
               f"control did not fail on {missing}", statuses)
    _report(sw, "verify", {"n": 2, "families": "all", "corrupt_rules": True}, rows)


def sweep_symbolic(sw: Sweep, inputs: dict, sz: dict) -> None:
    seed = inputs["seed"]
    by_n: dict[int, list] = {n: [] for n in sz["catalog"]}
    for n in sz["classical"]:
        rows = sw.guard(f"ospclassic.verify[n={n}]",
                        lambda: sw.call("ospclassic.verify", verify_classical, n))
        for r in rows or ():
            sw.verdict(r.id, r.ok)
        by_n.setdefault(n, []).extend(rows or ())
        sw.count("ospclassic.checks", len(rows or ()))
    for n in sz["catalog"]:
        instances = sw.guard(f"uqosp.catalog[n={n}]",
                             lambda: sw.call("uqosp.catalog", catalog, n, seed=seed)) or []
        sw.count("uqosp.instances", len(instances))
        for inst in instances:
            row = sw.guard(inst.id, lambda: sw.call(f"uqosp.verify.{_family(inst)}",
                                                    verify_instance, inst, n), sample=True)
            if row is not None:
                _relation_rows(sw, [row])
                by_n[n].append(row)
    for n in sz["round_trip"]:
        rows = sw.guard(f"uqosp.round_trip[n={n}]",
                        lambda: sw.call("uqosp.round_trip", round_trip_checks, n)) or []
        _relation_rows(sw, rows)
        by_n.setdefault(n, []).extend(rows)
    for n in sz["limit"]:
        rows = sw.guard(f"uqosp.classical_limit[n={n}]",
                        lambda: sw.call("uqosp.classical_limit", classical_limit_checks, n)) or []
        for r in rows:
            sw.verdict(r.id, r.ok)
        by_n.setdefault(n, []).extend(rows)
    sw.guard("NEG.corrupt_rules[n=2]",
             lambda: sw.call("uqosp.negative_control", _negative_control, sw))
    for n, rows in sorted(by_n.items()):
        _report(sw, "verify", {"n": n, "families": "all", "seed": seed,
                               "corrupt_rules": False}, rows)


def _coeff_sizes(sw: Sweep, element) -> None:
    """Largest denominator exponents and numerator s-span of the
    coefficients; read defensively, since a change of coefficient
    representation may rename these fields."""
    try:
        for _, c in element.terms():
            sw.peak("qcoeff.max_dp", c.dp)
            sw.peak("qcoeff.max_dm", c.dm)
            if not c.num.is_zero():
                sw.peak("qcoeff.max_span", c.num.max_exp() - c.num.min_exp())
    except AttributeError as exc:
        sw.notes.append(f"qcoeff sizes: coefficient fields not found ({exc}), counters read 0")


def _one_word(sw: Sweep, n: int, word: list, long: bool) -> tuple[bool, str]:
    engine = "walgebra.engine_long" if long else "walgebra.engine"
    left = sw.call(engine, normal_order, word, n=n, strategy="leftmost", contract=False)
    right = sw.call(engine, normal_order, word, n=n, strategy="rightmost", contract=False)
    contracted = sw.call("walgebra.contract", normal_order, word, n=n, contract=True)
    appended = sw.call("walgebra.append", WeylElement.from_word, n, word)
    text = sw.call("cli.render", render_element, left)
    text_c = sw.call("cli.render", render_element, contracted)
    sw.count("walgebra.terms_out", len(left) + len(contracted))
    if sw.traced:
        _coeff_sizes(sw, left)
        _coeff_sizes(sw, contracted)
    return left == right and contracted == appended, f"{text}\t{text_c}"


def _one_triple(sw: Sweep, n: int, words: list) -> bool:
    x, y, z = (sw.call("walgebra.append", WeylElement.from_word, n, w) for w in words)
    lhs = sw.call("walgebra.mul", mul, sw.call("walgebra.mul", mul, x, y), z)
    rhs = sw.call("walgebra.mul", mul, x, sw.call("walgebra.mul", mul, y, z))
    sw.count("walgebra.mul_calls", 4)
    return lhs == rhs


def sweep_rewrite(sw: Sweep, inputs: dict, sz: dict) -> None:
    for index, (n, word, long) in enumerate(inputs["words"]):
        ident = f"word[{index}]"
        sw.count("walgebra.words")
        out = sw.guard(ident, lambda: _one_word(sw, n, word, long), sample=True)
        if out is not None:
            ok, text = out
            sw.verdict(ident, ok, "leftmost != rightmost or contracted != append calculus",
                       text)
    for index, (n, words) in enumerate(inputs["triples"]):
        ident = f"assoc[{index}]"
        ok = sw.guard(ident, lambda: _one_triple(sw, n, words))
        if ok is not None:
            sw.verdict(ident, ok, "(xy)z != x(yz)")


def _dims_oracle(sw: Sweep, n: int, k: int):
    dec = sw.guard(f"fockrep.decompose[n={n},k={k}]",
                   lambda: sw.call("fockrep.decompose", decompose_gl, n, k), sample=True)
    if dec is not None:
        dims = [b.dim for b in dec.blocks]
        sw.verdict(f"ORACLE.dims[n={n},k={k}]",
                   dims == block_dims_polynomial(n, k) == block_dims_multinomial(n, k),
                   "block dims differ from the dimension oracles")
    return dec


def _rows(sw: Sweep, layer: str, fn, n: int, k: int) -> list:
    rows = sw.guard(f"{layer}[n={n},k={k}]", lambda: sw.call(layer, fn, n, k),
                    sample=True) or []
    for r in rows:
        sw.verdict(r.id, r.ok)
    return rows


def sweep_matrices(sw: Sweep, inputs: dict, sz: dict) -> None:
    for n, k in sz["grid"]:
        rows = _rows(sw, "fockrep.unitarity", check_unitarity, n, k)
        rows += _rows(sw, "fockrep.weights", check_weights, n, k)
        rel = sw.guard(f"fockrep.relations[n={n},k={k}]",
                       lambda: sw.call("fockrep.relations", check_matrix_relations, n, k),
                       sample=True) or []
        tol = fockrep.RESIDUAL_TOL
        for r in rel:
            # the residual is the larger of the direct and the cross-route error
            sw.verdict(r.id, r.ok and isinstance(r.residual, float) and r.residual < tol)
        sw.count("fockrep.relations", len(rel))
        rows += rel
        rows += _rows(sw, "fockrep.decomposition", check_decomposition, n, k)
        _dims_oracle(sw, n, k)
        _report(sw, "rep", {"n": n, "k": k, "dim": k**n, "checks": "unitarity,relations,dims"},
                rows)


def _labels(n: int) -> list[str]:
    """The generator labels `ospq rep --out` exports."""
    return [f"{p}{i}{s}" for i in range(1, n + 1)
            for p, s in (("a", "+"), ("a", "-"), ("k", ""), ("L", ""))]


def sweep_decompose(sw: Sweep, inputs: dict, sz: dict) -> None:
    for n, k in sz["large"]:
        dim = k**n
        for label in _labels(n):
            rep = sw.guard(f"fockrep.build[{label},n={n},k={k}]",
                           lambda: sw.call("fockrep.build", build_generator_matrix, label, n, k),
                           sample=True)
            if rep is not None:
                sw.verdict(f"BUILD[{label},n={n},k={k}]", rep.matrix.shape == (dim, dim),
                           f"shape {rep.matrix.shape}")
                sw.count("fockrep.nnz", rep.matrix.nnz)
        dec = _dims_oracle(sw, n, k)
        rep_rows = _rows(sw, "fockrep.unitarity", check_unitarity, n, k)
        rep_rows += _rows(sw, "fockrep.weights", check_weights, n, k)
        dec_rows = _rows(sw, "fockrep.decomposition", check_decomposition, n, k)
        _report(sw, "rep", {"n": n, "k": k, "dim": dim, "checks": "unitarity"}, rep_rows)
        if dec is not None:
            _report(sw, "decompose", {"n": n, "k": k, "dim": dim}, dec_rows,
                    {"decomposition": decomposition_to_json(dec)})


SWEEPS = {
    "symbolic": sweep_symbolic,
    "rewrite": sweep_rewrite,
    "matrices": sweep_matrices,
    "decompose": sweep_decompose,
}
