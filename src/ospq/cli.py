"""Command-line driver: reproducible verification runs and matrix exports.

Subcommands
-----------
verify        symbolic relation checks (classical matrices and the deformed
              oscillator realization), exact arithmetic throughout
rep           finite-dimensional matrices at q = exp(i pi / k): unitarity,
              relation residuals, block dimensions, optional CSV export
decompose     block structure of the Fock space under the gl(n) subalgebra
normal-order  rewrite a word of oscillator letters into ordered form

Every run emits a report whose JSON form is byte-stable except for the
timestamp field, so reruns can be diffed.  Exit status is 0 when every
requested check passes, 1 when at least one fails, and 2 for unusable
arguments (bad ranges, size guards, words over the letter budget, parse
errors, a selection that yields no checks).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__
from .report import RESIDUAL_TOL, STRUCTURAL_TOL, CheckResult, summarize
from .walgebra import (
    AM,
    AP,
    DEFAULT_RULES,
    KA,
    Rules,
    WeylElement,
    WordBudgetError,
    letter_str,
    normal_order,
    parse_word,
)
from .ospclassic import verify_classical
from .uqosp import (
    FAMILY_BUILDERS,
    classical_limit_checks,
    round_trip_checks,
    verify_relations,
)

SIZE_GUARD = 100_000
# longest word `normal-order` accepts (after k^e expands to |e| letters): the
# costliest words of that length, a1-..a9- a1+..a9+ with --contract, take
# about 0.3 s as a whole command on a 2-vCPU machine, and each two more
# letters double the size of the contracted form
WORD_BUDGET = 18

FAMILY_ORDER = ("classical", *FAMILY_BUILDERS)
CHECK_ORDER = ("unitarity", "relations", "dims")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def render_element(x: WeylElement) -> str:
    """The ordered form of x as the CLI prints it."""
    return str(x)


def build_report(command: str, parameters: dict, results: list[CheckResult]) -> dict:
    rows = [r.to_row() for r in sorted(results, key=lambda r: r.id)]
    return {
        "schema": "2",
        "tool": "ospq",
        "version": __version__,
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "parameters": parameters,
        "summary": summarize(results),
        "status": "pass" if all(r.ok for r in results) else "fail",
        "results": rows,
    }


def _emit(report: dict, fmt: str, out_path: str | None, print_text) -> None:
    """Write the JSON report to out_path if given, then show it on stdout:
    as JSON, or as text by print_text(report)."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print_text(report)


def _print_rows(report: dict) -> None:
    print(
        f"ospq {report['command']}  "
        + " ".join(f"{k}={v}" for k, v in report["parameters"].items())
    )
    for row in report["results"]:
        residual = row["residual"]
        if isinstance(residual, float):
            residual = f"{residual:.3e}"
        line = f"{row['status']:4s}  {row['id']}  {residual or '-'}"
        if row["detail"]:
            line += f"  {row['detail']}"
        print(line)
    _print_footer(report)


def _print_footer(report: dict) -> None:
    s = report["summary"]
    print(f"{report['status'].upper()}: {s['passed']}/{s['total']} checks passed")
    if s["failing_ids"]:
        print("failing: " + " ".join(s["failing_ids"]))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _bad_out(out_path: str | None) -> str | None:
    """An error if out_path, a report path or a CSV file-name prefix, is
    empty, names a file in a directory that does not exist, or names a
    directory; checked before any check runs, so a bad path costs nothing."""
    if out_path == "":
        return "--out is empty"
    folder = os.path.dirname(out_path or "")
    if folder and not os.path.isdir(folder):
        return f"--out directory {folder!r} does not exist"
    if out_path and os.path.isdir(out_path):
        return f"--out {out_path!r} is a directory"
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _parse_choice(text: str, order: tuple[str, ...], what: str) -> list[str]:
    """A comma list (or 'all') of names from `order`, returned in that order."""
    if text == "all":
        return list(order)
    chosen = [part.strip() for part in text.split(",") if part.strip()]
    for name in chosen:
        if name not in order:
            raise ValueError(
                f"unknown {what} {name!r} (choose from {', '.join(order)} or all)"
            )
    return [name for name in order if name in chosen]


def cmd_verify(args) -> int:
    if not 1 <= args.n <= 5:
        return _fail("--n must be between 1 and 5")
    bad_out = _bad_out(args.out)
    if bad_out:
        return _fail(bad_out)
    try:
        families = _parse_choice(args.families, FAMILY_ORDER, "family")
    except ValueError as exc:
        return _fail(str(exc))
    rules: Rules = DEFAULT_RULES.corrupted() if args.corrupt_rules else DEFAULT_RULES
    results: list[CheckResult] = []
    if "classical" in families:
        results += verify_classical(args.n)
    quantum = [name for name in families if name in FAMILY_BUILDERS]
    results += verify_relations(args.n, rules, families=quantum)
    if set(families) == set(FAMILY_ORDER):
        results += round_trip_checks(args.n, rules)
        results += classical_limit_checks(args.n, rules)
    if not results:
        return _fail(f"no checks selected (--n {args.n}, --families {args.families})")
    parameters = {
        "n": args.n,
        "families": ",".join(families),
        "corrupt_rules": bool(args.corrupt_rules),
    }
    report = build_report("verify", parameters, results)
    _emit(report, args.format, args.out, _print_rows)
    return 0 if report["status"] == "pass" else 1


def _guard_rep(n: int, k: int) -> str | None:
    if n < 1:
        return "--n must be at least 1"
    if k < 2:
        return "--k must be at least 2"
    # multiply only until the guard is passed, so a huge n costs nothing and
    # no oversized power is ever built or printed
    dim = 1
    for _ in range(n):
        dim *= k
        if dim > SIZE_GUARD:
            return f"k^n = {k}^{n} exceeds the size guard {SIZE_GUARD}"
    return None


def _export_labels(n: int) -> list[str]:
    """a{i}+, a{i}-, k{i} (as letter_str names them) and L{i} per mode."""
    labels: list[str] = []
    for i in range(n):
        labels += [letter_str((AP, i, 0)), letter_str((AM, i, 0)),
                   letter_str((KA, i, 1)), f"L{i + 1}"]
    return labels


def cmd_rep(args) -> int:
    from . import fockrep  # numpy loads only for the matrix commands
    guard = _guard_rep(args.n, args.k) or _bad_out(args.out)
    if guard:
        return _fail(guard)
    try:
        checks = _parse_choice(args.checks, CHECK_ORDER, "check")
    except ValueError as exc:
        return _fail(str(exc))
    results: list[CheckResult] = []
    if "unitarity" in checks:
        results += fockrep.check_unitarity(args.n, args.k)
        results += fockrep.check_weights(args.n, args.k)
    if "relations" in checks:
        results += fockrep.check_matrix_relations(args.n, args.k)
    if "dims" in checks:
        results += fockrep.check_decomposition(args.n, args.k)
    if not results:
        return _fail(f"no checks selected (--checks {args.checks})")
    exports: list[str] = []
    if args.out:
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        for label in _export_labels(args.n):
            rep = fockrep.build_generator_matrix(label, args.n, args.k)
            path = f"{stem}.{label}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                for line in fockrep.csv_rows(rep):
                    fh.write(line + "\n")
            exports.append(path)
    parameters = {
        "n": args.n,
        "k": args.k,
        "dim": args.k**args.n,
        "checks": ",".join(checks),
        "tol_rel": RESIDUAL_TOL,
        "tol_entry": STRUCTURAL_TOL,
        "exports": exports,
    }
    report = build_report("rep", parameters, results)
    _emit(report, args.format, None, _print_rows)
    return 0 if report["status"] == "pass" else 1


def cmd_decompose(args) -> int:
    from . import fockrep
    guard = _guard_rep(args.n, args.k) or _bad_out(args.out)
    if guard:
        return _fail(guard)
    dec = fockrep.decompose_gl(args.n, args.k)
    results = fockrep.check_decomposition(args.n, args.k)
    parameters = {"n": args.n, "k": args.k, "dim": args.k**args.n}
    report = build_report("decompose", parameters, results)
    report["decomposition"] = fockrep.decomposition_to_json(dec)
    _emit(report, args.format, args.out, lambda r: _print_blocks(dec, r))
    return 0 if report["status"] == "pass" else 1


def _print_blocks(dec, report) -> None:
    print(f"ospq decompose  n={dec.n} k={dec.k} dim={dec.k ** dec.n}")
    print(f"{len(dec.blocks)} blocks")
    for b in dec.blocks:
        print(f"  m={b.m}  dim={b.dim}  indices={list(b.indices)}")
    _print_footer(report)


def cmd_normal_order(args) -> int:
    if args.n is not None and args.n < 1:
        return _fail("--n must be at least 1")
    try:
        letters, n = parse_word(args.word, args.n, budget=WORD_BUDGET)
    except WordBudgetError as exc:
        return _fail(f"word has {exc.letters} letters; normal-order takes at most "
                     f"{WORD_BUDGET}")
    except ValueError as exc:
        return _fail(f"cannot parse word: {exc}")
    # every monomial is an n-tuple, so the mode count is bounded too; a word
    # within the letter budget names at most WORD_BUDGET modes
    if n > WORD_BUDGET:
        return _fail(f"{n} modes; normal-order takes at most {WORD_BUDGET}")
    print(render_element(normal_order(letters, n, contract=args.contract)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospq",
        description="Exact verification of the deformed paraboson realization "
        "and its unitary Fock representation.",
    )
    parser.add_argument("--version", action="version", version=f"ospq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check defining and derived relations")
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help="number of modes (1..5)",
    )
    p.add_argument(
        "--families",
        default="all",
        help="comma list from {classical,CK,SERRE,PRE,T,G} or 'all'",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write the JSON report to this path")
    p.add_argument(
        "--corrupt-rules",
        action="store_true",
        help="negative-control hook: perturb one rewriting constant",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rep", help="matrix representation checks at q = e^{i pi/k}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="root order (q = e^{i pi/k})")
    p.add_argument(
        "--checks",
        default="all",
        help="comma list from {unitarity,relations,dims} or 'all'",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="CSV export prefix (one file per generator)")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("decompose", help="block decomposition of the Fock space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write the JSON report to this path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("normal-order", help="order a word of oscillator letters")
    p.add_argument("word", help="e.g. \"a1- a1+\" or \"a2- k1^-1 a1+\"")
    p.add_argument("--n", type=int, default=None, help="mode count (default: inferred)")
    p.add_argument(
        "--contract",
        action="store_true",
        help="also eliminate same-mode a+ a- pairs (fully reduced basis)",
    )
    p.set_defaults(func=cmd_normal_order)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
