"""Tests for the ospq command-line driver."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ospq import fockrep
from ospq.cli import main, render_element
from ospq.scalars import Q2
from ospq.walgebra import normal_order


SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env() -> dict:
    """The environment of a child interpreter, with the package sources first
    on its path, as pytest puts them on its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normal_order_examples(capsys):
    code, out, _ = run_main(capsys, "normal-order", "a1- a1+")
    assert code == 0
    assert out == "q a1+ a1- + (2/(s+s^-1)) k1^-1\n"
    code, out, _ = run_main(capsys, "normal-order", "k1")
    assert code == 0 and out == "k1\n"
    code, out, _ = run_main(capsys, "normal-order", "a2- a1+")
    assert code == 0 and out == "q a1+ a2-\n"


def test_normal_order_contracted_form(capsys):
    code, out, _ = run_main(capsys, "normal-order", "a1- a1+", "--contract")
    assert code == 0
    assert out == (
        "(2q/((s+s^-1)^2 (s-s^-1))) k1 "
        "+ (-2q^-1/((s+s^-1)^2 (s-s^-1))) k1^-1\n"
    )
    # the two printed forms denote the same element: re-reducing the
    # uncontracted form lands on the contracted one
    uncontracted = normal_order("a1- a1+", contract=False)
    assert normal_order(uncontracted, contract=True) == normal_order("a1- a1+", contract=True)


def test_normal_order_parse_error(capsys):
    code, out, err = run_main(capsys, "normal-order", "a1 bogus")
    assert code == 2
    assert out == ""
    assert "cannot parse" in err


def test_normal_order_letter_budget(capsys):
    code, out, _ = run_main(capsys, "normal-order", " ".join(["a1-"] * 9 + ["a1+"] * 9))
    assert code == 0 and out.count("\n") == 1
    # k1^3 counts as three letters
    word = " ".join(["a1-"] * 8 + ["a1+"] * 8) + " k1^3"
    code, out, err = run_main(capsys, "normal-order", word, "--contract")
    assert code == 2
    assert out == ""
    assert err == "error: word has 19 letters; normal-order takes at most 18\n"
    # a power is counted before it is expanded, so a huge exponent is refused
    # at once rather than running out of memory or overflowing
    for word in ("k1^-1000000000000000", "k1^99999999999999999999999", "a1+ k1^100000000"):
        start = time.perf_counter()
        code, out, err = run_main(capsys, "normal-order", word)
        assert time.perf_counter() - start < 1.0, word
        assert code == 2 and out == "", word
        assert "letters; normal-order takes at most 18\n" in err, word
    assert run_main(capsys, "normal-order", "k1^18") == (0, "k1^18\n", "")


def test_normal_order_mode_bound(capsys):
    # every monomial is an n-tuple: the mode count has the letter budget too
    for argv in (["a19+"], ["a1+", "--n", "19"], ["a1000000000+"]):
        start = time.perf_counter()
        code, out, err = run_main(capsys, "normal-order", *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert "modes; normal-order takes at most 18" in err
    assert run_main(capsys, "normal-order", "a18+") == (0, "a18+\n", "")
    assert run_main(capsys, "normal-order", "a1+", "--n", "18") == (0, "a1+\n", "")
    # and at least one mode, refused like `rep --n 0`, with no traceback
    for n in ("-3", "0"):
        assert run_main(capsys, "normal-order", "", "--n", n) == (
            2, "", "error: --n must be at least 1\n"), n


def test_render_scalar_marker():
    assert str(Q2(2, 0)) == "2"
    assert str(Q2(Fraction(-1, 2), 0)) == "-1/2"
    assert str(Q2(0, 1)) == "√2"
    assert str(Q2(0, -1)) == "-√2"
    assert str(Q2(1, 1)) == "1+√2"
    assert str(Q2(1, -2)) == "1-2√2"


def test_multi_term_numerator_is_parenthesized(capsys):
    code, out, _ = run_main(capsys, "normal-order", "a1- a1- a1+ a1+")
    assert code == 0
    assert "((2q^3 + 4q + 2q^-1)/(s+s^-1)) a1+ k1^-1 a1-" in out
    # a single-term numerator keeps the README form
    assert "(2/(s+s^-1))" in run_main(capsys, "normal-order", "a1- a1+")[1]


def test_render_element_zero_and_identity():
    from ospq.walgebra import WeylElement

    assert render_element(WeylElement.zero(1)) == "0"
    assert render_element(WeylElement.one(1)) == "1"
    assert render_element(normal_order("a1+ a1+", contract=True)) == "a1+ a1+"


def test_verify_empty_family_range(capsys):
    # a selection that yields no rows is refused, never a vacuous pass
    for families in ("SERRE", ","):
        code, out, err = run_main(capsys, "verify", "--n", "1", "--families", families)
        assert code == 2
        assert out == ""
        assert err.startswith("error: no checks selected")


def test_verify_family_subset_json(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--n", "2", "--families", "CK,PRE", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == [
        "schema", "tool", "version", "command", "timestamp",
        "parameters", "summary", "status", "results",
    ]
    assert doc["schema"] == "2"
    assert doc["status"] == "pass"
    assert doc["parameters"]["families"] == "CK,PRE"
    assert doc["summary"]["total"] == 38  # 15 Cartan-Kac + 23 pre-oscillator
    ids = [r["id"] for r in doc["results"]]
    assert ids == sorted(ids)
    assert all(r["residual"] == "exact-zero" for r in doc["results"])


def test_verify_full_run_exact_zero(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--n", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    # membership, span and classical-limit rows compute no residual
    for r in doc["results"]:
        no_residual = r["id"].startswith(("MEM.", "SPAN.", "LIM."))
        assert r["residual"] == (None if no_residual else "exact-zero"), r
    # classical + catalog + round-trip + classical-limit rows, each once
    ids = [r["id"] for r in doc["results"]]
    assert len(ids) == len(set(ids))
    assert any(i.startswith("C21[") for i in ids)
    assert any(i.startswith("CK.") for i in ids)
    assert any(i.startswith("RT.") for i in ids)
    assert any(i.startswith("LIM.") for i in ids)


def test_verify_bad_arguments(capsys):
    assert run_main(capsys, "verify", "--n", "6")[0] == 2
    assert run_main(capsys, "verify", "--n", "2", "--families", "bogus")[0] == 2
    assert run_main(capsys, "verify", "--n", "5", "--families", "classical")[0] == 0


def test_verify_corrupt_rules_negative_control(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--n", "2", "--corrupt-rules", "--format", "json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["parameters"]["corrupt_rules"] is True
    failing = doc["summary"]["failing_ids"]
    assert "CK.ef[n=2,i=1,j=1]" in failing
    assert "PRE3[n=2,i=1]" in failing
    # kappa-only relations are insensitive to the perturbed constant
    assert not any(f.startswith("CK.kk") for f in failing)


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_main(
        capsys, "verify", "--n", "1", "--families", "CK", "--out", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == "2" and doc["status"] == "pass"
    assert "PASS" in out  # text report still on stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n", "5", "--out", "report.json"),
        # at the size guard: refused before any check runs, which would take
        # about 20 s
        ("rep", "--n", "5", "--k", "10", "--out", "m"),
        ("decompose", "--n", "5", "--k", "10", "--out", "dec.json"),
    ],
    ids=lambda argv: argv[0],
)
def test_out_in_missing_directory_is_refused(tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir"
    *head, name = argv
    start = time.perf_counter()
    code, out, err = run_main(capsys, *head, str(missing / name))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == f"error: --out directory {str(missing)!r} does not exist\n"
    assert not missing.exists()
    # an existing directory as the report path or CSV prefix, with or without
    # a trailing slash, is refused just as early, and nothing is written in
    # it or beside it
    for folder in (str(tmp_path), str(tmp_path) + os.sep):
        start = time.perf_counter()
        code, out, err = run_main(capsys, *head, folder)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: --out {folder!r} is a directory\n"
        assert list(tmp_path.iterdir()) == []
        assert list(tmp_path.parent.glob(f"{tmp_path.name}.*")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n", "5"),
        ("rep", "--n", "5", "--k", "10"),
        ("decompose", "--n", "5", "--k", "10"),
    ],
    ids=lambda argv: argv[0],
)
def test_empty_out_is_refused(tmp_path, monkeypatch, capsys, argv):
    # an empty path is not the absence of --out: refused before any check
    # runs, with nothing written
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run_main(capsys, *argv, "--out", "")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: --out is empty\n"
    assert list(tmp_path.iterdir()) == []


def test_json_reports_deterministic(capsys):
    argv = ("verify", "--n", "1", "--format", "json")
    _, out1, _ = run_main(capsys, *argv)
    _, out2, _ = run_main(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timestamp")
    d2.pop("timestamp")
    assert json.dumps(d1) == json.dumps(d2)


_NORMAL_ORDER_WORDS = (
    "a1- a1+",
    "a1- a1- a1+ a1+",
    "a2- k1^-1 a1+",
    "a2- a1+ a2+ a1-",
    "k2^2 a1+ k1^-1 a2- a1-",
    "a3- a2- a1+ a3+",
)
# sha256 of the exact stdout and exit code of every command below, timestamp
# line dropped; these layers are exact, so the bytes do not depend on numpy
_REPORT_BYTES_DIGEST = "124287b14eccd1a43c491508adb33d57a452ea8ca05dcd9471df2474f4391123"


def test_report_bytes_golden_digest(capsys):
    runs = [("verify", "--n", str(n), "--format", "json") for n in range(1, 5)]
    runs.append(("verify", "--n", "2", "--corrupt-rules", "--format", "json"))
    runs.append(("verify", "--n", "5", "--format", "json"))
    runs.append(("verify", "--n", "3", "--corrupt-rules", "--format", "json"))
    for word in _NORMAL_ORDER_WORDS:
        runs += [("normal-order", word), ("normal-order", word, "--contract")]
    digest = hashlib.sha256()
    for argv in runs:
        code, out, _ = run_main(capsys, *argv)
        out = re.sub(r'^  "timestamp": .*\n', "", out, flags=re.M)
        digest.update(f"{argv}|{code}|{out}\n".encode())
    assert digest.hexdigest() == _REPORT_BYTES_DIGEST


def test_rep_all_checks(capsys):
    code, out, _ = run_main(
        capsys, "rep", "--n", "2", "--k", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["parameters"]["dim"] == 9
    prefixes = {r["id"].split(".")[0] for r in doc["results"]}
    assert {"UNI", "WGT", "MAT", "DEC", "OSP"} <= prefixes
    ids = [r["id"] for r in doc["results"]]
    assert len(ids) == len(set(ids))
    assert sum(i.startswith("MAT.") for i in ids) == 99
    assert sum(i.startswith("UNI.") for i in ids) == 6
    assert sum(i.startswith("WGT.") for i in ids) == 4


def test_rep_checks_subset(capsys):
    code, out, _ = run_main(
        capsys, "rep", "--n", "1", "--k", "2", "--checks", "unitarity",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["checks"] == "unitarity"
    assert all(
        r["id"].startswith(("UNI.", "WGT.")) for r in doc["results"]
    )
    assert doc["results"]
    code, out, err = run_main(capsys, "rep", "--n", "1", "--k", "2", "--checks", ",")
    assert code == 2
    assert out == "" and err.startswith("error: no checks selected")


def test_rep_bounds_are_fixed(capsys):
    code, out, _ = run_main(
        capsys, "rep", "--n", "1", "--k", "2", "--checks", "unitarity", "--format", "json"
    )
    assert code == 0
    params = json.loads(out)["parameters"]
    assert (params["tol_rel"], params["tol_entry"]) == (1e-9, 1e-12)
    for flag in ("--tol-rel", "--tol-entry"):
        with pytest.raises(SystemExit) as exc:
            main(["rep", "--n", "1", "--k", "2", flag, "1"])
        assert exc.value.code == 2


def _assert_guarded(capsys, command: str, n: int, k: int) -> None:
    start = time.perf_counter()
    code, out, err = run_main(capsys, command, "--n", str(n), "--k", str(k))
    assert time.perf_counter() - start < 1.0, (command, n, k)
    assert code == 2 and out == "" and "guard" in err, (command, n, k)


# shapes whose k^n has more digits than int -> str converts, and one whose
# k^n would take a 1.6-billion-bit integer to build
_HUGE_SHAPES = ((20000, 2), (5000, 10), (10**6, 2), (10**9, 3))


def test_rep_size_guard(capsys):
    code, _, err = run_main(capsys, "rep", "--n", "4", "--k", "20")
    assert code == 2 and "guard" in err
    for n, k in _HUGE_SHAPES:
        _assert_guarded(capsys, "rep", n, k)
    assert run_main(capsys, "rep", "--n", "1", "--k", "1")[0] == 2
    assert run_main(capsys, "rep", "--n", "0", "--k", "2")[0] == 2


def test_rep_csv_export(tmp_path, capsys):
    prefix = tmp_path / "m.csv"
    code, out, _ = run_main(
        capsys, "rep", "--n", "1", "--k", "2", "--out", str(prefix),
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    stem = str(prefix)[:-4]
    expected = [f"{stem}.{lbl}.csv" for lbl in ("a1+", "a1-", "k1", "L1")]
    assert doc["parameters"]["exports"] == expected
    for path in expected:
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) >= 2  # every generator is nonzero at k = 2
    plus = Path(expected[0]).read_text().splitlines()
    assert plus[1] == "1,0,1.189207115002721,0.0"


def test_decompose_text(capsys):
    code, out, _ = run_main(capsys, "decompose", "--n", "1", "--k", "4")
    assert code == 0
    assert "4 blocks" in out
    for m in range(4):
        assert f"m={m}  dim=1" in out
    code, out, _ = run_main(capsys, "decompose", "--n", "3", "--k", "3")
    assert code == 0
    assert "7 blocks" in out
    for m, d in enumerate((1, 3, 6, 7, 6, 3, 1)):
        assert f"m={m}  dim={d}" in out


def test_decompose_json(capsys):
    code, out, _ = run_main(
        capsys, "decompose", "--n", "2", "--k", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [b["dim"] for b in doc["decomposition"]["blocks"]] == [1, 2, 3, 2, 1]
    assert doc["status"] == "pass"


def test_decompose_rows_without_residual_report_null(capsys):
    # dimensions and connectivity compute no residual: they report null, and
    # the text rows of `rep` print "-"
    argv = ("--n", "2", "--k", "3")
    doc = json.loads(run_main(capsys, "decompose", *argv, "--format", "json")[1])
    null_ids = [r["id"] for r in doc["results"] if r["residual"] is None]
    assert len(null_ids) == 11
    assert {i.split("[")[0] for i in null_ids} == {
        "DEC.dim", "DEC.connected", "OSP.connected"
    }
    assert all(isinstance(r["residual"], float) for r in doc["results"]
               if r["id"] not in null_ids)
    text = run_main(capsys, "rep", *argv)[1]
    assert "pass  DEC.dim[n=2,k=3,m=2]  -  basis 3, polynomial 3, multinomial 3" in text
    assert "exact-zero" not in text


def test_decompose_out_keeps_stdout(tmp_path, capsys):
    argv = ("decompose", "--n", "2", "--k", "2")
    code, plain, _ = run_main(capsys, *argv)
    assert code == 0
    path = tmp_path / "dec.json"
    code, out, _ = run_main(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out == plain
    assert out.count("checks passed") == 1
    doc = json.loads(path.read_text())
    assert doc["command"] == "decompose" and doc["status"] == "pass"
    assert [b["dim"] for b in doc["decomposition"]["blocks"]] == [1, 2, 1]


def test_decompose_guard(capsys):
    assert run_main(capsys, "decompose", "--n", "4", "--k", "20")[0] == 2
    for n, k in _HUGE_SHAPES:
        _assert_guarded(capsys, "decompose", n, k)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ospq.cli", "--version"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("ospq ")


def test_guard_script_reports_each_child(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC.parent / "scripts"))
    guard = importlib.import_module("guard_commands")
    assert len(guard.COMMANDS) == 11
    for args, code in ((("--version",), 0), (("rep", "--n", "0", "--k", "2"), 2)):
        row = guard.run(args)
        assert row["argv"] == ["ospq", *args] and row["exit"] == code
        assert row["wall_s"] > 0 and row["max_rss_mb"] > 0
    assert guard.REPEATS == 3
    runs = [{"argv": ["ospq", "x"], "exit": code, "wall_s": wall, "max_rss_mb": rss}
            for code, wall, rss in ((0, 2.0, 30.0), (1, 1.0, 20.0), (0, 4.0, 25.0))]
    assert guard.summarize(runs) == {
        "argv": ["ospq", "x"], "exit": [0, 1, 0],
        "wall_s": 2.0, "wall_s_range": [1.0, 4.0],
        "max_rss_mb": 25.0, "max_rss_mb_range": [20.0, 30.0],
    }
    assert guard.summarize(runs[::2])["exit"] == 0


def test_guard_script_interleaves_the_trees(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SRC.parent / "scripts"))
    guard = importlib.import_module("guard_commands")
    calls = []

    def fake_run(args, src):
        calls.append((args, src.name))
        return {"argv": ["ospq", *args], "exit": 0, "wall_s": 1.0, "max_rss_mb": 10.0}

    monkeypatch.setattr(guard, "run", fake_run)
    monkeypatch.setattr(guard, "COMMANDS", (("x",), ("y",)))
    guard.main([Path("parent"), Path("change")])
    # each repeat runs both trees, and the first tree alternates
    assert calls == [(args, tree) for args in (("x",), ("y",))
                     for tree in ("parent", "change", "change", "parent", "parent", "change")]
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["tree"], row["argv"]) for row in lines] == [
        ("parent", ["ospq", "x"]), ("change", ["ospq", "x"]),
        ("parent", ["ospq", "y"]), ("change", ["ospq", "y"]),
    ]


def test_rep_at_the_size_guard_passes_in_a_child():
    # the whole command at k^n = 10^5: every relation row is read on the
    # modes it touches, so the command ends well within its bound
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ospq.cli", "rep", "--n", "5", "--k", "10"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "x sqrt(k^" in proc.stdout
    assert elapsed < 4.0, f"rep --n 5 --k 10 took {elapsed:.1f}s"


def test_cli_import_leaves_numpy_and_scipy_unloaded():
    # only rep and decompose need them; they import fockrep on demand
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ospq.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rep_and_decompose_leave_scipy_unloaded(tmp_path):
    # numpy is the only runtime dependency: with scipy blocked from import,
    # the checks and the CSV export of rep --out still run
    stem = str(tmp_path / "m")
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from ospq.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['rep', '--n', '2', '--k', '3']),\n"
        "             main(['decompose', '--n', '2', '--k', '3']),\n"
        f"             main(['rep', '--n', '2', '--k', '3', '--out', {stem!r}])]\n"
        "print(codes)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0]"
    for label in ("a1+", "a1-", "k1", "L1", "a2+", "a2-", "k2", "L2"):
        assert (tmp_path / f"m.{label}.csv").is_file()


def test_decompose_builds_the_decomposition_once(capsys, monkeypatch):
    built = []
    real = fockrep.GlDecomposition

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(fockrep, "GlDecomposition", counting)
    fockrep.fock_space.cache_clear()
    assert main(["decompose", "--n", "2", "--k", "3"]) == 0
    # one space for the command, and one decomposition, read by both the
    # report and the checks
    assert fockrep.fock_space.cache_info().misses == 1
    assert len(built) == 1


def _readme_commands() -> list[tuple[list[str], str]]:
    """(argv, trailing comment) of each `ospq` line of the README's
    command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        if line.startswith("ospq "):
            command, _, comment = line.partition("  #")
            out.append((shlex.split(command)[1:], comment.strip()))
    return out


def test_readme_command_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 9
    stated_counts = 0
    for argv, comment in commands:
        code, out, err = run_main(capsys, *argv)
        assert code == (1 if "--corrupt-rules" in argv else 0), (argv, err)
        if argv == ["normal-order", "a1- a1+"]:
            assert out == comment + "\n"
        # a verify example that states its number of checks must run that many
        stated = re.search(r"\b(\d+) checks\b", comment)
        if argv[0] == "verify" and stated:
            stated_counts += 1
            total = re.search(r"^(?:PASS|FAIL): \d+/(\d+) checks passed$", out, re.M)
            assert total and total[1] == stated[1], (argv, comment)
    assert stated_counts >= 1


def test_readme_library_quick_start():
    # exec the README's python block, then check each result against the
    # comment on the line that made it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    scope: dict = {}
    exec(block, scope)
    comments = dict(
        (code.strip(), comment.strip())
        for code, _, comment in (line.partition("#") for line in block.splitlines())
        if comment
    )
    x, rows, rep, dec = (scope[name] for name in ("x", "rows", "rep", "dec"))
    assert str(x) == json.loads(comments["str(x)"]) == "q a1+ a1- + (2/(s+s^-1)) k1^-1"
    assert len(rows) == 99
    assert all(r.ok and r.residual == "exact-zero" for r in rows)
    assert comments["rows = verify_relations(2)"] == "99 relation instances, all exact zero"
    assert rep.matrix.shape == (9, 9)
    assert comments['rep = build_generator_matrix("a1+", n=2, k=3)'].startswith("9x9 ")
    assert [b.dim for b in dec.blocks] == [1, 2, 3, 2, 1]
    assert comments["dec = decompose_gl(2, 3)"] == "blocks of dims 1, 2, 3, 2, 1"


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
