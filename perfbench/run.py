"""ospq benchmark: one workload, one seed, timed sweeps, checked outputs.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Workloads and metrics are declared in BENCHMARK.json and described in
workloads.py.  A run repeats sweeps over the seeded inputs in this process,
single-threaded, for about --seconds; every sweep starts from empty program
caches.  Untraced runs also time a few fresh interpreters importing what the
workload needs (setup_s).  Times are calibrated, as harness.py explains,
and reduced by medians.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced sweeps and reports the per-layer metrics: self times of the
spans recorded around each call into the program, the counters read at the
same places, the tracing overhead, and the sweep time no layer span covers.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts every failed check,
including the known G3 defect; `correct` is false when any other check
fails, when sweeps disagree on the result digest, or when nothing ran.
A record with the environment, digest, per-sweep numbers and (traced) all
spans is written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

CHECK_LIMIT_S = 30.0  # one check (a word, a catalog instance, a public call)
HARD_LIMIT_S = 150.0  # after this every remaining check fails at once
SETUP_REPEATS = {"full": 3, "tiny": 1}

# what each workload imports, timed from interpreter start as setup_s
IMPORTS = {
    "symbolic": ("ospq.ospclassic", "ospq.uqosp", "ospq.cli"),
    "rewrite": ("ospq.walgebra", "ospq.cli"),
    "matrices": ("ospq.fockrep", "ospq.cli"),
    "decompose": ("ospq.fockrep", "ospq.cli"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(IMPORTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's own smoke test")
    return p.parse_args(argv)


def declared_units(group: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def run_sweeps(args, workloads, harness, started: float) -> tuple[list, list]:
    """Sweeps for about --seconds.  Untraced runs also time set-up once
    before the first sweep and after each until SETUP_REPEATS, so slow
    phases of the machine hit few of them."""
    sz = workloads.SIZES[args.size]
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    sweep_fn = workloads.SWEEPS[args.workload]
    hard_deadline = started + HARD_LIMIT_S
    setups = 0 if args.trace else SETUP_REPEATS[args.size]
    setup_times: list[tuple[float, float]] = []
    sweeps = []
    loop_start = time.monotonic()
    while True:
        if len(setup_times) < setups:
            setup_times.append(harness.time_setup(SRC, IMPORTS[args.workload]))
        traced = bool(args.trace) and len(sweeps) % 2 == 1
        sw = harness.Sweep(f"{args.workload}-{args.seed}-{len(sweeps)}", traced,
                           CHECK_LIMIT_S, hard_deadline, workloads.is_known_defect)
        workloads.clear_caches()
        gc.collect()
        sw.begin()
        sweep_fn(sw, inputs, sz)
        sw.finish()
        workloads.cache_stats(sw)
        sweeps.append(sw)
        elapsed = time.monotonic() - loop_start
        typical = statistics.median(s.end - s.start for s in sweeps)
        enough = len(sweeps) >= (2 if args.trace else 1)
        if enough and elapsed + typical > args.seconds:
            break
        if time.monotonic() + typical > hard_deadline:
            break
    while len(setup_times) < setups:
        setup_times.append(harness.time_setup(SRC, IMPORTS[args.workload]))
    return sweeps, setup_times


def end_to_end(sweeps, harness, setup_times, lines) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall, samples = harness.stepwise_median(sweeps)
    pct, tail_value, beyond = harness.tail(samples)
    lines.append(f"check latency: {len(samples)} samples, one per timed check, each "
                 f"reduced over {len(sweeps)} sweeps; check_tail_ms is p{pct:g} with "
                 f"{beyond} samples beyond it")
    return {
        "wall_s": wall,
        "checks_per_s": statistics.median(s.attempted for s in sweeps) / wall,
        "check_p50_ms": harness.quantile(samples, 0.5) * 1e3,
        "check_tail_ms": tail_value * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(cal for cal, _ in setup_times),
    }


def per_layer(sweeps, harness, units, lines) -> dict:
    plain = [s for s in sweeps if not s.traced]
    traced = [s for s in sweeps if s.traced]
    samples: dict[str, list[float]] = {name: [] for name in units}
    unknown: set[str] = set()
    for sw in traced:
        values = {f"{name}_s": t for name, t in sw.self_times().items()}
        values.update(sw.counters)
        values["trace.unattributed_s"] = values.pop("sweep_s")
        for name in units:
            samples[name].append(values.get(name, 0.0))
        unknown |= set(values) - set(units)
    if unknown:
        lines.append(f"layer metrics not in BENCHMARK.json: {', '.join(sorted(unknown))}")
    out = {name: statistics.median(v) for name, v in samples.items()}
    traced_wall = harness.stepwise_median(traced)[0]
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - harness.stepwise_median(plain)[0]
    return out


def write_record(args, env, sweeps, setup_times, metrics, digest) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "environment": env,
        "digest": digest,
        "metrics": metrics,
        "setup_s": setup_times,
        "sweeps": [
            {"run_id": s.run_id, "traced": s.traced, "wall_s": s.wall,
             "raw_wall_s": s.raw_wall, "probes": len(s.probes),
             "probe_median_s": statistics.median(s.probes),
             "attempted": s.attempted, "failed": s.failed,
             "unexpected": s.unexpected, "counters": s.counters,
             "steps": [round(d, 6) for d in s.steps],
             "step_probes": [round(p, 7) for p, _ in s.calibrated_steps()]}
            for s in sweeps
        ],
        "spans": [
            {"run": s.run_id, "id": sid, "parent": parent, "name": name,
             "start": t0 - s.start, "end": t1 - s.start}
            for s in sweeps if s.traced
            for sid, parent, name, t0, t1 in filter(None, s.spans)
        ],
    }
    path.write_text(json.dumps(record) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (SRC / "ospq" / "__init__.py").is_file():
        print(f"error: no ospq sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # an inherited thread count must not change the numbers; the setup
    # children inherit the cleared environment
    threads_was_set = "OSPQ_THREADS" in os.environ
    os.environ.pop("OSPQ_THREADS", None)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    sys.path.insert(0, str(SRC))
    import workloads

    env = harness.environment(ROOT, args.seed, threads_was_set)
    harness.install_alarm()
    sweeps, setup_times = run_sweeps(args, workloads, harness, started)

    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}",
        "environment " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for s in sweeps:
        lines.append(f"sweep {s.run_id}{' traced' if s.traced else ''}: "
                     f"{s.wall:.4f} s calibrated, {s.raw_wall:.4f} s raw, "
                     f"{s.attempted} checks, {s.failed} failed")
    digests = {s.digest() for s in sweeps}
    digest = digests.pop() if len(digests) == 1 else "inconsistent"
    unexpected = [u for s in sweeps for u in s.unexpected]
    notes = sorted({n for s in sweeps for n in s.notes})
    attempted = sum(s.attempted for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    if args.trace:
        units = declared_units("per_layer")
        metrics = per_layer(sweeps, harness, units, lines)
    else:
        units = declared_units("end_to_end")
        metrics = end_to_end(sweeps, harness, setup_times, lines)
    lines.append(f"fail_share = {failed / attempted if attempted else 0.0:.6f} "
                 f"(share; {failed} failed of {attempted} attempted)")
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    lines.append(f"digest sha256:{digest}")
    lines += notes
    if unexpected:
        lines.append(f"unexpected failures ({len(unexpected)}): " + "; ".join(unexpected[:10]))
    path = write_record(args, env, sweeps, setup_times, metrics, digest)
    lines.append(f"record {path.relative_to(ROOT)}")
    print("\n".join(lines))
    result = {
        "correct": bool(sweeps) and not unexpected and digest != "inconsistent",
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
