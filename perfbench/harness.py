"""Measurement plumbing shared by the workloads: checks, time limits, spans,
and calibration of times against a fixed probe.

A `Sweep` is one timed pass over a workload's inputs.  Every call into the
program goes through `Sweep.call`, which records a span (name, start, end,
parent) when the sweep is traced, and every verdict goes through
`Sweep.verdict`, which counts it, feeds the result digest and remembers
failures the known-defect list does not explain.  `Sweep.guard` runs one
step (a check or a report) under the time limit, so a regression into an
exponential regime ends as a failed check instead of a hang.

Calibration.  Other tenants of a shared machine slow the whole CPU down,
often by half and for seconds to minutes at a time, which no number of
repeats inside one run can average away.  So between steps, at most every
PROBE_EVERY_S, the sweep times a short fixed pure-Python probe.  Each step's
measured time is scaled by (PROBE_REFERENCE_S / the median of the probes
around it) ** CALIBRATION_EXPONENT, the exponent because the program slows
down less than the probe does; calibrated times read as seconds on an
uncontended machine of the reference type.  Set-up times are calibrated
the same way against a reference child process (see `time_setup`).  Raw
times are kept alongside.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

# median probe time on an uncontended 2-vCPU Intel Xeon (Python 3.11)
PROBE_REFERENCE_S = 0.0013
# under contention the workloads' times grow as the probe's time to a power
# between 0.5 and 0.9 (fitted per workload); one compromise exponent for all
CALIBRATION_EXPONENT = 0.7
PROBE_EVERY_S = 0.1
# setup_s is calibrated by a fresh interpreter importing these, which took
# REFERENCE_IMPORT_S on the same machine uncontended
REFERENCE_IMPORTS = ("numpy", "scipy.sparse", "scipy.sparse.csgraph")
REFERENCE_IMPORT_S = 0.31
# a step is calibrated by the median of the probes within this many seconds
# of it (at least PROBE_MIN of the nearest ones)
PROBE_WINDOW_S = 0.5
PROBE_MIN = 3

# tail percentiles, highest first; the reported tail is the highest one that
# leaves at least TAIL_MIN_BEYOND samples above it
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def probe() -> float:
    """Seconds for a fixed mix of Fraction arithmetic and dict updates, the
    kind of work the exact layers do; the collector is held off meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(600):
        acc += Fraction(i % 7, 1 + i % 5)
        key = (i % 31, i % 3)
        table[key] = table.get(key, 0) + i
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def calibration(probe_s: float) -> float:
    """Factor from measured to calibrated seconds, given the local probe."""
    return (PROBE_REFERENCE_S / probe_s) ** CALIBRATION_EXPONENT


def local_probe(times: list[float], probes: list[float], t0: float, t1: float) -> float:
    """Median probe within PROBE_WINDOW_S of the interval t0..t1, or of the
    PROBE_MIN probes nearest to it."""
    lo = bisect.bisect_left(times, t0 - PROBE_WINDOW_S)
    hi = bisect.bisect_right(times, t1 + PROBE_WINDOW_S)
    while hi - lo < min(PROBE_MIN, len(times)):
        if lo > 0 and (hi == len(times) or t0 - times[lo - 1] < times[hi] - t1):
            lo -= 1
        else:
            hi += 1
    return statistics.median(probes[lo:hi])


class CheckTimeout(Exception):
    """Raised inside a check when its time limit expires."""


def _on_alarm(signum, frame):
    raise CheckTimeout()


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


class Sweep:
    """Counters, steps, probes, digest and (optionally) spans of one sweep."""

    def __init__(self, run_id: str, traced: bool, check_limit: float,
                 hard_deadline: float, is_known_defect: Callable[[str], bool]):
        self.run_id = run_id
        self.traced = traced
        self.check_limit = check_limit
        self.hard_deadline = hard_deadline
        self.is_known_defect = is_known_defect
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.counters: dict[str, float] = {}
        self.notes: list[str] = []
        self._digest = hashlib.sha256()
        # one entry per top-level step: raw seconds, whether it is a
        # check-latency sample, and when it started
        self.steps: list[float] = []
        self.sampled: list[bool] = []
        self._step_starts: list[float] = []
        # probe durations and the times they ended
        self.probes: list[float] = []
        self._probe_times: list[float] = []
        self._guarding = False
        # span rows: (span id, parent id, name, start, end); id 0 is the sweep
        self.spans: list[tuple[int, int, str, float, float] | None] = []
        self._open = [0]
        self.start = self.end = 0.0

    # -- timing ----------------------------------------------------------

    def _probe(self) -> None:
        self.probes.append(probe())
        self._probe_times.append(time.perf_counter())

    def begin(self) -> None:
        self._probe()
        self.start = time.perf_counter()

    def finish(self) -> None:
        self.end = time.perf_counter()
        self._probe()
        if self.traced:
            self.spans.append((0, -1, "sweep", self.start, self.end))

    @property
    def raw_wall(self) -> float:
        """Seconds from the first step to the last, probes excluded."""
        return self.end - self.start - sum(self.probes[1:-1])

    def calibrated_steps(self) -> list[tuple[float, float]]:
        """(local probe, calibrated seconds) per step."""
        out = []
        for raw, t0 in zip(self.steps, self._step_starts):
            local = local_probe(self._probe_times, self.probes, t0, t0 + raw)
            out.append((local, raw * calibration(local)))
        return out

    @property
    def between(self) -> float:
        """Calibrated seconds between steps (the benchmark's own checks)."""
        return (self.raw_wall - sum(self.steps)) * calibration(statistics.median(self.probes))

    @property
    def wall(self) -> float:
        """Calibrated sweep seconds."""
        return sum(c for _, c in self.calibrated_steps()) + self.between

    def call(self, layer: str, fn, *args, **kwargs):
        """Call into the program; a traced sweep records a span named layer."""
        if not self.traced:
            return fn(*args, **kwargs)
        span_id = len(self.spans) + 1
        parent = self._open[-1]
        self._open.append(span_id)
        # reserve the slot so children get larger ids than their parent
        self.spans.append(None)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            self.spans[span_id - 1] = (span_id, parent, layer, t0, t1)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- checks ----------------------------------------------------------

    def guard(self, ident: str, body: Callable[[], object], sample: bool = False):
        """Run body() as one step under the time limit.

        Returns its result, or None after counting a failed check `ident`
        when it raises or runs out of time.  With sample=True the step's
        duration is one check-latency sample.  Inside another guard, body
        just runs and the outer guard answers for it.
        """
        if self._guarding:
            return body()
        remaining = min(self.check_limit, self.hard_deadline - time.monotonic())
        if remaining <= 0:
            self.verdict(ident, False, "run time limit reached before the check")
            return None
        if time.perf_counter() - self._probe_times[-1] >= PROBE_EVERY_S:
            self._probe()
        depth = len(self._open)
        self._guarding = True
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                result = body()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CheckTimeout:
            self.verdict(ident, False, f"exceeded the {remaining:.0f} s time limit")
            result = None
        except Exception as exc:  # a check that raises is a failed check
            self.verdict(ident, False, f"raised {type(exc).__name__}: {exc}")
            result = None
        finally:
            self._guarding = False
        self.steps.append(time.perf_counter() - t0)
        self.sampled.append(sample)
        self._step_starts.append(t0)
        del self._open[depth:]
        return result

    def verdict(self, ident: str, ok: bool, note: str = "", extra: str = "") -> None:
        """Count one check; `extra` (e.g. a rendered normal form) joins the digest."""
        self.attempted += 1
        status = "pass" if ok else "fail"
        self._digest.update(f"{ident}\t{status}\t{extra}\n".encode())
        if not ok:
            self.failed += 1
            if not self.is_known_defect(ident):
                self.unexpected.append(f"{ident}: {note}" if note else ident)

    def digest(self) -> str:
        return self._digest.hexdigest()

    # -- trace analysis ----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Calibrated seconds per span name, each span minus the time its
        children cover; probes are taken out of the sweep's own time."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * (len(self.spans) + 1)
        for _, parent, _, t0, t1 in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, float] = {}
        for span_id, _, name, t0, t1 in spans:
            out[name] = out.get(name, 0.0) + (t1 - t0) - child_time[span_id]
        out["sweep"] -= sum(self.probes[1:-1])
        factor = calibration(statistics.median(self.probes))
        return {name: t * factor for name, t in out.items()}


# ---------------------------------------------------------------- statistics


def stepwise_median(sweeps: list[Sweep]) -> tuple[float, list[float]]:
    """The median sweep, taken step by step, in calibrated seconds.

    Returns (wall seconds, latency samples).  Every sweep of a run takes the
    same steps, so each step's median over the sweeps is summed, plus the
    median time between steps.  If sweeps took different steps, this falls
    back to the median wall and pooled samples.
    """
    steps = [[c for _, c in s.calibrated_steps()] for s in sweeps]
    if len({len(s) for s in steps}) != 1:
        wall = statistics.median(s.wall for s in sweeps)
        return wall, [c for s, cal in zip(sweeps, steps)
                      for c, x in zip(cal, s.sampled) if x]
    per_step = [statistics.median(col) for col in zip(*steps)]
    between = statistics.median(s.between for s in sweeps)
    samples = [d for d, x in zip(per_step, sweeps[0].sampled) if x]
    return sum(per_step) + between, samples


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta((n+1)p, (n+1)(1-p)) density (at the midpoints of
    their rank intervals), steadier than a single order statistic where the
    samples are sparse or fall into clusters around the quantile."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile in
    TAIL_PERCENTILES with at least TAIL_MIN_BEYOND samples beyond its rank;
    the maximum when there are too few samples for any."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        beyond = n - max(1, math.ceil(n * p / 100))
        if beyond >= TAIL_MIN_BEYOND:
            return p, quantile(samples, p / 100), beyond
    return 100.0, max(samples), 0


# --------------------------------------------------------------- environment


def _child_seconds(code: str) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {code!r} failed:\n{proc.stderr}")
    return elapsed


def time_setup(src: Path, modules: tuple[str, ...]) -> tuple[float, float]:
    """(calibrated, raw) seconds from interpreter start to the end of the
    workload's imports, in a fresh child process.

    Start-up time does not follow the probe, so it is calibrated by a
    reference child started just before, which imports only the program's
    third-party dependencies: raw * REFERENCE_IMPORT_S / reference time.
    """
    reference = _child_seconds("import " + ", ".join(REFERENCE_IMPORTS))
    raw = _child_seconds(f"import sys; sys.path.insert(0, {str(src)!r}); "
                         f"import {', '.join(modules)}")
    return raw * REFERENCE_IMPORT_S / reference, raw


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int, threads_was_set: bool) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(root),
        "seed": seed,
        "OSPQ_THREADS_set": threads_was_set,
    }
