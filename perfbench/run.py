"""Benchmark for the fclosure engine.

    python3 perfbench/run.py --workload survey --seed 20260810 --seconds 25 --trace 0

Runs one workload (or ``all`` of them, one after another in this process)
on the package under ``src/`` of the checkout holding this file.  A
workload is a fixed list of jobs.  With ``--trace 0`` it measures end to
end: the jobs run in turn, untraced, until ``--seconds`` are used, and a
pass over the jobs is timed as the sum of each job's median time.  With
``--trace 1`` it measures untraced for half the time, then makes two traced
passes and reports per-layer counters and times; the counters of the two
passes must agree exactly.  Output checks run after each job, outside the
timed region; any mismatch fails the run (exit code 1).

End-to-end times are host-speed-scaled wall times: a small fixed probe
loop runs every PROBE_EVERY_S while a job runs (its own time left out of
the job's) and before each set-up, and a job's wall time, or a set-up's,
is multiplied by PROBE_NOMINAL_S times the mean probe speed around it.  On
a shared host whose speed drifts by up to 2x within seconds, this keeps
medians of separate runs comparable; the raw wall times are in the report
line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count the items of one pass over the jobs, which every repeat
must reproduce, so they do not depend on how many passes fit the time.
See README.md in this directory for every metric, its unit and direction.
"""

from __future__ import annotations

import argparse
import heapq
import importlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# one probe's time on an idle 2-CPU x86-64 host with Python 3.11; it only
# sets the scale, so scaled times read close to wall times there
PROBE_NOMINAL_S = 0.003
# wall time between two probes while a job runs, and probes before a set-up
PROBE_EVERY_S = 0.25
PROBES_BETWEEN = 8

sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

# ratio -> (numerator, denominator) counters of one traced pass
RATIOS = {
    "ideals.groebner_basis.new_ratio": ("ideals.groebner_basis.new", "ideals.groebner_basis.fresh"),
    "frobenius.frobenius_preimage.fastpath_ratio": (
        "frobenius.frobenius_preimage.fastpath",
        "frobenius.frobenius_preimage.calls_e_pos",
    ),
    "workbench.sample_parameter_ideals.accept_ratio": (
        "workbench.sample_parameter_ideals.accepted",
        "workbench.sample_parameter_ideals.attempts",
    ),
}


class Sample(NamedTuple):
    """One untraced run of one job."""

    scaled: float  # wall time scaled to the nominal host speed
    wall: float
    completed: int
    attempted: int


def load_per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def git_sha():
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_engine():
    """A fresh import of the package under src/ (earlier imports purged)."""
    for name in [m for m in sys.modules if m == "fclosure" or m.startswith("fclosure.")]:
        del sys.modules[name]
    fc = importlib.import_module("fclosure")
    if Path(fc.__file__).resolve().parent != SRC / "fclosure":
        raise RuntimeError(f"imported fclosure from {fc.__file__}, not from {SRC}")
    return fc


# operands of the speed probe: sparse polynomials as dicts keyed by exponent
# tuples, in code the engine does not share
PROBE_F = {
    (i, j, k): (7 * i + 3 * j + k) % 5 + 1
    for i in range(12) for j in range(12) for k in range(3) if i + j + k < 16
}
PROBE_G = {(i, j, k): (i + 2 * j + k) % 5 + 1 for i in range(2) for j in range(5) for k in range(1)}


def probe():
    """Time of a fixed product of two sparse polynomials and a heap drain of
    its terms: the dict, tuple and heap work of the engine's inner loops, so
    its time tracks only the host's current speed."""
    t0 = perf_counter()
    acc = {}
    for e1, c1 in PROBE_G.items():
        for e2, c2 in PROBE_F.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = (acc.get(e, 0) + c1 * c2) % 5
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)
    heap = [(-sum(e),) + tuple(-x for x in reversed(e)) for e in acc]
    heapq.heapify(heap)
    while heap:
        heapq.heappop(heap)
    return perf_counter() - t0


def speed_scale(probe_times):
    """Nominal over current host speed, from probes spaced evenly in time:
    the work done in an interval is its length times the mean speed, and a
    probe's speed is the reciprocal of its time."""
    return PROBE_NOMINAL_S * statistics.fmean(1.0 / t for t in probe_times)


class ProbeTimer:
    """Runs ``probe()`` every PROBE_EVERY_S of wall time from a SIGALRM
    handler, in this thread, while a job runs; ``spans`` holds each
    handler's (start, end), so a job's wall time can leave them out."""

    def __enter__(self):
        self.spans = []
        self.times = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.times.append(probe())
        self.spans.append((t0, perf_counter()))

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, t0, t1):
        return sum(e - s for s, e in self.spans if t0 <= s and e <= t1)


def timed_setup(workload):
    """Import plus ring construction; the workload keeps the fresh state."""
    t0 = perf_counter()
    workload.setup(import_engine())
    return perf_counter() - t0


def run_job(workload, label, job):
    """Wall time of one job without its probes, the probe times, and the
    job's item counts; the output is checked after the timed region."""
    with ProbeTimer() as timer:
        t0 = perf_counter()
        completed, attempted, output = job()
        t1 = perf_counter()
    wall = t1 - t0 - timer.between(t0, t1)
    workload.check(label, output)
    return wall, timer.times, completed, attempted


def measure(workload, seconds):
    """Cycle through the jobs, untraced, until the next one would end after
    ``seconds``; every job runs at least once, each after a fresh set-up,
    so set-up samples spread over the run like the job samples do.  A job
    is scaled by the probes taken while it ran (and one after it), a set-up
    by PROBES_BETWEEN probes taken just before it.  Returns label ->
    [Sample], the scaled set-up times, and the mean probe time of each
    job."""
    jobs = workload.jobs()
    runs = {label: [] for label, _ in jobs}
    setups, probe_means = [], []
    start = perf_counter()
    for i in itertools.count():
        label, job = jobs[i % len(jobs)]
        done = runs[label]
        if done and perf_counter() - start + done[-1].wall > seconds:
            break
        before = [probe() for _ in range(PROBES_BETWEEN)]
        setup = timed_setup(workload)
        wall, during, completed, attempted = run_job(workload, label, job)
        during.append(probe())
        setups.append(setup * speed_scale(before))
        probe_means.append(statistics.fmean(during))
        done.append(Sample(wall * speed_scale(during), wall, completed, attempted))
    return runs, setups, probe_means


def one_pass(runs):
    """Items and attempts of one pass over the jobs, and its time as the sum
    of each job's median time: scaled, and raw wall.  Every repeat of a job
    must complete and attempt the same items, so one pass stands for all."""
    for label, r in runs.items():
        counts = {(x.completed, x.attempted) for x in r}
        if len(counts) > 1:
            raise CheckError(f"{label}: item counts differ between repeats: {sorted(counts)}")
    completed = sum(r[0].completed for r in runs.values())
    attempted = sum(r[0].attempted for r in runs.values())
    scaled = sum(statistics.median(x.scaled for x in r) for r in runs.values())
    wall = sum(statistics.median(x.wall for x in r) for r in runs.values())
    return completed, attempted, scaled, wall


def per_layer(tracer, workload, untraced_wall, names):
    """Two traced passes over the jobs; their counters must agree exactly."""
    jobs = workload.jobs()
    tracer.install()
    try:
        snaps, walls, times = [], [], []
        for _ in range(2):
            with tracer.recording():
                t0 = perf_counter()
                outputs = [(label, job()[2]) for label, job in jobs]
                walls.append(perf_counter() - t0)
            for label, output in outputs:
                workload.check(label, output)
            snaps.append(tracer.counters())
            times.append(tracer.times())
    finally:
        tracer.uninstall()
    if snaps[0] != snaps[1]:
        diff = sorted(k for k in set(snaps[0]) | set(snaps[1]) if snaps[0].get(k) != snaps[1].get(k))
        raise CheckError(f"traced counters differ between passes: {diff[:10]}")
    counts = dict(snaps[0])
    for caller, callee in workload.traced_edges:
        if not counts.get(f"edge:{caller}->{callee}"):
            raise CheckError(f"the tracer missed the call {caller} -> {callee}")
    new = counts.get("ideals.groebner_basis.fresh", 0) - counts.get("ideals.groebner_basis.repeat", 0)
    counts["ideals.groebner_basis.new"] = new
    for name, (num, den) in RATIOS.items():
        d = counts.get(den, 0)
        counts[name] = counts.get(num, 0) / d if d else 0.0
    timings = {k: statistics.median(t.get(k, 0.0) for t in times) for k in set().union(*times)}
    overhead = statistics.median(walls) / untraced_wall
    metrics = {}
    for name, unit in names.items():
        if name == "trace.overhead":
            value = overhead
        elif name.endswith("_s"):
            value = timings.get(name, 0.0)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, counts, timings, walls


def run_workload(cls, seed, seconds, trace, names):
    workload = cls(seed)
    runs, setups, probe_means = measure(workload, seconds / 2 if trace else seconds)
    completed, attempted, pass_s, pass_wall_s = one_pass(runs)
    report = {
        "workload": workload.name,
        "input_seeds": workload.input_seeds,
        "jobs": {
            label: {
                "median_s": statistics.median(x.scaled for x in r),
                "scaled_s": [x.scaled for x in r],
                "wall_s": [x.wall for x in r],
            }
            for label, r in runs.items()
        },
        "pass_s": pass_s,
        "pass_wall_s": pass_wall_s,
        "probe_mean_s": probe_means,
    }
    if getattr(workload, "failures", None):
        report["failures"] = workload.failures
    if not trace:
        metrics = {
            "items_per_s": {"value": completed / pass_s, "unit": "1/s"},
            "ok_frac": {"value": completed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    else:
        metrics, counts, timings, traced_walls = per_layer(Tracer(), workload, pass_wall_s, names)
        report["traced_pass_wall_s"] = traced_walls
        report["counters"] = counts
        self_times = [(k, v) for k, v in timings.items() if k.endswith(".self_s")]
        report["top_self_s"] = sorted(self_times, key=lambda kv: -kv[1])[:8]
    return metrics, completed, attempted, report


def environment(args):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fclosure" / "__init__.py").is_file():
        print(f"no fclosure package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = load_per_layer_names() if args.trace else None
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"env": environment(args)}, sort_keys=True))
    metrics, attempted, completed, correct = {}, 0, 0, True
    for name in chosen:
        try:
            m, c, a, report = run_workload(
                WORKLOADS[name], args.seed, args.seconds, args.trace, names
            )
        except CheckError as exc:
            print(f"{name}: output check failed: {exc}", file=sys.stderr)
            correct = False
            break
        print(json.dumps({"report": report}, sort_keys=True, default=str))
        for key, v in m.items():
            print(f"{name:8s} {key:52s} {v['value']:>14.6g} {v['unit']}")
        prefix = "" if len(chosen) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
        completed += c
        attempted += a
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
