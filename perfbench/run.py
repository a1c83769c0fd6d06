"""Benchmark for hhext: cold CLI runs on fixed workloads.

Each timed run is one cold ``python -m hhext.cli <args> --format json
--no-timestamp`` process, because every CLI user pays the import and the
lru_cache fill on every run.  Runs are a closed loop with a single client:
one child process at a time, the next only after the previous has exited.
Every run's report is checked against the workload's golden report.

    python3 perfbench/run.py --workload dims-q --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 42

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` adds one traced in-process run (see tracing.py) and reports
the per-layer metrics instead.  ``--workload all`` interleaves the runs of
every workload and prefixes each metric with the workload name.

The program's inputs are fixed per workload; the seed only shuffles the
order in which the runs (cold runs, set-up probes, traced runs) interleave.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import TRACE_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"

WORKLOADS = {
    "dims-q": ["dims", "--n", "7", "--m-max", "5"],
    "ring-q": ["ring", "--n", "5", "--deg-max", "4"],
    "verify-gf3": ["verify", "--n", "3", "--m-max", "4", "--suite", "all",
                   "--oracle-cap", "300000", "--char", "3"],
}
REPORT_ARGS = ["--format", "json", "--no-timestamp"]

PROBES_PER_ROUND = 5   # set-up probes per workload in each early round
PROBES = 15            # set-up probes per workload in total
CHILD_TIMEOUT_S = 150  # a child still running then is killed and fails

# Import hhext.cli and report when the import ended, on the system-wide
# monotonic clock the parent also reads, so spawn time is included.
PROBE = ("import time, platform, hhext, hhext.cli; "
         "t = time.clock_gettime(time.CLOCK_MONOTONIC); "
         "print(t, platform.python_version(), hhext.__file__)")


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, env):
    """Run one child to completion.  Returns (exit code, stdout bytes,
    stderr bytes, wall seconds, CPU seconds, peak RSS in MiB), with CPU time
    and peak RSS from the child's own ``wait4`` rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = [], []
    readers = [threading.Thread(target=lambda p=p, s=s: s.append(p.read()))
               for p, s in ((proc.stdout, out), (proc.stderr, err))]
    for t in readers:
        t.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    return (proc.returncode, out[0], err[0], wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def probe(env):
    """One set-up probe: seconds from spawn to the end of ``import
    hhext.cli``, the Python version, and where hhext was imported from."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    code, out, err, *_ = spawn([sys.executable, "-c", PROBE], env)
    if code != 0:
        raise BenchError("cannot import hhext.cli from this checkout:\n"
                         + err.decode(errors="replace"))
    ended, version, path = out.decode().split(None, 2)
    path = Path(path.strip()).resolve()
    if not path.is_relative_to(SRC):
        raise BenchError(f"hhext imported from {path}, outside {SRC}")
    return float(ended) - start, version, path


def record_key(rec):
    return rec["id"], json.dumps(rec["params"], sort_keys=True)


def load_golden(name):
    with open(GOLDEN / f"{name}.json") as fh:
        return {record_key(r): r for r in json.load(fh)["records"]}


def golden_failure(code, stdout, golden):
    """Why a run fails the golden check, or None when it passes.

    A run fails on a nonzero exit, an unreadable report, or a golden record
    that is missing or differs in status, expected or computed.  Other keys
    and records not in the golden report are ignored.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        got = {record_key(r): r for r in json.loads(stdout)["records"]}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    for key, want in golden.items():
        have = got.get(key)
        if have is None:
            return f"missing record {key}"
        for field in ("status", "expected", "computed"):
            if have.get(field) != want[field]:
                return f"record {key} differs in {field}"
    return None


def percentile_report(values):
    """Median, the highest of p90/p99/p99.9 with at least ten samples
    beyond it (None when there are too few samples), and the count."""
    n = len(values)
    high = None
    for p in (90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(values)
            high = (p, ordered[min(n - 1, int(n * p / 100))])
    return statistics.median(values), high, n


class Workload:
    def __init__(self, name):
        self.name = name
        self.argv = [sys.executable, "-m", "hhext.cli",
                     *WORKLOADS[name], *REPORT_ARGS]
        self.golden = load_golden(name)
        self.wall, self.cpu, self.rss, self.setup = [], [], [], []
        self.attempted = self.failed = 0
        self.reports = set()
        self.traced = self.traced_wall = self.traced_report = None
        self.problems = []

    def cold_run(self, env):
        code, out, err, wall, cpu, rss = spawn(self.argv, env)
        self.attempted += 1
        why = golden_failure(code, out, self.golden)
        if why:
            self.failed += 1
            self.problems.append(f"run {self.attempted}: {why}")
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            log(f"{self.name}: FAILED {why}", *tail)
            return
        self.reports.add(out)
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.rss.append(rss)
        log(f"{self.name}: run {self.attempted} wall {wall:.3f} s "
            f"cpu {cpu:.3f} s rss {rss:.1f} MB")

    def traced_run(self, env):
        argv = [sys.executable, str(HERE / "tracing.py"),
                *WORKLOADS[self.name], *REPORT_ARGS]
        code, out, err, wall, *_ = spawn(argv, env)
        why = golden_failure(code, out, self.golden)
        lines = err.decode(errors="replace").splitlines()
        if why or not lines or not lines[-1].startswith(TRACE_PREFIX):
            self.problems.append(f"traced run: {why or 'no trace line'}")
            log(f"{self.name}: traced run FAILED {why}", *lines[-3:])
            return
        self.traced = json.loads(lines[-1][len(TRACE_PREFIX):])
        self.traced_wall = wall
        self.traced_report = out
        log(f"{self.name}: traced run wall {wall:.3f} s")

    def correct(self, trace):
        if self.failed or not self.reports:
            return False
        if len(self.reports) != 1:
            self.problems.append("untraced reports differ between runs")
            return False
        if trace:
            if self.traced is None:
                return False
            if self.traced_report not in self.reports:
                self.problems.append("traced report bytes differ")
                return False
        return True

    def metrics(self, trace):
        if trace:
            if self.traced is None or not self.wall:
                return {}
            out = dict(self.traced)
            out["trace.overhead"] = (self.traced_wall
                                     / statistics.median(self.wall))
            return out
        if not self.wall:
            return {}
        median = statistics.median
        return {
            "wall_s": median(self.wall),
            "cpu_s": median(self.cpu),
            "peak_rss_mb": median(self.rss),
            "setup_s": median(self.setup),
        }


def log(*lines):
    for line in lines:
        print(line, file=sys.stderr, flush=True)


def measure(names, seconds, seed, trace, env):
    """Run rounds while the next round is expected to end within the time
    budget (the last round's duration is the estimate); at least one round.
    Each round holds one cold run per workload.  In untraced mode the early
    rounds also hold set-up probes; in traced mode the first round also
    holds one traced run per workload.
    The seed shuffles the order of a round's events."""
    rng = random.Random(seed)
    loads = {name: Workload(name) for name in names}
    start = time.perf_counter()
    budget = seconds * len(names)
    rnd = 0
    while True:
        round_start = time.perf_counter()
        events = [(name, "run") for name in names]
        if trace and rnd == 0:
            events += [(name, "traced") for name in names]
        if not trace and rnd * PROBES_PER_ROUND < PROBES:
            events += [(name, "probe") for name in names
                       for _ in range(PROBES_PER_ROUND)]
        rng.shuffle(events)
        for name, kind in events:
            w = loads[name]
            if kind == "run":
                w.cold_run(env)
            elif kind == "traced":
                w.traced_run(env)
            else:
                w.setup.append(probe(env)[0])
        rnd += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > budget:
            break
    if not trace:
        for w in loads.values():
            while len(w.setup) < PROBES:
                w.setup.append(probe(env)[0])
    return [loads[name] for name in names]


def unit_of(metric):
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_yield") or metric == "trace.overhead":
        return "ratio"
    return "count"


def print_summary(w, trace):
    """Print every metric of the workload by name and unit; untraced
    timings also with their sample count, maximum and high percentile."""
    if trace:
        for metric, value in sorted(w.metrics(True).items()):
            print(f"{w.name:<11} {metric:<29} {value:<24} {unit_of(metric)}")
        return
    for metric, samples, unit in (("wall_s", w.wall, "s"), ("cpu_s", w.cpu, "s"),
                                  ("peak_rss_mb", w.rss, "MB"),
                                  ("setup_s", w.setup, "s")):
        if samples:
            median, high, n = percentile_report(samples)
            tail = f"p{high[0]} {high[1]:.4f}" if high else "no high percentile"
            print(f"{w.name:<11} {metric:<12} {median:.4f} {unit:<2} median "
                  f"of n={n}, max {max(samples):.4f}, {tail}")
    share = w.failed / w.attempted if w.attempted else 1.0
    print(f"{w.name:<11} {'fail_share':<12} {share:.4f} ratio "
          f"({w.failed} of {w.attempted} runs failed)")


def commit_of(root):
    """The checked-out commit, read from .git without running git, or None
    (the benchmark may run in an export that is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    env = child_env()
    try:
        # untimed: compiles bytecode and checks which hhext is measured
        _, version, path = probe(env)
        print(json.dumps({"info": {
            "commit": commit_of(ROOT), "python": version,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "hhext": str(path), "workloads": {n: WORKLOADS[n] for n in names},
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}}))
        loads = measure(names, args.seconds, args.seed, trace, env)
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 1

    correct = all(w.correct(trace) for w in loads)
    metrics = {}
    for w in loads:
        print_summary(w, trace)
        for metric, value in w.metrics(trace).items():
            key = metric if len(loads) == 1 else f"{w.name}.{metric}"
            metrics[key] = {"value": value, "unit": unit_of(metric)}
        for problem in w.problems:
            log(f"{w.name}: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(w.attempted for w in loads),
        "failed": sum(w.failed for w in loads),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
