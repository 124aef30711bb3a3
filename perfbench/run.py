"""The ksetwl benchmark: time-to-gram of ``ksetwl gram`` on fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Users of ksetwl run batch jobs that turn a graph dataset into a gram matrix
for an SVM; they wait for the gram and can be stopped by memory.  One
client runs one ``ksetwl gram`` child at a time (a closed loop, default
``--threads 1``) from the source tree, and every gram is checked.

* ``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median wall time
  of one gram process), ``setup_s`` (median wall time of ``ksetwl info`` on
  the same dataset: interpreter start, import and parse) and ``peak_rss_mb``
  (median peak resident memory of a gram process).
* ``--trace 1`` runs the same untraced loop, then one gram in a child with
  the wrappers of ``tracer.py`` installed, and prints per-layer self times
  and counts plus ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
(host facts, every run, the full trace) goes to a results file under
``.bench_build/perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_RUNS = 7
# Every untraced loop times at least this many grams, so that wall_s is a
# median even where one gram takes longer than --seconds.
MIN_GRAMS = 2
# Leaves room inside the 180 s a run may take for set-up and the check.
DEADLINE_S = 165.0

# per-layer metric -> the span whose self time it is
SPAN_METRICS = {
    "kwl.neighbor_csr_s": "kwl.neighbor_csr",
    "kwl.iso_code_s": "kwl.iso_code",
    "ksets.enumerate_s": "ksets.enumerate",
    "interner.refine_window_s": "interner.refine_window",
    "features.gram_s": "features.gram",
    "pipeline.features_s": "pipeline.features",
    "sampling.ball_context_s": "sampling.ball_context",
    "kwl.c_neighborhood_s": "kwl.c_neighborhood",
    "graph.induced_subgraph_s": "graph.induced_subgraph",
    "sampling.label_s": "sampling.label",
    "sampling.draw_s": "sampling.draw",
    "sampling.bound_s": "sampling.bound",
    "sampling.estimate_s": "sampling.estimate",
    "tu_io.parse_s": "tu_io.parse",
    "tu_io.write_s": "tu_io.write",
}
PER_SAMPLE_SIZES = workloads.REGULAR_SIZES


@dataclass
class ChildRun:
    """Outcome of one ksetwl child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: list[str], log_path: str, timeout_s: float,
              extra_path: str | None = None) -> ChildRun:
    """Run ``argv`` with the checkout's ``src`` importable and wait for it.

    Wall time runs from just before the spawn to the reap; CPU time and
    peak RSS come from the child's own rusage.  A child that outlives
    ``timeout_s`` is killed and reported with a negative code.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, extra_path) if p)
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, cwd=ROOT, env=env)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


def ksetwl_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "ksetwl.cli", *args]


def traced_argv(trace_path: str, args: list[str]) -> list[str]:
    return [sys.executable, os.path.join(HERE, "traced_gram.py"), trace_path,
            "--", *args]


# --------------------------------------------------------------- host facts

def steal_jiffies() -> int | None:
    """Steal time of all CPUs so far, from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def host_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "loadavg": list(os.getloadavg())}


# ---------------------------------------------------------------- the runs

class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.wl = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(BUILD, "work", workload)
        self.data_dir = os.path.join(self.work, self.wl.dataset)
        self.output = os.path.join(self.work, "out", "gram")
        self.started = time.perf_counter()
        self.reference = workloads.load_reference()
        self.classes: list[int] = []
        self.grams: list[dict] = []
        self.setups: list[float] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.dirname(self.output))
        self.classes = workloads.prepare_inputs(self.wl.name, ROOT,
                                                self.data_dir, self.seed)

    def setup_times(self) -> None:
        """``ksetwl info`` SETUP_RUNS times; any failure aborts the run."""
        log = os.path.join(self.work, "info.log")
        for _ in range(SETUP_RUNS):
            run = run_child(ksetwl_argv(["info", "--dataset", self.data_dir]),
                            log, self.remaining())
            if run.code != 0:
                with open(log) as f:
                    sys.stderr.write(f.read())
                raise SystemExit(f"ksetwl info exited {run.code}; "
                                 "nothing to measure")
            self.setups.append(run.wall_s)

    def gram(self, traced: bool) -> tuple[ChildRun, dict | None]:
        """One checked gram run, recorded in ``self.grams``."""
        for path in (self.output, self.output + ".manifest.json"):
            if os.path.exists(path):
                os.remove(path)
        args = self.wl.command(self.data_dir, self.output, self.seed)
        trace_path = os.path.join(self.work, "trace.json")
        argv = traced_argv(trace_path, args) if traced else ksetwl_argv(args)
        run = run_child(argv, os.path.join(self.work, "gram.log"),
                        self.remaining(), extra_path=HERE if traced else None)
        record = {"traced": traced, "code": run.code, "wall_s": run.wall_s,
                  "cpu_s": run.cpu_s, "peak_rss_mb": run.rss_mb, "ok": False}
        trace = None
        if run.code != 0:
            record["error"] = f"exit code {run.code}"
        else:
            try:
                record["check"] = workloads.CHECKS[self.wl.name](
                    self.output, self.classes, self.reference)
                record["ok"] = True
            except (workloads.CheckError, OSError, ValueError) as exc:
                record["error"] = f"check failed: {exc}"
            if traced:
                with open(trace_path) as f:
                    trace = json.load(f)
        self.grams.append(record)
        print(f"gram{' (traced)' if traced else ''}: exit {run.code} "
              f"wall {run.wall_s:.3f} s cpu {run.cpu_s:.3f} s "
              f"rss {run.rss_mb:.1f} MB "
              f"{'ok' if record['ok'] else record['error']} "
              f"{json.dumps(record.get('check', {}))}", flush=True)
        return run, trace

    def untraced_loop(self) -> list[ChildRun]:
        """At least MIN_GRAMS grams, then more while the next one is
        expected to end within ``seconds`` of the first one's start."""
        runs = []
        t0 = time.perf_counter()
        while True:
            run, _ = self.gram(traced=False)
            runs.append(run)
            elapsed = time.perf_counter() - t0
            if self.remaining() < 2 * run.wall_s + 5:
                return runs
            if len(runs) >= MIN_GRAMS and elapsed + run.wall_s > self.seconds:
                return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_metrics(setups: list[float], untraced: list[ChildRun]) -> dict:
    """Metric name -> (value, unit), as BENCHMARK.json lists them."""
    return {
        "wall_s": (statistics.median(r.wall_s for r in untraced), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in untraced), "MB"),
    }


def per_layer_metrics(trace: dict, traced: ChildRun, untraced_wall: float) -> dict:
    """Metric name -> (value, unit) from one traced gram's report."""
    spans = trace["spans"]
    counts = trace["counts"]

    def self_s(span):
        return spans.get(span, {}).get("self_s", 0.0)

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    m = {name: (self_s(span), "s") for name, span in SPAN_METRICS.items()}
    samples = counts.get("sampling.samples", 0)
    contexts = calls("sampling.ball_context")
    m.update({
        "kwl.kset_edges": (counts.get("kwl.kset_edges", 0), "count"),
        "kwl.iso_code_calls": (calls("kwl.iso_code"), "count"),
        "ksets.sets": (counts.get("ksets.sets", 0), "count"),
        "interner.windows": (calls("interner.refine_window"), "count"),
        "interner.labels": (trace["labels"], "count"),
        "sampling.samples": (samples, "count"),
        "sampling.contexts": (contexts, "count"),
        "sampling.memo_hit_ratio": (1.0 - contexts / samples if samples
                                    else 0.0, "ratio"),
        "sampling.rounds": (calls("sampling.bound"), "count"),
    })
    for n in PER_SAMPLE_SIZES:
        graphs = [g for g in trace["per_graph"] if g["n"] == n and g["samples"]]
        ms = (1000.0 * sum(g["seconds"] for g in graphs)
              / sum(g["samples"] for g in graphs)) if graphs else 0.0
        m[f"sampling.ms_per_sample.n{n // 1000}k"] = (ms, "ms")
    spanned = sum(s["self_s"] for s in spans.values())
    m["proc.cpu_s"] = (traced.cpu_s, "s")
    m["proc.other_s"] = (traced.wall_s - spanned, "s")
    m["trace.overhead_s"] = (traced.wall_s - untraced_wall, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join(SRC, "ksetwl", "cli.py"),
                           os.path.join(ROOT, "data", "MUTAG"))
               if not os.path.exists(p)]
    if missing:
        print(f"perfbench: not a ksetwl checkout, missing {missing}",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    host = host_info()
    steal0 = steal_jiffies()
    print(f"host: {json.dumps(host)}", flush=True)
    bench.prepare()
    bench.setup_times()
    untraced = bench.untraced_loop()
    traced = trace = None
    if bench.trace:
        traced, trace = bench.gram(traced=True)
    steal1 = steal_jiffies()
    host["steal_jiffies"] = (steal1 - steal0 if None not in (steal0, steal1)
                             else None)

    walls = [r.wall_s for r in untraced]
    wall_q = quartiles(walls)
    failed = sum(not g["ok"] for g in bench.grams)
    attempted = len(bench.grams)
    print(f"wall_s: median {wall_q[1]:.4f} s, quartiles {wall_q[0]:.4f} .. "
          f"{wall_q[2]:.4f} s, range {min(walls):.4f} .. {max(walls):.4f} s "
          f"over {len(walls)} runs")
    print(f"setup_s: median of {len(bench.setups)} runs of ksetwl info")
    print(f"failed_frac: {failed / attempted:.4g} ratio "
          f"({failed} of {attempted} grams)")
    print(f"steal_jiffies: {host['steal_jiffies']}")

    if bench.trace:
        if trace is None:
            print("perfbench: the traced gram wrote no trace", file=sys.stderr)
            return 1
        metrics = per_layer_metrics(trace, traced, wall_q[1])
        if trace["absent"]:
            print(f"absent: {', '.join(trace['absent'])}")
        for label, error in trace["hook_errors"].items():
            print(f"count hook failed on {label}: {error}")
    else:
        metrics = end_to_end_metrics(bench.setups, untraced)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    result_path = os.path.join(
        BUILD, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "host": host,
                   "setup_s": bench.setups, "grams": bench.grams,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "failed_frac": failed / attempted, "trace": trace},
                  f, indent=1)
    shutil.rmtree(bench.work, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
