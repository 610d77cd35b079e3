"""Benchmark of the bcn_reduction package, one workload per run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
Workloads (see inputs.py and README.md):

  grid          `enumerate --brute --json` over the six acceptance grids
  spin-cold     `verify_reduction` on sets that never share a Fock space
  sweep-shared  `verify reduction --samples 1000 --json` on small sets that
                mostly share one

Each pass of a workload runs in a fresh process, so the package's caches
start empty; passes repeat until the timed calls add up to --seconds, and a
pass once started runs to its end, so every pass does the same work.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it runs
one untraced and one traced pass over the same inputs and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object.  Exit status 2 means the run could not
start (no package to measure, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import spans  # noqa: E402

#: every run ends within this many seconds of wall time
WALL_LIMIT_S = 170.0
#: mean reference_kernel() seconds in the quietest runs on the baseline
#: machine (2-vCPU Xeon VM, 2.1 GHz); every reported time is scaled to it
REFERENCE_NOMINAL_S = 0.045
#: wall seconds a pass leaves for checking, writing and shutting down
PASS_MARGIN_S = 20.0
#: extra fresh processes per run that only import and generate inputs
SETUP_PROBES = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
COUNTERS = (("fock.fock_space.hits", "count"), ("fock.fock_space.misses", "count"),
            ("fock.states_built", "count"), ("fock.dim_max", "count"),
            ("polar.kperp_dim_max", "count"), ("reduction.samples", "count"),
            ("cli.report_bytes", "bytes"))


def child_env() -> dict:
    """Environment of every workload process: the checkout's package first
    on the path, one BLAS thread, and no worker-count override."""
    env = dict(os.environ)
    env.pop("BCN_VERIFY_WORKERS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.started = time.monotonic()
        self.log = OUT / f"{workload}-{seed}.log"

    def remaining(self) -> float:
        return WALL_LIMIT_S - (time.monotonic() - self.started)

    def _run(self, argv: list[str], capture: bool = False):
        """Run one child to completion; returns (launch time, process)."""
        launched = time.monotonic_ns()
        with open(self.log, "a") as log:
            proc = subprocess.run(
                argv, env=self.env, cwd=ROOT, timeout=max(self.remaining(), 1.0),
                stdout=subprocess.PIPE if capture else log, stderr=log, text=True)
        return launched, proc

    def _workload_argv(self, *extra: str) -> list[str]:
        return [sys.executable, str(HERE / "workload.py"),
                "--workload", self.workload, "--seed", str(self.seed), *extra]

    def setup_probe(self) -> float | None:
        """Seconds from launch until the inputs exist; None if the probe failed."""
        try:
            launched, proc = self._run(self._workload_argv("--setup-only"), capture=True)
            return (json.loads(proc.stdout)["ready_ns"] - launched) / 1e9
        except (subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"setup probe: {exc!r}", file=sys.stderr)
            return None

    def one_pass(self, pass_no: int, budget: float, spans_path: Path | None = None) -> dict:
        """Run one pass in a fresh process; a crash counts as one failed call."""
        out = OUT / f"{self.workload}-{self.seed}-{pass_no}{'-traced' if spans_path else ''}.json"
        out.unlink(missing_ok=True)
        argv = self._workload_argv("--pass-no", str(pass_no), "--budget", repr(budget),
                                   "--out", str(out))
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        try:
            launched, proc = self._run(argv)
            result = json.loads(out.read_text()) if proc.returncode == 0 else None
        except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"pass {pass_no}: {exc!r}", file=sys.stderr)
            result = None
        if result is None:
            return {"attempted": 1, "failed": 1, "planned": 1, "latencies_s": [],
                    "timed_s": 0.0, "cells": 0, "peak_rss_kb": 0, "crashed": True,
                    "errors": [f"pass {pass_no} process failed; see {self.log}"]}
        result["setup_s"] = (result["ready_ns"] - launched) / 1e9
        return result

    def import_times(self) -> tuple[float, float]:
        """(package, scipy) import seconds of `import bcn_reduction.cli` in a
        fresh process, from the interpreter's import-time table."""
        argv = [sys.executable, "-X", "importtime", "-c", "import bcn_reduction.cli"]
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 1.0), check=True)
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
            print(f"import probe: {exc!r}", file=sys.stderr)
            return 0.0, 0.0
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                cumulative = int(parts[1])
            except ValueError:  # the header line
                continue
            name = parts[2]
            rows.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), cumulative))
        pkg = scipy = 0
        stack: list[str] = []
        for level, name, cumulative in reversed(rows):  # parents before children
            del stack[level:]
            parent = stack[-1] if stack else ""
            stack.append(name)
            top = name.split(".")[0]
            if level == 0 and top == spans.PACKAGE:
                pkg += cumulative
            if top == "scipy" and parent.split(".")[0] != "scipy":
                scipy += cumulative
        return pkg / 1e6, scipy / 1e6


def _errors(passes: list[dict]) -> list[str]:
    return [e for p in passes for e in p.get("errors", [])]


def _correct(passes: list[dict], workload: str) -> bool:
    ok = all(not p.get("crashed") and p["failed"] == 0
             and p.get("package") == str(SRC / spans.PACKAGE) for p in passes)
    if workload == "grid":  # every complete pass reproduces the whole grid
        ok = ok and all((p["cells"], p["admissible"])
                        == (inputs.GRID_PASS_CELLS, inputs.GRID_PASS_ADMISSIBLE)
                        for p in passes if p["attempted"] == p["planned"])
    return ok


def _slowdown(passes: list[dict]) -> float:
    """Mean reference_kernel() time of the passes over its nominal time."""
    reference = [t for p in passes for t in p.get("reference_s", [])]
    return statistics.mean(reference) / REFERENCE_NOMINAL_S if reference else 1.0


def timed_run(runner: Runner, seconds: float) -> dict:
    runner.setup_probe()  # untimed: warms the file cache and bytecode
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    timed = pass_wall = 0.0
    while timed < seconds and runner.remaining() > 2 * pass_wall + PASS_MARGIN_S:
        started = time.monotonic()
        p = runner.one_pass(len(passes), runner.remaining() - PASS_MARGIN_S)
        pass_wall = time.monotonic() - started
        passes.append(p)
        timed += p["timed_s"]
        if p.get("crashed") or p["attempted"] < p["planned"]:
            break
    setups = [s for s in setups if s is not None]
    setups += [p["setup_s"] for p in passes if "setup_s" in p]

    # The host's speed drifts over minutes. Every time is divided by the
    # slowdown the reference kernel measured between this run's calls, which
    # scales it to the baseline machine's nominal speed.
    slowdown = _slowdown(passes)
    raw_timed = timed
    timed /= slowdown
    # A grid call's latency is scaled to the mean grid size, because the six
    # grids differ threefold in cells and their latencies would otherwise
    # form clusters with the percentiles on the gaps between them.
    sizes = [n for p in passes for n in p.get("sizes", [])]
    mean_size = statistics.mean(sizes) if sizes else 1.0
    lat = [t * mean_size / n / slowdown
           for p in passes for t, n in zip(p["latencies_s"], p.get("sizes", []))]
    setups = [t / slowdown for t in setups]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    done = attempted - failed
    cells = sum(p["cells"] for p in passes)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else (lat or [0.0])[0]
    beyond = sum(t > p90 for t in lat)
    print(f"{runner.workload} seed {runner.seed}: {len(passes)} passes, {attempted} calls, "
          f"{raw_timed:.3f} s timed, slowdown {slowdown:.4f}, fail_frac {failed}/{attempted}")
    print(f"inputs of pass 0: {json.dumps(passes[0].get('inputs'))}")
    print(f"latency samples {len(lat)}, {beyond} beyond p90; setup samples {len(setups)}")
    for err in _errors(passes)[:5]:
        print(f"error: {err}")
    metrics = {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "cells_per_s": (cells / timed if timed else 0.0, "1/s"),
        "sets_per_s": (done / timed if timed else 0.0, "1/s"),
        "set_p50_s": (statistics.median(lat) if lat else 0.0, "s"),
        "set_p90_s": (p90, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }
    return {"correct": _correct(passes, runner.workload) and done > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced_run(runner: Runner) -> dict:
    plain = runner.one_pass(0, runner.remaining() / 2 - PASS_MARGIN_S)
    traced = runner.one_pass(0, runner.remaining() - PASS_MARGIN_S, OUT / f"spans-{runner.workload}-{runner.seed}.tsv")
    passes = [plain, traced]
    trace = traced.get("trace", {"self_s": {}, "calls": {}, "counters": {}, "spans": 0})
    self_s, calls, counters = trace["self_s"], trace["calls"], trace["counters"]
    metrics = {}
    for name in spans.TRACED:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer, names in spans.LAYERS.items():
        metrics[f"layer.{layer}.self_s"] = (sum(self_s.get(n, 0.0) for n in names), "s")
    for name, unit in COUNTERS:
        metrics[name] = (counters.get(name, 0), unit)
    pkg_s, scipy_s = runner.import_times()
    metrics["cli.import_pkg_s"] = (pkg_s, "s")
    metrics["cli.import_scipy_s"] = (scipy_s, "s")
    metrics["trace.wall_s"] = (traced["timed_s"], "s")
    metrics["trace.untraced_s"] = (plain["timed_s"], "s")
    metrics["trace.overhead_s"] = (traced["timed_s"] / _slowdown([traced])
                                   - plain["timed_s"] / _slowdown([plain]), "s")
    metrics["trace.unattributed_s"] = (self_s.get(spans.ROOT_SPAN, 0.0), "s")
    metrics["trace.spans"] = (trace["spans"], "count")

    wall = traced["timed_s"] or 1.0
    shares = ", ".join(f"{layer} {metrics[f'layer.{layer}.self_s'][0] / wall:.1%}"
                       for layer in spans.LAYERS)
    print(f"{runner.workload} seed {runner.seed}: traced {traced['timed_s']:.3f} s, "
          f"untraced {plain['timed_s']:.3f} s, overhead after scaling "
          f"{metrics['trace.overhead_s'][0]:.3f} s, {trace['spans']} spans")
    print(f"layer shares of traced wall time: {shares}; "
          f"unattributed {metrics['trace.unattributed_s'][0] / wall:.2%}")
    for err in _errors(passes)[:5]:
        print(f"error: {err}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"correct": _correct(passes, runner.workload),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bcn_reduction benchmark")
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / spans.PACKAGE / "cli.py").is_file():
        print(f"error: no package to measure at {SRC / spans.PACKAGE}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed)
    runner.log.unlink(missing_ok=True)
    if args.trace:
        result = traced_run(runner)
    else:
        result = timed_run(runner, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
