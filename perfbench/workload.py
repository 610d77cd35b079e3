"""One pass of one workload, in a fresh process.

Launched by run.py; not meant to be run by hand.  The process imports the
package, generates its inputs, then runs the pass as a closed loop with one
client: each call starts when the previous one has returned.  Only the calls
are timed; every output is checked after its call, outside the timed
interval.  Between calls the process also times reference_kernel(), with
which run.py scales every time to a nominal machine speed.  The result goes
to the JSON file named by --out.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
import traceback

import inputs  # sibling module of this script


#: timed seconds of calls between two runs of the reference kernel
REFERENCE_EVERY_S = 1.0


def reference_kernel() -> float:
    """Seconds taken by a fixed job that runs no package code.

    Interpreter arithmetic, building and serialising small dicts, and small
    numpy calls: the mix the package's calls spend their time on.  Run
    between calls, it samples the speed of the machine at that moment.  The
    collector is off while it runs, so the program's live objects do not
    change its time.
    """
    import numpy as np

    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        json.dumps([{"i": i, "v": [i, 0.5]} for i in range(10_000)])
        x = np.linspace(0.1, 1.4, 8)
        for _ in range(2_000):
            acc += float(np.sum(1.0 / np.sin(x) ** 2))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _bad_residuals(rel_errs, samples: int) -> str | None:
    """NaN-aware residual gate: every sample finite and within TOL."""
    rel_errs = list(rel_errs)
    if len(rel_errs) != samples:
        return f"{len(rel_errs)} samples, want {samples}"
    bad = [e for e in rel_errs if not (math.isfinite(e) and e <= inputs.TOL)]
    if bad:
        return f"{len(bad)} samples with rel_err not finite or above {inputs.TOL}: {bad[0]!r}"
    return None


def check_grid(op: dict, rc, path: str) -> str | None:
    if rc != 0:
        return f"exit status {rc}"
    with open(path) as fh:
        report = json.load(fh)
    rows = report["rows"]
    grid = report["grid"]
    admissible = sum(1 for row in rows if row["predicted_dim"] == 1)
    mismatches = sum(1 for row in rows if row["brute_dim"] != row["predicted_dim"])
    if (len(rows), grid["cells"]) != (op["cells"], op["cells"]):
        return f"{len(rows)} rows, {grid['cells']} cells, want {op['cells']}"
    if (admissible, grid["admissible"]) != (op["admissible"], op["admissible"]):
        return f"{admissible} admissible, want {op['admissible']}"
    if mismatches or grid["brute_mismatches"] != 0 or report["status"] != "pass":
        return f"{mismatches} brute-force mismatches, status {report['status']}"
    return None


def check_sweep(op: dict, rc, path: str) -> str | None:
    if rc != 0:
        return f"exit status {rc}"
    with open(path) as fh:
        report = json.load(fh)
    status = {c["name"]: c["status"] for c in report["checks"]}
    for name in ("reduction.admissible", "reduction.identity_residual"):
        if status.get(name) != "pass":
            return f"{name}: {status.get(name)}"
    if report["status"] != "pass":
        return f"status {report['status']}"
    return _bad_residuals((s["rel_err"] for s in report["samples"]),
                          inputs.SWEEP_SAMPLES)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-no", type=int, default=0)
    ap.add_argument("--budget", type=float, default=math.inf,
                    help="start no call once this many timed seconds are spent")
    ap.add_argument("--out", help="result JSON path")
    ap.add_argument("--spans", help="trace the pass and write its spans here")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs exist; print the time")
    args = ap.parse_args(argv)

    from bcn_reduction import cli, reduction

    ops = inputs.make_ops(args.workload, args.seed, args.pass_no)
    t_ready = time.monotonic_ns()
    if args.setup_only:
        print(json.dumps({"ready_ns": t_ready}))
        return 0

    rec = None
    if args.spans:
        import spans

        rec = spans.Recorder()
        originals = spans.install(rec)

    work = os.path.dirname(os.path.abspath(args.out))
    tmp = os.path.join(work, f"report-{os.getpid()}.json")
    latencies, sizes, errors = [], [], []
    timed = since_reference = 0.0
    reference = [reference_kernel()]
    cells = admissible = 0
    for op_id, op in enumerate(ops):
        if timed >= args.budget:
            break
        if rec is not None:
            rec.current_op = op_id
            root = rec.begin(spans.ROOT_SPAN)
        t0 = time.perf_counter()
        try:
            if args.workload == "spin-cold":
                scheme = reduction.scheme_for(op["case"], op["n"])
                cls = {"I": reduction.CaseIParams, "II": reduction.CaseIIParams,
                       "III": reduction.CaseIIIParams}[op["case"]]
                result = reduction.verify_reduction(
                    scheme, cls(*op["params"]), samples=inputs.SPIN_SAMPLES)
            else:
                result = cli.main(op["argv"] + ["--json", tmp])
        except (Exception, SystemExit) as exc:
            result = exc
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.finish(root)
        timed += dt
        latencies.append(dt)
        sizes.append(op.get("cells", 1))
        since_reference += dt
        if since_reference >= REFERENCE_EVERY_S:
            reference.append(reference_kernel())
            since_reference = 0.0

        try:
            if isinstance(result, BaseException):
                raise result
            if args.workload == "spin-cold":
                err = _bad_residuals((s.rel_err for s in result.samples),
                                     inputs.SPIN_SAMPLES)
            elif args.workload == "grid":
                err = check_grid(op, result, tmp)
            else:
                err = check_sweep(op, result, tmp)
        except (Exception, SystemExit) as exc:
            err = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            traceback.print_exception(exc, file=sys.stderr)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        if err is None:
            cells += op.get("cells", 1)
            admissible += op.get("admissible", 1)
        else:
            errors.append(f"op {op_id} {op.get('argv', op)}: {err}")
            print(errors[-1], file=sys.stderr)

    reference.append(reference_kernel())
    out = {
        "workload": args.workload, "seed": args.seed, "pass_no": args.pass_no,
        "ready_ns": t_ready,
        "planned": len(ops), "attempted": len(latencies), "failed": len(errors),
        "errors": errors[:20], "latencies_s": latencies, "sizes": sizes, "timed_s": timed,
        "reference_s": reference,
        "cells": cells, "admissible": admissible,
        "inputs": inputs.describe(ops),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": os.path.dirname(cli.__file__),
    }
    if rec is not None:
        out["trace"] = {
            "self_s": {name: rec.self_s(name) for name in spans.TRACED + (spans.ROOT_SPAN,)},
            "calls": {name: rec.calls_of(name) for name in spans.TRACED},
            "counters": dict(rec.counters),
            "spans": len(rec.start),
        }
        info = getattr(originals.get("fock.fock_space"), "cache_info", None)
        if info is not None:
            out["trace"]["counters"]["fock.fock_space.hits"] = info().hits
            out["trace"]["counters"]["fock.fock_space.misses"] = info().misses
        rec.write(args.spans)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
