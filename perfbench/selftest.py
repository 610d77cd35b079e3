"""Self-test of the benchmark's input generator; needs no package.

    python3 perfbench/selftest.py

Checks that a seed fixes the inputs, that seeds change the drawn parameters
but not the cost profile of a pass, that no two spin-cold sets share a Fock
space, and that the grid totals match the acceptance numbers.  Exit status 0
when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from collections import Counter

import inputs

SEEDS = range(12)
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def profile(ops: list[dict]) -> Counter:
    return Counter((op["case"], op["n"], op.get("a1")) for op in ops)


def grid_cells(case: str, n: int) -> int:
    gs = range(inputs.GRID_GAMMA_MAX + 1)
    if case == "I":
        a1s = {g * n for g in gs}
    elif case == "II":
        a1s = {g * n + gt for g in gs for gt in gs}
    else:
        a1s = {g * n + gt + gh for g in gs for gt in gs for gh in gs}
    return len(a1s) * (2 * inputs.GRID_K_BOUND + 1) ** 4


for workload in inputs.WORKLOADS:
    for pass_no in (0, 1):
        same = all(inputs.make_ops(workload, s, pass_no) == inputs.make_ops(workload, s, pass_no)
                   for s in SEEDS)
        check(same, f"{workload} pass {pass_no}: a seed gives the same inputs")
    runs = [inputs.make_ops(workload, s) for s in SEEDS]
    check(len({repr(r) for r in runs}) > len(SEEDS) // 2,
          f"{workload}: seeds give different inputs")
    check(all(profile(r) == profile(runs[0]) for r in runs),
          f"{workload}: every seed gives the same (case, n, a1) profile")

lo, hi = inputs.SPIN_DIM_RANGE
spin = [inputs.spin_ops(s, pass_no) for s in SEEDS for pass_no in (0, 1)]
check(all(len({(op["modes"], op["a1"]) for op in ops}) == len(ops) for ops in spin),
      "spin-cold: no two sets of a pass share a (modes, a1)")
check(all(lo <= op["dim"] <= hi and op["n"] in inputs.SPIN_NS for ops in spin for op in ops),
      f"spin-cold: every set at n = 4..6 with Fock dimension in [{lo}, {hi}]")
check(all(op["a1"] == inputs.a1_of(op["case"], op["n"], op["params"])
          for ops in spin for op in ops),
      "spin-cold: every drawn parameter tuple gives its slot's a1")

sweep = inputs.describe(inputs.sweep_ops(0, 0))
check(sweep["sets"] >= 100, f"sweep-shared: {sweep['sets']} sets, at least 100")
check(sweep["reuse_share"] > 0.5,
      f"sweep-shared: {sweep['reuse_share']:.2f} of sets reuse an earlier Fock space")
check(all(op["n"] in inputs.SWEEP_NS for op in inputs.sweep_ops(0, 0)),
      "sweep-shared: every set at n = 2 or 3")

grids = inputs.grid_ops(0, 0)
check(sorted((g["case"], g["n"]) for g in grids) == sorted(inputs.GRID_EXPECTED),
      "grid: the six acceptance grids, once each")
check(all(g["cells"] == grid_cells(g["case"], g["n"]) for g in grids),
      "grid: expected cell counts match the grid shapes")
check((sum(g["cells"] for g in grids), sum(g["admissible"] for g in grids))
      == (inputs.GRID_PASS_CELLS, inputs.GRID_PASS_ADMISSIBLE),
      "grid: 115,248 cells and 4,575 admissible per pass")

sys.exit(1 if failures else 0)
