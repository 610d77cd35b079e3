"""Seeded inputs of the three benchmark workloads.

Plain Python with no import of the package: the generator builds argument
lists and parameter tuples, and the program receives only those.  Every
workload is drawn from an enumerated candidate list (never by rejection), and
the properties that set a workload's cost -- which grids, which
(case, n, a1) slots -- are fixed, so that the seed changes the drawn
parameters and their order but not the amount of work.
"""

from __future__ import annotations

import math
import random
import statistics
from itertools import product

WORKLOADS = ("grid", "spin-cold", "sweep-shared")

CASES = ("I", "II", "III")
MODES_OFFSET = {"I": 0, "II": 1, "III": 2}
FLAGS = {
    "I": ("--gamma", "--kl1", "--kl2", "--kr1"),
    "II": ("--gamma", "--gamma-tilde", "--kr1", "--kr2"),
    "III": ("--gamma", "--gamma-tilde", "--gamma-hat", "--k"),
}

# grid: the acceptance-criterion-4 grids, cases I-III at n = 1, 2
GRID_GAMMA_MAX = 3
GRID_K_BOUND = 3
#: (cells, admissible) of each grid; they sum to 115,248 and 4,575
GRID_EXPECTED = {
    ("I", 1): (9604, 924),
    ("I", 2): (9604, 924),
    ("II", 1): (16807, 784),
    ("II", 2): (24010, 722),
    ("III", 1): (24010, 636),
    ("III", 2): (31213, 585),
}
GRID_PASS_CELLS = 115_248
GRID_PASS_ADMISSIBLE = 4_575

# spin-cold: one set per distinct (modes, a1) with Fock dimension in range
SPIN_NS = (4, 5, 6)
SPIN_DIM_RANGE = (300, 12_000)
SPIN_K_BOUND = 3
SPIN_SAMPLES = 20

# sweep-shared: a small box at n = 2, 3, so most sets share a Fock space
SWEEP_NS = (2, 3)
SWEEP_GAMMA_MAX = 2
SWEEP_K_BOUND = 1
SWEEP_SETS_PER_STRATUM = 18
SWEEP_SAMPLES = 1000

#: residual bound every certified sample must meet (the CLI default)
TOL = 1e-8


def modes_of(case: str, n: int) -> int:
    return n + MODES_OFFSET[case]


def a1_of(case: str, n: int, params: tuple[int, ...]) -> int:
    """Symmetric-power degree of a free-parameter tuple."""
    if case == "I":
        return params[0] * n
    if case == "II":
        return params[0] * n + params[1]
    return params[0] * n + params[1] + params[2]


def fock_dim(modes: int, a1: int) -> int:
    return math.comb(a1 + modes - 1, modes - 1)


def _rng(workload: str, seed: int, pass_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_no}")


def _free_params(case: str, n: int, a1: int, gamma_max: int, k_bound: int):
    """Every free-parameter tuple of one case with the given a1.

    Occupation parameters run up to gamma_max (None: unbounded), determinant
    powers over [-k_bound, k_bound].
    """
    ks = range(-k_bound, k_bound + 1)
    top = a1 if gamma_max is None else gamma_max
    out = []
    if case == "I":
        if a1 % n == 0 and a1 // n <= top:
            out = [(a1 // n,) + k for k in product(ks, ks, ks)]
        return out
    for gamma in range(min(top, a1 // n) + 1):
        rest = a1 - gamma * n
        if case == "II":
            if rest <= top:
                out += [(gamma, rest) + k for k in product(ks, ks)]
            continue
        for gt in range(min(top, rest) + 1):
            if rest - gt <= top:
                out += [(gamma, gt, rest - gt, k) for k in ks]
    return out


def _set(case: str, n: int, params: tuple[int, ...]) -> dict:
    modes = modes_of(case, n)
    a1 = a1_of(case, n, params)
    return {"case": case, "n": n, "params": list(params), "modes": modes,
            "a1": a1, "dim": fock_dim(modes, a1)}


def grid_ops(seed: int, pass_no: int) -> list[dict]:
    """The six acceptance grids in seeded order, as `enumerate` argument lists."""
    grids = sorted(GRID_EXPECTED)
    _rng("grid", seed, pass_no).shuffle(grids)
    ops = []
    for case, n in grids:
        cells, admissible = GRID_EXPECTED[(case, n)]
        ops.append({
            "case": case, "n": n, "cells": cells, "admissible": admissible,
            "argv": ["enumerate", "--case", case, "--n", str(n),
                     "--gamma-max", str(GRID_GAMMA_MAX),
                     "--k-bound", str(GRID_K_BOUND), "--brute"],
        })
    return ops


def spin_slots() -> list[tuple[str, int, int]]:
    """One (case, n, a1) per distinct (modes, a1) in the dimension range.

    Where several (case, n) share a mode count, a1 picks among them in turn,
    so the slot list -- and with it the cost of a pass -- does not depend on
    the seed.
    """
    lo, hi = SPIN_DIM_RANGE
    groups: dict[tuple[int, int], list[tuple[str, int]]] = {}
    for case in CASES:
        for n in SPIN_NS:
            modes = modes_of(case, n)
            a1 = 0
            while fock_dim(modes, a1) <= hi:
                if lo <= fock_dim(modes, a1) and (case != "I" or a1 % n == 0):
                    groups.setdefault((modes, a1), []).append((case, n))
                a1 += 1
    slots = []
    for (modes, a1), owners in sorted(groups.items()):
        case, n = owners[a1 % len(owners)]
        slots.append((case, n, a1))
    return slots


def spin_ops(seed: int, pass_no: int) -> list[dict]:
    """Admissible sets for `verify_reduction`, no two sharing a Fock space."""
    rng = _rng("spin-cold", seed, pass_no)
    ops = []
    for case, n, a1 in spin_slots():
        params = rng.choice(_free_params(case, n, a1, None, SPIN_K_BOUND))
        ops.append(_set(case, n, params))
    rng.shuffle(ops)
    return ops


def sweep_slots() -> list[tuple[str, int, int]]:
    """(case, n, a1) slots: each stratum (case, n) cycles through the a1
    values its box reaches until it holds SWEEP_SETS_PER_STRATUM slots."""
    slots = []
    for case in CASES:
        for n in SWEEP_NS:
            a1s = [a1 for a1 in range(SWEEP_GAMMA_MAX * (n + 2) + 1)
                   if _free_params(case, n, a1, SWEEP_GAMMA_MAX, SWEEP_K_BOUND)]
            slots += [(case, n, a1s[i % len(a1s)])
                      for i in range(SWEEP_SETS_PER_STRATUM)]
    return slots


def sweep_ops(seed: int, pass_no: int) -> list[dict]:
    """`verify reduction` argument lists drawn from the small box."""
    rng = _rng("sweep-shared", seed, pass_no)
    ops = []
    for case, n, a1 in sweep_slots():
        params = rng.choice(
            _free_params(case, n, a1, SWEEP_GAMMA_MAX, SWEEP_K_BOUND))
        op = _set(case, n, params)
        flags = [str(x) for pair in zip(FLAGS[case], params) for x in pair]
        op["argv"] = (["verify", "reduction", "--case", case, "--n", str(n)]
                      + flags + ["--samples", str(SWEEP_SAMPLES)])
        ops.append(op)
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, pass_no: int = 0) -> list[dict]:
    if workload == "grid":
        return grid_ops(seed, pass_no)
    if workload == "spin-cold":
        return spin_ops(seed, pass_no)
    if workload == "sweep-shared":
        return sweep_ops(seed, pass_no)
    raise ValueError(f"unknown workload {workload!r}")


def describe(ops: list[dict]) -> dict:
    """Set count, Fock-dimension quartiles and the share of sets whose
    (modes, a1) appeared earlier in the same pass."""
    if "dim" not in ops[0]:
        return {"calls": len(ops), "cells": sum(op["cells"] for op in ops)}
    dims = sorted(op["dim"] for op in ops)
    seen = set()
    reused = 0
    for op in ops:
        key = (op["modes"], op["a1"])
        reused += key in seen
        seen.add(key)
    q1, q2, q3 = statistics.quantiles(dims, n=4, method="inclusive")
    return {"sets": len(ops), "spaces": len(seen),
            "reuse_share": reused / len(ops),
            "dim_min": dims[0], "dim_q1": q1, "dim_median": q2, "dim_q3": q3,
            "dim_max": dims[-1]}
