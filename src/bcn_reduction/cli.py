"""Command-line driver: verification suites, grid enumeration, coupling maps.

Subcommands
-----------
verify {basis,inertia,density,fock,reduction,all}
    Run one named suite and report pass/fail per check.
enumerate
    Exhaust a raw parameter grid, predicting (and optionally brute-forcing)
    the fixed subspace per cell: its dimension and its states.
couplings
    Map ansatz parameters to Sutherland couplings (a, b, c), the additive
    constant, and the root-multiplicity triple.  Each case takes one flag per
    field of its parameter class in reduction.CASES.

Exit status: 0 all checks pass, 1 a check failed or parameters are
inadmissible, 2 usage or configuration error.  Status 2 covers --samples,
--n or --modes below 1, and --level, --seed, --gamma-max, --k-bound, --gamma,
--gamma-tilde, --gamma-hat or --tol below 0, a NaN --tol, --n above
polar.max_alcove_rank() (30) for the verify kinds that sample alcove points,
couplings --csv, a --json or --csv path that cannot be written, and
enumerate --brute or verify fock on a Fock space that
reduction.brute_force_refusal refuses (dimension above
reduction.BRUTE_FORCE_DIM_GUARD, or a level at the int64 limit).  Inside
verify reduction and verify all, a refused space makes the check it feeds
(reduction.admissible, or the fock suite) a skip, not an error.

Every report is one envelope (schema_version, command, scheme, seed, status,
wall_clock_s) around the command's sections, written as JSON (--json) or,
for its checks or rows, as CSV (--csv) whose columns are the sorted keys of
all rows; identical configurations produce byte-identical JSON apart from
the wall-clock field.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional

import numpy as np

from . import algebra, fock, polar, reduction
from .algebra import AlgebraPair, Scheme
from .reduction import CASES, DEFAULT_SEED, RawParams, max_or_nan

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad flags or inconsistent configuration; maps to exit status 2."""


@dataclass
class Check:
    name: str
    status: str  # pass | fail | skip
    max_abs_err: Optional[float] = None
    tol: Optional[float] = None
    detail: str = ""


def _within(name: str, err: float, tol: float, detail: str = "") -> Check:
    """A check that passes when err <= tol; a NaN err fails."""
    return Check(name, "pass" if err <= tol else "fail", err, tol, detail)


def _exact(obj) -> str:
    """JSON form of an exact rational: its string, as "-9/2"."""
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


#: the scalar types of a report; a container whose values all have one of
#: them is encoded in one call
_SCALARS = frozenset({str, int, float, bool, type(None), Fraction})


@lru_cache(maxsize=None)
def _depth_format(depth: int):
    """json's C encoder for a container of scalars at nesting depth `depth`,
    with the item separator indent=1 puts between its items there, and the
    line break plus indent that starts each of those items."""
    inner = "\n" + " " * (depth + 1)
    encode = c_make_encoder(None, _exact, encode_basestring_ascii, None, ": ",
                            "," + inner, True, False, True)
    return encode, inner


def _dump(obj, depth: int, out: list[str]) -> None:
    """Append to out the JSON of obj at nesting depth `depth`, as
    json.dumps(obj, sort_keys=True, indent=1, default=_exact) writes it.

    A scalar, or a container whose values are all of a `_SCALARS` type, is
    one call of json's C encoder with the separators of its depth; any other
    container recurses here.  Dict keys are strings, as in every report.
    """
    encode, inner = _depth_format(depth)
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        out += encode(obj, 0)
        return
    if _SCALARS.issuperset(map(type, values)):
        text = "".join(encode(obj, 0))
        if values:  # indent=1 also breaks the line inside both brackets
            out += (text[0], inner, text[1:-1], inner[:-1], text[-1])
        else:
            out.append(text)
        return
    sep = inner
    if isinstance(obj, dict):
        out.append("{")
        for key, value in sorted(obj.items()):
            out += (sep, encode_basestring_ascii(key), ": ")
            _dump(value, depth + 1, out)
            sep = "," + inner
        out += (inner[:-1], "}")
    else:
        out.append("[")
        for value in obj:
            out.append(sep)
            _dump(value, depth + 1, out)
            sep = "," + inner
        out += (inner[:-1], "]")


def write_report(report: dict, json_path: Optional[str], csv_path: Optional[str]):
    """Write the report as it is: JSON to json_path, its rows (or checks) as
    CSV to csv_path, and the JSON to stdout when neither path is given.

    The JSON is byte for byte json.dumps(report, sort_keys=True, indent=1,
    default=_exact), written by `_dump`, which hands every container of
    scalars to json's C encoder (an indent keeps json.dumps itself on its
    pure-Python encoder).  Fractions become rational strings; the CSV header
    is the sorted union of the row keys, and a key a row lacks is an empty
    cell.
    """
    out: list[str] = []
    _dump(report, 0, out)
    payload = "".join(out)
    try:
        if json_path:
            with open(json_path, "w") as fh:
                fh.write(payload + "\n")
        if csv_path:
            rows = report.get("rows", report.get("checks", []))
            with open(csv_path, "w", newline="") as fh:
                if rows:
                    writer = csv.DictWriter(fh, fieldnames=sorted(set().union(*rows)))
                    writer.writeheader()
                    writer.writerows(rows)
    except OSError as exc:
        raise UsageError(f"cannot write the report: {exc}") from exc
    if not json_path and not csv_path:
        print(payload)


def _emit(args, t0: float, command: str, scheme: Optional[Scheme], status: str,
          **body) -> int:
    """Write the report envelope around body; return the exit status."""
    write_report({
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "scheme": scheme and {**vars(scheme), "N": scheme.N, "case": scheme.case_tag},
        "seed": args.seed,
        "status": status,
        **body,
        "wall_clock_s": time.perf_counter() - t0,
    }, args.json, args.csv)
    return EXIT_PASS if status == "pass" else EXIT_FAIL


def _print_checks(checks: list[Check]) -> None:
    for c in checks:
        err = "" if c.max_abs_err is None else f" max_err={c.max_abs_err:.3e}"
        tol = "" if c.tol is None else f" tol={c.tol:g}"
        detail = f" ({c.detail})" if c.detail else ""
        print(f"[{c.status.upper():4s}] {c.name}{err}{tol}{detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# verification suites


def suite_basis(scheme: Scheme, rng: np.random.Generator) -> list[Check]:
    basis = polar.build_kperp_basis(scheme)
    checks = []

    gram_err = float(np.abs(basis.gram() - np.eye(len(basis))).max())
    checks.append(_within("basis.gram_identity", gram_err, 1e-12))

    n, r, s = scheme.n, scheme.r, scheme.s
    counts = basis.family_counts()
    want = {
        "V": n * (2 * r - 1),
        "W": n * (2 * r - 1),
        "Vt": 2 * n * (s - n),
        "Wt": 2 * n * (s - n),
        "Z0": 2 * (r - n) * (s - n),
        "hatL": scheme.dim_centralizer,
    }
    ok = counts == want and len(basis) == scheme.dim_g - scheme.dim_centralizer
    checks.append(
        Check("basis.family_counts", "pass" if ok else "fail",
              detail=f"got {counts}, want {want}")
    )

    m_basis = polar.build_m_basis(scheme)
    inner = algebra.pair_inner(AlgebraPair(m_basis, m_basis),
                               AlgebraPair(basis.left, basis.right))
    worst = float(np.abs(inner).max(initial=0.0))
    checks.append(_within("basis.centralizer_orthogonality", worst, 1e-12))

    worst = 0.0
    for _ in range(5):
        q = polar.sample_alcove(scheme.n, rng)
        bfq = algebra.radial_embed(scheme, q)
        worst = max_or_nan(worst, float(np.abs(m_basis @ bfq - bfq @ m_basis).max()))
    checks.append(_within("basis.centralizer_commutes_with_radial", worst, 1e-13))

    # squared radial bracket multiplies each root vector by -root(q)^2, and
    # the mixed families rotate into each other under a single bracket
    family = np.array([lab.family for lab in basis.labels])
    coefs = np.array([lab.root.coef(scheme.n) for lab in basis.labels])
    v, vt = family == "V", family == "Vt"
    e = basis.left[v] * polar.SQ2
    t, f = basis.left[vt] * polar.SQ2, basis.right[vt] * polar.SQ2
    worst_e = worst_t = 0.0
    for _ in range(3):
        q = polar.sample_alcove(scheme.n, rng)
        bfq = algebra.radial_embed(scheme, q)
        ad = lambda x: bfq @ x - x @ bfq
        root = (coefs @ q)[:, None, None]
        resid = np.abs(ad(ad(e)) + root[v] ** 2 * e)
        worst_e = max_or_nan(worst_e, float(resid.max(initial=0.0)))
        mixed = np.maximum(np.abs(ad(t) - root[vt] * f), np.abs(ad(f) + root[vt] * t))
        worst_t = max_or_nan(worst_t, float(mixed.max(initial=0.0)))
    checks.append(_within("basis.radial_bracket_squared", worst_e, 1e-12))
    checks.append(_within("basis.radial_bracket_mixing", worst_t, 1e-13))
    return checks


def suite_inertia(scheme: Scheme, rng: np.random.Generator, samples: int) -> list[Check]:
    basis = polar.build_kperp_basis(scheme)
    dim = len(basis)
    worst_col = worst_sym = worst_det = 0.0
    pd = True
    for _ in range(samples):
        q = polar.sample_alcove(scheme.n, rng)
        jmat = polar.inertia_matrix(scheme, basis, q)
        lam = polar.inertia_eigenvalues(basis, q)
        resid = jmat - np.diag(lam)
        worst_col = max_or_nan(worst_col, float(np.linalg.norm(resid, axis=0).max()))
        worst_sym = max_or_nan(worst_sym, float(np.abs(jmat - jmat.T).max()))
        # in log space: the product of ~n^2 eigenvalues leaves double range
        sign, logdet = np.linalg.slogdet(jmat)
        gap = abs(logdet - np.sum(np.log(lam))) if sign > 0 else math.inf
        worst_det = max_or_nan(worst_det, float(gap))
        try:
            np.linalg.cholesky(jmat)
        except np.linalg.LinAlgError:
            pd = False
    checks = [
        _within("inertia.diagonalization", worst_col, 1e-10,
                f"{samples} points, dim {dim}"),
        _within("inertia.symmetry", worst_sym, 1e-12),
        _within("inertia.determinant_vs_eigenvalues", worst_det, 1e-10),
        Check("inertia.positive_definite", "pass" if pd else "fail"),
    ]
    return checks


def suite_density(scheme: Scheme, rng: np.random.Generator, samples: int) -> list[Check]:
    nus = polar.nu_triple(scheme)
    q = np.array([polar.sample_alcove(scheme.n, rng) for _ in range(samples)])
    closed = polar.measure_factor(scheme).at(q)
    fd = 0.5 * polar.log_laplacian_fd(*nus, q)
    worst = float(np.max(np.abs(closed - fd) / np.maximum(1.0, np.abs(closed))))
    checks = [_within("density.measure_factor_fd", worst, 1e-5,
                      f"{samples} points, h=5e-4")]

    basis = polar.build_kperp_basis(scheme)
    q = np.array([polar.sample_alcove(scheme.n, rng) for _ in range(samples)])
    sign, logdet = np.array([np.linalg.slogdet(polar.inertia_matrix(scheme, basis, x))
                             for x in q]).T  # one J at a time: each is dim^2 floats
    # log(rho^4 / det J) at the scheme's exponents; a sign <= 0 makes it NaN
    log_ratios = np.where(sign > 0, 4.0 * polar.log_density(*nus, q) - logdet, math.nan)
    checks.append(_within("density.fourth_power_tracks_det", float(np.ptp(log_ratios)), 1e-9))

    worst = 0.0
    for _ in range(5):
        exps = rng.uniform(0.3, 2.0, size=3)
        q = polar.sample_alcove(scheme.n, rng)
        lhs = polar.log_laplacian_fd(*exps, q)
        rhs = polar.sutherland_rhs(*exps, scheme.n).at(q)
        worst = max_or_nan(worst, float(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))))
    checks.append(_within("density.log_laplacian_identity", worst, 1e-4,
                          "5 random exponent triples"))
    return checks


def suite_fock(modes: int, level: int) -> list[Check]:
    checks = []
    space = fock.fock_space(modes, level)
    want = math.comb(level + modes - 1, modes - 1)
    checks.append(
        Check("fock.dimension", "pass" if space.dim == want else "fail",
              detail=f"dim {space.dim}, binomial {want}")
    )

    # weight of each state from the number operators b_i† b_i; distinct
    # weights make every weight space one-dimensional
    weights = np.column_stack([fock.gl_action(space, i, i).diagonal()
                               for i in range(modes)])
    ok = np.array_equal(weights, space.occupations)
    ok = ok and len(np.unique(weights, axis=0)) == space.dim
    checks.append(Check("fock.weight_spaces_one_dimensional", "pass" if ok else "fail"))

    top = space.state_vector((level,) + (0,) * (modes - 1))
    worst = 0.0
    for i in range(modes - 1):
        worst = max_or_nan(worst, float(np.abs(fock.gl_action(space, i, i + 1) @ top).max()))
    checks.append(_within("fock.highest_weight_annihilated", worst, 0.0))

    # [b_i, b_j†] = delta_ij, in sparse form from ladder operators built once
    from scipy import sparse
    up = fock.fock_space(modes, level + 1)
    ann_up = [fock.annihilation_op(up, i) for i in range(modes)]
    cre = [fock.creation_op(space, j) for j in range(modes)]
    if level:
        down = fock.fock_space(modes, level - 1)
        ann = [fock.annihilation_op(space, i) for i in range(modes)]
        cre_down = [fock.creation_op(down, j) for j in range(modes)]
    eye = sparse.identity(space.dim, format="csr")
    worst = 0.0
    for i in range(modes):
        for j in range(modes):
            comm = ann_up[i] @ cre[j]
            if level:
                comm = comm - cre_down[j] @ ann[i]
            if i == j:
                comm = comm - eye
            worst = max_or_nan(worst, float(abs(comm).max()))
    checks.append(_within("fock.canonical_commutators", worst, 1e-12))
    return checks


def _case1_spin_check(scheme: Scheme, raw: RawParams,
                      rng: np.random.Generator) -> Check:
    params = reduction.params_from_raw(scheme, raw)
    contraction = reduction.SpinContraction(scheme, raw)
    q = np.array([polar.sample_alcove(scheme.n, rng) for _ in range(10)])
    closed = reduction.case1_spin_closed(scheme.n, params).at(q)
    worst = float(np.max(np.abs(contraction.at(q) - closed)
                         / np.maximum(1.0, np.abs(closed))))
    return _within("reduction.case1_spin_closed_form", worst, 1e-9)


def suite_reduction(scheme: Scheme, raw: RawParams, samples: int, tol: float,
                    seed: int) -> tuple[list[Check], Optional[dict]]:
    checks = []
    pred = reduction.vk_predicted(scheme, raw)
    if pred.dimension != 1:
        checks.append(
            Check("reduction.admissible", "fail", detail=pred.reason or "")
        )
        return checks, None
    refusal = reduction.brute_force_refusal(scheme.m, raw.a1)
    if refusal:  # the identity check below does not need the Fock space
        status, note = "skip", f", {refusal}"
    else:
        brute = reduction.vk_bruteforce(scheme, raw)
        ok = brute.dimension == 1 and brute.states == pred.states
        status, note = "pass" if ok else "fail", ""
    checks.append(Check("reduction.admissible", status,
                        detail=f"state {pred.states[0]}{note}"))

    report = reduction.verify_reduction(scheme, raw, samples=samples, tol=tol,
                                        seed=seed)
    checks.append(_within("reduction.identity_residual", report.max_rel_err, tol,
                          f"{samples} samples"))
    if raw.case == "I":
        checks.append(_case1_spin_check(scheme, raw, np.random.default_rng(seed)))

    return checks, {**_coupling_sections(report.couplings),
                    "samples": [vars(s) for s in report.samples]}


def _coupling_sections(coup: reduction.Couplings) -> dict:
    return {"couplings": vars(coup), "mu": vars(reduction.mu_params(coup))}


# ---------------------------------------------------------------------------
# argument handling


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")
    p.add_argument("--csv", metavar="PATH", help="write a CSV report here")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _dests(cls) -> list[str]:
    """Flag destinations of a parameter class's fields: k_l1 is read from --kl1."""
    return [f.name.replace("k_", "k") for f in fields(cls)]


def _add_params(p: argparse.ArgumentParser) -> None:
    for dest in dict.fromkeys(d for cls in CASES.values() for d in _dests(cls)):
        p.add_argument("--" + dest.replace("_", "-"), type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcn-verify",
        description="verify reductions of the U(N) radial Laplacian to the "
                    "BC_n Sutherland operator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("kind",
                    choices=["basis", "inertia", "density", "fock",
                             "reduction", "all"])
    pv.add_argument("--case", choices=CASES)
    pv.add_argument("--n", type=int)
    pv.add_argument("--samples", type=int, default=20)
    pv.add_argument("--tol", type=float, default=1e-8)
    pv.add_argument("--modes", type=int, default=2, help="fock suite mode count")
    pv.add_argument("--level", type=int, default=6, help="fock suite level")
    _add_params(pv)
    _add_common(pv)

    pe = sub.add_parser("enumerate", help="exhaust an admissibility grid")
    pe.add_argument("--case", choices=CASES, required=True)
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--gamma-max", type=int, default=2, dest="gamma_max")
    pe.add_argument("--k-bound", type=int, default=1, dest="k_bound")
    pe.add_argument("--brute", action="store_true",
                    help="also brute-force every cell")
    pe.add_argument("--cap", type=int, default=1_000_000,
                    help="refuse grids with more cells than this")
    _add_common(pe)

    pc = sub.add_parser("couplings", help="map parameters to couplings")
    pc.add_argument("--case", choices=CASES, required=True)
    pc.add_argument("--n", type=int, required=True)
    _add_params(pc)
    _add_common(pc)

    return parser


def check_ranges(args) -> None:
    """Reject count, size, occupation and tolerance flags below their
    smallest meaningful value, and a NaN --tol."""
    for name, low in (("samples", 1), ("n", 1), ("modes", 1), ("level", 0),
                      ("seed", 0), ("gamma_max", 0), ("k_bound", 0), ("gamma", 0),
                      ("gamma_tilde", 0), ("gamma_hat", 0), ("tol", 0)):
        value = getattr(args, name, None)
        if value is not None and not value >= low:  # NaN is not >= low
            raise UsageError(f"--{name.replace('_', '-')} must be >= {low}")


def params_from_args(args) -> "reduction.KKSParams":
    """Build case parameters from flags, validating any dependent powers.

    The flags are the fields of the case's parameter class (`_dests`).
    Raises UsageError for missing flags and InadmissibleError (ValueError)
    when a supplied --kl1/--kl2/--kr1/--kr2 differs from the power the free
    parameters fix.
    """
    cls = CASES[args.case]
    names = _dests(cls)
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"case {args.case} requires --{name.replace('_', '-')}")
    params = cls(*(getattr(args, name) for name in names))
    raw = params.to_raw(args.n)
    for flag in ("kl1", "kl2", "kr1", "kr2"):
        got, want = getattr(args, flag), getattr(raw, "k_" + flag[1:])
        if got is not None and got != want:
            raise InadmissibleError(f"--{flag} must equal {want} ({cls.reason})")
    return params


class InadmissibleError(ValueError):
    """Parameters violate an admissibility condition; maps to exit 1."""


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    checks: list[Check] = []
    extra: dict = {}
    scheme = None

    if args.kind != "fock":
        if args.case is None or args.n is None:
            raise UsageError(f"verify {args.kind} requires --case and --n")
        if args.n > polar.max_alcove_rank():
            raise UsageError(f"--n must be <= {polar.max_alcove_rank()} for "
                             f"{polar.WALL_MARGIN}-spaced alcove samples")
        scheme = reduction.scheme_for(args.case, args.n)
    if args.kind in ("fock", "all"):
        modes = args.modes if args.kind == "fock" else scheme.m
        fock_refusal = reduction.brute_force_refusal(modes, args.level)
        if fock_refusal and args.kind == "fock":
            raise UsageError(f"verify fock: {fock_refusal}")

    params = None
    if args.kind == "reduction" or (args.kind == "all" and args.gamma is not None):
        params = params_from_args(args)
        raw = params.to_raw(args.n)

    rng = np.random.default_rng(args.seed)
    if args.kind in ("basis", "all"):
        checks += suite_basis(scheme, rng)
    if args.kind in ("inertia", "all"):
        checks += suite_inertia(scheme, rng, args.samples)
    if args.kind in ("density", "all"):
        checks += suite_density(scheme, rng, args.samples)
    if args.kind in ("fock", "all"):
        checks += ([Check("fock", "skip", detail=fock_refusal)] if fock_refusal
                   else suite_fock(modes, args.level))
    if args.kind in ("reduction", "all"):
        if params is None:
            checks.append(Check("reduction", "skip",
                                detail="no parameters given"))
        else:
            red_checks, red_extra = suite_reduction(
                scheme, raw, args.samples, args.tol, args.seed)
            checks += red_checks
            if red_extra:
                extra.update(red_extra)
            extra["params"] = {"case": params.case, **vars(params)}

    status = "pass" if all(c.status != "fail" for c in checks) else "fail"
    code = _emit(args, t0, f"verify {args.kind}", scheme, status,
                 checks=[vars(c) for c in checks], **extra)
    _print_checks(checks)
    return code


def cmd_enumerate(args) -> int:
    t0 = time.perf_counter()
    size = reduction.grid_size(args.case, args.n, args.gamma_max, args.k_bound)
    if size > args.cap:
        raise UsageError(f"grid has {size} cells, cap is {args.cap}")
    scheme = reduction.scheme_for(args.case, args.n)
    try:  # the bounds are checked, so only the brute-force guard is left
        cells = reduction.enumerate_grid(
            args.case, args.n, args.gamma_max, args.k_bound, brute=args.brute)
    except ValueError as exc:
        raise UsageError(f"--brute: {exc}") from exc
    keys = ["a1", "k_l1", "k_l2", "k_r1", "k_r2", "predicted_dim"]
    columns = [cells.labels, cells.dimension[:, None]]
    mismatches = 0
    if args.brute:
        keys.append("brute_dim")
        columns.append(cells.brute_dimension[:, None])
        differ = cells.brute_dimension != cells.dimension
        both = np.flatnonzero(~differ & (cells.dimension == 1))
        mismatches = int(np.count_nonzero(differ))
        mismatches += sum(cells.brute_states[i] != (tuple(state),) for i, state in
                          zip(both.tolist(), cells.states[both].tolist()))
    rows = [dict(zip(keys, values), state=None)
            for values in np.hstack(columns).tolist()]
    adm = np.flatnonzero(cells.dimension)
    for i, state, (a, b, c, sixths) in zip(adm.tolist(), cells.states[adm].tolist(),
                                           cells.couplings[adm].tolist()):
        rows[i].update(state=state, a=a, b=b, c=c, constant=Fraction(sixths, 6))
    admissible = len(adm)
    grid = {"gamma_max": args.gamma_max, "k_bound": args.k_bound, "cells": size,
            "admissible": admissible,
            "brute_mismatches": mismatches if args.brute else None}
    code = _emit(args, t0, "enumerate", scheme, "pass" if mismatches == 0 else "fail",
                 grid=grid, rows=rows)
    print(f"{size} cells, {admissible} admissible"
          + (f", {mismatches} brute-force mismatches" if args.brute else ""),
          file=sys.stderr)
    return code


def cmd_couplings(args) -> int:
    t0 = time.perf_counter()
    if args.csv:
        raise UsageError("couplings has no rows to write as CSV; use --json")
    params = params_from_args(args)
    return _emit(args, t0, "couplings", reduction.scheme_for(args.case, args.n),
                 "pass", params={"case": params.case, **vars(params)},
                 **_coupling_sections(reduction.couplings(args.n, params)))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_ranges(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "couplings":
            return cmd_couplings(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InadmissibleError as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
