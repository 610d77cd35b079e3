import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcn_reduction import cli, polar, reduction
from bcn_reduction.reduction import scheme_for


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bcn_reduction", *args],
        capture_output=True,
        text=True,
    )


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli(
            "verify", "reduction", "--case", "I", "--n", "1",
            "--gamma", "1", "--kl1", "1", "--kl2", "0", "--kr1", "0",
            "--samples", "20", "--tol", "1e-8", "--json", str(out),
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert report["status"] == "pass"
        assert report["couplings"] == {"a": 1, "b": 1, "c": 0, "constant": "0"}

    def test_check_failure_is_one(self):
        # impossible tolerance forces a residual failure
        res = run_cli(
            "verify", "reduction", "--case", "I", "--n", "1",
            "--gamma", "1", "--kl1", "1", "--kl2", "0", "--kr1", "0",
            "--samples", "5", "--tol", "1e-16",
        )
        assert res.returncode == 1

    def test_usage_error_is_two(self):
        res = run_cli("verify", "reduction", "--case", "IV", "--n", "1")
        assert res.returncode == 2
        res = run_cli("verify", "reduction", "--case", "I")  # missing --n
        assert res.returncode == 2
        res = run_cli(
            "verify", "reduction", "--case", "I", "--n", "1"  # missing params
        )
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "reduction", "--case", "I", "--n", "1", "--gamma", "1",
             "--kl1", "1", "--kl2", "0", "--kr1", "0", "--samples", "0"],
            ["verify", "basis", "--case", "I", "--n", "0"],
            ["couplings", "--case", "I", "--n", "0", "--gamma", "1",
             "--kl1", "1", "--kl2", "0", "--kr1", "0"],
            ["verify", "fock", "--modes", "0"],
            ["verify", "fock", "--level", "-1"],
            ["enumerate", "--case", "I", "--n", "1", "--gamma-max", "-1"],
            ["enumerate", "--case", "I", "--n", "1", "--k-bound", "-1"],
            ["enumerate", "--case", "II", "--n", "0"],
            ["couplings", "--case", "I", "--n", "1", "--gamma", "-1",
             "--kl1", "0", "--kl2", "0", "--kr1", "0"],
            ["verify", "reduction", "--case", "II", "--n", "1", "--gamma", "0",
             "--gamma-tilde", "-1", "--kr1", "0", "--kr2", "0"],
            ["verify", "reduction", "--case", "III", "--n", "2", "--gamma", "1",
             "--gamma-tilde", "0", "--gamma-hat", "-1", "--k", "0"],
            ["verify", "reduction", "--case", "I", "--n", "31", "--gamma", "0",
             "--kl1", "0", "--kl2", "0", "--kr1", "0"],
            ["verify", "inertia", "--case", "III", "--n", "31"],
            ["verify", "basis", "--case", "I", "--n", "1", "--seed", "-1"],
            # largest representation C(27, 21) = 296,010, above the guard
            ["enumerate", "--case", "III", "--n", "5", "--gamma-max", "3",
             "--k-bound", "0", "--brute"],
            # C(37, 6) = 2,324,784 states, above the guard
            ["verify", "fock", "--modes", "32", "--level", "6"],
            # couplings has no rows to write as CSV
            ["couplings", "--case", "I", "--n", "1", "--gamma", "1",
             "--kl1", "1", "--kl2", "0", "--kr1", "0", "--csv", "c.csv"],
            ["verify", "reduction", "--case", "I", "--n", "1", "--gamma", "1",
             "--kl1", "1", "--kl2", "0", "--kr1", "0", "--tol", "nan"],
            ["verify", "reduction", "--case", "I", "--n", "1", "--gamma", "1",
             "--kl1", "1", "--kl2", "0", "--kr1", "0", "--tol", "-1"],
            # one state, but the occupations leave int64
            ["verify", "fock", "--modes", "1", "--level", str(10**20)],
        ],
    )
    def test_out_of_range_input_is_two(self, argv, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--case", "I", "--n", "1", "--json"],
            ["enumerate", "--case", "I", "--n", "1", "--csv"],
            ["verify", "density", "--case", "I", "--n", "1", "--samples", "2", "--json"],
        ],
    )
    def test_unwritable_report_is_two(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        assert cli.main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report") and err.count("\n") == 1
        assert not path.parent.exists()

    def test_huge_level_on_one_mode_skips(self, tmp_path):
        # case I at n = 1 has one mode, so the space has one state at any level
        out = tmp_path / "r.json"
        argv = ["verify", "all", "--case", "I", "--n", "1", "--gamma", str(10**20),
                "--kl1", "0", "--kl2", "0", "--kr1", "0", "--level", str(10**20),
                "--samples", "2", "--json", str(out)]
        assert cli.main(argv) == 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in ("reduction.admissible", "fock"):
            assert checks[name]["status"] == "skip" and "int64" in checks[name]["detail"]
        assert checks["reduction.identity_residual"]["status"] == "pass"

    def test_above_guard_skips_brute_force(self, tmp_path, capsys):
        # representation dimension C(61, 7), above the brute-force guard: the
        # cross-check is skipped and the identity is still verified
        out = tmp_path / "r.json"
        argv = ["verify", "reduction", "--case", "III", "--n", "6", "--gamma", "9",
                "--gamma-tilde", "0", "--gamma-hat", "0", "--k", "0",
                "--json", str(out)]
        assert cli.main(argv) == 0
        status = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert status["reduction.admissible"]["status"] == "skip"
        assert "436270780" in status["reduction.admissible"]["detail"]
        assert status["reduction.identity_residual"]["status"] == "pass"

    def test_huge_occupation_is_exact(self, tmp_path):
        # a1 = 2 * 10^19 overflows int64; the state and the skip are exact
        out = tmp_path / "r.json"
        argv = ["verify", "reduction", "--case", "III", "--n", "2", "--gamma",
                str(10**19), "--gamma-tilde", "0", "--gamma-hat", "2", "--k", "0",
                "--json", str(out)]
        assert cli.main(argv) == 0
        check = json.loads(out.read_text())["checks"][0]
        assert check["name"] == "reduction.admissible" and check["status"] == "skip"
        assert check["detail"].startswith(f"state ({10**19}, {10**19}, 0, 2), ")

    def test_cap_refusal_is_quick(self, capsys):
        # 300,001 values of a1: the refusal must not walk the gamma grid
        t0 = time.perf_counter()
        code = cli.main(["enumerate", "--case", "III", "--n", "1", "--gamma-max",
                         "100000", "--k-bound", "3", "--cap", "10"])
        assert code == 2 and time.perf_counter() - t0 < 1.0
        assert "grid has 720302401 cells, cap is 10" in capsys.readouterr().err

    def test_cap_refusal_counts_in_closed_form(self, capsys):
        # 30,000,001 values of a1 are counted, not listed
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            code = cli.main(["enumerate", "--case", "III", "--n", "1", "--gamma-max",
                             "10000000", "--k-bound", "3", "--cap", "10"])
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and elapsed < 1.0 and peak < 1 << 20
        assert "grid has 72030002401 cells, cap is 10" in capsys.readouterr().err

    def test_enumerate_cap_is_two(self):
        res = run_cli(
            "enumerate", "--case", "I", "--n", "1",
            "--gamma-max", "3", "--k-bound", "3", "--cap", "100",
        )
        assert res.returncode == 2

    def test_inadmissible_couplings_is_one(self):
        res = run_cli(
            "couplings", "--case", "I", "--n", "1",
            "--gamma", "1", "--kl1", "1", "--kl2", "0", "--kr1", "0",
            "--kr2", "5",
        )
        assert res.returncode == 1
        assert "sum to zero" in res.stderr


    def test_contradicting_dependent_power_is_one(self, capsys):
        # case III fixes k_l1 = k, so a different --kl1 is rejected, not ignored
        argv = ["couplings", "--case", "III", "--n", "1", "--gamma", "0",
                "--gamma-tilde", "0", "--gamma-hat", "0", "--k", "0", "--kl1"]
        assert cli.main(argv + ["5"]) == 1
        assert "--kl1 must equal 0" in capsys.readouterr().err
        assert cli.main(argv + ["0"]) == 0


class TestReports:
    def test_json_deterministic_apart_from_wall_clock(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            res = run_cli(
                "verify", "inertia", "--case", "II", "--n", "2",
                "--samples", "5", "--seed", "99", "--json", str(path),
            )
            assert res.returncode == 0
            data = json.loads(path.read_text())
            data.pop("wall_clock_s")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_inertia_suite_passes(self, tmp_path):
        out = tmp_path / "i.json"
        res = run_cli(
            "verify", "inertia", "--case", "III", "--n", "2",
            "--samples", "20", "--json", str(out),
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        diag = [c for c in report["checks"] if c["name"] == "inertia.diagonalization"]
        assert diag and diag[0]["max_abs_err"] <= 1e-10

    def test_fock_suite_dimension(self, tmp_path):
        out = tmp_path / "f.json"
        res = run_cli(
            "verify", "fock", "--modes", "2", "--level", "12", "--json", str(out)
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        dim = [c for c in report["checks"] if c["name"] == "fock.dimension"]
        assert "dim 13" in dim[0]["detail"]

    def test_csv_written(self, tmp_path):
        out = tmp_path / "r.csv"
        res = run_cli(
            "verify", "basis", "--case", "I", "--n", "2", "--csv", str(out)
        )
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) > 2 and "name" in lines[0]


    def test_report_schema(self, tmp_path, capsys):
        def report(*argv):
            path = tmp_path / "r.json"
            assert cli.main([*argv, "--json", str(path)]) == 0
            return json.loads(path.read_text())

        envelope = {"command", "schema_version", "scheme", "seed", "status",
                    "wall_clock_s"}
        verify = report("verify", "all", "--case", "I", "--n", "2", "--gamma", "1",
                        "--kl1", "1", "--kl2", "0", "--kr1", "0")
        assert set(verify) == envelope | {"checks", "couplings", "mu", "params",
                                          "samples"}
        assert set(verify["scheme"]) == {"N", "case", "m", "n", "r", "s"}
        assert set(verify["params"]) == {"case", "gamma", "k_l1", "k_l2", "k_r1"}
        assert set(verify["couplings"]) == {"a", "b", "c", "constant"}
        assert set(verify["mu"]) == {"long", "pair", "short"}
        assert set(verify["samples"][0]) == {"lhs", "q", "rel_err", "rhs"}
        assert set(verify["checks"][0]) == {"detail", "max_abs_err", "name",
                                            "status", "tol"}

        grid = report("enumerate", "--case", "II", "--n", "1", "--gamma-max", "1",
                      "--k-bound", "1", "--brute")
        assert set(grid) == envelope | {"grid", "rows"}
        assert set(grid["grid"]) == {"admissible", "brute_mismatches", "cells",
                                     "gamma_max", "k_bound"}
        cell = {"a1", "brute_dim", "k_l1", "k_l2", "k_r1", "k_r2", "predicted_dim",
                "state"}
        rows = {row["predicted_dim"]: row for row in grid["rows"]}
        assert set(rows[0]) == cell
        assert set(rows[1]) == cell | {"a", "b", "c", "constant"}

        coup = report("couplings", "--case", "III", "--n", "1", "--gamma", "1",
                      "--gamma-tilde", "0", "--gamma-hat", "2", "--k", "0")
        assert set(coup) == envelope | {"couplings", "mu", "params"}
        assert set(coup["params"]) == {"case", "gamma", "gamma_hat", "gamma_tilde",
                                       "k"}


#: text with the characters the JSON string encoder escapes or that brackets
#: and separators use, plus any other text
TEXT = st.text(st.sampled_from('"\\\n\t[]{},: aé€😀\x00\x7f')) | st.text()
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = (st.none() | st.booleans() | st.integers() | TEXT | st.fractions()
           | FLOATS | FLOATS.map(np.float64))
JSON_TREES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20,
)


class TestReportWriter:
    @given(report=st.dictionaries(TEXT, JSON_TREES, max_size=5))
    @example(report={
        "nan": math.nan, "inf": [math.inf, -math.inf], "fraction": Fraction(-9, 2),
        "numpy": [np.float64(0.1), {"x": np.float64(-math.inf)}],
        "tuple": (1, (2.5, "x")), "empty": [{}, [], (), {"e": {}}],
        "text": ['quote " backslash \\ newline \n [bracket] {brace}', "é€😀"],
        "rows": [{"a": 1, "state": None}, {"a": 2, "state": [0, 1]}],
    })
    @settings(max_examples=100, deadline=None)
    def test_bytes_match_indented_json_dumps(self, report):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/r.json"
            cli.write_report(report, path, None)
            with open(path, encoding="utf-8") as fh:
                got = fh.read()
        want = json.dumps(report, sort_keys=True, indent=1, default=cli._exact)
        assert got == want + "\n"


class TestStartup:
    def test_enumerate_and_reduction_do_not_import_scipy(self, tmp_path):
        # scipy builds the Fock-space oracle only; the CLI's own paths act
        # on occupation states
        code = (
            "import sys\n"
            "from bcn_reduction import cli\n"
            "assert cli.main(['enumerate', '--case', 'II', '--n', '1', '--brute',"
            f" '--json', {str(tmp_path / 'e.json')!r}]) == 0\n"
            "assert cli.main(['verify', 'reduction', '--case', 'III', '--n', '2',"
            " '--gamma', '1', '--gamma-tilde', '0', '--gamma-hat', '2', '--k', '0',"
            f" '--json', {str(tmp_path / 'v.json')!r}]) == 0\n"
            "print('scipy' in sys.modules)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"


class TestCouplingsCommand:
    def test_case3_worked(self, tmp_path):
        out = tmp_path / "c.json"
        res = run_cli(
            "couplings", "--case", "III", "--n", "1",
            "--gamma", "1", "--gamma-tilde", "0", "--gamma-hat", "2", "--k", "0",
            "--json", str(out),
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        coup = report["couplings"]
        assert (coup["a"], coup["b"], coup["c"]) == (1, 2, 4)

    def test_case1_mu_output(self, tmp_path):
        out = tmp_path / "c.json"
        res = run_cli(
            "couplings", "--case", "I", "--n", "1",
            "--gamma", "1", "--kl1", "1", "--kl2", "0", "--kr1", "0",
            "--json", str(out),
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        assert report["mu"] == {"pair": "2", "short": "1", "long": "1/2"}

    def test_case3_rational_constant(self, tmp_path):
        out = tmp_path / "c.json"
        res = run_cli(
            "couplings", "--case", "III", "--n", "1",
            "--gamma", "0", "--gamma-tilde", "0", "--gamma-hat", "0", "--k", "0",
            "--json", str(out),
        )
        report = json.loads(out.read_text())
        assert report["couplings"]["constant"] == "-9/2"


    def test_csv_is_refused_without_a_file(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        argv = ["couplings", "--case", "I", "--n", "1", "--gamma", "1",
                "--kl1", "1", "--kl2", "0", "--kr1", "0", "--csv", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestEnumerateCommand:
    def test_case1_admissible_rows_have_zero_sum(self, tmp_path):
        out = tmp_path / "e.json"
        res = run_cli(
            "enumerate", "--case", "I", "--n", "1",
            "--gamma-max", "2", "--k-bound", "1", "--json", str(out),
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        admissible = [r for r in report["rows"] if r["predicted_dim"] == 1]
        assert admissible
        for row in admissible:
            assert row["k_l1"] + row["k_l2"] + row["k_r1"] + row["k_r2"] == 0

    def test_case2_rows_satisfy_coupling_bound(self, tmp_path):
        out = tmp_path / "e.json"
        res = run_cli(
            "enumerate", "--case", "II", "--n", "1",
            "--gamma-max", "2", "--k-bound", "1", "--brute", "--json", str(out),
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        admissible = [r for r in report["rows"] if r["predicted_dim"] == 1]
        assert admissible
        for row in admissible:
            assert row["b"] >= row["a"] + 1
            assert row["brute_dim"] == 1

    def test_csv_has_every_cell(self, tmp_path):
        # the first row is inadmissible, so later rows carry keys it lacks
        argv = ["enumerate", "--case", "I", "--n", "1", "--gamma-max", "1",
                "--k-bound", "1"]
        assert cli.main(argv + ["--csv", str(tmp_path / "e.csv"),
                                "--json", str(tmp_path / "e.json")]) == 0
        report = json.loads((tmp_path / "e.json").read_text())
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert len(lines) == 1 + report["grid"]["cells"]
        with open(tmp_path / "e.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["constant"] == ""
        want = [r["constant"] for r in report["rows"] if r["predicted_dim"] == 1]
        assert want
        assert [r["constant"] for r in rows if r["predicted_dim"] == "1"] == want

    def test_brute_state_mismatch_fails(self, tmp_path, monkeypatch, capsys):
        # right kernel dimension, wrong kernel state
        batch = reduction._grid_nullity_batch

        def wrong_state(scheme, a1, kgrid):
            nullity, states = batch(scheme, a1, kgrid)
            return nullity, [tuple((st[0] + 1,) + st[1:] for st in row)
                             for row in states]

        monkeypatch.setattr(reduction, "_grid_nullity_batch", wrong_state)
        out = tmp_path / "e.json"
        argv = ["enumerate", "--case", "II", "--n", "1", "--gamma-max", "1",
                "--k-bound", "1", "--brute", "--json", str(out)]
        assert cli.main(argv) == 1
        assert json.loads(out.read_text())["grid"]["brute_mismatches"] > 0

    def test_case3_rows_satisfy_coupling_bounds(self, tmp_path):
        out = tmp_path / "e.json"
        res = run_cli(
            "enumerate", "--case", "III", "--n", "1",
            "--gamma-max", "1", "--k-bound", "1", "--json", str(out),
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        admissible = [r for r in report["rows"] if r["predicted_dim"] == 1]
        assert admissible
        for row in admissible:
            assert row["b"] >= row["a"] + 1 and row["c"] >= row["a"] + 1


class TestVerifyAll:
    def test_runs_clean(self, tmp_path):
        out = tmp_path / "all.json"
        res = run_cli(
            "verify", "all", "--case", "II", "--n", "1",
            "--samples", "5", "--json", str(out),
        )
        assert res.returncode == 0
        report = json.loads(out.read_text())
        names = {c["name"] for c in report["checks"]}
        assert {"basis.gram_identity", "inertia.diagonalization",
                "density.measure_factor_fd", "fock.dimension"} <= names
        skipped = [c for c in report["checks"] if c["status"] == "skip"]
        assert skipped  # reduction skipped without parameters


    def test_fock_above_guard_is_skipped(self, tmp_path, monkeypatch):
        # two modes at level 6 span 7 states, above a guard of 5
        monkeypatch.setattr(reduction, "BRUTE_FORCE_DIM_GUARD", 5)
        out = tmp_path / "all.json"
        argv = ["verify", "all", "--case", "II", "--n", "1", "--samples", "5",
                "--json", str(out)]
        assert cli.main(argv) == 0
        checks = json.loads(out.read_text())["checks"]
        fock = [c for c in checks if c["name"].startswith("fock")]
        assert [(c["name"], c["status"]) for c in fock] == [("fock", "skip")]
        assert "dimension 7" in fock[0]["detail"]


class TestEnumerateMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident set from /proc")
    def test_brute_force_peak_memory_does_not_grow_with_the_grid(self, tmp_path):
        # 38,416 cells against up to 3,876 states: one (cells x ops x states)
        # temporary of this grid would be over 400 MB.  VmHWM is the peak of
        # the child's own address space; ru_maxrss would also count the pages
        # it shared with this process before exec.
        code = (
            "from bcn_reduction import cli\n"
            "assert cli.main(['enumerate', '--case', 'III', '--n', '3', '--gamma-max',"
            " '3', '--k-bound', '3', '--brute', '--json',"
            f" {str(tmp_path / 'e.json')!r}]) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM')))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True)
        assert res.returncode == 0, res.stderr
        assert int(res.stdout) <= 250 * 1024  # kilobytes


class TestFockSuite:
    def test_peak_memory_below_one_dense_operator(self):
        # 8 modes at level 6 span 1,716 states; one dense complex operator on
        # them is 1716^2 * 16 bytes = 47 MB
        tracemalloc.start()
        try:
            checks = cli.suite_fock(8, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.status == "pass" for c in checks)
        assert peak < 1716**2 * 16


class TestNonFinite:
    def test_nan_fails_suite_check(self, monkeypatch):
        # one offset per point: 3 for the measure factor, then 5 for the
        # identity; each NaN arrives after a finite value, where the builtin
        # max drops it
        offsets = iter([0.0, math.nan, 0.0] + [0.0, math.nan, 0.0, 0.0, 0.0])
        fd = polar.log_laplacian_fd

        def with_offsets(*args):
            value = fd(*args)
            return value + np.reshape([next(offsets) for _ in range(np.size(value))],
                                      np.shape(value))

        monkeypatch.setattr(polar, "log_laplacian_fd", with_offsets)
        checks = cli.suite_density(scheme_for("I", 1), np.random.default_rng(0), 3)
        for name in ("density.measure_factor_fd", "density.log_laplacian_identity"):
            check = next(c for c in checks if c.name == name)
            assert check.status == "fail" and math.isnan(check.max_abs_err)


class TestLogDeterminant:
    def test_underflowing_eigenvalue_product_passes(self, monkeypatch):
        # small eigenvalues before large ones: their running product leaves
        # double range although det J = 1, which a linear-space check fails
        scheme = scheme_for("I", 2)
        dim = len(polar.build_kperp_basis(scheme))
        lam = np.repeat([1e-100, 1e100], [dim // 2, dim - dim // 2])
        assert np.prod(lam) == 0.0
        monkeypatch.setattr(polar, "inertia_eigenvalues", lambda basis, q: lam)
        monkeypatch.setattr(polar, "inertia_matrix", lambda scheme, basis, q: np.diag(lam))
        checks = cli.suite_inertia(scheme, np.random.default_rng(0), 2)
        check = next(c for c in checks if c.name == "inertia.determinant_vs_eigenvalues")
        assert check.status == "pass" and check.max_abs_err <= 1e-10


class TestNegativeControls:
    """Each check fails when one of its inputs is corrupted."""

    SCHEME = scheme_for("III", 1)  # has V roots of two lengths and Vt/Wt pairs

    @staticmethod
    def status(checks, name):
        return next(c.status for c in checks if c.name == name)

    @staticmethod
    def corrupt_basis(monkeypatch, edit):
        """Make build_kperp_basis apply edit(labels, left, right) in place."""
        build = polar.build_kperp_basis

        def corrupted(scheme):
            basis = build(scheme)
            left, right = basis.left.copy(), basis.right.copy()
            edit(basis.labels, left, right)
            return polar.KPerpBasis(scheme, basis.labels, left, right)

        monkeypatch.setattr(polar, "build_kperp_basis", corrupted)

    def basis_checks(self):
        return cli.suite_basis(self.SCHEME, np.random.default_rng(0))

    def test_gram_identity(self, monkeypatch):
        def scale(labels, left, right):
            left[0] *= 1.1
        self.corrupt_basis(monkeypatch, scale)
        assert self.status(self.basis_checks(), "basis.gram_identity") == "fail"

    def test_centralizer_orthogonality(self, monkeypatch):
        # an orbit direction added to the first centralizer element
        basis, build = polar.build_kperp_basis(self.SCHEME), polar.build_m_basis
        v = basis.left[[lab.family for lab in basis.labels].index("V")]
        first = (np.arange(self.SCHEME.dim_centralizer) == 0)[:, None, None]
        monkeypatch.setattr(polar, "build_m_basis", lambda scheme: build(scheme) + first * v)
        assert self.status(self.basis_checks(), "basis.centralizer_orthogonality") == "fail"

    def test_radial_bracket_squared(self, monkeypatch):
        # two V directions of different roots swap places: the Gram
        # identity holds, the squared bracket sees the wrong root
        def swap(labels, left, right):
            v = [i for i, lab in enumerate(labels) if lab.family == "V"]
            i, j = v[0], next(k for k in v if labels[k].root != labels[v[0]].root)
            left[[i, j]], right[[i, j]] = left[[j, i]], right[[j, i]]
        self.corrupt_basis(monkeypatch, swap)
        checks = self.basis_checks()
        assert self.status(checks, "basis.gram_identity") == "pass"
        assert self.status(checks, "basis.radial_bracket_squared") == "fail"

    def test_radial_bracket_mixing(self, monkeypatch):
        # a Vt direction swaps places with its Wt partner (same left part,
        # opposite right part): the Gram identity holds, the bracket rotates
        # the left part into minus the right part
        def swap(labels, left, right):
            i = next(k for k, lab in enumerate(labels) if lab.family == "Vt")
            key = (labels[i].root, labels[i].flavor, labels[i].block)
            j = next(k for k, lab in enumerate(labels)
                     if lab.family == "Wt" and (lab.root, lab.flavor, lab.block) == key)
            left[[i, j]], right[[i, j]] = left[[j, i]], right[[j, i]]
        self.corrupt_basis(monkeypatch, swap)
        checks = self.basis_checks()
        assert self.status(checks, "basis.gram_identity") == "pass"
        assert self.status(checks, "basis.radial_bracket_squared") == "pass"
        assert self.status(checks, "basis.radial_bracket_mixing") == "fail"

    @pytest.mark.parametrize("corruption", ["eigenvalue", "sign"])
    def test_determinant_vs_eigenvalues(self, monkeypatch, corruption):
        if corruption == "eigenvalue":  # one eigenvalue doubled
            lam = polar.inertia_eigenvalues
            monkeypatch.setattr(polar, "inertia_eigenvalues", lambda basis, q: lam(basis, q)
                                * np.where(np.arange(len(basis)) == 0, 2.0, 1.0))
        else:  # det J < 0: one column of J flips sign
            jmat = polar.inertia_matrix
            monkeypatch.setattr(polar, "inertia_matrix", lambda scheme, basis, q: jmat(
                scheme, basis, q) * np.where(np.arange(len(basis)) == 0, -1.0, 1.0))
        checks = cli.suite_inertia(self.SCHEME, np.random.default_rng(0), 3)
        assert self.status(checks, "inertia.determinant_vs_eigenvalues") == "fail"

    def test_fourth_power_tracks_det(self, monkeypatch):
        log_density = polar.log_density
        monkeypatch.setattr(polar, "log_density", lambda nu, nu1, nu2, q: log_density(
            nu, nu1, nu2, q) + np.log1p(0.1 * np.asarray(q)[..., 0]))
        checks = cli.suite_density(self.SCHEME, np.random.default_rng(0), 3)
        assert self.status(checks, "density.fourth_power_tracks_det") == "fail"

    @staticmethod
    def shifted(series, shift):
        return lambda *args: replace(series(*args), const=series(*args).const + shift)

    def test_measure_factor_fd_check(self, monkeypatch):
        # a constant 1e-3 off the closed form, 100 times the tolerance
        monkeypatch.setattr(polar, "measure_factor", self.shifted(polar.measure_factor, 1e-3))
        checks = cli.suite_density(self.SCHEME, np.random.default_rng(0), 3)
        assert self.status(checks, "density.measure_factor_fd") == "fail"
        assert self.status(checks, "density.log_laplacian_identity") == "pass"

    def test_log_laplacian_identity(self, monkeypatch):
        # a constant 1e-2 off the closed form, 100 times the tolerance for
        # values up to 1
        monkeypatch.setattr(polar, "sutherland_rhs", self.shifted(polar.sutherland_rhs, 1e-2))
        checks = cli.suite_density(self.SCHEME, np.random.default_rng(0), 3)
        assert self.status(checks, "density.log_laplacian_identity") == "fail"
