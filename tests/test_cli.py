import csv
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io
import scipy.sparse

import trigkrylov.cli as cli
import trigkrylov.integrators as integrators
import trigkrylov.problems as pb
from trigkrylov.cli import (
    BENCH_HEADER,
    BOUNDS_HEADER,
    build_preset,
    load_config_file,
    main,
    read_vector,
    write_vector,
)
from trigkrylov.krylov import StepSearchStagnation
from trigkrylov.linop import dirichlet_laplacian_1d


def _rows(path, reader=csv.DictReader):
    with open(path, newline="") as fh:
        return list(reader(fh))


def test_vector_roundtrip(tmp_path):
    vec = np.linspace(-1.0, 1.0, 17)
    path = tmp_path / "v.bin"
    write_vector(path, vec)
    with open(path, "rb") as f:
        first_line = f.readline()
    assert first_line == b"n 17\n"
    np.testing.assert_array_equal(read_vector(path), vec)


def test_vector_bad_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"m 3\n" + np.zeros(3).tobytes())
    with pytest.raises(ValueError, match="header"):
        read_vector(path)


def test_build_preset_names():
    ivp, reference = build_preset("isotropic10")
    assert ivp.op.dim == 1000 and ivp.t_final == 1.0
    assert reference(ivp).shape == (1000,)
    ivp2, _ = build_preset("anisotropic8-t10")
    assert ivp2.t_final == 10.0 and ivp2.op.kx == 1e4
    ivp3, _ = build_preset("transport128")
    assert ivp3.op.dim == 128 and not ivp3.op.is_symmetric
    with pytest.raises(ValueError, match="preset"):
        build_preset("cube10")


def test_scale_mapping():
    ivp, _ = build_preset("isotropic10", scale=0.25)
    assert ivp.op.dim == 4**3  # max(4, floor(10*0.25))


def test_solve_preset_summary_and_outputs(tmp_path, capsys):
    rc = main(["solve", "--problem", "isotropic10", "--solver", "rt-seq",
               "--tol", "1e-4", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rt-seq" in out and "matvecs=" in out
    rows = _rows(tmp_path / "summary.csv")
    assert len(rows) == 1
    matvecs = int(rows[0]["matvecs"])
    assert 0.7 * 47 <= matvecs <= 1.3 * 47  # benchmark regime
    y = read_vector(tmp_path / "y.bin")
    assert y.size == 1000
    assert (tmp_path / "residual_log.csv").exists()


def test_solve_two_pass_on_transport_fails(tmp_path, capsys):
    rc = main(["solve", "--problem", "transport128", "--solver", "two-pass",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "operator not symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("t_final", ["0", "inf", "nan"])
def test_solve_t_zero_exits_2(tmp_path, capsys, t_final):
    rc = main(["solve", "--problem", "isotropic10", "--t", t_final,
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_final" in err
    assert err.count("\n") == 1


def _write_spd_matrix(tmp_path, n=12):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    mtx = tmp_path / "a.mtx"
    scipy.io.mmwrite(mtx, scipy.sparse.coo_matrix(a @ a.T / n + 2 * np.eye(n)),
                     symmetry="symmetric")
    write_vector(tmp_path / "v.bin", rng.standard_normal(n))
    return mtx


def test_solve_matrix_t_zero_is_not_replaced(tmp_path, capsys):
    mtx = _write_spd_matrix(tmp_path)
    rc = main(["solve", "--matrix", str(mtx), "--v-file", str(tmp_path / "v.bin"),
               "--t", "0", "--reference", "none", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "t_final" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _write_matrix_with_entry(tmp_path, entry):
    mtx = tmp_path / f"{entry}.mtx"
    mtx.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 2\n"
                   f"1 1 {entry}\n2 2 1.0\n")
    return str(mtx)


def _bad_input_args(case, tmp_path):
    mtx = str(_write_spd_matrix(tmp_path))
    regular = tmp_path / "file"
    regular.write_text("")
    bogus_cfg = tmp_path / "bogus.cfg"
    bogus_cfg.write_text("bogus = 1\n")
    bench = ["bench", "--suite", "table2", "--scale", "0.1"]
    return {
        "no-source": ["solve"],
        "unknown-config-key": ["solve", "--config", str(bogus_cfg), "--problem", "isotropic4"],
        "synthetic-n-0": ["bounds", "--n", "0"],
        "nan-time": ["bounds", "--t-values", "0.5,nan"],
        "inf-tol": ["solve", "--problem", "isotropic6", "--tol", "inf"],
        "missing-matrix": ["solve", "--matrix", str(tmp_path / "missing.mtx")],
        "missing-vector": ["solve", "--matrix", mtx, "--u-file", str(tmp_path / "missing.bin")],
        "out-below-a-file": ["solve", "--problem", "isotropic4", "--out", str(regular / "sub")],
        "unknown-preset": ["bounds", "--problem", "nosuch7"],
        "malformed-m": ["bounds", "--m", "2:x"],
        "missing-config": ["bench", "--suite", "table2", "--config", str(tmp_path / "missing.cfg")],
        "invalid-solver": ["solve", "--problem", "isotropic10", "--solver", "bogus"],
        # Gautschi's safety factor is the constant integrators.GAUTSCHI_ALPHA
        "alpha-flag": ["solve", "--problem", "isotropic10", "--alpha", "0.5"],
        # bench runs each suite at its own tolerances
        "bench-tol-flag": bench + ["--tol", "1e-8", "--max-seconds", "0"],
        "infinite-scale": ["bounds", "--problem", "isotropic6", "--scale", "inf"],
        "scale-past-int": ["bounds", "--problem", "transport32", "--scale", "1e300"],
        "nan-budget": bench + ["--max-seconds", "nan"],
        "negative-budget": bench + ["--max-seconds", "-1"],
        "empty-m-range": ["bounds", "--m", "3:1"],
        "open-m-range": ["bounds", "--m", "1:"],
        "config-without-path": ["solve", "--config"],
        "text-tol": ["solve", "--problem", "isotropic6", "--tol", "abc"],
        "fractional-mmax": ["solve", "--problem", "isotropic6", "--mmax", "2.5"],
        # no cell runs, so only the flag's own type can reject it
        "negative-bench-mmax": bench + ["--mmax", "-1", "--max-seconds", "0"],
        "float-n": ["bounds", "--n", "1e308"],
        "nan-matrix-entry": ["solve", "--matrix", _write_matrix_with_entry(tmp_path, "nan")],
        "inf-matrix-entry": ["solve", "--matrix", _write_matrix_with_entry(tmp_path, "inf")],
    }[case]


#: what the error line of a case must name, where it names one thing
_NAMED = {"invalid-solver": "--solver", "alpha-flag": "--alpha", "bench-tol-flag": "--tol",
          "infinite-scale": "--scale", "scale-past-int": "--scale",
          "nan-budget": "--max-seconds", "negative-budget": "--max-seconds",
          "empty-m-range": "--m", "open-m-range": "--m", "config-without-path": "--config",
          "text-tol": "--tol", "fractional-mmax": "--mmax", "float-n": "--n",
          "negative-bench-mmax": "--mmax",
          "nan-matrix-entry": "finite", "inf-matrix-entry": "finite"}


@pytest.mark.parametrize("case", ["missing-matrix", "missing-vector", "out-below-a-file",
                                  "unknown-preset", "malformed-m", "missing-config",
                                  "no-source", "unknown-config-key", "synthetic-n-0",
                                  "nan-time", "inf-tol", *_NAMED])
def test_bad_outside_input_exits_2_with_one_line(tmp_path, capsys, case):
    args = _bad_input_args(case, tmp_path)
    if "--out" not in args:
        args += ["--out", str(tmp_path / "o")]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "usage:" not in out + err
    assert _NAMED.get(case, "") in err
    assert not list((tmp_path / "o").glob("*.csv"))


def _sweep_cases():
    flags = {"solve": ("--scale", "--tol", "--t", "--mmax"),
             "bench": ("--scale", "--max-seconds", "--mmax"),
             "bounds": ("--scale", "--n", "--m", "--t-values", "--seed")}
    values = ("nan", "inf", "-inf", "-1", "0", "1e308", "")
    cases = [(cmd, flag, value) for cmd, names in flags.items()
             for flag in names for value in values]
    return (cases + [("bounds", "--m", value) for value in ("3:1", "1:", ":")]
            + [(cmd, "--mmax", "1") for cmd in ("solve", "bench")])


@pytest.mark.parametrize("command,flag,value", _sweep_cases())
def test_numeric_flag_sweep_ends_in_output_or_one_error_line(tmp_path, capsys,
                                                             command, flag, value):
    # cheap problems, and a bench that runs no cell unless its budget is swept;
    # the swept flag comes last, so it overrides the base's own value
    base = {"solve": ["solve", "--problem", "isotropic6"],
            "bench": ["bench", "--suite", "table2", "--scale", "0.1", "--max-seconds", "0"],
            "bounds": ["bounds", "--m", "2,3", "--t-values", "0.5"]}[command]
    if command == "bounds" and flag == "--scale":
        base += ["--problem", "isotropic6"]  # the synthetic problem has no grid
    rc = main(base + ["--out", str(tmp_path), f"{flag}={value}"])
    out, err = capsys.readouterr()
    assert "usage:" not in out + err and "Traceback" not in err
    if rc == 0:
        assert out and not err and any(tmp_path.glob("*.csv"))
    else:
        # exit 1 is a solver failure, which only solve reports
        assert rc == 2 or (rc == 1 and command == "solve"), (rc, err)
        assert err.startswith("error:") and err.count("\n") == 1, err
    if flag in ("--mmax", "--seed") and (flag, value) != ("--seed", "0"):
        # a Krylov cap is an int of at least 2 and a seed a nonnegative
        # int, each rejected by its flag's type, which names the flag
        assert rc == 2 and flag in err, (rc, err)


def test_solve_of_an_exact_zero_solution_reports_zero_error(tmp_path):
    # no --u-file, --v-file or --g-file: y = 0 = reference, not 0/0
    mtx = _write_spd_matrix(tmp_path)
    assert main(["solve", "--matrix", str(mtx), "--out", str(tmp_path / "o")]) == 0
    assert _rows(tmp_path / "o" / "summary.csv")[0]["rel_accuracy"] == "0.0"


def test_solve_writes_plain_floats(tmp_path):
    # the step search's numpy scalars must not reach the log as "np.float64(...)"
    assert main(["solve", "--problem", "transport128", "--solver", "rt-sim",
                 "--no-timing", "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "residual_log.csv")
    assert rows
    for row in rows:
        for key in ("t_start", "t_end", "residual"):
            float(row[key])
    ivp, _ = build_preset("transport128")
    report = integrators.solve(ivp, integrators.SolverConfig(tol=1e-6), "rt-sim")
    assert report.step_sizes
    assert all(type(s) is float for s in report.step_sizes)


def test_solve_catches_solver_runtime_error(tmp_path, capsys, monkeypatch):
    def stagnate(ivp, cfg, solver):
        raise StepSearchStagnation("stagnation: residual not small even for tiny steps")

    monkeypatch.setattr(cli, "run_solver", stagnate)
    rc = main(["solve", "--problem", "isotropic10", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: stagnation: residual not small even for tiny steps\n"


def test_solve_overflowing_time_writes_only_its_error(tmp_path):
    # in a fresh process, as numpy prints each floating-point warning once
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "trigkrylov.cli", "solve", "--problem", "isotropic10",
         "--t", "1e300", "--reference", "none", "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "overflow" in out.stderr
    assert out.stderr.count("\n") == 1


def test_solve_matrix_market(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    mat = a @ a.T / 12 + 2 * np.eye(12)
    mtx = tmp_path / "a.mtx"
    scipy.io.mmwrite(mtx, scipy.sparse.coo_matrix(mat), symmetry="symmetric")
    write_vector(tmp_path / "u.bin", rng.standard_normal(12))
    write_vector(tmp_path / "v.bin", rng.standard_normal(12))
    rc = main(["solve", "--matrix", str(mtx), "--u-file", str(tmp_path / "u.bin"),
               "--v-file", str(tmp_path / "v.bin"), "--t", "1.0",
               "--solver", "two-pass", "--reference", "none",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert read_vector(tmp_path / "o" / "y.bin").size == 12


def test_bench_schema_and_determinism(tmp_path):
    args = ["bench", "--suite", "table2", "--scale", "0.4", "--no-timing"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "table2.csv").read_bytes()
    csv_b = (tmp_path / "b" / "table2.csv").read_bytes()
    assert csv_a == csv_b
    rows = list(csv.reader(csv_a.decode().splitlines()))
    assert rows[0] == BENCH_HEADER
    assert len(rows) == 1 + 4 * 2 * 4  # grids x tols x solvers
    for row in rows[1:]:
        assert float(row[BENCH_HEADER.index("rel_err")]) <= 1.5 * float(
            row[BENCH_HEADER.index("tol_used")])


def test_bench_truncation_marker(tmp_path):
    rc = main(["bench", "--suite", "table2", "--scale", "0.4",
               "--max-seconds", "0.0", "--out", str(tmp_path)])
    assert rc == 0
    rows = _rows(tmp_path / "table2.csv", csv.reader)
    assert rows[-1][0] == "TRUNCATED"
    assert rows[0] == BENCH_HEADER
    assert rows[-1] == ["TRUNCATED"] + [""] * (len(BENCH_HEADER) - 1)
    assert len(rows) < 1 + 4 * 2 * 4


def _write_problem(tmp_path, name, a_mat, ivp, symmetry):
    """A Matrix Market file of ``a_mat`` and dumps of ivp.u and ivp.v; the
    ``solve`` flags that read them."""
    scipy.io.mmwrite(tmp_path / f"{name}.mtx", scipy.sparse.coo_matrix(a_mat),
                     symmetry=symmetry)
    write_vector(tmp_path / f"{name}-u.bin", ivp.u)
    write_vector(tmp_path / f"{name}-v.bin", ivp.v)
    return ["--matrix", str(tmp_path / f"{name}.mtx"),
            "--u-file", str(tmp_path / f"{name}-u.bin"),
            "--v-file", str(tmp_path / f"{name}-v.bin"), "--t", str(ivp.t_final)]


def test_reported_errors_do_not_come_from_rt_seq(tmp_path, monkeypatch):
    # rt-seq at tol 1e-12 is a solver under test, so it must not be the
    # ground truth of a preset at any grid, nor of a matrix file: not of a
    # nonsymmetric one past the dense assembly cap of 4096, nor of a
    # symmetric one.  Every solver run passes through _restart, so a solve
    # whose reference ran a solver records two runs.
    runs = []
    restart = integrators._restart

    def record(ivp, solver, advance):
        runs.append(solver)
        return restart(ivp, solver, advance)

    monkeypatch.setattr(integrators, "_restart", record)
    transport = pb.build_transport(pb.TransportProblemSpec(4097))
    lap = scipy.sparse.csr_matrix(dirichlet_laplacian_1d(10))
    sources = {
        "transport128": ["--problem", "transport128"],
        "transport4097": ["--problem", "transport4097"],
        "isotropic50": ["--problem", "isotropic50"],
        "transport4097.mtx": _write_problem(tmp_path, "transport4097", transport.op.csr,
                                            transport, "general"),
        "isotropic10.mtx": _write_problem(
            tmp_path, "isotropic10", scipy.sparse.kronsum(scipy.sparse.kronsum(lap, lap), lap),
            pb.build_wave3d(pb.isotropic_wave_spec(10)), "symmetric"),
    }
    for (label, source), tol in zip(sources.items(), ("1e-6", "1e-4", "1e-4", "1e-4", "1e-6")):
        out = tmp_path / "out" / label
        runs.clear()
        assert main(["solve", *source, "--tol", tol, "--out", str(out)]) == 0
        assert runs == ["rt-seq"], label
        rel = float(_rows(out / "summary.csv")[0]["rel_accuracy"])
        assert 0.0 < rel <= 10.0 * float(tol), label
    assert main(["bench", "--suite", "table5", "--scale", "0.05", "--no-timing",
                 "--out", str(tmp_path / "b")]) == 0
    rows = _rows(tmp_path / "b" / "table5.csv")
    assert len(rows) == 4 * 2 * 4
    assert all(0.0 < float(row["rel_err"]) <= 10.0 * float(row["tol_used"])
               for row in rows)


@pytest.mark.parametrize("suite,family", [("table3", "anisotropic"),
                                          ("table4", "anisotropic"),
                                          ("table5", "transport")])
def test_bench_tolerance_adjustments(tmp_path, monkeypatch, suite, family):
    # the solvers are stubbed: only the tolerance each cell hands them counts
    handed = []

    def record(ivp, cfg, solver):
        handed.append(cfg.tol)
        return SimpleNamespace(y=ivp.u, matvecs=0, steps=0, repair_events=0)

    monkeypatch.setattr(cli, "run_solver", record)
    assert main(["bench", "--suite", suite, "--scale", "0.05", "--no-timing",
                 "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / f"{suite}.csv")
    assert [float(row["tol_used"]) for row in rows] == handed
    assert rows and all(row["problem"].startswith(family) for row in rows)
    for row in rows:
        factor = pb.TOL_ADJUST.get((family, row["solver"]), 1.0)
        assert float(row["tol_used"]) == factor * float(row["tol_nominal"])


def test_benchmark_workloads_use_the_tolerance_table(monkeypatch):
    # perfbench keeps its own copy of the adjustments until it reads the
    # catalogue; this keeps the two from drifting apart
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    families = {"wave3d-large": "isotropic", "wave3d-aniso": "anisotropic",
                "transport-nonsym": "transport"}
    assert workloads.WORKLOADS.keys() == families.keys()
    for name, workload in workloads.WORKLOADS.items():
        for cell in workload.cells:
            factor = pb.TOL_ADJUST.get((families[name], cell.solver), 1.0)
            assert cell.tol_used == cell.tol * factor, (name, cell)


def test_bounds_csv_zero_violations(tmp_path):
    assert main(["bounds", "--problem", "synthetic", "--m", "2:8",
                 "--t-values", "0,0.25,0.5,1", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "bounds.csv")
    assert list(rows[0].keys()) == BOUNDS_HEADER
    assert len(rows) == 7 * 4
    assert all(row["violation"] == "0" for row in rows)
    zero_rows = [row for row in rows if float(row["t"]) == 0.0]
    for row in zero_rows:
        assert float(row["res_total"]) == 0.0
        assert float(row["bound_p22"]) == 0.0


def test_bounds_overflowed_residuals_count_as_violations(tmp_path, capsys):
    # t^2 overflows, so the residuals are NaN: each such row is a violation
    assert main(["bounds", "--m", "2,3", "--t-values", "1e300",
                 "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "bounds.csv")
    assert len(rows) == 2
    assert all(row["res_total"] == "nan" for row in rows)
    assert all(row["violation"] == "1" for row in rows)
    assert "2 rows, 2 violations" in capsys.readouterr().out


def test_bounds_of_a_broken_down_branch_read_no_ritz_value(tmp_path, capsys):
    # at m = n = 2 both branches break down, and the synthetic spectrum's
    # lam = 0 leaves a round-off negative Ritz value, which the dead term
    # must not take a square root of
    assert main(["bounds", "--n", "2", "--m", "2", "--out", str(tmp_path)]) == 0
    assert len(_rows(tmp_path / "bounds.csv")) == 3
    assert "3 rows, 0 violations" in capsys.readouterr().out


def test_bounds_wave_preset(tmp_path):
    assert main(["bounds", "--problem", "isotropic6", "--m", "3,6",
                 "--t-values", "0.5,1", "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "bounds.csv")
    assert all(row["violation"] == "0" for row in rows)
    assert all(row["bound_p3"] == "n/a" for row in rows)  # spectrum not in [0,1]


def test_fig_tol_sweep_accuracy_trend(tmp_path):
    assert main(["bench", "--suite", "fig-tol-sweep", "--scale", "0.15",
                 "--no-timing", "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "fig_tol_sweep.csv")
    by_solver = {}
    for row in rows:
        by_solver.setdefault(row["solver"], []).append(
            (float(row["tol_nominal"]), float(row["rel_err"])))
    for solver, cells in by_solver.items():
        cells.sort(reverse=True)
        errs = [e for _, e in cells]
        # qualitative monotone trend: tightening the tolerance by 1e7 improves
        # the accuracy by orders of magnitude, unless the solver already
        # converged to the small-grid floor at the crude end (two-pass does)
        assert errs[-1] <= max(1e-4 * errs[0], 5e-9), solver
        assert all(e <= max(10.0 * tol, 5e-9) for (tol, e) in cells), solver


def test_bounds_tight_bound_saturates_on_wave(tmp_path):
    assert main(["bounds", "--problem", "isotropic10", "--m", "6",
                 "--t-values", "1,5,10", "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "bounds.csv")
    tights = [float(row["bound_p23_tight"]) for row in rows]
    simples = [float(row["bound_p23_simple"]) for row in rows]
    assert tights[1] == tights[2]  # capped: no growth from t=5 to t=10
    assert tights[0] <= tights[1]
    assert simples[2] > simples[1] > simples[0]  # the simple bound keeps growing
    assert all(row["violation"] == "0" for row in rows)


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# example config\nproblem = isotropic10\ntol = 1e-4\n"
                   "solver = gautschi\nout = " + str(tmp_path / "o") + "\n")
    rc = main(["solve", "--config", str(cfg), "--tol", "1e-3"])
    assert rc == 0
    rows = _rows(tmp_path / "o" / "summary.csv")
    assert rows[0]["solver"] == "gautschi"
    assert float(rows[0]["tol"]) == 1e-3  # flag overrides file


def test_config_value_is_converted_by_its_flag(tmp_path):
    # --t has no default to take a type from
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = isotropic8\nt = 0.5\nout = {tmp_path / 'o'}\n")
    assert main(["solve", "--config", str(cfg)]) == 0
    ends = [float(row["t_end"]) for row in _rows(tmp_path / "o" / "residual_log.csv")]
    assert max(ends) == pytest.approx(0.5, rel=1e-12)


def test_abbreviated_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = isotropic8\ntol = 1e-4\nout = {tmp_path / 'o'}\n")
    assert main(["solve", "--config", str(cfg), "--to", "1e-3"]) == 0
    assert float(_rows(tmp_path / "o" / "summary.csv")[0]["tol"]) == 1e-3


def test_config_supplies_a_required_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"suite = table2\nmax-seconds = 0\nout = {tmp_path}\n")
    assert main(["bench", "--config", str(cfg)]) == 0
    assert (tmp_path / "table2.csv").exists()
    # an explicit flag still wins over the file
    assert main(["bench", "--config", str(cfg), "--suite", "table3"]) == 0
    assert (tmp_path / "table3.csv").exists()
