import csv

import numpy as np
import pytest
import scipy.io
import scipy.sparse

import trigkrylov.cli as cli
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
    ivp, spec, n = build_preset("isotropic10")
    assert n == 10 and spec is not None and ivp.op.dim == 1000
    ivp2, spec2, _ = build_preset("anisotropic8-t10")
    assert spec2.t_final == 10.0 and spec2.kx == 1e4
    ivp3, spec3, _ = build_preset("transport128")
    assert spec3 is None and not ivp3.op.is_symmetric
    with pytest.raises(ValueError, match="preset"):
        build_preset("cube10")


def test_scale_mapping():
    _, _, n = build_preset("isotropic10", scale=0.25)
    assert n == 4  # max(4, floor(10*0.25))


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


def test_solve_invalid_solver_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "isotropic10", "--solver", "bogus",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_solve_two_pass_on_transport_fails(tmp_path, capsys):
    rc = main(["solve", "--problem", "transport128", "--solver", "two-pass",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "operator not symmetric" in capsys.readouterr().err


def test_solve_requires_one_source(tmp_path, capsys):
    rc = main(["solve", "--out", str(tmp_path)])
    assert rc == 2


def test_solve_t_zero_exits_2(tmp_path, capsys):
    rc = main(["solve", "--problem", "isotropic10", "--t", "0",
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


def test_solve_catches_solver_runtime_error(tmp_path, capsys, monkeypatch):
    def stagnate(ivp, cfg, solver):
        raise StepSearchStagnation("stagnation: residual not small even for tiny steps")

    monkeypatch.setattr(cli, "run_solver", stagnate)
    rc = main(["solve", "--problem", "isotropic10", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: stagnation: residual not small even for tiny steps\n"


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
    args = ["bench", "--suite", "table2", "--scale", "0.4", "--no-timing",
            "--seed", "1"]
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


def test_bench_truncation_marker_with_jobs(tmp_path):
    rc = main(["bench", "--suite", "table2", "--scale", "0.4", "--jobs", "2",
               "--max-seconds", "0.0", "--out", str(tmp_path)])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "table2.csv").read_text().splitlines()))
    assert rows[0] == BENCH_HEADER
    assert rows[-1] == ["TRUNCATED"] + [""] * (len(BENCH_HEADER) - 1)
    assert len(rows) < 1 + 4 * 2 * 4


def test_reported_errors_do_not_come_from_rt_seq(tmp_path, monkeypatch):
    # rt-seq at tol 1e-12 is a solver under test, so it must not be the
    # ground truth of a transport problem or of a wave grid past 48
    def forbidden(*args, **kwargs):
        raise AssertionError("reference taken from rt_sequential")

    monkeypatch.setattr(pb, "rt_sequential", forbidden)
    for problem, tol in (("transport128", "1e-6"), ("isotropic50", "1e-4")):
        out = tmp_path / problem
        assert main(["solve", "--problem", problem, "--tol", tol,
                     "--out", str(out)]) == 0
        rel = float(_rows(out / "summary.csv")[0]["rel_accuracy"])
        assert 0.0 < rel <= 10.0 * float(tol), problem
    assert main(["bench", "--suite", "table5", "--scale", "0.05", "--no-timing",
                 "--out", str(tmp_path / "b")]) == 0
    rows = _rows(tmp_path / "b" / "table5.csv")
    assert len(rows) == 4 * 2 * 4
    assert all(0.0 < float(row["rel_err"]) <= 10.0 * float(row["tol_used"])
               for row in rows)


def test_bench_tolerance_adjustments(tmp_path):
    assert main(["bench", "--suite", "table5", "--scale", "0.05", "--no-timing",
                 "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "table5.csv")
    for row in rows:
        factor = 10.0 if row["solver"] == "first-order" else 1.0
        assert float(row["tol_used"]) == pytest.approx(
            factor * float(row["tol_nominal"]))


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


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(SystemExit):
        main(["solve", "--config", str(cfg), "--problem", "isotropic10",
              "--out", str(tmp_path)])
