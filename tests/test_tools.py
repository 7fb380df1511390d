"""The bit-identity tools under ``tools/`` read the package's problem
catalogue and the benchmark workloads, and ``bench_pairs`` runs the
benchmark from two checkouts; these tests keep them runnable.  Each tool is
loaded from its file, since ``tools`` is not a package."""
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_CELL = "isotropic/10/0.0001/rt-seq"


@pytest.fixture
def load_tool(monkeypatch):
    # each tool prepends its source directories to sys.path on import
    monkeypatch.setattr(sys, "path", list(sys.path))

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"tools_{name}", _ROOT / "tools" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.mark.parametrize("cell", [_CELL, "transport/128/1e-06/rt-seq"])
def test_cell_digest_prints_the_golden_matvecs(load_tool, capsys, cell):
    assert load_tool("cell_digest").main([cell]) == 0
    head, sizes, decisions = capsys.readouterr().out.splitlines()
    assert head.startswith(f"{cell}: ") and sizes.startswith("  step sizes: ")
    golden = json.loads((_ROOT / "tests" / "golden_cells.json").read_text())[cell]
    assert int(re.search(r"matvecs (\d+)", head).group(1)) == golden["matvecs"]
    assert len(sizes.split()) == 2 + golden["steps"]
    rel = float(re.fullmatch(r"  rel_err (\S+) phases [0-9a-f]{40}", decisions).group(1))
    assert rel == pytest.approx(golden["rel_err"], rel=1e-6)


def test_cell_digest_hashes_the_phase_sequence_of_the_log(load_tool, capsys):
    tool = load_tool("cell_digest")
    assert tool.main([_CELL]) == 0
    decisions = capsys.readouterr().out.splitlines()[2]
    family, grid, tol, solver = _CELL.split("/")
    factory, _ = tool.pb.preset(family, int(grid))
    rep = tool.solve(factory(), tool.SolverConfig(tol=float(tol)), solver)
    phases = repr([(e.phase, e.m) for e in rep.residual_log])
    assert decisions.endswith(f" phases {tool._sha1(phases.encode())}")


_HEAD = "c: matvecs 46 steps 1 repairs 0 y aa v_out bb log cc"
_DIGEST = [_HEAD, "  step sizes: 0x1.0p+0", "  rel_err 1e-06 phases dd"]


@pytest.mark.parametrize("change,word", [
    (_DIGEST, "bits"),
    # round-off in y and the log only, rel_err 0.5% off
    ([_HEAD.replace("y aa", "y ee"), _DIGEST[1], "  rel_err 1.005e-06 phases dd"],
     "decisions"),
    ([_HEAD, _DIGEST[1], "  rel_err 1.02e-06 phases dd"], "moved: rel_err"),
    ([_HEAD.replace("matvecs 46", "matvecs 47"), "  step sizes: 0x1.1p+0",
      "  rel_err 1e-06 phases ff"], "moved: matvecs, step sizes, phases"),
])
def test_cell_digest_compare_prints_one_verdict_per_cell(load_tool, capsys, tmp_path,
                                                         change, word):
    parent_file, change_file = tmp_path / "parent.txt", tmp_path / "change.txt"
    parent_file.write_text("\n".join(_DIGEST) + "\n")
    change_file.write_text("\n".join(change) + "\n")
    status = load_tool("cell_digest").main(["--compare", str(parent_file), str(change_file)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"c: {word}"
    assert status == (1 if word.startswith("moved") else 0)


def test_cell_digest_compare_flags_a_missing_cell(load_tool, capsys, tmp_path):
    parent_file, change_file = tmp_path / "parent.txt", tmp_path / "change.txt"
    parent_file.write_text("\n".join(_DIGEST + [line.replace("c:", "d:") for line in _DIGEST]))
    change_file.write_text("\n".join(_DIGEST))
    assert load_tool("cell_digest").main(["--compare", str(parent_file), str(change_file)]) == 1
    out = capsys.readouterr().out
    assert "c: bits\nd: missing in change\n" in out
    assert "2 cells: 1 bits, 0 decisions, 0 moved, 1 missing" in out


def test_ulp_spread_prints_one_line_per_cell(load_tool, capsys, monkeypatch):
    tool = load_tool("ulp_spread")
    monkeypatch.setattr(tool, "COPIES", 1)
    cells = [_CELL, "transport-nonsym/first-order"]  # a fixture and a benchmark cell
    assert tool.main(cells) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": as is ")[0] for line in lines] == cells
    assert tool.main(["transport-nonsym/two-pass"]) == 2
    assert "unknown cells: transport-nonsym/two-pass" in capsys.readouterr().err


_STUB_RUN = """
import json, pathlib
side = pathlib.Path.cwd().name
metrics = {"solve_s": 2.0 if side == "base" else 1.5, "matvecs": 100,
           "matvecs.rt-seq": 40 if side == "base" else DRIFT, "err_ratio_max": 0.5,
           "peak_rss_mb": 200.0 if side == "base" else 210.0}
print("workload stub")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}))
"""


@pytest.mark.parametrize("drift", [40, 41])
def test_bench_pairs_alternates_the_sides_and_flags_moved_counts(load_tool, capsys, tmp_path,
                                                                 monkeypatch, drift):
    tool = load_tool("bench_pairs")
    stub = tmp_path / "stub_run.py"
    stub.write_text(_STUB_RUN.replace("DRIFT", str(drift)))
    sides = [tmp_path / "base", tmp_path / "change"]
    for side in sides:
        side.mkdir()
    ran = []

    def command(checkout, workload, seed, seconds):
        ran.append((checkout.name, workload, seed, seconds))
        return [sys.executable, str(stub)]

    monkeypatch.setattr(tool, "command", command)
    status = tool.main([*map(str, sides), "--workload", "w", "--pairs", "3",
                        "--seed", "7", "--seconds", "5"])
    out = capsys.readouterr().out
    base, change = ("base", "w", 7, 5.0), ("change", "w", 7, 5.0)
    assert ran == [base, change, change, base, base, change]
    assert [f"pair {k}: base 2.000 s, change 1.500 s (-25.0%)" in out
            for k in (1, 2, 3)] == [True] * 3
    assert "change won 3 of 3 pairs" in out
    assert "median solve_s base 2.000 s, change 1.500 s" in out
    # counts and accuracy must repeat; other metrics, like peak RSS, may move
    assert status == (0 if drift == 40 else 1)
    assert out.count("DIFFERS") == (0 if drift == 40 else 3)
    assert "peak_rss_mb: median base 200, change 210 (+5.0%)" in out


@pytest.mark.parametrize("slower", [0, 1, 2])
def test_bench_pairs_runs_the_base_first_in_odd_pairs_and_prints_verdicts(
        load_tool, capsys, tmp_path, monkeypatch, slower):
    # the change is 0.5 s faster except in its first ``slower`` pairs, and
    # tied in pair 10: it wins 9 pairs only when no pair is slower
    tool = load_tool("bench_pairs")
    base_dir, change_dir = tmp_path / "base", tmp_path / "change"
    base_dir.mkdir()
    change_dir.mkdir()
    bounds = [("solve_s", "lower", 0.25), ("matvecs", "lower", 0.01),
              ("setup_s", "lower", 0.25), ("peak_rss_mb", "lower", 0.1),
              ("rss_better", "lower", 0.1), ("gbps", "higher", 0.1),
              ("absent", "lower", 0.1)]
    (base_dir / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": n, "unit": "", "better": b, "bound": x} for n, b, x in bounds]}))
    order = []

    def run(checkout, workload, seed, seconds):
        order.append(checkout.name)
        k = (len(order) + 1) // 2  # the pair
        base = checkout.name == "base"
        change_s = 2.1 if k == 10 else 2.5 if k <= slower else 1.5
        return {"solve_s": 2.0 + 0.01 * k if base else change_s,
                "matvecs": 100, "err_ratio_max": 0.5,
                "setup_s": 0.05 if base else 0.1,  # twice the base: worse
                "peak_rss_mb": 100.0 * (1 + k % 2),  # spread 100%: unresolved
                # as wide, but every run of the change is better: ok
                "rss_better": (100.0 if base else 40.0) * (1 + k % 2),
                "gbps": 10.0 if base else 9.5}  # 5% lower, bound 10%: ok

    monkeypatch.setattr(tool, "run", run)
    assert tool.main([str(base_dir), str(change_dir), "--workload", "w"]) == 0
    out = capsys.readouterr().out
    assert order == ["base", "change", "change", "base"] * 5
    gain = "yes" if slower == 0 else "no"
    assert (f"solve_s gain: {gain} (won {9 - slower} of 10, need 9 of 10; "
            f"median gap 0.555 s, base quartile spread 0.055 s)") in out
    # two slow pairs widen the change's quartile spread to 34% of the base's
    # median, past the 25% bound
    solve = "unresolved" if slower == 2 else "ok"
    for line in [f"solve_s: {solve}", "matvecs: ok", "setup_s: worse beyond bound",
                 "peak_rss_mb: unresolved", "rss_better: ok", "gbps: ok",
                 "absent: not in every run"]:
        assert f"  {line}" in out, line
