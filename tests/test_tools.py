"""The bit-identity tools under ``tools/`` read the package's problem
catalogue and the benchmark workloads; these tests keep them runnable.  Each
tool is loaded from its file, since ``tools`` is not a package."""
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
    head, sizes = capsys.readouterr().out.splitlines()
    assert head.startswith(f"{cell}: ") and sizes.startswith("  step sizes: ")
    golden = json.loads((_ROOT / "tests" / "golden_cells.json").read_text())[cell]
    assert int(re.search(r"matvecs (\d+)", head).group(1)) == golden["matvecs"]


def test_ulp_spread_prints_one_line_per_cell(load_tool, capsys, monkeypatch):
    tool = load_tool("ulp_spread")
    monkeypatch.setattr(tool, "COPIES", 1)
    cells = [_CELL, "transport-nonsym/first-order"]  # a fixture and a benchmark cell
    assert tool.main(cells) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": as is ")[0] for line in lines] == cells
    assert tool.main(["transport-nonsym/two-pass"]) == 2
    assert "unknown cells: transport-nonsym/two-pass" in capsys.readouterr().err
