"""Digest of fixture and benchmark cells, for bit-for-bit comparisons.

Run from the root of a source checkout:

    python3 tools/cell_digest.py > digest.txt

and diff the output of two checkouts.  Every key of
``tests/golden_cells.json`` (``<family>/<grid>/<tol>/<solver>``) and every
cell of the benchmark workloads (``<workload>/<solver>``, from
``perfbench/workloads.py``) is solved once.  Naming cells on the command
line digests only those.  Each cell prints one line with matvecs, steps,
repair events and the SHA-1 of y, v_out and the residual log, then a line
with its step sizes in ``float.hex``.  Equal lines mean equal counts, equal
step sequences and bit-identical outputs.

A fixture cell's problem, reference and tolerance come from the package's
catalogue (``trigkrylov.problems.preset`` and ``tol_used``), as in the
acceptance fixtures, a benchmark cell's from the workload table;
``tools/ulp_spread.py`` takes its cells from :func:`cells` too.  The
benchmark's wave3d-large cells (n = 262,144) take most of the time.  The
script is not part of the test suite.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CELLS = ROOT / "tests" / "golden_cells.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from trigkrylov import problems as pb  # noqa: E402
from trigkrylov.integrators import SolverConfig, solve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def digest(name: str, ivp, tol: float, solver: str) -> str:
    rep = solve(ivp, SolverConfig(tol=tol), solver)
    log = repr([(e.phase, e.cycle, e.m, float.hex(e.t_start), float.hex(e.t_end),
                 float.hex(e.residual)) for e in rep.residual_log])
    steps = " ".join(float.hex(float(s)) for s in rep.step_sizes)
    return (f"{name}: matvecs {rep.matvecs} steps {rep.steps} "
            f"repairs {rep.repair_events} y {_sha1(rep.y.tobytes())} "
            f"v_out {_sha1(rep.v_out.tobytes())} log {_sha1(log.encode())}\n"
            f"  step sizes: {steps}")


def cells():
    """(name, problem factory, reference, tolerance, solver) of every cell,
    fixture cells first; cells on one problem share its factory, and
    ``reference(ivp)`` gives the problem's y at t_final."""
    problems = {}
    for key in json.loads(GOLDEN_CELLS.read_text()):
        family, grid, tol, solver = key.split("/")
        factory, reference = problems.setdefault((family, grid),
                                                 pb.preset(family, int(grid)))
        yield key, factory, reference, pb.tol_used(family, solver, float(tol)), solver
    for workload in WORKLOADS.values():
        for cell in workload.cells:
            yield (f"{workload.name}/{cell.solver}", workload.build, workload.reference,
                   cell.tol_used, cell.solver)


def main(argv=None) -> int:
    wanted = set(sys.argv[1:] if argv is None else argv)
    known = set()
    built = {}
    for name, factory, _, tol, solver in cells():
        known.add(name)
        if wanted and name not in wanted:
            continue
        if factory not in built:
            built.clear()  # one problem alive at a time
            built[factory] = factory()
        print(digest(name, built[factory], tol, solver), flush=True)
    unknown = wanted - known
    if unknown:
        print(f"unknown cells: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
