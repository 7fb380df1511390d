"""Digest of fixture and benchmark cells, for bit-for-bit comparisons.

Run from the root of a source checkout:

    python3 tools/cell_digest.py > digest.txt

and diff the output of two checkouts, or compare them cell by cell:

    python3 tools/cell_digest.py --compare parent.txt change.txt

Every key of ``tests/golden_cells.json`` (``<family>/<grid>/<tol>/<solver>``)
and every cell of the benchmark workloads (``<workload>/<solver>``, from
``perfbench/workloads.py``) is solved once.  Naming cells on the command
line digests only those.  Each cell prints one line with matvecs, steps,
repair events and the SHA-1 of y, v_out and the residual log, a line with
its step sizes in ``float.hex``, and a line with its rel_err against the
cell's reference and the SHA-1 of its residual log's sequence of
``(phase, m)`` pairs.  Equal lines mean equal counts, equal step sequences
and bit-identical outputs.

``--compare PARENT CHANGE`` reads two digests made by this script and
prints one verdict per cell: ``bits`` when all its lines are equal,
``decisions`` when its decisions are equal (matvecs, steps, step sizes and
the ``(phase, m)`` sequence) and its rel_err is within 1% of the parent's,
and otherwise ``moved``, naming what moved.  A cell in only one digest is
``missing``.  It exits with status 1 on any moved or missing cell.

A fixture cell's problem, reference and tolerance come from the package's
catalogue (``trigkrylov.problems.preset`` and ``tol_used``), as in the
acceptance fixtures, a benchmark cell's from the workload table;
``tools/ulp_spread.py`` takes its cells from :func:`cells` too.  The
benchmark's wave3d-large cells (n = 262,144) take most of the time.  The
script is not part of the test suite.
"""
from __future__ import annotations

import argparse
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


def digest(name: str, ivp, y_ref, tol: float, solver: str) -> str:
    rep = solve(ivp, SolverConfig(tol=tol), solver)
    log = repr([(e.phase, e.cycle, e.m, float.hex(e.t_start), float.hex(e.t_end),
                 float.hex(e.residual)) for e in rep.residual_log])
    phases = repr([(e.phase, e.m) for e in rep.residual_log])
    steps = " ".join(float.hex(float(s)) for s in rep.step_sizes)
    rel = float(np.linalg.norm(rep.y - y_ref) / np.linalg.norm(y_ref))
    return (f"{name}: matvecs {rep.matvecs} steps {rep.steps} "
            f"repairs {rep.repair_events} y {_sha1(rep.y.tobytes())} "
            f"v_out {_sha1(rep.v_out.tobytes())} log {_sha1(log.encode())}\n"
            f"  step sizes: {steps}\n"
            f"  rel_err {rel!r} phases {_sha1(phases.encode())}")


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


def _read(path) -> dict:
    """The lines of each cell of a digest file, by cell name."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("  "):
            out[name].append(line)
        else:
            name = line.split(": ", 1)[0]
            out[name] = [line]
    return out


def _decisions(lines) -> tuple[dict, float]:
    """A cell's decisions, by name, and its rel_err."""
    head, sizes, tail = lines
    fields = head.split(": ", 1)[1].split()
    counts = dict(zip(fields[::2], fields[1::2]))
    rel, phases = tail.split()[1::2]
    return ({"matvecs": counts["matvecs"], "steps": counts["steps"],
             "step sizes": sizes, "phases": phases}, float(rel))


def verdict(parent: list, change: list) -> str:
    """``bits``, ``decisions`` or ``moved: <what>`` of one cell's lines."""
    if parent == change:
        return "bits"
    (before, rel_before), (after, rel_after) = _decisions(parent), _decisions(change)
    moved = [key for key in before if before[key] != after[key]]
    if not abs(rel_after - rel_before) <= 0.01 * rel_before:
        moved.append("rel_err")
    return f"moved: {', '.join(moved)}" if moved else "decisions"


def compare(parent_path, change_path) -> int:
    parent, change = _read(parent_path), _read(change_path)
    verdicts = {}
    for name in {**parent, **change}:
        if name not in change or name not in parent:
            verdicts[name] = f"missing in {'change' if name in parent else 'parent'}"
        else:
            verdicts[name] = verdict(parent[name], change[name])
        print(f"{name}: {verdicts[name]}")
    words = [v.split()[0].rstrip(":") for v in verdicts.values()]
    print(f"{len(words)} cells: " + ", ".join(
        f"{words.count(w)} {w}" for w in ("bits", "decisions", "moved", "missing")))
    return 0 if set(words) <= {"bits", "decisions"} else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("cells", nargs="*",
                   help="<family>/<grid>/<tol>/<solver> or <workload>/<solver>; all if none")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two digests cell by cell")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    wanted = set(args.cells)
    known = set()
    built = {}
    for name, factory, reference, tol, solver in cells():
        known.add(name)
        if wanted and name not in wanted:
            continue
        if factory not in built:
            built.clear()  # one problem alive at a time
            ivp = factory()
            built[factory] = (ivp, reference(ivp))
        print(digest(name, *built[factory], tol, solver), flush=True)
    unknown = wanted - known
    if unknown:
        print(f"unknown cells: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
