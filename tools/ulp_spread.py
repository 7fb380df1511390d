"""Round-off spread of cells: rerun each with 1-ulp changes to u and v.

Run from the root of a source checkout, naming cells as
``tools/cell_digest.py`` does: the keys of ``tests/golden_cells.json``
(``<family>/<grid>/<tol>/<solver>``) and the benchmark cells
(``<workload>/<solver>``):

    python3 tools/ulp_spread.py anisotropic/10/1e-06/rt-seq transport-nonsym/rt-seq

Each cell is solved once as it stands and then with 8 copies of its
initial data, copy k drawn from ``default_rng(k)``: every entry of u and v
is scaled by 1 + 2^-52 or 1 - 2^-52, with the sign drawn at random per
entry.  For each cell the script prints the unperturbed run,
then the min, median and max of matvecs and steps over the copies and
their largest rel_err.  rel_err is measured against the unperturbed
problem's reference (the sine eigenbasis for waves, the block exponential
for transport), which differs from a copy's own by about 1e-16.

Problems, references and tolerances are those of
``cell_digest.cells()`` (the package's catalogue, ``trigkrylov.problems``,
for fixture cells and ``perfbench/workloads.py`` for benchmark cells), so
a cell here is the digested cell of the same name; an unknown name exits
with status 2.  The script is not part of the test suite.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cell_digest import cells  # noqa: E402
from trigkrylov.integrators import SecondOrderIVP, SolverConfig, solve  # noqa: E402

ULP = 2.0 ** -52
COPIES = 8


def _perturbed(vec: np.ndarray, rng) -> np.ndarray:
    return vec * (1.0 + ULP * rng.choice((-1.0, 1.0), size=vec.shape))


def _run(ivp, cfg, solver, y_ref):
    rep = solve(ivp, cfg, solver)
    rel = float(np.linalg.norm(rep.y - y_ref) / np.linalg.norm(y_ref))
    return rep.matvecs, rep.steps, rel


def spread(cell: str, factory, reference, tol: float, solver: str) -> str:
    ivp = factory()
    y_ref = reference(ivp)
    cfg = SolverConfig(tol=tol)
    mv0, steps0, rel0 = _run(ivp, cfg, solver, y_ref)
    runs = []
    for k in range(COPIES):
        rng = np.random.default_rng(k)
        copy = SecondOrderIVP(ivp.op, _perturbed(ivp.u, rng), _perturbed(ivp.v, rng),
                              ivp.g, ivp.t_final)
        runs.append(_run(copy, cfg, solver, y_ref))
    mv, steps, rel = (np.array(col) for col in zip(*runs))

    def mmm(col):
        return f"{col.min()}/{np.median(col):g}/{col.max()}"

    return (f"{cell}: as is {mv0} matvecs, {steps0} steps, rel_err {rel0:.3e}; "
            f"{COPIES} copies: matvecs {mmm(mv)}, steps {mmm(steps)} (min/median/max), "
            f"max rel_err {rel.max():.3e}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("cells", nargs="+",
                   help="<family>/<grid>/<tol>/<solver> or <workload>/<solver>")
    args = p.parse_args(argv)
    table = {name: rest for name, *rest in cells()}
    unknown = [cell for cell in args.cells if cell not in table]
    if unknown:
        print(f"unknown cells: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for cell in args.cells:
        print(spread(cell, *table[cell]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
