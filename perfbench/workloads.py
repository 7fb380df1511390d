"""Workload definitions: problem, reference, warm-up problem and solver cells.

A cell is one solver at one tolerance; a pass runs every cell of a workload
once.  ``tol`` is the nominal tolerance the accuracy check is stated
against, ``tol_used`` the tolerance handed to the solver after the paper's
per-solver adjustment (Table 3: gautschi 10x tighter, two-pass 10x looser;
Table 5: first-order 10x looser).

Each workload also names the solver in its fourth column.  The wave
workloads run two-pass there and the transport workload runs first-order,
because two-pass needs a symmetric operator and first-order is the paper's
nonsymmetric baseline.  Metrics report that column under the one slot name
``two-pass-or-first-order``, so every workload prints the same metric names.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from trigkrylov import problems
from trigkrylov.integrators import SecondOrderIVP

#: Solver slots, in the order metrics are printed.  The last slot holds
#: two-pass on the wave workloads and first-order on transport.
SLOTS = ("rt-seq", "rt-sim", "gautschi", "two-pass-or-first-order")
ALT_SLOT = SLOTS[-1]
ALT_SOLVERS = ("two-pass", "first-order")


@dataclass(frozen=True)
class Cell:
    solver: str
    tol: float
    tol_used: float

    @property
    def slot(self) -> str:
        return ALT_SLOT if self.solver in ALT_SOLVERS else self.solver


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[], SecondOrderIVP]
    reference: Callable[[SecondOrderIVP], np.ndarray]
    #: A small instance of the same family: solving it once per cell pays
    #: the lazy first-call costs (imports, BLAS start-up) during set-up.
    warmup: Callable[[], SecondOrderIVP]
    cells: tuple[Cell, ...]


def _wave(spec_fn, grid: int, warm_grid: int):
    spec = spec_fn(grid)
    warm_spec = spec_fn(warm_grid)

    def build():
        return problems.build_wave3d(spec)

    def reference(ivp):
        # Sine-eigenbasis solution: exact for the discrete problem and
        # independent of every Krylov solver.
        return problems.spectral_reference_wave3d(spec, ivp.t_final, cap=grid)[0]

    def warmup():
        return problems.build_wave3d(warm_spec)

    return build, reference, warmup


def _transport(grid: int, warm_grid: int):
    spec = problems.TransportProblemSpec(grid)
    warm_spec = problems.TransportProblemSpec(warm_grid)

    def build():
        return problems.build_transport(spec)

    def reference(ivp):
        # Dense Schur-Parlett on the assembled matrix.  The
        # "tight-tolerance" reference is rt_sequential itself, so it would
        # not be independent of the solver under test.
        return problems.reference_solution(ivp, "dense")[0]

    def warmup():
        return problems.build_transport(warm_spec)

    return build, reference, warmup


def _cells(tol, solvers, adjust):
    return tuple(Cell(s, tol, tol * adjust.get(s, 1.0)) for s in solvers)


_WAVE_SOLVERS = ("rt-seq", "rt-sim", "gautschi", "two-pass")

WORKLOADS = {
    w.name: w for w in (
        # n = 262,144: one vector is 2.1 MB and a 30-vector basis 63 MB,
        # against 4 MiB of L2 and 300 MiB of L3 on the reference machine.
        # Matvecs and basis traffic dominate; two-pass regenerates its
        # basis instead of storing it.
        Workload(
            "wave3d-large",
            "isotropic 64^3 wave, tol 1e-6: large n, so the matvec and the "
            "Krylov basis traffic (stacking, combination) dominate the time",
            *_wave(problems.isotropic_wave_spec, 64, 4),
            cells=_cells(1e-6, _WAVE_SOLVERS, {}),
        ),
        # n = 8,000 with coefficients 1e4/1e2/1: hundreds of short restart
        # cycles, so fixed per-step costs dominate (small eigendecomposition,
        # residual-curve sampling, step search, Python control).
        Workload(
            "wave3d-aniso",
            "anisotropic 20^3 wave, Table-3 tolerances: hundreds of short "
            "restarts, so per-step small-matrix work, curve sampling and "
            "control dominate",
            *_wave(problems.anisotropic_wave_spec, 20, 4),
            cells=_cells(1e-6, _WAVE_SOLVERS,
                         {"gautschi": 0.1, "two-pass": 10.0}),
        ),
        # n = 512, nonsymmetric: the only Arnoldi and Schur-Parlett path;
        # corner_fun_e1 takes almost all of the time, matvecs almost none.
        # rt-seq rebuilds and gautschi bridging repairs both occur here.
        Workload(
            "transport-nonsym",
            "nonsymmetric 1-D transport, n = 512, Table-5 tolerances: the "
            "only Arnoldi and Schur-Parlett path, with rt-seq rebuilds and "
            "gautschi repairs",
            *_transport(512, 8),
            cells=_cells(1e-6, ("rt-seq", "rt-sim", "gautschi", "first-order"),
                         {"first-order": 10.0}),
        ),
    )
}
