"""Set-up, passes, per-cell checks and metrics of one benchmark run.

A run is a sequence of passes.  Passes go on while the next one, at the
median pass time, still ends within the run's seconds, with at least
``MIN_PASSES`` of them.  Set-up (problem build, independent reference,
warm-up solves) is repeated between the cells of every pass, about
``SETUP_SECONDS_PER_CELL`` of it before each cell and at least once per
pass, and each cell solves the latest set-up.  The machine's speed drifts
over seconds, so set-up samples are spread over the whole run like the
solves, and every timing is a median.  A seed other than 0 shuffles the
order of the cells in every pass; the problem data is the preset for every
seed, so counts and accuracies do not depend on the seed.

The traced run first runs one pass under ``tracemalloc`` for the memory
metric, then alternates an untraced and a traced pass over the same cell
order, so that neither the spans nor the allocation tracing inflate the
other's numbers.
"""
from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field

import numpy as np

from trigkrylov.integrators import SolverConfig, solve

from tracing import SOLVE_KEYS, Tracer
from workloads import SLOTS, Cell, Workload

#: A wave set-up takes about 0.1 s, too short for one sample to be steady.
SETUP_SECONDS_PER_CELL = 0.15
MIN_PASSES = 2

#: Per-cell wall times are per-layer metrics (``cell_s.<slot>``), not
#: end-to-end ones.  On a shared 2-CPU Xeon VM the speed switches between
#: two levels about 25% apart for seconds to minutes at a time; the median
#: of two to five cells of 0.2-4 s each then spread by up to a third between
#: runs, whole passes of 5-13 s by 0.05-0.2.
CELL_TIMES_NOTE = "unbounded: see cell_s.<slot> in the traced run"

#: A cell passes when rel_err <= ACCURACY_FACTOR * nominal tol.  The residual
#: tolerance bounds the defect, not the error, so the error may exceed it;
#: when this bound was set the closest cell was gautschi on wave3d-aniso, at 6.4x.
ACCURACY_FACTOR = 10.0

#: Bytes a matvec reads and writes at the least: x in, y out (computed,
#: not measured, so cache misses are not included).
MATVEC_BYTES_PER_ENTRY = 16


@dataclass
class CellResult:
    cell: Cell
    seconds: float
    matvecs: int = 0
    steps: int = 0
    repair_events: int = 0
    step_sizes: tuple = ()
    rel_err: float = math.nan
    peak_vectors: float = math.nan
    failures: list = field(default_factory=list)


@dataclass
class PassResult:
    cells: dict  # solver -> CellResult

    @property
    def seconds(self) -> float:
        """Solve time of the pass: the sum over its cells."""
        return math.fsum(r.seconds for r in self.cells.values())


def _check(report, ivp, yref, cell, matvec_delta):
    failures = []
    if not np.all(np.isfinite(report.y)):
        failures.append("y is not finite")
    if report.matvecs != matvec_delta:
        failures.append(f"report.matvecs {report.matvecs} != counter delta {matvec_delta}")
    t_sum = math.fsum(report.step_sizes)
    if abs(t_sum - ivp.t_final) > 1e-12 * ivp.t_final:
        failures.append(f"step sizes sum to {t_sum!r}, not t_final {ivp.t_final!r}")
    rel_err = float(np.linalg.norm(report.y - yref) / np.linalg.norm(yref))
    if not rel_err <= ACCURACY_FACTOR * cell.tol:
        failures.append(f"rel_err {rel_err:.3e} > {ACCURACY_FACTOR:g} x tol {cell.tol:g}")
    return rel_err, failures


def run_cell(ivp, yref, cell: Cell, memory: bool = False) -> CellResult:
    count0 = ivp.op.matvec_count
    if memory:
        gc.collect()  # so the peak does not depend on what earlier cells left
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
    t0 = time.perf_counter()
    try:
        report = solve(ivp, SolverConfig(tol=cell.tol_used), cell.solver)
    except Exception as exc:  # a failing cell is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return CellResult(cell, time.perf_counter() - t0,
                          failures=[f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    result = CellResult(cell, seconds, report.matvecs, report.steps,
                        report.repair_events, tuple(report.step_sizes))
    if memory:
        peak = tracemalloc.get_traced_memory()[1] - held
        result.peak_vectors = peak / (8.0 * ivp.op.dim)
    result.rel_err, result.failures = _check(
        report, ivp, yref, cell, ivp.op.matvec_count - count0)
    return result


def run_pass(problem, order, tracer: Tracer | None = None,
             memory: bool = False) -> PassResult:
    """Run the cells in ``order``; ``problem(k)`` gives cell k's (ivp, yref)."""
    cells = {}
    for k, cell in enumerate(order):
        ivp, yref = problem(k)
        if tracer is not None:
            tracer.cell = cell.slot
        cells[cell.solver] = run_cell(ivp, yref, cell, memory)
    if tracer is not None:
        tracer.cell = None
    return PassResult(cells)


def setup(workload: Workload):
    """Build the problem, its reference and run the warm-up solves."""
    t0 = time.perf_counter()
    ivp = workload.build()
    yref = workload.reference(ivp)
    warm = workload.warmup()
    for cell in workload.cells:
        solve(warm, SolverConfig(tol=cell.tol_used), cell.solver)
    return time.perf_counter() - t0, ivp, yref


def _orders(workload: Workload, seed: int):
    """Cell order of each pass: the preset for seed 0, shuffled otherwise."""
    rng = np.random.default_rng(seed)
    while True:
        if seed == 0:
            yield workload.cells
        else:
            yield tuple(workload.cells[i] for i in rng.permutation(len(workload.cells)))


def _require_same_counts(base: PassResult, other: PassResult, what: str):
    """Matvecs and step sizes must repeat exactly between passes."""
    for solver, res in other.cells.items():
        ref = base.cells[solver]
        if res.failures or ref.failures:
            continue
        if (res.matvecs, res.step_sizes) != (ref.matvecs, ref.step_sizes):
            res.failures.append(f"{what}: matvecs or step sizes differ from the first pass")


def _tally(passes):
    attempted = sum(len(p.cells) for p in passes)
    failed = 0
    for p in passes:
        for solver, res in p.cells.items():
            if res.failures:
                failed += 1
                print(f"FAIL {solver}: {'; '.join(res.failures)}", file=sys.stderr)
    return attempted, failed


def _fail_frac(attempted, failed):
    return failed / attempted, "ratio", f"{failed} of {attempted} cells failed a check"


def _solvers_by_slot(workload: Workload):
    return {cell.slot: cell.solver for cell in workload.cells}


def _another_round(rounds, start, seconds, minimum):
    if len(rounds) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(rounds) <= seconds


def measure(workload: Workload, seed: int, seconds: float):
    """Untraced run: end-to-end metrics."""
    orders = _orders(workload, seed)
    setups, passes, rounds = [], [], []
    ivp = yref = None
    spent = 0.0  # set-up seconds in the current pass

    def fresh_problem(k):
        nonlocal ivp, yref, spent
        # up to cell k a pass may spend k + 1 per-cell shares on set-up
        while spent < (k + 1) * SETUP_SECONDS_PER_CELL:
            setup_s, ivp, yref = setup(workload)
            setups.append(setup_s)
            spent += setup_s
        return ivp, yref

    start = time.perf_counter()
    while _another_round(rounds, start, seconds, MIN_PASSES):
        t0 = time.perf_counter()
        spent = 0.0
        passes.append(run_pass(fresh_problem, next(orders)))
        _require_same_counts(passes[0], passes[-1], "repeat pass")
        rounds.append(time.perf_counter() - t0)
    attempted, failed = _tally(passes)

    npass = len(passes)
    by_slot = _solvers_by_slot(workload)
    first = passes[0].cells
    ratios = [r.rel_err / r.cell.tol for p in passes for r in p.cells.values()]
    m = {  # name -> (value, unit, note)
        "solve_s": (statistics.median(p.seconds for p in passes), "s",
                    f"median of {npass} passes: "
                    + ", ".join(f"{p.seconds:.3f}" for p in passes)),
        "matvecs": (sum(r.matvecs for r in first.values()), "count", "one pass"),
    }
    for slot in SLOTS:
        m[f"matvecs.{slot}"] = (first[by_slot[slot]].matvecs, "count", by_slot[slot])
    m["setup_s"] = (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups (build, reference, warm-up)")
    m["err_ratio_max"] = (max((x for x in ratios if math.isfinite(x)), default=math.nan),
                          "ratio", "max over cells of rel_err / nominal tol")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB", "ru_maxrss of this process")
    extra = {f"solve_s.{cell.solver}": (
        statistics.median(p.cells[cell.solver].seconds for p in passes), "s",
        f"median of {npass} cells, {CELL_TIMES_NOTE}") for cell in workload.cells}
    extra["fail_frac"] = _fail_frac(attempted, failed)
    return m, attempted, failed, extra, ivp.op.dim


def _layer_metrics(workload: Workload, tracer: Tracer, traced: PassResult, n: int):
    """Per-layer metrics of one traced pass, name -> (value, unit).

    Also fails a cell whose outermost ``linop.apply`` spans do not add up
    to the matvecs its report states.
    """
    self_s, _, calls, outer_calls, counts = tracer.summary()
    by_slot = _solvers_by_slot(workload)
    out = {}
    for key in SOLVE_KEYS:
        per_slot = {slot: self_s.get((key, slot), 0.0) for slot in SLOTS}
        out[f"{key}_s"] = (sum(per_slot.values()), "s")
        for slot in SLOTS:
            out[f"{key}_s.{slot}"] = (per_slot[slot], "s")

    def total(table, key):
        return sum(table.get((key, slot), 0) for slot in SLOTS)

    matvecs = total(outer_calls, "linop.apply")
    out["linop.matvecs"] = (matvecs, "count")
    out["linop.gbps_computed"] = (
        MATVEC_BYTES_PER_ENTRY * n * matvecs / out["linop.apply_s"][0] / 1e9, "GB/s")
    out["krylov.basis_calls"] = (total(calls, "krylov.basis"), "count")
    out["krylov.curve_samples"] = (total(counts, "krylov.curve"), "count")
    out["smallfun.factorizations"] = (total(calls, "smallfun.factor"), "count")
    results = traced.cells.values()
    report_matvecs = sum(r.matvecs for r in results)
    out["integrators.steps"] = (sum(r.steps for r in results), "count")
    out["integrators.repair_events"] = (sum(r.repair_events for r in results), "count")
    rebuild = sum(tracer.rebuild_matvecs.get(slot, 0) for slot in SLOTS)
    out["integrators.rebuild_matvecs"] = (rebuild, "count")
    out["integrators.useful_matvec_frac"] = (1.0 - rebuild / report_matvecs, "ratio")

    for slot in SLOTS:
        res = traced.cells[by_slot[slot]]
        traced_mv = outer_calls.get(("linop.apply", slot), 0)
        if not res.failures and traced_mv != res.matvecs:
            res.failures.append(
                f"trace counted {traced_mv} matvecs, report says {res.matvecs}")
    return out


def measure_traced(workload: Workload, seed: int, seconds: float):
    """Traced run: per-layer metrics and the tracing overhead."""
    with Tracer() as setup_tracer:
        _, ivp, yref = setup(workload)
    _, outer_s, _, _, _ = setup_tracer.summary()
    n = ivp.op.dim

    orders = _orders(workload, seed)
    # The memory pass goes first: it also fills the allocator and caches,
    # so the timed pairs after it start from the same state.
    def problem(k):
        return ivp, yref

    tracemalloc.start()
    try:
        mem = run_pass(problem, next(orders), memory=True)
    finally:
        tracemalloc.stop()
    plain_passes, traced_passes, layers, rounds = [], [], [], []
    start = time.perf_counter()
    while _another_round(rounds, start, seconds, 1):
        t0 = time.perf_counter()
        order = next(orders)
        plain = run_pass(problem, order)
        with Tracer() as tracer:
            traced = run_pass(problem, order, tracer=tracer)
        _require_same_counts(plain, traced, "traced pass")
        layers.append(_layer_metrics(workload, tracer, traced, n))
        plain_passes.append(plain)
        traced_passes.append(traced)
        del tracer
        rounds.append(time.perf_counter() - t0)
    _require_same_counts(mem, plain_passes[0], "untraced pass")
    attempted, failed = _tally([mem] + plain_passes + traced_passes)

    npass = len(layers)
    by_slot = _solvers_by_slot(workload)
    m = {name: (statistics.median(layer[name][0] for layer in layers), unit,
                f"median of {npass} traced passes")
         for name, (_, unit) in layers[0].items()}
    for slot in SLOTS:
        m[f"cell_s.{slot}"] = (
            statistics.median(p.cells[by_slot[slot]].seconds for p in plain_passes), "s",
            f"{by_slot[slot]}, untraced, median of {npass} cells")
    peaks = {slot: mem.cells[by_slot[slot]].peak_vectors for slot in SLOTS}
    m["integrators.peak_vectors"] = (max(peaks.values()), "vectors",
                                     "tracemalloc peak during a solve / 8n, max over cells")
    for slot in SLOTS:
        m[f"integrators.peak_vectors.{slot}"] = (peaks[slot], "vectors", by_slot[slot])
    for key in ("problems.build", "problems.reference"):
        m[f"{key}_s"] = (outer_s.get((key, None), 0.0), "s", "one traced set-up, inclusive")
    overhead = (statistics.median(p.seconds for p in traced_passes)
                / statistics.median(p.seconds for p in plain_passes) - 1.0)
    m["trace.overhead_frac"] = (overhead, "ratio",
                                f"traced over untraced pass time - 1, {npass} pairs")
    return m, attempted, failed, {"fail_frac": _fail_frac(attempted, failed)}, n
