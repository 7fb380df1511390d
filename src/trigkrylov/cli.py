"""Command-line front end: single solves, benchmark suites and bound sweeps.

Output is CSV (fixed header per suite, '.' decimal point) plus a flat binary
vector dump with a one-line text header ``n <dim>``.  All randomness is
seeded, so a fixed config reproduces its CSV bit for bit (suppress the wall
time column with --no-timing for byte-level comparisons).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import problems as pb
from .integrators import SOLVERS, SecondOrderIVP, SolverConfig, solve as run_solver
from .krylov import ResidualCurve, krylov_build
from .linop import DenseOperator, read_matrix_market
from .smallfun import ScalarFunKind

BENCH_HEADER = [
    "suite", "problem", "grid", "t_final", "solver", "tol_nominal", "tol_used",
    "matvecs", "steps", "repair_events", "rel_err", "cpu_seconds",
]

BOUNDS_HEADER = [
    "problem", "m", "t", "res_psi", "res_sigma", "res_total",
    "bound_p22", "bound_p23_simple", "bound_p23_tight",
    "bound_p3", "bound_p4", "violation",
]

_PRESET_RE = re.compile(r"^(isotropic|anisotropic|transport)(\d+)(?:-t(\d+(?:\.\d+)?))?$")


def write_vector(path, vec: np.ndarray) -> None:
    """Flat binary dump: one text header line 'n <dim>', then float64 data."""
    vec = np.asarray(vec, dtype=float)
    with open(path, "wb") as fh:
        fh.write(f"n {vec.size}\n".encode("ascii"))
        fh.write(vec.tobytes())


def read_vector(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != b"n":
            raise ValueError(f"{path}: expected header line 'n <dim>'")
        n = int(header[1])
        data = np.frombuffer(fh.read(), dtype=float)
    if data.size != n:
        raise ValueError(f"{path}: header says {n} entries, found {data.size}")
    return data.copy()


def load_config_file(path) -> dict:
    """Flat key=value config; '#' starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def build_preset(name: str, scale: float = 1.0, t_override: float | None = None):
    """Build a named problem preset; returns (ivp, wave_spec_or_None, grid)."""
    match = _PRESET_RE.match(name)
    if not match:
        raise ValueError(f"unknown problem preset {name!r}")
    family, n_str, t_str = match.groups()
    n = max(4, int(int(n_str) * scale))
    t_final = t_override if t_override is not None else (
        float(t_str) if t_str else 1.0
    )
    if family == "isotropic":
        spec = pb.isotropic_wave_spec(n, t_final)
        return pb.build_wave3d(spec), spec, n
    if family == "anisotropic":
        spec = pb.anisotropic_wave_spec(n, t_final)
        return pb.build_wave3d(spec), spec, n
    spec = pb.TransportProblemSpec(n, t_final=t_final)
    return pb.build_transport(spec), None, n


def _reference_for(ivp, wave_spec):
    """Ground truth that no solver under test computes, where one exists:
    the sine eigenbasis for a wave preset at any grid, the dense reference
    for a nonsymmetric operator up to its assembly cap of 4096; rt-seq at
    tol 1e-12 only for the rest (large or symmetric matrix files)."""
    if wave_spec is not None:
        grid = max(wave_spec.nx, wave_spec.ny, wave_spec.nz)
        return pb.spectral_reference_wave3d(wave_spec, ivp.t_final, cap=grid)
    if not ivp.op.is_symmetric and ivp.op.dim <= 4096:
        return pb.reference_solution(ivp, "dense")
    return pb.reference_solution(ivp, "tight-tolerance")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def cmd_solve(args) -> int:
    if (args.problem is None) == (args.matrix is None):
        print("error: give exactly one problem source (--problem or --matrix)",
              file=sys.stderr)
        return 2
    wave_spec = None
    try:
        if args.problem:
            ivp, wave_spec, _ = build_preset(args.problem, args.scale, args.t)
            label = args.problem
        else:
            op = read_matrix_market(args.matrix)
            u = read_vector(args.u_file) if args.u_file else np.zeros(op.dim)
            v = read_vector(args.v_file) if args.v_file else np.zeros(op.dim)
            g = read_vector(args.g_file) if args.g_file else None
            ivp = SecondOrderIVP(op, u, v, g, args.t if args.t is not None else 1.0)
            label = Path(args.matrix).name
        cfg = SolverConfig(tol=args.tol, m_max=args.mmax, alpha=args.alpha)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        report = run_solver(ivp, cfg, args.solver)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cpu = time.perf_counter() - t0

    rel = ""
    if args.reference == "auto":
        yref, _ = _reference_for(ivp, wave_spec)
        rel = repr(float(np.linalg.norm(report.y - yref) / np.linalg.norm(yref)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_vector(out / "y.bin", report.y)
    write_vector(out / "v.bin", report.v_out)
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver", "problem", "n", "tol", "matvecs", "steps",
                         "repair_events", "cpu_seconds", "rel_accuracy"])
        writer.writerow([report.solver, label, ivp.op.dim, _fmt(args.tol),
                         report.matvecs, report.steps, report.repair_events,
                         "0" if args.no_timing else repr(cpu), rel])
    with open(out / "residual_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "cycle", "m", "t_start", "t_end", "residual"])
        for entry in report.residual_log:
            writer.writerow([entry.phase, entry.cycle, entry.m,
                             repr(entry.t_start), repr(entry.t_end),
                             repr(entry.residual)])
    print(f"{report.solver}, matvecs={report.matvecs}, cpu_seconds={cpu:.3f}, "
          f"rel_accuracy={rel if rel else 'n/a'}")
    return 0


_SUITES = {
    "table2": dict(family="isotropic", grids=(10, 20, 40, 80), tols=(1e-4, 1e-6),
                   t=1.0, solvers=("rt-sim", "rt-seq", "gautschi", "two-pass"),
                   adjust={"gautschi": 1.0, "two-pass": 1.0}),
    "table3": dict(family="anisotropic", grids=(10, 20, 40, 80), tols=(1e-4, 1e-6),
                   t=1.0, solvers=("rt-sim", "rt-seq", "gautschi", "two-pass"),
                   adjust={"gautschi": 0.1, "two-pass": 10.0}),
    "table4": dict(family="anisotropic", grids=(10, 20, 40, 80),
                   tols=(1e-4, 1e-6, 1e-8), t=10.0,
                   solvers=("rt-sim", "rt-seq", "gautschi", "two-pass"),
                   adjust={"gautschi": 0.1, "two-pass": 10.0}),
    "table5": dict(family="transport", grids=(128, 256, 512, 1024),
                   tols=(1e-4, 1e-6), t=1.0,
                   solvers=("rt-sim", "rt-seq", "gautschi", "first-order"),
                   adjust={"first-order": 10.0}),
    "fig-tol-sweep": dict(family="isotropic", grids=(40,),
                          tols=tuple(10.0 ** -k for k in range(1, 9)), t=1.0,
                          solvers=("rt-sim", "rt-seq", "gautschi", "two-pass"),
                          adjust={}),
}


def _bench_cell(ivp_factory, yref, suite, family, grid, t_final, solver, tol,
                tol_used, mmax, no_timing):
    # each cell owns its operator instance, so matvec deltas stay exact
    # under concurrent execution
    ivp = ivp_factory()
    t0 = time.perf_counter()
    report = run_solver(ivp, SolverConfig(tol=tol_used, m_max=mmax), solver)
    cpu = 0.0 if no_timing else time.perf_counter() - t0
    rel = float(np.linalg.norm(report.y - yref) / np.linalg.norm(yref))
    return [suite, f"{family}{grid}", grid, _fmt(t_final), solver, _fmt(tol),
            _fmt(tol_used), report.matvecs, report.steps, report.repair_events,
            repr(rel), repr(cpu)]


def cmd_bench(args) -> int:
    suite = _SUITES[args.suite]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.suite.replace('-', '_')}.csv"
    start = time.perf_counter()

    def over_budget():
        return (args.max_seconds is not None
                and time.perf_counter() - start > args.max_seconds)

    rows = []
    truncated = False
    for grid in suite["grids"]:
        name = f"{suite['family']}{grid}"
        if suite["t"] != 1.0:
            name += f"-t{suite['t']:g}"
        if truncated:
            break
        ivp, wave_spec, eff_grid = build_preset(name, args.scale)
        yref, _ = _reference_for(ivp, wave_spec)
        cells = [
            (solver, tol, tol * suite["adjust"].get(solver, 1.0))
            for tol in suite["tols"] for solver in suite["solvers"]
        ]
        ivp_factory = lambda name=name: build_preset(name, args.scale)[0]

        def run(cell):
            # a cell that starts after the wall budget is spent is skipped
            if over_budget():
                return None
            solver, tol, tol_used = cell
            return _bench_cell(ivp_factory, yref, args.suite, suite["family"],
                               eff_grid, suite["t"], solver, tol, tol_used,
                               args.mmax, args.no_timing)

        if args.jobs > 1:
            with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
                results = list(pool.map(run, cells))
        else:
            results = [run(cell) for cell in cells]
        done = [row for row in results if row is not None]
        truncated = len(done) < len(cells)
        rows.extend(done)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_HEADER)
        writer.writerows(rows)
        if truncated:
            writer.writerow(["TRUNCATED"] + [""] * (len(BENCH_HEADER) - 1))
    print(f"wrote {path} ({len(rows)} cells{', truncated' if truncated else ''})")
    return 0


def _bounds_rows(args):
    rng = np.random.default_rng(args.seed)
    rows = []
    ms = _parse_int_list(args.m)
    ts = _parse_float_list(args.t_values)
    if args.problem == "synthetic":
        lam = np.sort(rng.uniform(0.0, 1.0, args.n))
        lam[0], lam[-1] = 0.0, 1.0
        op = DenseOperator(np.diag(lam), is_symmetric=True)
        w_psi = rng.standard_normal(args.n)
        w_psi /= np.linalg.norm(w_psi)
        w_sigma = rng.standard_normal(args.n)
        w_sigma /= np.linalg.norm(w_sigma)
        regime = "unit-interval"
        label = "synthetic"
    else:
        ivp, _, _ = build_preset(args.problem, args.scale)
        op = ivp.op
        w_psi = ivp.g - op.apply(ivp.u)
        w_sigma = ivp.v
        regime = "spd" if op.is_symmetric else "general"
        label = args.problem
    for m in ms:
        d_psi = krylov_build(op, w_psi, m)
        d_sigma = krylov_build(op, w_sigma, m)
        c_psi = ResidualCurve(d_psi, ScalarFunKind.PSI)
        c_sigma = ResidualCurve(d_sigma, ScalarFunKind.SIGMA)
        for t in ts:
            bi = bnd.bound_input_from_decompositions(d_psi, d_sigma, t, regime)
            res_psi = c_psi.value(t)
            res_sigma = c_sigma.value(t)
            h_beta = max(bi.h_psi * bi.beta_psi, bi.h_sigma * bi.beta_sigma, 1e-300)
            p22 = bnd.bound_prop22(bi)
            row = [label, m, _fmt(t), repr(res_psi), repr(res_sigma),
                   repr(res_psi + res_sigma), repr(p22)]
            violation = bnd.violates(res_psi + res_sigma, p22, h=h_beta, t=t)
            if regime in ("spd", "unit-interval"):
                simple, tight = bnd.bound_prop23(bi)
                row += [repr(simple), repr(tight)]
                violation = violation or bnd.violates(
                    res_psi + res_sigma, simple, h=h_beta, t=t)
                violation = violation or bnd.violates(
                    res_psi + res_sigma, tight, h=h_beta, t=t)
            else:
                row += ["n/a", "n/a"]
            if regime == "unit-interval" and m >= 2 and t <= 1.0:
                p3, p4 = bnd.bound_p3(m, t), bnd.bound_p4(m, t)
                row += [repr(p3), repr(p4)]
                violation = violation or bnd.violates(
                    res_sigma, p3, h=bi.h_sigma, beta=bi.beta_sigma, t=t)
                violation = violation or bnd.violates(
                    res_psi, p4, h=bi.h_psi, beta=bi.beta_psi, t=t)
            else:
                row += ["n/a", "n/a"]
            row.append(int(violation))
            rows.append(row)
    return rows


def cmd_bounds(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "bounds.csv"
    rows = _bounds_rows(args)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOUNDS_HEADER)
        writer.writerows(rows)
    n_viol = sum(int(r[-1]) for r in rows)
    print(f"wrote {path} ({len(rows)} rows, {n_viol} violations)")
    return 0


def _parse_int_list(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    p.add_argument("--mmax", type=int, default=30, help="max Krylov dimension")
    p.add_argument("--alpha", type=float, default=0.85, help="Gautschi safety factor")
    p.add_argument("--t", type=float, default=None, help="final time override")
    p.add_argument("--scale", type=float, default=1.0,
                   help="grid scale factor, n -> max(4, floor(n*scale))")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--no-timing", action="store_true",
                   help="write 0 for cpu_seconds (byte-reproducible CSV)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigkrylov",
        description="Krylov solvers for y'' = -A y + g via trigonometric "
                    "matrix functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem")
    p_solve.add_argument("--problem", help="preset name, e.g. isotropic10, "
                         "anisotropic20-t10, transport512")
    p_solve.add_argument("--matrix", help="Matrix Market file")
    p_solve.add_argument("--u-file", help="initial position vector dump")
    p_solve.add_argument("--v-file", help="initial velocity vector dump")
    p_solve.add_argument("--g-file", help="constant forcing vector dump")
    p_solve.add_argument("--solver", choices=sorted(SOLVERS), default="rt-seq")
    p_solve.add_argument("--reference", choices=("auto", "none"), default="auto")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="concurrent bench cells")
    p_bench.add_argument("--max-seconds", type=float, default=None,
                         help="wall budget; remaining cells are truncated")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_bounds = sub.add_parser("bounds", help="residual bounds vs measured curves")
    p_bounds.add_argument("--problem", default="synthetic",
                          help="'synthetic' or a preset name")
    p_bounds.add_argument("--n", type=int, default=60,
                          help="synthetic spectrum size")
    p_bounds.add_argument("--m", default="2:8", help="Krylov steps, e.g. 2:8 or 3,8")
    p_bounds.add_argument("--t-values", default="0.25,0.5,1",
                          help="comma-separated times")
    _add_common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        file_conf = load_config_file(args.config)
        explicit = {a.split("=")[0].lstrip("-").replace("-", "_")
                    for a in (argv if argv is not None else sys.argv[1:])
                    if a.startswith("--")}
        for key, val in file_conf.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise SystemExit(f"unknown config key {key!r}")
            if attr in explicit:
                continue
            current = getattr(args, attr)
            if isinstance(current, bool):
                setattr(args, attr, val.lower() in ("1", "true", "yes"))
            elif isinstance(current, int) and not isinstance(current, bool):
                setattr(args, attr, int(val))
            elif isinstance(current, float):
                setattr(args, attr, float(val))
            else:
                setattr(args, attr, val)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
