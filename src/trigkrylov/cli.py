"""Command-line front end: single solves, benchmark suites and bound sweeps.

A solve reports its error against the reference of :mod:`trigkrylov.problems`:
a preset's own rule, and :func:`~trigkrylov.problems.exact_ivp_solution` for
a Matrix Market file at any size, never a solver under test.

Output is CSV (fixed header per suite, '.' decimal point) plus a flat binary
vector dump with a one-line text header ``n <dim>``.  All randomness is
seeded, so a fixed config reproduces its CSV bit for bit (suppress the wall
time column with --no-timing for byte-level comparisons).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import problems as pb
from .integrators import (
    SOLVERS, ResidualLogEntry, SecondOrderIVP, SolverConfig, solve as run_solver,
)
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


def _scaled(grid: int, scale: float) -> int:
    if not grid * scale <= np.iinfo(np.intp).max:
        raise ValueError(f"--scale {scale!r} is too large for a grid of {grid} points per side")
    return max(4, int(grid * scale))


def build_preset(name: str, scale: float = 1.0, t_override: float | None = None):
    """Build a named problem preset of :func:`problems.preset`; returns
    (ivp, reference), where ``reference(ivp)`` is y at t_final."""
    match = _PRESET_RE.match(name)
    if not match:
        raise ValueError(f"unknown problem preset {name!r}")
    family, n_str, t_str = match.groups()
    t_final = t_override if t_override is not None else float(t_str or 1.0)
    build, reference = pb.preset(family, _scaled(int(n_str), scale), t_final)
    return build(), reference


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _rel_err(y, yref) -> float:
    """||y - yref|| / ||yref||, and 0.0 where y equals yref (a zero
    reference too, which would otherwise give 0/0)."""
    diff = np.linalg.norm(y - yref)
    return 0.0 if diff == 0.0 else float(diff / np.linalg.norm(yref))


def cmd_solve(args) -> int:
    if args.problem:
        ivp, reference = build_preset(args.problem, args.scale, args.t)
        label = args.problem
    else:
        op = read_matrix_market(args.matrix)
        u = read_vector(args.u_file) if args.u_file else np.zeros(op.dim)
        v = read_vector(args.v_file) if args.v_file else np.zeros(op.dim)
        g = read_vector(args.g_file) if args.g_file else None
        ivp = SecondOrderIVP(op, u, v, g, args.t if args.t is not None else 1.0)
        reference = lambda ivp: pb.exact_ivp_solution(ivp, ivp.t_final)[0]
        label = Path(args.matrix).name
    cfg = SolverConfig(tol=args.tol, m_max=args.mmax)
    t0 = time.perf_counter()
    try:
        # an overflowing time span is reported as the solver's error, not
        # after numpy's warnings on the way to it
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_solver(ivp, cfg, args.solver)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cpu = time.perf_counter() - t0

    rel = repr(_rel_err(report.y, reference(ivp))) if args.reference == "auto" else ""
    out = _out_dir(args.out)
    write_vector(out / "y.bin", report.y)
    write_vector(out / "v.bin", report.v_out)
    _write_csv(out / "summary.csv",
               ["solver", "problem", "n", "tol", "matvecs", "steps",
                "repair_events", "cpu_seconds", "rel_accuracy"],
               [[report.solver, label, ivp.op.dim, _fmt(args.tol), report.matvecs,
                 report.steps, report.repair_events,
                 "0" if args.no_timing else repr(cpu), rel]])
    _write_csv(out / "residual_log.csv", ResidualLogEntry._fields,
               [[_fmt(x) for x in entry] for entry in report.residual_log])
    print(f"{report.solver}, matvecs={report.matvecs}, cpu_seconds={cpu:.3f}, "
          f"rel_accuracy={rel if rel else 'n/a'}")
    return 0


_SUITES = {
    "table2": dict(family="isotropic", grids=(10, 20, 40, 80), tols=(1e-4, 1e-6),
                   t=1.0, solvers=("rt-sim", "rt-seq", "gautschi", "two-pass")),
    "table3": dict(family="anisotropic", grids=(10, 20, 40, 80), tols=(1e-4, 1e-6),
                   t=1.0, solvers=("rt-sim", "rt-seq", "gautschi", "two-pass")),
    "table4": dict(family="anisotropic", grids=(10, 20, 40, 80),
                   tols=(1e-4, 1e-6, 1e-8), t=10.0,
                   solvers=("rt-sim", "rt-seq", "gautschi", "two-pass")),
    "table5": dict(family="transport", grids=(128, 256, 512, 1024),
                   tols=(1e-4, 1e-6), t=1.0,
                   solvers=("rt-sim", "rt-seq", "gautschi", "first-order")),
    "fig-tol-sweep": dict(family="isotropic", grids=(40,),
                          tols=tuple(10.0 ** -k for k in range(1, 9)), t=1.0,
                          solvers=("rt-sim", "rt-seq", "gautschi", "two-pass")),
}


def cmd_bench(args) -> int:
    start = time.perf_counter()
    suite = _SUITES[args.suite]
    family, t_final = suite["family"], suite["t"]
    path = _out_dir(args.out) / f"{args.suite.replace('-', '_')}.csv"
    cells = [(_scaled(grid, args.scale), tol, solver) for grid in suite["grids"]
             for tol in suite["tols"] for solver in suite["solvers"]]
    rows, built = [], None
    for grid, tol, solver in cells:
        # a cell that would start after the wall budget is spent is skipped
        if args.max_seconds is not None and time.perf_counter() - start > args.max_seconds:
            break
        if grid != built:
            build, reference = pb.preset(family, grid, t_final)
            ivp, built = build(), grid
            yref = reference(ivp)
        tol_used = pb.tol_used(family, solver, tol)
        t0 = time.perf_counter()
        report = run_solver(ivp, SolverConfig(tol=tol_used, m_max=args.mmax), solver)
        cpu = 0.0 if args.no_timing else time.perf_counter() - t0
        rel = _rel_err(report.y, yref)
        rows.append([args.suite, f"{family}{grid}", grid, _fmt(t_final), solver,
                     _fmt(tol), _fmt(tol_used), report.matvecs, report.steps,
                     report.repair_events, repr(rel), repr(cpu)])
    truncated = len(rows) < len(cells)
    marker = [["TRUNCATED"] + [""] * (len(BENCH_HEADER) - 1)] if truncated else []
    _write_csv(path, BENCH_HEADER, rows + marker)
    print(f"wrote {path} ({len(rows)} cells{', truncated' if truncated else ''})")
    return 0


def _bounds_rows(args):
    rng = np.random.default_rng(args.seed)
    rows = []
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
        ivp, _ = build_preset(args.problem, args.scale)
        op = ivp.op
        w_psi = ivp.g - op.apply(ivp.u)
        w_sigma = ivp.v
        regime = "spd" if op.is_symmetric else "general"
        label = args.problem
    for m in args.m:
        d_psi = krylov_build(op, w_psi, m)
        d_sigma = krylov_build(op, w_sigma, m)
        c_psi = ResidualCurve(d_psi, ScalarFunKind.PSI)
        c_sigma = ResidualCurve(d_sigma, ScalarFunKind.SIGMA)
        for t in args.t_values:
            bi = bnd.bound_input_from_decompositions(d_psi, d_sigma, t, regime)
            res_psi = c_psi.value(t)
            res_sigma = c_sigma.value(t)
            res = res_psi + res_sigma
            h_beta = max(bi.h_psi * bi.beta_psi, bi.h_sigma * bi.beta_sigma, 1e-300)
            # (bound, residual, h, beta) of each applicable bound, in the
            # order of the five bound columns: always a prefix of them
            checks = [(bnd.bound_prop22(bi), res, h_beta, 1.0)]
            if regime in ("spd", "unit-interval"):
                checks += [(b, res, h_beta, 1.0) for b in bnd.bound_prop23(bi)]
            if regime == "unit-interval" and m >= 2 and t <= 1.0:
                checks += [(bnd.bound_p3(m, t), res_sigma, bi.h_sigma, bi.beta_sigma),
                           (bnd.bound_p4(m, t), res_psi, bi.h_psi, bi.beta_psi)]
            violation = any(bnd.violates(r, b, h=h, beta=beta, t=t)
                            for b, r, h, beta in checks)
            rows.append([label, m, _fmt(t), repr(res_psi), repr(res_sigma), repr(res)]
                        + [repr(c[0]) for c in checks] + ["n/a"] * (5 - len(checks))
                        + [int(violation)])
    return rows


def cmd_bounds(args) -> int:
    path = _out_dir(args.out) / "bounds.csv"
    rows = _bounds_rows(args)
    _write_csv(path, BOUNDS_HEADER, rows)
    n_viol = sum(r[-1] for r in rows)
    print(f"wrote {path} ({len(rows)} rows, {n_viol} violations)")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every error (a bad type or choice, an unknown
    or missing flag) raises ``ValueError``, which :func:`main` reports as it
    reports any bad outside input, in place of argparse's usage text and
    exit."""

    def error(self, message):
        raise ValueError(message)


def _flag_type(what: str, convert, ok=lambda value: True):
    """An argparse ``type``: ``convert(text)`` where it converts and ``ok``
    holds for the result; any other text is an error that names ``what``
    the flag takes."""
    def parse(text):
        with contextlib.suppress(ValueError):
            if ok(value := convert(text)):
                return value
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


def _int_range_or_list(text: str):
    if ":" in text:
        lo, hi = text.split(":")
        return range(int(lo), int(hi) + 1)
    return [int(x) for x in text.split(",")]


_POSITIVE = _flag_type("a positive finite number", float, lambda x: 0 < x < np.inf)
_NONNEGATIVE = _flag_type("a nonnegative finite number", float, lambda x: 0 <= x < np.inf)
_POSITIVE_INT = _flag_type("a positive int", int, lambda k: k >= 1)
_POSITIVE_INTS = _flag_type("a nonempty range or list of positive ints", _int_range_or_list,
                            lambda ms: len(ms) > 0 and min(ms) >= 1)
_FLOATS = _flag_type("comma-separated numbers", lambda s: [float(x) for x in s.split(",")])


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--scale", type=_POSITIVE, default=1.0,
                   help="positive grid scale factor, n -> max(4, floor(n*scale))")
    p.add_argument("--out", default="out", help="output directory")


def _add_solver_flags(p: argparse.ArgumentParser):
    """The flags of the subcommands that run solvers."""
    p.add_argument("--mmax", type=int, default=30, help="max Krylov dimension")
    p.add_argument("--no-timing", action="store_true",
                   help="write 0 for cpu_seconds (byte-reproducible CSV)")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The command-line parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="trigkrylov",
        description="Krylov solvers for y'' = -A y + g via trigonometric "
                    "matrix functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem")
    source = p_solve.add_mutually_exclusive_group(required=True)
    source.add_argument("--problem", help="preset name, e.g. isotropic10, "
                        "anisotropic20-t10, transport512")
    source.add_argument("--matrix", help="Matrix Market file")
    p_solve.add_argument("--u-file", help="initial position vector dump")
    p_solve.add_argument("--v-file", help="initial velocity vector dump")
    p_solve.add_argument("--g-file", help="constant forcing vector dump")
    p_solve.add_argument("--solver", choices=sorted(SOLVERS), default="rt-seq")
    p_solve.add_argument("--reference", choices=("auto", "none"), default="auto")
    p_solve.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    p_solve.add_argument("--t", type=float, default=None, help="final time override")
    _add_solver_flags(p_solve)
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p_bench.add_argument("--max-seconds", type=_NONNEGATIVE, default=None,
                         help="wall budget; remaining cells are truncated")
    _add_solver_flags(p_bench)
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_bounds = sub.add_parser("bounds", help="residual bounds vs measured curves")
    p_bounds.add_argument("--problem", default="synthetic",
                          help="'synthetic' or a preset name")
    p_bounds.add_argument("--n", type=_POSITIVE_INT, default=60,
                          help="synthetic spectrum size")
    p_bounds.add_argument("--m", type=_POSITIVE_INTS, default="2:8",
                          help="Krylov steps, e.g. 2:8 or 3,8")
    p_bounds.add_argument("--t-values", type=_FLOATS, default="0.25,0.5,1",
                          help="comma-separated times")
    p_bounds.add_argument("--seed", type=int, default=0,
                          help="random seed of the synthetic problem")
    _add_common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)
    return parser, sub.choices


def _config_flags(sub_parser: argparse.ArgumentParser, path) -> list[str]:
    """The entries of the config file at ``path`` as flags of ``sub_parser``.

    They go in between the subcommand and the command line's own flags, so
    argparse converts them and an explicit flag, which comes later, wins.
    A true store_true key becomes the bare flag.
    """
    actions = {a.dest: a for a in sub_parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    flags = []
    for key, val in load_config_file(path).items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        flag = action.option_strings[-1]
        if action.nargs == 0:
            if val.lower() in ("1", "true", "yes"):
                flags.append(flag)
        else:
            flags.append(f"{flag}={val}")
    return flags


def main(argv=None) -> int:
    """Run one subcommand.  Bad outside input (a flag argparse rejects, a
    missing or unreadable file, a malformed or out-of-range value, an
    unknown config key) raises ``ValueError`` or ``OSError``, and this is
    the one place that prints it as one ``error:`` line and returns 2; a
    solver failure in ``solve`` returns 1."""
    parser, subcommands = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config is read before the full parse, so that the file can also
    # supply a flag its subcommand requires
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv[1:])[0].config
        if config and argv[0] in subcommands:
            argv = argv[:1] + _config_flags(subcommands[argv[0]], config) + argv[1:]
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
