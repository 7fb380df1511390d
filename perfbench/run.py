"""trigkrylov benchmark: time to a solution of stated accuracy, matvecs and memory.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wave3d-large --seed 0 --seconds 30 --trace 0

The solvers are called through ``trigkrylov.integrators.solve`` on the cells
of one workload (see ``workloads.py``), and every answer is checked against
a reference that does not use the solver under test.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` wraps each layer's public functions
from outside the package and prints per-layer metrics.  Every metric is
printed with its unit, followed by the machine record, and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

BLAS runs with min(nproc, 2) threads in this one process, so that counts
and times do not depend on the core count of a larger machine.  The package
is imported from ``src/`` next to this directory; without it the benchmark
exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_CAP = 2


def _limit_blas_threads() -> int:
    """Fix the BLAS thread count; must run before numpy is imported."""
    threads = min(len(os.sched_getaffinity(0)), BLAS_THREAD_CAP)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            out[f"L{level}"] = _read(index / "size")
    return out


def _blas_libraries() -> list:
    """Loaded OpenBLAS builds with their configuration and thread count."""
    import ctypes

    paths = sorted({line.split()[-1] for line in _read(Path("/proc/self/maps")).splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
        libs.append(entry)
    return libs


def machine_record(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
        "blas": _blas_libraries(),
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "trigkrylov" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    threads = _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import trigkrylov

    if SRC.resolve() not in Path(trigkrylov.__file__).resolve().parents:
        print(f"error: imported trigkrylov from {trigkrylov.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    from trigkrylov.integrators import SolverConfig
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    measure = harness.measure_traced if args.trace else harness.measure
    metrics, attempted, failed, extra, n = measure(workload, args.seed, args.seconds)

    m_max = SolverConfig(tol=1.0).m_max
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}; n = {n}, one vector "
          f"{8e-6 * n:.2f} MB, a {m_max}-vector basis {8e-6 * n * m_max:.1f} MB")
    rows = dict(metrics, **extra)
    width = max(map(len, rows))
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<7} {note}")
    print("machine " + json.dumps(machine_record(threads)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
