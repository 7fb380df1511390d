"""The benchmark's layer tracer (``perfbench/tracing.py``) binds solver
entry points by name; these tests keep the package's names and call paths
compatible with it.  The tracer is loaded from its file, since ``perfbench``
is not a package."""
import importlib.util
from pathlib import Path

import numpy as np

from trigkrylov.integrators import SOLVERS, SecondOrderIVP, SolverConfig, solve
from trigkrylov.linop import DenseOperator

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _small_ivp():
    rng = np.random.default_rng(31)
    n = 30
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    op = DenseOperator((q * rng.uniform(50.0, 2000.0, n)) @ q.T, is_symmetric=True)
    return SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                          rng.standard_normal(n), 1.0)


def test_tracer_spans_every_solver_and_counts_its_matvecs():
    tracing = _load_tracing()
    cfg = SolverConfig(tol=1e-6, m_max=10)
    plain = {name: solve(_small_ivp(), cfg, name).matvecs for name in SOLVERS}
    traced = {}
    with tracing.Tracer() as tracer:  # __exit__ checks every original is back
        for name in SOLVERS:
            tracer.cell = name
            traced[name] = solve(_small_ivp(), cfg, name).matvecs
    assert traced == plain
    _, _, calls, outer_calls, _ = tracer.summary()
    for name in SOLVERS:
        # ``solve`` was imported before the tracer rebound it, as in the
        # benchmark harness, so the span is that of the ``SOLVERS`` entry
        assert calls["integrators.control", name] >= 1, name
        assert outer_calls["linop.apply", name] == plain[name], name
