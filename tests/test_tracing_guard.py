"""The benchmark's layer tracer (``perfbench/tracing.py``) binds solver
entry points by name; these tests keep the package's names and call paths
compatible with it.  The tracer is loaded from its file, since ``perfbench``
is not a package."""
import importlib.util
from pathlib import Path

import numpy as np

from trigkrylov.integrators import SOLVERS, SecondOrderIVP, SolverConfig, solve
from trigkrylov.linop import DenseOperator
from trigkrylov.problems import build_wave3d, isotropic_wave_spec

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


def _traced_matvecs(make_ivp):
    """The matvecs of each solver's report on ``make_ivp()``, untraced and
    traced, and the traced run's summary."""
    tracing = _load_tracing()
    cfg = SolverConfig(tol=1e-6, m_max=10)
    plain = {name: solve(make_ivp(), cfg, name).matvecs for name in SOLVERS}
    traced = {}
    with tracing.Tracer() as tracer:  # __exit__ checks every original is back
        for name in SOLVERS:
            tracer.cell = name
            traced[name] = solve(make_ivp(), cfg, name).matvecs
    return plain, traced, tracer.summary()


def test_tracer_spans_every_solver_and_counts_its_matvecs():
    plain, traced, (_, _, calls, outer_calls, _) = _traced_matvecs(_small_ivp)
    assert traced == plain
    for name in SOLVERS:
        # ``solve`` was imported before the tracer rebound it, as in the
        # benchmark harness, so the span is that of the ``SOLVERS`` entry
        assert calls["integrators.control", name] >= 1, name
        assert outer_calls["linop.apply", name] == plain[name], name


def test_tracer_counts_the_fused_sweeps_of_a_kronecker_operator():
    # a Lanczos step's A v - beta v_prev on a KroneckerSum3D runs in the
    # apply's own plane loop, which must still be one traced linop.apply
    make_ivp = lambda: build_wave3d(isotropic_wave_spec(8))
    plain, traced, (_, _, _, outer_calls, _) = _traced_matvecs(make_ivp)
    assert traced == plain
    for name in SOLVERS:
        assert outer_calls["linop.apply", name] == plain[name], name
