"""Properties of the solvers over seeded families of small problems.

Every problem comes from ``default_rng(seed)``, so the sweep is the same on
every run.  Families rotate with the seed: SPD with eigenvalues 10^U(0, 3),
singular PSD (a third of those eigenvalues set to zero) and a nonsymmetric
diagonal-plus-upper-triangular matrix with the same diagonal, all with
n in [6, 40], t_final in 10^U(-2, 1) and tol in 10^U(-8, -4).
"""
import math

import numpy as np
import pytest

import trigkrylov.integrators as integ
from trigkrylov.integrators import SecondOrderIVP, SolverConfig, solve
from trigkrylov.linop import DenseOperator

SEEDS = range(40)
FAMILIES = ("spd", "psd", "nonsymmetric")
#: the solvers that grow their bases with ``_grow_admissible``
GATED_SOLVERS = ("rt-sim", "rt-seq", "gautschi", "first-order")


def _problem(seed):
    """(ivp, tol) of the sweep's problem ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 41))
    lam = 10.0 ** rng.uniform(0.0, 3.0, n)
    family = FAMILIES[seed % len(FAMILIES)]
    if family == "nonsymmetric":
        op = DenseOperator(np.diag(lam) + np.triu(rng.standard_normal((n, n)), 1),
                           is_symmetric=False)
    else:
        if family == "psd":
            lam[: n // 3] = 0.0
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
    t_final = 10.0 ** rng.uniform(-2.0, 1.0)
    tol = 10.0 ** rng.uniform(-8.0, -4.0)
    u, v, g = rng.standard_normal((3, n))
    return SecondOrderIVP(op, u, v, g, t_final), tol


@pytest.fixture(scope="module")
def gate_runs():
    """seed -> solver -> {GATE value: ((matvecs, float.hex steps, y bytes),
    residual curves made)}, for GATE = inf with GATE_MARGIN = inf (every
    step checked) and their values."""
    made = []

    class CountingCurve(integ.ResidualCurve):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integ, "ResidualCurve", CountingCurve)
        for seed in SEEDS:
            ivp, tol = _problem(seed)
            for name in GATED_SOLVERS:
                for gate, margin in ((math.inf, math.inf), (integ.GATE, integ.GATE_MARGIN)):
                    mp.setattr(integ, "GATE", gate)
                    mp.setattr(integ, "GATE_MARGIN", margin)
                    made.clear()
                    rep = solve(ivp, SolverConfig(tol=tol), name)
                    outcome = (rep.matvecs, [float.hex(s) for s in rep.step_sizes],
                               rep.y.tobytes())
                    runs.setdefault(seed, {}).setdefault(name, {})[gate] = (
                        outcome, len(made))
    return runs


@pytest.mark.parametrize("seed", SEEDS)
def test_gate_moves_no_count_step_or_bit(gate_runs, seed):
    for name, by_gate in gate_runs[seed].items():
        (plain, plain_curves), (gated, gated_curves) = by_gate[math.inf], by_gate[integ.GATE]
        assert gated == plain, name
        assert gated_curves <= plain_curves, name


def test_the_sweep_exercises_the_gate(gate_runs):
    # rt-sim and first-order skip checks on the long runs (nine cells),
    # Gautschi below its previous step's dimension (two cells)
    skipped = [(seed, name) for seed, by_name in gate_runs.items()
               for name, by_gate in by_name.items()
               if by_gate[integ.GATE][1] < by_gate[math.inf][1]]
    assert len(skipped) >= 5
    assert any(name == "gautschi" for _, name in skipped)
