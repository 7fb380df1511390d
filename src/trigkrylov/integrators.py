"""Second-order IVP solvers: residual-time restarting, Gautschi stepping,
two-pass Lanczos and a first-order block baseline.

All solvers integrate y'' = -A y + g, y(0) = u, y'(0) = v up to t_final and
return a :class:`SolveReport`.  All five share one driver, :func:`_restart`,
which keeps the state, the accounting and the residual log, and differ
only in their cycle: rt-sim grows both branches in lockstep, rt-seq psi
then sigma, first-order one Arnoldi branch on the block form; a Gautschi
cycle is one time step of the cosine scheme, and two-pass Lanczos is a
single cycle.  The RT solvers and Gautschi grow every basis with
:func:`_grow_admissible`, which checks the residual after every Krylov
step, except while the horizon is more than ``GATE`` times the previous
cycle's step (then only at the dimension cap or at breakdown) and, in
Gautschi's runs over the fixed step, below the previous run's dimension
minus ``GATE_MARGIN``.  The cycles of a solve take their Krylov stores and
branch updates from one pool, so they reuse each other's memory.  Residual
thresholds are relative to the norm of the starting vector of the
corresponding Krylov branch; for split-branch solvers the per-branch
tolerances are rebalanced from each restart cycle's inflow data so their
sum meets the combined budget tol * (||g - A y|| + ||v||).
"""
from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .linop import CHUNK, BlockFirstOrderOperator, LinearOperator, add_scaled
from .smallfun import ScalarFunKind, branch_coefficients
from .krylov import (
    COARSE_FRACTIONS,
    CombinedResidualCurve,
    KrylovProcess,
    ResidualCurve,
    coarse_residual_check,
    confirm_admissible,
    find_largest_admissible_step,
    krylov_build,
    new_store,
    store_pool,
)

_MAX_CYCLES = 1_000_000

#: Fractions of the psi-chosen step, in descending order, at which
#: :func:`rt_sequential` keeps the psi updates (2 n-vectors per rung) before
#: dropping the basis; a step that the sigma branch shortens to one of
#: these is served without rebuilding psi.  Fine rungs near 1 catch the
#: sigma fronts a few percent short of psi's (transport, most anisotropic
#: cycles); coarse rungs down to 0.6 catch the 0.6-0.8 ratios of the
#: anisotropic 10^3 cycles.  A sigma step below 0.6 still rebuilds psi.
PSI_STEP_RUNGS = (0.99, 0.98, 0.97, 0.96, 0.9, 0.8, 0.7, 0.6)

#: Safety factor of Gautschi's start-up: its sigma and psi runs are capped
#: at floor(GAUTSCHI_ALPHA * m_max) so that the later psi runs, capped at
#: m_max, have room to certify the fixed step.  An operator of dimension
#: n <= m_max leaves no such room to keep: the runs are capped at n.
GAUTSCHI_ALPHA = 0.85

#: Iterations between the residual checks of :func:`two_pass_lanczos`'s
#: first pass; only the accepting check is logged, as its branch's entry.
TWO_PASS_CHECK_INTERVAL = 10

#: :func:`_grow_admissible` skips its per-step residual check while the
#: horizon exceeds GATE times the solve's previous step: such a check
#: almost never passes below the dimension cap.  A skipped check can only
#: delay acceptance to the cap, so a wrong gate costs matvecs, not accuracy.
GATE = 4.0

#: Over a horizon that an earlier run of the solve certified at dimension
#: m (Gautschi's fixed step), :func:`_grow_admissible` checks from
#: m - GATE_MARGIN on: there consecutive runs accept dimensions that differ
#: by at most one.
GATE_MARGIN = 2

ResidualLogEntry = namedtuple(
    "ResidualLogEntry", ["phase", "cycle", "m", "t_start", "t_end", "residual"]
)


@dataclass
class SecondOrderIVP:
    """Problem record for y'' = -A y + g, y(0) = u, y'(0) = v on [0, t_final]."""

    op: LinearOperator
    u: np.ndarray
    v: np.ndarray
    g: np.ndarray | None = None
    t_final: float = 1.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.g is None:
            self.g = np.zeros(self.op.dim)
        self.g = np.asarray(self.g, dtype=float)
        for name, vec in (("u", self.u), ("v", self.v), ("g", self.g)):
            if vec.shape != (self.op.dim,):
                raise ValueError(f"{name} has shape {vec.shape}, need ({self.op.dim},)")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} has non-finite entries")
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError("t_final must be finite and positive")


@dataclass
class SolverConfig:
    """Common solver knobs.

    ``m_max`` caps the Krylov dimension per restart cycle; the simultaneous
    and first-order solvers halve it per branch because two bases share the
    memory budget (unless the operator's dimension n is at most ``m_max``:
    then they take the full dimension, n per branch and 2n for the block,
    at most (2n)^2 entries), Gautschi's start-up runs take
    ``GAUTSCHI_ALPHA`` of it (or n when n <= ``m_max``), and two-pass
    Lanczos stops after 200 * m_max iterations.  ``m_max`` must be an
    integer (a Python or numpy int) of at least 2.  ``tol`` must be
    positive and finite: an infinite tolerance admits any step.
    """

    tol: float
    m_max: int = 30

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not isinstance(self.m_max, numbers.Integral) or self.m_max < 2:
            raise ValueError(f"m_max must be an integer of at least 2, got {self.m_max!r}")


@dataclass
class SolveReport:
    """Solution plus accounting for one solver run.

    ``matvecs`` always equals the operator counter delta over the solve, and
    ``steps + sum(e.m for e in residual_log)``: one g - A y per cycle, m per
    Krylov run, and the m matvecs of a rebuild, bridge or replay entry.
    For the Gautschi scheme ``v_out`` is an averaged velocity over the last
    step, not y'(t); ``velocity_is_averaged`` marks this.
    """

    y: np.ndarray
    v_out: np.ndarray
    matvecs: int
    steps: int
    step_sizes: list = field(default_factory=list)
    residual_log: list = field(default_factory=list)
    repair_events: int = 0
    solver: str = ""
    velocity_is_averaged: bool = False


def _norm(x) -> float:
    return float(np.linalg.norm(x))


def _tolerance_split(tol, beta_psi, beta_sigma):
    """Per-branch absolute residual thresholds meeting the combined budget.

    With both branches alive each gets half of tol*(beta_psi + beta_sigma);
    a dead branch transfers its budget to the live one.
    """
    if beta_psi > 0 and beta_sigma > 0:
        half = 0.5 * tol * (beta_psi + beta_sigma)
        return half, half
    if beta_psi > 0:
        return tol * beta_psi, 0.0
    return 0.0, tol * beta_sigma


def _grow_admissible(op, branches, horizon, threshold, m_cap, prev_step=math.inf,
                     prev_m=0):
    """Extend one Krylov process per ``(start, kind)`` branch, in lockstep,
    until the summed residual is admissible on [0, horizon].

    The residual is checked on the six coarse samples after every step from
    a first dimension on, and always at the dimension cap or once every
    branch has broken down.  The first dimension is the cap while ``horizon
    > GATE * prev_step`` (``prev_step`` is the solve's previous step), and
    otherwise ``prev_m - GATE_MARGIN``, where ``prev_m`` is the dimension
    an earlier run accepted on the same horizon (0 if none).  A branch that
    breaks down stops growing and its residual vanishes.  On failure at the
    dimension cap the largest admissible step is located on the fine grid.
    Each process stops at the dimension of ``op`` if ``m_cap`` exceeds it,
    and a cap that reaches it turns on reorthogonalization: without it the
    basis of a small stiff operator loses orthogonality long before an
    invariant subspace is found, and the residual never certifies a useful
    step.  Returns (curves, delta): one :class:`ResidualCurve` per branch,
    which is the branch's handle (its decomposition, spectral cache and
    kind), and the step, which is ``horizon`` once the residual is
    admissible on all of it.
    """
    procs = [KrylovProcess(op, start, m_cap, reorth=m_cap >= op.dim)
             for start, _ in branches]
    m_last = procs[0].m_max
    m_first = m_last if horizon > GATE * prev_step else prev_m - GATE_MARGIN
    for m in range(1, m_last + 1):
        for proc in procs:
            if not proc.breakdown:
                proc.step()
        broken = all(proc.breakdown for proc in procs)
        if m < min(m_first, m_last) and not broken:
            continue  # such a check almost never passes
        curves = [ResidualCurve(proc.snapshot(), kind)
                  for proc, (_, kind) in zip(procs, branches)]
        curve = curves[0] if len(curves) == 1 else CombinedResidualCurve(*curves)
        if broken or (
            coarse_residual_check(curve, horizon, threshold)
            and confirm_admissible(curve, horizon, threshold)
        ):
            return curves, horizon
    return curves, find_largest_admissible_step(curve, horizon, threshold)


def _peak(curve, delta) -> float:
    """The largest residual on the six coarse samples of [0, delta]."""
    return float(np.max(curve.values(delta * COARSE_FRACTIONS)))


def _branch_updates(curve, steps):
    """The (position, velocity) updates of ``curve``'s branch at each of
    ``steps``, shape (k, terms, n), from the terms of
    ``BRANCH_TERMS[curve.kind]``.

    The basis view is read once and combined with all coefficient vectors
    in a single GEMM.
    """
    coeffs = branch_coefficients(curve.cache, curve.kind, steps)
    k, terms, m = coeffs.shape
    basis = curve.decomposition.V_m
    out = new_store(k * terms, basis.shape[0])
    return np.matmul(coeffs.reshape(k * terms, m), basis.T, out=out).reshape(k, terms, -1)


def _add_updates(y, updates):
    """y plus each branch's position update in turn, and the sum of the
    branches' velocity updates: the state after all branches have run.

    The updates are added into ``y`` in place, so the caller hands in a
    vector it owns and does not read the old state afterwards.
    """
    vel = np.zeros_like(y)
    for y_add, v_add in updates:
        np.add(y, y_add, out=y)
        vel += v_add
    return y, vel


#: What :func:`_restart` hands a cycle: the state (y, vel), gt = g - A y,
#: the branch norms ||gt|| and ||vel|| (not both zero), the time left and
#: the previous cycle's step (inf in cycle 0), which gates the checks of
#: :func:`_grow_admissible`.
_Cycle = namedtuple("_Cycle", ["y", "vel", "gt", "beta_psi", "beta_sigma", "t_rem",
                               "prev_step"])


def _restart(ivp: SecondOrderIVP, solver: str, advance) -> SolveReport:
    """The restart loop every solver runs; ``solver`` names the report.

    The loop runs inside a :func:`~trigkrylov.krylov.store_pool`, so the
    Krylov stores and branch updates of one cycle reuse the memory of
    earlier cycles' once nothing refers to it; a nested solve (a bridge)
    shares the pool of the solve it serves.

    Each cycle spends one matvec on gt = g - A y and stops at a stationary
    point (gt and the velocity both zero).  Otherwise ``advance(cycle)``
    grows the solver's Krylov bases, takes an admissible step delta <= t_rem
    (up to round-off for a fixed step) and returns ``(delta, y, vel,
    entries, repaired)``: the state at t + delta, the cycle's residual-log
    entries as ``(phase, m, step, residual)`` over [t, t + step], and
    whether it repaired a step.
    The cycle's y and vel are the loop's own vectors, which ``advance`` may
    update in place, and gt is formed in one buffer of the solve, which
    ``advance`` must not keep past its cycle.
    """
    op = ivp.op
    count0 = op.matvec_count
    y = ivp.u.copy()
    vel = ivp.v.copy()
    gt = np.empty(op.dim)
    step_sizes: list[float] = []
    log: list[ResidualLogEntry] = []
    repair_events = 0
    t_done = 0.0
    with store_pool():
        while t_done < ivp.t_final * (1.0 - 1e-14):
            cycle = len(step_sizes)
            if cycle >= _MAX_CYCLES:
                raise RuntimeError("restart cycle limit exceeded")
            op.apply(y, out=gt)
            np.subtract(ivp.g, gt, out=gt)
            beta_psi = _norm(gt)
            beta_sigma = _norm(vel)
            if beta_psi + beta_sigma == 0.0:
                break  # stationary point: y'' = 0 with zero velocity
            delta, y, vel, entries, repaired = advance(
                _Cycle(y, vel, gt, beta_psi, beta_sigma, ivp.t_final - t_done,
                       step_sizes[-1] if step_sizes else math.inf)
            )
            log.extend(ResidualLogEntry(phase, cycle, m, t_done, t_done + step, res)
                       for phase, m, step, res in entries)
            repair_events += repaired
            step_sizes.append(delta)
            t_done += delta
    return SolveReport(
        y=y, v_out=vel, matvecs=op.matvec_count - count0, steps=len(step_sizes),
        step_sizes=step_sizes, residual_log=log, repair_events=repair_events,
        solver=solver,
    )


def rt_simultaneous(ivp: SecondOrderIVP, cfg: SolverConfig) -> SolveReport:
    """Residual-time restarting with both Krylov branches built in lockstep.

    Per cycle the psi branch (starting vector g - A y) and the sigma branch
    (starting vector v) are extended together; the combined residual bound
    ||r(s)|| <= ||r_psi(s)|| + ||r_sigma(s)|| is tested against
    tol * (||g - A y|| + ||v||).  Both bases are held simultaneously, so each
    is capped at m_max/2, or at the dimension n of the operator when n <=
    m_max: no small stiff basis then stops short of an invariant subspace.
    Each live branch logs its own entry.
    """
    n = ivp.op.dim
    m_cap = n if n <= cfg.m_max else cfg.m_max // 2

    def advance(cyc):
        branches = [(start, kind) for start, beta, kind in (
            (cyc.gt, cyc.beta_psi, ScalarFunKind.PSI),
            (cyc.vel, cyc.beta_sigma, ScalarFunKind.SIGMA),
        ) if beta > 0]
        curves, delta = _grow_admissible(
            ivp.op, branches, cyc.t_rem, cfg.tol * (cyc.beta_psi + cyc.beta_sigma), m_cap,
            cyc.prev_step,
        )
        entries = [(c.kind.value, c.decomposition.m, delta, _peak(c, delta))
                   for c in curves]
        updates = [_branch_updates(c, [delta])[0] for c in curves]
        return (delta, *_add_updates(cyc.y, updates), entries, False)

    return _restart(ivp, "rt-sim", advance)


def rt_sequential(ivp: SecondOrderIVP, cfg: SolverConfig) -> SolveReport:
    """Residual-time restarting with sequential branches (one basis at a time).

    Per cycle the psi branch picks the step delta first; before its basis is
    discarded, the psi updates are formed at delta and at the rungs
    ``PSI_STEP_RUNGS * delta`` (the psi residual is admissible on every
    sub-interval of [0, delta]).  The sigma branch then validates delta on
    [0, delta].  If it needs a smaller step, the largest rung at or below
    the sigma step is taken at no extra matvecs.  Only a sigma step below
    the last rung (0.6 of psi's step) costs a rebuild of the psi branch,
    logged as a ``"rebuild"`` entry of dimension m.  Either way the
    rejection counts as a repair event.  Memory: one basis at a time plus
    the position and velocity updates of each rung, 2 n-vectors per rung
    and 2 for delta itself.
    """
    op = ivp.op

    def advance(cyc):
        th_psi, th_sigma = _tolerance_split(cfg.tol, cyc.beta_psi, cyc.beta_sigma)
        delta = cyc.t_rem
        updates, entries, repaired = [], [], False
        if cyc.beta_psi > 0:
            (c_psi,), delta = _grow_admissible(
                op, [(cyc.gt, ScalarFunKind.PSI)], cyc.t_rem, th_psi, cfg.m_max,
                cyc.prev_step,
            )
            m_psi = c_psi.decomposition.m
            steps = [delta * f for f in (1.0, *PSI_STEP_RUNGS)]
            ladder = _branch_updates(c_psi, steps)
            updates.append(ladder[0])
            entries.append(("psi", m_psi, delta, _peak(c_psi, delta)))
            del c_psi  # basis dropped; the ladder serves a shorter step

        if cyc.beta_sigma > 0:
            (c_sigma,), delta_sigma = _grow_admissible(
                op, [(cyc.vel, ScalarFunKind.SIGMA)], delta, th_sigma, cfg.m_max,
                cyc.prev_step,
            )
            if delta_sigma < delta and cyc.beta_psi == 0:
                delta = delta_sigma
            elif delta_sigma < delta:
                repaired = True
                # Round-off slack: the sigma search returns multiples of
                # delta/100, which the rungs hit up to the last bit.
                fit = [i for i in range(1, len(steps))
                       if steps[i] <= delta_sigma * (1.0 + 1e-12)]
                if fit:
                    delta = steps[fit[0]]
                    updates[0] = ladder[fit[0]]
                else:
                    delta = delta_sigma
                    c_re = ResidualCurve(krylov_build(op, cyc.gt, m_psi), ScalarFunKind.PSI)
                    updates[0] = _branch_updates(c_re, [delta])[0]
                    entries.append(("rebuild", c_re.decomposition.m, delta, float("nan")))
            updates.append(_branch_updates(c_sigma, [delta])[0])
            entries.append(("sigma", c_sigma.decomposition.m, delta,
                            _peak(c_sigma, delta)))
        return (delta, *_add_updates(cyc.y, updates), entries, repaired)

    return _restart(ivp, "rt-seq", advance)


def _repair_psi_action(op, curve, w, delta, delta_tilde, cfg):
    """Step repair: reconstruct x = delta/2 psi(delta^2 A) w by bridging.

    The psi branch ``curve`` on w certified the residual only up to
    delta_tilde < delta, so the exact state of zeta'' = -A zeta + w (zero
    initial data) is formed at delta_tilde from its basis and propagated
    over the remaining delta - delta_tilde with the sequential RT solver;
    x = zeta(delta)/delta.  Returns x and the matvecs of that bridge solve.
    """
    y0b, v0b = _branch_updates(curve, [delta_tilde])[0]
    bridge = SecondOrderIVP(op, u=y0b, v=v0b, g=w, t_final=delta - delta_tilde)
    report = rt_sequential(bridge, cfg)
    return report.y / delta, report.matvecs


def gautschi(ivp: SecondOrderIVP, cfg: SolverConfig) -> SolveReport:
    """Gautschi cosine scheme with residual-based step size selection.

    Each time step is one :func:`_restart` cycle.  Cycle 0 chooses the
    fixed step delta from the residual of a sigma run on v, shortens it to
    what a psi run on g - A u certifies (both runs of dimension at most
    floor(GAUTSCHI_ALPHA * m_max), or n when the operator's dimension n is
    at most m_max), rounds it down to
    t_final / ceil(t_final / delta) with no further check, and takes the
    first step with both runs' rates.  Every later cycle runs one psi
    branch on the driver's g - A y; if its residual certifies less than
    delta, the step is repaired by bridging the interval with the
    sequential RT solver.  These runs all have the horizon delta, so each
    hands ``_grow_admissible`` the dimension the previous one accepted,
    which gates its checks.  A cycle's velocity is the averaged velocity
    (y_{k+1} - y_k)/delta, so the returned velocity is that of the final
    step, not y'(t_final).
    """
    op = ivp.op
    n = op.dim
    m_tilde = n if n <= cfg.m_max else math.floor(GAUTSCHI_ALPHA * cfg.m_max)
    delta = 0.0  # fixed by the first cycle
    m_step = 0  # the dimension the latest step run accepted

    def rate(curve):
        """sigma(delta^2 A) v or delta/2 psi(delta^2 A) w: the branch's
        position update at delta, divided by delta."""
        if curve is None:
            return np.zeros(op.dim)
        return _branch_updates(curve, [delta])[0, 0] / delta

    def start_up(cyc):
        """Fix delta, a whole fraction of t_final, from a sigma run on the
        velocity and a psi run on g - A u; the first step's two rates, the
        runs' log entries and no repair."""
        nonlocal delta
        c_sigma = c_psi = None
        delta = cyc.t_rem
        if cyc.beta_sigma > 0:
            (c_sigma,), delta = _grow_admissible(
                op, [(cyc.vel, ScalarFunKind.SIGMA)], delta, cfg.tol * cyc.beta_sigma, m_tilde)
        if cyc.beta_psi > 0:
            (c_psi,), delta_psi = _grow_admissible(
                op, [(cyc.gt, ScalarFunKind.PSI)], delta, cfg.tol * cyc.beta_psi, m_tilde)
            # the live sigma basis serves the shorter step as it is
            delta = min(delta, delta_psi)

        # Round down to a whole fraction of t_final, with no further check:
        # the residuals are admissible on every sub-interval of the
        # certified step.  The 1e-12 keeps a quotient a round-off above an
        # integer from adding a step; the step then exceeds the certified
        # one by at most 1e-12 relative.
        steps = math.ceil(ivp.t_final / delta - 1e-12)
        if steps > _MAX_CYCLES:
            raise RuntimeError("Gautschi step count limit exceeded")
        delta = ivp.t_final / steps
        entries = [(c.kind.value, c.decomposition.m, delta, _peak(c, delta))
                   for c in (c_sigma, c_psi) if c is not None]
        return rate(c_sigma), rate(c_psi), entries, False

    def psi_rate(cyc):
        """delta/2 psi(delta^2 A) (g - A y), bridged if the psi residual
        certifies less than delta; with the log entries and whether the
        step was repaired.  The basis is dropped on return."""
        nonlocal m_step
        if cyc.beta_psi == 0:
            return np.zeros(op.dim), [], False
        (curve,), delta_tilde = _grow_admissible(
            op, [(cyc.gt, ScalarFunKind.PSI)], delta, cfg.tol * cyc.beta_psi, cfg.m_max,
            cyc.prev_step, m_step)
        m_step = curve.decomposition.m
        entries = [("step", m_step, delta, _peak(curve, delta))]
        if delta_tilde >= delta * (1.0 - 1e-12):
            return rate(curve), entries, False
        x, bridge_matvecs = _repair_psi_action(op, curve, cyc.gt, delta, delta_tilde, cfg)
        entries.append(("bridge", bridge_matvecs, delta, float("nan")))
        return x, entries, True

    def advance(cyc):
        if delta == 0.0:
            v_k, x, entries, repaired = start_up(cyc)
        else:
            x, entries, repaired = psi_rate(cyc)
            v_k = cyc.vel + x
        v_half = v_k + x
        y = np.add(cyc.y, delta * v_half, out=cyc.y)
        # the last step ends the solve even if the sum of steps rounds short
        step = max(delta, cyc.t_rem) if cyc.t_rem < 1.5 * delta else delta
        return step, y, v_half, entries, repaired

    report = _restart(ivp, "gautschi", advance)
    report.velocity_is_averaged = True
    return report


def two_pass_lanczos(ivp: SecondOrderIVP, cfg: SolverConfig) -> SolveReport:
    """Low-memory symmetric solver: three-term Lanczos, then a replay pass.

    One :func:`_restart` cycle whose step is all of t_final.  Pass one runs
    the three-term recurrence for each live branch, keeping only the
    tridiagonal coefficients and checking the residual stopping criterion
    every ``TWO_PASS_CHECK_INTERVAL`` iterations against the per-branch
    tolerance split; a non-finite residual (a t_final whose projected
    functions overflow) stops it with ``RuntimeError``.  Pass two replays
    the same process from the same start, so it regenerates pass one's
    basis bit for bit, and accumulates the solution and velocity as running
    sums with the coefficients of pass one's converged curve: O(1) vectors
    for about twice the matvecs.  A live branch logs pass one's m and its
    accepting residual (0.0 at breakdown), then a ``"replay"`` entry of m - 1.
    """
    op = ivp.op
    if not op.is_symmetric:
        raise ValueError("operator not symmetric")
    t_final = ivp.t_final
    cap = 200 * cfg.m_max

    def pass_one(start, kind, threshold):
        """The branch's converged curve and its accepting check's residual."""
        proc = KrylovProcess(op, start, cap, mode="lanczos3")
        while True:
            proc.step()
            if proc.breakdown:
                return ResidualCurve(proc.snapshot(), kind), 0.0
            if proc.m % TWO_PASS_CHECK_INTERVAL and proc.m != cap:
                continue  # not a check iteration
            curve = ResidualCurve(proc.snapshot(), kind)
            res = _peak(curve, t_final)
            if not math.isfinite(res):
                raise RuntimeError(
                    f"two-pass Lanczos residual is not finite at m = {proc.m}: "
                    f"t_final = {t_final:g} overflows the projected functions"
                )
            if res <= threshold and confirm_admissible(curve, t_final, threshold):
                return curve, res
            if proc.m >= cap:
                raise RuntimeError(
                    f"two-pass Lanczos did not converge within {cap} iterations; "
                    f"last residual {res:.3e} vs threshold {threshold:.3e}"
                )

    def pass_two(start, curve):
        """Replay pass one's process from ``start`` and accumulate the
        branch's updates with the coefficients of its converged ``curve``."""
        pos_coeff, vel_coeff = branch_coefficients(curve.cache, curve.kind, t_final)[0]
        proc = KrylovProcess(op, start, curve.decomposition.m, mode="lanczos3")
        # the position and velocity sums as the rows of one array, so that
        # each step's sweep over v_i updates both
        coeffs = np.stack([pos_coeff, vel_coeff], axis=1)[:, :, None]
        acc = coeffs[0] * proc.newest
        scratch = np.empty((2, min(op.dim, CHUNK)))
        for i in range(1, curve.decomposition.m):
            proc.step()
            add_scaled(acc, coeffs[i], proc.newest, scratch)
        return acc[0], acc[1]

    def advance(cyc):
        th_psi, th_sigma = _tolerance_split(cfg.tol, cyc.beta_psi, cyc.beta_sigma)
        updates, entries = [], []
        for start, beta, threshold, kind in (
            (cyc.gt, cyc.beta_psi, th_psi, ScalarFunKind.PSI),
            (cyc.vel, cyc.beta_sigma, th_sigma, ScalarFunKind.SIGMA),
        ):
            if beta > 0:
                curve, res = pass_one(start, kind, threshold)
                updates.append(pass_two(start, curve))
                m = curve.decomposition.m
                entries += [(kind.value, m, t_final, res), ("replay", m - 1, t_final, math.nan)]
        return (cyc.t_rem, *_add_updates(cyc.y, updates), entries, False)

    return _restart(ivp, "two-pass", advance)


def rt_first_order_block(ivp: SecondOrderIVP, cfg: SolverConfig) -> SolveReport:
    """Baseline: RT restarting on the first-order block form w' = -B w + g_hat.

    B = [[0, -I], [A, 0]] acts on stacked (position, velocity) vectors of
    size 2n; each cycle runs Arnoldi on g_hat - B w and advances by the
    variation-of-constants update w += V t phi(-t H) beta e1 on the largest
    admissible step.  The Krylov dimension is halved to keep the
    orthogonalization and storage cost comparable to the second-order
    solvers, except when n <= m_max, where it is the block's dimension 2n.
    Block products are counted as single matvecs.
    """
    block = BlockFirstOrderOperator(ivp.op)
    n = ivp.op.dim
    m_cap = 2 * n if n <= cfg.m_max else cfg.m_max // 2

    def advance(cyc):
        # g_hat - B w for w = (y, vel) and g_hat = (0, g), as B w = (-vel, A y)
        r = np.concatenate([cyc.vel, cyc.gt])
        (curve,), delta = _grow_admissible(
            block, [(r, ScalarFunKind.PHI)], cyc.t_rem, cfg.tol * _norm(r), m_cap,
            cyc.prev_step,
        )
        entry = ("phi", curve.decomposition.m, delta, _peak(curve, delta))
        update = _branch_updates(curve, [delta])[0, 0]
        y = np.add(cyc.y, update[:n], out=cyc.y)
        vel = np.add(cyc.vel, update[n:], out=cyc.vel)
        return delta, y, vel, [entry], False

    return _restart(ivp, "first-order", advance)


SOLVERS = {
    "rt-sim": rt_simultaneous,
    "rt-seq": rt_sequential,
    "gautschi": gautschi,
    "two-pass": two_pass_lanczos,
    "first-order": rt_first_order_block,
}


def solve(ivp: SecondOrderIVP, cfg: SolverConfig, solver: str = "rt-seq") -> SolveReport:
    """Dispatch to one of the named solvers."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {sorted(SOLVERS)}")
    return SOLVERS[solver](ivp, cfg)
