"""Second-order IVP solvers: residual-time restarting, Gautschi stepping,
two-pass Lanczos and a first-order block baseline.

All solvers integrate y'' = -A y + g, y(0) = u, y'(0) = v up to t_final and
return a :class:`SolveReport`.  The three residual-time (RT) restarting
solvers share one driver, :func:`_restart`, and differ only in their cycle
(rt-sim: both branches in lockstep, rt-seq: psi then sigma, first-order:
one Arnoldi branch on the block form); they and Gautschi grow every basis
with :func:`_grow_admissible`.  Residual thresholds are relative to the
norm of the starting vector of the corresponding Krylov branch; for
split-branch solvers the per-branch tolerances are rebalanced from each
restart cycle's inflow data so their sum meets the combined budget
tol * (||g - A y|| + ||v||).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .linop import BlockFirstOrderOperator, LinearOperator
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
)

_MAX_CYCLES = 1_000_000

#: Fractions of the psi-chosen step, in descending order, at which
#: :func:`rt_sequential` keeps the psi updates before dropping the basis; a
#: step that the sigma branch shortens to one of these is served without
#: rebuilding psi.
PSI_STEP_RUNGS = (0.99, 0.98, 0.97, 0.96)

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
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")


@dataclass
class SolverConfig:
    """Common solver knobs.

    ``m_max`` caps the Krylov dimension per restart cycle; the simultaneous
    solver halves it per branch because two bases share the memory budget,
    and two-pass Lanczos stops after 200 * m_max iterations.  ``alpha`` is
    the Gautschi safety factor applied to the initial step-size-selecting
    Krylov runs.
    """

    tol: float
    m_max: int = 30
    alpha: float = 0.85
    two_pass_check_interval: int = 10

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.m_max < 2:
            raise ValueError("m_max must be at least 2")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.two_pass_check_interval < 1:
            raise ValueError("check interval must be positive")


@dataclass
class SolveReport:
    """Solution plus accounting for one solver run.

    ``matvecs`` always equals the operator counter delta over the solve.
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


def _grow_admissible(op, branches, horizon, threshold, m_cap):
    """Extend one Krylov process per ``(start, kind)`` branch, in lockstep,
    until the summed residual is admissible on [0, horizon].

    Convergence is checked after every step on the six coarse samples; a
    branch that breaks down stops growing and its residual vanishes.  On
    failure at the dimension cap the largest admissible step is located on
    the fine grid.  Returns (decomps, curves, curve, delta, converged), one
    decomposition and residual curve per branch and ``curve`` their sum.
    """
    procs = [KrylovProcess(op, start, m_cap) for start, _ in branches]
    for _ in range(procs[0].m_max):
        for proc in procs:
            if not proc.breakdown:
                proc.step()
        decomps = [proc.snapshot() for proc in procs]
        curves = [ResidualCurve(d, kind) for d, (_, kind) in zip(decomps, branches)]
        curve = curves[0] if len(curves) == 1 else CombinedResidualCurve(*curves)
        if all(proc.breakdown for proc in procs) or (
            coarse_residual_check(curve, horizon, threshold)
            and confirm_admissible(curve, horizon, threshold)
        ):
            return decomps, curves, curve, horizon, True
    delta = find_largest_admissible_step(curve, horizon, threshold)
    return decomps, curves, curve, delta, False


def _peak(curve, delta) -> float:
    """The largest residual on the six coarse samples of [0, delta]."""
    return float(np.max(curve.values(delta * COARSE_FRACTIONS)))


def _branch_updates(decomp, cache, kind, steps):
    """The branch's (position, velocity) updates at each of ``steps``, shape
    (k, terms, n), from the terms of ``BRANCH_TERMS[kind]``.

    The basis view is read once and combined with all coefficient vectors
    in a single GEMM.
    """
    coeffs = branch_coefficients(cache, kind, steps)
    k, terms, m = coeffs.shape
    return (coeffs.reshape(k * terms, m) @ decomp.V_m.T).reshape(k, terms, -1)


def _add_updates(y, updates):
    """y plus each branch's position update in turn, and the sum of the
    branches' velocity updates: the state after all branches have run."""
    vel = np.zeros_like(y)
    for y_add, v_add in updates:
        y = y + y_add
        vel += v_add
    return y, vel


#: What :func:`_restart` hands a cycle: the state (y, vel), gt = g - A y,
#: the branch norms ||gt|| and ||vel|| (not both zero) and the time left.
_Cycle = namedtuple("_Cycle", ["y", "vel", "gt", "beta_psi", "beta_sigma", "t_rem"])


def _restart(ivp: SecondOrderIVP, solver: str, advance) -> SolveReport:
    """Residual-time restarting, the loop rt-sim, rt-seq and first-order share.

    Each cycle spends one matvec on gt = g - A y and stops at a stationary
    point (gt and the velocity both zero).  Otherwise ``advance(cycle)``
    grows the solver's Krylov bases, takes the largest admissible step
    delta <= t_rem and returns ``(delta, y, vel, entries, repaired)``: the
    state at t + delta, the cycle's residual-log entries as ``(phase, m,
    step, residual)`` over [t, t + step], and whether it repaired a step.
    """
    op = ivp.op
    count0 = op.matvec_count
    y = ivp.u.copy()
    vel = ivp.v.copy()
    step_sizes: list[float] = []
    log: list[ResidualLogEntry] = []
    repair_events = 0
    t_done = 0.0
    while t_done < ivp.t_final * (1.0 - 1e-14):
        cycle = len(step_sizes)
        if cycle >= _MAX_CYCLES:
            raise RuntimeError("restart cycle limit exceeded")
        gt = ivp.g - op.apply(y)
        beta_psi = _norm(gt)
        beta_sigma = _norm(vel)
        if beta_psi + beta_sigma == 0.0:
            break  # stationary point: y'' = 0 with zero velocity
        delta, y, vel, entries, repaired = advance(
            _Cycle(y, vel, gt, beta_psi, beta_sigma, ivp.t_final - t_done)
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
    is capped at m_max/2.
    """
    m_cap = min(max(1, cfg.m_max // 2), ivp.op.dim)

    def advance(cyc):
        branches = [(start, kind) for start, beta, kind in (
            (cyc.gt, cyc.beta_psi, ScalarFunKind.PSI),
            (cyc.vel, cyc.beta_sigma, ScalarFunKind.SIGMA),
        ) if beta > 0]
        decomps, curves, combined, delta, _ = _grow_admissible(
            ivp.op, branches, cyc.t_rem, cfg.tol * (cyc.beta_psi + cyc.beta_sigma), m_cap
        )
        entry = ("cycle", max(d.m for d in decomps), delta, _peak(combined, delta))
        updates = [_branch_updates(d, c.cache, c.kind, [delta])[0]
                   for d, c in zip(decomps, curves)]
        return (delta, *_add_updates(cyc.y, updates), [entry], False)

    return _restart(ivp, "rt-sim", advance)


def rt_sequential(ivp: SecondOrderIVP, cfg: SolverConfig) -> SolveReport:
    """Residual-time restarting with sequential branches (one basis at a time).

    Per cycle the psi branch picks the step delta first; before its basis is
    discarded, the psi updates are formed at delta and at the rungs
    ``PSI_STEP_RUNGS * delta`` (the psi residual is admissible on every
    sub-interval of [0, delta]).  The sigma branch then validates delta on
    [0, delta].  If it needs a smaller step, the largest rung at or below
    the sigma step is taken at no extra matvecs.  Only a sigma step below
    the last rung costs a rebuild of the psi branch, logged as a
    ``"rebuild"`` entry of dimension m.  Either way the rejection counts as
    a repair event.
    """
    op = ivp.op
    m_cap = min(cfg.m_max, op.dim)

    def advance(cyc):
        th_psi, th_sigma = _tolerance_split(cfg.tol, cyc.beta_psi, cyc.beta_sigma)
        delta = cyc.t_rem
        updates, entries, repaired = [], [], False
        if cyc.beta_psi > 0:
            (d_psi,), (c_psi,), _, delta, _ = _grow_admissible(
                op, [(cyc.gt, ScalarFunKind.PSI)], cyc.t_rem, th_psi, m_cap
            )
            m_psi = d_psi.m
            steps = [delta * f for f in (1.0, *PSI_STEP_RUNGS)]
            ladder = _branch_updates(d_psi, c_psi.cache, ScalarFunKind.PSI, steps)
            updates.append(ladder[0])
            entries.append(("psi", m_psi, delta, _peak(c_psi, delta)))
            del d_psi, c_psi  # basis dropped; the ladder serves a shorter step

        if cyc.beta_sigma > 0:
            (d_sigma,), (c_sigma,), _, delta_sigma, _ = _grow_admissible(
                op, [(cyc.vel, ScalarFunKind.SIGMA)], delta, th_sigma, m_cap
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
                    d_re = krylov_build(op, cyc.gt, m_psi)
                    updates[0] = _branch_updates(
                        d_re, d_re.spectral_cache(), ScalarFunKind.PSI, [delta]
                    )[0]
                    entries.append(("rebuild", d_re.m, delta, float("nan")))
            updates.append(_branch_updates(
                d_sigma, c_sigma.cache, ScalarFunKind.SIGMA, [delta]
            )[0])
            entries.append(("sigma", d_sigma.m, delta, _peak(c_sigma, delta)))
        return (delta, *_add_updates(cyc.y, updates), entries, repaired)

    return _restart(ivp, "rt-seq", advance)


def _repair_psi_action(op, d_step, cache, w, delta, delta_tilde, cfg):
    """Step repair: reconstruct x = delta/2 psi(delta^2 A) w by bridging.

    The Krylov run certified the residual only up to delta_tilde < delta, so
    the exact state of zeta'' = -A zeta + w (zero initial data) is formed at
    delta_tilde from the available basis and propagated over the remaining
    delta - delta_tilde with the sequential RT solver; x = zeta(delta)/delta.
    """
    y0b, v0b = _branch_updates(d_step, cache, ScalarFunKind.PSI, [delta_tilde])[0]
    bridge = SecondOrderIVP(op, u=y0b, v=v0b, g=w, t_final=delta - delta_tilde)
    report = rt_sequential(bridge, cfg)
    return report.y / delta, report.steps


def gautschi(ivp: SecondOrderIVP, cfg: SolverConfig) -> SolveReport:
    """Gautschi cosine scheme with residual-based step size selection.

    The fixed step delta is chosen from the residual of an initial sigma run
    on v (dimension floor(alpha*m_max)), validated by an initial psi run on
    g - A u, then adjusted to divide t_final exactly.  Each time step costs
    one fresh psi-branch Krylov run; if a step's residual exceeds the
    tolerance, the step is repaired by bridging the interval with the
    sequential RT solver.  The returned velocity is the averaged velocity
    over the final step, not y'(t_final).
    """
    op = ivp.op
    count0 = op.matvec_count
    t_total = ivp.t_final
    y = ivp.u.copy()
    m_tilde = min(max(1, math.floor(cfg.alpha * cfg.m_max)), op.dim)
    m_cap = min(cfg.m_max, op.dim)
    log: list[ResidualLogEntry] = []
    repair_events = 0

    beta_sigma = _norm(ivp.v)
    d_sigma = c_sigma = None
    delta = t_total
    if beta_sigma > 0:
        (d_sigma,), (c_sigma,), _, delta, _ = _grow_admissible(
            op, [(ivp.v, ScalarFunKind.SIGMA)], t_total, cfg.tol * beta_sigma, m_tilde
        )

    w0 = ivp.g - op.apply(ivp.u)
    beta_psi = _norm(w0)
    d_psi = c_psi = None
    if beta_psi > 0:
        (d_psi,), (c_psi,), _, delta_psi, _ = _grow_admissible(
            op, [(w0, ScalarFunKind.PSI)], delta, cfg.tol * beta_psi, m_tilde
        )
        # the live sigma basis serves the shorter step as it is
        delta = min(delta, delta_psi)

    if beta_psi + beta_sigma == 0.0:
        return SolveReport(
            y=y, v_out=ivp.v.copy(), matvecs=op.matvec_count - count0, steps=0,
            solver="gautschi", velocity_is_averaged=True,
        )

    # Adjust delta to hit t_final exactly; shrinking keeps residuals
    # admissible on the fine grid, but re-verify the coarse samples since
    # they move with delta.
    checks = [(c, cfg.tol * beta) for c, beta in ((c_psi, beta_psi), (c_sigma, beta_sigma))
              if c is not None]
    for _ in range(3):
        steps = max(1, math.ceil(t_total / delta - 1e-12))
        if steps > _MAX_CYCLES:
            raise RuntimeError("Gautschi step count limit exceeded")
        delta = t_total / steps
        if all(coarse_residual_check(c, delta, th) and confirm_admissible(c, delta, th)
               for c, th in checks):
            break
        shrunk = min([delta] + [find_largest_admissible_step(c, delta, th)
                                for c, th in checks])
        if shrunk >= delta:
            break
        delta = shrunk

    def rate(d, curve):
        """sigma(delta^2 A) v or delta/2 psi(delta^2 A) w: the branch's
        position update at delta, divided by delta."""
        if d is None:
            return np.zeros(op.dim)
        return _branch_updates(d, curve.cache, curve.kind, [delta])[0, 0] / delta

    v_k, x = rate(d_sigma, c_sigma), rate(d_psi, c_psi)
    # the start-up bases are read only by rate(); free them before stepping
    del d_sigma, c_sigma, d_psi, c_psi, checks
    step_sizes: list[float] = []
    for k in range(steps):
        v_half = v_k + x
        y = y + delta * v_half
        step_sizes.append(delta)
        if k == steps - 1:
            v_k = v_half  # averaged velocity (y_{k+1} - y_k)/delta
            break
        w = ivp.g - op.apply(y)
        beta = _norm(w)
        if beta == 0.0:
            v_k = v_half
            x = np.zeros(op.dim)
            continue
        (d_step,), (c_step,), _, delta_tilde, converged = _grow_admissible(
            op, [(w, ScalarFunKind.PSI)], delta, cfg.tol * beta, m_cap
        )
        log.append(ResidualLogEntry(
            "step", k, d_step.m, k * delta, (k + 1) * delta, _peak(c_step, delta)
        ))
        if converged or delta_tilde >= delta * (1.0 - 1e-12):
            x = rate(d_step, c_step)
        else:
            repair_events += 1
            x, bridge_steps = _repair_psi_action(
                op, d_step, c_step.cache, w, delta, delta_tilde, cfg
            )
            log.append(ResidualLogEntry(
                "bridge", k, bridge_steps, delta_tilde, delta, float("nan")
            ))
        v_k = v_half + x
    return SolveReport(
        y=y, v_out=v_k, matvecs=op.matvec_count - count0, steps=steps,
        step_sizes=step_sizes, residual_log=log, repair_events=repair_events,
        solver="gautschi", velocity_is_averaged=True,
    )


def two_pass_lanczos(ivp: SecondOrderIVP, cfg: SolverConfig) -> SolveReport:
    """Low-memory symmetric solver: three-term Lanczos, then a replay pass.

    Pass one runs the three-term recurrence for both starting vectors,
    keeping only the tridiagonal coefficients and checking the residual
    stopping criterion every ``two_pass_check_interval`` iterations against
    the per-branch tolerance split.  Pass two regenerates the basis vectors
    and accumulates the solution and velocity as running sums, so memory
    use is independent of the iteration count at the price of roughly
    doubling the matvecs.
    """
    op = ivp.op
    if not op.is_symmetric:
        raise ValueError("operator not symmetric")
    count0 = op.matvec_count
    t_final = ivp.t_final
    log: list[ResidualLogEntry] = []
    cap = 200 * cfg.m_max

    w0 = ivp.g - op.apply(ivp.u)
    beta_psi = _norm(w0)
    beta_sigma = _norm(ivp.v)
    th_psi, th_sigma = _tolerance_split(cfg.tol, beta_psi, beta_sigma)

    def pass_one(start, kind, threshold, label):
        proc = KrylovProcess(op, start, cap, mode="lanczos3")
        while True:
            proc.step()
            if proc.breakdown:
                return proc.snapshot()
            if proc.m % cfg.two_pass_check_interval and proc.m != cap:
                continue  # not a check iteration
            decomp = proc.snapshot()
            curve = ResidualCurve(decomp, kind)
            res = _peak(curve, t_final)
            log.append(ResidualLogEntry(label, 0, proc.m, 0.0, t_final, res))
            if res <= threshold and confirm_admissible(curve, t_final, threshold):
                return decomp
            if proc.m >= cap:
                raise RuntimeError(
                    f"two-pass Lanczos did not converge within {cap} iterations; "
                    f"last residual {res:.3e} vs threshold {threshold:.3e}"
                )

    def pass_two(start_unit, decomp, kind):
        """Replay the recurrence from ``start_unit`` (a vector this pass may
        overwrite) and accumulate the branch's updates in place."""
        pos_coeff, vel_coeff = branch_coefficients(
            decomp.spectral_cache(), kind, t_final
        )[0]
        diag, off = decomp.tridiagonal()
        y_acc = pos_coeff[0] * start_unit
        v_acc = vel_coeff[0] * start_unit
        v_prev, v_cur, w = np.zeros_like(start_unit), start_unit, np.empty_like(start_unit)
        tmp = np.empty_like(start_unit)  # each product is formed here first
        for i in range(decomp.m - 1):
            op.apply(v_cur, out=w)
            w -= np.multiply(v_cur, diag[i], out=tmp)
            if i > 0:
                w -= np.multiply(v_prev, off[i - 1], out=tmp)
            w /= off[i]
            v_prev, v_cur, w = v_cur, w, v_prev
            y_acc += np.multiply(v_cur, pos_coeff[i + 1], out=tmp)
            v_acc += np.multiply(v_cur, vel_coeff[i + 1], out=tmp)
        return y_acc, v_acc

    updates = []
    if beta_psi > 0:
        d_psi = pass_one(w0, ScalarFunKind.PSI, th_psi, "psi")
        w0b = ivp.g - op.apply(ivp.u)  # recomputed: pass one kept no vectors
        updates.append(pass_two(w0b / beta_psi, d_psi, ScalarFunKind.PSI))
    if beta_sigma > 0:
        d_sigma = pass_one(ivp.v, ScalarFunKind.SIGMA, th_sigma, "sigma")
        updates.append(pass_two(ivp.v / beta_sigma, d_sigma, ScalarFunKind.SIGMA))
    y, vel = _add_updates(ivp.u.copy(), updates)
    return SolveReport(
        y=y, v_out=vel, matvecs=op.matvec_count - count0, steps=1,
        step_sizes=[t_final], residual_log=log, solver="two-pass",
    )


def rt_first_order_block(ivp: SecondOrderIVP, cfg: SolverConfig) -> SolveReport:
    """Baseline: RT restarting on the first-order block form w' = -B w + g_hat.

    B = [[0, -I], [A, 0]] acts on stacked (position, velocity) vectors of
    size 2n; each cycle runs Arnoldi on g_hat - B w and advances by the
    variation-of-constants update w += V t phi(-t H) beta e1 on the largest
    admissible step.  The Krylov dimension is halved to keep the
    orthogonalization and storage cost comparable to the second-order
    solvers.  Block products are counted as single matvecs.
    """
    block = BlockFirstOrderOperator(ivp.op)
    n = ivp.op.dim
    m_cap = min(max(1, cfg.m_max // 2), block.dim)

    def advance(cyc):
        # g_hat - B w for w = (y, vel) and g_hat = (0, g), as B w = (-vel, A y)
        r = np.concatenate([cyc.vel, cyc.gt])
        (d,), (curve,), _, delta, _ = _grow_admissible(
            block, [(r, ScalarFunKind.PHI)], cyc.t_rem, cfg.tol * _norm(r), m_cap
        )
        entry = ("phi", d.m, delta, _peak(curve, delta))
        update = _branch_updates(d, curve.cache, ScalarFunKind.PHI, [delta])[0, 0]
        return delta, cyc.y + update[:n], cyc.vel + update[n:], [entry], False

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
