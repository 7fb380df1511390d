"""Second-order IVP solvers: residual-time restarting, Gautschi stepping,
two-pass Lanczos and a first-order block baseline.

All solvers integrate y'' = -A y + g, y(0) = u, y'(0) = v up to t_final and
return a :class:`SolveReport`.  Residual thresholds are relative to the norm
of the starting vector of the corresponding Krylov branch; for split-branch
solvers the per-branch tolerances are rebalanced from each restart cycle's
inflow data so their sum meets the combined budget tol * (||g - A y|| + ||v||).
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
    solver halves it per branch (override with ``sim_basis_cap``) because two
    bases share the memory budget.  ``alpha`` is the Gautschi safety factor
    applied to the initial step-size-selecting Krylov runs.
    """

    tol: float
    m_max: int = 30
    alpha: float = 0.85
    two_pass_check_interval: int = 10
    sim_basis_cap: int | None = None
    two_pass_max_iters: int | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.m_max < 2:
            raise ValueError("m_max must be at least 2")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.two_pass_check_interval < 1:
            raise ValueError("check interval must be positive")

    @property
    def two_pass_iteration_cap(self) -> int:
        if self.two_pass_max_iters is not None:
            return self.two_pass_max_iters
        return 10 * self.m_max * 20


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

    @property
    def restarts(self) -> int:
        return max(0, self.steps - 1)


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


def _grow_admissible(op, start, kind, horizon, threshold, m_cap):
    """Extend a Krylov process until the residual is admissible on [0, horizon].

    Convergence is checked after every step on the six coarse samples; on
    failure at the dimension cap the largest admissible step is located on
    the fine grid.  Returns (decomposition, curve, delta, converged).
    """
    proc = KrylovProcess(op, start, m_cap)
    decomp = curve = None
    for _ in range(proc.m_max):
        proc.step()
        decomp = proc.snapshot()
        curve = ResidualCurve(decomp, kind)
        if proc.breakdown:
            return decomp, curve, horizon, True
        if coarse_residual_check(curve, horizon, threshold) and confirm_admissible(
            curve, horizon, threshold
        ):
            return decomp, curve, horizon, True
    delta = find_largest_admissible_step(curve, horizon, threshold)
    return decomp, curve, delta, False


def _branch_updates(decomp, cache, kind, steps):
    """The branch's (position, velocity) updates at each of ``steps``, shape
    (k, terms, n), from the terms of ``BRANCH_TERMS[kind]``.

    The basis view is read once and combined with all coefficient vectors
    in a single GEMM.
    """
    coeffs = branch_coefficients(cache, kind, steps)
    k, terms, m = coeffs.shape
    return (coeffs.reshape(k * terms, m) @ decomp.V_m.T).reshape(k, terms, -1)


def rt_simultaneous(ivp: SecondOrderIVP, cfg: SolverConfig) -> SolveReport:
    """Residual-time restarting with both Krylov branches built in lockstep.

    Per cycle the psi branch (starting vector g - A y) and the sigma branch
    (starting vector v) are extended together; the combined residual bound
    ||r(s)|| <= ||r_psi(s)|| + ||r_sigma(s)|| is tested against
    tol * (||g - A y|| + ||v||).  Both bases are held simultaneously, so each
    is capped at m_max/2 by default.
    """
    op = ivp.op
    count0 = op.matvec_count
    y = ivp.u.copy()
    vel = ivp.v.copy()
    t_total = ivp.t_final
    m_cap = cfg.sim_basis_cap if cfg.sim_basis_cap else max(1, cfg.m_max // 2)
    m_cap = min(m_cap, op.dim)
    step_sizes: list[float] = []
    log: list[ResidualLogEntry] = []
    t_done = 0.0
    cycle = 0
    while t_done < t_total * (1.0 - 1e-14):
        if cycle >= _MAX_CYCLES:
            raise RuntimeError("restart cycle limit exceeded")
        t_rem = t_total - t_done
        gt = ivp.g - op.apply(y)
        beta_psi = _norm(gt)
        beta_sigma = _norm(vel)
        scale = beta_psi + beta_sigma
        if scale == 0.0:
            break  # stationary point: y'' = 0 with zero velocity
        threshold = cfg.tol * scale
        proc_psi = KrylovProcess(op, gt, m_cap) if beta_psi > 0 else None
        proc_sigma = KrylovProcess(op, vel, m_cap) if beta_sigma > 0 else None
        converged = False
        combined = d_psi = d_sigma = c_psi = c_sigma = None
        for _ in range(m_cap):
            for proc in (proc_psi, proc_sigma):
                if proc is not None and not proc.breakdown and proc.m < m_cap:
                    proc.step()
            if proc_psi is not None:
                d_psi = proc_psi.snapshot()
                c_psi = ResidualCurve(d_psi, ScalarFunKind.PSI)
            if proc_sigma is not None:
                d_sigma = proc_sigma.snapshot()
                c_sigma = ResidualCurve(d_sigma, ScalarFunKind.SIGMA)
            combined = CombinedResidualCurve(c_psi, c_sigma)
            if coarse_residual_check(combined, t_rem, threshold) and confirm_admissible(
                combined, t_rem, threshold
            ):
                converged = True
                break
        delta = t_rem if converged else find_largest_admissible_step(
            combined, t_rem, threshold
        )
        m_used = max(d.m for d in (d_psi, d_sigma) if d is not None)
        res_max = float(np.max(combined.values(delta * COARSE_FRACTIONS)))
        log.append(ResidualLogEntry("cycle", cycle, m_used, t_done, t_done + delta, res_max))
        vel_new = np.zeros_like(vel)
        for d, c in ((d_psi, c_psi), (d_sigma, c_sigma)):
            if d is not None:
                y_add, v_add = _branch_updates(d, c.cache, c.kind, [delta])[0]
                y = y + y_add
                vel_new += v_add
        vel = vel_new
        step_sizes.append(delta)
        t_done += delta
        cycle += 1
    return SolveReport(
        y=y, v_out=vel, matvecs=op.matvec_count - count0, steps=cycle,
        step_sizes=step_sizes, residual_log=log, solver="rt-sim",
    )


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
    count0 = op.matvec_count
    y = ivp.u.copy()
    vel = ivp.v.copy()
    t_total = ivp.t_final
    m_cap = min(cfg.m_max, op.dim)
    step_sizes: list[float] = []
    log: list[ResidualLogEntry] = []
    repair_events = 0
    t_done = 0.0
    cycle = 0
    while t_done < t_total * (1.0 - 1e-14):
        if cycle >= _MAX_CYCLES:
            raise RuntimeError("restart cycle limit exceeded")
        t_rem = t_total - t_done
        gt = ivp.g - op.apply(y)
        beta_psi = _norm(gt)
        beta_sigma = _norm(vel)
        if beta_psi + beta_sigma == 0.0:
            break
        th_psi, th_sigma = _tolerance_split(cfg.tol, beta_psi, beta_sigma)

        y_psi = v_psi = None
        delta = t_rem
        m_psi = 0
        if beta_psi > 0:
            d_psi, c_psi, delta, _ = _grow_admissible(
                op, gt, ScalarFunKind.PSI, t_rem, th_psi, m_cap
            )
            m_psi = d_psi.m
            steps = [delta * f for f in (1.0, *PSI_STEP_RUNGS)]
            ladder = _branch_updates(d_psi, c_psi.cache, ScalarFunKind.PSI, steps)
            y_psi, v_psi = ladder[0]
            log.append(ResidualLogEntry(
                "psi", cycle, m_psi, t_done, t_done + delta,
                float(np.max(c_psi.values(delta * COARSE_FRACTIONS))),
            ))
            del d_psi, c_psi  # basis dropped; the ladder serves a shorter step

        y_sigma = v_sigma = None
        if beta_sigma > 0:
            d_sigma, c_sigma, delta_sigma, _ = _grow_admissible(
                op, vel, ScalarFunKind.SIGMA, delta, th_sigma, m_cap
            )
            if delta_sigma < delta:
                if beta_psi > 0:
                    repair_events += 1
                    # Round-off slack: the sigma search returns multiples
                    # of delta/100, which the rungs hit up to the last bit.
                    fit = [i for i in range(1, len(steps))
                           if steps[i] <= delta_sigma * (1.0 + 1e-12)]
                    if fit:
                        delta = steps[fit[0]]
                        y_psi, v_psi = ladder[fit[0]]
                    else:
                        delta = delta_sigma
                        d_re = krylov_build(op, gt, m_psi)
                        y_psi, v_psi = _branch_updates(
                            d_re, d_re.spectral_cache(), ScalarFunKind.PSI, [delta]
                        )[0]
                        log.append(ResidualLogEntry(
                            "rebuild", cycle, d_re.m, t_done, t_done + delta,
                            float("nan"),
                        ))
                else:
                    delta = delta_sigma
            y_sigma, v_sigma = _branch_updates(
                d_sigma, c_sigma.cache, ScalarFunKind.SIGMA, [delta]
            )[0]
            log.append(ResidualLogEntry(
                "sigma", cycle, d_sigma.m, t_done, t_done + delta,
                float(np.max(c_sigma.values(delta * COARSE_FRACTIONS))),
            ))

        vel_new = np.zeros_like(vel)
        if y_psi is not None:
            y = y + y_psi
            vel_new += v_psi
        if y_sigma is not None:
            y = y + y_sigma
            vel_new += v_sigma
        vel = vel_new
        step_sizes.append(delta)
        t_done += delta
        cycle += 1
    return SolveReport(
        y=y, v_out=vel, matvecs=op.matvec_count - count0, steps=cycle,
        step_sizes=step_sizes, residual_log=log, repair_events=repair_events,
        solver="rt-seq",
    )


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
        d_sigma, c_sigma, delta, _ = _grow_admissible(
            op, ivp.v, ScalarFunKind.SIGMA, t_total, cfg.tol * beta_sigma, m_tilde
        )

    w0 = ivp.g - op.apply(ivp.u)
    beta_psi = _norm(w0)
    d_psi = c_psi = None
    if beta_psi > 0:
        d_psi, c_psi, delta_psi, _ = _grow_admissible(
            op, w0, ScalarFunKind.PSI, delta, cfg.tol * beta_psi, m_tilde
        )
        if delta_psi < delta:
            delta = delta_psi
            if beta_sigma > 0:
                # sigma basis was discarded under the memory budget; rebuild
                # to evaluate the starting velocity at the reduced step.
                d_sigma = krylov_build(op, ivp.v, d_sigma.m)
                c_sigma = ResidualCurve(d_sigma, ScalarFunKind.SIGMA)

    if beta_psi + beta_sigma == 0.0:
        return SolveReport(
            y=y, v_out=ivp.v.copy(), matvecs=op.matvec_count - count0, steps=0,
            solver="gautschi", velocity_is_averaged=True,
        )

    # Adjust delta to hit t_final exactly; shrinking keeps residuals
    # admissible on the fine grid, but re-verify the coarse samples since
    # they move with delta.
    for _ in range(3):
        steps = max(1, math.ceil(t_total / delta - 1e-12))
        if steps > _MAX_CYCLES:
            raise RuntimeError("Gautschi step count limit exceeded")
        delta = t_total / steps
        ok = True
        if c_psi is not None:
            ok = ok and coarse_residual_check(c_psi, delta, cfg.tol * beta_psi) \
                and confirm_admissible(c_psi, delta, cfg.tol * beta_psi)
        if ok and c_sigma is not None:
            ok = ok and coarse_residual_check(c_sigma, delta, cfg.tol * beta_sigma) \
                and confirm_admissible(c_sigma, delta, cfg.tol * beta_sigma)
        if ok:
            break
        shrunk = delta
        if c_psi is not None:
            shrunk = min(shrunk, find_largest_admissible_step(
                c_psi, delta, cfg.tol * beta_psi))
        if c_sigma is not None:
            shrunk = min(shrunk, find_largest_admissible_step(
                c_sigma, delta, cfg.tol * beta_sigma))
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
        d_step, c_step, delta_tilde, converged = _grow_admissible(
            op, w, ScalarFunKind.PSI, delta, cfg.tol * beta, m_cap
        )
        log.append(ResidualLogEntry(
            "step", k, d_step.m, k * delta, (k + 1) * delta,
            float(np.max(c_step.values(delta * COARSE_FRACTIONS))),
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
    cap = min(cfg.two_pass_iteration_cap, op.dim)
    interval = cfg.two_pass_check_interval

    w0 = ivp.g - op.apply(ivp.u)
    beta_psi = _norm(w0)
    beta_sigma = _norm(ivp.v)
    if beta_psi + beta_sigma == 0.0:
        return SolveReport(
            y=ivp.u.copy(), v_out=np.zeros(op.dim),
            matvecs=op.matvec_count - count0, steps=1, step_sizes=[t_final],
            solver="two-pass",
        )
    th_psi, th_sigma = _tolerance_split(cfg.tol, beta_psi, beta_sigma)

    def pass_one(start, kind, threshold, label):
        proc = KrylovProcess(op, start, cap, mode="lanczos3")
        while True:
            proc.step()
            if proc.breakdown:
                return proc.snapshot()
            due = proc.m % interval == 0 or proc.m == cap
            if not due:
                continue
            decomp = proc.snapshot()
            curve = ResidualCurve(decomp, kind)
            res = float(np.max(curve.values(t_final * COARSE_FRACTIONS)))
            log.append(ResidualLogEntry(label, 0, proc.m, 0.0, t_final, res))
            if res <= threshold and confirm_admissible(curve, t_final, threshold):
                return decomp
            if proc.m >= cap:
                raise RuntimeError(
                    f"two-pass Lanczos did not converge within {cap} iterations; "
                    f"last residual {res:.3e} vs threshold {threshold:.3e}"
                )

    def pass_two(start_unit, decomp, kind):
        pos_coeff, vel_coeff = branch_coefficients(
            decomp.spectral_cache(), kind, t_final
        )[0]
        diag, off = decomp.tridiagonal()
        m = decomp.m
        y_acc = pos_coeff[0] * start_unit
        v_acc = vel_coeff[0] * start_unit
        v_prev = np.zeros_like(start_unit)
        v_cur = start_unit
        for i in range(m - 1):
            w = op.apply(v_cur) - diag[i] * v_cur
            if i > 0:
                w -= off[i - 1] * v_prev
            v_prev, v_cur = v_cur, w / off[i]
            y_acc += pos_coeff[i + 1] * v_cur
            v_acc += vel_coeff[i + 1] * v_cur
        return y_acc, v_acc

    y = ivp.u.copy()
    vel = np.zeros(op.dim)
    if beta_psi > 0:
        d_psi = pass_one(w0, ScalarFunKind.PSI, th_psi, "psi")
        w0b = ivp.g - op.apply(ivp.u)  # recomputed: pass one kept no vectors
        y_add, v_add = pass_two(w0b / beta_psi, d_psi, ScalarFunKind.PSI)
        y += y_add
        vel += v_add
    if beta_sigma > 0:
        d_sigma = pass_one(ivp.v, ScalarFunKind.SIGMA, th_sigma, "sigma")
        y_add, v_add = pass_two(ivp.v / beta_sigma, d_sigma, ScalarFunKind.SIGMA)
        y += y_add
        vel += v_add
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
    op = ivp.op
    count0 = op.matvec_count
    block = BlockFirstOrderOperator(op)
    n = op.dim
    g_hat = np.concatenate([np.zeros(n), ivp.g])
    w = np.concatenate([ivp.u, ivp.v])
    t_total = ivp.t_final
    m_cap = min(max(1, cfg.m_max // 2), block.dim)
    step_sizes: list[float] = []
    log: list[ResidualLogEntry] = []
    t_done = 0.0
    cycle = 0
    while t_done < t_total * (1.0 - 1e-14):
        if cycle >= _MAX_CYCLES:
            raise RuntimeError("restart cycle limit exceeded")
        t_rem = t_total - t_done
        r = g_hat - block.apply(w)
        beta = _norm(r)
        if beta == 0.0:
            break
        d, curve, delta, _ = _grow_admissible(
            block, r, ScalarFunKind.PHI, t_rem, cfg.tol * beta, m_cap
        )
        log.append(ResidualLogEntry(
            "phi", cycle, d.m, t_done, t_done + delta,
            float(np.max(curve.values(delta * COARSE_FRACTIONS))),
        ))
        w = w + _branch_updates(d, curve.cache, ScalarFunKind.PHI, [delta])[0, 0]
        step_sizes.append(delta)
        t_done += delta
        cycle += 1
    return SolveReport(
        y=w[:n], v_out=w[n:], matvecs=op.matvec_count - count0, steps=cycle,
        step_sizes=step_sizes, residual_log=log, solver="first-order",
    )


SOLVERS = {
    "rt-sim": rt_simultaneous,
    "rt-seq": rt_sequential,
    "gautschi": gautschi,
    "two-pass": two_pass_lanczos,
    "first-order": rt_first_order_block,
}


def solve(ivp: SecondOrderIVP, cfg: SolverConfig, solver: str = "rt-seq") -> SolveReport:
    """Dispatch to one of the named solvers."""
    try:
        fun = SOLVERS[solver]
    except KeyError:
        raise ValueError(
            f"unknown solver {solver!r}; choose from {sorted(SOLVERS)}"
        ) from None
    return fun(ivp, cfg)
