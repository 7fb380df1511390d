"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 6 and 7 are split into an accuracy part and a matvec-ranking part
so that a ranking failure does not mask the accuracy gates.  The Table-3
ranking is checked cell by cell against the order the paper's own counts
report, which differs from the full chain in the anisotropic 10^3, 1e-4
cell.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

import trigkrylov.integrators as integ
from trigkrylov.bounds import (
    bound_input_from_decompositions,
    bound_p3,
    bound_p4,
    bound_prop22,
    bound_prop23,
    bessel_sequence,
    cheb_coeff_psi,
    cheb_coeff_sigma,
    violates,
)
from trigkrylov.integrators import (
    SecondOrderIVP,
    SolverConfig,
    gautschi,
    solve,
)
from trigkrylov.krylov import ResidualCurve, krylov_build
from trigkrylov.linop import DenseOperator
from trigkrylov.problems import (
    build_wave3d,
    exact_ivp_solution,
    isotropic_wave_spec,
    preset,
    tol_used,
)
from trigkrylov.smallfun import (
    ScalarFunKind,
    branch_coefficients,
    cos_sqrt,
    psi,
    sigma,
)

TABLE2 = {  # (grid, tol) -> matvecs for (rt-sim, rt-seq, gautschi, two-pass)
    (10, 1e-4): (60, 47, 47, 98),
    (10, 1e-6): (77, 52, 73, 110),
    (20, 1e-4): (114, 99, 75, 174),
    (20, 1e-6): (139, 110, 85, 186),
}

TABLE3_ACC = {  # reported relative accuracies, same solver order
    (10, 1e-4): (8.6e-4, 9.4e-3, 6.5e-4, 3.4e-4),
    (10, 1e-6): (9.5e-6, 3.4e-5, 2.7e-6, 1.4e-6),
    (20, 1e-4): (5.6e-4, 1.0e-3, 3.9e-4, 4.1e-5),
    (20, 1e-6): (2.6e-6, 7.2e-6, 5.7e-6, 2.1e-6),
}

# Table 3's matvec counts where they contradict the full ranking chain; the
# repository holds only these two for the anisotropic 10^3, 1e-4 cell.
TABLE3_MATVECS = {(10, 1e-4): {"rt-seq": 60, "gautschi": 899}}

TABLE5_FO_512 = 374

SOLVER_ORDER = ("rt-sim", "rt-seq", "gautschi", "two-pass")

#: Matvecs, steps and rel_err of every fixture cell, as last accepted.
GOLDEN_CELLS = Path(__file__).with_name("golden_cells.json")

def _report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status}{(' - ' + detail) if detail else ''}")


def _rel(y, ref):
    return float(np.linalg.norm(y - ref) / np.linalg.norm(ref))


@pytest.fixture(scope="module")
def cell_steps():
    """"<family>/<grid>/<tol>/<solver>" -> steps of each fixture run, filled
    by the cell fixtures (the criteria read only matvecs and rel_err)."""
    return {}


@pytest.fixture(scope="module")
def log_gaps():
    """"<family>/<grid>/<tol>/<solver>" -> matvecs - steps - sum of m over
    the residual log of each fixture run, filled by the cell fixtures."""
    return {}


def _log_gap(rep):
    return rep.matvecs - rep.steps - sum(e.m for e in rep.residual_log)


@pytest.fixture(scope="module")
def rt_seq_logs():
    """"anisotropic/<grid>/<tol>/rt-seq" -> (matvecs, steps, repair events,
    residual log) of each anisotropic rt-seq run, filled by
    ``anisotropic_cells``."""
    return {}


def _fixture_runs(family, grids, solvers, cell_steps, log_gaps):
    """Solve every (grid, tol, solver) cell of a family once, at the
    tolerance its table uses; yields (cell, rel_err, tol_used, report)."""
    for grid in grids:
        build, reference = preset(family, grid)
        ivp = build()
        yref = reference(ivp)
        for tol in (1e-4, 1e-6):
            for solver in solvers:
                tol_cell = tol_used(family, solver, tol)
                rep = solve(ivp, SolverConfig(tol=tol_cell), solver)
                key = f"{family}/{grid}/{tol:g}/{solver}"
                cell_steps[key] = rep.steps
                log_gaps[key] = _log_gap(rep)
                yield (grid, tol, solver), _rel(rep.y, yref), tol_cell, rep


@pytest.fixture(scope="module")
def isotropic_cells(cell_steps, log_gaps):
    """Solve every Table-2 cell once; criteria 5 and 8 share the results."""
    return {cell: (rep.matvecs, rel) for cell, rel, _, rep in
            _fixture_runs("isotropic", (10, 20), SOLVER_ORDER, cell_steps, log_gaps)}


@pytest.fixture(scope="module")
def anisotropic_cells(cell_steps, log_gaps, rt_seq_logs):
    out = {}
    for cell, rel, _, rep in _fixture_runs("anisotropic", (10, 20), SOLVER_ORDER,
                                           cell_steps, log_gaps):
        out[cell] = (rep.matvecs, rel)
        grid, tol, solver = cell
        if solver == "rt-seq":
            rt_seq_logs[f"anisotropic/{grid}/{tol:g}/rt-seq"] = (
                rep.matvecs, rep.steps, rep.repair_events, rep.residual_log)
    return out


@pytest.fixture(scope="module")
def transport_cells(cell_steps, log_gaps):
    return {cell: (rep.matvecs, rel, tol_cell) for cell, rel, tol_cell, rep in
            _fixture_runs("transport", (128, 256, 512),
                          ("rt-seq", "gautschi", "first-order"), cell_steps, log_gaps)}


def test_criterion_1_residual_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    n = 40
    kinds = (ScalarFunKind.PSI, ScalarFunKind.SIGMA, ScalarFunKind.PHI)
    for instance in range(20):
        # Stiff spectra keep all three residuals far above round-off at
        # m = 15, so the 1e-9 relative identity check is meaningful.
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(200.0, 5000.0, n)
        mat = (q * lam) @ q.T
        symmetric = instance % 2 == 0
        if not symmetric:
            skew = rng.standard_normal((n, n))
            mat = mat + 10.0 * (skew - skew.T)
        op = DenseOperator(mat, is_symmetric=symmetric)
        w = rng.standard_normal(n)
        beta = np.linalg.norm(w)
        for m in (3, 8, 15):
            d = krylov_build(op, w, m, reorth=True)
            cache = d.spectral_cache()
            e1 = np.zeros(d.m)
            e1[0] = beta
            t = 0.8
            for kind in kinds:
                u = branch_coefficients(cache, kind, t)[0, 0]
                if kind == ScalarFunKind.PHI:
                    deriv = -d.H_m @ u + e1
                    explicit = -mat @ (d.V_m @ u) + w - d.V_m @ deriv
                else:
                    forcing_e1 = e1 if kind == ScalarFunKind.PSI else np.zeros(d.m)
                    updd = -d.H_m @ u + forcing_e1
                    forcing = w if kind == ScalarFunKind.PSI else 0.0
                    explicit = -mat @ (d.V_m @ u) + forcing - d.V_m @ updd
                formula = -d.h_next * u[-1] * d.V[:, -1]
                denom = max(np.linalg.norm(formula), 1e-12 * beta)
                assert np.linalg.norm(explicit - formula) <= 1e-9 * denom
                y_m = d.V_m @ u
                gal_scale = np.linalg.norm(mat, 2) * np.linalg.norm(y_m) + beta
                assert np.linalg.norm(d.V_m.T @ explicit) <= 1e-8 * gal_scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, True, f"{elapsed:.1f}s")


def test_criterion_2_exactness_suite(monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setattr(integ, "TWO_PASS_CHECK_INTERVAL", 1)
    rng = np.random.default_rng(1002)
    n = 18
    a = rng.standard_normal((n, n))
    mat = a @ a.T / n + 2 * np.eye(n)
    op = DenseOperator(mat, is_symmetric=True)
    ivp = SecondOrderIVP(op, rng.standard_normal(n), rng.standard_normal(n),
                         rng.standard_normal(n), 2.0)
    y_ref, _ = exact_ivp_solution(ivp, 2.0)
    # m = n Krylov solutions are exact
    for solver in ("rt-sim", "rt-seq", "gautschi", "two-pass"):
        cfg = SolverConfig(tol=1e-9, m_max=2 * n)
        rep = solve(ivp, cfg, solver)
        assert _rel(rep.y, y_ref) <= 1e-10, solver
    cfg_block = SolverConfig(tol=1e-9, m_max=4 * n)
    rep = solve(ivp, cfg_block, "first-order")
    assert _rel(rep.y, y_ref) <= 1e-10
    # Gautschi stepping with dense-oracle function evaluations is exact
    lam, qm = np.linalg.eigh(mat)
    act = lambda f, vec: qm @ (f * (qm.T @ vec))
    steps = 5
    delta = ivp.t_final / steps
    d2 = delta * delta
    y = ivp.u.copy()
    v = act(sigma(d2 * lam), ivp.v)
    x = 0.5 * delta * act(psi(d2 * lam), ivp.g - mat @ y)
    for k in range(steps):
        v_half = v + x
        y = y + delta * v_half
        y_exact, _ = exact_ivp_solution(ivp, (k + 1) * delta)
        assert np.linalg.norm(y - y_exact) <= 1e-10 * np.linalg.norm(y_exact)
        x = 0.5 * delta * act(psi(d2 * lam), ivp.g - mat @ y)
        v = v_half + x
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, True, f"{elapsed:.1f}s")


def _unit_interval_bound_checks(rng, times, ms):
    n = 60
    lam = np.sort(rng.uniform(0.0, 1.0, n))
    lam[0], lam[-1] = 0.0, 1.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    op = DenseOperator((q * lam) @ q.T, is_symmetric=True)
    w_psi = rng.standard_normal(n)
    w_psi /= np.linalg.norm(w_psi)
    w_sigma = rng.standard_normal(n)
    w_sigma /= np.linalg.norm(w_sigma)
    failures = []
    for m in ms:
        d_psi = krylov_build(op, w_psi, m)
        d_sigma = krylov_build(op, w_sigma, m)
        c_psi = ResidualCurve(d_psi, ScalarFunKind.PSI)
        c_sigma = ResidualCurve(d_sigma, ScalarFunKind.SIGMA)
        for t in times:
            bi = bound_input_from_decompositions(d_psi, d_sigma, t, "unit-interval")
            total = c_psi.value(t) + c_sigma.value(t)
            hb = max(bi.h_psi * bi.beta_psi, bi.h_sigma * bi.beta_sigma)
            if violates(total, bound_prop22(bi), h=hb, t=t):
                failures.append(("p22", m, t))
            simple, tight = bound_prop23(bi)
            if violates(total, simple, h=hb, t=t) or violates(total, tight, h=hb, t=t):
                failures.append(("p23", m, t))
            if m >= 2 and t <= 1.0:
                if violates(c_sigma.value(t), bound_p3(m, t),
                            h=d_sigma.h_next, beta=d_sigma.beta, t=t):
                    failures.append(("p3", m, t))
                if violates(c_psi.value(t), bound_p4(m, t),
                            h=d_psi.h_next, beta=d_psi.beta, t=t):
                    failures.append(("p4", m, t))
    return failures


def test_criterion_3_bound_suite():
    t0 = time.perf_counter()
    assert bound_p3(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert bound_p4(2, 1.0) == pytest.approx(0.022222222222, rel=1e-9)
    failures = []
    rng = np.random.default_rng(1003)
    for _ in range(3):
        failures += _unit_interval_bound_checks(rng, (0.25, 0.5, 1.0), range(2, 9))
    # general (nonsymmetric) instances against the phi-growth bound
    for k in range(3):
        n, m = 40, 6
        a = rng.standard_normal((n, n))
        mat = a @ a.T / n + 2 * np.eye(n)
        mat += 0.5 * (rng.standard_normal((n, n)) - rng.standard_normal((n, n)).T)
        op = DenseOperator(mat, is_symmetric=False)
        d_psi = krylov_build(op, rng.standard_normal(n), m)
        d_sigma = krylov_build(op, rng.standard_normal(n), m)
        c_psi = ResidualCurve(d_psi, ScalarFunKind.PSI)
        c_sigma = ResidualCurve(d_sigma, ScalarFunKind.SIGMA)
        for t in (0.25, 1.0, 2.5):
            bi = bound_input_from_decompositions(d_psi, d_sigma, t, "general")
            total = c_psi.value(t) + c_sigma.value(t)
            hb = max(bi.h_psi * bi.beta_psi, bi.h_sigma * bi.beta_sigma)
            if violates(total, bound_prop22(bi), h=hb, t=t):
                failures.append(("p22-nonsym", k, t))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(3, ok, f"{elapsed:.1f}s, failures={failures}")
    assert not failures
    assert elapsed < 30.0


def test_criterion_4_chebyshev_bessel_suite():
    t0 = time.perf_counter()
    import mpmath as mp

    def series_oracle(k, t):
        with mp.workdps(60 + 2 * int(t)):
            tt = mp.mpf(t)
            total = mp.mpf(0)
            for i in range(0, 400):
                term = (-1) ** i * (tt / 2) ** (k + 2 * i) / (
                    mp.factorial(i) * mp.factorial(k + i))
                total += term
                if i > 5 and abs(term) < mp.mpf(10) ** (-50) * max(abs(total), 1):
                    break
            return float(total)

    for t in (0.05, 1.0, 13.0, 100.0):
        seq = bessel_sequence(t, 400)
        for k in (0, 1, 7, 60, 400):
            assert abs(seq[k] - series_oracle(k, t)) <= 1e-12

    def quad_coeff(fun, k, n=2000):
        j = np.arange(1, n + 1)
        theta = (2 * j - 1) * np.pi / (2 * n)
        x = (1 + np.cos(theta)) / 2
        return (2.0 / n) * np.sum(fun(x) * np.cos(k * theta))

    for t in (0.5, 2.0, 5.0):
        for k in range(0, 21):
            ref_s = quad_coeff(lambda z: t * sigma(t * t * z), k)
            assert abs(cheb_coeff_sigma(k, t) - ref_s) <= 1e-9
            ref_p = quad_coeff(lambda z: 0.5 * t * t * psi(t * t * z), k)
            assert abs(cheb_coeff_psi(k, t) - ref_p) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, True, f"{elapsed:.1f}s")


def test_criterion_5_table2_reproduction(isotropic_cells):
    t0 = time.perf_counter()
    failures = []
    for (grid, tol), targets in TABLE2.items():
        for solver, target in zip(SOLVER_ORDER, targets):
            matvecs, rel = isotropic_cells[(grid, tol, solver)]
            if not 0.7 * target <= matvecs <= 1.3 * target:
                failures.append((grid, tol, solver, matvecs, target))
            if rel > 1.5 * tol:
                failures.append((grid, tol, solver, "accuracy", rel))
    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(5, ok, f"failures={failures}")
    assert not failures


def test_criterion_6_table3_accuracies(anisotropic_cells):
    failures = []
    for (grid, tol), accs in TABLE3_ACC.items():
        for solver, acc_target in zip(SOLVER_ORDER, accs):
            _, rel = anisotropic_cells[(grid, tol, solver)]
            if rel > 10.0 * acc_target:
                failures.append((grid, tol, solver, rel, acc_target))
    _report(6, not failures, f"accuracy failures={failures}")
    assert not failures


def _table3_links(cell):
    """(faster, relation, slower) links of the matvec order Table 3 reports.

    The full chain is two-pass < gautschi < rt-seq <= rt-sim; where the
    paper's own counts put rt-seq below gautschi, that link is reversed.
    """
    paper = TABLE3_MATVECS.get(cell)
    if paper is not None and paper["rt-seq"] < paper["gautschi"]:
        middle = ("rt-seq", "<", "gautschi")
    else:
        middle = ("gautschi", "<", "rt-seq")
    return [("two-pass", "<", "gautschi"), middle, ("rt-seq", "<=", "rt-sim")]


def test_criterion_6_table3_matvec_ranking(anisotropic_cells):
    failures = []
    for grid in (10, 20):
        for tol in (1e-4, 1e-6):
            mv = {s: anisotropic_cells[(grid, tol, s)][0] for s in SOLVER_ORDER}
            for fast, rel, slow in _table3_links((grid, tol)):
                ok = mv[fast] < mv[slow] if rel == "<" else mv[fast] <= mv[slow]
                if not ok:
                    failures.append((grid, tol, f"{fast} {rel} {slow}", mv))
    _report(6, not failures, f"ranking failures={failures}")
    assert not failures, (
        f"matvec order reported by Table 3 violated: {failures}. Each cell "
        "must follow two-pass < gautschi < rt-seq <= rt-sim, except where "
        "TABLE3_MATVECS records rt-seq below gautschi."
    )


def test_criterion_7_transport_accuracy_and_target(transport_cells):
    failures = []
    for (grid, tol, solver), (matvecs, rel, tol_used) in transport_cells.items():
        if rel > 1.5 * tol_used:
            failures.append((grid, tol, solver, "accuracy", rel, tol_used))
    fo_512 = transport_cells[(512, 1e-4, "first-order")][0]
    if not 0.7 * TABLE5_FO_512 <= fo_512 <= 1.3 * TABLE5_FO_512:
        failures.append((512, 1e-4, "first-order", "matvecs", fo_512))
    _report(7, not failures, f"accuracy/target failures={failures}")
    assert not failures


def test_criterion_7_transport_matvec_ranking(transport_cells):
    failures = []
    for grid in (128, 256, 512):
        for tol in (1e-4, 1e-6):
            gau = transport_cells[(grid, tol, "gautschi")][0]
            seq = transport_cells[(grid, tol, "rt-seq")][0]
            fo = transport_cells[(grid, tol, "first-order")][0]
            if not gau < seq < fo:
                failures.append((grid, tol, dict(gautschi=gau, rtseq=seq,
                                                 firstorder=fo)))
    _report(7, not failures, f"ranking failures={failures}")
    assert not failures, (
        "gautschi < rt-seq < first-order violated in rows "
        f"{failures}. An rt-seq count above first-order usually means psi "
        "rebuilds: the sigma front sits 2-3% before the psi front here, and "
        "a sigma step below the last PSI_STEP_RUNGS rung costs m matvecs "
        "(see the 'rebuild' entries of the residual log)."
    )


def test_sequential_ladder_serves_every_anisotropic20_repair(anisotropic_cells,
                                                            rt_seq_logs):
    # the wave3d-aniso benchmark cell: with rungs only at 0.99-0.96, four
    # sigma steps of 0.61-0.95 of psi's each rebuilt psi (120 matvecs)
    matvecs, steps, repairs, log = rt_seq_logs["anisotropic/20/1e-06/rt-seq"]
    assert repairs >= 1
    assert not [e for e in log if e.phase == "rebuild"]
    # one g - A y per cycle plus one matvec per Krylov step of each entry
    assert matvecs == steps + sum(e.m for e in log)


def test_fixture_cells_match_the_golden_counts(isotropic_cells, anisotropic_cells,
                                              transport_cells, cell_steps):
    """Count-drift gate over every fixture cell.

    A cell fails when its matvecs move by more than max(2, 1%) or its
    rel_err rises by more than 10% against ``golden_cells.json`` (the
    bounds the benchmark puts on counts and accuracy).  Every cell that
    moved at all is printed, with its record as now measured, so that an
    intended change can be copied into the golden file and listed in
    CHANGES.md.
    """
    current = {}
    for family, cells in (("isotropic", isotropic_cells),
                          ("anisotropic", anisotropic_cells),
                          ("transport", transport_cells)):
        for (grid, tol, solver), (matvecs, rel, *_) in cells.items():
            key = f"{family}/{grid}/{tol:g}/{solver}"
            current[key] = {"matvecs": matvecs, "steps": cell_steps[key],
                            "rel_err": rel}
    golden = json.loads(GOLDEN_CELLS.read_text())
    assert current.keys() == golden.keys()
    moved, failures = {}, []
    for key, now in current.items():
        was = golden[key]
        if now != was:
            moved[key] = now
            print(f"moved {key}: {was} -> {now}")
        if abs(now["matvecs"] - was["matvecs"]) > max(2, 0.01 * was["matvecs"]):
            failures.append((key, "matvecs", was["matvecs"], now["matvecs"]))
        if now["rel_err"] > 1.1 * was["rel_err"]:
            failures.append((key, "rel_err", was["rel_err"], now["rel_err"]))
    _report("gate", not failures,
            f"{len(moved)} of {len(current)} cells moved, failures={failures}")
    assert not failures, json.dumps(moved, indent=1)


def test_residual_log_accounts_for_every_fixture_matvec(isotropic_cells,
                                                       anisotropic_cells,
                                                       transport_cells, log_gaps):
    # matvecs = steps + sum of m over the residual log, for all five solvers
    assert len(log_gaps) == 50
    assert {key: gap for key, gap in log_gaps.items() if gap} == {}


def test_criterion_8_substituted_properties(isotropic_cells):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1008)
    failures = []
    # (a) bound suite on the 10^3 wave operator at t in {1, 5, 10}
    spec = isotropic_wave_spec(10)
    ivp = build_wave3d(spec)
    w = ivp.g - ivp.op.apply(ivp.u)
    for m in (4, 8, 16):
        d_psi = krylov_build(ivp.op, w, m)
        d_sigma = krylov_build(ivp.op, ivp.v, m)
        c_psi = ResidualCurve(d_psi, ScalarFunKind.PSI)
        c_sigma = ResidualCurve(d_sigma, ScalarFunKind.SIGMA)
        for t in (1.0, 5.0, 10.0):
            bi = bound_input_from_decompositions(d_psi, d_sigma, t, "spd")
            total = c_psi.value(t) + c_sigma.value(t)
            hb = max(bi.h_psi * bi.beta_psi, bi.h_sigma * bi.beta_sigma)
            if violates(total, bound_prop22(bi), h=hb, t=t):
                failures.append(("p22", m, t))
            simple, tight = bound_prop23(bi)
            if violates(total, simple, h=hb, t=t) or violates(total, tight, h=hb, t=t):
                failures.append(("p23", m, t))
    # (b) doubling the grid at fixed tolerance roughly doubles RT matvecs
    for tol in (1e-4, 1e-6):
        for solver in ("rt-sim", "rt-seq"):
            ratio = (isotropic_cells[(20, tol, solver)][0]
                     / isotropic_cells[(10, tol, solver)][0])
            if not 1.5 <= ratio <= 2.8:
                failures.append(("scaling", solver, tol, round(ratio, 2)))
    # (c) repair-path equivalence to 2*tol
    events = []
    orig = integ._repair_psi_action

    def spy(op, curve, w_vec, delta, delta_tilde, cfg):
        x, steps = orig(op, curve, w_vec, delta, delta_tilde, cfg)
        events.append((w_vec.copy(), delta, x.copy()))
        return x, steps

    n = 40
    lam = np.concatenate([np.linspace(1.0, 4.0, n - 8),
                          np.linspace(900.0, 2500.0, 8)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mat = (q * lam) @ q.T
    op = DenseOperator(mat, is_symmetric=True)
    ivp_r = SecondOrderIVP(op, q[:, :6] @ rng.standard_normal(6),
                           q[:, :4] @ rng.standard_normal(4),
                           q[:, -3:] @ rng.standard_normal(3) * 3.0, 6.0)
    tol = 1e-8
    integ._repair_psi_action = spy
    try:
        rep = gautschi(ivp_r, SolverConfig(tol=tol, m_max=8))
    finally:
        integ._repair_psi_action = orig
    if rep.repair_events < 1:
        failures.append(("no-repair-triggered",))
    for w_vec, delta, x in events:
        # delta/2 psi(delta^2 A) w is y(delta)/delta of y'' = -A y + w from rest
        rest = SecondOrderIVP(op, np.zeros(n), np.zeros(n), w_vec, delta)
        x_exact = exact_ivp_solution(rest, delta)[0] / delta
        if np.linalg.norm(x - x_exact) > 2 * tol * np.linalg.norm(w_vec):
            failures.append(("repair-equivalence", delta))
    elapsed = time.perf_counter() - t0
    _report(8, not failures, f"{elapsed:.1f}s failures={failures}")
    assert not failures


def test_criterion_9_finite_difference_derivatives():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1009)
    for _ in range(10):
        n = 6
        a = rng.standard_normal((n, n))
        mat = a @ a.T / n + np.eye(n)
        lam, q = np.linalg.eigh(mat)
        w = rng.standard_normal(n)
        act = lambda f, vec: q @ (f * (q.T @ vec))
        t, h = rng.uniform(0.3, 1.2), 1e-5
        pos = lambda s: 0.5 * s * s * act(psi(s * s * lam), w)
        vel = lambda s: s * act(sigma(s * s * lam), w)
        # first derivatives
        d_pos = (pos(t + h) - pos(t - h)) / (2 * h)
        ref1 = vel(t)
        assert np.linalg.norm(d_pos - ref1) <= 1e-5 * max(np.linalg.norm(ref1), 1)
        d_vel = (vel(t + h) - vel(t - h)) / (2 * h)
        ref2 = act(cos_sqrt(t * t * lam), w)
        assert np.linalg.norm(d_vel - ref2) <= 1e-5 * max(np.linalg.norm(ref2), 1)
        # second derivative of the position action
        h2 = 1e-4
        d2 = (pos(t - h2) - 2 * pos(t) + pos(t + h2)) / h2**2
        assert np.linalg.norm(d2 - ref2) <= 1e-5 * max(np.linalg.norm(ref2), 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(9, True, f"{elapsed:.1f}s")
