import numpy as np
import pytest
import scipy.fft

from trigkrylov import smallfun
from trigkrylov.integrators import SolverConfig, rt_sequential
from trigkrylov.krylov import krylov_build
from trigkrylov.linop import assemble_dense, dirichlet_laplacian_1d
from trigkrylov.problems import (
    TransportProblemSpec,
    WaveProblemSpec,
    anisotropic_wave_spec,
    build_transport,
    build_wave3d,
    isotropic_wave_spec,
    reference_solution,
    spectral_reference_wave3d,
)
from trigkrylov.smallfun import exact_ivp_solution


def test_wave_2x2x2_matches_hand_assembly():
    spec = WaveProblemSpec(2, 2, 2, 1.0, 1.0, 1.0, "isotropic-poly", 1.0)
    ivp = build_wave3d(spec)
    lap = dirichlet_laplacian_1d(2)
    eye = np.eye(2)
    dense = (
        np.kron(np.kron(lap, eye), eye)
        + np.kron(np.kron(eye, lap), eye)
        + np.kron(np.kron(eye, eye), lap)
    )
    np.testing.assert_allclose(assemble_dense(ivp.op), dense, atol=1e-12)


def test_wave_initial_sample_value():
    # u0(h, h, h) with n = 3, h = 1/4: (3/4)^3 (15/16)^2
    spec = WaveProblemSpec(3, 3, 3, 1.0, 1.0, 1.0, "isotropic-poly", 1.0)
    ivp = build_wave3d(spec)
    expected = (0.75**3) * (15.0 / 16.0) ** 2
    assert ivp.u[0] == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(0.370788, abs=1e-6)  # 6075/16384
    np.testing.assert_allclose(ivp.v, np.ones(27))
    np.testing.assert_allclose(ivp.g, np.zeros(27))


def test_anisotropic_mode_coefficients():
    # In the sine eigenbasis the velocity coefficient of mode (i,j,k) is
    # lambda_ijk = pi^2 (i^2 kx + j^2 ky + k^2 kz) times the position one.
    spec = anisotropic_wave_spec(5)
    ivp = build_wave3d(spec)
    u = ivp.u.reshape(5, 5, 5)
    v = ivp.v.reshape(5, 5, 5)
    uh = scipy.fft.dstn(u, type=1)
    vh = scipy.fft.dstn(v, type=1)
    for (i, j, k) in ((1, 1, 1), (2, 3, 1), (3, 3, 3)):
        lam = np.pi**2 * (i * i * 1e4 + j * j * 1e2 + k * k * 1.0)
        ratio = vh[k - 1, j - 1, i - 1] / uh[k - 1, j - 1, i - 1]
        assert ratio == pytest.approx(lam, rel=1e-12)
    # modes above 3 are absent
    assert abs(uh[4, 0, 0]) <= 1e-9 * np.abs(uh).max()


def test_wave_operator_positive_definite():
    for spec in (isotropic_wave_spec(3), anisotropic_wave_spec(3)):
        ivp = build_wave3d(spec)
        lam_min = np.linalg.eigvalsh(assemble_dense(ivp.op)).min()
        assert lam_min > 0
        d = krylov_build(ivp.op, ivp.u, 5)
        assert np.linalg.eigvalsh(d.H_m).min() > 0


def test_transport_stencil_row():
    spec = TransportProblemSpec(8, c=0.3, alpha=1.0)
    ivp = build_transport(spec)
    a_mat = assemble_dense(ivp.op)
    h = 1.0 / 9.0
    c, alpha = 0.3, 1.0
    row = a_mat[3, 2:5]
    np.testing.assert_allclose(
        row,
        [-c * c / h**2 + c * alpha / h,
         2 * c * c / h**2 - alpha * alpha,
         -c * c / h**2 - c * alpha / h],
        rtol=1e-14,
    )
    assert not ivp.op.is_symmetric


def test_transport_gaussian_peak_on_grid():
    spec = TransportProblemSpec(9)  # x_5 = 0.5 is a grid point
    ivp = build_transport(spec)
    assert ivp.u[4] == pytest.approx(1.0, rel=1e-15)


def test_transport_velocity_variants():
    printed = build_transport(TransportProblemSpec(16, velocity="as-printed"))
    charac = build_transport(TransportProblemSpec(16, velocity="characteristic"))
    # both share -alpha*u0; printed adds +u0', characteristic adds -c u0'
    diff = printed.v - charac.v
    h = 1.0 / 17.0
    x = h * np.arange(1, 17)
    u0 = np.exp(-500.0 * (x - 0.5) ** 2)
    d = (np.roll(u0, -1) - np.roll(u0, 1)) / (2 * h)
    d[0] = u0[1] / (2 * h)
    d[-1] = -u0[-2] / (2 * h)
    np.testing.assert_allclose(diff, (1 + 0.3) * d, rtol=1e-12, atol=1e-12)


def test_transport_symmetric_part_shift_bound():
    # The symmetric part is c^2 L - alpha^2 I, never below -alpha^2.
    spec = TransportProblemSpec(64)
    ivp = build_transport(spec)
    a_mat = assemble_dense(ivp.op)
    sym = (a_mat + a_mat.T) / 2
    lam_min = np.linalg.eigvalsh(sym).min()
    assert lam_min >= -spec.alpha**2
    assert lam_min == pytest.approx(
        spec.c**2 * np.pi**2 - spec.alpha**2, rel=1e-2)


def test_transport_condition_number_order():
    spec = TransportProblemSpec(512)
    ivp = build_transport(spec)
    kappa = np.linalg.cond(assemble_dense(ivp.op))
    assert 1.7e4 <= kappa <= 1.7e6  # order of magnitude 1.7e5


def test_spectral_reference_initial_conditions():
    spec = isotropic_wave_spec(4)
    ivp = build_wave3d(spec)
    y0, v0 = spectral_reference_wave3d(spec, 0.0)
    np.testing.assert_allclose(y0, ivp.u, atol=1e-13)
    np.testing.assert_allclose(v0, ivp.v, atol=1e-13)


def test_spectral_reference_single_mode_cosine():
    n = 6
    spec = WaveProblemSpec(n, n, n, 1.0, 1.0, 1.0, "isotropic-poly", 1.0)
    h = 1.0 / (n + 1)
    x = h * np.arange(1, n + 1)
    mode = np.sin(2 * np.pi * x)
    u = (mode[:, None, None] * np.sin(np.pi * x)[None, :, None]
         * np.sin(np.pi * x)[None, None, :])
    lam = sum((2.0 / h**2) * (1 - np.cos(p * np.pi * h)) for p in (2, 1, 1))
    ivp = build_wave3d(spec)
    ivp.u[:] = u.ravel()
    ivp.v[:] = 0.0
    # propagate by hand: pure cosine in this eigenmode
    import trigkrylov.problems as pbm

    saved = pbm._initial_fields
    pbm._initial_fields = lambda s: (u, np.zeros_like(u))
    try:
        for t in (0.3, 0.9):
            y, _ = spectral_reference_wave3d(spec, t)
            np.testing.assert_allclose(
                y, np.cos(np.sqrt(lam) * t) * u.ravel(), atol=1e-12)
    finally:
        pbm._initial_fields = saved


def test_spectral_reference_matches_dense():
    spec = isotropic_wave_spec(3)
    ivp = build_wave3d(spec)
    y_s, v_s = spectral_reference_wave3d(spec, 1.0)
    y_d, v_d = exact_ivp_solution(ivp, 1.0)
    assert np.linalg.norm(y_s - y_d) <= 1e-10 * np.linalg.norm(y_d)
    assert np.linalg.norm(v_s - v_d) <= 1e-10 * max(np.linalg.norm(v_d), 1)


def test_spectral_reference_cap():
    spec = isotropic_wave_spec(50)
    with pytest.raises(ValueError, match="cap"):
        spectral_reference_wave3d(spec, 1.0)


def test_spectral_reference_uses_none_of_the_solver_functions(monkeypatch):
    # the wave ground truth must not share psi, sigma or cos with the solvers
    def forbidden(z):
        raise AssertionError("spectral reference called a solver function")

    spec = anisotropic_wave_spec(6)
    y, yp = spectral_reference_wave3d(spec, 1.0)
    for name in ("psi", "sigma", "cos_sqrt"):
        monkeypatch.setattr(smallfun, name, forbidden)
    y_free, yp_free = spectral_reference_wave3d(spec, 1.0)
    assert np.array_equal(y_free, y) and np.array_equal(yp_free, yp)


def test_reference_methods_cross_check():
    spec = isotropic_wave_spec(6)
    ivp = build_wave3d(spec)
    y_dense, _ = reference_solution(ivp, "dense")
    y_spec, _ = reference_solution(ivp, "spectral", spec)
    y_tight, _ = reference_solution(ivp, "tight-tolerance")
    scale = np.linalg.norm(y_dense)
    assert np.linalg.norm(y_dense - y_spec) <= 1e-8 * scale
    assert np.linalg.norm(y_dense - y_tight) <= 1e-8 * scale


def test_reference_transport_dense_vs_tight():
    ivp = build_transport(TransportProblemSpec(64))
    y_dense, _ = reference_solution(ivp, "dense")
    y_tight, _ = reference_solution(ivp, "tight-tolerance")
    assert np.linalg.norm(y_dense - y_tight) <= 1e-8 * np.linalg.norm(y_dense)


def test_grid_refinement_sanity():
    # center-point value converges as the grid refines (odd n keeps 0.5 on grid)
    vals = []
    for n in (7, 15, 31):
        spec = isotropic_wave_spec(n)
        y, _ = spectral_reference_wave3d(spec, 1.0)
        c = (n - 1) // 2
        vals.append(y.reshape(n, n, n)[c, c, c])
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


def test_anisotropic_solver_accuracy_small():
    spec = anisotropic_wave_spec(6)
    ivp = build_wave3d(spec)
    report = rt_sequential(ivp, SolverConfig(tol=1e-8))
    y_ref, _ = spectral_reference_wave3d(spec, 1.0)
    assert np.linalg.norm(report.y - y_ref) <= 1e-6 * np.linalg.norm(y_ref)


def test_spec_validation():
    with pytest.raises(ValueError):
        WaveProblemSpec(1, 4, 4)
    with pytest.raises(ValueError):
        WaveProblemSpec(4, 4, 4, ic="bogus")
    with pytest.raises(ValueError):
        TransportProblemSpec(2)
    with pytest.raises(ValueError):
        TransportProblemSpec(16, velocity="bogus")
