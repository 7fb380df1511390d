"""Matrix-free Krylov solvers for oscillatory second-order ODE systems.

Integrates y'' = -A y + g via the trigonometric matrix functions

    psi(z) = 2 (1 - cos sqrt(z)) / z,    sigma(z) = sin(sqrt(z)) / sqrt(z),

using residual-time restarting, a Gautschi cosine scheme with
residual-based step size selection, two-pass Lanczos and a first-order
block baseline, together with a-priori residual bounds and benchmark
problem generators.
"""
from .linop import (
    BlockFirstOrderOperator,
    DenseOperator,
    KroneckerSum3D,
    LinearOperator,
    SparseCSR,
    assemble_dense,
    read_matrix_market,
)
from .smallfun import (
    ScalarFunKind,
    SpectralCache,
    cos_sqrt,
    phi,
    psi,
    scalar_fun,
    sigma,
)
from .krylov import (
    KrylovDecomposition,
    KrylovProcess,
    ResidualCurve,
    coarse_residual_check,
    find_largest_admissible_step,
    krylov_build,
)
from .integrators import (
    SecondOrderIVP,
    SolveReport,
    SolverConfig,
    gautschi,
    rt_first_order_block,
    rt_sequential,
    rt_simultaneous,
    solve,
    two_pass_lanczos,
)
from .bounds import (
    BoundInput,
    bound_p3,
    bound_p4,
    bound_prop22,
    bound_prop23,
    cheb_coeff_psi,
    cheb_coeff_sigma,
)
from .problems import (
    TransportProblemSpec,
    WaveProblemSpec,
    anisotropic_wave_spec,
    build_transport,
    build_wave3d,
    exact_ivp_solution,
    isotropic_wave_spec,
    reference_solution,
    spectral_reference_wave3d,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
