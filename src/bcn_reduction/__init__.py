"""Quantum Hamiltonian reduction of the U(N) Laplacian to BC_n Sutherland form.

Numerical verification engine for three families of two-sided symmetry
reductions of the Laplace operator on U(N).  For each admissible choice of
representation parameters the reduced radial operator is certified, at desk
scale, to equal the trigonometric BC_n Sutherland Hamiltonian with integer
couplings (a, b, c) plus an explicit additive constant.
"""

from .algebra import (
    AlcoveError,
    AlgebraPair,
    Scheme,
    factor_split,
    inner_y,
    pair_inner,
    radial_embed,
    radial_exp,
)
from .fock import FockSpace, fock_space, gl_action
from .polar import (
    BasisLabel,
    KPerpBasis,
    RootSeries,
    build_kperp_basis,
    build_m_basis,
    inertia_eigenvalues,
    inertia_matrix,
    log_density,
    log_laplacian_fd,
    measure_factor,
    sample_alcove,
    sutherland_rhs,
)
from .reduction import (
    CaseIParams,
    CaseIIParams,
    CaseIIIParams,
    Couplings,
    KKSParams,
    MuParams,
    RawParams,
    SpinContraction,
    VKResult,
    attainable_couplings,
    bc_potential,
    case1_spin_closed,
    couplings,
    enumerate_grid,
    mu_params,
    scheme_for,
    verify_reduction,
    vk_bruteforce,
    vk_predicted,
)

__version__ = "0.1.0"
