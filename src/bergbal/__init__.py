"""Numerical laboratory for balanced metrics and Bergman kernels on the line bundle O(1) over P^1."""

from .model import (
    Quadrature, GridFunction, RadialPotential, PositivityError,
    make_fs_potential, make_perturbed_potential, translate_potential,
    integrate, scalar_curvature, laplacian_apply, hamiltonian_moment,
    lichnerowicz_apply, default_window,
)
from .bergman import (
    GramDiagonal, BergmanReport, WindowError, DegenerateFitError,
    section_norms, bergman_kernel, c_of_m, beta, expansion_fit,
    weighted_bergman, c_weighted, beta_weighted, beta_report, beta_at,
    kernel_at, gram_derivative, bergman_derivative,
)
from .solvers import (
    SolverOptions, BalanceResult, FamilyReport, tk_iterate,
    newton_balance, t_balance, balanced_family, uniqueness_probe,
)
from .circle import (
    CircleSample, PartitionPair, fourier_coefficient, make_partition,
    entire_extension, integer_consistency_report,
)

__version__ = "0.1.0"
