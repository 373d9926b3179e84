"""Identification of constant effective diffusion matrices from coarse
energy measurements of highly oscillatory diffusion problems."""

from .coefficients import CoefficientField, SymMat, constant_field, \
    mean_over_cell, periodic_smooth_field, sample_checkerboard, scale_epsilon
from .experiments import err_eps_q, err_star, identify_checkerboard, \
    identify_periodic, one_d_profile, sweep
from .homogenization import checkerboard_exact, harmonic_mean_1d, \
    homogenized_matrix
from .identify import CoarseModel, Measurements, NoiseSpec, OptimizerTrace, \
    apply_measurement_noise, descend, identify, me_ms_identity_check, \
    simulate_measurements
from .mesh import TriMesh, build_periodic_cell_mesh, build_unit_square_mesh
from .modes import ModeBasis, affine_modes, choose_p, compute_r_modes
from .solver import CorrectorSolver, NeumannSolver

__version__ = "0.1.0"
