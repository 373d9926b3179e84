"""Reference homogenized matrices: corrector-based, 1D analytic, and the
known checkerboard value."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .coefficients import CoefficientField, SymMat
from .mesh import TriMesh
from .solver import CorrectorSolver


def homogenized_matrix(cell_mesh: TriMesh, field: CoefficientField) -> SymMat:
    """Corrector-based homogenized matrix on the periodic cell.

    A* xi . xi is the least cell energy of A (xi + grad w) . (xi + grad w)
    over periodic w, attained at the corrector (Bensoussan, Lions &
    Papanicolaou, Asymptotic Analysis for Periodic Structures, 1978).  With
    the P1 correctors w_i of the solver's loads f_i this is
    A*_ij = <A>_ij - w_i . f_j, in the stiffness's one-point quadrature.
    """
    solver = CorrectorSolver(cell_mesh, field)
    w = solver.solve(np.eye(2))
    return SymMat.from_array(solver.mean_matrix - w @ solver.loads.T)


def harmonic_mean_1d(a: Callable[[np.ndarray], np.ndarray],
                     quad_points: int = 10_000) -> float:
    """(int_0^1 1/a)^{-1} by composite midpoint quadrature."""
    xs = (np.arange(quad_points) + 0.5) / quad_points
    vals = np.asarray(a(xs), dtype=float)
    if np.any(vals <= 0.0):
        raise ValueError("coefficient is not bounded below by a positive "
                         "constant on the quadrature grid")
    return float(1.0 / np.mean(1.0 / vals))


def checkerboard_exact() -> SymMat:
    """The two-phase {4, 16} checkerboard homogenizes to sqrt(4*16) Id."""
    return SymMat.identity(8.0)
