"""P1 finite elements for pure-Neumann diffusion problems.

The pure-Neumann singularity is removed by a single scalar Lagrange
multiplier enforcing zero boundary mean, matching the continuous
normalization of the solution space.  Coefficients are sampled once per
triangle at the barycenter (one-point quadrature), which is exact for
piecewise-constant checkerboard fields on aligned meshes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import CoefficientField, SymMat, constant_field
from .mesh import TriMesh, boundary_mass_matrix


def triangle_geometry(mesh: TriMesh):
    """Areas, P1 shape gradients and barycenters for every triangle."""
    p = mesh.nodes[mesh.triangles]  # (M, 3, 2)
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    if np.any(areas <= 0.0):
        raise ValueError("mesh contains non-positively oriented triangles")

    # grad phi_k = rot90(opposite edge) / (2 |T|)
    grads = np.empty((p.shape[0], 3, 2))
    for k in range(3):
        a = p[:, (k + 1) % 3]
        b = p[:, (k + 2) % 3]
        grads[:, k, 0] = a[:, 1] - b[:, 1]
        grads[:, k, 1] = b[:, 0] - a[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    barycenters = p.mean(axis=1)
    return areas, grads, barycenters


def assemble_stiffness(mesh: TriMesh, field: CoefficientField) -> sp.csr_matrix:
    """Stiffness matrix with the coefficient sampled at barycenters."""
    areas, grads, bary = triangle_geometry(mesh)
    amat = field(bary)  # (M, 2, 2)
    # local k_ab = |T| * grad_a . A grad_b
    ag = np.einsum("tij,tbj->tbi", amat, grads)
    local = np.einsum("tai,tbi->tab", grads, ag) * areas[:, None, None]

    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    k = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.num_nodes, mesh.num_nodes))
    return k.tocsr()


def assemble_volume_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix of L^2((0,1)^2)."""
    areas, _, _ = triangle_geometry(mesh)
    local = np.full((areas.shape[0], 3, 3), 1.0 / 12.0)
    local[:, np.arange(3), np.arange(3)] = 1.0 / 6.0
    local *= areas[:, None, None]

    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    m = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.num_nodes, mesh.num_nodes))
    return m.tocsr()


def element_gradients(mesh: TriMesh, u: np.ndarray) -> np.ndarray:
    """Per-triangle gradient of a P1 field, shape (M, 2)."""
    _, grads, _ = triangle_geometry(mesh)
    return np.einsum("tki,tk->ti", grads, u[mesh.triangles])


class NeumannSolver:
    """Factorized solver for -div(A grad u) = 0 with flux data on one mesh.

    The factorization is computed once and reused across right-hand sides.
    Boundary data live on boundary-loop degrees of freedom and must have
    zero boundary mean.
    """

    def __init__(self, mesh: TriMesh, field: CoefficientField):
        self.mesh = mesh
        self.field = field
        self.boundary_mass = boundary_mass_matrix(mesh)
        self.stiffness = assemble_stiffness(mesh, field)

        nb = mesh.num_boundary_dofs
        c = np.zeros(mesh.num_nodes)
        c[mesh.boundary_loop] = self.boundary_mass @ np.ones(nb)
        self._constraint = c

        system = sp.bmat(
            [[self.stiffness, c[:, None]], [c[None, :], None]],
            format="csc",
        )
        self._lu = spla.splu(system)

    def _boundary_load(self, g: np.ndarray) -> np.ndarray:
        b = np.zeros(self.mesh.num_nodes)
        b[self.mesh.boundary_loop] = self.boundary_mass @ g
        return b

    def solve(self, g: np.ndarray, check_mean: bool = True) -> np.ndarray:
        """Nodal solution with zero boundary mean; g over boundary DOFs."""
        mean = float(self._constraint[self.mesh.boundary_loop] @ g)
        if check_mean and abs(mean) > 1e-10 * (np.linalg.norm(g) + 1e-300):
            raise ValueError(
                f"boundary datum has nonzero boundary mean ({mean:.3e}); "
                "the pure-Neumann problem is incompatible")
        rhs = np.concatenate([self._boundary_load(g), [0.0]])
        x = self._lu.solve(rhs)
        return x[:-1]

    def trace(self, u: np.ndarray) -> np.ndarray:
        return u[self.mesh.boundary_loop]

    def energy(self, g: np.ndarray, u: np.ndarray) -> float:
        """Stored energy -1/2 <g, u|boundary> in the boundary mass product."""
        return -0.5 * float(g @ (self.boundary_mass @ self.trace(u)))

    def solve_energy(self, g: np.ndarray) -> tuple[np.ndarray, float]:
        u = self.solve(g)
        return u, self.energy(g, u)


def energy(mesh: TriMesh, g: np.ndarray, u: np.ndarray) -> float:
    """Stored energy of a precomputed solution (free-function form)."""
    if u.shape[0] != mesh.num_nodes:
        raise ValueError("solution vector does not match the mesh")
    mb = boundary_mass_matrix(mesh)
    return -0.5 * float(g @ (mb @ u[mesh.boundary_loop]))


@dataclass
class CorrectorSolution:
    values: np.ndarray   # nodal values on the full (n+1)^2 grid
    reduced: np.ndarray  # values on the n^2 independent DOFs
    direction: np.ndarray


def _periodic_reduction(mesh: TriMesh) -> sp.csr_matrix:
    ndof = mesh.num_periodic_dofs
    rows = np.arange(mesh.num_nodes)
    cols = mesh.dof_of_node
    data = np.ones(mesh.num_nodes)
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(mesh.num_nodes, ndof)).tocsr()


class CorrectorSolver:
    """Periodic cell solver sharing one factorization across directions."""

    def __init__(self, cell_mesh: TriMesh, field: CoefficientField):
        if cell_mesh.dof_of_node is None:
            raise ValueError("corrector problems need a periodic cell mesh")
        if field.kind not in ("constant", "periodic_analytic"):
            raise ValueError(
                f"corrector solver expects a periodic or constant field, "
                f"got {field.kind!r}")
        self.mesh = cell_mesh
        self.field = field
        self.reduction = _periodic_reduction(cell_mesh)

        areas, grads, bary = triangle_geometry(cell_mesh)
        self._areas = areas
        self._grads = grads
        self._amat = field(bary)

        k_full = assemble_stiffness(cell_mesh, field)
        k_red = (self.reduction.T @ k_full @ self.reduction).tocsr()

        # zero cell average via one multiplier; weights = lumped mass
        w_full = np.zeros(cell_mesh.num_nodes)
        np.add.at(w_full, cell_mesh.triangles.ravel(),
                  np.repeat(areas / 3.0, 3))
        w = self.reduction.T @ w_full
        system = sp.bmat([[k_red, w[:, None]], [w[None, :], None]],
                         format="csc")
        try:
            self._lu = spla.splu(system)
        except RuntimeError as exc:  # pragma: no cover - non-coercive input
            raise ValueError(f"singular corrector assembly: {exc}") from exc

    def solve(self, p) -> CorrectorSolution:
        p = np.asarray(p, dtype=float)
        # rhs_a = -sum_T |T| grad phi_a . (A p)
        ap = np.einsum("tij,j->ti", self._amat, p)
        local = -np.einsum("tai,ti->ta", self._grads, ap) * self._areas[:, None]
        f_full = np.zeros(self.mesh.num_nodes)
        np.add.at(f_full, self.mesh.triangles.ravel(), local.ravel())
        rhs = np.concatenate([self.reduction.T @ f_full, [0.0]])
        x = self._lu.solve(rhs)
        reduced = x[:-1]
        return CorrectorSolution(values=self.reduction @ reduced,
                                 reduced=reduced, direction=p)


def solve_corrector(cell_mesh: TriMesh, field: CoefficientField,
                    p) -> CorrectorSolution:
    return CorrectorSolver(cell_mesh, field).solve(p)


def constant_solver(mesh: TriMesh, m: SymMat) -> NeumannSolver:
    if not m.is_spd():
        raise ValueError(f"coefficient {m} is not positive definite")
    return NeumannSolver(mesh, constant_field(m))
