"""P1 finite elements for pure-Neumann and periodic diffusion problems.

Both problems have the constants as kernel.  Every solve goes through one
factorization path, ``PinnedLU``: one node is pinned to zero, the others are
factored in George's nested-dissection order of the structured grid with
diagonal pivots, and the zero boundary mean (Neumann) or zero cell average
(corrector) is restored by subtracting a constant, which matches the
continuous normalization of the solution space.  Coefficients are sampled
once per triangle at the barycenter (one-point quadrature), which is exact
for piecewise-constant checkerboard fields on aligned meshes.

Work that does not depend on the coefficient is done once per grid size n,
since the nodes and triangles of both mesh builders depend on n alone: the
elimination order, the boundary mass and constraint, and the stiffnesses of
the three unit coefficients, from which a constant coefficient's stiffness
is a linear combination.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import CoefficientField
from .mesh import TriMesh, boundary_mass_matrix, build_unit_square_mesh


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


def _assemble(mesh: TriMesh, amat: np.ndarray, areas: np.ndarray,
              grads: np.ndarray) -> sp.csr_matrix:
    """Stiffness of per-triangle coefficients amat, shape (M, 2, 2)."""
    # local k_ab = |T| * grad_a . A grad_b
    ag = np.einsum("tij,tbj->tbi", amat, grads)
    local = np.einsum("tai,tbi->tab", grads, ag) * areas[:, None, None]

    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    k = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.num_nodes, mesh.num_nodes))
    return k.tocsr()


@functools.lru_cache(maxsize=2)
def unit_stiffnesses(n: int) -> tuple[sp.csr_matrix, ...]:
    """Stiffnesses K11, K12, K22 of the coefficients E11, E12 + E21 and E22
    on the n-grid; a constant A has a11 K11 + a12 K12 + a22 K22."""
    mesh = build_unit_square_mesh(n)
    areas, grads, _ = triangle_geometry(mesh)
    units = ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
             [[0.0, 0.0], [0.0, 1.0]])
    return tuple(_assemble(mesh, np.broadcast_to(u, (areas.shape[0], 2, 2)),
                           areas, grads) for u in units)


def assemble_stiffness(mesh: TriMesh, field: CoefficientField) -> sp.csr_matrix:
    """Stiffness matrix with the coefficient sampled at barycenters.

    A constant coefficient A gives a11 K11 + a12 K12 + a22 K22 from the
    cached unit stiffnesses of the grid size.
    """
    if field.kind == "constant":
        a = field(np.zeros((1, 2)))[0]
        k11, k12, k22 = unit_stiffnesses(mesh.n)
        return a[0, 0] * k11 + a[0, 1] * k12 + a[1, 1] * k22
    areas, grads, bary = triangle_geometry(mesh)
    return _assemble(mesh, field(bary), areas, grads)


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


# blocks this small are ordered row by row
_ND_LEAF = 4


def nested_dissection(nx: int, ny: int, periodic: bool = False) -> np.ndarray:
    """Nested-dissection order of the nodes i + j * nx of an nx-by-ny grid.

    A. George, "Nested dissection of a regular finite element mesh", SIAM
    J. Numer. Anal. 10(2), 1973.  A block is split by its middle grid line
    across the longer side; the two halves come first and the line last.
    One grid line separates the stencil of the diagonal triangulation,
    whose neighbours differ by at most one in each index.  With
    ``periodic`` (wraparound in both directions) the lines j = 0 and
    i = 0 cut the torus open and come last.
    """
    grid = np.arange(nx * ny).reshape(ny, nx)  # grid[j, i]
    parts = []

    def dissect(block):
        h, w = block.shape
        if h * w <= _ND_LEAF:
            parts.append(block.ravel())
        elif w >= h:
            dissect(block[:, :w // 2])
            dissect(block[:, w // 2 + 1:])
            parts.append(block[:, w // 2])
        else:
            dissect(block[:h // 2])
            dissect(block[h // 2 + 1:])
            parts.append(block[h // 2])

    if periodic:
        dissect(grid[1:, 1:])
        parts += [grid[0, 1:], grid[:, 0]]
    else:
        dissect(grid)
    return np.concatenate(parts)


class PinnedLU:
    """Sparse LU of a stiffness K whose kernel is the constants.

    Solutions are normalized by ``weights @ u = 0``.  The last node of
    ``order`` is pinned to zero and the others are factored in that order
    with diagonal pivots (for a coercive coefficient, K without the pinned
    node is symmetric positive definite).  A load b is first made
    compatible, b - weights * sum(b) / sum(weights), the load a Lagrange
    multiplier for the constraint would leave; the pinned solution is then
    shifted by a constant.  A load of shape (nodes, k) is k loads, solved
    at once and shifted column by column.
    """

    def __init__(self, k: sp.spmatrix, order: np.ndarray,
                 weights: np.ndarray):
        self._free = order[:-1]
        self._weights = weights
        self._lu = spla.splu(k[self._free][:, self._free].tocsc(),
                             permc_spec="NATURAL", diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})
        self.nnz = self._lu.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        w, free = self._weights, self._free
        w_free = w[free].reshape((-1,) + (1,) * (b.ndim - 1))
        # column-major, the layout SuperLU solves in, so u.T is contiguous
        u = np.zeros(b.shape, order="F")
        u[free] = self._lu.solve(b[free] - w_free * (b.sum(axis=0) / w.sum()))
        u -= (w @ u) / w.sum()
        return u


@functools.lru_cache(maxsize=2)
def _neumann_setup(n: int):
    """Boundary mass, constraint weights and node order of the n-grid."""
    mesh = build_unit_square_mesh(n)
    mass = boundary_mass_matrix(mesh)
    c = np.zeros(mesh.num_nodes)
    c[mesh.boundary_loop] = mass @ np.ones(mesh.num_boundary_dofs)
    order = nested_dissection(n + 1, n + 1)
    c.flags.writeable = order.flags.writeable = False
    return mass, c, order


class NeumannSolver:
    """Factorized solver for -div(A grad u) = 0 with flux data on one mesh.

    The factorization is computed once and reused across right-hand sides.
    Boundary data live on boundary-loop degrees of freedom and must have
    zero boundary mean; a datum of shape (nb, k) is k data, solved at once.
    Raises ValueError for a field that is not coercive (alpha <= 0).
    """

    def __init__(self, mesh: TriMesh, field: CoefficientField):
        if field.alpha <= 0.0:
            raise ValueError(f"coefficient field is not coercive "
                             f"(alpha = {field.alpha})")
        self.mesh = mesh
        self.field = field
        self.boundary_mass, self._constraint, order = _neumann_setup(mesh.n)
        self.stiffness = assemble_stiffness(mesh, field)
        self._lu = PinnedLU(self.stiffness, order, self._constraint)

    def _boundary_load(self, g: np.ndarray) -> np.ndarray:
        b = np.zeros((self.mesh.num_nodes,) + g.shape[1:])
        b[self.mesh.boundary_loop] = self.boundary_mass @ g
        return b

    def solve(self, g: np.ndarray, check_mean: bool = True) -> np.ndarray:
        """Nodal solution with zero boundary mean; g over boundary DOFs."""
        mean = self._constraint[self.mesh.boundary_loop] @ g
        bad = np.abs(mean) > 1e-10 * (np.linalg.norm(g, axis=0) + 1e-300)
        if check_mean and np.any(bad):
            raise ValueError(
                f"boundary datum has nonzero boundary mean "
                f"({np.max(np.abs(mean)):.3e}); the pure-Neumann problem "
                "is incompatible")
        return self.solve_load(self._boundary_load(g))

    def solve_load(self, b: np.ndarray) -> np.ndarray:
        """Nodal solution with zero boundary mean for a nodal load b.

        The load's constant component is removed first, so the map is the
        symmetric pseudo-inverse of the stiffness on that space.
        """
        return self._lu.solve(b)

    def trace(self, u: np.ndarray) -> np.ndarray:
        return u[self.mesh.boundary_loop]

    def energy(self, g: np.ndarray, u: np.ndarray) -> float:
        """Stored energy -1/2 <g, u|boundary> in the boundary mass product."""
        return -0.5 * float(g @ (self.boundary_mass @ self.trace(u)))


@dataclass
class CorrectorSolution:
    values: np.ndarray   # nodal values on the full (n+1)^2 grid
    reduced: np.ndarray  # values on the n^2 independent DOFs


def _periodic_reduction(mesh: TriMesh) -> sp.csr_matrix:
    ndof = mesh.num_periodic_dofs
    rows = np.arange(mesh.num_nodes)
    cols = mesh.dof_of_node
    data = np.ones(mesh.num_nodes)
    return sp.coo_matrix((data, (rows, cols)),
                         shape=(mesh.num_nodes, ndof)).tocsr()


class CorrectorSolver:
    """Periodic cell solver sharing one factorization across directions.

    ``loads[i]`` is the reduced load of the corrector in direction e_i,
    -sum_T |T| grad phi . (A e_i), and ``mean_matrix`` the cell mean
    sum_T |T| A, both in the one-point quadrature of the stiffness.
    """

    def __init__(self, cell_mesh: TriMesh, field: CoefficientField):
        if cell_mesh.dof_of_node is None:
            raise ValueError("corrector problems need a periodic cell mesh")
        if field.kind not in ("constant", "periodic_analytic"):
            raise ValueError(
                f"corrector solver expects a periodic or constant field, "
                f"got {field.kind!r}")
        if field.alpha <= 0.0:
            raise ValueError(f"coefficient field is not coercive "
                             f"(alpha = {field.alpha})")
        self.mesh = cell_mesh
        self.field = field
        self.reduction = _periodic_reduction(cell_mesh)

        areas, grads, bary = triangle_geometry(cell_mesh)
        amat = field(bary)
        self.mean_matrix = np.einsum("t,tij->ij", areas, amat)
        # local[T, a, i] = -|T| grad phi_a . (A e_i)
        local = -(grads @ amat) * areas[:, None, None]
        dofs = cell_mesh.dof_of_node[cell_mesh.triangles].ravel()
        self.loads = np.zeros((2, cell_mesh.num_periodic_dofs))
        for i, f in enumerate(self.loads):
            np.add.at(f, dofs, local[:, :, i].ravel())

        k_full = assemble_stiffness(cell_mesh, field)
        k_red = (self.reduction.T @ k_full @ self.reduction).tocsr()

        # zero cell average; weights = lumped mass
        w_full = np.zeros(cell_mesh.num_nodes)
        np.add.at(w_full, cell_mesh.triangles.ravel(),
                  np.repeat(areas / 3.0, 3))
        n = cell_mesh.n
        self._lu = PinnedLU(k_red, nested_dissection(n, n, periodic=True),
                            self.reduction.T @ w_full)

    def solve(self, p) -> CorrectorSolution:
        """Corrector of direction p, the solution for the load p . loads."""
        reduced = self._lu.solve(np.asarray(p, dtype=float) @ self.loads)
        return CorrectorSolution(values=self.reduction @ reduced,
                                 reduced=reduced)
