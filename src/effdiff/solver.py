"""P1 finite elements for pure-Neumann and periodic diffusion problems.

Both problems have the constants as kernel.  Every factorization pins one
node to zero and restores the zero boundary mean (Neumann) or zero cell
average (corrector) by subtracting a constant, which matches the continuous
normalization of the solution space.  ``PinnedLU``, SuperLU in its
minimum-degree order with diagonal pivots, is the one sparse factorization:
it serves the fine meshes, the corrector and every ``NeumannSolver``,
including the few coarse constant-coefficient solves behind the reduced
surrogate of ``identify.CoarseModel``.

Coefficients are sampled once per triangle at the barycenter (one-point
quadrature), which is exact for piecewise-constant checkerboard fields on
aligned meshes.

Assembly is vectorized over the grid's structure (as in Cuvelier, Japhet &
Scarella, BIT Numer. Math. 56, 2016).  Every triangle is one of the two
cell triangles scaled by 1/n, so its local stiffness is linear in (a11,
a12, a22) with one fixed table per shape, and its local mass is a constant.
The local entries of all cells are formed elementwise and summed by slices
into one 7-point stencil row per node.  In natural order the stencil rows
are the matrix's seven diagonals; the corrector's rows are folded onto the
n^2 periodic classes and placed at the classes of their neighbours.
``PinnedLU`` slices its pinned unknown out of the matrix.

The periodic corrector needs no geometry beyond the stiffness K of the
cell's nodes.  The coordinate x_i is P1 with gradient e_i, so the load of
the corrector in direction e_i is -K x_i, folded onto the n^2 periodic
classes, and the cell mean sum_T |T| A is x^T K x; K's rows sum to zero,
so both are formed from the stencil offsets x_b - x_a of K's stencil rows,
the same rows that make up the periodic block.  The corrector
has zero cell average, and every class has lumped mass 1/n^2, so its
constraint weights are uniform.

Work that does not depend on the coefficient is done once per grid size n,
since the nodes and triangles of both mesh builders depend on n alone: the
boundary mass and constraint, and the stiffnesses of the three unit
coefficients, from which a constant coefficient's stiffness is a linear
combination.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import CoefficientField
from .mesh import CELL_TRIANGLES, TriMesh, boundary_mass_matrix, \
    build_unit_square_mesh


# ---------------------------------------------------------------------------
# assembly on the structured n-grid
#
# Every triangle of the n-grid is one of the two cell triangles of
# mesh.CELL_TRIANGLES, scaled by h = 1/n, so |T| = 1/(2 n^2) and
# n grad phi_k depends on the shape alone.  Each entry of a local matrix is
# added to the stencil row of its row's node: ``rows[j, i, k]`` couples node
# (i, j) to its neighbour (i, j) + _STENCIL[k], which is one diagonal of
# the matrix in natural order.

# the (di, dj) between two vertices of one triangle
_STENCIL = sorted({tuple(q - p) for shape in CELL_TRIANGLES
                   for p in shape for q in shape})


def _local_stiffness() -> np.ndarray:
    """Local stiffness of each cell triangle per unit coefficient entry,
    shape (2, 3, 3, 3): entry (s, a, b) holds the factors of (a11, a12,
    a22) in |T| grad phi_a . A grad phi_b = G_a . A G_b / 2 for every n."""
    # G_k = n grad phi_k: the edge opposite vertex k turned by 90 degrees,
    # over 2 |T| n^2 = 1
    a = np.roll(CELL_TRIANGLES, -1, axis=1)
    b = np.roll(CELL_TRIANGLES, -2, axis=1)
    gx = (a[..., 1] - b[..., 1])[..., None]
    gy = (b[..., 0] - a[..., 0])[..., None]
    gxt, gyt = gx.swapaxes(1, 2), gy.swapaxes(1, 2)
    return 0.5 * np.stack([gx * gxt, gx * gyt + gy * gxt, gy * gyt], axis=-1)


_LOCAL_STIFFNESS = _local_stiffness()

# (shape, a, b, targets) for the entries a <= b of a local matrix, which is
# symmetric: entry (a, b) goes to the stencil row of vertex a at the slot of
# vertex b, and (b, a) the other way round; a target is (di, dj, k), the
# offset of the row's node from the cell's node v00 and the stencil slot
_LOCAL_TERMS = tuple(
    (s, a, b, tuple((*shape[p], _STENCIL.index(tuple(shape[q] - shape[p])))
                    for p, q in {(a, b), (b, a)}))
    for s, shape in enumerate(CELL_TRIANGLES)
    for a in range(3) for b in range(a, 3))


# SuperLU casts a matrix's indices and index pointers to C int (scipy's
# ``safely_cast_index_arrays``), and they hold the 7 stencil entries of every
# node, so a grid has at most this many nodes
MAX_GRID_NODES = np.iinfo(np.intc).max // len(_STENCIL)


def _stencil_rows(n: int, entry) -> np.ndarray:
    """Stencil rows, shape (n + 1, n + 1, 7), of the local matrices whose
    entry (a, b) on the triangles of shape s is ``entry(s, a, b)``: an
    array (n, n) over the cells [j, i], or anything that broadcasts to it.
    ``rows[j, i, k]`` couples node (i, j) to (i, j) + _STENCIL[k], and is
    zero where that neighbour is outside the grid."""
    rows = np.zeros((n + 1, n + 1, len(_STENCIL)))
    for s, a, b, targets in _LOCAL_TERMS:
        value = entry(s, a, b)
        for di, dj, k in targets:
            rows[dj:dj + n, di:di + n, k] += value
    return rows


def _grid_matrix(rows: np.ndarray) -> sp.csr_matrix:
    """The matrix of the stencil rows ``rows``, every node in natural order:
    the coupling to neighbour (di, dj) lies on diagonal di + dj (n + 1).
    The conversion to CSR drops the zeros, those of couplings outside the
    grid and exact zero couplings alike."""
    size = rows.shape[0] * rows.shape[1]
    flat = rows.reshape(size, -1)
    offsets = [di + dj * rows.shape[1] for di, dj in _STENCIL]
    return sp.diags([flat[max(-o, 0):size - max(o, 0), k]
                     for k, o in enumerate(offsets)], offsets,
                    shape=(size, size), format="csr")


def _fold(a: np.ndarray) -> np.ndarray:
    """Values ``a[..., j, i]`` on the nodes of the n-grid summed onto the
    n^2 periodic classes (i mod n, j mod n), shape (..., n, n)."""
    n = a.shape[-1] - 1
    a = a.copy()
    a[..., 0] += a[..., n]
    a[..., 0, :] += a[..., n, :]
    return a[..., :n, :n]


def _periodic_matrix(rows: np.ndarray) -> sp.csr_matrix:
    """The matrix of the stencil rows ``rows`` on the n^2 periodic classes
    in natural order: class (i, j) couples to ((i + di) mod n, (j + dj) mod
    n).  Couplings that land on one entry (n = 2) are summed, and the
    triangulation's sparsity is kept where an entry is zero."""
    n = rows.shape[0] - 1
    j, i = np.divmod(np.arange(n * n), n)
    di, dj = np.array(_STENCIL).T[..., None]
    cols = (i + di) % n + (j + dj) % n * n
    return sp.coo_matrix(
        (_fold(np.moveaxis(rows, -1, 0)).ravel(),
         (np.tile(np.arange(n * n), len(_STENCIL)), cols.ravel())),
        shape=(n * n, n * n)).tocsr()


def _barycenters(n: int) -> np.ndarray:
    """Barycenters of the n-grid's triangles in mesh order, shape (2 n^2,
    2).  The vertex coordinates are summed in vertex order, as
    ``mesh.nodes[mesh.triangles].mean(axis=1)`` sums them, so the two
    agree bit for bit and a point on a checkerboard cell's edge falls in
    the same cell."""
    xs = np.linspace(0.0, 1.0, n + 1)
    out = np.empty((2, n, n, 2))
    for s, ((i0, j0), (i1, j1), (i2, j2)) in enumerate(CELL_TRIANGLES):
        out[s, :, :, 0] = (xs[i0:i0 + n] + xs[i1:i1 + n] + xs[i2:i2 + n]) / 3.0
        out[s, :, :, 1] = ((xs[j0:j0 + n] + xs[j1:j1 + n]
                            + xs[j2:j2 + n]) / 3.0)[:, None]
    return out.reshape(-1, 2)


def _stiffness_entries(a11, a12, a22):
    """``entry(s, a, b)`` of the local stiffness, for ``_stencil_rows``, of
    the coefficient entries a_ij per triangle: arrays (2, n, n) over shape
    and cell [j, i], or (2, 1, 1) for a constant."""
    coefficients = (a11, a12, a22)

    def entry(s, a, b):
        return sum(f * c[s]
                   for f, c in zip(_LOCAL_STIFFNESS[s, a, b], coefficients)
                   if f)

    return entry


@functools.lru_cache(maxsize=2)
def unit_stiffnesses(n: int) -> tuple[sp.csr_matrix, ...]:
    """Stiffnesses K11, K12, K22 of the coefficients E11, E12 + E21 and E22
    on the n-grid; a constant A has a11 K11 + a12 K12 + a22 K22."""
    ones, zeros = np.ones((2, 1, 1)), np.zeros((2, 1, 1))
    return tuple(_grid_matrix(_stencil_rows(n, _stiffness_entries(*unit)))
                 for unit in ((ones, zeros, zeros), (zeros, ones, zeros),
                              (zeros, zeros, ones)))


def _stiffness_rows(n: int, field: CoefficientField) -> np.ndarray:
    """Stencil rows of the n-grid's stiffness, the coefficient sampled at
    barycenters."""
    a = field(_barycenters(n)).reshape(2, n, n, 2, 2)
    return _stencil_rows(n, _stiffness_entries(a[..., 0, 0], a[..., 0, 1],
                                               a[..., 1, 1]))


def assemble_stiffness(mesh: TriMesh, field: CoefficientField) -> sp.csr_matrix:
    """Stiffness matrix with the coefficient sampled at barycenters, every
    node of the mesh in natural order."""
    return _grid_matrix(_stiffness_rows(mesh.n, field))


def assemble_volume_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix of L^2((0,1)^2)."""
    n = mesh.n
    # |T| (1 + delta_ab) / 12
    return _grid_matrix(_stencil_rows(
        n, lambda s, a, b: (1.0 + (a == b)) / (24.0 * n * n)))


def boundary_load(mesh: TriMesh, mass: sp.spmatrix,
                  g: np.ndarray) -> np.ndarray:
    """Nodal load of boundary data g over the loop DOFs, shape (nb,) or
    (nb, k): the boundary mass product placed on the loop nodes."""
    b = np.zeros((mesh.num_nodes,) + g.shape[1:])
    b[mesh.boundary_loop] = mass @ g
    return b


class PinnedLU:
    """Sparse LU (SuperLU) of a stiffness K whose kernel is the constants.

    Solutions are normalized by ``weights @ u = 0``.  Unknown ``pin`` of K
    is pinned to zero, and K on the others (symmetric positive definite for
    a coercive coefficient) is factored with diagonal pivots in SuperLU's
    minimum-degree order of K + K^T (Liu, ACM TOMS 11, 1985).  A load b is
    first made compatible, b - weights * sum(b) / sum(weights), the load a
    Lagrange multiplier for the constraint would leave; the pinned solution
    is then shifted by a constant, so the choice of pinned node only
    affects rounding.  A load of shape (nodes, k) is k loads, solved at
    once.
    """

    def __init__(self, k: sp.csr_matrix, pin: int, weights: np.ndarray):
        self._free = np.delete(np.arange(k.shape[0]), pin)
        self._weights = weights
        # the slice is a copy with its own pattern.  The corrector's matrix
        # stores a diagonal coefficient's diagonal couplings as exact zeros;
        # dropping them keeps them out of the fill.
        k = k[self._free][:, self._free]
        k.eliminate_zeros()
        # k is symmetric, so k.T is k in CSC form, without a copy
        self._lu = spla.splu(k.T, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})
        self.nnz = self._lu.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        w, free = self._weights, self._free
        w_free = w[free].reshape((-1,) + (1,) * (b.ndim - 1))
        # column-major, the layout SuperLU solves in, so u.T is contiguous.
        # Allocated before the solve: allocated after it, the fine
        # solutions no longer fit the heap's freed blocks, and the peak RSS
        # of six n = 300 measurements rose by 8 MB.
        u = np.zeros(b.shape, order="F")
        u[free] = self._lu.solve(b[free] - w_free * (b.sum(axis=0) / w.sum()))
        u -= np.einsum("n,n...->...", w, u) / w.sum()
        return u


@functools.lru_cache(maxsize=2)
def _neumann_setup(n: int):
    """Boundary mass and constraint weights of the n-grid."""
    mesh = build_unit_square_mesh(n)
    mass = boundary_mass_matrix(mesh)
    c = np.zeros(mesh.num_nodes)
    c[mesh.boundary_loop] = mass @ np.ones(mesh.num_boundary_dofs)
    c.flags.writeable = False
    return mass, c


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
        self.boundary_mass, self._constraint = _neumann_setup(mesh.n)
        # the node nearest the centre: the solution is shifted back by its
        # value there, and a harmonic extension of boundary data is close
        # to its mean at the centre
        n = mesh.n
        self._lu = PinnedLU(assemble_stiffness(mesh, field), n // 2 * (n + 2),
                            self._constraint)

    def solve(self, g: np.ndarray) -> np.ndarray:
        """Nodal solution with zero boundary mean; g over boundary DOFs."""
        mean = self._constraint[self.mesh.boundary_loop] @ g
        bad = np.abs(mean) > 1e-10 * (np.linalg.norm(g, axis=0) + 1e-300)
        if np.any(bad):
            raise ValueError(
                f"boundary datum has nonzero boundary mean "
                f"({np.max(np.abs(mean)):.3e}); the pure-Neumann problem "
                "is incompatible")
        return self.solve_load(boundary_load(self.mesh, self.boundary_mass, g))

    def solve_load(self, b: np.ndarray) -> np.ndarray:
        """Nodal solution with zero boundary mean of nodal loads b (nodes,
        k), made compatible first."""
        return self._lu.solve(b)

    def trace(self, u: np.ndarray) -> np.ndarray:
        return u[self.mesh.boundary_loop]

    def energy(self, g: np.ndarray, u: np.ndarray) -> float:
        """Stored energy -1/2 <g, u|boundary> in the boundary mass product."""
        return -0.5 * float(g @ (self.boundary_mass @ self.trace(u)))


def _corrector_loads(rows: np.ndarray):
    """Corrector loads on the periodic classes, shape (2, n^2), and cell
    mean of A, from the stencil rows of the cell's stiffness K: with
    d_k = _STENCIL[k] / n the offset x_b - x_a of node a's k-th neighbour
    b, -(K x_i)_a = -sum_k rows[a, k] (d_k)_i, folded onto the class
    (i mod n, j mod n) of node (i, j), and x^T K x = -1/2 sum_a,k
    rows[a, k] d_k d_k^T.  ``K @ nodes`` would cancel the diagonal against
    its neighbours: it moved the periodic field's a12 of A* from 2e-15 to
    3.6e-13."""
    n = rows.shape[0] - 1
    d = np.array(_STENCIL, dtype=float) / n
    f = _fold(-np.einsum("jik,kl->lji", rows, d))
    mean = -0.5 * np.einsum("k,ki,kj->ij", rows.sum(axis=(0, 1)), d, d)
    return f.reshape(2, n * n), mean


class CorrectorSolver:
    """Periodic cell solver sharing one factorization across directions.

    ``loads[i]`` is the load of the corrector in direction e_i on the n^2
    periodic classes, -sum_T |T| grad phi . (A e_i), and ``mean_matrix``
    the cell mean sum_T |T| A, both in the one-point quadrature of the
    stiffness.  Correctors have zero cell average.
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
        n = cell_mesh.n
        rows = _stiffness_rows(n, field)
        self.loads, self.mean_matrix = _corrector_loads(rows)
        self._lu = PinnedLU(_periodic_matrix(rows),
                            n * n - 1, np.ones(n * n))

    def solve(self, p) -> np.ndarray:
        """Class values of the corrector of direction p, the solution for
        the load p . loads: shape (n^2,) for p of shape (2,), or (k, n^2)
        for k directions of shape (k, 2), solved at once.  Node v has the
        value of class ``mesh.dof_of_node[v]``."""
        return self._lu.solve((np.asarray(p, dtype=float) @ self.loads).T).T
