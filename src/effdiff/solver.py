"""P1 finite elements for pure-Neumann and periodic diffusion problems.

Both problems have the constants as kernel.  Every factorization pins one
node to zero and restores the zero boundary mean (Neumann) or zero cell
average (corrector) by subtracting a constant, which matches the continuous
normalization of the solution space; ``PinnedFactor`` holds that
normalization once, and two factorizations sit under it:

- ``PinnedLU``, SuperLU in George's nested-dissection order of the
  structured grid with diagonal pivots, serves every solve with a variable
  coefficient (fine meshes, the corrector) and ``NeumannSolver`` for any
  field.  Its fill grows like N log N, so it is the one that scales.
- ``PinnedBandCholesky``, LAPACK's banded Cholesky in natural order, serves
  the coarse surrogate, which factors thousands of constant matrices on one
  small grid.  Its stiffness is a combination of three cached bands, and
  the band's N n^2 work beats SuperLU's per-factorization set-up at those
  sizes.

Coefficients are sampled once per triangle at the barycenter (one-point
quadrature), which is exact for piecewise-constant checkerboard fields on
aligned meshes.

Assembly is vectorized over the grid's structure (as in Cuvelier, Japhet &
Scarella, BIT Numer. Math. 56, 2016).  Every triangle is one of the two
cell triangles scaled by 1/n, so its local stiffness is linear in (a11,
a12, a22) with one fixed table per shape, and its local mass is a constant.
The local entries of all cells are formed elementwise, summed by slices
into one 7-point stencil row per node, and scattered by one ``bincount``
into a ``GridLayout``: every node in natural order, or the pinned block in
nested-dissection order that ``PinnedLU`` factors, so no matrix is sliced
before it is factored.

Work that does not depend on the coefficient is done once per grid size n,
since the nodes and triangles of both mesh builders depend on n alone: the
layouts with their elimination orders, the boundary mass and constraint,
and the stiffnesses of the three unit coefficients (and their bands), from
which a constant coefficient's stiffness is a linear combination.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .coefficients import CoefficientField, SymMat
from .mesh import CELL_TRIANGLES, TriMesh, boundary_mass_matrix, \
    build_unit_square_mesh


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


# ---------------------------------------------------------------------------
# assembly on the structured n-grid
#
# Every triangle of the n-grid is one of the two cell triangles of
# mesh.CELL_TRIANGLES, scaled by h = 1/n, so |T| = 1/(2 n^2) and
# n grad phi_k depends on the shape alone.  Each entry of a local matrix is
# added to the stencil row of its row's node: ``rows[j, i, k]`` couples node
# (i, j) to its neighbour (i, j) + _STENCIL[k].  A cached GridLayout then
# scatters the stencil rows into the stored entries of a sparse matrix.

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


@dataclass(frozen=True)
class GridLayout:
    """Stored entries of the P1 matrices of the n-grid in one layout.

    The unknowns are the nodes (natural order), or with ``periodic`` the n^2
    classes of the periodic cell; with ``order`` they are taken in that order
    without its last one, which is pinned.  ``slot[7 v + k]`` is the stored
    position of node v's coupling to its neighbour ``_STENCIL[k]``, and
    ``nnz`` for a coupling the layout drops (outside the grid, or pinned).
    Couplings that land on one entry (the periodic images) are summed.
    """

    n: int
    order: np.ndarray | None
    slot: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.indptr.shape[0] - 1,) * 2

    @property
    def nnz(self) -> int:
        return self.indices.shape[0]

    def assemble(self, entry) -> sp.csr_matrix:
        """The matrix of the local matrices whose entry (a, b) on the
        triangles of shape s is ``entry(s, a, b)``: an array (n, n) over the
        cells [j, i], or anything that broadcasts to it.

        The matrix shares the layout's index arrays, which are read-only:
        copy it before changing its sparsity.  A copy per matrix, held
        through a factorization, raised the peak RSS of six n = 300
        realizations by 3 MB.
        """
        n = self.n
        rows = np.zeros((n + 1, n + 1, len(_STENCIL)))
        for s, a, b, targets in _LOCAL_TERMS:
            value = entry(s, a, b)
            for di, dj, k in targets:
                rows[dj:dj + n, di:di + n, k] += value
        data = np.bincount(self.slot, weights=rows.ravel(),
                           minlength=self.nnz + 1)[:-1]
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


@functools.lru_cache(maxsize=4)
def grid_layout(n: int, periodic: bool = False,
                pinned: bool = False) -> GridLayout:
    """Layout of the n-grid's matrices: every node in natural order, or the
    periodic classes (``periodic``), or either without its pinned unknown
    in nested-dissection order (``pinned``), the layout ``PinnedLU``
    factors.  The sparsity is that of the triangulation, kept when an entry
    is zero, so a matrix's stored pattern does not depend on its values."""
    if not pinned:
        order = None
    elif periodic:
        order = nested_dissection(n, n, periodic=True)
    else:
        order = nested_dissection(n + 1, n + 1)
    size = n * n if periodic else (n + 1) ** 2
    pos = np.arange(size)
    if pinned:
        pos[order] = np.arange(size)  # the pinned unknown goes to size - 1
        size -= 1

    def unknown(i, j):
        return pos[i % n + j % n * n if periodic else i + j * (n + 1)]

    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    di, dj = np.array(_STENCIL).T
    ni, nj = i[..., None] + di, j[..., None] + dj
    inside = (ni >= 0) & (ni <= n) & (nj >= 0) & (nj <= n)
    row = np.broadcast_to(unknown(i, j)[..., None], inside.shape)
    col = unknown(np.clip(ni, 0, n), np.clip(nj, 0, n))
    kept = inside & (row < size) & (col < size)
    keys, inverse = np.unique(row[kept] * size + col[kept],
                              return_inverse=True)
    slot = np.full(kept.size, keys.shape[0], dtype=np.int32)
    slot[kept.ravel()] = inverse
    layout = GridLayout(
        n=n, order=order, slot=slot, indices=(keys % size).astype(np.int32),
        indptr=np.searchsorted(keys, np.arange(size + 1) * size).astype(
            np.int32))
    for a in (order, slot, layout.indices, layout.indptr):
        if a is not None:
            a.flags.writeable = False
    return layout


def _barycenters(n: int) -> np.ndarray:
    """Barycenters of the n-grid's triangles in mesh order, shape (2 n^2,
    2).  The vertex coordinates are summed in vertex order, as the mean in
    ``triangle_geometry`` sums them, so the two agree bit for bit and a
    point on a checkerboard cell's edge falls in the same cell."""
    xs = np.linspace(0.0, 1.0, n + 1)
    out = np.empty((2, n, n, 2))
    for s, ((i0, j0), (i1, j1), (i2, j2)) in enumerate(CELL_TRIANGLES):
        out[s, :, :, 0] = (xs[i0:i0 + n] + xs[i1:i1 + n] + xs[i2:i2 + n]) / 3.0
        out[s, :, :, 1] = ((xs[j0:j0 + n] + xs[j1:j1 + n]
                            + xs[j2:j2 + n]) / 3.0)[:, None]
    return out.reshape(-1, 2)


def _stiffness_entries(a11, a12, a22):
    """``entry(s, a, b)`` of the local stiffness, for ``GridLayout.assemble``,
    of the coefficient entries a_ij per triangle: arrays (2, n, n) over shape
    and cell [j, i], or (2, 1, 1) for a constant.  The entries are formed
    elementwise, not by a BLAS product, for the reason in
    ``PinnedBandCholesky``."""
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
    return tuple(grid_layout(n).assemble(_stiffness_entries(*unit))
                 for unit in ((ones, zeros, zeros), (zeros, ones, zeros),
                              (zeros, zeros, ones)))


def assemble_stiffness(mesh: TriMesh, field: CoefficientField,
                       layout: GridLayout | None = None) -> sp.csr_matrix:
    """Stiffness matrix with the coefficient sampled at barycenters, in
    ``layout`` (default: every node of the mesh, natural order)."""
    n = mesh.n
    a = field(_barycenters(n)).reshape(2, n, n, 2, 2)
    layout = grid_layout(n) if layout is None else layout
    return layout.assemble(_stiffness_entries(a[..., 0, 0], a[..., 0, 1],
                                              a[..., 1, 1]))


def assemble_volume_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix of L^2((0,1)^2)."""
    n = mesh.n
    # |T| (1 + delta_ab) / 12
    return grid_layout(n).assemble(
        lambda s, a, b: (1.0 + (a == b)) / (24.0 * n * n))


def boundary_load(mesh: TriMesh, mass: sp.spmatrix,
                  g: np.ndarray) -> np.ndarray:
    """Nodal load of boundary data g over the loop DOFs, shape (nb,) or
    (nb, k): the boundary mass product placed on the loop nodes."""
    b = np.zeros((mesh.num_nodes,) + g.shape[1:])
    b[mesh.boundary_loop] = mass @ g
    return b


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


class PinnedFactor:
    """A factored stiffness K whose kernel is the constants.

    Solutions are normalized by ``weights @ u = 0``.  One node is pinned to
    zero; a subclass factors K without it (symmetric positive definite for
    a coercive coefficient) and solves with that factor in ``_solve_free``.
    A load b is first made compatible, b - weights * sum(b) / sum(weights),
    the load a Lagrange multiplier for the constraint would leave; the
    pinned solution is then shifted by a constant, so the choice of pinned
    node only affects rounding.  A load of shape (nodes, k) is k loads,
    solved at once and shifted column by column.
    """

    def __init__(self, free: np.ndarray | slice, weights: np.ndarray):
        self._free = free   # every node but the pinned one
        self._weights = weights

    def solve(self, b: np.ndarray) -> np.ndarray:
        w, free = self._weights, self._free
        w_free = w[free].reshape((-1,) + (1,) * (b.ndim - 1))
        # column-major, the layout both factors solve in, so u.T is
        # contiguous
        u = np.zeros(b.shape, order="F")
        u[free] = self._solve_free(b[free]
                                   - w_free * (b.sum(axis=0) / w.sum()))
        u -= (w @ u) / w.sum()
        return u


class PinnedLU(PinnedFactor):
    """Sparse LU (SuperLU) of a stiffness K, any coefficient.

    The last node of ``order`` is pinned, and ``k`` is K on the others in
    that order (``grid_layout(..., pinned=True)``), factored in that order
    with diagonal pivots.
    """

    def __init__(self, k: sp.csr_matrix, order: np.ndarray,
                 weights: np.ndarray):
        super().__init__(order[:-1], weights)
        # k is symmetric, so k.T is k in CSC form, without a copy
        self._lu = spla.splu(k.T, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})
        self.nnz = self._lu.nnz
        self._solve_free = self._lu.solve


@functools.lru_cache(maxsize=2)
def unit_bands(n: int) -> np.ndarray:
    """K11, K12 and K22 of the n-grid without its last node, banded.

    In natural order node i + j (n + 1) couples only to nodes at most
    n + 2 away, its diagonal neighbours, so the half-bandwidth is n + 2.
    ``bands[k, j, i - j] = K_k[i, j]`` for j <= i <= j + n + 2: the
    transpose of ``bands[k]`` is LAPACK's lower band storage, column-major,
    so a combination of the three is factored in place.
    """
    kd = n + 2
    bands = np.zeros((3, (n + 1) ** 2 - 1, kd + 1))
    for band, k in zip(bands, unit_stiffnesses(n)):
        lower = sp.tril(k[:-1, :-1]).tocoo()
        band[lower.col, lower.row - lower.col] = lower.data
    bands.flags.writeable = False
    return bands


class PinnedBandCholesky(PinnedFactor):
    """Banded Cholesky (LAPACK ``dpbtrf``) of the Neumann stiffness
    a11 K11 + a12 K12 + a22 K22 of a constant matrix A on the n-grid.

    The last node of the natural order is pinned, and solutions have zero
    boundary mean, as from ``NeumannSolver``.  The stiffness is a
    combination of three cached bands, so nothing is assembled per matrix,
    and at the coarse surrogate's sizes the band factors faster than
    SuperLU.  The lower band is used: below LAPACK's block size (half-
    bandwidth 32) its unblocked factorization updates contiguous columns,
    which OpenBLAS keeps on one thread, while the upper band's strided
    updates wake every BLAS thread once per column.  Raises ValueError if
    the band is not numerically positive definite.
    """

    def __init__(self, a: SymMat, n: int):
        _, weights = _neumann_setup(n)
        super().__init__(slice(None, -1), weights)
        # elementwise, not a BLAS product: numpy's and scipy's OpenBLAS keep
        # separate thread pools, and numpy's threads left spinning stall the
        # blocked factorization's threaded triangular solves (n = 71)
        b11, b12, b22 = unit_bands(n)
        band = (a.a11 * b11 + a.a12 * b12 + a.a22 * b22).T
        self._band, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise ValueError(f"banded Cholesky of {a} failed (LAPACK dpbtrf "
                             f"info = {info})")

    def _solve_free(self, b: np.ndarray) -> np.ndarray:
        x, info = lapack.dpbtrs(self._band, b.reshape(b.shape[0], -1),
                                lower=1)
        if info != 0:
            raise ValueError(f"LAPACK dpbtrs info = {info}")
        return x.reshape(b.shape)


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
        self.field = field
        self.boundary_mass, self._constraint = _neumann_setup(mesh.n)
        layout = grid_layout(mesh.n, pinned=True)
        self._lu = PinnedLU(assemble_stiffness(mesh, field, layout),
                            layout.order, self._constraint)

    @functools.cached_property
    def stiffness(self) -> sp.csr_matrix:
        """The full stiffness matrix, assembled on first use: the
        factorization reads only its pinned block."""
        return assemble_stiffness(self.mesh, self.field)

    def _boundary_load(self, g: np.ndarray) -> np.ndarray:
        return boundary_load(self.mesh, self.boundary_mass, g)

    def solve(self, g: np.ndarray, check_mean: bool = True) -> np.ndarray:
        """Nodal solution with zero boundary mean; g over boundary DOFs."""
        mean = self._constraint[self.mesh.boundary_loop] @ g
        bad = np.abs(mean) > 1e-10 * (np.linalg.norm(g, axis=0) + 1e-300)
        if check_mean and np.any(bad):
            raise ValueError(
                f"boundary datum has nonzero boundary mean "
                f"({np.max(np.abs(mean)):.3e}); the pure-Neumann problem "
                "is incompatible")
        return self._lu.solve(self._boundary_load(g))

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

        layout = grid_layout(cell_mesh.n, periodic=True, pinned=True)
        k = assemble_stiffness(cell_mesh, field, layout).copy()
        # a diagonal coefficient's diagonal couplings are exact zeros;
        # dropping them keeps them out of the factor's fill
        k.eliminate_zeros()

        # zero cell average; weights = lumped mass
        w_full = np.zeros(cell_mesh.num_nodes)
        np.add.at(w_full, cell_mesh.triangles.ravel(),
                  np.repeat(areas / 3.0, 3))
        self._lu = PinnedLU(k, layout.order, self.reduction.T @ w_full)

    def solve(self, p) -> CorrectorSolution:
        """Corrector of direction p, the solution for the load p . loads."""
        reduced = self._lu.solve(np.asarray(p, dtype=float) @ self.loads)
        return CorrectorSolution(values=self.reduction @ reduced,
                                 reduced=reduced)
