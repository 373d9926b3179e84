"""P1 finite elements for pure-Neumann and periodic diffusion problems.

Both problems have the constants as kernel.  Every factorization pins one
node to zero and restores the zero boundary mean (Neumann) or zero cell
average (corrector) by subtracting a constant, which matches the continuous
normalization of the solution space.  ``PinnedLU``, a multifrontal
Cholesky in a nested-dissection order of the grid, is the one sparse
factorization: it serves the fine meshes, the corrector and every
``NeumannSolver``, including the few coarse constant-coefficient solves
behind the reduced surrogate of ``identify.CoarseModel``.

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
n^2 periodic classes.  ``PinnedLU`` reads the stencil rows themselves: no
sparse matrix is formed for a solve.

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
boundary mass and constraint, the elimination order and fronts of the
factorization, and the stiffnesses of the three unit coefficients, from
which a constant coefficient's stiffness is a linear combination.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

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


# ---------------------------------------------------------------------------
# nested-dissection Cholesky of the grid
#
# The unknowns are the nodes of the open grid, or the n^2 classes of the
# torus, less one pinned node.  A box of nodes is split across its longer
# side by its middle line, a separator eliminated after the two halves
# (George, SIAM J. Numer. Anal. 10, 1973); a box of at most _LEAF_NODES
# nodes is eliminated whole.  On the torus the cross of class column 0 and
# class row 0 is eliminated last: it cuts the torus into the open grid of
# classes 1..n-1, which is dissected like the square.  Eliminating a box
# couples its ring, the nodes outside it next to one of its nodes, and
# nothing else, so a separator or leaf box with its ring is one dense front
# of the multifrontal method (Liu, SIAM Review 34, 1992).
#
# Every front lists its nodes in elimination order, its own first.  A
# child's ring lies in its parent's front, and each side of the child is a
# stretch of one separator, numbered along its line, so the child's update
# falls on a few runs of the parent's front and is added by slices.  A
# dense block is a C-order array whose upper triangle holds the entries:
# the lower triangle of its transpose, on which LAPACK and BLAS work in
# place.

# Boxes of at most this many nodes are leaves.  At n = 300 (checkerboard,
# 2-core Xeon, one BLAS thread) leaves of 48 took 149 ms to factor and
# 80 ms to solve 11 loads, 4,095 fronts storing 54 MB; leaves of 25 took
# 219 and 121 ms, and leaves of 64 took 139 and 76 ms but stored 61 MB,
# about what SuperLU's factor held with its indices.
_LEAF_NODES = 48


def _narrow(a: np.ndarray, bound: int) -> np.ndarray:
    """Indices ``a``, all below ``bound``, as int32 where that holds them:
    a grid's cached index arrays take half the memory."""
    return a.astype(np.int32) if bound <= np.iinfo(np.int32).max else a


def _ranges(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the ranges [0, c) of ``counts`` laid end to end: the value of
    every element, and the index of its range."""
    which = np.repeat(np.arange(len(counts)), counts)
    return np.arange(which.size) - (np.cumsum(counts) - counts)[which], which


class _Fronts:
    """The symbolic phase of the Cholesky of a grid: what depends on the
    grid and its pinned node alone.

    ``order`` lists the unknowns' nodes in elimination order.  Front f, in
    postorder, eliminates the ``e[f]`` unknowns from position ``start[f]``
    on; its ring is ``ring[ring_start[f]:ring_start[f] + r[f]]``, positions
    in ascending order.  Its factor takes ``e (e + r)`` entries of one
    buffer from ``offset[f]`` on: the e x e block of its own unknowns, then
    the e x r block of its ring.  Stencil column k of node a, entry
    7 a + k of the stencil values, goes to the buffer at ``dst`` from
    ``src``.  A row of ``ops`` adds a block of a child's update to its
    parent: the parent's block (0 for e x e, 1 for e x r, 2 for the r x r
    update) and the bounds of the rows and columns there and in the child.
    """

    def __init__(self, n: int, periodic: bool, pin: int):
        self.grid = f"{'periodic ' if periodic else ''}{n}-grid"
        side = n if periodic else n + 1
        nodes = side * side
        # the position of every node in elimination order, and per front,
        # level by level: its box i0 <= i < i1, j0 <= j < j1, its parent,
        # and the first position and number of the unknowns it eliminates
        pos = np.empty(nodes, dtype=np.intp)
        boxes, parents, starts, counts = [], [], [], []
        box = np.array([[0], [side], [0], [side]])
        first, parent = np.array([0]), np.array([-1])
        if periodic:
            # the cross, class column 0 then class row 0, has the whole
            # torus as its box; the rest of the torus comes before it
            cross = np.concatenate([np.arange(n) * n, np.arange(1, n)])
            pos[cross] = (n - 1) ** 2 + np.arange(cross.size)
            boxes.append(box)
            parents.append(parent)
            starts.append(np.array([(n - 1) ** 2]))
            counts.append(np.array([cross.size]))
            box = np.array([[1], [n], [1], [n]])[:, :n - 1]
            first, parent = first[:n - 1], np.array([0])[:n - 1]
        made = sum(map(len, parents))
        while box.size:
            i0, i1, j0, j1 = box
            ids = made + np.arange(len(i0))
            made += len(i0)
            w, h = i1 - i0, j1 - j0
            area, across = w * h, w >= h
            split = area > _LEAF_NODES
            # a leaf's unknowns in rows; a separator across the longer
            # side, along its line, after both halves
            line = np.where(across, h, w)
            count = np.where(split, line, area)
            start = first + area - count
            cut = np.where(across, i0 + w // 2, j0 + h // 2)
            t, f = _ranges(np.where(split, 0, area))
            pos[i0[f] + t % w[f] + side * (j0[f] + t // w[f])] = start[f] + t
            t, f = _ranges(np.where(split, line, 0))
            pos[np.where(across[f], cut[f] + side * (j0[f] + t),
                         i0[f] + t + side * cut[f])] = start[f] + t
            boxes.append(box)
            parents.append(parent)
            starts.append(start)
            counts.append(count)
            low = np.array([i0, np.where(across, cut, i1), j0,
                            np.where(across, j1, cut)])[:, split]
            high = np.array([np.where(across, cut + 1, i0), i1,
                             np.where(across, j0, cut + 1), j1])[:, split]
            box = np.concatenate([low, high], axis=1)
            first = np.concatenate([
                first[split],
                first[split] + (low[1] - low[0]) * (low[3] - low[2])])
            parent = np.concatenate([ids[split], ids[split]])
        box, parent, start, count = (np.concatenate(a, axis=-1) for a in (
            boxes, parents, starts, counts))

        # the pin is no unknown, and a leaf of the pin alone no front
        count[(start <= pos[pin]) & (pos[pin] < start + count)] -= 1
        start[start > pos[pin]] -= 1
        pos[pos > pos[pin]] -= 1
        pos[pin] = -1
        kept = np.flatnonzero(count)
        post = kept[np.argsort(start[kept], kind="stable")]
        number = np.full(made, -1)
        number[post] = np.arange(len(post))
        fronts = len(post)
        self.e, self.start = e, s = count[post], start[post]
        self.parent = par = np.where(parent[post] < 0, -1,
                                     number[parent[post]])
        order = np.empty(nodes - 1, dtype=np.intp)
        order[pos[pos >= 0]] = np.flatnonzero(pos >= 0)

        # A ring is made of stretches of separators, each numbered along
        # its line: the columns left and right of the box and the rows
        # below and above it, over its extent, and the corners below left
        # and above right of it.  Stretch k of every front starts at node
        # (i, j) and steps to (i, j + 1) or (i + 1, j).
        i0, i1, j0, j1 = box[:, post]
        i = np.stack([i0 - 1, i0, i1, i0, i0 - 1, i1], axis=1).ravel()
        j = np.stack([j0, j0 - 1, j0, j1, j0 - 1, j1], axis=1).ravel()
        length = np.stack([j1 - j0, i1 - i0, j1 - j0, i1 - i0] + [
            np.ones_like(i0)] * 2, axis=1).ravel()
        step = np.tile([side, 1, side, 1, 0, 0], fronts)
        if periodic:
            i, j = i % n, j % n
            length[6 * number[0]:6 * number[0] + 6] = 0    # nor the cross
        else:
            length *= (i >= 0) & (i < side) & (j >= 0) & (j < side)
        at = i + side * j
        # the pin drops out of its stretch; the others keep their numbers
        pinned = (pin - at) // np.maximum(step, 1)
        on = (length > 0) & (at + step * pinned == pin) & (pinned >= 0) \
            & (pinned < length)
        at[on & (pinned == 0)] += step[on & (pinned == 0)]
        length -= on
        first = pos[np.where(length > 0, at, 0)]
        # stretches in ascending order by front and first position, without
        # the repeats of the torus, where a box of full width or height
        # meets one line on both sides
        stretch = np.flatnonzero(length > 0)
        key = (stretch // 6) * nodes + first[stretch]
        sort = np.argsort(key, kind="stable")
        key, stretch = key[sort], stretch[sort]
        unique = np.diff(key, prepend=-1) != 0
        # the stretch k of front f is number[6 f + k] of those left
        number = np.zeros(6 * fronts, dtype=np.intp)
        number[stretch] = np.cumsum(unique) - 1
        key, stretch = key[unique], stretch[unique]
        owner, first, length = stretch // 6, first[stretch], length[stretch]
        self.r = r = np.bincount(owner, weights=length,
                                 minlength=fronts).astype(np.intp)
        self.ring_start = ring_start = np.cumsum(r) - r
        # where each stretch starts in its front's ring
        ahead = np.cumsum(length) - length
        ahead -= ahead[np.searchsorted(owner, owner)]
        t, which = _ranges(length)
        self.ring = _narrow(first[which] + t, nodes)

        # the runs of a child's update in its parent's front: its
        # stretches, joined where they meet there
        up = par[owner]
        loc = first - s[up]
        theirs = loc >= e[up]
        k = np.searchsorted(key, up[theirs] * nodes + first[theirs],
                            side="right") - 1
        loc[theirs] = e[up[theirs]] + ahead[k] + first[theirs] - first[k]
        joined = (owner[1:] == owner[:-1]) & (theirs[1:] == theirs[:-1]) \
            & (loc[1:] == loc[:-1] + length[:-1])
        run = np.flatnonzero(np.concatenate([[True], ~joined]))[:len(owner)]
        child, at, theirs = owner[run], loc[run], theirs[run].astype(np.intp)
        length = np.add.reduceat(length, run) if len(run) else run
        mine = ahead[run]
        # every pair of runs a <= b of one child adds a block
        t, a = _ranges(np.cumsum(np.bincount(child, minlength=fronts))[child]
                       - np.arange(len(run)))
        b = a + t
        shift = e[par[child[a]]]
        r0 = at[a] - shift * theirs[a]
        c0 = at[b] - shift * theirs[b]
        self.ops = _narrow(np.stack([
            theirs[a] + theirs[b], r0, r0 + length[a], c0, c0 + length[b],
            mine[a], mine[a] + length[a], mine[b], mine[b] + length[b]],
            axis=1), nodes)
        ops = np.bincount(child[a], minlength=fronts)
        ops_first, ops_end = np.cumsum(ops) - ops, np.cumsum(ops)

        # entry (a, b) of the matrix goes to the front of a if b is not
        # eliminated before a: to its e x e block, or to its e x r block
        # at the stretch of the ring next to the box on b's side
        self.offset = offset = np.cumsum(e * (e + r)) - e * (e + r)
        self.size = int(np.sum(e * (e + r)))
        self.nnz = int(np.sum(e * (e + 1) // 2 + e * r))
        f = np.repeat(np.arange(fronts), e)
        pa = np.arange(nodes - 1)
        end = (s + e)[f]
        base = (offset - s * (e + 1))[f] + pa * e[f]
        # the position of every node's neighbours, read off the grid of
        # positions framed by the torus's far side, or by -1 round the
        # square; the pin's row is no unknown's
        framed = np.pad(pos.reshape(side, side), 1, mode="wrap") \
            if periodic else np.pad(pos.reshape(side, side), 1,
                                    constant_values=-1)
        pb = np.stack([framed[1 + dj:1 + dj + side, 1 + di:1 + di + side]
                       for di, dj in _STENCIL], axis=-1).reshape(nodes, -1)
        a, k = np.nonzero((pb >= pos[:, None]) & (pos >= 0)[:, None])
        pb, pa = pb[a, k], pos[a]
        src = len(_STENCIL) * a + k
        dst = base[pa] + pb
        theirs = np.flatnonzero(pb >= end[pa])
        a, k, pb, pa = a[theirs], k[theirs], pb[theirs], pa[theirs]
        ft = f[pa]
        di, dj = np.array(_STENCIL).T
        bi, bj = a % side + di[k], a // side + dj[k]
        left, below = bi < i0[ft], bj < j0[ft]
        right, above = bi >= i1[ft], bj >= j1[ft]
        ks = number[6 * ft + np.select(
            [left & below, right & above, left, below, right], [4, 5, 0, 1, 2],
            3)]
        dst[theirs] = (offset + e * e)[ft] + (pa - s[ft]) * r[ft] \
            + ahead[ks] + pb - first[ks]
        self.src = _narrow(src, len(_STENCIL) * nodes)
        self.dst = _narrow(dst, self.size)
        self.order = _narrow(order, nodes)
        self.plan = list(zip(
            e.tolist(), r.tolist(), offset.tolist(),
            np.bincount(par[r > 0], minlength=fronts).tolist(),
            ops_first.tolist(), ops_end.tolist(), s.tolist(),
            ring_start.tolist()))


@functools.lru_cache(maxsize=2)
def _fronts(n: int, periodic: bool, pin: int) -> _Fronts:
    return _Fronts(n, periodic, pin)


@functools.cache
def _local_blas_threads() -> tuple:
    """``openblas_set_num_threads_local`` of each OpenBLAS loaded in the
    process, as found in /proc/self/maps (none elsewhere): it sets the BLAS
    thread count of the calling thread alone and returns the old one."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "openblas" in line.rpartition("/")[2]}
    except OSError:
        return ()
    setters = []
    for path in sorted(paths):
        setter = getattr(ctypes.CDLL(path), "openblas_set_num_threads_local",
                         None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            setters.append(setter)
    return tuple(setters)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block, or the function it decorates, on one BLAS thread of
    each OpenBLAS found.  OpenBLAS splits a large product across threads in
    an order that changes its rounding, so the dense fronts of ``PinnedLU``
    and the R-mode eigensolve, and every record after them, moved with the
    BLAS thread count."""
    old = [setter(1) for setter in _local_blas_threads()]
    try:
        yield
    finally:
        for setter, count in zip(_local_blas_threads(), old):
            setter(count)


class PinnedLU:
    """Cholesky factor of a grid stiffness K whose kernel is the constants.

    Solutions are normalized by ``weights @ u = 0``.  Unknown ``pin`` of K
    is pinned to zero, and K on the others (symmetric positive definite for
    a coercive coefficient) is factored as L L^T in the nested-dissection
    order of ``fronts``, fed straight from K's stencil rows ``values``,
    shape (nodes, 7).  A load b is first made compatible,
    b - weights * sum(b) / sum(weights), the load a Lagrange multiplier for
    the constraint would leave; the pinned solution is then shifted by a
    constant, so the choice of pinned node only affects rounding.  A load
    of shape (nodes, k) is k loads, solved at once.  ``nnz`` counts the
    entries of L.  Raises ValueError when a pivot fails, which a coercive
    coefficient rules out.
    """

    def __init__(self, values: np.ndarray, fronts: _Fronts,
                 weights: np.ndarray):
        self._order, self._weights = fronts.order, weights
        self.nnz = fronts.nnz
        with one_blas_thread():
            self._blocks = self._factor(
                np.bincount(fronts.dst, weights=values.ravel()[fronts.src],
                            minlength=fronts.size), fronts)

    @staticmethod
    def _factor(buf: np.ndarray, fronts: _Fronts) -> list:
        """Factor the fronts in place in ``buf``; per front, for the
        solve: the range of its unknowns, L11^T, L21^T and its ring."""
        potrf, trsm, syrk = lapack.dpotrf, blas.dtrsm, blas.dsyrk
        blocks, updates = [], []
        for e, r, at, children, first, last, s, ring in fronts.plan:
            own = buf[at:at + e * e].reshape(e, e)
            theirs = buf[at + e * e:at + e * (e + r)].reshape(e, r)
            update = np.zeros((r, r))
            parts = (own, theirs, update)
            for _ in range(children):
                child, begin, end = updates.pop()
                for k, r0, r1, c0, c1, u0, u1, v0, v1 in \
                        fronts.ops[begin:end].tolist():
                    parts[k][r0:r1, c0:c1] += child[u0:u1, v0:v1]
            _, info = potrf(own.T, lower=1, overwrite_a=1, clean=0)
            if info:
                raise ValueError(
                    f"the stiffness on the {fronts.grid} is not positive "
                    f"definite: pivot {s + info - 1} failed")
            if r:
                trsm(1.0, own.T, theirs.T, side=1, lower=1, trans_a=1,
                     overwrite_b=1)
                syrk(-1.0, theirs.T, beta=1.0, c=update.T, lower=1,
                     overwrite_c=1)
                updates.append((update, first, last))
            blocks.append(
                (s, s + e, own.T, theirs, fronts.ring[ring:ring + r]))
        return blocks

    def solve(self, b: np.ndarray) -> np.ndarray:
        w, order = self._weights, self._order
        loads = b.reshape(len(b), -1)
        y = loads[order]
        y -= w[order, None] * (loads.sum(axis=0) / w.sum())
        trsm = blas.dtrsm
        with one_blas_thread():
            for s, t, l11, l21, ring in self._blocks:
                trsm(1.0, l11, y[s:t].T, side=1, lower=1, trans_a=1,
                     overwrite_b=1)
                y[ring] -= l21.T @ y[s:t]
            for s, t, l11, l21, ring in reversed(self._blocks):
                y[s:t] -= l21 @ y[ring]
                trsm(1.0, l11, y[s:t].T, side=1, lower=1, overwrite_b=1)
        u = np.zeros(loads.shape)
        u[order] = y
        u -= np.einsum("n,n...->...", w, u) / w.sum()
        return u.reshape(b.shape)


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
        self._lu = PinnedLU(_stiffness_rows(n, field),
                            _fronts(n, False, n // 2 * (n + 2)),
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
        # the stencil rows of the classes, shape (n, n, 7)
        folded = np.moveaxis(_fold(np.moveaxis(rows, -1, 0)), 0, -1)
        self._lu = PinnedLU(folded, _fronts(n, True, n * n - 1),
                            np.ones(n * n))

    def solve(self, p) -> np.ndarray:
        """Class values of the corrector of direction p, the solution for
        the load p . loads: shape (n^2,) for p of shape (2,), or (k, n^2)
        for k directions of shape (k, 2), solved at once.  Node v has the
        value of class ``mesh.dof_of_node[v]``."""
        return self._lu.solve((np.asarray(p, dtype=float) @ self.loads).T).T
