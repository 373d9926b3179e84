"""Structured triangulations of the unit square and the periodic unit cell.

Every mesh is a criss-cross-free triangulation: each of the n x n square
cells is split along its lower-left to upper-right diagonal.  The mesh size
reported is h = sqrt(2)/n (the longest edge), so a target mesh size h maps
to n = ceil(sqrt(2)/h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of (0,1)^2 with boundary structure.

    ``boundary_loop`` lists the boundary node indices in counterclockwise
    order starting at the origin; boundary edge k joins loop entries k and
    k+1 (cyclically) and carries the outward unit normal
    ``boundary_normals[k]``.  Boundary degrees of freedom are indexed by
    their position in the loop throughout the package.
    """

    n: int
    nodes: np.ndarray            # (N, 2)
    triangles: np.ndarray        # (M, 3), positively oriented
    boundary_loop: np.ndarray    # (4n,) node indices, CCW from (0,0)
    boundary_edges: np.ndarray   # (4n, 2) node index pairs
    boundary_normals: np.ndarray  # (4n, 2) outward unit normals
    h: float
    periodic_pairs: dict[int, int] | None = None
    dof_of_node: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_boundary_dofs(self) -> int:
        return self.boundary_loop.shape[0]

    @property
    def num_periodic_dofs(self) -> int:
        if self.dof_of_node is None:
            raise ValueError("not a periodic cell mesh")
        return int(self.dof_of_node.max()) + 1


# Cell (i, j) is split along its lower-left / upper-right diagonal into a
# lower (v00, v10, v11) and an upper (v00, v11, v01) triangle, given here by
# the (di, dj) offsets of their vertices from node v00 = (i, j).
CELL_TRIANGLES = np.array([[(0, 0), (1, 0), (1, 1)],
                           [(0, 0), (1, 1), (0, 1)]])


def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes i + j (n + 1) at (i, j) / n, and triangles: every lower one in
    cell order i + j n, then every upper one in the same order."""
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    v00 = (i + j * (n + 1)).ravel()
    offsets = CELL_TRIANGLES[..., 0] + CELL_TRIANGLES[..., 1] * (n + 1)
    triangles = (offsets[:, None, :] + v00[None, :, None]).reshape(-1, 3)
    return nodes, triangles


def _boundary_loop(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    def idx(i, j):
        return i + j * (n + 1)

    bottom = [idx(i, 0) for i in range(n)]
    right = [idx(n, j) for j in range(n)]
    top = [idx(n - i, n) for i in range(n)]
    left = [idx(0, n - j) for j in range(n)]
    loop = np.array(bottom + right + top + left, dtype=np.int64)

    edges = np.column_stack([loop, np.roll(loop, -1)])
    normals = np.zeros((4 * n, 2))
    normals[0:n] = (0.0, -1.0)
    normals[n:2 * n] = (1.0, 0.0)
    normals[2 * n:3 * n] = (0.0, 1.0)
    normals[3 * n:4 * n] = (-1.0, 0.0)
    return loop, edges, normals


def build_unit_square_mesh(n: int) -> TriMesh:
    """Structured mesh of (0,1)^2 with (n+1)^2 nodes and 2 n^2 triangles."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    nodes, triangles = _grid(n)
    loop, edges, normals = _boundary_loop(n)
    return TriMesh(
        n=n,
        nodes=nodes,
        triangles=triangles,
        boundary_loop=loop,
        boundary_edges=edges,
        boundary_normals=normals,
        h=math.sqrt(2.0) / n,
    )


def build_periodic_cell_mesh(n: int) -> TriMesh:
    """Mesh of the unit cell Q = (0,1)^2 with opposite-face identification.

    ``dof_of_node`` maps each of the (n+1)^2 nodes to one of the n^2
    independent periodic degrees of freedom.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 for a periodic cell, got {n}")
    base = build_unit_square_mesh(n)

    def idx(i, j):
        return i + j * (n + 1)

    pairs: dict[int, int] = {}
    for j in range(n + 1):
        pairs[idx(0, j)] = idx(n, j)
        pairs[idx(n, j)] = idx(0, j)
    for i in range(1, n):
        pairs[idx(i, 0)] = idx(i, n)
        pairs[idx(i, n)] = idx(i, 0)

    I, J = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    dof = ((I % n) + (J % n) * n).ravel()

    return TriMesh(
        n=n,
        nodes=base.nodes,
        triangles=base.triangles,
        boundary_loop=base.boundary_loop,
        boundary_edges=base.boundary_edges,
        boundary_normals=base.boundary_normals,
        h=base.h,
        periodic_pairs=pairs,
        dof_of_node=dof,
    )


def boundary_mass_matrix(mesh: TriMesh) -> sp.csr_matrix:
    """P1 mass matrix of L^2(boundary), indexed by boundary-loop position."""
    nb = mesh.num_boundary_dofs
    pts = mesh.nodes[mesh.boundary_loop]
    lengths = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)

    k = np.arange(nb)
    kp = (k + 1) % nb
    rows = np.concatenate([k, kp, k, kp])
    cols = np.concatenate([k, kp, kp, k])
    vals = np.concatenate([
        lengths / 3.0, lengths / 3.0, lengths / 6.0, lengths / 6.0,
    ])
    return sp.coo_matrix((vals, (rows, cols)), shape=(nb, nb)).tocsr()


def boundary_arclength(mesh: TriMesh) -> np.ndarray:
    """Cumulative arclength of the boundary loop, starting at 0 in (0,0)."""
    pts = mesh.nodes[mesh.boundary_loop]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def boundary_perimeter(mesh: TriMesh) -> float:
    pts = mesh.nodes[mesh.boundary_loop]
    return float(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum())


def zero_mean_project(mesh: TriMesh, mass: sp.csr_matrix,
                      g: np.ndarray) -> np.ndarray:
    """Remove the boundary mean of g in the L^2(boundary) inner product."""
    ones = np.ones(mesh.num_boundary_dofs)
    w = mass @ ones
    return g - (w @ g) / (w @ ones)


def interpolation_matrix(mesh: TriMesh, points: np.ndarray) -> sp.csr_matrix:
    """P1 interpolation from the nodes of a structured mesh to points.

    Row k holds the barycentric weights of point k in its triangle, three
    entries that sum to 1; points outside the square are clamped onto it.
    """
    n = mesh.n
    pts = np.atleast_2d(points)
    x = np.clip(pts[:, 0], 0.0, 1.0) * n
    y = np.clip(pts[:, 1], 0.0, 1.0) * n
    i = np.minimum(x.astype(np.int64), n - 1)
    j = np.minimum(y.astype(np.int64), n - 1)
    xi = x - i
    eta = y - j

    v00 = i + j * (n + 1)
    v11 = v00 + n + 2
    # lower triangle (v00, v10, v11) when xi >= eta, else (v00, v11, v01)
    lower = xi >= eta
    third = np.where(lower, v00 + 1, v00 + n + 1)
    cols = np.column_stack([v00, v11, third])
    weights = np.column_stack([
        1.0 - np.where(lower, xi, eta),
        np.where(lower, eta, xi),
        np.abs(xi - eta),
    ])
    rows = np.repeat(np.arange(pts.shape[0]), 3)
    return sp.csr_matrix((weights.ravel(), (rows, cols.ravel())),
                         shape=(pts.shape[0], mesh.num_nodes))


def interpolate_nodal(mesh: TriMesh, values: np.ndarray,
                      points: np.ndarray) -> np.ndarray:
    """Evaluate a P1 nodal field of a structured mesh at arbitrary points."""
    return interpolation_matrix(mesh, points) @ values


def interpolate_boundary(mesh_from: TriMesh, values: np.ndarray,
                         mesh_to: TriMesh) -> np.ndarray:
    """Transfer a boundary-loop function between meshes by arclength interp."""
    s_from = boundary_arclength(mesh_from)
    s_to = boundary_arclength(mesh_to)
    per = boundary_perimeter(mesh_from)
    # periodic piecewise-linear interpolation along the loop
    s_ext = np.concatenate([s_from, [per]])
    v_ext = np.concatenate([values, [values[0]]])
    return np.interp(s_to % per, s_ext, v_ext)
