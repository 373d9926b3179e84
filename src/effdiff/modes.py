"""Boundary-condition families for the sup space: eigenmodes of the
Neumann-to-Dirichlet Laplace operator, and the affine normal-trace family.

The Neumann-to-Dirichlet operator is only available through solves, so its
leading eigenpairs are computed by scipy's ``eigsh`` (ARPACK's implicitly
restarted Lanczos), one Laplace solve per operator application.  The grid
Laplacian is a Kronecker sum of 1-D operators, so each solve is an exact
separable one in their eigenbasis, with no 2-D factorization (see
``RModeOperator``).  The operator commutes with the eight symmetries of
the square and the solve runs in its symmetry sectors, so the group, not a
tolerance, fixes the multiplicities and the basis (see ``compute_r_modes``),
which does not depend on the eigensolver or on the solve's rounding.
The zero-mean constraint is handled by deflating the constant boundary
function, which keeps the operator symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import TriMesh, boundary_mass_matrix, interpolate_boundary, \
    zero_mean_project


@dataclass(frozen=True)
class ModeBasis:
    """Ordered boundary functions over boundary-loop DOFs of one mesh."""

    modes: np.ndarray                 # (P, nb)
    eigenvalues: np.ndarray | None    # (P,) for the R family, else None
    family: str                       # "r_modes" | "affine"
    mesh_n: int

    @property
    def count(self) -> int:
        return self.modes.shape[0]


class EigensolverError(RuntimeError):
    pass


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Make the entry of largest absolute value positive.

    Entries within 1e-8 * max|v| of the largest tie, and the first of them
    decides, so symmetric modes with exactly tied extremes get a sign that
    does not depend on rounding.
    """
    a = np.abs(v)
    k = int(np.argmax(a >= (1.0 - 1e-8) * a.max()))
    return -v if v[k] < 0.0 else v


def extreme_eigenpairs(apply_op: Callable[[np.ndarray], np.ndarray],
                       dim: int, nev: int,
                       deflate: np.ndarray | None = None,
                       which: str = "LA", tol: float = 1e-10,
                       seed: int = 12345):
    """Extreme eigenpairs of a symmetric operator by ARPACK's Lanczos.

    ``which`` selects the largest algebraic ("LA") or largest-magnitude
    ("LM") end of the spectrum; pairs come back in that order.  The
    ``deflate`` direction is projected out of the operator's input and
    output.  Raises EigensolverError on non-convergence.
    """
    defl = None if deflate is None else deflate / np.linalg.norm(deflate)

    def project(z):
        return z if defl is None else z - defl * (defl @ z)

    op = spla.LinearOperator((dim, dim), dtype=float,
                             matvec=lambda x: project(apply_op(project(x))))
    v0 = project(np.random.default_rng(seed).standard_normal(dim))
    try:
        vals, vecs = spla.eigsh(op, k=nev, which=which, v0=v0, tol=tol)
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"Lanczos did not converge: {exc}") from exc
    except spla.ArpackError as exc:
        # ARPACK gives up when the operator maps the start vector to zero;
        # for the zero operator every direction is an eigenvector of 0
        if np.any(op.matvec(v0)):
            raise EigensolverError(f"Lanczos failed: {exc}") from exc
        vecs, _ = np.linalg.qr(np.column_stack([v0] * nev))
        return np.zeros(nev), vecs
    order = np.argsort(-vals if which == "LA" else -np.abs(vals))
    return vals[order], vecs[:, order]


class RModeOperator:
    """g -> trace of the harmonic extension with Neumann flux g.

    The identity stiffness of the structured n-grid is the Kronecker sum
    K = D (x) K1 + K1 (x) D of the 1-D P1 Neumann stiffness K1 and the
    lumped 1-D mass D = h diag(1/2, 1, ..., 1, 1/2), so K is diagonal in
    V (x) V, where K1 V = D V Lambda and V^T D V = I (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964).  With the nodal values as an (n+1)-by-(n+1)
    array U[j, i], K u = b reads D U K1 + K1 U D = B, and U = V C V^T with
    C = V^T B V / (lambda_a + lambda_b).  B lives on the four sides and only
    the sides of U are read, so one application costs O(n^2).
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.mass = boundary_mass_matrix(mesh)
        n = mesh.n
        d = np.full(n + 1, 1.0 / n)
        d[[0, -1]] *= 0.5
        # D^-1/2 K1 D^-1/2 with K1 = n tridiag(-1, 2, -1), 1 at both ends
        k1_diag = np.full(n + 1, 2.0 * n)
        k1_diag[[0, -1]] = n
        s = 1.0 / np.sqrt(d)
        lam, w = sla.eigh_tridiagonal(k1_diag * s * s,
                                      -n * s[:-1] * s[1:])
        self._v = w * s[:, None]
        denom = lam[:, None] + lam[None, :]
        denom[0, 0] = np.inf   # the constants: their component stays 0
        self._inv_denom = 1.0 / denom

    @cached_property
    def chol(self) -> np.ndarray:   # only the dense reference apply_y reads it
        return sla.cholesky(self.mass.toarray(), lower=True)

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Zero-boundary-mean trace of the solution for the load M_b g."""
        mesh, v, n = self.mesh, self._v, self.mesh.n
        b = np.zeros(mesh.num_nodes)
        b[mesh.boundary_loop] = self.mass @ zero_mean_project(mesh,
                                                              self.mass, g)
        b = b.reshape(n + 1, n + 1)
        first, last = v[0], v[n]
        # V^T B V from the rows j = 0, n and the columns i = 0, n of B
        c = (np.outer(first, b[0] @ v) + np.outer(last, b[n] @ v)
             + np.outer(b[1:n, 0] @ v[1:n], first)
             + np.outer(b[1:n, n] @ v[1:n], last)) * self._inv_denom
        # rows j = 0, n and columns i = 0, n of U = V C V^T
        u = np.zeros((n + 1, n + 1))
        u[0] = (first @ c) @ v.T
        u[n] = (last @ c) @ v.T
        u[:, 0] = v @ (c @ first)
        u[:, n] = v @ (c @ last)
        trace = u.ravel()[mesh.boundary_loop]
        return zero_mean_project(mesh, self.mass, trace)

    # symmetric conjugated operator y = L^T g
    def to_y(self, g: np.ndarray) -> np.ndarray:
        return self.chol.T @ g

    def from_y(self, y: np.ndarray) -> np.ndarray:
        return sla.solve_triangular(self.chol.T, y, lower=False)

    def apply_y(self, y: np.ndarray) -> np.ndarray:
        return self.to_y(self.apply(self.from_y(y)))


def _square_symmetries(nb: int) -> list[np.ndarray]:
    """Loop-position maps of the eight symmetries of the square.

    The loop runs counterclockwise from the origin with nb / 4 positions per
    side, so a quarter turn sends position k to k + nb / 4 and the reflection
    (x, y) -> (y, x) sends it to -k.  The reflection comes fifth.
    """
    k = np.arange(nb)
    return [(sign * k + m * (nb // 4)) % nb for sign in (1, -1)
            for m in range(4)]


# Weights of the eight symmetries, in ``_square_symmetries`` order, that
# define the sectors of the solve: the characters of the square group's four
# one-dimensional representations (the trivial one first), then the
# reflection-even half of its two-dimensional representation, where the half
# turn acts as -1.  A quarter turn maps that half onto the other one.
_SECTOR_WEIGHTS = np.array([[1, 1, 1, 1, 1, 1, 1, 1],
                            [1, 1, 1, 1, -1, -1, -1, -1],
                            [1, -1, 1, -1, 1, -1, 1, -1],
                            [1, -1, 1, -1, -1, 1, -1, 1],
                            [1, 0, -1, 0, 1, 0, -1, 0]])


def _sector_basis(symmetries: list[np.ndarray],
                  weights: np.ndarray) -> sp.csc_matrix:
    """Signed orbit indicators spanning one symmetry sector.

    The symmetries of nonzero weight form a subgroup and the weights are a
    character of it; the sector holds the boundary functions g with
    g[perm[k]] = weight * g[k] for each of them.  Each column is one orbit
    with its entries set to the weights (+-1), the orbit's smallest position
    at +1.  An orbit whose stabilizer has weight -1 carries no such function
    and gets no column.
    """
    used = weights != 0
    perms = np.stack(symmetries)[used]
    reps = np.unique(perms.min(axis=0))
    cols = np.tile(np.arange(reps.size), perms.shape[0])
    vals = np.repeat(weights[used], reps.size).astype(float)
    # the construction sums the entries a stabilizer maps onto each other
    b = sp.csc_matrix((vals, (perms[:, reps].ravel(), cols)),
                      shape=(perms.shape[1], reps.size))
    b.data = np.sign(b.data)
    b.eliminate_zeros()
    return b[:, np.diff(b.indptr) > 0]


def compute_r_modes(mesh: TriMesh, p_count: int, tol: float = 1e-10) -> ModeBasis:
    """Top eigenpairs of the Neumann-to-Dirichlet Laplace operator.

    Modes are orthonormal in the boundary mass inner product, have zero
    boundary mean, and are canonical.  The operator commutes with the eight
    symmetries of the square, so one Lanczos solve runs on the sum of the
    sectors in ``_SECTOR_WEIGHTS``, each with a mass-orthonormal basis of
    signed orbit indicators; there every eigenvalue is simple, so none can
    lose a copy.  Each eigenvector is projected onto its dominant sector and
    expanded from its orbit values, so entries that a symmetry maps onto
    each other are equal bit for bit.  A mode of the two-dimensional sector
    is followed by its quarter turn, the second mode of its eigenvalue.
    Signs follow ``fix_sign``, so the basis does not depend on the
    eigensolver's start vector or rounding.
    """
    nb = mesh.num_boundary_dofs
    if not 1 <= p_count <= nb - 1:
        raise ValueError(f"need 1 <= P <= {nb - 1} boundary modes, "
                         f"got {p_count}")
    op = RModeOperator(mesh)
    symmetries = _square_symmetries(nb)
    # per sector: its orbit indicators B and the Cholesky factor of B^T M B
    sectors = []
    for weights in _SECTOR_WEIGHTS:
        b = _sector_basis(symmetries, weights)
        sectors.append((b, sla.cholesky((b.T @ (op.mass @ b)).toarray(),
                                        lower=True)))
    splits = np.cumsum([b.shape[1] for b, _ in sectors])
    dim = int(splits[-1])

    # c holds coordinates in the sectors' mass-orthonormal bases B L^-T
    def expand(b, chol, c):
        return b @ sla.solve_triangular(chol, c, trans="T", lower=True)

    def restrict(g):
        mg = op.mass @ g
        return np.concatenate([sla.solve_triangular(chol, b.T @ mg,
                                                    lower=True)
                               for b, chol in sectors])

    def apply_op(c):
        return restrict(op.apply(sum(
            expand(b, chol, part) for (b, chol), part
            in zip(sectors, np.split(c, splits[:-1])))))

    # P eigenpairs here give at least P modes, two per 2-D-sector pair; the
    # constant function is the one zero eigenvector
    vals, cs = extreme_eigenpairs(apply_op, dim=dim,
                                  nev=min(p_count, dim - 1),
                                  deflate=restrict(np.ones(nb)),
                                  which="LA", tol=tol)
    if np.any(vals <= 0.0):
        raise EigensolverError(
            f"Neumann-to-Dirichlet operator produced non-positive "
            f"eigenvalues {vals}")
    modes, lams = [], []
    for lam, c in zip(vals, cs.T):
        parts = np.split(c, splits[:-1])
        k = int(np.argmax([np.linalg.norm(part) for part in parts]))
        g = expand(*sectors[k], parts[k] / np.linalg.norm(parts[k]))
        modes.append(fix_sign(g))
        lams.append(lam)
        if _SECTOR_WEIGHTS[k, 1] == 0:   # the two-dimensional sector
            modes.append(fix_sign(g[symmetries[1]]))
            lams.append(lam)
    order = np.argsort(-np.array(lams), kind="stable")[:p_count]
    return ModeBasis(modes=np.stack(modes)[order],
                     eigenvalues=np.array(lams)[order],
                     family="r_modes", mesh_n=mesh.n)


def affine_modes(mesh: TriMesh) -> ModeBasis:
    """The three normal-trace data e1.n, e2.n, (e1+e2)/2 . n.

    Each datum is L^2-projected onto the boundary P1 space, zero-meaned and
    normalized.  Gram-Schmidt is applied in index order, except that a
    datum lying in the span of the previous ones is kept normalized as-is:
    on the square the third direction is linearly dependent as a boundary
    function but still carries an independent energy measurement.
    """
    mass = boundary_mass_matrix(mesh)
    dense_mass = mass.toarray()
    directions = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  np.array([0.5, 0.5])]

    nb = mesh.num_boundary_dofs
    pts = mesh.nodes[mesh.boundary_loop]
    lengths = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)

    raw = []
    for e in directions:
        gn = mesh.boundary_normals @ e  # per boundary edge
        rhs = np.zeros(nb)
        # edge k contributes (e.n) * len/2 to both endpoints (loop k, k+1)
        np.add.at(rhs, np.arange(nb), gn * lengths / 2.0)
        np.add.at(rhs, (np.arange(nb) + 1) % nb, gn * lengths / 2.0)
        raw.append(np.linalg.solve(dense_mass, rhs))

    modes = []
    for g in raw:
        g = zero_mean_project(mesh, mass, g)
        for prev in modes:
            g = g - prev * float(prev @ (mass @ g))
        norm = float(np.sqrt(g @ (mass @ g)))
        if norm < 1e-8:
            # linearly dependent datum: keep the normalized original
            g = zero_mean_project(mesh, mass, raw[len(modes)])
            norm = float(np.sqrt(g @ (mass @ g)))
        modes.append(fix_sign(g / norm))
    return ModeBasis(modes=np.stack(modes), eigenvalues=None,
                     family="affine", mesh_n=mesh.n)


def choose_p(eps: float) -> int:
    """Number of boundary modes per the reported parameter choice."""
    if eps <= 0.0:
        raise ValueError(f"need eps > 0, got {eps}")
    return 3 if eps < 0.2 else 5


def modes_on_mesh(basis: ModeBasis, source: TriMesh,
                  target: TriMesh) -> ModeBasis:
    """Represent a mode basis on another mesh of the same domain.

    Affine families are rebuilt exactly; eigenmode families are transferred
    by arclength interpolation followed by zero-mean projection (no
    renormalization, so energies stay comparable across meshes).
    """
    if source.n != basis.mesh_n:
        raise ValueError("basis does not belong to the source mesh")
    if target.n == source.n:
        return basis
    if basis.family == "affine":
        return affine_modes(target)
    mass = boundary_mass_matrix(target)
    out = np.empty((basis.count, target.num_boundary_dofs))
    for k in range(basis.count):
        g = interpolate_boundary(source, basis.modes[k], target)
        out[k] = zero_mean_project(target, mass, g)
    return ModeBasis(modes=out, eigenvalues=basis.eigenvalues,
                     family=basis.family, mesh_n=target.n)
