"""Boundary-condition families for the sup space: eigenmodes of the
Neumann-to-Dirichlet Laplace operator, and the affine normal-trace family.

The Neumann-to-Dirichlet operator is only available through solves, so its
leading eigenpairs are computed by scipy's ``eigsh`` (ARPACK's implicitly
restarted Lanczos), one Laplace solve per operator application, against a
shared factorization.  The zero-mean constraint is handled by deflating the
constant boundary function, which keeps the operator symmetric.  The square's
symmetries make some eigenvalues double; the basis is made canonical with
them (see ``compute_r_modes``), so it does not depend on the eigensolver or
on the factorization's rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .coefficients import SymMat, constant_field
from .mesh import TriMesh, boundary_mass_matrix, interpolate_boundary, \
    zero_mean_project
from .solver import NeumannSolver


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


# eigenvalues closer than this times the largest one form one cluster
CLUSTER_RTOL = 1e-8


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
    """g -> trace of the harmonic extension with Neumann flux g."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.mass = boundary_mass_matrix(mesh)
        self.solver = NeumannSolver(mesh, constant_field(SymMat.identity()))
        self.chol = sla.cholesky(self.mass.toarray(), lower=True)

    def apply(self, g: np.ndarray) -> np.ndarray:
        g = zero_mean_project(self.mesh, self.mass, g)
        u = self.solver.solve(g, check_mean=False)
        return self.solver.trace(u)

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


def _reflect_clusters(modes: np.ndarray, vals: np.ndarray, mass,
                      reflect: np.ndarray) -> np.ndarray:
    """Rotate each cluster of equal eigenvalues onto reflection eigenvectors.

    Inside a cluster (|dlambda| <= CLUSTER_RTOL * lambda_0) the eigensolver
    returns an arbitrary orthonormal basis.  The reflection (x, y) -> (y, x)
    is an exact symmetry of the mesh and of the identity-coefficient
    operator; its eigenvectors inside the cluster (parity +1 first) form a
    basis that depends on the operator alone.  Raises EigensolverError when
    the reflection does not split a cluster.
    """
    out = modes.copy()
    start = 0
    while start < len(vals):
        stop = start + 1
        while stop < len(vals) and \
                vals[start] - vals[stop] <= CLUSTER_RTOL * vals[0]:
            stop += 1
        if stop - start > 1:
            block = modes[start:stop]
            parity, rot = np.linalg.eigh(block @ (mass @ block[:, reflect].T))
            if np.any(np.diff(parity) < 1.0):
                raise EigensolverError(
                    f"the reflection does not split the eigenvalue cluster "
                    f"{vals[start:stop]} (parities {parity})")
            out[start:stop] = rot[:, ::-1].T @ block
        start = stop
    return out


def _symmetrize(g: np.ndarray, mass, symmetries) -> np.ndarray:
    """Average g over the symmetries that map it to +-g, orbit by orbit.

    Every entry is written from its orbit's one averaged value, so entries
    that a symmetry maps onto each other have equal magnitudes bit for bit
    and ``fix_sign`` sees exact ties, not ties broken by rounding.
    """
    norm = g @ (mass @ g)
    parity = np.array([g @ (mass @ g[p]) for p in symmetries]) / norm
    keep = np.abs(parity) > 0.5
    perms = np.stack(symmetries)[keep]
    signs = np.sign(parity[keep])
    avg = (signs[:, None] * g[perms]).mean(axis=0)
    # g[k] = sign_h * g[perm_h[k]]; take the image with the smallest index
    first = np.argmin(perms, axis=0)
    cols = np.arange(g.shape[0])
    return signs[first] * avg[perms[first, cols]]


def compute_r_modes(mesh: TriMesh, p_count: int, tol: float = 1e-10) -> ModeBasis:
    """Top eigenpairs of the Neumann-to-Dirichlet Laplace operator.

    Modes are orthonormal in the boundary mass inner product, have zero
    boundary mean, and are canonical: degenerate pairs are split by the
    reflection symmetry and signs follow ``fix_sign``, so the basis does not
    depend on the eigensolver's start vector or rounding.  When P would cut
    a cluster, the whole cluster is computed and rotated before truncation.
    """
    nb = mesh.num_boundary_dofs
    if not 1 <= p_count <= nb - 1:
        raise ValueError(f"need 1 <= P <= {nb - 1} boundary modes, "
                         f"got {p_count}")
    op = RModeOperator(mesh)
    deflate = op.to_y(np.ones(nb))
    nev = p_count
    while True:
        nev = min(nev + 1, nb - 1)
        vals, ys = extreme_eigenpairs(op.apply_y, dim=nb, nev=nev,
                                      deflate=deflate, which="LA", tol=tol)
        if nev == nb - 1 or \
                vals[p_count - 1] - vals[-1] > CLUSTER_RTOL * vals[0]:
            break
    if np.any(vals <= 0.0):
        raise EigensolverError(
            f"Neumann-to-Dirichlet operator produced non-positive "
            f"eigenvalues {vals}")
    modes = np.stack([op.from_y(ys[:, k]) for k in range(nev)])
    symmetries = _square_symmetries(nb)
    modes = _reflect_clusters(modes, vals, op.mass, symmetries[4])[:p_count]
    modes = np.stack([fix_sign(_symmetrize(g, op.mass, symmetries))
                      for g in modes])
    return ModeBasis(modes=modes, eigenvalues=vals[:p_count],
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
