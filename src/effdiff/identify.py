"""Identification of a constant effective matrix from energy measurements.

The observables are stored energies of pure-Neumann solves against a small
family of boundary conditions.  The engine minimizes the mismatch between
measured energies and those of a constant-coefficient surrogate on a coarse
mesh, by Armijo gradient descent.  Baseline objectives built from boundary
traces (surface measurements) and from full volume fields are included for
comparison.

The surrogate is a certified reduced basis (``CoarseModel``), built once
per coarse mesh and mode basis and shared by every descent on them: its
stiffness a11 K11 + a12 K12 + a22 K22 is projected onto a Galerkin space of
m snapshot solutions, so a candidate costs one dense m x m solve, and each
energy comes with a bound on its distance to the full coarse surrogate.
Every objective has the exact adjoint gradient of the reduced model: the
derivative of its stiffness in an entry is a projected unit stiffness, and
each objective only supplies its adjoint coordinates.  An objective returns
its value and a function that forms the gradient from the same evaluation
when called, so an Armijo trial pays for the value alone.  Measurements,
the snapshots and the single-mesh identity check go through
``NeumannSolver``.  Two noise mechanisms are implemented: multiplicative
noise on the measured energies, and additive random perturbations of the
candidate matrix inside the surrogate solves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
import scipy.sparse as sp

from .coefficients import CoefficientField, SymMat, constant_field
from .mesh import TriMesh, boundary_mass_matrix, interpolate_boundary, \
    interpolation_matrix, zero_mean_project
from .mesh import interpolate_nodal  # noqa: F401  (bench/child.py wraps it)
from .modes import ModeBasis, fix_sign, modes_on_mesh
from .solver import NeumannSolver, assemble_volume_mass, boundary_load, \
    one_blas_thread, unit_stiffnesses


# ---------------------------------------------------------------------------
# measurements

@dataclass(frozen=True)
class Measurements:
    """Observables recorded against one mode basis on the measurement mesh.

    ``cross[p, q]`` is the boundary inner product of mode p with the trace
    of the solution driven by mode q; its diagonal is -2 * energies.  The
    volume fields are the solutions themselves; they and their boundary
    traces are only needed by the surface and volume baseline objectives
    and by ``err_eps_q``.  A noisy record keeps its energies alone.
    """

    basis: ModeBasis
    energies: np.ndarray                    # (P,)
    mesh: TriMesh
    cross: np.ndarray | None = None         # (P, P)
    volume_fields: np.ndarray | None = None     # (P, num_nodes)

    @property
    def count(self) -> int:
        return self.energies.shape[0]

    @property
    def boundary_traces(self) -> np.ndarray | None:
        """The fields on the boundary loop, (P, nb); None without them."""
        return None if self.volume_fields is None \
            else self.volume_fields[:, self.mesh.boundary_loop]


def simulate_measurements(mesh: TriMesh, coeff: CoefficientField,
                          basis: ModeBasis) -> Measurements:
    """Solve the Neumann problems of all modes at once and record the
    energies, the cross table and the solutions as volume fields."""
    if basis.mesh_n != mesh.n:
        raise ValueError("mode basis does not live on the measurement mesh")
    solver = NeumannSolver(mesh, coeff)
    u = solver.solve(basis.modes.T)   # (num_nodes, P)
    cross = basis.modes @ (solver.boundary_mass @ solver.trace(u))
    return Measurements(basis=basis, energies=-0.5 * np.diag(cross),
                        mesh=mesh, cross=cross, volume_fields=u.T)


# ---------------------------------------------------------------------------
# coarse constant-coefficient surrogate, reduced

# relative bound on the surrogate energies that every evaluation certifies
ENERGY_TOL = 1e-11


def _border(a: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The symmetric block matrix [[a, c], [c^T, d]] (of each matrix of a
    stack)."""
    return np.block([[a, c], [c.swapaxes(-1, -2), d]])


def _split(a: np.ndarray) -> tuple[float, float, float]:
    """(s, d, e) of a = (a11, a12, a22): K(A) = s K(I) + d D + e K12 with
    s = (a11 + a22) / 2, d = (a11 - a22) / 2, e = a12 and D = K11 - K22."""
    return 0.5 * (a[0] + a[2]), 0.5 * (a[0] - a[2]), a[1]


@dataclass(frozen=True)
class CoarseEvaluation:
    """The reduced surrogate at one candidate.

    Mode p's solution is V x_p, with its Galerkin coordinates x_p the
    columns of ``coords``; ``compliance`` is B_r^T x, the surrogate cross
    table, whose diagonal is -2 energies; ``bound[p]`` bounds the error of
    energy p against the full coarse surrogate.  ``basis`` (V) and
    ``units`` (V^T D V and V^T K12 V; V^T K(I) V is the identity) are the
    model's space when it was evaluated.
    """

    abar: SymMat
    coords: np.ndarray       # (m, P)
    compliance: np.ndarray   # (P, P)
    bound: np.ndarray        # (P,)
    basis: np.ndarray        # (nodes, m)
    units: np.ndarray        # (2, m, m)

    @property
    def energies(self) -> np.ndarray:
        return -0.5 * np.diagonal(self.compliance)

    def solutions(self) -> np.ndarray:
        """Nodal solutions V x_p of the P mode loads, shape (nodes, P)."""
        return self.basis @ self.coords

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Coordinates K_r^-1 rhs of reduced loads rhs (m, k)."""
        s, d, e = _split(self.abar.vec())
        k_r = d * self.units[0] + e * self.units[1]
        k_r.flat[::k_r.shape[0] + 1] += s
        return np.linalg.solve(k_r, rhs)

    def sensitivity(self, z: np.ndarray,
                    x: np.ndarray | None = None) -> np.ndarray:
        """[sum_p z_p.K11_r x_p, sum_p z_p.K12_r x_p, sum_p z_p.K22_r x_p]
        for coordinates z and x (m, k), x by default the solutions'.

        The reduced stiffness is a11 K11_r + a12 K12_r + a22 K22_r, so the
        derivative of the coordinates in an entry is x' = -K_r^-1 K_ij,r x.
        An objective's gradient, exact for the reduced model, is this form
        of its adjoint coordinates z, times its chain-rule factor.  In the
        K(I)-orthonormal basis K11_r = (I + D_r) / 2 and K22_r = (I - D_r)
        / 2.
        """
        x = self.coords if x is None else x
        zx, zdx, zex = np.einsum("ip,kip->k", z, np.stack([x, *(
            self.units @ x)]))
        return np.array([0.5 * (zx + zdx), zex, 0.5 * (zx - zdx)])


class CoarseModel:
    """The constant-coefficient surrogate of one mode basis on the coarse
    mesh, as a certified reduced basis (Prud'homme et al., J. Fluids Eng.
    124, 2002; Abdulle & Bai, J. Comput. Phys. 231, 2012).

    The stiffness is affine in A, K(A) = s K(I) + d D + e K12 (``_split``),
    and the solutions of the P mode loads B are homogeneous of degree -1 in
    A, so they depend on the shape of A alone.  The Galerkin space V holds
    snapshots K(A)^+ B and their mirror images under (x, y) -> (y, x),
    which solve at the mirrored shape (a22, a12, a11) when the span of the
    modes is mirror-symmetric.  V is orthonormal in the K(I) inner product,
    so orthogonal to the constants, and its reduced stiffness is
    s I + d D_r + e K12_r: an evaluation costs one dense m x m solve.

    Every energy comes with a bound.  Galerkin orthogonality gives
    E_r - E = |u - u_r|^2_K / 2 >= 0, and K(A) >= lambda_min(A) K(I), so
    |E_r - E| <= |r|^2_{K(I)^+} / (2 lambda_min(A)) for the residual
    r = b - K(A) V x.  Its dual norm is a quadratic form in x whose
    matrices are cached with the space (the offline/online split).

    A new model holds the snapshot of A = I alone, whose factor also
    applies K(I)^+.  V grows along the path of the candidates evaluated: a
    candidate with an energy whose bound exceeds ``ENERGY_TOL`` of it adds
    its own snapshot (``enrichments``) before it is returned, once per
    shape.  Then the bound is within ``ENERGY_TOL`` unless round-off in the
    bound's quadratic form, divided by lambda_min(A), dominates it, which
    happens at anisotropies of a few hundred and more; such a value is
    returned with a ``RuntimeWarning`` that names the anisotropy and the
    bound, at every evaluation.
    ``snapshots`` counts the shapes factored, 1 + ``enrichments``.  A model
    changes as it is enriched: share it within one thread only.
    """

    def __init__(self, coarse_mesh: TriMesh, basis: ModeBasis):
        if basis.mesh_n != coarse_mesh.n:
            raise ValueError("mode basis does not live on the coarse mesh")
        self.mesh = coarse_mesh
        self.basis = basis
        self.boundary_mass = boundary_mass_matrix(coarse_mesh)
        self.loads = boundary_load(coarse_mesh, self.boundary_mass,
                                   basis.modes.T)   # (nodes, P)
        n = coarse_mesh.n
        self._k11, self._k12, k22 = unit_stiffnesses(n)
        self._k_identity, self._d = self._k11 + k22, self._k11 - k22
        node = np.arange((n + 1) ** 2)
        self._mirror = node // (n + 1) + node % (n + 1) * (n + 1)
        self._identity = NeumannSolver(coarse_mesh,
                                       constant_field(SymMat.identity()))
        self._b_dual = self._identity.solve(basis.modes.T)   # K(I)^+ B
        self._bb = np.einsum("np,np->p", self.loads, self._b_dual)
        nodes, p = self.loads.shape
        self._v = np.empty((nodes, 0))        # V
        self._units = np.empty((2, 0, 0))     # V^T D V, V^T K12 V
        self._br = np.empty((0, p))           # V^T B
        # B^T K(I)^+ D V and B^T K(I)^+ K12 V; the Grams in K(I)^+ of DV
        # with itself, of DV with K12 V (symmetrized), and of K12 V
        self._h = np.empty((2, p, 0))
        self._g = np.empty((3, 0, 0))
        self.enrichments = 0
        self._shapes = {tuple(SymMat.identity().vec())}   # those factored
        self._extend(self._b_dual)

    @property
    def snapshots(self) -> int:
        """The shapes factored, 1 + ``enrichments``."""
        return len(self._shapes)

    @property
    def m(self) -> int:
        """Dimension of the reduced space."""
        return self._v.shape[1]

    def _snapshot(self, shape: np.ndarray) -> None:
        """Add the exact solutions at ``shape`` and their mirror images."""
        u = NeumannSolver(self.mesh, constant_field(SymMat.from_vec(
            shape))).solve(self.basis.modes.T)
        self._shapes.add(tuple(shape))
        self._extend(np.hstack([u, u[self._mirror]]))

    def _extend(self, u: np.ndarray) -> None:
        """Add the span of the columns of u to V and extend the cached
        projections by its new directions.  A direction of K(I)-norm below
        1e-8 of the largest column's, whose energy is below 1e-16 of it,
        is dropped."""
        old = self.m
        k_i = self._k_identity
        floor = 1e-16 * np.max(np.einsum("ni,ni->i", u, k_i @ u))
        for _ in range(2):   # Gram-Schmidt in K(I) against V, twice
            u = u - self._v @ (self._v.T @ (k_i @ u))
            w, q = np.linalg.eigh(u.T @ (k_i @ u))
            u = u @ (q[:, w > floor] / np.sqrt(w[w > floor]))
        s = u.shape[1]
        if not s:
            return
        v = np.hstack([self._v, u])
        yd, ye = self._d @ u, self._k12 @ u
        # K(I)^+ D u = 2 K(I)^+ K11 u - u, as D = 2 K11 - K(I) and u has
        # zero boundary mean
        dual = self._identity.solve_load(np.hstack([self._k11 @ u, ye]))
        zd, ze = 2.0 * dual[:, :s] - u, dual[:, s:]
        vd, ve = v.T @ yd, v.T @ ye
        self._units = _border(self._units, np.stack([vd[:old], ve[:old]]),
                              np.stack([vd[old:], ve[old:]]))
        self._h = np.concatenate([self._h, np.stack(
            [self._b_dual.T @ yd, self._b_dual.T @ ye])], axis=2)
        # the old columns against the new duals: (D v_j).z = v_j.D z
        vt, d, k12 = self._v.T, self._d, self._k12
        cross = np.stack([vt @ (d @ zd), 0.5 * vt @ (d @ ze + k12 @ zd),
                          vt @ (k12 @ ze)])
        corner = np.stack([yd.T @ zd, 0.5 * (yd.T @ ze + ye.T @ zd),
                           ye.T @ ze])
        self._g = _border(self._g, cross, corner)
        self._br = np.vstack([self._br, u.T @ self.loads])
        self._v = v

    def _solve(self, shape: np.ndarray):
        """The reduced solve at ``shape`` = (a11, a12, a22): the
        coordinates (m, P), the compliance (P, P) and the energy bounds
        (P,)."""
        m = self.m
        s, d, e = _split(shape)
        k_r = (np.array([d, e]) @ self._units.reshape(2, -1)).reshape(m, m)
        k_r.flat[::m + 1] += s
        # k_r is symmetric, so its transpose is the Fortran-ordered matrix
        # that LAPACK factors in place
        _, x, info = lapack.dposv(k_r.T, self._br, overwrite_a=1)
        if info:
            raise np.linalg.LinAlgError(
                f"reduced stiffness at {shape} is not positive definite")
        compliance = self._br.T @ x
        # K(I)^+ r = K(I)^+ b - s V x - d K(I)^+ D V x - e K(I)^+ K12 V x;
        # with s x + d D_r x + e K12_r x = b_r, its K(I)-norm squared is
        # b.K(I)^+ b - 2 x.(d h_D + e h_E) - s^2 x.x + x.G(d, e) x
        quad = (np.array([d * d, 2.0 * d * e, e * e])
                @ self._g.reshape(3, -1)).reshape(m, m)
        r2 = self._bb - 2.0 * np.einsum("pi,ip->p", d * self._h[0]
                                        + e * self._h[1], x) \
            - s * s * np.einsum("ip,ip->p", x, x) \
            + np.einsum("ip,ip->p", x, quad @ x)
        bound = np.maximum(r2, 0.0) / (2.0 * (s - math.hypot(d, e)))
        return x, compliance, bound

    def evaluate(self, abar: SymMat) -> CoarseEvaluation:
        if not abar.is_spd():
            raise ValueError(f"candidate {abar} is not positive definite")
        a = abar.vec()
        x, compliance, bound = self._solve(a)
        if np.any(bound > 0.5 * ENERGY_TOL * np.abs(np.diagonal(compliance))):
            # a shape already in V adds no direction a second time
            if tuple(a) not in self._shapes:
                self._snapshot(a)
                self.enrichments += 1
                x, compliance, bound = self._solve(a)
            rel = np.max(2.0 * bound / np.abs(np.diagonal(compliance)))
            if rel > ENERGY_TOL:
                lo, hi = abar.eigenvalues()
                warnings.warn(
                    f"reduced energies at {abar} (anisotropy {hi / lo:.3g}) "
                    f"are certified only to {rel:.3g} relative, above "
                    f"ENERGY_TOL = {ENERGY_TOL:g}", RuntimeWarning)
        return CoarseEvaluation(abar=abar, coords=x, compliance=compliance,
                                bound=bound, basis=self._v, units=self._units)


def coarse_model(meas: Measurements, coarse_mesh: TriMesh) -> CoarseModel:
    """The surrogate of ``meas`` on ``coarse_mesh``: its mode basis carried
    to the coarse mesh."""
    return CoarseModel(coarse_mesh,
                       modes_on_mesh(meas.basis, meas.mesh, coarse_mesh))


# ---------------------------------------------------------------------------
# objectives

# an objective's value at a point and a function forming its gradient there
Point = tuple[float, Callable[[], np.ndarray]]
Objective = Callable[[SymMat], Point]


def assemble_m(meas: Measurements,
               coarse: CoarseEvaluation) -> tuple[np.ndarray, bool]:
    """The P x P mismatch matrix; (matrix, diagonal_only) pair.

    Entry (p, q) is half the boundary inner product of mode q with the
    difference between the measured trace and the surrogate trace of the
    solution driven by mode p, symmetrized by averaging with the
    transpose.  Without a measured cross table only the diagonal is
    available (from energies alone) and the flag is set.
    """
    if meas.cross is None:
        delta = meas.energies - coarse.energies
        return np.diag(-delta), True
    # the surrogate's cross table pairs mode p with the trace driven by q,
    # b_p.u_q: its compliance.  meas.cross[p, q] is oriented the same way,
    # so meas.cross.T the other way; the average with the transpose makes
    # the orientation of either table irrelevant
    m = 0.5 * (meas.cross.T - coarse.compliance)
    return 0.5 * (m + m.T), False


def psi_max_from_m(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared extreme eigenvalue of the mismatch matrix and its argmax.

    The extreme eigenvalue is the one of largest absolute value; ties are
    broken toward the larger algebraic eigenvalue, and the eigenvector
    carries the deterministic sign convention.
    """
    vals, vecs = sla.eigh(m)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    idx = int(np.argmax(np.abs(vals)))
    lam = float(vals[idx])
    return lam * lam, fix_sign(vecs[:, idx])


def fd_gradient(fn: Callable[[SymMat], float], abar: SymMat,
                rel_step: float = 1e-6) -> np.ndarray:
    """Central finite differences over the three symmetric entries."""
    v = abar.vec()
    out = np.empty(3)
    for i in range(3):
        h = rel_step * (1.0 + abs(v[i]))
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        out[i] = (fn(SymMat.from_vec(vp)) - fn(SymMat.from_vec(vm))) / (2 * h)
    return out


def _energy_mismatch(meas: Measurements,
                     coarse: Sequence[CoarseEvaluation]) -> Point:
    """Squared gap between the measured energies and the mean surrogate
    energies over the evaluations ``coarse``, and its gradient on demand.

    The candidates are the point itself or the point plus fixed offsets,
    so the gradient in the point is the mean over the candidates.  A
    surrogate energy is E = -b_r.x / 2 for the mode's reduced load b_r, so
    dE/da_ij = x.K_ij,r x / 2, and the chain rule through the squared gap
    delta supplies -2 delta: the adjoint coordinates of mode p are
    delta_p x_p.
    """
    delta = meas.energies - sum(c.energies for c in coarse) / len(coarse)

    def gradient():
        g = sum(c.sensitivity(delta * c.coords) for c in coarse)
        return -g / len(coarse)
    return float(delta @ delta), gradient


# ---------------------------------------------------------------------------
# trace / volume baselines

def _measured_traces(meas: Measurements, model: CoarseModel) -> np.ndarray:
    """Measured traces carried to the model's coarse boundary by arclength
    interpolation, with their boundary mean removed; shape (P, nb)."""
    if meas.volume_fields is None:
        raise ValueError("surface objective needs recorded volume fields")
    return np.array([zero_mean_project(
        model.mesh, model.boundary_mass,
        interpolate_boundary(meas.mesh, t, model.mesh))
        for t in meas.boundary_traces])


def volume_setup(meas: Measurements, coarse_mesh: TriMesh):
    """Interpolation of coarse nodal fields onto the measurement mesh and
    that mesh's volume mass matrix: (I, M)."""
    if meas.volume_fields is None:
        raise ValueError("volume mismatch needs recorded volume fields")
    return (interpolation_matrix(coarse_mesh, meas.mesh.nodes),
            assemble_volume_mass(meas.mesh))


# ---------------------------------------------------------------------------
# noise

@dataclass(frozen=True)
class NoiseSpec:
    kind: str          # "measurement" | "coefficient"
    sigma: float
    draws: int = 1     # realizations of the matrix perturbation
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError(f"need sigma >= 0, got {self.sigma}")
        if self.draws < 1:
            raise ValueError(f"need draws >= 1, got {self.draws}")
        if self.kind not in ("measurement", "coefficient"):
            raise ValueError(f"unknown noise kind {self.kind!r}")


def apply_measurement_noise(meas: Measurements,
                            spec: NoiseSpec) -> Measurements:
    """Multiplicative Gaussian noise on the measured energies.

    Derived observables (cross table, fields and so traces) are dropped
    from the noisy record since they no longer agree with the perturbed
    energies.
    """
    if spec.kind != "measurement":
        raise ValueError("expected a measurement-noise spec")
    rng = np.random.default_rng(spec.seed)
    eta = rng.standard_normal(meas.count)
    noisy = meas.energies * (1.0 + spec.sigma * eta)
    return replace(meas, energies=noisy, cross=None, volume_fields=None)


def draw_matrix_perturbations(abar: SymMat, spec: NoiseSpec):
    """Seeded Gaussian perturbations of the candidate, resampled to SPD.

    Each draw is the candidate plus a fixed seeded offset, and the same
    seed accepts the same offsets for nearby candidates, so the noisy
    objective is a smooth function of the candidate with an exact gradient.
    Returns (list of SymMat, rejection count).  Raises ValueError after 50
    attempts per draw, or when, after 2 attempts per draw, more than half
    of the attempts were rejected.
    """
    rng = np.random.default_rng(spec.seed)
    out: list[SymMat] = []
    rejected = 0
    attempts = 0
    while len(out) < spec.draws:
        if attempts >= 50 * spec.draws or (attempts >= 2 * spec.draws
                                           and rejected > attempts / 2):
            raise ValueError(
                f"perturbation rejection rate too high: {rejected} of "
                f"{attempts} draws left the positive-definite cone at "
                f"sigma={spec.sigma} around {abar}")
        attempts += 1
        eta = spec.sigma * rng.standard_normal(3)
        cand = SymMat.from_vec(abar.vec() + eta)
        if cand.is_spd():
            out.append(cand)
        else:
            rejected += 1
    return out, rejected


# --- one-dimensional analog with an analytic optimum ----------------------

def one_d_noise_objective(abar: float, a_star: float, alpha1: float,
                          alpha2: float) -> float:
    """Squared mismatch of inverse coefficients under uniform perturbation.

    In one dimension with the two-point boundary datum, the energy is
    proportional to the inverse coefficient, and a uniform perturbation on
    [alpha1, alpha2] averages to a logarithm in closed form.
    """
    if abar + alpha1 <= 0.0:
        raise ValueError(f"candidate {abar} leaves the coercive range")
    mean_inv = math.log((abar + alpha2) / (abar + alpha1)) / (alpha2 - alpha1)
    return (1.0 / a_star - mean_inv) ** 2


def one_d_noise_optimum(a_star: float, alpha1: float, alpha2: float) -> float:
    """Closed-form minimizer of the one-dimensional noisy objective."""
    ell = alpha2 - alpha1
    e = math.exp(ell / a_star)
    return (alpha2 - alpha1 * e) / (e - 1.0)


def one_d_noise_descent(a_star: float, alpha1: float, alpha2: float,
                        init: float, max_iters: int = 500,
                        tol: float = 1e-12) -> float:
    """Scalar Armijo descent on the one-dimensional noisy objective."""
    ell = alpha2 - alpha1
    a = float(init)

    def f(x):
        return one_d_noise_objective(x, a_star, alpha1, alpha2)

    def df(x):
        mean_inv = math.log((x + alpha2) / (x + alpha1)) / ell
        e = 1.0 / a_star - mean_inv
        de = -(1.0 / (x + alpha2) - 1.0 / (x + alpha1)) / ell
        return 2.0 * e * de

    val = f(a)
    for _ in range(max_iters):
        g = df(a)
        if abs(g) <= tol * (1.0 + val):
            break
        t = 0.1 * max(abs(a), 1.0) / abs(g)
        while True:
            cand = a - t * g
            if cand + alpha1 > 0.0:
                cval = f(cand)
                if cval <= val - 0.1 * t * g * g:
                    a, val = cand, cval
                    break
            t *= 0.5
            if t < 1e-30:
                return a
    return a


# ---------------------------------------------------------------------------
# descent

@dataclass
class OptimizerTrace:
    iterates: list[SymMat]
    objective_values: list[float]
    gradient_norms: list[float]
    termination: str   # gradient_small | max_iters | line_search_failed
    iterations: int    # accepted steps
    evaluations: int   # objective values: the start and every trial
    gradients: int     # gradients: the start and every accepted point

    @property
    def final(self) -> SymMat:
        return self.iterates[-1]


ARMIJO_M = 0.1          # sufficient-decrease fraction
BACKTRACK = 0.5         # step shrink per failed trial
FIRST_MOVE_FRAC = 0.1   # largest relative move of a first trial step
MAX_BACKTRACKS = 60


def descend(objective: Objective, init: SymMat, max_iters: int = 200,
            grad_tol: float = 1e-8) -> OptimizerTrace:
    """Armijo backtracking gradient descent over symmetric 2x2 matrices.

    ``objective(a)`` returns the value at a and a function that forms the
    gradient there.  A trial point needs the value only (Nocedal & Wright,
    Numerical Optimization, sec. 3.1), so the gradient is formed at the
    start and at each accepted point, from the evaluation of its value.
    The first trial step is scaled so the first update moves the candidate
    by at most ``FIRST_MOVE_FRAC`` of its Frobenius norm; later iterations
    start from twice the previously accepted step.  Trial points outside
    the positive-definite cone count as failed Armijo trials.
    """
    if not init.is_spd():
        raise ValueError(f"initial candidate {init} is not positive definite")
    a = init
    val, gradient = objective(a)
    grad = gradient()
    trace = OptimizerTrace(iterates=[a], objective_values=[val],
                           gradient_norms=[float(np.linalg.norm(grad))],
                           termination="max_iters", iterations=0,
                           evaluations=1, gradients=1)
    t_accepted = None
    for _ in range(max_iters):
        gnorm = trace.gradient_norms[-1]
        if gnorm <= grad_tol * (1.0 + abs(val)):
            trace.termination = "gradient_small"
            return trace
        t = FIRST_MOVE_FRAC * max(a.frobenius(), 1e-12) / gnorm
        if t_accepted is not None:
            t = min(2.0 * t_accepted, t)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = SymMat.from_vec(a.vec() - t * grad)
            if cand.is_spd():
                cval, gradient = objective(cand)
                trace.evaluations += 1
                if cval <= val - ARMIJO_M * t * gnorm * gnorm:
                    accepted = True
                    break
            t *= BACKTRACK
        if not accepted:
            trace.termination = "line_search_failed"
            return trace
        a, val, grad = cand, cval, gradient()
        trace.iterations += 1
        trace.gradients += 1
        t_accepted = t
        trace.iterates.append(a)
        trace.objective_values.append(val)
        trace.gradient_norms.append(float(np.linalg.norm(grad)))
    gnorm = trace.gradient_norms[-1]
    if gnorm <= grad_tol * (1.0 + abs(val)):
        trace.termination = "gradient_small"
    return trace


def make_objective(meas: Measurements, model: CoarseModel,
                   kind: str = "psi_sigma",
                   noise: NoiseSpec | None = None) -> Objective:
    """Bundle an objective with its exact gradient for the descent loop.

    ``fn(abar)`` returns the value and a function that forms the gradient
    from the same surrogate evaluation when called.  Every value costs one
    evaluation of the reduced ``model`` (one per draw under coefficient
    noise), and every gradient is the exact one of the reduced model,
    through its stiffness a11 K11_r + a12 K12_r + a22 K22_r
    (``CoarseEvaluation.sensitivity``).  The nodal solutions are formed
    only where they are read (``ms``, ``mv``), and ``ms`` and ``mv``
    solve for their reduced adjoint coordinates.  Work that does not depend
    on the candidate (measured traces on the coarse boundary, the
    fine-mesh interpolation and mass matrix) is done here, once.
    """
    if noise is not None and (noise.kind, kind) != ("coefficient",
                                                    "psi_sigma"):
        raise ValueError(f"only coefficient noise on psi_sigma enters the "
                         f"objective, got {noise.kind} noise on {kind}; "
                         f"measurement noise goes into the measurements")

    if kind == "psi_sigma":
        # under coefficient noise the expectation over matrix perturbations
        # sits inside the squared difference; the mean over seeded draws
        # keeps it deterministic
        def psi_sigma(abar):
            draws = [abar] if noise is None or noise.sigma == 0.0 \
                else draw_matrix_perturbations(abar, noise)[0]
            return _energy_mismatch(meas, [model.evaluate(c) for c in draws])
        return psi_sigma
    if kind == "psi_max":
        def psi_max(abar):
            coarse = model.evaluate(abar)
            m, _ = assemble_m(meas, coarse)
            lam_sq, v = psi_max_from_m(m)

            def gradient():
                # at the frozen extreme eigenvector, the surrogate part of
                # v.M v is the energy of the combined solution with
                # coordinates w = sum_p v_p x_p
                lam = float(v @ (m @ v))
                w = (coarse.coords @ v)[:, None]
                return lam * coarse.sensitivity(w, w)
            return lam_sq, gradient
        return psi_max
    # The ms / mv descents minimize the trace of the mismatch Gram (the sum
    # of squared per-mode norms) rather than its largest eigenvalue: this is
    # the same sup -> sum-of-squares surrogate the energy strategy uses, it
    # is smooth where the worst-case form has eigenvalue-crossing kinks, and
    # at desk scale the worst-case descent stalls on a minimizer visibly
    # biased by the sampled worst direction.  Both are one least-squares
    # fit sum_k |data_k - L u_k|_W^2 through a linear observation L: the
    # restriction to the boundary loop in the boundary mass (ms), or the
    # interpolation onto the measurement mesh in its volume mass (mv).  With
    # residuals d_k and u_k = V x_k, the adjoint coordinates of mode k solve
    # K_r z_k = V^T L^T W d_k, and the gradient is 2 sum_k z_k.K_ij,r x_k.
    coarse_mesh = model.mesh
    if kind == "ms":
        data = _measured_traces(meas, model)
        # 0/1 entries, so the observed traces are the nodal values exactly;
        # interpolation_matrix at the loop nodes would round its weights
        loop = coarse_mesh.boundary_loop
        observe = sp.csr_matrix((np.ones(loop.size),
                                 (np.arange(loop.size), loop)),
                                shape=(loop.size, coarse_mesh.num_nodes))
        weight = model.boundary_mass
    elif kind == "mv":
        data = meas.volume_fields
        observe, weight = volume_setup(meas, coarse_mesh)
    else:
        raise ValueError(f"unknown objective kind {kind!r}")

    def least_squares(abar):
        coarse = model.evaluate(abar)
        diffs = data - (observe @ coarse.solutions()).T
        weighted = weight @ diffs.T

        def gradient():
            z = coarse.solve(coarse.basis.T @ (observe.T @ weighted))
            return 2.0 * coarse.sensitivity(z)
        return float(np.trace(diffs @ weighted)), gradient
    return least_squares


def identify(meas: Measurements, model: CoarseModel, init: SymMat,
             objective: str = "psi_sigma",
             noise: NoiseSpec | None = None,
             **options) -> OptimizerTrace:
    """End-to-end identification: build the objective on the surrogate
    ``model`` and run the descent."""
    fn = make_objective(meas, model, kind=objective, noise=noise)
    return descend(fn, init, **options)


# ---------------------------------------------------------------------------
# operator-level mismatch on a single mesh

# The identity check solves its data this many at a time: a process running
# one check at n = 128 (512 data, 4 blocks) peaked at 148 MB, against 297 MB
# with all 512 data in one solve (2-core Xeon, one BLAS thread).
_ME_MS_BLOCK = 128


@one_blas_thread()
def me_ms_identity_check(coeff: CoefficientField, abar: SymMat,
                         mesh: TriMesh) -> tuple[float, float]:
    """Energy- and trace-based worst-case mismatches on one mesh.

    Both reduce to the extreme eigenvalue of the self-adjoint difference
    H of the two flux-to-trace operators, formed densely in the Cholesky
    coordinates y = L^T g of the boundary mass L L^T on zero-mean data:
    the energy form gives half the largest absolute eigenvalue of H, while
    the trace form, computed independently from H^2, gives the absolute
    eigenvalue itself.  Returns (psi_me, psi_ms), which must satisfy
    psi_ms = 2 * psi_me.  Runs on one BLAS thread, so the pair does not
    depend on the thread count.
    """
    mb = boundary_mass_matrix(mesh)
    chol = sla.cholesky(mb.toarray(), lower=True)
    nb = mesh.num_boundary_dofs
    # the data L^-T e_k, projected onto zero mean
    data = zero_mean_project(mesh, mb, sla.solve_triangular(
        chol.T, np.eye(nb), lower=False))
    fine = NeumannSolver(mesh, coeff)
    flat = NeumannSolver(mesh, constant_field(abar))
    diff = np.empty((nb, nb))
    for k in range(0, nb, _ME_MS_BLOCK):
        g = data[:, k:k + _ME_MS_BLOCK]
        diff[:, k:k + _ME_MS_BLOCK] = fine.trace(fine.solve(g)) \
            - flat.trace(flat.solve(g))
    h = chol.T @ diff
    h = 0.5 * (h + h.T)
    psi_me = 0.5 * float(np.abs(np.linalg.eigvalsh(h)).max())
    psi_ms = math.sqrt(max(float(np.linalg.eigvalsh(h @ h)[-1]), 0.0))
    return psi_me, psi_ms
