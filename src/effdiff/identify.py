"""Identification of a constant effective matrix from energy measurements.

The observables are stored energies of pure-Neumann solves against a small
family of boundary conditions.  The engine minimizes the mismatch between
measured energies and those of a constant-coefficient surrogate on a coarse
mesh, by Armijo gradient descent.  Baseline objectives built from boundary
traces (surface measurements) and from full volume fields are included for
comparison.  Every objective has an exact adjoint gradient: the surrogate
stiffness is a11 K11 + a12 K12 + a22 K22, so its derivative in an entry is
a unit stiffness, and each objective only supplies its adjoint states.  Two
noise mechanisms are implemented: multiplicative noise on the measured
energies, and additive random perturbations of the candidate matrix inside
the surrogate solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla

from .coefficients import CoefficientField, SymMat, constant_field
from .mesh import TriMesh, boundary_mass_matrix, interpolate_boundary, \
    interpolation_matrix, zero_mean_project
from .mesh import interpolate_nodal  # noqa: F401  (bench/child.py wraps it)
from .modes import ModeBasis, extreme_eigenpairs, fix_sign, modes_on_mesh
from .solver import NeumannSolver, assemble_volume_mass, unit_stiffnesses


# ---------------------------------------------------------------------------
# measurements

@dataclass(frozen=True)
class Measurements:
    """Observables recorded against one mode basis.

    ``cross[p, q]`` is the boundary inner product of mode p with the trace
    of the solution driven by mode q; its diagonal is -2 * energies.
    Traces and volume fields are optional and only needed by the surface
    and volume baseline objectives.
    """

    basis: ModeBasis
    energies: np.ndarray                    # (P,)
    cross: np.ndarray | None = None         # (P, P)
    boundary_traces: np.ndarray | None = None   # (P, nb)
    volume_fields: np.ndarray | None = None     # (P, num_nodes)
    mesh: TriMesh | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.energies.shape[0]


def simulate_measurements(mesh: TriMesh, coeff: CoefficientField,
                          basis: ModeBasis,
                          keep_fields: bool = True,
                          provenance: dict | None = None) -> Measurements:
    """Solve the Neumann problems of all modes at once and record all
    observables."""
    if basis.mesh_n != mesh.n:
        raise ValueError("mode basis does not live on the measurement mesh")
    solver = NeumannSolver(mesh, coeff)
    u = solver.solve(basis.modes.T)   # (num_nodes, P)
    traces = solver.trace(u).T
    fields = u.T if keep_fields else None
    cross = basis.modes @ (solver.boundary_mass @ traces.T)
    energies = -0.5 * np.diag(cross)
    prov = dict(provenance or {})
    prov.setdefault("source", "simulated")
    prov.setdefault("mesh_n", mesh.n)
    prov.setdefault("field", coeff.kind)
    return Measurements(basis=basis, energies=energies, cross=cross,
                        boundary_traces=traces,
                        volume_fields=fields, mesh=mesh, provenance=prov)


def mean_measurements(batch: Sequence[Measurements]) -> Measurements:
    """Entrywise average of measurements over coefficient realizations.

    All observables are linear in the recorded solution, so averaging the
    records equals recording against the averaged solutions.
    """
    if not batch:
        raise ValueError("cannot average an empty measurement batch")
    first = batch[0]
    for m in batch[1:]:
        if m.count != first.count or m.basis.mesh_n != first.basis.mesh_n:
            raise ValueError("measurement batch mixes incompatible bases")

    def avg(attr):
        vals = [getattr(m, attr) for m in batch]
        if any(v is None for v in vals):
            return None
        return np.mean(vals, axis=0)

    prov = dict(first.provenance)
    prov["averaged_over"] = len(batch)
    prov["seeds"] = [m.provenance.get("seed") for m in batch]
    return Measurements(basis=first.basis, energies=avg("energies"),
                        cross=avg("cross"),
                        boundary_traces=avg("boundary_traces"),
                        volume_fields=avg("volume_fields"),
                        mesh=first.mesh, provenance=prov)


# ---------------------------------------------------------------------------
# coarse constant-coefficient surrogate

@dataclass
class CoarseEvaluation:
    abar: SymMat
    energies: np.ndarray       # (P,)
    traces: np.ndarray         # (P, nb)
    values: np.ndarray         # (P, num_nodes)
    solver: NeumannSolver      # the candidate's factorization

    def sensitivity(self, z: np.ndarray,
                    u: np.ndarray | None = None) -> np.ndarray:
        """[sum_k z_k.K11 u_k, sum_k z_k.K12 u_k, sum_k z_k.K22 u_k].

        The surrogate stiffness is a11 K11 + a12 K12 + a22 K22, so its
        derivative in each entry is a unit stiffness, and the derivative of
        a solution is u' = -K^+ K_ij u.  An objective's gradient is this
        form of its adjoint states z against the solutions u (default: the
        evaluated ones), times its chain-rule factor.
        """
        z = np.atleast_2d(z)
        u = self.values if u is None else np.atleast_2d(u)
        return np.array([np.vdot(z, (k @ u.T).T)
                         for k in unit_stiffnesses(self.solver.mesh.n)])


class CoarseModel:
    """Per-candidate solves of the constant-coefficient surrogate.

    Holds the coarse mesh and mode basis; each candidate matrix costs one
    sparse factorization plus P solves.
    """

    def __init__(self, coarse_mesh: TriMesh, basis: ModeBasis):
        if basis.mesh_n != coarse_mesh.n:
            raise ValueError("mode basis does not live on the coarse mesh")
        self.mesh = coarse_mesh
        self.basis = basis

    def evaluate(self, abar: SymMat) -> CoarseEvaluation:
        if not abar.is_spd():
            raise ValueError(f"candidate {abar} is not positive definite")
        solver = NeumannSolver(self.mesh, constant_field(abar))
        p = self.basis.count
        energies = np.empty(p)
        values = np.empty((p, self.mesh.num_nodes))
        for k in range(p):
            values[k] = solver.solve(self.basis.modes[k], check_mean=False)
            energies[k] = solver.energy(self.basis.modes[k], values[k])
        return CoarseEvaluation(abar=abar, energies=energies,
                                traces=values[:, self.mesh.boundary_loop],
                                values=values, solver=solver)


# ---------------------------------------------------------------------------
# objectives

def assemble_m(meas: Measurements, coarse: CoarseEvaluation,
               coarse_basis: ModeBasis) -> tuple[np.ndarray, bool]:
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
    mb = coarse.solver.boundary_mass
    # s_coarse[p, q], like meas.cross[p, q], pairs mode p with the trace
    # driven by q, so meas.cross.T is oriented the other way; the average
    # with the transpose makes the orientation of either table irrelevant
    s_coarse = coarse_basis.modes @ (mb @ coarse.traces.T)
    m = 0.5 * (meas.cross.T - s_coarse)
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


def psi_sigma_value(meas: Measurements, coarse: CoarseEvaluation) -> float:
    delta = meas.energies - coarse.energies
    return float(delta @ delta)


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


def _energy_mismatch(meas: Measurements, model: CoarseModel,
                    candidates: Sequence[SymMat]) -> tuple[float, np.ndarray]:
    """Squared gap between the measured energies and the mean surrogate
    energies over `candidates`, and its gradient.

    The candidates are the point itself or the point plus fixed offsets,
    so the gradient in the point is the mean over the candidates.  A
    surrogate energy is E = -b.K^+ b / 2 for the mode's load b, so
    dE/da_ij = u.K_ij u / 2, and the chain rule through the squared gap
    delta supplies -2 delta: the adjoint state of mode p is delta_p u_p.
    """
    coarse = [model.evaluate(c) for c in candidates]
    delta = meas.energies - sum(c.energies for c in coarse) / len(coarse)
    grad = sum(c.sensitivity(delta[:, None] * c.values) for c in coarse)
    return float(delta @ delta), -grad / len(coarse)


# ---------------------------------------------------------------------------
# trace / volume baselines

def _measured_traces(meas: Measurements, coarse_mesh: TriMesh) -> np.ndarray:
    """Measured traces carried to the coarse boundary by arclength
    interpolation, with their boundary mean removed; shape (P, nb)."""
    if meas.boundary_traces is None or meas.mesh is None:
        raise ValueError("surface objective needs recorded boundary traces")
    mb = boundary_mass_matrix(coarse_mesh)
    return np.array([zero_mean_project(
        coarse_mesh, mb, interpolate_boundary(meas.mesh, t, coarse_mesh))
        for t in meas.boundary_traces])


def volume_setup(meas: Measurements, coarse_mesh: TriMesh):
    """Interpolation of coarse nodal fields onto the measurement mesh and
    that mesh's volume mass matrix: (I, M)."""
    if meas.volume_fields is None or meas.mesh is None:
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

    Derived observables (cross table, traces, fields) are dropped from the
    noisy record since they no longer agree with the perturbed energies.
    """
    if spec.kind != "measurement":
        raise ValueError("expected a measurement-noise spec")
    rng = np.random.default_rng(spec.seed)
    eta = rng.standard_normal(meas.count)
    noisy = meas.energies * (1.0 + spec.sigma * eta)
    prov = dict(meas.provenance)
    prov["noise"] = {"kind": "measurement", "sigma": spec.sigma,
                     "seed": spec.seed}
    return replace(meas, energies=noisy, cross=None, boundary_traces=None,
                   volume_fields=None, provenance=prov)


def draw_matrix_perturbations(abar: SymMat, spec: NoiseSpec,
                              max_factor: int = 50):
    """Seeded Gaussian perturbations of the candidate, resampled to SPD.

    Each draw is the candidate plus a fixed seeded offset, and the same
    seed accepts the same offsets for nearby candidates, so the noisy
    objective is a smooth function of the candidate with an exact gradient.
    Returns (list of SymMat, rejection count).
    """
    rng = np.random.default_rng(spec.seed)
    out: list[SymMat] = []
    rejected = 0
    attempts = 0
    limit = max_factor * spec.draws
    while len(out) < spec.draws:
        if attempts >= limit or (attempts >= 2 * spec.draws
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
    step_sizes: list[float]
    termination: str   # gradient_small | max_iters | line_search_failed

    @property
    def final(self) -> SymMat:
        return self.iterates[-1]

    @property
    def iterations(self) -> int:
        return len(self.step_sizes)


ARMIJO_M = 0.1          # sufficient-decrease fraction
BACKTRACK = 0.5         # step shrink per failed trial
FIRST_MOVE_FRAC = 0.1   # largest relative move of a first trial step
MAX_BACKTRACKS = 60


def descend(value_and_grad: Callable[[SymMat], tuple[float, np.ndarray]],
            init: SymMat,
            max_iters: int = 200,
            grad_tol: float = 1e-8) -> OptimizerTrace:
    """Armijo backtracking gradient descent over symmetric 2x2 matrices.

    The first trial step is scaled so the first update moves the candidate
    by at most ``FIRST_MOVE_FRAC`` of its Frobenius norm; later iterations
    start from twice the previously accepted step.  Trial points outside
    the positive-definite cone count as failed Armijo trials.
    """
    if not init.is_spd():
        raise ValueError(f"initial candidate {init} is not positive definite")
    a = init
    val, grad = value_and_grad(a)
    trace = OptimizerTrace(iterates=[a], objective_values=[val],
                           gradient_norms=[float(np.linalg.norm(grad))],
                           step_sizes=[], termination="max_iters")
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
                cval, cgrad = value_and_grad(cand)
                if cval <= val - ARMIJO_M * t * gnorm * gnorm:
                    accepted = True
                    break
            t *= BACKTRACK
        if not accepted:
            trace.termination = "line_search_failed"
            return trace
        a, val, grad = cand, cval, cgrad
        t_accepted = t
        trace.iterates.append(a)
        trace.objective_values.append(val)
        trace.gradient_norms.append(float(np.linalg.norm(grad)))
        trace.step_sizes.append(t)
    gnorm = trace.gradient_norms[-1]
    if gnorm <= grad_tol * (1.0 + abs(val)):
        trace.termination = "gradient_small"
    return trace


def make_objective(meas: Measurements, coarse_mesh: TriMesh,
                   kind: str = "psi_sigma",
                   noise: NoiseSpec | None = None,
                   coarse_basis: ModeBasis | None = None
                   ) -> Callable[[SymMat], tuple[float, np.ndarray]]:
    """Bundle an objective with its exact gradient for the descent loop.

    Every objective is differentiated through the surrogate stiffness
    a11 K11 + a12 K12 + a22 K22 (``CoarseEvaluation.sensitivity``), so a
    call costs one surrogate evaluation (one per draw under coefficient
    noise) plus, for ``ms`` and ``mv``, P adjoint solves on its
    factorization.  Work that does not depend on the candidate (measured
    traces on the coarse boundary, the fine-mesh interpolation and mass
    matrix) is done here, once.
    """
    if noise is not None and (noise.kind, kind) != ("coefficient",
                                                    "psi_sigma"):
        raise ValueError(f"only coefficient noise on psi_sigma enters the "
                         f"objective, got {noise.kind} noise on {kind}; "
                         f"measurement noise goes into the measurements")
    if coarse_basis is None:
        if meas.mesh is not None:
            coarse_basis = modes_on_mesh(meas.basis, meas.mesh, coarse_mesh)
        elif meas.basis.mesh_n == coarse_mesh.n:
            coarse_basis = meas.basis
        else:
            raise ValueError("measurements without a mesh need a coarse-mesh "
                             "mode basis")
    model = CoarseModel(coarse_mesh, coarse_basis)

    if noise is not None:
        # the expectation over matrix perturbations sits inside the squared
        # difference; the mean over seeded draws keeps it deterministic
        def fn(abar):
            draws = [abar] if noise.sigma == 0.0 \
                else draw_matrix_perturbations(abar, noise)[0]
            return _energy_mismatch(meas, model, draws)
        return fn

    if kind == "psi_sigma":
        def fn(abar):
            return _energy_mismatch(meas, model, [abar])
        return fn
    if kind == "psi_max":
        def fn(abar):
            coarse = model.evaluate(abar)
            m, _ = assemble_m(meas, coarse, coarse_basis)
            lam_sq, v = psi_max_from_m(m)
            # at the frozen extreme eigenvector, the surrogate part of v.M v
            # is the energy of the combined solution w = sum_p v_p u_p
            lam = float(v @ (m @ v))
            w = v @ coarse.values
            return lam_sq, lam * coarse.sensitivity(w, w)
        return fn
    # The ms / mv descents minimize the trace of the mismatch Gram (the sum
    # of squared per-mode norms) rather than its largest eigenvalue: this is
    # the same sup -> sum-of-squares surrogate the energy strategy uses, it
    # is smooth where the worst-case form has eigenvalue-crossing kinks, and
    # at desk scale the worst-case descent stalls on a minimizer visibly
    # biased by the sampled worst direction.  With residuals d_k, the
    # adjoint state of mode k solves K z_k = (the residual's load), and the
    # gradient is 2 sum_k z_k.K_ij u_k.
    if kind == "ms":
        measured = _measured_traces(meas, coarse_mesh)

        def fn(abar):
            coarse = model.evaluate(abar)
            diffs = measured - coarse.traces
            gram = diffs @ (coarse.solver.boundary_mass @ diffs.T)
            z = [coarse.solver.solve(d, check_mean=False) for d in diffs]
            return float(np.trace(gram)), 2.0 * coarse.sensitivity(z)
        return fn
    if kind == "mv":
        interp, mass = volume_setup(meas, coarse_mesh)

        def fn(abar):
            coarse = model.evaluate(abar)
            diffs = meas.volume_fields - (interp @ coarse.values.T).T
            weighted = mass @ diffs.T
            loads = (interp.T @ weighted).T
            z = [coarse.solver.solve_load(b) for b in loads]
            return (float(np.trace(diffs @ weighted)),
                    2.0 * coarse.sensitivity(z))
        return fn
    raise ValueError(f"unknown objective kind {kind!r}")


def identify(meas: Measurements, coarse_mesh: TriMesh, init: SymMat,
             objective: str = "psi_sigma",
             noise: NoiseSpec | None = None,
             coarse_basis: ModeBasis | None = None,
             **options) -> OptimizerTrace:
    """End-to-end identification: build the objective and run the descent."""
    fn = make_objective(meas, coarse_mesh, kind=objective, noise=noise,
                        coarse_basis=coarse_basis)
    return descend(fn, init, **options)


# ---------------------------------------------------------------------------
# operator-level mismatch on a single mesh

def me_ms_identity_check(coeff: CoefficientField, abar: SymMat,
                         mesh: TriMesh,
                         tol: float = 1e-9) -> tuple[float, float]:
    """Energy- and trace-based worst-case mismatches on one mesh.

    Both reduce to the extreme eigenvalue of the self-adjoint difference
    of the two flux-to-trace operators: the energy form gives half the
    absolute eigenvalue, while the trace form, computed independently
    through the squared operator, gives the absolute eigenvalue itself.
    Returns (psi_me, psi_ms), which must satisfy psi_ms = 2 * psi_me.
    """
    mb = boundary_mass_matrix(mesh)
    chol = sla.cholesky(mb.toarray(), lower=True)
    solver_eps = NeumannSolver(mesh, coeff)
    solver_bar = NeumannSolver(mesh, constant_field(abar))
    nb = mesh.num_boundary_dofs

    def apply_h(g):
        u_eps = solver_eps.solve(g, check_mean=False)
        u_bar = solver_bar.solve(g, check_mean=False)
        return solver_eps.trace(u_eps) - solver_bar.trace(u_bar)

    def apply_h_y(y):
        g = sla.solve_triangular(chol.T, y, lower=False)
        g = zero_mean_project(mesh, mb, g)
        return chol.T @ apply_h(g)

    def apply_h2_y(y):
        return apply_h_y(apply_h_y(y))

    deflate = chol.T @ np.ones(nb)
    mu, _ = extreme_eigenpairs(apply_h_y, dim=nb, nev=1, deflate=deflate,
                               which="LM", tol=tol)
    lam2, _ = extreme_eigenpairs(apply_h2_y, dim=nb, nev=1, deflate=deflate,
                                 which="LA", tol=tol)
    psi_me = 0.5 * abs(float(mu[0]))
    psi_ms = math.sqrt(max(float(lam2[0]), 0.0))
    return psi_me, psi_ms
