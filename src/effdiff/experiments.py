"""Experiment drivers: error metrics, identification runs for the periodic
and random test cases, noise studies, the 1D objective profile, and
CSV/JSON emission.

Every driver returns plain record dicts with a fixed core column set so a
sweep can be serialized and replayed; randomized drivers take explicit
seeds and are exactly reproducible.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg as sla

from .coefficients import CoefficientField, SymMat, constant_field, \
    mean_over_cell, periodic_smooth_field, sample_checkerboard, scale_epsilon
from .homogenization import checkerboard_exact, homogenized_matrix
from .identify import CoarseModel, Measurements, NoiseSpec, \
    OptimizerTrace, apply_measurement_noise, coarse_model, identify, \
    simulate_measurements, volume_setup
from .mesh import TriMesh, build_periodic_cell_mesh, build_unit_square_mesh
from .mesh import interpolate_nodal  # noqa: F401  (bench/child.py wraps it)
from .modes import ModeBasis, affine_modes, choose_p, compute_r_modes, \
    modes_on_mesh
from .solver import NeumannSolver

CSV_COLUMNS = ["experiment", "strategy", "epsilon", "P", "Q", "r", "seed",
               "a11", "a12", "a22", "err_star", "err_eps_q", "psi_final",
               "iters", "wall_ms"]

STRATEGIES = ("ME", "MS", "MV", "A_star", "ME-affine")
CHECKERBOARD_STRATEGIES = ("ME", "MS", "A_star")

DEFAULT_COARSE_H = 0.05
# the fine-mesh resolution r = eps / h of a run on each coefficient (the
# full profile of the CLI doubles it)
DEFAULT_R = {"periodic_smooth": 20.0, "checkerboard": 10.0}
ME_MS_CHECK_MAX_N = 128


# ---------------------------------------------------------------------------
# mesh sizing conventions

def _subdivisions(count: float, setting: str) -> int:
    """``count`` rounded up, or ValueError when no float holds it."""
    if not math.isfinite(count):
        raise ValueError(f"{setting} asks for more subdivisions than a "
                         f"float holds")
    return math.ceil(count)


def fine_mesh_n(eps: float, r: float, align_cells: int | None = None) -> int:
    """Subdivisions for mesh size h = eps / r, h measured as sqrt(2)/n.

    With ``align_cells`` the count is rounded up to a multiple of the
    coefficient cells per side, so piecewise-constant fields are constant
    on element interiors.
    """
    if eps <= 0.0 or r <= 0.0:
        raise ValueError(f"need eps > 0 and r > 0, got {eps}, {r}")
    n = _subdivisions(math.sqrt(2.0) * r / eps, f"eps = {eps}, r = {r}")
    if align_cells:
        n = align_cells * math.ceil(n / align_cells)
    return n


def fine_n(coefficient: str, eps: float, r: float,
           max_n: int | None = None) -> int:
    """Subdivisions of the fine mesh a run on ``coefficient`` uses at
    (eps, r): aligned to the checkerboard's cells, at most ``max_n``."""
    align = math.ceil(1.0 / eps) if coefficient == "checkerboard" else None
    n = fine_mesh_n(eps, r, align_cells=align)
    return n if max_n is None else min(n, max_n)


def resolve_p(eps: float, p: int | None = None) -> int:
    """The mode count of a run: ``p``, or ``choose_p(eps)`` when None."""
    return choose_p(eps) if p is None else p


def coarse_mesh_n(coarse_h: float = DEFAULT_COARSE_H) -> int:
    if coarse_h <= 0.0:
        raise ValueError(f"need coarse_h > 0, got {coarse_h}")
    return _subdivisions(math.sqrt(2.0) / coarse_h, f"coarse_H = {coarse_h}")


def take_modes(basis: ModeBasis, count: int) -> ModeBasis:
    """Leading sub-family of an ordered mode basis."""
    if count > basis.count:
        raise ValueError(f"basis has {basis.count} modes, asked for {count}")
    eig = None if basis.eigenvalues is None else basis.eigenvalues[:count]
    return ModeBasis(modes=basis.modes[:count], eigenvalues=eig,
                     family=basis.family, mesh_n=basis.mesh_n)


def take_measurements(meas: Measurements, count: int) -> Measurements:
    """Restrict a measurement record to its first `count` modes."""
    cross = None if meas.cross is None else meas.cross[:count, :count]
    fields = None if meas.volume_fields is None else meas.volume_fields[:count]
    return Measurements(basis=take_modes(meas.basis, count),
                        energies=meas.energies[:count], mesh=meas.mesh,
                        cross=cross, volume_fields=fields)


# ---------------------------------------------------------------------------
# error metrics

def err_star(abar: SymMat, a_star: SymMat) -> float:
    """Relative error over the three independent entries."""
    num = (abar.a11 - a_star.a11) ** 2 + (abar.a12 - a_star.a12) ** 2 \
        + (abar.a22 - a_star.a22) ** 2
    den = a_star.a11 ** 2 + a_star.a12 ** 2 + a_star.a22 ** 2
    if den == 0.0:
        raise ValueError("reference matrix is zero")
    return math.sqrt(num / den)


def err_eps_q_setup(meas: Measurements, coarse_mesh: TriMesh) -> tuple:
    """The part of ``err_eps_q`` that does not depend on the candidate:
    the coarse-to-fine interpolation, the fine volume mass, the Q modes on
    the coarse mesh (nodes, Q) and the measured-field Gram."""
    interp, mass = volume_setup(meas, coarse_mesh)
    modes = modes_on_mesh(meas.basis, meas.mesh, coarse_mesh).modes.T
    return interp, mass, modes, \
        meas.volume_fields @ (mass @ meas.volume_fields.T)


def err_eps_q(abar: SymMat, meas: Measurements, coarse_mesh: TriMesh,
              setup: tuple | None = None) -> tuple[float, float | None]:
    """Worst-case relative volume error over combinations of the Q modes,
    and the ridge added to a singular measured-field Gram (None if none).

    The ratio of volume norms is maximized by the generalized eigenproblem
    of the difference Gram against the measured-field Gram.  The candidate's
    coarse solutions come from one exact solve of the Q mode data, not from
    a reduced surrogate, and are interpolated onto the measurement mesh.
    When the measured-field Gram is numerically singular, 1e-12 of its mean
    diagonal is added to it, with a warning.  ``setup`` is
    ``err_eps_q_setup(meas, coarse_mesh)``, computed here if not given.
    """
    interp, mass, modes, nmat = err_eps_q_setup(meas, coarse_mesh) \
        if setup is None else setup
    u = NeumannSolver(coarse_mesh, constant_field(abar)).solve(modes)
    diffs = meas.volume_fields - (interp @ u).T
    d = diffs @ (mass @ diffs.T)

    ridge = None
    try:
        vals = sla.eigh(d, nmat, eigvals_only=True)
    except sla.LinAlgError:
        ridge = float(1e-12 * np.trace(nmat) / meas.count)
        warnings.warn(
            f"measured-field Gram numerically singular; adding ridge "
            f"{ridge:.3e}")
        vals = sla.eigh(d, nmat + ridge * np.eye(meas.count),
                        eigvals_only=True)
    return float(math.sqrt(max(vals[-1], 0.0))), ridge


def parallel_map(fn: Callable, items: Iterable, workers: int = 1) -> list:
    """Order-preserving map, optionally over a thread pool.

    Threads rather than processes: the heavy work happens inside numpy and
    the sparse factorizations, which release the interpreter lock, and
    thread workers keep closures and mesh caches shareable.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# 1D profile

def one_d_quad_points(eps: float) -> int:
    """Midpoint-rule points of ``one_d_profile`` at ``eps``: 50 per
    period, at least 20,000."""
    return max(20_000, _subdivisions(50.0 / eps, f"eps = {eps}"))


def one_d_profile(a_per: Callable[[np.ndarray], np.ndarray], eps: float,
                  abar_grid: Sequence[float],
                  quad_points: int | None = None) -> np.ndarray:
    """Objective profile of the one-dimensional problem over a grid.

    With the two-point boundary datum the energy reduces to minus a
    quarter of the inverse-coefficient integral, so the mismatch is a
    quarter of the inverse-mean gap.  Returns rows (abar, value).
    """
    grid = np.asarray(abar_grid, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("candidate grid must be positive")
    if quad_points is None:
        quad_points = one_d_quad_points(eps)
    xs = (np.arange(quad_points) + 0.5) / quad_points
    vals = np.asarray(a_per(xs / eps), dtype=float)
    if np.any(vals <= 0.0):
        raise ValueError("coefficient is not coercive on the grid")
    inv_mean = float(np.mean(1.0 / vals))
    psi = 0.25 * np.abs(inv_mean - 1.0 / grid)
    return np.column_stack([grid, psi])


# ---------------------------------------------------------------------------
# identification drivers

def _strategy_objective(strategy: str) -> str:
    return {"ME": "psi_sigma", "ME-affine": "psi_sigma", "MS": "ms",
            "MV": "mv"}[strategy]


def record(experiment: str, strategy: str, eps: float | None,
           abar: SymMat | None, **fields) -> dict:
    """One result row: the CSV columns in order, None where ``fields``
    gives none, then the JSON-only ``fields``."""
    rec = dict.fromkeys(CSV_COLUMNS)
    rec.update(experiment=experiment, strategy=strategy, epsilon=eps)
    if abar is not None:
        rec.update(a11=abar.a11, a12=abar.a12, a22=abar.a22)
    rec.update(fields)
    return rec


def _descent_fields(trace: OptimizerTrace | None,
                    model: CoarseModel | None) -> dict:
    """The final objective value and iterations of the descent behind a
    record, how it stopped, its objective values and gradients computed,
    and the size, snapshots and enrichments of its surrogate ``model``
    after it (all None without a descent)."""
    if trace is None:
        return dict.fromkeys(("psi_final", "iters", "termination",
                              "grad_norm", "evaluations", "gradients",
                              "reduced_m", "snapshots", "enrichments"))
    return {"psi_final": trace.objective_values[-1],
            "iters": trace.iterations, "termination": trace.termination,
            "grad_norm": trace.gradient_norms[-1],
            "evaluations": trace.evaluations, "gradients": trace.gradients,
            "reduced_m": model.m, "snapshots": model.snapshots,
            "enrichments": model.enrichments}


@lru_cache(maxsize=None)
def periodic_reference(cell_n: int = 128) -> SymMat:
    """Homogenized matrix of the periodic test field, once per cell_n and
    process.

    On a uniform mesh with a smooth coefficient the P1 error expands in h^2
    and h^4 (Blum, Lin & Rannacher, "Asymptotic error expansion and
    Richardson extrapolation for linear finite elements", Numer. Math. 49,
    1986), so three-level Richardson extrapolation from the cells n / 4,
    n / 2 and n = ``cell_n`` cancels both terms:
    (64 A(h) - 20 A(2h) + A(4h)) / 45.  From cells 32, 64 and 128 it is
    within 4.2e-10 of the (128, 256, 512) value.
    """
    if cell_n < 8 or cell_n % 4:
        raise ValueError(f"need a cell_n that is a multiple of 4 and >= 8, "
                         f"got {cell_n}")
    a4, a2, a1 = (homogenized_matrix(build_periodic_cell_mesh(n),
                                     periodic_smooth_field()).vec()
                  for n in (cell_n // 4, cell_n // 2, cell_n))
    return SymMat.from_vec((64.0 * a1 - 20.0 * a2 + a4) / 45.0)


def _identify_record(experiment: str, strategy: str, eps: float,
                     p: int | None, q: int, r: float, seed: int | None,
                     coarse_h: float, meas_cache: dict | None, key: tuple,
                     measure: Callable[[], Measurements], a_star: SymMat,
                     init: SymMat, compute_err_eps_q: bool,
                     affine_field: CoefficientField | None = None,
                     **extra) -> dict:
    """The identification run of both test cases.  ``measure()`` gives the
    Q-mode measurements, and ME-affine measures ``affine_field`` on the
    affine family.  A ``meas_cache`` holds the measurements once per
    ``key``, the candidate-independent part of ``err_eps_q`` once per key
    and coarse mesh, and the coarse surrogate once per key, coarse mesh and
    mode family, so the strategies of one measurement share them."""
    p = resolve_p(eps, p)
    if q < p:
        raise ValueError(f"need Q >= P, got Q={q}, P={p}")
    t0 = time.perf_counter()
    meas_cache = {} if meas_cache is None else meas_cache
    if key not in meas_cache:
        meas_cache[key] = measure()
    meas_q = meas_cache[key]
    coarse = build_unit_square_mesh(coarse_mesh_n(coarse_h))

    abar, trace, model = a_star, None, None
    if strategy != "A_star":
        if strategy == "ME-affine":
            meas_p = simulate_measurements(meas_q.mesh, affine_field,
                                           affine_modes(meas_q.mesh))
        else:
            meas_p = take_measurements(meas_q, p)
        model_key = (key, coarse.n, meas_p.basis.family, meas_p.count)
        if model_key not in meas_cache:
            meas_cache[model_key] = coarse_model(meas_p, coarse)
        model = meas_cache[model_key]
        trace = identify(meas_p, model, init,
                         objective=_strategy_objective(strategy))
        abar = trace.final
    erre = ridge = None
    if compute_err_eps_q:
        setup_key = (key, coarse.n, "err_eps_q")
        if setup_key not in meas_cache:
            meas_cache[setup_key] = err_eps_q_setup(meas_q, coarse)
        erre, ridge = err_eps_q(abar, meas_q, coarse, meas_cache[setup_key])
    return record(experiment, strategy, eps, abar, P=p, Q=q, r=r, seed=seed,
                  err_star=err_star(abar, a_star), err_eps_q=erre,
                  err_eps_q_ridge=ridge,
                  wall_ms=1000.0 * (time.perf_counter() - t0), **extra,
                  energies=[float(e) for e in meas_q.energies],
                  **_descent_fields(trace, model))


def identify_periodic(eps: float, r: float = DEFAULT_R["periodic_smooth"],
                      p: int | None = None, q: int = 11,
                      coarse_h: float = DEFAULT_COARSE_H,
                      strategy: str = "ME", a_star: SymMat | None = None,
                      compute_err_eps_q: bool = True,
                      meas_cache: dict | None = None) -> dict:
    """One identification run on the periodic test field.

    Passing a dict as ``meas_cache`` reuses the fine-mesh measurements
    across strategies for the same (eps, r, q), and their coarse
    surrogate.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    field = scale_epsilon(periodic_smooth_field(), eps)

    def measure():
        fine = build_unit_square_mesh(fine_n("periodic_smooth", eps, r))
        return simulate_measurements(fine, field, compute_r_modes(fine, q))

    return _identify_record(
        "identify_periodic", strategy, eps, p, q, r, None, coarse_h,
        meas_cache, (eps, r, q), measure,
        periodic_reference() if a_star is None else a_star,
        mean_over_cell(periodic_smooth_field()), compute_err_eps_q,
        affine_field=field)


def checkerboard_mean(eps: float, q: int, r: float, m1: int,
                      base_seed: int) -> Measurements:
    """Mean observables of the M1 checkerboards ``base_seed`` onwards, on a
    shared mesh and mode basis.

    Every observable is linear in the solution, so the mean record is the
    record of the mean solution.  Each realization is added to a running
    sum as it is measured, so only one realization's fields are held.
    """
    fine = build_unit_square_mesh(fine_n("checkerboard", eps, r))
    basis_q = compute_r_modes(fine, q)
    total = None
    for seed in range(base_seed, base_seed + m1):
        meas = simulate_measurements(fine, sample_checkerboard(seed, eps),
                                     basis_q)
        obs = (meas.energies, meas.cross, meas.volume_fields)
        if total is None:
            total = obs
        else:
            for acc, x in zip(total, obs):
                acc += x
        # release this solution before the next factorization; held across
        # it, it left the heap fragmented enough to raise the peak RSS of
        # six n = 300 realizations from 243 to 315 MB in most runs
        del meas, obs
    energies, cross, fields = (acc / m1 for acc in total)
    return Measurements(basis=basis_q, energies=energies, mesh=fine,
                        cross=cross, volume_fields=fields)


def identify_checkerboard(eps: float, r: float = DEFAULT_R["checkerboard"],
                          p: int | None = None, q: int = 11, m1: int = 10,
                          base_seed: int = 0,
                          coarse_h: float = DEFAULT_COARSE_H,
                          strategy: str = "ME",
                          compute_err_eps_q: bool = True,
                          meas_cache: dict | None = None) -> dict:
    """Identification against mean observables over M1 checkerboards."""
    if strategy not in CHECKERBOARD_STRATEGIES:
        raise ValueError(f"strategy {strategy!r} not supported on the "
                         "random case")
    return _identify_record(
        "identify_checkerboard", strategy, eps, p, q, r, base_seed,
        coarse_h, meas_cache, (eps, r, q, m1, base_seed),
        lambda: checkerboard_mean(eps, q, r, m1, base_seed),
        checkerboard_exact(),
        SymMat.identity(10.0),  # the phase average
        compute_err_eps_q, M1=m1)


# ---------------------------------------------------------------------------
# noise studies

def _noise_record(experiment: str, eps: float, p: int, r: float,
                  seed: int | None, trace: OptimizerTrace,
                  model: CoarseModel, t0: float, **extra) -> dict:
    """The record of one noise-study descent on ``model`` started at
    ``t0``."""
    return record(experiment, "ME", eps, trace.final, P=p, r=r, seed=seed,
                  wall_ms=1000.0 * (time.perf_counter() - t0), **extra,
                  **_descent_fields(trace, model))


def _noise_setup(experiment: str, eps: float, r: float, p: int | None,
                 coarse_h: float):
    """What both noise studies start from: (P, the P-mode measurements of
    the periodic field, their coarse surrogate, the initial guess, the
    noiseless descent, [its sigma = 0 record]).  Every descent of the study
    shares the one surrogate; the sigma = 0 record's time includes its
    build."""
    p = resolve_p(eps, p)
    field = scale_epsilon(periodic_smooth_field(), eps)
    fine = build_unit_square_mesh(fine_n("periodic_smooth", eps, r))
    meas = simulate_measurements(fine, field, compute_r_modes(fine, p))
    coarse = build_unit_square_mesh(coarse_mesh_n(coarse_h))
    init = mean_over_cell(periodic_smooth_field())
    t0 = time.perf_counter()
    model = coarse_model(meas, coarse)
    clean = identify(meas, model, init)
    return p, meas, model, init, clean, [_noise_record(
        experiment, eps, p, r, None, clean, model, t0, sigma=0.0,
        rel_coeff_error=0.0)]


def measurement_noise_study(eps: float = 0.05,
                            r: float = DEFAULT_R["periodic_smooth"],
                            p: int | None = None,
                            sigmas: Sequence[float] = (0.01, 0.05, 0.1),
                            draws: int = 40, base_seed: int = 0,
                            coarse_h: float = DEFAULT_COARSE_H) -> list[dict]:
    """Re-identify under multiplicative energy noise, per sigma and draw.

    Records the relative distance of each noisy result to the noiseless
    one; the noiseless baseline appears as the sigma = 0 record.
    """
    p, meas, model, init, clean, records = _noise_setup(
        "noise_measurement", eps, r, p, coarse_h)
    clean_norm = clean.final.frobenius()
    for sigma in sigmas:
        for k in range(draws):
            t0 = time.perf_counter()
            seed = base_seed + k
            spec = NoiseSpec(kind="measurement", sigma=sigma, seed=seed)
            noisy = apply_measurement_noise(meas, spec)
            trace = identify(noisy, model, init)
            dv = trace.final.vec() - clean.final.vec()
            rel = math.sqrt(dv[0] ** 2 + 2 * dv[1] ** 2 + dv[2] ** 2) \
                / clean_norm
            records.append(_noise_record(
                f"noise_measurement:sigma={sigma}", eps, p, r, seed, trace,
                model, t0, sigma=sigma, rel_coeff_error=rel))
    return records


def coefficient_noise_study(eps: float = 0.05,
                            r: float = DEFAULT_R["periodic_smooth"],
                            p: int | None = None, sigma: float = 2.0,
                            m1: int = 10, base_seed: int = 0,
                            coarse_h: float = DEFAULT_COARSE_H) -> list[dict]:
    """Identify with random matrix perturbations inside the coarse solves."""
    p, meas, model, init, clean, records = _noise_setup(
        "noise_coefficient", eps, r, p, coarse_h)
    t0 = time.perf_counter()
    spec = NoiseSpec(kind="coefficient", sigma=sigma, draws=m1,
                     seed=base_seed)
    trace = identify(meas, model, init, noise=spec)
    d = trace.final.as_array() - clean.final.as_array()
    rel = float(np.linalg.norm(d, 2) / np.linalg.norm(
        clean.final.as_array(), 2))
    records.append(_noise_record(
        f"noise_coefficient:sigma={sigma}", eps, p, r, base_seed, trace,
        model, t0, sigma=sigma, M1=m1, rel_coeff_error=rel))
    return records


# ---------------------------------------------------------------------------
# sweep and serialization

def sweep(epsilons: Sequence[float], strategies: Sequence[str] = ("ME",),
          coefficient: str = "periodic_smooth", r: float | None = None,
          p: int | None = None, q: int = 11,
          coarse_h: float = DEFAULT_COARSE_H, m1: int = 10,
          base_seed: int = 0, workers: int = 1) -> list[dict]:
    """Identification records over an epsilon grid and strategy list, at
    resolution ``r`` (default: the coefficient's ``DEFAULT_R``).

    Per-record failures are recorded (with an ``error`` field) and the
    sweep continues; record order is deterministic.
    """
    r = DEFAULT_R.get(coefficient) if r is None else r
    a_star = periodic_reference() if coefficient == "periodic_smooth" \
        and epsilons and strategies else None

    def run(eps, strat, cache):
        try:
            if coefficient == "periodic_smooth":
                return identify_periodic(eps, r=r, p=p, q=q,
                                         coarse_h=coarse_h, strategy=strat,
                                         a_star=a_star, meas_cache=cache)
            if coefficient == "checkerboard":
                return identify_checkerboard(eps, r=r, p=p, q=q, m1=m1,
                                             base_seed=base_seed,
                                             coarse_h=coarse_h,
                                             strategy=strat,
                                             meas_cache=cache)
            raise ValueError(f"unknown coefficient {coefficient!r}")
        except Exception as exc:  # noqa: BLE001 - per-record tolerance
            return record(f"identify_{coefficient}", strat, eps, None, P=p,
                          Q=q, r=r, seed=base_seed, error=repr(exc))

    # one task per epsilon, so each worker simulates its measurements once
    # and shares them across the strategies
    def run_eps(eps):
        cache: dict = {}
        return [run(eps, strat, cache) for strat in strategies]

    return [rec for group in parallel_map(run_eps, epsilons, workers)
            for rec in group]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # numpy floats repr as np.float64(...)
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(records: Sequence[dict], path: str) -> None:
    """Fixed-column CSV; extra record fields only appear in the JSON."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_format_cell(rec.get(c)) for c in CSV_COLUMNS))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(records: Sequence[dict], path: str,
               config: dict | None = None) -> None:
    doc = {"schema_version": 1, "records": list(records)}
    if config is not None:
        doc["config"] = config
    _atomic_write(path, json.dumps(doc, indent=2, default=float) + "\n")
