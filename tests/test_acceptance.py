"""End-to-end acceptance checks at desk scale.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
captured output) in addition to the usual pytest verdict.  Expensive
fine-mesh measurements are shared through session-scoped caches.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg as sla

from effdiff.coefficients import SymMat, constant_field, \
    periodic_smooth_field, scale_epsilon
from effdiff.experiments import err_star, fine_mesh_n, identify_checkerboard, \
    identify_periodic, measurement_noise_study, coefficient_noise_study, \
    one_d_profile, sweep, write_csv
from effdiff.homogenization import harmonic_mean_1d, homogenized_matrix
from effdiff.identify import CoarseModel, assemble_m, fd_gradient, identify, \
    make_objective, me_ms_identity_check, one_d_noise_descent, \
    one_d_noise_objective, one_d_noise_optimum, simulate_measurements
from effdiff.mesh import build_periodic_cell_mesh, build_unit_square_mesh
from effdiff.modes import RModeOperator, affine_modes, compute_r_modes, \
    modes_on_mesh

from conftest import random_spd


@contextmanager
def verdict(num, title):
    try:
        yield
    except Exception:
        print(f"[acceptance {num:02d}] FAIL  {title}", flush=True)
        raise
    print(f"[acceptance {num:02d}] PASS  {title}", flush=True)


def test_01_periodic_homogenized_reference(a_star):
    with verdict(1, "periodic homogenized reference matrix"):
        assert 19.24 <= a_star.a11 <= 19.43
        assert 11.77 <= a_star.a22 <= 11.89
        assert abs(a_star.a12) <= 5e-3


def test_02_constant_field_fixed_point():
    with verdict(2, "homogenization of a constant field returns it"):
        cell = build_periodic_cell_mesh(8)
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_spd(rng)
            out = homogenized_matrix(cell, constant_field(m))
            assert np.abs(out.vec() - m.vec()).max() < 1e-10


def test_03_one_d_harmonic_mean_oracle():
    with verdict(3, "1D harmonic mean and profile minimizer"):
        val = harmonic_mean_1d(lambda y: 2.0 + np.cos(2.0 * np.pi * y),
                               10_000)
        assert abs(val - math.sqrt(3.0)) < 1e-8
        grid = np.linspace(1.5, 2.0, 2001)
        prof = one_d_profile(lambda y: 2.0 + np.cos(2.0 * np.pi * y),
                             eps=1e-3, abar_grid=grid)
        argmin = grid[np.argmin(prof[:, 1])]
        assert abs(argmin - math.sqrt(3.0)) < 2e-3


def test_04_identification_consistency_with_homogenization(a_star,
                                                           periodic_cache):
    with verdict(4, "energy identification converges to the reference "
                    "at second order in epsilon"):
        epss = [0.2, 0.1, 0.05]
        errs = []
        for eps in epss:
            rec = identify_periodic(eps, r=20.0, p=3, q=11, coarse_h=0.02,
                                    strategy="ME", a_star=a_star,
                                    compute_err_eps_q=False,
                                    meas_cache=periodic_cache)
            errs.append(rec["err_star"])
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.01
        slope = np.polyfit(np.log(epss), np.log(errs), 1)[0]
        assert 1.5 <= slope <= 2.6


def test_05_operator_accuracy(a_star, periodic_cache):
    with verdict(5, "worst-case solution error small at fine scale and "
                    "competitive with the reference at coarse scale"):
        rec_fine = identify_periodic(0.05, r=20.0, q=11, strategy="ME",
                                     a_star=a_star,
                                     meas_cache=periodic_cache)
        assert rec_fine["err_eps_q"] <= 0.10
        rec_me = identify_periodic(0.2, r=20.0, q=11, strategy="ME",
                                   a_star=a_star,
                                   meas_cache=periodic_cache)
        rec_ref = identify_periodic(0.2, r=20.0, q=11, strategy="A_star",
                                    a_star=a_star,
                                    meas_cache=periodic_cache)
        assert rec_ref["err_eps_q"] >= rec_me["err_eps_q"] - 0.02


def test_06_energy_trace_identity():
    with verdict(6, "energy mismatch is half the trace mismatch on a "
                    "shared mesh"):
        mesh = build_unit_square_mesh(128)
        field = scale_epsilon(periodic_smooth_field(), 0.2)
        rng = np.random.default_rng(42)
        for _ in range(5):
            abar = random_spd(rng, lo=5.0, hi=35.0)
            me, ms = me_ms_identity_check(field, abar, mesh)
            assert abs(ms - 2.0 * me) <= 1e-6 * ms


def test_07_adjoint_gradients(small_periodic_setup, coarse_mesh):
    with verdict(7, "adjoint gradients match finite differences"):
        meas = small_periodic_setup["meas"]
        cb = modes_on_mesh(meas.basis, meas.mesh, coarse_mesh)
        model = CoarseModel(coarse_mesh, cb)
        rng = np.random.default_rng(7)
        for kind in ("psi_sigma", "psi_max"):
            fn = make_objective(meas, model, kind)
            checked = 0
            while checked < 10:
                at = random_spd(rng, lo=5.0, hi=35.0)
                if kind == "psi_max":
                    coarse = model.evaluate(at)
                    m, _ = assemble_m(meas, coarse)
                    ev = np.sort(np.abs(np.linalg.eigvalsh(m)))
                    if ev[-1] - ev[-2] < 1e-3 * ev[-1]:
                        continue
                grad = fn(at)[1]()
                fd = fd_gradient(lambda a: fn(a)[0], at, rel_step=1e-5)
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(grad - fd) / denom < 1e-4
                checked += 1


def test_08_descent_properties():
    with verdict(8, "monotone descent recovering a constant coefficient"):
        mesh = build_unit_square_mesh(16)
        basis = affine_modes(mesh)
        a0 = SymMat(12.0, 2.0, 7.0)
        meas = simulate_measurements(mesh, constant_field(a0), basis)
        rng = np.random.default_rng(8)
        for _ in range(5):
            init = random_spd(rng, lo=3.0, hi=40.0)
            trace = identify(meas, CoarseModel(mesh, basis), init,
                             grad_tol=1e-14, max_iters=500)
            vals = trace.objective_values
            assert all(b <= a for a, b in zip(vals, vals[1:]))
            assert err_star(trace.final, a0) <= 1e-5


def test_09_random_checkerboard(periodic_cache):
    with verdict(9, "checkerboard identification near the geometric mean, "
                    "energy and trace strategies agreeing"):
        kwargs = dict(r=10.0, p=3, q=3, m1=10, base_seed=0,
                      compute_err_eps_q=False, meas_cache=periodic_cache)
        rec_me = identify_checkerboard(0.1, strategy="ME", **kwargs)
        rec_ms = identify_checkerboard(0.1, strategy="MS", **kwargs)
        assert rec_me["err_star"] <= 0.10
        assert abs(rec_me["err_star"] - rec_ms["err_star"]) <= 0.01


def test_10_measurement_noise_response():
    with verdict(10, "identified matrix degrades linearly with "
                     "measurement noise"):
        sigmas = (0.01, 0.05, 0.1)
        records = measurement_noise_study(eps=0.05, r=20.0, sigmas=sigmas,
                                          draws=40, base_seed=0)
        means = [np.mean([r["rel_coeff_error"] for r in records
                          if r["sigma"] == s]) for s in sigmas]
        assert means[0] < means[1] < means[2]
        xs = np.array([0.0, *sigmas])
        ys = np.array([0.0, *means])
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        r2 = 1.0 - float(resid @ resid) / float(np.sum((ys - ys.mean()) ** 2))
        assert r2 >= 0.9
        assert 1.0 <= slope <= 10.0


def test_11_coefficient_noise():
    with verdict(11, "coefficient-noise optimum analytic in 1D and mild "
                     "in 2D"):
        a_star, a1, a2 = 8.0, 2.0, 4.0
        ell = a2 - a1
        expect = (a2 - a1 * math.exp(ell / a_star)) \
            / (math.exp(ell / a_star) - 1.0)
        assert abs(expect - 5.0415) < 1e-3
        found = one_d_noise_descent(a_star, a1, a2, init=a_star)
        assert abs(found - expect) < 1e-3
        grid = np.arange(3.0, 8.0, 1e-4)
        vals = np.array([one_d_noise_objective(a, a_star, a1, a2)
                         for a in grid])
        assert abs(grid[np.argmin(vals)] - expect) < 1e-3
        assert abs(one_d_noise_optimum(a_star, a1, a2) - expect) < 1e-12

        records = coefficient_noise_study(eps=0.05, r=20.0, sigma=2.0,
                                          m1=10, base_seed=0)
        assert records[-1]["rel_coeff_error"] <= 0.08


def test_12_mode_machinery():
    with verdict(12, "boundary response operator invariants and "
                     "eigensolver against a dense oracle"):
        mesh = build_unit_square_mesh(16)
        op = RModeOperator(mesh)
        nb = mesh.num_boundary_dofs
        b = np.empty((nb, nb))
        for k in range(nb):
            e = np.zeros(nb)
            e[k] = 1.0
            b[:, k] = op.apply_y(e)
        asym = np.abs(b - b.T).max()
        assert asym <= 1e-9 * np.abs(b).max()
        b = 0.5 * (b + b.T)
        vals_d, vecs_d = sla.eigh(b)
        order = np.argsort(vals_d)[::-1]
        vals_d, vecs_d = vals_d[order], vecs_d[:, order]
        basis = compute_r_modes(mesh, 5)
        assert np.all(basis.eigenvalues > 0.0)
        assert np.abs(basis.eigenvalues - vals_d[:5]).max() < 1e-8
        k = 0
        while k < 5:
            j = k
            while j + 1 < len(vals_d) and abs(vals_d[j + 1] - vals_d[k]) \
                    < 1e-8 * abs(vals_d[k]):
                j += 1
            block = vecs_d[:, k:j + 1]
            for p in range(k, min(j + 1, 5)):
                y = op.to_y(basis.modes[p])
                y /= np.linalg.norm(y)
                resid = y - block @ (block.T @ y)
                assert np.linalg.norm(resid) < 1e-6
            k = j + 1


def test_13_sweep_determinism(tmp_path):
    with verdict(13, "sweep re-runs byte-identical up to timing"):
        def run(path):
            records = sweep([0.25], ["ME", "A_star"], r=4.0, q=5,
                            coarse_h=0.2, base_seed=0)
            write_csv(records, str(path))
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            drop = header.index("wall_ms")
            return [tuple(v for i, v in enumerate(line.split(","))
                          if i != drop) for line in lines]

        assert run(tmp_path / "a.csv") == run(tmp_path / "b.csv")
