import numpy as np
import pytest

from effdiff.coefficients import SymMat, constant_field, \
    periodic_smooth_field, sample_checkerboard, scale_epsilon
from effdiff.identify import CoarseModel, Measurements, NoiseSpec, \
    apply_measurement_noise, assemble_m, descend, draw_matrix_perturbations, \
    fd_gradient, identify, make_objective, me_ms_identity_check, \
    one_d_noise_descent, one_d_noise_objective, one_d_noise_optimum, \
    psi_max_from_m, psi_sigma_value, simulate_measurements
from effdiff.mesh import build_unit_square_mesh
from effdiff.modes import affine_modes, compute_r_modes, modes_on_mesh
from effdiff.solver import NeumannSolver

from conftest import random_spd


# ---------------------------------------------------------------------------
# measurements

def test_measurement_invariants(small_periodic_setup):
    meas = small_periodic_setup["meas"]
    assert np.all(meas.energies < 0.0)
    assert np.abs(np.diag(meas.cross) + 2.0 * meas.energies).max() < 1e-12
    defect = np.abs(meas.cross - meas.cross.T).max()
    assert defect <= 1e-8 * np.abs(meas.cross).max()


@pytest.mark.parametrize("field", [
    sample_checkerboard(3, 0.2), scale_epsilon(periodic_smooth_field(), 0.2)])
def test_batched_measurements_match_one_solve_per_mode(field):
    mesh = build_unit_square_mesh(30)
    basis = compute_r_modes(mesh, 6)
    meas = simulate_measurements(mesh, field, basis)
    solver = NeumannSolver(mesh, field)
    fields = np.array([solver.solve(g) for g in basis.modes])
    traces = fields[:, mesh.boundary_loop]
    energies = [solver.energy(g, u) for g, u in zip(basis.modes, fields)]
    cross = basis.modes @ (solver.boundary_mass @ traces.T)
    for got, ref in ((meas.energies, energies), (meas.cross, cross),
                     (meas.boundary_traces, traces),
                     (meas.volume_fields, fields)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_batched_solve_rejects_one_nonzero_mean_column():
    mesh = build_unit_square_mesh(8)
    solver = NeumannSolver(mesh, constant_field(SymMat.identity()))
    data = affine_modes(mesh).modes.T.copy()
    data[:, 1] += 1.0
    with pytest.raises(ValueError, match="nonzero boundary mean"):
        solver.solve(data)


# ---------------------------------------------------------------------------
# coarse surrogate and the mismatch matrix

def test_coarse_energy_affine_exactness(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    model = CoarseModel(coarse_mesh, basis)
    out = model.evaluate(SymMat.identity())
    assert np.all(out.energies < 0.0)
    # scaling the coefficient scales the energies inversely
    out3 = model.evaluate(SymMat.identity(3.0))
    assert np.abs(out.energies - 3.0 * out3.energies).max() < 1e-12


def test_coarse_model_rejects_indefinite(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    model = CoarseModel(coarse_mesh, basis)
    with pytest.raises(ValueError):
        model.evaluate(SymMat(1.0, 5.0, 1.0))


def test_m_diagonal_is_energy_gap(small_periodic_setup, coarse_mesh):
    meas = small_periodic_setup["meas"]
    cb = modes_on_mesh(meas.basis, meas.mesh, coarse_mesh)
    model = CoarseModel(coarse_mesh, cb)
    coarse = model.evaluate(SymMat(20.0, 0.0, 12.0))
    m, diag_only = assemble_m(meas, coarse, cb)
    assert not diag_only
    delta = meas.energies - coarse.energies
    assert np.abs(np.diag(m) + delta).max() < 1e-12
    assert np.abs(m - m.T).max() == 0.0
    # without the cross table only the diagonal survives, flagged
    meas_nc = Measurements(basis=meas.basis, energies=meas.energies,
                           mesh=meas.mesh)
    m2, diag_only2 = assemble_m(meas_nc, coarse, cb)
    assert diag_only2
    assert np.abs(m2 - np.diag(-delta)).max() < 1e-12


def test_m_vanishes_at_reproducing_candidate(coarse_mesh):
    # measurements generated by a constant field on the same coarse mesh
    basis = affine_modes(coarse_mesh)
    a0 = SymMat(9.0, 1.0, 6.0)
    meas = simulate_measurements(coarse_mesh, constant_field(a0), basis)
    model = CoarseModel(coarse_mesh, basis)
    coarse = model.evaluate(a0)
    m, _ = assemble_m(meas, coarse, basis)
    assert np.abs(m).max() < 1e-12


def test_psi_max_hand_examples():
    val, vec = psi_max_from_m(np.diag([0.3, -0.5, 0.1]))
    assert abs(val - 0.25) < 1e-14
    assert np.abs(np.abs(vec) - [0.0, 1.0, 0.0]).max() < 1e-14
    val0, vec0 = psi_max_from_m(np.zeros((3, 3)))
    assert val0 == 0.0
    assert np.abs(vec0 - [1.0, 0.0, 0.0]).max() < 1e-14


def test_psi_max_dominates_random_directions():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    m = 0.5 * (m + m.T)
    val, _ = psi_max_from_m(m)
    cs = rng.standard_normal((2000, 4))
    cs /= np.linalg.norm(cs, axis=1)[:, None]
    sampled = np.max(np.einsum("ki,ij,kj->k", cs, m, cs) ** 2)
    assert sampled <= val + 1e-10


def test_psi_sigma_single_mode_equals_psi_max(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    a0 = SymMat(5.0, 0.0, 3.0)
    meas = simulate_measurements(coarse_mesh, constant_field(a0), basis)
    from effdiff.experiments import take_measurements
    meas1 = take_measurements(meas, 1)
    model = CoarseModel(coarse_mesh, meas1.basis)
    coarse = model.evaluate(SymMat(6.0, 0.0, 3.5))
    m, _ = assemble_m(meas1, coarse, meas1.basis)
    val, _ = psi_max_from_m(m)
    assert abs(val - psi_sigma_value(meas1, coarse)) < 1e-12


def test_psi_sigma_relates_to_m_diagonal(small_periodic_setup, coarse_mesh):
    meas = small_periodic_setup["meas"]
    cb = modes_on_mesh(meas.basis, meas.mesh, coarse_mesh)
    model = CoarseModel(coarse_mesh, cb)
    coarse = model.evaluate(SymMat(21.0, 0.5, 11.0))
    m, _ = assemble_m(meas, coarse, cb)
    assert abs(psi_sigma_value(meas, coarse)
               - float(np.sum(np.diag(m) ** 2))) < 1e-12


# ---------------------------------------------------------------------------
# gradients

def test_adjoint_gradients_match_finite_differences(small_periodic_setup,
                                                    coarse_mesh):
    meas = small_periodic_setup["meas"]
    noise = NoiseSpec(kind="coefficient", sigma=1.0, draws=3, seed=5)
    rng = np.random.default_rng(17)
    for kind, spec, tol in (("psi_sigma", None, 1e-4),
                            ("psi_max", None, 1e-4),
                            ("ms", None, 1e-6), ("mv", None, 1e-6),
                            ("psi_sigma", noise, 1e-6)):
        fn = make_objective(meas, coarse_mesh, kind, noise=spec)
        checked = 0
        while checked < 4:
            at = random_spd(rng, lo=5.0, hi=35.0)
            val, grad = fn(at)
            fd = fd_gradient(lambda a: fn(a)[0], at, rel_step=1e-5)
            denom = max(np.linalg.norm(fd), 1e-12)
            if kind == "psi_max":
                # skip points too close to an eigenvalue crossing, where
                # the objective is only directionally differentiable
                cb = modes_on_mesh(meas.basis, meas.mesh, coarse_mesh)
                model = CoarseModel(coarse_mesh, cb)
                coarse = model.evaluate(at)
                m, _ = assemble_m(meas, coarse, cb)
                ev = np.sort(np.abs(np.linalg.eigvalsh(m)))
                if ev[-1] - ev[-2] < 1e-3 * ev[-1]:
                    continue
            assert np.linalg.norm(grad - fd) / denom < tol, (kind, spec)
            checked += 1


def test_one_surrogate_evaluation_per_objective_call(small_periodic_setup,
                                                     coarse_mesh,
                                                     monkeypatch):
    meas = small_periodic_setup["meas"]
    calls = []
    evaluate = CoarseModel.evaluate

    def counting(self, abar):
        calls.append(abar)
        return evaluate(self, abar)

    monkeypatch.setattr(CoarseModel, "evaluate", counting)
    at = SymMat(19.0, 0.2, 12.0)
    for kind in ("psi_sigma", "psi_max", "ms", "mv"):
        fn = make_objective(meas, coarse_mesh, kind)
        calls.clear()
        fn(at)
        assert len(calls) == 1, kind
    spec = NoiseSpec(kind="coefficient", sigma=1.0, draws=4, seed=3)
    fn = make_objective(meas, coarse_mesh, noise=spec)
    calls.clear()
    fn(at)
    assert len(calls) == spec.draws


def test_gradient_vanishes_at_exact_fit(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    a0 = SymMat(7.0, 1.5, 9.0)
    meas = simulate_measurements(coarse_mesh, constant_field(a0), basis)
    fn = make_objective(meas, coarse_mesh, "psi_sigma")
    val, grad = fn(a0)
    assert val < 1e-20
    assert np.linalg.norm(grad) < 1e-12


def test_gram_factor_diagonal_nonnegative(small_periodic_setup, coarse_mesh):
    meas = small_periodic_setup["meas"]
    cb = modes_on_mesh(meas.basis, meas.mesh, coarse_mesh)
    model = CoarseModel(coarse_mesh, cb)
    coarse = model.evaluate(SymMat(18.0, -0.5, 13.0))
    for p in range(meas.count):
        u = coarse.values[p]
        s = coarse.sensitivity(u, u)
        assert s[0] >= 0.0 and s[2] >= 0.0


# ---------------------------------------------------------------------------
# descent

def test_descent_monotone_and_recovers_constant(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    a0 = SymMat(12.0, 2.0, 7.0)
    meas = simulate_measurements(coarse_mesh, constant_field(a0), basis)
    rng = np.random.default_rng(3)
    for _ in range(3):
        init = random_spd(rng, lo=3.0, hi=30.0)
        trace = identify(meas, coarse_mesh, init)
        vals = trace.objective_values
        assert all(b <= a + 1e-18 for a, b in zip(vals, vals[1:]))
        err = np.abs(trace.final.vec() - a0.vec()).max() / a0.frobenius()
        assert err < 1e-4
        assert trace.objective_values[-1] < 1e-10


def test_descent_zero_iterations_at_solution(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    a0 = SymMat(4.0, 0.5, 6.0)
    meas = simulate_measurements(coarse_mesh, constant_field(a0), basis)
    trace = identify(meas, coarse_mesh, a0)
    assert trace.termination == "gradient_small"
    assert trace.iterations == 0


def test_descent_rejects_indefinite_init(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    meas = simulate_measurements(coarse_mesh,
                                 constant_field(SymMat.identity(2.0)), basis)
    with pytest.raises(ValueError):
        identify(meas, coarse_mesh, SymMat(1.0, 3.0, 1.0))


def test_descent_first_step_capped():
    # synthetic quadratic objective over the matrix entries
    target = np.array([5.0, 0.0, 5.0])

    def fn(a):
        d = a.vec() - target
        return 0.5 * float(d @ d), d

    init = SymMat(30.0, 0.0, 30.0)
    trace = descend(fn, init, max_iters=1)
    moved = SymMat.from_vec(trace.iterates[1].vec() - init.vec()).frobenius()
    assert moved <= 0.1 * init.frobenius() + 1e-12


def test_argmax_invariant_under_common_scaling(small_periodic_setup,
                                               coarse_mesh):
    meas = small_periodic_setup["meas"]
    cb = modes_on_mesh(meas.basis, meas.mesh, coarse_mesh)
    model = CoarseModel(coarse_mesh, cb)
    at = SymMat(19.0, 0.3, 12.5)
    coarse = model.evaluate(at)
    m, _ = assemble_m(meas, coarse, cb)
    _, v1 = psi_max_from_m(m)
    _, v2 = psi_max_from_m(3.7 * m)
    assert np.abs(v1 - v2).max() < 1e-12


# ---------------------------------------------------------------------------
# trace / volume baselines: the descended objectives are the traces of the
# mismatch Grams, the sums of squared per-mode norms

def test_ms_mv_zero_at_exact_fit(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    a0 = SymMat(6.0, 0.0, 8.0)
    meas = simulate_measurements(coarse_mesh, constant_field(a0), basis)
    for kind in ("ms", "mv"):
        value, _ = make_objective(meas, coarse_mesh, kind)(a0)
        assert value < 1e-18


def test_ms_single_mode_is_plain_norm(small_periodic_setup, coarse_mesh):
    from effdiff.experiments import take_measurements
    meas1 = take_measurements(small_periodic_setup["meas"], 1)
    cb = modes_on_mesh(meas1.basis, small_periodic_setup["fine"],
                       coarse_mesh)
    at = SymMat(20.0, 0.0, 12.0)
    val, _ = make_objective(meas1, coarse_mesh, "ms", coarse_basis=cb)(at)
    # recompute directly: the squared boundary norm of the one residual
    from effdiff.mesh import boundary_mass_matrix, interpolate_boundary, \
        zero_mean_project
    model = CoarseModel(coarse_mesh, cb)
    coarse = model.evaluate(at)
    mb = boundary_mass_matrix(coarse_mesh)
    t = interpolate_boundary(small_periodic_setup["fine"],
                             meas1.boundary_traces[0], coarse_mesh)
    d = zero_mean_project(coarse_mesh, mb, t) - coarse.traces[0]
    assert abs(val - d @ (mb @ d)) < 1e-12


def test_ms_invariant_under_basis_rotation(small_periodic_setup,
                                           coarse_mesh):
    meas = small_periodic_setup["meas"]
    at = SymMat(19.0, 0.0, 12.0)
    v1, _ = make_objective(meas, coarse_mesh, "ms")(at)
    # rotate the basis and all recorded observables consistently
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((meas.count, meas.count)))
    from effdiff.modes import ModeBasis
    rot_basis = ModeBasis(modes=q @ meas.basis.modes, eigenvalues=None,
                          family="r_modes", mesh_n=meas.basis.mesh_n)
    rot = Measurements(basis=rot_basis, energies=meas.energies,
                       boundary_traces=q @ meas.boundary_traces,
                       mesh=meas.mesh)
    v2, _ = make_objective(rot, coarse_mesh, "ms")(at)
    assert abs(v1 - v2) < 1e-10 * max(v1, 1.0)


def test_ms_requires_traces(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    meas = Measurements(basis=basis, energies=np.array([-1.0, -1.0, -1.0]),
                        mesh=coarse_mesh)
    with pytest.raises(ValueError):
        make_objective(meas, coarse_mesh, "ms")(SymMat.identity())


# ---------------------------------------------------------------------------
# operator identity

def test_me_ms_identity_small_mesh():
    mesh = build_unit_square_mesh(48)
    field = scale_epsilon(periodic_smooth_field(), 0.2)
    rng = np.random.default_rng(21)
    abar = random_spd(rng, lo=8.0, hi=30.0)
    me, ms = me_ms_identity_check(field, abar, mesh)
    assert ms > 0.0
    assert abs(ms - 2.0 * me) <= 1e-6 * ms


def test_me_ms_identity_zero_for_matching_constant():
    mesh = build_unit_square_mesh(24)
    a = SymMat(3.0, 0.5, 2.0)
    me, ms = me_ms_identity_check(constant_field(a), a, mesh, tol=1e-8)
    assert me < 1e-10 and ms < 1e-10


# ---------------------------------------------------------------------------
# noise

def test_measurement_noise_basics(small_periodic_setup):
    meas = small_periodic_setup["meas"]
    spec0 = NoiseSpec(kind="measurement", sigma=0.0, seed=1)
    assert np.array_equal(apply_measurement_noise(meas, spec0).energies,
                          meas.energies)
    spec = NoiseSpec(kind="measurement", sigma=0.1, seed=7)
    n1 = apply_measurement_noise(meas, spec)
    n2 = apply_measurement_noise(meas, spec)
    assert np.array_equal(n1.energies, n2.energies)
    assert n1.cross is None


def test_measurement_noise_is_standard_normal():
    basis_energies = np.full(4, -1.0)
    meas = Measurements(basis=None, energies=basis_energies)
    sigma = 0.05
    zs = []
    for seed in range(2500):
        noisy = apply_measurement_noise(
            meas, NoiseSpec(kind="measurement", sigma=sigma, seed=seed))
        zs.extend((noisy.energies / meas.energies - 1.0) / sigma)
    assert abs(np.mean(zs)) < 0.03


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="measurement", sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(kind="coefficient", sigma=1.0, draws=0)
    with pytest.raises(ValueError):
        NoiseSpec(kind="other", sigma=1.0)


def test_measurement_noise_spec_rejected_by_objective(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    meas = simulate_measurements(coarse_mesh,
                                 constant_field(SymMat.identity(8.0)), basis)
    spec = NoiseSpec(kind="measurement", sigma=0.1, seed=1)
    with pytest.raises(ValueError, match="measurement noise goes"):
        make_objective(meas, coarse_mesh, noise=spec)
    with pytest.raises(ValueError, match="measurement noise goes"):
        identify(meas, coarse_mesh, SymMat.identity(9.0), noise=spec)


@pytest.mark.parametrize("kind", ["psi_max", "ms", "mv"])
def test_coefficient_noise_needs_energy_objective(coarse_mesh, kind):
    basis = affine_modes(coarse_mesh)
    meas = simulate_measurements(coarse_mesh,
                                 constant_field(SymMat.identity(8.0)), basis)
    spec = NoiseSpec(kind="coefficient", sigma=1.0, draws=2, seed=0)
    with pytest.raises(ValueError, match="psi_sigma"):
        make_objective(meas, coarse_mesh, kind, noise=spec)


def test_coefficient_noise_degenerates_to_clean(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    a0 = SymMat(8.0, 0.0, 8.0)
    meas = simulate_measurements(coarse_mesh, constant_field(a0), basis)
    at = SymMat(9.0, 0.2, 7.0)
    spec = NoiseSpec(kind="coefficient", sigma=0.0, draws=5, seed=0)
    noisy = make_objective(meas, coarse_mesh, noise=spec)(at)
    clean = make_objective(meas, coarse_mesh)(at)
    assert noisy[0] == clean[0]
    assert np.array_equal(noisy[1], clean[1])


def test_coefficient_noise_deterministic(coarse_mesh):
    basis = affine_modes(coarse_mesh)
    meas = simulate_measurements(coarse_mesh,
                                 constant_field(SymMat.identity(8.0)), basis)
    spec = NoiseSpec(kind="coefficient", sigma=1.0, draws=4, seed=11)
    at = SymMat.identity(9.0)
    v1 = make_objective(meas, coarse_mesh, noise=spec)(at)[0]
    v2 = make_objective(meas, coarse_mesh, noise=spec)(at)[0]
    assert v1 == v2


def test_perturbation_rejection_aborts():
    spec = NoiseSpec(kind="coefficient", sigma=50.0, draws=10, seed=0)
    with pytest.raises(ValueError):
        draw_matrix_perturbations(SymMat.identity(0.5), spec)


def test_one_d_noise_optimum_matches_grid_and_descent():
    a_star, a1, a2 = 8.0, 2.0, 4.0
    opt = one_d_noise_optimum(a_star, a1, a2)
    assert abs(opt - 5.0415) < 1e-3
    grid = np.arange(1e-4, 20.0, 1e-4)
    vals = np.array([one_d_noise_objective(a, a_star, a1, a2)
                     for a in grid])
    assert abs(grid[np.argmin(vals)] - opt) < 1e-3
    found = one_d_noise_descent(a_star, a1, a2, init=a_star)
    assert abs(found - opt) < 1e-6
