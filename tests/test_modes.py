import functools

import numpy as np
import pytest
import scipy.linalg as sla

import effdiff.modes as modes_module
import effdiff.solver as solver_module

from effdiff.coefficients import SymMat, constant_field
from effdiff.mesh import boundary_mass_matrix, build_unit_square_mesh, \
    zero_mean_project
from effdiff.modes import RModeOperator, affine_modes, choose_p, \
    compute_r_modes, extreme_eigenpairs, fix_sign, modes_on_mesh
from effdiff.solver import NeumannSolver


def dense_conjugated_operator(mesh):
    op = RModeOperator(mesh)
    nb = mesh.num_boundary_dofs
    b = np.empty((nb, nb))
    for k in range(nb):
        e = np.zeros(nb)
        e[k] = 1.0
        b[:, k] = op.apply_y(e)
    return op, 0.5 * (b + b.T)


# n = 20 and 29 at Q = 11 hold a double eigenvalue that single-vector
# Lanczos on the whole boundary space returns once
@pytest.mark.parametrize("n, q", [(8, 11), (16, 5), (20, 11), (24, 11),
                                  (29, 11), (57, 11)])
def test_lanczos_matches_dense_oracle(n, q):
    mesh = build_unit_square_mesh(n)
    op, b = dense_conjugated_operator(mesh)
    vals_ref = np.sort(sla.eigvalsh(b))[::-1]
    basis = compute_r_modes(mesh, q)
    assert np.abs(basis.eigenvalues - vals_ref[:q]).max() \
        < 1e-12 * vals_ref[0]

    # vectors against the dense decomposition, after sign alignment;
    # degenerate pairs are compared through the spanned subspace
    vals_d, vecs_d = sla.eigh(b)
    order = np.argsort(vals_d)[::-1]
    vals_d, vecs_d = vals_d[order], vecs_d[:, order]
    k = 0
    while k < q:
        j = k
        while j + 1 < len(vals_d) and abs(vals_d[j + 1] - vals_d[k]) \
                < 1e-8 * abs(vals_d[k]):
            j += 1
        block = vecs_d[:, k:j + 1]
        for p in range(k, min(j + 1, q)):
            y = op.to_y(basis.modes[p])
            y /= np.linalg.norm(y)
            resid = y - block @ (block.T @ y)
            assert np.linalg.norm(resid) < 1e-6
        k = j + 1


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17])
def test_separable_solve_matches_neumann_solver(n):
    # the separable solve against the factored identity stiffness, so the
    # dense-oracle tests, which build their matrix from apply_y, rest on
    # an independent check of the solve
    mesh = build_unit_square_mesh(n)
    op = RModeOperator(mesh)
    solver = NeumannSolver(mesh, constant_field(SymMat.identity()))
    rng = np.random.default_rng(n)
    for _ in range(3):
        g = zero_mean_project(mesh, op.mass,
                              rng.standard_normal(mesh.num_boundary_dofs))
        ref = solver.trace(solver.solve(g))
        assert np.abs(op.apply(g) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_r_modes_factor_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("compute_r_modes built a fine factorization")

    monkeypatch.setattr(solver_module.NeumannSolver, "__init__", forbidden)
    monkeypatch.setattr(solver_module, "unit_stiffnesses", forbidden)
    applications = []
    apply = RModeOperator.apply

    def counted(self, g):
        applications.append(g)
        return apply(self, g)

    monkeypatch.setattr(RModeOperator, "apply", counted)
    basis = compute_r_modes(build_unit_square_mesh(24), 5)
    assert basis.count == 5 and np.all(basis.eigenvalues > 0.0)
    assert len(applications) > 0


@pytest.mark.parametrize("n", [20, 24])
def test_modes_exactly_symmetric(n):
    # the reflection (x, y) -> (y, x) and the half turn map every mode to
    # +mode or -mode bit for bit
    basis = compute_r_modes(build_unit_square_mesh(n), 11)
    nb = 4 * n
    k = np.arange(nb)
    for perm in ((-k) % nb, (k + nb // 2) % nb):
        for mode in basis.modes:
            assert np.array_equal(mode[perm], mode) or \
                np.array_equal(mode[perm], -mode)


def test_eigenvalues_positive_and_sorted():
    basis = compute_r_modes(build_unit_square_mesh(24), 6)
    lam = basis.eigenvalues
    assert np.all(lam > 0.0)
    assert np.all(np.diff(lam) <= 1e-12)


def test_rayleigh_quotient_matches_eigenvalue():
    mesh = build_unit_square_mesh(20)
    basis = compute_r_modes(mesh, 4)
    op = RModeOperator(mesh)
    mb = boundary_mass_matrix(mesh)
    for k in range(4):
        g = basis.modes[k]
        val = g @ (mb @ op.apply(g))
        assert abs(val - basis.eigenvalues[k]) < 1e-8


def test_orthonormality_and_zero_mean():
    mesh = build_unit_square_mesh(24)
    basis = compute_r_modes(mesh, 5)
    mb = boundary_mass_matrix(mesh)
    gram = basis.modes @ (mb @ basis.modes.T)
    assert np.abs(gram - np.eye(5)).max() < 1e-8
    w = mb @ np.ones(mesh.num_boundary_dofs)
    assert np.abs(basis.modes @ w).max() < 1e-10


def test_operator_self_adjoint_and_positive():
    mesh = build_unit_square_mesh(18)
    op = RModeOperator(mesh)
    mb = boundary_mass_matrix(mesh)
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = zero_mean_project(mesh, mb, rng.standard_normal(
            mesh.num_boundary_dofs))
        g = zero_mean_project(mesh, mb, rng.standard_normal(
            mesh.num_boundary_dofs))
        lhs = f @ (mb @ op.apply(g))
        rhs = g @ (mb @ op.apply(f))
        scale = np.linalg.norm(f) * np.linalg.norm(g)
        assert abs(lhs - rhs) <= 1e-9 * scale
        assert g @ (mb @ op.apply(g)) > 0.0


def test_mode_stability_under_refinement():
    lam_a = compute_r_modes(build_unit_square_mesh(32), 5).eigenvalues
    lam_b = compute_r_modes(build_unit_square_mesh(64), 5).eigenvalues
    assert np.abs(lam_a - lam_b).max() / lam_b.max() < 0.05
    assert np.abs((lam_a - lam_b) / lam_b).max() < 0.05


def test_sign_convention_deterministic():
    mesh = build_unit_square_mesh(20)
    b1 = compute_r_modes(mesh, 3)
    b2 = compute_r_modes(mesh, 3)
    assert np.array_equal(b1.modes, b2.modes)
    for k in range(3):
        mode = b1.modes[k]
        assert mode[np.argmax(np.abs(mode))] > 0.0


def test_fix_sign_tie_goes_first():
    v = np.array([-2.0, 2.0, 1.0])
    assert np.array_equal(fix_sign(v), np.array([2.0, -2.0, -1.0]))


def test_fix_sign_near_tie_goes_first():
    # extremes that differ by rounding only still count as a tie
    v = np.array([-2.0, 2.0 * (1.0 + 1e-12), 1.0])
    assert np.array_equal(fix_sign(v), -v)
    assert np.array_equal(fix_sign(-v), -v)


def test_r_modes_independent_of_start_vector(monkeypatch):
    # n = 24, P = 6 cuts the degenerate pair of modes 5 and 6; the basis
    # must not depend on the Lanczos start vector
    mesh = build_unit_square_mesh(24)
    bases = []
    for seed in (12345, 7):
        monkeypatch.setattr(modes_module, "extreme_eigenpairs",
                            functools.partial(extreme_eigenpairs, seed=seed))
        bases.append(compute_r_modes(mesh, 6))
    assert np.abs(bases[0].modes - bases[1].modes).max() <= 1e-8
    assert np.abs(bases[0].eigenvalues - bases[1].eigenvalues).max() <= 1e-8


def test_too_many_modes_rejected():
    with pytest.raises(ValueError):
        compute_r_modes(build_unit_square_mesh(2), 8)


def test_lanczos_on_small_dense_matrix():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 40))
    a = a + a.T
    vals, vecs = extreme_eigenpairs(lambda x: a @ x, dim=40, nev=3,
                                    which="LM")
    ref = np.linalg.eigvalsh(a)
    ref = ref[np.argsort(-np.abs(ref))][:3]
    assert np.abs(vals - ref).max() < 1e-8
    for k in range(3):
        assert np.linalg.norm(a @ vecs[:, k] - vals[k] * vecs[:, k]) < 1e-7


def test_affine_modes_zero_mean_and_count():
    mesh = build_unit_square_mesh(16)
    basis = affine_modes(mesh)
    assert basis.count == 3
    mb = boundary_mass_matrix(mesh)
    w = mb @ np.ones(mesh.num_boundary_dofs)
    assert np.abs(basis.modes @ w).max() < 1e-10
    # first two are orthonormal; the third is linearly dependent on the
    # square and kept as its own normalized datum
    gram = basis.modes @ (mb @ basis.modes.T)
    assert np.abs(gram[:2, :2] - np.eye(2)).max() < 1e-10
    assert abs(gram[2, 2] - 1.0) < 1e-10


def test_affine_datum_gives_closed_form_solution():
    mesh = build_unit_square_mesh(20)
    abar = SymMat(3.0, 0.8, 2.0)
    solver = NeumannSolver(mesh, constant_field(abar))
    basis = affine_modes(mesh)
    # the first mode is the normalized projection of e1 . n; the solve
    # reproduces the affine field x -> (abar^{-1} e1) . x up to scaling
    u = solver.solve(basis.modes[0])
    grad = np.linalg.solve(abar.as_array(), np.array([1.0, 0.0]))
    expect = mesh.nodes @ grad
    mb = solver.boundary_mass
    ones = np.ones(mesh.num_boundary_dofs)
    w = mb @ ones
    expect = expect - (w @ expect[mesh.boundary_loop]) / (w @ ones)
    scale = (u @ expect) / (expect @ expect)
    assert np.abs(u - scale * expect).max() < 1e-9


def test_choose_p_thresholds():
    assert choose_p(0.05) == 3
    assert choose_p(0.1) == 3
    assert choose_p(0.2) == 5
    assert choose_p(0.25) == 5
    with pytest.raises(ValueError):
        choose_p(0.0)


def test_modes_transfer_preserves_zero_mean():
    fine = build_unit_square_mesh(40)
    coarse = build_unit_square_mesh(16)
    basis = compute_r_modes(fine, 4)
    moved = modes_on_mesh(basis, fine, coarse)
    assert moved.mesh_n == 16
    mb = boundary_mass_matrix(coarse)
    w = mb @ np.ones(coarse.num_boundary_dofs)
    assert np.abs(moved.modes @ w).max() < 1e-10


def test_modes_transfer_affine_rebuilds():
    fine = build_unit_square_mesh(32)
    coarse = build_unit_square_mesh(12)
    moved = modes_on_mesh(affine_modes(fine), fine, coarse)
    direct = affine_modes(coarse)
    assert np.abs(moved.modes - direct.modes).max() < 1e-12
