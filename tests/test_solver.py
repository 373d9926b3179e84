import numpy as np
import pytest
import scipy.linalg as sla

import effdiff.solver as solver_module
from effdiff.coefficients import CoefficientField, SymMat, constant_field, \
    periodic_smooth_field, sample_checkerboard, scale_epsilon
from effdiff.mesh import boundary_mass_matrix, build_periodic_cell_mesh, \
    build_unit_square_mesh
from effdiff.modes import affine_modes, compute_r_modes
from effdiff.solver import CorrectorSolver, NeumannSolver, \
    assemble_stiffness, assemble_volume_mass, boundary_load, unit_stiffnesses

from conftest import element_gradients, triangle_geometry


def normal_trace_datum(mesh, direction):
    """Boundary projection of direction . n, matching the affine family
    before normalization."""
    mb = boundary_mass_matrix(mesh)
    nb = mesh.num_boundary_dofs
    pts = mesh.nodes[mesh.boundary_loop]
    lengths = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    gn = mesh.boundary_normals @ np.asarray(direction, dtype=float)
    rhs = np.zeros(nb)
    np.add.at(rhs, np.arange(nb), gn * lengths / 2.0)
    np.add.at(rhs, (np.arange(nb) + 1) % nb, gn * lengths / 2.0)
    return np.linalg.solve(mb.toarray(), rhs)


def test_stiffness_symmetric_psd_with_constant_kernel():
    mesh = build_unit_square_mesh(8)
    k = assemble_stiffness(mesh, constant_field(SymMat(3.0, 1.0, 2.0)))
    kd = k.toarray()
    assert np.abs(kd - kd.T).max() < 1e-12
    assert np.abs(kd @ np.ones(mesh.num_nodes)).max() < 1e-12
    evs = np.linalg.eigvalsh(kd)
    assert evs.min() > -1e-10


def test_volume_mass_total_area():
    mesh = build_unit_square_mesh(6)
    m = assemble_volume_mass(mesh)
    ones = np.ones(mesh.num_nodes)
    assert abs(ones @ (m @ ones) - 1.0) < 1e-12


def test_affine_solution_identity_coefficient():
    mesh = build_unit_square_mesh(16)
    solver = NeumannSolver(mesh, constant_field(SymMat.identity()))
    g = normal_trace_datum(mesh, [1.0, 0.0])
    u = solver.solve(g)
    assert np.abs(u - (mesh.nodes[:, 0] - 0.5)).max() < 1e-9
    assert abs(solver.energy(g, u) + 0.5) < 1e-9


def test_affine_solution_general_constant_matrix():
    mesh = build_unit_square_mesh(12)
    m = SymMat(3.0, 1.0, 2.0)
    solver = NeumannSolver(mesh, constant_field(m))
    e = np.array([1.0, 0.5])
    g = normal_trace_datum(mesh, e)
    u = solver.solve(g)
    grad = np.linalg.solve(m.as_array(), e)
    expect = mesh.nodes @ grad
    expect -= expect[mesh.boundary_loop].mean()  # equal weights on square
    mb = solver.boundary_mass
    ones = np.ones(mesh.num_boundary_dofs)
    w = mb @ ones
    expect -= (w @ expect[mesh.boundary_loop]) / (w @ ones)
    assert np.abs(u - expect).max() < 1e-9


def test_energy_scales_inversely_with_coefficient():
    mesh = build_unit_square_mesh(10)
    g = normal_trace_datum(mesh, [0.3, -0.7])
    e1, e3 = (solver.energy(g, solver.solve(g)) for solver in (
        NeumannSolver(mesh, constant_field(SymMat.identity(s)))
        for s in (1.0, 3.0)))
    assert abs(e1 - 3.0 * e3) < 1e-12
    assert e1 < 0.0


def test_nonzero_mean_datum_rejected():
    mesh = build_unit_square_mesh(8)
    solver = NeumannSolver(mesh, constant_field(SymMat.identity()))
    with pytest.raises(ValueError):
        solver.solve(np.ones(mesh.num_boundary_dofs))


def test_solution_trace_has_zero_boundary_mean():
    mesh = build_unit_square_mesh(14)
    field = scale_epsilon(periodic_smooth_field(), 0.5)
    solver = NeumannSolver(mesh, field)
    basis = affine_modes(mesh)
    for g in basis.modes:
        u = solver.solve(g)
        tr = solver.trace(u)
        mean = np.ones(len(tr)) @ (solver.boundary_mass @ tr)
        assert abs(mean) < 1e-10


def test_discrete_residual_small():
    mesh = build_unit_square_mesh(14)
    field = sample_checkerboard(3, 0.25)
    solver = NeumannSolver(mesh, field)
    g = affine_modes(mesh).modes[0]
    u = solver.solve(g)
    res = assemble_stiffness(mesh, field) @ u \
        - boundary_load(mesh, solver.boundary_mass, g)
    # residual lies along the multiplier constraint direction only
    c = solver._constraint
    res -= c * (c @ res) / (c @ c)
    assert np.linalg.norm(res) < 1e-9 * (1.0 + np.linalg.norm(u))


def test_energy_equals_dirichlet_form():
    # -2 E(g) equals the coefficient-weighted gradient square of u
    mesh = build_unit_square_mesh(11)
    m = SymMat(3.0, 0.5, 2.0)
    solver = NeumannSolver(mesh, constant_field(m))
    g = affine_modes(mesh).modes[0]
    u = solver.solve(g)
    areas, _, _ = triangle_geometry(mesh)
    gr = element_gradients(mesh, u)
    quad = np.sum(areas * np.einsum("ti,ij,tj->t", gr, m.as_array(), gr))
    assert abs(-2.0 * solver.energy(g, u) - quad) < 1e-12


def test_corrector_constant_field_is_zero():
    cell = build_periodic_cell_mesh(12)
    sol = CorrectorSolver(cell, constant_field(SymMat(5.0, 1.0, 3.0))) \
        .solve([1.0, 0.0])[cell.dof_of_node]
    assert np.abs(sol).max() < 1e-10


def test_corrector_zero_cell_average_and_periodicity():
    cell = build_periodic_cell_mesh(24)
    solver = CorrectorSolver(cell, periodic_smooth_field())
    sol = solver.solve([0.0, 1.0])[cell.dof_of_node]
    # the faces x = 0 and x = 1, and y = 0 and y = 1, carry equal values
    grid = sol.reshape(cell.n + 1, cell.n + 1)
    assert np.array_equal(grid[:, 0], grid[:, -1])
    assert np.array_equal(grid[0], grid[-1])
    areas, _, _ = triangle_geometry(cell)
    w = np.zeros(cell.num_nodes)
    np.add.at(w, cell.triangles.ravel(), np.repeat(areas / 3.0, 3))
    assert abs(w @ sol) < 1e-10


def test_corrector_solver_shares_factorization():
    cell = build_periodic_cell_mesh(16)
    solver = CorrectorSolver(cell, periodic_smooth_field())
    s1 = solver.solve([1.0, 0.0])[cell.dof_of_node]
    s2 = solver.solve([0.0, 1.0])[cell.dof_of_node]
    assert s1.shape == s2.shape
    assert not np.allclose(s1, s2)


def test_corrector_rejects_nonperiodic_mesh():
    mesh = build_unit_square_mesh(8)
    with pytest.raises(ValueError):
        CorrectorSolver(mesh, periodic_smooth_field())


def test_constant_solver_rejects_indefinite():
    mesh = build_unit_square_mesh(4)
    with pytest.raises(ValueError):
        NeumannSolver(mesh, constant_field(SymMat(1.0, 2.0, 1.0)))


def zero_mean_reference(k, weights, b):
    """Dense solution of K u = b (b made compatible) with weights . u = 0."""
    ones = np.ones(len(b))
    b = b - weights * (ones @ b) / (ones @ weights)
    u = np.linalg.pinv(k) @ b
    return u - (weights @ u) / (weights @ ones)


def test_stiffness_of_constant_field_matches_barycentric_assembly():
    # the reduced coarse surrogate projects a constant coefficient's
    # stiffness as a combination of the unit stiffnesses
    mesh = build_unit_square_mesh(9)
    m = SymMat(3.0, -0.7, 2.0)
    k11, k12, k22 = unit_stiffnesses(9)
    fast = (m.a11 * k11 + m.a12 * k12 + m.a22 * k22).toarray()
    slow = assemble_stiffness(mesh, scale_epsilon(constant_field(m), 0.3))
    assert np.abs(fast - slow.toarray()).max() <= 1e-12 * np.abs(fast).max()


def random_triangle_field(n, seed):
    """An SPD matrix per triangle of the n-grid, a12 != 0, looked up from
    any point inside the triangle."""
    rng = np.random.default_rng(seed)
    lower = rng.standard_normal((2 * n * n, 2, 2))
    values = lower @ lower.transpose(0, 2, 1) + 0.5 * np.eye(2)

    def ev(points):
        x, y = points[:, 0] * n, points[:, 1] * n
        i, j = np.floor(x).astype(int), np.floor(y).astype(int)
        upper = y - j > x - i
        return values[i + j * n + upper * n * n]

    return CoefficientField("random", ev, alpha=0.5)


def periodic_reduction(mesh):
    """Dense (nodes, classes) matrix that copies each class's value to its
    nodes; its transpose sums over the images."""
    red = np.zeros((mesh.num_nodes, mesh.n ** 2))
    red[np.arange(mesh.num_nodes), mesh.dof_of_node] = 1.0
    return red


def reference_matrices(mesh, field):
    """Dense stiffness and volume mass, triangle by triangle:
    K_ab += |T| grad phi_a . A(barycenter) grad phi_b and
    M_ab += |T| (1 + delta_ab) / 12."""
    areas, grads, bary = triangle_geometry(mesh)
    k = np.zeros((mesh.num_nodes, mesh.num_nodes))
    m = np.zeros_like(k)
    for tri, area, g, a in zip(mesh.triangles, areas, grads, field(bary)):
        k[np.ix_(tri, tri)] += area * g @ a @ g.T
        m[np.ix_(tri, tri)] += area * (1.0 + np.eye(3)) / 12.0
    return k, m


def factored_blocks(monkeypatch):
    """The matrices handed to SuperLU while the monkeypatch holds."""
    blocks = []
    splu = solver_module.spla.splu

    def recording(a, *args, **kwargs):
        blocks.append(a)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(solver_module.spla, "splu", recording)
    return blocks


def without(k, pin):
    """Dense k without row and column ``pin``."""
    return np.delete(np.delete(k, pin, axis=0), pin, axis=1)


def test_barycenters_match_triangle_geometry_bit_for_bit():
    # a barycenter on a checkerboard cell's edge (n = 5, eps = 1/3 has
    # one) must fall in the same cell as before; at n = 10, 37 and 300
    # another summation order of the vertices changes the last bit
    for n in (1, 5, 10, 37, 300):
        mesh = build_unit_square_mesh(n)
        assert np.array_equal(solver_module._barycenters(n),
                              triangle_geometry(mesh)[2])


@pytest.mark.parametrize("n, periodic", [
    (1, False), (2, False), (5, False), (16, False),
    (2, True), (5, True), (16, True)])
def test_assembly_matches_barycentric_reference(n, periodic, monkeypatch):
    mesh = (build_periodic_cell_mesh if periodic
            else build_unit_square_mesh)(n)
    blocks = factored_blocks(monkeypatch)
    fields = [random_triangle_field(n, n), sample_checkerboard(n, 0.3),
              periodic_smooth_field() if periodic
              else scale_epsilon(periodic_smooth_field(), 0.3)]
    for field in fields:
        k_ref, m_ref = reference_matrices(mesh, field)
        k = assemble_stiffness(mesh, field)
        assert np.abs(k.toarray() - k_ref).max() <= 1e-14 * np.abs(k_ref).max()
        m = assemble_volume_mass(mesh).toarray()
        assert np.abs(m - m_ref).max() <= 1e-14 * np.abs(m_ref).max()
        if not periodic:
            # the factored block is the full stiffness without the node
            # nearest the centre, bit for bit
            NeumannSolver(mesh, field)
            assert np.array_equal(blocks.pop().T.toarray(),
                                  without(k.toarray(), n // 2 * (n + 2)))
            continue
        # the periodic matrix sums the images of each class
        red = periodic_reduction(mesh)
        k_red = red.T @ k_ref @ red
        k_cell = solver_module._periodic_matrix(
            solver_module._stiffness_rows(n, field)).toarray()
        assert np.abs(k_cell - k_red).max() <= 1e-14 * np.abs(k_red).max()
        if field.kind == "periodic_analytic":
            # the corrector pins the last class
            CorrectorSolver(mesh, field)
            assert np.array_equal(blocks.pop().T.toarray(),
                                  without(k_cell, n * n - 1))


def test_assembly_work_is_done_once_per_grid(monkeypatch):
    # the boundary mass and constraint are cached per grid size; a new
    # coefficient costs its own evaluation and local entries alone
    mesh = build_unit_square_mesh(12)
    g = affine_modes(mesh).modes[0]
    NeumannSolver(mesh, sample_checkerboard(1, 0.25))
    misses = solver_module._neumann_setup.cache_info().misses

    def forbidden(*args, **kwargs):
        raise AssertionError("assembly repeated work of the grid")

    monkeypatch.setattr(solver_module.sp, "coo_matrix", forbidden)
    field = sample_checkerboard(2, 0.25)
    solver = NeumannSolver(mesh, field)
    assemble_volume_mass(mesh)
    assert solver_module._neumann_setup.cache_info().misses == misses
    u = solver.solve(g)
    assert np.all(np.isfinite(u))


@pytest.mark.parametrize("n", [5, 16])
def test_pinned_neumann_solve_matches_dense_reference(n):
    mesh = build_unit_square_mesh(n)
    field = sample_checkerboard(n, 0.7)
    solver = NeumannSolver(mesh, field)
    k = assemble_stiffness(mesh, field).toarray()
    c = solver._constraint
    rng = np.random.default_rng(n)
    g_free = rng.standard_normal(mesh.num_boundary_dofs)
    assert abs(c[mesh.boundary_loop] @ g_free) > 1e-3  # nonzero mean
    for g in list(affine_modes(mesh).modes) + [g_free]:
        b = boundary_load(mesh, solver.boundary_mass, g)
        # solve refuses a datum of nonzero mean; the pinned factor under it
        # makes the load compatible
        u = solver._lu.solve(b) if g is g_free else solver.solve(g)
        ref = zero_mean_reference(k, c, b)
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()


def bordered_reference(k, weights, b):
    """Solution of K u = b with weights . u = 0 for a compatible load b,
    by the dense bordered system [[K, w], [w^T, 0]], refined twice with a
    residual in extended precision."""
    size = k.shape[0]
    bordered = np.zeros((size + 1, size + 1))
    bordered[:size, :size] = k
    bordered[:size, size] = bordered[size, :size] = weights
    rhs = np.vstack([b, np.zeros((1, b.shape[1]))])
    lu = sla.lu_factor(bordered)
    x = sla.lu_solve(lu, rhs)
    exact = bordered.astype(np.longdouble)
    for _ in range(2):
        residual = rhs.astype(np.longdouble) - exact @ x.astype(np.longdouble)
        x = x + sla.lu_solve(lu, residual.astype(float))
    return x[:size]


@pytest.mark.parametrize("n", [29, 41])
@pytest.mark.parametrize("field", [
    pytest.param(constant_field(SymMat(22.46, 0.74, 16.03)), id="constant"),
    pytest.param(scale_epsilon(periodic_smooth_field(), 0.2), id="periodic"),
    pytest.param(sample_checkerboard(1, 0.25), id="checkerboard")])
def test_neumann_solve_matches_refined_bordered_solve(n, field):
    # the pinned solution is shifted back by its value at the pin, so the
    # pin's rounding reaches every node; the R-modes' harmonic extensions
    # are close to their mean at the centre, where the pin sits
    mesh = build_unit_square_mesh(n)
    solver = NeumannSolver(mesh, field)
    g = compute_r_modes(mesh, 5).modes.T
    mass = boundary_mass_matrix(mesh)
    weights = np.zeros(mesh.num_nodes)
    weights[mesh.boundary_loop] = mass @ np.ones(mesh.num_boundary_dofs)
    ref = bordered_reference(assemble_stiffness(mesh, field).toarray(),
                             weights, boundary_load(mesh, mass, g))
    u = solver.solve(g)
    assert np.abs(u - ref).max() <= 1e-13 * np.abs(ref).max()


def sheared_periodic_field():
    """A smooth periodic field with a12 != 0, eigenvalues in [1, 5]."""
    def ev(points):
        x, y = 2.0 * np.pi * points[:, 0], 2.0 * np.pi * points[:, 1]
        out = np.empty((points.shape[0], 2, 2))
        out[:, 0, 0] = 3.0 + np.sin(x)
        out[:, 1, 1] = 3.0 + np.cos(y)
        out[:, 0, 1] = out[:, 1, 0] = np.sin(x + y)
        return out

    return CoefficientField("periodic_analytic", ev, alpha=1.0)


@pytest.mark.parametrize("n, field", [
    pytest.param(4, periodic_smooth_field(), id="4"),
    pytest.param(16, periodic_smooth_field(), id="16"),
    pytest.param(4, sheared_periodic_field(), id="4-sheared"),
    pytest.param(16, sheared_periodic_field(), id="16-sheared")])
def test_pinned_corrector_solve_matches_dense_reference(n, field):
    cell = build_periodic_cell_mesh(n)
    solver = CorrectorSolver(cell, field)
    red = periodic_reduction(cell)
    k = red.T @ assemble_stiffness(cell, field).toarray() @ red
    areas, grads, bary = triangle_geometry(cell)
    amat = field(bary)
    w_full = np.zeros(cell.num_nodes)
    np.add.at(w_full, cell.triangles.ravel(), np.repeat(areas / 3.0, 3))
    for p in ([1.0, 0.0], [0.0, 1.0], [0.6, -0.8]):
        sol = solver.solve(p)
        # load_a = -sum_T |T| grad phi_a . (A p), one-point quadrature
        ap = np.einsum("tij,j->ti", amat, np.asarray(p))
        local = -np.einsum("tai,ti->ta", grads, ap) * areas[:, None]
        f_full = np.zeros(cell.num_nodes)
        np.add.at(f_full, cell.triangles.ravel(), local.ravel())
        ref = zero_mean_reference(k, red.T @ w_full, red.T @ f_full)
        assert np.abs(sol - ref).max() <= 1e-12 * np.abs(ref).max()
    # k directions at once, as k solves
    ps = np.array([[1.0, 0.0], [0.6, -0.8]])
    assert solver.solve(ps).shape == (2, n * n)
    for u, p in zip(solver.solve(ps), ps):
        assert np.abs(u - solver.solve(p)).max() <= 1e-13 * np.abs(u).max()


def test_factored_matrix_stores_no_zeros(monkeypatch):
    # the diagonal couplings of a diagonal coefficient are exact zeros;
    # they are dropped before the factorization
    n = 12
    factored = factored_blocks(monkeypatch)
    NeumannSolver(build_unit_square_mesh(n), sample_checkerboard(1, 0.25))
    CorrectorSolver(build_periodic_cell_mesh(n), periodic_smooth_field())
    # every coupling of the 7-point stencil inside the grid, or on the
    # periodic classes, less the 13 of the pinned unknown
    full = ((n + 1) ** 2 + 4 * n * (n + 1) + 2 * n * n - 13, 7 * n * n - 13)
    assert len(factored) == len(full)
    for a, nnz in zip(factored, full):
        assert np.all(a.data != 0.0)
        assert a.nnz < nnz
