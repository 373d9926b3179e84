import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdiff.mesh import boundary_arclength, boundary_mass_matrix, \
    boundary_perimeter, build_periodic_cell_mesh, build_unit_square_mesh, \
    interpolate_boundary, interpolate_nodal, interpolation_matrix, \
    zero_mean_project
from effdiff.solver import triangle_geometry


def test_smallest_mesh_counts():
    mesh = build_unit_square_mesh(1)
    assert mesh.num_nodes == 4
    assert mesh.triangles.shape == (2, 3)
    assert mesh.boundary_loop.shape == (4,)


def test_n4_counts():
    mesh = build_unit_square_mesh(4)
    assert mesh.num_nodes == 25
    assert mesh.triangles.shape[0] == 32
    assert mesh.boundary_edges.shape[0] == 16


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=64))
def test_area_and_perimeter_identities(n):
    mesh = build_unit_square_mesh(n)
    areas, _, _ = triangle_geometry(mesh)
    assert abs(areas.sum() - 1.0) < 1e-12
    assert abs(boundary_perimeter(mesh) - 4.0) < 1e-12
    assert abs(mesh.h - math.sqrt(2.0) / n) < 1e-15


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=32))
def test_boundary_normals_unit_and_outward(n):
    mesh = build_unit_square_mesh(n)
    norms = np.linalg.norm(mesh.boundary_normals, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-14
    # outward: positive dot with (edge midpoint - center)
    a = mesh.nodes[mesh.boundary_edges[:, 0]]
    b = mesh.nodes[mesh.boundary_edges[:, 1]]
    mid = 0.5 * (a + b) - 0.5
    dots = np.einsum("ki,ki->k", mid, mesh.boundary_normals)
    assert np.all(dots > 0.0)


def test_refinement_halves_h():
    for n in (3, 8, 17):
        h1 = build_unit_square_mesh(n).h
        h2 = build_unit_square_mesh(2 * n).h
        assert abs(h1 - 2.0 * h2) < 1e-15


def test_boundary_loop_is_ccw_from_origin():
    mesh = build_unit_square_mesh(3)
    pts = mesh.nodes[mesh.boundary_loop]
    assert np.allclose(pts[0], [0.0, 0.0])
    # shoelace area of the loop polygon is +1 for counterclockwise
    x, y = pts[:, 0], pts[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert abs(area - 1.0) < 1e-12


def test_periodic_cell_counts():
    mesh = build_periodic_cell_mesh(2)
    assert mesh.num_nodes == 9
    assert mesh.num_periodic_dofs == 4


def test_periodic_pairs_structure():
    mesh = build_periodic_cell_mesh(5)
    for a, b in mesh.periodic_pairs.items():
        assert mesh.periodic_pairs[b] == a  # involution
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        # pairs differ by a full period in exactly one coordinate
        diff = np.abs(pa - pb)
        assert sorted(np.round(diff, 12)) == [0.0, 1.0]
    # identified nodes share a DOF
    for a, b in mesh.periodic_pairs.items():
        assert mesh.dof_of_node[a] == mesh.dof_of_node[b]


def test_periodic_cell_rejects_tiny():
    with pytest.raises(ValueError):
        build_periodic_cell_mesh(1)


def test_boundary_mass_perimeter_and_rowsums():
    mesh = build_unit_square_mesh(6)
    mb = boundary_mass_matrix(mesh)
    ones = np.ones(mesh.num_boundary_dofs)
    assert abs(ones @ (mb @ ones) - 4.0) < 1e-12
    rows = np.asarray(mb.sum(axis=1)).ravel()
    assert np.all(rows >= 0.0)
    assert abs(rows.sum() - 4.0) < 1e-12


def test_zero_mean_projection_kills_constants():
    mesh = build_unit_square_mesh(5)
    mb = boundary_mass_matrix(mesh)
    out = zero_mean_project(mesh, mb, np.full(mesh.num_boundary_dofs, 3.7))
    assert np.abs(out).max() < 1e-12


def test_zero_mean_projection_idempotent():
    mesh = build_unit_square_mesh(7)
    mb = boundary_mass_matrix(mesh)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(mesh.num_boundary_dofs)
    once = zero_mean_project(mesh, mb, g)
    twice = zero_mean_project(mesh, mb, once)
    assert np.abs(once - twice).max() < 1e-12


def test_arclength_starts_at_zero_and_covers_loop():
    mesh = build_unit_square_mesh(4)
    s = boundary_arclength(mesh)
    assert s[0] == 0.0
    assert abs(s[-1] - (4.0 - 1.0 / 4.0)) < 1e-12  # last node, not closure


def test_nodal_interpolation_reproduces_linear_fields():
    mesh = build_unit_square_mesh(9)
    vals = 2.0 * mesh.nodes[:, 0] - 0.5 * mesh.nodes[:, 1] + 1.0
    rng = np.random.default_rng(1)
    pts = rng.random((200, 2))
    out = interpolate_nodal(mesh, vals, pts)
    expect = 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 1.0
    assert np.abs(out - expect).max() < 1e-12


def test_interpolation_matrix_is_p1_weights():
    mesh = build_unit_square_mesh(7)
    rng = np.random.default_rng(4)
    # random points, the nodes themselves and points on the diagonals
    t = rng.random(50)
    pts = np.vstack([rng.random((300, 2)), mesh.nodes,
                     np.column_stack([t, t])])
    interp = interpolation_matrix(mesh, pts)
    assert interp.shape == (pts.shape[0], mesh.num_nodes)
    assert np.all(np.diff(interp.indptr) == 3)
    assert interp.min() >= 0.0
    assert np.abs(interp.sum(axis=1) - 1.0).max() < 1e-15
    for a, b, c in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, -3.0, 2.0)):
        vals = a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]
        expect = a + b * pts[:, 0] + c * pts[:, 1]
        assert np.abs(interp @ vals - expect).max() < 1e-14


def test_boundary_interpolation_identity_on_same_mesh():
    mesh = build_unit_square_mesh(8)
    rng = np.random.default_rng(2)
    g = rng.standard_normal(mesh.num_boundary_dofs)
    out = interpolate_boundary(mesh, g, mesh)
    assert np.abs(out - g).max() < 1e-12


def test_boundary_interpolation_refinement_consistency():
    coarse = build_unit_square_mesh(8)
    fine = build_unit_square_mesh(16)
    # linear-in-arclength data on each side transfers exactly to the
    # nested finer loop
    s = boundary_arclength(coarse)
    g = np.sin(2.0 * np.pi * s / 4.0)
    out = interpolate_boundary(coarse, g, fine)
    s_fine = boundary_arclength(fine)
    back = np.interp(s, s_fine, out)
    assert np.abs(back - g).max() < 1e-12
