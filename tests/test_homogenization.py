import math

import numpy as np
import pytest

from effdiff.coefficients import constant_field, layered_field, \
    periodic_smooth_field
from effdiff.experiments import periodic_reference
from effdiff.homogenization import checkerboard_exact, harmonic_mean_1d, \
    homogenized_matrix
from effdiff.mesh import build_periodic_cell_mesh
from effdiff.solver import CorrectorSolver

from conftest import element_gradients, random_spd, triangle_geometry


def test_constant_field_is_fixed_point():
    cell = build_periodic_cell_mesh(8)
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_spd(rng)
        out = homogenized_matrix(cell, constant_field(m))
        assert np.abs(out.vec() - m.vec()).max() < 1e-10


def test_layered_field_mixes_means():
    field = layered_field(lambda y: 2.0 + np.cos(2.0 * np.pi * y), 1.0)
    out = homogenized_matrix(build_periodic_cell_mesh(256), field)
    assert abs(out.a11 - 2.0) < 2e-3            # arithmetic mean across x
    assert abs(out.a22 - math.sqrt(3.0)) < 2e-3  # harmonic mean across y
    assert abs(out.a12) < 1e-10


def test_periodic_reference_values():
    out = periodic_reference()   # extrapolated from cells 32, 64 and 128
    assert abs(out.a11 - 19.3378) / 19.3378 < 5e-3
    assert abs(out.a22 - 11.8312) / 11.8312 < 5e-3
    # the field is diagonal, so a12 is rounding: the corrector loads cancel
    # no diagonal entry against its neighbours (solver._corrector_loads)
    assert abs(out.a12) < 1e-14


def test_periodic_reference_extrapolation_converged():
    # the default (32, 64, 128) extrapolation agrees with the (64, 128, 256)
    # one to 4.1e-10; a single 128-cell solve is 2.9e-4 off in a11
    coarse, fine = periodic_reference(), periodic_reference(256)
    assert np.abs(coarse.vec() - fine.vec()).max() < 1e-9


@pytest.mark.parametrize("cell_n", [2, 3, 4, 6, 254, 255])
def test_periodic_reference_needs_cell_multiple_of_four(cell_n):
    # A* is extrapolated from cells cell_n / 4, cell_n / 2 and cell_n
    with pytest.raises(ValueError, match="multiple of 4 and >= 8"):
        periodic_reference(cell_n)


def test_voigt_reuss_bounds():
    out = homogenized_matrix(build_periodic_cell_mesh(128),
                             periodic_smooth_field())
    evs = out.eigenvalues()
    # componentwise means of the diagonal field over the cell
    harm_11 = harmonic_mean_1d(
        lambda t: 22.0 + 10.0 * (np.sin(2 * np.pi * t)), 4000)
    assert evs.min() > 2.0          # coercivity band
    assert evs.max() < 42.0
    assert out.a11 <= 22.0 + 1e-6   # bounded by the arithmetic mean
    assert out.a22 <= 12.0 + 1e-6


def test_mesh_convergence_factor():
    field = periodic_smooth_field()
    outs = {n: homogenized_matrix(build_periodic_cell_mesh(n), field)
            for n in (64, 128, 256)}
    d1 = np.abs(outs[64].vec() - outs[128].vec()).max()
    d2 = np.abs(outs[128].vec() - outs[256].vec()).max()
    assert d1 / d2 >= 3.0


def flux_integral(cell, field):
    """sum_T |T| (e_i + grad w_i) . A (e_j + grad w_j): A* as the energy
    of the correctors' element fluxes."""
    solver = CorrectorSolver(cell, field)
    areas, _, bary = triangle_geometry(cell)
    amat = field(bary)
    fluxes = [p + element_gradients(cell,
                                    solver.solve(p)[cell.dof_of_node])
              for p in np.eye(2)]
    return np.array([[np.sum(areas * np.einsum("ti,tij,tj->t", fi, amat, fj))
                      for fj in fluxes] for fi in fluxes])


@pytest.mark.parametrize("field", [
    periodic_smooth_field(),
    layered_field(lambda y: 2.0 + np.cos(2.0 * np.pi * y), 1.0),
    constant_field(random_spd(np.random.default_rng(3)))],
    ids=["periodic", "layered", "constant"])
def test_corrector_identity_matches_flux_integral(field):
    # A*_ij = <A>_ij - w_i . f_j is the flux integral by the corrector
    # equation tested with the other corrector
    cell = build_periodic_cell_mesh(16)
    ref = flux_integral(cell, field)
    out = homogenized_matrix(cell, field).as_array()
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_harmonic_mean_constant():
    assert abs(harmonic_mean_1d(lambda y: np.full_like(y, 3.5)) - 3.5) < 1e-14


def test_harmonic_mean_cosine_oracle():
    val = harmonic_mean_1d(lambda y: 2.0 + np.cos(2.0 * np.pi * y), 10_000)
    assert abs(val - math.sqrt(3.0)) < 1e-8


def test_harmonic_mean_two_phase():
    val = harmonic_mean_1d(lambda y: np.where(y < 0.5, 4.0, 16.0), 10_000)
    assert abs(val - 6.4) < 1e-12


def test_harmonic_mean_rejects_noncoercive():
    with pytest.raises(ValueError):
        harmonic_mean_1d(lambda y: np.cos(2.0 * np.pi * y))


def test_checkerboard_exact_value():
    ref = checkerboard_exact()
    assert ref.a11 == 8.0 and ref.a22 == 8.0 and ref.a12 == 0.0
    lo, hi = ref.eigenvalues()
    assert 4.0 <= lo and hi <= 16.0
    assert abs(ref.a11 - math.sqrt(4.0 * 16.0)) < 1e-14
