import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdiff.coefficients import SymMat, constant_field, layered_field, \
    mean_over_cell, periodic_smooth_field, sample_checkerboard, scale_epsilon


finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(max_examples=50)
@given(finite, finite, finite)
def test_symmat_eigenvalues_match_numpy(a11, a12, a22):
    m = SymMat(a11, a12, a22)
    ours = m.eigenvalues()
    ref = np.linalg.eigvalsh(m.as_array())
    assert np.abs(ours - ref).max() < 1e-9 * (1.0 + np.abs(ref).max())


def test_symmat_roundtrips():
    m = SymMat(3.0, -1.0, 2.0)
    assert SymMat.from_vec(m.vec()) == m
    assert SymMat.from_array(m.as_array()) == m
    assert abs(m.frobenius() - np.linalg.norm(m.as_array())) < 1e-12


def test_symmat_spd_and_band_membership():
    assert SymMat(3.0, 0.0, 2.0).is_spd()
    assert not SymMat(1.0, 2.0, 1.0).is_spd()


def test_periodic_field_sample_points():
    m = periodic_smooth_field()(np.array([[0.0, 0.0], [0.25, 0.0]]))
    assert m[0].tolist() == [[22.0, 0.0], [0.0, 12.0]]
    assert abs(m[1, 0, 0] - 32.0) < 1e-12 and abs(m[1, 1, 1] - 14.0) < 1e-12
    assert m[1, 0, 1] == 0.0 and m[1, 1, 0] == 0.0


@settings(max_examples=30)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_periodic_field_periodicity(x, y):
    a, b = periodic_smooth_field()(np.array([[x, y], [x + 1.0, y]]))
    assert np.abs(a - b).max() < 1e-9


def test_periodic_field_band():
    field = periodic_smooth_field()
    rng = np.random.default_rng(0)
    pts = rng.random((2000, 2))
    mats = field(pts)
    assert mats[:, 0, 0].min() >= 2.0 and mats[:, 0, 0].max() <= 42.0
    assert mats[:, 1, 1].min() >= 8.0 and mats[:, 1, 1].max() <= 16.0
    assert np.abs(mats[:, 0, 1]).max() == 0.0


def test_scale_epsilon_composition():
    field = periodic_smooth_field()
    rng = np.random.default_rng(1)
    pts = rng.random((50, 2))
    once = scale_epsilon(scale_epsilon(field, 0.5), 0.4)
    direct = scale_epsilon(field, 0.2)
    assert np.abs(once(pts) - direct(pts)).max() < 1e-12


def test_scale_epsilon_sample_point():
    field = scale_epsilon(periodic_smooth_field(), 0.5)
    m = field(np.array([[0.125, 0.0]]))[0]
    assert abs(m[0, 0] - 32.0) < 1e-12 and abs(m[1, 1] - 14.0) < 1e-12


def test_scale_epsilon_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale_epsilon(periodic_smooth_field(), 0.0)


def test_checkerboard_values_and_determinism():
    f1 = sample_checkerboard(42, 0.1)
    f2 = sample_checkerboard(42, 0.1)
    rng = np.random.default_rng(3)
    pts = rng.random((100, 2))
    a1, a2 = f1(pts), f2(pts)
    assert np.array_equal(a1, a2)
    diag = a1[:, 0, 0]
    assert set(np.unique(diag)) <= {4.0, 16.0}
    assert np.abs(a1[:, 0, 1]).max() == 0.0
    assert np.abs(a1[:, 0, 0] - a1[:, 1, 1]).max() == 0.0


def test_checkerboard_cell_statistics():
    # one value per cell of a 100 x 100 board, read at the cell centres
    centres = (np.arange(100) + 0.5) / 100
    x, y = np.meshgrid(centres, centres)
    field = sample_checkerboard(7, 0.01)
    vals = field(np.column_stack([x.ravel(), y.ravel()]))[:, 0, 0]
    assert abs(vals.mean() - 10.0) < 0.3
    assert abs(vals.var() - 36.0) < 3.0


def test_checkerboard_is_constant_on_cells():
    eps = 0.25
    field = sample_checkerboard(11, eps)
    # probe two points well inside the same cell
    a = field(np.array([[0.26, 0.26]]))[0, 0, 0]
    b = field(np.array([[0.49, 0.49]]))[0, 0, 0]
    assert a == b


def test_mean_over_cell_periodic_and_constant():
    mean = mean_over_cell(periodic_smooth_field())
    assert abs(mean.a11 - 22.0) < 1e-6
    assert abs(mean.a22 - 12.0) < 1e-6
    m = SymMat(4.0, 1.0, 3.0)
    assert np.abs(mean_over_cell(constant_field(m)).vec()
                  - m.vec()).max() < 1e-12


def test_mean_over_cell_quadrature_stability():
    a = mean_over_cell(periodic_smooth_field(), quad_n=256).vec()
    b = mean_over_cell(periodic_smooth_field(), quad_n=512).vec()
    assert np.abs(a - b).max() < 1e-8


def test_mean_over_cell_rejects_checkerboard():
    with pytest.raises(ValueError):
        mean_over_cell(sample_checkerboard(0, 0.25))


def test_layered_field_varies_in_y_only():
    field = layered_field(lambda y: 2.0 + np.cos(2.0 * np.pi * y), 1.0, 3.0)
    pts = np.array([[0.1, 0.3], [0.9, 0.3]])
    mats = field(pts)
    assert np.abs(mats[0] - mats[1]).max() < 1e-14
