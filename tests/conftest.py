"""Shared fixtures. Expensive artifacts (reference matrices, fine-mesh
measurements) are session-scoped so the suite solves each once."""

import numpy as np
import pytest

from effdiff.coefficients import SymMat, periodic_smooth_field, scale_epsilon
from effdiff.experiments import coarse_mesh_n, fine_mesh_n, \
    periodic_reference
from effdiff.identify import simulate_measurements
from effdiff.mesh import build_unit_square_mesh
from effdiff.modes import compute_r_modes


@pytest.fixture(scope="session")
def a_star():
    # the default reference is the one the sweeps use; sharing its cache
    # with them runs its corrector solves once per session
    return periodic_reference()


@pytest.fixture(scope="session")
def coarse_mesh():
    return build_unit_square_mesh(coarse_mesh_n(0.05))


@pytest.fixture(scope="session")
def small_periodic_setup():
    """Cheap periodic measurement set: eps = 0.2 on a modest fine mesh."""
    eps, r = 0.2, 8.0
    fine = build_unit_square_mesh(fine_mesh_n(eps, r))
    basis = compute_r_modes(fine, 5)
    field = scale_epsilon(periodic_smooth_field(), eps)
    meas = simulate_measurements(fine, field, basis)
    return {"eps": eps, "fine": fine, "basis": basis, "field": field,
            "meas": meas}


@pytest.fixture(scope="session")
def periodic_cache():
    """Fine-mesh measurement cache shared by the full-scale runs."""
    return {}


def random_spd(rng: np.random.Generator, lo: float = 2.0,
               hi: float = 42.0) -> SymMat:
    """A random symmetric matrix with eigenvalues inside (lo, hi)."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    while True:
        d1 = mid + 0.5 * half * (2.0 * rng.random() - 1.0)
        d2 = mid + 0.5 * half * (2.0 * rng.random() - 1.0)
        off = 0.2 * half * (2.0 * rng.random() - 1.0)
        m = SymMat(d1, off, d2)
        evs = m.eigenvalues()
        if evs[0] > lo and evs[1] < hi:
            return m
