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


def triangle_geometry(mesh):
    """Areas, P1 shape gradients and barycenters of every triangle, from
    the vertex coordinates: the reference the grid assembly is tested
    against."""
    p = mesh.nodes[mesh.triangles]  # (M, 3, 2)
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    assert np.all(areas > 0.0), "mesh has non-positively oriented triangles"

    # grad phi_k = rot90(opposite edge) / (2 |T|)
    grads = np.empty((p.shape[0], 3, 2))
    for k in range(3):
        a = p[:, (k + 1) % 3]
        b = p[:, (k + 2) % 3]
        grads[:, k, 0] = a[:, 1] - b[:, 1]
        grads[:, k, 1] = b[:, 0] - a[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    barycenters = p.mean(axis=1)
    return areas, grads, barycenters


def element_gradients(mesh, u):
    """Per-triangle gradient of a P1 field, shape (M, 2)."""
    _, grads, _ = triangle_geometry(mesh)
    return np.einsum("tki,tk->ti", grads, u[mesh.triangles])
