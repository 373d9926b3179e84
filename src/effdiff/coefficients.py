"""Coefficient fields: constant matrices, the analytic periodic field,
epsilon-scalings and random checkerboard realizations.

Fields are evaluated at quadrature points only (arrays of shape (m, 2)),
returning one 2x2 symmetric matrix per point; no field is ever materialized
on mesh nodes.  Checkerboard sampling uses numpy's default PCG64 generator;
the reproducibility contract is exact replay given (seed, cells_per_side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SymMat:
    """Constant symmetric 2x2 matrix stored by its 3 independent entries."""

    a11: float
    a12: float
    a22: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    def vec(self) -> np.ndarray:
        """Vectorization (a11, a12, a22) used by the optimizer."""
        return np.array([self.a11, self.a12, self.a22])

    @staticmethod
    def from_vec(v) -> "SymMat":
        return SymMat(float(v[0]), float(v[1]), float(v[2]))

    @staticmethod
    def from_array(m) -> "SymMat":
        m = np.asarray(m, dtype=float)
        return SymMat(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])

    @staticmethod
    def identity(scale: float = 1.0) -> "SymMat":
        return SymMat(scale, 0.0, scale)

    def eigenvalues(self) -> np.ndarray:
        tr = self.a11 + self.a22
        disc = math.sqrt((self.a11 - self.a22) ** 2 + 4.0 * self.a12 ** 2)
        return np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])

    def is_spd(self) -> bool:
        return bool(self.eigenvalues()[0] > 0.0)

    def frobenius(self) -> float:
        return math.sqrt(self.a11 ** 2 + 2.0 * self.a12 ** 2 + self.a22 ** 2)


@dataclass(frozen=True)
class CoefficientField:
    """Point-to-matrix coefficient map on (a superset of) (0,1)^2."""

    kind: str  # constant | periodic_analytic | epsilon_scaled | checkerboard
    evaluate: Callable[[np.ndarray], np.ndarray]  # (m,2) -> (m,2,2)
    alpha: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(np.atleast_2d(points))


def constant_field(m: SymMat) -> CoefficientField:
    a = m.as_array()

    def ev(points):
        return np.broadcast_to(a, (points.shape[0], 2, 2))

    return CoefficientField("constant", ev, alpha=float(m.eigenvalues()[0]))


def periodic_smooth_field() -> CoefficientField:
    def ev(points):
        s = np.sin(2.0 * np.pi * points[:, 0]) + np.sin(2.0 * np.pi * points[:, 1])
        out = np.zeros((points.shape[0], 2, 2))
        out[:, 0, 0] = 22.0 + 10.0 * s
        out[:, 1, 1] = 12.0 + 2.0 * s
        return out

    return CoefficientField("periodic_analytic", ev, alpha=2.0)


def layered_field(a_of_y: Callable[[np.ndarray], np.ndarray],
                  alpha: float) -> CoefficientField:
    """Scalar field a(y) * Id varying in the second coordinate only."""

    def ev(points):
        a = np.asarray(a_of_y(points[:, 1]), dtype=float)
        out = np.zeros((points.shape[0], 2, 2))
        out[:, 0, 0] = a
        out[:, 1, 1] = a
        return out

    return CoefficientField("periodic_analytic", ev, alpha=alpha)


def scale_epsilon(field: CoefficientField, eps: float) -> CoefficientField:
    """Compose a field with x -> x/eps."""
    if eps <= 0.0:
        raise ValueError(f"need eps > 0, got {eps}")
    inner = field.evaluate

    def ev(points):
        return inner(points / eps)

    return CoefficientField("epsilon_scaled", ev, alpha=field.alpha)


def sample_checkerboard(seed: int, eps: float) -> CoefficientField:
    """Random checkerboard a(x/eps) * Id with i.i.d. cell values in {4, 16}.

    Cells are anchored at the origin: cell (i, j) covers
    eps * ((i, i+1) x (j, j+1)); only cells meeting (0,1)^2 are drawn.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"need 0 < eps <= 1, got {eps}")
    cells = int(math.ceil(1.0 / eps))
    draws = np.random.default_rng(seed).integers(0, 2, size=(cells, cells))
    values = np.where(draws == 0, 4.0, 16.0)  # values[j, i] covers (i, j)

    def ev(points):
        i = np.clip((points[:, 0] / eps).astype(np.int64), 0, cells - 1)
        j = np.clip((points[:, 1] / eps).astype(np.int64), 0, cells - 1)
        a = values[j, i]
        out = np.zeros((points.shape[0], 2, 2))
        out[:, 0, 0] = a
        out[:, 1, 1] = a
        return out

    return CoefficientField("checkerboard", ev, alpha=4.0)


def mean_over_cell(field: CoefficientField, quad_n: int = 256) -> SymMat:
    """Entrywise average of a periodic or constant field over the unit cell."""
    if field.kind not in ("constant", "periodic_analytic"):
        raise ValueError(
            f"mean_over_cell expects a periodic or constant field, got "
            f"{field.kind!r} (use the known expectation for random fields)")
    xs = (np.arange(quad_n) + 0.5) / quad_n
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    mean = field(pts).mean(axis=0)
    return SymMat.from_array(mean)
