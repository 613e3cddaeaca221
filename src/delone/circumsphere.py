"""Circumscribed-sphere solves and explicit perturbation/displacement bounds.

The circumcenter of n+1 affinely independent points in R^n is found from the
linear system U xi = lambda(U)/2 where the rows of U are the edge vectors
u_k = y_{k-1} - y_n against the last point as base, and lambda(U) collects
their squared norms.  The closed-form stability estimates bound how far the
center can move when every vertex moves by at most eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DegenerateError, InvalidBudgetError

#: Relative equidistance tolerance for a valid circumsphere.
EQUIDISTANCE_RTOL = 1e-9


@dataclass(frozen=True)
class CircumSphere:
    """Center and radius of a circumscribed sphere."""

    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class PerturbationBudget:
    """Scale constants for the displacement/stability bounds.

    e1 <= pairwise distances <= 2*e2 for the configurations covered;
    e3 = e2 + eps; rho is the robustness floor; delta a lower bound for the
    parallelepiped volume |det U| of the configuration, or an array of
    such bounds, one per configuration.
    """

    e1: float
    e2: float
    eps: float
    rho: float
    delta: float
    e3: float = field(init=False)

    def __post_init__(self):
        if not (0 < self.e1 < self.e2):
            raise InvalidBudgetError("require 0 < e1 < e2")
        if self.eps < 0:
            raise InvalidBudgetError("require eps >= 0")
        if self.rho <= 0 or np.any(np.asarray(self.delta) <= 0):
            raise InvalidBudgetError("require rho > 0 and delta > 0")
        object.__setattr__(self, "e3", self.e2 + self.eps)


def edge_matrix(pts: np.ndarray) -> np.ndarray:
    """Rows u_k = y_{k-1} - y_n, base vertex = last point in the given order."""
    p = np.asarray(pts, dtype=float)
    return p[:-1] - p[-1]


def circumcenter(pts) -> CircumSphere:
    """Circumsphere of n+1 affinely independent points in R^n.

    Raises DegenerateError when the points are affinely dependent beyond
    the scale-relative degeneracy floor.
    """
    p = np.asarray(pts, dtype=float)
    m, n = p.shape
    if m != n + 1:
        raise ValueError(f"need n+1 points in R^n, got {m} points in R^{n}")
    u = edge_matrix(p)
    lam = np.sum(u * u, axis=1)
    try:
        xi = linalg.solve_linear(u, 0.5 * lam)
    except DegenerateError as exc:
        raise DegenerateError(f"affinely dependent points: {exc}") from exc
    center = xi + p[-1]
    dists = np.linalg.norm(p - center, axis=1)
    radius = float(dists[-1])
    return CircumSphere(center=center, radius=radius)


def circumcenter_batch(pts: np.ndarray):
    """Vectorized circumcenters for a stack of simplices.

    pts has shape (m, n+1, n).  Returns (centers, radii, valid) where valid
    flags the simplices above the degeneracy floor.  Degenerate rows carry
    NaN centers and infinite radii.
    """
    p = np.asarray(pts, dtype=float)
    m, k, n = p.shape
    if k != n + 1:
        raise ValueError("expected stacks of n+1 points in R^n")
    u = p[:, :-1, :] - p[:, -1:, :]  # (m, n, n)
    lam = np.sum(u * u, axis=2)  # (m, n)
    det = np.linalg.det(u)
    cb = np.maximum(np.max(np.linalg.norm(u, axis=2), axis=1), 1e-300)
    valid = np.abs(det) >= linalg.DEGENERACY_REL * cb**n
    centers = np.full((m, n), np.nan)
    radii = np.full(m, np.inf)
    if np.any(valid):
        xi = np.linalg.solve(u[valid], 0.5 * lam[valid][..., None])[..., 0]
        c = xi + p[valid, -1, :]
        centers[valid] = c
        radii[valid] = np.linalg.norm(p[valid, -1, :] - c, axis=1)
    return centers, radii, valid


def displacement_bound(budget: PerturbationBudget, n: int):
    """The paper's circumcenter displacement estimate: a certified bound on
    the center's move under per-vertex moves of size <= eps, for
    configurations with |det U| >= delta (an array of bounds for an array
    of deltas).

    eps * {1 + n^{3/2} 2^{n+1} e3^n / delta + 2 n^3 2^{2n} e3^{2n} / delta^2};
    scale-invariant when lengths scale by s and delta by s^n.
    """
    e3 = budget.e3
    d = budget.delta
    return budget.eps * (
        1.0
        + n**1.5 * 2.0 ** (n + 1) * e3**n / d
        + 2.0 * n**3 * 2.0 ** (2 * n) * e3 ** (2 * n) / d**2
    )


def stability_radius(budget: PerturbationBudget, n: int) -> float:
    """The per-vertex displacement the paper's perturbation lemma for
    circumcenters licenses: delta / (2^{n+1} n^{3/2} e2^{n-1})."""
    return budget.delta / (2.0 ** (n + 1) * n**1.5 * budget.e2 ** (n - 1))


def refine_center(pts, guess, c1: float):
    """The paper's estimate for an approximate circumcenter: the exact
    circumcenter plus a certified bound on the approximate center's drift.

    Requires every |dist(guess, pt_i) - r| < c1 for some radius r > c1.
    The bound is 2 sqrt(n) r c1 c2 with c2 the Hadamard inverse-norm bound of
    the edge matrix; the exact solve is returned alongside.
    """
    p = np.asarray(pts, dtype=float)
    g = np.asarray(guess, dtype=float)
    n = p.shape[1]
    d = np.linalg.norm(p - g, axis=1)
    r = 0.5 * (float(np.min(d)) + float(np.max(d)))
    if r <= c1:
        raise ValueError("approximate radius must exceed the error band c1")
    if np.any(np.abs(d - r) >= c1):
        raise ValueError("guess is not within c1 of a common radius")
    u = edge_matrix(p)
    c2 = linalg.inverse_norm_bound(u, linalg.column_norm_bound(u.T))
    bound = 2.0 * np.sqrt(n) * r * c1 * c2
    return circumcenter(p), float(bound)


def empty_sphere_test(sphere: CircumSphere, net_points, exclude, margin: float = 0.0) -> bool:
    """The empty-sphere condition of a Delaunay simplex, with a margin: True
    iff no net point outside ``exclude`` lies at distance < radius - margin
    from the center.

    margin >= 0 relaxes the test; margin < 0 demands clearance |margin|
    beyond the sphere surface.
    """
    pts = np.asarray(net_points, dtype=float)
    if pts.size == 0:
        return True
    mask = np.ones(len(pts), dtype=bool)
    if exclude:
        idx = np.fromiter(exclude, dtype=int)
        mask[idx] = False
    if not np.any(mask):
        return True
    d = np.linalg.norm(pts[mask] - np.asarray(sphere.center, dtype=float), axis=1)
    return bool(np.all(d >= sphere.radius - margin))
