"""Robustness of ordered point configurations and its decay under perturbation.

An ordered set is rho-robust when every vertex lies at distance >= rho from
the affine span of its predecessors.  The recursion rho_m tracks how much
robustness survives after each vertex moves by at most eps; v2_constant is
the minimal parallelogram area over sphere-constrained triples which feeds
the volume lower bounds for robust simplices.  It is exact, in closed form:
(e1^3/e2) sqrt(1 - e1^2/4e2^2) = e1^2 sin(2 asin(e1/2e2)), rounded down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import InvalidBudgetError, OutOfChartError


@dataclass(frozen=True)
class RobustnessReport:
    """Per-prefix distances d(pts[k+1], aff(pts[0..k])) and their minimum."""

    per_prefix_distance: tuple
    rho: float


def robustness_of(pts) -> RobustnessReport:
    """Prefix-order robustness of an ordered point list (>= 2 points)."""
    p = np.asarray(pts, dtype=float)
    if p.shape[0] < 2:
        raise ValueError("robustness needs at least 2 points")
    dists = []
    for k in range(p.shape[0] - 1):
        dists.append(linalg.distance_to_affine_span(p[k + 1], p[: k + 1]))
    return RobustnessReport(per_prefix_distance=tuple(dists), rho=float(min(dists)))


def delta_m_sequence(rho0: float, eps: float, e1: float, e2: float, m: int):
    """The coefficients delta_1..delta_m of the perturbed-robustness recursion.

    delta_1 = 2;  delta_j = 2 + 4 e4/e1 + 2 sum_{k=2}^{j-1} (1+delta_k) e4/rho_k
    with e4 = 4(e2+e1) and rho_k = rho0 - eps*delta_k.
    """
    if not (0 < e1 < e2):
        raise InvalidBudgetError("require 0 < e1 < e2")
    if not (0 <= eps < e1 / 4):
        raise InvalidBudgetError("require 0 <= eps < e1/4")
    if m < 1:
        raise ValueError("m must be >= 1")
    e4 = 4.0 * (e2 + e1)
    deltas = [2.0]
    for j in range(2, m + 1):
        acc = 2.0 + 4.0 * e4 / e1
        for k in range(2, j):
            rho_k = rho0 - eps * deltas[k - 1]
            if rho_k <= 0:
                raise InvalidBudgetError(f"rho_{k} <= 0 in the recursion")
        acc += 2.0 * sum(
            (1.0 + deltas[k - 1]) * e4 / (rho0 - eps * deltas[k - 1])
            for k in range(2, j)
        )
        deltas.append(acc)
    return deltas


def rho_m_recursion(rho0: float, eps: float, e1: float, e2: float, m: int) -> float:
    """Guaranteed robustness after m perturbed steps: rho_m = rho0 - eps*delta_m.

    Raises InvalidBudgetError when the preconditions fail or some
    intermediate rho_k drops to zero.
    """
    deltas = delta_m_sequence(rho0, eps, e1, e2, m)
    rho_m = rho0 - eps * deltas[m - 1]
    if eps > 0 and rho_m <= 0:
        raise InvalidBudgetError(f"rho_{m} = {rho_m:.3e} <= 0")
    return float(rho_m)


def v2_constant(e1: float, e2: float) -> float:
    """Minimal parallelogram area |ab x ac| over triples a, b, c pairwise
    >= e1 apart on a sphere of radius <= e2: (e1^3/e2) sqrt(1 - e1^2/4e2^2).

    Any such triple lies on a circle of radius t <= e2 (a plane section of
    the sphere).  With inscribed angles A, B, C (A + B + C = pi) the sides are
    2t sin A, 2t sin B, 2t sin C and the area is 4t^2 sin A sin B sin C.  A
    side is >= e1 exactly when its angle lies in [a, pi - a], a = asin(e1/2t).
    log sin is concave on (0, pi), so the log-area is minimal at a vertex of
    that feasible polytope of angles.  Every vertex has two angles equal to a
    and the third equal to pi - 2a (an angle at pi - a would leave less than
    a for the others), so the minimum at radius t is
    4t^2 sin^2 a sin 2a = e1^2 sin(2 asin(e1/2t)).
    Over t in [e1/sqrt(3), e2], 2a runs over [2 asin(e1/2e2), 2pi/3], where sin
    is concave, so the least value sits at an endpoint: t = e1/sqrt(3)
    (equilateral) gives (sqrt(3)/2) e1^2, which is larger because e1 < e2
    makes 2 asin(e1/2e2) < pi/3.  The minimum is therefore attained at
    t = e2 with two chords of length e1.

    The float value is stepped down one ulp at a time (``math.nextafter``)
    until its square is at most the exact rational square of the minimum,
    so float rounding cannot lift it above the true minimum.
    """
    if not (0 < e1 < e2):
        raise InvalidBudgetError("require 0 < e1 < e2")
    q1, q2 = Fraction(e1), Fraction(e2)
    exact_sq = q1 ** 6 / q2 ** 2 * (1 - q1 ** 2 / (4 * q2 ** 2))
    v2 = e1 ** 3 / e2 * math.sqrt(1.0 - e1 * e1 / (4.0 * e2 * e2))
    while Fraction(v2) ** 2 > exact_sq:
        v2 = math.nextafter(v2, 0.0)
    return v2


def metric_robustness(pts, metric, r_limit: float | None = None) -> float:
    """Robustness of an ordered point list measured inside a metric model.

    For each k the points are mapped to geodesic coordinates at pts[k]
    (frames aligned from a reference frame at pts[0]); the reported value is
    the minimum over k of the distance from pts[k+1] to the exponential
    image of the span of the preceding log vectors.
    """
    from scipy.optimize import minimize

    from . import metrics as mt

    points = list(pts)
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    if r_limit is None:
        r_limit = metric.convexity_radius()
    for p in points[1:]:
        if metric.distance(points[0], p) > r_limit:
            raise OutOfChartError("points exceed the working radius")

    if metric.kind == "flat":
        return robustness_of(np.asarray(points, dtype=float)).rho

    ref = mt.standard_frame(metric, points[0])
    best = np.inf
    for k in range(len(points) - 1):
        frame = mt.align_frame(metric, ref, points[k])
        vs = [mt.log_frame(metric, frame, points[j]) for j in range(k + 1)]
        target = points[k + 1]
        span = np.array([v for v in vs if np.linalg.norm(v) > 0.0])
        if span.size == 0:
            d = metric.distance(points[k], target)
        else:
            # Orthonormal basis of the span of the log vectors.
            q, r = np.linalg.qr(span.T)
            rank = int(np.sum(np.abs(np.diag(r)) > 1e-12 * np.max(np.abs(r))))
            basis = q[:, :rank]
            w = mt.log_frame(metric, frame, target)
            c0 = basis.T @ w

            def objective(c):
                a = basis @ c
                nrm = np.linalg.norm(a)
                if nrm > r_limit:
                    a = a * (r_limit / nrm)
                return metric.distance(mt.exp_frame(metric, frame, a), target)

            res = minimize(objective, c0, method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14})
            d = min(objective(c0), float(res.fun))
        best = min(best, float(d))
    return float(best)
