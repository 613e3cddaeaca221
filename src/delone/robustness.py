"""Robustness of ordered point configurations and its decay under perturbation.

An ordered set is rho-robust when every vertex lies at distance >= rho from
the affine span of its predecessors.  ``prefix_distances`` is the one
kernel for those distances: vectorized over stacks of configurations, each
distance a ratio of consecutive Gram volumes of the edge vectors.  The
recursion rho_m tracks how much robustness survives after each vertex moves
by at most eps; v2_constant is the minimal parallelogram area over
sphere-constrained triples which feeds the volume lower bounds for robust
simplices.  It is exact, in closed form:
(e1^3/e2) sqrt(1 - e1^2/4e2^2) = e1^2 sin(2 asin(e1/2e2)), rounded down.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import InvalidBudgetError


def prefix_distances(stacks) -> np.ndarray:
    """Distances d(p_j, aff(p_0..p_{j-1})), j = 1..k-1, for each ordered
    point list of a (m, k, n) stack, 2 <= k <= n+1, n <= 8: shape (m, k-1).
    The paper's properly ordered robustness of a list is the least of them.

    With edge vectors e_i = p_i - p_0, the j-th distance is vol_j / vol_{j-1},
    where vol_j = sqrt(det Gram(e_1..e_j)) is the j-volume of the
    parallelepiped on the first j edges and vol_0 = 1; for a full simplex
    (k = n+1) the last volume is |det U| of its edge matrix.  A step whose
    previous volume is 0 has distance 0.  In the plane this is |ab| and
    |det[ab; ac]| / |ab|.
    """
    p = np.asarray(stacks, dtype=float)
    m, k, n = p.shape
    if not 2 <= k <= n + 1:
        raise ValueError(f"robustness needs 2 to {n + 1} points in R^{n}, got {k}")
    e = p[:, 1:] - p[:, :1]
    out = np.empty((m, k - 1))
    prev = np.ones(m)
    for j in range(1, k):
        if j == n:
            vol = np.abs(linalg.determinant(e))
        else:
            gram = np.sum(e[:, :j, None, :] * e[:, None, :j, :], axis=-1)
            vol = np.sqrt(np.maximum(linalg.determinant(gram), 0.0))
        out[:, j - 1] = np.where(prev > 0, vol / np.maximum(prev, 1e-300), 0.0)
        prev = vol
    return out


def delta_m_sequence(rho0: float, eps: float, e1: float, e2: float, m: int):
    """The coefficients delta_1..delta_m of the perturbed-robustness recursion.

    delta_1 = 2;  delta_j = 2 + 4 e4/e1 + 2 sum_{k=2}^{j-1} (1+delta_k) e4/rho_k
    with e4 = 4(e2+e1) and rho_k = rho0 - eps*delta_k, each rho_k (k < m)
    computed once; raises InvalidBudgetError when one is not positive.
    """
    if not (0 < e1 < e2):
        raise InvalidBudgetError("require 0 < e1 < e2")
    if not (0 <= eps < e1 / 4):
        raise InvalidBudgetError("require 0 <= eps < e1/4")
    if m < 1:
        raise ValueError("m must be >= 1")
    e4 = 4.0 * (e2 + e1)
    deltas, tail = [2.0], 0.0  # tail: the sum up to k - 1, added in order of k
    for k in range(2, m + 1):
        deltas.append(2.0 + 4.0 * e4 / e1 + 2.0 * tail)
        if k < m:
            rho_k = rho0 - eps * deltas[-1]
            if rho_k <= 0:
                raise InvalidBudgetError(f"rho_{k} <= 0 in the recursion")
            tail += (1.0 + deltas[-1]) * e4 / rho_k
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
    so float rounding cannot lift it above the true minimum.  Only for
    1e-100 <= e1 < e2 <= 1e100: there no intermediate overflows or passes
    through subnormals, whose lost digits can leave the descent ~1e15 steps
    long (e1 ** 3 at e1 = 2e-108); elsewhere it raises InvalidBudgetError.
    """
    if not 1e-100 <= e1 < e2 <= 1e100:
        raise InvalidBudgetError(f"require 1e-100 <= e1 < e2 <= 1e100, "
                                 f"got e1 = {e1:.6g}, e2 = {e2:.6g}")
    q1, q2 = Fraction(e1), Fraction(e2)
    exact_sq = q1 ** 6 / q2 ** 2 * (1 - q1 ** 2 / (4 * q2 ** 2))
    v2 = e1 ** 3 / e2 * math.sqrt(1.0 - e1 * e1 / (4.0 * e2 * e2))
    while Fraction(v2) ** 2 > exact_sq:
        v2 = math.nextafter(v2, 0.0)
    return v2
