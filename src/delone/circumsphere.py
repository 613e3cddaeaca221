"""Circumscribed-sphere solves and the circumcenter displacement bound.

The circumcenter of n+1 affinely independent points in R^n is found from the
linear system U xi = lambda(U)/2 where the rows of U are the edge vectors
u_k = y_{k-1} - y_n against the last point as base, and lambda(U) collects
their squared norms.  ``circumcenter_batch`` is the one kernel: Cramer's rule
in the plane, LAPACK's batched solve above; ``circumcenter`` is its row 0.
The closed forms, on plain numbers and arrays: ``displacement_bound``
bounds how far the center can move when every vertex moves by at most eps,
``spread`` how far a planar |det U| can, and ``planar_center_error`` the
rounding of a planar center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateError, InvalidBudgetError
from .robustness import v2_constant

@dataclass(frozen=True)
class CircumSphere:
    """Center and radius of a circumscribed sphere."""

    center: np.ndarray
    radius: float


def circumcenter(pts) -> CircumSphere:
    """Circumsphere of n+1 affinely independent points in R^n: row 0 of
    ``circumcenter_batch``.

    Raises DegenerateError when the points are affinely dependent beyond
    the scale-relative degeneracy floor.
    """
    p = np.asarray(pts, dtype=float)
    m, n = p.shape
    if m != n + 1:
        raise ValueError(f"need n+1 points in R^n, got {m} points in R^{n}")
    centers, radii, valid = circumcenter_batch(p[None])
    if not valid[0]:
        raise DegenerateError("affinely dependent points: |det U| below the "
                              "degeneracy floor")
    return CircumSphere(center=centers[0], radius=float(radii[0]))


def circumcenter_batch(pts: np.ndarray):
    """Vectorized circumcenters for a stack of simplices.

    pts has shape (m, n+1, n).  Returns (centers, radii, valid) where valid
    flags the simplices with |det U| >= DEGENERACY_REL cb^n, cb the longest
    edge to the last vertex, and, in the plane, 2^-327 <= cb <= 2^340 (the
    range below); above it det U != 0 instead (the floor underflows to 0 for
    small cb, coincident points included).  Degenerate rows carry NaN
    centers and infinite radii.  Each row is computed on its own, so its
    bits do not depend on the stack it comes in.

    In the plane, with a, b the rows of U, Cramer's rule gives
      c - y_2 = (|a|^2 b_1 - |b|^2 a_1, |b|^2 a_0 - |a|^2 b_0) / (2 det U)
    and r = |c - y_2|.  It is forward stable: for float edges, the computed
    c - y_2 is within
      gamma_6 (|a|^2 |b| + |b|^2 |a| + 2 r |a| |b|) / (2 |det U|)
    of the exact one, with det U as computed, gamma_k = k u / (1 - k u) and
    u = 2^-53 (the numerators carry gamma_4 (|a|^2 |b| + |b|^2 |a|), the
    determinant gamma_2 |a| |b|, the quotient one more rounding).  The planar
    branch evaluates these operations in this order (a_0 a_0 + a_1 a_1,
    a_0 b_1 - a_1 b_0, ...), the determinant as ``linalg.determinant``'s
    cofactor expansion but without the call, so the bound, and the
    certifier's use of it, hold for its bits.  Above the plane the center
    is LAPACK's batched solve.

    Range.  The count takes every rounding as relative: gradual underflow
    adds up to 2^-1075 absolute per rounding, and overflow breaks it.  A
    valid row has |a| |b| >= |det U| >= 1e-12 cb^2, so the bound's terms T
    = |a|^2 |b| + |b|^2 |a| >= |a| |b| cb are >= 1e-12 cb^3, and r >= cb / 2.
    For cb >= 2^-327 underflows reach the numerators through factors <= 2
    cb, below 2^-1071 cb <= 2^-377 T, and the radius's squares below 2^-418
    r^2: far inside the bound.  For cb <= 2^340 the largest values, the
    numerators (<= 2 cb^3 <= 2^1021) and r^2 (r <= |a| |b| |a - b| / (2
    |det U|) <= 1e12 cb), do not overflow.  Inside the range the floor is
    positive, so valid rows have det U != 0.  An invalid row's center is
    solved from NaN edges, so a row out of the range raises no numpy
    warning while its squares are finite (coordinates below about 1e154;
    the net loader refuses any above 1e150).
    """
    p = np.asarray(pts, dtype=float)
    m, k, n = p.shape
    if k != n + 1:
        raise ValueError("expected stacks of n+1 points in R^n")
    # coordinates first, so every elementwise step runs along the stack
    q = np.ascontiguousarray(p.transpose(1, 2, 0))  # (n+1, n, m)
    u = q[:-1] - q[-1]  # u[i, j] = (y_i - y_n)_j
    if n == 2:
        a0, a1, b0, b1 = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
        la, lb, det = a0 * a0 + a1 * a1, b0 * b0 + b1 * b1, a0 * b1 - a1 * b0
        cb = np.sqrt(np.maximum(la, lb))
        valid = (np.abs(det) >= linalg.DEGENERACY_REL * (cb * cb)) \
            & (cb >= 2.0 ** -327) & (cb <= 2.0 ** 340)
        bad, den = ~valid, det + det
        # an invalid row's NaN edges give its NaN center, and spare a row
        # out of the range the overflow warnings of its numerators
        np.copyto(u, np.nan, where=bad)
        xi = np.empty((m, 2))
        x, y = xi[:, 0], xi[:, 1]
        np.divide(la * b1 - lb * a1, den, out=x)
        np.divide(lb * a0 - la * b0, den, out=y)
        radii = np.sqrt(x * x + y * y)
        radii[bad] = np.inf
        xi += q[-1].T
        return xi, radii, valid
    lam = np.add.reduce(u * u, axis=1)  # (n, m)
    det = linalg.determinant(u.transpose(2, 0, 1))
    valid = (np.abs(det) >= linalg.DEGENERACY_REL * np.sqrt(lam.max(axis=0))**n) \
        & (det != 0.0)
    xi = np.full((n, m), np.nan)
    if np.any(valid):
        xi[:, valid] = np.linalg.solve(u.transpose(2, 0, 1)[valid],
                                       0.5 * lam[:, valid].T[..., None])[..., 0].T
    radii = np.where(valid, np.sqrt(np.add.reduce(xi * xi, axis=0)), np.inf)
    return np.ascontiguousarray((xi + q[-1]).T), radii, valid


def spread(radius: float, t):
    """The most |det U| of a planar edge matrix with rows <= 2 radius
    changes when each vertex moves by at most t: (2 radius + 2t)^2 -
    (2 radius)^2 (Hadamard's inequality)."""
    return (2.0 * radius + 2.0 * t) ** 2 - (2.0 * radius) ** 2


def planar_center_error(e1: float, radius: float, span: float) -> float:
    """phi_c: within it of the exact values lie the center and radius that
    ``circumcenter_batch`` computes for three sites pairwise >= e1 apart on a
    circle of radius <= ``radius``, and a distance computed from that center,
    when every coordinate is at most span - radius in magnitude; inf when
    the determinant bound below is not positive.

    With eta_c = 64 u span, a vertex move that covers the rounding of an
    edge, of a center and of a distance, and |det U| >= v2_constant(e1,
    radius) - spread(radius, eta_c), the planar closed form's bound
    gamma_6 12 radius^3 / |det U| is below 84 u radius^3 / that
    (84 u > 12 gamma_6).
    """
    eta = 64.0 * 2.0 ** -53 * span
    delta = v2_constant(e1, radius) - spread(radius, eta)
    return eta + 84.0 * 2.0 ** -53 * radius ** 3 / delta if delta > 0 else math.inf


def displacement_bound(eps, e2, delta, n: int):
    """The paper's circumcenter displacement estimate: a certified bound on
    the center's move under per-vertex moves of size <= eps, for
    configurations with pairwise distances <= 2 e2 and |det U| >= delta (an
    array of bounds for an array of deltas):

    eps * {1 + n^{3/2} 2^{n+1} e3^n / delta + 2 n^3 2^{2n} e3^{2n} / delta^2},
    e3 = e2 + eps, and inf where delta is not positive.  Scale-invariant
    when lengths scale by s and delta by s^n.  Raises InvalidBudgetError
    where a float e3 makes the constants overflow (e3 above about 1e77 for
    n = 2).
    """
    e3 = e2 + eps
    try:
        c1, c2 = n**1.5 * 2.0 ** (n + 1) * e3**n, 2.0 * n**3 * 2.0 ** (2 * n) * e3 ** (2 * n)
    except OverflowError:
        raise InvalidBudgetError(f"the displacement bound overflows: e3 ** {2 * n} "
                                 f"at e3 = {e3:.6g}") from None
    pos = np.asarray(delta) > 0
    d = np.where(pos, delta, 1.0)
    return np.where(pos, eps * (1.0 + c1 / d + c2 / d**2), np.inf)[()]
