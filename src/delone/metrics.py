"""Model leaf geometries and their working radius.

Three closed-form metric models: flat Euclidean space, the round sphere of
radius R (points are ambient 3-vectors) with six normal-coordinate charts of
radius ``chart_radius`` at the octahedral points, and a flat 2-torus given by
its periods.  The pipeline needs two closed forms of them, each rounded down:
the working radius ``find_lambda_eps`` and the orthonormalization threshold
``gs_delta``.  Distance, exp, log, frames, chart maps and the sampled audit of
the approximate-Euclidean conditions live in ``delone.paper``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ValidationError

#: Frames this far from orthonormal (norm defect or cross term) are rejected.
GS_DELTA_MAX = 0.2

#: Fallback "infinite" lambda for exactly-Euclidean models.
LAMBDA_CAP = 1.0e6


class MetricModel:
    """One of the model leaf geometries."""

    def __init__(self, kind: str, *, n: int = 2, radius: float = 1.0, periods=None):
        self.kind = kind
        if kind == "flat":
            self.n = n
        elif kind == "sphere":
            self.n = 2
            if radius <= 0:
                raise ValidationError("sphere radius must be positive")
            self.radius = float(radius)
            self.chart_radius = 1.45 * self.radius
        elif kind == "torus":
            if periods is None or len(periods) != 2:
                raise ValidationError("torus needs two periods")
            self.periods = np.asarray(periods, dtype=float)
            if np.any(self.periods <= 0):
                raise ValidationError("torus periods must be positive")
            self.n = 2
        else:
            raise ValidationError(f"unknown metric kind {kind!r}")

    @staticmethod
    def flat(n: int) -> "MetricModel":
        return MetricModel("flat", n=n)

    @staticmethod
    def sphere(radius: float) -> "MetricModel":
        return MetricModel("sphere", radius=radius)

    @staticmethod
    def flat_torus(periods) -> "MetricModel":
        return MetricModel("torus", periods=periods)

    def selector(self) -> str:
        if self.kind == "flat":
            return f"flat:{self.n}"
        if self.kind == "sphere":
            return f"sphere:{self.radius!r}"
        return "torus:" + ",".join(repr(float(p)) for p in self.periods)

    def convexity_radius(self) -> float:
        """Radius below which closed disks are strongly convex."""
        if self.kind == "flat":
            return math.inf
        if self.kind == "sphere":
            return 0.25 * math.pi * self.radius
        return 0.25 * float(np.min(self.periods))


def gs_delta(n: int, eps: float) -> float:
    """Threshold delta_n(eps) of the orthonormalization lemma:
    min(eps/(2n), 1/(3n), GS_DELTA_MAX/2), and 0 for eps <= 0.

    Claim: if n vectors f_j (the rows of F) have Gram matrix
    G = F F^T = I + E with |E_ij| <= delta <= delta_n(eps), then
    ``paper.gram_schmidt_correct`` accepts them and returns q_j with
    max_j ||q_j - f_j|| <= eps.

    Proof.  ||E||_2 <= ||E||_F <= n delta <= 1/3, so G is positive definite.
    Write G = L L^T with L = I + Delta lower triangular.  Then
    Delta + Delta^T = E - Delta Delta^T; the left side has Frobenius norm
    at least sqrt(2) ||Delta||_F (off-diagonal entries appear twice,
    diagonal ones doubled), so x = ||Delta||_F satisfies
    x^2 - sqrt(2) x + ||E||_F >= 0.  Along the path I + tE, t in [0, 1],
    the Cholesky factor is continuous and x = 0 at t = 0; since
    ||tE||_F <= 1/3 < 1/2 keeps the two roots apart, x stays on the small
    root: x <= (sqrt(2) - sqrt(2 - 4 ||E||_F))/2 <= sqrt(2) ||E||_F
    <= sqrt(2) n delta.  Gram-Schmidt returns Q = L^{-1} F, so
    Q - F = -L^{-1} Delta F and
    max_j ||q_j - f_j|| <= ||L^{-1}||_2 ||Delta||_2 ||F||_2
    <= sqrt((1 + n delta)/(1 - n delta)) sqrt(2) n delta <= 2 n delta <= eps,
    using n delta <= 1/3.  Finally delta <= GS_DELTA_MAX/2 puts the norms
    sqrt(1 + E_jj) inside (1 - GS_DELTA_MAX, 1 + GS_DELTA_MAX) and the cross
    terms below GS_DELTA_MAX, so the conditioning checks pass.  The
    deviation bound uses only ||E||_F <= n delta, so it also covers
    F = cholesky(I + delta S)^T with |S_ij| <= 1, whose F F^T - I is
    orthogonally similar to delta S.  (Cholesky perturbation bounds in the
    same spirit: Stewart, SIAM J. Numer. Anal. 1977; Sun, BIT 1991.)

    The float is rounded down (``math.nextafter``) until it is at most the
    exact rational value, so rounding cannot widen the threshold.
    """
    if not eps > 0:
        return 0.0
    exact = min(Fraction(1, 3 * n), Fraction(GS_DELTA_MAX) / 2)
    if math.isfinite(eps):
        exact = min(exact, Fraction(eps) / (2 * n))
    delta = float(exact)
    while Fraction(delta) > exact:
        delta = math.nextafter(delta, 0.0)
    return delta


def find_lambda_eps(m: MetricModel, eps: float) -> float:
    """Largest working radius lambda at which geodesic coordinates are
    eps-approximately Euclidean: LAMBDA_CAP for the flat model, half the
    convexity radius for the flat torus, and for the round sphere of radius
    R, with rho = chart_radius/R and n = 2,

        lambda = R min(2 eps/M(rho), sqrt(3 eps/4), sqrt(12 eps/pi), pi/8),
        M(r) = (r - sin r cos r)/sin^2 r.

    Claim: for every frame whose disk D(base, lambda) lies in a chart, the
    four conditions that ``paper.check_approx_euclidean`` samples hold: the
    metric-tensor deviation is at most eps/n^2, and the geodesic, chord and
    volume deviations are at most eps.

    Proof, for R = 1 (each deviation is scale-free).  lambda <= pi/8 is the
    audit's domain, half the convexity radius, so D(base, lambda) is convex.
    Metric: in the Gauss normal form g = I + ((sin r/r)^2 - 1)(I - u u^T),
    and 1 - (sin r/r)^2 <= r^2/3 <= eps/4.  Volume: the deviation is
    pi (1 - 2(1 - cos s)/s^2) <= pi s^2/12 <= eps.  Geodesic: a unit-speed
    geodesic in a chart's normal coordinates, r(cos theta, sin theta),
    solves r'' = sin r cos r theta'^2 and theta'' = -2 cot r r' theta' (do
    Carmo, *Riemannian Geometry*, ch. 3 and 5).  With r' = cos phi and
    sin r theta' = sin phi its coordinate acceleration has radial part
    -sin^2 phi M(r) and tangential part sin phi cos phi B(r),
    B = 2(1 - r cot r)/sin r, so its squared norm M^2 t^2 + B^2 t(1 - t),
    t = sin^2 phi, is at most M^2 when B^2 <= 2 M^2.  That holds on
    [0, rho]: B/M = 2 int_0^r s sin s ds / int_0^r 2 sin^2 s ds is a mean of
    s/sin s, below 1.35 < sqrt 2 when split at s = 1.2.  As
    M' = 2(sin r - r cos r)/sin^3 r >= 0, the acceleration is at most M(rho)
    inside the chart.  The chart's exp_c is 1-Lipschitz from its coordinates,
    since sin r <= r makes its pulled-back metric at most the Euclidean one.
    A geodesic of length s <= lambda from the base stays in D(base, lambda),
    so by Taylor's remainder it ends within s^2 M(rho)/2 of the chart's line
    along its initial velocity: the geodesic deviation is at most
    lambda M(rho)/2 <= eps.  Chord: a geodesic of length L <= 2 lambda
    inside the convex disk lies within t(1 - t) L^2 M(rho)/2 <= L^2 M(rho)/8
    of the chart's chord, so the chord deviation is at most lambda M(rho)/4.

    The float min comes from a dozen correctly rounded operations and libm's
    sin and cos (within an ulp): its relative error is below 32 u, u = 2^-53.
    The factor 1 - 2^-44 covers it, so the result is at most the exact bound
    and within 1e-13 of it, relative.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m.kind == "flat":
        return LAMBDA_CAP
    if m.kind == "torus":
        return m.convexity_radius() / 2

    rho = m.chart_radius / m.radius
    s, c = math.sin(rho), math.cos(rho)
    lam = min(2.0 * eps * s * s / (rho - s * c), math.sqrt(0.75 * eps),
              math.sqrt(12.0 * eps / math.pi), math.pi / 8)
    return m.radius * lam * (1.0 - 2.0**-44)

def parse_metric(selector: str) -> MetricModel:
    """Parse ``flat:<n>``, ``sphere:<R>`` or ``torus:<p1>,<p2>``."""
    try:
        kind, _, rest = selector.partition(":")
        if kind == "flat":
            return MetricModel.flat(int(rest))
        if kind == "sphere":
            return MetricModel.sphere(float(rest))
        if kind == "torus":
            p1, p2 = (float(x) for x in rest.split(","))
            return MetricModel.flat_torus((p1, p2))
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"bad metric selector {selector!r}: {exc}") from exc
    raise ValidationError(f"unknown metric kind in selector {selector!r}")
