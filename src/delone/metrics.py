"""Model leaf geometries, geodesic coordinates, and distortion certification.

Three closed-form metric models are provided: flat Euclidean space, the round
sphere of radius R (points are ambient 3-vectors), and a flat 2-torus given by
its periods.  No ODE integration: exp, log, distance and geodesic
interpolation are all closed-form (as is parallel transport, in
``delone.paper``), which keeps the certified tolerances honest.

The sphere carries a fixed atlas of six normal-coordinate charts centered at
the octahedral points.  The approximate-Euclidean conditions are measured
against every chart containing the working disk; the metric-tensor condition
is measured in the Gauss normal form of the frame itself (the geodesic
coordinates at the base point), which is the form in which it is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutOfChartError, ValidationError

#: Frames this far from orthonormal (norm defect or cross term) are rejected.
GS_DELTA_MAX = 0.2

#: Fallback "infinite" lambda for exactly-Euclidean models.
LAMBDA_CAP = 1.0e6

#: Safety factor applied to the pass thresholds inside the lambda search so
#: the fresh-sample audit at the returned lambda passes with headroom while
#: doubling lambda breaks the linearly-growing geodesic conditions.
SEARCH_SAFETY = 0.7


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


class MetricModel:
    """Distance / exp / log oracle for one of the model leaf geometries."""

    def __init__(self, kind: str, *, n: int = 2, radius: float = 1.0, periods=None):
        self.kind = kind
        if kind == "flat":
            self.n = n
            self.ambient = n
        elif kind == "sphere":
            self.n = 2
            self.ambient = 3
            if radius <= 0:
                raise ValidationError("sphere radius must be positive")
            self.radius = float(radius)
            self._chart_centers = [
                self.radius * np.array(v, dtype=float)
                for v in [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
            ]
            self.chart_radius = 1.45 * self.radius
        elif kind == "torus":
            if periods is None or len(periods) != 2:
                raise ValidationError("torus needs two periods")
            self.periods = np.asarray(periods, dtype=float)
            if np.any(self.periods <= 0):
                raise ValidationError("torus periods must be positive")
            self.n = 2
            self.ambient = 2
        else:
            raise ValidationError(f"unknown metric kind {kind!r}")

    # -- factories -----------------------------------------------------

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

    # -- basic radii ---------------------------------------------------

    def injectivity_radius(self) -> float:
        if self.kind == "flat":
            return math.inf
        if self.kind == "sphere":
            return math.pi * self.radius
        return 0.5 * float(np.min(self.periods))

    def convexity_radius(self) -> float:
        """Radius below which closed disks are strongly convex."""
        if self.kind == "flat":
            return math.inf
        if self.kind == "sphere":
            return 0.25 * math.pi * self.radius
        return 0.25 * float(np.min(self.periods))

    # -- core operations ----------------------------------------------

    def _wrap(self, x: np.ndarray) -> np.ndarray:
        return np.mod(x, self.periods)

    def _torus_delta(self, x, y):
        d = np.mod(np.asarray(y, dtype=float) - np.asarray(x, dtype=float), self.periods)
        return np.where(d > 0.5 * self.periods, d - self.periods, d)

    def distance(self, x, y) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "flat":
            return float(np.linalg.norm(y - x))
        if self.kind == "sphere":
            cross = np.linalg.norm(np.cross(x, y))
            dot = float(np.dot(x, y))
            return self.radius * math.atan2(cross / self.radius**2, dot / self.radius**2)
        return float(np.linalg.norm(self._torus_delta(x, y)))

    def exp(self, x, v) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind == "flat":
            return x + v
        if self.kind == "torus":
            return self._wrap(x + v)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return x.copy()
        if nv >= self.injectivity_radius():
            raise OutOfChartError("exp beyond the injectivity radius")
        theta = nv / self.radius
        return x * math.cos(theta) + (v / nv) * self.radius * math.sin(theta)

    def log(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "flat":
            return y - x
        if self.kind == "torus":
            return self._torus_delta(x, y)
        d = self.distance(x, y)
        if d == 0.0:
            return np.zeros(3)
        if d >= self.injectivity_radius() - 1e-12 * self.radius:
            raise OutOfChartError("log at (near-)antipodal point")
        xhat = x / self.radius
        w = y - float(np.dot(y, xhat)) * xhat
        nw = float(np.linalg.norm(w))
        return (d / nw) * w

    def geodesic(self, x, y, t: float) -> np.ndarray:
        """Point at parameter t on the unique shortest geodesic x -> y."""
        return self.exp(x, t * self.log(x, y))

    # -- sphere chart atlas -------------------------------------------

    def chart_center(self, i: int):
        return self._chart_centers[i]

    def charts_containing(self, x, lam: float):
        """All chart indices whose domain contains the disk D(x, lam)."""
        if self.kind != "sphere":
            return [0]
        return [
            i
            for i, c in enumerate(self._chart_centers)
            if self.distance(x, c) + lam <= self.chart_radius
        ]


@dataclass(frozen=True)
class Frame:
    """A base point with an orthonormal tangent frame (rows of ``axes``)."""

    base: np.ndarray
    axes: np.ndarray  # (n, ambient)


def standard_frame(m: MetricModel, base) -> Frame:
    """Deterministic orthonormal frame at a point."""
    base = np.asarray(base, dtype=float)
    if m.kind in ("flat", "torus"):
        return Frame(base=base, axes=np.eye(m.n))
    xhat = base / m.radius
    k = int(np.argmin(np.abs(xhat)))
    e = np.zeros(3)
    e[k] = 1.0
    a1 = e - float(np.dot(e, xhat)) * xhat
    a1 /= np.linalg.norm(a1)
    a2 = np.cross(xhat, a1)
    return Frame(base=base, axes=np.vstack([a1, a2]))


def exp_frame(m: MetricModel, frame: Frame, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return m.exp(frame.base, a @ frame.axes)


def log_frame(m: MetricModel, frame: Frame, y) -> np.ndarray:
    return frame.axes @ m.log(frame.base, y)


def _chart_frame(m: MetricModel, i: int) -> Frame:
    return standard_frame(m, m.chart_center(i))


def chart_coords(m: MetricModel, i: int, p) -> np.ndarray:
    """Normal coordinates of p in chart i."""
    return log_frame(m, _chart_frame(m, i), p)


def chart_point(m: MetricModel, i: int, a) -> np.ndarray:
    """Inverse of chart_coords."""
    return exp_frame(m, _chart_frame(m, i), a)


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


@dataclass(frozen=True)
class DistortionReport:
    """Measured deviations for the four approximate-Euclidean conditions.

    metric_deviation    -- max |g_jk(a) - delta_jk|       (threshold eps/n^2)
    geodesic_deviation  -- max d(exp(a), affine(a))/|a|   (threshold eps)
    chord_deviation     -- max d(sigma(t), tau(t))/d(y0,y1)  (threshold eps)
    volume_deviation    -- max |Vol D(s) - Vol_g D_g(s)|/s^n (threshold eps)
    """

    metric_deviation: float
    geodesic_deviation: float
    chord_deviation: float
    volume_deviation: float
    passed: bool


def _sample_disk(rng, n: int, lam: float, count: int) -> np.ndarray:
    """Deterministic samples in D(lam) biased to include the boundary."""
    dirs = rng.normal(size=(count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = lam * np.maximum(rng.uniform(size=count) ** (1.0 / n), 1e-3)
    radii[: max(4, count // 4)] = lam  # boundary samples stress the bounds
    return dirs * radii[:, None]


def _metric_tensor_deviation(m, frame, samples):
    """Max entrywise deviation of the Gauss-normal-form metric from identity."""
    h = 1e-5 * max(1.0, float(np.max(np.linalg.norm(samples, axis=1))))
    worst = 0.0
    n = m.n
    for a in samples:
        cols = []
        for j in range(n):
            da = np.zeros(n)
            da[j] = h
            cols.append((exp_frame(m, frame, a + da) - exp_frame(m, frame, a - da)) / (2 * h))
        jac = np.column_stack(cols)
        g = jac.T @ jac
        worst = max(worst, float(np.max(np.abs(g - np.eye(n)))))
    return worst


def _chart_differential(m, i, frame):
    """Columns: pushforward of the frame axes into chart-i coordinates."""
    h = 1e-6 * (m.radius if m.kind == "sphere" else 1.0)
    cols = []
    for ax in frame.axes:
        p_plus = m.exp(frame.base, h * ax)
        p_minus = m.exp(frame.base, -h * ax)
        cols.append((chart_coords(m, i, p_plus) - chart_coords(m, i, p_minus)) / (2 * h))
    return np.column_stack(cols)


def check_approx_euclidean(m: MetricModel, frame: Frame, lam: float, eps: float,
                           sample_count: int = 128, rng=None) -> DistortionReport:
    """Measure the four approximate-Euclidean conditions for geodesic
    coordinates at frame.base, working radius lam, target accuracy eps.

    The geodesic and chord conditions are measured in every ambient chart
    whose domain contains D(base, lam); the metric-tensor condition in the
    Gauss normal form of the frame itself.
    """
    if lam > m.convexity_radius() / 2 and m.kind != "flat":
        raise OutOfChartError("lambda exceeds half the convexity radius")
    n = m.n
    if m.kind in ("flat", "torus"):
        # exp is affine and charts are translations: all deviations vanish.
        return DistortionReport(0.0, 0.0, 0.0, 0.0, True)

    rng = np.random.default_rng(12345) if rng is None else rng
    quarter = max(8, sample_count // 4)

    dev1 = _metric_tensor_deviation(m, frame, _sample_disk(rng, n, lam, quarter))

    charts = m.charts_containing(frame.base, lam)
    if not charts:
        raise OutOfChartError("no chart contains the working disk")

    dev2 = 0.0
    dev3 = 0.0
    pair_a = _sample_disk(rng, n, lam, quarter)
    pair_b = _sample_disk(rng, n, lam, quarter)
    ts = np.array([0.25, 0.5, 0.75])
    for i in charts:
        f_push = _chart_differential(m, i, frame)
        x_t = chart_coords(m, i, frame.base)
        for a in _sample_disk(rng, n, lam, quarter):
            na = float(np.linalg.norm(a))
            if na == 0.0:
                continue
            p = exp_frame(m, frame, a)
            q = chart_point(m, i, x_t + f_push @ a)
            dev2 = max(dev2, m.distance(p, q) / na)
        for a0, a1 in zip(pair_a, pair_b):
            y0 = exp_frame(m, frame, a0)
            y1 = exp_frame(m, frame, a1)
            d01 = m.distance(y0, y1)
            if d01 < 1e-9 * lam:
                continue
            c0 = chart_coords(m, i, y0)
            c1 = chart_coords(m, i, y1)
            for t in ts:
                sigma = m.geodesic(y0, y1, float(t))
                tau = chart_point(m, i, (1 - t) * c0 + t * c1)
                dev3 = max(dev3, m.distance(sigma, tau) / d01)

    dev4 = 0.0
    for s in np.linspace(lam / 4, lam, 8):
        vol_g = 2.0 * math.pi * m.radius**2 * (1.0 - math.cos(s / m.radius))
        vol_e = unit_ball_volume(n) * s**n
        dev4 = max(dev4, abs(vol_e - vol_g) / s**n)

    passed = (
        dev1 <= eps / n**2 and dev2 <= eps and dev3 <= eps and dev4 <= eps
    )
    return DistortionReport(dev1, dev2, dev3, dev4, passed)


def _lambda_probe_frames(m: MetricModel, lam: float):
    """Base points and frames spanning the chart offsets used by the search."""
    out = []
    center = m.chart_center(0)
    cf = standard_frame(m, center)
    max_off = m.chart_radius - lam
    for off in (0.0, 0.35, 0.7, 1.0, 1.15):
        off_len = min(off * m.radius, max_off * 0.999)
        for direction in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            base = exp_frame(m, cf, off_len * direction)
            fr = standard_frame(m, base)
            out.append(fr)
            # one rotated frame to vary the axes
            c, s = math.cos(0.63), math.sin(0.63)
            rot = np.vstack([c * fr.axes[0] + s * fr.axes[1],
                             -s * fr.axes[0] + c * fr.axes[1]])
            out.append(Frame(base=base, axes=rot))
            if off == 0.0:
                break
    return out


def find_lambda_eps(m: MetricModel, eps: float) -> float:
    """Largest working radius at which geodesic coordinates are
    eps-approximately Euclidean, with a safety margin on the sampled
    deviations (48 samples per probe frame) so a fresh audit at the result
    passes cleanly.

    The flat model returns LAMBDA_CAP, the flat torus half its convexity
    radius.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m.kind == "flat":
        return LAMBDA_CAP
    if m.kind == "torus":
        return m.convexity_radius() / 2

    n = m.n
    target = SEARCH_SAFETY * eps

    def ok(lam: float) -> bool:
        rng = np.random.default_rng(987654321)
        for fr in _lambda_probe_frames(m, lam):
            rep = check_approx_euclidean(m, fr, lam, eps, 48, rng)
            if not (rep.metric_deviation <= target / n**2
                    and rep.geodesic_deviation <= target
                    and rep.chord_deviation <= target
                    and rep.volume_deviation <= target):
                return False
        return True

    lo, hi = 0.0, 0.3 * m.radius
    if ok(hi):
        lo = hi
    else:
        for _ in range(28):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
    return float(lo)


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
