"""Statements of the paper that no command runs, each named in its
docstring, with the helpers they use (``edge_matrix``, the column and
inverse-norm bounds, ``region_grid``, the model leaves' distance, exp, log,
frames and chart maps, and the sampled audit ``check_approx_euclidean`` of
``metrics.find_lambda_eps``).  They take the pipeline's objects (a
``MetricModel``, a ``ParamFamily``, a ``Net``) as arguments.  This module
imports the pipeline modules; none imports it."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import circumsphere as cs
from . import constants as consts
from . import linalg
from . import metrics as mt
from . import tessellation as tess
from .errors import (DegenerateError, IllConditionedError, OutOfChartError,
                     UnsupportedDimError)


def edge_matrix(pts: np.ndarray) -> np.ndarray:
    """Rows u_k = y_{k-1} - y_n, base vertex = last point in the given order."""
    p = np.asarray(pts, dtype=float)
    return p[:-1] - p[-1]


def stability_radius(delta: float, e2: float, n: int) -> float:
    """The per-vertex displacement the paper's perturbation lemma for
    circumcenters licenses to configurations with pairwise distances <= 2 e2
    and |det U| >= delta: delta / (2^{n+1} n^{3/2} e2^{n-1})."""
    return delta / (2.0 ** (n + 1) * n**1.5 * e2 ** (n - 1))


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
    c2 = inverse_norm_bound(u, column_norm_bound(u.T))
    bound = 2.0 * np.sqrt(n) * r * c1 * c2
    return cs.circumcenter(p), float(bound)


def column_norm_bound(m) -> float:
    """Largest Euclidean column norm of a matrix."""
    a = np.asarray(m, dtype=float)
    return float(np.max(np.linalg.norm(a, axis=0)))


def inverse_norm_bound(m, column_bound: float) -> float:
    """Hadamard-style certified bound n * C**(n-1) / |det M| >= ||M^-1||.

    Every entry of M^-1 is a cofactor over the determinant, and each
    cofactor is bounded by the product of the remaining column norms.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    det = linalg.determinant(a)
    if det == 0.0:
        raise DegenerateError("singular matrix has no inverse-norm bound")
    return n * float(column_bound) ** (n - 1) / abs(det)


def gram_schmidt_correct(near_frame, inner_product=None):
    """Orthonormalize an almost-orthonormal family; returns (frame, deviation).

    Inputs must have norms in (1 - GS_DELTA_MAX, 1 + GS_DELTA_MAX) and
    pairwise inner products below GS_DELTA_MAX in magnitude, else
    IllConditionedError.  The returned deviation is the achieved
    max_j ||f_j - f'_j||.
    """
    f = np.asarray(near_frame, dtype=float)
    if inner_product is None:
        def inner_product(a, b):
            return float(np.dot(a, b))
    k = f.shape[0]
    for i in range(k):
        ni = math.sqrt(inner_product(f[i], f[i]))
        if not (1.0 - mt.GS_DELTA_MAX < ni < 1.0 + mt.GS_DELTA_MAX):
            raise IllConditionedError(f"vector {i} norm {ni:.4f} outside tolerance")
        for j in range(i + 1, k):
            if abs(inner_product(f[i], f[j])) >= mt.GS_DELTA_MAX:
                raise IllConditionedError(f"cross term ({i},{j}) too large")
    out = f.copy()
    for i in range(k):
        for j in range(i):
            out[i] = out[i] - inner_product(out[i], out[j]) * out[j]
        out[i] = out[i] / math.sqrt(inner_product(out[i], out[i]))
    deviation = float(np.max(np.linalg.norm(out - f, axis=1)))
    return out, deviation


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def injectivity_radius(m: mt.MetricModel) -> float:
    if m.kind == "flat":
        return math.inf
    if m.kind == "sphere":
        return math.pi * m.radius
    return 0.5 * float(np.min(m.periods))


def _torus_delta(m: mt.MetricModel, x, y):
    d = np.mod(np.asarray(y, dtype=float) - np.asarray(x, dtype=float), m.periods)
    return np.where(d > 0.5 * m.periods, d - m.periods, d)


def distance(m: mt.MetricModel, x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if m.kind == "flat":
        return float(np.linalg.norm(y - x))
    if m.kind == "sphere":
        cross = np.linalg.norm(np.cross(x, y))
        dot = float(np.dot(x, y))
        return m.radius * math.atan2(cross / m.radius**2, dot / m.radius**2)
    return float(np.linalg.norm(_torus_delta(m, x, y)))


def exp(m: mt.MetricModel, x, v) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if m.kind == "flat":
        return x + v
    if m.kind == "torus":
        return np.mod(x + v, m.periods)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return x.copy()
    if nv >= injectivity_radius(m):
        raise OutOfChartError("exp beyond the injectivity radius")
    theta = nv / m.radius
    return x * math.cos(theta) + (v / nv) * m.radius * math.sin(theta)


def log(m: mt.MetricModel, x, y) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if m.kind == "flat":
        return y - x
    if m.kind == "torus":
        return _torus_delta(m, x, y)
    d = distance(m, x, y)
    if d == 0.0:
        return np.zeros(3)
    if d >= injectivity_radius(m) - 1e-12 * m.radius:
        raise OutOfChartError("log at (near-)antipodal point")
    xhat = x / m.radius
    w = y - float(np.dot(y, xhat)) * xhat
    nw = float(np.linalg.norm(w))
    return (d / nw) * w


def geodesic(m: mt.MetricModel, x, y, t: float) -> np.ndarray:
    """Point at parameter t on the unique shortest geodesic x -> y."""
    return exp(m, x, t * log(m, x, y))


def chart_center(m: mt.MetricModel, i: int):
    """Center of the sphere's chart i, one of the six octahedral points."""
    v = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)][i]
    return m.radius * np.array(v, dtype=float)


def charts_containing(m: mt.MetricModel, x, lam: float):
    """All chart indices whose domain contains the disk D(x, lam)."""
    if m.kind != "sphere":
        return [0]
    return [i for i in range(6)
            if distance(m, x, chart_center(m, i)) + lam <= m.chart_radius]


@dataclass(frozen=True)
class Frame:
    """A base point with an orthonormal tangent frame (rows of ``axes``)."""

    base: np.ndarray
    axes: np.ndarray  # (n, ambient dimension)


def standard_frame(m: mt.MetricModel, base) -> Frame:
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


def exp_frame(m: mt.MetricModel, frame: Frame, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return exp(m, frame.base, a @ frame.axes)


def log_frame(m: mt.MetricModel, frame: Frame, y) -> np.ndarray:
    return frame.axes @ log(m, frame.base, y)


def _chart_frame(m: mt.MetricModel, i: int) -> Frame:
    return standard_frame(m, chart_center(m, i))


def chart_coords(m: mt.MetricModel, i: int, p) -> np.ndarray:
    """Normal coordinates of p in chart i."""
    return log_frame(m, _chart_frame(m, i), p)


def chart_point(m: mt.MetricModel, i: int, a) -> np.ndarray:
    """Inverse of chart_coords."""
    return exp_frame(m, _chart_frame(m, i), a)


def parallel_transport(m: mt.MetricModel, x, y, v) -> np.ndarray:
    """The paper's parallel transport of a tangent vector v at x along the
    shortest geodesic x -> y, in closed form: the identity in the flat
    models; on the sphere, the component along the geodesic turns with it
    and the normal component is kept."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if m.kind in ("flat", "torus"):
        return v.copy()
    lx = log(m, x, y)
    d = float(np.linalg.norm(lx))
    if d == 0.0:
        return v.copy()
    u1 = lx / d
    ly = log(m, y, x)
    u2 = -ly / float(np.linalg.norm(ly))
    along = float(np.dot(v, u1))
    return v - along * u1 + along * u2


def align_frame(m: mt.MetricModel, frame_at_x: Frame, y) -> Frame:
    """The paper's alignment of frames: the frame at y aligned with
    frame_at_x, by parallel transport of its axes along the geodesic
    followed by Gram-Schmidt correction."""
    y = np.asarray(y, dtype=float)
    if m.kind in ("flat", "torus"):
        return Frame(base=y, axes=frame_at_x.axes.copy())
    if distance(m, frame_at_x.base, y) >= injectivity_radius(m):
        raise OutOfChartError("cannot align across an antipodal pair")
    moved = np.vstack([
        parallel_transport(m, frame_at_x.base, y, ax) for ax in frame_at_x.axes
    ])
    axes, _ = gram_schmidt_correct(moved)
    return Frame(base=y, axes=axes)


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
        p_plus = exp(m, frame.base, h * ax)
        p_minus = exp(m, frame.base, -h * ax)
        cols.append((chart_coords(m, i, p_plus) - chart_coords(m, i, p_minus)) / (2 * h))
    return np.column_stack(cols)


def check_approx_euclidean(m: mt.MetricModel, frame: Frame, lam: float, eps: float,
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

    charts = charts_containing(m, frame.base, lam)
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
            dev2 = max(dev2, distance(m, p, q) / na)
        for a0, a1 in zip(pair_a, pair_b):
            y0 = exp_frame(m, frame, a0)
            y1 = exp_frame(m, frame, a1)
            d01 = distance(m, y0, y1)
            if d01 < 1e-9 * lam:
                continue
            c0 = chart_coords(m, i, y0)
            c1 = chart_coords(m, i, y1)
            for t in ts:
                sigma = geodesic(m, y0, y1, float(t))
                tau = chart_point(m, i, (1 - t) * c0 + t * c1)
                dev3 = max(dev3, distance(m, sigma, tau) / d01)

    dev4 = 0.0
    for s in np.linspace(lam / 4, lam, 8):
        vol_g = 2.0 * math.pi * m.radius**2 * (1.0 - math.cos(s / m.radius))
        vol_e = unit_ball_volume(n) * s**n
        dev4 = max(dev4, abs(vol_e - vol_g) / s**n)

    passed = (
        dev1 <= eps / n**2 and dev2 <= eps and dev3 <= eps and dev4 <= eps
    )
    return DistortionReport(dev1, dev2, dev3, dev4, passed)


def _lambda_probe_frames(m: mt.MetricModel, lam: float):
    """Base points and frames spanning the chart offsets used by the search."""
    out = []
    center = chart_center(m, 0)
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


def check_eps_isometry(map_fn, domain_samples, eps: float, metric: mt.MetricModel | None = None) -> bool:
    """The paper's eps-isometry condition on a map phi, sampled: True iff
    |d(phi x, phi x') - d(x, x')| <= eps over all sampled pairs."""
    pts = list(domain_samples)
    imgs = [map_fn(p) for p in pts]
    if metric is None:
        def dist(a, b):
            return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))
    else:
        dist = functools.partial(distance, metric)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(dist(imgs[i], imgs[j]) - dist(pts[i], pts[j])) > eps:
                return False
    return True


def param_distance(p: str, q: str) -> float:
    """The paper's ultrametric on the Cantor transversal, on its finite
    stand-in of binary strings: 2^-k, k the length of the common prefix of
    p and q; 0 when p = q."""
    if p == q:
        return 0.0
    k = 0
    while k < min(len(p), len(q)) and p[k] == q[k]:
        k += 1
    return 2.0 ** (-k)


def transport(family, param: str, y) -> np.ndarray:
    """The paper's transport of a leaf point y to the leaf of parameter
    ``param``: y plus the family's displacement field of ``param`` at y
    (``ParamFamily.displacement_batch``)."""
    y = np.asarray(y, dtype=float)
    return y + family.displacement_batch(param, y[None])[0]


def estimate_var_div(family, r: float, samples, metric: mt.MetricModel | None = None):
    """Sampled suprema of leafwise metric distortion (var) and transversal
    spread (div) over parameter balls of ultrametric radius r
    (``param_distance``), the points moved by ``transport``.

    ``family`` needs .params and .displacement_batch(param, points).
    Both outputs are 0 at r = 0 and monotone nondecreasing in r.
    """
    if metric is None:
        def dist(a, b):
            return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))
    else:
        dist = functools.partial(distance, metric)
    pts = [np.asarray(p, dtype=float) for p in samples]
    params = list(family.params)
    images = {p: [transport(family, p, y) for y in pts] for p in params}
    var = 0.0
    div = 0.0
    for i, p in enumerate(params):
        for q in params[i + 1:]:
            if param_distance(p, q) > r:
                continue
            ip, iq = images[p], images[q]
            for a in range(len(pts)):
                div = max(div, dist(ip[a], iq[a]))
                for b in range(a + 1, len(pts)):
                    var = max(var, abs(dist(ip[a], ip[b]) - dist(iq[a], iq[b])))
    return var, div


def compute_r_star(family, eps0: float, rF: float, samples=None,
                   metric: mt.MetricModel | None = None,
                   cap: float = consts.R_STAR_CAP) -> float:
    """The paper's r*, sampled: the largest parameter-ball radius at which
    the sampled var and div stay <= eps0*rF; the cap when even the full
    family passes.  No command runs it: bundles report R_STAR_CAP."""
    if samples is None:
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.0, rF, size=(24, getattr(family, "dim", 2)))
    tol = eps0 * rF
    depth = getattr(family, "depth", 8)
    radii = [cap] + [2.0 ** (-j) for j in range(0, depth + 1)]
    for r in radii:
        var, div = estimate_var_div(family, r, samples, metric)
        if var <= tol and div <= tol:
            return float(r)
    return 0.0


def region_grid(region, h: float) -> np.ndarray:
    """Regular sample grid of a ``netsynth.Region`` at spacing h, anchored
    at its bounding box's corner; a disk keeps the nodes inside it."""
    lo, hi = region.bounding_box()
    axes = [np.arange(l, u + h / 2, h) for l, u in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.ravel() for a in mesh], axis=-1)
    if region.kind == "disk":
        pts = pts[region.boundary_distance_many(pts) >= 0.0]
    return pts


def check_density(net: tess.Net, resolution: float) -> float:
    """The d2-density of the paper's (d1, d2)-net, sampled: the largest
    distance from a ``region_grid`` sample of the net's region, at
    ``resolution``, to the net; 0 without a region or samples."""
    if net.region is None:
        return 0.0
    grid = region_grid(net.region, resolution)
    if grid.size == 0:
        return 0.0
    d, _ = net.tree.query(grid)
    return float(np.max(d))


@dataclass(frozen=True)
class VoronoiCell:
    site: int
    neighbor_sites: tuple
    halfspaces: tuple | None  # ((a, b), ...) meaning a.x <= b; None if curved
    boundary: bool


def voronoi_cell(net: tess.Net, i: int, metric) -> VoronoiCell:
    """The paper's Voronoi cell of net point i: the points no farther from
    it than from any other net point.  Neighbor list from the 4*d2 locality
    bound, plus a halfspace list in the flat metric (None otherwise)."""
    p = net.points
    site = p[i]
    flat = metric is None or metric.kind == "flat"
    if flat:
        d = np.linalg.norm(p - site, axis=1)
    else:
        d = np.array([distance(metric, site, q) for q in p])
    nbrs = tuple(j for j in np.nonzero(d <= 4.0 * net.d2)[0] if j != i)
    halfspaces = None
    if flat:
        hs = []
        for j in nbrs:
            a = p[j] - site
            b = 0.5 * (float(np.dot(p[j], p[j])) - float(np.dot(site, site)))
            hs.append((a, b))
        halfspaces = tuple(hs)
    boundary = not bool(net.interior_mask()[i])
    return VoronoiCell(site=i, neighbor_sites=nbrs, halfspaces=halfspaces,
                       boundary=boundary)


def _cell_vertices_flat(net: tess.Net, i: int, rtol: float = tess.MEMBERSHIP_RTOL):
    """Voronoi vertices of cell i of a planar net: circumcenters of the site
    with pairs of neighbors, kept when no site is nearer."""
    p = net.points
    site = p[i]
    d = np.linalg.norm(p - site, axis=1)
    nbrs = [j for j in np.nonzero(d <= 4.0 * net.d2)[0] if j != i]
    verts = []
    for j, k in itertools.combinations(nbrs, 2):
        try:
            v = cs.circumcenter(np.vstack([site, p[j], p[k]])).center
        except DegenerateError:
            continue
        dv = np.linalg.norm(p - v, axis=1)
        if np.linalg.norm(v - site) <= np.min(dv) + rtol * max(1.0, np.min(dv)):
            verts.append(v)
    return verts


def star_neighborhood(net: tess.Net, i: int) -> set:
    """The paper's star of a Voronoi cell, for a planar net: the sites whose
    cells share a Voronoi vertex with cell i, including i itself; every
    member lies within 3*d2 of the site."""
    if net.dim != 2:
        raise UnsupportedDimError("star_neighborhood requires dim = 2")
    p = net.points
    out = {int(i)}
    for v in _cell_vertices_flat(net, i):
        dv = np.linalg.norm(p - v, axis=1)
        dmin = float(np.min(dv))
        out.update(int(j) for j in
                   np.nonzero(dv <= dmin + tess.MEMBERSHIP_RTOL * max(1.0, dmin))[0])
    return out


def check_filling(net: tess.Net, complex_: tess.DelaunayComplex, i: int,
                  samples: int = 200, rng=None) -> bool:
    """The paper's filling property of a Delaunay triangulation, sampled: the
    Voronoi cell of site i is covered by the realized simplices of its
    simplicial cone (the top simplices containing i).

    Up to 100*samples uniform draws from the box of half-side d2 around the
    site are made; the first ``samples`` of them whose nearest site is i
    must each be ``locate``d in i's cone.  False when the cone is empty."""
    rng = np.random.default_rng(0) if rng is None else rng
    verts = complex_.top_arrays(net.dim)[0]
    if not np.any(verts == i):
        return False
    pts = net.points
    q = pts[i] + rng.uniform(-net.d2, net.d2, size=(100 * samples, net.dim))
    _, nearest = net.tree.query(q)
    q = q[nearest == i][:samples]
    simplex, _ = tess.locate(pts, verts, q, np.full((len(q), 1), i))
    return bool(np.all(simplex >= 0))


def realize_simplex(metric, bary, vertex_points) -> np.ndarray:
    """The paper's geometric realization of a Delaunay simplex, as the
    iterated geodesic cone, evaluated at barycentric coordinates.

    vertex_points are the simplex's vertex positions in creation order.
    In the flat metric this is the affine combination; in
    curved metrics the cone is built by successive geodesics, so the
    restriction to a boundary face is the face's own realization.
    """
    b = np.asarray(bary, dtype=float)
    v = [np.asarray(p, dtype=float) for p in vertex_points]
    if len(b) != len(v):
        raise ValueError("barycentric length must match the vertex count")
    if np.any(b < -1e-12) or abs(float(np.sum(b)) - 1.0) > 1e-9:
        raise ValueError("barycentric coordinates must be a convex combination")

    def cone(weights, verts):
        if len(verts) == 1:
            return verts[0]
        wk = float(weights[-1])
        if wk >= 1.0 - 1e-15:
            return verts[-1]
        prefix = weights[:-1] / (1.0 - wk)
        base = cone(prefix, verts[:-1])
        if metric is None or metric.kind == "flat":
            return (1.0 - wk) * base + wk * verts[-1]
        return exp(metric, base, wk * log(metric, base, verts[-1]))
    return cone(b, v)
