"""Inductive net synthesis with annulus/slab exclusion, family-stability
certification, and the product-structure builder.

The synthesizer grows a point set inside a compact region: each step picks a
candidate ball whose center sits in the annular band between the d1''- and
d2''-penumbras of the current net, excludes thin forbidden regions inside
that ball (annular neighborhoods of circumscribed circles of local simplices
and thickenings of local affine patches), and selects a point in the
remainder.  The excluded widths guarantee empty-sphere clearance and
properly-ordered robustness for every simplex of the final net.
``forbidden_mask`` is the one membership test for the forbidden regions: the
point selection and the sampled audit both call it.  ``synthesize_net``
returns the net and a ``SynthesisReport``.

Annuli are kept only around circles of radius at most R = CIRCLE_CAP_D2 * d2,
the circles that can become (translated) Delaunay simplices; the comment on
CIRCLE_CAP_D2 gives the inequality that makes R enough.  Every step is
certified by the closed-form bound ``excluded_volume_bound`` < 1/2 on the
excluded fraction of the selection ball, and falls back to the sampled audit
``excluded_volume_fraction`` when the bound does not certify it.  The front
of candidate centers is ``_BandFront``: a boolean grid of the nodes in the
band with per-row counts, whose node of least flat index is the next
candidate.

Stability of the resulting Delaunay complex is then certified for every
displacement field within the family's budget at once: margins on each top
simplex (drift, clearance, radius, robustness from
``robustness.prefix_distances``) show it survives, and an enumeration of the
near-empty spheres shows no other simplex can appear.  Only parameters whose
overrides exceed the budget are checked one by one, against a Qhull rebuild
of their translate.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import circumsphere as cs
from . import linalg, robustness
from . import tessellation as tess
from .errors import (
    CoverageGapError,
    InvalidBudgetError,
    RegionExhaustedError,
    SelectionFailedError,
    UnsupportedDimError,
    ValidationError,
)
from .metrics import _row_dots

#: Sampled forbidden-volume audit every this many synthesis steps (and at any
#: step whose closed-form bound is not below 1/2).
VOLUME_AUDIT_STRIDE = 64

#: Rejection-sampling attempts before the fallback grid scan.
MAX_REJECTIONS = 10_000

#: Annuli are kept only around circles of radius <= CIRCLE_CAP_D2 * d2 (R).
#: An annulus protects the empty-sphere clearance of a simplex that can be a
#: Delaunay simplex of the final net or of a translate, whose radius is at
#: most d2 plus the certified radius drift eps3*rF.  When the last vertex v
#: of such a simplex {a, b, v} is chosen, an earlier point y is kept off its
#: circle by the annulus of circle(a, b, y) instead; y within delta of
#: circle(a, b, v) puts radius(a, b, y) within 2 r^2 delta / d1^2 of it to
#: first order (the circumcenter moves along the bisector of ab at rate
#: r / dist(y, line ab), and dist(y, line ab) = |ya| |yb| / 2r >= d1^2 / 2r by
#: d1-separation).  With the practical bundle's eps3*rF = 5e-5 d2 and delta of
#: the clearance order (2*eps1*rF), both slacks are below 1e-4 d2, so
#: R = 1.25 d2 loses no annulus that matters; 1.25 is the value measured.
CIRCLE_CAP_D2 = 1.25


@dataclass(frozen=True)
class Region:
    """Compact box or disk in leaf coordinates."""

    kind: str  # "box" | "disk"
    bounds: tuple  # box: (lo, hi); disk: (center, radius)

    def __post_init__(self):
        if self.kind not in ("box", "disk"):
            raise ValidationError(f"unknown region kind {self.kind!r}", path="region.kind")
        a, b = self.bounds
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float) if self.kind == "box" else float(b)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValidationError("bounds must be finite", path="region.bounds")
        if self.kind == "box":
            if a.ndim != 1 or a.shape != b.shape:
                raise ValidationError("lo and hi must be vectors of one dimension",
                                      path="region.bounds")
            if np.any(a >= b):
                raise ValidationError(f"need lo < hi on every axis, got lo "
                                      f"{a.tolist()}, hi {b.tolist()}",
                                      path="region.bounds")
        elif b <= 0.0:
            raise ValidationError(f"radius must be positive, got {b}",
                                  path="region.bounds")
        object.__setattr__(self, "bounds", (a, b))

    @property
    def dim(self) -> int:
        return len(self.bounds[0])

    @staticmethod
    def box(lo, hi) -> "Region":
        return Region(kind="box", bounds=(lo, hi))

    @staticmethod
    def disk(center, radius: float) -> "Region":
        return Region(kind="disk", bounds=(center, radius))

    def boundary_distance(self, p):
        """Signed inward distance to the boundary (negative outside) of one
        point, as a float, or of each row of an (m, n) stack.  A disk's norm
        is the ``np.dot`` kernel of ``metrics._row_dots``, so every row gets
        the bits ``np.linalg.norm`` gives it alone; the elementwise squares
        of ``boundary_distance_many`` can round the last bit differently."""
        p = np.asarray(p, dtype=float)
        rows = np.atleast_2d(p)
        if self.kind == "box":
            dist = self.boundary_distance_many(rows)
        else:
            c, r = self.bounds
            v = rows - c
            dist = r - np.sqrt(_row_dots(v, v))
        return float(dist[0]) if p.ndim == 1 else dist

    def boundary_distance_many(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self.kind == "box":
            lo, hi = self.bounds
            return np.minimum(np.min(pts - lo, axis=-1), np.min(hi - pts, axis=-1))
        c, r = self.bounds
        return r - np.linalg.norm(pts - c, axis=-1)

    def clear_nodes(self, xs, ys, margin: float) -> np.ndarray:
        """(len(xs), len(ys)) mask of the 2-D grid nodes at inward distance
        >= margin: ``boundary_distance_many`` of the stacked nodes >= margin,
        with the same arithmetic, but built from the per-axis arrays."""
        if self.kind == "box":
            lo, hi = self.bounds
            return np.logical_and.outer(np.minimum(xs - lo[0], hi[0] - xs) >= margin,
                                        np.minimum(ys - lo[1], hi[1] - ys) >= margin)
        c, r = self.bounds
        dx = (xs - c[0])[:, None]
        dy = (ys - c[1])[None, :]
        return r - np.sqrt(dx * dx + dy * dy) >= margin

    def expand(self, margin: float) -> "Region":
        if self.kind == "box":
            lo, hi = self.bounds
            return Region.box(lo - margin, hi + margin)
        c, r = self.bounds
        return Region.disk(c, r + margin)

    def bounding_box(self):
        if self.kind == "box":
            return self.bounds
        c, r = self.bounds
        return c - r, c + r

    def grid(self, h: float) -> np.ndarray:
        """Regular sample grid of the region at spacing h (anchored at the
        bounding-box corner)."""
        lo, hi = self.bounding_box()
        axes = [np.arange(l, u + h / 2, h) for l, u in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([a.ravel() for a in mesh], axis=-1)
        if self.kind == "disk":
            pts = pts[self.boundary_distance_many(pts) >= 0.0]
        return pts

    def to_dict(self) -> dict:
        a, b = self.bounds
        if self.kind == "box":
            return {"kind": "box", "bounds": [list(a), list(b)]}
        return {"kind": "disk", "bounds": [list(a), b]}


# ---------------------------------------------------------------------------
# parameter families


@dataclass(frozen=True)
class ParamFamily:
    """Finite stand-in for a Cantor parameter set: depth-k binary strings
    with the 2^(-common-prefix) ultrametric, each carrying a smooth
    displacement field of sup-norm <= eps (the all-zeros string is the
    identity).  Optional per-(param, transversal-index) overrides support
    adversarial tests."""

    depth: int
    dim: int
    eps: float  # displacement sup-norm (eps0 * rF)
    scale: float  # working length scale (rF)
    seed: int = 0
    overrides: tuple = ()  # ((param, index, vector), ...)

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError(f"depth must be >= 1, got {self.depth}",
                                  path="family.depth")

    @property
    def params(self) -> tuple:
        return tuple("".join(bits) for bits in
                     itertools.product("01", repeat=self.depth))

    def param_distance(self, p: str, q: str) -> float:
        if p == q:
            return 0.0
        k = 0
        while k < self.depth and p[k] == q[k]:
            k += 1
        return 2.0 ** (-k)

    def _coeffs(self, param: str):
        m = int(param, 2) / max(1, 2**self.depth - 1)
        # deterministic per-param field rotation
        rng = np.random.default_rng(self.seed ^ (0x9E3779B9 + int(param, 2)))
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        return m, alpha

    def displacement(self, param: str, y) -> np.ndarray:
        """Smooth displacement field of param at point y (sup-norm <= eps;
        spatial Lipschitz constant ~ 0.05*eps/scale, so every transport map
        is an eps-isometry on the working region)."""
        y = np.asarray(y, dtype=float)
        m, alpha = self._coeffs(param)
        phase = alpha + 0.03 * float(np.sum(y)) / self.scale
        d = np.zeros(self.dim)
        d[0] = math.cos(phase)
        d[1 % self.dim] = math.sin(phase) if self.dim > 1 else d[1 % self.dim]
        return m * self.eps * d

    def displacement_batch(self, param: str, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        m, alpha = self._coeffs(param)
        phase = alpha + 0.03 * np.sum(pts, axis=1) / self.scale
        out = np.zeros_like(pts)
        out[:, 0] = np.cos(phase)
        if self.dim > 1:
            out[:, 1] = np.sin(phase)
        return m * self.eps * out

    def transport(self, param: str, y) -> np.ndarray:
        return np.asarray(y, dtype=float) + self.displacement(param, y)

    def indexed_displacements(self, param: str, net_points) -> np.ndarray:
        """Per-transversal-index displacement table, overrides applied."""
        disp = self.displacement_batch(param, net_points)
        for p, idx, vec in self.overrides:
            if p == param:
                disp[idx] = np.asarray(vec, dtype=float)
        return disp

    def with_override(self, param: str, index: int, vector) -> "ParamFamily":
        return ParamFamily(depth=self.depth, dim=self.dim, eps=self.eps,
                           scale=self.scale, seed=self.seed,
                           overrides=self.overrides + ((param, int(index), tuple(float(x) for x in vector)),))


def make_family(bundle, depth: int, dim: int = 2, seed: int = 0) -> ParamFamily:
    """Family of 2^depth smooth displacement fields with sup-norm eps0*rF."""
    return ParamFamily(depth=depth, dim=dim, eps=bundle.eps0 * bundle.rF,
                       scale=bundle.rF, seed=seed)


# ---------------------------------------------------------------------------
# forbidden regions


@dataclass(frozen=True)
class Annuli:
    """Annular neighborhoods (width 2*eps1*rF) of circumscribed circles of
    the local n-simplices; only those reaching the selection ball are kept
    explicitly."""

    centers: np.ndarray  # (k, n) circles that can intersect the ball
    radii: np.ndarray  # (k,)
    width: float
    count_total: int  # all nondegenerate local n-simplices


@dataclass(frozen=True)
class Slabs:
    """Thickenings (half-width 2*eps2*rF) of affine patches spanned by <= n
    local points; pair patches kept explicitly when their line reaches the
    selection ball."""

    anchors: np.ndarray  # (m, n) point on each kept line
    directions: np.ndarray  # (m, n) unit directions
    point_patches: np.ndarray  # (q, n) kept singleton patches
    width: float
    count_total: int  # all <= n-subsets of the local set


_COMBO_CACHE: dict = {}


def _combo_blocks(k: int, cap: int) -> np.ndarray:
    """Combinations of range(cap) choose k, sorted by largest element: the
    first C(s, k) rows are exactly the combinations of range(s) for s <= cap."""
    if k == 1:
        return np.arange(cap, dtype=np.int64).reshape(-1, 1)
    blocks = []
    for m in range(k - 1, cap):
        lower = _combo_indices(m, k - 1)
        blocks.append(np.column_stack(
            [lower, np.full(len(lower), m, dtype=np.int64)]))
    if not blocks:
        return np.zeros((0, k), dtype=np.int64)
    return np.concatenate(blocks, axis=0)


def _combo_indices(s: int, k: int) -> np.ndarray:
    cap, arr = _COMBO_CACHE.get(k, (0, None))
    if s > cap:
        cap = s + 32
        arr = _combo_blocks(k, cap)
        _COMBO_CACHE[k] = (cap, arr)
    return arr[:math.comb(s, k)]


_TRIPLE_CACHE: dict = {"cap": 0, "pack": None}


def _triple_pack(s: int):
    """Triple indices plus indices of their three pairs (ab, ac, bc) into the
    max-sorted pair array of _combo_indices(s, 2): pair (i, j) sits at
    C(j, 2) + i, which is independent of s, so prefix slices stay valid."""
    if s > _TRIPLE_CACHE["cap"]:
        cap = s + 32
        tri = _combo_indices(cap, 3)
        t0, t1, t2 = tri[:, 0], tri[:, 1], tri[:, 2]
        _TRIPLE_CACHE["cap"] = cap
        _TRIPLE_CACHE["pack"] = (tri,
                                 t1 * (t1 - 1) // 2 + t0,
                                 t2 * (t2 - 1) // 2 + t0,
                                 t2 * (t2 - 1) // 2 + t1)
    tri, iab, iac, ibc = _TRIPLE_CACHE["pack"]
    m = math.comb(s, 3)
    return tri[:m], iab[:m], iac[:m], ibc[:m]


def _circumcircles_2d(a, b, c):
    """Vectorized circumcircles of 2D triples; degenerate rows flagged.
    Kept apart from ``cs.circumcenter_batch``, which gives the same nets but
    costs more per call at the few dozen rows of a synthesis step."""
    ax, ay = a[:, 0], a[:, 1]
    bx, by = b[:, 0], b[:, 1]
    cx, cy = c[:, 0], c[:, 1]
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = np.maximum(
        np.maximum(np.hypot(bx - ax, by - ay), np.hypot(cx - ax, cy - ay)),
        1e-300)
    valid = np.abs(d) > 2e-12 * scale**2
    dsafe = np.where(valid, d, 1.0)
    na = ax * ax + ay * ay
    nb = bx * bx + by * by
    nc = cx * cx + cy * cy
    ux = (na * (by - cy) + nb * (cy - ay) + nc * (ay - by)) / dsafe
    uy = (na * (cx - bx) + nb * (ax - cx) + nc * (bx - ax)) / dsafe
    r = np.hypot(ux - ax, uy - ay)
    return np.stack([ux, uy], axis=1), r, valid


def forbidden_regions(net_points, xi_prime, bundle):
    """(annuli, slabs) for the selection ball B(xi_prime, rF/200).

    Slabs and point patches come from the local set Omega = net cap
    D(xi_prime, 4*d2).  Annuli come only from circles of radius at most
    R = CIRCLE_CAP_D2 * d2 (see there); such a circle reaches the ball only
    if its three points lie within 2R + rF/200 + 2*eps1*rF of xi_prime, so
    the triples are drawn from that smaller part of Omega."""
    xi = np.asarray(xi_prime, dtype=float)
    pts = np.asarray(net_points, dtype=float)
    n = len(xi)
    rF = bundle.rF
    ball_r = rF / 200.0
    w_ann = 2.0 * bundle.eps1 * rF
    w_slab = 2.0 * bundle.eps2 * rF
    cap_r = CIRCLE_CAP_D2 * bundle.d2
    tri_reach = 2.0 * cap_r + ball_r + w_ann
    if len(pts):
        omega = pts[np.linalg.norm(pts - xi, axis=1) <= 4.0 * bundle.d2]
    else:
        omega = pts.reshape(0, n)
    s = len(omega)
    if s == 0:
        return (Annuli(np.zeros((0, n)), np.zeros(0), w_ann, 0),
                Slabs(np.zeros((0, n)), np.zeros((0, n)), np.zeros((0, n)),
                      w_slab, 0))
    if n != 2:
        raise ValidationError("synthesis is implemented for dim 2")

    q = omega - xi
    sq = np.einsum("ij,ij->i", q, q)
    # the triple points first: pairs of range(s_t) are then the first
    # C(s_t, 2) rows of the max-sorted pair array of range(s)
    near_t = sq <= tri_reach * tri_reach
    s_t = int(np.count_nonzero(near_t))
    order = np.argsort(~near_t, kind="stable")
    omega, q, sq = omega[order], q[order], sq[order]

    # annuli: circumscribed circles of the triples.  The exact solve is only
    # run on triples whose circle can reach the selection ball; those are
    # prefiltered via the point-power identity
    #   det[(p_i - xi | |p_i - xi|^2)] = -2 S (d^2 - r^2),
    # which bounds the distance from xi to the circle using nothing but
    # pairwise cross products and squared edge lengths.
    count_ann = 0
    keep_c = np.zeros((0, n))
    keep_r = np.zeros(0)
    pr = _combo_indices(s, 2)
    qa, qb = q[pr[:, 0]], q[pr[:, 1]]
    dvec = qb - qa
    l2p = np.einsum("ij,ij->i", dvec, dvec)
    # cross(a - xi, b - xi) doubles as 2 * signed_area(xi, a, b), i.e. the
    # perpendicular distance from xi to line(a, b) times |b - a|
    crossp = qa[:, 0] * qb[:, 1] - qa[:, 1] * qb[:, 0]
    if s_t >= 3:
        tri, iab, iac, ibc = _triple_pack(s_t)
        # the prefilter runs in float32; the threshold carries an additive
        # slack far above float32 roundoff for these magnitudes (edges
        # <= 2 tri_reach, squared norms <= tri_reach^2), so no true candidate
        # is lost and the exact second stage makes the result identical to a
        # full float64 scan
        sq32 = sq.astype(np.float32)
        x32 = crossp.astype(np.float32)
        l32 = l2p.astype(np.float32)
        xab, xac, xbc = x32[iab], x32[iac], x32[ibc]
        l2ab, l2ac, l2bc = l32[iab], l32[iac], l32[ibc]
        det = sq32[tri[:, 0]] * xbc - sq32[tri[:, 1]] * xac \
            + sq32[tri[:, 2]] * xab
        two_s = np.abs(xbc - xac + xab)
        maxl2 = np.maximum(np.maximum(l2ab, l2ac), l2bc)
        nondeg = two_s > 1e-12 * maxl2
        count_ann = int(np.sum(nondeg))
        rho = np.float32(ball_r + w_ann)
        # |det| = 2|S|(d + r)|d - r| and 4|S| r = |ab||ac||bc|, so every
        # triple with |d - r| <= rho satisfies the kept inequality
        thr = rho * np.sqrt(l2ab * l2ac * l2bc) + rho * rho * two_s \
            + np.float32(1e-5 * tri_reach ** 4)
        cand = nondeg & (np.abs(det) <= thr)
        if np.any(cand):
            t = tri[cand]
            centers, radii, valid = _circumcircles_2d(
                omega[t[:, 0]], omega[t[:, 1]], omega[t[:, 2]])
            reach = np.abs(np.linalg.norm(centers - xi, axis=1) - radii) \
                <= ball_r + w_ann
            sel = valid & reach & (radii <= cap_r)
            keep_c, keep_r = centers[sel], radii[sel]
    annuli = Annuli(centers=keep_c, radii=keep_r, width=w_ann,
                    count_total=count_ann)

    # slabs: lines through local pairs plus singleton patches
    count_slab = s  # singleton patches
    anchors = np.zeros((0, n))
    dirs = np.zeros((0, n))
    if s >= 2:
        dlen = np.sqrt(l2p)
        ok = dlen > 0
        count_slab += int(np.sum(ok))
        sel = ok & (np.abs(crossp) <= (ball_r + w_slab) * dlen)
        anchors = omega[pr[sel, 0]]
        dirs = dvec[sel] / dlen[sel][:, None]
    near_pts = omega[sq <= (ball_r + w_slab) ** 2]
    slabs = Slabs(anchors=anchors, directions=dirs, point_patches=near_pts,
                  width=w_slab, count_total=count_slab)
    return annuli, slabs


def forbidden_mask(pts, annuli: Annuli, slabs: Slabs) -> np.ndarray:
    """Which of the (k, 2) points lie in a forbidden region: within the
    width of an annulus's circle, of a slab's line or of a point patch."""
    hit = np.zeros(len(pts), dtype=bool)
    if len(annuli.radii):
        d = np.linalg.norm(pts[:, None, :] - annuli.centers[None, :, :], axis=2)
        hit |= np.any(np.abs(d - annuli.radii) <= annuli.width, axis=1)
    if len(slabs.directions):
        rel = pts[:, None, :] - slabs.anchors[None, :, :]
        perp = np.abs(rel[:, :, 0] * slabs.directions[None, :, 1]
                      - rel[:, :, 1] * slabs.directions[None, :, 0])
        hit |= np.any(perp <= slabs.width, axis=1)
    if len(slabs.point_patches):
        d = np.linalg.norm(pts[:, None, :] - slabs.point_patches[None, :, :],
                           axis=2)
        hit |= np.any(d <= slabs.width, axis=1)
    return hit


def excluded_volume_fraction(xi_prime, ball_r, annuli: Annuli, slabs: Slabs,
                             samples: int = 512, rng=None) -> float:
    """Sampled (Monte-Carlo) fraction of the selection ball covered by the
    forbidden regions; ``excluded_volume_bound`` is the certified figure."""
    rng = np.random.default_rng(0) if rng is None else rng
    xi = np.asarray(xi_prime, dtype=float)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=samples)
    r = ball_r * np.sqrt(rng.uniform(size=samples))
    pts = xi + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return float(np.mean(forbidden_mask(pts, annuli, slabs)))


def excluded_volume_bound(ball_r: float, annuli: Annuli, slabs: Slabs) -> float:
    """Closed-form upper bound on the fraction of the selection ball
    B(xi', rho), rho = ball_r, covered by the forbidden regions:

        (sum_annuli 2w 2pi(rho + w) + sum_slabs 2w 2(rho + w)
         + sum_point_patches pi w^2) / (pi rho^2),

    each term with its region's width w.  An annulus {|d(p, c) - r| <= w} is
    swept by circles of radius in [r - w, r + w], each meeting the ball in one
    arc whose convex hull lies in the ball, so of length at most the ball's
    perimeter; a slab {dist(p, line) <= w} is swept by parallel chords of
    length at most 2 rho; a point patch is a disk of radius w."""
    rho = ball_r
    wa, ws = annuli.width, slabs.width
    area = (len(annuli.radii) * 2.0 * wa * 2.0 * math.pi * (rho + wa)
            + len(slabs.directions) * 2.0 * ws * 2.0 * (rho + ws)
            + len(slabs.point_patches) * math.pi * ws * ws)
    return area / (math.pi * rho * rho)


def select_point(xi_prime, forbidden, rng, ball_r: float):
    """Uniform rejection sample in the selection ball avoiding every
    forbidden region; after MAX_REJECTIONS draws, the first allowed node in
    row-major order of a 101 x 101 grid over the ball."""
    annuli, slabs = forbidden
    xi = np.asarray(xi_prime, dtype=float)
    for _ in range(MAX_REJECTIONS):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = ball_r * math.sqrt(rng.uniform())
        p = xi + np.array([r * math.cos(theta), r * math.sin(theta)])
        if np.linalg.norm(p - xi) <= ball_r * (1 + 1e-12) \
                and not forbidden_mask(p[None], annuli, slabs)[0]:
            return p
    h = ball_r / 50.0
    g = np.arange(-ball_r, ball_r + h / 2, h)
    grid = xi + np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    # the ball test is a per-node norm, as in the draws above: a row-wise norm
    # can round differently for a node on the ball's edge
    for p in grid[~forbidden_mask(grid, annuli, slabs)]:
        if np.linalg.norm(p - xi) <= ball_r:
            return p
    raise SelectionFailedError("selection ball exhausted despite volume audit")


# ---------------------------------------------------------------------------
# the synthesizer


class _Buckets:
    """Uniform spatial hash over the growing net for local queries."""

    def __init__(self, cell: float, dim: int = 2):
        self.cell = cell
        self.map: dict = {}
        self.count = 0
        self.arr = np.zeros((256, dim))

    def add(self, p):
        key = (int(math.floor(p[0] / self.cell)),
               int(math.floor(p[1] / self.cell)))
        self.map.setdefault(key, []).append(self.count)
        if self.count == len(self.arr):
            self.arr = np.concatenate([self.arr, np.zeros_like(self.arr)])
        self.arr[self.count] = p
        self.count += 1

    def near(self, q, radius: float) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        reach = int(math.ceil(radius / self.cell))
        bi = int(math.floor(q[0] / self.cell))
        bj = int(math.floor(q[1] / self.cell))
        idx: list = []
        for di in range(-reach, reach + 1):
            for dj in range(-reach, reach + 1):
                idx.extend(self.map.get((bi + di, bj + dj), ()))
        if not idx:
            return np.zeros((0, len(q)))
        cand = self.arr[idx]
        d = cand - q
        return cand[np.einsum("ij,ij->i", d, d) <= radius * radius]


class _BandFront:
    """Selection front of the synthesizer: the grid nodes whose stored squared
    distance to the net lies in the band [lo2, hi2] and whose selection ball
    fits the domain (``clear``), with per-row counts of them.

    Stored distances only decrease, so a node enters the band at most once
    and leaves it at most once; ``next`` is the in-band node of least flat
    index, which is the pop order of a min-heap that takes each node as it
    enters the band and drops it, when popped, if it has left."""

    def __init__(self, clear: np.ndarray, lo2: float, hi2: float):
        self.clear = clear
        self.lo2, self.hi2 = lo2, hi2
        self.dist2 = np.full(clear.shape, np.inf)
        self.inband = np.zeros(clear.shape, dtype=bool)
        self.rows = np.zeros(clear.shape[0], dtype=np.int64)

    def lower(self, i0: int, j0: int, dd: np.ndarray) -> None:
        """dist2 <- min(dist2, dd) on the window starting at node (i0, j0)."""
        i1, j1 = i0 + dd.shape[0], j0 + dd.shape[1]
        sub = self.dist2[i0:i1, j0:j1]
        np.minimum(sub, dd, out=sub)
        band = self.inband[i0:i1, j0:j1]
        self.rows[i0:i1] -= np.count_nonzero(band, axis=1)
        np.logical_and(sub >= self.lo2, sub <= self.hi2, out=band)
        band &= self.clear[i0:i1, j0:j1]
        self.rows[i0:i1] += np.count_nonzero(band, axis=1)

    def next(self):
        """(row, column) of the in-band node of least flat index, or None."""
        nz = np.flatnonzero(self.rows)
        if not len(nz):
            return None
        i = int(nz[0])
        return i, int(np.argmax(self.inband[i]))


@dataclass
class SynthesisReport:
    """Per-run synthesis figures.  ``max_excluded_bound`` is the largest
    closed-form bound (``excluded_volume_bound``) over all steps;
    ``max_excluded_fraction`` is the largest sampled Monte-Carlo fraction
    over the ``audits`` steps that ran ``excluded_volume_fraction``."""

    steps: int = 0
    max_excluded_bound: float = 0.0
    max_excluded_fraction: float = 0.0
    audits: int = 0


def synthesize_net(K: Region, bundle, seed: int = 0):
    """Grow a net until the region (plus a 2*d2 collar, so every point of K
    is covered by cells of interior sites) is d2''-complete.

    Returns (Net, SynthesisReport).  Deterministic for a fixed
    (K, bundle, seed).  Raises ValidationError, before allocating the node
    grid, when its front would not fit in physical memory.
    """
    if K.dim != 2:
        raise ValidationError("synthesis is implemented for dim 2")
    rF = bundle.rF
    ball_r = rF / 200.0
    band_lo = bundle.d1pp + ball_r
    band_hi = bundle.d2pp - ball_r
    domain = K.expand(2.0 * bundle.d2)
    lo, hi = domain.bounding_box()
    h = rF / 200.0
    nx, ny = (int(math.floor((hi[k] - lo[k]) / h)) + 1 for k in range(2))
    # the front holds a float64 distance and two bool masks per node
    front_bytes = nx * ny * (8 + 1 + 1)
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if front_bytes > memory:
        raise ValidationError(
            f"the synthesis grid has {nx * ny} nodes, whose front needs "
            f"{front_bytes} bytes, more than the {memory} bytes of physical "
            f"memory", path="region.bounds")
    xs = lo[0] + np.arange(nx) * h
    ys = lo[1] + np.arange(ny) * h
    # node clearance: the selection ball must fit inside the domain
    clear = domain.clear_nodes(xs, ys, ball_r)
    # squared nearest-net-point distances; band tests compare against the
    # squared band bounds, which is order-equivalent
    front = _BandFront(clear, band_lo * band_lo, band_hi * band_hi)
    rng = np.random.default_rng(seed)
    buckets = _Buckets(cell=4.0 * bundle.d2)
    points: list = []
    report = SynthesisReport()

    def add_point(z):
        points.append(z)
        buckets.add(z)
        i0 = max(0, int(math.ceil((z[0] - band_hi - lo[0]) / h)))
        i1 = min(nx - 1, int(math.floor((z[0] + band_hi - lo[0]) / h)))
        j0 = max(0, int(math.ceil((z[1] - band_hi - lo[1]) / h)))
        j1 = min(ny - 1, int(math.floor((z[1] + band_hi - lo[1]) / h)))
        if i0 > i1 or j0 > j1:
            return
        gx = xs[i0:i1 + 1][:, None] - z[0]
        gy = ys[j0:j1 + 1][None, :] - z[1]
        front.lower(i0, j0, gx * gx + gy * gy)

    def step(xi):
        forb = forbidden_regions(
            buckets.near(xi, 4.0 * bundle.d2), xi, bundle)
        report.steps += 1
        # a bound below 1/2 certifies the step; the sampled audit runs on the
        # stride as a diagnostic, and on any step the bound does not certify
        bound = excluded_volume_bound(ball_r, *forb)
        report.max_excluded_bound = max(report.max_excluded_bound, bound)
        if bound >= 0.5 or report.steps % VOLUME_AUDIT_STRIDE == 1:
            frac = excluded_volume_fraction(xi, ball_r, *forb, samples=256,
                                            rng=np.random.default_rng(seed ^ report.steps))
            report.audits += 1
            report.max_excluded_fraction = max(report.max_excluded_fraction, frac)
            if frac >= 0.5:
                raise SelectionFailedError(
                    f"sampled excluded volume fraction {frac:.3f} >= 1/2 "
                    f"(bound {bound:.3f})")
        z = select_point(xi, forb, rng, ball_r)
        add_point(z)

    # seed point: grid node nearest the domain center (deterministic)
    center = 0.5 * (lo + hi)
    ci = int(np.clip(round((center[0] - lo[0]) / h), 0, nx - 1))
    cj = int(np.clip(round((center[1] - lo[1]) / h), 0, ny - 1))
    if not clear[ci, cj]:
        raise RegionExhaustedError("domain has no interior at this scale")
    step(np.array([xs[ci], ys[cj]]))

    # A node's stored distance is exact whenever it is <= band_hi: every net
    # point within band_hi of the node has run an update window covering it.
    # Stepping at a node puts a point within ball_r < band_lo of it, so the
    # node leaves the band and the loop ends when no node is left in it.
    while (node := front.next()) is not None:
        step(np.array([xs[node[0]], ys[node[1]]]))

    pts = np.array(points)
    net = tess.Net(dim=2, points=pts, d1=bundle.d1, d2=bundle.d2, region=domain)
    return net, report


def translate_net(net: tess.Net, param: str, family: ParamFamily) -> tess.Net:
    """Apply the parameter's displacement field per transversal index."""
    disp = family.indexed_displacements(param, net.points)
    return tess.Net(dim=net.dim, points=net.points + disp,
                    d1=net.d1, d2=net.d2, region=net.region)


# ---------------------------------------------------------------------------
# stability certification


@dataclass(frozen=True)
class StabilityCertificate:
    ok: bool
    worst: dict
    per_simplex: tuple
    params_checked: tuple
    budget: dict

    def to_dict(self) -> dict:
        return {"v": 2, "pass": self.ok, "worst": self.worst,
                "params": list(self.params_checked),
                "per_simplex": [dict(d) for d in self.per_simplex],
                "budget": dict(self.budget)}


def _clearances(points: np.ndarray, centers, radii) -> np.ndarray:
    """min over non-vertex net points of d(center, y) - radius, per simplex:
    the (n+2)-nd nearest site of each center, since the n+1 vertices sit at
    distance ~radius."""
    n = points.shape[1]
    return tess.sphere_neighbours(points, centers, n)[:, n + 1] - radii


def _over_budget(family: ParamFamily) -> list:
    """The parameters carrying an override longer than the budget
    ``family.eps``, in the family's (lexicographic) order."""
    return sorted({p for p, _, vec in family.overrides
                   if float(np.linalg.norm(vec)) > family.eps})


def certify_family_stability(net: tess.Net, complex_: tess.DelaunayComplex,
                             family: ParamFamily, bundle) -> StabilityCertificate:
    """Certify that the complex's top triangles are those of the Delaunay
    complex (circles of radius <= d2) of the net moved by *any* displacement
    field of sup-norm at most eta = ``family.eps``, with the bundle's drift,
    clearance and robustness margins: one certificate for the whole budget,
    so its cost does not depend on ``family.depth``.  Only a parameter with
    an override longer than eta is checked on its own (step 4).  Planar
    nets only: ``v2_constant`` bounds triangles.

    Notation: S a top triangle with vertices y_0, y_1, y_2, U its edge
    matrix (rows y_k - y_2), c and r its circumcenter and radius, e1 =
    min(d1, separation of the net), spread(t) = (2 d2 + 2t)^2 - (2 d2)^2,
    the most |det U| of rows <= 2 d2 changes when each vertex moves by t
    (Hadamard's inequality).  The float slack eta_f = 64 u (max |coordinate|
    + d2), u = 2^-53, is a vertex move that covers the rounding of an edge,
    of a moved site and of a distance, and the backward error of the 2x2 LU
    solve and determinant (rows moved by at most gamma_6 2 sqrt(2) d2).
    Below, eta stands for family.eps + eta_f, so the certificate covers the
    exact fields and their rounded translates alike.

    1. Drift.  D(t, delta) = ``cs.displacement_bound`` bounds the move of
       c when each vertex moves by t and every moved |det U| is >= delta;
       r then moves by at most D + t.  (Directly: with U' = U + E, |E_k| <=
       2t, c' - c = d_2 + U'^-1 (f - E x), |x| = r <= d2, |f_k| <=
       2t (2 d2 + t) and ||U'^-1|| <= 2 sqrt(2) e3 / delta, so the move is
       at most t (1 + 24 e3^2 / delta); the paper's estimate
       t (1 + 16 sqrt(2) e3^2 / delta + 256 e3^4 / delta^2) exceeds that,
       as delta <= |det U| <= (3 sqrt(3) / 2) r^2.)  S has sides >= e1 and
       r <= d2, so |det U| >= v2 = ``v2_constant(e1, d2)``; with its own
       computed determinant, delta_S = max(v2, |det U| - spread(eta_f))
       - spread(eta) bounds every moved |det|, Delta c = D(eta, delta_S),
       and each computed center, radius or distance of S is within
       phi = D(eta_f, delta_S) + eta_f of its exact value.
    2. Base in translate.  Every site moves by <= eta, so S keeps an empty
       circle of radius <= d2, with the bundle's translate margins, when
         clearance - 2 (Delta c + eta) >= eps1 rF   (translate_clearance)
         d2 - r > Delta c + eta                     (translate_radius)
         rho - eta delta_2 >= 1.5 eps2 rF           (translate_robustness)
         Delta c <= eps3 rF / 2                     (center_drift)
         Delta c + eta <= eps3 rF                   (radius_drift)
       where rho - eta delta_2 is the paper's perturbed robustness rho_2
       (``robustness.rho_m_recursion``; delta_2 = 2 + 16 (d2 + e1) / e1
       exceeds the 2 + 8 d2 / e1 by which |y_0 y_1| and the height of y_2
       over line y_0 y_1 can shrink: the line's direction turns by at most
       4 eta / |y_0 y_1| and the foot of y_2 lies within 2 d2 of y_0).  The base margins rho >= 1.5 eps2 rF (robustness) and
       clearance >= 2 eps1 rF (base_clearance) are checked as well, and
       delta_S must stay above the degeneracy floor of
       ``circumcenter_batch`` (circumcenter_exists).
    3. Translate in base.  Let T be a top triangle of a translate that is
       not in the complex: radius r' <= d2 and no moved site nearer its
       center than r' (1 - EMPTY_RTOL).  Its sides are >= e1 - 2 eta, so
       its moved |det| is >= ``v2_constant(e1 - 2 eta, d2)`` and its
       unmoved one >= delta' = that - spread(eta).  With Delta c' =
       D(eta, delta') and phi' = D(eta_f, delta') + eta_f, its base circle
       has computed radius <= d2 + Delta c' + eta + phi' and no site
       deeper inside it than 2 (Delta c' + eta + phi') + EMPTY_RTOL d2 (the
       allowance).  Such triples, if not top triangles, are near misses;
       they are sought among ``tess.small_spheres``, the enumeration of all
       local triples that ``check_duality`` uses, not Qhull.  The near_miss
       margin is the least (depth - allowance) over the small circles that
       are not top triangles; when it is negative the certificate fails
       with margin -inf and names the triple.  T's drift must meet the
       center-drift bound as S's does, Delta c' <= eps3 rF / 2; otherwise
       (a d1 far below the sites' spacing, or a d2 far above it, or no
       positive delta') the near_miss margin is eps3 rF / 2 - Delta c'
       and nothing is enumerated.  So the search radius stays below
       d2 + 2 eps3 rF, and as Delta c' grows with d2 / e1 the cap also
       bounds how many sites lie within the enumeration's reach of a site.
    4. Over budget.  A parameter with an override longer than family.eps
       runs the per-parameter check: its translate's circumcenters, the
       margins robustness, translate_clearance, center_drift and
       radius_drift there, and identity of ``tess.delaunay_top`` of the
       translate with the complex (witness ``combinatorics``).

    Float errors: each margin is reported net of its error bound and passes
    when >= 0.  Clearances carry 2 phi (a center and a distance), the
    radius margin phi, the robustness margins (delta_2 + 1) eta_f (edge
    rounding is a vertex move of eta_f, the Gram volumes' own rounding a
    few u rho < eta_f), the drift margins 2^-48 of the drift (a dozen
    roundings of a closed form).  Per-simplex ``center_drift`` and
    ``radius_drift`` are the certified bounds, raised to the drift measured
    at an over-budget parameter where that is larger; ``budget`` records
    eta (family.eps), the largest bounds, the near-miss count (None when
    nothing was enumerated) and the over-budget parameters.
    """
    n = net.dim
    if n != 2:
        raise UnsupportedDimError("family certification requires dim = 2: "
                                  "v2_constant bounds triangles only")
    rF = bundle.rF
    d2 = net.d2
    pts = net.points
    rho_floor = 1.5 * bundle.eps2 * rF
    clear_base = 2.0 * bundle.eps1 * rF
    clear_trans = bundle.eps1 * rF
    drift_c_max = bundle.eps3 * rF / 2.0
    drift_r_max = bundle.eps3 * rF

    top = complex_.top(n)
    verts = np.array([s.vertices for s in top], dtype=np.int64).reshape(-1, n + 1)
    stacks = pts[verts]
    centers, radii, valid = cs.circumcenter_batch(stacks)

    worst = {"quantity": None, "simplex": None, "param": None, "margin": math.inf}
    ok = True

    def note(quantity, margin, simplex, param, detail=None):
        nonlocal ok
        ok = ok and bool(margin >= 0)
        if margin < worst["margin"]:
            worst.update(quantity=quantity, margin=float(margin), param=param,
                         simplex=None if simplex is None else
                         tuple(int(v) for v in simplex))
            worst.pop("detail", None)
            if detail is not None:
                worst["detail"] = detail

    def check(quantity, margins, param=None):
        if len(margins):
            i = int(np.argmin(margins))
            note(quantity, margins[i], verts[i], param)

    if not np.all(valid):
        note("circumcenter_exists", -math.inf, verts[np.argmin(valid)], None)
    eta_f = 64.0 * 2.0 ** -53 * (float(np.max(np.abs(pts), initial=0.0)) + d2)
    eta = family.eps + eta_f
    e1 = min(net.d1, net.check_separation())
    rho = robustness.prefix_distances(stacks).min(axis=1) if len(top) else np.zeros(0)
    clearance = np.full(len(top), -np.inf)
    if np.any(valid):
        clearance[valid] = _clearances(pts, centers[valid], radii[valid])

    def spread(t):
        return (2.0 * d2 + 2.0 * t) ** 2 - (2.0 * d2) ** 2

    def drift(t, delta):
        """D(t, delta), and inf where delta is not positive."""
        pos = delta > 0
        b = cs.PerturbationBudget(e1=e1, e2=d2, eps=t, rho=rho_floor,
                                  delta=np.where(pos, delta, 1.0))
        return np.where(pos, cs.displacement_bound(b, n), np.inf)

    dc = phi = np.full(len(top), np.inf)  # unbounded unless the budget's constants exist
    rho_err = math.inf
    near = None
    try:
        v2 = robustness.v2_constant(e1, d2)
        v2_moved = robustness.v2_constant(e1 - 2.0 * eta, d2)
        step = robustness.delta_m_sequence(e1, eta, e1, d2, n)[-1]
    except InvalidBudgetError as exc:
        note("budget", -math.inf, None, None, {"budget": str(exc)})
    else:
        det = np.abs(linalg.determinant(stacks[:, :-1] - stacks[:, -1:]))
        delta = np.maximum(v2, det - spread(eta_f)) - spread(eta)
        dc = drift(eta, delta)
        phi = drift(eta_f, delta) + eta_f
        rho_err = (step + 1.0) * eta_f
        floor = linalg.DEGENERACY_REL * (2.0 * d2 + 2.0 * eta) ** n + spread(eta_f)
        check("circumcenter_exists", delta - floor)
        check("translate_robustness", rho - eta * step - rho_floor - rho_err)
        check("translate_clearance",
              clearance - 2.0 * (dc + eta) - clear_trans - 2.0 * phi)
        check("translate_radius", d2 - radii - (dc + eta) - phi)
        check("center_drift", drift_c_max - dc * (1.0 + 2.0 ** -48))
        check("radius_drift", drift_r_max - (dc + eta) * (1.0 + 2.0 ** -48))

        delta_nm = np.array(v2_moved - spread(eta))
        dc_nm = float(drift(eta, delta_nm))
        phi_nm = float(drift(eta_f, delta_nm)) + eta_f
        bound_m = drift_c_max - dc_nm * (1.0 + 2.0 ** -48)
        if not bound_m >= 0:  # inf or nan drift too: nothing is enumerated
            note("near_miss", bound_m if bound_m < 0 else -math.inf, None, None,
                 {"near_miss_drift": dc_nm})
        else:
            allowance = 2.0 * (dc_nm + eta + phi_nm) + tess.EMPTY_RTOL * d2
            rows, c, r = tess.small_spheres(pts, n, d2 + dc_nm + eta + phi_nm)
            other = ~tess._rows_in(rows, verts, len(pts))
            rows, c, r = rows[other], c[other], r[other]
            depth = r - cKDTree(pts).query(c)[0] if len(rows) else np.zeros(0)
            near = np.nonzero(depth <= allowance)[0]
            if len(near):
                note("near_miss", -math.inf, rows[near[0]], None,
                     {"near_miss": rows[near[:8]].tolist()})
            elif len(rows):
                i = int(np.argmin(depth))
                note("near_miss", depth[i] - allowance, rows[i], None)
    rho_m = rho - rho_floor - rho_err
    clear_m = clearance - clear_base - 2.0 * phi
    check("robustness", rho_m)
    check("base_clearance", clear_m)
    over = _over_budget(family)
    budget = {"eta": family.eps,
              "center_drift": float(dc.max(initial=0.0)),
              "radius_drift": float(dc.max(initial=0.0)) + eta,
              "near_miss": None if near is None else len(near),
              "over_budget": over}

    center_drift = dc.copy()
    radius_drift = dc + eta
    for param in over:
        tnet = translate_net(net, param, family)
        if len(top):
            tstacks = tnet.points[verts]
            tc, tr, tvalid = cs.circumcenter_batch(tstacks)
            if not np.all(tvalid):
                note("circumcenter_exists", -math.inf,
                     verts[int(np.nonzero(~tvalid)[0][0])], param)
                continue
            dcp = np.linalg.norm(tc - centers, axis=1)
            drp = np.abs(tr - radii)
            np.maximum(center_drift, dcp, out=center_drift)
            np.maximum(radius_drift, drp, out=radius_drift)
            check("robustness", robustness.prefix_distances(tstacks).min(axis=1)
                  - rho_floor, param)
            check("translate_clearance",
                  _clearances(tnet.points, tc, tr) - clear_trans, param)
            check("center_drift", drift_c_max - dcp, param)
            check("radius_drift", drift_r_max - drp, param)
        # combinatorial identity under translation
        tverts = tess.delaunay_top(tnet.points, d2)[0]
        if np.array_equal(tverts, verts):
            continue
        diff = sorted(set(map(tuple, tverts.tolist())) ^ set(map(tuple, verts.tolist())))
        if diff:
            note("combinatorics", -math.inf, None, param,
                 {"param": param, "symmetric_difference": [list(t) for t in diff[:8]]})

    records = tuple(
        {"simplex": tuple(row), "robustness_margin": a, "base_clearance_margin": b,
         "center_drift": c, "radius_drift": r}
        for row, a, b, c, r in zip(verts.tolist(), rho_m.tolist(), clear_m.tolist(),
                                   center_drift.tolist(), radius_drift.tolist()))
    if worst["quantity"] is None:
        worst.update(quantity="empty_complex", margin=0.0)
    return StabilityCertificate(ok=ok, worst=worst, per_simplex=records,
                                params_checked=family.params, budget=budget)


# ---------------------------------------------------------------------------
# product structure


@dataclass(frozen=True)
class ProductStructure:
    """Sampled product structure Phi over K x params."""

    grid: np.ndarray  # (g, n) sample points of K
    params: tuple
    table: dict  # (grid_index, param) -> point tuple
    injective: bool
    class_sizes: tuple
    face_agreement_max: float


def _vertex_incidence(complex_: tess.DelaunayComplex, n: int) -> dict:
    """site index -> list of top simplices containing it."""
    inc: dict = {}
    for s in complex_.top(n):
        for v in s.vertices:
            inc.setdefault(int(v), []).append(s)
    return inc


def _locate_simplex(points: np.ndarray, incidence: dict, q, candidates):
    """Containing top simplex of q and q's barycentric coordinates, searched
    through the simplicial cones of the candidate sites in order (the
    containing simplex need not be incident to the nearest site, so nearby
    sites' cones are scanned as well)."""
    seen = set()
    for j in candidates:
        for s in incidence.get(int(j), ()):
            if s.vertices in seen:
                continue
            seen.add(s.vertices)
            bary = tess.barycentric_coordinates(points[list(s.vertices)], q)
            if np.all(bary >= -1e-12):
                return s, bary
    raise CoverageGapError(f"sample {q} lies outside every cone simplex")


def build_product_structure(K: Region, net: tess.Net,
                            complex_: tess.DelaunayComplex,
                            family: ParamFamily,
                            grid_shape=(50, 50)) -> ProductStructure:
    """Phi(y, t) = realization of the t-translated containing simplex of y at
    y's barycentric coordinates, tabulated over a regular grid of K.

    Each sample's containing simplex is searched among the cones of its 12
    nearest sites, ordered by (distance, index).  Raises CoverageGap when a
    sample's nearest site is not interior, or the sample escapes those cones.
    """
    lo, hi = K.bounding_box()
    axes = [np.linspace(lo[k], hi[k], grid_shape[k]) for k in range(K.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([a.ravel() for a in mesh], axis=-1)
    if K.kind == "disk":
        grid = grid[K.boundary_distance_many(grid) >= 0.0]

    params = family.params
    translated = {p: translate_net(net, p, family).points for p in params}
    incidence = _vertex_incidence(complex_, net.dim)
    interior = net.interior_mask()
    k = min(12, len(net))
    dist, near = cKDTree(net.points).query(grid, k=k)
    dist, near = dist.reshape(len(grid), k), near.reshape(len(grid), k)
    order = np.lexsort((near, dist), axis=1)
    near = np.take_along_axis(near, order, axis=1)
    table = {}
    for gi, y in enumerate(grid):
        if not interior[near[gi, 0]]:
            raise CoverageGapError(
                f"nearest site {int(near[gi, 0])} of sample {y} is not interior")
        s, bary = _locate_simplex(net.points, incidence, y, near[gi])
        vidx = list(s.vertices)
        for p in params:
            img = bary @ translated[p][vidx]
            table[(gi, p)] = tuple(float(x) for x in img)

    values = list(table.values())
    injective = len(set(values)) == len(values)
    class_sizes = tuple(len({table[(gi, p)] for p in params})
                        for gi in range(len(grid)))

    # face agreement: realize shared-edge midpoints through both parents
    n = net.dim
    by_face: dict = {}
    for s in complex_.top(n):
        for face in itertools.combinations(s.vertices, n):
            by_face.setdefault(face, []).append(s)
    worst = 0.0
    checked = 0
    for face, parents in by_face.items():
        if len(parents) < 2 or checked >= 200:
            continue
        checked += 1
        mid = np.mean(net.points[list(face)], axis=0)
        for p in params:
            imgs = []
            for s in parents[:2]:
                bary = tess.barycentric_coordinates(
                    net.points[list(s.vertices)], mid)
                imgs.append(bary @ translated[p][list(s.vertices)])
            worst = max(worst, float(np.linalg.norm(imgs[0] - imgs[1])))
    return ProductStructure(grid=grid, params=params, table=table,
                            injective=injective, class_sizes=class_sizes,
                            face_agreement_max=worst)
