"""Inductive net synthesis with annulus/slab exclusion, family-stability
certification, and the product-structure builder.

The synthesizer grows a point set inside a compact region: each step picks a
candidate ball whose center sits in the annular band between the d1''- and
d2''-penumbras of the current net, excludes thin forbidden regions inside
that ball (annular neighborhoods of circumscribed circles of local simplices
and thickenings of local affine patches), and selects a point in the
remainder.  The excluded widths guarantee empty-sphere clearance and
properly-ordered robustness for every simplex of the final net.  The
circles come from ``circumsphere.circumcenter_batch``, the kernel the
Delaunay build and the certifier use.
``forbidden_mask`` is the one membership test for the forbidden regions: the
point selection and the sampled audit both call it.  ``synthesize_net``
returns the net and a ``SynthesisReport``.

Each step reads only the net within L of the candidate center, and annuli
are kept only around circles of radius at most R, the circles that can become
(translated) Delaunay simplices: R is d2 plus the certified radius drift
eps3 rF plus a first-order slack, and L = 2 R + ball_r + the wider region
width; ``_local_radii`` gives both inequalities.  Every step is
certified by the closed-form bound ``excluded_volume_bound`` < 1/2 on the
excluded fraction of the selection ball, and falls back to the sampled audit
``excluded_volume_fraction`` when the bound does not certify it.  The front
of candidate centers is ``_BandFront``: one byte per grid node, coding
whether the node is still beyond the band, in it, or below it (or too near
the domain's edge), with per-row counts of the nodes in the band; the node
in the band of least flat index is the next candidate.  The codes are all
the front keeps, so the synthesizer's memory is about one byte per node.
A step's cost is its count of numpy calls (about 150, some 150 us at 5 rF),
not arithmetic: it barely grows with the local set.  ``_Buckets``' geometry
(cells of side L, a 3 x 3 block) is fixed: it orders the local set, which
orders each triple's vertices and so sets every circle's bits.

Stability of the resulting Delaunay complex is then certified for every
displacement field within the family's budget at once: margins on each top
simplex (drift, clearance, radius, robustness from
``robustness.prefix_distances``) show it survives, and one pass over Qhull's
triangulation of the net (``tessellation.Net.qhull``, the one the Delaunay
build filters), through the lifting map, shows no other simplex can
appear.  Only parameters whose overrides exceed the budget are checked one by
one, against a Qhull rebuild of their translate.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

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

#: Sampled forbidden-volume audit every this many synthesis steps (and at any
#: step whose closed-form bound is not below 1/2).
VOLUME_AUDIT_STRIDE = 64

#: Rejection-sampling attempts before the fallback grid scan.
MAX_REJECTIONS = 10_000

#: Doubles drawn from the generator at a time by ``_Draws``.
_DRAW_BLOCK = 256

#: Nodes per block of rows when a disk's clearance mask is filled: bounds its
#: float temporaries to a few MiB whatever the grid's size.
_NODE_BLOCK = 1 << 16


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (samples, n) stacks, each evaluated by the
    same vector-vector kernel as ``np.dot`` on one pair of rows."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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
        is the ``np.dot`` kernel of ``_row_dots``, so every row gets
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
        with the same arithmetic, but built from the per-axis arrays.  The
        mask is the only array of the grid's size made: a box's is the
        product of two per-axis masks, and a disk's is filled
        ``_NODE_BLOCK`` nodes' worth of rows at a time."""
        if self.kind == "box":
            lo, hi = self.bounds
            return np.logical_and.outer(np.minimum(xs - lo[0], hi[0] - xs) >= margin,
                                        np.minimum(ys - lo[1], hi[1] - ys) >= margin)
        c, r = self.bounds
        out = np.empty((len(xs), len(ys)), dtype=bool)
        dy = (ys - c[1])[None, :]
        step = max(1, _NODE_BLOCK // max(1, len(ys)))
        for i in range(0, len(xs), step):
            dx = (xs[i:i + step] - c[0])[:, None]
            np.greater_equal(r - np.sqrt(dx * dx + dy * dy), margin, out=out[i:i + step])
        return out

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

    def _coeffs(self, param: str):
        m = int(param, 2) / max(1, 2**self.depth - 1)
        # deterministic per-param field rotation
        rng = np.random.default_rng(self.seed ^ (0x9E3779B9 + int(param, 2)))
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        return m, alpha

    def displacement_batch(self, param: str, pts) -> np.ndarray:
        """Smooth displacement field of param at each row of pts (sup-norm
        <= eps; spatial Lipschitz constant ~ 0.05*eps/scale, so every
        transport map is an eps-isometry on the working region)."""
        pts = np.asarray(pts, dtype=float)
        m, alpha = self._coeffs(param)
        phase = alpha + 0.03 * np.sum(pts, axis=1) / self.scale
        out = np.zeros_like(pts)
        out[:, 0] = np.cos(phase)
        if pts.shape[1] > 1:
            out[:, 1] = np.sin(phase)
        return m * self.eps * out

    def indexed_displacements(self, param: str, net_points) -> np.ndarray:
        """Per-transversal-index displacement table, overrides applied."""
        disp = self.displacement_batch(param, net_points)
        for p, idx, vec in self.overrides:
            if p == param:
                disp[idx] = np.asarray(vec, dtype=float)
        return disp

    def with_override(self, param: str, index: int, vector) -> "ParamFamily":
        return ParamFamily(depth=self.depth, eps=self.eps,
                           scale=self.scale, seed=self.seed,
                           overrides=self.overrides + ((param, int(index), tuple(float(x) for x in vector)),))


def make_family(bundle, depth: int, seed: int = 0) -> ParamFamily:
    """Family of 2^depth smooth displacement fields with sup-norm eps0*rF."""
    return ParamFamily(depth=depth, eps=bundle.eps0 * bundle.rF,
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


_LOCAL_PACK: dict = {"cap": -1, "pack": None}


def _local_pack(s: int):
    """(pairs, triples, triple_pairs) of range(s), in colex order: pairs (2,
    C(s, 2)) and triples (3, C(s, 3)) as index rows, sorted by largest
    element, then the next; and, for each triple a < b < c, the places of
    its pairs ab, ac and bc among the pairs, (3, C(s, 3)).  Pair (i, j)
    sits at C(j, 2) + i and triple (a, b, c) at C(c, 3) + C(b, 2) + a,
    which do not depend on s, so one pack, built for the largest s seen
    plus 32, serves every smaller s by prefix slices."""
    if s > _LOCAL_PACK["cap"]:
        cap = s + 32
        ks = np.arange(cap)
        c2 = ks * (ks - 1) // 2  # C(k, 2): the pairs below k, and k's first pair
        j = np.repeat(ks, ks)
        pairs = np.stack([np.arange(len(j)) - c2[j], j])
        c = np.repeat(ks, c2)
        ab = np.arange(len(c)) - np.repeat(np.cumsum(c2) - c2, c2)
        a, b = pairs[:, ab]
        _LOCAL_PACK["cap"] = cap
        _LOCAL_PACK["pack"] = (pairs, np.stack([a, b, c]),
                               np.stack([ab, c2[c] + a, c2[c] + b]))
    pairs, triples, triple_pairs = _LOCAL_PACK["pack"]
    m = math.comb(s, 3)
    return pairs[:, :math.comb(s, 2)], triples[:, :m], triple_pairs[:, :m]


def _local_radii(bundle):
    """(ball_r, w_ann, w_slab, R, L): the radius of the selection ball, the
    widths of the annuli (2 eps1 rF) and of the slabs (2 eps2 rF), the
    largest circle radius that keeps an annulus, and the radius of the local
    set D(xi', L) a step reads.

    R.  An annulus protects the empty-sphere clearance of a triangle {a, b,
    v} that can be a Delaunay simplex of the final net or of a translate,
    whose radius r is at most d2 plus the certified radius drift eps3 rF.
    When its last vertex v is chosen, an earlier point y is kept off its
    circle by the annulus of circle(a, b, y) instead.  Let y be within delta
    = w_ann, the clearance the annulus serves, of circle(a, b, v), say of
    its point y0.  Both circles pass through a and b, and sin(angle a y b) =
    |ab| / 2 r' by the law of sines.  Moving y0 to y turns the ray to a by
    the angle at a of the triangle y a y0: its sine is at most delta / |ya|,
    and it is acute, facing the shortest side yy0 (delta < d1 / 8 below, and
    |ya| >= d1).  So the ray turns by at most asin(delta / d1), and the ray
    to b alike.  sin is 1-Lipschitz and |ab| >= d1, so
      1 / r' >= 1 / r - 4 asin(delta / d1) / d1,
      r' <= r / (1 - 4 r asin(delta / d1) / d1) =: R  at r = d2 + eps3 rF.
    The bound needs 4 r asin(delta / d1) < d1, which, as r > d2 = 2 d1,
    asks delta < d1 / 8; at the practical bundle 1 / (1 - ...) is 1 + 1.6e-6
    and R = 1.00005 d2.

    L.  An annulus of radius <= R reaches the selection ball B(xi', ball_r)
    within its width only if its three points lie within 2 R + ball_r +
    w_ann of xi'.  The certificate reads robustness in creation order
    (``robustness.prefix_distances``), so the slab of line(a, b) serves a
    triangle {a, b, v} of radius <= R whose last vertex v lands in this
    ball, which puts a and b within 2 R + ball_r of xi'; a point patch
    reaches the ball from within ball_r + w_slab.  So
      L = 2 R + ball_r + max(w_ann, w_slab)
    holds every point that an annulus, a slab or a patch needs."""
    rF, d1 = bundle.rF, bundle.d1
    ball_r = rF / 200.0
    w_ann = 2.0 * bundle.eps1 * rF
    w_slab = 2.0 * bundle.eps2 * rF
    r = bundle.d2 + bundle.eps3 * rF
    shrink = 1.0 - 4.0 * r * math.asin(min(1.0, w_ann / d1)) / d1
    if not shrink > 0.0:
        raise ValidationError(f"annulus width {w_ann} is too wide for d1 = {d1}: "
                              f"no circle radius bounds the annuli", path="bundle.eps1")
    cap_r = r / shrink
    return ball_r, w_ann, w_slab, cap_r, 2.0 * cap_r + ball_r + max(w_ann, w_slab)


def forbidden_regions(net_points, xi_prime, bundle):
    """(annuli, slabs) for the selection ball B(xi_prime, rF/200).

    Annuli, slabs and point patches all come from the local set Omega = net
    cap D(xi_prime, L), and annuli only from circles of radius at most R;
    ``_local_radii`` derives both radii and proves them enough.

    Circles are solved only for the triples that pass a prefilter on the
    point-power identity: with P_i = p_i - xi', X_ij = P_i x P_j and 2 S =
    X_bc - X_ac + X_ab twice the signed area,
      D = |P_a|^2 X_bc - |P_b|^2 X_ac + |P_c|^2 X_ab = -2 S (d^2 - r^2),
    d the distance from xi' to the circle's center and r its radius.  A kept
    circle has r <= R and |d - r| <= rho = ball_r + w_ann, so
      |D| = 2 |S| (d + r) |d - r| <= 2 |S| (2 R + rho) rho,
    and the prefilter keeps the triples whose computed D and 2 S satisfy
      |D| <= 2 |S| (2 R + rho) rho + slack,  slack = 2^-44 L^3 (L + M),
    M = max_k |xi'_k| + L.  Proof that the slack covers rounding, with u =
    2^-53, |P_i| <= L and 2 R + rho <= L.  (i) Inputs: each computed
    |P_i|^2 and X_ij is within 5 u L^2 of the exact one, so the computed D
    is within 48 u L^4 of D and the computed 2 S within 22 u L^2 of 2 |S|,
    which the factor (2 R + rho) rho <= L^2 makes 22 u L^4; the threshold's
    products and sum round by at most 18 u L^4 more.  (ii) Exact stage: it
    keeps a triple on its computed r and d; let both be within delta of the
    exact ones.  Then |d - r| <= rho + 2 delta and d + r <= 2 R + rho + 3
    delta, so |D| exceeds 2 |S| (2 R + rho) rho by at most 2 |S| delta (4 R
    + 5 rho + 6 delta) <= 2 |S| delta 5 L.  ``circumcenter_batch`` puts the
    center within gamma_6 |a| |b| (|a| + |b| + 2 r) / (2 |det U|) of that of
    its rounded edges a, b, which move it by a third as much again; a valid
    row has |det U| >= 1e-12 |a| |b|, so 2 |S| is at most 1.001 |det U|, and
    |a|, |b| <= 2 r <= L, so 2 |S| times these errors is <= 16.1 u L^3.
    Rounding the center's coordinates, the radius and the distance adds 6 u
    M to delta, and 2 |S| <= |a| |b| <= L^2, so 2 |S| delta <= 23 u L^2 M
    and the excess is <= 115 u L^3 M.  In all, 203 u L^3 M is below half of
    the slack 512 u L^3 (L + M): the prefilter drops no circle the exact
    stage keeps, so the annuli are those of the exact stage over all
    triples, in triple order.  ``count_total`` counts the nondegenerate
    triples, whose computed 2 |S| exceeds 1e-12 times their longest squared
    edge."""
    xi = np.asarray(xi_prime, dtype=float)
    n = len(xi)
    pts = np.asarray(net_points, dtype=float).reshape(-1, n)
    ball_r, w_ann, w_slab, cap_r, local_r = _local_radii(bundle)
    if n != 2:
        raise ValidationError("synthesis is implemented for dim 2")
    x0, y0 = xi.tolist()
    qx, qy = pts[:, 0] - x0, pts[:, 1] - y0
    sq = qx * qx + qy * qy
    local = (sq <= local_r * local_r).nonzero()[0]
    s = len(local)
    if s == 0:
        return (Annuli(np.zeros((0, n)), np.zeros(0), w_ann, 0),
                Slabs(np.zeros((0, n)), np.zeros((0, n)), np.zeros((0, n)), w_slab))
    omega = pts.take(local, axis=0)
    qx, qy, sq = qx.take(local), qy.take(local), sq.take(local)

    count_ann = 0
    keep_c = np.zeros((0, n))
    keep_r = np.zeros(0)
    pr, tri, pairs = _local_pack(s)
    ax, ay, bx, by = qx.take(pr[0]), qy.take(pr[0]), qx.take(pr[1]), qy.take(pr[1])
    dx, dy = bx - ax, by - ay
    l2p = dx * dx + dy * dy
    # cross(a - xi, b - xi) doubles as 2 * signed_area(xi, a, b), i.e. the
    # perpendicular distance from xi to line(a, b) times |b - a|
    crossp = ax * by - ay * bx
    if s >= 3:
        x, sqt = crossp.take(pairs), sq.take(tri)  # X_ab, X_ac, X_bc; |P_a|^2, ...
        two_s = np.abs(x[2] - x[1] + x[0])
        # nondegenerate: 2 |S| > 1e-12 times the longest squared edge, which
        # is at most (2 L)^2, so only triples below 4e-12 L^2 need their edges
        low = (two_s <= 4.000001e-12 * local_r * local_r).nonzero()[0]
        count_ann = len(two_s) - len(low)
        if len(low):
            count_ann += int(np.count_nonzero(
                two_s.take(low) > 1e-12 * l2p.take(pairs[:, low]).max(axis=0)))
        det = sqt[0] * x[2] - sqt[1] * x[1] + sqt[2] * x[0]
        rho = ball_r + w_ann
        slack = 2.0 ** -44 * local_r ** 3 * (2.0 * local_r + max(abs(x0), abs(y0)))
        k = (np.abs(det, out=det) <= two_s * ((2.0 * cap_r + rho) * rho) + slack).nonzero()[0]
        if len(k):
            centers, radii, valid = cs.circumcenter_batch(
                omega.take(tri.take(k, axis=1).T, axis=0))
            e = centers - xi
            reach = np.abs(np.sqrt(np.add.reduce(e * e, axis=1)) - radii) <= rho
            sel = (valid & reach & (radii <= cap_r)).nonzero()[0]
            keep_c, keep_r = centers.take(sel, axis=0), radii.take(sel)
    annuli = Annuli(centers=keep_c, radii=keep_r, width=w_ann,
                    count_total=count_ann)

    # slabs: lines through local pairs plus singleton patches
    anchors = np.zeros((0, n))
    dirs = np.zeros((0, n))
    if s >= 2:
        dlen = np.sqrt(l2p)
        j = ((dlen > 0) & (np.abs(crossp) <= (ball_r + w_slab) * dlen)).nonzero()[0]
        anchors = omega.take(pr[0].take(j), axis=0)
        dirs, dl = np.empty((len(j), 2)), dlen.take(j)
        np.divide(dx.take(j), dl, out=dirs[:, 0])
        np.divide(dy.take(j), dl, out=dirs[:, 1])
    near_pts = omega.take((sq <= (ball_r + w_slab) ** 2).nonzero()[0], axis=0)
    slabs = Slabs(anchors=anchors, directions=dirs, point_patches=near_pts,
                  width=w_slab)
    return annuli, slabs


def forbidden_mask(pts, annuli: Annuli, slabs: Slabs) -> np.ndarray:
    """Which of the (k, 2) points lie in a forbidden region: within the
    width of an annulus's circle, of a slab's line or of a point patch."""
    tests = []  # one (k, regions) mask per kind of region present
    if len(annuli.radii):
        e = pts[:, None, :] - annuli.centers[None, :, :]
        d = np.sqrt(np.add.reduce(e * e, axis=2))  # np.linalg.norm(e, axis=2)
        tests.append(np.abs(d - annuli.radii) <= annuli.width)
    if len(slabs.directions):
        rel = pts[:, None, :] - slabs.anchors[None, :, :]
        perp = np.abs(rel[:, :, 0] * slabs.directions[None, :, 1]
                      - rel[:, :, 1] * slabs.directions[None, :, 0])
        tests.append(perp <= slabs.width)
    if len(slabs.point_patches):
        e = pts[:, None, :] - slabs.point_patches[None, :, :]
        tests.append(np.sqrt(np.add.reduce(e * e, axis=2)) <= slabs.width)
    if not tests:
        return np.zeros(len(pts), dtype=bool)
    return np.concatenate(tests, axis=1).any(axis=1)


def excluded_volume_fraction(xi_prime, ball_r, annuli: Annuli, slabs: Slabs,
                             samples: int, rng: np.random.Generator) -> float:
    """Sampled (Monte-Carlo) fraction of the selection ball covered by the
    forbidden regions; ``excluded_volume_bound`` is the certified figure."""
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
    row-major order of a 101 x 101 grid over the ball.  ``rng`` is a
    ``Generator`` or a ``_Draws`` over one: only its ``uniform`` is read."""
    annuli, slabs = forbidden
    xi = np.asarray(xi_prime, dtype=float)
    for _ in range(MAX_REJECTIONS):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = ball_r * math.sqrt(rng.uniform())
        p = xi + np.array([r * math.cos(theta), r * math.sin(theta)])
        d = p - xi  # math.sqrt(d.dot(d)) is how np.linalg.norm(d) evaluates
        if math.sqrt(d.dot(d)) <= ball_r * (1 + 1e-12) \
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

    def __init__(self, cell: float):
        self.cell = cell
        self.map: dict = {}
        self.count = 0
        self.arr = np.zeros((256, 2))

    def add(self, p):
        x, y = p.tolist()
        key = (int(math.floor(x / self.cell)), int(math.floor(y / self.cell)))
        self.map.setdefault(key, []).append(self.count)
        if self.count == len(self.arr):
            self.arr = np.concatenate([self.arr, np.zeros_like(self.arr)])
        self.arr[self.count] = p
        self.count += 1

    def near(self, q, radius: float) -> np.ndarray:
        """The points of the cells within ``radius`` of q's cell, a superset
        of the points within ``radius`` of q: the caller filters them."""
        x, y = q.tolist()
        reach = int(math.ceil(radius / self.cell))
        bi = int(math.floor(x / self.cell))
        bj = int(math.floor(y / self.cell))
        idx: list = []
        for di in range(-reach, reach + 1):
            for dj in range(-reach, reach + 1):
                idx.extend(self.map.get((bi + di, bj + dj), ()))
        return self.arr.take(idx, axis=0)


class _BandFront:
    """Selection front of the synthesizer: one uint8 ``code`` per grid node
    and per-row counts of code 1.  Code 0: no net point within band_hi yet;
    1: one is; 2: one is inside band_lo, or the node's selection ball does
    not fit the domain (not ``clear``, a bool mask whose buffer becomes the
    codes).  Squared distances dd fold in by code <- max(code, f(dd)), f(x) =
    [x <= hi2] + [x < lo2], lo2 <= hi2; f does not increase, so the max is f
    of the least squared distance D: code 1 iff D is in [lo2, hi2].  Codes
    only rise, so ``next``, the node of code 1 of least flat index, is the
    pop order of a min-heap that takes each node as it enters the band (at
    most once) and drops it, when popped, if it has left."""

    def __init__(self, clear: np.ndarray, lo2: float, hi2: float):
        self.lo2, self.hi2 = lo2, hi2
        self.code = np.logical_not(clear, out=clear).view(np.uint8)
        self.code <<= 1
        self.rows = np.zeros(clear.shape[0], dtype=np.int64)

    def lower(self, i0: int, j0: int, dd: np.ndarray) -> None:
        """Fold squared distances dd into the codes of the window at (i0, j0)."""
        i1 = i0 + dd.shape[0]
        sub = self.code[i0:i1, j0:j0 + dd.shape[1]]
        new = np.maximum((dd <= self.hi2).view(np.uint8) + (dd < self.lo2), sub)
        # codes are 0, 1 or 2, so & 1 marks code 1: a row's count moves by its
        # sum of (new & 1) - (old & 1) in int8, exact in int16 below 2^15 columns
        step = (new & 1) - (sub & 1)
        self.rows[i0:i1] += step.view(np.int8).sum(axis=1, dtype=np.int16)
        sub[...] = new

    def next(self):
        """(row, column) of the node of code 1 of least flat index, or None."""
        i = int((self.rows != 0).argmax())
        if not self.rows[i]:
            return None
        return i, int((self.code[i] == 1).argmax())


class _Draws:
    """The doubles of ``rng.random``, drawn in blocks of ``_DRAW_BLOCK`` and
    handed out in order.  ``uniform(lo, hi)`` is lo + (hi - lo) u, the double
    ``Generator.uniform`` returns from the same u one call at a time, so a
    ``select_point`` that reads this source selects the same points as one
    that reads the generator itself."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.block = iter(())

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = next(self.block, None)
        if u is None:
            self.block = iter(self.rng.random(_DRAW_BLOCK).tolist())
            u = next(self.block)
        return lo + (hi - lo) * u


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
    ball_r, *_, local_r = _local_radii(bundle)
    band_lo = bundle.d1pp + ball_r
    band_hi = bundle.d2pp - ball_r
    domain = K.expand(2.0 * bundle.d2)
    lo, hi = domain.bounding_box()
    h = rF / 200.0
    # the node count as a float, inf for a huge box, before any int()
    with np.errstate(over="ignore"):
        nodes = float(np.prod(np.floor((hi - lo) / h) + 1.0))
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nodes > memory:  # the front holds one byte per node
        raise ValidationError(
            f"the synthesis grid has {nodes:.4g} nodes, whose front needs as many "
            f"bytes, more than the {memory} bytes of physical memory", path="region.bounds")
    nx, ny = (int(math.floor((hi[k] - lo[k]) / h)) + 1 for k in range(2))
    xs = lo[0] + np.arange(nx) * h
    lx, ly = lo.tolist()
    ys = lo[1] + np.arange(ny) * h
    # node clearance (the selection ball must fit inside the domain) becomes
    # the front's codes; band tests compare squared distances against the
    # squared band bounds, which is order-equivalent
    front = _BandFront(domain.clear_nodes(xs, ys, ball_r),
                       band_lo * band_lo, band_hi * band_hi)
    draws = _Draws(np.random.default_rng(seed))
    buckets = _Buckets(cell=local_r)
    report = SynthesisReport()

    def add_point(z):
        buckets.add(z)
        zx, zy = z.tolist()
        i0 = max(0, int(math.ceil((zx - band_hi - lx) / h)))
        i1 = min(nx - 1, int(math.floor((zx + band_hi - lx) / h)))
        j0 = max(0, int(math.ceil((zy - band_hi - ly) / h)))
        j1 = min(ny - 1, int(math.floor((zy + band_hi - ly) / h)))
        if i0 > i1 or j0 > j1:
            return
        gx = np.square(xs[i0:i1 + 1] - zx)
        gy = np.square(ys[j0:j1 + 1] - zy)
        front.lower(i0, j0, gx[:, None] + gy)

    def step(xi):
        forb = forbidden_regions(buckets.near(xi, local_r), xi, bundle)
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
        z = select_point(xi, forb, draws, ball_r)
        add_point(z)

    # seed point: grid node nearest the domain center (deterministic)
    center = 0.5 * (lo + hi)
    ci = int(np.clip(round((center[0] - lo[0]) / h), 0, nx - 1))
    cj = int(np.clip(round((center[1] - lo[1]) / h), 0, ny - 1))
    if front.code[ci, cj]:
        raise RegionExhaustedError("domain has no interior at this scale")
    step(np.array([xs[ci], ys[cj]]))

    # A node's code is exact: every net point within band_hi of the node has
    # run an update window covering it, and a farther one would fold in 0.
    # Stepping at a node puts a point within ball_r < band_lo of it, so the
    # node leaves the band and the loop ends when no node is left in it.
    while (node := front.next()) is not None:
        step(np.array([xs[node[0]], ys[node[1]]]))

    pts = buckets.arr[:buckets.count].copy()
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
    """The verdict for one family.  ``params_checked`` lists every parameter
    the verdict covers; the JSON form names the family by ``depth`` and
    ``seed`` instead, which determine that list."""

    ok: bool
    worst: dict
    per_simplex: dict  # column -> array, one row per top simplex
    params_checked: tuple
    family: dict  # {"depth", "seed"}
    budget: dict


def _over_budget(family: ParamFamily) -> list:
    """The parameters carrying an override longer than the budget
    ``family.eps``, in the family's (lexicographic) order."""
    return sorted({p for p, _, vec in family.overrides
                   if float(np.linalg.norm(vec)) > family.eps})


def _near_misses(net: tess.Net, verts, reach, deep, radius, least):
    """Step 3's pass over Qhull's triangles (``certify_family_stability``):
    (witnesses, flagged, margin, row), the sorted witness triples, the count
    of flagged triangles, and the least clearance - ``least`` over the
    unflagged triangles of radius <= ``radius`` with the row attaining it."""
    m = len(net)
    if net.qhull is None:  # fewer than three sites, all on a line, or coincident ones
        return [], int(m > 2), math.inf, None
    rows, centers, radii, valid, d = net.qhull
    flat = rows[~valid]
    rows, centers, radii, d = (a[valid] for a in (rows, centers, radii, d))
    margin = np.where(radii <= radius, d[:, 3] - radii - least, np.inf)
    own = (d[:, 0] < radii * (1.0 - tess.EMPTY_RTOL)) | \
        ((radii <= reach) & ~tess.rows_in(rows, verts, m)) | \
        ((margin < 0) & (not math.isfinite(least)))  # no t_B: nothing is settled
    close = np.nonzero((margin < 0) & ~own)[0]
    named = []
    for k in close:  # the settle: S's vertices and the sites within least of its circle
        ball = set(net.tree.query_ball_point(centers[k], radii[k] + least)) | set(rows[k])
        cand = np.array(list(itertools.combinations(sorted(ball), 3)), dtype=np.int64)
        _, r, ok, dist = tess.spheres(net, cand)
        depth = r - dist[:, 0]  # inf where degenerate
        hit = (~ok | ((r <= reach) & (depth <= deep))) & ~tess.rows_in(cand, verts, m)
        named += cand[hit][:1].tolist()  # none kept: S is settled
        margin[k] = np.inf  # flagged or settled, S leaves the margin
    witnesses = sorted(set(map(tuple, named + flat.tolist() + rows[own].tolist())))
    i = int(np.argmin(margin)) if len(rows) else None
    return ([list(w) for w in witnesses], len(named) + len(flat) + int(np.sum(own)),
            math.inf if i is None else float(margin[i]), None if i is None else rows[i])


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
    min(d1, separation of the net), spread(t) = ``cs.spread(d2, t)`` =
    (2 d2 + 2t)^2 - (2 d2)^2, the most |det U| of rows <= 2 d2 changes when
    each vertex moves by t (Hadamard's inequality).  The float slack eta_f =
    64 u (max |coordinate| + d2), u = 2^-53, is a vertex move that covers
    the rounding of an edge, of a moved site and of a distance; the
    computed |det U| is within gamma_2 |a| |b| <= gamma_2 4 d2^2 < 512 u
    d2^2 <= spread(eta_f) of the exact one (a, b the rows of U, gamma_k =
    k u / (1 - k u)).  Below, eta
    stands for family.eps + eta_f, so the certificate covers the exact
    fields and their rounded translates alike.

    1. Drift.  D(t, delta) = ``cs.displacement_bound(t, d2, delta, 2)``
       bounds the move of c when each vertex moves by t and every moved
       |det U| is >= delta, and is inf where delta is not positive; r then
       moves by at most D + t.  (Directly: with U' = U + E, |E_k| <=
       2t, c' - c = d_2 + U'^-1 (f - E x), |x| = r <= d2, |f_k| <=
       2t (2 d2 + t) and ||U'^-1|| <= 2 sqrt(2) e3 / delta, so the move is
       at most t (1 + 24 e3^2 / delta); the paper's estimate
       t (1 + 16 sqrt(2) e3^2 / delta + 256 e3^4 / delta^2) exceeds that,
       as delta <= |det U| <= (3 sqrt(3) / 2) r^2.)  S has sides >= e1 and
       r <= d2, so |det U| >= v2 = ``v2_constant(e1, d2)``; with its own
       computed determinant, delta_S = max(v2, |det U| - spread(eta_f))
       - spread(eta) bounds every moved |det|, Delta c = D(eta, delta_S),
       and each computed center, radius or distance of S is within
       phi = D(eta_f, delta_S) + eta_f of its exact value: the closed form
       of ``circumcenter_batch`` puts the computed c - y_2 within
         gamma_6 (|a|^2 |b| + |b|^2 |a| + 2 r |a| |b|) / (2 |det U|)
           <= gamma_6 12 d2^3 / delta_S
       of the exact one (edges <= 2 d2, r <= d2, and delta_S is below the
       computed |det U|), while D(eta_f, delta_S) >= eta_f 16 sqrt(2) d2^2 /
       delta_S >= 64 u 16 sqrt(2) d2^3 / delta_S, and eta_f covers the
       rounding of c, of r and of a distance.
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
       D(eta, delta') and phi' = D(eta_f, delta') + eta_f (step 1's float
       argument with delta' for delta_S), T's base circle has radius r in
       [r0, rho'], r0 = e1 / 2, rho' = d2 + Delta c' + eta + phi', and no
       site deeper in it than alpha = 2 (Delta c' + eta + phi') +
       EMPTY_RTOL d2.  Unless Delta c' <= eps3 rF / 2, as for S (it fails
       for a d1 far below the sites' spacing, a d2 far above it, or no
       positive delta'), the near_miss margin is eps3 rF / 2 - Delta c'.
       Lemma.  Lift x to (x, |x|^2) (Edelsbrunner & Seidel, "Voronoi
       diagrams and arrangements", DCG 1986): circle (c, R) becomes the
       plane pi(x) = 2 c.x + R^2 - |c|^2, and power(x) = |x|^2 - pi(x).
       Let a triangle S of sites hold T's centroid g, with power_S >= -eps
       at every site.  The affine h = pi_T - pi_S has h(g) <= 2 r alpha (g
       is a convex combination of S's vertices, whose lifts lie on pi_S,
       and no lifted site lies below pi_T - 2 r alpha) and h(v) =
       power_S(v) >= -eps at T's vertices, whose mean is g; so each h(v) <=
       6 r alpha + 2 eps, each h(v) - h(w) = 2 (c_T - c_S).(v - w) is <=
       6 r alpha', alpha' = alpha + eps / e1, and as T's edge matrix has
       rows <= 2 r and |det| >= v2_constant(e1, rho'), |c_S - c_T| <=
       Delta = 12 rho'^2 alpha' / v2_constant(e1, rho'), and r_S^2 =
       |v - c_S|^2 - h(v) <= (r + Delta)^2 + eps.  If S != T, a vertex v
       of T off S has |v - c_S| - r_S <= h(v) / (2 r_S) with r_S^2 >=
       (r - Delta)^2 - 6 r alpha - 2 eps, a bound falling in r: S is
       protected by at most t_B = (3 r0 alpha + eps) / sqrt((r0 - Delta)^2
       - 6 r0 alpha - 2 eps) (cf. Boissonnat, Dyer & Ghosh, "The stability
       of Delaunay triangulations", IJCGA 2013).
       The pass ``_near_misses`` flags each triangle S of Qhull's Delaunay
       triangulation of the base net (``tess.Net.qhull``, a tiling of the
       sites' hull, with the circles and nearest sites of ``tess.spheres``,
       the ones ``delaunay_top`` filters) that is degenerate, holds a site
       deeper than EMPTY_RTOL r_S (``delaunay_top``'s test, one query of
       the net's ``tess.Net.tree`` over all centers, so Qhull's roundoff is
       tested), has radius <= rho' and is not a top, or has
       radius <= rho' + Delta + eps / e1 and clearance <= t_B.  By the
       lemma, T's vertices are S's and sites within t_B of S's circle: an
       S flagged for its clearance alone is unflagged (settled) when no
       triple of those sites has T's conditions (radius <= rho', no site
       deeper than alpha, not a top).
       If none stays flagged, the S holding T's centroid would, if settled,
       have T among its triples; so S was never flagged and is T by the
       lemma, a Qhull triangle of radius <= rho' and so a top: no T exists.
       Floats: for R = 2 rho' and eta_c = 64 u (max |coordinate| + R),
       radii up to R carry phi_c = eta_c + 84 u R^3 / (v2_constant(e1, R)
       - spread at R, ``cs.spread(R, eta_c)``) (``cs.planar_center_error``:
       step 1's closed form, 84 u > 12 gamma_6) and clearances 2 phi_c; eps = 2 R
       (EMPTY_RTOL R + 2 phi_c) + 2^-40 (max |coordinate| + R)^2, the last
       term for larger S, whose emptiness is left to Qhull's roundoff (a few u of that square).
       The settle takes the sites within r_S + 2 phi_c + t_B of c_S from
       the same tree, and T's radius is <= rho' <= R: it keeps a triple
       degenerate in floats or of radius <= rho' + phi_c and depth <=
       alpha + 2 phi_c.  If Delta >= r0, the root is not positive or
       Delta + eps / e1 + phi_c > rho', every S in range is flagged and
       none is settled.  The near_miss margin is the least clearance -
       2 phi_c - t_B over the unflagged S in range, a bound.  A flagged S
       fails with margin -inf and is counted in ``budget``, named by S or,
       if flagged for its clearance alone, by its first triple that the
       settle keeps.
    4. Over budget.  A parameter with an override longer than family.eps
       runs the per-parameter check: its translate's circumcenters, the
       margins robustness, translate_clearance, center_drift and
       radius_drift there, and identity of the translate's complex
       (``tess.build_delaunay``, one call per such parameter) with the
       complex (witness ``combinatorics``); the translate's clearances and
       its Delaunay build ask one tree and one Qhull run, its own.

    Float errors: each margin is reported net of its error bound and passes
    when >= 0.  Clearances carry 2 phi (a center and a distance), the
    radius margin phi, the robustness margins (delta_2 + 1) eta_f (edge
    rounding is a vertex move of eta_f, the Gram volumes' own rounding a
    few u rho < eta_f), the drift margins 2^-48 of the drift (a dozen
    roundings of a closed form).  Per-simplex ``center_drift`` and
    ``radius_drift`` are the certified bounds, raised to the drift measured
    at an over-budget parameter where that is larger; ``budget`` records
    eta (family.eps), the largest bounds, the near-miss count (None when
    Qhull was not run) and the over-budget parameters.
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

    verts = complex_.top_arrays(n)[0]
    stacks = pts[verts]
    centers, radii, valid, dist = tess.spheres(net, verts)

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
    e1 = min(net.d1, net.closest_pair[0])
    rho = robustness.prefix_distances(stacks).min(axis=1) if len(verts) else np.zeros(0)
    # the (n+2)-nd nearest site: the n+1 vertices sit at distance ~radius
    clearance = dist[:, n + 1] - radii  # -inf where degenerate

    dc = phi = np.full(len(verts), np.inf)  # unbounded unless the budget's constants exist
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
        delta = np.maximum(v2, det - cs.spread(d2, eta_f)) - cs.spread(d2, eta)
        dc = cs.displacement_bound(eta, d2, delta, n)
        phi = cs.displacement_bound(eta_f, d2, delta, n) + eta_f
        rho_err = (step + 1.0) * eta_f
        floor = linalg.DEGENERACY_REL * (2.0 * d2 + 2.0 * eta) ** n + cs.spread(d2, eta_f)
        check("circumcenter_exists", delta - floor)
        check("translate_robustness", rho - eta * step - rho_floor - rho_err)
        check("translate_clearance",
              clearance - 2.0 * (dc + eta) - clear_trans - 2.0 * phi)
        check("translate_radius", d2 - radii - (dc + eta) - phi)
        check("center_drift", drift_c_max - dc * (1.0 + 2.0 ** -48))
        check("radius_drift", drift_r_max - (dc + eta) * (1.0 + 2.0 ** -48))

        delta_nm = v2_moved - cs.spread(d2, eta)
        dc_nm = float(cs.displacement_bound(eta, d2, delta_nm, n))
        phi_nm = float(cs.displacement_bound(eta_f, d2, delta_nm, n)) + eta_f
        bound_m = drift_c_max - dc_nm * (1.0 + 2.0 ** -48)
        if not bound_m >= 0:  # inf or nan drift too: Qhull is not run
            note("near_miss", bound_m if bound_m < 0 else -math.inf, None, None,
                 {"near_miss_drift": dc_nm})
        else:
            reach = d2 + dc_nm + eta + phi_nm  # rho' of step 3
            alpha = 2.0 * (dc_nm + eta + phi_nm) + tess.EMPTY_RTOL * d2
            cap = 2.0 * reach
            span = float(np.max(np.abs(pts), initial=0.0)) + cap
            phi_c = cs.planar_center_error(e1, cap, span)
            # the lemma's eps, Delta and range radius rho' + Delta + eps / e1 + phi_c
            slack = 2.0 * cap * (tess.EMPTY_RTOL * cap + 2.0 * phi_c) \
                + 2.0 ** -40 * span ** 2
            lift = 12.0 * reach ** 2 * (alpha + slack / e1) \
                / robustness.v2_constant(e1, reach)
            r0, held = e1 / 2.0, reach + lift + slack / e1 + phi_c
            root = (r0 - lift) ** 2 - 6.0 * r0 * alpha - 2.0 * slack
            # t_B, and inf (flag every triangle in range) where it does not exist
            t_b = (3.0 * r0 * alpha + slack) / math.sqrt(root) \
                if lift < r0 and root > 0 and held <= cap else math.inf
            witnesses, near, margin, row = _near_misses(
                net, verts, reach + phi_c, alpha + 2.0 * phi_c, held, 2.0 * phi_c + t_b)
            if near:
                note("near_miss", -math.inf, witnesses[0] if witnesses else None,
                     None, {"near_miss": witnesses[:8]})
            else:
                note("near_miss", margin, row, None)
    rho_m = rho - rho_floor - rho_err
    clear_m = clearance - clear_base - 2.0 * phi
    check("robustness", rho_m)
    check("base_clearance", clear_m)
    over = _over_budget(family)
    budget = {"eta": family.eps,
              "center_drift": float(dc.max(initial=0.0)),
              "radius_drift": float(dc.max(initial=0.0)) + eta,
              "near_miss": near,
              "over_budget": over}

    center_drift = dc.copy()
    radius_drift = dc + eta
    for param in over:
        tnet = translate_net(net, param, family)
        if len(verts):
            tstacks = tnet.points[verts]
            tc, tr, tvalid, tdist = tess.spheres(tnet, verts)
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
            check("translate_clearance", tdist[:, n + 1] - tr - clear_trans, param)
            check("center_drift", drift_c_max - dcp, param)
            check("radius_drift", drift_r_max - drp, param)
        # combinatorial identity under translation
        tverts = tess.build_delaunay(tnet, None).top_arrays(n)[0]
        if np.array_equal(tverts, verts):
            continue
        diff = sorted(set(map(tuple, tverts.tolist())) ^ set(map(tuple, verts.tolist())))
        note("combinatorics", -math.inf, None, param,
             {"param": param, "symmetric_difference": [list(t) for t in diff[:8]]})

    if worst["quantity"] is None:
        worst.update(quantity="empty_complex", margin=0.0)
    columns = {"simplex": verts, "robustness_margin": rho_m,
               "base_clearance_margin": clear_m, "center_drift": center_drift,
               "radius_drift": radius_drift}
    return StabilityCertificate(ok=ok, worst=worst, per_simplex=columns,
                                params_checked=family.params,
                                family={"depth": family.depth, "seed": family.seed},
                                budget=budget)


# ---------------------------------------------------------------------------
# product structure


@dataclass(frozen=True)
class ProductStructure:
    """Product structure Phi over K x params, tabulated at a grid of K.

    ``injective`` (no two entries of the table are equal) and
    ``class_sizes`` (distinct images of each sample) are sampled at the grid
    points only; they say nothing about the points between the samples.
    ``face_agreement_max`` realizes the midpoint of every edge shared by two
    top simplices through both parents: both give it the coordinates
    (1/2, 1/2, 0) up to rounding, so the figure measures rounding only.
    """

    grid: np.ndarray  # (g, n) sample points of K
    params: tuple
    table: Mapping  # (grid_index, param) -> point tuple
    injective: bool
    class_sizes: tuple
    face_agreement_max: float


class _ImageTable(Mapping):
    """The read-only table (grid index, param) -> point tuple over a (g, P, n)
    array of images, in the order of ``itertools.product(range(g), params)``;
    each entry is made when it is read, so the table costs the array alone."""

    def __init__(self, images: np.ndarray, params: tuple):
        self._images = images
        self._column = {p: k for k, p in enumerate(params)}

    def __getitem__(self, key):
        try:
            gi, param = key
            gi, col = operator.index(gi), self._column[param]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if not 0 <= gi < len(self._images):
            raise KeyError(key)
        return tuple(self._images[gi, col].tolist())

    def __iter__(self):
        return itertools.product(range(len(self._images)), self._column)

    def __len__(self):
        return len(self._images) * len(self._column)


def _face_agreement(points: np.ndarray, moved: np.ndarray, verts: np.ndarray) -> float:
    """Largest distance between the two realizations of a shared face's
    midpoint, one through each of its first two parents (in the order of
    ``verts``), over every face shared by two or more top simplices and
    every parameter's translate in ``moved`` (P, m, n)."""
    faces, count, parents = tess.facets(verts)
    shared = count >= 2
    mid = np.mean(points[faces[shared]], axis=1)
    parents = [verts[parents[shared, i]] for i in (0, 1)]
    bary = [tess.barycentric_coordinates(points[v], mid)[:, None, :] for v in parents]
    worst = 0.0
    for m in moved:  # one parameter at a time keeps the gathers small
        d = (bary[0] @ m[parents[0]] - bary[1] @ m[parents[1]])[:, 0]
        worst = max(worst, float(np.max(np.linalg.norm(d, axis=1), initial=0.0)))
    return worst


def build_product_structure(K: Region, net: tess.Net,
                            complex_: tess.DelaunayComplex,
                            family: ParamFamily,
                            grid_shape=(50, 50)) -> ProductStructure:
    """Phi(y, t) = realization of the t-translated containing simplex of y at
    y's barycentric coordinates, tabulated over a regular grid of K.

    Each sample's containing simplex is ``tess.locate``d among the cones of
    its 12 nearest sites, ordered by (distance, index).  Raises CoverageGap,
    naming the first such sample, when a sample's nearest site is not
    interior or the sample escapes those cones.
    """
    lo, hi = K.bounding_box()
    axes = [np.linspace(lo[k], hi[k], grid_shape[k]) for k in range(K.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([a.ravel() for a in mesh], axis=-1)
    if K.kind == "disk":
        grid = grid[K.boundary_distance_many(grid) >= 0.0]

    n = net.dim
    params = family.params
    moved = np.stack([translate_net(net, p, family).points for p in params])
    verts = complex_.top_arrays(n)[0]
    interior = net.interior_mask()
    k = min(12, len(net))
    dist, near = net.tree.query(grid, k=k)
    dist, near = dist.reshape(len(grid), k), near.reshape(len(grid), k)
    order = np.lexsort((near, dist), axis=1)
    near = np.take_along_axis(near, order, axis=1)
    simplex, bary = tess.locate(net.points, verts, grid, near)
    gap = ~interior[near[:, 0]] | (simplex < 0)
    if np.any(gap):
        gi = int(np.argmax(gap))
        if not interior[near[gi, 0]]:
            raise CoverageGapError(
                f"nearest site {int(near[gi, 0])} of sample {grid[gi]} is not interior")
        raise CoverageGapError(f"sample {grid[gi]} lies outside every cone simplex")

    worst = _face_agreement(net.points, moved, verts)
    # (g, P, n): sample gi under parameter p, each one row-vector product
    images = np.swapaxes((bary[None, :, None, :] @ moved[:, verts[simplex]])[:, :, 0], 0, 1)
    # no two entries equal: sorted rows, equal neighbours compared
    rows = images.reshape(-1, n)
    rows = rows[np.lexsort(rows.T[::-1])]
    injective = not np.any(np.all(rows[1:] == rows[:-1], axis=1))
    # distinct images per sample: sort each sample's images, count the changes
    srt = np.take_along_axis(
        images, np.lexsort(np.moveaxis(images, -1, 0)[::-1], axis=-1)[..., None], axis=1)
    class_sizes = tuple((1 + np.sum(np.any(srt[:, 1:] != srt[:, :-1], axis=-1),
                                    axis=1)).tolist())
    return ProductStructure(grid=grid, params=params, table=_ImageTable(images, params),
                            injective=injective, class_sizes=class_sizes,
                            face_agreement_max=worst)
