"""Delaunay complexes, Voronoi/Delaunay duality, and point location.

Nets are separated/dense point sets in a compact region.  The Delaunay
complex is built in the flat metric only.  Its top simplices come from one
kernel, ``delaunay_top``: Qhull's Delaunay triangulation (Barber, Dobkin &
Huhdanpaa, "The Quickhull algorithm for convex hulls", ACM TOMS 1996,
through ``scipy.spatial.Delaunay``), restricted to the simplices whose
circumscribed sphere has radius at most d2 and is empty of other sites.
When the net is regular (no n+2 sites cospherical) the Delaunay
triangulation is unique, so this equals the set of all empty small spheres.
When it is not, or Qhull cannot triangulate the input, the kernel falls back
to enumerating every (n+1)-subset of sites pairwise within 2*d2, which keeps
all empty spheres of a cospherical configuration.  That enumeration
(``small_spheres``, vectorized from one ``query_pairs`` of the net's tree) is
also the fallback and the tests' oracle of ``check_duality``
(``duality_by_enumeration``, one block at a time): in the plane
``check_duality`` certifies duality's backward direction from the top rows
alone, by their clearances, ``facets`` and exact ``orientations``, and
enumerates only where that certificate does not apply.  Qhull runs at most
once per net: its triangulation, with every triangle's circle and nearest
sites, is the net's own ``Net.qhull``, built on first use, which the kernel
filters, the certifier's near-miss pass reads whole and ``known_spheres``
reads row by row for the certifier's tops; the duality check never reads
it, so it stays independent of the builder.  The sites are read-only, so
that cache cannot go stale.
A circle with its nearest sites has one kernel, ``spheres``: the centers
of ``circumsphere.circumcenter_batch`` and one query of the net's k-d tree
(Bentley, "Multidimensional binary search trees used for associative
searching", CACM 1975).  Its rows do not depend on the batch, so Qhull's
and the enumeration's branches give equal bits, and a row read from
``Net.qhull`` is the row solved.  Rows are found in a set of rows by one
kernel, ``row_index``.  Every nearest-site query
(emptiness, clearance, cell membership, the pairs within reach) asks that
one tree, the net's own ``Net.tree``, built on first use; the kernels that
query sites take the ``Net``.
The complex is pure and stored by its top simplices alone, which determine
every face (Boissonnat, Karthik & Tavenas, "Building efficient and compact
data structures for simplicial complexes", Algorithmica 2017), as one
``TopSimplices`` of arrays per dimension.  Consumers read the tops as
arrays through ``DelaunayComplex.top_arrays``, and codimension-1 faces with
their parents come from one kernel, ``facets``.
Point location has one kernel, ``locate``: it finds the top simplex that
contains each of a batch of points, and the point's barycentric coordinates
in it, scanning the simplicial cones of given candidate sites with batched
``barycentric_coordinates`` solves.  The product structure uses it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import circumsphere as cs
from .circumsphere import CircumSphere
from .errors import InvalidBudgetError, ValidationError
from .robustness import v2_constant

#: Relative tolerance for cell-membership and duality point location.
MEMBERSHIP_RTOL = 1e-9

#: Relative margin used by the empty-sphere filter during construction.
EMPTY_RTOL = 1e-12

#: Relative band around a sphere inside which an extra site makes the
#: configuration cospherical (not regular).
COSPHERICAL_RTOL = 1e-9


@dataclass(frozen=True)
class Net:
    """A d1-separated point set that is d2-dense in its region, a value: its
    ``points`` are read-only."""

    dim: int
    points: np.ndarray  # (m, dim)
    d1: float
    d2: float
    region: object = None  # a netsynth.Region, or None

    def __post_init__(self):
        # the caches below hold the sites' circles and tree, so the sites are
        # a value: read-only, copied unless the array given is read-only and
        # its own
        pts = np.asarray(self.points, dtype=float)
        if pts.flags.writeable or not pts.flags.owndata:
            pts = pts.copy()
            pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    @cached_property
    def tree(self):
        """The sites' ``scipy.spatial.cKDTree``, built on first use and kept:
        the one spatial index of the net, which every nearest-site query
        asks."""
        from scipy.spatial import cKDTree

        return cKDTree(self.points)

    @cached_property
    def closest_pair(self):
        """(distance, i, j): the exact least distance between two sites
        (metric of the ambient chart), with i the first site attaining it
        and j its nearest; (inf, None, None) below two sites."""
        if len(self.points) < 2:
            return np.inf, None, None
        d, j = self.tree.query(self.points, k=2)
        i = int(np.argmin(d[:, 1]))
        return float(d[i, 1]), i, int(j[i, 1])

    @cached_property
    def qhull(self):
        """Qhull's Delaunay triangulation of the sites, built on first use and
        kept: (rows, centers, radii, valid, dist), its triangles as sorted
        int64 rows and their ``spheres``, all read-only.  None when Qhull
        cannot triangulate the sites (fewer than n+1 of them, all in a
        hyperplane, or dimension 1) or sets coincident sites aside."""
        from scipy.spatial import Delaunay, QhullError

        n = self.dim
        if n < 2 or len(self.points) < n + 1:
            return None
        try:
            tri = Delaunay(self.points)
        except QhullError:  # all points in a hyperplane
            return None
        if len(tri.coplanar):
            return None
        rows = np.sort(tri.simplices, axis=1).astype(np.int64)
        kept = (rows, *spheres(self, rows))
        for a in kept:  # shared by every reader of the net
            a.flags.writeable = False
        return kept

    def interior_mask(self) -> np.ndarray:
        """Sites whose cell provably stays inside the region: inward
        boundary distance >= d2."""
        if self.region is None:
            return np.ones(len(self.points), dtype=bool)
        return self.region.boundary_distance(self.points) >= self.d2


@dataclass(frozen=True)
class Simplex:
    """Ordered vertex tuple (net indices, creation order) plus a witness
    circumscribed sphere that is empty of other net points."""

    vertices: tuple
    sphere: CircumSphere


@dataclass(frozen=True, eq=False)  # array fields have no truth value
class TopSimplices(Sequence):
    """The top simplices of one dimension as arrays (``top_arrays``).  As a
    sequence, entry i is row i's ``Simplex``, made when it is read, and a
    slice is the ``TopSimplices`` of the arrays' slices."""

    verts: np.ndarray
    centers: np.ndarray
    radii: np.ndarray

    def __len__(self):
        return len(self.verts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TopSimplices(self.verts[i], self.centers[i], self.radii[i])
        return Simplex(tuple(self.verts[i].tolist()),
                       CircumSphere(self.centers[i], float(self.radii[i])))


@dataclass(frozen=True)
class DelaunayComplex:
    """A pure complex, stored by its top simplices only."""

    simplices_by_dim: dict  # n -> TopSimplices, rows in lexicographic order
    regular: bool

    @classmethod
    def from_arrays(cls, n: int, verts, centers, radii, regular: bool):
        """The complex of the top simplices given as arrays, kept as they are."""
        return cls(simplices_by_dim={n: TopSimplices(verts, centers, radii)},
                   regular=regular)

    def top(self, n: int) -> TopSimplices:
        return self.simplices_by_dim.get(n) or TopSimplices(
            np.zeros((0, n + 1), dtype=np.int64), np.zeros((0, n)), np.zeros(0))

    def top_arrays(self, n: int):
        """The top simplices as arrays (verts, centers, radii): int64 vertex
        rows (t, n+1), circumcenters (t, n) and radii (t,)."""
        top = self.top(n)
        return top.verts, top.centers, top.radii


def facets(verts: np.ndarray):
    """The codimension-1 faces of top simplices given by sorted vertex rows
    ``verts`` (t, n+1): (faces, count, parents).  ``faces`` (f, n) are the
    distinct faces as sorted rows in lexicographic order, ``count`` (f,)
    the number of rows of ``verts`` containing each, and ``parents`` (f, 2)
    the first two of them in the order of ``verts``, -1 where a face has a
    single parent."""
    verts = np.asarray(verts, dtype=np.int64)
    k = verts.shape[1]
    faces = verts[:, list(itertools.combinations(range(k), k - 1))].reshape(-1, k - 1)
    order = np.lexsort(faces.T[::-1])  # stable: a face's parents stay in order
    faces = faces[order]
    first = np.ones(len(faces), dtype=bool)
    first[1:] = np.any(faces[1:] != faces[:-1], axis=1)
    start = np.nonzero(first)[0]
    count = np.diff(np.append(start, len(faces)))
    parents = np.full((len(start), 2), -1, dtype=np.int64)
    parents[:, 0] = order[start] // k
    two = count >= 2
    parents[two, 1] = order[start[two] + 1] // k
    return faces[start], count, parents


#: Rows per block of the enumeration ``_local_subsets``: bounds the
#: temporary arrays of its consumers to a few MiB whatever the net's size.
_BLOCK = 4096


def _local_subsets(net: Net, reach: float):
    """Sorted (n+1)-tuples of site indices pairwise within ``reach``,
    yielded as int64 blocks of shape (<= _BLOCK, n+1) whose rows, joined,
    are every such tuple once, in lexicographic order.

    The pairs i < j within reach come from one ``query_pairs`` call on the
    net's tree.  They form each site's list of higher neighbours, and a
    tuple is grown one vertex at a time from its least vertex i: the next
    vertex is a later member of i's list, and its squared distance to every
    other vertex of the tuple, summed by ``einsum``, must be at most
    reach^2.
    Blocks of consecutive pairs are grown one after another, each with
    about _BLOCK pairs and first-step candidates in all (a pair's
    candidates are the later members of its least vertex's list), and each
    grown block is yielded in slices of _BLOCK rows: a consumer that
    handles one block at a time holds only the pairs and one block.
    """
    points, n, m = net.points, net.dim, len(net)
    if m < n + 1:
        return
    pairs = net.tree.query_pairs(reach, output_type="ndarray").astype(np.int64)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    nbr = pairs[:, 1]
    end = np.searchsorted(pairs[:, 0], np.arange(m), side="right")
    r2 = reach * reach
    load = np.cumsum(end[pairs[:, 0]] - np.arange(len(pairs)))  # 1 + candidates
    cuts = np.searchsorted(load, np.arange(_BLOCK, load[-1] if len(load) else 0, _BLOCK),
                           side="right")
    bounds = np.unique(np.concatenate([[0], cuts, [len(pairs)]]))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        rows = pairs[lo:hi]
        pos = np.arange(lo, hi)  # the last vertex's place in nbr
        for _ in range(n - 1):
            counts = end[rows[:, 0]] - pos - 1
            parent = np.repeat(np.arange(len(rows)), counts)
            kpos = np.arange(len(parent)) + np.repeat(pos + 1 - np.cumsum(counts) + counts,
                                                      counts)
            k = nbr[kpos]
            close = np.ones(len(k), dtype=bool)
            for col in range(1, rows.shape[1]):
                diff = points[rows[parent, col]]
                diff -= points[k]
                close &= np.einsum("ak,ak->a", diff, diff) <= r2
            rows = np.column_stack([rows[parent[close]], k[close]])
            pos = kpos[close]
        for at in range(0, len(rows), _BLOCK):
            yield rows[at:at + _BLOCK]


def row_index(rows: np.ndarray, kept: np.ndarray, m: int) -> np.ndarray:
    """For each index row, its position in ``kept`` (indices < m), or -1
    where it is not a row of ``kept``; a row held twice gives its first
    position.  Rows are matched as given, entry by entry.  Each row is
    found by one integer key in the sorted keys of ``kept``, which is cheap
    for the lexicographic blocks of ``check_duality``; where m^k would
    overflow int64, by ``np.unique`` row ids instead (much slower)."""
    k = rows.shape[1]
    if not len(kept):
        return np.full(len(rows), -1, dtype=np.int64)
    if m ** k < 2 ** 63:
        w = m ** np.arange(k - 1, -1, -1, dtype=np.int64)
        keys, q = kept @ w, rows @ w
    else:
        ids = np.unique(np.vstack([kept, rows]), axis=0, return_inverse=True)[1].ravel()
        keys, q = ids[:len(kept)], ids[len(kept):]
    order = np.argsort(keys, kind="stable")
    at = order[np.minimum(np.searchsorted(keys[order], q), len(kept) - 1)]
    return np.where(np.all(kept[at] == rows, axis=1), at, -1)


def _sphere_rows(pts: np.ndarray, rows: np.ndarray, radius: float):
    """The rows whose circumsphere is valid and of radius <= radius, in
    their given order: (rows, centers, radii)."""
    centers, radii, valid = cs.circumcenter_batch(pts[rows])
    keep = valid & (radii <= radius)
    return rows[keep], centers[keep], radii[keep]


def small_spheres(net: Net, radius: float):
    """Every (n+1)-subset of sites whose circumsphere is valid and of
    radius <= ``radius``: (rows, centers, radii), the rows sorted and in
    lexicographic order, each center bitwise the one ``circumcenter_batch``
    gives the row on its own.  The candidates are the ``_local_subsets``
    within 2*radius, solved one block at a time.
    """
    # a leading empty block gives the joined columns their shapes
    blocks = itertools.chain([np.zeros((0, net.dim + 1), dtype=np.int64)],
                             _local_subsets(net, 2.0 * radius))
    parts = [_sphere_rows(net.points, rows, radius) for rows in blocks]
    return tuple(np.concatenate(col) for col in zip(*parts))


def spheres(net: Net, rows: np.ndarray):
    """The circumspheres of the index rows (m, n+1) with their nearest
    sites: (centers, radii, valid, dist), the first three from
    ``circumcenter_batch`` of the rows' sites and ``dist`` (m, n+2) the
    distances from each valid center to its n+2 nearest sites (inf where
    the net has fewer), -inf rows for invalid centers.  Column 0 is the
    emptiness test and column n+1 the nearest site off the sphere: its
    clearance, and the cospherical test.  Each row is computed on its own,
    so its bits do not depend on the batch: ``Net.qhull`` holds this of
    Qhull's rows, and ``known_spheres`` reads it there."""
    centers, radii, valid = cs.circumcenter_batch(net.points[rows])
    dist = np.full((len(rows), net.dim + 2), -np.inf)
    if np.any(valid):
        dist[valid] = net.tree.query(centers[valid], k=net.dim + 2)[0]
    return centers, radii, valid, dist


def known_spheres(net: Net, rows: np.ndarray):
    """``spheres(net, rows)``, bit for bit, reading the rows of the net's
    ``Net.qhull`` from it (found by ``row_index``, as given, so an unsorted
    row is solved) and solving only the others: the tops of a complex built
    from the net cost no solve and no query.  Every row is solved when
    Qhull cannot triangulate the net."""
    if net.qhull is None:
        return spheres(net, rows)
    at = row_index(rows, net.qhull[0], len(net))
    out = tuple(a[at] for a in net.qhull[1:])  # -1 gathers a placeholder
    miss = at < 0
    if np.any(miss):
        for a, solved in zip(out, spheres(net, rows[miss])):
            a[miss] = solved
    return out


def _empty_spheres(n: int, rows, centers, radii, valid, dist, radius: float):
    """The valid rows of ``spheres`` with radius <= ``radius`` whose sphere
    is empty of other sites, in lexicographic order: (verts, centers, radii,
    regular)."""
    empty = valid & (radii <= radius) & (dist[:, 0] >= radii * (1.0 - EMPTY_RTOL))
    # an extra site within COSPHERICAL_RTOL*radius of a kept sphere's surface
    # makes n+2 cospherical sites; sites deeper inside fail the emptiness test
    regular = not bool(np.any(dist[empty, n + 1] <= radii[empty] * (1.0 + COSPHERICAL_RTOL)))
    keep = np.nonzero(empty)[0]
    keep = keep[np.lexsort(rows[keep].T[::-1])]
    return rows[keep], centers[keep], radii[keep], regular


def delaunay_top(net: Net):
    """Top simplices of the net's flat Delaunay complex with circumradius
    <= d2.

    Returns (verts, centers, radii, regular): sorted int64 vertex rows in
    lexicographic order, their circumcenters and radii, and False iff some
    kept sphere carries an extra site within COSPHERICAL_RTOL*radius of its
    surface.  The result is that of enumerating every (n+1)-subset of sites
    pairwise within 2*d2 and keeping the valid spheres of radius <= d2 with
    no site nearer their center than radius*(1 - EMPTY_RTOL).

    The candidates are Qhull's Delaunay simplices, read from ``Net.qhull``
    with their circles and nearest sites.  Why a regular Qhull result equals
    the enumeration set:

    * Every kept Qhull simplex is a sorted row whose vertices are pairwise
      within 2*radius <= 2*d2, and it passes the enumeration's tests,
      computed by the same row-wise batched solve: it is enumerated, with a
      bitwise-equal center.
    * Let S be enumerated.  If no other site lies within
      COSPHERICAL_RTOL*radius of S's sphere (EMPTY_RTOL < COSPHERICAL_RTOL,
      so this covers sites inside), all other sites are strictly outside
      it, S is a cell of the unique Delaunay subdivision, and Qhull returns
      S (its roundoff is far below COSPHERICAL_RTOL).  Otherwise S's sphere
      carries n+2 sites; Qhull triangulates their Delaunay cell with
      simplices sharing that small empty sphere, which are kept and fail
      regularity.

    Falls back to the enumeration of ``small_spheres`` when Qhull cannot
    triangulate the points (fewer than n+1 of them, all in a hyperplane, or
    dimension 1), when it sets coincident points aside, or when its result
    is not regular: the enumeration keeps every empty sphere of a
    cospherical configuration.
    """
    if net.qhull is not None:
        top = _empty_spheres(net.dim, *net.qhull, net.d2)
        if top[3]:
            return top
    rows = small_spheres(net, net.d2)[0]
    return _empty_spheres(net.dim, rows, *spheres(net, rows), net.d2)


def build_delaunay(net: Net, metric) -> DelaunayComplex:
    """Flat Delaunay complex of a net: every (n+1)-subset of sites whose
    circumscribed sphere has radius <= d2 and is empty of other sites
    (``delaunay_top``).  ``metric`` must be None or flat.
    """
    if metric is not None and metric.kind != "flat":
        raise ValidationError(f"the Delaunay complex is built in the flat metric "
                              f"only, not {metric.selector()}")
    return DelaunayComplex.from_arrays(net.dim, *delaunay_top(net))


@dataclass(frozen=True)
class DualityReport:
    """The verdict of ``check_duality``: its violations, the checks made, how
    the backward direction was decided (``method``, "tops" or
    "enumeration") and, after a fallback, the first failed condition of the
    tops certificate."""

    violations: tuple
    checked: int
    method: str = "enumeration"
    fallback: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


#: Shewchuk's bound on the rounding of the planar orientation determinant
#: (a - c) x (b - c): the computed value is within _ORIENT_ERR (|detleft| +
#: |detright|) of the exact one, so its sign is exact above that.
_ORIENT_ERR = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53


def orientations(pts: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """The exact sign (1, -1 or 0) of the orientation (y_1 - y_0) x
    (y_2 - y_0) of each planar row (y_0, y_1, y_2) of ``verts``: the float
    determinant where it exceeds its error bound (Shewchuk, "Adaptive
    precision floating-point arithmetic and fast robust geometric
    predicates", DCG 1997), a ``fractions.Fraction`` evaluation below it."""
    a, b, c = (pts[verts[:, k]] for k in range(3))
    left = (a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
    right = (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0])
    det = left - right
    sign = np.sign(det).astype(np.int64)
    for i in np.nonzero(np.abs(det) <= _ORIENT_ERR * (np.abs(left) + np.abs(right)))[0]:
        (ax, ay), (bx, by), (cx, cy) = ([Fraction(x) for x in p]
                                        for p in pts[verts[i]].tolist())
        exact = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
        sign[i] = (exact > 0) - (exact < 0)
    return sign


def _tops_failure(net: Net, verts: np.ndarray, interior: np.ndarray):
    """None when the tops certify the backward direction of duality
    (``check_duality``, conditions (1)-(4)); else the first failed
    condition, with its top, facet or site."""
    if net.dim != 2:
        return f"dimension {net.dim}: the tops certificate is planar"
    pts, d2 = net.points, net.d2
    unsorted = np.nonzero(np.any(verts[:, 1:] <= verts[:, :-1], axis=1))[0]
    if len(unsorted):
        return f"top {tuple(verts[unsorted[0]].tolist())} is not a strictly increasing row"
    # the float bounds: phi_c for radii up to R = 2 d2, T's depth alpha and
    # radius rho, and the lemma's t_B
    e1 = min(net.d1, net.closest_pair[0]) * (1.0 - 2.0 ** -40)
    cap = 2.0 * d2
    try:
        phi_c = cs.planar_center_error(e1, cap, float(np.max(np.abs(pts), initial=0.0)) + cap)
        if phi_c == math.inf:
            return f"no float bound on circles of radius <= {cap:.6g}"
        rho = d2 + phi_c
        alpha = MEMBERSHIP_RTOL * d2 + 2.0 * phi_c
        t_b = 4.0 * rho ** 2 * alpha / min(e1 * e1, v2_constant(e1, rho))
    except InvalidBudgetError as exc:  # a separation e1 not in (0, d2)
        return f"no separation bound: {exc}"
    # (1) recomputed circles: valid, radius <= d2, clearance > t_B + 2 phi_c
    _, radii, valid, dist = spheres(net, verts)
    small = valid & (radii <= d2)
    if not np.all(small):
        return f"top {tuple(verts[np.argmin(small)].tolist())} has no circle of radius <= d2"
    clearance = dist[:, 3] - radii - 2.0 * phi_c
    if len(verts) and not clearance.min() > t_b:
        i = int(np.argmin(clearance))
        return (f"top {tuple(verts[i].tolist())} has clearance {clearance[i]:.3g} "
                f"<= t_B = {t_b:.3g}")
    # (2) one or two parents per facet, the two of an inner facet on opposite
    # sides: the side of a parent is its orientation, negated when the vertex
    # off the facet is the row's middle one
    faces, count, parents = facets(verts)
    if np.any(count > 2):
        f = int(np.argmax(count > 2))
        return f"facet {tuple(faces[f].tolist())} has {count[f]} parents"
    sign = orientations(pts, verts)
    if np.any(sign == 0):
        return f"top {tuple(verts[np.argmin(np.abs(sign))].tolist())} is degenerate"
    inner = np.nonzero(count == 2)[0]
    side = []
    for k in range(2):
        rows = verts[parents[inner, k]]
        middle = (rows[:, 0] == faces[inner, 0]) & (rows[:, 1] != faces[inner, 1])
        side.append(np.where(middle, -1, 1) * sign[parents[inner, k]])
    same = side[0] == side[1]
    if np.any(same):
        f = inner[np.argmax(same)]
        return f"facet {tuple(faces[f].tolist())} has both parents on one side"
    # (4) no boundary facet at an interior site
    touch = (count == 1) & np.any(interior[faces], axis=1)
    if np.any(touch):
        return f"boundary facet {tuple(faces[np.argmax(touch)].tolist())} touches an interior site"
    # (3) the angles of the tops at each interior site sum to below 3 pi
    p = pts[verts]
    e, f = p[:, [1, 2, 0]] - p, p[:, [2, 0, 1]] - p
    angle = np.arctan2(np.abs(e[..., 0] * f[..., 1] - e[..., 1] * f[..., 0]),
                       np.einsum("tkd,tkd->tk", e, f))
    total = np.bincount(verts.ravel(), weights=angle.ravel(), minlength=len(pts))
    tops = np.bincount(verts.ravel(), minlength=len(pts))
    fan = ~interior | ((tops > 0) & (total < 3.0 * math.pi))
    if not np.all(fan):
        i = int(np.argmin(fan))
        return (f"the tops at interior site {i} do not close into a single fan "
                f"(angle sum {total[i]:.6g})")
    return None


def _forward_duality(net: Net, interior, verts, centers):
    """The forward direction of ``check_duality``: (violations, checks) of
    the stored centers of the tops with interior vertices."""
    fwd = np.nonzero(np.all(interior[verts], axis=1))[0]
    _, inside = _in_cells(net, verts[fwd], centers[fwd])
    violations = [("center_outside_cell", tuple(verts[fwd[j]].tolist()),
                   int(verts[fwd[j], np.argmin(inside[j])]))
                  for j in np.nonzero(~np.all(inside, axis=1))[0]]
    return violations, len(fwd)


def _in_cells(net: Net, verts, centers):
    """(nearest-site distance, per-vertex in-cell mask) of each center."""
    dmin, _ = net.tree.query(centers)
    dv = np.linalg.norm(net.points[verts] - centers[:, None, :], axis=2)
    return dmin, dv <= (dmin + MEMBERSHIP_RTOL * np.maximum(1.0, dmin))[:, None]


def check_duality(net: Net, complex_: DelaunayComplex) -> DualityReport:
    """Both directions of flat Voronoi/Delaunay duality on interior sites.

    Forward: the circumcenter of every kept top simplex (all vertices
    interior), as stored, lies in each incident Voronoi cell.  Backward:
    every local (n+1)-subset of interior sites whose circumsphere has radius
    <= d2 and whose circumcenter lies in all its cells, with no site inside
    the sphere, appears as a kept simplex.  "In a cell" means no farther
    from the site than from the nearest site, up to
    MEMBERSHIP_RTOL*max(1, distance); "no site inside" means none nearer
    the center than radius*(1 - MEMBERSHIP_RTOL).

    In the plane the backward direction is certified from the top rows
    (``method`` "tops"; ``checked`` counts the forward checks and the tops)
    when these conditions hold, in the style of Mehlhorn et al., "Checking
    geometric programs or verification of geometric structures", CGTA 1999:

    (1) every top's circle, recomputed by ``spheres`` from its vertex rows,
        is valid with radius <= d2, and its clearance (the distance from
        its center to the fourth-nearest site, minus its radius) exceeds
        t_B + 2 phi_c (below);
    (2) through ``facets``, the rows are strictly increasing, every facet
        has one or two parents, and the two parents of an inner facet lie
        on opposite sides of it, read from each top's exact orientation
        (``orientations``);
    (3) every interior site is a vertex of a top, and its tops close into a
        single fan: their angles at the site sum to less than 3 pi;
    (4) no boundary facet (one parent) touches an interior site.

    Otherwise, or when n != 2, every local subset is enumerated
    (``duality_by_enumeration``, ``method`` "enumeration", ``fallback``
    naming the first failed condition).

    Why (1)-(4) leave the enumeration no missing simplex.  Let e1 = min(d1,
    separation) (1 - 2^-40), the separation's rounding covered, and phi_c
    = ``circumsphere.planar_center_error`` for radii up to R = 2 d2, as in
    step 3 of ``netsynth.certify_family_stability``: a triangle of sites
    with computed radius <= d2 has
    exact radius <= rho = d2 + phi_c (its exact radius is |a| |b| |a - b| /
    2 |det U| >= e1^3 / 2 |det U|, and det U is computed within gamma_2 |a|
    |b|), and its computed center, radius and distances from that center
    are within phi_c of the exact ones.  So a triangle T the enumeration
    flags (interior sites, not a top, computed radius <= d2, no site nearer
    its computed center than r (1 - MEMBERSHIP_RTOL)) has exact radius r_T
    <= rho, sides >= e1 and no site deeper in its circle than alpha =
    MEMBERSHIP_RTOL d2 + 2 phi_c.  By (1) each top S has exact radius r_S
    in [e1/2, rho], |det U_S| >= v2 = ``v2_constant(e1, rho)``, and every
    site off S lies farther than r_S + t_B from its center: the sites
    within the computed fourth distance - phi_c of it are at most three,
    S's vertices among them.  In particular no site lies in a closed top
    but its vertices.
    Lifting (step 3's lemma, with that alpha): with pi_X(x) = 2 c_X.x +
    r_X^2 - |c_X|^2, the plane of X's lifted circle, h = pi_T - pi_S is
    affine, 0 at a common vertex, h(y) = power_S(y) >= 2 r_S t_S at a
    vertex of T off S (t_S > t_B its clearance) and h(y) = -power_T(y) <=
    2 r_T alpha at a vertex of S off T.  So at a point x of S and T whose
    barycentric weights in T on T's vertices off S sum to L,
    2 r_S t_S L <= h(x) <= 2 r_T alpha, and t_S <= r_T alpha / (r_S L).
    Cover: at an interior site v, (4) gives every facet at v two parents,
    on opposite sides by (2), so the tops at v fall into cycles through
    their facets at v, each turning one way about v with angles (in (0,
    pi), (2)'s signs being nonzero) summing to 2 pi k, k >= 1.  The sum of
    (3), computed within 2^-40 per angle, leaves one cycle with k = 1, whose
    closed sectors cover every direction at v.
    So a vertex v of T has a top S != T whose open sector at v meets T's.
    Either the sectors are equal, or an edge (v, p) of one lies strictly
    inside the other's sector:
    (a) T's edge (v, a) inside S's: a is outside S, so va leaves S through
        the edge opposite v at x, |x - v| >= |det U_S| / 2 r_S; L >= |x -
        v| / |a - v| >= |det U_S| / 4 r_S r_T, t_S <= 4 r_T^2 alpha /
        |det U_S|.
    (b) S's edge (v, s) inside T's, S = (v, s, w): if w is a vertex of T,
        S and T share the edge vw and s lies on the side of T's third
        vertex y; h vanishes on line vw, so h(s) / dist(s) = h(y) / dist(y)
        with dist(s) = |det U_S| / |v - w| and dist(y) <= 2 r_T: t_S <= 4
        r_T^2 alpha / |det U_S|.  Else, if s is in T, x = s has L = 1 -
        lambda_v >= |s - v| / 2 r_T >= e1 / 2 r_T: t_S <= 2 r_T^2 alpha /
        r_S e1.  Else vs leaves T through the edge opposite v, where L =
        1: t_S <= r_T alpha / r_S.
    (c) Equal sectors: T's vertices lie on the rays of S's; a site strictly
        between v and a vertex of S would lie in S, and a vertex s of S
        strictly between v and a vertex a of T lies in T with L >= |s - v|
        / |a - v| >= e1 / 2 r_T, as in (b); else S = T.
    Each bound is at most t_B = 4 rho^2 alpha / min(e1^2, v2), against
    t_S > t_B: no T exists, the backward direction holds, and the verdict
    is the forward one, the enumeration's.
    """
    interior = net.interior_mask()
    verts, centers, _ = complex_.top_arrays(net.dim)
    failed = _tops_failure(net, verts, interior)
    if failed is not None:
        return replace(duality_by_enumeration(net, complex_), fallback=failed)
    violations, checked = _forward_duality(net, interior, verts, centers)
    return DualityReport(violations=tuple(violations), checked=checked + len(verts),
                         method="tops")


def duality_by_enumeration(net: Net, complex_: DelaunayComplex) -> DualityReport:
    """``check_duality`` with the backward direction enumerated: every
    candidate of the ``small_spheres`` enumeration, not Qhull's, so the
    check is independent of the builder.  Each block of ``_local_subsets``
    is solved and tested as it comes, so the small spheres are never held
    at once.  ``checked`` counts the forward checks and the candidates of
    interior sites that are not tops.  The fallback of ``check_duality``
    and the oracle its tops certificate is tested against."""
    interior = net.interior_mask()
    verts, centers, _ = complex_.top_arrays(net.dim)
    violations, checked = _forward_duality(net, interior, verts, centers)
    for block in _local_subsets(net, 2.0 * net.d2):
        rows, c, r = _sphere_rows(net.points, block, net.d2)
        new = np.nonzero(np.all(interior[rows], axis=1)
                         & (row_index(rows, verts, len(net)) < 0))[0]
        dmin, inside = _in_cells(net, rows[new], c[new])
        # in all n+1 cells and no site inside => the subset had an empty sphere
        missing = np.all(inside, axis=1) & (dmin >= r[new] * (1.0 - MEMBERSHIP_RTOL))
        violations.extend(("missing_simplex", tuple(row), None)
                          for row in rows[new[missing]].tolist())
        checked += len(new)
    return DualityReport(violations=tuple(violations), checked=checked)


def barycentric_coordinates(simplex_pts, q) -> np.ndarray:
    """Barycentric coordinates of each point of a (k, n) stack q with respect
    to the matching n-simplex of a (k, n+1, n) stack: shape (k, n+1).  Each
    row is one LAPACK solve of the simplex's edge system, so its bits do not
    depend on the rest of the stack."""
    p = np.asarray(simplex_pts, dtype=float)
    a = np.swapaxes(p[:, :-1] - p[:, -1:], 1, 2)
    rhs = np.asarray(q, dtype=float) - p[:, -1]
    lam = np.linalg.solve(a, rhs[..., None])[..., 0]
    return np.concatenate([lam, 1.0 - np.sum(lam, axis=1, keepdims=True)], axis=1)


def locate(points: np.ndarray, verts: np.ndarray, samples: np.ndarray,
           sites: np.ndarray):
    """The top simplex containing each sample, and the sample's barycentric
    coordinates in it: (simplex, bary) of shapes (g,) and (g, n+1).

    ``verts`` are the (t, n+1) vertex rows of the top simplices, ``samples``
    the (g, n) query points and ``sites`` a (g, k) array of candidate sites
    per sample.  A sample's simplices are scanned through the simplicial
    cones of its candidate sites in the given order, each cone in the order
    of ``verts``; the first simplex whose coordinates are all >= -1e-12
    contains it.  A sample that escapes every scanned cone gets simplex -1
    and NaN coordinates.  The scan runs one candidate rank at a time over
    the samples still unlocated, with one batched solve per rank.
    """
    # the cones as one incidence list: cone[start[j]:start[j+1]] holds the
    # simplices containing site j, in the order of verts
    cone = np.argsort(verts.ravel(), kind="stable") // verts.shape[1]
    start = np.concatenate([[0], np.cumsum(np.bincount(verts.ravel(),
                                                       minlength=len(points)))])
    simplex = np.full(len(samples), -1, dtype=np.int64)
    bary = np.full((len(samples), verts.shape[1]), np.nan)
    todo = np.arange(len(samples))
    for rank in range(sites.shape[1]):
        j = sites[todo, rank]
        deg = start[j + 1] - start[j]
        parent = np.repeat(np.arange(len(todo)), deg)
        tops = cone[np.arange(len(parent)) + np.repeat(start[j] - np.cumsum(deg) + deg, deg)]
        b = barycentric_coordinates(points[verts[tops]], samples[todo[parent]])
        hit = np.nonzero(np.all(b >= -1e-12, axis=1))[0]
        hit = hit[np.unique(parent[hit], return_index=True)[1]]  # first per sample
        simplex[todo[parent[hit]]] = tops[hit]
        bary[todo[parent[hit]]] = b[hit]
        todo = todo[simplex[todo] < 0]
    return simplex, bary
