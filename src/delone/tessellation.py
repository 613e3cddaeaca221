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
(``small_spheres``, vectorized from one ``cKDTree.query_pairs``) is also the
independent oracle of ``check_duality``, which takes it one block at a
time; the certifier's near-miss pass reads Qhull's whole triangulation
through ``qhull_simplices``.  Both branches take every center from
``circumsphere.circumcenter_batch``, whose rows do not depend on the batch,
so they give equal bits.
The complex is pure and stored by its top simplices alone, which determine
every face (Boissonnat, Karthik & Tavenas, "Building efficient and compact
data structures for simplicial complexes", Algorithmica 2017).  Consumers
read the tops as arrays through ``DelaunayComplex.top_arrays``, and
codimension-1 faces with their parents come from one kernel, ``facets``.
Point location has one kernel, ``locate``: it finds the top simplex that
contains each of a batch of points, and the point's barycentric coordinates
in it, scanning the simplicial cones of given candidate sites with batched
``barycentric_coordinates`` solves.  The product structure uses it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import circumsphere as cs
from .circumsphere import CircumSphere
from .errors import ValidationError

#: Relative tolerance for cell-membership and duality point location.
MEMBERSHIP_RTOL = 1e-9

#: Relative margin used by the empty-sphere filter during construction.
EMPTY_RTOL = 1e-12

#: Relative band around a sphere inside which an extra site makes the
#: configuration cospherical (not regular).
COSPHERICAL_RTOL = 1e-9


@dataclass(frozen=True)
class Net:
    """A d1-separated point set that is d2-dense in its region."""

    dim: int
    points: np.ndarray  # (m, dim)
    d1: float
    d2: float
    region: object = None  # a netsynth.Region, or None

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    def __len__(self):
        return len(self.points)

    def closest_pair(self):
        """(distance, i, j): the exact least distance between two sites
        (metric of the ambient chart), with i the first site attaining it
        and j its nearest; (inf, None, None) below two sites.  Queried once
        per net object, which keeps the result."""
        if "_closest_pair" not in self.__dict__:
            p = self.points
            pair = (np.inf, None, None)
            if len(p) >= 2:
                from scipy.spatial import cKDTree

                d, j = cKDTree(p).query(p, k=2)
                i = int(np.argmin(d[:, 1]))
                pair = (float(d[i, 1]), i, int(j[i, 1]))
            object.__setattr__(self, "_closest_pair", pair)
        return self._closest_pair

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


@dataclass(frozen=True)
class DelaunayComplex:
    """A pure complex, stored by its top simplices only."""

    simplices_by_dim: dict  # n -> list[Simplex], sorted by vertex tuple
    regular: bool

    @classmethod
    def from_arrays(cls, n: int, verts, centers, radii, regular: bool):
        """The complex of the top simplices given as arrays, in their order."""
        top = [Simplex(vertices=tuple(row), sphere=CircumSphere(center=c, radius=r))
               for row, c, r in zip(verts.tolist(), centers, radii.tolist())]
        return cls(simplices_by_dim={n: top}, regular=regular)

    def top(self, n: int):
        return self.simplices_by_dim.get(n, [])

    def top_arrays(self, n: int):
        """The top simplices as arrays (verts, centers, radii): int64 vertex
        rows (t, n+1), circumcenters (t, n) and radii (t,)."""
        top = self.top(n)
        verts = np.array([s.vertices for s in top], dtype=np.int64).reshape(-1, n + 1)
        centers = np.array([s.sphere.center for s in top], dtype=float).reshape(-1, n)
        radii = np.array([s.sphere.radius for s in top], dtype=float)
        return verts, centers, radii


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


def _local_subsets(points: np.ndarray, n: int, reach: float):
    """Sorted (n+1)-tuples of indices pairwise within ``reach``, yielded as
    int64 blocks of shape (<= _BLOCK, n+1) whose rows, joined, are every
    such tuple once, in lexicographic order.

    The pairs i < j within reach come from one ``cKDTree.query_pairs``
    call.  They form each site's list of higher neighbours, and a tuple is
    grown one vertex at a time from its least vertex i: the next vertex is
    a later member of i's list, and its squared distance to every other
    vertex of the tuple, summed by ``einsum``, must be at most reach^2.
    Blocks of consecutive pairs are grown one after another, each with
    about _BLOCK pairs and first-step candidates in all (a pair's
    candidates are the later members of its least vertex's list), and each
    grown block is yielded in slices of _BLOCK rows: a consumer that
    handles one block at a time holds only the pairs and one block.
    """
    from scipy.spatial import cKDTree

    m = len(points)
    if m < n + 1:
        return
    pairs = cKDTree(points).query_pairs(reach, output_type="ndarray").astype(np.int64)
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


def rows_in(rows: np.ndarray, kept: np.ndarray, m: int) -> np.ndarray:
    """For each index row, whether it is a row of ``kept`` (indices < m),
    tested on one integer key per row by a binary search in the sorted keys
    of ``kept``, which is cheap for the lexicographic blocks of
    ``check_duality``; where m^k would overflow int64, on ``np.unique`` row
    ids instead (much slower)."""
    k = rows.shape[1]
    if m ** k < 2 ** 63:
        w = m ** np.arange(k - 1, -1, -1, dtype=np.int64)
        keys, q = np.sort(kept @ w), rows @ w
        at = np.searchsorted(keys, q)
        hit = at < len(keys)
        hit[hit] = keys[at[hit]] == q[hit]
        return hit
    ids = np.unique(np.vstack([kept, rows]), axis=0, return_inverse=True)[1].ravel()
    return np.isin(ids[len(kept):], ids[:len(kept)])


def _sphere_rows(pts: np.ndarray, rows: np.ndarray, radius: float):
    """The rows whose circumsphere is valid and of radius <= radius, in
    their given order: (rows, centers, radii)."""
    centers, radii, valid = cs.circumcenter_batch(pts[rows])
    keep = valid & (radii <= radius)
    return rows[keep], centers[keep], radii[keep]


def small_spheres(points, n: int, radius: float):
    """Every (n+1)-subset of sites whose circumsphere is valid and of
    radius <= ``radius``: (rows, centers, radii), the rows sorted and in
    lexicographic order, each center bitwise the one ``circumcenter_batch``
    gives the row on its own.  The candidates are the ``_local_subsets``
    within 2*radius, solved one block at a time.
    """
    pts = np.asarray(points, dtype=float)
    # a leading empty block gives the joined columns their shapes
    blocks = itertools.chain([np.zeros((0, n + 1), dtype=np.int64)],
                             _local_subsets(pts, n, 2.0 * radius))
    parts = [_sphere_rows(pts, rows, radius) for rows in blocks]
    return tuple(np.concatenate(col) for col in zip(*parts))


def qhull_simplices(pts: np.ndarray):
    """Qhull's Delaunay simplices as sorted int64 rows, or None when Qhull
    cannot triangulate the points or sets coincident points aside."""
    from scipy.spatial import Delaunay, QhullError

    n = pts.shape[1]
    if n < 2 or len(pts) < n + 1:  # Qhull triangulates in dimension >= 2
        return None
    try:
        tri = Delaunay(pts)
    except QhullError:  # all points in a hyperplane
        return None
    if len(tri.coplanar):
        return None
    return np.sort(tri.simplices, axis=1).astype(np.int64)


def sphere_neighbours(points: np.ndarray, centers: np.ndarray, n: int):
    """Distances from each center to its n+2 nearest sites and their
    indices, both of shape (len(centers), n+2); inf distances where the net
    has fewer sites.  For the circumsphere of n+1 sites, column 0 is the
    emptiness test and column n+1 is the nearest site off the sphere: its
    clearance, and the cospherical test."""
    from scipy.spatial import cKDTree

    return cKDTree(points).query(centers, k=n + 2)


def _empty_spheres(pts: np.ndarray, rows: np.ndarray, centers: np.ndarray,
                   radii: np.ndarray):
    """The rows whose sphere is empty of other sites, in lexicographic
    order: (verts, centers, radii, regular)."""
    n = pts.shape[1]
    if not len(rows):
        return rows, np.zeros((0, n)), np.zeros(0), True
    d = sphere_neighbours(pts, centers, n)[0]
    empty = d[:, 0] >= radii * (1.0 - EMPTY_RTOL)
    # an extra site within COSPHERICAL_RTOL*radius of a kept sphere's surface
    # makes n+2 cospherical sites; sites deeper inside fail the emptiness test
    regular = not bool(np.any(d[empty, n + 1] <= radii[empty] * (1.0 + COSPHERICAL_RTOL)))
    keep = np.nonzero(empty)[0]
    keep = keep[np.lexsort(rows[keep].T[::-1])]
    return rows[keep], centers[keep], radii[keep], regular


def delaunay_top(points, d2: float):
    """Top simplices of the flat Delaunay complex with circumradius <= d2.

    Returns (verts, centers, radii, regular): sorted int64 vertex rows in
    lexicographic order, their circumcenters and radii, and False iff some
    kept sphere carries an extra site within COSPHERICAL_RTOL*radius of its
    surface.  The result is that of enumerating every (n+1)-subset of sites
    pairwise within 2*d2 and keeping the valid spheres of radius <= d2 with
    no site nearer their center than radius*(1 - EMPTY_RTOL).

    The candidates are Qhull's Delaunay simplices.  Why a regular Qhull
    result equals the enumeration set:

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
    pts = np.asarray(points, dtype=float)
    rows = qhull_simplices(pts)
    if rows is not None:
        top = _empty_spheres(pts, *_sphere_rows(pts, rows, d2))
        if top[3]:
            return top
    return _empty_spheres(pts, *small_spheres(pts, pts.shape[1], d2))


def build_delaunay(net: Net, metric) -> DelaunayComplex:
    """Flat Delaunay complex of a net: every (n+1)-subset of sites whose
    circumscribed sphere has radius <= d2 and is empty of other sites
    (``delaunay_top``).  ``metric`` must be None or flat.
    """
    if metric is not None and metric.kind != "flat":
        raise ValidationError(f"the Delaunay complex is built in the flat metric "
                              f"only, not {metric.selector()}")
    return DelaunayComplex.from_arrays(net.dim, *delaunay_top(net.points, net.d2))


@dataclass(frozen=True)
class DualityReport:
    violations: tuple
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def check_duality(net: Net, complex_: DelaunayComplex) -> DualityReport:
    """Both directions of flat Voronoi/Delaunay duality on interior sites.

    Forward: the circumcenter of every kept top simplex (all vertices
    interior) lies in each incident Voronoi cell.  Backward: every local
    (n+1)-subset of interior sites whose circumsphere has radius <= d2 and
    whose circumcenter lies in all its cells, with no site inside the
    sphere, appears as a kept simplex.  The backward candidates are those
    of the ``small_spheres`` enumeration, not Qhull's, so the check is
    independent of the builder; each block of ``_local_subsets`` is solved
    and tested as it comes, so the small spheres are never held at once.
    "In a cell" means no farther from the site than from the nearest site,
    up to MEMBERSHIP_RTOL*max(1, distance).
    """
    from scipy.spatial import cKDTree

    n = net.dim
    pts = net.points
    interior = net.interior_mask()
    tree = cKDTree(pts)
    violations = []

    def in_cells(verts, centers):
        """(nearest-site distance, per-vertex in-cell mask) of each center."""
        dmin, _ = tree.query(centers)
        dv = np.linalg.norm(pts[verts] - centers[:, None, :], axis=2)
        return dmin, dv <= (dmin + MEMBERSHIP_RTOL * np.maximum(1.0, dmin))[:, None]

    verts, centers, _ = complex_.top_arrays(n)
    fwd = np.nonzero(np.all(interior[verts], axis=1))[0]
    _, inside = in_cells(verts[fwd], centers[fwd])
    for j in np.nonzero(~np.all(inside, axis=1))[0]:
        violations.append(("center_outside_cell", tuple(verts[fwd[j]].tolist()),
                           int(verts[fwd[j], np.argmin(inside[j])])))

    checked = len(fwd)
    for block in _local_subsets(pts, n, 2.0 * net.d2):
        rows, c, r = _sphere_rows(pts, block, net.d2)
        new = np.nonzero(np.all(interior[rows], axis=1)
                         & ~rows_in(rows, verts, len(pts)))[0]
        dmin, inside = in_cells(rows[new], c[new])
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
