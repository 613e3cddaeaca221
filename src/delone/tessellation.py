"""Voronoi cells, Delaunay complexes, duality, and geometric realization.

Nets are separated/dense point sets in a compact region.  The Delaunay
complex is built in the flat metric only; a curved metric enters through
the Voronoi cells' distance oracle and the geodesic-cone realization.  The
top simplices of the Delaunay complex come from one kernel,
``delaunay_top``: Qhull's Delaunay triangulation (Barber, Dobkin &
Huhdanpaa, "The Quickhull algorithm for convex hulls", ACM TOMS 1996,
through ``scipy.spatial.Delaunay``), restricted to the simplices whose
circumscribed sphere has radius at most d2 and is empty of other sites.
When the net is regular (no n+2 sites cospherical) the Delaunay
triangulation is unique, so this equals the set of all empty small spheres.
When it is not, or Qhull cannot triangulate the input, the kernel falls back
to enumerating every (n+1)-subset of sites pairwise within 2*d2, which keeps
all empty spheres of a cospherical configuration.  That enumeration
(``small_spheres``, vectorized from one ``cKDTree.query_pairs``) is also the
independent oracle of ``check_duality`` and of the certifier's near-miss
search.  Lower-dimensional simplices
are the faces of the kept top simplices, each inheriting a witness sphere.
Geometric realization is the iterated geodesic-cone map in vertex-creation
order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from . import circumsphere as cs
from .circumsphere import CircumSphere
from .errors import DegenerateError, UnsupportedDimError, ValidationError

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
    region: object = None  # duck-typed: boundary_distance(points), grid(h)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    def __len__(self):
        return len(self.points)

    def check_separation(self) -> float:
        """Exact minimum pairwise distance (metric of the ambient chart)."""
        p = self.points
        if len(p) < 2:
            return np.inf
        d, _ = cKDTree(p).query(p, k=2)
        return float(np.min(d[:, 1]))

    def check_density(self, resolution: float) -> float:
        """Max distance from a region grid sample to the net: the d2-density
        of the paper's (d1, d2)-net, sampled at ``resolution``."""
        if self.region is None:
            return 0.0
        grid = np.asarray(self.region.grid(resolution), dtype=float)
        if grid.size == 0:
            return 0.0
        d, _ = cKDTree(self.points).query(grid)
        return float(np.max(d))

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
    simplices_by_dim: dict  # k -> list[Simplex], sorted by vertex tuple
    regular: bool

    def top(self, n: int):
        return self.simplices_by_dim.get(n, [])

    def all_simplices(self):
        for k in sorted(self.simplices_by_dim):
            yield from self.simplices_by_dim[k]


@dataclass(frozen=True)
class VoronoiCell:
    site: int
    neighbor_sites: tuple
    halfspaces: tuple | None  # ((a, b), ...) meaning a.x <= b; None if curved
    boundary: bool


def nearest_site(q, net: Net, metric):
    """(index, distance) of a nearest site; ties broken by lowest index."""
    if metric is None or getattr(metric, "kind", "flat") == "flat":
        d = np.linalg.norm(net.points - np.asarray(q, dtype=float), axis=1)
    else:
        d = np.array([metric.distance(q, p) for p in net.points])
    i = int(np.argmin(d))  # argmin returns the first (lowest-index) minimizer
    return i, float(d[i])


def voronoi_cell(net: Net, i: int, metric) -> VoronoiCell:
    """The paper's Voronoi cell of net point i: the points no farther from
    it than from any other net point.  Neighbor list from the 4*d2 locality
    bound, plus a halfspace list in the flat metric (None otherwise)."""
    p = net.points
    site = p[i]
    flat = metric is None or metric.kind == "flat"
    if flat:
        d = np.linalg.norm(p - site, axis=1)
    else:
        d = np.array([metric.distance(site, q) for q in p])
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


def _cell_vertices_flat(net: Net, i: int, rtol: float = MEMBERSHIP_RTOL):
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


def star_neighborhood(net: Net, i: int) -> set:
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
                   np.nonzero(dv <= dmin + MEMBERSHIP_RTOL * max(1.0, dmin))[0])
    return out


#: Rows per block of the enumeration and of ``small_spheres``: bounds the
#: temporary arrays to a few MiB whatever the net's size.
_BLOCK = 4096


def _local_subsets(points: np.ndarray, n: int, reach: float) -> np.ndarray:
    """Sorted (n+1)-tuples of indices pairwise within ``reach``, as an
    integer array of shape (M, n+1) in lexicographic order.

    The pairs i < j within reach come from one ``cKDTree.query_pairs``
    call.  They form each site's list of higher neighbours, and a tuple is
    grown one vertex at a time from its least vertex i: the next vertex is
    a later member of i's list, and its squared distance to every other
    vertex of the tuple, summed by ``einsum``, must be at most reach^2.
    Blocks of _BLOCK consecutive pairs are grown one after another.
    """
    m = len(points)
    if m < n + 1:
        return np.zeros((0, n + 1), dtype=np.int64)
    pairs = cKDTree(points).query_pairs(reach, output_type="ndarray").astype(np.int64)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    nbr = pairs[:, 1]
    end = np.searchsorted(pairs[:, 0], np.arange(m), side="right")
    r2 = reach * reach
    out = [np.zeros((0, n + 1), dtype=np.int64)]
    for lo in range(0, len(pairs), _BLOCK):
        rows = pairs[lo:lo + _BLOCK]
        pos = np.arange(lo, lo + len(rows))  # the last vertex's place in nbr
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
        out.append(rows)
    return np.concatenate(out)


def _rows_in(rows: np.ndarray, kept: np.ndarray, m: int) -> np.ndarray:
    """For each index row, whether it is a row of ``kept`` (indices < m),
    tested on one integer key per row; where m^k would overflow int64, on
    ``np.unique`` row ids instead (some 30 times slower)."""
    k = rows.shape[1]
    if m ** k < 2 ** 63:
        w = m ** np.arange(k - 1, -1, -1, dtype=np.int64)
        return np.isin(rows @ w, kept @ w)
    ids = np.unique(np.vstack([kept, rows]), axis=0, return_inverse=True)[1].ravel()
    return np.isin(ids[len(kept):], ids[:len(kept)])


def _sphere_rows(pts: np.ndarray, rows: np.ndarray, radius: float):
    """The rows whose circumsphere is valid and of radius <= radius, in
    their given order: (rows, centers, radii)."""
    centers, radii, valid = cs.circumcenter_batch(pts[rows])
    keep = valid & (radii <= radius)
    return rows[keep], centers[keep], radii[keep]


def _maybe_small(pts: np.ndarray, rows: np.ndarray, radius: float) -> np.ndarray:
    """The planar rows that may have a circumsphere of radius <= radius,
    by the closed form R = |u||v||u - v| / 2|det[u; v]| (u, v the edges to
    the last vertex).  A row is dropped only when R > radius (1 + 1e-9) and
    |det| >= 1e-4 cb^2, cb the longer edge: such a row has condition number
    at most 2e4, so its solved radius and R agree to far better than 1e-9
    relative, and the solve would drop it too.  Flatter rows are kept."""
    u = pts[rows[:, 0]] - pts[rows[:, 2]]
    v = pts[rows[:, 1]] - pts[rows[:, 2]]
    w = u - v
    uu, vv = np.einsum("ij,ij->i", u, u), np.einsum("ij,ij->i", v, v)
    det = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    sides = np.sqrt(uu * vv * np.einsum("ij,ij->i", w, w))
    return rows[(sides <= 2.0 * radius * (1.0 + 1e-9) * det)
                | (det < 1e-4 * np.maximum(uu, vv))]


def small_spheres(points, n: int, radius: float):
    """Every (n+1)-subset of sites whose circumsphere is valid and of
    radius <= ``radius``: (rows, centers, radii), the rows sorted and in
    lexicographic order, each center bitwise the one ``circumcenter_batch``
    gives the row on its own.  The candidates are the ``_local_subsets``
    within 2*radius, solved in blocks of _BLOCK rows, and in the plane
    thinned first by ``_maybe_small``.
    """
    pts = np.asarray(points, dtype=float)
    rows = _local_subsets(pts, n, 2.0 * radius)
    parts = [_sphere_rows(pts, rows[:0], radius)]
    for lo in range(0, len(rows), _BLOCK):
        block = rows[lo:lo + _BLOCK]
        parts.append(_sphere_rows(pts, _maybe_small(pts, block, radius) if n == 2
                                  else block, radius))
    rows = block = None  # the candidates go before the kept rows are joined
    return tuple(np.concatenate(col) for col in zip(*parts))


def _qhull_simplices(pts: np.ndarray):
    """Qhull's Delaunay simplices as sorted int64 rows, or None when Qhull
    cannot triangulate the points or sets coincident points aside."""
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


def sphere_neighbours(points: np.ndarray, centers: np.ndarray, n: int) -> np.ndarray:
    """Distances from each center to its n+2 nearest sites, shape
    (len(centers), n+2), inf where the net has fewer sites.  For the
    circumsphere of n+1 sites, column 0 is the emptiness test and column n+1
    is the nearest site off the sphere: its clearance, and the cospherical
    test."""
    d, _ = cKDTree(points).query(centers, k=n + 2)
    return d


def _empty_spheres(pts: np.ndarray, rows: np.ndarray, centers: np.ndarray,
                   radii: np.ndarray, tol_cocirc: float):
    """The rows whose sphere is empty of other sites, in lexicographic
    order: (verts, centers, radii, regular)."""
    n = pts.shape[1]
    if not len(rows):
        return rows, np.zeros((0, n)), np.zeros(0), True
    d = sphere_neighbours(pts, centers, n)
    empty = d[:, 0] >= radii * (1.0 - EMPTY_RTOL)
    # an extra site within tol*radius of a kept sphere's surface makes n+2
    # cospherical sites; sites deeper inside fail the emptiness test
    regular = not bool(np.any(d[empty, n + 1] <= radii[empty] * (1.0 + tol_cocirc)))
    keep = np.nonzero(empty)[0]
    keep = keep[np.lexsort(rows[keep].T[::-1])]
    return rows[keep], centers[keep], radii[keep], regular


def delaunay_top(points, d2: float, tol_cocirc: float = COSPHERICAL_RTOL):
    """Top simplices of the flat Delaunay complex with circumradius <= d2.

    Returns (verts, centers, radii, regular): sorted int64 vertex rows in
    lexicographic order, their circumcenters and radii, and False iff some
    kept sphere carries an extra site within tol_cocirc*radius of its
    surface.  The result is that of enumerating every (n+1)-subset of sites
    pairwise within 2*d2 and keeping the valid spheres of radius <= d2 with
    no site nearer their center than radius*(1 - EMPTY_RTOL).

    The candidates are Qhull's Delaunay simplices.  Why a regular Qhull
    result equals the enumeration set:

    * Every kept Qhull simplex is a sorted row whose vertices are pairwise
      within 2*radius <= 2*d2, and it passes the enumeration's tests,
      computed by the same row-wise batched solve: it is enumerated, with a
      bitwise-equal center.
    * Let S be enumerated.  If no other site lies within tol_cocirc*radius
      of S's sphere (EMPTY_RTOL < tol_cocirc, so this covers sites inside),
      all other sites are strictly outside it, S is a cell of the unique
      Delaunay subdivision, and Qhull returns S (its roundoff is far below
      tol_cocirc).  Otherwise S's sphere carries n+2 sites; Qhull
      triangulates their Delaunay cell with simplices sharing that small
      empty sphere, which are kept and fail regularity.

    Falls back to the enumeration of ``small_spheres`` when Qhull cannot
    triangulate the points (fewer than n+1 of them, all in a hyperplane, or
    dimension 1), when it sets coincident points aside, or when its result
    is not regular: the enumeration keeps every empty sphere of a
    cospherical configuration.
    """
    pts = np.asarray(points, dtype=float)
    rows = _qhull_simplices(pts)
    if rows is not None:
        top = _empty_spheres(pts, *_sphere_rows(pts, rows, d2), tol_cocirc)
        if top[3]:
            return top
    return _empty_spheres(pts, *small_spheres(pts, pts.shape[1], d2), tol_cocirc)


def _face_closure(top: list, n: int) -> dict:
    """{k: sorted simplices} for k = n..0: the top simplices and all their
    faces, each face inheriting the witness sphere of its first parent."""
    by_dim = {n: top}
    for k in range(n - 1, -1, -1):
        seen = {}
        for s in by_dim[k + 1]:
            for face in itertools.combinations(s.vertices, k + 1):
                seen.setdefault(face, s.sphere)
        by_dim[k] = [Simplex(f, sph) for f, sph in sorted(seen.items())]
    return by_dim


def build_delaunay(net: Net, metric, tol_cocirc: float | None = None) -> DelaunayComplex:
    """Flat Delaunay complex of a net: every (n+1)-subset of sites whose
    circumscribed sphere has radius <= d2 and is empty of other sites
    (``delaunay_top``), closed under faces.  ``metric`` must be None or flat.
    """
    if metric is not None and metric.kind != "flat":
        raise ValidationError(f"the Delaunay complex is built in the flat metric "
                              f"only, not {metric.selector()}")
    tol = COSPHERICAL_RTOL if tol_cocirc is None else tol_cocirc
    verts, centers, radii, regular = delaunay_top(net.points, net.d2, tol)
    top = [Simplex(vertices=tuple(row), sphere=CircumSphere(center=c, radius=float(r)))
           for row, c, r in zip(verts.tolist(), centers, radii)]
    return DelaunayComplex(simplices_by_dim=_face_closure(top, net.dim),
                           regular=regular)


@dataclass(frozen=True)
class DualityReport:
    violations: tuple
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def check_duality(net: Net, complex_: DelaunayComplex,
                  rtol: float = MEMBERSHIP_RTOL) -> DualityReport:
    """Both directions of flat Voronoi/Delaunay duality on interior sites.

    Forward: the circumcenter of every kept top simplex (all vertices
    interior) lies in each incident Voronoi cell.  Backward: every local
    (n+1)-subset of interior sites whose circumsphere has radius <= d2 and
    whose circumcenter lies in all its cells, with no site inside the
    sphere, appears as a kept simplex.  The backward candidates come from
    the ``small_spheres`` enumeration, not from Qhull, so the check is
    independent of the builder.  "In a cell" means no farther from the
    site than from the nearest site, up to rtol*max(1, distance).
    """
    n = net.dim
    pts = net.points
    interior = net.interior_mask()
    tree = cKDTree(pts)
    violations = []

    def in_cells(verts, centers):
        """(nearest-site distance, per-vertex in-cell mask) of each center."""
        dmin, _ = tree.query(centers)
        dv = np.linalg.norm(pts[verts] - centers[:, None, :], axis=2)
        return dmin, dv <= (dmin + rtol * np.maximum(1.0, dmin))[:, None]

    top = complex_.top(n)
    verts = np.array([s.vertices for s in top], dtype=np.int64).reshape(-1, n + 1)
    centers = np.array([s.sphere.center for s in top], dtype=float).reshape(-1, n)
    fwd = np.nonzero(np.all(interior[verts], axis=1))[0]
    _, inside = in_cells(verts[fwd], centers[fwd])
    for j in np.nonzero(~np.all(inside, axis=1))[0]:
        s = top[fwd[j]]
        violations.append(("center_outside_cell", s.vertices,
                           int(verts[fwd[j], np.argmin(inside[j])])))

    rows, c, r = small_spheres(pts, n, net.d2)
    new = np.nonzero(np.all(interior[rows], axis=1)
                     & ~_rows_in(rows, verts, len(pts)))[0]
    dmin, inside = in_cells(rows[new], c[new])
    # in all n+1 cells and no site inside => the subset had an empty sphere
    missing = np.all(inside, axis=1) & (dmin >= r[new] * (1.0 - rtol))
    violations.extend(("missing_simplex", tuple(row), None)
                      for row in rows[new[missing]].tolist())
    return DualityReport(violations=tuple(violations),
                         checked=len(fwd) + len(new))


def simplicial_cone(complex_: DelaunayComplex, i: int):
    """All top simplices containing site i."""
    n = max(complex_.simplices_by_dim) if complex_.simplices_by_dim else 0
    return [s for s in complex_.top(n) if i in s.vertices]


def barycentric_coordinates(simplex_pts: np.ndarray, q) -> np.ndarray:
    """Barycentric coordinates of q w.r.t. an n-simplex in R^n."""
    p = np.asarray(simplex_pts, dtype=float)
    a = (p[:-1] - p[-1]).T
    lam = np.linalg.solve(a, np.asarray(q, dtype=float) - p[-1])
    return np.append(lam, 1.0 - float(np.sum(lam)))


def check_filling(net: Net, complex_: DelaunayComplex, i: int,
                  samples: int = 200, rng=None, rtol: float = 1e-9) -> bool:
    """The paper's filling property of a Delaunay triangulation, sampled: the
    Voronoi cell of site i is covered by the realized simplices of its
    simplicial cone (the top simplices containing i)."""
    rng = np.random.default_rng(0) if rng is None else rng
    cone = simplicial_cone(complex_, i)
    if not cone:
        return False
    pts = net.points
    site = pts[i]
    got = 0
    tries = 0
    while got < samples and tries < 100 * samples:
        tries += 1
        q = site + rng.uniform(-net.d2, net.d2, size=net.dim)
        j, _ = nearest_site(q, net, None)
        if j != i:
            continue
        got += 1
        inside = False
        for s in cone:
            bary = barycentric_coordinates(pts[list(s.vertices)], q)
            if np.all(bary >= -rtol):
                inside = True
                break
        if not inside:
            return False
    return True


def realize_simplex(s: Simplex, metric, bary, vertex_points) -> np.ndarray:
    """The paper's geometric realization of a Delaunay simplex, as the
    iterated geodesic cone, evaluated at barycentric coordinates.

    vertex_points are the vertex positions in creation order (matching
    s.vertices).  In the flat metric this is the affine combination; in
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
        return metric.exp(base, wk * metric.log(base, verts[-1]))
    return cone(b, v)
