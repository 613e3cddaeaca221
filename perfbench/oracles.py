"""Checks on the program's outputs that do not reuse the program's logic.

Every geometric reference here comes from scipy (Qhull through
``scipy.spatial.Delaunay``, nearest neighbours through ``cKDTree``; Barber,
Dobkin & Huhdanpaa, "The Quickhull algorithm for convex hulls", ACM TOMS
1996) or from closed-form planar formulas written out below.  Each check
returns a list of human-readable problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import Delaunay, cKDTree


def circumcircles(tri: np.ndarray):
    """Centers and radii of the (m, 3, 2) triangles, by the planar formula."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, ac = b - a, c - a
    d = 2.0 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    nb = np.einsum("ij,ij->i", ab, ab)
    nc = np.einsum("ij,ij->i", ac, ac)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = (ac[:, 1] * nb - ab[:, 1] * nc) / d
        uy = (ab[:, 0] * nc - ac[:, 0] * nb) / d
    centers = a + np.stack([ux, uy], axis=1)
    return centers, np.hypot(ux, uy)


def qhull_top_set(points: np.ndarray, d2: float) -> set:
    """Sorted vertex triples of the Qhull triangulation with circumradius
    at most d2: the flat Delaunay complex restricted to small spheres."""
    simp = np.sort(Delaunay(points).simplices, axis=1)
    _, radii = circumcircles(points[simp])
    return set(map(tuple, simp[radii <= d2].tolist()))


def compare_top_sets(got: set, want: set, label: str) -> list:
    if got == want:
        return []
    missing = sorted(want - got)[:3]
    extra = sorted(got - want)[:3]
    return [f"{label}: {len(want - got)} Qhull triangles missing (e.g. {missing}), "
            f"{len(got - want)} extra (e.g. {extra})"]


def separation(points: np.ndarray, d1: float) -> list:
    d, _ = cKDTree(points).query(points, k=2)
    sep = float(np.min(d[:, 1]))
    return [] if sep >= d1 else [f"separation {sep!r} < d1 = {d1!r}"]


def density(points: np.ndarray, lo, hi, h: float, d2: float) -> list:
    """Sound density bound over the box [lo, hi]: every point of the box is
    within half a cell diagonal of a grid node, so the largest node-to-net
    distance plus that allowance bounds the distance of any box point."""
    axes, steps = [], []
    for a, b in zip(lo, hi):
        cells = max(1, math.ceil((b - a) / h))
        axes.append(np.linspace(a, b, cells + 1))
        steps.append((b - a) / cells)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))
    dist, _ = cKDTree(points).query(grid)
    bound = float(np.max(dist)) + 0.5 * math.hypot(*steps)
    return [] if bound <= d2 else [f"density bound {bound!r} > d2 = {d2!r}"]


def empty_spheres(points: np.ndarray, verts: np.ndarray, centers: np.ndarray,
                  radii: np.ndarray, rtol: float = 1e-9) -> list:
    """Each recorded sphere passes through its vertices and no site lies
    closer to its center than they do."""
    if not len(verts):
        return []
    problems = []
    vd = np.linalg.norm(points[verts] - centers[:, None, :], axis=2)
    off = np.abs(vd - radii[:, None]) > rtol * radii[:, None]
    if np.any(off):
        problems.append(f"{int(np.sum(np.any(off, axis=1)))} spheres miss a vertex")
    dmin, _ = cKDTree(points).query(centers)
    closer = dmin < np.min(vd, axis=1) * (1.0 - rtol)
    if np.any(closer):
        i = int(np.argmax(closer))
        problems.append(f"{int(np.sum(closer))} spheres hold a site closer than "
                        f"their vertices, e.g. {verts[i].tolist()}")
    return problems


def construction_margins(points: np.ndarray, tops: set, clear_min: float,
                         rho_min: float) -> list:
    """Clearance (nearest non-vertex site minus radius) and properly-ordered
    robustness (min of |v1 - v0| and the height of v2 over line v0 v1) of
    every top triangle, against the floors the synthesizer guarantees."""
    if not tops:
        return []
    verts = np.array(sorted(tops), dtype=np.int64)
    tri = points[verts]
    centers, radii = circumcircles(tri)
    d, _ = cKDTree(points).query(centers, k=4)
    clearance = float(np.min(d[:, 3] - radii))
    ab, ac = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    lab = np.linalg.norm(ab, axis=1)
    height = np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]) / lab
    rho = float(np.min(np.minimum(lab, height)))
    problems = []
    if clearance < clear_min:
        problems.append(f"clearance {clearance!r} < {clear_min!r}")
    if rho < rho_min:
        problems.append(f"robustness {rho!r} < {rho_min!r}")
    return problems


def product_structure(ps, points: np.ndarray, d2: float, displacements: dict,
                      rF: float) -> list:
    """Every table entry recomputed independently.  Each grid sample is
    located in the Qhull triangulation, which must put it in a triangle of
    circumradius at most d2.  Its image under parameter p must be moved from
    the sample by that triangle's vertex displacements at Qhull's barycentric
    coordinates, so the table is the piecewise-linear map of the translated
    complex and agrees across shared faces.

    The displacements are of size eps0 rF (about 1e-12 rF with the default
    bundle), so a tolerance of 1e-9 rF would pass any table near the
    identity.  The displacement of each entry is compared instead, to within
    8 units in the last place of the largest coordinate: the rounding of
    forming sites plus displacements and of the barycentric sum.
    Injectivity and the class sizes are recomputed from the table."""
    problems = []
    params = list(displacements)
    values = list(ps.table.values())
    if len(values) != len(ps.grid) * len(params):
        return [f"table has {len(values)} entries, want {len(ps.grid) * len(params)}"]
    if len(set(values)) != len(values):
        problems.append("product structure is not injective")
    sizes = {len({ps.table[(gi, p)] for p in params}) for gi in range(len(ps.grid))}
    if sizes != {len(params)}:
        problems.append(f"class sizes {sorted(sizes)} != {{{len(params)}}}")
    if ps.face_agreement_max > 1e-9 * rF:
        problems.append(f"reported face agreement {ps.face_agreement_max!r} > 1e-9 rF")

    tri = Delaunay(points)
    grid = np.asarray(ps.grid, dtype=float)
    simplex = tri.find_simplex(grid)
    if np.any(simplex < 0):
        return problems + [f"{int(np.sum(simplex < 0))} grid samples outside the hull"]
    verts = tri.simplices[simplex]
    _, radii = circumcircles(points[verts])
    if np.any(radii > d2):
        problems.append(f"{int(np.sum(radii > d2))} grid samples in Qhull "
                        "triangles of circumradius > d2")
    T = tri.transform[simplex]
    lam = np.einsum("ijk,ik->ij", T[:, :2, :], grid - T[:, 2, :])
    bary = np.column_stack([lam, 1.0 - lam.sum(axis=1)])
    tol = 8.0 * float(np.spacing(max(np.max(np.abs(points)), np.max(np.abs(grid)))))
    worst, where = 0.0, None
    for p in params:
        want = np.einsum("ij,ijk->ik", bary, displacements[p][verts])
        got = np.array([ps.table[(gi, p)] for gi in range(len(grid))]) - grid
        err = np.linalg.norm(got - want, axis=1)
        if float(np.max(err)) > worst:
            worst, where = float(np.max(err)), (int(np.argmax(err)), p)
    if worst > tol:
        problems.append(f"table entry {where} is displaced {worst!r} away from the "
                        f"Qhull simplex interpolation (tolerance {tol!r})")
    return problems
