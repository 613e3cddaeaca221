import ast
import dataclasses
import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import scalar_barycentric
from scipy.spatial import cKDTree

from delone import circumsphere as cs
from delone import jsonio, paper
from delone import tessellation as tess
from delone.errors import UnsupportedDimError, ValidationError
from delone.metrics import MetricModel


def _lattice(k):
    """(2k+1)^2 integer lattice centered at the origin."""
    axis = np.arange(-k, k + 1, dtype=float)
    return np.array([[x, y] for x in axis for y in axis])


def _net(points, d1, d2, region=None, dim=2):
    return tess.Net(dim=dim, points=np.asarray(points, dtype=float),
                    d1=d1, d2=d2, region=region)


SQUARE_CENTER = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                          [0.5, 0.5]])


class TestNet:
    def test_separation(self):
        net = _net(SQUARE_CENTER, 0.3, 0.6)
        sep, i, j = net.closest_pair
        assert sep == pytest.approx(math.sqrt(0.5))
        assert i == 0 and j == 4  # the first site at the least distance, and its nearest

    def test_density_without_region(self):
        net = _net(SQUARE_CENTER, 0.3, 0.6)
        assert paper.check_density(net, 0.1) == 0.0

    def test_density_with_region(self):
        from delone import netsynth as nsy

        region = nsy.Region.box([0.0, 0.0], [1.0, 1.0])
        net = _net(SQUARE_CENTER, 0.3, 0.6, region=region)
        # farthest grid point from the five sites: midpoints of the edges
        assert paper.check_density(net, 0.05) <= 0.5 + 1e-9

    def test_points_are_a_read_only_value(self):
        # Net.tree and Net.qhull cache the sites: a site moved in place
        # would leave their circles stale, so the net keeps its own copy
        pts = SQUARE_CENTER.copy()
        net = _net(pts, 0.1, 1.0)
        with pytest.raises(ValueError):
            net.points[0, 0] = 9.0
        pts[0, 0] = 9.0
        assert net.points[0, 0] == 0.0 and pts.flags.writeable
        assert dataclasses.replace(net).points is net.points  # read-only and its own
        view = pts.view()
        view.flags.writeable = False
        assert not np.shares_memory(_net(view, 0.1, 1.0).points, pts)

    def test_interior_mask(self):
        from delone import netsynth as nsy

        region = nsy.Region.box([0.0, 0.0], [1.0, 1.0])
        net = _net(SQUARE_CENTER, 0.3, 0.4, region=region)
        mask = net.interior_mask()
        assert list(mask) == [False, False, False, False, True]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["box", "disk"]), st.integers(0, 2**32 - 1),
           st.floats(0.01, 0.3))
    def test_interior_mask_matches_per_site_loop(self, kind, seed, d2):
        """Bit for bit the per-site loop it replaced, on sites placed within
        a few ulp of inward distance d2 from the boundary."""
        from delone import netsynth as nsy

        rng = np.random.default_rng(seed)
        c = rng.uniform(-5.0, 5.0, 2)
        r = rng.uniform(1.0, 3.0)
        theta = rng.uniform(0.0, 2.0 * math.pi, 200)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ulps = rng.integers(-4, 5, (200, 1))
        if kind == "box":
            region = nsy.Region.box(c - r, c + r)
            # one coordinate at d2 inside a random side, the other inside
            pts = c + rng.uniform(-0.5, 0.5, (200, 2)) * r
            axis = rng.integers(0, 2, 200)
            side = rng.choice([-1.0, 1.0], 200)
            edge = c[axis] + side * (r - d2)
            pts[np.arange(200), axis] = edge + ulps[:, 0] * np.spacing(edge)
        else:
            region = nsy.Region.disk(c, r)
            rho = (r - d2) + ulps * np.spacing(r - d2)
            pts = c + rho * u

        def loop_distance(p):
            if kind == "box":
                lo, hi = region.bounds
                return float(min(np.min(p - lo), np.min(hi - p)))
            return float(r - np.linalg.norm(p - c))

        want = np.array([loop_distance(p) >= d2 for p in pts])
        net = _net(pts, d2 / 2.0, d2, region=region)
        assert np.array_equal(net.interior_mask(), want)
        assert 0 < want.sum() < len(want)  # both sides of the threshold occur


class TestVoronoiCell:
    def test_lattice_origin_cell_is_unit_square(self):
        net = _net(_lattice(2), 0.9, 0.8)
        i = int(np.argmin(np.linalg.norm(net.points, axis=1)))
        cell = paper.voronoi_cell(net, i, None)
        assert cell.halfspaces is not None
        # the four nearest-neighbor halfspaces cut the square |x|,|y| <= 0.5
        for q, inside in (([0.3, 0.3], True), ([0.49, -0.49], True),
                          ([0.6, 0.0], False), ([0.0, -0.7], False)):
            sat = all(np.dot(a, q) <= b + 1e-12 for a, b in cell.halfspaces)
            assert sat == inside

    def test_two_point_bisector(self):
        net = _net([[0.0, 0.0], [1.0, 0.0]], 0.9, 0.8)
        cell = paper.voronoi_cell(net, 0, None)
        assert cell.neighbor_sites == (1,)
        (a, b), = cell.halfspaces
        # bisector: x = 0.5
        assert np.dot(a, [0.5, 7.0]) == pytest.approx(b)

    def test_membership_matches_nearest_site(self):
        rng = np.random.default_rng(0)
        net = _net(_lattice(2), 0.9, 0.8)
        for _ in range(200):
            q = rng.uniform(-1.4, 1.4, size=2)
            i = int(np.argmin(np.linalg.norm(net.points - q, axis=1)))
            cell = paper.voronoi_cell(net, i, None)
            # halfspace test agrees with the distance test
            assert all(np.dot(a, q) <= b + 1e-9 for a, b in cell.halfspaces)


class TestStarNeighborhood:
    def test_lattice_center(self):
        net = _net(_lattice(2), 0.9, 0.8)
        i = int(np.argmin(np.linalg.norm(net.points, axis=1)))
        star = paper.star_neighborhood(net, i)
        assert i in star
        assert len(star) == 9  # self + 8 surrounding lattice sites

    def test_members_within_3d2(self):
        net = _net(SQUARE_CENTER, 0.3, 0.6)
        for i in range(len(net)):
            for j in paper.star_neighborhood(net, i):
                assert np.linalg.norm(net.points[i] - net.points[j]) <= 3 * net.d2

    def test_planar_only(self):
        net = _net(np.eye(3), 0.5, 1.5, dim=3)
        with pytest.raises(UnsupportedDimError):
            paper.star_neighborhood(net, 0)


class TestBuildDelaunay:
    def test_curved_metric_rejected(self):
        net = _net(SQUARE_CENTER, 0.3, 0.6)
        with pytest.raises(ValidationError, match="flat metric only"):
            tess.build_delaunay(net, MetricModel.sphere(1.0))

    def test_square_plus_center(self):
        net = _net(SQUARE_CENTER, 0.3, 0.6)
        cx = tess.build_delaunay(net, None)
        tops = cx.top(2)
        assert len(tops) == 4
        assert all(4 in s.vertices for s in tops)
        assert cx.regular

    def test_single_triangle_with_faces(self):
        net = _net([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 0.5, 0.8)
        cx = tess.build_delaunay(net, None)
        assert list(cx.simplices_by_dim) == [2]  # the top simplices only
        assert len(cx.top(2)) == 1
        assert cx.top(2)[0].sphere.radius == pytest.approx(math.sqrt(2) / 2)
        faces, count, parents = tess.facets(cx.top_arrays(2)[0])
        assert faces.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert count.tolist() == [1, 1, 1]
        assert parents.tolist() == [[0, -1]] * 3

    def test_cocircular_square_irregular(self):
        net = _net([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 0.5, 0.75)
        cx = tess.build_delaunay(net, None)
        assert not cx.regular

    def test_perturbed_square_regular(self):
        net = _net([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0 + 1e-3]],
                   0.5, 0.76)
        cx = tess.build_delaunay(net, None)
        assert cx.regular
        assert len(cx.top(2)) == 2

    def test_empty_spheres_hold(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pts = _poisson(rng, 25, 0.18)
            net = _net(pts, 0.15, 0.35)
            cx = tess.build_delaunay(net, None)
            for s in cx.top(2):
                others = np.delete(pts, list(s.vertices), axis=0)
                d = np.linalg.norm(others - s.sphere.center, axis=1)
                assert np.all(d >= s.sphere.radius * (1.0 - 1e-9))

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = _poisson(rng, 20, 0.2)
            net = _net(pts, 0.15, 0.4)
            cx = tess.build_delaunay(net, None)
            got = {s.vertices for s in cx.top(2)}
            ref = set()
            for combo in itertools.combinations(range(len(pts)), 3):
                try:
                    sph = cs.circumcenter(pts[list(combo)])
                except Exception:
                    continue
                if sph.radius > net.d2:
                    continue
                d = np.linalg.norm(pts - sph.center, axis=1)
                if np.all(d >= sph.radius * (1.0 - 1e-12)):
                    ref.add(combo)
            assert got == ref


def _local_subsets_loop(points, n, reach):
    """The former per-site enumeration, kept as the reference of the
    vectorized ``_local_subsets``: for each site i, its ball-query
    neighbours j > i in ascending order, and every n-combination of them
    pairwise within reach by an einsum distance test."""
    tree = cKDTree(points)
    neigh = tree.query_ball_point(points, reach)
    chunks = []
    r2 = reach * reach
    for i, cand in enumerate(neigh):
        above = np.array(sorted(j for j in cand if j > i), dtype=np.int64)
        if len(above) < n:
            continue
        sub = points[above]
        diff = sub[:, None, :] - sub[None, :, :]
        close = np.einsum("abk,abk->ab", diff, diff) <= r2
        if n == 2:
            a, b = np.nonzero(np.triu(close, 1))
            if len(a):
                chunks.append(np.column_stack([
                    np.full(len(a), i, dtype=np.int64), above[a], above[b]]))
        else:
            rows = [
                (i, *(int(above[c]) for c in combo))
                for combo in itertools.combinations(range(len(above)), n)
                if all(close[a][b] for a, b in itertools.combinations(combo, 2))
            ]
            if rows:
                chunks.append(np.array(rows, dtype=np.int64))
    if not chunks:
        return np.zeros((0, n + 1), dtype=np.int64)
    return np.vstack(chunks)


def _joined_subsets(points, n, reach):
    """The blocks of ``_local_subsets`` joined into one (M, n+1) array."""
    return np.concatenate([np.zeros((0, n + 1), dtype=np.int64),
                           *tess._local_subsets(_net(points, 0.0, 0.0, dim=n), reach)])


class TestLocalSubsets:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3]),
           st.integers(min_value=0, max_value=30),
           st.sampled_from(["uniform", "grid", "pair"]))
    def test_matches_per_site_loop(self, seed, n, count, kind):
        rng = np.random.default_rng(seed)
        if kind == "grid":
            # a quarter-unit grid with repeats: many pairs exactly reach apart
            pts = rng.integers(0, 6, (count, n)) * 0.25
            reach = float(rng.choice([0.25, 0.5, 1.0]))
        else:
            pts = rng.uniform(0.0, 1.0, (count, n))
            reach = float(rng.uniform(0.2, 0.7))
            if kind == "pair" and count >= 2:  # one pair exactly reach apart
                reach = float(np.linalg.norm(pts[0] - pts[1]))
        want = _local_subsets_loop(pts, n, reach)
        # blocks of at most _BLOCK rows, joined in order
        for block in (7, tess._BLOCK):
            with mock.patch.object(tess, "_BLOCK", block):
                blocks = list(tess._local_subsets(_net(pts, 0.0, 0.0, dim=n), reach))
            assert all(0 < len(b) <= block for b in blocks)
            got = np.concatenate([np.zeros((0, n + 1), dtype=np.int64), *blocks])
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_row_membership_keys(self):
        # int64 keys, and the np.unique ids used when m^k would overflow
        # them: each row's first position in kept, -1 for a row not in it
        rng = np.random.default_rng(4)
        kept = np.sort(rng.integers(0, 9, (12, 3)), axis=1)
        kept[7] = kept[2]  # a row held twice
        rows = np.vstack([kept[7], kept[::3], np.sort(rng.integers(0, 9, (20, 3)), axis=1),
                          kept[2, ::-1]])
        held = kept.tolist()
        want = [held.index(r) if r in held else -1 for r in rows.tolist()]
        assert want[0] == 2 and want[-1] == -1
        assert tess.row_index(rows, kept, 9).tolist() == want
        assert tess.row_index(rows, kept, 2 ** 40).tolist() == want
        assert tess.row_index(rows, kept[:0], 9).tolist() == [-1] * len(rows)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3]))
    def test_small_spheres_blocked_equals_unblocked(self, seed, n):
        # radius exactly some triple's, and near-collinear triples, so rows
        # sit on both sides of the radius cut and of the degeneracy floor;
        # blocks of 5 rows, in the enumeration and in the solves, must give
        # the bits of one solve over every enumerated row
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, (int(rng.integers(3, 25)), n))
        line = pts[0] + np.outer(rng.uniform(0.0, 0.5, 4), rng.standard_normal(n))
        pts = np.vstack([pts, line + 1e-9 * rng.standard_normal((4, n))])
        radius = float(cs.circumcenter_batch(pts[None, :n + 1])[1][0])
        if not 0.0 < radius < 1.0:
            radius = 0.4
        with mock.patch.object(tess, "_BLOCK", 5):
            got = tess.small_spheres(_net(pts, 0.0, radius, dim=n), radius)
        want = tess._sphere_rows(pts, _joined_subsets(pts, n, 2.0 * radius), radius)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)  # bitwise


def _poisson(rng, count, min_sep):
    pts = []
    tries = 0
    while len(pts) < count and tries < 400 * count:
        tries += 1
        p = rng.uniform(0.0, 1.0, size=2)
        if all(np.linalg.norm(p - q) >= min_sep for q in pts):
            pts.append(p)
    return np.array(pts)


def _all_subsets_top(pts, d2):
    """Brute-force reference for ``delaunay_top``: every (n+1)-subset of all
    sites, no locality pruning and no Qhull, with each emptiness and
    regularity test made against every site."""
    n = pts.shape[1]
    rows = np.array(list(itertools.combinations(range(len(pts)), n + 1)),
                    dtype=np.int64).reshape(-1, n + 1)
    if not len(rows):
        return rows, np.zeros((0, n)), np.zeros(0), True
    centers, radii, valid = cs.circumcenter_batch(pts[rows])
    keep, regular = [], True
    for j in np.nonzero(valid & (radii <= d2))[0]:
        d = np.sort(np.linalg.norm(pts - centers[j], axis=1))
        if d[0] >= radii[j] * (1.0 - tess.EMPTY_RTOL):
            keep.append(j)
            if len(d) > n + 1 and d[n + 1] <= radii[j] * (1.0 + tess.COSPHERICAL_RTOL):
                regular = False
    keep = np.array(keep, dtype=np.int64)
    return rows[keep], centers[keep], radii[keep], regular


def _enumeration_top(pts, d2):
    """The kernel's enumeration path on its own."""
    n = pts.shape[1]
    rows = _joined_subsets(pts, n, 2.0 * d2)
    return tess._empty_spheres(n, rows, *tess.spheres(_net(pts, 0.0, d2, dim=n), rows), d2)


def _kernel_case(kind, rng):
    """(points, d2) of one input family for the kernel property test."""
    if kind == "poisson":
        return _poisson(rng, int(rng.integers(4, 25)), 0.15), 0.35
    if kind == "jittered":
        return _lattice(2) + 0.05 * rng.standard_normal((25, 2)), 0.9
    if kind == "square":  # every unit square is cocircular
        return _lattice(int(rng.integers(1, 3))) * 0.5 + rng.uniform(-1, 1, 2), 0.375
    if kind == "duplicate":
        pts = _poisson(rng, int(rng.integers(4, 16)), 0.15)
        return np.vstack([pts, pts[int(rng.integers(len(pts)))]]), 0.35
    if kind == "poisson3d":
        return rng.uniform(0.0, 1.0, (int(rng.integers(5, 16)), 3)), 0.6
    raise ValueError(kind)


def _assert_same_top(got, want):
    verts, centers, radii, regular = got
    assert verts.dtype == np.int64
    assert np.array_equal(verts, want[0])
    assert np.array_equal(centers, want[1])  # bitwise
    assert np.array_equal(radii, want[2])
    assert regular == want[3]


class TestDelaunayKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["poisson", "jittered", "square", "duplicate",
                            "poisson3d"]))
    def test_matches_brute_force_and_enumeration(self, seed, kind):
        pts, d2 = _kernel_case(kind, np.random.default_rng(seed))
        got = tess.delaunay_top(_net(pts, 0.0, d2, dim=pts.shape[1]))
        _assert_same_top(got, _all_subsets_top(pts, d2))
        _assert_same_top(got, _enumeration_top(pts, d2))
        if kind == "square" and len(got[0]):
            assert not got[3]

    @pytest.mark.parametrize("pts", [
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],  # collinear: Qhull refuses
        [[0.0, 0.0], [1.0, 0.0]],  # fewer than n+1 points
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],  # n+1 points
    ])
    def test_small_inputs(self, pts):
        pts = np.array(pts)
        got = tess.delaunay_top(_net(pts, 0.0, 0.8))
        _assert_same_top(got, _all_subsets_top(pts, 0.8))
        _assert_same_top(got, _enumeration_top(pts, 0.8))

    def test_regular_input_skips_enumeration(self, monkeypatch):
        rng = np.random.default_rng(11)
        pts = _lattice(3) + 0.05 * rng.standard_normal((49, 2))
        want = _enumeration_top(pts, 0.9)
        calls = []
        monkeypatch.setattr(tess, "_local_subsets",
                            lambda *a: calls.append(a) or np.zeros((0, 3), np.int64))
        _assert_same_top(tess.delaunay_top(_net(pts, 0.0, 0.9)), want)
        assert calls == []

    @pytest.mark.parametrize("pts", [
        _lattice(2).astype(float),  # cospherical squares
        np.vstack([_lattice(2), [[0.0, 0.0]]]).astype(float),  # coincident
    ])
    def test_irregular_input_falls_back(self, pts, monkeypatch):
        calls = []
        enumerate_ = tess._local_subsets
        monkeypatch.setattr(tess, "_local_subsets",
                            lambda *a: calls.append(a) or enumerate_(*a))
        tess.delaunay_top(_net(pts, 0.0, 0.75))
        assert len(calls) == 1


class TestSpheres:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3]))
    def test_pieces_equal_the_whole_batch(self, seed, n):
        # Net.qhull's rows and every caller's rows come through one batch;
        # byte-identical artifacts need each row's bits free of its batch
        rng = np.random.default_rng(seed)
        net = _net(rng.uniform(0.0, 1.0, (int(rng.integers(n + 1, 30)), n)), 0.0, 0.5,
                   dim=n)
        rows = rng.integers(0, len(net), (int(rng.integers(0, 60)), n + 1))
        rows[: len(rows) // 4, 1] = rows[: len(rows) // 4, 0]  # degenerate rows
        whole = tess.spheres(net, rows)
        cuts = np.sort(rng.integers(0, len(rows) + 1, int(rng.integers(0, 6))))
        pieces = [tess.spheres(net, part) for part in np.split(rows, cuts)]
        for k, col in enumerate(whole):
            joined = np.concatenate([p[k] for p in pieces])
            assert joined.dtype == col.dtype and joined.shape == col.shape
            assert joined.tobytes() == col.tobytes()
        valid, dist = whole[2:]
        assert dist.shape == (len(rows), n + 2)
        assert np.all(dist[~valid] == -np.inf) and not np.any(valid[: len(rows) // 4])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3]),
           st.booleans())
    def test_known_spheres_are_the_rows_solved(self, seed, n, flat):
        # Qhull's rows are read from Net.qhull, permuted rows and other
        # tuples (degenerate ones, with NaN centers, among them) are solved,
        # and sites in a hyperplane (no Net.qhull) solve every row
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, (int(rng.integers(n + 1, 30)), n))
        if flat:
            pts[:, -1] = 0.5 * pts[:, 0]
        net = _net(pts, 0.0, 0.5, dim=n)
        assert (net.qhull is None) == flat
        qhull = np.zeros((0, n + 1), dtype=np.int64) if flat else net.qhull[0]
        picked = qhull[rng.integers(0, len(qhull), int(rng.integers(0, 40)))] \
            if len(qhull) else qhull
        other = rng.integers(0, len(net), (int(rng.integers(0, 20)), n + 1))
        other[: len(other) // 3, 1] = other[: len(other) // 3, 0]
        rows = np.vstack([picked, rng.permuted(picked, axis=1), other])
        rows = rows[rng.permutation(len(rows))]
        got, want = tess.known_spheres(net, rows), tess.spheres(net, rows)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True) and g.tobytes() == w.tobytes()


def _enumeration_complex(net):
    """The flat complex as built by enumerating every local subset, with
    its own regularity test: the builder's reference."""
    n = net.dim
    pts = net.points
    subsets = _joined_subsets(pts, n, 2.0 * net.d2)
    keep = np.zeros(len(subsets), dtype=bool)
    centers, radii = np.zeros((0, n)), np.zeros(0)
    if len(subsets):
        centers, radii, valid = cs.circumcenter_batch(pts[subsets])
        idx = np.nonzero(valid & (radii <= net.d2))[0]
        if idx.size:
            dmin, _ = cKDTree(pts).query(centers[idx])
            keep[idx[dmin >= radii[idx] * (1.0 - tess.EMPTY_RTOL)]] = True
    order = np.lexsort(subsets[keep].T[::-1])
    verts, centers, radii = subsets[keep][order], centers[keep][order], radii[keep][order]
    # regular: no site off a kept sphere within 1e-9 * radius of it
    regular = True
    if len(verts):
        d = tess.spheres(net, verts)[3]
        regular = not bool(np.any(d[:, n + 1] <= radii * (1.0 + 1e-9)))
    return tess.DelaunayComplex.from_arrays(n, verts, centers, radii, regular)


class TestTopSimplices:
    """The complex keeps its top arrays; ``Simplex`` entries and slices are
    views made when they are read."""

    def test_entries_and_slices_equal_the_arrays(self):
        net = _net(_poisson(np.random.default_rng(14), 25, 0.15), 0.15, 0.35)
        verts, centers, radii = tess.delaunay_top(net)[:3]
        cx = tess.DelaunayComplex.from_arrays(2, verts, centers, radii, True)
        assert all(a is b for a, b in zip(cx.top_arrays(2), (verts, centers, radii)))
        top = cx.top(2)
        assert len(top) == len(verts) > 4
        for i in (0, 3, -1):
            s = top[i]
            assert s.vertices == tuple(verts[i].tolist())
            assert type(s.vertices[0]) is int
            assert s.sphere.center.tobytes() == centers[i].tobytes()
            assert s.sphere.radius == radii[i]
        part = top[1:4]
        assert isinstance(part, tess.TopSimplices)
        assert np.array_equal(part.verts, verts[1:4])
        assert np.array_equal(part.centers, centers[1:4])
        assert np.array_equal(part.radii, radii[1:4])
        assert [s.vertices for s in part] == [tuple(r) for r in verts[1:4].tolist()]
        with pytest.raises(IndexError):
            top[len(verts)]

    def test_replace_with_a_slice_drops_the_first_row(self, small_complex):
        # the contract of perfbench's dropped-simplex check
        cx = dataclasses.replace(small_complex,
                                 simplices_by_dim={2: small_complex.top(2)[1:]})
        for got, want in zip(cx.top_arrays(2), small_complex.top_arrays(2)):
            assert np.array_equal(got, want[1:])

    def test_absent_dimension_is_empty_arrays(self):
        cx = tess.DelaunayComplex.from_arrays(
            2, np.zeros((0, 3), dtype=np.int64), np.zeros((0, 2)), np.zeros(0), True)
        verts, centers, radii = cx.top_arrays(3)
        assert verts.shape == (0, 4) and verts.dtype == np.int64
        assert centers.shape == (0, 3) and radii.shape == (0,)
        assert len(cx.top(3)) == 0 and list(cx.top(2)) == []


def _reference_facets(verts):
    """{face: parent rows} of the codimension-1 faces, by the itertools face
    loop over the top simplices, faces sorted and parents in row order."""
    by_face = {}
    for t, row in enumerate(verts.tolist()):
        for face in itertools.combinations(row, len(row) - 1):
            by_face.setdefault(face, []).append(t)
    return dict(sorted(by_face.items()))


class TestFacets:
    def _complexes(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            yield _net(_poisson(rng, 25, 0.15), 0.15, 0.35)
        yield _net(_lattice(2), 0.9, 0.75)  # cospherical squares: 4 parents
        yield _net(rng.uniform(0.0, 1.0, (14, 3)), 0.01, 0.6, dim=3)
        angle = 2.0 * math.pi * np.arange(5) / 5  # cospherical pentagon: 3 parents
        yield _net(np.column_stack([np.cos(angle), np.sin(angle)]), 0.5, 1.1)

    def test_matches_the_face_loop(self):
        seen = set()
        for net in self._complexes():
            verts = tess.build_delaunay(net, None).top_arrays(net.dim)[0]
            want = _reference_facets(verts)
            faces, count, parents = tess.facets(verts)
            assert [tuple(f) for f in faces.tolist()] == list(want)
            assert count.tolist() == [len(p) for p in want.values()]
            assert parents.tolist() == [(p + [-1])[:2] for p in want.values()]
            seen.update(count.tolist())
        assert {1, 2, 3, 4} <= seen

    def test_no_tops(self):
        faces, count, parents = tess.facets(np.zeros((0, 3), dtype=np.int64))
        assert faces.shape == (0, 2) and count.shape == (0,) and parents.shape == (0, 2)


def test_only_tessellation_reads_simplex_fields():
    """Outside ``tessellation``, no module of the package reads ``.vertices``
    or ``.sphere`` off a Simplex: consumers take ``top_arrays``, so the
    complex's storage is known in one module.  A called attribute of that
    name (``MetricModel.sphere(R)``) is a constructor, not a field read."""
    found = []
    for path in sorted(Path(tess.__file__).resolve().parent.glob("*.py")):
        if path.name == "tessellation.py":
            continue
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("vertices", "sphere")
                  and id(node) not in called]
    assert not found


def _complex_bytes(cx, dim):
    return jsonio.dumps(jsonio.complex_to_dict(cx, dim))


class TestBuilderArtifacts:
    def test_byte_equal_to_enumeration(self):
        rng = np.random.default_rng(12)
        nets = [_net(_poisson(rng, 25, 0.15), 0.15, 0.35) for _ in range(5)]
        nets.append(_net(_lattice(2), 0.9, 0.75))  # irregular: fallback
        nets.append(_net(rng.uniform(0.0, 1.0, (14, 3)), 0.01, 0.6, dim=3))
        for net in nets:
            cx = tess.build_delaunay(net, None)
            assert _complex_bytes(cx, net.dim) == \
                _complex_bytes(_enumeration_complex(net), net.dim)

    def test_synthesized_net_byte_equal(self, small_net_pack, small_complex):
        net = small_net_pack["net"]
        assert small_complex.regular
        assert _complex_bytes(small_complex, 2) == \
            _complex_bytes(_enumeration_complex(net), 2)


class TestDuality:
    def test_square_plus_center_ok(self):
        net = _net(SQUARE_CENTER, 0.3, 0.6)
        cx = tess.build_delaunay(net, None)
        rep = tess.check_duality(net, cx)
        assert rep.ok
        assert rep.checked > 0

    def test_perturbed_lattice_ok(self):
        rng = np.random.default_rng(4)
        pts = _lattice(2) + 0.05 * rng.standard_normal((25, 2))
        net = _net(pts, 0.7, 0.9)
        cx = tess.build_delaunay(net, None)
        rep = tess.check_duality(net, cx)
        assert rep.ok

    def test_detects_missing_simplex(self):
        net = _net(SQUARE_CENTER, 0.3, 0.6)
        cx = tess.build_delaunay(net, None)
        # drop one kept top simplex: the backward scan must flag it
        verts, centers, radii = cx.top_arrays(2)
        broken = tess.DelaunayComplex.from_arrays(2, verts[1:], centers[1:], radii[1:],
                                                  cx.regular)
        rep = tess.check_duality(net, broken)
        kinds = {v[0] for v in rep.violations}
        assert "missing_simplex" in kinds


def _scalar_duality(net, complex_, rtol=tess.MEMBERSHIP_RTOL):
    """Per-simplex and per-subset reference for ``check_duality``: an O(m)
    distance scan for every check and a scalar circumcenter per subset."""
    n = net.dim
    pts = net.points
    interior = net.interior_mask()
    violations = []
    checked = 0
    kept = {s.vertices for s in complex_.top(n)}
    for s in complex_.top(n):
        if not all(interior[v] for v in s.vertices):
            continue
        checked += 1
        d = np.linalg.norm(pts - s.sphere.center, axis=1)
        dmin = float(np.min(d))
        for v in s.vertices:
            if d[v] > dmin + rtol * max(1.0, dmin):
                violations.append(("center_outside_cell", s.vertices, int(v)))
                break
    for row in _joined_subsets(pts, n, 2.0 * net.d2):
        combo = tuple(int(v) for v in row)
        if not all(interior[v] for v in combo) or combo in kept:
            continue
        try:
            sph = cs.circumcenter(pts[list(combo)])
        except Exception:
            continue
        if sph.radius > net.d2:
            continue
        checked += 1
        d = np.linalg.norm(pts - sph.center, axis=1)
        dmin = float(np.min(d))
        if all(d[v] <= dmin + rtol * max(1.0, dmin) for v in combo) and \
                dmin >= sph.radius * (1.0 - rtol):
            violations.append(("missing_simplex", combo, None))
    return tess.DualityReport(violations=tuple(violations), checked=checked)


def _one_piece_duality(net, complex_, rtol=tess.MEMBERSHIP_RTOL):
    """``check_duality`` with its backward half over the whole
    ``small_spheres`` enumeration at once: the reference of the streamed
    check."""
    n = net.dim
    pts = net.points
    interior = net.interior_mask()
    tree = cKDTree(pts)
    violations = []

    def in_cells(verts, centers):
        dmin, _ = tree.query(centers)
        dv = np.linalg.norm(pts[verts] - centers[:, None, :], axis=2)
        return dmin, dv <= (dmin + rtol * np.maximum(1.0, dmin))[:, None]

    verts, centers, _ = complex_.top_arrays(n)
    fwd = np.nonzero(np.all(interior[verts], axis=1))[0]
    _, inside = in_cells(verts[fwd], centers[fwd])
    for j in np.nonzero(~np.all(inside, axis=1))[0]:
        violations.append(("center_outside_cell", tuple(verts[fwd[j]].tolist()),
                           int(verts[fwd[j], np.argmin(inside[j])])))
    rows, c, r = tess.small_spheres(net, net.d2)
    new = np.nonzero(np.all(interior[rows], axis=1)
                     & (tess.row_index(rows, verts, len(pts)) < 0))[0]
    dmin, inside = in_cells(rows[new], c[new])
    missing = np.all(inside, axis=1) & (dmin >= r[new] * (1.0 - rtol))
    violations.extend(("missing_simplex", tuple(row), None)
                      for row in rows[new[missing]].tolist())
    return tess.DualityReport(violations=tuple(violations),
                              checked=len(fwd) + len(new))


def _with_top(cx, keep, centers=None):
    """The complex of cx's top rows ``keep``, with the given centers if any."""
    verts, cx_centers, radii = cx.top_arrays(2)
    centers = cx_centers if centers is None else centers
    return tess.DelaunayComplex.from_arrays(2, verts[keep], centers[keep], radii[keep],
                                            cx.regular)


class TestBatchedDuality:
    def _cases(self):
        from delone import netsynth as nsy

        rng = np.random.default_rng(13)
        region = nsy.Region.box([0.0, 0.0], [1.0, 1.0])
        for _ in range(4):
            net = _net(_poisson(rng, 40, 0.12), 0.1, 0.3, region=region)
            yield net, tess.build_delaunay(net, None)
        net = _net(_lattice(2) + 0.05 * rng.standard_normal((25, 2)), 0.7, 0.9)
        cx = tess.build_delaunay(net, None)
        verts, centers, _ = cx.top_arrays(2)
        yield net, cx
        yield net, _with_top(cx, slice(None, None, 2))  # missing simplices
        # centers pulled toward the first vertex leave the cells of the others
        moved = centers.copy()
        moved[3:6] = 0.5 * (centers[3:6] + net.points[verts[3:6, 0]])
        yield net, _with_top(cx, slice(None), moved)

    def test_matches_scalar_reference(self):
        found = set()
        for net, cx in self._cases():
            got = tess.duality_by_enumeration(net, cx)
            want = _scalar_duality(net, cx)
            assert got.violations == want.violations
            assert got.checked == want.checked
            found.update((v[0], v[2] == v[1][0]) for v in got.violations)
        assert found == {("missing_simplex", False), ("center_outside_cell", False)}

    def test_synthesized_net(self, small_net_pack, small_complex):
        net = small_net_pack["net"]
        got = tess.duality_by_enumeration(net, small_complex)
        want = _scalar_duality(net, small_complex)
        assert got.ok and got.violations == want.violations
        assert got.checked == want.checked > 0

    @pytest.mark.parametrize("block", [5, 64, tess._BLOCK])
    def test_streamed_matches_one_piece(self, block, small_net_pack, small_complex):
        # blocks of a few rows split the backward half into many pieces
        cases = list(self._cases()) + [(small_net_pack["net"], small_complex)]
        for net, cx in cases:
            want = _one_piece_duality(net, cx)
            with mock.patch.object(tess, "_BLOCK", block):
                got = tess.duality_by_enumeration(net, cx)
            assert got.violations == want.violations
            assert got.checked == want.checked


def _darts(rng, region, sep, draws=4000):
    """A Poisson-disk net of the region: uniform draws kept when inside it and
    at least sep from every kept site, near saturation."""
    lo, hi = region.bounding_box()
    draws = rng.uniform(lo, hi, (draws, 2))
    kept = np.zeros((0, 2))
    for p in draws[region.boundary_distance(draws) >= 0.0]:
        if not len(kept) or np.min(np.sum((kept - p) ** 2, axis=1)) >= sep * sep:
            kept = np.vstack([kept, p])
    return kept


def _honeycomb(k):
    """The hexagonal (honeycomb) lattice of unit edges within the triangular
    lattice i a + j b, |i|, |j| <= k: its hexagon centers, (i - j) = 0 mod 3,
    left out; each hexagon's six sites are cocircular."""
    a, b = np.array([1.0, 0.0]), np.array([0.5, math.sqrt(3.0) / 2.0])
    return np.array([i * a + j * b for i in range(-k, k + 1) for j in range(-k, k + 1)
                     if (i - j) % 3])


def _duality_case(kind, seed):
    """A net of the kind with its complex: a Poisson net in a box or a disk,
    or a cocircular square or honeycomb lattice, scaled and shifted."""
    from delone import netsynth as nsy

    rng = np.random.default_rng(seed)
    if kind in ("box", "disk"):
        region = nsy.Region.box([0.0, 0.0], [1.0, 1.0]) if kind == "box" \
            else nsy.Region.disk([0.5, 0.5], 0.5)
        net = _net(_darts(rng, region, 0.08), 0.08, 0.2, region=region)
    else:
        pts = _lattice(3) if kind == "square" else _honeycomb(4)
        scale, shift = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0, 2)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        region = nsy.Region.box(scale * lo + shift, scale * hi + shift)
        d1, d2 = (0.7, 0.75) if kind == "square" else (0.9, 1.05)
        net = _net(scale * pts + shift, d1 * scale, d2 * scale, region=region)
    return net, tess.build_delaunay(net, None)


def _corrupted(net, cx, how, rng):
    """cx with one corruption: a top of interior sites or one touching the
    boundary dropped, a triangle whose circle holds a site added, an inner
    facet of interior sites flipped, or stored centers pulled toward their
    first vertex, out of the other cells."""
    verts, centers, radii = cx.top_arrays(2)
    inner = np.all(net.interior_mask()[verts], axis=1)
    keep = np.ones(len(verts), dtype=bool)
    if how in ("drop_interior", "drop_boundary"):
        pool = np.nonzero(inner if how == "drop_interior" else ~inner)[0]
        keep[rng.choice(pool)] = False
        return _with_top(cx, keep)
    if how in ("add_nonempty", "flip_edge"):
        # a triangle across an inner facet of interior sites: its circle holds
        # the facet's other vertex; a flip replaces the facet's two parents
        faces, count, parents = tess.facets(verts)
        far = np.array([[np.setdiff1d(verts[q], faces[f])[0] for q in parents[f]]
                        if count[f] == 2 else [-1, -1] for f in range(len(faces))])
        rows = np.concatenate([np.column_stack([far, faces[:, k]]) for k in (0, 1)])
        rows = np.sort(rows, axis=1)
        ok = np.all(rows >= 0, axis=1) & np.all(net.interior_mask()[rows], axis=1)
        if how == "flip_edge":  # two new triangles on opposite sides of far: convex
            sign = tess.orientations(net.points, np.where(ok[:, None], rows, 0))
            ok &= np.tile(sign[:len(faces)] != sign[len(faces):], 2) & (sign != 0)
        f = rng.choice(np.nonzero(ok[:len(faces)])[0])
        row = rows[[f, f + len(faces)]] if how == "flip_edge" else rows[[f]]
        if how == "flip_edge":
            keep[parents[f]] = False
        c, r, _ = cs.circumcenter_batch(net.points[row])
        verts, centers, radii = (np.concatenate(x) for x in
                                 ((verts[keep], row), (centers[keep], c), (radii[keep], r)))
        order = np.lexsort(verts.T[::-1])
        return tess.DelaunayComplex.from_arrays(2, verts[order], centers[order],
                                                radii[order], cx.regular)
    moved = centers.copy()
    pick = rng.choice(np.nonzero(inner)[0], 3, replace=False)
    moved[pick] = 0.5 * (centers[pick] + net.points[verts[pick, 0]])
    return _with_top(cx, keep, moved)


class TestTopsDuality:
    """``check_duality`` certified from the tops against its enumeration."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["box", "disk", "square", "honeycomb"]),
           st.sampled_from(["none", "drop_interior", "drop_boundary", "add_nonempty",
                            "flip_edge", "move_centers"]),
           st.integers(0, 2**32 - 1))
    def test_equal_verdicts(self, kind, how, seed):
        net, cx = _duality_case(kind, seed)
        if how != "none":
            cx = _corrupted(net, cx, how, np.random.default_rng(seed + 1))
        got = tess.check_duality(net, cx)
        want = tess.duality_by_enumeration(net, cx)
        assert got.violations == want.violations
        assert (got.method == "tops") == (got.fallback is None)
        if kind in ("square", "honeycomb"):  # cocircular: no clearance
            assert got.method == "enumeration"
        elif how in ("none", "move_centers"):  # the circles are recomputed
            assert got.method == "tops"
            assert got.ok == (how == "none")
        elif how == "drop_interior":  # a top of interior sites is missing
            assert got.method == "enumeration" and not got.ok
        elif how == "add_nonempty":  # its circle holds a site: no clearance
            assert got.method == "enumeration"
        elif how == "flip_edge":  # a triangulation still, but not Delaunay
            assert "clearance" in got.fallback and not got.ok

    @pytest.mark.parametrize("side", [3.0, 5.0])
    def test_synthesized_nets_take_the_tops(self, bundle2, side):
        from delone import netsynth as nsy

        K = nsy.Region.box([0.0, 0.0], [side * bundle2.rF, side * bundle2.rF])
        net, _ = nsy.synthesize_net(K, bundle2, seed=1)
        cx = tess.build_delaunay(net, None)

        def no_enumeration(*args, **kwargs):
            raise AssertionError("check_duality enumerated the small circles")

        with mock.patch.object(tess, "_local_subsets", no_enumeration):
            rep = tess.check_duality(net, cx)
        assert rep.ok and rep.method == "tops" and rep.fallback is None
        verts = cx.top_arrays(2)[0]
        fwd = int(np.sum(np.all(net.interior_mask()[verts], axis=1)))
        assert rep.checked == fwd + len(verts)

    def test_fallback_names_the_failed_condition(self):
        net, cx = _duality_case("box", 3)
        verts = cx.top_arrays(2)[0]
        inner = np.nonzero(np.all(net.interior_mask()[verts], axis=1))[0]
        rep = tess.check_duality(net, _with_top(cx, np.arange(len(verts)) != inner[0]))
        assert rep.method == "enumeration"
        assert rep.fallback.startswith("boundary facet (")
        assert rep.fallback.endswith("touches an interior site")
        assert any(v[0] == "missing_simplex" for v in rep.violations)
        sq, sq_cx = _duality_case("square", 3)
        assert "clearance" in tess.check_duality(sq, sq_cx).fallback
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.0, 1.0, (14, 3))
        net3 = _net(pts, 0.01, 0.6, dim=3)
        rep3 = tess.check_duality(net3, tess.build_delaunay(net3, None))
        assert rep3.fallback == "dimension 3: the tops certificate is planar"

    def test_orientations_are_exact(self):
        from fractions import Fraction

        # near-collinear rows, a few ulps off a line, where the float
        # determinant's sign is unreliable
        rng = np.random.default_rng(11)
        p = rng.uniform(-1.0, 1.0, (600, 1, 2))
        d = rng.uniform(-1.0, 1.0, (600, 1, 2))
        t = np.concatenate([np.zeros((600, 1, 1)), rng.uniform(0.1, 3.0, (600, 2, 1))], axis=1)
        pts = (p + t * d) + rng.integers(-2, 3, (600, 3, 2)) * 2.0 ** -52
        # and rows on a line exactly: integer points p + k d
        pts[:100] = rng.integers(-9, 10, (100, 1, 2)) \
            + rng.integers(-3, 4, (100, 3, 1)) * rng.integers(-9, 10, (100, 1, 2))
        pts = pts.reshape(-1, 2)
        verts = np.arange(len(pts)).reshape(-1, 3)
        want = []
        for row in verts:
            (ax, ay), (bx, by), (cx, cy) = ([Fraction(x) for x in q] for q in pts[row])
            det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            want.append((det > 0) - (det < 0))
        got = tess.orientations(pts, verts)
        assert got.tolist() == want
        assert len(set(want)) == 3  # both signs and exact zeros occur


class TestConeAndFilling:
    def test_square_plus_center_cone(self):
        net = _net(SQUARE_CENTER, 0.3, 0.6)
        cx = tess.build_delaunay(net, None)
        cone = [s for s in cx.top(2) if 4 in s.vertices]
        assert len(cone) == 4
        assert paper.check_filling(net, cx, 4)

    def test_hexagonal_patch_cone(self):
        ang = np.arange(6) * math.pi / 3.0
        pts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
        net = _net(pts, 0.9, 1.05)
        cx = tess.build_delaunay(net, None)
        cone = [s for s in cx.top(2) if 0 in s.vertices]
        assert len(cone) == 6
        assert paper.check_filling(net, cx, 0)


    @pytest.mark.parametrize("case", ["center", "corner", "holed", "isolated"])
    def test_filling_matches_the_sample_loop(self, case):
        net = _net(np.vstack([SQUARE_CENTER, [[3.0, 3.0]]]), 0.3, 0.6)
        cx = tess.build_delaunay(net, None)
        i = {"center": 4, "corner": 0, "holed": 4, "isolated": 5}[case]
        if case == "holed":
            verts, centers, radii = cx.top_arrays(2)
            cx = tess.DelaunayComplex.from_arrays(2, verts[1:], centers[1:], radii[1:], True)
        want = {"center": True}.get(case, False)
        assert _filling_loop(net, cx, i) == want
        assert paper.check_filling(net, cx, i) == want


def _filling_loop(net, cx, i, samples=200):
    """The filling check one draw at a time: the reference for
    ``check_filling``, with the same draws."""
    rng = np.random.default_rng(0)
    cone = [s for s in cx.top(net.dim) if i in s.vertices]
    if not cone:
        return False
    got = tries = 0
    while got < samples and tries < 100 * samples:
        tries += 1
        q = net.points[i] + rng.uniform(-net.d2, net.d2, size=net.dim)
        if int(np.argmin(np.linalg.norm(net.points - q, axis=1))) != i:
            continue
        got += 1
        if not any(np.all(scalar_barycentric(net.points[list(s.vertices)], q) >= -1e-9)
                   for s in cone):
            return False
    return True


def _triangles(rng, kind, count=32):
    """(count, 3, 2) triangles whose least height is at least a fifth of
    their longest edge: side about 1e-3 to 1e3, or 1e2 to 1e3 when offset
    by 1e6 (the offset's rounding in q is then below 1e-11 of the side)."""
    out = []
    while len(out) < count:
        p = rng.uniform(-1.0, 1.0, size=(3, 2))
        e = p[:2] - p[2]
        det = abs(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0])
        if det >= 0.2 * np.max(np.sum((p - np.roll(p, 1, axis=0)) ** 2, axis=1)):
            out.append(p)
    p = np.array(out)
    if kind == "offset":
        return 1e6 + 10.0 ** rng.uniform(2.0, 3.0, size=(count, 1, 1)) * p
    return 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1, 1)) * p


class TestBarycentricRealize:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["plain", "offset"]))
    def test_batched_kernel(self, seed, kind):
        rng = np.random.default_rng(seed)
        pts = _triangles(rng, kind)
        w = rng.dirichlet([1.0, 1.0, 1.0], size=len(pts))
        q = np.einsum("ki,kij->kj", w, pts)
        got = tess.barycentric_coordinates(pts, q)
        assert got.shape == (len(pts), 3)
        assert np.max(np.abs(got - w)) <= 1e-9  # the weights sum to 1
        for i in range(len(pts)):
            alone = tess.barycentric_coordinates(pts[i:i + 1], q[i:i + 1])[0]
            assert np.array_equal(alone.view(np.int64), got[i].view(np.int64))
            ref = scalar_barycentric(pts[i], q[i])
            assert np.array_equal(ref.view(np.int64), got[i].view(np.int64))

    def test_barycentric_inverse(self):
        rng = np.random.default_rng(5)
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        b = rng.dirichlet([1.0, 1.0, 1.0], size=50)
        got = tess.barycentric_coordinates(np.broadcast_to(pts, (50, 3, 2)), b @ pts)
        assert np.allclose(got, b, atol=1e-12)

    def test_realize_flat_mean(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        out = paper.realize_simplex(None, [1 / 3, 1 / 3, 1 / 3], pts)
        assert np.allclose(out, np.mean(pts, axis=0))

    def test_realize_vertex(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        for k in range(3):
            b = np.zeros(3)
            b[k] = 1.0
            assert np.allclose(paper.realize_simplex(None, b, pts), pts[k])

    def test_realize_sphere_midpoint_is_slerp(self):
        m = MetricModel.sphere(1.0)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        out = paper.realize_simplex(m, [0.5, 0.5], [a, b])
        assert np.allclose(out, paper.geodesic(m, a, b, 0.5), atol=1e-12)

    def test_bad_barycentric_rejected(self):
        with pytest.raises(ValueError):
            paper.realize_simplex(None, [0.7, 0.7], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            paper.realize_simplex(None, [-0.2, 1.2], [[0.0], [1.0]])

    def test_face_restriction(self):
        # realization restricted to a boundary face equals the face's own
        pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.4, 0.9])]
        full = paper.realize_simplex(None, [0.3, 0.7, 0.0], pts)
        face = paper.realize_simplex(None, [0.3, 0.7], pts[:2])
        assert np.allclose(full, face, atol=1e-12)
