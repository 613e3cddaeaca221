import heapq
import itertools
import json
import math

import numpy as np
import pytest
from conftest import robustness_2d
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from delone import circumsphere as cs
from delone import jsonio
from delone import netsynth as nsy
from delone import tessellation as tess
from delone.errors import (RegionExhaustedError, SelectionFailedError,
                           UnsupportedDimError, ValidationError)


def _allowed(p, xi, ball_r, annuli, slabs) -> bool:
    """Reference membership test of one point, region type by region type:
    inside the ball and outside every forbidden region."""
    if np.linalg.norm(p - xi) > ball_r:
        return False
    if len(annuli.radii):
        d = np.linalg.norm(annuli.centers - p, axis=1)
        if np.any(np.abs(d - annuli.radii) <= annuli.width):
            return False
    if len(slabs.directions):
        rel = p - slabs.anchors
        perp = np.abs(rel[:, 0] * slabs.directions[:, 1]
                      - rel[:, 1] * slabs.directions[:, 0])
        if np.any(perp <= slabs.width):
            return False
    if len(slabs.point_patches):
        if np.any(np.linalg.norm(slabs.point_patches - p, axis=1) <= slabs.width):
            return False
    return True


class TestRegion:
    def test_box_geometry(self):
        r = nsy.Region.box([0.0, 0.0], [2.0, 1.0])
        assert r.boundary_distance([1.0, 0.5]) == pytest.approx(0.5)
        assert r.boundary_distance([-0.2, 0.5]) == pytest.approx(-0.2)
        assert r.boundary_distance([2.1, 0.5]) < 0.0

    def test_disk_geometry(self):
        r = nsy.Region.disk([1.0, 1.0], 0.5)
        assert r.boundary_distance([1.3, 1.0]) >= 0.0
        assert r.boundary_distance([1.6, 1.0]) < 0.0
        assert r.boundary_distance([1.0, 1.0]) == pytest.approx(0.5)

    def test_expand_and_bounding_box(self):
        r = nsy.Region.box([0.0, 0.0], [1.0, 1.0]).expand(0.5)
        lo, hi = r.bounding_box()
        assert np.allclose(lo, [-0.5, -0.5])
        assert np.allclose(hi, [1.5, 1.5])

    def test_grid_covers_region(self):
        r = nsy.Region.disk([0.0, 0.0], 1.0)
        g = r.grid(0.1)
        assert len(g) > 0
        assert np.all(r.boundary_distance_many(g) >= 0.0)

    @pytest.mark.parametrize("region", [
        nsy.Region.box([-0.3, 0.1], [0.7, 0.55]),
        nsy.Region.disk([0.2, -0.1], 0.45),
    ])
    def test_clear_nodes_matches_stacked_distance(self, region):
        # the node grid of synthesize_net: spacing h from the bounding-box corner
        lo, hi = region.bounding_box()
        h = 0.0037
        xs = lo[0] + np.arange(int((hi[0] - lo[0]) / h) + 1) * h
        ys = lo[1] + np.arange(int((hi[1] - lo[1]) / h) + 1) * h
        nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        dist = region.boundary_distance_many(nodes)
        # margins that equal some node's distance exercise the >= tie
        for margin in (0.0, h, 0.1, float(dist[len(dist) // 3]), float(dist.max())):
            want = (dist >= margin).reshape(len(xs), len(ys))
            assert np.array_equal(region.clear_nodes(xs, ys, margin), want)

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            nsy.Region(kind="triangle", bounds=([0, 0], [1, 1]))

    @pytest.mark.parametrize("lo,hi", [
        ([0.0, 0.0], [0.0, 0.0]),  # empty
        ([0.0, 0.0], [-1.0, 1.0]),  # inverted
        ([0.0, 0.0], [1.0, 0.0]),  # flat
        ([0.0, 0.0], [math.nan, 1.0]),
        ([-math.inf, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, 1.0, 1.0]),  # dimensions differ
    ])
    def test_bad_box_rejected(self, lo, hi):
        with pytest.raises(ValidationError, match="region.bounds"):
            nsy.Region.box(lo, hi)

    @pytest.mark.parametrize("center,radius", [
        ([0.0, 0.0], 0.0), ([0.0, 0.0], -1.0), ([0.0, 0.0], math.nan),
        ([math.inf, 0.0], 1.0),
    ])
    def test_bad_disk_rejected(self, center, radius):
        with pytest.raises(ValidationError, match="region.bounds"):
            nsy.Region.disk(center, radius)


class TestParamFamily:
    def _family(self, depth=3, eps=1e-3):
        return nsy.ParamFamily(depth=depth, dim=2, eps=eps, scale=1.0, seed=0)

    def test_param_count(self):
        assert len(self._family(depth=4).params) == 16

    def test_ultrametric(self):
        fam = self._family()
        ps = fam.params
        for p in ps:
            assert fam.param_distance(p, p) == 0.0
        for p, q, r in itertools.combinations(ps, 3):
            d = fam.param_distance
            assert d(p, q) == d(q, p)
            assert d(p, r) <= max(d(p, q), d(q, r)) + 1e-15

    def test_zero_param_is_identity(self):
        fam = self._family()
        rng = np.random.default_rng(0)
        for y in rng.uniform(-1, 1, size=(20, 2)):
            assert np.allclose(fam.displacement("000", y), 0.0)
            assert np.allclose(fam.transport("000", y), y)

    def test_sup_norm_bound(self):
        fam = self._family(eps=2.5e-4)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, size=(50, 2))
        for p in fam.params:
            norms = np.linalg.norm(fam.displacement_batch(p, pts), axis=1)
            assert np.all(norms <= fam.eps + 1e-15)

    def test_batch_matches_scalar(self):
        fam = self._family()
        pts = np.random.default_rng(2).uniform(-1, 1, size=(10, 2))
        for p in fam.params:
            batch = fam.displacement_batch(p, pts)
            for k, y in enumerate(pts):
                assert np.allclose(batch[k], fam.displacement(p, y))

    def test_override(self):
        fam = self._family().with_override("111", 3, [0.5, -0.5])
        pts = np.zeros((5, 2))
        disp = fam.indexed_displacements("111", pts)
        assert np.allclose(disp[3], [0.5, -0.5])
        disp0 = fam.indexed_displacements("000", pts)
        assert np.allclose(disp0, 0.0)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        with pytest.raises(ValidationError, match="family.depth"):
            self._family(depth=depth)


class TestTranslateNet:
    def test_identity_param(self, bundle2, small_net_pack):
        net = small_net_pack["net"]
        fam = nsy.make_family(bundle2, depth=2)
        tnet = nsy.translate_net(net, "00", fam)
        assert np.array_equal(tnet.points, net.points)

    def test_pairwise_distance_drift(self, bundle2, small_net_pack):
        # each transport is an eps-isometry: pairwise distances drift < 2 eps
        net = small_net_pack["net"]
        fam = nsy.make_family(bundle2, depth=2)
        eps = bundle2.eps0 * bundle2.rF
        rng = np.random.default_rng(3)
        sub = net.points[rng.choice(len(net), size=30, replace=False)]
        for p in fam.params:
            moved = sub + fam.displacement_batch(p, sub)
            d0 = np.linalg.norm(sub[:, None] - sub[None, :], axis=2)
            d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
            assert np.max(np.abs(d1 - d0)) <= 2.0 * eps + 1e-15


TRIANGLE = np.array([[0.0, 0.0], [0.2, 0.0], [0.1, 0.15]])


class TestForbiddenRegions:
    def test_empty_local_set(self, bundle2):
        annuli, slabs = nsy.forbidden_regions(np.zeros((0, 2)), [0.0, 0.0],
                                              bundle2)
        assert annuli.count_total == 0
        assert slabs.count_total == 0
        assert len(annuli.radii) == 0
        assert len(slabs.directions) == 0

    def test_single_triangle_counts(self, bundle2):
        # probe on the circumscribed circle: its annulus must be kept
        sph = cs.circumcenter(TRIANGLE)
        xi = sph.center + np.array([sph.radius, 0.0])
        annuli, slabs = nsy.forbidden_regions(TRIANGLE, xi, bundle2)
        assert annuli.count_total == 1
        assert len(annuli.radii) == 1
        assert annuli.radii[0] == pytest.approx(sph.radius, rel=1e-9)
        # 3 pair patches + 3 point patches
        assert slabs.count_total == 6

    def test_far_probe_keeps_nothing(self, bundle2):
        xi = np.array([0.1, 0.05])  # inside the triangle, far from its circle
        annuli, slabs = nsy.forbidden_regions(TRIANGLE, xi, bundle2)
        assert annuli.count_total == 1
        assert len(annuli.radii) == 0  # circle does not reach the ball

    @staticmethod
    def _circle_set(circles):
        return {(round(float(c[0]), 9), round(float(c[1]), 9), round(float(r), 9))
                for c, r in circles}

    def _brute_force_annuli(self, omega, xi, bundle):
        """Every triple of omega whose circle has radius <= R and whose
        annulus can reach the selection ball."""
        ball_r = bundle.rF / 200.0
        w_ann = 2.0 * bundle.eps1 * bundle.rF
        cap_r = nsy.CIRCLE_CAP_D2 * bundle.d2
        ref = []
        for combo in itertools.combinations(range(len(omega)), 3):
            try:
                sph = cs.circumcenter(omega[list(combo)])
            except Exception:
                continue
            reach = abs(np.linalg.norm(sph.center - xi) - sph.radius)
            if reach <= ball_r + w_ann and sph.radius <= cap_r:
                ref.append((sph.center, sph.radius))
        return self._circle_set(ref)

    def test_brute_force_equivalence(self, bundle2):
        rng = np.random.default_rng(4)
        kept = 0
        for _ in range(10):
            omega = rng.uniform(0.0, 0.6, size=(15, 2))
            xi = rng.uniform(0.2, 0.4, size=2)
            annuli, slabs = nsy.forbidden_regions(omega, xi, bundle2)
            got = self._circle_set(zip(annuli.centers, annuli.radii))
            assert got == self._brute_force_annuli(omega, xi, bundle2)
            kept += len(got)
        assert kept > 0

    @pytest.mark.parametrize("scale,kept", [(1.0 - 1e-9, 1), (1.0 + 1e-9, 0)])
    def test_radius_cap(self, bundle2, scale, kept):
        # three points on a circle through xi of radius just below / above R
        r = nsy.CIRCLE_CAP_D2 * bundle2.d2 * scale
        c = np.array([0.3, 0.3])
        theta = np.array([0.5, 2.0, 4.0])
        omega = c + r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        xi = c + np.array([-r, 0.0])
        annuli, _ = nsy.forbidden_regions(omega, xi, bundle2)
        assert annuli.count_total == 1
        assert len(annuli.radii) == kept
        assert len(self._brute_force_annuli(omega, xi, bundle2)) == kept

    def test_excluded_fraction_small(self, bundle2):
        sph = cs.circumcenter(TRIANGLE)
        xi = sph.center + np.array([sph.radius, 0.0])
        forb = nsy.forbidden_regions(TRIANGLE, xi, bundle2)
        frac = nsy.excluded_volume_fraction(xi, bundle2.rF / 200.0, *forb)
        assert frac < 0.5

    def test_excluded_fraction_matches_scalar_oracle(self, bundle2):
        rng = np.random.default_rng(5)
        omega = rng.uniform(0.0, 0.6, size=(12, 2))
        xi = rng.uniform(0.25, 0.35, size=2)
        ball_r = bundle2.rF / 200.0
        forb = nsy.forbidden_regions(omega, xi, bundle2)
        frac = nsy.excluded_volume_fraction(xi, ball_r, *forb, samples=256,
                                            rng=np.random.default_rng(9))
        # recompute with the scalar point test on the same sample stream
        srng = np.random.default_rng(9)
        theta = srng.uniform(0.0, 2.0 * math.pi, size=256)
        r = ball_r * np.sqrt(srng.uniform(size=256))
        pts = xi + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        hits = sum(0 if _allowed(p, xi, ball_r * (1 + 1e-9), *forb) else 1
                   for p in pts)
        assert frac == pytest.approx(hits / 256)


class TestExcludedVolumeBound:
    def test_formula(self):
        rho, wa, ws = 1.0, 0.01, 0.02
        annuli = nsy.Annuli(np.zeros((2, 2)), np.ones(2), wa, 2)
        slabs = nsy.Slabs(np.zeros((3, 2)), np.ones((3, 2)), np.zeros((1, 2)), ws, 4)
        want = (2 * 2 * wa * 2 * math.pi * (rho + wa) + 3 * 2 * ws * 2 * (rho + ws)
                + math.pi * ws * ws) / (math.pi * rho * rho)
        assert nsy.excluded_volume_bound(rho, annuli, slabs) == pytest.approx(want)

    def test_dominates_sampled_fraction(self):
        # wide regions, so that the sampled fraction is far from zero
        rng = np.random.default_rng(6)
        rho = 1.0
        xi = np.zeros(2)
        for _ in range(5):
            annuli = nsy.Annuli(rng.uniform(-2, 2, size=(4, 2)),
                                rng.uniform(0.2, 2.5, size=4), 0.03, 4)
            theta = rng.uniform(0, math.pi, size=3)
            slabs = nsy.Slabs(rng.uniform(-0.8, 0.8, size=(3, 2)),
                              np.stack([np.cos(theta), np.sin(theta)], axis=1),
                              rng.uniform(-0.8, 0.8, size=(2, 2)), 0.04, 5)
            bound = nsy.excluded_volume_bound(rho, annuli, slabs)
            frac = nsy.excluded_volume_fraction(xi, rho, annuli, slabs,
                                                samples=20_000, rng=rng)
            assert 0.0 < frac <= bound + 4.0 * math.sqrt(frac / 20_000)


class TestSelectPoint:
    def test_deterministic_and_clear(self, bundle2):
        sph = cs.circumcenter(TRIANGLE)
        xi = sph.center + np.array([sph.radius, 0.0])
        ball_r = bundle2.rF / 200.0
        forb = nsy.forbidden_regions(TRIANGLE, xi, bundle2)
        p1 = nsy.select_point(xi, forb, np.random.default_rng(0), ball_r)
        p2 = nsy.select_point(xi, forb, np.random.default_rng(0), ball_r)
        assert np.array_equal(p1, p2)
        assert np.linalg.norm(p1 - xi) <= ball_r * (1 + 1e-9)
        annuli, slabs = forb
        # margins against every forbidden region
        d = np.abs(np.linalg.norm(annuli.centers - p1, axis=1) - annuli.radii)
        assert np.all(d > annuli.width)
        dp = np.linalg.norm(TRIANGLE - p1, axis=1)
        assert np.all(dp > slabs.width)


def _propose_candidate(K, net_points, bundle, resolution):
    """Completeness oracle: the first node (row-major) of a fresh grid over K
    whose selection ball fits K and lies in the band between the d1''- and
    d2''-penumbras of the net; RegionExhaustedError when there is none."""
    ball_r = bundle.rF / 200.0
    grid = K.grid(resolution)
    grid = grid[K.boundary_distance_many(grid) >= ball_r]
    d, _ = cKDTree(np.asarray(net_points, dtype=float)).query(grid)
    band = (d >= bundle.d1pp + ball_r) & (d <= bundle.d2pp - ball_r)
    idx = np.nonzero(band)[0]
    if not len(idx):
        raise RegionExhaustedError("net is d2''-complete")
    return grid[idx[0]]


def _grid_fallback(xi, ball_r, annuli, slabs):
    """The former grid fallback of select_point: a double loop over the
    101 x 101 nodes in row-major order; None when every node is excluded."""
    h = ball_r / 50.0
    for i in np.arange(-ball_r, ball_r + h / 2, h):
        for j in np.arange(-ball_r, ball_r + h / 2, h):
            p = xi + np.array([i, j])
            if _allowed(p, xi, ball_r, annuli, slabs):
                return p
    return None


class TestForbiddenMaskAndFallback:
    XI = np.array([0.3, 0.7])
    RHO = 0.005
    NO_ANNULI = nsy.Annuli(np.zeros((0, 2)), np.zeros(0), 0.0, 0)

    def _wide_regions(self, rng):
        """Regions about as wide as the ball, so that many nodes are excluded."""
        xi, rho = self.XI, self.RHO
        annuli = nsy.Annuli(xi + rho * rng.uniform(-2, 2, size=(3, 2)),
                            rho * rng.uniform(0.5, 2.5, size=3), 0.05 * rho, 3)
        theta = rng.uniform(0, math.pi, size=2)
        slabs = nsy.Slabs(xi + rho * rng.uniform(-0.8, 0.8, size=(2, 2)),
                          np.stack([np.cos(theta), np.sin(theta)], axis=1),
                          xi + rho * rng.uniform(-0.8, 0.8, size=(2, 2)), 0.1 * rho, 4)
        return annuli, slabs

    def test_mask_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            forb = self._wide_regions(rng)
            pts = self.XI + self.RHO * rng.uniform(-1, 1, size=(500, 2))
            want = [not _allowed(p, self.XI, math.inf, *forb) for p in pts]
            assert np.array_equal(nsy.forbidden_mask(pts, *forb), want)

    def test_grid_fallback_matches_double_loop(self, monkeypatch):
        monkeypatch.setattr(nsy, "MAX_REJECTIONS", 0)
        xi, rho = self.XI, self.RHO
        # a vertical slab over the ball's first rows moves the answer inward
        first_rows = nsy.Slabs(np.array([[xi[0] - rho, 0.0]]), np.array([[0.0, 1.0]]),
                               np.zeros((0, 2)), 0.3 * rho, 1)
        rng = np.random.default_rng(8)
        cases = [(self.NO_ANNULI, first_rows)] + [self._wide_regions(rng) for _ in range(12)]
        for forb in cases:
            want = _grid_fallback(xi, rho, *forb)
            assert want is not None
            got = nsy.select_point(xi, forb, np.random.default_rng(0), rho)
            assert np.array_equal(got, want)

    def test_covered_ball_raises(self, monkeypatch):
        monkeypatch.setattr(nsy, "MAX_REJECTIONS", 0)
        xi, rho = self.XI, self.RHO
        covered = nsy.Slabs(np.zeros((0, 2)), np.zeros((0, 2)), xi[None], 1.5 * rho, 1)
        assert _grid_fallback(xi, rho, self.NO_ANNULI, covered) is None
        with pytest.raises(SelectionFailedError):
            nsy.select_point(xi, (self.NO_ANNULI, covered), np.random.default_rng(0), rho)


class TestProposeCandidate:
    def test_complete_net_exhausts(self, bundle2, small_net_pack):
        # at the synthesis resolution the finished net leaves no band node
        net = small_net_pack["net"]
        with pytest.raises(RegionExhaustedError):
            _propose_candidate(net.region, net.points, bundle2,
                               resolution=bundle2.rF / 200.0)


class TestSynthesizeNet:
    def test_small_disk_properties(self, bundle2):
        K = nsy.Region.disk([0.0, 0.0], 0.2)
        net, report = nsy.synthesize_net(K, bundle2, seed=5)
        assert len(net) > 3
        assert net.check_separation() >= bundle2.d1
        # the synthesis domain (K plus the 2*d2 collar) is d2-dense
        assert net.check_density(bundle2.rF / 100.0) <= bundle2.d2
        assert report.max_excluded_fraction < 0.5
        assert 0.0 < report.max_excluded_bound < 0.5
        assert report.audits >= 1

    def test_uncertified_step_is_audited(self, bundle2, monkeypatch):
        # a bound that certifies no step sends every step to the sampled audit
        monkeypatch.setattr(nsy, "excluded_volume_bound", lambda *a: 0.75)
        K = nsy.Region.disk([0.0, 0.0], 0.1)
        _, report = nsy.synthesize_net(K, bundle2, seed=11)
        assert report.audits == report.steps > 1
        assert report.max_excluded_bound == 0.75
        assert report.max_excluded_fraction < 0.5

    def test_deterministic(self, bundle2):
        K = nsy.Region.disk([0.0, 0.0], 0.1)
        n1, _ = nsy.synthesize_net(K, bundle2, seed=11)
        n2, _ = nsy.synthesize_net(K, bundle2, seed=11)
        assert np.array_equal(n1.points, n2.points)

    def test_seed_changes_net(self, bundle2):
        K = nsy.Region.disk([0.0, 0.0], 0.1)
        n1, _ = nsy.synthesize_net(K, bundle2, seed=1)
        n2, _ = nsy.synthesize_net(K, bundle2, seed=2)
        assert not np.array_equal(n1.points, n2.points)

    def test_dim_3_rejected(self, bundle2):
        K = nsy.Region(kind="box", bounds=([0, 0, 0], [1, 1, 1]))
        with pytest.raises(ValidationError):
            nsy.synthesize_net(K, bundle2)


class _HeapFront:
    """Reference front: a min-heap of flat node indices.  A node is pushed
    when its distance first drops into the band, and dropped when popped if
    it has left the band since."""

    def __init__(self, clear, lo2, hi2):
        self.clear, self.lo2, self.hi2 = clear, lo2, hi2
        self.dist2 = np.full(clear.shape, np.inf)
        self.heap: list = []

    def lower(self, i0, j0, dd):
        i1, j1 = i0 + dd.shape[0], j0 + dd.shape[1]
        sub = self.dist2[i0:i1, j0:j1]
        entering = (sub > self.hi2) & (dd >= self.lo2) & (dd <= self.hi2) \
            & self.clear[i0:i1, j0:j1]
        np.minimum(sub, dd, out=sub)
        a, b = np.nonzero(entering)
        ny = self.dist2.shape[1]
        for key in ((i0 + a) * ny + (j0 + b)).tolist():
            heapq.heappush(self.heap, key)

    def next(self):
        flat = self.dist2.ravel()
        while self.heap:
            key = heapq.heappop(self.heap)
            if self.lo2 <= flat[key] <= self.hi2:
                return divmod(key, self.dist2.shape[1])
        return None


class TestBandFront:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_heap_reference(self, seed):
        rng = np.random.default_rng(seed)
        shape = (23, 31)
        clear = rng.random(shape) > 0.1
        fronts = (nsy._BandFront(clear, 0.3, 0.6), _HeapFront(clear, 0.3, 0.6))
        assert fronts[0].next() is None

        def lower(i, j, consume):
            # a random window around node (i, j); stepping at a node puts a
            # point next to it, which takes the node below the band
            i0, j0 = max(0, i - rng.integers(0, 6)), max(0, j - rng.integers(0, 6))
            i1 = min(shape[0], i + 1 + rng.integers(0, 6))
            j1 = min(shape[1], j + 1 + rng.integers(0, 6))
            dd = rng.uniform(0.0, 1.5, size=(i1 - i0, j1 - j0))
            if consume:
                dd[i - i0, j - j0] = rng.uniform(0.0, 0.3)
            for f in fronts:
                f.lower(i0, j0, dd)

        lower(shape[0] // 2, shape[1] // 2, False)
        seq = []
        while True:
            node = fronts[0].next()
            assert node == fronts[1].next()
            if node is None:
                break
            seq.append(node)
            lower(*node, True)
            if rng.random() < 0.3:
                lower(int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])), False)
        assert len(seq) > 20
        assert not fronts[0].inband.any() and not fronts[0].rows.any()


@pytest.fixture(scope="module")
def tiny(bundle2):
    K = nsy.Region.disk([0.0, 0.0], 0.2)
    net, _ = nsy.synthesize_net(K, bundle2, seed=5)
    cx = tess.build_delaunay(net, None)
    return net, cx


def _rebuild_certificate(net, complex_, family, bundle) -> dict:
    """Reference certifier: per-simplex loops for the drift maxima and a full
    ``build_delaunay`` rebuild of every translate for the identity check."""
    n = net.dim
    rF = bundle.rF
    top = complex_.top(n)
    verts = np.array([s.vertices for s in top], dtype=np.int64).reshape(-1, n + 1)
    centers = np.array([s.sphere.center for s in top])
    radii = np.array([s.sphere.radius for s in top])
    worst = {"quantity": None, "simplex": None, "param": None, "margin": math.inf}
    records = [{"simplex": tuple(int(v) for v in s.vertices)} for s in top]

    def note(quantity, margin, sidx, param):
        if margin < worst["margin"]:
            worst.update(quantity=quantity, margin=float(margin),
                         simplex=None if sidx is None else top[sidx].vertices,
                         param=param)

    def clearance(points, c, r):
        d, _ = cKDTree(points).query(c, k=n + 2)
        return d[:, -1] - r

    ok = True
    if len(top):
        m_rho = robustness_2d(net.points[verts]) - 1.5 * bundle.eps2 * rF
        m_clear = clearance(net.points, centers, radii) - 2.0 * bundle.eps1 * rF
        for i in range(len(top)):
            records[i].update(robustness_margin=float(m_rho[i]),
                              base_clearance_margin=float(m_clear[i]),
                              center_drift=0.0, radius_drift=0.0)
        note("robustness", m_rho.min(), int(np.argmin(m_rho)), None)
        note("base_clearance", m_clear.min(), int(np.argmin(m_clear)), None)
        ok = bool(m_rho.min() >= 0 and m_clear.min() >= 0)
    base_set = {s.vertices for s in top}
    for param in family.params:
        tnet = nsy.translate_net(net, param, family)
        if len(top):
            tstacks = tnet.points[verts]
            tc, tr, tvalid = cs.circumcenter_batch(tstacks)
            if not np.all(tvalid):
                ok = False
                note("circumcenter_exists", -math.inf,
                     int(np.nonzero(~tvalid)[0][0]), param)
                continue
            dc = np.linalg.norm(tc - centers, axis=1)
            dr = np.abs(tr - radii)
            for i in range(len(top)):
                records[i]["center_drift"] = max(records[i]["center_drift"], float(dc[i]))
                records[i]["radius_drift"] = max(records[i]["radius_drift"], float(dr[i]))
            for quantity, margins in (
                    ("robustness", robustness_2d(tstacks) - 1.5 * bundle.eps2 * rF),
                    ("translate_clearance", clearance(tnet.points, tc, tr) - bundle.eps1 * rF),
                    ("center_drift", bundle.eps3 * rF / 2.0 - dc),
                    ("radius_drift", bundle.eps3 * rF - dr)):
                i = int(np.argmin(margins))
                note(quantity, margins[i], i, param)
                ok = ok and bool(margins[i] >= 0)
        tset = {s.vertices for s in tess.build_delaunay(tnet, None).top(n)}
        if tset != base_set:
            ok = False
            note("combinatorics", -math.inf, None, param)
            worst["detail"] = {"param": param, "symmetric_difference": [
                list(t) for t in sorted(tset ^ base_set)[:8]]}
    if worst["quantity"] is None:
        worst.update(quantity="empty_complex", margin=0.0)
    return {"v": 1, "pass": ok, "worst": worst, "params": list(family.params),
            "per_simplex": records}


def _json(obj):
    return json.loads(jsonio.dumps({"obj": obj}))["obj"]


def _assert_covers_reference(cert, want, bundle):
    """The budget certificate against the per-parameter reference: its pass
    implies the reference's, its base margins are the reference's less at
    most their float error bounds, and each certified drift bound is at
    least the largest drift the reference measured."""
    assert not cert.ok or want["pass"]
    assert cert.params_checked == tuple(want["params"])
    assert [r["simplex"] for r in cert.per_simplex] == \
        [r["simplex"] for r in want["per_simplex"]]
    for got, ref in zip(cert.per_simplex, want["per_simplex"]):
        for key in ("robustness_margin", "base_clearance_margin"):
            assert ref[key] - 1e-9 * bundle.rF <= got[key] <= ref[key]
        assert got["center_drift"] >= ref["center_drift"]
        assert got["radius_drift"] >= ref["radius_drift"]


def _lattice_patch(bundle, rng, kind, jitter_rF, side=5):
    """A side x side patch of a triangular or square lattice at spacing
    0.142 rF, each site moved by up to jitter_rF rF: every square is
    cocircular, no triangle of the triangular lattice is."""
    s = 0.142 * bundle.rF
    i, j = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    if kind == "triangular":
        pts = np.stack([(i + 0.5 * (j % 2)) * s, j * s * math.sqrt(3.0) / 2.0], axis=-1)
    else:
        pts = np.stack([i * s, j * s], axis=-1)
    pts = pts.reshape(-1, 2) + rng.uniform(-1.0, 1.0, (side * side, 2)) * jitter_rF * bundle.rF
    return tess.Net(dim=2, points=pts, d1=bundle.d1, d2=bundle.d2)


class TestCertification:
    def test_pass(self, tiny, bundle2):
        net, cx = tiny
        fam = nsy.make_family(bundle2, depth=2, seed=0)
        cert = nsy.certify_family_stability(net, cx, fam, bundle2)
        assert cert.ok
        assert cert.params_checked == fam.params
        assert cert.worst["margin"] >= 0
        assert len(cert.per_simplex) == len(cx.top(2))

    def test_adversarial_fails_with_witness(self, tiny, bundle2):
        net, cx = tiny
        fam = nsy.make_family(bundle2, depth=2, seed=0)
        bad = fam.with_override("10", 0, [10.0 * bundle2.d1, 0.0])
        cert = nsy.certify_family_stability(net, cx, bad, bundle2)
        assert not cert.ok
        assert cert.worst["param"] == "10"
        assert cert.worst["quantity"] is not None

    def test_matches_rebuild_reference(self, tiny, bundle2, small_net_pack,
                                       small_complex):
        # the same verdict as the per-parameter rebuild, the same witness
        # where an override fails it, and every drift it saw covered
        # three sites: fewer than n+2, so no site lies off the one sphere
        s = 0.15 * bundle2.rF
        triangle = tess.Net(dim=2, points=[[0.0, 0.0], [s, 0.0], [0.5 * s, 0.8 * s]],
                            d1=bundle2.d1, d2=bundle2.d2)
        cases = [tiny, (small_net_pack["net"], small_complex),
                 (triangle, tess.build_delaunay(triangle, None))]
        failed = set()
        for net, cx in cases:
            fam = nsy.make_family(bundle2, depth=2, seed=3)
            for override in (None, ("01", 0, [10.0 * bundle2.d1, 0.0]),
                             ("11", 1, [0.0, 0.3 * bundle2.d1])):
                f = fam if override is None else fam.with_override(*override)
                cert = nsy.certify_family_stability(net, cx, f, bundle2)
                want = _rebuild_certificate(net, cx, f, bundle2)
                assert cert.ok == want["pass"]
                _assert_covers_reference(cert, want, bundle2)
                if not cert.ok:
                    assert _json(cert.worst) == _json(want["worst"])
                failed.update(() if cert.ok else [cert.worst["quantity"]])
        assert "combinatorics" in failed

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["triangular", "square"]),
           jitter=st.sampled_from([0.0, 1e-13, 1e-9, 0.005, 0.02]),
           eps_rF=st.sampled_from([0.0, 1.3e-12, 1e-10, 3e-9, 1e-7]),
           depth=st.integers(1, 3),
           override=st.sampled_from([None, "within", "beyond", "far"]))
    def test_budget_pass_implies_reference_pass(self, bundle2, seed, kind, jitter,
                                                eps_rF, depth, override):
        rng = np.random.default_rng(seed)
        net = _lattice_patch(bundle2, rng, kind, jitter)
        cx = tess.build_delaunay(net, None)
        fam = nsy.ParamFamily(depth=depth, dim=2, eps=eps_rF * bundle2.rF,
                              scale=bundle2.rF, seed=seed % 997)
        if override:
            length = {"within": fam.eps, "beyond": 1e-6 * bundle2.rF,
                      "far": 10.0 * bundle2.d1}[override]
            angle = rng.uniform(0.0, 2.0 * math.pi)
            fam = fam.with_override(fam.params[int(rng.integers(2 ** depth))],
                                    int(rng.integers(len(net))),
                                    [length * math.cos(angle), length * math.sin(angle)])
        cert = nsy.certify_family_stability(net, cx, fam, bundle2)
        _assert_covers_reference(cert, _rebuild_certificate(net, cx, fam, bundle2),
                                 bundle2)

    @pytest.mark.parametrize("radius_d2", [0.75, 1.0 + 1e-9])
    def test_near_cocircular_net_fails_with_near_miss(self, bundle2, radius_d2):
        # four sites on one circle, the last pushed out by 1e-10 of its
        # radius (beyond EMPTY_RTOL, so only one diagonal's two triangles are
        # kept): the other two (all four when the radius is just above d2)
        # have circles far less deep than the drift allowance, so a translate
        # within the budget may flip them
        r = radius_d2 * bundle2.d2
        angles = np.array([0.1, 1.7, 3.3, 4.6])
        pts = r * np.column_stack([np.cos(angles), np.sin(angles)])
        pts[3] *= 1.0 + 1e-10
        net = tess.Net(dim=2, points=pts, d1=bundle2.d1, d2=bundle2.d2)
        cx = tess.build_delaunay(net, None)
        cert = nsy.certify_family_stability(net, cx, nsy.make_family(bundle2, depth=3),
                                            bundle2)
        assert not cert.ok
        assert cert.worst["quantity"] == "near_miss"
        assert cert.worst["margin"] == -math.inf
        assert len(cert.worst["simplex"]) == 3
        assert cert.worst["simplex"] not in {s.vertices for s in cx.top(2)}
        assert cert.budget["near_miss"] >= 1
        assert list(cert.worst["simplex"]) in cert.worst["detail"]["near_miss"]

    @pytest.mark.parametrize("d1_factor, d2_factor", [(1e-2, 1.0), (1e-6, 1.0),
                                                      (1.0, 1e6)])
    def test_unbounded_near_miss_drift_fails_before_enumerating(
            self, tiny, bundle2, monkeypatch, d1_factor, d2_factor):
        # a d1 far below the sites' spacing, or a d2 far above it, would
        # make the near-miss search radius unbounded (every triple of the
        # net); the translate-side drift bound fails first instead
        net, cx = tiny
        loose = tess.Net(dim=2, points=net.points, d1=net.d1 * d1_factor,
                         d2=net.d2 * d2_factor, region=net.region)

        def refuse(*args):
            raise AssertionError("the near-miss set was enumerated")

        monkeypatch.setattr(tess, "small_spheres", refuse)
        cert = nsy.certify_family_stability(loose, cx, nsy.make_family(bundle2, depth=2),
                                            bundle2)
        assert not cert.ok
        assert cert.worst["quantity"] == "near_miss"
        assert cert.worst["margin"] < 0 and cert.worst["simplex"] is None
        assert cert.worst["detail"]["near_miss_drift"] > bundle2.eps3 * bundle2.rF / 2.0
        assert cert.budget["near_miss"] is None

    def test_depth_independent(self, tiny, bundle2):
        net, cx = tiny
        certs = [nsy.certify_family_stability(net, cx, nsy.make_family(bundle2, depth=d),
                                              bundle2) for d in (1, 8)]
        assert certs[0].ok and len(certs[1].params_checked) == 256
        for field in ("worst", "per_simplex", "budget"):
            assert getattr(certs[0], field) == getattr(certs[1], field)

    def test_planar_only(self, bundle2):
        pts = np.eye(3) * 0.15 * bundle2.rF
        net = tess.Net(dim=3, points=np.vstack([np.zeros(3), pts]), d1=bundle2.d1,
                       d2=bundle2.d2)
        with pytest.raises(UnsupportedDimError, match="dim = 2"):
            nsy.certify_family_stability(net, tess.build_delaunay(net, None),
                                         nsy.make_family(bundle2, depth=1, dim=3),
                                         bundle2)

    def test_only_overrides_beyond_the_budget_are_audited(self, tiny, bundle2, monkeypatch):
        net, cx = tiny
        fam = nsy.make_family(bundle2, depth=2)
        audited = []
        real = nsy.translate_net
        monkeypatch.setattr(nsy, "translate_net",
                            lambda net_, p, f: audited.append(p) or real(net_, p, f))
        inside = fam.with_override("01", 0, [fam.eps, 0.0])
        cert = nsy.certify_family_stability(net, cx, inside, bundle2)
        assert cert.ok and cert.budget["over_budget"] == [] and audited == []
        beyond = inside.with_override("10", 1, [0.0, 2.0 * fam.eps])
        cert = nsy.certify_family_stability(net, cx, beyond, bundle2)
        assert cert.budget["over_budget"] == ["10"] and audited == ["10"]
        assert cert.params_checked == fam.params


class TestProductStructure:
    def test_small_grid(self, bundle2, small_net_pack, small_complex):
        # interior sub-box so every sample's nearest site is interior
        K = nsy.Region.box([1.0, 1.0], [2.0, 2.0])
        fam = nsy.make_family(bundle2, depth=2)
        ps = nsy.build_product_structure(K, small_net_pack["net"],
                                         small_complex, fam,
                                         grid_shape=(12, 12))
        assert ps.injective
        assert all(c == 4 for c in ps.class_sizes)
        assert ps.face_agreement_max <= 1e-9 * bundle2.rF
        # identity parameter leaves every sample fixed
        for gi, y in enumerate(ps.grid):
            assert np.allclose(ps.table[(gi, "00")], y, atol=1e-9)
