import dataclasses
import hashlib
import heapq
import itertools
import json
import math
import tracemalloc
import types
from collections.abc import Mapping

import numpy as np
import pytest
from conftest import robustness_2d, scalar_barycentric
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, cKDTree

from delone import circumsphere as cs
from delone import cli, jsonio, paper, robustness
from delone import netsynth as nsy
from delone import tessellation as tess
from delone.errors import (CoverageGapError, RegionExhaustedError, SelectionFailedError,
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
        g = paper.region_grid(r, 0.1)
        assert len(g) > 0
        assert np.all(r.boundary_distance_many(g) >= 0.0)

    @pytest.mark.parametrize("region", [
        nsy.Region.box([-0.3, 0.1], [0.7, 0.55]),
        nsy.Region.disk([0.2, -0.1], 0.45),
    ])
    def test_clear_nodes_matches_stacked_distance(self, region, monkeypatch):
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
            # a disk's mask in blocks of one row, of a few rows and whole
            for block in (1, 500, 1 << 16):
                monkeypatch.setattr(nsy, "_NODE_BLOCK", block)
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
        return nsy.ParamFamily(depth=depth, eps=eps, scale=1.0, seed=0)

    def test_param_count(self):
        assert len(self._family(depth=4).params) == 16

    def test_ultrametric(self):
        fam = self._family()
        ps = fam.params
        for p in ps:
            assert paper.param_distance(p, p) == 0.0
        for p, q, r in itertools.combinations(ps, 3):
            d = paper.param_distance
            assert d(p, q) == d(q, p)
            assert d(p, r) <= max(d(p, q), d(q, r)) + 1e-15

    def test_zero_param_is_identity(self):
        fam = self._family()
        ys = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
        assert np.allclose(fam.displacement_batch("000", ys), 0.0)
        for y in ys:
            assert np.allclose(paper.transport(fam, "000", y), y)

    def test_sup_norm_bound(self):
        fam = self._family(eps=2.5e-4)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, size=(50, 2))
        for p in fam.params:
            norms = np.linalg.norm(fam.displacement_batch(p, pts), axis=1)
            assert np.all(norms <= fam.eps + 1e-15)

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
        cap_r = nsy._local_radii(bundle)[3]
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
        r = nsy._local_radii(bundle2)[3] * scale
        c = np.array([0.3, 0.3])
        theta = np.array([0.5, 2.0, 4.0])
        omega = c + r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        xi = c + np.array([-r, 0.0])
        annuli, _ = nsy.forbidden_regions(omega, xi, bundle2)
        assert annuli.count_total == 1
        assert len(annuli.radii) == kept
        assert len(self._brute_force_annuli(omega, xi, bundle2)) == kept

    def test_radii_from_the_bundle(self, bundle2):
        # R lies just above r = d2 + eps3 rF, by the first-order slack
        # 4 r^2 w_ann / d1^2, and L spans two such circles and the ball
        ball_r, w_ann, w_slab, cap_r, local_r = nsy._local_radii(bundle2)
        rF = bundle2.rF
        assert (ball_r, w_ann, w_slab) == (rF / 200.0, 2.0 * bundle2.eps1 * rF,
                                           2.0 * bundle2.eps2 * rF)
        r = bundle2.d2 + bundle2.eps3 * bundle2.rF
        slack = 4.0 * r * r * 2.0 * bundle2.eps1 * bundle2.rF / bundle2.d1 ** 2
        assert r < cap_r <= r + 1.001 * slack
        width = 2.0 * max(bundle2.eps1, bundle2.eps2) * bundle2.rF
        assert local_r == 2.0 * cap_r + bundle2.rF / 200.0 + width
        assert local_r < 2.1 * bundle2.d2

    def test_too_wide_annuli_rejected(self):
        # w_ann = 0.02 rF turns a ray by asin(0.2) > d1 / 4 r: no R exists
        wide = types.SimpleNamespace(rF=1.0, d1=0.1, d2=0.2, eps1=0.01, eps2=1e-5,
                                     eps3=1e-5)
        with pytest.raises(ValidationError, match="bundle.eps1"):
            nsy.forbidden_regions(TRIANGLE, [0.1, 0.05], wide)

    @staticmethod
    def _separated_disk(rng, xi, radius, d1, fixed, count=120):
        """The fixed points, then uniform draws in D(xi, radius) kept when
        at least d1 from every point kept so far, up to count points."""
        pts = list(fixed)
        for _ in range(40 * count):
            if len(pts) == count:
                break
            p = xi + radius * math.sqrt(rng.uniform()) * np.array(
                [math.cos(t := rng.uniform(0.0, 2.0 * math.pi)), math.sin(t)])
            if all(np.linalg.norm(p - q) >= d1 for q in pts):
                pts.append(p)
        return np.array(pts)

    @pytest.mark.parametrize("seed", range(4))
    def test_complete_against_the_full_local_set(self, bundle2, seed):
        # a d1-separated local set over all of D(xi, 4 d2); the kept regions
        # must include every annulus and slab that the certificate can need:
        # circles of radius <= d2 + eps3 rF reaching the ball, and lines
        # through pairs <= 2 d2 apart, both within 2 d2 + ball_r of xi
        rF, d1, d2 = bundle2.rF, bundle2.d1, bundle2.d2
        ball_r = rF / 200.0
        w_ann, w_slab = 2.0 * bundle2.eps1 * rF, 2.0 * bundle2.eps2 * rF
        r_max = d2 + bundle2.eps3 * rF
        rng = np.random.default_rng(seed)
        xi = rng.uniform(-1.0, 1.0, size=2)
        u = np.array([math.cos(t := rng.uniform(0.0, 2.0 * math.pi)), math.sin(t)])

        def turn(a):
            return np.array([u[0] * math.cos(a) - u[1] * math.sin(a),
                             u[0] * math.sin(a) + u[1] * math.cos(a)])
        # the farthest cases: a circle of radius about r_max whose far point
        # lies 2 r + ball_r + w_ann / 2 from xi, and a pair 2 d2 apart on a
        # line through xi, the farther point 2 d2 + 0.99 ball_r from xi
        r = r_max * (1.0 - 1e-9)
        c = xi + (r + ball_r + 0.5 * w_ann) * u
        far = xi + (2.0 * d2 + 0.99 * ball_r) * turn(math.pi)
        fixed = [c + r * u, c + r * turn(2.2), c + r * turn(-2.2),
                 far, far + 2.0 * d2 * u]
        omega = self._separated_disk(rng, xi, 4.0 * d2, d1, fixed)
        annuli, slabs = nsy.forbidden_regions(omega, xi, bundle2)

        tri = np.array(list(itertools.combinations(range(len(omega)), 3)))
        a, b, cc = (omega[tri[:, k]] - xi for k in range(3))
        with np.errstate(divide="ignore", invalid="ignore"):
            den = 2.0 * (a[:, 0] * (b[:, 1] - cc[:, 1]) + b[:, 0] * (cc[:, 1] - a[:, 1])
                         + cc[:, 0] * (a[:, 1] - b[:, 1]))
            sa, sb, sc = (np.einsum("ij,ij->i", v, v) for v in (a, b, cc))
            cen = np.stack([sa * (b[:, 1] - cc[:, 1]) + sb * (cc[:, 1] - a[:, 1])
                            + sc * (a[:, 1] - b[:, 1]),
                            sa * (cc[:, 0] - b[:, 0]) + sb * (a[:, 0] - cc[:, 0])
                            + sc * (b[:, 0] - a[:, 0])], axis=1) / den[:, None]
            rad = np.linalg.norm(a - cen, axis=1)
            need = (rad <= r_max) & \
                (np.abs(np.linalg.norm(cen, axis=1) - rad) <= (ball_r + w_ann) * (1 - 1e-9))
        assert need[0]  # the far circle, the first triple
        for cn, rn in zip(cen[need] + xi, rad[need]):
            hit = (np.linalg.norm(annuli.centers - cn, axis=1) <= 1e-9) \
                & (np.abs(annuli.radii - rn) <= 1e-9)
            assert np.any(hit), (cn, rn)

        near = np.linalg.norm(omega - xi, axis=1) <= 2.0 * d2 + ball_r
        pairs = [(i, j) for i, j in itertools.combinations(range(len(omega)), 2)
                 if near[i] and near[j] and np.linalg.norm(omega[j] - omega[i]) <= 2.0 * d2]
        lines = 0
        for i, j in pairs:
            e = omega[j] - omega[i]
            qa, qb = omega[i] - xi, omega[j] - xi
            reach = (ball_r + w_slab) * (1 - 1e-9) * np.linalg.norm(e)
            if abs(qa[0] * qb[1] - qa[1] * qb[0]) > reach:
                continue
            lines += 1
            off = [np.abs((p - slabs.anchors)[:, 0] * slabs.directions[:, 1]
                          - (p - slabs.anchors)[:, 1] * slabs.directions[:, 0])
                   for p in (omega[i], omega[j])]
            assert np.any((off[0] <= 1e-12) & (off[1] <= 1e-12)), (i, j)
        assert lines >= 1  # the far pair at least
        patch = omega[np.linalg.norm(omega - xi, axis=1) <= ball_r + w_slab]
        assert {tuple(p) for p in patch} <= {tuple(p) for p in slabs.point_patches}

    def test_excluded_fraction_small(self, bundle2):
        sph = cs.circumcenter(TRIANGLE)
        xi = sph.center + np.array([sph.radius, 0.0])
        forb = nsy.forbidden_regions(TRIANGLE, xi, bundle2)
        frac = nsy.excluded_volume_fraction(xi, bundle2.rF / 200.0, *forb, samples=512,
                                            rng=np.random.default_rng(0))
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


def _float32_forbidden_regions(net_points, xi_prime, bundle):
    """The reference: ``forbidden_regions`` with its float32 prefilter over
    nine gathers and an additive slack of 1e-5 L^4, sized for local sets of
    57 points, as it was before the float64 prefilter bounded by R."""
    xi = np.asarray(xi_prime, dtype=float)
    pts = np.asarray(net_points, dtype=float)
    n = len(xi)
    rF = bundle.rF
    ball_r, w_ann, w_slab = rF / 200.0, 2.0 * bundle.eps1 * rF, 2.0 * bundle.eps2 * rF
    *_, cap_r, local_r = nsy._local_radii(bundle)
    omega = pts[np.linalg.norm(pts - xi, axis=1) <= local_r] if len(pts) else pts.reshape(0, n)
    s = len(omega)
    q = omega - xi
    sq = np.einsum("ij,ij->i", q, q)
    keep_c, keep_r, count_ann = np.zeros((0, n)), np.zeros(0), 0
    pr = np.array(list(itertools.combinations(range(s), 2)), dtype=np.int64).reshape(-1, 2)
    pr = pr[np.lexsort((pr[:, 0], pr[:, 1]))]  # colex, as _local_pack
    qa, qb = q[pr[:, 0]], q[pr[:, 1]]
    dvec = qb - qa
    l2p = np.einsum("ij,ij->i", dvec, dvec)
    crossp = qa[:, 0] * qb[:, 1] - qa[:, 1] * qb[:, 0]
    if s >= 3:
        tri = np.array(list(itertools.combinations(range(s), 3)), dtype=np.int64)
        tri = tri[np.lexsort((tri[:, 0], tri[:, 1], tri[:, 2]))]
        t0, t1, t2 = tri[:, 0], tri[:, 1], tri[:, 2]
        iab, iac, ibc = t1 * (t1 - 1) // 2 + t0, t2 * (t2 - 1) // 2 + t0, t2 * (t2 - 1) // 2 + t1
        sq32, x32, l32 = sq.astype(np.float32), crossp.astype(np.float32), l2p.astype(np.float32)
        xab, xac, xbc = x32[iab], x32[iac], x32[ibc]
        l2ab, l2ac, l2bc = l32[iab], l32[iac], l32[ibc]
        det = sq32[t0] * xbc - sq32[t1] * xac + sq32[t2] * xab
        two_s = np.abs(xbc - xac + xab)
        nondeg = two_s > 1e-12 * np.maximum(np.maximum(l2ab, l2ac), l2bc)
        count_ann = int(np.sum(nondeg))
        rho = np.float32(ball_r + w_ann)
        thr = rho * np.sqrt(l2ab * l2ac * l2bc) + rho * rho * two_s \
            + np.float32(1e-5 * local_r ** 4)
        cand = nondeg & (np.abs(det) <= thr)
        if np.any(cand):
            centers, radii, valid = cs.circumcenter_batch(omega[tri[cand]])
            reach = np.abs(np.linalg.norm(centers - xi, axis=1) - radii) <= ball_r + w_ann
            sel = valid & reach & (radii <= cap_r)
            keep_c, keep_r = centers[sel], radii[sel]
    annuli = nsy.Annuli(centers=keep_c, radii=keep_r, width=w_ann, count_total=count_ann)
    anchors, dirs = np.zeros((0, n)), np.zeros((0, n))
    if s >= 2:
        dlen = np.sqrt(l2p)
        sel = (dlen > 0) & (np.abs(crossp) <= (ball_r + w_slab) * dlen)
        anchors, dirs = omega[pr[sel, 0]], dvec[sel] / dlen[sel][:, None]
    slabs = nsy.Slabs(anchors=anchors, directions=dirs,
                      point_patches=omega[sq <= (ball_r + w_slab) ** 2],
                      width=w_slab)
    return annuli, slabs


def _same_regions(got, ref) -> bool:
    (a, s), (ra, rs) = got, ref
    return all(x.shape == y.shape and np.array_equal(x, y) for x, y in (
        (a.centers, ra.centers), (a.radii, ra.radii), (s.anchors, rs.anchors),
        (s.directions, rs.directions), (s.point_patches, rs.point_patches)))


def _nondegenerate_triples(omega, xi) -> int:
    """The definition of ``Annuli.count_total``, triple by triple: twice the
    area, from the crosses around xi, above 1e-12 times the longest squared
    edge, over the local set D(xi, L)."""
    q = omega - xi
    count = 0
    for a, b, c in itertools.combinations(range(len(q)), 3):
        cross = [q[i, 0] * q[j, 1] - q[i, 1] * q[j, 0] for i, j in ((a, b), (a, c), (b, c))]
        d = [q[j] - q[i] for i, j in ((a, b), (a, c), (b, c))]
        l2 = [e[0] * e[0] + e[1] * e[1] for e in d]
        count += abs(cross[2] - cross[1] + cross[0]) > 1e-12 * max(l2)
    return count


class TestPrefilter:
    """The float64 prefilter bounded by R drops nothing the exact stage keeps:
    annuli and slabs are bit-equal to the float32 reference's, in order."""

    @staticmethod
    def _band_set(rng, bundle, count):
        """A d1-separated set in D(xi, 1.2 L) whose nearest point to xi lies
        at band distance, between d1'' + ball_r and d2'' - ball_r, with xi
        anywhere in a 10 rF box."""
        rF, d1 = bundle.rF, bundle.d1
        ball_r = rF / 200.0
        lo, hi = bundle.d1pp + ball_r, bundle.d2pp - ball_r
        local_r = nsy._local_radii(bundle)[4]
        xi = rng.uniform(-5.0, 5.0, 2) * rF
        t = rng.uniform(0.0, 2.0 * math.pi)
        pts = [xi + rng.uniform(lo, hi) * np.array([math.cos(t), math.sin(t)])]
        for _ in range(60 * count):
            if len(pts) == count:
                break
            t = rng.uniform(0.0, 2.0 * math.pi)
            p = xi + 1.2 * local_r * math.sqrt(rng.uniform()) * np.array([math.cos(t), math.sin(t)])
            if np.linalg.norm(p - xi) >= lo and \
                    min(np.linalg.norm(p - q) for q in pts) >= d1:
                pts.append(p)
        return xi, np.array(pts)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=40))
    def test_bit_equal_to_the_float32_reference(self, bundle2, seed, count):
        xi, omega = self._band_set(np.random.default_rng(seed), bundle2, count)
        got = nsy.forbidden_regions(omega, xi, bundle2)
        assert _same_regions(got, _float32_forbidden_regions(omega, xi, bundle2))
        local_r = nsy._local_radii(bundle2)[4]
        local = omega[np.linalg.norm(omega - xi, axis=1) <= local_r]
        assert got[0].count_total == _nondegenerate_triples(local, xi)

    def test_reference_keeps_annuli(self, bundle2):
        # the property above compares non-trivial regions
        kept = 0
        for seed in range(20):
            xi, omega = self._band_set(np.random.default_rng(seed), bundle2, 20)
            kept += len(_float32_forbidden_regions(omega, xi, bundle2)[0].radii)
        assert kept >= 20

    def test_replays_every_step_of_a_3rf_synthesis(self, bundle2, monkeypatch):
        # the local sets and probes of the 3 rF seed-1 net, step by step
        steps = []
        regions = nsy.forbidden_regions

        def record(net_points, xi, bundle):
            steps.append((np.array(net_points), np.array(xi)))
            return regions(net_points, xi, bundle)

        monkeypatch.setattr(nsy, "forbidden_regions", record)
        side = 3.0 * bundle2.rF
        net, _ = nsy.synthesize_net(nsy.Region.box([0.0, 0.0], [side, side]), bundle2, seed=1)
        assert len(steps) == len(net) > 900
        kept = 0
        for net_points, xi in steps:
            got = regions(net_points, xi, bundle2)
            assert _same_regions(got, _float32_forbidden_regions(net_points, xi, bundle2))
            kept += len(got[0].radii)
        assert kept > len(steps)

    @pytest.mark.parametrize("side", [1.0, -1.0])  # xi outside or inside the circle
    @pytest.mark.parametrize("reach,kept", [(1.0 - 1e-9, 1), (1.0 + 1e-9, 0)])
    def test_circle_of_radius_just_below_r(self, bundle2, side, reach, kept):
        # a circle of radius R (1 - 1e-9) passing rho (1 -+ 1e-9) from xi
        cap_r = nsy._local_radii(bundle2)[3]
        rho = bundle2.rF / 200.0 + 2.0 * bundle2.eps1 * bundle2.rF
        r = cap_r * (1.0 - 1e-9)
        xi = np.array([2.3, -1.7])
        c = xi + (r + side * rho * reach) * np.array([0.6, 0.8])
        theta = np.array([1.0, 2.5, 4.2])
        omega = c + r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        got = nsy.forbidden_regions(omega, xi, bundle2)
        assert len(got[0].radii) == kept
        assert _same_regions(got, _float32_forbidden_regions(omega, xi, bundle2))

    @pytest.mark.parametrize("line", [((0.0, 0.0), (0.1, 0.0)), ((0.3, 0.1), (0.1, 0.07))])
    def test_collinear_triple_is_not_counted(self, bundle2, line):
        # three points on one line (exactly, or up to rounding) and a fourth
        # off it: three of the four triples are nondegenerate
        p, v = (np.array(x) for x in line)
        omega = np.array([p, p + v, p + 2.0 * v, p + v + np.array([-v[1], v[0]])])
        local_r = nsy._local_radii(bundle2)[4]
        for xi in p + np.array([[0.05, 0.02], [0.2, -0.1], [0.1, 0.3]]):
            assert np.all(np.linalg.norm(omega - xi, axis=1) <= local_r)
            annuli, _ = nsy.forbidden_regions(omega, xi, bundle2)
            assert annuli.count_total == 3
            assert _nondegenerate_triples(omega, xi) == 3


class TestExcludedVolumeBound:
    def test_formula(self):
        rho, wa, ws = 1.0, 0.01, 0.02
        annuli = nsy.Annuli(np.zeros((2, 2)), np.ones(2), wa, 2)
        slabs = nsy.Slabs(np.zeros((3, 2)), np.ones((3, 2)), np.zeros((1, 2)), ws)
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
                              rng.uniform(-0.8, 0.8, size=(2, 2)), 0.04)
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

    def test_ball_test_is_the_norm(self):
        # select_point tests a draw against its ball by math.sqrt(d.dot(d))
        rng = np.random.default_rng(5)
        scale = 10.0 ** rng.uniform(-150.0, 150.0, 4_000)
        for d in rng.uniform(-1.0, 1.0, (4_000, 2)) * scale[:, None]:
            assert math.sqrt(d.dot(d)) == np.linalg.norm(d)

    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_block_draws_select_what_the_generator_selects(self, block, monkeypatch):
        # wide regions reject most draws, so calls read many doubles each and
        # cross the block boundaries at every phase
        monkeypatch.setattr(nsy, "_DRAW_BLOCK", block)
        rng = np.random.default_rng(21)
        gen, draws = np.random.default_rng(5), nsy._Draws(np.random.default_rng(5))
        forb = TestForbiddenMaskAndFallback()._wide_regions(rng)
        xi, rho = TestForbiddenMaskAndFallback.XI, TestForbiddenMaskAndFallback.RHO
        for _ in range(40):
            want = nsy.select_point(xi, forb, gen, rho)
            got = nsy.select_point(xi, forb, draws, rho)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert draws.uniform(1.5, 2.5) == gen.uniform(1.5, 2.5)


def _propose_candidate(K, net_points, bundle, resolution):
    """Completeness oracle: the first node (row-major) of a fresh grid over K
    whose selection ball fits K and lies in the band between the d1''- and
    d2''-penumbras of the net; RegionExhaustedError when there is none."""
    ball_r = bundle.rF / 200.0
    grid = paper.region_grid(K, resolution)
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
                          xi + rho * rng.uniform(-0.8, 0.8, size=(2, 2)), 0.1 * rho)
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
                               np.zeros((0, 2)), 0.3 * rho)
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
        covered = nsy.Slabs(np.zeros((0, 2)), np.zeros((0, 2)), xi[None], 1.5 * rho)
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
        assert net.closest_pair[0] >= bundle2.d1
        # the synthesis domain (K plus the 2*d2 collar) is d2-dense
        assert paper.check_density(net, bundle2.rF / 100.0) <= bundle2.d2
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

    @pytest.mark.parametrize("seed, digest", [
        ("1", "7fa827ed9c3fd72cfd0d1b00423469322f575ebee10a05d138089c5c5d480831"),
        ("2", "6af517fba2b9806384f3ecd491fabb013dc59d349a44b1934defb5d108e765a7"),
    ])
    def test_5rf_net_baseline(self, tmp_path, seed, digest):
        # the benchmark's synth_5rF size: every step of the synthesizer, pinned
        b, n = str(tmp_path / "bundle.json"), tmp_path / "net.json"
        assert cli.main(["constants", "--dim", "2", "--out", b]) == 0
        assert cli.main(["synthesize", "--bundle", b, "--box", "0,0,5.0,5.0",
                         "--seed", seed, "--out", str(n)]) == 0
        assert hashlib.sha256(n.read_bytes()).hexdigest() == digest


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
        fronts = (nsy._BandFront(clear.copy(), 0.3, 0.6), _HeapFront(clear, 0.3, 0.6))
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
        assert not np.any(fronts[0].code == 1) and not fronts[0].rows.any()

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 10.0), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
    def test_codes_on_the_band_edges(self, lo2, gap, seed):
        # every dd on lo2 or hi2 or one of their float neighbours: the codes
        # must be those of the least squared distance, compared as floats
        hi2 = lo2 + gap
        rng = np.random.default_rng(seed)
        edges = np.array([np.nextafter(lo2, 0.0), lo2, np.nextafter(lo2, np.inf),
                          np.nextafter(hi2, 0.0), hi2, np.nextafter(hi2, np.inf)])
        shape = (5, 7)
        clear = rng.random(shape) > 0.2
        front = nsy._BandFront(clear.copy(), lo2, hi2)
        dist2 = np.full(shape, np.inf)
        for _ in range(8):
            i0, j0 = int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1]))
            i1 = int(rng.integers(i0 + 1, shape[0] + 1))
            j1 = int(rng.integers(j0 + 1, shape[1] + 1))
            dd = rng.choice(edges, size=(i1 - i0, j1 - j0))
            front.lower(i0, j0, dd)
            np.minimum(dist2[i0:i1, j0:j1], dd, out=dist2[i0:i1, j0:j1])
            band = clear & (dist2 >= lo2) & (dist2 <= hi2)
            want = np.where(clear, (dist2 <= hi2).astype(int) + (dist2 < lo2), 2)
            assert np.array_equal(front.code, want)
            assert np.array_equal(front.rows, band.sum(axis=1))
            flat = np.flatnonzero(band)
            assert front.next() == (divmod(int(flat[0]), shape[1]) if len(flat) else None)


def _grid_nodes(K, bundle) -> int:
    """Node count of synthesize_net's grid over K plus its 2*d2 collar."""
    lo, hi = K.expand(2.0 * bundle.d2).bounding_box()
    h = bundle.rF / 200.0
    return math.prod(int(math.floor((hi[k] - lo[k]) / h)) + 1 for k in range(2))


class TestSynthesisMemory:
    def test_peak_below_two_bytes_per_node(self, bundle2, monkeypatch):
        # a fresh pack, so its growth during the run is counted too
        monkeypatch.setattr(nsy, "_LOCAL_PACK", {"cap": -1, "pack": None})
        side = 5.0 * bundle2.rF
        K = nsy.Region.box([0.0, 0.0], [side, side])
        tracemalloc.start()
        try:
            net, _ = nsy.synthesize_net(K, bundle2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nodes = _grid_nodes(K, bundle2)
        assert len(net) > 1000
        assert peak < 2 * nodes, (peak, nodes)

    def test_local_pack_against_colex_reference(self, monkeypatch):
        # one cache, grown cold from s = 0, then read back at every s up to 80
        monkeypatch.setattr(nsy, "_LOCAL_PACK", {"cap": -1, "pack": None})
        for s in (*range(81), *range(80, -1, -7)):
            pairs, triples, triple_pairs = nsy._local_pack(s)
            want_pairs, want_triples = _colex(s, 2), _colex(s, 3)
            assert pairs.dtype == triples.dtype == triple_pairs.dtype == np.int64
            assert np.array_equal(pairs, want_pairs.reshape(-1, 2).T)
            assert np.array_equal(triples, want_triples.reshape(-1, 3).T)
            for row, cols in zip(triple_pairs, ([0, 1], [0, 2], [1, 2])):  # ab, ac, bc
                assert np.array_equal(pairs[:, row], triples[cols])
            # prefix: every slice reads the one pack
            pack = nsy._LOCAL_PACK["pack"]
            for got, whole in zip((pairs, triples, triple_pairs), pack):
                assert np.shares_memory(got, whole) or got.size == 0
                assert np.array_equal(got, whole[:, :got.shape[1]])
        assert 80 <= nsy._LOCAL_PACK["cap"] <= 80 + 32

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_combo_indices_on_a_cold_cache(self, s, monkeypatch):
        monkeypatch.setattr(nsy, "_LOCAL_PACK", {"cap": -1, "pack": None})
        pairs, triples, triple_pairs = nsy._local_pack(s)
        for got, k in ((pairs, 2), (triples, 3)):
            assert got.shape == (k, math.comb(s, k))
            assert sorted(map(tuple, got.T.tolist())) == \
                list(itertools.combinations(range(s), k))
        assert triple_pairs.shape == (3, 0)

    def test_triple_pack_leaves_no_triple_combinations(self, monkeypatch):
        monkeypatch.setattr(nsy, "_LOCAL_PACK", {"cap": -1, "pack": None})
        for s in (3, 9, 40, 12):
            pairs, tri, tpairs = nsy._local_pack(s)
            assert tri.shape == tpairs.shape == (3, math.comb(s, 3))
            assert sorted(map(tuple, tri.T.tolist())) == \
                list(itertools.combinations(range(s), 3))
            for row, cols in zip(tpairs, ([0, 1], [0, 2], [1, 2])):  # ab, ac, bc
                assert np.array_equal(pairs[:, row], tri[cols])
        # one pack, grown once to 40 + 32, and no per-s cache beside it
        assert set(nsy._LOCAL_PACK) == {"cap", "pack"}
        assert nsy._LOCAL_PACK["pack"][1].shape == (3, math.comb(40 + 32, 3))


def _colex(s: int, k: int) -> np.ndarray:
    """The k-subsets of range(s) as rows, in colex order: sorted by their
    largest element, then the next, and so on."""
    rows = [c[::-1] for c in itertools.combinations(range(s), k)]
    return np.array([r[::-1] for r in sorted(rows)], dtype=np.int64)


@pytest.mark.parametrize("seed", range(8))
def test_synthesized_nets_certify(bundle2, seed):
    # 3 rF nets at depth 2 with family seed = seed: the certificate passes
    # and duality holds, with the local sets of _local_radii
    K = nsy.Region.box([0.0, 0.0], [3.0 * bundle2.rF, 3.0 * bundle2.rF])
    net, _ = nsy.synthesize_net(K, bundle2, seed=seed)
    cx = tess.build_delaunay(net, None)
    cert = nsy.certify_family_stability(net, cx, nsy.make_family(bundle2, depth=2, seed=seed),
                                        bundle2)
    assert cert.ok, cert.worst
    assert cx.regular
    assert tess.check_duality(net, cx).ok


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
    got = cert.per_simplex
    assert list(map(tuple, got["simplex"].tolist())) == \
        [r["simplex"] for r in want["per_simplex"]]
    ref = {k: np.array([r[k] for r in want["per_simplex"]], dtype=float) for k in
           ("robustness_margin", "base_clearance_margin", "center_drift", "radius_drift")}
    for key in ("robustness_margin", "base_clearance_margin"):
        assert np.all((ref[key] - 1e-9 * bundle.rF <= got[key]) & (got[key] <= ref[key]))
    assert np.all(got["center_drift"] >= ref["center_drift"])
    assert np.all(got["radius_drift"] >= ref["radius_drift"])


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


def _near_miss_reach(net, family):
    """(rho, alpha) of step 3 of ``certify_family_stability``, from its
    docstring: the largest base radius of a translate's new top triangle
    and the depth of the deepest site its base circle may hold."""
    d2 = net.d2
    eta_f = 64.0 * 2.0 ** -53 * (float(np.max(np.abs(net.points))) + d2)
    eta = family.eps + eta_f
    e1 = min(net.d1, net.closest_pair[0])

    def drift(t, delta):
        return float(cs.displacement_bound(t, d2, delta, 2))

    delta = robustness.v2_constant(e1 - 2.0 * eta, d2) - ((2.0 * d2 + 2.0 * eta) ** 2
                                                          - (2.0 * d2) ** 2)
    dc, phi = drift(eta, delta), drift(eta_f, delta) + eta_f
    return d2 + dc + eta + phi, 2.0 * (dc + eta + phi) + tess.EMPTY_RTOL * d2


def _enumerated_near_misses(net, complex_, family):
    """The near-miss search by enumeration, the reference for the Qhull
    pass: every triple of circumradius <= rho that is not a top triangle and
    holds no site deeper than alpha inside its circle, by the exact
    nearest-site depth."""
    rho, alpha = _near_miss_reach(net, family)
    rows, c, r = tess.small_spheres(net, rho)
    other = ~tess.rows_in(rows, complex_.top_arrays(2)[0], len(net))
    depth = r[other] - cKDTree(net.points).query(c[other])[0]
    return rows[other][depth <= alpha]


def _refuse_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("the near-miss set was enumerated")

    monkeypatch.setattr(tess, "small_spheres", refuse)


class TestCertification:
    def test_pass(self, tiny, bundle2):
        net, cx = tiny
        fam = nsy.make_family(bundle2, depth=2, seed=0)
        cert = nsy.certify_family_stability(net, cx, fam, bundle2)
        assert cert.ok
        assert cert.params_checked == fam.params
        assert cert.worst["margin"] >= 0
        assert len(cert.per_simplex["simplex"]) == len(cx.top(2))

    def test_one_qhull_run_per_net(self, tiny, bundle2, monkeypatch):
        # the build and every certify call read the net's Net.qhull; each
        # over-budget parameter's translate is a net of its own, with its own
        import scipy.spatial

        runs = []

        class CountingDelaunay(scipy.spatial.Delaunay):
            def __init__(self, points, *args, **kwargs):
                runs.append(len(points))
                super().__init__(points, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "Delaunay", CountingDelaunay)
        net = dataclasses.replace(tiny[0])  # a new object: nothing cached
        cx = tess.build_delaunay(net, None)
        fam = nsy.make_family(bundle2, depth=2, seed=0)
        for _ in range(2):
            cert = nsy.certify_family_stability(net, cx, fam, bundle2)
            assert cert.ok and cert.budget["near_miss"] == 0
        assert runs == [len(net)]
        for over in (["10"], ["01", "10"]):
            runs.clear()
            bad = fam
            for param in over:
                bad = bad.with_override(param, 0, [10.0 * bundle2.d1, 0.0])
            cert = nsy.certify_family_stability(net, cx, bad, bundle2)
            assert cert.budget["over_budget"] == over
            assert runs == [len(net)] * len(over)

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
        fam = nsy.ParamFamily(depth=depth, eps=eps_rF * bundle2.rF,
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

    def test_missing_top_is_a_near_miss(self, tiny, bundle2):
        # a complex without one of the net's Delaunay triangles: that
        # triangle is a translate's top not in the complex
        net, cx = tiny
        verts, centers, radii = cx.top_arrays(2)
        short = tess.DelaunayComplex.from_arrays(2, verts[1:], centers[1:], radii[1:],
                                                 cx.regular)
        cert = nsy.certify_family_stability(net, short, nsy.make_family(bundle2, depth=2),
                                            bundle2)
        assert not cert.ok and cert.worst["quantity"] == "near_miss"
        assert cert.worst["simplex"] == tuple(verts[0].tolist())
        assert cert.budget["near_miss"] == 1

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
            raise AssertionError("the near-miss set was searched")

        monkeypatch.setattr(tess, "small_spheres", refuse)
        monkeypatch.setattr(tess.Net, "qhull", property(refuse))
        cert = nsy.certify_family_stability(loose, cx, nsy.make_family(bundle2, depth=2),
                                            bundle2)
        assert not cert.ok
        assert cert.worst["quantity"] == "near_miss"
        assert cert.worst["margin"] < 0 and cert.worst["simplex"] is None
        assert cert.worst["detail"]["near_miss_drift"] > bundle2.eps3 * bundle2.rF / 2.0
        assert cert.budget["near_miss"] is None

    def test_passing_certificate_enumerates_nothing(self, tiny, bundle2, small_net_pack,
                                                    small_complex, monkeypatch):
        _refuse_enumeration(monkeypatch)
        for net, cx in (tiny, (small_net_pack["net"], small_complex)):
            cert = nsy.certify_family_stability(net, cx, nsy.make_family(bundle2, depth=3),
                                                bundle2)
            assert cert.ok and cert.budget["near_miss"] == 0

    @pytest.mark.parametrize("case", ["lattice", 1, 2, 3])
    def test_qhull_pass_and_enumeration_pass_benchmark_nets(self, bundle2, monkeypatch,
                                                            case):
        # the 32 x 32 jittered lattice of the certify_deep benchmark at seed
        # 1, and the 3 rF nets of the pipeline benchmark at seeds 1-3
        if case == "lattice":
            net = _lattice_patch(bundle2, np.random.default_rng(1), "triangular", 0.005,
                                 side=32)
            fam = nsy.make_family(bundle2, depth=5, seed=1)
        else:
            K = nsy.Region.box([0.0, 0.0], [3.0 * bundle2.rF, 3.0 * bundle2.rF])
            net, _ = nsy.synthesize_net(K, bundle2, seed=case)
            fam = nsy.make_family(bundle2, depth=2, seed=case)
        cx = tess.build_delaunay(net, None)
        with monkeypatch.context() as m:
            _refuse_enumeration(m)
            cert = nsy.certify_family_stability(net, cx, fam, bundle2)
        assert cert.ok and cert.budget["near_miss"] == 0
        assert cert.worst["quantity"] != "near_miss"
        assert len(_enumerated_near_misses(net, cx, fam)) == 0

    @pytest.mark.parametrize("seed, real", [(0, False), (1, True), (3, True), (4, False),
                                            (5, False), (6, True), (7, False), (8, False)])
    def test_flagged_near_misses_are_settled_exactly(self, bundle2, seed, real):
        # square patches jittered by 1e-6 rF: every patch has triangles
        # whose clearance is below t_B, but only seeds 1, 3 and 6 have a
        # triple within alpha of empty; the others must pass
        net = _lattice_patch(bundle2, np.random.default_rng(seed), "square", 1e-6)
        cx = tess.build_delaunay(net, None)
        fam = nsy.make_family(bundle2, depth=2, seed=0)
        cert = nsy.certify_family_stability(net, cx, fam, bundle2)
        enumerated = set(map(tuple, _enumerated_near_misses(net, cx, fam).tolist()))
        assert bool(enumerated) == real
        if real:
            assert not cert.ok and cert.worst["quantity"] == "near_miss"
            assert cert.budget["near_miss"] >= 1
            assert set(map(tuple, cert.worst["detail"]["near_miss"])) <= enumerated
        else:
            assert cert.ok and cert.budget["near_miss"] == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["triangular", "square"]),
           jitter=st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-8, 1e-6, 0.005, 0.02])
           | st.floats(0.0, 0.02),
           eta_rF=st.sampled_from([0.0, 1.3e-12, 1e-10, 1e-9, 1e-7]))
    @example(seed=0, kind="square", jitter=1e-9, eta_rF=0.0)  # near misses 1e-10 deep
    def test_qhull_pass_is_sound_against_enumeration(self, bundle2, seed, kind, jitter,
                                                     eta_rF):
        # whenever the Qhull pass flags nothing, the enumeration finds no
        # near miss either
        net = _lattice_patch(bundle2, np.random.default_rng(seed), kind, jitter)
        cx = tess.build_delaunay(net, None)
        fam = nsy.ParamFamily(depth=1, eps=eta_rF * bundle2.rF, scale=bundle2.rF,
                              seed=seed % 997)
        cert = nsy.certify_family_stability(net, cx, fam, bundle2)
        if cert.budget["near_miss"] == 0:
            assert len(_enumerated_near_misses(net, cx, fam)) == 0
        elif cert.budget["near_miss"] is not None:
            assert cert.worst["quantity"] == "near_miss" and cert.worst["margin"] == -math.inf

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(1, 5),
           alpha=st.sampled_from([1e-10, 1e-7, 1e-4, 1e-2]))
    def test_lifting_lemma(self, seed, extra, alpha):
        # T on the unit circle and `extra` sites within alpha of its circle,
        # inside or out: the Qhull triangle S holding T's centroid has its
        # center within Delta of T's, and, unless S = T, a site within t_B
        # of its circle (the lemma of step 3, exact case beta = 0)
        rng = np.random.default_rng(seed)
        ang = np.concatenate([rng.uniform(0.0, 2.0 * math.pi)
                              + np.array([0.0, 2.0, 4.0]) + rng.uniform(-0.4, 0.4, 3),
                              rng.uniform(0.0, 2.0 * math.pi, extra)])
        depth = np.concatenate([np.zeros(3), rng.choice([-1.0, 1.0], extra)
                                * np.where(rng.random(extra) < 0.5, 1.0,
                                           rng.random(extra)) * alpha])
        pts = (1.0 - depth)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        rho = 1.0
        e1 = min(float(np.min(np.linalg.norm(pts[:3] - np.roll(pts[:3], 1, axis=0),
                                             axis=1))), 0.99 * rho)
        lift = 12.0 * rho ** 2 * alpha / robustness.v2_constant(e1, rho)
        r0 = e1 / 2.0
        t_b = 3.0 * alpha * r0 / math.sqrt((r0 - lift) ** 2 - 6.0 * r0 * alpha)
        tri = Delaunay(pts)
        s = np.sort(tri.simplices[int(tri.find_simplex(np.mean(pts[:3], axis=0)))])
        sphere = cs.circumcenter(pts[s])
        assert np.linalg.norm(sphere.center) <= lift + 1e-12
        if s.tolist() != [0, 1, 2]:
            d = np.sort(np.linalg.norm(pts - sphere.center, axis=1))
            assert d[3] - sphere.radius <= t_b + 1e-12

    def test_depth_independent(self, tiny, bundle2):
        net, cx = tiny
        certs = [nsy.certify_family_stability(net, cx, nsy.make_family(bundle2, depth=d),
                                              bundle2) for d in (1, 8)]
        assert certs[0].ok and len(certs[1].params_checked) == 256
        for field in ("worst", "budget"):
            assert getattr(certs[0], field) == getattr(certs[1], field)
        cols = [c.per_simplex for c in certs]
        assert cols[0].keys() == cols[1].keys()
        assert all(np.array_equal(cols[0][k], cols[1][k]) for k in cols[0])

    def test_planar_only(self, bundle2):
        pts = np.eye(3) * 0.15 * bundle2.rF
        net = tess.Net(dim=3, points=np.vstack([np.zeros(3), pts]), d1=bundle2.d1,
                       d2=bundle2.d2)
        with pytest.raises(UnsupportedDimError, match="dim = 2"):
            nsy.certify_family_stability(net, tess.build_delaunay(net, None),
                                         nsy.make_family(bundle2, depth=1),
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

    def test_rebuilds_go_through_build_delaunay(self, tiny, bundle2, monkeypatch):
        # one build per over-budget parameter, through the module attribute
        # that tracers wrap, and none for a family within its budget
        net, cx = tiny
        fam = nsy.make_family(bundle2, depth=2)
        built = []
        real = tess.build_delaunay
        monkeypatch.setattr(tess, "build_delaunay",
                            lambda net_, metric: built.append(net_) or real(net_, metric))
        nsy.certify_family_stability(net, cx, fam.with_override("01", 0, [fam.eps, 0.0]),
                                     bundle2)
        assert built == []
        beyond = fam.with_override("01", 0, [0.0, 2.0 * fam.eps]) \
            .with_override("11", 1, [10.0 * bundle2.d1, 0.0])
        cert = nsy.certify_family_stability(net, cx, beyond, bundle2)
        assert cert.budget["over_budget"] == ["01", "11"] and len(built) == 2
        assert not cert.ok and cert.worst["param"] == "11"


def _vertex_incidence(complex_, n):
    """site index -> list of top simplices containing it."""
    inc = {}
    for s in complex_.top(n):
        for v in s.vertices:
            inc.setdefault(int(v), []).append(s)
    return inc


def _locate_simplex(points, incidence, q, candidates):
    """Containing top simplex of q and q's barycentric coordinates, searched
    through the simplicial cones of the candidate sites in order, one
    single-row solve per simplex."""
    seen = set()
    for j in candidates:
        for s in incidence.get(int(j), ()):
            if s.vertices in seen:
                continue
            seen.add(s.vertices)
            bary = scalar_barycentric(points[list(s.vertices)], q)
            if np.all(bary >= -1e-12):
                return s, bary
    raise CoverageGapError(f"sample {q} lies outside every cone simplex")


def _reference_product(ps, net, complex_, family):
    """(table, class_sizes, injective) of the per-sample location loop over
    the grid of ``ps``: the reference for ``build_product_structure``."""
    grid = ps.grid
    params = family.params
    translated = {p: nsy.translate_net(net, p, family).points for p in params}
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
    return table, class_sizes, injective


def _assert_bit_equal_tables(a, b):
    assert list(a) == list(b)
    for key, v in a.items():
        assert np.array_equal(np.array(v).view(np.int64), np.array(b[key]).view(np.int64)), key


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

    @pytest.mark.parametrize("which", ["small_net_pack", "synthesized_3rF"])
    def test_bit_equal_to_the_location_loop(self, bundle2, small_net_pack,
                                            small_complex, which):
        if which == "small_net_pack":
            net, cx = small_net_pack["net"], small_complex
            K = nsy.Region.box([1.0, 1.0], [2.0, 2.0])
        else:
            side = 3.0 * bundle2.rF
            K = nsy.Region.box([0.0, 0.0], [side, side])
            net, _ = nsy.synthesize_net(K, bundle2, seed=1)
            cx = tess.build_delaunay(net, None)
        fam = nsy.make_family(bundle2, depth=3, seed=1)
        ps = nsy.build_product_structure(K, net, cx, fam, grid_shape=(40, 40))
        table, class_sizes, injective = _reference_product(ps, net, cx, fam)
        _assert_bit_equal_tables(ps.table, table)
        assert ps.class_sizes == class_sizes
        assert ps.injective == injective

    def test_class_sizes_count_distinct_images(self, bundle2, small_net_pack,
                                               small_complex):
        # a zero family with the same override on "01" and "11" at one site:
        # samples near it have two distinct images, the others one
        net = small_net_pack["net"]
        K = nsy.Region.box([1.0, 1.0], [2.0, 2.0])
        v = int(cKDTree(net.points).query([1.5, 1.5])[1])
        vec = [0.01 * bundle2.rF, 0.0]
        fam = dataclasses.replace(nsy.make_family(bundle2, depth=2), eps=0.0)
        fam = fam.with_override("01", v, vec).with_override("11", v, vec)
        ps = nsy.build_product_structure(K, net, small_complex, fam,
                                         grid_shape=(12, 12))
        table, class_sizes, injective = _reference_product(ps, net, small_complex, fam)
        assert ps.class_sizes == class_sizes
        assert set(class_sizes) == {1, 2}
        assert not ps.injective and not injective
        # the table is a read-only Mapping equal to the reference dict
        assert isinstance(ps.table, Mapping) and len(ps.table) == len(table)
        _assert_bit_equal_tables(ps.table, table)
        assert ps.table == table and list(ps.table.values()) == list(table.values())
        assert (np.int64(3), "11") in ps.table and ps.table[(np.int64(3), "11")] == table[(3, "11")]
        for key in [(len(ps.grid), "00"), (-1, "00"), (0, "0"), (0.5, "00"), 0, "00"]:
            assert key not in ps.table
            with pytest.raises(KeyError):
                ps.table[key]
        with pytest.raises(TypeError):
            ps.table[(0, "00")] = (0.0, 0.0)

    def test_nearest_site_not_interior(self, bundle2, small_net_pack, small_complex):
        # the net's own region reaches past its interior sites
        net = small_net_pack["net"]
        fam = nsy.make_family(bundle2, depth=1)
        with pytest.raises(CoverageGapError, match="is not interior") as err:
            nsy.build_product_structure(net.region, net, small_complex, fam,
                                        grid_shape=(8, 8))
        assert "of sample [" in str(err.value)

    def test_sample_escapes_every_cone(self, bundle2, small_net_pack, small_complex):
        # drop the top triangle around one sample: it lies in no other one
        net = small_net_pack["net"]
        K = nsy.Region.box([1.0, 1.0], [2.0, 2.0])
        fam = nsy.make_family(bundle2, depth=1)
        full = nsy.build_product_structure(K, net, small_complex, fam,
                                           grid_shape=(6, 6))
        verts, centers, radii = small_complex.top_arrays(2)
        y = full.grid[14]
        inside = np.all(tess.barycentric_coordinates(
            net.points[verts], np.broadcast_to(y, (len(verts), 2))) > 1e-6, axis=1)
        assert inside.sum() == 1
        keep = np.arange(len(verts)) != np.argmax(inside)
        holed = tess.DelaunayComplex.from_arrays(2, verts[keep], centers[keep], radii[keep],
                                                 small_complex.regular)
        with pytest.raises(CoverageGapError, match="outside every cone simplex") as err:
            nsy.build_product_structure(K, net, holed, fam, grid_shape=(6, 6))
        with pytest.raises(CoverageGapError) as want:
            _reference_product(full, net, holed, fam)
        assert str(err.value) == str(want.value)
