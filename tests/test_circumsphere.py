import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone import circumsphere as cs
from delone import linalg, paper
from delone.errors import DegenerateError, InvalidBudgetError


def _random_simplex(rng, n, spread=1.0):
    """Random affinely independent n-simplex (resampled until well formed)."""
    while True:
        pts = spread * rng.standard_normal((n + 1, n))
        u = paper.edge_matrix(pts)
        if abs(np.linalg.det(u)) > 1e-3 * spread**n:
            return pts


class TestCircumcenter:
    def test_right_triangle(self):
        sph = cs.circumcenter([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(sph.center, [0.5, 0.5])
        assert sph.radius == pytest.approx(math.sqrt(2) / 2)

    def test_unit_3_simplex(self):
        sph = cs.circumcenter([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert np.allclose(sph.center, [0.5, 0.5, 0.5])
        assert sph.radius == pytest.approx(math.sqrt(3) / 2)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateError):
            cs.circumcenter([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])

    def test_equidistance_random(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            for _ in range(100):
                pts = _random_simplex(rng, n)
                sph = cs.circumcenter(pts)
                d = np.linalg.norm(pts - sph.center, axis=1)
                assert np.max(np.abs(d - sph.radius)) <= 1e-9 * sph.radius

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=4))
    def test_property_equidistance(self, seed, n):
        pts = _random_simplex(np.random.default_rng(seed), n)
        sph = cs.circumcenter(pts)
        d = np.linalg.norm(pts - sph.center, axis=1)
        assert np.max(np.abs(d - sph.radius)) <= 1e-9 * sph.radius


class TestCircumcenterBatch:
    def test_matches_scalar(self):
        rng = np.random.default_rng(1)
        stacks = np.array([_random_simplex(rng, 3) for _ in range(64)])
        centers, radii, valid = cs.circumcenter_batch(stacks)
        assert valid.all()
        for k in range(len(stacks)):
            sph = cs.circumcenter(stacks[k])
            assert np.allclose(centers[k], sph.center, atol=1e-9)
            assert radii[k] == pytest.approx(sph.radius, rel=1e-9)

    def test_degenerate_rows_flagged(self):
        good = _random_simplex(np.random.default_rng(2), 2)
        bad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        centers, radii, valid = cs.circumcenter_batch(np.stack([good, bad]))
        assert valid[0] and not valid[1]
        assert np.isinf(radii[1])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coincident_rows_flagged(self, n):
        # the floor DEGENERACY_REL cb^n is 0 for coincident points, so they
        # must be flagged on their own: by the edge range in the plane, by
        # det U = 0 above it
        good = _random_simplex(np.random.default_rng(n), n)
        bad = np.full((n + 1, n), 0.25)
        alone = cs.circumcenter_batch(good[None])
        with np.errstate(invalid="ignore", divide="ignore"):
            centers, radii, valid = cs.circumcenter_batch(np.stack([good, bad, good]))
        assert valid.tolist() == [True, False, True]
        assert np.all(np.isnan(centers[1])) and radii[1] == np.inf
        for k in (0, 2):  # the good row's bits do not move
            assert np.array_equal(centers[k], alone[0][0]) and radii[k] == alone[1][0]
        with pytest.raises(DegenerateError):
            cs.circumcenter(bad)


def _lapack_valid(pts):
    """The validity flags of the body ``circumcenter_batch`` had for every
    n, with LAPACK's batched ``det``: the reference for the planar branch."""
    p = np.asarray(pts, dtype=float)
    n = p.shape[2]
    u = p[:, :-1, :] - p[:, -1:, :]
    det = np.linalg.det(u)
    cb = np.maximum(np.max(np.linalg.norm(u, axis=2), axis=1), 1e-300)
    return np.abs(det) >= linalg.DEGENERACY_REL * cb**n


def _gamma(k):
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


def _planar_triangles(rng, kind):
    """A stack of triangles: random at scales 1e-3 to 1e3, with |det U| from
    a tenth to ten times the validity floor, or unit-sized and offset 1e6
    from the origin."""
    m = 16
    if kind == "random":
        return rng.uniform(-1.0, 1.0, (m, 3, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1, 1))
    if kind == "offset":
        shift = 1e6 * rng.choice([-1.0, 1.0], (m, 1, 2))
        return rng.uniform(-1.0, 1.0, (m, 3, 2)) + shift
    # near the floor: y_1 lies off line y_0 y_2 by a height giving |det U| =
    # k DEGENERACY_REL |u|^2, |u| = |y_0 - y_2| the longest edge to y_2
    y0, y2 = rng.uniform(-1.0, 1.0, (2, m, 2))
    e = y0 - y2
    normal = np.stack([-e[:, 1], e[:, 0]], axis=1)
    k = 10.0 ** rng.uniform(-1.0, 1.0, (m, 1))
    y1 = y2 + rng.uniform(0.1, 0.9, (m, 1)) * e + k * linalg.DEGENERACY_REL * normal
    return np.stack([y0, y1, y2], axis=1)


def _exact_planar(p):
    """Exact c - y_2, |det U| and r^2 of a triangle's float edges, as
    Fractions, the edges rounded as the kernel rounds them."""
    u = p[:2] - p[2]
    (u0, u1), (v0, v1) = [[Fraction(float(x)) for x in row] for row in u]
    uu, vv = u0 * u0 + u1 * u1, v0 * v0 + v1 * v1
    det = u0 * v1 - u1 * v0
    xi = ((uu * v1 - vv * u1) / (2 * det), (vv * u0 - uu * v0) / (2 * det))
    return xi, abs(det), xi[0] ** 2 + xi[1] ** 2


class TestPlanarKernel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["random", "floor", "offset"]))
    def test_forward_error_bound(self, seed, kind):
        pts = _planar_triangles(np.random.default_rng(seed), kind)
        centers, radii, valid = cs.circumcenter_batch(pts)
        ref_valid = _lapack_valid(pts)
        for i, p in enumerate(pts):
            alone = cs.circumcenter_batch(p[None])
            assert alone[2][0] == valid[i]
            assert np.array_equal(alone[0][0], centers[i], equal_nan=True)
            assert alone[1][0] == radii[i]
            xi, det, r2 = _exact_planar(p)
            u = p[:2] - p[2]
            floor = linalg.DEGENERACY_REL * float(np.max(np.sum(u * u, axis=1)))
            if not 0.99 * floor <= det <= 1.01 * floor:  # away from the floor
                assert valid[i] == ref_valid[i]
            if not valid[i]:
                assert np.all(np.isnan(centers[i])) and radii[i] == np.inf
                continue
            # the written bound, with |det U| as the kernel computes it; its
            # own float evaluation carries a relative 64 u
            lu, lv = np.linalg.norm(u, axis=1)
            r = math.sqrt(float(r2))
            x = (lu * lu * lv + lv * lv * lu + 2.0 * r * lu * lv) \
                / (2.0 * abs(linalg.determinant(u)))
            slack = 1.0 + 64.0 * 2.0 ** -53
            exact_c = [xi[k] + Fraction(float(p[2, k])) for k in range(2)]
            err = math.hypot(*(float(Fraction(float(centers[i, k])) - exact_c[k])
                               for k in range(2)))
            # plus the rounding of c = (c - y_2) + y_2
            assert err <= (_gamma(6) * x + 2.0 ** -53 * math.hypot(
                *(float(c) for c in exact_c))) * slack
            assert abs(radii[i] - r) <= (_gamma(6) * x + _gamma(5) * r) * slack

    def test_empty_stack(self):
        centers, radii, valid = cs.circumcenter_batch(np.zeros((0, 3, 2)))
        assert centers.shape == (0, 2) and radii.shape == (0,) and valid.shape == (0,)


def _transposed_reference(pts):
    """The planar body ``circumcenter_batch`` had before its planar branch:
    a transposed contiguous copy, ``np.sum`` and ``linalg.determinant``."""
    p = np.asarray(pts, dtype=float)
    q = np.ascontiguousarray(p.transpose(1, 2, 0))
    u = q[:-1] - q[-1]
    lam = np.sum(u * u, axis=1)
    det = linalg.determinant(u.transpose(2, 0, 1))
    cb = np.maximum(np.sqrt(np.max(lam, axis=0)), 1e-300)
    # det U = 0 is degenerate also where the floor underflows to 0
    valid = (np.abs(det) >= linalg.DEGENERACY_REL * cb**2) & (det != 0.0)
    den = 2.0 * np.where(valid, det, np.nan)
    xi = np.stack([(lam[0] * u[1, 1] - lam[1] * u[0, 1]) / den,
                   (lam[1] * u[0, 0] - lam[0] * u[1, 0]) / den])
    radii = np.where(valid, np.sqrt(np.sum(xi * xi, axis=0)), np.inf)
    return np.ascontiguousarray((xi + q[-1]).T), radii, valid


def _bits_equal(got, ref):
    return all(a.shape == b.shape and a.dtype == b.dtype
               and np.array_equal(a, b, equal_nan=True) for a, b in zip(got, ref))


class TestPlanarBranch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=500),
           st.floats(min_value=-6.0, max_value=6.0))
    def test_bit_equal_to_the_transposed_formula(self, seed, rows, log_scale):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        pts = rng.uniform(-1.0, 1.0, (rows, 3, 2)) * scale \
            + rng.choice([0.0, 1.0], (rows, 1, 2)) * rng.uniform(-1e3, 1e3) * scale
        for k in rng.choice(rows, size=min(rows, 6), replace=False):
            kind = rng.integers(4)
            if kind == 0:  # collinear: y_1 between y_0 and y_2
                pts[k, 1] = pts[k, 0] + rng.uniform() * (pts[k, 2] - pts[k, 0])
            elif kind == 1:  # all three coincident
                pts[k, 1:] = pts[k, 0]
            elif kind == 2:  # two coincident
                pts[k, rng.integers(2)] = pts[k, 2]
            else:  # near the degeneracy floor
                e = pts[k, 0] - pts[k, 2]
                pts[k, 1] = pts[k, 2] + 0.5 * e + 1e-12 * np.array([-e[1], e[0]])
        with np.errstate(invalid="ignore", divide="ignore"):
            got = cs.circumcenter_batch(pts)
            assert _bits_equal(got, _transposed_reference(pts))
            # a row's bits do not depend on the stack it comes in
            order = rng.permutation(rows)
            assert _bits_equal(cs.circumcenter_batch(pts[order]),
                               [a[order] for a in got])
            for k in rng.choice(rows, size=min(rows, 4), replace=False):
                assert _bits_equal(cs.circumcenter_batch(pts[k:k + 1]),
                                   [a[k:k + 1] for a in got])


class TestPlanarRange:
    @pytest.mark.parametrize("k", [-110, -106, -100, 0, 100, 103, 110])
    def test_scaled_right_triangle_is_valid_and_accurate_or_flagged(self, k):
        # outside 2^-327 <= cb <= 2^340 the numerators underflow or overflow:
        # such a row must be flagged, never valid with a radius of 0 or inf
        s = 10.0 ** k
        with np.errstate(over="ignore", invalid="ignore"):
            centers, radii, valid = cs.circumcenter_batch(
                np.array([[[s, 0.0], [0.0, s], [0.0, 0.0]]]))
        cb_in_range = 2.0 ** -327 <= s <= 2.0 ** 340
        assert valid[0] == cb_in_range
        if not valid[0]:
            assert np.all(np.isnan(centers[0])) and radii[0] == np.inf
            return
        r = s / math.sqrt(2.0)  # within u r of the exact radius
        assert 0.0 < radii[0] < math.inf
        # the docstring bound for |a| = |b| = s, det U = s^2: gamma_6 (s + r),
        # plus the rounding of the radius and of the reference
        bound = _gamma(6) * (s + r) + _gamma(5) * r + 2.0 ** -53 * r
        assert abs(radii[0] - r) <= bound * (1.0 + 64.0 * 2.0 ** -53)
        assert np.all(np.abs(centers[0] - [s / 2.0, s / 2.0]) <= bound)


class TestBounds:
    @staticmethod
    def _closed_form(eps, e2, delta, n):
        e3 = e2 + eps
        return eps * (1 + n**1.5 * 2**(n + 1) * e3**n / delta
                      + 2 * n**3 * 2**(2 * n) * e3**(2 * n) / delta**2)

    def test_zero_eps_zero_bound(self):
        assert cs.displacement_bound(0.0, 2.0, 1.0, 2) == 0.0

    def test_displacement_formula(self):
        expect = self._closed_form(0.01, 2.0, 1.0, 2)
        assert cs.displacement_bound(0.01, 2.0, 1.0, 2) == pytest.approx(expect, rel=1e-14)

    def test_inf_exactly_where_delta_not_positive(self):
        delta = np.array([0.3, 0.0, -0.2, 1.7, -0.0, 2.5e-3, -np.inf])
        for n in (2, 3):
            got = cs.displacement_bound(0.01, 2.0, delta, n)
            assert got.shape == delta.shape
            assert np.array_equal(np.isinf(got), delta <= 0)
            for g, d in zip(got, delta):
                if d > 0:
                    assert g == pytest.approx(self._closed_form(0.01, 2.0, d, n), rel=1e-14)
                    assert g == cs.displacement_bound(0.01, 2.0, d, n)
            for d in (0.0, -0.0, -1.5):
                assert cs.displacement_bound(0.01, 2.0, d, n) == math.inf
            assert np.isfinite(cs.displacement_bound(0.01, 2.0, 0.3, n))

    def test_overflow_is_a_budget_error(self):
        # e3 ** 4 overflows a float above e3 ~ 1e77 (n = 2)
        assert np.isfinite(cs.displacement_bound(0.01, 1e75, 1e150, 2))
        with pytest.raises(InvalidBudgetError, match="overflows"):
            cs.displacement_bound(0.01, 1e80, np.array([1e160]), 2)

    def test_scale_invariance(self):
        # doubling every length (and the volume delta by 2^n) doubles the bound
        for n in (2, 3):
            assert cs.displacement_bound(0.02, 4.0, 0.3 * 2**n, n) == pytest.approx(
                2.0 * cs.displacement_bound(0.01, 2.0, 0.3, n), rel=1e-12)
            assert paper.stability_radius(0.3 * 2**n, 4.0, n) == pytest.approx(
                2.0 * paper.stability_radius(0.3, 2.0, n), rel=1e-12)

    def test_stability_radius_formula(self):
        for n in (2, 3):
            assert paper.stability_radius(0.7, 2.0, n) == pytest.approx(
                0.7 / (2**(n + 1) * n**1.5 * 2.0**(n - 1)))

    def test_spread(self):
        # (2R + 2t)^2 - (2R)^2 = 8 R t + 4 t^2
        assert cs.spread(1.0, 0.0) == 0.0
        assert cs.spread(2.0, 0.5) == pytest.approx(8.0 * 2.0 * 0.5 + 4.0 * 0.25)
        t = np.array([0.0, 1e-3, 0.1])
        assert np.allclose(cs.spread(0.5, t), 8.0 * 0.5 * t + 4.0 * t * t)


class TestRefineCenter:
    def test_exact_guess(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sph, bound = paper.refine_center(pts, [0.5, 0.5], 1e-9)
        assert np.allclose(sph.center, [0.5, 0.5])
        assert bound <= 1e-7

    def test_bound_dominates_drift(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        guess = np.array([0.5, 0.6])
        sph, bound = paper.refine_center(pts, guess, 0.12)
        drift = np.linalg.norm(guess - sph.center)
        assert bound >= drift

    def test_random_drifts_within_bound(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 500:
            pts = _random_simplex(rng, 2)
            sph = cs.circumcenter(pts)
            guess = sph.center + 0.01 * sph.radius * rng.standard_normal(2)
            d = np.linalg.norm(pts - guess, axis=1)
            c1 = float(np.max(np.abs(d - 0.5 * (d.min() + d.max())))) * 1.5 + 1e-12
            if 0.5 * (d.min() + d.max()) <= c1:
                continue
            count += 1
            got, bound = paper.refine_center(pts, guess, c1)
            assert np.linalg.norm(guess - got.center) <= bound

    def test_bad_guess_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            paper.refine_center(pts, [5.0, 5.0], 1e-3)
