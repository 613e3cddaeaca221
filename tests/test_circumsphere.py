import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone import circumsphere as cs
from delone.errors import DegenerateError, InvalidBudgetError


def _random_simplex(rng, n, spread=1.0):
    """Random affinely independent n-simplex (resampled until well formed)."""
    while True:
        pts = spread * rng.standard_normal((n + 1, n))
        u = cs.edge_matrix(pts)
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


class TestBounds:
    def test_budget_validation(self):
        with pytest.raises(InvalidBudgetError):
            cs.PerturbationBudget(e1=2.0, e2=1.0, eps=0.0, rho=1.0, delta=1.0)
        with pytest.raises(InvalidBudgetError):
            cs.PerturbationBudget(e1=1.0, e2=2.0, eps=-0.1, rho=1.0, delta=1.0)
        b = cs.PerturbationBudget(e1=1.0, e2=2.0, eps=0.5, rho=1.0, delta=1.0)
        assert b.e3 == 2.5

    def test_zero_eps_zero_bound(self):
        b = cs.PerturbationBudget(e1=1.0, e2=2.0, eps=0.0, rho=1.0, delta=1.0)
        assert cs.displacement_bound(b, 2) == 0.0

    def test_displacement_formula(self):
        b = cs.PerturbationBudget(e1=1.0, e2=2.0, eps=0.01, rho=1.0, delta=1.0)
        n, e3, d = 2, 2.01, 1.0
        expect = 0.01 * (1 + n**1.5 * 2**(n + 1) * e3**n / d
                         + 2 * n**3 * 2**(2 * n) * e3**(2 * n) / d**2)
        assert cs.displacement_bound(b, 2) == pytest.approx(expect, rel=1e-14)

    def test_scale_invariance(self):
        # doubling every length (and the volume delta by 2^n) doubles the bound
        for n in (2, 3):
            b1 = cs.PerturbationBudget(e1=1.0, e2=2.0, eps=0.01, rho=0.5, delta=0.3)
            b2 = cs.PerturbationBudget(e1=2.0, e2=4.0, eps=0.02, rho=1.0,
                                       delta=0.3 * 2**n)
            assert cs.displacement_bound(b2, n) == pytest.approx(
                2.0 * cs.displacement_bound(b1, n), rel=1e-12)
            assert cs.stability_radius(b2, n) == pytest.approx(
                2.0 * cs.stability_radius(b1, n), rel=1e-12)

    def test_stability_radius_formula(self):
        b = cs.PerturbationBudget(e1=1.0, e2=2.0, eps=0.0, rho=0.5, delta=0.7)
        for n in (2, 3):
            assert cs.stability_radius(b, n) == pytest.approx(
                0.7 / (2**(n + 1) * n**1.5 * 2.0**(n - 1)))


class TestRefineCenter:
    def test_exact_guess(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sph, bound = cs.refine_center(pts, [0.5, 0.5], 1e-9)
        assert np.allclose(sph.center, [0.5, 0.5])
        assert bound <= 1e-7

    def test_bound_dominates_drift(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        guess = np.array([0.5, 0.6])
        sph, bound = cs.refine_center(pts, guess, 0.12)
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
            got, bound = cs.refine_center(pts, guess, c1)
            assert np.linalg.norm(guess - got.center) <= bound

    def test_bad_guess_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            cs.refine_center(pts, [5.0, 5.0], 1e-3)


class TestEmptySphereTest:
    def test_cocircular_corners(self):
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        sph = cs.CircumSphere(center=np.array([0.5, 0.5]),
                              radius=math.sqrt(2) / 2)
        assert cs.empty_sphere_test(sph, corners, {0, 1, 2, 3})

    def test_interior_point_fails(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
        sph = cs.CircumSphere(center=np.array([0.5, 0.5]),
                              radius=math.sqrt(2) / 2)
        assert not cs.empty_sphere_test(sph, pts, {0, 1, 2, 3})

    def test_negative_margin_demands_clearance(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        sph = cs.CircumSphere(center=np.array([0.0, 0.0]), radius=1.0)
        assert cs.empty_sphere_test(sph, pts, {0}, margin=-0.5)
        assert not cs.empty_sphere_test(sph, pts, {0}, margin=-1.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pts = rng.uniform(0, 1, size=(20, 2))
            sph = cs.CircumSphere(center=rng.uniform(0, 1, size=2),
                                  radius=rng.uniform(0.05, 0.5))
            excl = set(rng.integers(0, 20, size=3).tolist())
            margin = rng.uniform(-0.05, 0.05)
            ref = all(np.linalg.norm(pts[i] - sph.center) >= sph.radius - margin
                      for i in range(20) if i not in excl)
            assert cs.empty_sphere_test(sph, pts, excl, margin) == ref
