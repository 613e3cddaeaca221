import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from conftest import robustness_2d
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delone import robustness as rb
from delone.errors import InvalidBudgetError


def _lstsq_prefix_distances(p: np.ndarray) -> np.ndarray:
    """Reference: each d(p_j, aff(p_0..p_{j-1})) as the residual of the
    least-squares projection of p_j - p_0 onto the span of the edge vectors."""
    out = []
    for j in range(1, len(p)):
        diff = p[j] - p[0]
        edges = (p[1:j] - p[0]).T
        if j > 1:
            coef, *_ = np.linalg.lstsq(edges, diff, rcond=None)
            diff = diff - edges @ coef
        out.append(np.linalg.norm(diff))
    return np.array(out)


class TestPrefixDistances:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3), st.just(2)),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
    def test_planar_bitwise_equal_to_reference(self, stacks):
        got = rb.prefix_distances(stacks).min(axis=1)
        assert np.array_equal(got, robustness_2d(stacks))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_lstsq_reference(self, n):
        rng = np.random.default_rng(n)
        checked = 0
        for k in range(2, n + 2):
            stacks = rng.standard_normal((200, k, n))
            for p, got in zip(stacks, rb.prefix_distances(stacks)):
                want = _lstsq_prefix_distances(p)
                if want.min() < 0.2:  # keep the well-conditioned stacks
                    continue
                checked += 1
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert checked >= 100 * n

    def test_too_many_points_rejected(self):
        with pytest.raises(ValueError):
            rb.prefix_distances(np.zeros((1, 4, 2)))


def _rho(pts) -> float:
    """Properly ordered robustness of one point list."""
    return float(rb.prefix_distances(np.asarray(pts, dtype=float)[None])[0].min())


class TestRobustnessOf:
    def test_axes(self):
        d = rb.prefix_distances(np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]))[0]
        assert d.min() == pytest.approx(1.0)
        assert tuple(d) == pytest.approx((1.0, 1.0))

    def test_collinear_zero(self):
        assert _rho([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            _rho([[0.0, 0.0]])

    def test_pinv_oracle(self):
        # oracle: distance to affine span via orthogonal projection
        rng = np.random.default_rng(0)
        for _ in range(100):
            pts = rng.standard_normal((4, 3))
            rho = _rho(pts)
            dists = []
            for k in range(3):
                base = pts[:k + 1]
                if k == 0:
                    dists.append(np.linalg.norm(pts[1] - base[0]))
                else:
                    e = (base[1:] - base[0]).T
                    proj = e @ np.linalg.pinv(e)
                    v = pts[k + 1] - base[0]
                    dists.append(np.linalg.norm(v - proj @ v))
            assert rho == pytest.approx(min(dists), abs=1e-9)

    def test_order_matters(self):
        # prefix robustness depends on the vertex order
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1]])
        assert _rho(pts) == pytest.approx(0.1)
        assert _rho(pts[[0, 2, 1]]) > 0.15


class TestRecursion:
    def test_delta_1_and_2_normalized(self):
        # with e1=1, e2=2: e4 = 4*(2+1) = 12, delta_2 = 2 + 4*12/1 = 50
        deltas = rb.delta_m_sequence(1.0, 0.01, 1.0, 2.0, 2)
        assert deltas[0] == 2.0
        assert deltas[1] == 50.0

    def test_rho_1_and_2(self):
        rho0, eps = 1.0, 0.01
        assert rb.rho_m_recursion(rho0, eps, 1.0, 2.0, 1) == \
            pytest.approx(rho0 - 2 * eps)
        assert rb.rho_m_recursion(rho0, eps, 1.0, 2.0, 2) == \
            pytest.approx(rho0 - 50 * eps)

    def test_zero_eps_identity(self):
        for m in (1, 2, 3, 4):
            assert rb.rho_m_recursion(0.7, 0.0, 1.0, 2.0, m) == pytest.approx(0.7)

    def test_monotone_decreasing_in_m(self):
        vals = [rb.rho_m_recursion(2.0, 1e-5, 1.0, 2.0, m) for m in range(1, 5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_nonpositive_rho_k_raises(self):
        # delta_2 = 50: rho_2 = 1 - 50 eps is 0 at eps = 0.02, -0.5 at 0.03
        for eps in (0.02, 0.03):
            assert len(rb.delta_m_sequence(1.0, eps, 1.0, 2.0, 2)) == 2  # rho_2 unused
            for m in (3, 5):
                with pytest.raises(InvalidBudgetError, match="rho_2 <= 0"):
                    rb.delta_m_sequence(1.0, eps, 1.0, 2.0, m)
        with pytest.raises(InvalidBudgetError, match="rho_2 <= 0"):
            rb.delta_m_sequence(-1.0, 0.0, 1.0, 2.0, 3)

    @given(rho0=st.floats(0.5, 4.0), eps=st.floats(0.0, 2e-3),
           e1=st.floats(0.1, 1.0), ratio=st.floats(1.01, 4.0), m=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_sequence_matches_the_formula_term_by_term(self, rho0, eps, e1, ratio, m):
        # the recursion as written in the docstring, every sum started afresh
        e2 = e1 * ratio
        e4 = 4.0 * (e2 + e1)
        want = [2.0]
        for j in range(2, m + 1):
            if any(rho0 - eps * want[k - 1] <= 0 for k in range(2, j)):
                with pytest.raises(InvalidBudgetError):
                    rb.delta_m_sequence(rho0, eps, e1, e2, m)
                return
            want.append(2.0 + 4.0 * e4 / e1 + 2.0 * sum(
                (1.0 + want[k - 1]) * e4 / (rho0 - eps * want[k - 1]) for k in range(2, j)))
        assert rb.delta_m_sequence(rho0, eps, e1, e2, m) == want

    def test_preconditions(self):
        with pytest.raises(InvalidBudgetError):
            rb.rho_m_recursion(1.0, 0.3, 1.0, 2.0, 2)  # eps >= e1/4
        with pytest.raises(InvalidBudgetError):
            rb.rho_m_recursion(1.0, 0.0, 2.0, 1.0, 2)  # e1 >= e2
        with pytest.raises(InvalidBudgetError):
            rb.rho_m_recursion(1.0, -0.1, 1.0, 2.0, 2)

    def test_measured_robustness_dominates_guarantee(self):
        # perturbing every point by <= eps keeps rho >= rho_m in samples
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            pts = rng.uniform(0.0, 4.0, size=(3, 2))
            rho = _rho(pts)
            d = [np.linalg.norm(pts[i] - pts[j])
                 for i in range(3) for j in range(i + 1, 3)]
            if rho < 0.5 or min(d) < 1.0 or max(d) > 4.0:
                continue
            checked += 1
            eps = min(0.24, rho / 200.0)
            rho_m = rb.rho_m_recursion(rho, eps, 1.0, 2.0, 2)
            for _ in range(20):
                moved = pts + eps * _unit_ball(rng, (3, 2))
                assert _rho(moved) >= rho_m - 1e-9


def _unit_ball(rng, shape):
    v = rng.standard_normal(shape)
    v /= np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-300)
    r = rng.uniform(0.0, 1.0, size=shape[:-1] + (1,)) ** (1.0 / shape[-1])
    return v * r


class TestV2Constant:
    def test_positive(self):
        assert rb.v2_constant(1.0, 2.0) > 0.0

    def test_monotone_in_e1(self):
        # larger minimal separation cannot shrink the minimal area
        assert rb.v2_constant(1.2, 2.0) >= rb.v2_constant(0.8, 2.0)

    def test_monotone_in_e2(self):
        # larger allowed radius widens the search, so the minimum cannot grow
        assert rb.v2_constant(1.0, 3.0) <= rb.v2_constant(1.0, 2.0)

    def test_lower_bounds_sampled_triples(self):
        e1, e2 = 1.0, 2.0
        v2 = rb.v2_constant(e1, e2)
        rng = np.random.default_rng(11)
        tested = 0
        while tested < 2000:
            t = rng.uniform(e1 / np.sqrt(3.0), e2)
            th = np.sort(rng.uniform(0.0, 2 * np.pi, size=3))
            p = np.column_stack([t * np.cos(th), t * np.sin(th)])
            d = [np.linalg.norm(p[i] - p[j])
                 for i in range(3) for j in range(i + 1, 3)]
            if min(d) < e1:
                continue
            tested += 1
            a, b = p[1] - p[0], p[2] - p[0]
            area = abs(a[0] * b[1] - a[1] * b[0])
            assert area >= v2

    def test_infeasible_raises(self):
        with pytest.raises(InvalidBudgetError):
            rb.v2_constant(3.9, 2.0)

    @pytest.mark.parametrize("e1,e2", [(2e-108, 3e-108), (9e-101, 1.0), (1e99, 2e100),
                                       (6e102, 1e103), (math.nan, 1.0), (1.0, math.inf)])
    def test_out_of_range_raises(self, e1, e2):
        # subnormal intermediates would leave the ulp descent ~1e15 steps
        # long, and e1 ** 3 overflows above ~5.6e102
        with pytest.raises(InvalidBudgetError, match="1e-100 <= e1 < e2 <= 1e100"):
            rb.v2_constant(e1, e2)

    @pytest.mark.parametrize("e1,e2", [(1e-100, 2e-100), (5e99, 1e100)])
    def test_range_ends_round_down(self, e1, e2):
        v2 = rb.v2_constant(e1, e2)
        q1, q2 = Fraction(e1), Fraction(e2)
        exact_sq = q1 ** 6 / q2 ** 2 * (1 - q1 ** 2 / (4 * q2 ** 2))
        assert Fraction(v2) ** 2 <= exact_sq < Fraction(v2 * (1.0 + 2.0 ** -50)) ** 2

    @pytest.mark.parametrize("e1,e2", [(1.0, 2.0), (0.8, 2.0), (1.0, 3.0)])
    def test_witness_attains_bound(self, e1, e2):
        """The triple at radius e2 with central angles 0, 2a, 4a, where
        a = asin(e1/2e2), has two chords of length e1 and the minimal area.
        Its points come from double-angle identities in 50-digit decimal
        arithmetic: evaluated in doubles, its area errs by up to ~2e-15
        relative and can read below the exact, rounded-down bound."""
        with localcontext() as ctx:
            ctx.prec = 50
            t, s = Decimal(e2), Decimal(e1) / (2 * Decimal(e2))
            cos2, sin2 = 1 - 2 * s * s, 2 * s * (1 - s * s).sqrt()
            cos4, sin4 = 2 * cos2 * cos2 - 1, 2 * sin2 * cos2
            p = [(t, Decimal(0)), (t * cos2, t * sin2), (t * cos4, t * sin4)]
            chords = [((p[i][0] - p[j][0]) ** 2 + (p[i][1] - p[j][1]) ** 2).sqrt()
                      for i, j in ((0, 1), (1, 2), (0, 2))]
            ab = (p[1][0] - p[0][0], p[1][1] - p[0][1])
            ac = (p[2][0] - p[0][0], p[2][1] - p[0][1])
            area = abs(ab[0] * ac[1] - ab[1] * ac[0])
            v2 = Decimal(rb.v2_constant(e1, e2))
            assert min(chords) >= Decimal(e1) * (1 - Decimal("1e-40"))
            assert area >= v2
            assert area - v2 <= Decimal("1e-12") * v2


class TestScaleInvariance:
    def test_recursion_scales(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = rng.uniform(0.1, 10.0)
            a = rb.rho_m_recursion(1.0, 0.01, 1.0, 2.0, 2)
            b = rb.rho_m_recursion(s, 0.01 * s, s, 2.0 * s, 2)
            assert b == pytest.approx(s * a, rel=1e-12)

    def test_robustness_scales(self):
        rng = np.random.default_rng(14)
        pts = rng.standard_normal((4, 3))
        s = 3.7
        assert _rho(s * pts) == pytest.approx(s * _rho(pts), rel=1e-9)
