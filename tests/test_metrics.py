import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone import metrics as mt
from delone import paper
from delone.errors import IllConditionedError, OutOfChartError, ValidationError


class TestDistances:
    def test_sphere_quarter_great_circle(self):
        m = mt.MetricModel.sphere(1.0)
        assert paper.distance(m, [1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)

    def test_sphere_scales_with_radius(self):
        m = mt.MetricModel.sphere(3.0)
        assert paper.distance(m, [3, 0, 0], [0, 3, 0]) == pytest.approx(1.5 * math.pi)

    def test_torus_wraparound(self):
        m = mt.MetricModel.flat_torus((1.0, 1.0))
        assert paper.distance(m, [0.05, 0.5], [0.85, 0.5]) == pytest.approx(0.2)

    def test_flat(self):
        m = mt.MetricModel.flat(2)
        assert paper.distance(m, [0, 0], [3, 4]) == pytest.approx(5.0)

    def test_metric_axioms_sampled(self):
        rng = np.random.default_rng(0)
        models = [mt.MetricModel.flat(3), mt.MetricModel.sphere(2.0),
                  mt.MetricModel.flat_torus((1.0, 2.0))]

        def sample(m):
            if m.kind == "sphere":
                v = rng.standard_normal(3)
                return m.radius * v / np.linalg.norm(v)
            if m.kind == "torus":
                return rng.uniform(0, 1, 2) * m.periods
            return rng.standard_normal(m.n)

        for m in models:
            for _ in range(50):
                x, y, z = sample(m), sample(m), sample(m)
                dxy = paper.distance(m, x, y)
                assert dxy >= 0
                assert dxy == pytest.approx(paper.distance(m, y, x), abs=1e-12)
                assert paper.distance(m, x, x) == pytest.approx(0.0, abs=1e-12)
                assert dxy <= paper.distance(m, x, z) + paper.distance(m, z, y) + 1e-9


class TestExpLog:
    def test_flat_exp_is_translation(self):
        m = mt.MetricModel.flat(2)
        assert np.allclose(paper.exp(m, [1.0, 2.0], [0.5, -0.5]), [1.5, 1.5])

    def test_round_trips(self):
        rng = np.random.default_rng(1)
        for m in (mt.MetricModel.sphere(1.5), mt.MetricModel.flat_torus((1.0, 1.0)),
                  mt.MetricModel.flat(2)):
            for _ in range(50):
                if m.kind == "sphere":
                    x = rng.standard_normal(3)
                    x = m.radius * x / np.linalg.norm(x)
                    v = rng.standard_normal(3)
                    v -= np.dot(v, x) / m.radius**2 * x
                    v *= rng.uniform(0.05, 0.9) * m.radius / np.linalg.norm(v)
                elif m.kind == "torus":
                    x = rng.uniform(0, 1, 2)
                    v = rng.uniform(-0.4, 0.4, 2)
                else:
                    x = rng.standard_normal(2)
                    v = rng.standard_normal(2)
                y = paper.exp(m, x, v)
                assert np.allclose(paper.log(m, x, y), v, atol=1e-9)
                assert paper.distance(m, x, y) == pytest.approx(np.linalg.norm(v), abs=1e-9)

    def test_sphere_exp_beyond_injectivity_raises(self):
        m = mt.MetricModel.sphere(1.0)
        with pytest.raises(OutOfChartError):
            paper.exp(m, [1.0, 0.0, 0.0], [0.0, 3.2, 0.0])

    def test_geodesic_midpoint(self):
        m = mt.MetricModel.sphere(1.0)
        mid = paper.geodesic(m, [1, 0, 0], [0, 1, 0], 0.5)
        assert np.allclose(mid, [math.sqrt(0.5), math.sqrt(0.5), 0.0], atol=1e-12)

    def test_parallel_transport_preserves_norm(self):
        m = mt.MetricModel.sphere(1.0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(3)
            y /= np.linalg.norm(y)
            v = rng.standard_normal(3)
            v -= np.dot(v, x) * x
            w = paper.parallel_transport(m, x, y, v)
            assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v), abs=1e-9)
            assert abs(np.dot(w, y)) < 1e-9


class TestGramSchmidt:
    def test_orthonormal_untouched(self):
        axes, dev = paper.gram_schmidt_correct(np.eye(3))
        assert np.allclose(axes, np.eye(3))
        assert dev == 0.0

    def test_small_cross_term(self):
        f = np.array([[1.0, 0.0], [0.01, 1.0]])
        axes, dev = paper.gram_schmidt_correct(f)
        assert dev <= 0.03
        assert np.allclose(axes @ axes.T, np.eye(2), atol=1e-12)

    def test_random_perturbed_frames_orthonormal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = np.eye(3) + rng.uniform(-0.05, 0.05, size=(3, 3))
            axes, dev = paper.gram_schmidt_correct(f)
            assert np.allclose(axes @ axes.T, np.eye(3), atol=1e-12)
            assert dev < 0.5

    def test_too_far_rejected(self):
        with pytest.raises(IllConditionedError):
            paper.gram_schmidt_correct(np.array([[1.3, 0.0], [0.0, 1.0]]))
        with pytest.raises(IllConditionedError):
            paper.gram_schmidt_correct(np.array([[1.0, 0.25], [0.25, 1.0]]))

    def test_custom_inner_product(self):
        g = np.diag([4.0, 1.0])

        def ip(a, b):
            return float(a @ g @ b)

        f = np.array([[0.5, 0.0], [0.0, 1.0]])
        axes, dev = paper.gram_schmidt_correct(f, ip)
        assert dev == 0.0
        assert ip(axes[0], axes[1]) == pytest.approx(0.0, abs=1e-12)

    def test_gs_delta_zero_and_monotone(self):
        assert mt.gs_delta(2, 0.0) == 0.0
        assert mt.gs_delta(2, -1.0) == 0.0
        d_small = mt.gs_delta(2, 1e-3)
        d_big = mt.gs_delta(2, 1e-2)
        assert 0.0 < d_small <= d_big <= mt.GS_DELTA_MAX / 2

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
    @pytest.mark.parametrize("eps", [1e-300, 1e-61, 2e-9, 0.1, 0.3, 1.0, math.inf])
    def test_gs_delta_is_the_formula_rounded_down(self, n, eps):
        exact = min(Fraction(1, 3 * n), Fraction(mt.GS_DELTA_MAX) / 2)
        if math.isfinite(eps):
            exact = min(exact, Fraction(eps) / (2 * n))
        got = mt.gs_delta(n, eps)
        assert 0.0 < got and Fraction(got) <= exact
        assert Fraction(math.nextafter(got, math.inf)) > exact

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.floats(min_value=1e-12, max_value=0.3),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["uniform", "signs", "all_minus", "all_plus"]))
    def test_gs_delta_bounds_the_correction(self, n, eps, seed, kind):
        delta = mt.gs_delta(n, eps)
        dev = _cholesky_frame_deviation(_symmetric_unit(n, seed, kind), delta)
        assert dev <= eps

    def test_gs_delta_at_6_01_bounds_the_worst_frame(self):
        # cross terms all at -0.99: the sampled halving search returned
        # delta = 0.05 here, where this frame moves by about 0.137
        s = np.full((6, 6), -0.99)
        np.fill_diagonal(s, 0.0)
        assert _cholesky_frame_deviation(s, 0.05) > 0.1
        assert _cholesky_frame_deviation(s, mt.gs_delta(6, 0.1)) <= 0.1

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5, 2e-9, 1e-12])
    @pytest.mark.parametrize("samples", [16, 48])
    def test_gs_delta_bounds_sampled_frames(self, n, eps, samples):
        """The frames the former halving search sampled at each delta: a
        seeded block of perturbations with entries in (-0.99, 0.99) and the
        structured extreme with every cross term at +0.999."""
        delta = mt.gs_delta(n, eps)
        rng = np.random.default_rng(24601)
        for _ in range(samples):
            s = rng.uniform(-0.99, 0.99, size=(n, n))
            s = 0.5 * (s + s.T)
            np.fill_diagonal(s, rng.uniform(-0.99, 0.99, size=n))
            assert _cholesky_frame_deviation(s, delta) <= eps
        extreme = np.full((n, n), 0.999)
        np.fill_diagonal(extreme, 0.0)
        assert _cholesky_frame_deviation(extreme, delta) <= eps


class TestAlignFrame:
    def test_flat_identity(self):
        m = mt.MetricModel.flat(2)
        fr = paper.standard_frame(m, [0.0, 0.0])
        moved = paper.align_frame(m, fr, [5.0, 5.0])
        assert np.allclose(moved.axes, fr.axes)
        assert np.allclose(moved.base, [5.0, 5.0])

    def test_sphere_orthonormal_and_tangent(self):
        m = mt.MetricModel.sphere(1.0)
        fr = paper.standard_frame(m, [0.0, 0.0, 1.0])
        y = np.array([0.0, math.sin(0.4), math.cos(0.4)])
        moved = paper.align_frame(m, fr, y)
        assert np.allclose(moved.axes @ moved.axes.T, np.eye(2), atol=1e-12)
        assert np.allclose(moved.axes @ y, 0.0, atol=1e-9)

    def test_sphere_small_move_small_rotation(self):
        m = mt.MetricModel.sphere(1.0)
        fr = paper.standard_frame(m, [0.0, 0.0, 1.0])
        y = paper.exp(m, fr.base, 1e-3 * fr.axes[0])
        moved = paper.align_frame(m, fr, y)
        assert np.max(np.abs(moved.axes - fr.axes)) < 1e-2


class TestApproxEuclidean:
    def test_flat_exact(self):
        m = mt.MetricModel.flat(2)
        rep = paper.check_approx_euclidean(m, paper.standard_frame(m, [0.0, 0.0]),
                                           10.0, 1e-9)
        assert rep.passed
        assert rep.metric_deviation == 0.0
        assert rep.chord_deviation == 0.0

    def test_torus_exact(self):
        m = mt.MetricModel.flat_torus((1.0, 1.0))
        rep = paper.check_approx_euclidean(m, paper.standard_frame(m, [0.5, 0.5]),
                                           0.1, 1e-9)
        assert rep.passed

    def test_sphere_large_lambda_fails(self):
        m = mt.MetricModel.sphere(3.0)
        fr = paper.standard_frame(m, paper.chart_center(m, 0))
        rep = paper.check_approx_euclidean(m, fr, 1.0, 0.01)
        assert not rep.passed

    def test_sphere_lambda_beyond_chart_raises(self):
        m = mt.MetricModel.sphere(1.0)
        fr = paper.standard_frame(m, paper.chart_center(m, 0))
        with pytest.raises(OutOfChartError):
            paper.check_approx_euclidean(m, fr, 0.9 * m.convexity_radius(), 0.01)


class TestFindLambdaEps:
    def test_flat_returns_cap(self):
        m = mt.MetricModel.flat(2)
        assert mt.find_lambda_eps(m, 0.01) == mt.LAMBDA_CAP

    def test_torus_half_convexity(self):
        m = mt.MetricModel.flat_torus((1.0, 2.0))
        assert mt.find_lambda_eps(m, 0.01) == pytest.approx(0.125)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            mt.find_lambda_eps(mt.MetricModel.flat(2), 0.0)

    def test_sphere_closed_form(self):
        m = mt.MetricModel.sphere(1.0)
        lam = mt.find_lambda_eps(m, 0.01)
        s, c = math.sin(1.45), math.cos(1.45)
        assert 0 < 2 * 0.01 * s * s / (1.45 - s * c) - lam <= 1e-12 * lam
        t0 = time.perf_counter()
        for _ in range(100):
            mt.find_lambda_eps(m, 0.01)
        assert time.perf_counter() - t0 < 0.1  # under 1 ms a call

    @pytest.mark.parametrize("radius", [1e-2, 0.2, 1.0, 3.0, 1e2])
    @pytest.mark.parametrize("eps", [1.3258247124928244e-12, 1e-4, 0.01, 0.05, 0.3, 10.0])
    def test_sphere_rounded_down_from_the_exact_bound(self, radius, eps):
        m = mt.MetricModel.sphere(radius)
        exact = _exact_sphere_lambda(m, eps)
        lam = Decimal(mt.find_lambda_eps(m, eps))
        assert exact * (1 - Decimal("1e-13")) <= lam <= exact

    def test_sphere_proof_inequalities(self):
        """The proof's two facts on [0, rho]: M increases, and B^2 <= 2 M^2
        for the tangential acceleration factor B = 2(1 - r cot r)/sin r."""
        r = np.linspace(1e-3, 1.45, 10_000)
        s, c = np.sin(r), np.cos(r)
        big_m = (r - s * c) / s**2
        b = 2.0 * (1.0 - r * c / s) / s
        assert np.all(np.diff(big_m) > 0)
        assert np.all(b**2 <= 2.0 * big_m**2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-4.0, max_value=math.log10(0.05)),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_sphere_sound_under_the_audit(self, log_radius, log_eps, reach, heading,
                                          turn, seed):
        """At lambda the sampled geodesic and chord deviations stay within
        eps for bases up to chart_radius - lambda from a chart's center and
        rotated frames.  Below eps = 1e-4 the audit's finite differences
        (h = 1e-6 R) are too coarse to test against."""
        m = mt.MetricModel.sphere(10.0**log_radius)
        eps = 10.0**log_eps
        lam = mt.find_lambda_eps(m, eps)
        frame = _chart_frame_at(m, reach * (1.0 - 1e-9) * (m.chart_radius - lam),
                                heading, turn)
        rep = paper.check_approx_euclidean(m, frame, lam, eps, sample_count=64,
                                           rng=np.random.default_rng(seed))
        assert rep.geodesic_deviation <= eps
        assert rep.chord_deviation <= eps

    @pytest.mark.parametrize("radius,eps", [(1.0, 0.01), (3.0, 1e-3), (0.2, 0.03)])
    def test_sphere_tight_at_the_chart_edge(self, radius, eps):
        m = mt.MetricModel.sphere(radius)
        lam = mt.find_lambda_eps(m, eps)
        frame = _chart_frame_at(m, (1.0 - 1e-9) * (m.chart_radius - lam), 0.3, 0.0)
        rep = paper.check_approx_euclidean(m, frame, lam, eps, sample_count=400,
                                           rng=np.random.default_rng(11))
        assert 0.9 * eps <= rep.geodesic_deviation <= eps


class TestEpsIsometry:
    def test_identity_passes(self):
        pts = np.random.default_rng(4).uniform(0, 1, size=(20, 2))
        assert paper.check_eps_isometry(lambda p: p, pts, 1e-12)

    def test_rigid_motion_passes(self):
        rng = np.random.default_rng(5)
        th = 0.7
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        pts = rng.uniform(0, 1, size=(20, 2))
        assert paper.check_eps_isometry(lambda p: rot @ p + 3.0, pts, 1e-9)

    def test_stretch_fails(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert not paper.check_eps_isometry(lambda p: 1.1 * np.asarray(p), pts, 0.05)
        assert paper.check_eps_isometry(lambda p: 1.1 * np.asarray(p), pts, 0.2)


class _StubFamily:
    """Minimal family: translations by per-parameter offsets."""

    def __init__(self, offsets):
        self._offsets = offsets
        self.params = list(offsets)

    def displacement_batch(self, param, pts):
        return np.broadcast_to(self._offsets[param], np.shape(pts))


class TestVarDiv:
    def test_zero_radius(self):
        fam = _StubFamily({"0": np.zeros(2), "1": np.array([0.3, 0.0])})
        pts = np.random.default_rng(6).uniform(0, 1, size=(10, 2))
        var, div = paper.estimate_var_div(fam, 0.0, pts)
        assert var == 0.0 and div == 0.0

    def test_uniform_translations_no_var(self):
        fam = _StubFamily({"0": np.zeros(2), "1": np.array([0.3, 0.4])})
        pts = np.random.default_rng(7).uniform(0, 1, size=(10, 2))
        var, div = paper.estimate_var_div(fam, 1.0, pts)
        assert var == pytest.approx(0.0, abs=1e-12)
        assert div == pytest.approx(0.5)

    def test_eps_bounded_fields(self, bundle2):
        from delone import netsynth as nsy

        fam = nsy.make_family(bundle2, depth=2, dim=2, seed=3)
        pts = np.random.default_rng(8).uniform(0, 1, size=(8, 2))
        eps = bundle2.eps0 * bundle2.rF
        var, div = paper.estimate_var_div(fam, 1.0, pts)
        assert div <= 2 * fam.depth * eps + 1e-15
        assert var <= 2 * div + 1e-15

    def test_monotone_in_radius(self):
        fam = _StubFamily({"00": np.zeros(2), "01": np.array([0.1, 0.0]),
                           "10": np.array([0.0, 0.2]), "11": np.array([0.2, 0.2])})
        pts = np.random.default_rng(9).uniform(0, 1, size=(8, 2))
        v1, d1 = paper.estimate_var_div(fam, 0.5, pts)
        v2, d2 = paper.estimate_var_div(fam, 1.0, pts)
        assert v1 <= v2 + 1e-15 and d1 <= d2 + 1e-15


class TestParseMetric:
    def test_round_trips(self):
        for sel in ("flat:3", "sphere:2.5", "torus:1.0,2.0"):
            m = mt.parse_metric(sel)
            m2 = mt.parse_metric(m.selector())
            assert m2.kind == m.kind

    def test_bad_selectors(self):
        for sel in ("flat:x", "sphere:", "torus:1.0", "banana:1"):
            with pytest.raises(ValidationError):
                mt.parse_metric(sel)


def _symmetric_unit(n, seed, kind):
    """A symmetric n x n matrix with entries in [-1, 1]: uniform entries,
    random signs, or every off-diagonal entry at -1 or at +1."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        s = rng.uniform(-1.0, 1.0, size=(n, n))
    elif kind == "signs":
        s = rng.choice([-1.0, 1.0], size=(n, n))
    else:
        s = np.full((n, n), -1.0 if kind == "all_minus" else 1.0)
        s[np.diag_indices(n)] = rng.uniform(-1.0, 1.0, size=n)
    return np.triu(s) + np.triu(s, 1).T


def _cholesky_frame_deviation(s, delta):
    """Deviation of ``gram_schmidt_correct`` on the frame cholesky(I + delta S)^T."""
    f = np.linalg.cholesky(np.eye(len(s)) + delta * s).T
    return paper.gram_schmidt_correct(f)[1]


def _exact_sphere_lambda(m, eps):
    """``find_lambda_eps``'s closed form for the sphere m at 50 digits, with
    sin and cos summed as Taylor series."""
    with localcontext() as ctx:
        ctx.prec = 50
        rho = Decimal(m.chart_radius) / Decimal(m.radius)
        s = sum((-1) ** k * rho ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(40))
        c = sum((-1) ** k * rho ** (2 * k) / math.factorial(2 * k) for k in range(40))
        pi = Decimal("3.14159265358979323846264338327950288419716939937511")
        e = Decimal(eps)
        lam = min(2 * e * s * s / (rho - s * c), (3 * e / 4).sqrt(), (12 * e / pi).sqrt(),
                  pi / 8)
        return Decimal(m.radius) * lam


def _chart_frame_at(m, offset, heading, turn):
    """The standard frame, turned by ``turn``, at chart distance ``offset``
    from chart 0's center in direction ``heading``."""
    center = paper.standard_frame(m, paper.chart_center(m, 0))
    base = paper.exp_frame(m, center, offset * np.array([math.cos(heading),
                                                         math.sin(heading)]))
    axes = paper.standard_frame(m, base).axes
    c, s = math.cos(turn), math.sin(turn)
    return paper.Frame(base=base, axes=np.array([[c, s], [-s, c]]) @ axes)
