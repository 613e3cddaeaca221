import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone import linalg, paper
from delone import robustness as rb
from delone.errors import DegenerateError


def _random_matrix(rng, n, scale=1.0):
    return scale * rng.standard_normal((n, n))


class TestDeterminant:
    def test_identity(self):
        assert linalg.determinant(np.eye(2)) == 1.0

    def test_unit_right_simplex_edge_matrix(self):
        # edge matrix of the simplex (0,0), (1,0), (0,1): |det| = 2! * area
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        u = pts[:-1] - pts[-1]
        assert abs(abs(linalg.determinant(u)) - 1.0) < 1e-15

    def test_matches_numpy_oracle_3x3(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = _random_matrix(rng, 3)
            assert linalg.determinant(m) == pytest.approx(
                float(np.linalg.det(m)), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_numpy_oracle_all_dims(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            m = _random_matrix(rng, n)
            ref = float(np.linalg.det(m))
            assert linalg.determinant(m) == pytest.approx(
                ref, rel=1e-9, abs=1e-12 * max(1.0, abs(ref)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_stack_equals_each_matrix(self, n):
        stack = np.random.default_rng(10 + n).standard_normal((7, n, n))
        got = linalg.determinant(stack)
        assert got.shape == (7,)
        assert np.array_equal(got, [linalg.determinant(m) for m in stack])

    def test_singular_returns_zero(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert linalg.determinant(m) == 0.0

    def test_too_large_dimension_rejected(self):
        with pytest.raises(ValueError):
            linalg.determinant(np.eye(9))

    def test_multiplicativity(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            for _ in range(50):
                a = _random_matrix(rng, n)
                b = _random_matrix(rng, n)
                lhs = linalg.determinant(a @ b)
                rhs = linalg.determinant(a) * linalg.determinant(b)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=4))
    def test_property_agrees_with_numpy(self, seed, n):
        m = _random_matrix(np.random.default_rng(seed), n)
        assert linalg.determinant(m) == pytest.approx(
            float(np.linalg.det(m)), rel=1e-9, abs=1e-12)


class TestInverseNormBound:
    def test_identity(self):
        assert paper.inverse_norm_bound(np.eye(2), 1.0) == 2.0

    def test_diagonal(self):
        m = np.diag([1.0, 0.1])
        bound = paper.inverse_norm_bound(m, 1.0)
        assert bound == pytest.approx(20.0)
        assert bound >= np.linalg.norm(np.linalg.inv(m), 2)

    def test_random_4x4_vs_operator_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            m = _random_matrix(rng, 4)
            if abs(np.linalg.det(m)) < 1e-8:
                continue
            c = paper.column_norm_bound(m)
            assert paper.inverse_norm_bound(m, c) >= \
                np.linalg.norm(np.linalg.inv(m), 2) * (1 - 1e-12)

    def test_singular_raises(self):
        with pytest.raises(DegenerateError):
            paper.inverse_norm_bound([[1.0, 2.0], [2.0, 4.0]], 3.0)


class TestDistanceToAffineSpan:
    """The distance from q to the affine hull of pts, as the last of the
    ``robustness.prefix_distances`` of the ordered list (pts..., q)."""

    @staticmethod
    def _distance(q, pts):
        return float(rb.prefix_distances(np.vstack([pts, [q]])[None])[0, -1])

    def test_axis(self):
        assert self._distance([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]]) == pytest.approx(1.0)

    def test_membership(self):
        pts = [[0.0, 0.0], [1.0, 1.0]]
        assert self._distance([0.5, 0.5], pts) == pytest.approx(0.0, abs=1e-12)

    def test_single_point(self):
        assert self._distance([3.0, 4.0], [[0.0, 0.0]]) == pytest.approx(5.0)

    def test_projection_oracle(self):
        # independent oracle: orthogonal projection via pseudo-inverse
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = rng.integers(1, 4)
            pts = rng.standard_normal((k + 1, 4))
            q = rng.standard_normal(4)
            edges = (pts[1:] - pts[0]).T
            proj = edges @ np.linalg.pinv(edges)
            ref = np.linalg.norm((np.eye(4) - proj) @ (q - pts[0]))
            assert self._distance(q, pts) == pytest.approx(ref, abs=1e-8)
