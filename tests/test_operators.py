import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import minimize_scalar

from normsplit import (
    AffineMonotone,
    AffineSubspace,
    Ball,
    Box,
    ConstantValued,
    EpigraphExp,
    FlipBoth,
    Halfspace,
    InnerShift,
    Inverse,
    NormalCone,
    OperatorSpec,
    OuterShift,
    Zero,
    compile_resolvent,
    membership,
    project,
    resolvent,
)
from normsplit import operators
from normsplit.errors import DimensionMismatchError, SingularSystemError
from normsplit.scenarios import rotator_matrix

from zoo import operator_zoo, rng, sample_points, sample_sets

coords = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestSetValidation:
    def test_box_needs_ordered_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0, 0.0], [0.0, 1.0])

    def test_ball_needs_positive_radius(self):
        with pytest.raises(ValueError):
            Ball([0.0, 0.0], 0.0)

    def test_subspace_needs_orthonormal_basis(self):
        with pytest.raises(ValueError):
            AffineSubspace([0.0, 0.0], [[1.0, 1.0]])

    def test_project_refuses_an_unknown_set_variant(self):
        with pytest.raises(TypeError, match="unknown set variant object"):
            project(object(), [0.0, 0.0])

    def test_halfspace_needs_nonzero_normal(self):
        with pytest.raises(ValueError):
            Halfspace([0.0, 0.0], 1.0)
        # |normal|^2 must be a positive float too: it overflows above about
        # 1.34e154 and underflows below about 1e-162
        for normal in ([1.4e154, 0.0], [1e-170, 0.0], [1e200, 1e200]):
            with pytest.raises(ValueError, match="normal"):
                Halfspace(normal, 1.0)
        # just inside both limits the set is kept, and projects as it should
        for scale in (1e150, 1e-150):
            half = Halfspace([scale, 0.0], 0.0)
            np.testing.assert_allclose(project(half, [4.0, 1.0]), [0.0, 1.0], atol=1e-12)

    def test_epigraph_needs_nonnegative_beta(self):
        with pytest.raises(ValueError):
            EpigraphExp(-0.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_scalar_parameters_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="radius"):
            Ball([0.0, 0.0], bad)
        with pytest.raises(ValueError, match="offset"):
            Halfspace([1.0, 0.0], bad)
        with pytest.raises(ValueError, match="beta"):
            EpigraphExp(bad)

    def test_affine_monotone_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            AffineMonotone([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])

    def test_affine_monotone_rejects_a_huge_nonmonotone_matrix(self):
        # 0.5 * (m + m.T) would overflow to a NaN eigenvalue, which no
        # comparison with the slack refuses; a warning would fail the suite
        with pytest.raises(ValueError, match="not monotone"):
            AffineMonotone([[1e308, 0.0], [0.0, -1e308]], [0.0, 0.0])
        AffineMonotone([[1e308, 0.0], [0.0, 1e308]], [0.0, 0.0])  # monotone


class TestProject:
    def test_box_coordinate_clamp(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(project(box, [2.0, 0.5]), [1.0, 0.5])

    def test_ball_ray_from_center(self):
        ball = Ball([3.0, 0.0], 1.0)
        np.testing.assert_allclose(project(ball, [0.0, 0.0]), [2.0, 0.0])

    def test_ball_far_point_whose_squared_distance_overflows(self):
        # beyond about 1.34e154 |x - c|^2 overflows; the orbit ignores that overflow
        ball = Ball([1.0, 2.0], 2.0)
        far = np.array([[3e300, -4e300], [1e155, 2.0], [-1e308, -1e308]])
        expected = np.array([[2.2, 0.4], [3.0, 2.0], [1.0 - 2**0.5, 2.0 - 2**0.5]])
        near = np.array([[4.0, 6.0], [1.5, 2.5]])  # outside and inside
        with np.errstate(over="ignore"):
            for x, nearest in zip(far, expected):
                np.testing.assert_allclose(project(ball, x), nearest, rtol=1e-15)
            rows = ball.project_rows(np.vstack([near[:1], far, near[1:]]))
            near_rows = ball.project_rows(near)
        np.testing.assert_allclose(rows[1:-1], expected, rtol=1e-15)
        # a row whose squared distance is finite keeps its bits
        np.testing.assert_array_equal(rows[[0, -1]], near_rows)
        np.testing.assert_array_equal(near_rows, [project(ball, x) for x in near])

    def test_subspace_drops_coordinate(self):
        line = AffineSubspace([0.0, 0.0], [[1.0, 0.0]])
        np.testing.assert_allclose(project(line, [4.0, 7.0]), [4.0, 0.0])

    def test_point_subspace(self):
        point = AffineSubspace([1.0, 2.0], np.zeros((0, 2)))
        np.testing.assert_allclose(project(point, [9.0, 9.0]), [1.0, 2.0])

    def test_halfspace(self):
        half = Halfspace([1.0, 0.0], 1.0)
        np.testing.assert_allclose(project(half, [3.0, 5.0]), [1.0, 5.0])
        np.testing.assert_allclose(project(half, [0.0, 5.0]), [0.0, 5.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project(Ball([0.0, 0.0], 1.0), [1.0, 2.0, 3.0])

    def test_projection_is_nearest_point(self):
        gen = rng(5)
        for _, region in sample_sets(2) + sample_sets(3):
            for x in sample_points(gen, region.dim, 25):
                px = project(region, x)
                for probe in sample_points(gen, region.dim, 10, scale=6.0):
                    member = project(region, probe)
                    assert np.linalg.norm(x - px) <= np.linalg.norm(x - member) + 1e-9

    def test_projection_idempotent(self):
        gen = rng(6)
        for _, region in sample_sets(2) + sample_sets(3):
            for x in sample_points(gen, region.dim, 25):
                px = project(region, x)
                assert np.linalg.norm(project(region, px) - px) <= 1e-9


class TestEpigraphProjection:
    @staticmethod
    def _oracle(beta, x):
        # brute 1-D minimization over the boundary parameter, independent of
        # the package's stationarity solve
        p, q = float(x[0]), float(x[1])

        def sqdist(t):
            return (t - p) ** 2 + (beta + math.exp(t) - q) ** 2

        ts = np.linspace(p - 80.0, p + 5.0, 8001)
        best = int(np.argmin([sqdist(t) for t in ts]))
        lo, hi = ts[max(best - 1, 0)], ts[min(best + 1, len(ts) - 1)]
        res = minimize_scalar(sqdist, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-13})
        return np.array([res.x, beta + math.exp(res.x)])

    def test_an_overflowing_newton_step_falls_back_to_bisection(self):
        # 2 q overflows, so there is no cap, and the bracket [673, 800] has
        # its midpoint where exp overflows: g is not finite there and the step
        # bisects. The nearest point is (log q, q), t to float64 precision and
        # exp(t) to its condition number t
        q = 1.7e308
        px = project(EpigraphExp(0.0), [800.0, q])
        assert px[0] == pytest.approx(math.log(q), rel=1e-15)
        assert px[1] == pytest.approx(q, rel=1e-12)

    def test_interior_shortcut(self):
        epi = EpigraphExp(1.0)
        np.testing.assert_allclose(project(epi, [0.0, 5.0]), [0.0, 5.0])

    def test_matches_direct_minimization(self):
        epi = EpigraphExp(1.0)
        gen = rng(8)
        checked = 0
        for x in sample_points(gen, 2, 60, scale=3.0):
            if 1.0 + math.exp(x[0]) <= x[1]:
                continue
            px = project(epi, x)
            ox = self._oracle(1.0, x)
            assert np.linalg.norm(px - ox) <= 1e-6
            assert np.linalg.norm(x - px) <= np.linalg.norm(x - ox) + 1e-10
            checked += 1
        assert checked >= 30

    def test_stationarity_residual(self):
        beta = 0.7
        epi = EpigraphExp(beta)
        # the large-p points need the bracket below cap: Newton started near
        # p falls about half a unit a step and runs out of its 200 steps
        for x in [(-4.0, -3.0), (2.0, 1.0), (30.0, 0.0), (0.0, -100.0),
                  (400.0, 0.0), (800.0, 500.0), (1e4, 0.0), (1e4, 500.0)]:
            t, y = project(epi, np.array(x))
            assert y == pytest.approx(beta + math.exp(t), abs=1e-12)
            residual = t - x[0] + math.exp(t) * (beta + math.exp(t) - x[1])
            assert abs(residual) <= 1e-10

    @pytest.mark.parametrize("x", [(1e4, 0.0), (1e20, 0.0), (1e300, 0.0), (5.0, 100.0)])
    def test_newton_stops_for_large_terms(self, monkeypatch, x):
        # one ulp of g's terms exceeds 1e-12 here, so an absolute residual
        # rule alone would run all 200 iterations (404 calls to _exp)
        calls = []
        original = operators._exp

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(operators, "_exp", counting)
        project(EpigraphExp(0.7), np.array(x))
        assert len(calls) <= 60

    @staticmethod
    def _bisected_root(beta, p, q):
        # g is increasing; bisect a sign-change bracket down to adjacent floats
        def g(t):
            return t - p + math.exp(t) * (beta + math.exp(t) - q)

        hi, lo = p, p - 1.0
        while g(lo) > 0:
            lo -= 2.0 * (p - lo)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return min((lo, hi), key=lambda t: abs(g(t)))
            if g(mid) > 0:
                hi = mid
            else:
                lo = mid

    @pytest.mark.parametrize("x", [(30.0, 0.0), (60.0, 0.0), (100.0, 0.0), (50.0, -1e5)])
    def test_moderate_p_starts_below_cap(self, monkeypatch, x):
        # started at hi = p, Newton falls about half a unit a step while
        # e^2t dominates g: 39 to 83 calls to _exp at these points
        beta = 0.7
        calls = []
        original = operators._exp

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(operators, "_exp", counting)
        px = project(EpigraphExp(beta), np.array(x))
        assert len(calls) <= 20
        t = self._bisected_root(beta, *x)
        root = np.array([t, beta + math.exp(t)])
        assert np.linalg.norm(px - root) <= 1e-12 * (1.0 + np.linalg.norm(x))

    def test_stationarity_at_huge_p(self):
        # g's terms reach p here, so its residual is judged relative to p
        beta = 0.7
        epi = EpigraphExp(beta)
        for p in (1e30, 1e100, 1e300):
            t, y = project(epi, np.array([p, 0.0]))
            et = math.exp(t)
            assert y == pytest.approx(beta + et, rel=1e-15)
            assert abs(t - p + et * (beta + et)) <= 1e-12 * p


class TestResolvent:
    def test_rotator_closed_form(self):
        op = AffineMonotone(rotator_matrix(), [0.0, 0.0])
        np.testing.assert_allclose(resolvent(op, [1.0, 0.0]), [0.5, -0.5], atol=1e-14)

    def test_constant_valued(self):
        op = ConstantValued([1.0, 1.0])
        np.testing.assert_allclose(resolvent(op, [3.0, 4.0]), [2.0, 3.0])

    def test_inverse_of_zero(self):
        op = Inverse(Zero(2))
        np.testing.assert_allclose(resolvent(op, [7.0, -3.0]), [0.0, 0.0])

    # the reflected resolvent R = 2 J - Id
    def test_reflected_rotator_is_minus_rotation(self):
        op = AffineMonotone(rotator_matrix(), [0.0, 0.0])
        x = np.array([1.0, 0.0])
        np.testing.assert_allclose(2 * resolvent(op, x) - x, [0.0, -1.0], atol=1e-14)

    def test_reflected_zero_is_identity(self):
        x = np.array([5.0, 6.0])
        np.testing.assert_allclose(2 * resolvent(Zero(2), x) - x, [5.0, 6.0])

    def test_reflected_line_cone_reflects(self):
        op = NormalCone(AffineSubspace([0.0, 0.0], [[1.0, 0.0]]))
        x = np.array([2.0, 3.0])
        np.testing.assert_allclose(2 * resolvent(op, x) - x, [2.0, -3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            resolvent(Zero(2), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dim", [0, -1])
    def test_zero_needs_positive_dimension(self, dim):
        with pytest.raises(ValueError, match="dimension must be positive"):
            Zero(dim)

    def test_compile_refuses_an_unknown_operator_variant(self):
        # an OperatorSpec that is neither a leaf nor a wrapper has no rule
        class Unknown(OperatorSpec):
            dim = 2

        with pytest.raises(TypeError, match="unknown operator variant Unknown"):
            compile_resolvent(Unknown())
        with pytest.raises(TypeError, match="unknown operator variant Unknown"):
            compile_resolvent(Inverse(Unknown()))

    @given(arrays(float, 2, elements=coords))
    def test_inner_shift_rule(self, x):
        base = NormalCone(Ball([0.0, 0.0], 1.0))
        w = np.array([0.75, -1.5])
        shifted = InnerShift(base, w)
        np.testing.assert_allclose(
            resolvent(shifted, x), resolvent(base, x - w) + w, atol=1e-12
        )

    @given(arrays(float, 2, elements=coords), arrays(float, 2, elements=coords))
    def test_reflected_resolvent_nonexpansive(self, x, y):
        op = NormalCone(EpigraphExp(0.5))
        rx, ry = 2 * resolvent(op, x) - x, 2 * resolvent(op, y) - y
        assert np.linalg.norm(rx - ry) <= np.linalg.norm(x - y) + 1e-9

    @given(arrays(float, 3, elements=coords))
    def test_generated_graph_points_always_certify(self, u):
        op = Inverse(NormalCone(Box([-1.0, 0.0, 0.5], [2.0, 1.0, 0.5])))
        x = resolvent(op, u)
        assert membership(op, x, u - x)


class TestAffineResolvent:
    @staticmethod
    def _compiled(matrix, offset):
        return operators.dense_affine(compile_resolvent(AffineMonotone(matrix, offset)))

    @staticmethod
    def _lu_reference(matrix, offset):
        lu = lu_factor(np.eye(len(offset)) + matrix)
        return lu_solve(lu, np.eye(len(offset))), -lu_solve(lu, offset)

    def _assert_matches_reference(self, matrix, offset):
        (m, c), (m_ref, c_ref) = self._compiled(matrix, offset), self._lu_reference(matrix, offset)
        dim = len(offset)
        assert np.linalg.norm(m - m_ref) <= 1e-12 * np.linalg.norm(m_ref), dim
        assert np.linalg.norm(c - c_ref) <= 1e-12 * np.linalg.norm(c_ref), dim

    def test_matches_lu_reference_on_psd_plus_skew(self):
        gen = rng(300)
        for dim in range(1, 101):
            g, k = gen.normal(size=(2, dim, dim)) / np.sqrt(dim)
            self._assert_matches_reference(g @ g.T + (k - k.T), gen.normal(size=dim))

    def test_matches_lu_reference_on_huge_skew(self):
        gen = rng(400)
        for dim in (2, 4, 10):  # even order: a skew matrix of odd order is singular
            k = gen.normal(size=(dim, dim))
            self._assert_matches_reference(1e300 * (k - k.T), gen.normal(size=dim))

    def test_wide_spread_of_scales_is_not_refused(self):
        # Id + M has every singular value >= 1, however far apart M's entries are
        op = AffineMonotone([[1e13, 0.0], [0.0, 0.0]], [5e12, 1.0])
        np.testing.assert_allclose(resolvent(op, [1.5, 2.0]), [(1.5 - 5e12) / (1.0 + 1e13), 1.0],
                                   rtol=1e-14)

    @pytest.mark.parametrize("matrix, offset", [
        # skew of odd order: Id is lost against 1e300, so Id + M is singular in float64
        (1e300 * np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]]), [1.0, 1.0, 1.0]),
        # the elimination overflows although (Id + M)^-1 offset = (0, 1.7e308)
        ([[0.0, 1.0], [-1.0, 0.0]], [1.7e308, 1.7e308]),
        # the elimination overflows, yet ends finite at (Id + M)^-1 = [[1e-308, 0], [0, 0]]
        ([[1e308, 1e308], [-1e308, 1e308]], [0.0, 0.0]),
    ])
    def test_unrepresentable_resolvent_is_a_typed_error(self, matrix, offset):
        with pytest.raises(SingularSystemError):
            AffineMonotone(matrix, offset)

    def test_import_and_affine_solve_load_no_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(operators.__file__)))
        code = (
            "import sys\n"
            "import normsplit, normsplit.cli\n"
            "pair = normsplit.OperatorPair(normsplit.AffineMonotone([[1.0, 2.0], [-2.0, 0.5]], [1.0, 0.0]),\n"
            "                              normsplit.NormalCone(normsplit.Ball([3.0, 0.0], 1.0)))\n"
            "assert normsplit.solve_normal(pair).status == 'converged'\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestDeepWrapperStacks:
    DEPTH = 2000  # above the default recursion limit

    def _stack(self):
        op = Zero(2)
        for _ in range(self.DEPTH):
            op = Inverse(op)
        return op

    def test_resolvent_and_membership_return(self):
        op = self._stack()  # an even number of inverses of Zero: J is the identity
        np.testing.assert_array_equal(resolvent(op, [1.0, -2.0]), [1.0, -2.0])
        assert membership(op, [1.0, -2.0], [0.0, 0.0])

    def test_shift_reads_dim_without_recursion(self):
        op = self._stack()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            shifted = InnerShift(op, [1.0, 0.0])
        finally:
            sys.setrecursionlimit(limit)
        assert shifted.dim == 2
        with pytest.raises(DimensionMismatchError):
            OuterShift(op, [1.0, 0.0, 0.0])


class TestSkewFormula:
    """A skew A with A^2 = -alpha Id has J_A(x) = (x - Ax) / (1 + alpha)."""

    def test_rotator(self):
        op = AffineMonotone(rotator_matrix(), [0.0, 0.0])
        np.testing.assert_allclose(resolvent(op, [1.0, 0.0]), [0.5, -0.5])

    def test_zero_matrix_identity(self):
        op = AffineMonotone(np.zeros((2, 2)), [0.0, 0.0])
        np.testing.assert_allclose(resolvent(op, [7.0, 8.0]), [7.0, 8.0])

    def test_scaled_rotator(self):
        op = AffineMonotone(2.0 * rotator_matrix(), [0.0, 0.0])
        np.testing.assert_allclose(resolvent(op, [1.0, 0.0]), [0.2, -0.4])

    def test_cross_check_with_linear_solve(self):
        gen = rng(3)
        for scale in (0.5, 1.0, 3.0):
            mat = scale * rotator_matrix()
            alpha = scale ** 2
            np.testing.assert_allclose(mat @ mat, -alpha * np.eye(2), atol=1e-10)
            op = AffineMonotone(mat, [0.0, 0.0])
            for x in sample_points(gen, 2, 20):
                np.testing.assert_allclose(
                    (x - mat @ x) / (1.0 + alpha),
                    resolvent(op, x),
                    atol=1e-10,
                )


class TestImmutability:
    def test_operator_arrays_are_frozen(self):
        op = ConstantValued([1.0, 2.0])
        with pytest.raises(ValueError):
            op.value[0] = 9.0
        cone = NormalCone(Ball([0.0, 0.0], 1.0))
        with pytest.raises(ValueError):
            cone.region.center[0] = 9.0

    def test_inputs_are_copied(self):
        raw = np.array([1.0, 2.0])
        op = ConstantValued(raw)
        raw[0] = 50.0
        np.testing.assert_array_equal(op.value, [1.0, 2.0])


class TestMembership:
    def test_zero_operator(self):
        assert membership(Zero(2), [1.0, 2.0], [0.0, 0.0])

    def test_constant_graph(self):
        assert membership(ConstantValued([1.0, 1.0]), [9.0, 9.0], [1.0, 1.0])

    def test_box_normal_cone_at_upper_bound(self):
        cone = NormalCone(Box([0.0], [1.0]))
        assert membership(cone, [1.0], [5.0])

    def test_negative_case(self):
        cone = NormalCone(Box([0.0], [1.0]))
        assert not membership(cone, [1.0], [-5.0])
        assert not membership(ConstantValued([1.0, 1.0]), [9.0, 9.0], [0.0, 0.0])

    def test_far_point_whose_squared_length_overflows(self):
        # the same relative error at 1e150, where |x|^2 is finite, and at
        # 1e160, where it overflows and TOL_CERT (1 + |x|) must not read inf
        zero = ConstantValued([0.0, 0.0])
        assert not membership(zero, [1e150, 0.0], [1e145, 0.0])
        assert not membership(zero, [1e160, 0.0], [1e155, 0.0])
        assert membership(ConstantValued([1e155, 0.0]), [1e160, 0.0], [1e155, 0.0])


def _psd_affine(g: np.ndarray, offset: np.ndarray) -> AffineMonotone:
    dim = g.shape[0]
    return AffineMonotone(g @ g.T / dim, offset)


small = st.floats(min_value=-3, max_value=3, allow_nan=False)


def operator_ast(dim: int):
    """Hypothesis strategy for random nested operator trees."""
    vec = arrays(float, dim, elements=small)
    mat = arrays(float, (dim, dim), elements=small)
    leaves = st.one_of(
        st.just(Zero(dim)),
        st.builds(ConstantValued, vec),
        st.builds(lambda c: NormalCone(Ball(c, 1.0)), vec),
        st.builds(lambda lo: NormalCone(Box(lo, lo + 1.5)), vec),
        st.builds(_psd_affine, mat, vec),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Inverse, children),
            st.builds(FlipBoth, children),
            st.builds(InnerShift, children, vec),
            st.builds(OuterShift, children, vec),
        ),
        max_leaves=4,
    )


class TestRandomOperatorTrees:
    @given(op=operator_ast(2), x=arrays(float, 2, elements=small),
           y=arrays(float, 2, elements=small))
    def test_firmly_nonexpansive(self, op, x, y):
        jx, jy = resolvent(op, x), resolvent(op, y)
        lhs = np.sum((jx - jy) ** 2) + np.sum(((x - jx) - (y - jy)) ** 2)
        assert lhs <= np.sum((x - y) ** 2) + 1e-9

    @given(op=operator_ast(3), x=arrays(float, 3, elements=small))
    def test_inverse_identity(self, op, x):
        gap = resolvent(op, x) + resolvent(Inverse(op), x) - x
        assert np.linalg.norm(gap) <= 1e-10

    @given(op=operator_ast(2), x=arrays(float, 2, elements=small))
    def test_flip_inverse_commute(self, op, x):
        gap = resolvent(FlipBoth(Inverse(op)), x) - resolvent(Inverse(FlipBoth(op)), x)
        assert np.linalg.norm(gap) <= 1e-10


class TestZooInvariants:
    def test_double_flip(self):
        gen = rng(103)
        for dim in (2, 3):
            for name, op in operator_zoo(dim):
                for x in sample_points(gen, dim, 20):
                    gap = resolvent(FlipBoth(FlipBoth(op)), x) - resolvent(op, x)
                    assert np.linalg.norm(gap) <= 1e-12, name

    def test_flip_inverse_order_independent(self):
        gen = rng(104)
        for dim in (2, 3):
            for name, op in operator_zoo(dim):
                for x in sample_points(gen, dim, 20):
                    gap = resolvent(FlipBoth(Inverse(op)), x) - resolvent(
                        Inverse(FlipBoth(op)), x
                    )
                    assert np.linalg.norm(gap) <= 1e-10, name

    def test_certified_graph_points_are_monotone(self):
        gen = rng(105)
        for dim in (2, 3):
            for name, op in operator_zoo(dim):
                us = sample_points(gen, dim, 30)
                points = []
                for u in us:
                    x = resolvent(op, u)
                    xstar = u - x
                    assert membership(op, x, xstar), name
                    points.append((x, xstar))
                for i in range(0, len(points) - 1, 2):
                    x, xs_ = points[i]
                    y, ys_ = points[i + 1]
                    assert float(np.dot(x - y, xs_ - ys_)) >= -1e-8, name
