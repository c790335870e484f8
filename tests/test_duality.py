import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from normsplit import (
    ConstantValued,
    OperatorPair,
    PrimalDualPair,
    Zero,
    compile_resolvent,
    dr_apply,
    dual_pair,
    estimate_v,
    psi,
    psi_inv,
    resolvent,
    solve_perturbed,
)
from normsplit.errors import PreconditionError
from normsplit.splitting import certify
from normsplit.scenarios import get_scenario

from zoo import operator_pairs, rng, sample_points

class TestDualPair:
    def test_double_dual_restores_resolvents(self):
        gen = rng(1)
        for dim in (2, 3):
            for name, pair in operator_pairs(dim, count=10):
                twice = dual_pair(dual_pair(pair))
                for x in sample_points(gen, dim, 10):
                    gap_a = resolvent(twice.A, x) - resolvent(pair.A, x)
                    gap_b = resolvent(twice.B, x) - resolvent(pair.B, x)
                    assert np.linalg.norm(gap_a) <= 1e-12, name
                    assert np.linalg.norm(gap_b) <= 1e-12, name

    def test_zero_pair_dual_resolvents_vanish(self):
        dual = dual_pair(OperatorPair(Zero(2), Zero(2)))
        for x in sample_points(rng(2), 2, 5):
            np.testing.assert_allclose(resolvent(dual.A, x), [0.0, 0.0])
            np.testing.assert_allclose(resolvent(dual.B, x), [0.0, 0.0])

    def test_constant_pair_shares_splitting_operator(self):
        pair = OperatorPair(ConstantValued([1.0, 2.0]), ConstantValued([3.0, 4.0]))
        dual = dual_pair(pair)
        for x in sample_points(rng(3), 2, 10):
            np.testing.assert_allclose(dr_apply(pair, x), dr_apply(dual, x), atol=1e-12)

    def test_v_is_self_dual(self):
        for name in ("disjoint-balls", "constants-default", "rotators-default"):
            pair = get_scenario(name).pair
            v_primal, _ = estimate_v(pair)
            v_dual, _ = estimate_v(dual_pair(pair))
            assert np.linalg.norm(v_primal - v_dual) <= 1e-5, name


class TestPsi:
    def test_consistent_fixed_point_roundtrip(self):
        pair = get_scenario("overlapping-balls").pair
        report = solve_perturbed(pair, np.zeros(2))
        fixed = report.governing_point
        zk = psi_inv(pair, fixed, np.zeros(2))
        np.testing.assert_allclose(psi(zk), fixed, atol=1e-12)
        np.testing.assert_allclose(zk.z, report.normal_solution, atol=1e-12)
        np.testing.assert_allclose(zk.k, report.dual_solution, atol=1e-12)

    def test_parallel_lines_hand_values(self):
        pair = get_scenario("two-lines").pair
        w = np.array([0.0, 1.0])
        zk = PrimalDualPair(z=[0.0, 1.0], k=[0.0, 0.0], w=w)
        assert certify(pair, zk.z, zk.k, zk.w) == {"b_side": True, "a_side": True}
        fixed = psi(zk)
        np.testing.assert_allclose(fixed, [0.0, 2.0])
        governing = fixed - w
        np.testing.assert_allclose(dr_apply(pair, governing + w), governing)
        back = psi_inv(pair, fixed, w)
        np.testing.assert_allclose(back.z, zk.z, atol=1e-12)
        np.testing.assert_allclose(back.k, zk.k, atol=1e-12)

    def test_precondition_rejects_non_fixed_point(self):
        pair = get_scenario("disjoint-balls").pair
        with pytest.raises(PreconditionError):
            psi_inv(pair, np.array([15.0, 3.0]), np.zeros(2))

    def test_precondition_rejects_a_pair_whose_certificates_fail(self):
        # for constants a and b, x - T x = a + b: within tol_fix = 1 of w = 0,
        # but -k = -b is not in A(z - w) = {a}
        pair = OperatorPair(ConstantValued([0.1, 0.0]), ConstantValued([0.1, 0.0]))
        with pytest.raises(PreconditionError, match="certificates failed"):
            psi_inv(pair, np.zeros(2), np.zeros(2), tol_fix=1.0)

    def test_evaluates_the_shadow_once(self, monkeypatch):
        # one evaluation of J_B at x gives T x and the shadow z; the b-side
        # certificate evaluates J_B(z + k + w) once more
        pair = get_scenario("two-lines").pair
        form = compile_resolvent(pair.B)
        apply, points = form.apply, []
        monkeypatch.setitem(form.__dict__, "apply", lambda y: points.append(y) or apply(y))
        x = np.array([0.5, 2.0])
        zk = psi_inv(pair, x, np.array([0.0, 1.0]))
        assert len(points) == 2
        np.testing.assert_array_equal(points[0], x)
        np.testing.assert_array_equal(zk.z, [0.5, 1.0])

    def test_precondition_scales_with_the_point(self):
        # every point is a fixed point at w = (0, 1), so w misses by 1e-7:
        # within tol_fix (1 + |x|) at |x| ~ 3e8, not at |x| ~ 2
        pair = get_scenario("two-lines").pair
        w = np.array([1e-7, 1.0])
        psi_inv(pair, np.array([3e8, 2.0]), w)
        with pytest.raises(PreconditionError):
            psi_inv(pair, np.array([1.0, 2.0]), w)

    def test_precondition_holds_where_the_squared_length_overflows(self):
        # x - T x - w = (1e155, 0), against tol_fix (1 + |x|) = 1e151
        pair = OperatorPair(ConstantValued([1e155, 0.0]), Zero(2))
        with pytest.raises(PreconditionError, match="not a fixed point"):
            psi_inv(pair, np.array([1e160, 0.0]), np.zeros(2))

    def test_validate_flags_bad_pairs(self):
        pair = get_scenario("two-lines").pair
        bogus = PrimalDualPair(z=[0.0, 0.3], k=[1.0, 0.0], w=[0.0, 1.0])
        outcome = certify(pair, bogus.z, bogus.k, bogus.w)
        assert not all(outcome.values())

    @given(arrays(float, 2, elements=st.floats(-40, 40, allow_nan=False)))
    def test_every_point_roundtrips_on_parallel_lines(self, x):
        # for the parallel-lines pair at w = (0, 1), every point is a fixed
        # point of the value-shifted map, so psi_inv is total
        pair = get_scenario("two-lines").pair
        w = np.array([0.0, 1.0])
        zk = psi_inv(pair, x, w)
        np.testing.assert_allclose(psi(zk), x, atol=1e-12)
        assert zk.z[1] == pytest.approx(1.0, abs=1e-12)


class TestDualSolve:
    def test_dual_solution_swaps_roles(self):
        from normsplit import AffineMonotone

        consistent_pairs = [
            ("overlapping-balls", get_scenario("overlapping-balls").pair),
            (
                "affine",
                OperatorPair(
                    AffineMonotone(np.eye(2), [-1.0, 0.5]),
                    AffineMonotone([[2.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
                ),
            ),
            (
                "opposite-constants",
                OperatorPair(ConstantValued([1.0, -2.0]), ConstantValued([-1.0, 2.0])),
            ),
        ]
        for name, pair in consistent_pairs:
            primal = solve_perturbed(pair, np.zeros(2))
            dual = solve_perturbed(dual_pair(pair), np.zeros(2))
            assert primal.status == "converged", name
            assert dual.status == "converged", name
            np.testing.assert_allclose(
                dual.normal_solution, primal.dual_solution, atol=1e-8
            )
            np.testing.assert_allclose(
                dual.dual_solution, primal.normal_solution, atol=1e-8
            )
            assert all(dual.certificates.values()), name
