import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from normsplit import (
    AffineMonotone,
    AffineSubspace,
    Ball,
    EpigraphExp,
    OperatorPair,
    membership,
    project,
)
from normsplit.scenarios import (
    affine_least_norm_witness,
    alternating_projections,
    build_registry,
    get_scenario,
    rotator_matrix,
    scenario_constants,
    scenario_least_squares,
    scenario_rotators,
    scenario_two_sets,
)
from normsplit.vecspace import nullspace


def swapped_rotator_v(astar, bstar) -> np.ndarray:
    """v(B, A) of the rotator pair, the closed form (Id + L)(astar - bstar) / 2."""
    return 0.5 * (np.eye(2) + rotator_matrix()) @ (np.asarray(astar) - np.asarray(bstar))


class TestAlternatingProjections:
    def test_overlapping_balls_reach_intersection(self):
        u, v = Ball([0.0, 0.0], 2.0), Ball([3.0, 0.0], 2.0)
        result = alternating_projections(u, v)
        assert result.attained
        assert np.linalg.norm(result.v) <= 1e-10
        z = result.normal_solution
        np.testing.assert_allclose(project(u, z), z, atol=1e-10)
        np.testing.assert_allclose(project(v, z), z, atol=1e-10)

    def test_disjoint_balls_unit_gap(self):
        result = alternating_projections(Ball([0.0, 0.0], 1.0), Ball([3.0, 0.0], 1.0))
        assert result.attained
        np.testing.assert_allclose(result.v, [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(result.normal_solution, [2.0, 0.0], atol=1e-9)

    def test_parallel_lines(self):
        u = AffineSubspace([0.0, 0.0], [[1.0, 0.0]])
        v = AffineSubspace([0.0, 1.0], [[1.0, 0.0]])
        result = alternating_projections(u, v)
        assert result.attained
        np.testing.assert_allclose(result.v, [0.0, 1.0])

    def test_epigraph_gap_never_attained(self):
        u = AffineSubspace([0.0, 0.0], [[1.0, 0.0]])
        v = EpigraphExp(1.0)
        result = alternating_projections(u, v, max_rounds=4000)
        assert not result.attained
        assert result.normal_solution is None
        np.testing.assert_allclose(result.v, [0.0, 1.0], atol=5e-3)


class TestTwoSetsScenario:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scenario_two_sets(Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0, 0.0], 1.0))

    def test_oracle_is_wired(self):
        sc = get_scenario("disjoint-balls")
        result = sc.oracle()
        np.testing.assert_allclose(result.v, sc.expected_v, atol=1e-9)
        np.testing.assert_allclose(result.normal_solution, [2.0, 0.0], atol=1e-9)


class TestRotatorScenario:
    def test_default_instance_closed_forms(self):
        sc = scenario_rotators([1.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(sc.expected_v, [0.5, -0.5])
        # displacement of the swapped order; sign verified against the
        # least-norm witness program and direct iteration (see the
        # sign-convention note in README.md)
        np.testing.assert_allclose(swapped_rotator_v([1.0, 0.0], [0.0, 0.0]), [0.5, 0.5])
        # the swapped pair (B, A) = (-L - bstar, L + astar) in affine form
        rot = rotator_matrix()
        w, _ = affine_least_norm_witness(-rot, [0.0, 0.0], rot, [1.0, 0.0])
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sc.oracle().v, [0.5, -0.5])

    def test_equal_constants_give_zero(self):
        sc = scenario_rotators([0.7, -0.4], [0.7, -0.4])
        np.testing.assert_allclose(sc.expected_v, [0.0, 0.0])
        np.testing.assert_allclose(swapped_rotator_v([0.7, -0.4], [0.7, -0.4]), [0.0, 0.0])

    def test_vertical_offset_instance(self):
        sc = scenario_rotators([0.0, 2.0], [0.0, 0.0])
        np.testing.assert_allclose(sc.expected_v, [1.0, 1.0])

    def test_orthogonality_and_norms(self):
        gen = np.random.default_rng(31)
        for _ in range(10):
            astar, bstar = gen.normal(size=2), gen.normal(size=2)
            sc = scenario_rotators(astar, bstar)
            v_swapped = swapped_rotator_v(astar, bstar)
            assert abs(float(np.dot(sc.expected_v, v_swapped))) <= 1e-12
            assert np.linalg.norm(sc.expected_v) == pytest.approx(
                np.linalg.norm(astar - bstar) / np.sqrt(2), abs=1e-12
            )
            assert np.linalg.norm(sc.expected_v) == pytest.approx(
                np.linalg.norm(v_swapped), abs=1e-12
            )


class TestConstantsScenario:
    def test_sum_formula(self):
        sc = scenario_constants([1.0, 2.0], [3.0, 4.0])
        np.testing.assert_allclose(sc.oracle().v, [4.0, 6.0])
        swapped = scenario_constants([3.0, 4.0], [1.0, 2.0])
        np.testing.assert_allclose(swapped.oracle().v, [4.0, 6.0])

    def test_opposite_constants_consistent(self):
        sc = scenario_constants([1.0, -1.0], [-1.0, 1.0])
        np.testing.assert_allclose(sc.oracle().v, [0.0, 0.0])

    def test_one_sided(self):
        sc = scenario_constants([1.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(sc.oracle().v, [1.0, 0.0])


class TestLeastSquaresScenario:
    def test_rank_one_instance(self):
        sc = scenario_least_squares([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
        result = sc.oracle()
        np.testing.assert_allclose(result.v, [0.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(result.normal_solution, [1.0, 0.0], atol=1e-12)

    def test_identity_matrix_consistent(self):
        sc = scenario_least_squares(np.eye(2), [0.4, -0.9])
        result = sc.oracle()
        np.testing.assert_allclose(result.v, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(result.normal_solution, [0.4, -0.9], atol=1e-12)

    def test_zero_matrix_degenerate(self):
        sc = scenario_least_squares(np.zeros((2, 2)), [1.0, 0.0])
        result = sc.oracle()
        np.testing.assert_allclose(result.v, [-1.0, 0.0])
        np.testing.assert_allclose(result.normal_solution, [0.0, 0.0])

    def test_rejects_nonmonotone_matrix(self):
        with pytest.raises(ValueError):
            scenario_least_squares([[-1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])


class TestAffineWitness:
    def test_zero_matrices_reduce_to_constants(self):
        w, x = affine_least_norm_witness(
            np.zeros((2, 2)), [1.0, 2.0], np.zeros((2, 2)), [3.0, 4.0]
        )
        np.testing.assert_allclose(w, [4.0, 6.0], atol=1e-12)
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-12)

    def test_rotator_instance_matches_rotator_closed_form(self):
        rot = rotator_matrix()
        astar, bstar = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        # the rotator pair in affine form: A = L + astar, B = -L - bstar
        w, _ = affine_least_norm_witness(rot, astar, -rot, -bstar)
        sc = scenario_rotators(astar, bstar)
        np.testing.assert_allclose(w, sc.expected_v, atol=1e-12)

    def test_identity_pair_consistent(self):
        w, x = affine_least_norm_witness(np.eye(2), [0.0, 0.0], np.eye(2), [0.0, 0.0])
        np.testing.assert_allclose(w, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-14)

    def test_minimality_certificate_on_random_instances(self):
        gen = np.random.default_rng(77)
        for _ in range(10):
            dim = int(gen.integers(2, 7))
            g1 = gen.normal(size=(dim, dim))
            g2 = gen.normal(size=(dim, dim))
            s1 = gen.normal(size=(dim, dim))
            l_mat = g1 @ g1.T / dim + (s1 - s1.T)
            m_mat = g2 @ g2.T / dim
            astar, bstar = gen.normal(size=dim), gen.normal(size=dim)
            w, x = affine_least_norm_witness(l_mat, astar, m_mat, bstar)
            # constraint feasibility
            lhs = (np.eye(dim) + l_mat) @ w - (l_mat + m_mat) @ x
            np.testing.assert_allclose(lhs, astar + bstar, atol=1e-8)
            # KKT minimality: w orthogonal to the constraint nullspace
            perp = nullspace((l_mat + m_mat).T)
            if perp.shape[1]:
                kernel = nullspace(perp.T @ (np.eye(dim) + l_mat))
                for j in range(kernel.shape[1]):
                    assert abs(float(w @ kernel[:, j])) <= 1e-9


    def test_matches_the_affine_closed_form_on_rank_deficient_pairs(self):
        # with (M_T, t) the pair's affine step and R = ran(I - M_T), the
        # displacement x - T x ranges over R - t, so v = -(I - P_R) t
        gen = np.random.default_rng(2024)

        def monotone(dim):
            # Q (S + K) Q^T of rank below dim: S positive semidefinite, K skew
            rank = int(gen.integers(0, dim))
            q = np.linalg.qr(gen.normal(size=(dim, dim)))[0][:, :rank]
            g, s = gen.normal(size=(rank, rank)), gen.normal(size=(rank, rank))
            return q @ (g @ g.T + s - s.T) @ q.T

        for _ in range(300):
            dim = int(gen.integers(2, 7))
            l_mat, m_mat = monotone(dim), monotone(dim)
            astar, bstar = gen.normal(size=dim), gen.normal(size=dim)
            w, x = affine_least_norm_witness(l_mat, astar, m_mat, bstar)
            m_t, t = OperatorPair(AffineMonotone(l_mat, astar), AffineMonotone(m_mat, bstar)).affine_step
            u, s, _ = np.linalg.svd(np.eye(dim) - m_t)
            # a relative cutoff: n eps s_max counts a 3e-16 singular value of a
            # 2-D pair into the rank
            basis = u[:, : int(np.sum(s > 1e-10 * s[0]))]
            v = basis @ (basis.T @ t) - t
            assert np.linalg.norm(w - v) <= 1e-10 * (1.0 + np.linalg.norm(t))
            rhs = astar + bstar
            residual = (l_mat + m_mat) @ x - ((np.eye(dim) + l_mat) @ w - rhs)
            assert np.linalg.norm(residual) <= 1e-8 * (1.0 + np.linalg.norm(rhs))


class TestRegistry:
    def test_all_factories_build(self):
        for name, factory in build_registry().items():
            sc = factory()
            assert sc.name == name
            assert sc.pair.dim >= 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_scenario("does-not-exist")

    def test_epigraph_oracle_reports_non_attainment(self):
        sc = get_scenario("epigraph")
        result = sc.oracle()
        assert not result.attained
        np.testing.assert_allclose(result.v, [0.0, 1.0], atol=1e-3)

    def test_set_scenarios_match_hand_values(self):
        # (v of the swapped pair (B, A), normal solution reached from 0)
        hand = {
            "disjoint-balls": ([-1.0, 0.0], [2.0, 0.0]),
            "two-lines": ([0.0, -1.0], [0.0, 1.0]),
            "box-halfspace": ([-2.0, 0.0], [3.0, 0.0]),
        }
        for name, (v_swapped, solution) in hand.items():
            sc = get_scenario(name)
            np.testing.assert_allclose(sc.oracle().normal_solution, solution, atol=1e-9)
            swapped = alternating_projections(sc.pair.B.region, sc.pair.A.region)
            np.testing.assert_allclose(swapped.v, v_swapped, atol=1e-9)

    def test_box_halfspace_solution_certified(self):
        sc = get_scenario("box-halfspace")
        result = sc.oracle()
        assert result.attained
        np.testing.assert_allclose(result.v, [2.0, 0.0], atol=1e-9)
        z = result.normal_solution
        assert membership(sc.pair.B, z, [0.0, 0.0])


def test_run_scenarios_script_passes_its_oracles():
    # two scenarios whose phase 1 exits before its window fills, and one whose v != 0
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_scenarios.py"
    done = subprocess.run(
        [sys.executable, str(script), "overlapping-balls", "affine-default", "disjoint-balls"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all 3 scenarios within tolerance"
