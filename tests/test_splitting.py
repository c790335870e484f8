import tracemalloc

import numpy as np
import pytest

from normsplit import operators
from normsplit import (
    AffineMonotone,
    AffineSubspace,
    Ball,
    ConstantValued,
    NormalCone,
    OperatorPair,
    SolveOptions,
    Inverse,
    Zero,
    complement_is_dr,
    dr_apply,
    dr_map_shifted,
    dual_pair,
    estimate_v,
    inner_perturb,
    membership,
    norm_symmetry_check,
    outer_perturb,
    range_witness,
    reflected_resolvent,
    solve_normal,
    solve_perturbed,
)
from normsplit.errors import PreconditionError
from normsplit.scenarios import build_registry, get_scenario
from normsplit.splitting import CONVERGED, NO_FIXED_POINT

from reference import drifting_tail
from zoo import operator_pairs, rng, sample_points


def lines_pair() -> OperatorPair:
    lower = AffineSubspace([0.0, 0.0], [[1.0, 0.0]])
    upper = AffineSubspace([0.0, 1.0], [[1.0, 0.0]])
    return OperatorPair(NormalCone(lower), NormalCone(upper))


class TestDrApply:
    def test_zero_pair_is_identity(self):
        pair = OperatorPair(Zero(2), Zero(2))
        for x in sample_points(rng(1), 2, 10):
            np.testing.assert_allclose(dr_apply(pair, x), x)

    def test_parallel_lines_hand_formula(self):
        pair = lines_pair()
        for a, b in sample_points(rng(2), 2, 10):
            np.testing.assert_allclose(dr_apply(pair, [a, b]), [a, b - 1.0])

    def test_half_averaged_identity(self):
        gen = rng(3)
        for dim in (2, 3):
            for name, pair in operator_pairs(dim):
                for x in sample_points(gen, dim, 20):
                    rarb = reflected_resolvent(
                        pair.A, reflected_resolvent(pair.B, x)
                    )
                    gap = dr_apply(pair, x) - 0.5 * (x + rarb)
                    assert np.linalg.norm(gap) <= 1e-11, name

    def test_firmly_nonexpansive(self):
        gen = rng(4)
        for dim in (2, 3):
            for name, pair in operator_pairs(dim):
                xs = sample_points(gen, dim, 100)
                ys = sample_points(gen, dim, 100)
                for x, y in zip(xs, ys):
                    tx, ty = dr_apply(pair, x), dr_apply(pair, y)
                    lhs = np.sum((tx - ty) ** 2) + np.sum(((x - tx) - (y - ty)) ** 2)
                    assert lhs <= np.sum((x - y) ** 2) + 1e-9, name


class TestShiftedMap:
    def test_zero_shift_coincides(self):
        pair = lines_pair()
        for x in sample_points(rng(5), 2, 10):
            np.testing.assert_allclose(
                dr_map_shifted(pair, np.zeros(2), x), dr_apply(pair, x)
            )

    def test_parallel_lines_unit_shift_fixes_everything(self):
        pair = lines_pair()
        for x in sample_points(rng(6), 2, 10):
            np.testing.assert_allclose(dr_map_shifted(pair, [0.0, 1.0], x), x)

    def test_matches_perturbed_pair_construction(self):
        gen = rng(7)
        for dim in (2, 3):
            for name, pair in operator_pairs(dim, count=8):
                w = gen.normal(size=dim)
                shifted_pair = OperatorPair(
                    inner_perturb(pair.A, w), outer_perturb(pair.B, w)
                )
                for x in sample_points(gen, dim, 15):
                    gap = dr_apply(shifted_pair, x) - dr_map_shifted(pair, w, x)
                    assert np.linalg.norm(gap) <= 1e-10, name


class TestComplement:
    def test_zero_pair(self):
        pair = OperatorPair(Zero(2), Zero(2))
        for x in sample_points(rng(8), 2, 5):
            np.testing.assert_allclose(complement_is_dr(pair, x), [0.0, 0.0])

    def test_parallel_lines(self):
        pair = lines_pair()
        for x in sample_points(rng(9), 2, 5):
            np.testing.assert_allclose(complement_is_dr(pair, x), [0.0, 1.0])

    def test_complement_identity_across_pairs(self):
        gen = rng(10)
        for dim in (2, 3):
            for name, pair in operator_pairs(dim):
                for x in sample_points(gen, dim, 15):
                    gap = dr_apply(pair, x) + complement_is_dr(pair, x) - x
                    assert np.linalg.norm(gap) <= 1e-10, name

    def test_second_call_reuses_the_compiled_inverse(self, monkeypatch):
        folds = []
        fold = operators._FOLDS[Inverse]

        def counting(inner, op):
            folds.append(op)
            return fold(inner, op)

        monkeypatch.setitem(operators._FOLDS, Inverse, counting)
        pair = get_scenario("disjoint-balls").pair
        x = np.array([0.3, -1.7])
        first = complement_is_dr(pair, x)
        assert len(folds) == 1
        np.testing.assert_array_equal(complement_is_dr(pair, x), first)
        assert len(folds) == 1


class TestEcksteinSelfDuality:
    def test_dual_pair_has_same_splitting_operator(self):
        gen = rng(11)
        for dim in (2, 3):
            for name, pair in operator_pairs(dim):
                dual = dual_pair(pair)
                for x in sample_points(gen, dim, 15):
                    gap = dr_apply(pair, x) - dr_apply(dual, x)
                    assert np.linalg.norm(gap) <= 1e-10, name


class TestEstimateV:
    def test_overlapping_balls_consistent(self):
        pair = get_scenario("overlapping-balls").pair
        v, trace = estimate_v(pair)
        assert np.linalg.norm(v) <= 1e-6
        assert len(trace) <= 5000

    def test_parallel_lines_exact_after_one_iteration(self):
        v, trace = estimate_v(lines_pair(), max_iter=1)
        assert len(trace) == 1
        np.testing.assert_array_equal(v, [0.0, 1.0])

    def test_constant_pair(self):
        pair = OperatorPair(ConstantValued([1.0, 2.0]), ConstantValued([3.0, 4.0]))
        v, trace = estimate_v(pair, record=True)
        np.testing.assert_allclose(v, [4.0, 6.0], atol=1e-12)
        np.testing.assert_allclose(trace.v_cesaros[-1], [4.0, 6.0], atol=1e-12)

    def test_displacement_norms_non_increasing(self):
        for name in ("disjoint-balls", "overlapping-balls", "rotators-default"):
            pair = get_scenario(name).pair
            _, trace = estimate_v(pair, x0=[3.0, -2.0], max_iter=400, tol_v=0.0, record=True)
            norms = trace.displacement_norms()
            assert np.all(np.diff(norms) <= 1e-12), name

    def test_minimality_of_v(self):
        gen = rng(12)
        for name in ("disjoint-balls", "constants-default", "two-lines"):
            pair = get_scenario(name).pair
            v, _ = estimate_v(pair)
            for x in sample_points(gen, 2, 40):
                assert (
                    np.linalg.norm(v)
                    <= np.linalg.norm(x - dr_apply(pair, x)) + 1e-8
                ), name

    def test_requires_positive_budget(self):
        with pytest.raises(ValueError):
            estimate_v(lines_pair(), max_iter=0)

    @pytest.mark.parametrize("window", [0, -1])
    def test_requires_positive_window(self, window):
        # 0 would compare a row with itself, -1 a row not yet computed
        with pytest.raises(ValueError, match="window"):
            estimate_v(lines_pair(), window=window)

    def test_window_beyond_the_budget_holds_no_more_than_the_budget(self):
        # the stagnation ring is never larger than the rows the orbit can have
        pair = get_scenario("overlapping-balls").pair
        _, end = estimate_v(pair, max_iter=300, window=10**12)
        assert len(end) == 300

    def test_both_estimators_agree_on_closed_forms(self):
        # translation-type orbits from x0 = 0 make both estimators exact
        for name in ("disjoint-balls", "two-lines", "constants-default",
                     "rotators-default"):
            sc = get_scenario(name)
            v, trace = estimate_v(sc.pair, record=True)
            assert np.linalg.norm(v - sc.expected_v) <= sc.tolerance, name
            assert (
                np.linalg.norm(trace.v_cesaros[-1] - sc.expected_v) <= sc.tolerance
            ), name

    def test_cesaro_rate_bound_when_v_vanishes(self):
        # for a consistent pair the Cesaro estimate decays like |x_hat| / n;
        # check the rate rather than an absolute tolerance
        sc = get_scenario("overlapping-balls")
        v, trace = estimate_v(sc.pair, record=True)
        assert np.linalg.norm(v) <= 1e-6
        n = len(trace)
        x_hat = trace.xs[-1]
        cesaro = trace.v_cesaros[-1]
        assert np.linalg.norm(cesaro) <= 2.0 * np.linalg.norm(x_hat) / (n - 1)
        residual = np.linalg.norm(v - cesaro)
        assert residual == pytest.approx(np.linalg.norm(cesaro), rel=1e-6)


class TestSolvePerturbed:
    def test_consistent_balls_zero_shift(self):
        pair = get_scenario("overlapping-balls").pair
        report = solve_perturbed(pair, np.zeros(2))
        assert report.status == "converged"
        z = report.normal_solution
        k = report.dual_solution
        assert report.certificates == {"b_side": True, "a_side": True}
        # w = 0: k in Bz and -k in Az certify 0 in Az + Bz
        assert membership(pair.B, z, k)
        assert membership(pair.A, z, -k)

    def test_parallel_lines_unit_shift(self):
        pair = lines_pair()
        report = solve_perturbed(pair, [0.0, 1.0], x0=[0.7, 0.4])
        assert report.status == "converged"
        assert report.normal_solution[1] == pytest.approx(1.0, abs=1e-9)
        assert all(report.certificates.values())
        shifted = report.normal_solution - np.array([0.0, 1.0])
        assert shifted[1] == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_balls_unit_gap(self):
        pair = get_scenario("disjoint-balls").pair
        report = solve_perturbed(pair, [1.0, 0.0])
        assert report.status == "converged"
        np.testing.assert_allclose(report.normal_solution, [2.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(
            report.governing_point + np.array([1.0, 0.0]) - report.normal_solution,
            report.dual_solution + np.array([1.0, 0.0]),
            atol=1e-12,
        )

    def test_unreachable_shift_detected_by_drift(self):
        pair = OperatorPair(ConstantValued([1.0, 2.0]), ConstantValued([3.0, 4.0]))
        report = solve_perturbed(pair, np.zeros(2), opts=SolveOptions(max_iter=400))
        assert report.status == "no_fixed_point_detected"
        assert report.normal_solution is None

    def test_budget_exhaustion_without_evidence(self):
        pair = get_scenario("disjoint-balls").pair
        report = solve_perturbed(
            pair, [1.0, 0.0], x0=[40.0, 13.0], opts=SolveOptions(max_iter=3)
        )
        assert report.status == "max_iter"
        assert report.iterations_used == 3

    def test_blowup_detected(self):
        pair = OperatorPair(ConstantValued([1.0, 0.0]), ConstantValued([1.0, 0.0]))
        report = solve_perturbed(
            pair, np.zeros(2), opts=SolveOptions(max_iter=100_000, r_max=10.0)
        )
        assert report.status == "no_fixed_point_detected"


class TestSolveNormal:
    def test_consistent_equals_zero_perturbation(self):
        pair = get_scenario("overlapping-balls").pair
        normal = solve_normal(pair)
        direct = solve_perturbed(pair, np.zeros(2))
        assert normal.status == "converged"
        assert np.linalg.norm(normal.v_estimate) <= 1e-6
        np.testing.assert_allclose(
            normal.normal_solution, direct.normal_solution, atol=1e-6
        )

    def test_disjoint_balls(self):
        pair = get_scenario("disjoint-balls").pair
        report = solve_normal(pair)
        assert report.status == "converged"
        np.testing.assert_allclose(report.v_estimate, [1.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(report.normal_solution, [2.0, 0.0], atol=1e-6)

    def test_epigraph_reports_no_fixed_point(self):
        pair = get_scenario("epigraph").pair
        report = solve_normal(pair, opts=SolveOptions(max_iter=4000), record=True)
        assert report.status == "no_fixed_point_detected"
        assert report.normal_solution is None
        assert abs(np.linalg.norm(report.v_estimate) - 1.0) <= 0.1
        assert report.v_trace is not None and report.trace is not None


class TestNormSymmetry:
    def test_constant_pair(self):
        pair = OperatorPair(ConstantValued([1.0, 2.0]), ConstantValued([3.0, 4.0]))
        n_ab, n_ba = norm_symmetry_check(pair)
        expected = float(np.linalg.norm([4.0, 6.0]))
        assert n_ab == pytest.approx(expected, abs=1e-9)
        assert n_ba == pytest.approx(expected, abs=1e-9)

    def test_disjoint_balls_opposite_directions(self):
        pair = get_scenario("disjoint-balls").pair
        n_ab, n_ba = norm_symmetry_check(pair)
        assert n_ab == pytest.approx(1.0, abs=1e-6)
        assert n_ba == pytest.approx(1.0, abs=1e-6)
        v_ab, _ = estimate_v(pair)
        v_ba, _ = estimate_v(pair.swapped())
        np.testing.assert_allclose(v_ba, -v_ab, atol=1e-6)

    def test_rotator_orthogonal_equal_norms(self):
        sc = get_scenario("rotators-default")
        n_ab, n_ba = norm_symmetry_check(sc.pair)
        assert abs(n_ab - n_ba) <= 1e-8
        v_ab, _ = estimate_v(sc.pair)
        v_ba, _ = estimate_v(sc.pair.swapped())
        assert abs(float(np.dot(v_ab, v_ba))) <= 1e-8
        assert n_ab == pytest.approx(np.linalg.norm([1.0, 0.0]) / np.sqrt(2), abs=1e-8)


class TestRangeWitness:
    def test_ball_cone_against_zero(self):
        pair = OperatorPair(NormalCone(Ball([0.0, 0.0], 1.0)), Zero(2))
        w = range_witness(pair, [2.0, 0.0])
        np.testing.assert_allclose(w, [1.0, 0.0])

    def test_zero_first_component(self):
        pair = OperatorPair(Zero(2), ConstantValued([0.0, 0.0]))
        np.testing.assert_allclose(range_witness(pair, [3.0, -1.0]), [0.0, 0.0])

    def test_constant_zero_degenerates_to_zero_operator(self):
        pair = OperatorPair(NormalCone(Ball([0.0, 0.0], 1.0)), ConstantValued([0.0, 0.0]))
        np.testing.assert_allclose(range_witness(pair, [2.0, 0.0]), [1.0, 0.0])

    def test_precondition_failure(self):
        pair = OperatorPair(Zero(2), ConstantValued([1.0, 1.0]))
        with pytest.raises(PreconditionError):
            range_witness(pair, [0.0, 0.0])

    def test_witness_shift_is_always_solvable(self):
        cases = [
            OperatorPair(NormalCone(Ball([0.0, 0.0], 1.0)), Zero(2)),
            OperatorPair(
                AffineMonotone([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0]),
                NormalCone(Ball([4.0, 4.0], 1.0)),
            ),
        ]
        zs = [np.array([2.0, 0.0]), np.array([4.0, 4.0])]
        for pair, z in zip(cases, zs):
            w = range_witness(pair, z)
            report = solve_perturbed(pair, w)
            assert report.status == "converged"
            assert all(report.certificates.values())


class TestTraceExport:
    def test_csv_roundtrip(self, tmp_path):
        pair = get_scenario("disjoint-balls").pair
        _, trace = estimate_v(pair, max_iter=60, tol_v=-1.0, record=True)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "n", "x_0", "x_1", "shadow_0", "shadow_1",
            "displacement_norm", "v_diff_norm", "v_cesaro_norm",
        ]
        assert len(lines) == 61
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[5]) == pytest.approx(1.0)

    def test_steps_view(self):
        pair = lines_pair()
        _, trace = estimate_v(pair, max_iter=3, tol_v=0.0, record=True)
        assert len(trace) == 3
        np.testing.assert_array_equal(trace.v_diffs, trace.displacements)
        # row n of the Cesaro column is -x_n / n; row 0 is seeded with -x_1
        np.testing.assert_allclose(trace.v_cesaros[1:], -trace.xs[1:] / [[1.0], [2.0]])
        np.testing.assert_array_equal(trace.v_cesaros[0], -trace.xs[1])


def lines_at_angle(dim: int, angle: float) -> OperatorPair:
    """Two lines through 0 in R^dim; DR on them contracts at rate cos(angle)."""
    u = np.zeros((1, dim))
    u[0, 0] = 1.0
    v = np.zeros((1, dim))
    v[0, 0], v[0, 1] = np.cos(angle), np.sin(angle)
    origin = np.zeros(dim)
    return OperatorPair(NormalCone(AffineSubspace(origin, u)),
                        NormalCone(AffineSubspace(origin, v)))


def constant_pair() -> OperatorPair:
    return OperatorPair(ConstantValued([1.0, 2.0]), ConstantValued([3.0, 4.0]))


def normal_cases():
    for name in sorted(build_registry()):
        sc = get_scenario(name)
        opts = SolveOptions(max_iter=4000) if name == "epigraph" else sc.solve_opts
        yield name, sc.pair, opts
    for dim in (2, 3):
        for name, pair in operator_pairs(dim):
            yield name, pair, SolveOptions(max_iter=1000)


class TestStreamedOrbit:
    """A solve without a trace keeps only the rows its stop tests read."""

    @pytest.mark.parametrize("name, pair, opts", list(normal_cases()))
    def test_normal_solve_ignores_record(self, name, pair, opts):
        streamed = solve_normal(pair, opts=opts)
        recorded = solve_normal(pair, opts=opts, record=True)
        assert streamed == recorded
        assert streamed.trace is None and streamed.v_trace is None
        assert (len(recorded.v_trace) + len(recorded.trace)
                == recorded.iterations_used)

    def test_drift_case_ignores_record(self):
        opts = SolveOptions(max_iter=400)
        streamed = solve_perturbed(constant_pair(), np.zeros(2), opts=opts)
        recorded = solve_perturbed(constant_pair(), np.zeros(2), opts=opts, record=True)
        assert streamed == recorded
        assert streamed.status == NO_FIXED_POINT

    def test_estimate_v_ends_agree(self):
        pair = get_scenario("affine-default").pair
        v, end = estimate_v(pair)
        v_rec, trace = estimate_v(pair, record=True)
        np.testing.assert_array_equal(v, v_rec)
        assert len(end) == len(trace)
        np.testing.assert_array_equal(end.v_cesaro, trace.v_cesaros[-1])
        np.testing.assert_array_equal(end.v_diff, trace.displacements[-1])

    @pytest.mark.parametrize("pair, w, x0, max_iter", [
        (get_scenario("epigraph").pair, [0.0, 1.0], None, 4000),
        (constant_pair(), [0.0, 0.0], None, 400),
        (constant_pair(), [0.0, 0.0], None, 99),
        (lines_at_angle(2, 0.05), [0.0, 0.0], [3.0, -2.0], 400),
        (lines_at_angle(3, 0.01), [0.0, 0.0, 0.0], [3.0, -2.0, 1.0], 1000),
    ])
    def test_streamed_drift_verdict_matches_the_trace(self, pair, w, x0, max_iter):
        opts = SolveOptions(max_iter=max_iter)
        report = solve_perturbed(pair, w, x0=x0, opts=opts, record=True)
        assert report.status != CONVERGED and len(report.trace) == max_iter
        expected = drifting_tail(report.trace, opts.tol_fix)
        assert (report.status == NO_FIXED_POINT) == expected

    def test_memory_does_not_grow_with_the_budget(self):
        pair = lines_at_angle(100, 0.01)  # too slow to converge within 20k steps
        x0 = np.linspace(-1.0, 1.0, 100)
        dr_apply(pair, x0)  # compile both resolvents before measuring
        peaks = {}
        tracemalloc.start()
        try:
            for max_iter in (2_000, 20_000):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                report = solve_normal(pair, x0, SolveOptions(max_iter=max_iter))
                peaks[max_iter] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                assert report.iterations_used == 2 * max_iter
        finally:
            tracemalloc.stop()
        assert peaks[20_000] < 1.0
        assert abs(peaks[20_000] - peaks[2_000]) < 0.1
