import csv
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from normsplit import (
    AffineMonotone,
    AffineSubspace,
    Ball,
    ConstantValued,
    NormalCone,
    OperatorPair,
    SolveOptions,
    InnerShift,
    Inverse,
    OuterShift,
    Zero,
    dr_apply,
    dual_pair,
    estimate_v,
    membership,
    resolvent,
    solve_normal,
    solve_perturbed,
)
from normsplit.errors import DimensionMismatchError
from normsplit.scenarios import build_registry, get_scenario
from normsplit.errors import NonFiniteIterateError
from normsplit import splitting
from normsplit.splitting import CONVERGED, MAX_ITER, NO_FIXED_POINT

from reference import (
    drifting_tail, fixed_point_gap, proves_no_fixed_point, same_report, trace_csv)
from zoo import fused_pairs, lines_at_angle, lines_pair, operator_pairs, rng, sample_points


def test_a_pair_needs_one_dimension():
    with pytest.raises(ValueError, match="different dimensions: 2 vs 3"):
        OperatorPair(Zero(2), Zero(3))


class TestDrApply:
    def test_zero_pair_is_identity(self):
        pair = OperatorPair(Zero(2), Zero(2))
        for x in sample_points(rng(1), 2, 10):
            np.testing.assert_allclose(dr_apply(pair, x), x)

    def test_parallel_lines_hand_formula(self):
        pair = lines_pair()
        for a, b in sample_points(rng(2), 2, 10):
            np.testing.assert_allclose(dr_apply(pair, [a, b]), [a, b - 1.0])

    def test_block_gives_each_rows_step(self):
        gen = rng(5)
        pairs = [get_scenario(name).pair for name in sorted(build_registry())]
        pairs += [pair for dim in (2, 3) for _, pair in operator_pairs(dim)]
        for pair in pairs + [dual_pair(pair) for pair in pairs]:
            xs = sample_points(gen, pair.dim, 30, scale=5.0)
            block = dr_apply(pair, xs)
            for x, row in zip(xs, block):
                assert np.linalg.norm(row - dr_apply(pair, x)) <= 1e-12 * (1.0 + np.linalg.norm(x))

    @pytest.mark.parametrize("xs, error, match", [
        (np.zeros((4, 3)), DimensionMismatchError, "columns"),
        (np.zeros((0, 2)), DimensionMismatchError, "row"),
        (np.zeros((2, 2, 2)), DimensionMismatchError, "shape"),
        (np.array([[0.0, 1.0], [np.nan, 0.0]]), ValueError, "finite"),
        (np.array([[0.0, np.inf]]), ValueError, "finite"),
    ])
    def test_block_is_validated(self, xs, error, match):
        with pytest.raises(error, match=match):
            dr_apply(lines_pair(), xs)


class TestShiftedMap:
    """x -> T(x + w), the splitting operator of the w-perturbation (<w>A, B<w>)."""

    def test_zero_shift_coincides(self):
        pair = lines_pair()
        for x in sample_points(rng(5), 2, 10):
            np.testing.assert_allclose(
                dr_apply(pair, x + np.zeros(2)), dr_apply(pair, x)
            )

    def test_parallel_lines_unit_shift_fixes_everything(self):
        pair = lines_pair()
        for x in sample_points(rng(6), 2, 10):
            np.testing.assert_allclose(dr_apply(pair, x + [0.0, 1.0]), x)

    def test_matches_perturbed_pair_construction(self):
        gen = rng(7)
        for dim in (2, 3):
            for name, pair in operator_pairs(dim, count=8):
                w = gen.normal(size=dim)
                shifted_pair = OperatorPair(
                    InnerShift(pair.A, w), OuterShift(pair.B, w)
                )
                for x in sample_points(gen, dim, 15):
                    gap = dr_apply(shifted_pair, x) - dr_apply(pair, x + w)
                    assert np.linalg.norm(gap) <= 1e-10, name


class TestComplement:
    """Id - T(A, B) is the splitting operator T(A^-1, B)."""

    def test_zero_pair(self):
        complement = OperatorPair(Inverse(Zero(2)), Zero(2))
        for x in sample_points(rng(8), 2, 5):
            np.testing.assert_allclose(dr_apply(complement, x), [0.0, 0.0])

    def test_parallel_lines(self):
        pair = lines_pair()
        complement = OperatorPair(Inverse(pair.A), pair.B)
        for x in sample_points(rng(9), 2, 5):
            np.testing.assert_allclose(dr_apply(complement, x), [0.0, 1.0])


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
        # the Cesaro mean -x_n / n tends to v as well
        np.testing.assert_allclose(-trace.xs[-1] / (len(trace) - 1), [4.0, 6.0], atol=1e-12)

    def test_requires_positive_budget(self):
        with pytest.raises(ValueError):
            estimate_v(lines_pair(), max_iter=0)

    def test_window_beyond_the_budget_holds_no_more_than_the_budget(self):
        # the stagnation ring is never larger than the rows the orbit can
        # have; tol_v = -1 lets no row stop, so the orbit spends the budget
        assert splitting._WINDOW > 30
        pair = get_scenario("overlapping-balls").pair
        _, end = estimate_v(pair, max_iter=30, tol_v=-1.0)
        assert len(end) == 30

    def test_both_estimators_agree_on_closed_forms(self):
        # translation-type orbits from x0 = 0 make both estimators exact
        for name in ("disjoint-balls", "two-lines", "constants-default",
                     "rotators-default"):
            sc = get_scenario(name)
            v, trace = estimate_v(sc.pair, record=True)
            assert np.linalg.norm(v - sc.expected_v) <= sc.tolerance, name
            cesaro = -trace.xs[-1] / (len(trace) - 1)
            assert np.linalg.norm(cesaro - sc.expected_v) <= sc.tolerance, name

    def test_cesaro_rate_bound_when_v_vanishes(self):
        # for a consistent pair the Cesaro estimate -x_n / n decays like
        # |x_hat| / n; check the rate rather than an absolute tolerance.
        # From x_0 = 0, Fejer monotonicity |x_n - x*| <= |x_0 - x*| at the
        # limit x* ~ x_hat bounds n |-x_n / n| = |x_n| by 2 |x*| on every row.
        sc = get_scenario("overlapping-balls")
        v, trace = estimate_v(sc.pair, record=True)
        assert np.linalg.norm(v) <= 1e-6
        n = len(trace)
        x_hat = trace.xs[-1]
        steps = np.arange(1, n)
        cesaros = -trace.xs[1:] / steps[:, None]
        assert np.all(np.linalg.norm(cesaros, axis=1) * steps
                      <= 2.0 * np.linalg.norm(x_hat) + 1e-6)
        cesaro = cesaros[-1]
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

    def test_unreachable_shift_proved_by_the_closed_form(self):
        # T x = x - (4, 6): I - M_T = 0, so rho = |t_w| = |(4, 6)| proves it
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

    def test_blowup_proved_by_the_closed_form(self):
        pair = OperatorPair(ConstantValued([1.0, 0.0]), ConstantValued([1.0, 0.0]))
        report = solve_perturbed(
            pair, np.zeros(2), opts=SolveOptions(max_iter=100_000)
        )
        assert report.status == "no_fixed_point_detected"


class TestSolveNormal:
    @pytest.mark.parametrize("pair, x0, solution", [
        # J_A x = (x + 2e8 e_1) / 2, so T has the one fixed point 2e8 e_1
        (OperatorPair(AffineMonotone(np.eye(2), [-2e8, 0.0]), Zero(2)), None, [2e8, 0.0]),
        (OperatorPair(NormalCone(Ball([2e8, 0.0], 2.0)), NormalCone(Ball([2e8, 1.0], 2.0))),
         [2e8 + 10.0, 5.0], None),
    ])
    def test_solvable_problem_far_from_the_origin_converges(self, pair, x0, solution):
        # an orbit far from 0 is no evidence against a fixed point
        report = solve_normal(pair, x0)
        assert report.status == CONVERGED and all(report.certificates.values())
        if solution is not None:
            np.testing.assert_allclose(report.normal_solution, solution, rtol=1e-12)

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
        assert report.trace is not None

    def test_epigraph_at_a_loose_tol_v_certifies_its_estimate(self):
        # phase 1's window test fires after 1025 rows, so phase 2 starts at x_N,
        # which T(. + w) fixes for w = v_estimate: the w-problem has a solution,
        # and a report of no fixed point would be false for that w. Whether w
        # is close enough to the unattained v is not certified here
        pair = get_scenario("epigraph").pair
        report = solve_normal(pair, opts=SolveOptions(max_iter=4000, tol_v=1e-4))
        _, phase_1 = estimate_v(pair, None, 4000, 1e-4)
        assert len(phase_1) == 1025 and report.iterations_used == 1026
        assert report.status == CONVERGED and all(report.certificates.values())
        z, k = report.normal_solution, report.dual_solution
        assert all(splitting.certify(pair, z, k, report.v_estimate).values())


class TestNormSymmetry:
    """The v of (A, B) and the v of (B, A) have equal norms."""

    def test_constant_pair(self):
        pair = OperatorPair(ConstantValued([1.0, 2.0]), ConstantValued([3.0, 4.0]))
        v_ab, _ = estimate_v(pair)
        v_ba, _ = estimate_v(OperatorPair(pair.B, pair.A))
        expected = float(np.linalg.norm([4.0, 6.0]))
        assert np.linalg.norm(v_ab) == pytest.approx(expected, abs=1e-9)
        assert np.linalg.norm(v_ba) == pytest.approx(expected, abs=1e-9)

    def test_disjoint_balls_opposite_directions(self):
        pair = get_scenario("disjoint-balls").pair
        v_ab, _ = estimate_v(pair)
        v_ba, _ = estimate_v(OperatorPair(pair.B, pair.A))
        assert np.linalg.norm(v_ab) == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.norm(v_ba) == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(v_ba, -v_ab, atol=1e-6)

    def test_rotator_orthogonal_equal_norms(self):
        sc = get_scenario("rotators-default")
        v_ab, _ = estimate_v(sc.pair)
        v_ba, _ = estimate_v(OperatorPair(sc.pair.B, sc.pair.A))
        n_ab, n_ba = np.linalg.norm(v_ab), np.linalg.norm(v_ba)
        assert abs(n_ab - n_ba) <= 1e-8
        assert abs(float(np.dot(v_ab, v_ba))) <= 1e-8
        assert n_ab == pytest.approx(np.linalg.norm([1.0, 0.0]) / np.sqrt(2), abs=1e-8)


class TestRangeWitness:
    """Given 0 in B(z), w = z - J_A(z) lies in ran(Id - T), so the
    w-perturbed problem is solvable."""

    def test_ball_cone_against_zero(self):
        pair = OperatorPair(NormalCone(Ball([0.0, 0.0], 1.0)), Zero(2))
        z = np.array([2.0, 0.0])
        assert membership(pair.B, z, np.zeros(2))
        np.testing.assert_allclose(z - resolvent(pair.A, z), [1.0, 0.0])

    def test_zero_first_component(self):
        pair = OperatorPair(Zero(2), ConstantValued([0.0, 0.0]))
        z = np.array([3.0, -1.0])
        assert membership(pair.B, z, np.zeros(2))
        np.testing.assert_allclose(z - resolvent(pair.A, z), [0.0, 0.0])

    def test_constant_zero_degenerates_to_zero_operator(self):
        pair = OperatorPair(NormalCone(Ball([0.0, 0.0], 1.0)), ConstantValued([0.0, 0.0]))
        z = np.array([2.0, 0.0])
        assert membership(pair.B, z, np.zeros(2))
        np.testing.assert_allclose(z - resolvent(pair.A, z), [1.0, 0.0])

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
            assert membership(pair.B, z, np.zeros(2))
            w = z - resolvent(pair.A, z)
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

    @pytest.mark.parametrize("name, w, max_iter", [
        ("disjoint-balls", None, 60),
        ("epigraph", [0.0, 1.0], 300),
        ("two-lines", [0.0, 0.0], 40),
    ])
    def test_csv_bytes_match_the_cell_by_cell_writer(self, tmp_path, name, w, max_iter):
        pair = get_scenario(name).pair
        if w is None:
            _, trace = estimate_v(pair, x0=[3.0, -2.0], max_iter=max_iter,
                                  tol_v=-1.0, record=True)
        else:
            trace = solve_perturbed(pair, w, x0=[-0.5, 2.0], record=True,
                                    opts=SolveOptions(max_iter=max_iter)).trace
        trace.to_csv(tmp_path / "trace.csv")
        trace_csv(trace, tmp_path / "reference.csv")
        written = (tmp_path / "trace.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.count(b"\n") == len(trace) + 1

    @staticmethod
    def _cesaro_column(trace, path) -> list:
        trace.to_csv(path)
        with open(path, newline="") as fh:
            return [float(row[-1]) for row in list(csv.reader(fh))[1:]]

    def test_steps_view(self, tmp_path):
        pair = lines_pair()
        _, trace = estimate_v(pair, max_iter=3, tol_v=0.0, record=True)
        assert len(trace) == 3
        # row n of the Cesaro column is |-x_n / n|; row 0 is seeded with |-x_1|
        xs = trace.xs
        expected = [np.linalg.norm(-xs[1]), np.linalg.norm(-xs[1] / 1), np.linalg.norm(-xs[2] / 2)]
        np.testing.assert_allclose(self._cesaro_column(trace, tmp_path / "t.csv"), expected)
        # a one-row trace seeds row 0 with x_1 = T x_0
        x0 = np.array([3.0, -2.0])
        _, one = estimate_v(pair, x0, max_iter=1, record=True)
        assert self._cesaro_column(one, tmp_path / "one.csv") == [
            float(np.linalg.norm(dr_apply(pair, x0)))]

    def test_norm_columns_of_rows_whose_squares_overflow(self, tmp_path):
        # A = N of the unit ball at 0, B = N of the unit ball at (1e200, 0): the
        # orbit drifts by about 1e200 a step, so |x_n| and |x_n / n| are finite
        # while their squares overflow; each column is written finite and without
        # a RuntimeWarning, and a row whose square is finite keeps its bits
        pair = OperatorPair(NormalCone(Ball([0.0, 0.0], 1.0)), NormalCone(Ball([1e200, 0.0], 1.0)))
        _, trace = estimate_v(pair, max_iter=200, tol_v=-1.0, record=True)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = [[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]]
        cesaros = np.array([row[-1] for row in rows])
        assert np.isfinite(cesaros).all()
        n = np.arange(1, 200)
        np.testing.assert_allclose(cesaros[1:], np.hypot(*trace.xs[1:].T) / n, rtol=1e-15)
        assert cesaros[-1] > 1e199
        d_norms = np.array([row[-3] for row in rows])
        np.testing.assert_array_equal(d_norms, [row[-2] for row in rows])
        np.testing.assert_allclose(d_norms, np.hypot(*trace.displacements.T), rtol=1e-15)
        plain = tmp_path / "plain.csv"
        with np.errstate(over="ignore"):  # the cell-by-cell writer does not rescale
            trace_csv(trace, plain)
        with open(plain, newline="") as fh:
            assert {row[-1] for row in list(csv.reader(fh))[1:]} == {"inf"}

    def test_csv_peak_memory_is_a_few_times_the_file(self, tmp_path):
        # small-integer floats, so that every cell is short and the file small
        # next to the Python lists a whole-table conversion would build; the
        # rows span five of to_csv's chunks, and an unchunked to_csv peaks
        # at about 9 times the file
        gen = rng(7)
        rows, dim = 5_000, 20
        xs, shadows, disps = (gen.integers(-9, 10, size=(rows, dim)).astype(float)
                              for _ in range(3))
        trace = splitting.IterationTrace(xs, shadows, disps)
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trace.to_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 2**20
        assert peak <= 6 * size


def test_estimator_tail_study_script_runs(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "estimator_tail_study.py"
    spec = importlib.util.spec_from_file_location("estimator_tail_study", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    csv_path = tmp_path / "trace.csv"
    assert script.main(["200", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "|v_diff - g|" in out and "trace written to" in out
    assert csv_path.read_text().count("\n") == 201


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


class TestFusedStep:
    """Affine pairs of dim <= 200 take one matrix-vector product per step."""

    def test_unrecorded_subspace_solve_projects_only_at_certificates(self, monkeypatch):
        calls = []
        original = AffineSubspace.project

        def counting(region, y):
            calls.append(1)
            return original(region, y)

        monkeypatch.setattr(AffineSubspace, "project", counting)
        x0 = np.linspace(-1.0, 1.0, 100)
        # fresh operators, compiled against the patched method
        slow = lines_at_angle(100, 0.01)  # the residual never reaches tol_fix
        report = solve_normal(slow, x0, SolveOptions(max_iter=2_000))
        assert report.iterations_used == 4_000 and report.status != CONVERGED
        assert calls == []
        fast = lines_at_angle(100, 1.0)
        report = solve_normal(fast, x0)
        assert report.status == CONVERGED
        # the shadow J_B and the two membership resolvents of one certificate check
        assert len(calls) == 3

    @pytest.mark.parametrize("solve", [
        lambda pair: estimate_v(pair),
        lambda pair: solve_perturbed(pair, np.zeros(2)),
    ])
    def test_constant_overflow_raises_at_the_first_step(self, solve):
        pair = OperatorPair(ConstantValued([1e308, 0.0]), ConstantValued([1e308, 0.0]))
        with pytest.raises(NonFiniteIterateError) as info:
            solve(pair)
        assert info.value.step == 0

    def test_two_resolvent_step_overflows_only_with_the_iterate(self):
        # above the cap; x_n = -2n c, so x_1 and x_2 are finite and x_3 is not
        c = np.zeros(201)
        c[0], c[1] = 3e307, 1.0
        pair = OperatorPair(ConstantValued(c), ConstantValued(c))
        assert pair.affine_step is None
        with pytest.raises(NonFiniteIterateError) as info:
            estimate_v(pair)
        assert info.value.step == 2
        with np.errstate(over="ignore"):
            assert np.isfinite(dr_apply(pair, -2.0 * c)).all()
            assert np.isfinite(dr_apply(pair, -2.0 * c[None, :])).all()
            assert not np.isfinite(dr_apply(pair, -4.0 * c)).all()

    def test_only_pairs_up_to_the_dimension_cap_fuse(self):
        assert lines_at_angle(200, 0.3).affine_step is not None
        assert lines_at_angle(201, 0.3).affine_step is None
        assert get_scenario("disjoint-balls").pair.affine_step is None


class TestStreamedOrbit:
    """A solve without a trace keeps only the rows its stop tests read."""

    @pytest.mark.parametrize("name, pair, opts", list(normal_cases()))
    def test_normal_solve_ignores_record(self, name, pair, opts):
        streamed = solve_normal(pair, opts=opts)
        recorded = solve_normal(pair, opts=opts, record=True)
        assert same_report(streamed, recorded)
        assert streamed.trace is None
        # solve_normal records phase 2 only
        _, phase_1 = estimate_v(pair, None, opts.max_iter, opts.tol_v)
        assert len(phase_1) + len(recorded.trace) == recorded.iterations_used

    def test_drift_case_ignores_record(self):
        opts = SolveOptions(max_iter=400)
        streamed = solve_perturbed(constant_pair(), np.zeros(2), opts=opts)
        recorded = solve_perturbed(constant_pair(), np.zeros(2), opts=opts, record=True)
        assert same_report(streamed, recorded)
        assert streamed.status == NO_FIXED_POINT

    def test_estimate_v_ends_agree(self):
        pair = get_scenario("affine-default").pair
        v, end = estimate_v(pair)
        v_rec, trace = estimate_v(pair, record=True)
        np.testing.assert_array_equal(v, v_rec)
        assert len(end) == len(trace)
        np.testing.assert_array_equal(end.v_diff, trace.displacements[-1])

    @pytest.mark.parametrize("pair, w, x0, max_iter", [
        (get_scenario("epigraph").pair, [0.0, 1.0], None, 4000),
        (constant_pair(), [0.0, 0.0], None, 400),
        (constant_pair(), [0.0, 0.0], None, 99),
        (lines_at_angle(2, 0.05), [0.0, 0.0], [3.0, -2.0], 400),
        (lines_at_angle(3, 0.01), [0.0, 0.0, 0.0], [3.0, -2.0, 1.0], 1000),
        # fused pairs whose tail starts and whose budget ends inside a block
        (constant_pair(), [0.0, 0.0], [0.5, -1.5], 1013),
        (lines_pair(), [0.0, 0.0], [3.0, -2.0], 137),
        # a pair whose step does not fuse keeps the drift rule
        (get_scenario("disjoint-balls").pair, [0.0, 0.0], None, 200),
        (get_scenario("disjoint-balls").pair, [0.0, 0.0], None, 400),
        (get_scenario("disjoint-balls").pair, [0.0, 0.0], None, 1000),
    ])
    def test_streamed_drift_verdict_matches_the_trace(self, pair, w, x0, max_iter):
        # the drift rule serves pairs whose step does not fuse; a fused pair
        # takes the closed form at any budget, 99 rows included
        opts = SolveOptions(max_iter=max_iter)
        report = solve_perturbed(pair, w, x0=x0, opts=opts, record=True)
        assert report.status != CONVERGED and len(report.trace) == max_iter
        if pair.affine_step is None:
            expected = drifting_tail(report.trace, opts.tol_fix)
            assert expected  # the epigraph and disjoint balls drift
        else:
            expected = proves_no_fixed_point(pair, np.asarray(w, dtype=float), opts.tol_fix)
        assert (report.status == NO_FIXED_POINT) == expected
        assert same_report(solve_perturbed(pair, w, x0=x0, opts=opts), report)

    def test_memory_does_not_grow_with_the_budget(self):
        pair = lines_at_angle(100, 0.01)  # too slow to converge within 20k steps
        x0 = np.linspace(-1.0, 1.0, 100)
        dr_apply(pair, x0)  # compile both resolvents before measuring,
        assert pair.affine_step is not None  # and the pair's dim x dim step
        assert len(pair._window_jump) == 2  # and its two dim x dim jump matrices
        assert pair._range_complement.shape[0] == 100  # and the SVD of its verdict
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


class TestClosedFormVerdict:
    """A fused phase 2 that spends its budget says NO_FIXED_POINT exactly when
    rho = |(I - P_R) t_w|, R = ran(I - M_T), proves that no row can stop."""

    @pytest.mark.parametrize("max_iter", [400, 1000, 4000])
    @pytest.mark.parametrize("angle", [0.005, 0.002, 0.001, 0.0005])
    @pytest.mark.parametrize("dim, gap", [(2, 0.0), (3, 0.0), (3, 1.0)])
    def test_lines_at_a_small_angle_are_not_called_unsolvable(self, dim, gap, angle, max_iter):
        # the normal problem has a solution, 0 without a gap. A tail of k rows
        # turning by angle a row is an arc whose chord is at least 0.9 times
        # its length while k angle <~ 1.57, so the drift rule would call 30 of
        # these 36 cases unsolvable
        x0 = [-2.0, 3.0, 0.0][:dim]
        pair = lines_at_angle(dim, angle, gap)
        report = solve_normal(pair, x0, SolveOptions(max_iter=max_iter))
        assert report.status != NO_FIXED_POINT

    def test_a_perturbed_solve_on_lines_through_zero_proves_nothing(self):
        opts = SolveOptions(max_iter=1000)
        report = solve_perturbed(lines_at_angle(2, 0.001), np.zeros(2), [-2.0, 3.0], opts)
        assert report.status == MAX_ITER

    @pytest.mark.parametrize("max_iter", [99, 300])
    def test_the_proof_bounds_every_displacement(self, max_iter):
        # three seeded w per fused registry and zoo pair, recorded: where rho
        # passes the margin no displacement is shorter than rho, to rounding.
        # 99 rows are too few for the drift rule, not for the proof
        gen = rng(31)
        opts = SolveOptions(max_iter=max_iter)
        proofs = draws = 0
        for name, pair in fused_pairs():
            for _ in range(3):
                w = gen.normal(size=pair.dim)
                x0 = gen.normal(scale=3.0, size=pair.dim)
                report = solve_perturbed(pair, w, x0, opts, record=True)
                proved = proves_no_fixed_point(pair, w, opts.tol_fix)
                assert (report.status == NO_FIXED_POINT) == proved, name
                if proved:
                    shortest = np.linalg.norm(report.trace.displacements, axis=1).min()
                    assert shortest >= fixed_point_gap(pair, w) * (1.0 - 1e-12), name
                proofs, draws = proofs + proved, draws + 1
        assert 0 < proofs < draws

    def test_singular_values_at_the_rank_cutoff(self):
        # A = affine diag(l) and B = 0 give T x = (I + L)^-1 (x - a), so
        # I - M_T = diag(l / (1 + l)) = diag(1/2, 1.01 c, 0.99 c) with the
        # cutoff c = 1e-10 s_max. The rank counts the first two: a t_w along
        # e_2 is reachable (its fixed point lies about 2e10 |t_w| out) and
        # the orbit proves nothing, while one along e_3 counts as unreachable.
        # There each step shrinks the displacement by 1 - 0.99 c, so the
        # bound holds to max_iter c, the price of the cutoff
        cutoff = 1e-10 * 0.5
        sigma = np.array([0.5, 1.01 * cutoff, 0.99 * cutoff])
        ell = sigma / (1.0 - sigma)
        opts = SolveOptions(max_iter=300)
        for axis, expected in ((1, MAX_ITER), (2, NO_FIXED_POINT)):
            offset = np.zeros(3)
            offset[axis] = -(1.0 + ell[axis])  # t = -(I + L)^-1 a = e_axis
            pair = OperatorPair(AffineMonotone(np.diag(ell), offset), Zero(3))
            assert pair._range_complement.shape == (3, 1)
            w = np.zeros(3)
            report = solve_perturbed(pair, w, np.zeros(3), opts, record=True)
            assert report.status == expected, axis
            assert proves_no_fixed_point(pair, w, opts.tol_fix) == (expected == NO_FIXED_POINT)
            shortest = np.linalg.norm(report.trace.displacements, axis=1).min()
            assert shortest >= fixed_point_gap(pair, w) * (1.0 - opts.max_iter * cutoff)
