import json
import typing
import warnings

import numpy as np
import pytest

from normsplit import (
    ConstantValued,
    OperatorPair,
    OperatorSpec,
    ProjectableSet,
    estimate_v,
    resolvent,
    solve_normal,
    solve_perturbed,
)
from normsplit.cli import main
from normsplit.errors import NonFiniteIterateError, ProblemFormatError
from normsplit import problemio
from normsplit.problemio import (
    operator_from_jsonable,
    operator_to_jsonable,
    parse_problem,
    read_report,
    report_from_jsonable,
    report_to_jsonable,
)
from normsplit.scenarios import get_scenario

from zoo import operator_zoo, rng, sample_points

BALL_A = {"type": "normal_cone", "set": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}}
BALL_B = {"type": "normal_cone", "set": {"type": "ball", "center": [3.0, 0.0], "radius": 1.0}}
LINE_LOWER = {
    "type": "normal_cone",
    "set": {"type": "affine_subspace", "anchor": [0.0, 0.0], "basis": [[1.0, 0.0]]},
}
LINE_UPPER = {
    "type": "normal_cone",
    "set": {"type": "affine_subspace", "anchor": [0.0, 1.0], "basis": [[1.0, 0.0]]},
}


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSolveCommand:
    def test_disjoint_balls_full_run(self, tmp_path):
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        report_path = str(tmp_path / "report.json")
        trace_path = str(tmp_path / "trace.csv")
        code = main(["solve", path, "--json", report_path, "--trace", trace_path])
        assert code == 0
        report = read_report(report_path)
        np.testing.assert_allclose(report.v_estimate, [1.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(report.normal_solution, [2.0, 0.0], atol=1e-6)
        header = open(trace_path).readline().strip().split(",")
        assert header[0] == "n" and "v_cesaro_norm" in header

    def test_epigraph_exits_2_with_v_estimate(self, tmp_path):
        payload = {
            "dim": 2,
            "A": LINE_LOWER,
            "B": {"type": "normal_cone", "set": {"type": "epigraph_exp", "beta": 1.0}},
            "options": {"max_iter": 4000},
        }
        path = write_problem(tmp_path, payload)
        report_path = str(tmp_path / "report.json")
        code = main(["solve", path, "--json", report_path])
        assert code == 2
        report = read_report(report_path)
        assert report.status == "no_fixed_point_detected"
        assert report.normal_solution is None
        assert abs(np.linalg.norm(report.v_estimate) - 1.0) <= 0.1

    def test_w_in_file_drives_perturbed_solve(self, tmp_path):
        payload = {"dim": 2, "A": LINE_LOWER, "B": LINE_UPPER, "w": [0.0, 1.0]}
        path = write_problem(tmp_path, payload)
        assert main(["solve", path]) == 0

    def test_w_flag_overrides(self, tmp_path):
        path = write_problem(tmp_path, {"dim": 2, "A": LINE_LOWER, "B": LINE_UPPER})
        assert main(["solve", path, "--w", "0,1"]) == 0

    def test_budget_exhaustion_exits_3(self, tmp_path):
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        code = main(["solve", path, "--max-iter", "3", "--x0", "40,13"])
        assert code == 3

    def test_malformed_tag_exits_1_with_field_path(self, tmp_path, capsys):
        payload = {"dim": 2, "A": {"type": "mystery"}, "B": BALL_B}
        path = write_problem(tmp_path, payload)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert "A.type" in err and "mystery" in err

    def test_nested_field_path_in_diagnostic(self, tmp_path, capsys):
        payload = {
            "dim": 2,
            "A": {"type": "inverse", "inner": {"type": "zero", "dim": 0}},
            "B": BALL_B,
        }
        path = write_problem(tmp_path, payload)
        assert main(["solve", path]) == 1
        assert "A.inner.dim" in capsys.readouterr().err

    def test_bad_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1

    def test_dimension_mismatch_diagnostic(self, tmp_path, capsys):
        payload = {"dim": 3, "A": BALL_A, "B": BALL_B}
        path = write_problem(tmp_path, payload)
        assert main(["solve", path]) == 1
        assert "does not match" in capsys.readouterr().err


class TestScenarioCommand:
    @pytest.mark.parametrize(
        "name",
        [
            "rotators-default",
            "constants-default",
            "two-lines",
            "disjoint-balls",
            "overlapping-balls",
            "box-halfspace",
            "least-squares-default",
            "affine-default",
        ],
    )
    def test_fast_scenarios_pass(self, name, capsys):
        assert main(["scenario", name]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_report_and_metadata(self, tmp_path):
        report_path = str(tmp_path / "rot.json")
        assert main(["scenario", "rotators-default", "--json", report_path]) == 0
        payload = json.loads(open(report_path).read())
        assert payload["metadata"]["scenario"] == "rotators-default"
        assert payload["metadata"]["expected_v"] == [0.5, -0.5]
        report = report_from_jsonable(payload["report"])
        assert report.status == "converged"

    def test_unknown_scenario_exits_1(self, capsys):
        assert main(["scenario", "missing-name"]) == 1
        assert "unknown scenario" in capsys.readouterr().err


class TestDualityCheckCommand:
    def test_affine_pair(self, tmp_path, capsys):
        payload = {
            "dim": 2,
            "A": {"type": "affine", "matrix": [[0.0, -1.0], [1.0, 0.0]], "offset": [1.0, 0.0]},
            "B": {"type": "affine", "matrix": [[0.0, 1.0], [-1.0, 0.0]], "offset": [0.0, 0.0]},
        }
        path = write_problem(tmp_path, payload)
        assert main(["duality-check", path]) == 0
        assert "max deviation" in capsys.readouterr().out

    def test_constant_pair(self, tmp_path):
        payload = {
            "dim": 2,
            "A": {"type": "constant", "value": [1.0, 2.0]},
            "B": {"type": "constant", "value": [3.0, 4.0]},
        }
        path = write_problem(tmp_path, payload)
        assert main(["duality-check", path]) == 0

    def test_two_sets_pair(self, tmp_path):
        payload = {
            "dim": 2,
            "A": {"type": "normal_cone", "set": {"type": "ball", "center": [0.0, 0.0], "radius": 2.0}},
            "B": {"type": "normal_cone", "set": {"type": "ball", "center": [3.0, 0.0], "radius": 2.0}},
        }
        path = write_problem(tmp_path, payload)
        assert main(["duality-check", path]) == 0


class TestOperatorRoundTrip:
    def test_every_zoo_operator_survives_serialization(self):
        gen = rng(55)
        for dim in (2, 3):
            for name, op in operator_zoo(dim):
                rebuilt = operator_from_jsonable(
                    json.loads(json.dumps(operator_to_jsonable(op))), "A"
                )
                for x in sample_points(gen, dim, 5):
                    np.testing.assert_array_equal(
                        resolvent(rebuilt, x), resolvent(op, x), err_msg=name
                    )

    def test_unknown_set_tag(self):
        with pytest.raises(ProblemFormatError, match="B.set.type"):
            operator_from_jsonable({"type": "normal_cone", "set": {"type": "cube"}}, "B")

    def test_every_variant_has_one_codec_entry(self):
        assert set(typing.get_args(OperatorSpec)) == {cls for cls, _ in problemio._OPERATORS.values()}
        assert set(typing.get_args(ProjectableSet)) == {cls for cls, _ in problemio._SETS.values()}

    def test_set_record_in_operator_position(self):
        box = {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
        with pytest.raises(ProblemFormatError, match="A.type"):
            operator_from_jsonable(box, "A")


class TestReportRoundTrip:
    def test_every_emitted_report_roundtrips(self):
        pairs = [
            get_scenario("disjoint-balls").pair,
            get_scenario("constants-default").pair,
            get_scenario("rotators-default").pair,
        ]
        reports = [solve_normal(p) for p in pairs]
        reports.append(solve_perturbed(pairs[0], [1.0, 0.0]))
        for report in reports:
            clone = report_from_jsonable(
                json.loads(json.dumps(report_to_jsonable(report)))
            )
            assert clone == report

    def test_problem_options_are_validated(self):
        with pytest.raises(ProblemFormatError, match="options.max_iter"):
            parse_problem(
                {
                    "dim": 2,
                    "A": {"type": "zero", "dim": 2},
                    "B": {"type": "zero", "dim": 2},
                    "options": {"max_iter": -3},
                }
            )
        with pytest.raises(ProblemFormatError, match="options.naptime"):
            parse_problem(
                {
                    "dim": 2,
                    "A": {"type": "zero", "dim": 2},
                    "B": {"type": "zero", "dim": 2},
                    "options": {"naptime": 5},
                }
            )


OVERFLOWING = {"type": "constant", "value": [1e308, 0.0]}


class TestNonFiniteOrbit:
    """A = B = constant 1e308 e_1 overflows on the first step."""

    def test_estimate_v_raises_within_three_steps(self):
        pair = OperatorPair(ConstantValued([1e308, 0.0]), ConstantValued([1e308, 0.0]))
        with pytest.raises(NonFiniteIterateError) as info:
            estimate_v(pair)
        assert info.value.step < 3

    def test_perturbed_solve_raises_within_three_steps(self):
        pair = OperatorPair(ConstantValued([1e308, 0.0]), ConstantValued([1e308, 0.0]))
        with pytest.raises(NonFiniteIterateError) as info:
            solve_perturbed(pair, np.zeros(2))
        assert info.value.step < 3

    @pytest.mark.parametrize("command", ["solve", "duality-check"])
    def test_cli_exits_1_without_traceback(self, tmp_path, capsys, command):
        path = write_problem(tmp_path, {"dim": 2, "A": OVERFLOWING, "B": OVERFLOWING})
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not finite" in err
        assert "Traceback" not in err

    def test_duality_check_reports_the_overflow_not_a_zero(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"dim": 2, "A": OVERFLOWING, "B": OVERFLOWING})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr uncaptured
            assert main(["duality-check", path, "--samples", "5"]) == 1
        out, err = capsys.readouterr()
        assert "0.000e+00" not in out
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "not finite" in lines[0]


class TestOptionBounds:
    @pytest.mark.parametrize(
        "options, field",
        [
            ({"tol_v": float("nan")}, "options.tol_v"),
            ({"tol_fix": -1.0}, "options.tol_fix"),
            ({"tol_fix": float("inf")}, "options.tol_fix"),
            ({"max_iter": 0}, "options.max_iter"),
        ],
    )
    def test_problem_file_rejects(self, options, field):
        payload = {"dim": 2, "A": BALL_A, "B": BALL_B, "options": options}
        with pytest.raises(ProblemFormatError, match=field):
            parse_problem(json.loads(json.dumps(payload)))

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--max-iter", "0"], "--max-iter"),
            (["--tol-fix", "nan"], "--tol-fix"),
            (["--tol-v", "-1"], "--tol-v"),
            (["--tol-v", "inf"], "--tol-v"),
            (["--w=1,nan"], "--w"),
            (["--w=1,2,3"], "--w"),
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "duality-check"])
    def test_cli_flags_exit_1(self, tmp_path, capsys, command, flags, name):
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        assert main([command, path, *flags]) == 1
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flags, name",
        [
            ("solve", ["--x0=1e400,0"], "--x0"),
            ("solve", ["--x0=1"], "--x0"),
            ("duality-check", ["--samples", "-5"], "--samples"),
            ("duality-check", ["--samples", "0"], "--samples"),
        ],
    )
    def test_command_flags_exit_1(self, tmp_path, capsys, command, flags, name):
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        assert main([command, path, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "two-lines", "--max-iter", "0"],
            ["scenario", "two-lines", "--w=1,0"],
            ["solve", "PROBLEM", "--seed", "1"],
            ["duality-check", "PROBLEM", "--json", "report.json"],
            ["duality-check", "PROBLEM", "--x0=0,0"],
        ],
    )
    def test_flags_a_command_does_not_read_are_refused(self, tmp_path, capsys, argv):
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        with pytest.raises(SystemExit) as info:
            main([path if arg == "PROBLEM" else arg for arg in argv])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReadReportValidation:
    @staticmethod
    def _written(tmp_path, **changes):
        report = report_to_jsonable(solve_perturbed(get_scenario("disjoint-balls").pair, [1.0, 0.0]))
        report.update(changes)
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"report": report}))
        return path

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"report": {')
        with pytest.raises(ProblemFormatError, match="line 1 column"):
            read_report(path)

    def test_certificates_must_be_booleans(self, tmp_path):
        with pytest.raises(ProblemFormatError, match="report.certificates"):
            read_report(self._written(tmp_path, certificates="yes"))
        with pytest.raises(ProblemFormatError, match="report.certificates"):
            read_report(self._written(tmp_path, certificates={"b_side": 1}))

    @pytest.mark.parametrize("value", [3.7, True, -1, "3"])
    def test_iterations_used_must_be_a_count(self, tmp_path, value):
        with pytest.raises(ProblemFormatError, match="report.iterations_used"):
            read_report(self._written(tmp_path, iterations_used=value))
