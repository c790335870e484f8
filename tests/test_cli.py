import ast
import csv
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from normsplit import (
    AffineSubspace,
    ConstantValued,
    EpigraphExp,
    OperatorPair,
    OperatorSpec,
    ProjectableSet,
    SolveOptions,
    Zero,
    dr_apply,
    dual_pair,
    estimate_v,
    resolvent,
    solve_normal,
    solve_perturbed,
)
from normsplit import cli
from normsplit.cli import main
from normsplit.errors import NonFiniteIterateError, PreconditionError, ProblemFormatError
from normsplit import problemio
from normsplit.problemio import (
    operator_from_jsonable,
    parse_problem,
    read_report,
    report_from_jsonable,
    report_to_jsonable,
)
from normsplit.scenarios import get_scenario, scenario_two_sets
from normsplit.splitting import NO_FIXED_POINT

from error_cases import BALL_A, BALL_B, FILES, INPUT_ERRORS, OVERFLOWING, USAGE_ERRORS
from reference import operator_to_jsonable, same_report, trace_csv
from zoo import operator_zoo, rng, sample_points

LINE_LOWER = {
    "type": "normal_cone",
    "set": {"type": "affine_subspace", "anchor": [0.0, 0.0], "basis": [[1.0, 0.0]]},
}
LINE_UPPER = {
    "type": "normal_cone",
    "set": {"type": "affine_subspace", "anchor": [0.0, 1.0], "basis": [[1.0, 0.0]]},
}
# an integer literal beyond the float64 range; json writes and reads it exactly
HUGE = 10**400
# two lines that meet at (7.5e7, 0): A = N of the first axis, B = N of the
# line through (3e8, 3e8) along (0.6, 0.8); v = 0, attained
FAR_LINES = {
    "dim": 2,
    "A": {"type": "normal_cone",
          "set": {"type": "affine_subspace", "anchor": [0.0, 0.0], "basis": [[1.0, 0.0]]}},
    "B": {"type": "normal_cone",
          "set": {"type": "affine_subspace", "anchor": [3e8, 3e8], "basis": [[0.6, 0.8]]}},
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

    def test_a_settled_solve_traces_one_row(self, tmp_path):
        # two dim-3 balls that meet (v = 0): phase 1 takes its certified exit,
        # and phase 2, started at phase 1's last iterate, certifies its first row
        payload = {
            "dim": 3,
            "A": {"type": "normal_cone",
                  "set": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}},
            "B": {"type": "normal_cone",
                  "set": {"type": "ball", "center": [1.5, -0.5, 0.25], "radius": 1.0}},
            "options": {"x0": [4.0, 3.0, -2.0]},
        }
        path = write_problem(tmp_path, payload)
        report_path, trace_path = tmp_path / "r.json", tmp_path / "t.csv"
        assert main(["solve", path, "--json", str(report_path), "--trace", str(trace_path)]) == 0
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and all(len(row) == 1 + 2 * 3 + 3 for row in rows)
        problem = parse_problem(payload)
        expected = solve_normal(OperatorPair(problem.a, problem.b), problem.x0,
                                problem.options, record=True)
        assert expected.status == "converged" and all(expected.certificates.values())
        assert len(expected.trace) == 1
        assert same_report(read_report(report_path), expected)
        trace_csv(expected.trace, tmp_path / "expected.csv")
        assert (tmp_path / "expected.csv").read_bytes() == trace_path.read_bytes()
        assert main(["duality-check", path]) == 0

    def test_far_lines_converge_with_no_cesaro_residual(self, tmp_path, capsys):
        path = write_problem(tmp_path, FAR_LINES)
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        assert "status:          converged" in out and "a_side=True b_side=True" in out
        assert "v_residual" not in out

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

    def test_x0_in_file_matches_the_flag(self, tmp_path):
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        in_file = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B,
                                           "options": {"x0": [40.0, 13.0]}}, "x0.json")
        flag_json, file_json = str(tmp_path / "flag.json"), str(tmp_path / "file.json")
        assert main(["solve", path, "--x0", "40,13", "--json", flag_json]) == 0
        assert main(["solve", in_file, "--json", file_json]) == 0
        assert same_report(read_report(file_json), read_report(flag_json))

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

    def test_non_monotone_affine_map_exits_1(self, tmp_path, capsys):
        affine = {"type": "affine", "matrix": [[1e308, 0.0], [0.0, -1e308]],
                  "offset": [0.0, 0.0]}
        path = write_problem(tmp_path, {"dim": 2, "A": affine, "B": BALL_B})
        assert main(["solve", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: A: affine map is not monotone")

    def test_affine_map_without_an_accurate_resolvent_exits_1(self, tmp_path, capsys):
        # elimination overflows yet ends finite, at a wrong (Id + M)^-1
        affine = {"type": "affine", "matrix": [[1e308, 1e308], [-1e308, 1e308]],
                  "offset": [0.0, 0.0]}
        path = write_problem(tmp_path, {"dim": 2, "A": affine, "B": BALL_B})
        assert main(["solve", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: A: Id + matrix has no accurate")
        assert err.count("\n") == 1

    def test_wide_spread_affine_map_solves(self, tmp_path, capsys):
        # Id + M has every singular value >= 1, however far apart M's entries are
        affine = {"type": "affine", "matrix": [[1e13, 0.0], [0.0, 0.0]], "offset": [5e12, 0.0]}
        ball = {"type": "normal_cone", "set": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}}
        path = write_problem(tmp_path, {"dim": 2, "A": affine, "B": ball})
        report_path = str(tmp_path / "report.json")
        assert main(["solve", path, "--json", report_path]) == 0
        report = read_report(report_path)
        assert report.certificates == {"a_side": True, "b_side": True}
        np.testing.assert_allclose(report.normal_solution, [-0.5, 0.0], atol=1e-6)

    @pytest.mark.parametrize("flag", ["--json", "--trace"])
    @pytest.mark.parametrize("command", ["solve", "scenario"])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, command, flag):
        if command == "solve":
            target = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        else:
            target = "two-lines"
        assert main([command, target, flag, str(tmp_path / "missing-dir" / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing-dir" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("depth", [400, 3000])
    @pytest.mark.parametrize("command", ["solve", "duality-check"])
    def test_deeply_nested_file_exits_1(self, tmp_path, capsys, command, depth):
        # written by hand: json.dumps itself recurses once per level
        op = '{"type": "inverse", "inner": ' * depth + '{"type": "zero", "dim": 2}' + "}" * depth
        path = tmp_path / "deep.json"
        path.write_text('{"dim": 2, "B": {"type": "zero", "dim": 2}, "A": ' + op + "}")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nest" in err and len(err.splitlines()) == 1

    def test_nesting_limit_is_inclusive(self):
        op = {"type": "zero", "dim": 2}
        for _ in range(problemio.MAX_NESTING):
            op = {"type": "flip_both", "inner": op}
        assert operator_from_jsonable(op, "A").dim == 2
        with pytest.raises(ProblemFormatError, match="nest more than"):
            operator_from_jsonable({"type": "inverse", "inner": op}, "A")

    def test_bad_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("command", ["solve", "duality-check"])
    def test_non_utf8_file_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"dim": 2, "A": \xff}')
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: problem: not UTF-8 text")
        assert err.count("\n") == 1

    def test_dimension_mismatch_diagnostic(self, tmp_path, capsys):
        payload = {"dim": 3, "A": BALL_A, "B": BALL_B}
        path = write_problem(tmp_path, payload)
        assert main(["solve", path]) == 1
        assert "does not match" in capsys.readouterr().err


FAST_SCENARIOS = [
    "rotators-default",
    "constants-default",
    "two-lines",
    "disjoint-balls",
    "overlapping-balls",
    "box-halfspace",
    "least-squares-default",
    "affine-default",
]


class TestScenarioCommand:
    @pytest.mark.parametrize("name", FAST_SCENARIOS)
    def test_fast_scenarios_pass(self, name, capsys):
        assert main(["scenario", name]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    @pytest.mark.parametrize("name", FAST_SCENARIOS)
    def test_table_cells_stay_two_spaces_apart(self, name):
        # affine-default's v cell, [7.450580597e-09, -1.110223025e-16], is
        # wider than the default column of 28
        sc = get_scenario(name)
        _, report, lines = cli.run_scenario(sc)
        expected = sc.oracle()
        table = lines[1:4]
        assert [re.split(r" {2,}", line.strip()) for line in table] == [
            ["field", "solver", "oracle"],
            ["v", cli._fmt_vec(report.v_estimate), cli._fmt_vec(expected.v)],
            ["normal_solution", cli._fmt_vec(report.normal_solution),
             cli._fmt_vec(expected.normal_solution)],
        ]
        # each cell starts after two spaces, at its column's start in every row
        starts = {tuple(m.start() for m in re.finditer(r"(?<=  )\S", line)) for line in table}
        assert len(starts) == 1 and len(starts.pop()) == 3

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

    def test_an_unattained_oracle_asks_for_the_drift_verdict(self):
        ok, report, lines = cli.run_scenario(short_epigraph())
        assert ok and report.status == NO_FIXED_POINT
        assert lines[-2:] == [
            "  solver status = no_fixed_point_detected; oracle attained = False", "  PASS"]

    @pytest.mark.parametrize("attained, code", [(False, 0), (True, 2)])
    def test_epigraph_exit_codes(self, monkeypatch, capsys, attained, code):
        # an oracle that claims attainment fails the drift verdict: exit 2
        epigraph = short_epigraph()
        claim = dataclasses.replace(
            epigraph, oracle=lambda: dataclasses.replace(epigraph.oracle(), attained=attained))
        monkeypatch.setattr(cli, "get_scenario", lambda name: claim)
        assert main(["scenario", "epigraph-300"]) == code
        assert capsys.readouterr().out.endswith("FAIL\n" if code else "PASS\n")

    def test_a_failed_scenario_that_converged_exits_3(self, monkeypatch, capsys):
        # the oracle denies attainment, so the converged solve fails it
        balls = get_scenario("disjoint-balls")
        denied = dataclasses.replace(
            balls, oracle=lambda: dataclasses.replace(balls.oracle(), attained=False))
        monkeypatch.setattr(cli, "get_scenario", lambda name: denied)
        assert main(["scenario", "disjoint-balls"]) == 3
        out = capsys.readouterr().out
        assert "solver status = converged; oracle attained = False" in out
        assert out.endswith("FAIL\n")


def short_epigraph():
    """The registry epigraph pair with a 300-step budget, which ends in a drift verdict."""
    line = AffineSubspace([0.0, 0.0], [[1.0, 0.0]])
    return scenario_two_sets(line, EpigraphExp(1.0), name="epigraph-300", tolerance=5e-2,
                             ap_rounds=600, solve_opts=SolveOptions(max_iter=300))


class TestDualityCheckCommand:
    def test_far_lines_pass_on_scaled_deviations(self, tmp_path, capsys):
        # the absolute deviation is 1.05e-8, rounding at |x| ~ 3e8; scaled it is 1e-16
        path = write_problem(tmp_path, FAR_LINES)
        assert main(["duality-check", path]) == 0
        out = capsys.readouterr().out
        assert "max scaled deviation: " in out and "roundtrip failed" not in out

    def test_a_dual_off_by_1e_6_still_exits_3(self, tmp_path, capsys, monkeypatch):
        # samples of size 5 near unit balls: the scale is about 20, so an error
        # of 1e-6 in T_dual reads well above 1e-8
        duals = []

        def recorded_dual(pair):
            duals.append(dual_pair(pair))
            return duals[-1]

        def off(pair, xs):
            out = dr_apply(pair, xs)
            return out + 1e-6 if any(pair is dual for dual in duals) else out

        monkeypatch.setattr(cli, "dual_pair", recorded_dual)
        monkeypatch.setattr(cli, "dr_apply", off)
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        assert main(["duality-check", path]) == 3
        assert duals
        first = capsys.readouterr().out.splitlines()[0]
        assert float(first.rsplit(" ", 1)[1]) > 1e-8

    @pytest.mark.parametrize("anchor_a, anchor_b, basis_b", [
        # the fused affine step converges at |x| = 2.25e8, where one ulp is
        # 3e-8; psi_inv's two-resolvent step misses that fixed point by 6.7e-8
        ([0.3, 0.0], [0.7, 3e8], [0.6, 0.8]),
        # both lines pass through (3e8, 3e8); the miss there is 6.0e-8
        ([3e8, 3e8], [3e8, 3e8], [0.6, 0.8]),
    ], ids=["line-and-far-line", "lines-through-a-far-point"])
    def test_converged_solve_far_from_0_passes_the_roundtrip(self, tmp_path, capsys,
                                                              anchor_a, anchor_b, basis_b):
        # psi_inv judges the miss against tol_fix (1 + |x|), as the
        # certificates that the solve passed do
        line = {"type": "affine_subspace", "anchor": anchor_a, "basis": [[1.0, 0.0]]}
        far_line = {"type": "affine_subspace", "anchor": anchor_b, "basis": [basis_b]}
        path = write_problem(tmp_path, {
            "dim": 2,
            "A": {"type": "normal_cone", "set": line},
            "B": {"type": "normal_cone", "set": far_line},
        })
        assert main(["solve", path]) == 0
        assert "a_side=True b_side=True" in capsys.readouterr().out
        assert main(["duality-check", path]) == 0
        out = capsys.readouterr().out
        assert "max bijection roundtrip deviation / (1 + |x|) at the fixed point x: " in out

    def test_a_refused_roundtrip_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch):
        def refused(pair, x, w, tol_fix):
            raise PreconditionError("not a fixed point of the value-shifted map: residual 1e+00")

        monkeypatch.setattr(cli, "psi_inv", refused)
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        assert main(["duality-check", path]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[-1].startswith("bijection roundtrip failed at the fixed point: ")
        assert "residual" in out[-1]

    @pytest.mark.parametrize("in_file", [False, True])
    def test_perturbed_roundtrip(self, tmp_path, capsys, in_file):
        # every point solves the parallel-lines problem at w = (0, 1)
        payload = {"dim": 2, "A": LINE_LOWER, "B": LINE_UPPER}
        if in_file:
            payload["w"] = [0.0, 1.0]
        flags = [] if in_file else ["--w=0,1"]
        assert main(["duality-check", write_problem(tmp_path, payload), *flags]) == 0
        out = capsys.readouterr().out
        assert "max bijection roundtrip deviation / (1 + |x|) at the fixed point x: " in out

    def test_affine_pair(self, tmp_path, capsys):
        payload = {
            "dim": 2,
            "A": {"type": "affine", "matrix": [[0.0, -1.0], [1.0, 0.0]], "offset": [1.0, 0.0]},
            "B": {"type": "affine", "matrix": [[0.0, 1.0], [-1.0, 0.0]], "offset": [0.0, 0.0]},
        }
        path = write_problem(tmp_path, payload)
        assert main(["duality-check", path]) == 0
        assert "max scaled deviation" in capsys.readouterr().out

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

    @staticmethod
    def _pointwise_max(capsys, path, samples: int, seed: int) -> float:
        main(["duality-check", path, "--samples", str(samples), "--seed", str(seed)])
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith(
            f"max |T x - T_dual x| / (1 + |x| + |J_B x| + |T x|) over {samples} samples: ")
        return float(line.rsplit(" ", 1)[1])

    @staticmethod
    def _loop_max(problem: dict, dual, samples: int, seed: int) -> float:
        pair = OperatorPair(*(operator_from_jsonable(problem[k], k) for k in "AB"))
        gen = np.random.default_rng(seed)

        def scaled(x):
            tx = dr_apply(pair, x)
            scale = (1.0 + np.linalg.norm(x) + np.linalg.norm(resolvent(pair.B, x))
                     + np.linalg.norm(tx))
            return float(np.linalg.norm(tx - dr_apply(dual(pair), x)) / scale)

        return max(scaled(x) for x in (gen.normal(scale=5.0, size=2) for _ in range(samples)))

    EPIGRAPH_BALL = {
        "dim": 2,
        "A": {"type": "normal_cone", "set": {"type": "epigraph_exp", "beta": 0.5}},
        "B": {"type": "inverse", "inner": BALL_B},
        "options": {"max_iter": 300},
    }

    # one block for every sample count below the cap, and blocks of 3 rows
    BLOCKS = pytest.mark.parametrize("block", [None, 3])

    @BLOCKS
    def test_pointwise_maximum_matches_a_per_sample_loop(self, tmp_path, capsys,
                                                         monkeypatch, block):
        if block:
            monkeypatch.setattr(cli, "_SAMPLE_BLOCK", block)
        path = write_problem(tmp_path, self.EPIGRAPH_BALL)
        printed = self._pointwise_max(capsys, path, 40, 3)
        assert abs(printed - self._loop_max(self.EPIGRAPH_BALL, dual_pair, 40, 3)) <= 1e-12

    @BLOCKS
    def test_pointwise_maximum_reads_the_same_seeded_draws(self, tmp_path, capsys,
                                                           monkeypatch, block):
        if block:
            monkeypatch.setattr(cli, "_SAMPLE_BLOCK", block)
        # a stand-in "dual" whose T differs, so that the maximum is of order 1
        def swapped(p):
            return OperatorPair(p.B, p.A)

        monkeypatch.setattr(cli, "dual_pair", swapped)
        path = write_problem(tmp_path, self.EPIGRAPH_BALL)
        printed = self._pointwise_max(capsys, path, 40, 3)
        expected = self._loop_max(self.EPIGRAPH_BALL, swapped, 40, 3)
        assert expected > 0.1 and f"{printed:.3e}" == f"{expected:.3e}"

    def test_a_finite_deviation_whose_square_overflows_is_measured(self, tmp_path, capsys):
        # T x = (x - a*) / 2 and T_dual x are near (-1e307, 0), both finite;
        # |T x - T_dual x| is about 1e291, so its plain squared sum overflows
        identity = [[1.0, 0.0], [0.0, 1.0]]
        path = write_problem(tmp_path, {
            "dim": 2,
            "A": {"type": "affine", "matrix": identity, "offset": [2e307, 0.0]},
            "B": {"type": "affine", "matrix": identity, "offset": [-1.9999999999999998e307, 0.0]},
        })
        assert main(["duality-check", path, "--max-iter", "1000"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert float(out.splitlines()[0].rsplit(" ", 1)[1]) < 1e-15

    def test_a_far_certificate_check_raises_no_warning(self, tmp_path, capsys):
        # phase 2 certifies a point near (2e307, 0), whose squared length overflows
        path = write_problem(tmp_path, {
            "dim": 2,
            "A": {"type": "constant", "value": [2e307, 0.0]},
            "B": {"type": "constant", "value": [-2e307, 0.0]},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["duality-check", path]) == 0
        assert capsys.readouterr().err == ""

    @BLOCKS
    def test_first_non_finite_sample_is_named(self, tmp_path, capsys, monkeypatch, block):
        if block:
            monkeypatch.setattr(cli, "_SAMPLE_BLOCK", block)
        draws = np.random.default_rng(9).normal(scale=5.0, size=(8, 2))

        def spoiled(pair, xs):
            # T is made non-finite at samples 4 and 6 only
            out = dr_apply(pair, xs)
            out[np.isin(xs[:, 0], draws[[4, 6], 0])] = np.inf
            return out

        monkeypatch.setattr(cli, "dr_apply", spoiled)
        path = write_problem(tmp_path, self.EPIGRAPH_BALL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["duality-check", path, "--samples", "8", "--seed", "9"]) == 1
        assert "not finite at sample 4:" in capsys.readouterr().err


class TestParser:
    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path):
        payload = {"dim": 2, "A": LINE_LOWER,
                   "B": {"type": "normal_cone", "set": {"type": "epigraph_exp", "beta": 1.0}},
                   "options": {"max_iter": 60}}
        path = write_problem(tmp_path, payload)
        runs = []
        for flags in ([], ["--max-iter", "3"], []):
            out = str(tmp_path / f"r{len(runs)}.json")
            main(["solve", path, "--json", out] + flags)
            runs.append(read_report(out))
        assert runs[1].iterations_used == 6
        assert runs[0].iterations_used == runs[2].iterations_used == 120
        assert same_report(runs[2], runs[0])

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                main(["scenario", "two-lines"])
        finally:
            cli._parser.cache_clear()
        assert built == [1]


class TestWriters:
    """Reports and traces are written in one write over the old file, then cut to length."""

    @staticmethod
    def outputs(tmp_path):
        report = solve_normal(get_scenario("disjoint-balls").pair, record=True)
        metadata = {"problem": "balls.json"}
        report_bytes = (json.dumps(
            {"schema_version": 2, "report": report_to_jsonable(report), "metadata": metadata},
            indent=2) + "\n").encode()
        trace_csv(report.trace, tmp_path / "reference.csv")
        trace_bytes = (tmp_path / "reference.csv").read_bytes()
        return [
            (lambda path: problemio.write_report(path, report, metadata), report_bytes),
            (report.trace.to_csv, trace_bytes),
        ]

    def test_report_file_is_the_indented_dump(self, tmp_path):
        (write, expected), _ = self.outputs(tmp_path)
        write(tmp_path / "report.json")
        assert (tmp_path / "report.json").read_bytes() == expected

    @pytest.mark.parametrize("prior", ["longer", "shorter", "missing"])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, prior):
        for i, (write, expected) in enumerate(self.outputs(tmp_path)):
            path = tmp_path / f"out{i}"
            if prior == "longer":
                path.write_bytes(b"stale\n" * (len(expected) // 3))
            elif prior == "shorter":
                path.write_bytes(b"x" * (len(expected) // 3))
            write(path)
            assert path.read_bytes() == expected

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_null_device_outputs_exit_0(self, tmp_path, capsys):
        with pytest.raises(OSError):  # the null device refuses a truncate
            os.truncate("/dev/null", 0)
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        assert main(["solve", path, "--json", "/dev/null", "--trace", "/dev/null"]) == 0
        assert capsys.readouterr().err == ""


def test_printed_vectors_match_numpy_scalar_formatting():
    v = np.array([-0.0, 5e-324, 0.1, 1e300, 123456789012.0, -2.5])
    assert cli._fmt_vec(v) == "[" + ", ".join(f"{x:.10g}" for x in v) + "]"
    assert cli._fmt_vec(v) == "[-0, 4.940656458e-324, 0.1, 1e+300, 1.23456789e+11, -2.5]"
    assert cli._fmt_vec(None) == "-"


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
        # the variants are the subclasses that carry a resolvent rule; the
        # Wrapper and Shift bases in between carry none
        variants, todo = set(), [OperatorSpec]
        while todo:
            cls = todo.pop()
            todo += cls.__subclasses__()
            if hasattr(cls, "fold") or hasattr(cls, "leaf_form"):
                variants.add(cls)
        assert variants == {cls for cls, _ in problemio._OPERATORS.values()}
        assert set(ProjectableSet.__subclasses__()) == {cls for cls, _ in problemio._SETS.values()}

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
            assert same_report(clone, report)

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

    def test_a_certificate_check_that_overflows_is_a_typed_error(self):
        pair = OperatorPair(ConstantValued([1e308, 0.0]), Zero(2))
        with pytest.raises(PreconditionError, match="certificate check at x_0 overflowed"):
            solve_perturbed(pair, np.array([1e308, 0.0]), np.array([1.7e308, 0.0]))

    def test_a_certificate_check_that_overflows_exits_1(self, tmp_path, capsys):
        # x0 is fixed at once, so x_1 is finite, but x0 + w overflows
        path = write_problem(tmp_path, {"dim": 2, "A": OVERFLOWING,
                                        "B": {"type": "zero", "dim": 2}})
        assert main(["solve", path, "--w=1e308,0", "--x0=1.7e308,0"]) == 1
        assert capsys.readouterr().err == (
            "error: the certificate check at x_0 overflowed float64\n")

    def test_duality_check_reports_the_overflow_not_a_zero(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"dim": 2, "A": OVERFLOWING, "B": OVERFLOWING})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr uncaptured
            assert main(["duality-check", path, "--samples", "5"]) == 1
        out, err = capsys.readouterr()
        assert "0.000e+00" not in out
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "not finite" in lines[0]
        assert "at sample 0:" in lines[0]


class TestOptionBounds:
    @pytest.mark.parametrize(
        "options, field",
        [
            ({"tol_v": float("nan")}, "options.tol_v"),
            ({"tol_fix": -1.0}, "options.tol_fix"),
            ({"tol_fix": float("inf")}, "options.tol_fix"),
            ({"max_iter": 0}, "options.max_iter"),
            # only null or an absent key means the defaults
            ([], "problem.options: expected an object"),
            (False, "problem.options: expected an object"),
            (0, "problem.options: expected an object"),
            ("", "problem.options: expected an object"),
        ],
    )
    def test_problem_file_rejects(self, options, field):
        payload = {"dim": 2, "A": BALL_A, "B": BALL_B, "options": options}
        with pytest.raises(ProblemFormatError, match=field):
            parse_problem(json.loads(json.dumps(payload)))

    def test_null_options_mean_the_defaults(self):
        payload = {"dim": 2, "A": BALL_A, "B": BALL_B, "options": None}
        assert parse_problem(payload).options == parse_problem(
            {"dim": 2, "A": BALL_A, "B": BALL_B}).options

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
            ("duality-check", ["--seed", "-1"], "--seed"),
            ("solve", ["--x0=1,x"], "--x0"),
            ("duality-check", ["--w=a,b"], "--w"),
        ],
    )
    def test_command_flags_exit_1(self, tmp_path, capsys, command, flags, name):
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        assert main([command, path, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and err.count("\n") == 1

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
        assert main([path if arg == "PROBLEM" else arg for arg in argv]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestErrorContract:
    """Every bad input exits 1 with one line on stderr, and never a traceback."""

    @pytest.fixture
    def in_error_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in FILES.items():
            (tmp_path / name).write_text(text)

    @pytest.mark.parametrize("words", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
    def test_an_input_error_is_one_error_line(self, in_error_dir, capsys, words):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            assert main(words) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("words", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
    def test_a_usage_error_is_argparse_usage_text(self, in_error_dir, capsys, words):
        assert main(words) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: normsplit")
        assert re.fullmatch(r"normsplit( [a-z-]+)?: error: .+", lines[-1])
        assert not any("error:" in line or "Traceback" in line for line in lines[:-1])

    def test_only_main_prints_an_error_line(self):
        # commands raise; main alone turns an error into its `error:` line
        tree = ast.parse(inspect.getsource(cli))
        owner = {}
        for node in ast.walk(tree):  # outer defs first, so inner ones overwrite
            if isinstance(node, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(node), node.name))
        printers = {owner.get(node, "<module>") for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith("error:")}
        assert printers == {"main"}

    def test_exit_codes_of_the_program(self):
        # the process's own status, as a shell sees it
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        runs = {
            code: subprocess.run([sys.executable, "-m", "normsplit.cli", *words], env=env,
                                 capture_output=True, text=True, timeout=60)
            for code, words in [(0, ["--help"]), (1, ["solve", "problem.json", "--tol_v", "1"])]
        }
        assert runs[0].returncode == 0 and runs[0].stdout.startswith("usage: normsplit")
        assert runs[1].returncode == 1 and "unrecognized arguments: --tol_v" in runs[1].stderr
        assert "Traceback" not in runs[0].stderr + runs[1].stderr


def _set_b(region: dict) -> dict:
    return {"B": {"type": "normal_cone", "set": region}}


class TestProblemFields:
    """A malformed field exits 1 with one error line that starts with its path."""

    @pytest.mark.parametrize(
        "changes, field",
        [
            # integers beyond the float64 range
            (_set_b({"type": "ball", "center": [0.0, 0.0], "radius": HUGE}), "B.set.radius"),
            (_set_b({"type": "ball", "center": [HUGE, 0.0], "radius": 1.0}), "B.set.center"),
            (_set_b({"type": "halfspace", "normal": [1.0, 0.0], "offset": HUGE}), "B.set.offset"),
            ({"A": {"type": "affine", "matrix": [[HUGE, 0.0], [0.0, 1.0]], "offset": [0.0, 0.0]}},
             "A.matrix"),
            ({"options": {"tol_v": HUGE}}, "problem.options.tol_v"),
            ({"w": [HUGE, 0.0]}, "problem.w"),
            # malformed records and vectors
            ({"A": {"type": "normal_cone"}}, "A.set: missing required field"),
            ({"A": 5}, "A: expected an object"),
            ({"A": {"type": "affine", "matrix": [[1.0, 0.0], [0.0]], "offset": [0.0, 0.0]}},
             "A.matrix: expected a row-major list of rows"),
            ({"w": [0.0, 1.0, 2.0]}, "problem.w: expected dimension 2"),
            ({"options": {"x0": [0.0, 1.0, 2.0]}}, "problem.options.x0: expected dimension 2"),
            ({"options": {"x0": [float("inf"), 0.0]}}, "problem.options.x0: expected a nonempty finite"),
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "duality-check"])
    def test_exits_1_naming_the_field(self, tmp_path, capsys, command, changes, field):
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B, **changes})
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1


class TestNonFiniteSetParameters:
    """json.load reads Infinity and NaN; the set, not the orbit, must refuse them.

    The same holds for a halfspace normal whose |normal|^2 overflows to
    inf: every point would project to itself, and solve would report
    converged for a wrong v."""

    @pytest.mark.parametrize(
        "region, field",
        [
            ({"type": "ball", "center": [0.0, 0.0], "radius": float("inf")}, "radius"),
            ({"type": "halfspace", "normal": [1.0, 0.0], "offset": float("nan")}, "offset"),
            ({"type": "epigraph_exp", "beta": float("nan")}, "beta"),
            ({"type": "epigraph_exp", "beta": float("inf")}, "beta"),
            ({"type": "halfspace", "normal": [1.4e154, 0.0], "offset": 0.0}, "normal"),
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "duality-check"])
    def test_problem_file_exits_1_naming_the_field(self, tmp_path, capsys, command,
                                                   region, field):
        payload = {"dim": 2, "A": BALL_A, "B": {"type": "normal_cone", "set": region}}
        path = write_problem(tmp_path, payload)
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: B.set") and field in err
        assert "overflowed" not in err and "Traceback" not in err


class TestReadReportValidation:
    @staticmethod
    def _written(tmp_path, **changes):
        report = report_to_jsonable(solve_perturbed(get_scenario("disjoint-balls").pair, [1.0, 0.0]))
        report.update(changes)
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"report": report}))
        return path

    def test_written_report_has_schema_version_2(self, tmp_path):
        path = write_problem(tmp_path, {"dim": 2, "A": BALL_A, "B": BALL_B})
        report_path = tmp_path / "report.json"
        assert main(["solve", path, "--json", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert list(payload) == ["schema_version", "report", "metadata"]
        assert payload["schema_version"] == 2 and "v_residual" not in payload["report"]
        assert same_report(read_report(report_path), report_from_jsonable(payload["report"]))

    def test_version_1_report_with_v_residual_reads(self, tmp_path):
        report = solve_perturbed(get_scenario("disjoint-balls").pair, [1.0, 0.0])
        # a version-1 file: no schema_version, and a v_residual field
        assert same_report(read_report(self._written(tmp_path, v_residual=0.0)), report)
        assert same_report(read_report(self._written(tmp_path, v_residual=HUGE)), report)

    @pytest.mark.parametrize("version", [3, 0, "2", 2.0, True, None])
    def test_other_schema_versions_are_refused(self, tmp_path, version):
        path = self._written(tmp_path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({"schema_version": version, **payload}))
        with pytest.raises(ProblemFormatError, match="report_file.schema_version: expected 1 or 2"):
            read_report(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"report": {')
        with pytest.raises(ProblemFormatError, match="line 1 column"):
            read_report(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b'{"report": "\xff"}')
        with pytest.raises(ProblemFormatError, match="report_file: not UTF-8 text: byte 0xff"):
            read_report(path)

    def test_certificates_must_be_booleans(self, tmp_path):
        with pytest.raises(ProblemFormatError, match="report.certificates"):
            read_report(self._written(tmp_path, certificates="yes"))
        with pytest.raises(ProblemFormatError, match="report.certificates"):
            read_report(self._written(tmp_path, certificates={"b_side": 1}))

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"v_estimate": [HUGE, 0.0]}, "report.v_estimate: integer too large"),
            ({"normal_solution": [HUGE, 0.0]}, "report.normal_solution: integer too large"),
            ({"status": "done"}, "report.status: unknown status"),
        ],
    )
    def test_field_errors_name_the_path(self, tmp_path, changes, field):
        with pytest.raises(ProblemFormatError, match=field):
            read_report(self._written(tmp_path, **changes))

    @pytest.mark.parametrize("value", [3.7, True, -1, "3"])
    def test_iterations_used_must_be_a_count(self, tmp_path, value):
        with pytest.raises(ProblemFormatError, match="report.iterations_used"):
            read_report(self._written(tmp_path, iterations_used=value))
