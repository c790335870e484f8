"""Command line front end: solve problem files, run scenarios, check duality."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .duality import dual_pair, psi, psi_inv
from .errors import NonFiniteIterateError, ProblemFormatError
from .problemio import Problem, checked_options, load_problem, write_report
from .scenarios import Scenario, build_registry, get_scenario
from .splitting import (
    CONVERGED,
    MAX_ITER,
    NO_FIXED_POINT,
    OperatorPair,
    SolveOptions,
    SolveReport,
    dr_apply,
    solve_normal,
    solve_perturbed,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_FIXED_POINT = 2
EXIT_MAX_ITER = 3

_STATUS_EXIT = {CONVERGED: EXIT_OK, NO_FIXED_POINT: EXIT_NO_FIXED_POINT, MAX_ITER: EXIT_MAX_ITER}


def _vector_flag(text, name: str, dim: int, default):
    """The finite dim-vector given to flag `name`, or `default` if it is absent."""
    if text is None:
        return default
    try:
        v = np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise ProblemFormatError(name, f"could not parse {text!r} as comma-separated floats") from None
    if v.size != dim or not np.all(np.isfinite(v)):
        raise ProblemFormatError(name, f"expected {dim} finite comma-separated floats, got {text!r}")
    return v


def _fmt_vec(v) -> str:
    if v is None:
        return "-"
    return "[" + ", ".join(f"{x:.10g}" for x in np.asarray(v)) + "]"


def _merged_options(problem: Problem, args) -> SolveOptions:
    base = problem.options
    return checked_options(
        args.max_iter if args.max_iter is not None else base.max_iter,
        args.tol_v if args.tol_v is not None else base.tol_v,
        args.tol_fix if args.tol_fix is not None else base.tol_fix,
        paths=("--max-iter", "--tol-v", "--tol-fix"),
    )


def _print_report(report: SolveReport) -> None:
    print(f"status:          {report.status}")
    print(f"v_estimate:      {_fmt_vec(report.v_estimate)}")
    print(f"v_residual:      {report.v_residual:.3e}")
    print(f"iterations:      {report.iterations_used}")
    print(f"normal_solution: {_fmt_vec(report.normal_solution)}")
    print(f"governing_point: {_fmt_vec(report.governing_point)}")
    print(f"dual_solution:   {_fmt_vec(report.dual_solution)}")
    if report.certificates:
        certs = " ".join(f"{k}={v}" for k, v in sorted(report.certificates.items()))
        print(f"certificates:    {certs}")


def _write_files(args, report: SolveReport, metadata: dict) -> None:
    if args.json:
        write_report(args.json, report, metadata=metadata)
        print(f"report written to {args.json}")
    if args.trace:
        report.trace.to_csv(args.trace)
        print(f"trace written to {args.trace}")


def cmd_solve(args) -> int:
    try:
        problem = load_problem(args.problem)
        w = _vector_flag(args.w, "--w", problem.dim, problem.w)
        x0 = _vector_flag(args.x0, "--x0", problem.dim, problem.x0)
        opts = _merged_options(problem, args)
    except (ProblemFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    pair = OperatorPair(problem.a, problem.b)
    record = args.trace is not None
    if w is not None:
        report = solve_perturbed(pair, w, x0, opts, record=record)
    else:
        report = solve_normal(pair, x0, opts, record=record)
    _print_report(report)
    _write_files(args, report, {"problem": str(args.problem)})
    return _STATUS_EXIT[report.status]


def run_scenario(scenario: Scenario, record: bool = False) -> tuple[bool, SolveReport, list[str]]:
    """Solve a scenario, compare against its oracle, and render a table.

    With `record` the report keeps both phases' iteration traces.
    """
    report = solve_normal(scenario.pair, opts=scenario.solve_opts, record=record)
    expected = scenario.oracle()
    v_gap = float(np.linalg.norm(report.v_estimate - expected.v))
    lines = [
        f"scenario: {scenario.name}",
        f"  {'field':<18}{'solver':<28}{'oracle':<28}",
        f"  {'v':<18}{_fmt_vec(report.v_estimate):<28}{_fmt_vec(expected.v):<28}",
        f"  {'normal_solution':<18}{_fmt_vec(report.normal_solution):<28}{_fmt_vec(expected.normal_solution):<28}",
        f"  |v gap| = {v_gap:.3e}  (tolerance {scenario.tolerance:g})",
        f"  solver status = {report.status}; oracle attained = {expected.attained}",
    ]
    ok = v_gap <= scenario.tolerance
    if expected.attained:
        ok = ok and report.status == CONVERGED and all(report.certificates.values())
    else:
        ok = ok and report.status == NO_FIXED_POINT
    if scenario.solution_note:
        lines.append(f"  note: {scenario.solution_note}")
    lines.append("  PASS" if ok else "  FAIL")
    return ok, report, lines


def cmd_scenario(args) -> int:
    try:
        scenario = get_scenario(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    ok, report, lines = run_scenario(scenario, record=args.trace is not None)
    print("\n".join(lines))
    _write_files(args, report, {
        "scenario": scenario.name,
        "expected_v": None if scenario.expected_v is None else scenario.expected_v.tolist(),
        "expected_v_note": scenario.expected_v_note,
    })
    if ok:
        return EXIT_OK
    return EXIT_MAX_ITER if report.status == CONVERGED else _STATUS_EXIT[report.status]


def cmd_duality_check(args) -> int:
    try:
        problem = load_problem(args.problem)
        w = _vector_flag(args.w, "--w", problem.dim, problem.w)
        opts = _merged_options(problem, args)
        if args.samples < 1:
            raise ProblemFormatError("--samples", f"expected an integer >= 1, got {args.samples}")
    except (ProblemFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    pair = OperatorPair(problem.a, problem.b)
    dual = dual_pair(pair)
    rng = np.random.default_rng(args.seed)
    dev_pointwise = 0.0
    # an overflow shows as a non-finite deviation, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(args.samples):
            x = rng.normal(scale=5.0, size=problem.dim)
            dev = float(np.linalg.norm(dr_apply(pair, x) - dr_apply(dual, x)))
            if not math.isfinite(dev):
                print(f"error: |T x - T_dual x| is not finite at sample {i}: "
                      "the splitting operator overflowed float64", file=sys.stderr)
                return EXIT_INPUT_ERROR
            dev_pointwise = max(dev_pointwise, dev)
    print(f"max |T x - T_dual x| over {args.samples} samples: {dev_pointwise:.3e}")

    if w is not None:
        report = solve_perturbed(pair, w, problem.x0, opts)
        w_eff = w
    else:
        report = solve_normal(pair, problem.x0, opts)
        w_eff = report.v_estimate
    dev_psi = 0.0
    if report.status == CONVERGED:
        fixed = report.governing_point + w_eff
        zk = psi_inv(pair, fixed, w_eff, tol_fix=max(opts.tol_fix, 1e-8))
        dev_psi = float(np.linalg.norm(psi(zk) - fixed))
        again = psi_inv(pair, psi(zk), w_eff, tol_fix=max(opts.tol_fix, 1e-8))
        dev_psi = max(
            dev_psi,
            float(np.linalg.norm(again.z - zk.z)),
            float(np.linalg.norm(again.k - zk.k)),
        )
        print(f"max bijection roundtrip deviation at the fixed point: {dev_psi:.3e}")
    else:
        print(f"solve did not converge (status {report.status}); roundtrip check skipped")
    worst = max(dev_pointwise, dev_psi)
    print(f"max deviation: {worst:.3e}")
    return EXIT_OK if worst <= 1e-8 else EXIT_MAX_ITER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normsplit",
        description="Generalized solutions of 0 in A(x) + B(x) via splitting iteration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem(p):
        p.add_argument("problem")
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--tol-v", type=float, default=None)
        p.add_argument("--tol-fix", type=float, default=None)
        p.add_argument("--w", type=str, default=None, help="comma-separated perturbation")

    def add_outputs(p):
        p.add_argument("--trace", type=str, default=None, help="write iteration trace CSV")
        p.add_argument("--json", type=str, default=None, help="write report JSON")

    p_solve = sub.add_parser("solve", help="solve a JSON problem file")
    add_problem(p_solve)
    p_solve.add_argument("--x0", type=str, default=None, help="comma-separated start point")
    add_outputs(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    names = ", ".join(sorted(build_registry()))
    p_scen = sub.add_parser("scenario", help=f"run a named scenario ({names})")
    p_scen.add_argument("name")
    add_outputs(p_scen)
    p_scen.set_defaults(func=cmd_scenario)

    p_dual = sub.add_parser("duality-check", help="pointwise and roundtrip duality checks")
    add_problem(p_dual)
    p_dual.add_argument("--samples", type=int, default=100)
    p_dual.add_argument("--seed", type=int, default=20240901)
    p_dual.set_defaults(func=cmd_duality_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteIterateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
