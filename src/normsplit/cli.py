"""Command line front end: solve problem files, run scenarios, check duality."""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .duality import PrimalDualPair, dual_pair, psi, psi_inv
from .errors import NonFiniteIterateError, PreconditionError, ProblemFormatError
from .problemio import Problem, checked_options, load_problem, write_report
from .scenarios import Scenario, build_registry, get_scenario
from .splitting import (
    CONVERGED,
    MAX_ITER,
    NO_FIXED_POINT,
    OperatorPair,
    SolveOptions,
    SolveReport,
    _step_and_shadow,
    dr_apply,
    solve_normal,
    solve_perturbed,
)
from .vecspace import as_vector, length

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_FIXED_POINT = 2
EXIT_MAX_ITER = 3

_STATUS_EXIT = {CONVERGED: EXIT_OK, NO_FIXED_POINT: EXIT_NO_FIXED_POINT, MAX_ITER: EXIT_MAX_ITER}

# duality-check evaluates its samples in blocks of at most this many rows, so
# that its memory does not grow with --samples
_SAMPLE_BLOCK = 4096


def _vector_flag(text, name: str, dim: int, default):
    """The finite dim-vector given to flag `name`, or `default` if it is absent."""
    if text is None:
        return default
    try:
        parts = [float(part) for part in text.split(",")]
    except ValueError:
        raise ProblemFormatError(name, f"could not parse {text!r} as comma-separated floats") from None
    try:
        return as_vector(parts, dim=dim)
    except ValueError:  # the wrong count, or not finite
        raise ProblemFormatError(name, f"expected {dim} finite comma-separated floats, got {text!r}") from None


def _fmt_vec(v) -> str:
    if v is None:
        return "-"
    return "[" + ", ".join(f"{x:.10g}" for x in np.asarray(v).tolist()) + "]"


def _print_report(report: SolveReport) -> None:
    print(f"status:          {report.status}")
    print(f"v_estimate:      {_fmt_vec(report.v_estimate)}")
    print(f"iterations:      {report.iterations_used}")
    print(f"normal_solution: {_fmt_vec(report.normal_solution)}")
    print(f"governing_point: {_fmt_vec(report.governing_point)}")
    print(f"dual_solution:   {_fmt_vec(report.dual_solution)}")
    if report.certificates:
        certs = " ".join(f"{k}={v}" for k, v in sorted(report.certificates.items()))
        print(f"certificates:    {certs}")


def _write_files(args, report: SolveReport, metadata: dict) -> None:
    """Write the --json report and the --trace CSV, where they are asked for."""
    if args.json:
        write_report(args.json, report, metadata=metadata)
        print(f"report written to {args.json}")
    if args.trace:
        report.trace.to_csv(args.trace)
        print(f"trace written to {args.trace}")


def _solve(pair: OperatorPair, w, x0, opts: SolveOptions, record: bool = False) -> SolveReport:
    """The perturbed solve at w, or the two-phase normal solve when w is None."""
    if w is not None:
        return solve_perturbed(pair, w, x0, opts, record=record)
    return solve_normal(pair, x0, opts, record=record)


def _load_inputs(args) -> tuple[Problem, np.ndarray | None, SolveOptions]:
    """The problem file, and its w and solve options with the flags' values merged in."""
    problem = load_problem(args.problem)
    w = _vector_flag(args.w, "--w", problem.dim, problem.w)
    base = problem.options
    return problem, w, checked_options(
        args.max_iter if args.max_iter is not None else base.max_iter,
        args.tol_v if args.tol_v is not None else base.tol_v,
        args.tol_fix if args.tol_fix is not None else base.tol_fix,
        paths=("--max-iter", "--tol-v", "--tol-fix"),
    )


def cmd_solve(args) -> int:
    problem, w, opts = _load_inputs(args)
    x0 = _vector_flag(args.x0, "--x0", problem.dim, problem.x0)
    report = _solve(OperatorPair(problem.a, problem.b), w, x0, opts, record=args.trace is not None)
    _print_report(report)
    _write_files(args, report, {"problem": str(args.problem)})
    return _STATUS_EXIT[report.status]


def run_scenario(scenario: Scenario, record: bool = False) -> tuple[bool, SolveReport, list[str]]:
    """Solve a scenario, compare against its oracle, and render a table.

    With `record` the report keeps phase 2's iteration trace, the one that
    --trace writes.
    """
    report = solve_normal(scenario.pair, opts=scenario.solve_opts, record=record)
    expected = scenario.oracle()
    v_gap = float(np.linalg.norm(report.v_estimate - expected.v))
    table = [
        ("field", "solver", "oracle"),
        ("v", _fmt_vec(report.v_estimate), _fmt_vec(expected.v)),
        ("normal_solution", _fmt_vec(report.normal_solution),
         _fmt_vec(expected.normal_solution)),
    ]
    # a column is 18 or 28 wide, or wider where a cell needs it, so that at
    # least two spaces separate it from the next
    first, second = (max(width, 2 + max(len(row[i]) for row in table))
                     for i, width in enumerate((18, 28)))
    lines = [f"scenario: {scenario.name}"]
    lines += [f"  {name:<{first}}{solver:<{second}}{oracle:<28}" for name, solver, oracle in table]
    lines += [
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
    except KeyError as exc:  # the message alone, without KeyError's quotes
        raise PreconditionError(exc.args[0]) from None
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
    problem, w, opts = _load_inputs(args)
    if args.samples < 1:
        raise ProblemFormatError("--samples", f"expected an integer >= 1, got {args.samples}")
    if args.seed < 0:
        raise ProblemFormatError("--seed", f"expected an integer >= 0, got {args.seed}")
    pair = OperatorPair(problem.a, problem.b)
    dual = dual_pair(pair)
    rng = np.random.default_rng(args.seed)
    dev_pointwise = 0.0
    # consecutive blocks draw the same stream as one draw per sample
    for start in range(0, args.samples, _SAMPLE_BLOCK):
        xs = rng.normal(scale=5.0, size=(min(_SAMPLE_BLOCK, args.samples - start), problem.dim))
        # an overflow shows as a non-finite deviation, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            tx, jb = _step_and_shadow(pair, xs)
            devs = length(tx - dr_apply(dual, xs))
            # bounds every intermediate of both steps: |J_A(R_B x)| <= |T x| + |x| + |J_B x|
            scales = 1.0 + sum(length(a) for a in (xs, jb, tx))
        overflowed = np.flatnonzero(~np.isfinite(devs))
        if overflowed.size:
            raise PreconditionError(f"|T x - T_dual x| is not finite at sample {start + overflowed[0]}: "
                                    "the splitting operator overflowed float64")
        dev_pointwise = max(dev_pointwise, float((devs / scales).max()))
    print(f"max |T x - T_dual x| / (1 + |x| + |J_B x| + |T x|) over {args.samples} samples: "
          f"{dev_pointwise:.3e}")

    report = _solve(pair, w, problem.x0, opts)
    dev_psi = 0.0
    if report.status == CONVERGED:
        # the solve's certified pair; v_estimate is the w it solved for
        zk = PrimalDualPair(report.normal_solution, report.dual_solution, report.v_estimate)
        fixed = psi(zk)
        try:
            back = psi_inv(pair, fixed, zk.w, tol_fix=max(opts.tol_fix, 1e-8))
        except PreconditionError as exc:
            # the two-resolvent step can refuse the fused step's fixed point:
            # a deviation, not a crash
            print(f"bijection roundtrip failed at the fixed point: {exc}")
            return EXIT_MAX_ITER
        dev_psi = max(
            length(fixed - (report.governing_point + zk.w)),
            length(back.z - zk.z),
            length(back.k - zk.k),
        ) / (1.0 + length(fixed))
        print(f"max bijection roundtrip deviation / (1 + |x|) at the fixed point x: {dev_psi:.3e}")
    else:
        print(f"solve did not converge (status {report.status}); roundtrip check skipped")
    worst = max(dev_pointwise, dev_psi)
    print(f"max scaled deviation: {worst:.3e}")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused by every later one
    return build_parser()


def main(argv=None) -> int:
    """Run one command; every input, file or overflow error ends here as exit 1."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error after argparse's usage text
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ProblemFormatError, OSError, NonFiniteIterateError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
