#!/usr/bin/env python3
"""Fingerprint every byte the CLI writes, so that two checkouts can be compared.

Usage: python scripts/output_digest.py

Runs, through normsplit.cli.main, `scenario NAME --json --trace` for every
registry scenario; then the failing commands of `tests/error_cases.py`, one
for each way a command can fail on bad input; then, for each registry
scenario's pair written as a problem file and for each of the 40 problem
files of the `cli-mix` benchmark workload at seed 11 (written by
`perfbench/workloads.build`), `solve --json --trace`, `solve --w v --json
--trace` with v the first solve's v_estimate, and `duality-check`: 183
commands in all. Before each command its --json and --trace targets hold
a stale line followed by a 64 MiB sparse tail, so a writer that leaves any
old byte behind changes the digest. Prints, per command, one SHA-256 over
its stdout, stderr and exit code, and over both output files where the
command writes them, then the command. An argparse exit (SystemExit)
counts as the command's exit code. The commands run in a temporary
directory under relative names, so the lines of two checkouts compare with
diff. The epigraph scenario takes some seconds.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from error_cases import FILES, INPUT_ERRORS, USAGE_ERRORS  # noqa: E402
from normsplit import cli  # noqa: E402
from normsplit.scenarios import build_registry, get_scenario  # noqa: E402
from reference import operator_to_jsonable  # noqa: E402

REPORT, TRACE = "report.json", "trace.csv"
STALE_BYTES = 1 << 26

# the cli-mix round that README.md and CHANGES.md quote
CLI_MIX_SEED = 11


def _stale(path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(b"stale bytes from an earlier run\n")
        fh.truncate(STALE_BYTES)


def _digest(argv: list) -> str:
    for path in (REPORT, TRACE):
        _stale(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's exit, where main lets it through
            code = exc.code
    h = hashlib.sha256()
    parts = [("stdout", out.getvalue().encode()), ("stderr", err.getvalue().encode()),
             ("exit", str(code).encode())]
    if REPORT in argv:
        parts += [(path, Path(path).read_bytes()) for path in (REPORT, TRACE)]
    for label, data in parts:
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def _problem_commands(path: str) -> list:
    outputs = ["--json", REPORT, "--trace", TRACE]
    lines = [(_digest(["solve", path] + outputs), f"solve {path}")]
    try:
        v = json.loads(Path(REPORT).read_bytes())["report"]["v_estimate"]
    except ValueError:  # a damaged report: its digest above already differs
        lines.append(("no v_estimate in the report", f"solve {path} --w"))
    else:
        # one token, since a leading minus would read as an option
        w = "--w=" + ",".join(repr(float(t)) for t in v)
        lines.append((_digest(["solve", path, w] + outputs), f"solve {path} {w}"))
    lines.append((_digest(["duality-check", path]), f"duality-check {path}"))
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        lines = []
        names = sorted(build_registry())
        for name in names:
            lines.append((_digest(["scenario", name, "--json", REPORT, "--trace", TRACE]),
                          f"scenario {name}"))
        for path, text in FILES.items():
            Path(path).write_text(text)
        for argv in [*INPUT_ERRORS.values(), *USAGE_ERRORS.values()]:
            lines.append((_digest(argv), " ".join(argv) or "(no arguments)"))
        problems = []
        for name in names:
            sc = get_scenario(name)
            opts = sc.solve_opts
            problem = {
                "dim": sc.pair.dim,
                "A": operator_to_jsonable(sc.pair.A),
                "B": operator_to_jsonable(sc.pair.B),
                "options": {"max_iter": opts.max_iter, "tol_v": opts.tol_v,
                            "tol_fix": opts.tol_fix},
            }
            problems.append(f"{name}.json")
            Path(problems[-1]).write_text(json.dumps(problem))
        # writes p0.json to p39.json and runs no command
        workloads.build("cli-mix", CLI_MIX_SEED, ".")
        problems += [f"p{j}.json" for j in range(workloads.CLI_PROBLEMS)]
        for path in problems:
            lines += _problem_commands(path)
        os.chdir(ROOT)
    for digest, command in lines:
        print(f"{digest}  {command}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
