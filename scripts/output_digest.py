#!/usr/bin/env python3
"""Fingerprint every byte the CLI writes, so that two checkouts can be compared.

Usage: python scripts/output_digest.py [problem.json ...]

Runs, through normsplit.cli.main, `scenario NAME --json --trace` for every
registry scenario; then, for each registry scenario's pair written as a
problem file and for each problem file given, `solve --json --trace`,
`solve --w v --json --trace` with v the first solve's v_estimate, and
`duality-check`. Between the scenarios and the problem files it runs
`FAILING`, one command for each way a command can fail on bad input: a
missing or invalid file, a bad flag value, an unwritable --json or --trace,
an overflow, an unknown scenario and a malformed argv. Before each command
its --json and --trace targets hold a stale line followed by a 64 MiB sparse
tail, so a writer that leaves any old byte behind changes the digest. Prints,
per command, one SHA-256 over its stdout, stderr and exit code, and over both
output files where the command writes them, then the command. An argparse
exit (SystemExit) counts as the command's exit code. The commands run in a
temporary directory under relative names, so the lines of two checkouts
compare with diff. The epigraph scenario takes some seconds.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from normsplit import cli  # noqa: E402
from normsplit.scenarios import build_registry, get_scenario  # noqa: E402
from reference import operator_to_jsonable  # noqa: E402

REPORT, TRACE = "report.json", "trace.csv"
STALE_BYTES = 1 << 26

# a constant pair whose orbit overflows at once; B = 0 instead keeps x_0
# fixed, so that only the certificate check at x_0 + w overflows (w = 1e308 e_1)
_OVERFLOWING = {"type": "constant", "value": [1e308, 0.0]}
_BALLS = {
    "dim": 2,
    "A": {"type": "normal_cone", "set": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}},
    "B": {"type": "normal_cone", "set": {"type": "ball", "center": [3.0, 0.0], "radius": 1.0}},
}
FAILING_FILES = {
    "broken.json": "{not json",
    "balls.json": json.dumps(_BALLS),
    "overflow.json": json.dumps({"dim": 2, "A": _OVERFLOWING, "B": _OVERFLOWING}),
    "fixed.json": json.dumps({"dim": 2, "A": _OVERFLOWING, "B": {"type": "zero", "dim": 2},
                              "options": {"x0": [1.7e308, 0.0]}}),
}
FAILING = [
    ["solve", "missing.json"],
    ["solve", "broken.json"],
    ["solve", "balls.json", "--tol-v=-1"],
    ["solve", "balls.json", "--w=1"],
    ["solve", "balls.json", "--x0=1,x"],
    ["solve", "balls.json", "--json", "missing-dir/" + REPORT],
    ["solve", "balls.json", "--trace", "missing-dir/" + TRACE],
    ["solve", "overflow.json"],
    ["solve", "fixed.json", "--w=1e308,0"],
    ["scenario", "no-such-scenario"],
    ["scenario", "two-lines", "--json", "missing-dir/" + REPORT],
    ["scenario", "two-lines", "--trace", "missing-dir/" + TRACE],
    ["duality-check", "missing.json"],
    ["duality-check", "broken.json"],
    ["duality-check", "balls.json", "--w=1"],
    ["duality-check", "balls.json", "--samples", "0"],
    ["duality-check", "balls.json", "--seed", "-1"],
    ["duality-check", "overflow.json"],
    ["duality-check", "fixed.json", "--w=1e308,0"],
    [],
    ["frobnicate"],
    ["solve", "balls.json", "--tol_v", "1e-3"],
    ["solve"],
    ["solve", "balls.json", "--max-iter", "many"],
    ["scenario", "two-lines", "--max-iter", "0"],
    ["scenario"],
    ["duality-check", "balls.json", "--json", "r.json"],
]


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


def main(argv) -> int:
    given = [Path(p).resolve() for p in argv]
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        lines = []
        names = sorted(build_registry())
        for name in names:
            lines.append((_digest(["scenario", name, "--json", REPORT, "--trace", TRACE]),
                          f"scenario {name}"))
        for path, text in FAILING_FILES.items():
            Path(path).write_text(text)
        for argv in FAILING:
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
        for i, path in enumerate(given):
            problems.append(f"given{i}-{path.name}")
            shutil.copyfile(path, problems[-1])
        for path in problems:
            lines += _problem_commands(path)
        os.chdir(ROOT)
    for digest, command in lines:
        print(f"{digest}  {command}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
