"""The CLI commands that must fail: one for each way a command can fail on bad input.

`INPUT_ERRORS` lists each failure a command can meet on its input, files
or arithmetic: a missing or invalid file, a bad flag value, an unwritable
--json or --trace, an orbit, sample or certificate overflow, an unknown
scenario. `USAGE_ERRORS` lists malformed argvs. Each entry is an argv, run
in a directory that holds `FILES` and no `missing-dir`.
`tests/test_cli.py::TestErrorContract` runs them by their keys, and
`scripts/output_digest.py` fingerprints their output.
"""

import json

BALL_A = {"type": "normal_cone", "set": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}}
BALL_B = {"type": "normal_cone", "set": {"type": "ball", "center": [3.0, 0.0], "radius": 1.0}}
# a constant pair whose orbit overflows at once; B = 0 instead keeps x_0
# fixed, so that x_1 is finite and only the certificate check at
# x_0 + w overflows (w = 1e308 e_1)
OVERFLOWING = {"type": "constant", "value": [1e308, 0.0]}

FILES = {
    "broken.json": "{not json",
    "balls.json": json.dumps({"dim": 2, "A": BALL_A, "B": BALL_B}),
    "overflow.json": json.dumps({"dim": 2, "A": OVERFLOWING, "B": OVERFLOWING}),
    "fixed.json": json.dumps({"dim": 2, "A": OVERFLOWING, "B": {"type": "zero", "dim": 2},
                              "options": {"x0": [1.7e308, 0.0]}}),
}

INPUT_ERRORS = {
    "solve-missing-file": ["solve", "missing.json"],
    "solve-invalid-json": ["solve", "broken.json"],
    "solve-tol-v": ["solve", "balls.json", "--tol-v=-1"],
    "solve-w": ["solve", "balls.json", "--w=1"],
    "solve-x0": ["solve", "balls.json", "--x0=1,x"],
    "solve-json-unwritable": ["solve", "balls.json", "--json", "missing-dir/report.json"],
    "solve-trace-unwritable": ["solve", "balls.json", "--trace", "missing-dir/trace.csv"],
    "solve-orbit-overflow": ["solve", "overflow.json"],
    "solve-certificate-overflow": ["solve", "fixed.json", "--w=1e308,0"],
    "scenario-unknown-name": ["scenario", "no-such-scenario"],
    "scenario-json-unwritable": ["scenario", "two-lines", "--json", "missing-dir/report.json"],
    "scenario-trace-unwritable": ["scenario", "two-lines", "--trace", "missing-dir/trace.csv"],
    "duality-check-missing-file": ["duality-check", "missing.json"],
    "duality-check-invalid-json": ["duality-check", "broken.json"],
    "duality-check-w": ["duality-check", "balls.json", "--w=1"],
    "duality-check-samples": ["duality-check", "balls.json", "--samples", "0"],
    "duality-check-seed": ["duality-check", "balls.json", "--seed", "-1"],
    "duality-check-sample-overflow": ["duality-check", "overflow.json"],
    "duality-check-certificate-overflow": ["duality-check", "fixed.json", "--w=1e308,0"],
}

USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "solve-misspelt-flag": ["solve", "balls.json", "--tol_v", "1e-3"],
    "solve-missing-problem": ["solve"],
    "solve-non-integer-max-iter": ["solve", "balls.json", "--max-iter", "many"],
    "scenario-flag-it-does-not-read": ["scenario", "two-lines", "--max-iter", "0"],
    "scenario-missing-name": ["scenario"],
    "duality-check-flag-it-does-not-read": ["duality-check", "balls.json", "--json", "r.json"],
}
