"""normsplit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {epigraph-tail,wide-subspaces,cli-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is used straight from `src`;
nothing is installed. One worker process, with single-threaded BLAS,
generates the workload from the seed, runs it in a closed loop for S
seconds and checks every answer; between rounds it times set-ups, each the
import in a short fresh process plus one generation of the workload. Its
peak RSS is that of a fresh process.
The last line printed is the result object; `--trace 1` gives the per-layer
metrics of a separate traced run instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "normsplit" / "__init__.py").is_file():
        print(f"error: no normsplit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in THREAD_VARS})
    worker = [sys.executable, str(HERE / "worker.py")]
    try:
        done = subprocess.run(
            worker + ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: worker ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    raise SystemExit(main())
