#!/usr/bin/env python3
"""Decay study of the two infimal-displacement estimators on a hard instance.

The line-vs-exponential-epigraph pair has a gap vector that is never
attained, so both estimators converge only sublinearly: the displacement
x_n - x_{n+1}, which the solver uses, and the Cesaro mean -x_n / n, read off
the recorded iterates. This script samples their errors along one long orbit
against the alternating-projection gap, prints a small table, and optionally
writes the full trace to CSV.

Usage: python scripts/estimator_tail_study.py [iterations] [trace.csv]
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from normsplit import estimate_v
from normsplit.scenarios import get_scenario


def main(argv) -> int:
    budget = int(argv[0]) if argv else 50_000
    scenario = get_scenario("epigraph")
    oracle = scenario.oracle()
    print(f"oracle gap vector ~ {oracle.v.round(6).tolist()} "
          f"(attained: {oracle.attained})")

    v, trace = estimate_v(scenario.pair, max_iter=budget, tol_v=-1.0, record=True)
    checkpoints = [10, 100, 1000, 10_000, budget - 1]
    print(f"{'n':>8} {'|v_diff - g|':>14} {'|-x_n/n - g|':>15}")
    for n in checkpoints:
        if not 0 < n < len(trace):
            continue
        d_err = np.linalg.norm(trace.displacements[n] - oracle.v)
        c_err = np.linalg.norm(-trace.xs[n] / n - oracle.v)
        print(f"{n:>8} {d_err:>14.3e} {c_err:>15.3e}")
    print(f"final estimate {v.round(8).tolist()}, norm {np.linalg.norm(v):.8f}")

    if len(argv) > 1:
        trace.to_csv(argv[1])
        print(f"trace written to {argv[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
