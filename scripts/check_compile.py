#!/usr/bin/env python3
"""Check every compiled resolvent, block evaluation and fused DR step.

Usage: python scripts/check_compile.py
Compiles both operators of every registry scenario and every operator of the
test zoo (dims 2 and 3), prints each compiled form and how many of them
project in normal form, P(x) with sigma = 1 and a = 0, the largest deviation
|compiled - reference| over 100 seeded points, where the reference is the
tree walk in tests/reference.py, and the largest relative deviation
|apply_rows(X)_i - apply(x_i)| / (1 + |x_i|) with the same points as one
block X. For the registry pairs and zoo pairs (dims 2 and 3) whose DR step
fuses into one affine map x -> M_T x + t, it prints how many pairs fuse,
the largest relative deviation |M_T x + t - dr_apply(x)| / (1 + |x|), and
the largest relative deviation of the 50-row jump
M_T^50 x + (I + M_T + ... + M_T^49) t from 50 fused steps from x. Exits 1 if
any deviation exceeds 1e-12. dr_apply on a block of points is compared
with dr_apply on each point in tests/test_splitting.py, and the orbits of
the fused pairs with the per-step loop in tests/test_block_orbit.py.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from normsplit import compile_resolvent, dr_apply, resolvent  # noqa: E402
from normsplit.scenarios import build_registry, get_scenario  # noqa: E402
from normsplit.splitting import _WINDOW  # noqa: E402
from reference import reference_resolvent  # noqa: E402
from zoo import operator_pairs, operator_zoo  # noqa: E402

TOL = 1e-12
POINTS = 100
SEED = 20240901


def _vec(v) -> str:
    return np.array2string(np.asarray(v), precision=4, separator=", ")


def describe(form) -> str:
    m = f"{form.m:g}" if isinstance(form.m, float) else _vec(form.m).replace("\n", "")
    if form.region is None:
        return f"J(x) = M x + c  M={m} c={_vec(form.c)}"
    # the projection term's sign, sigma (1 - 2m); the form does not store it
    sign = "+" if form.sigma * (1.0 - 2.0 * form.m) > 0 else "-"
    name = type(form.region).__name__
    if form.projects_bare:
        return f"J(x) = {m} x {sign} P_{name}(x) + c  (normal form)  c={_vec(form.c)}"
    proj = f"P_{name}({'' if form.sigma > 0 else '-'}x + a)"
    return f"J(x) = {m} x {sign} {proj} + c  a={_vec(form.a)} c={_vec(form.c)}"


def seeded_points(dim: int) -> np.ndarray:
    return np.random.default_rng(SEED + dim).normal(scale=4.0, size=(POINTS, dim))


def relative_deviation(rows, points, one_point) -> float:
    return max(
        float(np.linalg.norm(row - one_point(x)) / (1.0 + np.linalg.norm(x)))
        for x, row in zip(points, rows)
    )


def deviation(op) -> tuple[float, float]:
    points = seeded_points(op.dim)
    form = compile_resolvent(op)
    tree = max(
        float(np.linalg.norm(resolvent(op, x) - reference_resolvent(op, x))) for x in points
    )
    return tree, relative_deviation(form.apply_rows(points), points, form.apply)


def step_deviation(pair) -> float:
    m_t, t = pair.affine_step
    points = seeded_points(pair.dim)
    steps = [m_t.dot(x) + t for x in points]
    return relative_deviation(steps, points, lambda x: dr_apply(pair, x))


def jump_deviation(pair) -> float:
    m_t, t = pair.affine_step
    power, total = pair._window_jump
    points = seeded_points(pair.dim)
    stepped = points
    for _ in range(_WINDOW):
        stepped = stepped @ m_t.T + t
    jumped = points @ power.T + total.dot(t)
    gaps = np.linalg.norm(jumped - stepped, axis=1) / (1.0 + np.linalg.norm(points, axis=1))
    return float(gaps.max())


def check_pairs() -> list:
    pairs = [(name, get_scenario(name).pair) for name in sorted(build_registry())]
    for dim in (2, 3):
        pairs += [(f"zoo{dim}:{name}", pair) for name, pair in operator_pairs(dim)]
    fused = [(label, pair) for label, pair in pairs if pair.affine_step is not None]
    failures = []
    worst = 0.0
    for label, pair in fused:
        dev = step_deviation(pair)
        worst = max(worst, dev)
        flag = "" if dev <= TOL else "  FAIL"
        print(f"step {label:<56} rel dev {dev:.2e}{flag}")
        if dev > TOL:
            failures.append(label)
    print(f"{len(fused)} of {len(pairs)} pairs fuse, largest relative step deviation "
          f"{worst:.2e} (tolerance {TOL:g})")
    worst = 0.0
    for label, pair in fused:
        dev = jump_deviation(pair)
        worst = max(worst, dev)
        flag = "" if dev <= TOL else "  FAIL"
        print(f"jump {label:<56} rel dev {dev:.2e}{flag}")
        if dev > TOL:
            failures.append(f"jump {label}")
    print(f"{len(fused)} fused pairs, largest relative deviation of a {_WINDOW}-row jump "
          f"{worst:.2e} (tolerance {TOL:g})")
    return failures


def main() -> int:
    cases = []
    for name in sorted(build_registry()):
        pair = get_scenario(name).pair
        cases += [(f"{name}.A", pair.A), (f"{name}.B", pair.B)]
    for dim in (2, 3):
        cases += [(f"zoo{dim}:{name}", op) for name, op in operator_zoo(dim)]
    worst = worst_rows = 0.0
    failures = []
    projecting = bare = 0
    for label, op in cases:
        form = compile_resolvent(op)
        if form.region is not None:
            projecting += 1
            bare += form.projects_bare
        dev, rows = deviation(op)
        worst, worst_rows = max(worst, dev), max(worst_rows, rows)
        flag = "" if max(dev, rows) <= TOL else "  FAIL"
        print(f"{label:<36} dev {dev:.2e}  rows rel dev {rows:.2e}{flag}\n"
              f"    {describe(form)}")
        if max(dev, rows) > TOL:
            failures.append(label)
    print(f"{projecting} of {len(cases)} forms project onto a set, {bare} of them "
          f"in normal form P(x)")
    print(f"{len(cases)} operators, largest deviation {worst:.2e}, largest relative "
          f"deviation of apply_rows {worst_rows:.2e} (tolerance {TOL:g})")
    failures += check_pairs()
    if failures:
        print("FAILED:", ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
