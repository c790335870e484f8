"""Seeded workloads of the normsplit benchmark: instances, oracles and ops.

Every workload is a *round*: a fixed list of ops generated from the seed.
An op is one solve or one CLI command, and each op carries its own check
against an answer fixed beforehand from an oracle that never runs the
splitting iteration (closed forms, alternating projections, the affine
least-norm witness program). The runner repeats the round in a closed loop.

Only public names are used, and only those the ROADMAP keeps: no
``TraceStep``, ``IterationTrace.step``/``.steps``, ``SolveOptions.tol_sym``,
``vecspace.dot``/``norm``/``solve_linear``, and no reliance on
``report.trace`` being present. Problem files are written from the
documented JSON schema, not through the encoder functions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import normsplit as ns
from normsplit import cli, problemio, scenarios
from normsplit.splitting import CONVERGED, MAX_ITER, NO_FIXED_POINT

WORKLOADS = ("epigraph-tail", "wide-subspaces", "cli-mix")

# The eight registry scenarios that finish in milliseconds (all but "epigraph").
QUICK_SCENARIOS = (
    "overlapping-balls", "disjoint-balls", "two-lines", "box-halfspace",
    "rotators-default", "constants-default", "least-squares-default",
    "affine-default",
)

EPIGRAPH_TOL = 5e-2  # the registry epigraph scenario's tolerance
# Phase 1 stops when the estimate moved less than tol_v = 1e-8 over a 50-step
# window, which bounds its change, not its error: on slowly converging set
# pairs the error reaches about 1e-6. 1e-5 is the registry affine scenario's
# tolerance; the defects listed in README.md give errors of 1e-3 and more.
V_TOL = 1e-5
CANON_SEED = 20240901


class NullTracer:
    """Calls straight through; the traced run substitutes a span recorder."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class Outcome:
    steps: int                 # DR steps of the op's solve loops
    v_err: Optional[float]     # |v_estimate - oracle v|, where the op estimates v
    failure: Optional[str]     # None when every check passed


@dataclass
class Op:
    op_id: int
    kind: str                  # "solve_normal", "cli.solve", "cli.scenario", ...
    dim: int
    budget: int                # max_iter per phase
    run: Callable[[object], Outcome]
    pair: Optional[ns.OperatorPair] = None   # instance replayed by the traced run
    x0: Optional[np.ndarray] = None


def _fail(failures: list) -> Optional[str]:
    return "; ".join(failures) or None


def _check_status(report, allowed, failures):
    if report.status not in allowed:
        failures.append(f"status {report.status}, expected one of {sorted(allowed)}")


def _check_certified(report, failures):
    if report.status != CONVERGED:
        failures.append(f"status {report.status}, expected {CONVERGED}")
    elif not report.certificates or not all(report.certificates.values()):
        failures.append(f"certificates failed: {report.certificates}")


def _orthonormal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _monotone(rng, n: int, rank: int, basis=None, skew: bool = True) -> np.ndarray:
    """PSD-plus-skew matrix; with `basis` its range lies in span(basis columns)."""
    e = basis if basis is not None else _orthonormal(rng, n)[:, :rank]
    d = np.diag(rng.uniform(0.5, 2.0, size=e.shape[1]))
    m = e @ d @ e.T
    if skew:
        s = rng.normal(size=(e.shape[1], e.shape[1])) / np.sqrt(n)
        m = m + e @ (s - s.T) @ e.T
    return m


# ---------------------------------------------------------------------------
# oracles (no splitting iteration)
# ---------------------------------------------------------------------------

def gap_balls(cu, ru, cv, rv) -> np.ndarray:
    """Minimal-norm element of V - U, a ball around cv - cu of radius ru + rv."""
    c = cv - cu
    d = float(np.linalg.norm(c))
    return np.zeros_like(c) if d <= ru + rv else c * (1.0 - (ru + rv) / d)


def gap_boxes(lou, hiu, lov, hiv) -> np.ndarray:
    return np.clip(0.0, lov - hiu, hiv - lou)


def gap_subspaces(au, bu, av, bv) -> np.ndarray:
    """Component of av - au orthogonal to span(bu rows) + span(bv rows)."""
    d = av - au
    span = np.vstack([bu, bv]).T
    coef = np.linalg.lstsq(span, d, rcond=None)[0]
    return d - span @ coef


def _affine_project(anchor, basis, x):
    return anchor + basis.T @ (basis @ (x - anchor))


# ---------------------------------------------------------------------------
# JSON problem files, written from the documented schema
# ---------------------------------------------------------------------------

def _l(v) -> list:
    return np.asarray(v, dtype=float).tolist()


def j_set(kind: str, **fields) -> dict:
    return {"type": "normal_cone", "set": {"type": kind, **{k: _l(v) if not isinstance(v, float) else v
                                                               for k, v in fields.items()}}}


def j_affine(m, a) -> dict:
    return {"type": "affine", "matrix": _l(m), "offset": _l(a)}


def j_wrap(kind: str, inner: dict, shift=None) -> dict:
    out = {"type": kind, "inner": inner}
    if shift is not None:
        out["shift"] = _l(shift)
    return out


@dataclass
class Instance:
    """A problem in JSON form plus its oracle answer."""

    family: str
    dim: int
    problem: dict
    v: np.ndarray
    tol: float
    closed_form: bool = True   # v exact to rounding, so `--w v` is solvable


# Each family fixes its geometry in a canonical frame from a stream that does
# not depend on the seed; the seed picks a rigid motion of that frame (an
# orthogonal map, or a signed permutation for boxes) and the wrapper shifts.
# The DR orbit from x0 = 0 commutes with such maps, so a round does the same
# number of DR steps whatever the seed, while every number in it differs.

def _canon(family: str, d: int):
    return np.random.default_rng([CANON_SEED, sum(map(ord, family)), d])


def _signed_permutation(rng, d: int) -> np.ndarray:
    return np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)


def _ball_instance(rng, d: int, feasible: bool) -> Instance:
    # A = <s1> flip(N_C1) = N_{s1 - C1};  B = flip(<s2> N_C2) = N_{-(C2 + s2)}
    # One planar triangle (0, cu, cv) for every dim: the orbit from 0 stays in
    # its plane, so every ball solve of a kind takes the same number of steps.
    ru, rv = 1.0, 0.8
    dist = 1.2 if feasible else 2.4
    q = _orthonormal(rng, d)
    cu = q[:, :2] @ np.array([1.2, 0.4])
    cv = cu + dist * (q[:, :2] @ np.array([np.cos(0.7), np.sin(0.7)]))
    s1, s2 = rng.normal(size=(2, d))
    a = j_wrap("inner_shift", j_wrap("flip_both", j_set("ball", center=s1 - cu, radius=float(ru))), s1)
    b = j_wrap("flip_both", j_wrap("inner_shift", j_set("ball", center=-cv - s2, radius=float(rv)), s2))
    return Instance("balls", d, {"dim": d, "A": a, "B": b}, gap_balls(cu, ru, cv, rv), V_TOL)


def _box_instance(rng, d: int) -> Instance:
    # A = (<s1> N_box1)^-1^-1 = N_{box1 + s1};  B = <s2> flip(N_box2) = N_{s2 - box2}.
    # The effective boxes share the point p. Boxes with a gap are left out:
    # there the phase-1 stagnation test stops while the displacement is
    # constant between face crossings, and v comes out wrong (see README).
    c = _canon("boxes", d)
    p = c.normal(size=d)
    lo_u, hi_u = p - c.uniform(0.1, 1.5, size=d), p + c.uniform(0.1, 1.5, size=d)
    lo_v, hi_v = p - c.uniform(0.1, 1.5, size=d), p + c.uniform(0.1, 1.5, size=d)
    perm = _signed_permutation(rng, d)
    lo_u, hi_u = np.sort([perm @ lo_u, perm @ hi_u], axis=0)
    lo_v, hi_v = np.sort([perm @ lo_v, perm @ hi_v], axis=0)
    s1, s2 = rng.normal(scale=2.0, size=(2, d))
    a = j_wrap("inverse", j_wrap("inverse", j_wrap("inner_shift", j_set("box", lo=lo_u - s1, hi=hi_u - s1), s1)))
    b = j_wrap("inner_shift", j_wrap("flip_both", j_set("box", lo=s2 - hi_v, hi=s2 - lo_v)), s2)
    return Instance("boxes", d, {"dim": d, "A": a, "B": b}, gap_boxes(lo_u, hi_u, lo_v, hi_v), V_TOL)


def _ball_halfspace_instance(rng, d: int) -> Instance:
    # Always disjoint: when the ball barely meets the halfspace, phase 1 can
    # stop early with v != 0 (see README).
    c = _canon("ball-halfspace", d)
    center = c.normal(size=d)
    r = float(c.uniform(0.5, 2.0))
    normal = c.normal(size=d)
    gap = float(c.uniform(0.3, 3.0))
    q = _orthonormal(rng, d)
    center, normal = q @ center, q @ normal
    n_norm = float(np.linalg.norm(normal))
    # V - U is the halfspace <n, y> <= offset - min over the ball of <n, u>
    level = -gap * n_norm
    offset = level + float(normal @ center) - r * n_norm
    a = j_set("ball", center=center, radius=r)
    b = j_set("halfspace", normal=normal, offset=offset)
    return Instance("ball-halfspace", d, {"dim": d, "A": a, "B": b}, (level / n_norm**2) * normal, V_TOL)


def _lines_instance(rng, d: int) -> Instance:
    # One canonical configuration in the first three axes (two in the plane),
    # so the step count does not depend on the dim beyond d = 2 vs d >= 3.
    theta = 0.8
    q = _orthonormal(rng, d)
    k = min(3, d)
    u = q[:, 0]
    v_dir = np.cos(theta) * q[:, 0] + np.sin(theta) * q[:, 1]
    au = q[:, :k] @ np.array([0.5, -1.0, 0.8])[:k]
    av = q[:, :k] @ np.array([1.0, 0.7, -0.6])[:k]
    a = j_set("affine_subspace", anchor=au, basis=[u])
    b = j_set("affine_subspace", anchor=av, basis=[v_dir])
    v = gap_subspaces(au, u[None, :], av, v_dir[None, :])
    return Instance("lines", d, {"dim": d, "A": a, "B": b}, v, V_TOL)


def _epigraph_ball_instance(rng) -> Instance:
    # The planar epigraph has no symmetry to spend the seed on; narrow ranges
    # keep the step count close to constant.
    beta = float(rng.uniform(0.4, 0.6))
    r = float(rng.uniform(0.5, 0.6))
    center = np.array([rng.uniform(-3.0, -2.8), -r - rng.uniform(0.5, 0.6)])
    ball, epi = ns.Ball(center, r), ns.EpigraphExp(beta)
    oracle = scenarios.alternating_projections(ball, epi, max_rounds=200_000)
    if not oracle.attained:
        raise RuntimeError("alternating projections did not settle on an epigraph-ball instance")
    a = j_set("ball", center=center, radius=r)
    b = {"type": "normal_cone", "set": {"type": "epigraph_exp", "beta": beta}}
    return Instance("epigraph-ball", 2, {"dim": 2, "A": a, "B": b}, oracle.v, V_TOL,
                    closed_form=False)


def _affine_instance(rng, d: int, feasible: bool) -> Instance:
    # feasible: positive definite maps, so L + M is invertible and v = 0;
    # infeasible: both maps vanish on a common subspace where the offsets disagree.
    c = _canon("affine" + str(feasible), d)
    k = d if feasible else max(1, d - 2)
    e = _orthonormal(c, d)[:, :k]
    q = _orthonormal(rng, d)
    m1 = q @ _monotone(c, d, k, basis=e) @ q.T
    m2 = q @ _monotone(c, d, k, basis=e) @ q.T
    a1_eff, a2 = c.normal(size=(2, d)) @ q.T
    s1, w1 = rng.normal(size=(2, d))
    # A = (<s1> Aff(m1, a1))<w1> = Aff(m1, a1 - m1 s1 - w1)
    a = j_wrap("outer_shift", j_wrap("inner_shift", j_affine(m1, a1_eff + m1 @ s1 + w1), s1), w1)
    if feasible:
        # B = flip(Aff(m2, a2))^-1 = Aff(m2^-1, m2^-1 a2)
        b = j_wrap("inverse", j_wrap("flip_both", j_affine(m2, a2)))
        m2_eff = np.linalg.inv(m2)
        b_eff = m2_eff @ a2
    else:
        # B = flip(Aff(m2, a2)<w2>) = Aff(m2, w2 - a2)
        w2 = rng.normal(size=d)
        b = j_wrap("flip_both", j_wrap("outer_shift", j_affine(m2, w2 - a2), w2))
        m2_eff, b_eff = m2, a2
    v, _ = scenarios.affine_least_norm_witness(m1, a1_eff, m2_eff, b_eff)
    return Instance("affine", d, {"dim": d, "A": a, "B": b}, v, V_TOL)


def _rotator_swapped_instance(astar, bstar) -> Instance:
    # Registry order is (L + astar, -L - bstar); the swapped order has the
    # closed form v(B, A) = (Id + L)(astar - bstar) / 2.
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    astar, bstar = np.asarray(astar, float), np.asarray(bstar, float)
    v = 0.5 * (np.eye(2) + rot) @ (astar - bstar)
    problem = {"dim": 2, "A": j_affine(-rot, -bstar), "B": j_affine(rot, astar)}
    return Instance("rotators-swapped", 2, problem, v, 1e-7)


def _constants_instance(rng, d: int) -> Instance:
    a, b, w = rng.normal(size=(3, d))
    # A = Const(a)<w> = Const(a - w)
    problem = {"dim": d, "A": j_wrap("outer_shift", {"type": "constant", "value": _l(a)}, w),
               "B": {"type": "constant", "value": _l(b)}}
    return Instance("constants", d, problem, a - w + b, 1e-9)


def _least_squares_instance(rng, d: int) -> Instance:
    c = _canon("least-squares", d)
    q = _orthonormal(rng, d)
    m = q @ _monotone(c, d, max(1, d - 1), skew=False) @ q.T
    rhs = q @ c.normal(size=d)
    v = m @ np.linalg.lstsq(m, rhs, rcond=None)[0] - rhs
    problem = {"dim": d, "A": {"type": "constant", "value": _l(-rhs)},
               "B": j_affine(m, np.zeros(d))}
    return Instance("least-squares", d, problem, v, 1e-7)


def _zero_instance(rng, d: int) -> Instance:
    c = _canon("zero-ball", d)
    center = _orthonormal(rng, d) @ c.normal(size=d)
    problem = {"dim": d, "A": {"type": "zero", "dim": d},
               "B": j_set("ball", center=center, radius=float(c.uniform(0.5, 2.0)))}
    return Instance("zero-ball", d, problem, np.zeros(d), V_TOL)


# ---------------------------------------------------------------------------
# epigraph-tail: never-attained gap, both phases run their whole budget
# ---------------------------------------------------------------------------

# 3k steps per phase (about 0.1 s a solve) rather than the registry
# scenario's 100k. An op's time is the fastest of its repetitions, and short
# ops give many repetitions and catch the shared host's brief fast spells.
# The gap is never attained at any budget, so the solve is budget-bound all
# the same. Three solves with their own beta and start point per round; an
# odd count keeps op_ms_p50 on one op.
EPIGRAPH_BUDGET = 3_000
EPIGRAPH_SOLVES = 3


def _epigraph_op(op_id: int, rng, budget: int) -> Op:
    # beta sets the Newton cost of every projection, so it stays near 1
    beta = float(rng.uniform(0.9, 1.1))
    x0 = rng.uniform(-3.0, 3.0, size=2)
    line = ns.AffineSubspace([0.0, 0.0], [[1.0, 0.0]])
    sc = scenarios.scenario_two_sets(
        line, ns.EpigraphExp(beta), name=f"epigraph-{op_id}", tolerance=EPIGRAPH_TOL,
        ap_rounds=max(budget // 5, 200), solve_opts=ns.SolveOptions(max_iter=budget),
    )
    # cl(V - U) = {(a, b) : b >= beta}, so v = (0, beta) and it is never attained
    v_true = np.array([0.0, beta])

    def run(tr) -> Outcome:
        report = tr.call("splitting.solve_normal", ns.solve_normal, sc.pair, x0, sc.solve_opts)
        oracle = tr.call("scenarios.oracle", sc.oracle)
        failures = []
        _check_status(report, {NO_FIXED_POINT}, failures)
        v_err = float(np.linalg.norm(report.v_estimate - v_true))
        if v_err > sc.tolerance:
            failures.append(f"|v - (0, beta)| = {v_err:.3e} > {sc.tolerance}")
        if oracle.attained or np.linalg.norm(oracle.v - v_true) > sc.tolerance:
            failures.append(f"alternating-projection oracle disagrees: {oracle.v}")
        return Outcome(report.iterations_used, v_err, _fail(failures))

    return Op(op_id, "solve_normal", 2, budget, run, sc.pair, x0)


# ---------------------------------------------------------------------------
# wide-subspaces: dim 100, slow linear convergence and wrapper stacks
# ---------------------------------------------------------------------------

WIDE_DIM = 100
# 2k steps per phase (about 0.1 s a subspace solve): an op's time is the
# fastest of its repetitions, and short solves repeat often enough to meet
# the shared host's brief fast spells.
WIDE_BUDGET = 2_000
WIDE_SUBSPACE_PAIRS = 2  # of each kind: wrapped with a gap, bare and intersecting
WIDE_BALLS = 5
# principal angles between the subspaces; the first (Friedrichs) angle sets
# the linear rate cos(0.05), so 2k steps cannot reach tol_fix = 1e-9
SUBSPACE_ANGLES = (0.05, 0.3, 0.7)


def _subspace_op(op_id: int, rng, dim: int, budget: int, gap: bool) -> Op:
    k = len(SUBSPACE_ANGLES)
    q = _orthonormal(rng, dim)
    bu = q[:, :k].T
    bv = np.array([np.cos(t) * q[:, i] + np.sin(t) * q[:, k + i]
                   for i, t in enumerate(SUBSPACE_ANGLES)])
    au = rng.normal(size=dim)
    av = au + bu.T @ rng.normal(size=k) + bv.T @ rng.normal(size=k)
    if gap:
        av = av + rng.uniform(0.5, 2.0) * q[:, 2 * k]
    x0 = rng.normal(size=dim)
    if gap:
        # A = <s1> flip(N_U') = N_{s1 - U'} and B = flip(<s2> N_V') = N_{-(V' + s2)},
        # with U' and V' chosen so that these are U and V: AST work in every step
        s1, s2 = rng.normal(size=(2, dim))
        pair = ns.OperatorPair(
            ns.InnerShift(ns.FlipBoth(ns.NormalCone(ns.AffineSubspace(s1 - au, bu))), s1),
            ns.FlipBoth(ns.InnerShift(ns.NormalCone(ns.AffineSubspace(-av - s2, bv)), s2)),
        )
    else:
        pair = ns.OperatorPair(ns.NormalCone(ns.AffineSubspace(au, bu)),
                               ns.NormalCone(ns.AffineSubspace(av, bv)))
    opts = ns.SolveOptions(max_iter=budget)
    v_true = gap_subspaces(au, bu, av, bv)
    # DR on subspaces converges at exactly the cosine of the Friedrichs angle
    # (Bauschke et al. 2014), so after n steps the difference estimator is
    # within cos(theta_F)^n * |x0 - T x0| of v.
    cosines = np.linalg.svd(bu @ bv.T, compute_uv=False)
    c_f = float(np.max(cosines[cosines < 1.0 - 1e-12]))
    pv = _affine_project(av, bv, x0)
    d0 = pv - _affine_project(au, bu, 2.0 * pv - x0)
    tol = c_f ** (budget - 1) * float(np.linalg.norm(d0)) * 1.001 + 1e-7

    def run(tr) -> Outcome:
        report = tr.call("splitting.solve_normal", ns.solve_normal, pair, x0, opts)
        failures = []
        # a fixed point of the v-shifted map exists (polyhedral sets), so a
        # no-fixed-point verdict is wrong; the budget may or may not suffice
        _check_status(report, {CONVERGED, MAX_ITER}, failures)
        v_err = float(np.linalg.norm(report.v_estimate - v_true))
        if v_err > tol:
            failures.append(f"|v - oracle| = {v_err:.3e} > rate bound {tol:.3e}")
        return Outcome(report.iterations_used, v_err, _fail(failures))

    return Op(op_id, "solve_normal", dim, budget, run, pair, x0)


def _direct_op(op_id: int, inst: Instance, budget: int) -> Op:
    """Two-phase solve through the Python API of a JSON-described instance."""
    problem = problemio.parse_problem(inst.problem)
    pair = ns.OperatorPair(problem.a, problem.b)
    opts = ns.SolveOptions(max_iter=budget)

    def run(tr) -> Outcome:
        report = tr.call("splitting.solve_normal", ns.solve_normal, pair, None, opts)
        failures = []
        _check_certified(report, failures)
        v_err = float(np.linalg.norm(report.v_estimate - inst.v))
        if v_err > inst.tol:
            failures.append(f"{inst.family}: |v - oracle| = {v_err:.3e} > {inst.tol}")
        return Outcome(report.iterations_used, v_err, _fail(failures))

    return Op(op_id, "solve_normal", inst.dim, budget, run, pair)


# ---------------------------------------------------------------------------
# cli-mix: many short problems through normsplit.cli.main
# ---------------------------------------------------------------------------

CLI_BUDGET = 20_000
CLI_PROBLEMS = 40
CLI_DIMS = (2, 4, 7, 10, 13, 16, 20)  # coprime with the 11 families: every pairing occurs


def _run_cli(tr, span: str, argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return tr.call(span, cli.main, argv)


def _cli_solve_op(op_id: int, inst: Instance, pair, path: str, out: str, budget: int,
                  w=None, trace_path=None) -> Op:
    argv = ["solve", path, "--json", out]
    if w is not None:
        # one token, since a leading minus would read as an option
        argv.append("--w=" + ",".join(repr(float(t)) for t in w))
    if trace_path is not None:
        argv += ["--trace", trace_path]
    width = 1 + 2 * inst.dim + 3  # n, x_j, shadow_j, three norms

    def run(tr) -> Outcome:
        code = _run_cli(tr, "cli.solve", argv)
        report = tr.call("problemio.read_report", problemio.read_report, out)
        failures = []
        if code != cli.EXIT_OK:
            failures.append(f"exit code {code}")
        _check_certified(report, failures)
        v_err = None
        if w is None:
            v_err = float(np.linalg.norm(report.v_estimate - inst.v))
            if v_err > inst.tol:
                failures.append(f"{inst.family}: |v - oracle| = {v_err:.3e} > {inst.tol}")
        if trace_path is not None:
            with open(trace_path, newline="") as fh:
                rows = list(csv.reader(fh))
            if len(rows) < 2 or any(len(r) != width for r in rows):
                failures.append(f"trace CSV malformed: {len(rows)} rows")
        return Outcome(report.iterations_used, v_err, _fail(failures))

    return Op(op_id, "cli.solve", inst.dim, budget, run, pair)


def _cli_duality_op(op_id: int, inst: Instance, pair, path: str, budget: int, steps: list) -> Op:
    argv = ["duality-check", path, "--samples", "100", "--seed", str(op_id)]

    def run(tr) -> Outcome:
        code = _run_cli(tr, "cli.duality_check", argv)
        failure = None if code == cli.EXIT_OK else f"{inst.family}: duality-check exit code {code}"
        # the command prints no iteration count; its solve is the same
        # deterministic two-phase solve as this problem's `solve` op
        return Outcome(steps[0], None, failure)

    return Op(op_id, "cli.duality_check", inst.dim, budget, run, pair)


def _cli_scenario_op(op_id: int, name: str, out: str) -> Op:
    sc = scenarios.get_scenario(name)
    expected = sc.oracle()

    def run(tr) -> Outcome:
        code = _run_cli(tr, "cli.scenario", ["scenario", name, "--json", out])
        report = tr.call("problemio.read_report", problemio.read_report, out)
        failures = []
        if code != cli.EXIT_OK:
            failures.append(f"scenario {name}: exit code {code}")
        _check_certified(report, failures)
        v_err = float(np.linalg.norm(report.v_estimate - expected.v))
        if v_err > sc.tolerance:
            failures.append(f"scenario {name}: |v - oracle| = {v_err:.3e} > {sc.tolerance}")
        return Outcome(report.iterations_used, v_err, _fail(failures))

    return Op(op_id, "cli.scenario", sc.pair.dim, sc.solve_opts.max_iter, run, sc.pair)


def _cli_instances(rng, count: int) -> list:
    makers = [
        lambda d: _ball_instance(rng, d, feasible=True),
        lambda d: _ball_instance(rng, d, feasible=False),
        lambda d: _box_instance(rng, d),
        lambda d: _ball_halfspace_instance(rng, d),
        lambda d: _lines_instance(rng, d),
        lambda d: _epigraph_ball_instance(rng),
        lambda d: _affine_instance(rng, d, feasible=True),
        lambda d: _affine_instance(rng, d, feasible=False),
        lambda d: _constants_instance(rng, d),
        lambda d: _least_squares_instance(rng, d),
        lambda d: _zero_instance(rng, d),
    ]
    out = [_rotator_swapped_instance([1.0, 0.0], [0.0, 0.0])]  # v(B, A) = (0.5, 0.5)
    out.append(_rotator_swapped_instance(rng.normal(size=2), rng.normal(size=2)))
    i = 0
    while len(out) < count:
        out.append(makers[i % len(makers)](CLI_DIMS[i % len(CLI_DIMS)]))
        i += 1
    return out


def build_cli_mix(rng, work_dir: str, problems: int, budget: int) -> list:
    os.makedirs(work_dir, exist_ok=True)
    ops = []
    for j, inst in enumerate(_cli_instances(rng, problems)):
        problem = dict(inst.problem, options={"max_iter": budget})
        path = os.path.join(work_dir, f"p{j}.json")
        with open(path, "w") as fh:
            json.dump(problem, fh)
        parsed = problemio.parse_problem(problem)
        pair = ns.OperatorPair(parsed.a, parsed.b)
        steps: list = []   # filled by the normal solve's outcome, shared with duality-check
        solve = _cli_solve_op(len(ops), inst, pair, path, os.path.join(work_dir, f"r{j}.json"), budget,
                              trace_path=os.path.join(work_dir, f"t{j}.csv") if j % 4 == 0 else None)
        ops.append(_record_steps(solve, steps))
        if j % 3 == 1 and inst.closed_form:
            ops.append(_cli_solve_op(len(ops), inst, pair, path, os.path.join(work_dir, f"w{j}.json"),
                                     budget, w=inst.v))
        if j % 3 == 2:
            ops.append(_cli_duality_op(len(ops), inst, pair, path, budget, steps))
    for name in QUICK_SCENARIOS:
        ops.append(_cli_scenario_op(len(ops), name, os.path.join(work_dir, f"s-{name}.json")))
    return ops


def _record_steps(op: Op, sink: list) -> Op:
    inner = op.run

    def run(tr) -> Outcome:
        outcome = inner(tr)
        sink[:] = [outcome.steps]
        return outcome

    op.run = run
    return op


# ---------------------------------------------------------------------------
# workload assembly
# ---------------------------------------------------------------------------

def build(name: str, seed: int, work_dir: str, scale: float = 1.0) -> list:
    """Generate the round of ops for `name` from `seed`; cli-mix writes its files to `work_dir`.

    `scale` shrinks budgets, dimensions and counts for the smoke test; the
    benchmark itself always runs at scale 1.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])  # ValueError if unknown
    if name == "epigraph-tail":
        budget = max(500, int(EPIGRAPH_BUDGET * scale))
        ops = [_epigraph_op(i, rng, budget) for i in range(EPIGRAPH_SOLVES)]
    elif name == "wide-subspaces":
        dim = max(8, int(WIDE_DIM * scale))
        budget = max(500, int(WIDE_BUDGET * scale))
        ops = [_subspace_op(i, rng, dim, budget, gap=i % 2 == 0)
               for i in range(2 * WIDE_SUBSPACE_PAIRS)]
        # Order statistics land inside groups of like ops, never on a boundary
        # between them: op_ms_p50 on the five ball solves (~9 ms), op_ms_pNN
        # (the largest of 11 op times) on the four 0.1 s subspace solves.
        balls = [_ball_instance(rng, dim, feasible=False) for _ in range(WIDE_BALLS)]
        for inst in balls + [_box_instance(rng, dim), _affine_instance(rng, dim, feasible=True)]:
            ops.append(_direct_op(len(ops), inst, budget))
    else:
        problems = max(len(QUICK_SCENARIOS) // 2, int(CLI_PROBLEMS * scale))
        ops = build_cli_mix(rng, work_dir, problems, CLI_BUDGET)
    return ops
