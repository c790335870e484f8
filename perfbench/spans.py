"""Traced run: spans at layer boundaries, replayed leaf calls, per-layer metrics.

Spans are recorded from the benchmark's own files. `installed` puts shims
on the module attributes through which one layer calls another and restores
them afterwards; nothing inside `normsplit` is edited. Work reached only
through private names (`_project`, `_resolvent`, `_dr_step`) is measured by
replaying the public `project`, `resolvent` and `dr_apply` over orbit points
that the benchmark generates itself with `dr_apply`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import normsplit as ns
from normsplit import cli, splitting, vecspace

SET_KINDS = {
    ns.Box: "box",
    ns.Ball: "ball",
    ns.AffineSubspace: "affine_subspace",
    ns.Halfspace: "halfspace",
    ns.EpigraphExp: "epigraph_exp",
}
WRAPPERS = (ns.Inverse, ns.FlipBoth, ns.InnerShift, ns.OuterShift)
NORMAL_SOLVES = ("splitting.solve_normal", "cli.solve_normal")
ORBIT_POINTS = 64
ORBIT_SPAN = 8192
REPLAY_REPEATS = 5


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into the span list, -1 for an op's root span
    op: int          # op id; spans of one op share it
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanTracer:
    """Records a span for every call routed through `call`, nested by a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, name, fn, *args, **kwargs):
        span = Span(name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if hasattr(result, "iterations_used"):
            span.attrs["iters"] = int(result.iterations_used)
        elif isinstance(result, bool):
            span.attrs["ok"] = result
        return result


def _is_dual(pair) -> bool:
    # dual_pair(p) is (FlipBoth(Inverse(p.A)), Inverse(p.B))
    return isinstance(pair.A, ns.FlipBoth) and isinstance(pair.A.inner, ns.Inverse)


@contextlib.contextmanager
def installed(tracer: SpanTracer):
    """Shim the cross-layer attributes for the duration of the block."""
    def spanned(name, fn, name_of=None):
        def shim(*args, **kwargs):
            return tracer.call(name_of(args) if name_of else name, fn, *args, **kwargs)
        return shim

    def traced_scenario(fn):
        def shim(*args, **kwargs):
            sc = fn(*args, **kwargs)
            oracle = sc.oracle
            return dataclasses.replace(sc, oracle=lambda: tracer.call("scenarios.oracle", oracle))
        return shim

    targets = [
        (cli, "solve_normal", None), (cli, "solve_perturbed", None),
        (cli, "load_problem", None), (cli, "write_report", None), (cli, "psi_inv", None),
        (cli, "dr_apply", lambda args: "cli.dr_apply.dual" if _is_dual(args[0]) else "cli.dr_apply"),
        (splitting, "estimate_v", None), (splitting, "solve_perturbed", None),
        (splitting, "membership", None),
    ]
    saved = []
    try:
        for owner, attr, name_of in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, spanned(f"{owner.__name__.split('.')[-1]}.{attr}", fn, name_of))
        fn = getattr(cli, "get_scenario", None)
        if fn is not None:
            saved.append((cli, "get_scenario", fn))
            cli.get_scenario = traced_scenario(fn)
        to_csv = getattr(splitting.IterationTrace, "to_csv", None)
        if to_csv is not None:
            saved.append((splitting.IterationTrace, "to_csv", to_csv))
            splitting.IterationTrace.to_csv = spanned("splitting.to_csv", to_csv)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# span statistics
# ---------------------------------------------------------------------------

class SpanStats:
    """Span lookups that fall back to the probe round for names a workload never reaches."""

    def __init__(self, spans, probe_spans):
        self.spans, self.probe = spans, probe_spans
        self.sources: dict[str, str] = {}

    def named(self, name) -> list:
        own = [s for s in self.spans if s.name == name]
        if own:
            self.sources[name] = "workload"
            return own
        probe = [s for s in self.probe if s.name == name]
        self.sources[name] = "probe" if probe else "absent"
        return probe

    def median(self, name, scale: float) -> float:
        spans = self.named(name)
        return statistics.median(s.seconds for s in spans) * scale if spans else 0.0


def phase_totals(spans, ops_by_id) -> dict:
    """Per-phase iterations, seconds and phase-1 budget from the solve spans."""
    out = dict(p1_iters=0, p2_iters=0, p1_s=0.0, p2_s=0.0, p1_budget=0)
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    for i, span in enumerate(spans):
        if span.name in NORMAL_SOLVES:
            kids = children.get(i, [])
            p2 = [k for k in kids if k.name == "splitting.solve_perturbed"]
            p2_iters = sum(k.attrs.get("iters", 0) for k in p2)
            out["p1_iters"] += span.attrs.get("iters", 0) - p2_iters
            out["p1_s"] += sum(k.seconds for k in kids if k.name == "splitting.estimate_v")
            out["p2_iters"] += p2_iters
            out["p2_s"] += sum(k.seconds for k in p2)
            out["p1_budget"] += ops_by_id[span.op].budget
        elif span.name == "cli.solve_perturbed" and (
                span.parent < 0 or spans[span.parent].name not in NORMAL_SOLVES):
            out["p2_iters"] += span.attrs.get("iters", 0)
            out["p2_s"] += span.seconds
    return out


# ---------------------------------------------------------------------------
# replays of public calls over orbit points
# ---------------------------------------------------------------------------

def per_call_us(fn, points) -> float:
    """Median over repeats of the mean time of fn(x) over the points, in µs."""
    laps = []
    for _ in range(REPLAY_REPEATS):
        t0 = time.perf_counter()
        for x in points:
            fn(x)
        laps.append((time.perf_counter() - t0) / len(points))
    return statistics.median(laps) * 1e6


def orbit(pair, x0, steps: int) -> list:
    """ORBIT_POINTS iterates spread evenly over the first `steps` of the orbit."""
    steps = max(ORBIT_POINTS, min(steps, ORBIT_SPAN))
    keep = set(np.linspace(0, steps - 1, ORBIT_POINTS).astype(int).tolist())
    x = np.zeros(pair.dim) if x0 is None else np.asarray(x0, dtype=float)
    points = []
    for n in range(steps):
        if n in keep:
            points.append(x)
        x = ns.dr_apply(pair, x)
    return points


def _leaf(op):
    depth = 0
    while isinstance(op, WRAPPERS):
        op, depth = op.inner, depth + 1
    return op, depth


@dataclass
class Replay:
    """Per-call costs of one op's instance, measured on its own orbit points."""

    dr_apply_us: float         # public dr_apply less its as_vector check: one DR step
    epigraph_us: float = 0.0
    project_us: dict = field(default_factory=dict)     # set kind -> µs
    resolvent_us: dict = field(default_factory=dict)   # leaf/affine/depth2/depth3 -> µs


def replay_pair(pair, x0, steps: int) -> Replay:
    points = orbit(pair, x0, steps)
    check_us = per_call_us(lambda x: vecspace.as_vector(x, dim=pair.dim), points)
    rep = Replay(per_call_us(lambda x: ns.dr_apply(pair, x), points) - check_us)
    shadows = [ns.resolvent(pair.B, x) for x in points]
    # the exact arguments the DR step hands to each bare operator
    args = {id(pair.B): points, id(pair.A): [2.0 * s - x for s, x in zip(shadows, points)]}
    for op in (pair.A, pair.B):
        leaf, depth = _leaf(op)
        pts = args[id(op)] if depth == 0 else points
        if isinstance(leaf, ns.NormalCone):
            kind = SET_KINDS.get(type(leaf.region))
            us = per_call_us(lambda x: ns.project(leaf.region, x), pts)
            if kind is not None:
                rep.project_us.setdefault(kind, us)
            if kind == "epigraph_exp":
                rep.epigraph_us += us
            if depth == 0:
                rep.resolvent_us.setdefault("leaf", per_call_us(lambda x: ns.resolvent(op, x), pts))
        elif isinstance(leaf, ns.AffineMonotone):
            rep.resolvent_us.setdefault("affine", per_call_us(lambda x: ns.resolvent(leaf, x), pts))
        if depth >= 2:
            bucket = "depth2" if depth == 2 else "depth3"
            rep.resolvent_us.setdefault(bucket, per_call_us(lambda x: ns.resolvent(op, x), points))
    return rep


def fixed_cost_us(dim: int, rng) -> dict:
    """Per-op fixed costs at the workload's typical dimension."""
    g = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    m = g @ g.T + (g - g.T)
    a = rng.normal(size=dim)
    raw = a.tolist()
    eye_m = np.eye(dim) + m
    return {
        "vecspace.as_vector_us": per_call_us(lambda _: vecspace.as_vector(raw, dim=dim), range(200)),
        "vecspace.lu_factor_checked_us": per_call_us(lambda _: vecspace.lu_factor_checked(eye_m), range(50)),
        "operators.affine_build_us": per_call_us(lambda _: ns.AffineMonotone(m, a), range(50)),
    }
