"""Run one benchmark workload in this process and print its metrics.

run.py starts this file in a fresh child process with single-threaded BLAS
and `src` on the path; it is not meant to be started by hand. The last line
of standard output is the result object that run.py passes on.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --probe-import
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60
TRACED_SECONDS = 10.0  # untraced and traced rounds together
PROBE_SCALE = 0.4  # a 16-problem cli-mix round: every leaf and wrapper variant

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
    ("op_ms_pNN", "ms"), ("dr_iters", "count"), ("dr_iters_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("error_rate", "ratio"), ("v_err_max", "1"),
]
# error_rate is 0 and v_err_max sits at rounding level, so neither can carry a
# relative bound; the result object reports them as `failed`/`attempted` and
# in the printed table and the record.
NOT_IN_RESULT = {"error_rate", "v_err_max"}

PER_LAYER = [
    ("operators.project_us.box", "us"), ("operators.project_us.ball", "us"),
    ("operators.project_us.affine_subspace", "us"), ("operators.project_us.halfspace", "us"),
    ("operators.project_us.epigraph_exp", "us"), ("operators.epigraph_share", "ratio"),
    ("operators.resolvent_us.leaf", "us"), ("operators.resolvent_us.affine", "us"),
    ("operators.resolvent_us.depth2", "us"), ("operators.resolvent_us.depth3", "us"),
    ("operators.membership_us", "us"), ("operators.membership_calls", "count"),
    ("operators.cert_pass_ratio", "ratio"), ("operators.affine_build_us", "us"),
    ("splitting.dr_apply_us", "us"), ("splitting.iter_us", "us"),
    ("splitting.loop_self_us", "us"), ("splitting.trace_peak_mb", "MB"),
    ("splitting.phase1_iters", "count"), ("splitting.phase2_iters", "count"),
    ("splitting.phase1_budget_ratio", "ratio"), ("splitting.phase1_s", "s"),
    ("splitting.phase2_s", "s"), ("splitting.to_csv_s", "s"),
    ("vecspace.as_vector_us", "us"), ("vecspace.lu_factor_checked_us", "us"),
    ("problemio.load_problem_ms", "ms"), ("problemio.write_report_ms", "ms"),
    ("problemio.read_report_ms", "ms"), ("duality.dual_dr_apply_us", "us"),
    ("duality.psi_inv_us", "us"), ("cli.solve_ms", "ms"), ("cli.scenario_ms", "ms"),
    ("cli.duality_check_ms", "ms"), ("scenarios.oracle_s", "s"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s"),
]


def _timed_import():
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (numpy, scipy and every normsplit module)
    import spans  # noqa: F401
    return time.perf_counter() - t0


def probe_import(root: Path) -> float:
    """Import time of numpy, scipy and normsplit in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe-import"],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout)


def op_seconds(times) -> float:
    """An op's time in a run: the fastest of its repetitions.

    Other tenants of the shared host slow every op, by a factor that wanders
    between 1 and about 1.8 over seconds to minutes. They only ever add
    time, so the fastest repetition is the steadiest estimate of the op's
    own cost, as `timeit` advises; the median moves with how much of the run
    the host spent slowed.
    """
    return min(times)


@dataclass
class Loop:
    """What a closed loop over the round observed."""

    times: dict = field(default_factory=dict)      # op id -> seconds per repetition
    steps: dict = field(default_factory=dict)      # op id -> DR steps of its first run
    failures: list = field(default_factory=list)
    attempted: int = 0
    v_err_max: float = 0.0
    elapsed: float = 0.0
    rounds: int = 0

    def op_times(self) -> list:
        return [op_seconds(t) for t in self.times.values()]

    def wall_s(self) -> float:
        """Time for the round's fixed work: the sum of each op's time."""
        return sum(self.op_times())


def run_loop(ops, tracer, seconds: float = 0.0, rounds: int = 0, between=None,
             out: Loop | None = None) -> Loop:
    """Closed loop with one caller, over whole rounds of ops only.

    Runs `rounds` rounds if given, else repeats the round until `seconds`
    have passed, and always at least one round. Whole rounds keep the mix of
    ops, and so every metric, independent of where the time runs out.
    `between`, if given, is called after each round, outside any op's time.
    The rounds are added to `out` if given.
    """
    out = Loop() if out is None else out
    start = time.perf_counter()
    deadline = start + seconds
    done = 0
    while done < rounds if rounds else (done == 0 or time.perf_counter() < deadline):
        for op in ops:
            tracer.op_id = op.op_id
            t0 = time.perf_counter()
            try:
                outcome = tracer.call("op." + op.kind, op.run, tracer)
                failure, steps = outcome.failure, outcome.steps
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                outcome, failure, steps = None, f"{type(exc).__name__}: {exc}", 0
            dt = time.perf_counter() - t0
            out.attempted += 1
            out.times.setdefault(op.op_id, []).append(dt)
            first = out.steps.setdefault(op.op_id, steps)
            if failure is None and steps != first:
                failure = f"DR step count changed between repetitions: {first} then {steps}"
            if failure is not None:
                out.failures.append(f"op {op.op_id} ({op.kind}): {failure}")
            elif outcome.v_err is not None:
                out.v_err_max = max(out.v_err_max, outcome.v_err)
        out.rounds += 1
        done += 1
        if between is not None:
            between()
    out.elapsed += time.perf_counter() - start
    return out


def tail_percentile(samples) -> tuple[int, float]:
    """Highest integer percentile with at least ten samples beyond it (nearest rank).

    With fewer than twenty samples no percentile qualifies and the maximum is
    reported as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100, xs[-1]


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, dict]:
    per_op = loop.op_times()
    nn, tail = tail_percentile(per_op)
    wall_s = loop.wall_s()
    dr_iters = sum(loop.steps.values())
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_per_s": len(per_op) / wall_s,
        "op_ms_p50": statistics.median(per_op) * 1e3,
        "op_ms_pNN": tail * 1e3,
        "dr_iters": dr_iters,
        "dr_iters_per_s": dr_iters / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": len(loop.failures) / loop.attempted,
        "v_err_max": loop.v_err_max,
    }
    reps = min(len(t) for t in loop.times.values())
    notes = {"op_ms_pNN": f"p{nn} of {len(per_op)} ops",
             "op_ms_p50": f"of {len(per_op)} ops",
             "wall_s": f"{len(per_op)} ops, each the fastest of >= {reps} repetitions"}
    return metrics, notes


def traced_run(ops, seconds: float, seed: int, work_dir: Path):
    import numpy as np
    import spans as sp
    import workloads

    # untraced and traced rounds alternate, so that both meet the host alike
    plain, traced, tracer = Loop(), Loop(), sp.SpanTracer()
    deadline = time.perf_counter() + min(seconds, TRACED_SECONDS)
    while plain.rounds == 0 or time.perf_counter() < deadline:
        run_loop(ops, workloads.NullTracer(), rounds=1, out=plain)
        with sp.installed(tracer):
            run_loop(ops, tracer, rounds=1, out=traced)
    # a small cli-mix round supplies the boundaries this workload never crosses
    probe_ops = workloads.build("cli-mix", seed, str(work_dir / "probe"), scale=PROBE_SCALE)
    probe_tracer = sp.SpanTracer()
    with sp.installed(probe_tracer):
        probe = run_loop(probe_ops, probe_tracer, rounds=1)

    # splitting.trace_peak_mb: allocation peak of the op with the most dim x steps
    big = max(ops, key=lambda op: op.dim * traced.steps.get(op.op_id, 0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        big.run(workloads.NullTracer())
        trace_peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()

    stats = sp.SpanStats(tracer.spans, probe_tracer.spans)
    ops_by_id = {op.op_id: op for op in ops}
    phases = sp.phase_totals(tracer.spans, ops_by_id)
    per_round = 1.0 / traced.rounds
    iters = phases["p1_iters"] + phases["p2_iters"]
    iter_us = (phases["p1_s"] + phases["p2_s"]) / iters * 1e6 if iters else 0.0

    replays = {}
    for op, steps in [(op, traced.steps) for op in ops] + [(op, probe.steps) for op in probe_ops]:
        if op.pair is not None and id(op.pair) not in replays:
            replays[id(op.pair)] = sp.replay_pair(op.pair, op.x0, steps.get(op.op_id, 0))
    own = [(traced.steps.get(op.op_id, 0), replays[id(op.pair)]) for op in ops if op.pair is not None]
    probe_reps = [replays[id(op.pair)] for op in probe_ops if op.pair is not None]
    weight = sum(s for s, _ in own)
    dr_apply_us = sum(s * r.dr_apply_us for s, r in own) / weight if weight else 0.0
    epi_us_steps = sum(s * r.epigraph_us for s, r in own)
    sources = {}

    def mean_of(key, attr):
        vals = [getattr(r, attr)[key] for _, r in own if key in getattr(r, attr)]
        sources[key] = "workload" if vals else "probe"
        if not vals:
            vals = [getattr(r, attr)[key] for r in probe_reps if key in getattr(r, attr)]
        return statistics.fmean(vals) if vals else 0.0

    membership = stats.named("splitting.membership")
    own_membership = [s for s in tracer.spans if s.name == "splitting.membership"]
    dims = sorted(op.dim for op in ops)
    m = {f"operators.project_us.{k}": mean_of(k, "project_us")
         for k in ("box", "ball", "affine_subspace", "halfspace", "epigraph_exp")}
    m["operators.epigraph_share"] = epi_us_steps / (iter_us * weight) if iter_us and weight else 0.0
    m.update({f"operators.resolvent_us.{k}": mean_of(k, "resolvent_us")
              for k in ("leaf", "affine", "depth2", "depth3")})
    m["operators.membership_us"] = (statistics.median(s.seconds for s in membership) * 1e6
                                    if membership else 0.0)
    m["operators.membership_calls"] = len(own_membership) * per_round
    m["operators.cert_pass_ratio"] = (sum(bool(s.attrs.get("ok")) for s in membership) / len(membership)
                                      if membership else 0.0)
    m.update(sp.fixed_cost_us(dims[len(dims) // 2], np.random.default_rng(seed)))
    m["splitting.dr_apply_us"] = dr_apply_us
    m["splitting.iter_us"] = iter_us
    m["splitting.loop_self_us"] = iter_us - dr_apply_us
    m["splitting.trace_peak_mb"] = trace_peak_mb
    m["splitting.phase1_iters"] = phases["p1_iters"] * per_round
    m["splitting.phase2_iters"] = phases["p2_iters"] * per_round
    m["splitting.phase1_budget_ratio"] = (phases["p1_iters"] / phases["p1_budget"]
                                          if phases["p1_budget"] else 0.0)
    m["splitting.phase1_s"] = phases["p1_s"] * per_round
    m["splitting.phase2_s"] = phases["p2_s"] * per_round
    m["splitting.to_csv_s"] = stats.median("splitting.to_csv", 1.0)
    m["problemio.load_problem_ms"] = stats.median("cli.load_problem", 1e3)
    m["problemio.write_report_ms"] = stats.median("cli.write_report", 1e3)
    m["problemio.read_report_ms"] = stats.median("problemio.read_report", 1e3)
    m["duality.dual_dr_apply_us"] = stats.median("cli.dr_apply.dual", 1e6)
    m["duality.psi_inv_us"] = stats.median("cli.psi_inv", 1e6)
    m["cli.solve_ms"] = stats.median("cli.solve", 1e3)
    m["cli.scenario_ms"] = stats.median("cli.scenario", 1e3)
    m["cli.duality_check_ms"] = stats.median("cli.duality_check", 1e3)
    m["scenarios.oracle_s"] = stats.median("scenarios.oracle", 1.0)
    m["trace.untraced_wall_s"] = plain.wall_s()
    m["trace.traced_wall_s"] = traced.wall_s()
    m["trace.overhead_s"] = traced.wall_s() - plain.wall_s()

    sources.update(stats.sources)
    notes = {"span_sources": sources, "rounds": traced.rounds,
             "probe_failures": probe.failures, "trace_peak_op": big.op_id}
    span_dump = [vars(s) for s in tracer.spans]
    return plain, traced, probe, m, notes, span_dump


def git_sha(root: Path) -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(root),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-import", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_import:
        print(repr(_timed_import()))
        return 0

    root = Path.cwd().resolve()
    own_import = _timed_import()
    import normsplit
    import workloads
    if root / "src" not in Path(normsplit.__file__).resolve().parents:
        print(f"error: normsplit imported from {normsplit.__file__}, not from ./src", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = root / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = {"import_s": [own_import], "generate_s": []}

        def set_up(tag: str):
            """One set-up: a fresh process's import, and one generation of the workload."""
            if setup["generate_s"]:
                setup["import_s"].append(probe_import(root))
            t0 = time.perf_counter()
            built = workloads.build(args.workload, args.seed, str(work_dir / tag), args.scale)
            setup["generate_s"].append(time.perf_counter() - t0)
            return built

        ops = set_up("main")
        # warm lazy imports and first-call paths on a tiny round of the same kind
        warm = workloads.build(args.workload, args.seed + 1, str(work_dir / "warm"), scale=0.005)
        run_loop(warm, workloads.NullTracer())

        record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                  "scale": args.scale, **environment(root, args.seed), "setup": setup}
        if args.trace:
            for k in range(1, SETUP_SAMPLES):
                set_up(f"setup{k}")
            # the end-to-end table of a traced run shows its untraced rounds
            loop, traced, probe, layer, notes, span_dump = traced_run(ops, args.seconds, args.seed, work_dir)
            checked = [loop, traced, probe]
            result_metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
            record.update(per_layer=result_metrics, trace_notes=notes, spans=span_dump)
        else:
            # Set-ups are spread over the run, between rounds and outside any
            # op's time, so that their median meets the host as the ops do.
            every = args.seconds / SETUP_SAMPLES
            due = time.perf_counter() + every

            def between_rounds():
                nonlocal due
                if len(setup["generate_s"]) < SETUP_SAMPLES and time.perf_counter() >= due:
                    set_up(f"setup{len(setup['generate_s'])}")
                    due = time.perf_counter() + every

            loop = run_loop(ops, workloads.NullTracer(), args.seconds, between=between_rounds)
            while len(setup["generate_s"]) < SETUP_SAMPLES:
                set_up(f"setup{len(setup['generate_s'])}")
            checked = [loop]
        setup_s = statistics.median(setup["import_s"]) + statistics.median(setup["generate_s"])
        e2e, e2e_notes = end_to_end(loop, setup_s)
        if not args.trace:
            result_metrics = {name: {"value": e2e[name], "unit": unit}
                              for name, unit in END_TO_END if name not in NOT_IN_RESULT}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(c.attempted for c in checked)
    failures = [f for c in checked for f in c.failures]
    e2e["error_rate"] = len(failures) / attempted

    record["end_to_end"] = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    record["end_to_end_notes"] = e2e_notes
    record["instances"] = [
        {"op": op.op_id, "kind": op.kind, "dim": op.dim, "budget": op.budget,
         "repetitions": len(loop.times.get(op.op_id, [])), "dr_iters": loop.steps.get(op.op_id),
         "times_s": loop.times.get(op.op_id, [])}
        for op in ops
    ]
    record["loop"] = {"rounds": loop.rounds, "measured_s": loop.elapsed}
    record["failures"] = failures
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  sha {record['git_sha'][:12]}  "
          f"python {record['python']}  numpy {record['numpy']}  scipy {record['scipy']}  "
          f"nproc {record['nproc']}  threads {record['threads']}")
    print(f"{len(ops)} ops per round, {loop.rounds} rounds, {attempted} ops attempted, "
          f"{len(failures)} failed; record {out_path.relative_to(root)}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, unit in END_TO_END:
        note = e2e_notes.get(name, "")
        print(f"  {name:<40} {e2e[name]:>16.6g} {unit:<6} {note}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<40} {layer[name]:>16.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
