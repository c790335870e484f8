"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs the worker in-process on every workload at a fraction of its size and
checks that every metric is printed with its unit, that the result line
matches BENCHMARK.json, and that a wrong oracle value is caught.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

TINY = ["--seconds", "0.2", "--scale", "0.02"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(capsys, *argv):
    code = worker.main(list(argv) + TINY)
    out = capsys.readouterr().out
    return code, out, json.loads(out.splitlines()[-1])


def printed(out: str, name: str, unit: str) -> bool:
    return re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)", out, re.M) is not None


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(name, capsys):
    code, out, result = run(capsys, "--workload", name, "--seed", "3", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric, unit in worker.END_TO_END:
        assert printed(out, metric, unit), metric
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_run_prints_every_per_layer_metric(capsys):
    code, out, result = run(capsys, "--workload", "cli-mix", "--seed", "3", "--trace", "1")
    assert code == 0 and result["correct"]
    for metric, unit in worker.PER_LAYER:
        assert printed(out, metric, unit), metric
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_wrong_oracle_value_raises_error_rate(capsys, monkeypatch):
    true_gap = workloads.gap_balls
    monkeypatch.setattr(workloads, "gap_balls", lambda *args: true_gap(*args) + 1.0)
    code, out, result = run(capsys, "--workload", "cli-mix", "--seed", "3", "--trace", "0")
    assert code == 0
    assert not result["correct"] and result["failed"] > 0
    error_rate = float(re.search(r"^\s+error_rate\s+(\S+)", out, re.M).group(1))
    assert error_rate > 0


def test_same_seed_repeats_counts_exactly(capsys):
    runs = [run(capsys, "--workload", "wide-subspaces", "--seed", "5", "--trace", "0")[2]
            for _ in range(2)]
    assert runs[0]["metrics"]["dr_iters"] == runs[1]["metrics"]["dr_iters"]
