"""Smoke tests for the benchmark itself, at tiny instance counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import tracing  # noqa: E402
import workload as W  # noqa: E402

import qnetmax  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str, count: int = 2) -> W.Workload:
    wl = W.WORKLOADS[name](3)
    wl.digest_instances = count  # with zero seconds a run does exactly these
    return wl


def test_spec_and_report_name_implemented_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(W.WORKLOADS)
    assert set(report.WORKLOADS) == set(W.WORKLOADS)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_traced_and_untraced_runs_agree(name):
    plain = W.run_phase(small(name), 0.0)
    tracer = tracing.Tracer()
    untraced, traced = W.run_paired(small(name), 0.0, tracer)
    assert plain.count == traced.count == 2
    assert plain.digest_every() == untraced.digest_every() == traced.digest_every()
    assert plain.failed == 0
    per_name, per_instance = tracing.fold(tracer.spans)
    coverage = W.coverage_gaps(traced, per_instance)
    assert W.coverage_ok(traced, coverage)
    layers = W.layer_metrics(traced, untraced, per_name, coverage)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in layers.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def test_sustained_rate_leaves_out_three_slow_blocks():
    def ends(slow_blocks):
        # 32 blocks of 10 instances; instances in slow blocks take twice as long.
        durations = [0.2 if i // 10 in slow_blocks else 0.1 for i in range(320)]
        return [sum(durations[: i + 1]) for i in range(320)]

    assert W.sustained_rate(ends(set())) == pytest.approx(10.0)
    assert W.sustained_rate(ends({1, 7, 30})) == pytest.approx(10.0)
    assert W.sustained_rate(ends({1, 7, 20, 30})) == pytest.approx(5.0)


def test_tracer_self_time_and_uninstall():
    original = qnetmax.classify.t_spectrum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qnetmax.classify.t_spectrum is not original
        assert qnetmax.criteria.t_spectrum is qnetmax.classify.t_spectrum
        state = qnetmax.werner_state(0.8)
        tracer.run_instance(0, qnetmax.classify_pair, state, state)
    finally:
        tracer.uninstall()
    assert qnetmax.classify.t_spectrum is original
    per_name, per_instance = tracing.fold(tracer.spans)
    assert per_name["classify.classify_pair"][0] == 1
    assert per_name["criteria.t_spectrum"][0] == 2
    assert per_name["jacobi.eigvalsh_symmetric"][0] == 2
    root = per_name[tracing.INSTANCE_SPAN]
    assert per_instance[0] == pytest.approx(root[1], rel=1e-9)
    for calls, total, own in per_name.values():
        assert 0.0 <= own <= total


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_contract_line(trace, section):
    proc = bench("--workload", "swap-sim", "--seed", "2", "--seconds", "0.3",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "swap-sim", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
