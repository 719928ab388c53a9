"""Run every workload, untraced and traced, and print one summary.

    python3 perfbench/report.py [--seed N] [--workloads a,b]

For each workload this runs `run.py --trace 0` (end-to-end metrics) and then
`run.py --trace 1` (per-layer metrics) with the same seed, for `run_seconds`
of BENCHMARK.json each.  It prints every end-to-end metric with its unit, the
ungated median latency and overall rate, the failed share, the tail
percentile and its sample count, oracle outcomes, the tracing overhead,
whether the two runs' result digests agree, and each layer's share of the
traced self time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import RECORD_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# star-certify is reported here but is not a BENCHMARK.json workload: its
# throughput in one run depends on how many heavy overshoot instances the
# seed happens to draw (see README.md).
WORKLOADS = ("pair-certify", "star-certify", "screen-closed-form", "swap-sim")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed with code {proc.returncode}")
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(result_line), json.loads(record_line[len(RECORD_PREFIX):])


def layer_shares(layers: dict) -> list[tuple[str, float]]:
    """Self time per wrapped function as a share of all traced self time."""
    own = {k[: -len(".self_ms")]: v["value"] for k, v in layers.items() if k.endswith(".self_ms")}
    total = sum(own.values())
    return sorted(((k, v / total) for k, v in own.items() if v > 0), key=lambda kv: -kv[1])


def summarize(workload: str, seed: int) -> dict:
    result, record = run(workload, seed, 0)
    traced, traced_record = run(workload, seed, 1)
    layers = traced["metrics"]
    return {
        "workload": workload,
        "correct": result["correct"] and traced["correct"],
        "end_to_end": result["metrics"],
        "failed_share": record["failed_share"],
        "attempted": result["attempted"],
        "p50_ms": record["instance_ms.p50"],
        "overall_instances_per_s": record["overall_instances_per_s"],
        "tail": record["tail"],
        "status_counts": record["status_counts"],
        "gap_max": record["gap_max"],
        "excess_max": record["excess_max"],
        "digest": record["digest"],
        "digest_matches_traced_run": record["digest"] == traced_record["digest"],
        "trace_overhead_pct": layers["trace.overhead_pct"]["value"],
        "traced_instances": layers["trace.instances"]["value"],
        "layer_shares": layer_shares(layers),
        "per_layer": layers,
        "env": record["env"],
        "traced_env": traced_record["env"],
    }


def print_summary(s: dict) -> None:
    print(f"== {s['workload']}  correct={s['correct']}  attempted={s['attempted']}")
    for name, m in s["end_to_end"].items():
        print(f"  {name:18s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'instance_ms.p50':18s} {s['p50_ms']:14.6g} ms (not gated)")
    print(f"  {'overall rate':18s} {s['overall_instances_per_s']:14.6g} 1/s "
          "(instances / wall time, not gated)")
    print(f"  {'failed_share':18s} {s['failed_share']:14.6g} 1")
    tail = s["tail"]
    print(f"  tail = p{tail['percentile']:g} of {tail['samples']} instances, "
          f"{tail['beyond']} beyond it")
    print(f"  outcomes {s['status_counts']}  gap_max {s['gap_max']}  excess_max {s['excess_max']}")
    print(f"  digest {s['digest'][:16]}  matches traced run: {s['digest_matches_traced_run']}")
    print(f"  tracing overhead {s['trace_overhead_pct']:.2f} % "
          f"over {s['traced_instances']} paired instances")
    shares = ", ".join(f"{k} {100 * v:.1f}%" for k, v in s["layer_shares"] if v >= 0.01)
    print(f"  self-time shares: {shares}")
    env = s["env"]
    print(f"  env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"sha={env['git_sha']} load {env['loadavg_before'][0]:.2f}->{env['loadavg_after'][0]:.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qnetmax benchmark summary, all workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    summaries = []
    for workload in args.workloads.split(","):
        summaries.append(summarize(workload, args.seed))
        print_summary(summaries[-1])
    return 0 if all(s["correct"] and s["digest_matches_traced_run"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
