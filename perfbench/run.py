"""Benchmark entry point: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 the per-layer metrics of a traced run.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; the line before it, prefixed "perfbench-record", carries the
environment, the result digest and the details behind each metric.

This process only orchestrates and uses the standard library.  The measured
work runs in workload.py child processes, one at a time, each pinned to one
BLAS/OpenMP thread.  set-up time is the median over SETUP_SAMPLES launches:
SETUP_SAMPLES - 1 probes that stop where the timed loop would begin, plus
the measured process itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run ends within this, or fails
RECORD_PREFIX = "perfbench-record "
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def launch(args, extra: list[str], deadline: float) -> dict:
    """Run one workload process to completion and return its JSON record."""
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra, "--launched-ns", str(time.monotonic_ns()),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env={**os.environ, **THREAD_PINS}
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("workload process printed no record") from None


def measure(args) -> tuple[dict, dict]:
    """Return (contract result, full record)."""
    if not (ROOT / "src" / "qnetmax" / "__init__.py").is_file():
        raise BenchError(f"no qnetmax sources under {ROOT / 'src'}; run from a checkout")
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    setups = []
    if not args.trace:
        setups = [launch(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    record = launch(args, [], deadline)
    load_after = os.getloadavg()
    setups.append(record["setup_s"])
    record["setup_s"] = statistics.median(setups)
    record["setup_samples_s"] = setups
    record["env"] = {
        "nproc": nproc,
        "python": record.pop("python"),
        "numpy": record.pop("numpy"),
        "git_sha": git_sha(ROOT),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    for when, load in (("before", load_before), ("after", load_after)):
        if load[0] > nproc:
            print(f"warning: 1-min load average {load[0]:.2f} {when} the run is above "
                  f"the core count {nproc}; timings are skewed", file=sys.stderr)
    if args.trace:
        metrics = record.pop("layers")
        record["traced_end_to_end"] = record.pop("metrics")
        correct = record["paired_digest_match"] and record["coverage_ok"]
    else:
        if record["tail"]["beyond"] < 10:
            print(f"warning: only {record['tail']['beyond']} samples beyond the "
                  f"p{record['tail']['percentile']:g} tail", file=sys.stderr)
        metrics = record.pop("metrics")
        metrics["setup_s"] = {"value": record["setup_s"], "unit": "s"}
        correct = True
    result = {
        "correct": correct and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qnetmax benchmark, one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(RECORD_PREFIX + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
