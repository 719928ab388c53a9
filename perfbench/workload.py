"""One workload process of the qnetmax benchmark.

Launched by run.py, one process per measurement, single-threaded and closed
loop: the next instance starts only after the previous one completed.  The
process imports qnetmax from the checkout's `src/`, builds the instance
inputs from the seed, warms up, and then runs instances until the time is up.
It prints one JSON record on its last stdout line.

With --trace 1 it runs every instance twice, once untraced and once under the
span tracer, so the pair gives the tracing overhead and both runs must
produce identical result digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qnetmax  # noqa: E402
from qnetmax.errors import NoConvergenceError, ValidationError  # noqa: E402

from tracing import INSTANCE_SPAN, SPAN_NAMES, Tracer, fold  # noqa: E402

# The repository's own tolerances, copied so that a library change cannot
# loosen the benchmark's gate: verify-suite completeness and soundness bounds
# (cli._COMPLETENESS_TOL, cli._SOUNDNESS_TOL), the theorem1 suite tolerance,
# the spectrum upper tolerance (criteria._UPPER_TOL) and the prop1 tolerance.
COMPLETENESS_TOL = 1e-4
SOUNDNESS_TOL = 1e-7
THEOREM1_TOL = 1e-12
T_UPPER_TOL = 1e-9
PROP1_TOL = 1e-12

RESTARTS = 32
RATE_BLOCKS = 32
RATE_PCT = 10.0  # instances_per_s: rate that 90 % of the blocks reach
COVERAGE_SLACK_S = 1e-3
SEED_POOL = 200_000


@dataclass(frozen=True)
class Outcome:
    """What one instance produced: status, gate verdict, digested values."""

    status: str
    failed: bool
    values: tuple
    gap: float | None = None


def instance_seeds(seed: int, count: int) -> np.ndarray:
    """Per-instance seeds, drawn exactly as the CLI verify suites draw them."""
    return np.random.default_rng(seed).integers(0, 2**62, size=count)


def _certify(run, soundness: bool) -> Outcome:
    """Run one oracle certification and gate its gap.

    A certificate above the closed form is rejected by the library with a
    `gap` payload; it is reported as an overshoot, which fails the gate only
    where the closed form is a proven maximum (pairs).
    """
    try:
        cert = run()
        status = "degenerate" if cert.degenerate else "ok"
    except NoConvergenceError as exc:
        cert, status = exc.certificate, "nonconverged"
    except ValidationError as exc:
        gap = getattr(exc, "gap", None)
        if gap is None:
            raise
        return Outcome("overshoot", soundness, (exc.best_value, exc.closed_form, gap), gap)
    gap = cert.gap
    failed = gap > COMPLETENESS_TOL or (soundness and gap < -SOUNDNESS_TOL)
    return Outcome(status, failed, (cert.best_value, cert.closed_form, gap), gap)


class Workload:
    """Inputs from the seed, one instance call with its gate, and a warm-up.

    `make(i)` is called once per instance, in order, right before the
    instance runs; nothing is kept, so memory does not grow with the number
    of instances a run completes.
    """

    name = ""
    # Percentile reported as instance_ms.tail: fixed per workload, with well
    # over ten samples beyond it, and low enough that a host slowdown of a
    # second or two does not move it (such slowdowns doubled p99).
    tail_pct = 0.0
    digest_instances = 0  # leading instances every run completes and digests

    def __init__(self, seed: int):
        self.seeds = instance_seeds(seed, SEED_POOL)

    def make(self, i: int):
        return int(self.seeds[i])

    def warmup(self) -> None:
        self.run(self.make(0))

    def run(self, inp) -> Outcome:
        raise NotImplementedError


class PairCertify(Workload):
    name = "pair-certify"
    tail_pct = 90.0
    digest_instances = 8

    def run(self, s):
        state_ab = qnetmax.random_state(s)
        state_bc = qnetmax.random_state(s + 1)
        config = qnetmax.OptimizerConfig(restarts=RESTARTS, seed=s)
        return _certify(lambda: qnetmax.maximize_bilocality(state_ab, state_bc, config), True)

    def warmup(self):
        # A capped run touches every code path without paying for a full one.
        config = qnetmax.OptimizerConfig(restarts=2, max_iters=2, seed=0)
        _certify(lambda: qnetmax.maximize_bilocality(
            qnetmax.random_state(0), qnetmax.random_state(1), config), True)


class StarCertify(Workload):
    name = "star-certify"
    tail_pct = 75.0
    digest_instances = 8

    def make(self, i):
        return int(self.seeds[i]), 3 if i % 2 == 0 else 4

    def run(self, inp):
        s, n = inp
        states = [qnetmax.random_state(s + j) for j in range(n)]
        config = qnetmax.OptimizerConfig(restarts=RESTARTS, seed=s)
        return _certify(lambda: qnetmax.maximize_star(states, config), False)

    def warmup(self):
        config = qnetmax.OptimizerConfig(restarts=2, max_iters=2, seed=0)
        _certify(lambda: qnetmax.maximize_star(
            [qnetmax.random_state(j) for j in range(3)], config), False)


class ScreenClosedForm(Workload):
    name = "screen-closed-form"
    tail_pct = 95.0
    digest_instances = 200

    def make(self, i):
        # Three Ginibre density matrices per instance, none shared.
        rng = np.random.default_rng(self.seeds[i])
        g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        gram = g @ g.conj().transpose(0, 2, 1)
        return gram / np.trace(gram, axis1=1, axis2=2).real[:, None, None]

    def run(self, mats):
        states = [qnetmax.make_state(m) for m in mats]
        spectra = [qnetmax.t_spectrum(qnetmax.correlation_matrix(s)) for s in states]
        # The prop1 suite's calls, then the same values through the reports.
        s_ab, s_bc = qnetmax.chsh_max(states[0]), qnetmax.chsh_max(states[1])
        b_max = qnetmax.bilocality_max(states[0], states[1])
        pair = qnetmax.network_report(states[:2])
        triple = qnetmax.network_report(states)
        flags = qnetmax.classify_pair(states[0], states[1])
        ts = [t for sp in spectra for t in sp.as_tuple()]
        r_ab, r_bc = pair.chsh_per_link
        forbidden = flags.nonbilocal and not flags.ab_nonlocal and not flags.bc_nonlocal
        failed = (
            any(not 0.0 <= t <= 1.0 + T_UPPER_TOL for t in ts)
            or b_max**2 > s_ab * s_bc + PROP1_TOL
            or pair.biloc_or_star**2 > r_ab * r_bc + PROP1_TOL
            or forbidden
        )
        values = (*ts, s_ab, s_bc, b_max, r_ab, r_bc, pair.biloc_or_star,
                  triple.biloc_or_star, *map(float, flags.as_tuple()))
        return Outcome("ok", failed, values)


class SwapSim(Workload):
    name = "swap-sim"
    tail_pct = 95.0
    digest_instances = 50

    def __init__(self, seed):
        super().__init__(seed)
        # One direction stream consumed in instance order, as in the
        # theorem1 verify suite.
        self._rng = np.random.default_rng(seed)

    def make(self, i):
        return int(self.seeds[i]), [qnetmax.random_unit_vector(self._rng) for _ in range(4)]

    def warmup(self):
        rng = np.random.default_rng(0)  # leaves the instance stream untouched
        self.run((int(self.seeds[0]), [qnetmax.random_unit_vector(rng) for _ in range(4)]))

    def run(self, inp):
        s, dirs = inp
        residual = qnetmax.theorem1_check(
            qnetmax.random_state(s), qnetmax.random_state(s + 1), *dirs
        )
        return Outcome("ok", residual > THEOREM1_TOL, (residual,))


WORKLOADS = {w.name: w for w in (PairCertify, StarCertify, ScreenClosedForm, SwapSim)}


def digest_line(i: int, out: Outcome) -> bytes:
    cells = [f"{float(v):.15g}" if not isinstance(v, str) else v for v in out.values]
    return f"{i}|{out.status}|{','.join(cells)}\n".encode()


class Phase:
    """Aggregated results of running instances 0, 1, ... once.

    Only aggregates and latencies are kept, so peak memory does not rise
    when a faster library completes more instances in the same time.
    """

    def __init__(self, digest_instances: int):
        self.latencies = array("d")
        self.ends = array("d")  # completion times, from the start of the phase
        self.status_counts: dict[str, int] = {}
        self.failed = 0
        self.gap_min = math.inf
        self.gap_max = -math.inf
        self.wall = 0.0
        self._digest_instances = digest_instances
        self._prefix = hashlib.sha256()  # the first digest_instances outcomes
        self._every = hashlib.sha256()  # every outcome

    def add(self, latency: float, out: Outcome) -> None:
        line = digest_line(len(self.latencies), out)
        if len(self.latencies) < self._digest_instances:
            self._prefix.update(line)
        self._every.update(line)
        self.latencies.append(latency)
        self.status_counts[out.status] = self.status_counts.get(out.status, 0) + 1
        self.failed += out.failed
        if out.gap is not None:
            self.gap_min = min(self.gap_min, out.gap)
            self.gap_max = max(self.gap_max, out.gap)

    @property
    def count(self) -> int:
        return len(self.latencies)

    @property
    def gaps_seen(self) -> bool:
        return self.gap_min <= self.gap_max

    def digest(self) -> str:
        return self._prefix.hexdigest()

    def digest_every(self) -> str:
        return self._every.hexdigest()


def run_one(workload: Workload, i: int, inp, tracer: Tracer | None) -> Outcome:
    try:
        if tracer is None:
            return workload.run(inp)
        return tracer.run_instance(i, workload.run, inp)
    except Exception as exc:  # an unexpected error fails the instance, not the run
        traceback.print_exc(file=sys.stderr)
        return Outcome("error", True, (type(exc).__name__,))


def run_phase(workload: Workload, seconds: float) -> Phase:
    """Run instances untraced for `seconds`, and at least the digested prefix.

    Benchmark-side input generation is inside the phase's wall time but off
    each instance's latency clock.
    """
    phase = Phase(workload.digest_instances)
    start = time.perf_counter()
    while phase.count < SEED_POOL and (
        phase.count < workload.digest_instances or time.perf_counter() - start < seconds
    ):
        i = phase.count
        inp = workload.make(i)
        t0 = time.perf_counter()
        out = run_one(workload, i, inp, None)
        end = time.perf_counter()
        phase.add(end - t0, out)
        phase.ends.append(end - start)
    phase.wall = time.perf_counter() - start
    return phase


def run_paired(workload: Workload, seconds: float, tracer: Tracer) -> tuple[Phase, Phase]:
    """Run each instance twice, untraced and traced, for `seconds` in total.

    Back-to-back pairs see the same machine speed, so the ratio of the two
    latency sums is the tracing overhead even when the host's speed drifts.
    The order alternates so that neither side always runs on warm caches.
    """
    untraced = Phase(workload.digest_instances)
    traced = Phase(workload.digest_instances)
    start = time.perf_counter()
    while traced.count < SEED_POOL and (
        traced.count < workload.digest_instances or time.perf_counter() - start < seconds
    ):
        i = traced.count
        inp = workload.make(i)
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                tracer.install()
            t0 = time.perf_counter()
            out = run_one(workload, i, inp, tracer if with_trace else None)
            latency = time.perf_counter() - t0
            if with_trace:
                tracer.uninstall()
            phase = traced if with_trace else untraced
            phase.add(latency, out)
            phase.ends.append(phase.wall + latency)
            phase.wall += latency
    return untraced, traced


def nearest_rank(sorted_values, pct: float):
    """Nearest-rank percentile of an ascending sequence, and its rank."""
    rank = max(math.ceil(pct / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[rank], rank


def sustained_rate(ends) -> float:
    """Rate that 90 % of the run's blocks reach.

    The timed phase is cut into consecutive blocks of equal instance count,
    and each block's rate is instances / block time.  On a steady host every
    block has the same rate, instances / wall time.  A shared host can run
    at its normal speed most of the time and faster in bursts whose share of
    a run varies from run to run; a low percentile of the block
    rates follows the normal speed and not the bursts, and the nearest rank
    (the 4th slowest of 32) leaves out up to three blocks hit by a stall
    (see README.md).
    """
    n = len(ends)
    k = min(RATE_BLOCKS, n)
    cuts = [round(j * n / k) for j in range(k + 1)]
    rates = sorted(
        (b - a) / (ends[b - 1] - (ends[a - 1] if a else 0.0)) for a, b in zip(cuts, cuts[1:])
    )
    return nearest_rank(rates, RATE_PCT)[0]


def summary(phase: Phase, workload: Workload) -> dict:
    """End-to-end metrics of one phase, plus the details printed beside them."""
    n = phase.count
    latencies = sorted(phase.latencies)
    tail, rank = nearest_rank(latencies, workload.tail_pct)
    return {
        "attempted": n,
        "failed": phase.failed,
        "failed_share": phase.failed / n,
        "metrics": {
            "instances_per_s": {"value": sustained_rate(phase.ends), "unit": "1/s"},
            "instance_ms.tail": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        },
        # Printed by report.py, not gated: both follow the host's bursts.
        "instance_ms.p50": statistics.median(latencies) * 1e3,
        "overall_instances_per_s": n / phase.wall,
        "tail": {"percentile": workload.tail_pct, "samples": n, "beyond": n - 1 - rank},
        "status_counts": phase.status_counts,
        "gap_max": phase.gap_max if phase.gaps_seen else None,
        "excess_max": -phase.gap_min if phase.gaps_seen else None,
        "digest": phase.digest(),
        "digest_instances": workload.digest_instances,
    }


def layer_metrics(traced: Phase, untraced: Phase, per_name: dict, coverage: list[float]) -> dict:
    """Per-instance layer counts and times, outcome counts, tracing overhead."""
    n = traced.count
    metrics = {}
    for name in SPAN_NAMES:
        calls, total, own = per_name.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "calls/instance")
        metrics[f"{name}.total_ms"] = (total * 1e3 / n, "ms/instance")
        metrics[f"{name}.self_ms"] = (own * 1e3 / n, "ms/instance")
    metrics[f"{INSTANCE_SPAN}.self_ms"] = (per_name[INSTANCE_SPAN][2] * 1e3 / n, "ms/instance")
    for status in ("ok", "nonconverged", "overshoot", "degenerate"):
        metrics[f"oracle.outcome.{status}"] = (traced.status_counts.get(status, 0), "count")
    # Workloads without an oracle report 0 for both.
    metrics["oracle.gap_max"] = (traced.gap_max if traced.gaps_seen else 0.0, "1")
    metrics["oracle.excess_max"] = (-traced.gap_min if traced.gaps_seen else 0.0, "1")
    traced_rate = n / traced.wall
    untraced_rate = n / untraced.wall
    metrics["trace.instances"] = (n, "count")
    metrics["trace.instances_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_instances_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1.0) * 100.0, "%")
    metrics["trace.coverage_gap_max_us"] = (max(coverage) * 1e6, "us")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def coverage_gaps(traced: Phase, per_instance: dict[int, float]) -> list[float]:
    """Per instance: measured latency minus the self times of its spans.

    The self times of one instance's spans add up to its root span, so the
    gap is only the loop's own bookkeeping around the root span: never
    negative, and small.
    """
    return [lat - per_instance.get(i, 0.0) for i, lat in enumerate(traced.latencies)]


def coverage_ok(traced: Phase, coverage: list[float]) -> bool:
    return all(
        0.0 <= gap <= max(COVERAGE_SLACK_S, 0.02 * lat)
        for gap, lat in zip(coverage, traced.latencies)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before launch")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit when the timed loop would begin")
    args = parser.parse_args(argv)

    if not Path(qnetmax.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qnetmax imported from {qnetmax.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.warmup()
    setup_s = (time.monotonic_ns() - args.launched_ns) / 1e9
    record = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            tracer = Tracer()
            untraced, traced = run_paired(workload, args.seconds, tracer)
            per_name, per_instance = fold(tracer.spans)
            coverage = coverage_gaps(traced, per_instance)
            record.update(summary(traced, workload))
            record["layers"] = layer_metrics(traced, untraced, per_name, coverage)
            record["paired_digest_match"] = traced.digest_every() == untraced.digest_every()
            record["coverage_ok"] = coverage_ok(traced, coverage)
        else:
            record.update(summary(run_phase(workload, args.seconds), workload))
        record["python"] = platform.python_version()
        record["numpy"] = np.__version__
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
