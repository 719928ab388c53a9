"""Command-line interface: analyze, scan, verify, swap-sim.

Exit codes: 0 success, 1 verification-suite failure, 2 input error.
``analyze``, ``verify`` and ``swap-sim`` read --seed (default 0, overridable by
the QNETMAX_SEED environment variable when the flag is absent); ``scan`` has no
randomness and reads neither.  stdout is byte-identical for identical flags and
seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings

import numpy as np

from . import criteria, jacobi
from .classify import classify_values, colored_scan, rows_to_csv, violates, werner_scan
from .correlations import zx_diagonal_settings
from .errors import (
    ClosedFormExceededError,
    NoConvergenceError,
    QnetmaxError,
    SettingsFormatError,
    UnknownSuiteError,
)
from .oracle import OptimizerConfig, maximize_bilocality, maximize_star
from .qstate import (
    correlation_matrix,
    load_json,
    load_state,
    random_state,
    random_unit_vector,
)
from .swap import (
    bilocality_from_bsm,
    bsm_distribution,
    distribution_to_csv,
    swap_settings_from_json,
    theorem1_check,
)

ENV_SEED = "QNETMAX_SEED"


def _sig15(x):
    """Round floats to 15 significant digits, recursively, for stable JSON."""
    if isinstance(x, float):
        return float(f"{x:.15g}")
    if isinstance(x, dict):
        return {k: _sig15(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig15(v) for v in x]
    return x


def _emit_json(report: dict) -> None:
    print(json.dumps(_sig15(report), indent=2))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise QnetmaxError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return 0


# Largest scan grid (both axes together): every point becomes one CSV row.
_MAX_GRID_POINTS = 100_000


def _grid_axis(text: str) -> list[float]:
    """The points start, start + step, ... of one start:stop:step range, none past stop."""
    parts = text.split(":")
    if len(parts) != 3:
        raise QnetmaxError(f"grid range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise QnetmaxError(f"grid range has non-numeric component: {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise QnetmaxError(f"grid range has non-finite component: {text!r}")
    if step <= 0:
        raise QnetmaxError(f"grid step must be positive, got {step:g}")
    if stop < start:
        raise QnetmaxError(f"grid stop {stop:g} below start {start:g}")
    steps = (stop - start) / step
    if not steps < _MAX_GRID_POINTS:
        raise QnetmaxError(
            f"grid range {text!r} exceeds the limit of {_MAX_GRID_POINTS} points"
        )
    values = [start + i * step for i in range(math.floor(steps + 1e-9) + 1)]
    values[-1] = min(values[-1], stop)
    return values


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    seed = _resolve_seed(args)
    states = [load_state(path) for path in args.states]
    net = criteria.network_report(states)
    links = [
        {
            "label": state.label or os.path.basename(path),
            "t_spectrum": list(sp.as_tuple()),
            "chsh_max": s_max,
            "chsh_violated": violates(s_max),
        }
        for path, state, sp, s_max in zip(args.states, states, net.spectra, net.chsh_per_link)
    ]
    report = {"seed": seed, "n_sources": len(states), "links": links}
    joint = net.biloc_or_star
    if joint is not None:
        report["star_max"] = joint
        report["nonbilocal"] = violates(joint)
        if len(states) == 2:
            report["bilocality_max"] = joint
            report["flags"] = dataclasses.asdict(classify_values(*net.chsh_per_link, joint))
    _emit_json(report)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def cmd_scan(args) -> int:
    ranges = args.grid.split(",")
    if len(ranges) not in (1, 2):
        raise QnetmaxError(f"--grid takes one or two ranges, got {len(ranges)}")
    axes = [_grid_axis(text) for text in ranges]
    first, second = axes[0], axes[-1]  # one range makes a square grid
    points = len(first) * len(second)
    if points > _MAX_GRID_POINTS:
        raise QnetmaxError(
            f"--grid has {points} points, above the limit of {_MAX_GRID_POINTS} points"
        )
    grid = [(a, b) for a in first for b in second]
    scan = werner_scan if args.family == "werner" else colored_scan
    sys.stdout.write(rows_to_csv(scan(grid)))
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _instance_seeds(seed: int, instances: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**62, size=instances)]


def _max_residual(key: str, tol: float, residuals) -> dict:
    """The worst residual under ``key``, the count of those above tol, and the verdict."""
    worst = 0.0
    failures = 0
    for diff in residuals:
        worst = max(worst, diff)
        failures += not diff <= tol
    return {key: worst, "tolerance": tol, "failures": failures, "pass": failures == 0}


def _suite_theorem1(seed: int, instances: int, restarts: int) -> dict:
    rng = np.random.default_rng(seed)

    def residuals():
        for inst_seed in _instance_seeds(seed, instances):
            dirs = [random_unit_vector(rng) for _ in range(4)]
            yield theorem1_check(random_state(inst_seed), random_state(inst_seed + 1), *dirs)

    return _max_residual("max_correlator_diff", 1e-12, residuals())


_COMPLETENESS_TOL = 1e-4
_SOUNDNESS_TOL = 1e-7


def _gap_suite(seed: int, instances: int, restarts: int, maximize) -> dict:
    """Certify maximize(i, inst_seed, config) on every instance and judge its gap.

    A non-converged run still certifies its best value, so its gap is judged
    against the same bounds.  A value beyond the closed form surfaces as the
    certificate's rejection, a ``ClosedFormExceededError`` whose gap is
    counted as an overshoot instead of aborting the whole suite.
    """
    worst_gap = -math.inf
    min_gap = math.inf
    failures = 0
    overshoots = 0
    nonconverged = 0
    for i, inst_seed in enumerate(_instance_seeds(seed, instances)):
        config = OptimizerConfig(restarts=restarts, seed=inst_seed)
        try:
            gap = maximize(i, inst_seed, config).gap
        except NoConvergenceError as exc:
            gap = exc.certificate.gap
            nonconverged += 1
        except ClosedFormExceededError as exc:
            gap = exc.gap
            overshoots += 1
        worst_gap = max(worst_gap, gap)
        min_gap = min(min_gap, gap)
        if gap > _COMPLETENESS_TOL or gap < -_SOUNDNESS_TOL:
            failures += 1
    return {
        "restarts": restarts,
        "max_gap": worst_gap,
        "min_gap": min_gap,
        "tolerance": _COMPLETENESS_TOL,
        "soundness_tolerance": _SOUNDNESS_TOL,
        "overshoots": overshoots,
        "nonconverged": nonconverged,
        "failures": failures,
        "pass": failures == 0,
    }


def _suite_theorem3(seed: int, instances: int, restarts: int) -> dict:
    def maximize(i, inst_seed, config):
        return maximize_bilocality(random_state(inst_seed), random_state(inst_seed + 1), config)

    return _gap_suite(seed, instances, restarts, maximize)


def _suite_theorem4(seed: int, instances: int, restarts: int) -> dict:
    def maximize(i, inst_seed, config):
        n = 3 if i % 2 == 0 else 4
        return maximize_star([random_state(inst_seed + j) for j in range(n)], config)

    return _gap_suite(seed, instances, restarts, maximize)


def _suite_lemma2(seed: int, instances: int, restarts: int) -> dict:
    rng = np.random.default_rng(seed)

    def residuals():
        for _ in range(instances):
            m = rng.uniform(-1.0, 1.0, size=(3, 3))
            left = jacobi.eigvalsh_symmetric(m.T @ m)
            right = jacobi.eigvalsh_symmetric(m @ m.T)
            mask = (left > 1e-10) | (right > 1e-10)
            if bool(np.any(mask)):
                yield float(np.abs(left - right)[mask].max())

    return _max_residual("max_eigenvalue_diff", 1e-9, residuals())


def _suite_lemma4(seed: int, instances: int, restarts: int) -> dict:
    lo = math.inf
    hi = -math.inf
    failures = 0
    for inst_seed in _instance_seeds(seed, instances):
        sp = criteria.t_spectrum(correlation_matrix(random_state(inst_seed)))
        lo = min(lo, sp.t3)
        hi = max(hi, sp.t1)
        failures += not (sp.t3 >= 0.0 and sp.t1 <= 1.0 + 1e-9)
    return {
        "min_t": lo,
        "max_t": hi,
        "tolerance": 1e-9,
        "failures": failures,
        "pass": failures == 0,
    }


def _suite_prop1(seed: int, instances: int, restarts: int) -> dict:
    worst = -math.inf
    failures = 0
    for inst_seed in _instance_seeds(seed, instances):
        state_ab = random_state(inst_seed)
        state_bc = random_state(inst_seed + 1)
        s_ab = criteria.chsh_max(state_ab)
        s_bc = criteria.chsh_max(state_bc)
        b_max = criteria.bilocality_max(state_ab, state_bc)
        worst = max(worst, b_max**2 - s_ab * s_bc)
        if s_ab <= 1.0 and s_bc <= 1.0 and b_max > 1.0 + 1e-12:
            failures += 1
    ok = failures == 0 and worst <= 1e-12
    return {
        "max_b2_minus_product": worst,
        "tolerance": 1e-12,
        "failures": failures,
        "pass": ok,
    }


# Most instances and oracle restarts one verify run takes: both size arrays up front.
_MAX_INSTANCES = 1_000_000
_MAX_RESTARTS = 10_000

_SUITES = {
    "theorem1": _suite_theorem1,
    "theorem3": _suite_theorem3,
    "theorem4": _suite_theorem4,
    "lemma2": _suite_lemma2,
    "lemma4": _suite_lemma4,
    "prop1": _suite_prop1,
}


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    if args.suite not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {args.suite!r}; expected one of {sorted(_SUITES)}"
        )
    if not 1 <= args.instances <= _MAX_INSTANCES:
        raise QnetmaxError(
            f"--instances must be >= 1 and <= {_MAX_INSTANCES}, got {args.instances}"
        )
    if not 1 <= args.restarts <= _MAX_RESTARTS:
        raise QnetmaxError(
            f"--restarts must be >= 1 and <= {_MAX_RESTARTS}, got {args.restarts}"
        )
    if seed < 0:
        raise QnetmaxError(f"the seed must be >= 0, got {seed}")
    summary = _SUITES[args.suite](seed, args.instances, args.restarts)
    report = {"seed": seed, "suite": args.suite, "instances": args.instances, **summary}
    _emit_json(report)
    return 0 if summary["pass"] else 1


# ---------------------------------------------------------------------------
# swap-sim
# ---------------------------------------------------------------------------


def cmd_swap_sim(args) -> int:
    seed = _resolve_seed(args)
    state_ab = load_state(args.state_ab)
    state_bc = load_state(args.state_bc)
    if args.settings is not None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            a0, a1, c0, c1 = load_json(args.settings, swap_settings_from_json, SettingsFormatError)
        for warning in caught:
            print(f"warning: {args.settings}: {warning.message}", file=sys.stderr)
        settings_label = os.path.basename(args.settings)
    else:
        print(
            "notice: no settings file given; using default zx-diagonal settings",
            file=sys.stderr,
        )
        defaults = zx_diagonal_settings()
        a0, a1, c0, c1 = defaults.a0, defaults.a1, defaults.c0, defaults.c1
        settings_label = "default-zx-diagonal"
    dist = bsm_distribution(state_ab, state_bc, a0, a1, c0, c1)
    sys.stdout.write(distribution_to_csv(dist))
    i_val, j_val, b_val = bilocality_from_bsm(dist)
    print()
    _emit_json(
        {
            "seed": seed,
            "settings": settings_label,
            "I": i_val,
            "J": j_val,
            "B": b_val,
            "bilocality_violated": violates(b_val),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetmax",
        description="Maximal quantum violations of bilocality and star-network "
        "nonlocality tests for two-qubit sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="closed-form maxima for one or more sources")
    p_analyze.add_argument("states", nargs="+", metavar="state.json")
    p_analyze.add_argument("--seed", type=int, default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_scan = sub.add_parser("scan", help="classify a parameter grid of a noise family")
    p_scan.add_argument("--family", choices=("werner", "colored"), required=True)
    p_scan.add_argument(
        "--grid",
        required=True,
        metavar="start:stop:step[,start:stop:step]",
        help="one range makes a square grid; two ranges give each axis",
    )
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--instances", type=int, default=100)
    p_verify.add_argument("--restarts", type=int, default=32)
    p_verify.set_defaults(func=cmd_verify)

    p_swap = sub.add_parser("swap-sim", help="Bell-state-measurement simulation of a source pair")
    p_swap.add_argument("state_ab", metavar="stateAB.json")
    p_swap.add_argument("state_bc", metavar="stateBC.json")
    p_swap.add_argument("--settings", default=None, metavar="settings.json")
    p_swap.add_argument("--seed", type=int, default=None)
    p_swap.set_defaults(func=cmd_swap_sim)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QnetmaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
