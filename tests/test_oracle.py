"""Numerical optimizer: certificates, benchmarks, and soundness/completeness."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from conftest import (
    COUNTEREXAMPLE_B_MAX,
    SQRT2,
    bell_diagonal_state,
    counterexample_pair,
    skewed_triple as _skewed_triple,
)
from qnetmax.correlations import (
    StarBranch,
    StarSettings,
    star_value,
    zx_diagonal_settings,
)
from qnetmax.criteria import star_max
from qnetmax.errors import (
    ClosedFormExceededError,
    EmptyNetworkError,
    NoConvergenceError,
    QnetmaxError,
    ValidationError,
)
from qnetmax.oracle import (
    ChshSettings,
    OptimizerConfig,
    OptimumCertificate,
    chsh_value,
    maximize_bilocality,
    maximize_chsh,
    maximize_star,
    stationarity_tangents,
)
from qnetmax.oracle import _frame_search, _mixing_angle
from qnetmax.qstate import (
    bell_state,
    make_state,
    random_state,
    swap_qubits,
    werner_state,
)

SINGLET = bell_state("psi-")
MIXED = make_state(np.eye(4) / 4.0)
FAST = OptimizerConfig(restarts=8)


# ---------------------------------------------------------------------------
# Config and certificate types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [{"restarts": 0}, {"max_iters": 0}, {"obj_tol": 0.0}, {"obj_tol": -1e-9}],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValidationError):
        OptimizerConfig(**kwargs)


def test_certificate_rejects_value_above_closed_form():
    with pytest.raises(ClosedFormExceededError, match="exceeds closed form") as info:
        OptimumCertificate(
            best_value=1.1,
            best_settings=zx_diagonal_settings(),
            closed_form=1.0,
            gap=-0.1,
        )
    assert info.value.gap == pytest.approx(-0.1)
    assert info.value.best_value == pytest.approx(1.1)
    assert info.value.closed_form == pytest.approx(1.0)


def test_certificate_tolerates_tiny_overshoot():
    cert = OptimumCertificate(
        best_value=1.0 + 5e-8,
        best_settings=zx_diagonal_settings(),
        closed_form=1.0,
        gap=-5e-8,
    )
    assert cert.gap == pytest.approx(-5e-8)


# ---------------------------------------------------------------------------
# Pair-network benchmarks
# ---------------------------------------------------------------------------


def test_two_singlets_reach_root_two():
    cert = maximize_bilocality(SINGLET, SINGLET, FAST)
    assert cert.best_value == pytest.approx(SQRT2, abs=1e-9)
    assert abs(cert.gap) < 1e-9
    assert not cert.degenerate


def test_counterexample_pair_benchmark():
    cert = maximize_bilocality(*counterexample_pair(), FAST)
    assert cert.best_value == pytest.approx(COUNTEREXAMPLE_B_MAX, abs=1e-9)


def test_werner_pair_benchmark():
    cert = maximize_bilocality(werner_state(0.8), werner_state(0.9), FAST)
    assert cert.best_value == pytest.approx(1.2, abs=1e-9)


def test_optimizer_is_deterministic():
    a = maximize_bilocality(werner_state(0.9), werner_state(0.8), FAST)
    b = maximize_bilocality(werner_state(0.9), werner_state(0.8), FAST)
    assert a.best_value == b.best_value
    assert a.gap == b.gap
    for field in ("a0", "a1", "bA0", "bA1", "bC0", "bC1", "c0", "c1"):
        assert np.array_equal(
            getattr(a.best_settings, field), getattr(b.best_settings, field)
        )


def _settings_digest(settings) -> str:
    """First 16 hex digits of the sha256 of every settings direction's bytes."""
    if isinstance(settings, StarSettings):
        parts = [v for br in settings.branches for v in (br.a0, br.a1, br.b0, br.b1)]
    else:
        parts = [getattr(settings, f.name) for f in dataclasses.fields(settings)]
    return hashlib.sha256(np.concatenate(parts).tobytes()).hexdigest()[:16]


# Pinned results of the ascent at its default 32 restarts: the best value and
# the settings digest, since a change can move a settings bit and keep the
# value.  The test ids name the seed and value only.
_PAIR_PINS = [
    (11, "0x1.a6540d08e51f2p-1", "98ce57c86d732d25"),
    (2024, "0x1.1fcbe53ecc471p-1", "97e365cf5aa5c17e"),
    (987654321, "0x1.379c8d5311910p-1", "ea1cfd00b5481ea7"),
]
_STAR_PINS = [
    (11, 3, "0x1.6f9d0b97c3da1p-1", "f1ad0703ca6c4914"),
    (2024, 4, "0x1.4014e2e18ebc4p-1", "632a29c3c102d8e5"),
    (987654321, 3, "0x1.45169d35a9618p-1", "f62e284549bc3f6d"),
]


@pytest.mark.parametrize(
    "seed,value_hex,digest", _PAIR_PINS, ids=[f"{s}-{v}" for s, v, _ in _PAIR_PINS]
)
def test_pair_optimum_is_bit_stable(seed, value_hex, digest):
    # A refactor of _ProductAscent that reorders no arithmetic keeps these to
    # the last bit.
    cert = maximize_bilocality(
        random_state(seed), random_state(seed + 1), OptimizerConfig(seed=seed)
    )
    assert cert.best_value.hex() == value_hex
    assert _settings_digest(cert.best_settings) == digest


@pytest.mark.parametrize(
    "seed,n,value_hex,digest", _STAR_PINS, ids=[f"{s}-{n}-{v}" for s, n, v, _ in _STAR_PINS]
)
def test_star_optimum_is_bit_stable(seed, n, value_hex, digest):
    cert = maximize_star(
        [random_state(seed + j) for j in range(n)], OptimizerConfig(seed=seed)
    )
    assert cert.best_value.hex() == value_hex
    assert _settings_digest(cert.best_settings) == digest


@pytest.mark.parametrize(
    "seed,value_hex",
    [
        (11, "0x1.bf6562f04b31cp-1"),
        (2024, "0x1.ee28883c24f00p-2"),
        (987654321, "0x1.4923866c9a4a4p-1"),
    ],
)
def test_chsh_optimum_is_bit_stable(seed, value_hex):
    cert = maximize_chsh(random_state(seed), OptimizerConfig(seed=seed))
    assert cert.best_value.hex() == value_hex


def test_non_convergence_message_is_pinned():
    with pytest.raises(NoConvergenceError) as info:
        maximize_chsh(random_state(5), OptimizerConfig(restarts=4, max_iters=1, seed=3))
    assert str(info.value) == (
        "CHSH optimizer hit max_iters=1 before tolerance 1e-10; "
        "best value 0.7178051571765423, gap 3.785e-02"
    )


def test_structured_restart_is_optimal_after_one_cycle():
    # Restart 0 starts from the singular frames with the jointly optimal
    # mixing angle; for a pair network that point is already the maximum, so
    # even max_iters=1 returns a converged certificate with zero gap.
    cert = maximize_bilocality(
        werner_state(0.9), werner_state(0.9), OptimizerConfig(restarts=8, max_iters=1)
    )
    assert cert.best_value == pytest.approx(math.sqrt(1.62), abs=1e-12)
    assert cert.gap == 0.0


def test_returned_settings_reproduce_best_value():
    from qnetmax.correlations import bilocality_value

    s1, s2 = counterexample_pair()
    cert = maximize_bilocality(s1, s2, FAST)
    replay = bilocality_value(s1, s2, cert.best_settings)[2]
    assert replay == pytest.approx(cert.best_value, abs=1e-14)


# ---------------------------------------------------------------------------
# Degenerate sources
# ---------------------------------------------------------------------------


def test_pair_with_mixed_source_is_degenerate():
    cert = maximize_bilocality(MIXED, werner_state(0.9), FAST)
    assert cert.degenerate
    assert cert.best_value == 0.0
    assert cert.closed_form == 0.0


def test_star_with_mixed_source_is_degenerate():
    cert = maximize_star([werner_state(0.9), MIXED, werner_state(0.9)], FAST)
    assert cert.degenerate
    assert cert.best_value == 0.0
    assert cert.closed_form == 0.0
    assert len(cert.best_settings.branches) == 3


def test_chsh_with_mixed_source_is_degenerate():
    cert = maximize_chsh(MIXED, FAST)
    assert cert.degenerate
    assert cert.best_value == 0.0


# ---------------------------------------------------------------------------
# Star networks
# ---------------------------------------------------------------------------


def test_star_of_two_matches_pair_bitwise():
    s1 = werner_state(0.85)
    s2 = bell_diagonal_state(0.7, 0.1, 0.15, 0.05)
    pair = maximize_bilocality(s1, s2, FAST)
    star = maximize_star([s1, swap_qubits(s2)], FAST)
    assert star.best_value == pytest.approx(pair.best_value, abs=1e-12)
    assert star.closed_form == pytest.approx(pair.closed_form, abs=1e-14)


def test_three_singlets_reach_root_two():
    cert = maximize_star([SINGLET, SINGLET, SINGLET], FAST)
    assert cert.best_value == pytest.approx(SQRT2, abs=1e-9)
    assert abs(cert.gap) < 1e-9


def test_empty_star_raises():
    with pytest.raises(EmptyNetworkError):
        maximize_star([])


def test_single_branch_star_redirects_to_chsh():
    with pytest.raises(ValueError, match="use maximize_chsh") as info:
        maximize_star([werner_state(0.9)])
    assert isinstance(info.value, QnetmaxError)


# ---------------------------------------------------------------------------
# The three-branch closed form is not always attainable from above
# ---------------------------------------------------------------------------


def test_explicit_settings_exceed_three_branch_closed_form():
    states = _skewed_triple()
    closed = star_max(states)
    s = math.sqrt(0.5)
    half = math.pi / 4.0
    ca, sa = math.cos(half), math.sin(half)
    n1, n1p = np.array([s, s, 0.0]), np.array([-s, s, 0.0])
    branch1 = StarBranch(a0=ca * n1 + sa * n1p, a1=ca * n1 - sa * n1p, b0=n1, b1=n1p)
    x_dir, y_dir = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    branch_iso = StarBranch(
        a0=ca * x_dir + sa * y_dir, a1=ca * x_dir - sa * y_dir, b0=x_dir, b1=y_dir
    )
    value = star_value(states, StarSettings(branches=(branch1, branch_iso, branch_iso)))[2]
    assert value == pytest.approx(SQRT2 * 0.405 ** (1.0 / 3.0), abs=1e-12)
    assert value > closed + 0.02


def test_optimizer_detects_the_same_excess():
    with pytest.raises(ClosedFormExceededError, match="exceeds closed form") as info:
        maximize_star(_skewed_triple(), FAST)
    assert info.value.gap < -0.02
    assert info.value.best_value == pytest.approx(
        SQRT2 * 0.405 ** (1.0 / 3.0), abs=1e-9
    )


# ---------------------------------------------------------------------------
# Non-convergence reporting
# ---------------------------------------------------------------------------


def test_chsh_non_convergence_carries_certificate():
    with pytest.raises(NoConvergenceError) as info:
        maximize_chsh(SINGLET, OptimizerConfig(restarts=4, max_iters=1))
    cert = info.value.certificate
    assert cert is not None
    assert cert.best_value == pytest.approx(SQRT2, abs=1e-9)


def test_pair_non_convergence_carries_certificate():
    tight = OptimizerConfig(restarts=4, max_iters=1, obj_tol=1e-18)
    with pytest.raises(NoConvergenceError) as info:
        maximize_bilocality(random_state(11), random_state(12), tight)
    assert info.value.certificate.gap == pytest.approx(0.0, abs=1e-9)


def test_star_non_convergence_carries_certificate():
    tight = OptimizerConfig(restarts=4, max_iters=1, obj_tol=1e-18)
    with pytest.raises(NoConvergenceError) as info:
        maximize_star([random_state(11), random_state(12), random_state(13)], tight)
    assert info.value.certificate.gap == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Two-station CHSH oracle
# ---------------------------------------------------------------------------


def test_chsh_singlet():
    cert = maximize_chsh(SINGLET, FAST)
    assert cert.best_value == pytest.approx(SQRT2, abs=1e-9)


def test_chsh_werner_half():
    cert = maximize_chsh(werner_state(0.5), FAST)
    assert cert.best_value == pytest.approx(0.5 * SQRT2, abs=1e-9)


def test_chsh_counterexample_first_state():
    state, _ = counterexample_pair()
    cert = maximize_chsh(state, FAST)
    assert cert.best_value == pytest.approx(math.sqrt(1.04), abs=1e-9)


def test_chsh_value_at_reference_settings():
    s = 1.0 / SQRT2
    settings = ChshSettings(
        u0=(0.0, 0.0, 1.0), u1=(1.0, 0.0, 0.0), v0=(s, 0.0, s), v1=(-s, 0.0, s)
    )
    assert chsh_value(SINGLET, settings) == pytest.approx(SQRT2, abs=1e-12)


# ---------------------------------------------------------------------------
# Stationarity diagnostic
# ---------------------------------------------------------------------------


def test_pair_optimum_equalizes_half_angle_tangents():
    cert = maximize_bilocality(*counterexample_pair(), FAST)
    tan_a, tan_c = stationarity_tangents(cert.best_settings)
    assert tan_a == pytest.approx(tan_c, abs=1e-4)


def test_star_optimum_equalizes_half_angle_tangents():
    cert = maximize_star(
        [werner_state(0.9), werner_state(0.8), werner_state(0.7)], FAST
    )
    tangents = stationarity_tangents(cert.best_settings)
    assert len(tangents) == 3
    for t in tangents[1:]:
        assert t == pytest.approx(tangents[0], abs=1e-4)


def test_stationarity_rejects_foreign_types():
    with pytest.raises(TypeError, match="unsupported settings type"):
        stationarity_tangents({"a0": (0, 0, 1)})


# ---------------------------------------------------------------------------
# Line searches against test-only references
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_line_max(f, restarts, grid_points=16, steps=30):
    """Reference line search: best of an unshifted grid, then golden section.

    f maps an angle array shaped (..., restarts) to values of the same shape;
    returns the best value found per restart.
    """
    grid = np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False)
    t_all = np.broadcast_to(grid[:, None], (grid_points, restarts))
    f_all = f(t_all)
    best = np.argmax(f_all, axis=0)
    cols = np.arange(restarts)
    t0 = t_all[best, cols]
    f0 = f_all[best, cols]
    delta = 2.0 * math.pi / grid_points
    lo, hi = t0 - delta, t0 + delta
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(steps):
        take1 = f1 >= f2
        lo = np.where(take1, lo, x1)
        hi = np.where(take1, x2, hi)
        x1n = hi - _GOLDEN * (hi - lo)
        x2n = lo + _GOLDEN * (hi - lo)
        f_eval = f(np.where(take1, x1n, x2n))
        f1, f2 = np.where(take1, f_eval, f2), np.where(take1, f1, f_eval)
        x1, x2 = x1n, x2n
    return np.maximum(f(0.5 * (lo + hi)), f0)


def _frame_objective(p, q, gx, yx, yp, m):
    def f(t):
        return p * np.abs(gx * np.cos(t)) ** m + q * np.abs(
            yp * np.cos(t) - yx * np.sin(t)
        ) ** m

    return f


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_search_reaches_the_golden_reference(n):
    rng = np.random.default_rng(400 + n)
    m = 1.0 / n
    worst = -math.inf
    for _ in range(300):
        p, q, gx = rng.random((3, 32))
        yx, yp = rng.standard_normal((2, 32))
        f = _frame_objective(p, q, gx, yx, yp, m)
        t_best, f_best = _frame_search(p, q, gx, yx, yp, m)
        np.testing.assert_allclose(f(t_best), f_best, rtol=0.0, atol=1e-14)
        worst = max(worst, float(np.max(_golden_line_max(f, 32) - f_best)))
    assert worst <= 1e-12


def test_frame_search_handles_vanishing_terms():
    # Zero weights, a zero first image and a zero second image, where the
    # Newton terms |u|^(m-2) would be infinite without the cusp floor.
    p = np.array([0.0, 0.7, 0.7, 0.0, 0.4])
    q = np.array([0.6, 0.0, 0.6, 0.0, 0.9])
    gx = np.array([0.8, 0.8, 0.0, 0.8, 0.5])
    yx = np.array([-0.3, 0.4, 0.2, 0.1, 0.0])
    yp = np.array([0.5, 0.2, -0.9, 0.3, 0.0])
    f = _frame_objective(p, q, gx, yx, yp, 0.5)
    t_best, f_best = _frame_search(p, q, gx, yx, yp, 0.5)
    assert np.all(np.isfinite(t_best))
    np.testing.assert_allclose(f_best, _golden_line_max(f, 5), rtol=0.0, atol=1e-12)


def test_frame_search_seeds_off_the_cusp():
    # The second term dominates, so the best point of the unshifted grid is
    # t = pi/2 (or 3 pi/2, its tie): the cusp of the first term, where
    # |u|^(m-2) explodes and Newton steps stall.  The maximum lies 7.7
    # degrees away and 0.0138 higher.
    p, q, gx, yx, yp = (np.array([v]) for v in (0.05, 1.0, 1.0, -1.0, 0.0))
    f = _frame_objective(p, q, gx, yx, yp, 0.5)
    unshifted = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    assert abs(math.cos(unshifted[np.argmax(f(unshifted))])) < 1e-15
    t_best, f_best = _frame_search(p, q, gx, yx, yp, 0.5)
    assert f_best[0] >= _golden_line_max(f, 1)[0] - 1e-12
    assert f_best[0] > f(math.pi / 2.0)[0] + 0.01


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mixing_angle_reaches_a_dense_grid(n):
    # |cos t| and |sin t| repeat every pi/2 up to reflection, so a grid on
    # [0, pi/2] covers the whole circle.
    rng = np.random.default_rng(500 + n)
    m = 1.0 / n
    grid = np.linspace(0.0, 0.5 * math.pi, 100_000)
    curve = np.stack([np.cos(grid) ** m, np.sin(grid) ** m])
    for _ in range(300):
        cp_g0, cq_g1 = rng.random((2, 32))
        t = _mixing_angle(cp_g0, cq_g1, n)
        value = np.abs(cp_g0 * np.cos(t)) ** m + np.abs(cq_g1 * np.sin(t)) ** m
        weights = np.stack([cp_g0**m, cq_g1**m], axis=1)
        for lo in range(0, 32, 4):  # blocks of 4 keep each product 3 MB
            dense = (weights[lo : lo + 4] @ curve).max(axis=1)
            assert np.all(value[lo : lo + 4] >= dense - 1e-12)


# ---------------------------------------------------------------------------
# Small-scale soundness and completeness sweep
# ---------------------------------------------------------------------------


def test_twenty_random_pairs_bracket_the_closed_form():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        s1 = random_state(int(rng.integers(0, 2**31)))
        s2 = random_state(int(rng.integers(0, 2**31)))
        cert = maximize_bilocality(s1, s2)
        assert -1e-7 <= cert.gap <= 1e-4
