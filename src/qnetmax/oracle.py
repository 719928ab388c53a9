"""Numerical maximization of the network expressions over measurement settings.

Serves as an independent check on the closed-form criteria: every optimizer
returns a certificate pairing the best value found with the closed-form
maximum.  Each branch is parameterized by seven angles: two spherical angles
per outer-station direction plus three rotation angles fixing the central
station's orthonormal direction pair (joint measurability of the two bits
reported by the input-free central node forces that pair orthogonal — an
unconstrained pair would overshoot the closed form on states whose spectra
are not proportional).  The objective is maximized by deterministic
coordinate ascent, one angle at a time, batched across random restarts: the
mixing angle in closed form, each frame rotation by grid-seeded Newton steps
on the analytic first and second derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import criteria
from .correlations import (
    BilocalSettings,
    StarBranch,
    StarSettings,
    X_AXIS,
    Z_AXIS,
    bilocality_value,
    star_value,
    zx_diagonal_settings,
)
from .errors import (
    ClosedFormExceededError,
    EmptyNetworkError,
    NoConvergenceError,
    ValidationError,
)
from .qstate import TwoQubitState, correlation_matrix, unit_vector

_GRID_POINTS = 16
_GRID = (np.arange(_GRID_POINTS) + 0.5) * (2.0 * math.pi / _GRID_POINTS)
_MAX_STEP = math.pi / _GRID_POINTS
_NEWTON_STEPS = 5
# Smallest |u| whose square is a normal float: keeps |u|^(m-2) finite at a cusp.
_CUSP_FLOOR = math.sqrt(np.finfo(np.float64).tiny)
_STALL_CYCLES = 25
_DEGENERATE_TOL = 1e-14
_GAP_SLACK = 1e-7


@dataclass(frozen=True)
class OptimizerConfig:
    """Restart count, iteration cap, stop tolerance, and RNG seed."""

    restarts: int = 32
    max_iters: int = 500
    obj_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.obj_tol > 0.0:
            raise ValidationError(f"obj_tol must be positive, got {self.obj_tol}")


@dataclass(frozen=True)
class ChshSettings:
    """Two observables per side for the two-station CHSH test."""

    u0: np.ndarray
    u1: np.ndarray
    v0: np.ndarray
    v1: np.ndarray

    def __post_init__(self):
        for name in ("u0", "u1", "v0", "v1"):
            object.__setattr__(self, name, unit_vector(getattr(self, name)))


@dataclass(frozen=True)
class OptimumCertificate:
    """Best value found, the settings achieving it, and the closed-form target.

    gap = closed_form - best_value; a gap below -1e-7 means the settings beat
    the closed form and is rejected.  The CHSH and pair closed forms are
    maxima, so that flags an error; the star closed form is the paper's
    ``criteria.star_max``, which for n >= 3 is a stationary value below
    ``criteria.star_supremum`` on skewed sources, so there it records a
    genuine excess.
    """

    best_value: float
    best_settings: BilocalSettings | StarSettings | ChshSettings
    closed_form: float
    gap: float
    degenerate: bool = False

    def __post_init__(self):
        if self.gap < -_GAP_SLACK:
            raise ClosedFormExceededError(self.best_value, self.closed_form, self.gap)


def _unit_rows(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Row-normalize, substituting the matching fallback row where degenerate."""
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    small = norms < 1e-14
    out = v / np.where(small, 1.0, norms)
    return np.where(small, fallback, out)


def _perp_rows(w: np.ndarray) -> np.ndarray:
    """A unit row orthogonal to each unit row of w."""
    e = np.zeros_like(w)
    pick_x = np.abs(w[..., 0]) < 0.9
    e[..., 0] = np.where(pick_x, 1.0, 0.0)
    e[..., 1] = np.where(pick_x, 0.0, 1.0)
    p = e - np.sum(e * w, axis=-1, keepdims=True) * w
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


def _mixing_angle(cp_g0: np.ndarray, cq_g1: np.ndarray, n: int) -> np.ndarray:
    """Maximizer of |cp_g0 cos t|^(1/n) + |cq_g1 sin t|^(1/n), for weights >= 0.

    Setting the derivative to zero on [0, pi/2] gives
    tan t = (cq_g1 / cp_g0)^(1/(2n-1)).
    """
    k = 1.0 / (2 * n - 1)
    return np.arctan2(np.power(cq_g1, k), np.power(cp_g0, k))


def _frame_search(p, q, gx, yx, yp, m: float):
    """Maximize p|gx cos t|^m + q|yp cos t - yx sin t|^m over t, per restart.

    Both terms are powers of sinusoids, u = gx cos t and v = yp cos t - yx sin t,
    so with pu = p|u|^(m-2) and qv = q|v|^(m-2) the value is pu u^2 + qv v^2 and
    the first and second derivatives are m times pu u u' + qv v v' and
    pu((m-1)u'^2 - u^2) + qv((m-1)v'^2 - v^2).  The seed is the best point of a
    grid shifted by half a spacing, so that no seed sits on t = pi/2 or 3 pi/2:
    the cusps of the first term, where Newton steps stall.  Newton steps are
    clipped to half a spacing, and a non-concave point takes an uphill
    half-step instead.  Returns the best point visited and its value, each
    shaped like the inputs.
    """
    cos_t, sin_t = np.cos(_GRID)[:, None], np.sin(_GRID)[:, None]
    f_grid = p * np.abs(gx * cos_t) ** m + q * np.abs(yp * cos_t - yx * sin_t) ** m
    t = _GRID[np.argmax(f_grid, axis=0)]
    t_best = t
    f_best = np.full(np.shape(t), -math.inf)
    for step in range(_NEWTON_STEPS + 1):
        cos_t, sin_t = np.cos(t), np.sin(t)
        u = gx * cos_t
        v = yp * cos_t - yx * sin_t
        pu = p * np.maximum(np.abs(u), _CUSP_FLOOR) ** (m - 2.0)
        qv = q * np.maximum(np.abs(v), _CUSP_FLOOR) ** (m - 2.0)
        uu, vv = u * u, v * v
        f = pu * uu + qv * vv
        better = f > f_best
        t_best = np.where(better, t, t_best)
        f_best = np.where(better, f, f_best)
        if step == _NEWTON_STEPS:
            break
        du = -gx * sin_t
        dv = -yp * sin_t - yx * cos_t
        d1 = pu * u * du + qv * v * dv
        d2 = pu * ((m - 1.0) * du * du - uu) + qv * ((m - 1.0) * dv * dv - vv)
        concave = d2 < 0.0
        newton = np.clip(d1 / np.where(concave, -d2, 1.0), -_MAX_STEP, _MAX_STEP)
        t = t + np.where(concave, newton, np.copysign(0.5 * _MAX_STEP, d1))
    return t_best, f_best


class _ProductAscent:
    """Alternating maximization of |prod p_i|^(1/n) + |prod q_i|^(1/n).

    mats holds one 3x3 correlation matrix M per branch in branch-first order
    (outer qubit contracted on the left).  Each branch is parameterized the
    way the closed-form argument organizes it: a mixing angle alpha with
    outer directions a0/a1 = cos(alpha) n +- sin(alpha) n', an orthonormal
    outer frame (n, n'), and an orthonormal central frame (b0, b1) — central
    orthogonality being the joint-measurability constraint on the input-free
    middle station.  Branch factors are p = cos(alpha) n.M b0 and
    q = sin(alpha) n'.M b1.

    One cycle updates each branch by three exact one-dimensional searches:
    the central frame rotated within the plane spanned by (M^T n, M^T n'),
    the outer frame within the plane spanned by (M b0, M b1) — planes that
    contain the respective optimal frames — and the mixing angle.  Updates
    are accepted only when they improve, so the batched restart values are
    monotone.
    """

    def __init__(self, mats: Sequence[np.ndarray], config: OptimizerConfig):
        self.mats = [np.asarray(m, dtype=np.float64) for m in mats]
        self.n = len(self.mats)
        self.config = config
        restarts = config.restarts
        rng = np.random.default_rng(config.seed)
        self.alpha = 2.0 * math.pi * rng.random((restarts, self.n))
        fallback0 = np.zeros((restarts, self.n, 3))
        fallback0[..., 2] = 1.0
        raw = rng.standard_normal((restarts, self.n, 2, 3))
        self.n_out = _unit_rows(raw[:, :, 0, :], fallback0)
        self.np_out = self._complete_frame(self.n_out, raw[:, :, 1, :])
        raw = rng.standard_normal((restarts, self.n, 2, 3))
        self.b0 = _unit_rows(raw[:, :, 0, :], fallback0)
        self.b1 = self._complete_frame(self.b0, raw[:, :, 1, :])
        # Restart 0 starts from the singular frames of each branch matrix with
        # the mixing angle that is optimal for those frames; the remaining
        # restarts explore from random frames.  The structured start is just
        # another ascent seed — it wins only if nothing random beats it.
        s_top = np.empty((self.n, 2))
        for j, m in enumerate(self.mats):
            u, s, vt = np.linalg.svd(m)
            self.n_out[0, j, :] = u[:, 0]
            self.np_out[0, j, :] = u[:, 1]
            self.b0[0, j, :] = vt[0, :]
            self.b1[0, j, :] = vt[1, :]
            s_top[j] = s[:2]
        inv = 1.0 / self.n
        p_top = float(np.prod(s_top[:, 0])) ** inv
        q_top = float(np.prod(s_top[:, 1])) ** inv
        self.alpha[0, :] = math.atan2(q_top, p_top)
        # Branch factors g0 = n.M b0, g1 = n'.M b1 and the mixed p, q.
        self.g0 = np.empty((restarts, self.n))
        self.g1 = np.empty((restarts, self.n))
        self.p = np.empty((restarts, self.n))
        self.q = np.empty((restarts, self.n))
        for j in range(self.n):
            self._refresh_branch(j)
        self.val = self._combine(
            np.prod(np.abs(self.p), axis=1), np.prod(np.abs(self.q), axis=1)
        )
        self.converged = np.zeros(restarts, dtype=bool)
        self.iterations = 0

    @staticmethod
    def _complete_frame(first: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """Unit rows orthogonal to first, following raw where non-degenerate."""
        proj = raw - np.sum(raw * first, axis=-1, keepdims=True) * first
        return _unit_rows(proj, _perp_rows(first))

    def _combine(self, abs_prod_p: np.ndarray, abs_prod_q: np.ndarray) -> np.ndarray:
        inv = 1.0 / self.n
        return np.power(abs_prod_p, inv) + np.power(abs_prod_q, inv)

    def _refresh_branch(self, j: int) -> None:
        m = self.mats[j]
        self.g0[:, j] = np.sum((self.n_out[:, j, :] @ m) * self.b0[:, j, :], axis=-1)
        self.g1[:, j] = np.sum((self.np_out[:, j, :] @ m) * self.b1[:, j, :], axis=-1)
        self.p[:, j] = np.cos(self.alpha[:, j]) * self.g0[:, j]
        self.q[:, j] = np.sin(self.alpha[:, j]) * self.g1[:, j]

    def _side_products(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        others = [i for i in range(self.n) if i != j]
        if not others:
            ones = np.ones(self.config.restarts)
            return ones, ones
        return (
            np.prod(np.abs(self.p[:, others]), axis=1),
            np.prod(np.abs(self.q[:, others]), axis=1),
        )

    def _update_alpha(self, j: int) -> None:
        cp, cq = self._side_products(j)
        cp_g0 = cp * np.abs(self.g0[:, j])
        cq_g1 = cq * np.abs(self.g1[:, j])
        t_best = _mixing_angle(cp_g0, cq_g1, self.n)
        f_best = self._combine(cp_g0 * np.cos(t_best), cq_g1 * np.sin(t_best))
        accept = f_best > self.val
        self.alpha[:, j] = np.where(accept, t_best, self.alpha[:, j])
        self._refresh_branch(j)
        self.val = np.where(accept, f_best, self.val)

    def _update_frame(self, j: int, central: bool) -> None:
        cp, cq = self._side_products(j)
        m = self.mats[j]
        if central:
            x = self.n_out[:, j, :] @ m
            y = self.np_out[:, j, :] @ m
            old0, old1 = self.b0[:, j, :], self.b1[:, j, :]
        else:
            x = self.b0[:, j, :] @ m.T
            y = self.b1[:, j, :] @ m.T
            old0, old1 = self.n_out[:, j, :], self.np_out[:, j, :]
        inv = 1.0 / self.n
        scale_p = np.power(cp * np.abs(np.cos(self.alpha[:, j])), inv)
        scale_q = np.power(cq * np.abs(np.sin(self.alpha[:, j])), inv)

        # Orthonormal basis of the plane holding the optimal pair; fall back
        # to the current frame where the images are degenerate.
        e0 = _unit_rows(x, old0)
        y_perp = y - np.sum(y * e0, axis=-1, keepdims=True) * e0
        e1 = _unit_rows(y_perp, self._complete_frame(e0, old1))
        gx = np.linalg.norm(x, axis=-1)
        yx = np.sum(y * e0, axis=-1)
        yp = np.sum(y * e1, axis=-1)

        t_best, f_best = _frame_search(scale_p, scale_q, gx, yx, yp, inv)
        accept = f_best > self.val
        cos_b = np.cos(t_best)[:, None]
        sin_b = np.sin(t_best)[:, None]
        new0 = cos_b * e0 + sin_b * e1
        new1 = -sin_b * e0 + cos_b * e1
        keep = ~accept[:, None]
        if central:
            self.b0[:, j, :] = np.where(keep, old0, new0)
            self.b1[:, j, :] = np.where(keep, old1, new1)
        else:
            self.n_out[:, j, :] = np.where(keep, old0, new0)
            self.np_out[:, j, :] = np.where(keep, old1, new1)
        self._refresh_branch(j)
        self.val = np.where(accept, f_best, self.val)

    def run(self) -> None:
        best_seen = float(np.max(self.val))
        stall = 0
        for iteration in range(self.config.max_iters):
            val_prev = self.val.copy()
            for j in range(self.n):
                self._update_frame(j, central=True)
                self._update_frame(j, central=False)
                self._update_alpha(j)
            self.iterations = iteration + 1
            improvement = self.val - val_prev
            self.converged = improvement < self.config.obj_tol
            if bool(np.all(self.converged)):
                break
            # Laggard restarts stuck below an already-converged leader cannot
            # change the certificate; stop once the leader has been stable for
            # a full stall window.
            cur_best = float(np.max(self.val))
            if cur_best > best_seen + self.config.obj_tol:
                best_seen = cur_best
                stall = 0
            else:
                stall += 1
            if stall >= _STALL_CYCLES and bool(self.converged[self.best_index()]):
                break

    def best_index(self) -> int:
        return int(np.argmax(self.val))


def _is_degenerate(mats: Sequence[np.ndarray]) -> bool:
    return any(float(np.abs(m).max()) < _DEGENERATE_TOL for m in mats)


def _degenerate_certificate(settings, closed: float) -> OptimumCertificate:
    """Certificate for a source without correlations: every value is 0."""
    return OptimumCertificate(
        best_value=0.0,
        best_settings=settings,
        closed_form=closed,
        gap=closed,
        degenerate=True,
    )


def _certificate(
    kind: str, best: float, settings, closed: float, converged: bool, config: OptimizerConfig
) -> OptimumCertificate:
    """Certify the replayed best value; raise NoConvergenceError carrying it if unconverged."""
    cert = OptimumCertificate(
        best_value=best,
        best_settings=settings,
        closed_form=closed,
        gap=closed - best,
    )
    if not converged:
        raise NoConvergenceError(
            f"{kind} optimizer hit max_iters={config.max_iters} before tolerance "
            f"{config.obj_tol:g}; best value {best!r}, gap {cert.gap:.3e}",
            certificate=cert,
        )
    return cert


def _ascend(
    mats: Sequence[np.ndarray], config: OptimizerConfig
) -> tuple[list[tuple[np.ndarray, ...]], bool]:
    """Run the ascent: the best restart's per-branch (a0, a1, b0, b1) and its converged flag."""
    ascent = _ProductAscent(mats, config)
    ascent.run()
    idx = ascent.best_index()
    directions = []
    for j in range(ascent.n):
        cos_a = float(np.cos(ascent.alpha[idx, j]))
        sin_a = float(np.sin(ascent.alpha[idx, j]))
        n_vec = ascent.n_out[idx, j, :]
        np_vec = ascent.np_out[idx, j, :]
        a0 = cos_a * n_vec + sin_a * np_vec
        a1 = cos_a * n_vec - sin_a * np_vec
        directions.append((a0, a1, ascent.b0[idx, j, :], ascent.b1[idx, j, :]))
    return directions, bool(ascent.converged[idx])


def maximize_bilocality(
    state_ab: TwoQubitState,
    state_bc: TwoQubitState,
    config: OptimizerConfig | None = None,
) -> OptimumCertificate:
    """Maximize the pair-network value B over all measurement directions."""
    config = config or OptimizerConfig()
    closed = criteria.bilocality_max(state_ab, state_bc)
    t_ab = correlation_matrix(state_ab).t
    t_bc = correlation_matrix(state_bc).t
    mats = [t_ab, t_bc.T]
    if _is_degenerate(mats):
        return _degenerate_certificate(zx_diagonal_settings(), closed)
    ((a0, a1, ba0, ba1), (c0, c1, bc0, bc1)), converged = _ascend(mats, config)
    settings = BilocalSettings(
        a0=a0, a1=a1, bA0=ba0, bA1=ba1, bC0=bc0, bC1=bc1, c0=c0, c1=c1
    )
    best = bilocality_value(state_ab, state_bc, settings)[2]
    return _certificate("pair", best, settings, closed, converged, config)


def maximize_star(
    states: Sequence[TwoQubitState],
    config: OptimizerConfig | None = None,
) -> OptimumCertificate:
    """Maximize the n-branch star value N over all measurement directions.

    Branch states are ordered (outer qubit, central qubit).  The certificate's
    closed form is the paper's ``criteria.star_max``: equal to
    ``criteria.star_supremum`` for n = 2, but for n >= 3 a stationary value
    that skewed sources exceed, in which case the certificate is rejected
    with a ``ClosedFormExceededError`` carrying ``best_value`` and ``gap``.
    """
    states = list(states)
    if not states:
        raise EmptyNetworkError("star network needs at least one source state")
    if len(states) == 1:
        raise ValidationError("star maximization needs at least two sources; use maximize_chsh")
    config = config or OptimizerConfig()
    closed = criteria.star_max(states)
    mats = [correlation_matrix(s).t for s in states]
    if _is_degenerate(mats):
        zx = zx_diagonal_settings()
        branch = StarBranch(a0=zx.a0, a1=zx.a1, b0=zx.bA0, b1=zx.bA1)
        return _degenerate_certificate(StarSettings(branches=(branch,) * len(states)), closed)
    directions, converged = _ascend(mats, config)
    settings = StarSettings(
        branches=tuple(
            StarBranch(a0=a0, a1=a1, b0=b0, b1=b1) for a0, a1, b0, b1 in directions
        )
    )
    best = star_value(states, settings)[2]
    return _certificate("star", best, settings, closed, converged, config)


def chsh_value(state: TwoQubitState, settings: ChshSettings) -> float:
    """CHSH value |u0.T(v0+v1) + u1.T(v0-v1)| / 2 at explicit settings."""
    t = correlation_matrix(state).t
    s = settings
    return 0.5 * abs(float(s.u0 @ t @ (s.v0 + s.v1) + s.u1 @ t @ (s.v0 - s.v1)))


def maximize_chsh(
    state: TwoQubitState, config: OptimizerConfig | None = None
) -> OptimumCertificate:
    """Maximize the CHSH value by alternating closed-form side updates."""
    config = config or OptimizerConfig()
    closed = criteria.chsh_max(state)
    t = correlation_matrix(state).t
    if _is_degenerate([t]):
        return _degenerate_certificate(
            ChshSettings(u0=Z_AXIS, u1=X_AXIS, v0=Z_AXIS, v1=X_AXIS), closed
        )
    rng = np.random.default_rng(config.seed)
    fallback = np.array([0.0, 0.0, 1.0])
    u0 = _unit_rows(rng.standard_normal((config.restarts, 3)), fallback)
    u1 = _unit_rows(rng.standard_normal((config.restarts, 3)), fallback)
    v0 = u0
    v1 = u1
    val = np.zeros(config.restarts)
    converged = np.zeros(config.restarts, dtype=bool)
    for _ in range(config.max_iters):
        v0 = _unit_rows((u0 + u1) @ t, fallback)
        v1 = _unit_rows((u0 - u1) @ t, fallback)
        u0 = _unit_rows((v0 + v1) @ t.T, fallback)
        u1 = _unit_rows((v0 - v1) @ t.T, fallback)
        new_val = 0.5 * (
            np.linalg.norm((v0 + v1) @ t.T, axis=-1)
            + np.linalg.norm((v0 - v1) @ t.T, axis=-1)
        )
        converged = (new_val - val) < config.obj_tol
        val = new_val
        if bool(np.all(converged)):
            break
    idx = int(np.argmax(val))
    settings = ChshSettings(u0=u0[idx], u1=u1[idx], v0=v0[idx], v1=v1[idx])
    best = chsh_value(state, settings)
    return _certificate("CHSH", best, settings, closed, bool(converged[idx]), config)


def stationarity_tangents(settings) -> tuple[float, ...]:
    """Squared tangent of each outer station's half-angle between its settings.

    At a stationary point of the pair or star objective these agree across
    stations, which the test suites use as an optimality diagnostic.
    """
    if isinstance(settings, BilocalSettings):
        pairs = ((settings.a0, settings.a1), (settings.c0, settings.c1))
    elif isinstance(settings, StarSettings):
        pairs = tuple((br.a0, br.a1) for br in settings.branches)
    else:
        raise TypeError(f"unsupported settings type {type(settings).__name__}")
    out = []
    for v0, v1 in pairs:
        num = float(np.dot(v0 - v1, v0 - v1))
        den = float(np.dot(v0 + v1, v0 + v1))
        out.append(num / den if den > 1e-30 else math.inf)
    return tuple(out)
