"""Closed-form maximal-violation criteria from the correlation spectrum.

Every quantity here depends on a source only through the descending
eigenvalues (t1, t2, t3) of T^T T, where T is the Pauli correlation matrix.
All maxima are over projective qubit measurements; the classical bound for
each expression is 1.

The n-branch star supremum
--------------------------
``star_max`` is the paper's formula sqrt((prod t1)^(1/n) + (prod t2)^(1/n)).
For n <= 2 it is the maximum; for n >= 3 it is a stationary value that a
skewed branch can beat.  ``star_supremum`` computes the true supremum:

1. Write a0/a1 = cos(alpha) n +- sin(alpha) n' for each outer station, with
   (n, n') and the central pair (b0, b1) orthonormal.  Branch j contributes
   the factors g0 = n.T b0 and g1 = n'.T b1.  With s1 >= s2 the two largest
   singular values of T, von Neumann's trace inequality gives
   |g0| + |g1| <= s1 + s2, and |g0|, |g1| <= s1.  Rotating both frames by
   one angle phi inside the top singular plane gives
   g0 = s1 cos^2 phi + s2 sin^2 phi and g1 = s1 sin^2 phi + s2 cos^2 phi:
   the whole segment from (s1, s2) to (s2, s1), which dominates every other
   reachable pair because N grows with each |g|.
2. For fixed factors, N = prod(cos alpha_j g0_j)^(1/n)
   + prod(sin alpha_j g1_j)^(1/n).  Holder's inequality and Cauchy-Schwarz
   bound it by sqrt(G0^2 + G1^2) with G = prod(|g|)^(1/n), reached by one
   common angle tan(alpha) = G1/G0.
3. So N_sup^2 is the maximum of prod(x_j)^(2/n) + prod(y_j)^(2/n) over
   x_j + y_j = s1_j + s2_j, x_j in [s2_j, s1_j].  Parametrize each branch by
   its share w_j = y_j/(x_j + y_j) in [s2_j, s1_j]/(s1_j + s2_j).  At a KKT
   point every branch not on its bounds has the same ratio y/x, so the
   maximum lies on the curve w_j = clip(w, lo_j, hi_j) for one common w.
   Between consecutive breakpoints the objective is
   A (1 - w)^m + B w^m, up to a constant, with m = 2k/n for k unclipped
   branches: convex for m >= 1 (maximum at a breakpoint) and concave for
   m < 1, with its peak at w/(1 - w) = (B/A)^(1/(1 - m)).  Evaluating the
   breakpoints and these peaks gives the supremum exactly.

``star_witness_settings`` turns the optimal shares back into explicit
settings (step 1's frames, step 2's angle) that attain the supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import jacobi
from .correlations import StarBranch, StarSettings
from .errors import EmptyNetworkError, ValidationError
from .qstate import CorrelationMatrix, TwoQubitState, correlation_matrix

_CLAMP_TOL = 1e-12
_UPPER_TOL = 1e-9


@dataclass(frozen=True)
class TSpectrum:
    """Descending eigenvalues of T^T T (squared singular values of T)."""

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        values = [self.t1, self.t2, self.t3]
        for name, value in zip(("t1", "t2", "t3"), values):
            if value < -_CLAMP_TOL:
                raise ValidationError(f"{name}={value:.3e} below zero beyond tolerance")
        clamped = [0.0 if v < 0.0 else float(v) for v in values]
        if not clamped[0] >= clamped[1] >= clamped[2]:
            raise ValidationError(f"spectrum not descending: {tuple(clamped)}")
        if clamped[0] > 1.0 + _UPPER_TOL:
            raise ValidationError(f"t1={clamped[0]:.6g} exceeds 1 beyond tolerance")
        object.__setattr__(self, "t1", clamped[0])
        object.__setattr__(self, "t2", clamped[1])
        object.__setattr__(self, "t3", clamped[2])

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t1, self.t2, self.t3)


def t_spectrum(corr: CorrelationMatrix) -> TSpectrum:
    """Spectrum of T^T T, descending, tiny negatives clamped to zero.

    Pure, with no memo (states keep theirs through ``_spectrum_of``), so each
    call is one eigen solve, as the benchmark tracer counts it.
    """
    gram = corr.t.T @ corr.t
    eigs = jacobi.eigvalsh_symmetric(gram)
    return TSpectrum(float(eigs[2]), float(eigs[1]), float(eigs[0]))


def _spectrum_of(state: TwoQubitState) -> TSpectrum:
    """The state's t-spectrum, stored on the immutable state at the first call."""
    sp = state.__dict__.get("_spectrum")
    if sp is None:
        sp = t_spectrum(correlation_matrix(state))
        object.__setattr__(state, "_spectrum", sp)
    return sp


def chsh_from_spectrum(sp: TSpectrum) -> float:
    """sqrt(t1 + t2): the CHSH maximum of one spectrum."""
    return math.sqrt(sp.t1 + sp.t2)


def star_from_spectra(spectra: Sequence[TSpectrum]) -> float:
    """sqrt((prod t1)^(1/n) + (prod t2)^(1/n)) over n >= 1 spectra.

    For two spectra this is the bilocality maximum sqrt(sqrt(t1 t1') + sqrt(t2 t2')).
    """
    if not spectra:
        raise EmptyNetworkError("star network needs at least one source state")
    n = len(spectra)
    prod1 = math.prod(sp.t1 for sp in spectra)
    prod2 = math.prod(sp.t2 for sp in spectra)
    return math.sqrt(prod1 ** (1.0 / n) + prod2 ** (1.0 / n))


def chsh_max(state: TwoQubitState) -> float:
    """Maximal CHSH value sqrt(t1 + t2); above 1 iff the state violates CHSH."""
    return chsh_from_spectrum(_spectrum_of(state))


def bilocality_max(state_ab: TwoQubitState, state_bc: TwoQubitState) -> float:
    """Maximal bilocality value sqrt(sqrt(t1 t1') + sqrt(t2 t2'))."""
    return star_from_spectra([_spectrum_of(state_ab), _spectrum_of(state_bc)])


def star_max(states: Iterable[TwoQubitState]) -> float:
    """The paper's n-branch star value sqrt((prod t1)^(1/n) + (prod t2)^(1/n)).

    It equals ``star_supremum`` for n <= 2; for n >= 3 it is a stationary
    value of the star objective, which skewed branches can exceed.
    """
    return star_from_spectra([_spectrum_of(s) for s in states])


def _star_optimum(top: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Maximize prod(x)^(2/n) + prod(y)^(2/n) over the branch segments.

    top is (n, 2): each branch's two largest singular values (s1, s2).
    Returns (N_sup^2, x, y) with x_j + y_j = s1_j + s2_j; see the module
    docstring for the derivation.
    """
    n = len(top)
    s1, s2 = top[:, 0], top[:, 1]
    total = s1 + s2
    # A branch with T = 0 has lo = hi = 1/2 and zero factors either way.
    lo = np.divide(s2, total, out=np.full(n, 0.5), where=total > 0.0)
    hi = 1.0 - lo
    edges = np.unique(np.concatenate(([0.0, 1.0], lo, hi)))
    shares = [edges]
    for left, right in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (left + right)
        free = (lo < mid) & (mid < hi)
        m = 2.0 * np.count_nonzero(free) / n
        if not 0.0 < m < 1.0:
            continue
        below = mid <= lo
        a = np.prod(np.where(below, s1, s2)[~free]) ** (2.0 / n)
        b = np.prod(np.where(below, s2, s1)[~free]) ** (2.0 / n)
        if a > 0.0 and b > 0.0:
            ratio = (b / a) ** (1.0 / (1.0 - m))
            peak = ratio / (1.0 + ratio)
            if left < peak < right:
                shares.append([peak])
    w = np.clip(np.concatenate(shares)[:, None], lo, hi)
    x = total * (1.0 - w)
    y = total * w
    values = np.prod(x, axis=1) ** (2.0 / n) + np.prod(y, axis=1) ** (2.0 / n)
    best = int(np.argmax(values))
    return float(values[best]), x[best], y[best]


def star_supremum(states: Iterable[TwoQubitState]) -> float:
    """Supremum of the n-branch star value |I|^(1/n) + |J|^(1/n).

    Never below ``star_max`` and equal to it for n <= 2; for n = 1 it is the
    CHSH maximum.  ``star_witness_settings`` attains it.
    """
    spectra = [_spectrum_of(s) for s in states]
    if not spectra:
        raise EmptyNetworkError("star network needs at least one source state")
    top = np.sqrt([[sp.t1, sp.t2] for sp in spectra])
    return math.sqrt(_star_optimum(top)[0])


def star_witness_settings(states: Iterable[TwoQubitState]) -> StarSettings:
    """Explicit star settings whose ``star_value`` is ``star_supremum``.

    Branch states are ordered (outer qubit, central qubit).  Each branch's
    outer frame (n, n') and central pair (b0, b1) are its top singular
    vectors rotated by one angle; all outer pairs share one mixing angle.
    """
    mats = [correlation_matrix(s).t for s in states]
    if not mats:
        raise EmptyNetworkError("star network needs at least one source state")
    svds = [np.linalg.svd(t) for t in mats]
    top = np.array([s[:2] for _, s, _ in svds])
    _, x, y = _star_optimum(top)
    inv = 1.0 / len(mats)
    alpha = math.atan2(float(np.prod(y)) ** inv, float(np.prod(x)) ** inv)
    cos_a, sin_a = math.cos(alpha), math.sin(alpha)
    branches = []
    for (u, s, vt), x_j in zip(svds, x):
        spread = s[0] - s[1]
        # x_j = s1 cos^2 phi + s2 sin^2 phi along the rotated singular frames.
        cos2 = (x_j - s[1]) / spread if spread > 0.0 else 1.0
        c = math.sqrt(min(max(cos2, 0.0), 1.0))
        sn = math.sqrt(1.0 - c * c)
        n_out, n_perp = c * u[:, 0] + sn * u[:, 1], -sn * u[:, 0] + c * u[:, 1]
        b0, b1 = c * vt[0] + sn * vt[1], -sn * vt[0] + c * vt[1]
        branches.append(
            StarBranch(
                a0=cos_a * n_out + sin_a * n_perp,
                a1=cos_a * n_out - sin_a * n_perp,
                b0=b0,
                b1=b1,
            )
        )
    return StarSettings(branches=tuple(branches))


def phi_plus_comparison(state: TwoQubitState) -> tuple[float, float]:
    """(bilocality, CHSH) maxima when the other source is a perfect Bell pair.

    With one source maximally entangled, both spectra factors of the pair
    criterion collapse onto the remaining state: the bilocality maximum is
    sqrt(sqrt(t1) + sqrt(t2)) and the CHSH maximum is sqrt(t1 + t2), so a
    noisy source always violates bilocality at least as easily as CHSH.
    """
    sp = _spectrum_of(state)
    return (star_from_spectra([sp, TSpectrum(1.0, 1.0, 1.0)]), chsh_from_spectrum(sp))


@dataclass(frozen=True)
class MaxReport:
    """Per-link CHSH maxima plus the joint network maximum for one network."""

    chsh_per_link: tuple[float, ...]
    biloc_or_star: float | None
    spectra: tuple[TSpectrum, ...]

    def __post_init__(self):
        if len(self.chsh_per_link) == 2 and self.biloc_or_star is not None:
            slack = self.biloc_or_star**2 - self.chsh_per_link[0] * self.chsh_per_link[1]
            if slack > 1e-12:
                raise ValidationError(
                    f"pair maximum squared exceeds the CHSH product by {slack:.3e}"
                )


def network_report(states: Sequence[TwoQubitState]) -> MaxReport:
    """Assemble spectra, per-link CHSH maxima, and the network maximum."""
    spectra = tuple(_spectrum_of(s) for s in states)
    if not spectra:
        raise EmptyNetworkError("network report needs at least one source state")
    chsh = tuple(chsh_from_spectrum(sp) for sp in spectra)
    joint = star_from_spectra(spectra) if len(spectra) >= 2 else None
    return MaxReport(chsh_per_link=chsh, biloc_or_star=joint, spectra=spectra)
