"""Region classification and parameter-family scans over the closed-form maxima.

Flags use strict comparisons against the classical bound 1.  They classify
reachability within the projective-measurement criteria used here: a pair can
be non-bilocal while neither link alone violates CHSH, but never the other
way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .criteria import chsh_from_spectrum, star_from_spectra, t_spectrum
from .errors import ValidationError
from .qstate import TwoQubitState, colored_noise_state, correlation_matrix, werner_state


@dataclass(frozen=True)
class RegionFlags:
    """Strict-threshold verdicts for one source pair."""

    ab_nonlocal: bool
    bc_nonlocal: bool
    nonbilocal: bool

    def as_tuple(self) -> tuple[bool, bool, bool]:
        return (self.ab_nonlocal, self.bc_nonlocal, self.nonbilocal)


@dataclass(frozen=True)
class ScanRow:
    """One grid point: parameters, both CHSH maxima, pair maximum, flags."""

    params: tuple[tuple[str, float], ...]
    s_ab: float
    s_bc: float
    b_max: float
    flags: RegionFlags


def violates(value: float) -> bool:
    """Whether a maximum exceeds the classical bound 1, strictly."""
    return value > 1.0


def classify_values(s_ab: float, s_bc: float, b_max: float) -> RegionFlags:
    """Flags from precomputed maxima; strict > 1 on every comparison."""
    return RegionFlags(violates(s_ab), violates(s_bc), violates(b_max))


def classify_pair(state_ab: TwoQubitState, state_bc: TwoQubitState) -> RegionFlags:
    """Classify a source pair by its CHSH and bilocality maxima.

    Calls the pure ``t_spectrum`` per source, not the spectra stored on the
    states, so the benchmark tracer sees one eigen solve per source here.
    """
    sa = t_spectrum(correlation_matrix(state_ab))
    sc = t_spectrum(correlation_matrix(state_bc))
    return classify_values(
        chsh_from_spectrum(sa), chsh_from_spectrum(sc), star_from_spectra([sa, sc])
    )


def _scan(grid: Iterable[tuple[float, float]], names: tuple[str, str], spectra) -> list[ScanRow]:
    """One row per grid point (p, q); spectra(p, q) gives the (AB, BC) t-spectra."""
    rows = []
    for p, q in grid:
        params = (float(p), float(q))
        sa, sc = spectra(*params)
        s_ab = chsh_from_spectrum(sa)
        s_bc = chsh_from_spectrum(sc)
        b_max = star_from_spectra([sa, sc])
        rows.append(
            ScanRow(
                params=tuple(zip(names, params)),
                s_ab=s_ab,
                s_bc=s_bc,
                b_max=b_max,
                flags=classify_values(s_ab, s_bc, b_max),
            )
        )
    return rows


def werner_scan(grid: Iterable[tuple[float, float]]) -> list[ScanRow]:
    """Scan (v_ab, v_bc) visibility pairs of two noisy singlets.

    With both maxima analytic (S = v sqrt(2), B = sqrt(2 v_ab v_bc)), a pair
    is flagged non-bilocal exactly when 2 v_ab v_bc > 1.
    """
    spectrum = cache(lambda v: t_spectrum(correlation_matrix(werner_state(v))))
    return _scan(grid, ("v_ab", "v_bc"), lambda v_ab, v_bc: (spectrum(v_ab), spectrum(v_bc)))


def colored_scan(grid: Iterable[tuple[float, float]]) -> list[ScanRow]:
    """Scan (v, lambda) with both sources the same colored-noise state."""
    spectrum = cache(lambda v, lam: t_spectrum(correlation_matrix(colored_noise_state(v, lam))))
    return _scan(grid, ("v", "lambda"), lambda v, lam: (spectrum(v, lam),) * 2)


def rows_to_csv(rows: Sequence[ScanRow]) -> str:
    """Serialize scan rows; floats carry 12 significant digits."""
    rows = list(rows)
    if not rows:
        raise ValidationError("cannot serialize an empty scan")
    names = [name for name, _ in rows[0].params]
    header = ",".join(names + ["s_ab", "s_bc", "b_max", "ab_nl", "bc_nl", "nonbiloc"])
    lines = [header]
    for row in rows:
        if [name for name, _ in row.params] != names:
            raise ValidationError("scan rows have inconsistent parameter names")
        cells = [f"{value:.12g}" for _, value in row.params]
        cells += [f"{row.s_ab:.12g}", f"{row.s_bc:.12g}", f"{row.b_max:.12g}"]
        cells += [
            "true" if flag else "false"
            for flag in row.flags.as_tuple()
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
