"""Network correlation values for explicit measurement settings.

Settings are Bloch directions; every station measures +-1-valued projective
observables.  The central node has no input: it performs one four-outcome
product measurement on its qubits and reports bits recombined from the
sub-outcomes, so its two per-qubit direction pairs must each be orthogonal
for both recombined observables to be jointly measurable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .errors import (
    MissingInputTupleError,
    SettingsArityMismatchError,
    SettingsFormatError,
    ValidationError,
)
from .qstate import (
    PAULIS,
    TwoQubitState,
    correlation_matrix,
    unit_vector,
)

_ROW_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)
ORTHOGONALITY_TOL = 1e-9

Z_AXIS = (0.0, 0.0, 1.0)
X_AXIS = (1.0, 0.0, 0.0)

_OUTCOME_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


def pauli_dot(v) -> np.ndarray:
    """2x2 observable v . sigma for a Bloch direction v."""
    v = np.asarray(v, dtype=np.float64)
    return v[0] * PAULIS[0] + v[1] * PAULIS[1] + v[2] * PAULIS[2]


def projectors(v) -> np.ndarray:
    """Rank-1 projectors onto the (-1)^o eigenspaces of v . sigma, indexed [o]."""
    return (np.eye(2, dtype=complex) + _OUTCOME_SIGNS * pauli_dot(v)) / 2.0


def kron(a, b) -> np.ndarray:
    """Kronecker product of the last two axes, broadcast over the leading ones.

    The elementwise products are exactly those np.kron forms for 2-D inputs,
    without its per-call set-up, so stacked operators keep every bit.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def expectations(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re tr(op rho) for every operator in a stack."""
    return np.trace(ops @ rho, axis1=-2, axis2=-1).real


def validated_rows(table: dict, shape: tuple[int, ...] | None = None) -> dict:
    """Read-only float copies of an outcome table's rows, keyed by integer tuples.

    Every row must be finite, nonnegative within 1e-12 and sum to 1 within
    1e-12, and have the given shape; without one, a binary axis per input.
    """
    rows = {}
    for inputs, row in table.items():
        row = np.array(row, dtype=np.float64)
        expected = shape or (2,) * len(inputs)
        if row.shape != expected:
            raise ValidationError(f"row at {inputs} must have shape {expected}")
        total = float(row.sum())
        if not math.isfinite(total):
            raise ValidationError(f"non-finite probability at inputs {inputs}")
        if float(row.min()) < -_ROW_TOL:
            raise ValidationError(
                f"negative probability {row.min():.3e} at inputs {inputs}"
            )
        if abs(total - 1.0) > _ROW_TOL:
            raise ValidationError(
                f"probabilities at inputs {inputs} sum to {total!r}, not 1"
            )
        row.setflags(write=False)
        rows[tuple(int(i) for i in inputs)] = row
    return rows


def _require_orthogonal(name0: str, v0: np.ndarray, name1: str, v1: np.ndarray) -> None:
    """Reject central direction pairs that are not orthogonal.

    The central station has no input: it performs one four-outcome product
    measurement and reports two bits, so the two observables recombined from
    those bits must commute.  For product observables built from unit vectors
    that forces the per-qubit direction pairs to be orthogonal.
    """
    dot = abs(float(np.dot(v0, v1)))
    if dot > ORTHOGONALITY_TOL:
        raise ValidationError(
            f"central directions {name0} and {name1} must be orthogonal "
            f"(the two reported bits come from one joint measurement); "
            f"|dot| = {dot:.3e} exceeds {ORTHOGONALITY_TOL:g}"
        )


@dataclass(frozen=True)
class BilocalSettings:
    """Measurement directions for the three-station pair network.

    a*/c* are the end stations' two settings each; bA*/bC* are the central
    station's directions on its first (A-side) and second (C-side) qubit.
    Each central pair (bA0, bA1) and (bC0, bC1) must be orthogonal so that
    both reported bits arise from a single joint product measurement.
    """

    a0: np.ndarray
    a1: np.ndarray
    bA0: np.ndarray
    bA1: np.ndarray
    bC0: np.ndarray
    bC1: np.ndarray
    c0: np.ndarray
    c1: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, unit_vector(getattr(self, f.name)))
        _require_orthogonal("bA0", self.bA0, "bA1", self.bA1)
        _require_orthogonal("bC0", self.bC0, "bC1", self.bC1)


@dataclass(frozen=True)
class StarBranch:
    """One branch: the outer station's pair (a0, a1) and the central pair (b0, b1).

    The central pair must be orthogonal; see BilocalSettings.
    """

    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, unit_vector(getattr(self, f.name)))
        _require_orthogonal("b0", self.b0, "b1", self.b1)


@dataclass(frozen=True)
class StarSettings:
    """Per-branch measurement directions for the star network."""

    branches: tuple[StarBranch, ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise ValidationError("star settings need at least one branch")

    @property
    def n(self) -> int:
        return len(self.branches)


def zx_diagonal_settings() -> BilocalSettings:
    """Canonical benchmark settings: end stations along (z +- x)/sqrt(2), center along z and x.

    On two perfect singlets these settings reach the pair maximum sqrt(2).
    """
    d0 = (1.0 / _SQRT2, 0.0, 1.0 / _SQRT2)
    d1 = (-1.0 / _SQRT2, 0.0, 1.0 / _SQRT2)
    return BilocalSettings(
        a0=d0, a1=d1, bA0=Z_AXIS, bA1=X_AXIS, bC0=Z_AXIS, bC1=X_AXIS, c0=d0, c1=d1
    )


@dataclass(frozen=True)
class OutcomeDistribution:
    """Outcome probabilities keyed by the input tuple.

    Each row is an array with one binary axis per station, indexed by the
    outcome bits in station order.
    """

    table: dict[tuple[int, ...], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "table", validated_rows(self.table))

    def row(self, inputs) -> np.ndarray:
        key = tuple(int(i) for i in inputs)
        try:
            return self.table[key]
        except KeyError:
            raise MissingInputTupleError(key) from None

    def probability(self, inputs, outputs) -> float:
        return float(self.row(inputs)[tuple(int(o) for o in outputs)])


def bilocality_value(
    state_ab: TwoQubitState, state_bc: TwoQubitState, settings: BilocalSettings
) -> tuple[float, float, float]:
    """(I, J, B) for the pair network at the given settings.

    I averages the y=0 three-party correlators, J the y=1 ones with
    alternating signs, and B = sqrt|I| + sqrt|J| with classical bound 1.
    """
    t_ab = correlation_matrix(state_ab).t
    t_bc = correlation_matrix(state_bc).t
    s = settings
    i_val = 0.25 * ((s.a0 + s.a1) @ t_ab @ s.bA0) * (s.bC0 @ t_bc @ (s.c0 + s.c1))
    j_val = 0.25 * ((s.a0 - s.a1) @ t_ab @ s.bA1) * (s.bC1 @ t_bc @ (s.c0 - s.c1))
    b = math.sqrt(abs(i_val)) + math.sqrt(abs(j_val))
    return (float(i_val), float(j_val), float(b))


def _pair_distribution(state: TwoQubitState, first, second) -> np.ndarray:
    """Outcome tables [d1, d2, o1, o2] for measuring the two qubits of a state.

    `first` and `second` stack the projectors of two directions each,
    indexed [direction, outcome]; see `projectors`.
    """
    ops = kron(first[:, None, :, None], second[None, :, None, :])
    return expectations(ops, state.entries)


def outcome_distribution(
    state_ab: TwoQubitState, state_bc: TwoQubitState, settings: BilocalSettings
) -> OutcomeDistribution:
    """Exact p(a, b, c | x, y, z) for separable central measurements.

    The central station measures its A-side qubit along bA_y and its C-side
    qubit along bC_y and announces the parity of the two sub-outcomes.
    """
    s = settings
    p_ab = _pair_distribution(  # [x, y, a, beta_a]
        state_ab,
        np.stack([projectors(s.a0), projectors(s.a1)]),
        np.stack([projectors(s.bA0), projectors(s.bA1)]),
    )
    p_bc = _pair_distribution(  # [y, z, beta_c, c]
        state_bc,
        np.stack([projectors(s.bC0), projectors(s.bC1)]),
        np.stack([projectors(s.c0), projectors(s.c1)]),
    )
    # terms[x, y, z, a, beta_a, beta_c, c]; the announced bit is beta_a ^ beta_c,
    # so b = 0 pairs beta_c = beta_a and b = 1 pairs beta_c = 1 - beta_a.
    terms = p_ab[:, :, None, :, :, None, None] * p_bc[None, :, :, None, None, :, :]
    rows = terms[..., 0, :, :] + terms[..., 1, ::-1, :]
    return OutcomeDistribution(
        {inputs: rows[inputs] for inputs in product(range(2), range(2), range(2))}
    )


PARITY_SIGNS = np.array(
    [[[(-1.0) ** (a + b + c) for c in range(2)] for b in range(2)] for a in range(2)]
)


def correlator_from_distribution(dist: OutcomeDistribution, x: int, y: int, z: int) -> float:
    """Three-party correlator sum_{abc} (-1)^(a+b+c) p(a,b,c|x,y,z)."""
    return float((dist.row((x, y, z)) * PARITY_SIGNS).sum())


def star_value(
    states, settings: StarSettings
) -> tuple[float, float, float]:
    """(I, J, N) for the star network at the given settings.

    Each branch state is ordered (outer qubit, central qubit).  I and J
    factor into per-branch two-party correlators; N = |I|^(1/n) + |J|^(1/n).
    """
    states = list(states)
    if len(states) != settings.n:
        raise SettingsArityMismatchError(
            f"settings describe {settings.n} branches but {len(states)} states given"
        )
    n = len(states)
    i_val = 1.0
    j_val = 1.0
    for state, br in zip(states, settings.branches):
        t = correlation_matrix(state).t
        i_val *= 0.5 * ((br.a0 + br.a1) @ t @ br.b0)
        j_val *= 0.5 * ((br.a0 - br.a1) @ t @ br.b1)
    value = abs(i_val) ** (1.0 / n) + abs(j_val) ** (1.0 / n)
    return (float(i_val), float(j_val), float(value))


# ---------------------------------------------------------------------------
# JSON settings schema
# ---------------------------------------------------------------------------


def parse_direction(value, key: str) -> np.ndarray:
    """Parse one JSON direction; warn and normalize when the norm is off."""
    if (
        not isinstance(value, list)
        or len(value) != 3
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)
    ):
        raise SettingsFormatError(f"setting '{key}' must be a list of 3 numbers")
    arr = np.array(value, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm < 1e-12:
        raise SettingsFormatError(f"setting '{key}' is a zero vector")
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(
            f"settings vector '{key}' has norm {norm:.9g}; normalizing",
            stacklevel=2,
        )
    return unit_vector(arr)


def directions_from_json(data, keys: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """Parse a flat settings object holding exactly the given direction keys, in key order."""
    if not isinstance(data, dict):
        raise SettingsFormatError("settings document must be a JSON object")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise SettingsFormatError(f"unknown settings field '{unknown[0]}'")
    missing = [k for k in keys if k not in data]
    if missing:
        raise SettingsFormatError(f"missing settings field '{missing[0]}'")
    return tuple(parse_direction(data[k], k) for k in keys)


_BILOCAL_KEYS = ("a0", "a1", "bA0", "bA1", "bC0", "bC1", "c0", "c1")


def bilocal_settings_from_json(data) -> BilocalSettings:
    """Parse {"a0": [..], ..., "c1": [..]} into BilocalSettings."""
    return BilocalSettings(*directions_from_json(data, _BILOCAL_KEYS))


_BRANCH_KEYS = ("a0", "a1", "b0", "b1")


def star_settings_from_json(data) -> StarSettings:
    """Parse {"branches": [{"a0": ..., "b1": ...}, ...]} into StarSettings."""
    if not isinstance(data, dict):
        raise SettingsFormatError("settings document must be a JSON object")
    unknown = sorted(set(data) - {"branches"})
    if unknown:
        raise SettingsFormatError(f"unknown settings field '{unknown[0]}'")
    branches = data.get("branches")
    if not isinstance(branches, list) or not branches:
        raise SettingsFormatError("field 'branches' must be a non-empty list")
    parsed = []
    for i, entry in enumerate(branches):
        if not isinstance(entry, dict):
            raise SettingsFormatError(f"branch {i} must be a JSON object")
        unknown = sorted(set(entry) - set(_BRANCH_KEYS))
        if unknown:
            raise SettingsFormatError(f"unknown field '{unknown[0]}' in branch {i}")
        missing = [k for k in _BRANCH_KEYS if k not in entry]
        if missing:
            raise SettingsFormatError(f"missing field '{missing[0]}' in branch {i}")
        parsed.append(
            StarBranch(**{k: parse_direction(entry[k], f"branches[{i}].{k}") for k in _BRANCH_KEYS})
        )
    return StarSettings(branches=tuple(parsed))
