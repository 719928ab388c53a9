"""Two-qubit states, named families, and Pauli correlation data.

Conventions used throughout the package: the computational basis is ordered
|00>, |01>, |10>, |11> and Pauli axes are ordered (x, y, z).  All reference
values quoted in the test suite hold under this convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import jacobi
from .errors import (
    NotHermitianError,
    NotPSDError,
    ParameterOutOfRangeError,
    SettingsFormatError,
    StateFormatError,
    TraceNotOneError,
    ValidationError,
)

VALIDATION_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

_I2 = np.eye(2, dtype=complex)
# Transposed kron products, stacked so a full correlation matrix is one
# elementwise-multiply-and-sum against the density matrix.
_PAULI_PAIR_T = np.array([[np.kron(p, q).T for q in PAULIS] for p in PAULIS])
_PAULI_LEFT_T = np.array([np.kron(p, _I2).T for p in PAULIS])
_PAULI_RIGHT_T = np.array([np.kron(_I2, p).T for p in PAULIS])

_SQRT2 = np.sqrt(2.0)
BELL_KETS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / _SQRT2,
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / _SQRT2,
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / _SQRT2,
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / _SQRT2,
}


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A validated two-qubit density matrix.

    Construction checks Hermiticity, unit trace, and positive semidefiniteness
    (all at tolerance 1e-9) and freezes a private copy of the entries
    read-only, so what is derived from a state can be stored on it.
    """

    entries: np.ndarray
    label: str | None = None

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128)
        if entries.shape != (4, 4):
            raise ValidationError(f"state matrix must be 4x4, got shape {entries.shape}")
        largest = float(np.abs(entries.view(np.float64)).max())
        if not math.isfinite(largest):
            raise ValidationError("state matrix has non-finite entries")
        # No entry of a trace-one PSD matrix exceeds 1 in magnitude.  Larger
        # entries are checked scaled down to 1, so no sum below overflows.
        scale = largest if largest > 2.0 else 1.0
        unit = entries / scale if largest > 2.0 else entries
        herm_residual = float(np.abs(unit - unit.conj().T).max()) * scale
        if herm_residual > VALIDATION_TOL:
            raise NotHermitianError(
                f"state is not Hermitian: max |rho - rho^dag| = {herm_residual:.3e}"
            )
        trace_residual = abs(complex(unit.trace()) * scale - 1.0)
        if trace_residual > VALIDATION_TOL:
            raise TraceNotOneError(f"state trace differs from 1 by {trace_residual:.3e}")
        if largest > 2.0:
            raise NotPSDError(f"state has an entry of magnitude {largest:.3e}, above 1")
        eigs = jacobi.eigvalsh_hermitian((entries + entries.conj().T) / 2.0)
        if eigs[0] < -VALIDATION_TOL:
            raise NotPSDError(f"state has negative eigenvalue {eigs[0]:.3e}")
        object.__setattr__(self, "entries", _readonly(entries))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """3x3 real matrix of joint Pauli correlators, axes ordered (x, y, z)."""

    t: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=np.float64)
        if t.shape != (3, 3):
            raise ValidationError(f"correlation matrix must be 3x3, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValidationError("correlation matrix has non-finite entries")
        worst = float(np.abs(t).max())
        if worst > 1.0 + VALIDATION_TOL:
            raise ValidationError(f"correlator magnitude {worst:.6g} exceeds 1")
        object.__setattr__(self, "t", _readonly(t))


def make_state(entries, label: str | None = None) -> TwoQubitState:
    """Validate a 4x4 array-like as a two-qubit density matrix."""
    return TwoQubitState(entries, label)


def bell_state(which: str) -> TwoQubitState:
    """One of the four Bell states: 'phi+', 'phi-', 'psi+', 'psi-'."""
    try:
        ket = BELL_KETS[which]
    except KeyError:
        raise ParameterOutOfRangeError(
            f"unknown Bell state {which!r}; expected one of {sorted(BELL_KETS)}"
        ) from None
    return TwoQubitState(np.outer(ket, ket.conj()), label=f"bell:{which}")


def werner_state(v: float) -> TwoQubitState:
    """Singlet with visibility v mixed into white noise."""
    if not 0.0 <= v <= 1.0:
        raise ParameterOutOfRangeError(f"visibility v={v} outside [0, 1]")
    singlet = np.outer(BELL_KETS["psi-"], BELL_KETS["psi-"].conj())
    entries = v * singlet + (1.0 - v) * np.eye(4) / 4.0
    return TwoQubitState(entries, label=f"werner(v={v:g})")


def colored_noise_state(v: float, lam: float) -> TwoQubitState:
    """Singlet with visibility v over a partly colored noise floor.

    The noise term interpolates between white noise (lam=0) and an even
    mixture of the two psi Bell states (lam=1).
    """
    if not 0.0 <= v <= 1.0:
        raise ParameterOutOfRangeError(f"visibility v={v} outside [0, 1]")
    if not 0.0 <= lam <= 1.0:
        raise ParameterOutOfRangeError(f"color weight lambda={lam} outside [0, 1]")
    psi_m = np.outer(BELL_KETS["psi-"], BELL_KETS["psi-"].conj())
    psi_p = np.outer(BELL_KETS["psi+"], BELL_KETS["psi+"].conj())
    noise = lam * (psi_m + psi_p) / 2.0 + (1.0 - lam) * np.eye(4) / 4.0
    entries = v * psi_m + (1.0 - v) * noise
    return TwoQubitState(entries, label=f"colored(v={v:g},lambda={lam:g})")


def random_state(seed: int) -> TwoQubitState:
    """Random full-rank density matrix G G^dag / tr(G G^dag), Ginibre G."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gram = g @ g.conj().T
    return TwoQubitState(gram / np.trace(gram).real, label=f"random(seed={seed})")


def correlation_matrix(state: TwoQubitState) -> CorrelationMatrix:
    """Joint Pauli correlators t_nm = tr[rho (sigma_n x sigma_m)].

    Stored on the state at the first call; sound because the state's
    entries and ``CorrelationMatrix.t`` are private read-only copies.
    """
    corr = state.__dict__.get("_corr")
    if corr is None:
        rho = (state.entries + state.entries.conj().T) / 2.0
        vals = (rho[None, None, :, :] * _PAULI_PAIR_T).sum(axis=(2, 3))
        imag_residual = float(np.abs(vals.imag).max())
        if imag_residual > VALIDATION_TOL:
            raise ValidationError(f"correlator has imaginary residue {imag_residual:.3e}")
        corr = CorrelationMatrix(vals.real)
        object.__setattr__(state, "_corr", corr)
    return corr


def bloch_vectors(state: TwoQubitState) -> tuple[np.ndarray, np.ndarray]:
    """Local Bloch vectors (first qubit, second qubit) of a two-qubit state."""
    rho = (state.entries + state.entries.conj().T) / 2.0
    left = (rho[None, :, :] * _PAULI_LEFT_T).sum(axis=(1, 2))
    right = (rho[None, :, :] * _PAULI_RIGHT_T).sum(axis=(1, 2))
    for vec in (left, right):
        if float(np.abs(vec.imag).max()) > VALIDATION_TOL:
            raise ValidationError("Bloch component has imaginary residue")
        if float(np.linalg.norm(vec.real)) > 1.0 + VALIDATION_TOL:
            raise ValidationError("Bloch vector norm exceeds 1")
    return _readonly(left.real.copy()), _readonly(right.real.copy())


_SWAP_PERM = np.array([0, 2, 1, 3])


def swap_qubits(state: TwoQubitState) -> TwoQubitState:
    """Exchange the two qubits: |ij> -> |ji| on both indices."""
    entries = state.entries[np.ix_(_SWAP_PERM, _SWAP_PERM)]
    return TwoQubitState(entries, label=state.label)


def apply_local_unitaries(state: TwoQubitState, u1: np.ndarray, u2: np.ndarray) -> TwoQubitState:
    """Conjugate the state by U1 x U2."""
    u = np.kron(np.asarray(u1, dtype=complex), np.asarray(u2, dtype=complex))
    return TwoQubitState(u @ state.entries @ u.conj().T, label=state.label)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary from a QR-decomposed Ginibre matrix."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) rotation on Bloch vectors induced by a 2x2 unitary.

    R_ij = tr(sigma_i U sigma_j U^dag) / 2, so that the correlation matrix of
    (U1 x U2) rho (U1 x U2)^dag is R1 T R2^T.
    """
    u = np.asarray(u, dtype=complex)
    udag = u.conj().T
    rot = np.empty((3, 3))
    for j, sj in enumerate(PAULIS):
        conj = u @ sj @ udag
        for i, si in enumerate(PAULIS):
            rot[i, j] = 0.5 * np.trace(si @ conj).real
    return rot


def _direction_array(v, name: str) -> np.ndarray:
    """A float copy of a direction, checked to be 3 finite components."""
    arr = np.array(v, dtype=np.float64)
    if arr.shape != (3,):
        raise ValidationError(f"{name} must have 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite components")
    return arr


def unit_vector(v) -> np.ndarray:
    """Normalize a 3-component direction; rejects zero, non-finite and overflowing input."""
    arr = _direction_array(v, "direction")
    norm = float(np.linalg.norm(arr))
    if not math.isfinite(norm):
        raise ValidationError("direction vector norm overflows")
    if norm < 1e-12:
        raise ValidationError("direction vector is numerically zero")
    return _readonly(arr / norm)


def require_unit_vector(v, name: str) -> np.ndarray:
    """Check that a direction is a unit vector within 1e-9, without rescaling it.

    A measurement direction off the unit sphere describes an unsharp
    measurement; normalizing it again would move the last bits of directions
    that are already unit vectors.
    """
    arr = _direction_array(v, f"direction {name}")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > VALIDATION_TOL:
        raise ValidationError(f"direction {name} has norm {norm:.9g}, not 1")
    return arr


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the Bloch sphere."""
    while True:
        v = rng.standard_normal(3)
        if np.linalg.norm(v) > 1e-6:
            return unit_vector(v)


# ---------------------------------------------------------------------------
# JSON state schema
# ---------------------------------------------------------------------------

_FAMILY_FIELDS = {
    "werner": {"v"},
    "colored": {"v", "lambda"},
    "bell": {"which"},
}


def json_number(value) -> float | None:
    """A parsed JSON number as a finite float, or None for anything else.

    None covers bools, huge ints and the NaN, Infinity and 1e999 that json accepts.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _require_number(data: dict, field: str) -> float:
    if field not in data:
        raise StateFormatError(f"missing required field '{field}'")
    number = json_number(data[field])
    if number is None:
        raise StateFormatError(f"field '{field}' must be a number")
    return number


def _real_matrix(data: dict, field: str) -> np.ndarray:
    if field not in data:
        raise StateFormatError(f"missing required field '{field}'")
    value = data[field]
    if (
        not isinstance(value, list)
        or len(value) != 4
        or any(not isinstance(row, list) or len(row) != 4 for row in value)
    ):
        raise StateFormatError(f"field '{field}' must be a 4x4 array of numbers")
    values = [json_number(x) for row in value for x in row]
    if None in values:
        raise StateFormatError(f"field '{field}' must contain only numbers")
    return np.array(values).reshape(4, 4)


def state_from_json(data) -> TwoQubitState:
    """Build a state from a parsed JSON document.

    Two forms are accepted: an explicit matrix {"label"?, "re", "im"} with
    4x4 real and imaginary parts, or a family form {"family": ..., params}.
    Unknown fields are rejected.
    """
    if not isinstance(data, dict):
        raise StateFormatError("state document must be a JSON object")
    if "family" in data:
        family = data["family"]
        if not isinstance(family, str) or family not in _FAMILY_FIELDS:
            raise StateFormatError(
                f"unknown family {family!r}; expected one of {sorted(_FAMILY_FIELDS)}"
            )
        allowed = _FAMILY_FIELDS[family] | {"family"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise StateFormatError(f"unknown field '{unknown[0]}' for family '{family}'")
        if family == "werner":
            return werner_state(_require_number(data, "v"))
        if family == "colored":
            return colored_noise_state(_require_number(data, "v"), _require_number(data, "lambda"))
        which = data.get("which")
        if not isinstance(which, str) or which not in BELL_KETS:
            raise StateFormatError(
                f"field 'which' must be one of {sorted(BELL_KETS)}, got {which!r}"
            )
        return bell_state(which)
    if "re" in data or "im" in data:
        unknown = sorted(set(data) - {"label", "re", "im"})
        if unknown:
            raise StateFormatError(f"unknown field '{unknown[0]}' in state object")
        label = data.get("label")
        if label is not None and not isinstance(label, str):
            raise StateFormatError("field 'label' must be a string")
        entries = _real_matrix(data, "re") + 1j * _real_matrix(data, "im")
        return TwoQubitState(entries, label=label)
    raise StateFormatError("state object needs either 'family' or 're'/'im' fields")


def load_json(path, parse, error: type[Exception]):
    """Read a JSON file and return ``parse(document)``, naming the path in input errors.

    A file that is not valid UTF-8 JSON, or nests too deeply to decode,
    raises ``error``; a format or validation error from ``parse`` is raised
    again as its own type.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(data)
    except (StateFormatError, SettingsFormatError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_state(path) -> TwoQubitState:
    """Read and validate a state JSON file."""
    return load_json(path, state_from_json, StateFormatError)
