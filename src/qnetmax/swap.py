"""Entanglement swapping: Bell-state-measurement statistics at the central node.

The central station projects its two qubits onto the Bell basis and reports
the outcome as two bits (b0, b1).  Recombining the four outcomes with the
signs (-1)^(b_y) realizes the two observables sigma_z x sigma_z (y=0) and
sigma_x x sigma_x (y=1), which makes the joint-measurement network reproduce
the separable-measurement correlators with central directions z and x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .correlations import (
    PARITY_SIGNS,
    BilocalSettings,
    X_AXIS,
    Z_AXIS,
    correlator_from_distribution,
    directions_from_json,
    expectations,
    kron,
    outcome_distribution,
    projectors,
    validated_rows,
)
from .errors import MissingInputTupleError
from .qstate import BELL_KETS, PAULI_X, PAULI_Z, TwoQubitState, require_unit_vector

# Outcome index k <-> Bell vector and reported bits (b0, b1).  The signs
# (-1)^(b0) and (-1)^(b1) recombine the outcomes into the two observables.
BELL_OUTCOME_ORDER = ("phi+", "phi-", "psi+", "psi-")
BELL_OUTCOME_BITS = ((0, 0), (0, 1), (1, 0), (1, 1))

_BELL_PROJECTORS = np.array(
    [np.outer(BELL_KETS[name], BELL_KETS[name].conj()) for name in BELL_OUTCOME_ORDER]
)


def outcome_sign(y: int, k: int) -> int:
    """Sign carried by Bell outcome k in the y-th recombined observable."""
    return -1 if BELL_OUTCOME_BITS[k][y] else 1


def bsm_operator(y: int) -> np.ndarray:
    """Recombined central observable sum_k sign(y, k) |bell_k><bell_k|."""
    out = np.zeros((4, 4), dtype=complex)
    for k, proj in enumerate(_BELL_PROJECTORS):
        out = out + outcome_sign(y, k) * proj
    return out


@dataclass(frozen=True, eq=False)
class BsmDistribution:
    """p(a, k, c | x, z) for Bell-state measurement at the center.

    Rows are keyed by the end-station inputs (x, z) and indexed
    [a, bell outcome k, c] with k enumerating (phi+, phi-, psi+, psi-).
    """

    table: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "table", validated_rows(self.table, (2, 4, 2)))

    def row(self, x: int, z: int) -> np.ndarray:
        try:
            return self.table[(int(x), int(z))]
        except KeyError:
            raise MissingInputTupleError((int(x), int(z))) from None


def bsm_distribution(
    state_ab: TwoQubitState,
    state_bc: TwoQubitState,
    a0,
    a1,
    c0,
    c1,
) -> BsmDistribution:
    """Exact p(a, k, c | x, z) when the center performs a Bell-state measurement.

    The four end-station directions must be unit vectors within 1e-9; they
    are used as given, not normalized again.
    """
    for name, v in (("a0", a0), ("a1", a1), ("c0", c0), ("c1", c1)):
        require_unit_vector(v, name)
    proj_a = (projectors(a0), projectors(a1))
    proj_c = (projectors(c0), projectors(c1))
    rho = kron(state_ab.entries, state_bc.entries)
    table = {}
    for x, z in product(range(2), range(2)):
        # ops[a, k, c] = P_a (x) |bell_k><bell_k| (x) P_c on the four qubits.
        ops = kron(kron(proj_a[x][:, None, None], _BELL_PROJECTORS[:, None]), proj_c[z])
        table[(x, z)] = expectations(ops, rho)
    return BsmDistribution(table)


# _BSM_SIGNS[y, a, k, c] = (-1)^(a + b + c) with b the y-th bit of Bell outcome k.
_BSM_SIGNS = np.ascontiguousarray(
    PARITY_SIGNS[:, np.array(BELL_OUTCOME_BITS).T, :].transpose(1, 0, 2, 3)
)


def bsm_correlator(dist: BsmDistribution, x: int, y: int, z: int) -> float:
    """Three-party correlator with the Bell outcome mapped through sign(y, k)."""
    return float((dist.row(x, z) * _BSM_SIGNS[y]).sum())


def bilocality_from_bsm(dist: BsmDistribution) -> tuple[float, float, float]:
    """(I, J, B) assembled from Bell-state-measurement correlators."""
    i_val = 0.25 * sum(
        bsm_correlator(dist, x, 0, z) for x in range(2) for z in range(2)
    )
    j_val = 0.25 * sum(
        (-1.0) ** (x + z) * bsm_correlator(dist, x, 1, z)
        for x in range(2)
        for z in range(2)
    )
    b = math.sqrt(abs(i_val)) + math.sqrt(abs(j_val))
    return (float(i_val), float(j_val), float(b))


def theorem1_check(
    state_ab: TwoQubitState,
    state_bc: TwoQubitState,
    a0,
    a1,
    c0,
    c1,
) -> float:
    """Max correlator gap between the joint and separable central measurements.

    The separable side fixes the central directions to z (y=0) and x (y=1);
    the joint side recombines Bell outcomes through sign(y, k).  The two agree
    identically, so the return value is pure floating-point noise.
    """
    joint = bsm_distribution(state_ab, state_bc, a0, a1, c0, c1)
    settings = BilocalSettings(
        a0=a0, a1=a1, bA0=Z_AXIS, bA1=X_AXIS, bC0=Z_AXIS, bC1=X_AXIS, c0=c0, c1=c1
    )
    separable = outcome_distribution(state_ab, state_bc, settings)
    worst = 0.0
    for x, y, z in product(range(2), range(2), range(2)):
        diff = abs(
            bsm_correlator(joint, x, y, z)
            - correlator_from_distribution(separable, x, y, z)
        )
        worst = max(worst, diff)
    return worst


def distribution_to_csv(dist: BsmDistribution) -> str:
    """Flatten a BSM distribution into CSV rows x,z,a,b0,b1,c,p (12 digits)."""
    lines = ["x,z,a,b0,b1,c,p"]
    for x, z in sorted(dist.table):
        row = dist.table[(x, z)]
        for a, k, c in product(range(2), range(4), range(2)):
            b0, b1 = BELL_OUTCOME_BITS[k]
            lines.append(f"{x},{z},{a},{b0},{b1},{c},{row[a, k, c]:.12g}")
    return "\n".join(lines) + "\n"


def swap_settings_from_json(data) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse {"a0": [..], "a1": [..], "c0": [..], "c1": [..]} end-station settings."""
    return directions_from_json(data, ("a0", "a1", "c0", "c1"))


def observable_identity_residual() -> float:
    """Entrywise gap between the recombined observables and sigma_z/x pairs.

    Zero up to exact floating point: the y=0 recombination equals
    sigma_z x sigma_z and the y=1 recombination equals sigma_x x sigma_x.
    """
    worst = 0.0
    for y, pauli in ((0, PAULI_Z), (1, PAULI_X)):
        target = np.kron(pauli, pauli)
        worst = max(worst, float(np.abs(bsm_operator(y) - target).max()))
    return worst
