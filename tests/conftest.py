"""Shared helpers for the test suite.

Settings generators produce central direction pairs that satisfy the
orthogonality constraint by construction (rotations of the canonical z/x
pair), so random-settings property tests stay inside the valid domain.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from qnetmax.correlations import BilocalSettings, StarBranch, StarSettings
from qnetmax.qstate import BELL_KETS, TwoQubitState, random_unit_vector

SQRT2 = float(np.sqrt(2.0))
ROOT = Path(__file__).resolve().parents[1]


def subprocess_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH, for child processes."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}

# Counterexample pair: one axis-aligned partly-entangled mixture against the
# colored-noise state at (v, lambda) = (7/10, 1/3).
COUNTEREXAMPLE_S_AB = 1.019803902718557  # sqrt(1.04)
COUNTEREXAMPLE_S_BC = 1.0630145812734648  # sqrt(1.13)
COUNTEREXAMPLE_B_MAX = 0.9695359714832658  # sqrt(0.94)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random SO(3) matrix via QR with positive diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_bilocal_settings(rng: np.random.Generator) -> BilocalSettings:
    """Random settings with orthogonal central pairs (rotated z/x frames)."""
    ra = random_rotation(rng)
    rc = random_rotation(rng)
    return BilocalSettings(
        a0=random_unit_vector(rng),
        a1=random_unit_vector(rng),
        bA0=ra[:, 0],
        bA1=ra[:, 1],
        bC0=rc[:, 0],
        bC1=rc[:, 1],
        c0=random_unit_vector(rng),
        c1=random_unit_vector(rng),
    )


def random_star_settings(rng: np.random.Generator, n: int) -> StarSettings:
    branches = []
    for _ in range(n):
        rot = random_rotation(rng)
        branches.append(
            StarBranch(
                a0=random_unit_vector(rng),
                a1=random_unit_vector(rng),
                b0=rot[:, 0],
                b1=rot[:, 1],
            )
        )
    return StarSettings(branches=tuple(branches))


def bell_diagonal_state(p_phi_plus, p_phi_minus, p_psi_plus, p_psi_minus) -> TwoQubitState:
    """Mixture of the four Bell projectors with the given weights."""
    weights = {
        "phi+": p_phi_plus,
        "phi-": p_phi_minus,
        "psi+": p_psi_plus,
        "psi-": p_psi_minus,
    }
    entries = np.zeros((4, 4), dtype=complex)
    for name, w in weights.items():
        ket = BELL_KETS[name]
        entries += w * np.outer(ket, ket.conj())
    return TwoQubitState(entries, label="bell-diagonal")


def counterexample_pair() -> tuple[TwoQubitState, TwoQubitState]:
    """The reference non-bilocal-looking pair that violates CHSH on both links
    yet cannot violate the pair inequality: spectra {1, 0.04} and {0.64, 0.49}."""
    from qnetmax.qstate import colored_noise_state

    state_ab = bell_diagonal_state(0.4, 0.0, 0.6, 0.0)
    state_bc = colored_noise_state(0.7, 1.0 / 3.0)
    return state_ab, state_bc


def skewed_triple() -> list[TwoQubitState]:
    """Three-branch star whose supremum sqrt(2) * 0.405^(1/3) beats star_max.

    Branch 1 has strongly unbalanced spectrum (singular values 0.9, 0.1, 0);
    the other two are isotropic.  Rotating branch 1's frames away from the
    singular basis trades singular-value weight between the two product
    terms, which raises the geometric-mean objective past the closed form.
    """
    from qnetmax.qstate import werner_state

    return [
        bell_diagonal_state(0.45, 0.05, 0.5, 0.0),
        werner_state(0.9),
        werner_state(0.9),
    ]
