"""Eigenvalues of the small Hermitian and symmetric matrices the package checks.

Both functions hand the matrix to LAPACK through ``np.linalg.eigvalsh`` and
return the eigenvalues in ascending order.  They serve the 4x4 density
positivity check in ``qstate`` and the 3x3 correlation Grams behind
``criteria.t_spectrum``.  The benchmark tracer (``perfbench/tracing.py``)
wraps both functions by this module's name.
"""

from __future__ import annotations

import numpy as np


def _square(matrix, dtype) -> np.ndarray:
    a = np.asarray(matrix, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def eigvalsh_hermitian(matrix) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (lower triangle is read)."""
    return np.linalg.eigvalsh(_square(matrix, np.complex128))


def eigvalsh_symmetric(matrix) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix (lower triangle is read)."""
    return np.linalg.eigvalsh(_square(matrix, np.float64))
