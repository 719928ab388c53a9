"""Eigenvalue helpers against numpy, exact structure and the PSD check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetmax import jacobi
from qnetmax.errors import NotPSDError
from qnetmax.qstate import VALIDATION_TOL, make_state


def test_symmetric_diagonal_input_sorted():
    vals = jacobi.eigvalsh_symmetric(np.diag([2.0, -1.0, 0.5]))
    np.testing.assert_allclose(vals, [-1.0, 0.5, 2.0], atol=1e-15)


def test_symmetric_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.standard_normal((3, 3))
        sym = (a + a.T) / 2.0
        got = jacobi.eigvalsh_symmetric(sym)
        want = np.linalg.eigvalsh(sym)
        np.testing.assert_allclose(got, want, atol=1e-11)


def test_hermitian_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        herm = (g + g.conj().T) / 2.0
        got = jacobi.eigvalsh_hermitian(herm)
        want = np.linalg.eigvalsh(herm)
        np.testing.assert_allclose(got, want, atol=1e-11)


def test_hermitian_handles_degenerate_spectrum():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    herm = q @ np.diag([1.0, 1.0, 1.0, 0.0]) @ q.conj().T
    got = jacobi.eigvalsh_hermitian(herm)
    np.testing.assert_allclose(got, [0.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    sym = (a + a.T) / 2.0
    vals = jacobi.eigvalsh_symmetric(sym)
    assert float(vals.sum()) == pytest.approx(float(np.trace(sym)), abs=1e-12)


@pytest.mark.parametrize("solver", [jacobi.eigvalsh_symmetric, jacobi.eigvalsh_hermitian])
@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
def test_non_square_input_raises(solver, shape):
    with pytest.raises(ValueError, match="square"):
        solver(np.zeros(shape))


def test_degenerate_spectra_come_back_ascending():
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    sym = q @ np.diag([0.25, 0.0, 0.25]) @ q.T
    got = jacobi.eigvalsh_symmetric(sym)
    assert np.all(np.diff(got) >= 0.0)
    np.testing.assert_allclose(got, [0.0, 0.25, 0.25], atol=1e-15)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    herm = u @ np.diag([0.5, 0.0, 0.5, 0.0]) @ u.conj().T
    got = jacobi.eigvalsh_hermitian(herm)
    assert np.all(np.diff(got) >= 0.0)
    np.testing.assert_allclose(got, [0.0, 0.0, 0.5, 0.5], atol=1e-15)


def _state_with_smallest_eigenvalue(smallest):
    rng = np.random.default_rng(23)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    eigs = np.array([smallest, 0.25, 0.25, 0.5 - smallest])
    return u @ np.diag(eigs) @ u.conj().T


def test_psd_check_boundary_at_validation_tolerance():
    assert VALIDATION_TOL == 1e-9
    make_state(_state_with_smallest_eigenvalue(-5e-10))
    with pytest.raises(NotPSDError, match="negative eigenvalue -2"):
        make_state(_state_with_smallest_eigenvalue(-2e-9))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_symmetric_psd_gram_eigenvalues_nonnegative(seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(3, 3))
    vals = jacobi.eigvalsh_symmetric(m.T @ m)
    assert vals[0] >= -1e-12
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(m.T @ m), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gram_shares_nonzero_spectrum_with_reversed_product(seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(3, 3))
    left = jacobi.eigvalsh_symmetric(m.T @ m)
    right = jacobi.eigvalsh_symmetric(m @ m.T)
    mask = (left > 1e-10) | (right > 1e-10)
    if np.any(mask):
        np.testing.assert_allclose(left[mask], right[mask], atol=1e-9)
