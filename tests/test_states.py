"""States, named families, correlation data, and the JSON state schema."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetmax.errors import (
    NotHermitianError,
    NotPSDError,
    ParameterOutOfRangeError,
    QnetmaxError,
    StateFormatError,
    TraceNotOneError,
    ValidationError,
)
from qnetmax.qstate import (
    BELL_KETS,
    CorrelationMatrix,
    TwoQubitState,
    apply_local_unitaries,
    bell_state,
    bloch_rotation,
    bloch_vectors,
    colored_noise_state,
    correlation_matrix,
    json_number,
    load_state,
    make_state,
    random_state,
    random_unitary,
    state_from_json,
    swap_qubits,
    unit_vector,
    werner_state,
)

MIXED = np.eye(4) / 4.0


# ---------------------------------------------------------------------------
# TwoQubitState validation
# ---------------------------------------------------------------------------


def test_rejects_wrong_shape():
    with pytest.raises(ValidationError, match="4x4"):
        make_state(np.eye(3) / 3.0)


def test_rejects_non_finite():
    bad = MIXED.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        make_state(bad)


def test_rejects_non_hermitian():
    bad = MIXED.copy().astype(complex)
    bad[0, 1] = 0.5
    with pytest.raises(NotHermitianError):
        make_state(bad)


def test_rejects_bad_trace():
    with pytest.raises(TraceNotOneError):
        make_state(np.eye(4) / 2.0)


def test_rejects_negative_eigenvalue():
    with pytest.raises(NotPSDError):
        make_state(np.diag([1.5, -0.5, 0.0, 0.0]))


def test_entries_are_read_only():
    state = werner_state(0.5)
    with pytest.raises((ValueError, RuntimeError)):
        state.entries[0, 0] = 9.0


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def test_bell_states_are_pure_projectors():
    for which, ket in BELL_KETS.items():
        rho = bell_state(which).entries
        assert float(np.trace(rho).real) == pytest.approx(1.0, abs=1e-14)
        purity = float(np.trace(rho @ rho).real)
        assert purity == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(rho, np.outer(ket, ket.conj()), atol=1e-15)


def test_bell_state_unknown_name():
    with pytest.raises(ValueError, match="unknown Bell state") as info:
        bell_state("sigma+")
    assert isinstance(info.value, QnetmaxError)
    with pytest.raises(ParameterOutOfRangeError, match="unknown Bell state"):
        bell_state("chi")


def test_werner_limits():
    np.testing.assert_allclose(werner_state(0.0).entries, MIXED, atol=1e-15)
    np.testing.assert_allclose(
        werner_state(1.0).entries, bell_state("psi-").entries, atol=1e-15
    )


def test_werner_half_correlation_matrix():
    t = correlation_matrix(werner_state(0.5)).t
    np.testing.assert_allclose(t, -0.5 * np.eye(3), atol=1e-14)


def test_werner_rejects_out_of_range():
    with pytest.raises(ParameterOutOfRangeError):
        werner_state(1.2)
    with pytest.raises(ParameterOutOfRangeError):
        werner_state(-0.1)


def test_colored_noise_reference_entries():
    entries = colored_noise_state(0.7, 1.0 / 3.0).entries
    expected = np.array(
        [
            [0.05, 0.0, 0.0, 0.0],
            [0.0, 0.45, -0.35, 0.0],
            [0.0, -0.35, 0.45, 0.0],
            [0.0, 0.0, 0.0, 0.05],
        ]
    )
    np.testing.assert_allclose(entries, expected, atol=1e-15)


def test_colored_noise_limits():
    np.testing.assert_allclose(
        colored_noise_state(1.0, 0.37).entries, bell_state("psi-").entries, atol=1e-15
    )
    np.testing.assert_allclose(colored_noise_state(0.0, 0.0).entries, MIXED, atol=1e-15)


def test_colored_noise_rejects_out_of_range():
    with pytest.raises(ParameterOutOfRangeError):
        colored_noise_state(1.5, 0.5)
    with pytest.raises(ParameterOutOfRangeError):
        colored_noise_state(0.5, -0.01)


# ---------------------------------------------------------------------------
# Correlation data
# ---------------------------------------------------------------------------


def test_singlet_correlation_matrix():
    t = correlation_matrix(bell_state("psi-")).t
    np.testing.assert_allclose(t, -np.eye(3), atol=1e-14)


def test_phi_plus_correlation_matrix():
    t = correlation_matrix(bell_state("phi+")).t
    np.testing.assert_allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_mixed_correlation_matrix_is_zero():
    t = correlation_matrix(make_state(MIXED)).t
    np.testing.assert_allclose(t, np.zeros((3, 3)), atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_correlation_matrix_rejects_non_finite_entries(bad):
    t = np.diag([0.5, -0.5, 0.5])
    t[1, 2] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        CorrelationMatrix(t)


def test_correlation_matrix_linear_in_state():
    rng = np.random.default_rng(19)
    for _ in range(25):
        s1 = random_state(int(rng.integers(0, 2**31)))
        s2 = random_state(int(rng.integers(0, 2**31)))
        p = float(rng.random())
        mix = make_state(p * s1.entries + (1.0 - p) * s2.entries)
        t_mix = correlation_matrix(mix).t
        t_sum = p * correlation_matrix(s1).t + (1.0 - p) * correlation_matrix(s2).t
        np.testing.assert_allclose(t_mix, t_sum, atol=1e-12)


def test_correlation_matrix_local_unitary_covariance():
    rng = np.random.default_rng(23)
    for _ in range(25):
        state = random_state(int(rng.integers(0, 2**31)))
        u1 = random_unitary(rng)
        u2 = random_unitary(rng)
        rotated = apply_local_unitaries(state, u1, u2)
        r1 = bloch_rotation(u1)
        r2 = bloch_rotation(u2)
        np.testing.assert_allclose(
            correlation_matrix(rotated).t,
            r1 @ correlation_matrix(state).t @ r2.T,
            atol=1e-9,
        )


def test_bloch_rotation_is_special_orthogonal():
    rng = np.random.default_rng(29)
    for _ in range(20):
        r = bloch_rotation(random_unitary(rng))
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_bloch_vectors_reference_cases():
    for which in BELL_KETS:
        left, right = bloch_vectors(bell_state(which))
        np.testing.assert_allclose(left, 0.0, atol=1e-14)
        np.testing.assert_allclose(right, 0.0, atol=1e-14)
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    left, right = bloch_vectors(make_state(np.outer(ket00, ket00.conj())))
    np.testing.assert_allclose(left, [0.0, 0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(right, [0.0, 0.0, 1.0], atol=1e-14)
    left, right = bloch_vectors(werner_state(0.7))
    np.testing.assert_allclose(left, 0.0, atol=1e-14)
    np.testing.assert_allclose(right, 0.0, atol=1e-14)


def test_swap_qubits_transposes_correlation_matrix():
    rng = np.random.default_rng(31)
    for _ in range(10):
        state = random_state(int(rng.integers(0, 2**31)))
        np.testing.assert_allclose(
            correlation_matrix(swap_qubits(state)).t,
            correlation_matrix(state).t.T,
            atol=1e-13,
        )


# ---------------------------------------------------------------------------
# random_state
# ---------------------------------------------------------------------------


def test_random_state_deterministic():
    a = random_state(123)
    b = random_state(123)
    assert np.array_equal(a.entries, b.entries)


def test_random_state_correlators_bounded():
    for seed in range(200):
        t = correlation_matrix(random_state(seed)).t
        assert float(np.abs(t).max()) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_random_state_is_always_valid(seed):
    state = random_state(seed)
    assert state.entries.shape == (4, 4)


# ---------------------------------------------------------------------------
# Direction helpers
# ---------------------------------------------------------------------------


def test_unit_vector_normalizes():
    v = unit_vector((0.0, 3.0, 4.0))
    np.testing.assert_allclose(v, [0.0, 0.6, 0.8], atol=1e-15)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_unit_vector_rejects_bad_input():
    with pytest.raises(ValidationError):
        unit_vector((1.0, 2.0))
    with pytest.raises(ValidationError):
        unit_vector((0.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        unit_vector((np.inf, 0.0, 0.0))
    for overflowing in [(1e200, 0.0, 0.0), (1e308, 1e308, 0.0)]:
        with pytest.raises(ValidationError, match="norm overflows"):
            unit_vector(overflowing)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def test_state_from_json_families():
    w = state_from_json({"family": "werner", "v": 0.5})
    np.testing.assert_allclose(w.entries, werner_state(0.5).entries, atol=1e-15)
    c = state_from_json({"family": "colored", "v": 0.7, "lambda": 1.0 / 3.0})
    np.testing.assert_allclose(
        c.entries, colored_noise_state(0.7, 1.0 / 3.0).entries, atol=1e-15
    )
    b = state_from_json({"family": "bell", "which": "psi-"})
    np.testing.assert_allclose(b.entries, bell_state("psi-").entries, atol=1e-15)


def test_state_from_json_matrix_form():
    doc = {
        "label": "mixed",
        "re": (MIXED).tolist(),
        "im": np.zeros((4, 4)).tolist(),
    }
    state = state_from_json(doc)
    assert state.label == "mixed"
    np.testing.assert_allclose(state.entries, MIXED, atol=1e-15)


@pytest.mark.parametrize(
    "doc, match",
    [
        ([1, 2], "JSON object"),
        ({"family": "ghz"}, "unknown family"),
        ({"family": "werner"}, "missing required field 'v'"),
        ({"family": "werner", "v": True}, "must be a number"),
        ({"family": "werner", "v": 0.5, "extra": 1}, "unknown field"),
        ({"family": "bell", "which": "chi"}, "'which' must be one of"),
        ({"re": [[0.25] * 4] * 3, "im": [[0.0] * 4] * 4}, "4x4"),
        ({"re": [[0.25] * 4] * 4, "im": [["x"] * 4] * 4}, "only numbers"),
        ({"re": [[0.25] * 4] * 4, "im": [[0.0] * 4] * 4, "oops": 1}, "unknown field"),
        ({"label": 7, "re": [[0.25] * 4] * 4, "im": [[0.0] * 4] * 4}, "label"),
        ({}, "either 'family' or 're'/'im'"),
        ({"family": ["werner"], "v": 0.5}, "unknown family"),
        ({"family": "bell", "which": ["phi+"]}, "'which' must be one of"),
        ({"family": "werner", "v": 10**400}, "field 'v' must be a number"),
        ({"family": "colored", "v": 0.5, "lambda": -(10**400)}, "field 'lambda' must be a number"),
        ({"family": "werner", "v": math.nan}, "field 'v' must be a number"),
        ({"family": "werner", "v": math.inf}, "field 'v' must be a number"),
        ({"re": [[10**400] * 4] * 4, "im": [[0.0] * 4] * 4}, "field 're' must contain only"),
        ({"re": [[0.25] * 4] * 4, "im": [[-(10**400)] * 4] * 4}, "field 'im' must contain only"),
        ({"re": [[math.nan] * 4] * 4, "im": [[0.0] * 4] * 4}, "field 're' must contain only"),
    ],
)
def test_state_from_json_rejections(doc, match):
    with pytest.raises(StateFormatError, match=match):
        state_from_json(doc)


@pytest.mark.parametrize(
    "value, expected",
    [(0, 0.0), (-3, -3.0), (0.25, 0.25), (2**53 + 1, 9007199254740992.0), (1e308, 1e308)],
)
def test_json_number_reads_finite_numbers(value, expected):
    assert json_number(value) == expected


@pytest.mark.parametrize(
    "value",
    [True, False, None, "0.5", [0.5], {"v": 0.5}, 10**400, -(10**400),
     math.nan, math.inf, -math.inf, json.loads("1e999")],
)
def test_json_number_rejects_non_numbers_and_non_finite_values(value):
    assert json_number(value) is None


def test_state_from_json_invalid_matrix_raises_validation():
    doc = {"re": np.diag([1.5, -0.5, 0.0, 0.0]).tolist(), "im": np.zeros((4, 4)).tolist()}
    with pytest.raises(NotPSDError):
        state_from_json(doc)


def test_state_from_json_overflowing_matrix_is_not_psd():
    # Hermitian and trace one, but rho + rho^dag would overflow to inf; the
    # entry bound rejects it first, without a numpy warning.
    re = np.diag([0.25] * 4)
    re[0, 1] = re[1, 0] = 1e308
    doc = {"re": re.tolist(), "im": np.zeros((4, 4)).tolist()}
    with pytest.raises(NotPSDError, match="entry of magnitude 1.000e\\+308"):
        state_from_json(doc)


def _diag_with(off_diagonal=None, diagonal=(0.25,) * 4):
    entries = np.diag(diagonal).astype(complex)
    if off_diagonal is not None:
        entries[0, 1], entries[1, 0] = off_diagonal
    return entries


@pytest.mark.parametrize(
    "entries, error",
    [
        (_diag_with((1e308, -1e308)), NotHermitianError),
        (_diag_with((1e308j, 1e308j)), NotHermitianError),
        (_diag_with(diagonal=(1e308, 1e308, 1e308, 0.0)), TraceNotOneError),
        (_diag_with(diagonal=(1e308, 1e308, -1e308, -1e308)), TraceNotOneError),
        (_diag_with((3.0, 3.0)), NotPSDError),
    ],
)
def test_huge_entries_are_rejected_without_overflow(entries, error):
    # Tier-1 turns every RuntimeWarning into an error, so an overflow fails here.
    with pytest.raises(error):
        make_state(entries)


def test_correlation_matrix_is_computed_once_per_state():
    state = random_state(5)
    corr = correlation_matrix(state)
    assert correlation_matrix(state) is corr
    assert not corr.t.flags.writeable
    assert "_corr" not in repr(state)
    assert [f.name for f in dataclasses.fields(state)] == ["entries", "label"]


def test_swap_qubits_keeps_its_own_correlation_matrix():
    state = random_state(6)
    corr = correlation_matrix(state)
    swapped = swap_qubits(state)
    assert correlation_matrix(swapped) is not corr
    np.testing.assert_allclose(correlation_matrix(swapped).t, corr.t.T, rtol=0, atol=1e-15)
    assert correlation_matrix(state) is corr


def test_stored_correlation_matrix_has_the_bits_of_a_fresh_one():
    for seed in range(200):
        state = random_state(seed)
        correlation_matrix(state)
        fresh = correlation_matrix(make_state(state.entries))
        assert correlation_matrix(state).t.tobytes() == fresh.t.tobytes()


def test_states_compare_and_hash_by_identity():
    # What is stored on a state belongs to that object, so equality is identity.
    state = random_state(5)
    assert state == state
    assert random_state(5) != random_state(5)
    assert {state: "first"}[state] == "first"
    assert repr(state) == f"TwoQubitState(entries={state.entries!r}, label={state.label!r})"


def test_load_state_roundtrip(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"family": "werner", "v": 0.8}))
    state = load_state(path)
    np.testing.assert_allclose(state.entries, werner_state(0.8).entries, atol=1e-15)


def test_load_state_errors_carry_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StateFormatError, match="bad.json"):
        load_state(path)
    path2 = tmp_path / "badstate.json"
    path2.write_text(json.dumps({"family": "werner", "v": 2.0}))
    with pytest.raises(ParameterOutOfRangeError, match="badstate.json"):
        load_state(path2)


@pytest.mark.parametrize(
    "content", [b"\xff", b"[" * 100_000], ids=["not-utf8", "nested-too-deeply"]
)
def test_load_state_rejects_undecodable_files(tmp_path, content):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    with pytest.raises(StateFormatError, match="undecodable.json: invalid JSON"):
        load_state(path)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4).filter(
        lambda w: sum(w) > 1e-6
    )
)
def test_bell_mixtures_are_valid_states(weights):
    total = sum(weights)
    entries = sum(
        (w / total) * np.outer(BELL_KETS[name], BELL_KETS[name].conj())
        for w, name in zip(weights, ("phi+", "phi-", "psi+", "psi-"))
    )
    state = make_state(entries)
    t = correlation_matrix(state).t
    assert float(np.abs(t).max()) <= 1.0 + 1e-12
