"""Bell-state-measurement simulation and its equivalence to separable settings."""

from itertools import product

import numpy as np
import pytest

from conftest import SQRT2
from qnetmax.correlations import (
    BilocalSettings,
    OutcomeDistribution,
    bilocality_value,
    kron,
    outcome_distribution,
    pauli_dot,
    zx_diagonal_settings,
)
from qnetmax.errors import (
    MissingInputTupleError,
    SettingsFormatError,
    ValidationError,
)
from qnetmax.qstate import (
    BELL_KETS,
    PAULIS,
    bell_state,
    make_state,
    random_state,
    random_unit_vector,
    random_unitary,
    werner_state,
)
from qnetmax.swap import (
    BELL_OUTCOME_BITS,
    BELL_OUTCOME_ORDER,
    BsmDistribution,
    bilocality_from_bsm,
    bsm_correlator,
    bsm_distribution,
    bsm_operator,
    distribution_to_csv,
    observable_identity_residual,
    outcome_sign,
    swap_settings_from_json,
    theorem1_check,
)

SINGLET = bell_state("psi-")
MIXED = make_state(np.eye(4) / 4.0)
ZX = zx_diagonal_settings()


# ---------------------------------------------------------------------------
# Recombined central observables
# ---------------------------------------------------------------------------


def test_outcome_signs_follow_the_bit_table():
    for k, (b0, b1) in enumerate(BELL_OUTCOME_BITS):
        assert outcome_sign(0, k) == (-1) ** b0
        assert outcome_sign(1, k) == (-1) ** b1


def test_observable_identity_residual_is_floating_point_noise():
    assert observable_identity_residual() < 1e-14


def test_recombined_observables_are_pauli_pairs():
    zz = np.kron([[1, 0], [0, -1]], [[1, 0], [0, -1]]).astype(complex)
    xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(complex)
    assert float(np.abs(bsm_operator(0) - zz).max()) < 1e-14
    assert float(np.abs(bsm_operator(1) - xx).max()) < 1e-14


def test_rotated_bell_basis_induces_orthogonal_direction_pairs():
    # Conjugating the recombined observables by local unitaries keeps them
    # rank-one in the Pauli-pair expansion, with the two per-qubit directions
    # forming orthogonal pairs across the y = 0, 1 observables.
    rng = np.random.default_rng(101)
    for _ in range(10):
        u1 = random_unitary(rng)
        u2 = random_unitary(rng)
        u = np.kron(u1, u2)
        dirs = []
        for y in range(2):
            op = u @ bsm_operator(y) @ u.conj().T
            coeff = np.empty((3, 3))
            for i, si in enumerate(PAULIS):
                for j, sj in enumerate(PAULIS):
                    coeff[i, j] = np.trace(np.kron(si, sj) @ op).real / 4.0
            left, sing, right = np.linalg.svd(coeff)
            assert sing[0] == pytest.approx(1.0, abs=1e-9)
            assert float(np.abs(sing[1:]).max()) < 1e-9
            dirs.append((left[:, 0], right[0, :]))
        (a_vec, c_vec), (ap_vec, cp_vec) = dirs
        assert abs(float(a_vec @ ap_vec)) < 1e-9
        assert abs(float(c_vec @ cp_vec)) < 1e-9


# ---------------------------------------------------------------------------
# bsm_distribution
# ---------------------------------------------------------------------------


def test_singlet_pair_bell_outcomes_are_uniform():
    rng = np.random.default_rng(103)
    dist = bsm_distribution(
        SINGLET,
        SINGLET,
        random_unit_vector(rng),
        random_unit_vector(rng),
        random_unit_vector(rng),
        random_unit_vector(rng),
    )
    for x, z in product(range(2), range(2)):
        by_outcome = dist.row(x, z).sum(axis=(0, 2))
        np.testing.assert_allclose(by_outcome, 0.25, atol=1e-13)


def test_product_zz_state_only_phi_outcomes():
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    zz_state = make_state(np.outer(ket00, ket00.conj()))
    dist = bsm_distribution(zz_state, zz_state, ZX.a0, ZX.a1, ZX.c0, ZX.c1)
    by_outcome = dist.row(0, 0).sum(axis=(0, 2))
    want = {"phi+": 0.5, "phi-": 0.5, "psi+": 0.0, "psi-": 0.0}
    for k, name in enumerate(BELL_OUTCOME_ORDER):
        assert by_outcome[k] == pytest.approx(want[name], abs=1e-13)


def test_rows_are_normalized():
    rng = np.random.default_rng(107)
    dist = bsm_distribution(
        random_state(11),
        random_state(12),
        random_unit_vector(rng),
        random_unit_vector(rng),
        random_unit_vector(rng),
        random_unit_vector(rng),
    )
    for x, z in product(range(2), range(2)):
        row = dist.row(x, z)
        assert row.shape == (2, 4, 2)
        assert float(row.min()) >= -1e-12
        assert float(row.sum()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_non_finite_rows_are_rejected(bad_value):
    bsm_row = np.full((2, 4, 2), 1.0 / 16.0)
    bsm_row[0, 0, 0] = bad_value
    with pytest.raises(ValidationError, match="non-finite"):
        BsmDistribution({(0, 0): bsm_row})
    outcome_row = np.full((2, 2, 2), 0.125)
    outcome_row[1, 0, 1] = bad_value
    with pytest.raises(ValidationError, match="non-finite"):
        OutcomeDistribution({(0, 0, 0): outcome_row})


@pytest.mark.parametrize(
    "bad_direction",
    [(0.0, 0.0, 0.0), (np.nan, 0.0, 1.0), (0.0, 1.0), (0.0, 0.0, 0.5)],
    ids=["zero", "nan", "two-components", "unsharp"],
)
@pytest.mark.parametrize("position", range(4))
def test_bsm_distribution_rejects_non_unit_directions(bad_direction, position):
    dirs = [ZX.a0, ZX.a1, ZX.c0, ZX.c1]
    dirs[position] = bad_direction
    with pytest.raises(ValidationError, match="direction"):
        bsm_distribution(SINGLET, SINGLET, *dirs)
    with pytest.raises(ValidationError, match="direction"):
        theorem1_check(SINGLET, SINGLET, *dirs)


def test_distribution_validation():
    good = np.full((2, 4, 2), 1.0 / 16.0)
    with pytest.raises(ValidationError, match="shape"):
        BsmDistribution({(0, 0): np.full((2, 2, 2), 0.125)})
    bad = good.copy()
    bad[0, 0, 0] = -0.01
    bad[1, 3, 1] += 0.01
    with pytest.raises(ValidationError, match="negative"):
        BsmDistribution({(0, 0): bad})
    with pytest.raises(ValidationError, match="sum to"):
        BsmDistribution({(0, 0): good * 2.0})
    dist = BsmDistribution({(0, 0): good})
    with pytest.raises(MissingInputTupleError):
        dist.row(1, 0)


# ---------------------------------------------------------------------------
# Correlators and the assembled network value
# ---------------------------------------------------------------------------


def test_uniform_distribution_has_zero_correlators():
    dist = BsmDistribution(
        {(x, z): np.full((2, 4, 2), 1.0 / 16.0) for x in range(2) for z in range(2)}
    )
    for x, y, z in product(range(2), range(2), range(2)):
        assert bsm_correlator(dist, x, y, z) == pytest.approx(0.0, abs=1e-15)


def test_singlets_assemble_to_root_two():
    dist = bsm_distribution(SINGLET, SINGLET, ZX.a0, ZX.a1, ZX.c0, ZX.c1)
    i_val, j_val, b = bilocality_from_bsm(dist)
    assert i_val == pytest.approx(0.5, abs=1e-13)
    assert j_val == pytest.approx(0.5, abs=1e-13)
    assert b == pytest.approx(SQRT2, abs=1e-13)


def test_symmetric_distribution_equalizes_the_two_recombinations():
    # On two singlets the Bell-outcome populations are uniform and the (x, z)
    # roles symmetric, so both recombined observables see the same correlator
    # magnitudes at mirrored settings.
    dist = bsm_distribution(SINGLET, SINGLET, ZX.a0, ZX.a1, ZX.c0, ZX.c1)
    assert abs(bsm_correlator(dist, 0, 0, 0)) == pytest.approx(
        abs(bsm_correlator(dist, 0, 1, 0)), abs=1e-13
    )


# ---------------------------------------------------------------------------
# theorem1_check
# ---------------------------------------------------------------------------


def test_reference_settings_identity():
    assert theorem1_check(SINGLET, SINGLET, ZX.a0, ZX.a1, ZX.c0, ZX.c1) <= 1e-12


def test_mixed_states_identity():
    assert theorem1_check(MIXED, MIXED, ZX.a0, ZX.a1, ZX.c0, ZX.c1) <= 1e-14


def test_random_states_and_settings_identity():
    rng = np.random.default_rng(109)
    for _ in range(20):
        s1 = random_state(int(rng.integers(0, 2**31)))
        s2 = random_state(int(rng.integers(0, 2**31)))
        dirs = [random_unit_vector(rng) for _ in range(4)]
        assert theorem1_check(s1, s2, *dirs) <= 1e-12


# ---------------------------------------------------------------------------
# CSV and settings JSON
# ---------------------------------------------------------------------------


def test_distribution_csv_layout():
    dist = bsm_distribution(SINGLET, SINGLET, ZX.a0, ZX.a1, ZX.c0, ZX.c1)
    text = distribution_to_csv(dist)
    lines = text.strip().split("\n")
    assert lines[0] == "x,z,a,b0,b1,c,p"
    assert len(lines) == 1 + 4 * 16
    total = 0.0
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert all(c in "01" for c in cells[:6])
        total += float(cells[6])
    assert total == pytest.approx(4.0, abs=1e-9)


def test_swap_settings_json_roundtrip():
    doc = {
        "a0": [0.0, 0.0, 1.0],
        "a1": [1.0, 0.0, 0.0],
        "c0": [0.0, 1.0, 0.0],
        "c1": [0.0, 0.0, 1.0],
    }
    a0, a1, c0, c1 = swap_settings_from_json(doc)
    np.testing.assert_allclose(a0, [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(c1, [0, 0, 1], atol=1e-15)
    with pytest.raises(SettingsFormatError, match="missing settings field 'c0'"):
        swap_settings_from_json({k: doc[k] for k in ("a0", "a1", "c1")})
    with pytest.raises(SettingsFormatError, match="unknown settings field"):
        swap_settings_from_json({**doc, "b0": [0, 0, 1]})


# ---------------------------------------------------------------------------
# Consistency with the separable-measurement route
# ---------------------------------------------------------------------------


def test_bsm_route_matches_separable_route_on_werner_pair():
    s1 = werner_state(0.8)
    s2 = werner_state(0.9)
    rng = np.random.default_rng(113)
    a0, a1 = random_unit_vector(rng), random_unit_vector(rng)
    c0, c1 = random_unit_vector(rng), random_unit_vector(rng)
    dist = bsm_distribution(s1, s2, a0, a1, c0, c1)
    settings = BilocalSettings(
        a0=a0, a1=a1, bA0=ZX.bA0, bA1=ZX.bA1, bC0=ZX.bC0, bC1=ZX.bC1, c0=c0, c1=c1
    )
    want = bilocality_value(s1, s2, settings)
    got = bilocality_from_bsm(dist)
    for got_part, want_part in zip(got, want):
        assert got_part == pytest.approx(want_part, abs=1e-13)


# ---------------------------------------------------------------------------
# Bit identity with the per-entry np.kron simulation
# ---------------------------------------------------------------------------


def _kron_projector(v, outcome):
    sign = -1.0 if outcome else 1.0
    return (np.eye(2, dtype=complex) + sign * pauli_dot(v)) / 2.0


_KRON_BELL = [
    np.outer(BELL_KETS[name], BELL_KETS[name].conj()) for name in BELL_OUTCOME_ORDER
]


def _kron_bsm_distribution(state_ab, state_bc, a0, a1, c0, c1):
    """Reference: one 64x64-entry np.kron operator and trace per table entry."""
    rho = np.kron(state_ab.entries, state_bc.entries)
    a_dirs = (a0, a1)
    c_dirs = (c0, c1)
    table = {}
    for x, z in product(range(2), range(2)):
        row = np.empty((2, 4, 2))
        proj_a = [_kron_projector(a_dirs[x], a) for a in range(2)]
        proj_c = [_kron_projector(c_dirs[z], c) for c in range(2)]
        for a, k, c in product(range(2), range(4), range(2)):
            op = np.kron(np.kron(proj_a[a], _KRON_BELL[k]), proj_c[c])
            row[a, k, c] = np.trace(op @ rho).real
        table[(x, z)] = row
    return table


def _kron_pair_distribution(state, first, second):
    """Reference: one np.kron operator and trace per pair outcome."""
    out = np.empty((2, 2))
    for o1, o2 in product(range(2), range(2)):
        op = np.kron(_kron_projector(first, o1), _kron_projector(second, o2))
        out[o1, o2] = np.trace(op @ state.entries).real
    return out


def _kron_outcome_distribution(state_ab, state_bc, s):
    """Reference: parity rows accumulated outer product by outer product."""
    table = {}
    for x, y, z in product(range(2), range(2), range(2)):
        left = _kron_pair_distribution(state_ab, (s.a0, s.a1)[x], (s.bA0, s.bA1)[y])
        right = _kron_pair_distribution(state_bc, (s.bC0, s.bC1)[y], (s.c0, s.c1)[z])
        row = np.zeros((2, 2, 2))
        for beta_a, beta_c in product(range(2), range(2)):
            row[:, beta_a ^ beta_c, :] += np.outer(left[:, beta_a], right[beta_c, :])
        table[(x, y, z)] = row
    return table


def test_kron_matches_numpy_kron_exactly():
    rng = np.random.default_rng(127)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b = cplx(2, 3), cplx(4, 2)
    assert np.array_equal(kron(a, b), np.kron(a, b))
    batch_a, batch_b = cplx(3, 1, 2, 2), cplx(5, 4, 4)
    got = kron(batch_a, batch_b)
    assert got.shape == (3, 5, 8, 8)
    for i, j in product(range(3), range(5)):
        assert np.array_equal(got[i, j], np.kron(batch_a[i, 0], batch_b[j]))


def test_stacked_tables_equal_the_kron_reference_bit_for_bit():
    rng = np.random.default_rng(131)
    for _ in range(200):
        s = int(rng.integers(0, 2**62))
        state_ab, state_bc = random_state(s), random_state(s + 1)
        dirs = [random_unit_vector(rng) for _ in range(4)]
        got = bsm_distribution(state_ab, state_bc, *dirs).table
        want = _kron_bsm_distribution(state_ab, state_bc, *dirs)
        assert all(np.array_equal(got[k], want[k]) for k in want)
        settings = BilocalSettings(
            a0=dirs[0], a1=dirs[1], bA0=dirs[2], bA1=np.cross(dirs[2], dirs[3]),
            bC0=dirs[3], bC1=np.cross(dirs[3], dirs[0]), c0=dirs[2], c1=dirs[3],
        )
        got = outcome_distribution(state_ab, state_bc, settings).table
        want = _kron_outcome_distribution(state_ab, state_bc, settings)
        assert all(np.array_equal(got[k], want[k]) for k in want)


def test_directions_within_the_norm_tolerance_are_used_as_given():
    dirs = [np.array(ZX.a0) * (1.0 + 1e-10), ZX.a1, ZX.c0, ZX.c1]
    state_ab, state_bc = random_state(5), random_state(6)
    got = bsm_distribution(state_ab, state_bc, *dirs).table
    want = _kron_bsm_distribution(state_ab, state_bc, *dirs)
    assert all(np.array_equal(got[k], want[k]) for k in want)


@pytest.mark.parametrize(
    "seed, residual_hex",
    [
        (11, "0x1.6000000000000p-54"),
        (2024, "0x1.9000000000000p-54"),
        (987654321, "0x1.2000000000000p-54"),
    ],
)
def test_theorem1_residual_bits_are_pinned(seed, residual_hex):
    # The residual is pure rounding noise, so any reordering of the
    # simulation's arithmetic shows up in its last bits.
    rng = np.random.default_rng(seed)
    dirs = [random_unit_vector(rng) for _ in range(4)]
    residual = theorem1_check(random_state(seed), random_state(seed + 1), *dirs)
    assert residual.hex() == residual_hex
