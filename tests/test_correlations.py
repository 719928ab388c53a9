"""Explicit-settings network values, outcome distributions, and settings JSON."""

import math

import numpy as np
import pytest

from conftest import SQRT2, random_bilocal_settings, random_star_settings
from qnetmax.correlations import (
    BilocalSettings,
    OutcomeDistribution,
    StarBranch,
    StarSettings,
    bilocal_settings_from_json,
    bilocality_value,
    correlator_from_distribution,
    outcome_distribution,
    star_settings_from_json,
    star_value,
    zx_diagonal_settings,
)
from qnetmax.criteria import bilocality_max
from qnetmax.errors import (
    MissingInputTupleError,
    SettingsArityMismatchError,
    SettingsFormatError,
    ValidationError,
)
from qnetmax.qstate import (
    bell_state,
    correlation_matrix,
    make_state,
    random_state,
    swap_qubits,
)

SINGLET = bell_state("psi-")
MIXED = make_state(np.eye(4) / 4.0)
ZX = zx_diagonal_settings()


# ---------------------------------------------------------------------------
# Settings validation
# ---------------------------------------------------------------------------


def test_settings_vectors_are_normalized():
    s = BilocalSettings(
        a0=(0.0, 0.0, 2.0),
        a1=(3.0, 0.0, 0.0),
        bA0=(0.0, 0.0, 5.0),
        bA1=(5.0, 0.0, 0.0),
        bC0=(0.0, 2.0, 0.0),
        bC1=(0.0, 0.0, 2.0),
        c0=(1.0, 1.0, 0.0),
        c1=(0.0, 1.0, 1.0),
    )
    for vec in (s.a0, s.a1, s.bA0, s.bA1, s.bC0, s.bC1, s.c0, s.c1):
        assert float(np.linalg.norm(vec)) == pytest.approx(1.0, abs=1e-12)


def test_central_pairs_must_be_orthogonal():
    with pytest.raises(ValidationError, match="bA0 and bA1"):
        BilocalSettings(
            a0=(0, 0, 1), a1=(1, 0, 0),
            bA0=(0, 0, 1), bA1=(0.1, 0.0, 1.0),
            bC0=(0, 0, 1), bC1=(1, 0, 0),
            c0=(0, 0, 1), c1=(1, 0, 0),
        )
    with pytest.raises(ValidationError, match="bC0 and bC1"):
        BilocalSettings(
            a0=(0, 0, 1), a1=(1, 0, 0),
            bA0=(0, 0, 1), bA1=(1, 0, 0),
            bC0=(0, 1, 0), bC1=(0, 1, 0.2),
            c0=(0, 0, 1), c1=(1, 0, 0),
        )


def test_star_branch_central_pair_must_be_orthogonal():
    with pytest.raises(ValidationError, match="b0 and b1"):
        StarBranch(a0=(0, 0, 1), a1=(1, 0, 0), b0=(0, 0, 1), b1=(0, 0.3, 1.0))


def test_outer_station_pairs_are_unconstrained():
    StarBranch(a0=(0, 0, 1), a1=(0, 0.3, 1.0), b0=(0, 0, 1), b1=(1, 0, 0))


def test_star_settings_need_a_branch():
    with pytest.raises(ValidationError, match="at least one branch"):
        StarSettings(branches=())


# ---------------------------------------------------------------------------
# bilocality_value
# ---------------------------------------------------------------------------


def test_singlets_reach_root_two():
    i_val, j_val, b = bilocality_value(SINGLET, SINGLET, ZX)
    assert i_val == pytest.approx(0.5, abs=1e-14)
    assert j_val == pytest.approx(0.5, abs=1e-14)
    assert b == pytest.approx(SQRT2, abs=1e-14)


def test_equal_outer_settings_kill_the_difference_term():
    s = BilocalSettings(
        a0=(0, 0, 1), a1=(0, 0, 1),
        bA0=(0, 0, 1), bA1=(1, 0, 0),
        bC0=(0, 0, 1), bC1=(1, 0, 0),
        c0=(0, 0, 1), c1=(1, 0, 0),
    )
    i_val, j_val, b = bilocality_value(SINGLET, SINGLET, s)
    assert j_val == 0.0
    assert b == pytest.approx(math.sqrt(abs(i_val)), abs=1e-14)


def test_mixed_source_gives_zero():
    _, _, b = bilocality_value(MIXED, SINGLET, ZX)
    assert b == 0.0


def test_value_never_exceeds_closed_form():
    rng = np.random.default_rng(61)
    for _ in range(50):
        s1 = random_state(int(rng.integers(0, 2**31)))
        s2 = random_state(int(rng.integers(0, 2**31)))
        settings = random_bilocal_settings(rng)
        _, _, b = bilocality_value(s1, s2, settings)
        assert b <= bilocality_max(s1, s2) + 1e-9


# ---------------------------------------------------------------------------
# outcome_distribution
# ---------------------------------------------------------------------------


def test_mixed_states_give_uniform_distribution():
    dist = outcome_distribution(MIXED, MIXED, ZX)
    for inputs in dist.table:
        np.testing.assert_allclose(dist.row(inputs), 0.125, atol=1e-14)


def test_rows_are_normalized_probability_tables():
    rng = np.random.default_rng(67)
    s1 = random_state(int(rng.integers(0, 2**31)))
    s2 = random_state(int(rng.integers(0, 2**31)))
    dist = outcome_distribution(s1, s2, random_bilocal_settings(rng))
    assert len(dist.table) == 8
    for inputs in dist.table:
        row = dist.row(inputs)
        assert float(row.min()) >= -1e-12
        assert float(row.sum()) == pytest.approx(1.0, abs=1e-12)


def test_distribution_reproduces_network_value():
    rng = np.random.default_rng(71)
    for _ in range(25):
        s1 = random_state(int(rng.integers(0, 2**31)))
        s2 = random_state(int(rng.integers(0, 2**31)))
        settings = random_bilocal_settings(rng)
        i_direct, j_direct, b_direct = bilocality_value(s1, s2, settings)
        dist = outcome_distribution(s1, s2, settings)
        i_dist = 0.25 * sum(
            correlator_from_distribution(dist, x, 0, z)
            for x in range(2)
            for z in range(2)
        )
        j_dist = 0.25 * sum(
            (-1.0) ** (x + z) * correlator_from_distribution(dist, x, 1, z)
            for x in range(2)
            for z in range(2)
        )
        assert i_dist == pytest.approx(i_direct, abs=1e-12)
        assert j_dist == pytest.approx(j_direct, abs=1e-12)
        b_dist = math.sqrt(abs(i_dist)) + math.sqrt(abs(j_dist))
        assert b_dist == pytest.approx(b_direct, abs=1e-12)


def test_correlators_factor_across_the_sources():
    rng = np.random.default_rng(73)
    s1 = random_state(int(rng.integers(0, 2**31)))
    s2 = random_state(int(rng.integers(0, 2**31)))
    settings = random_bilocal_settings(rng)
    t_ab = correlation_matrix(s1).t
    t_bc = correlation_matrix(s2).t
    a_dirs = (settings.a0, settings.a1)
    ba_dirs = (settings.bA0, settings.bA1)
    bc_dirs = (settings.bC0, settings.bC1)
    c_dirs = (settings.c0, settings.c1)
    dist = outcome_distribution(s1, s2, settings)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                left = float(a_dirs[x] @ t_ab @ ba_dirs[y])
                right = float(bc_dirs[y] @ t_bc @ c_dirs[z])
                assert correlator_from_distribution(dist, x, y, z) == pytest.approx(
                    left * right, abs=1e-12
                )


def test_end_station_marginals_ignore_central_setting():
    rng = np.random.default_rng(79)
    s1 = random_state(int(rng.integers(0, 2**31)))
    s2 = random_state(int(rng.integers(0, 2**31)))
    dist = outcome_distribution(s1, s2, random_bilocal_settings(rng))
    for x in range(2):
        for z in range(2):
            marg0 = dist.row((x, 0, z)).sum(axis=1)
            marg1 = dist.row((x, 1, z)).sum(axis=1)
            np.testing.assert_allclose(marg0, marg1, atol=1e-12)


def test_singlet_zx_reference_correlator():
    dist = outcome_distribution(SINGLET, SINGLET, ZX)
    assert correlator_from_distribution(dist, 0, 0, 0) == pytest.approx(0.5, abs=1e-13)


# ---------------------------------------------------------------------------
# OutcomeDistribution type
# ---------------------------------------------------------------------------


def _delta_row(index):
    row = np.zeros((2, 2, 2))
    row[index] = 1.0
    return row


def test_deterministic_and_uniform_correlators():
    table = {(0, 0, 0): _delta_row((0, 0, 0)), (1, 0, 0): np.full((2, 2, 2), 0.125)}
    dist = OutcomeDistribution(table)
    assert correlator_from_distribution(dist, 0, 0, 0) == pytest.approx(1.0)
    assert correlator_from_distribution(dist, 1, 0, 0) == pytest.approx(0.0)


def test_distribution_rejects_bad_rows():
    bad = np.full((2, 2, 2), 0.125)
    bad[0, 0, 0] = -0.01
    bad[1, 1, 1] = 0.135
    with pytest.raises(ValidationError, match="negative probability"):
        OutcomeDistribution({(0, 0, 0): bad})
    with pytest.raises(ValidationError, match="sum to"):
        OutcomeDistribution({(0, 0, 0): np.full((2, 2, 2), 0.2)})


@pytest.mark.parametrize(
    "row",
    [[[0.7, 0.1], [0.1, 0.1]], np.full(16, 1.0 / 16.0)],
    ids=["two-axes", "flat-16"],
)
def test_distribution_rejects_rows_without_one_binary_axis_per_input(row):
    with pytest.raises(ValidationError, match="shape"):
        OutcomeDistribution({(0, 0, 0): row})


def test_missing_input_tuple():
    dist = OutcomeDistribution({(0, 0, 0): np.full((2, 2, 2), 0.125)})
    with pytest.raises(MissingInputTupleError):
        dist.row((1, 1, 1))


# ---------------------------------------------------------------------------
# star_value
# ---------------------------------------------------------------------------


def test_two_branch_star_equals_bilocal_value():
    rng = np.random.default_rng(83)
    for _ in range(10):
        s1 = random_state(int(rng.integers(0, 2**31)))
        s2 = random_state(int(rng.integers(0, 2**31)))
        settings = random_bilocal_settings(rng)
        star = StarSettings(
            branches=(
                StarBranch(a0=settings.a0, a1=settings.a1, b0=settings.bA0, b1=settings.bA1),
                StarBranch(a0=settings.c0, a1=settings.c1, b0=settings.bC0, b1=settings.bC1),
            )
        )
        i_b, j_b, b = bilocality_value(s1, s2, settings)
        i_s, j_s, n = star_value([s1, swap_qubits(s2)], star)
        assert i_s == pytest.approx(i_b, abs=1e-12)
        assert j_s == pytest.approx(j_b, abs=1e-12)
        assert n == pytest.approx(b, abs=1e-12)


def test_three_singlets_reach_root_two():
    branch = StarBranch(
        a0=(1 / SQRT2, 0.0, 1 / SQRT2),
        a1=(-1 / SQRT2, 0.0, 1 / SQRT2),
        b0=(0.0, 0.0, 1.0),
        b1=(1.0, 0.0, 0.0),
    )
    settings = StarSettings(branches=(branch, branch, branch))
    i_val, j_val, n = star_value([SINGLET] * 3, settings)
    assert n == pytest.approx(SQRT2, abs=1e-13)
    assert abs(i_val) == pytest.approx(2.0 ** -1.5, abs=1e-13)
    assert abs(j_val) == pytest.approx(2.0 ** -1.5, abs=1e-13)


def test_all_mixed_star_is_zero():
    rng = np.random.default_rng(89)
    settings = random_star_settings(rng, 3)
    _, _, n = star_value([MIXED] * 3, settings)
    assert n == 0.0


def test_star_arity_mismatch():
    rng = np.random.default_rng(97)
    settings = random_star_settings(rng, 3)
    with pytest.raises(SettingsArityMismatchError):
        star_value([SINGLET] * 2, settings)


# ---------------------------------------------------------------------------
# Settings JSON
# ---------------------------------------------------------------------------


def _zx_doc():
    return {
        "a0": [1 / SQRT2, 0.0, 1 / SQRT2],
        "a1": [-1 / SQRT2, 0.0, 1 / SQRT2],
        "bA0": [0.0, 0.0, 1.0],
        "bA1": [1.0, 0.0, 0.0],
        "bC0": [0.0, 0.0, 1.0],
        "bC1": [1.0, 0.0, 0.0],
        "c0": [1 / SQRT2, 0.0, 1 / SQRT2],
        "c1": [-1 / SQRT2, 0.0, 1 / SQRT2],
    }


def test_bilocal_settings_roundtrip():
    parsed = bilocal_settings_from_json(_zx_doc())
    for name in ("a0", "a1", "bA0", "bA1", "bC0", "bC1", "c0", "c1"):
        np.testing.assert_allclose(
            getattr(parsed, name), getattr(ZX, name), atol=1e-12
        )


def test_bilocal_settings_normalization_warns():
    doc = _zx_doc()
    doc["a0"] = [0.0, 0.0, 2.0]
    with pytest.warns(UserWarning, match="normalizing"):
        parsed = bilocal_settings_from_json(doc)
    np.testing.assert_allclose(parsed.a0, [0.0, 0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.pop("c1"), "missing settings field 'c1'"),
        (lambda d: d.update(extra=[1, 0, 0]), "unknown settings field 'extra'"),
        (lambda d: d.update(a0=[1, 0]), "list of 3 numbers"),
        (lambda d: d.update(a0=[0, 0, 0]), "zero vector"),
        (lambda d: d.update(a0="up"), "list of 3 numbers"),
    ],
)
def test_bilocal_settings_schema_rejections(mutate, match):
    doc = _zx_doc()
    mutate(doc)
    with pytest.raises(SettingsFormatError, match=match):
        bilocal_settings_from_json(doc)


def test_bilocal_settings_json_enforces_orthogonality():
    doc = _zx_doc()
    s = math.sqrt(0.5)
    doc["bA1"] = [s, 0.0, s]
    with pytest.raises(ValidationError, match="orthogonal"):
        bilocal_settings_from_json(doc)


def test_star_settings_roundtrip_and_rejections():
    branch = {
        "a0": [0.0, 0.0, 1.0],
        "a1": [1.0, 0.0, 0.0],
        "b0": [0.0, 0.0, 1.0],
        "b1": [0.0, 1.0, 0.0],
    }
    parsed = star_settings_from_json({"branches": [branch, branch]})
    assert parsed.n == 2
    np.testing.assert_allclose(parsed.branches[1].b1, [0.0, 1.0, 0.0], atol=1e-15)
    with pytest.raises(SettingsFormatError, match="non-empty list"):
        star_settings_from_json({"branches": []})
    with pytest.raises(SettingsFormatError, match="missing field 'b1' in branch 0"):
        star_settings_from_json({"branches": [{k: branch[k] for k in ("a0", "a1", "b0")}]})
    with pytest.raises(SettingsFormatError, match="unknown settings field"):
        star_settings_from_json({"branches": [branch], "n": 1})
