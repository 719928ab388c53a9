"""Closed-form maxima and the spectrum machinery behind them."""

import math

import numpy as np
import pytest

from conftest import (
    COUNTEREXAMPLE_B_MAX,
    COUNTEREXAMPLE_S_AB,
    COUNTEREXAMPLE_S_BC,
    SQRT2,
    bell_diagonal_state,
    counterexample_pair,
    skewed_triple,
)
from qnetmax import criteria, jacobi
from qnetmax.classify import classify_pair
from qnetmax.correlations import ORTHOGONALITY_TOL, StarBranch, star_value
from qnetmax.criteria import (
    MaxReport,
    TSpectrum,
    bilocality_max,
    chsh_max,
    network_report,
    phi_plus_comparison,
    star_max,
    star_supremum,
    star_witness_settings,
    t_spectrum,
)
from qnetmax.errors import EmptyNetworkError, ValidationError
from qnetmax.qstate import (
    apply_local_unitaries,
    bell_state,
    correlation_matrix,
    make_state,
    random_state,
    random_unitary,
    werner_state,
)

MIXED_STATE = make_state(np.eye(4) / 4.0)


# ---------------------------------------------------------------------------
# TSpectrum
# ---------------------------------------------------------------------------


def test_spectrum_singlet_all_ones():
    sp = t_spectrum(correlation_matrix(bell_state("psi-")))
    assert sp.as_tuple() == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_spectrum_counterexample_links():
    state_ab, state_bc = counterexample_pair()
    sp_ab = t_spectrum(correlation_matrix(state_ab))
    sp_bc = t_spectrum(correlation_matrix(state_bc))
    assert sp_ab.as_tuple() == pytest.approx((1.0, 0.04, 0.04), abs=1e-9)
    assert sp_bc.as_tuple() == pytest.approx((0.64, 0.49, 0.49), abs=1e-9)


def test_spectrum_clamps_tiny_negatives():
    sp = TSpectrum(1.0, 0.5, -1e-13)
    assert sp.t3 == 0.0


def test_spectrum_rejects_bad_values():
    with pytest.raises(ValidationError, match="below zero"):
        TSpectrum(1.0, 0.5, -1e-6)
    with pytest.raises(ValidationError, match="not descending"):
        TSpectrum(0.2, 0.5, 0.1)
    with pytest.raises(ValidationError, match="exceeds 1"):
        TSpectrum(1.1, 0.5, 0.1)


def test_spectrum_bounds_on_random_states():
    for seed in range(200):
        sp = t_spectrum(correlation_matrix(random_state(seed)))
        assert 0.0 <= sp.t3 <= sp.t2 <= sp.t1 <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# chsh_max
# ---------------------------------------------------------------------------


def test_chsh_singlet_tsirelson():
    assert chsh_max(bell_state("psi-")) == pytest.approx(SQRT2, abs=1e-12)


def test_chsh_werner_scaling():
    for v in (0.0, 0.3, 0.5, 1.0):
        assert chsh_max(werner_state(v)) == pytest.approx(v * SQRT2, abs=1e-12)


def test_chsh_counterexample_links():
    state_ab, state_bc = counterexample_pair()
    assert chsh_max(state_ab) == pytest.approx(COUNTEREXAMPLE_S_AB, abs=1e-12)
    assert chsh_max(state_bc) == pytest.approx(COUNTEREXAMPLE_S_BC, abs=1e-12)
    assert chsh_max(state_ab) == pytest.approx(1.02, abs=0.005)
    assert chsh_max(state_bc) == pytest.approx(1.06, abs=0.005)


# ---------------------------------------------------------------------------
# bilocality_max
# ---------------------------------------------------------------------------


def test_bilocality_singlets():
    s = bell_state("psi-")
    assert bilocality_max(s, s) == pytest.approx(SQRT2, abs=1e-12)


def test_bilocality_counterexample():
    state_ab, state_bc = counterexample_pair()
    b = bilocality_max(state_ab, state_bc)
    assert b == pytest.approx(COUNTEREXAMPLE_B_MAX, abs=1e-12)
    assert b == pytest.approx(0.97, abs=0.005)


def test_bilocality_werner_product_rule():
    for va, vc in ((0.8, 0.9), (0.5, 0.5), (1.0, 0.3)):
        want = math.sqrt(2.0 * va * vc)
        got = bilocality_max(werner_state(va), werner_state(vc))
        assert got == pytest.approx(want, abs=1e-12)


def test_bilocality_is_symmetric_in_sources():
    rng = np.random.default_rng(41)
    for _ in range(10):
        s1 = random_state(int(rng.integers(0, 2**31)))
        s2 = random_state(int(rng.integers(0, 2**31)))
        assert bilocality_max(s1, s2) == pytest.approx(
            bilocality_max(s2, s1), abs=1e-13
        )


# ---------------------------------------------------------------------------
# star_max
# ---------------------------------------------------------------------------


def test_star_matches_bilocality_at_two_branches():
    rng = np.random.default_rng(43)
    for _ in range(10):
        s1 = random_state(int(rng.integers(0, 2**31)))
        s2 = random_state(int(rng.integers(0, 2**31)))
        assert star_max([s1, s2]) == pytest.approx(
            bilocality_max(s1, s2), abs=1e-13
        )


@pytest.mark.parametrize("seed", [4746, 9252, 24004, 34190, 38082])
def test_pair_value_is_one_formula_everywhere(seed):
    # Pairs where two different roundings of the pair formula disagree in the last bit.
    a, b = random_state(seed), random_state(seed + 1)
    assert bilocality_max(a, b) == star_max([a, b]) == network_report([a, b]).biloc_or_star


def test_star_singlets_any_size():
    s = bell_state("psi-")
    for n in (1, 2, 3, 4, 5):
        assert star_max([s] * n) == pytest.approx(SQRT2, abs=1e-12)


def test_star_werner_triple():
    vs = (0.9, 0.8, 0.7)
    want = math.sqrt(2.0 * (vs[0] * vs[1] * vs[2]) ** (2.0 / 3.0))
    got = star_max([werner_state(v) for v in vs])
    assert got == pytest.approx(want, abs=1e-12)


def test_star_single_source_reduces_to_chsh():
    state = random_state(99)
    assert star_max([state]) == pytest.approx(chsh_max(state), abs=1e-13)


def test_star_empty_network_raises():
    with pytest.raises(EmptyNetworkError):
        star_max([])


def test_star_permutation_invariant():
    rng = np.random.default_rng(47)
    states = [random_state(int(rng.integers(0, 2**31))) for _ in range(4)]
    base = star_max(states)
    for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)):
        assert star_max([states[i] for i in perm]) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# star_supremum and its witness settings
# ---------------------------------------------------------------------------


def _random_stars(seed, n, count):
    rng = np.random.default_rng(seed)
    return [
        [random_state(int(rng.integers(0, 2**31))) for _ in range(n)]
        for _ in range(count)
    ]


def _criterion_6_stars():
    # The first twelve instances of acceptance criterion 6 for n=3 and n=4;
    # two of each beat the paper's formula.
    out = []
    for n, master in ((3, 0), (4, 1)):
        rng = np.random.default_rng(master)
        for inst_seed in rng.integers(0, 2**62, size=12):
            out.append([random_state(int(inst_seed) + j) for j in range(n)])
    return out


def test_supremum_single_source_is_chsh():
    for (state,) in _random_stars(61, 1, 10):
        assert star_supremum([state]) == pytest.approx(chsh_max(state), abs=1e-12)


def test_supremum_matches_paper_formula_at_two_branches():
    # For n = 2 the objective x1 x2 + y1 y2 is bilinear on the box of branch
    # factors, so its maximum sits at a vertex: the aligned one is star_max.
    for states in _random_stars(67, 2, 20):
        assert star_supremum(states) == pytest.approx(star_max(states), abs=1e-12)


def test_supremum_never_below_paper_formula():
    for n in (3, 4, 5):
        for states in _random_stars(71 + n, n, 20):
            assert star_supremum(states) >= star_max(states) - 1e-12


def test_supremum_permutation_invariant():
    (states,) = _random_stars(73, 4, 1)
    base = star_supremum(states)
    for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)):
        assert star_supremum([states[i] for i in perm]) == pytest.approx(base, abs=1e-12)


def test_supremum_empty_network_raises():
    with pytest.raises(EmptyNetworkError):
        star_supremum([])
    with pytest.raises(EmptyNetworkError):
        star_witness_settings([])


def test_supremum_with_mixed_branch_is_zero():
    states = [werner_state(0.9), MIXED_STATE, werner_state(0.8)]
    assert star_supremum(states) == 0.0
    assert star_value(states, star_witness_settings(states))[2] == pytest.approx(
        0.0, abs=1e-12
    )


def test_supremum_of_skewed_triple():
    # Hand-built settings in test_oracle reach this value; the skewed branch
    # splits its singular weight 0.9 + 0.1 evenly between the two terms.
    states = skewed_triple()
    want = SQRT2 * 0.405 ** (1.0 / 3.0)
    assert star_supremum(states) == pytest.approx(want, abs=1e-12)
    assert star_supremum(states) > star_max(states) + 0.02


def test_supremum_with_a_free_branch_inside_its_segment():
    # Branch 1 has singular values (0.9, 0, 0), the other two (0.8, 0.4, 0.2).
    # The two stay at their aligned vertex while branch 1 splits 0.9 = x + y,
    # so N^2 = max (0.64 x)^(2/3) + (0.16 y)^(2/3); Holder's equality case
    # gives N^6 = 0.81 (0.8^4 + 0.4^4), reached strictly inside x in (0, 0.9).
    states = [
        bell_diagonal_state(0.475, 0.025, 0.475, 0.025),
        bell_diagonal_state(0.6, 0.0, 0.3, 0.1),
        bell_diagonal_state(0.6, 0.0, 0.3, 0.1),
    ]
    want = (0.81 * (0.8**4 + 0.4**4)) ** (1.0 / 6.0)
    assert star_supremum(states) == pytest.approx(want, abs=1e-12)
    assert star_supremum(states) > star_max(states) + 0.008


def test_witness_settings_reach_the_supremum():
    for states in [skewed_triple()] + _criterion_6_stars():
        settings = star_witness_settings(states)
        assert settings.n == len(states)
        value = star_value(states, settings)[2]
        assert value == pytest.approx(star_supremum(states), abs=1e-9)


def test_witness_central_pairs_are_orthogonal():
    for states in [skewed_triple()] + _criterion_6_stars():
        for br in star_witness_settings(states).branches:
            assert abs(float(np.dot(br.b0, br.b1))) <= ORTHOGONALITY_TOL
            StarBranch(a0=br.a0, a1=br.a1, b0=br.b0, b1=br.b1)


# ---------------------------------------------------------------------------
# phi_plus_comparison
# ---------------------------------------------------------------------------


def test_phi_plus_comparison_reference_points():
    biloc, chsh = phi_plus_comparison(bell_state("psi-"))
    assert (biloc, chsh) == pytest.approx((SQRT2, SQRT2), abs=1e-12)
    biloc, chsh = phi_plus_comparison(werner_state(0.6))
    assert biloc == pytest.approx(math.sqrt(1.2), abs=1e-12)
    assert chsh == pytest.approx(0.6 * SQRT2, abs=1e-12)
    assert phi_plus_comparison(MIXED_STATE) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_phi_plus_bilocality_dominates_chsh():
    for seed in range(100):
        biloc, chsh = phi_plus_comparison(random_state(seed))
        assert biloc >= chsh - 1e-12


# ---------------------------------------------------------------------------
# Cross-criteria structure
# ---------------------------------------------------------------------------


def test_pair_maximum_squared_below_chsh_product():
    rng = np.random.default_rng(53)
    for _ in range(200):
        s1 = random_state(int(rng.integers(0, 2**31)))
        s2 = random_state(int(rng.integers(0, 2**31)))
        b = bilocality_max(s1, s2)
        assert b * b <= chsh_max(s1) * chsh_max(s2) + 1e-12


def test_maxima_invariant_under_local_unitaries():
    rng = np.random.default_rng(59)
    for _ in range(10):
        s1 = random_state(int(rng.integers(0, 2**31)))
        s2 = random_state(int(rng.integers(0, 2**31)))
        r1 = apply_local_unitaries(s1, random_unitary(rng), random_unitary(rng))
        r2 = apply_local_unitaries(s2, random_unitary(rng), random_unitary(rng))
        assert chsh_max(r1) == pytest.approx(chsh_max(s1), abs=1e-9)
        assert bilocality_max(r1, r2) == pytest.approx(bilocality_max(s1, s2), abs=1e-9)
        assert star_max([r1, r2, s1]) == pytest.approx(star_max([s1, s2, s1]), abs=1e-9)


# ---------------------------------------------------------------------------
# network_report
# ---------------------------------------------------------------------------


def test_network_report_assembles_closed_forms():
    state_ab, state_bc = counterexample_pair()
    report = network_report([state_ab, state_bc])
    assert report.chsh_per_link == pytest.approx(
        (COUNTEREXAMPLE_S_AB, COUNTEREXAMPLE_S_BC), abs=1e-12
    )
    assert report.biloc_or_star == pytest.approx(COUNTEREXAMPLE_B_MAX, abs=1e-12)
    assert len(report.spectra) == 2


def test_network_report_single_source_has_no_joint_value():
    report = network_report([werner_state(0.9)])
    assert report.biloc_or_star is None
    assert len(report.chsh_per_link) == 1


def test_network_report_empty_raises():
    with pytest.raises(EmptyNetworkError):
        network_report([])


def test_max_report_rejects_inconsistent_pair_values():
    sp = TSpectrum(1.0, 1.0, 1.0)
    with pytest.raises(ValidationError, match="exceeds the CHSH product"):
        MaxReport(chsh_per_link=(1.0, 1.0), biloc_or_star=1.5, spectra=(sp, sp))


# ---------------------------------------------------------------------------
# spectra stored on the states
# ---------------------------------------------------------------------------


def test_stored_spectrum_has_the_bits_of_a_fresh_one():
    for seed in range(200):
        state = random_state(seed)
        chsh_max(state)
        stored = criteria._spectrum_of(state)
        fresh = t_spectrum(correlation_matrix(make_state(state.entries)))
        assert criteria._spectrum_of(state) is stored
        assert [t.hex() for t in stored.as_tuple()] == [t.hex() for t in fresh.as_tuple()]


_CLOSED_FORMS = (
    lambda s: chsh_max(s[0]),
    lambda s: bilocality_max(s[0], s[1]),
    lambda s: star_max(s),
    lambda s: star_supremum(s),
    lambda s: network_report(s).chsh_per_link + (network_report(s).biloc_or_star,),
    lambda s: network_report(s[:2]).biloc_or_star,
    lambda s: classify_pair(s[0], s[1]).as_tuple(),
)


@pytest.mark.parametrize("seed", [0, 11, 404])
def test_closed_forms_do_not_depend_on_call_order(seed):
    def fresh():
        return [random_state(seed + j) for j in range(3)]

    # Each closed form on states that nothing touched before.
    cold = [f(fresh()) for f in _CLOSED_FORMS]
    states = fresh()
    backwards = [f(states) for f in reversed(_CLOSED_FORMS)][::-1]
    again = [f(states) for f in _CLOSED_FORMS]
    assert repr(cold) == repr(backwards) == repr(again)


def test_classify_pair_solves_one_spectrum_per_source(monkeypatch):
    # The pure t_spectrum keeps one eigen solve per source, also on states
    # whose spectrum is already stored.
    state = werner_state(0.8)
    chsh_max(state)
    calls = []
    solve = jacobi.eigvalsh_symmetric
    monkeypatch.setattr(jacobi, "eigvalsh_symmetric", lambda m: calls.append(m) or solve(m))
    classify_pair(state, state)
    assert len(calls) == 2
