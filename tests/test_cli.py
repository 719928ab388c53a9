"""Command-line interface: reports, exit codes, and determinism."""

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SQRT2, subprocess_env
from qnetmax import cli
from qnetmax.cli import main


@pytest.fixture
def state_files(tmp_path):
    paths = {}
    for name, doc in {
        "singlet": {"family": "bell", "which": "psi-"},
        "werner08": {"family": "werner", "v": 0.8},
        "werner068": {"family": "werner", "v": 0.68},
        "colored": {"family": "colored", "v": 0.7, "lambda": 1.0 / 3.0},
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_single_source(capsys, state_files):
    code, report = run_json(capsys, ["analyze", state_files["werner08"]])
    assert code == 0
    assert report["seed"] == 0
    assert report["n_sources"] == 1
    (link,) = report["links"]
    assert link["label"] == "werner(v=0.8)"
    assert link["t_spectrum"] == pytest.approx([0.64, 0.64, 0.64], abs=1e-12)
    assert link["chsh_max"] == pytest.approx(0.8 * SQRT2, abs=1e-12)
    assert link["chsh_violated"] is True
    assert "star_max" not in report
    assert "bilocality_max" not in report


def test_analyze_pair_report(capsys, state_files):
    code, report = run_json(
        capsys, ["analyze", state_files["singlet"], state_files["werner068"]]
    )
    assert code == 0
    assert report["n_sources"] == 2
    assert report["star_max"] == pytest.approx(math.sqrt(1.36), abs=1e-12)
    assert report["bilocality_max"] == report["star_max"]
    assert report["nonbilocal"] is True
    assert report["flags"] == {
        "ab_nonlocal": True,
        "bc_nonlocal": False,
        "nonbilocal": True,
    }


def test_analyze_matrix_state_label_falls_back_to_filename(capsys, tmp_path):
    doc = {
        "re": [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)],
        "im": [[0.0] * 4 for _ in range(4)],
    }
    path = tmp_path / "mystate.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["analyze", str(path)])
    assert code == 0
    assert report["links"][0]["label"] == "mystate.json"
    assert report["links"][0]["chsh_violated"] is False


def test_analyze_rejects_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_rejects_missing_file(capsys, tmp_path):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# seed resolution
# ---------------------------------------------------------------------------


def test_seed_flag_is_echoed(capsys, state_files):
    _, report = run_json(capsys, ["analyze", state_files["werner08"], "--seed", "3"])
    assert report["seed"] == 3


def test_env_seed_used_when_flag_absent(capsys, state_files, monkeypatch):
    monkeypatch.setenv("QNETMAX_SEED", "7")
    _, report = run_json(capsys, ["analyze", state_files["werner08"]])
    assert report["seed"] == 7


def test_seed_flag_beats_env(capsys, state_files, monkeypatch):
    monkeypatch.setenv("QNETMAX_SEED", "7")
    _, report = run_json(capsys, ["analyze", state_files["werner08"], "--seed", "3"])
    assert report["seed"] == 3


def test_invalid_env_seed_is_an_input_error(capsys, state_files, monkeypatch):
    monkeypatch.setenv("QNETMAX_SEED", "not-a-number")
    assert main(["analyze", state_files["werner08"]]) == 2
    assert "QNETMAX_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_werner_scan_square_grid(capsys):
    code = main(["scan", "--family", "werner", "--grid", "0:1:0.1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "v_ab,v_bc,s_ab,s_bc,b_max,ab_nl,bc_nl,nonbiloc"
    assert len(lines) == 1 + 121
    assert lines[1] == "0,0,0,0,0,false,false,false"
    last = lines[-1].split(",")
    assert last[:2] == ["1", "1"]
    assert float(last[4]) == pytest.approx(SQRT2, abs=1e-11)
    assert last[5:] == ["true", "true", "true"]


def test_colored_scan_rectangular_grid(capsys):
    code = main(
        ["scan", "--family", "colored", "--grid", "0.7:0.7:0.1,0.3:0.5:0.1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "v,lambda,s_ab,s_bc,b_max,ab_nl,bc_nl,nonbiloc"
    assert len(lines) == 1 + 3
    assert all(line.startswith("0.7,") for line in lines[1:])


@pytest.mark.parametrize(
    "grid, values",
    [("0:0.6:0.35", ["0", "0.35"]), ("0:1:0.35", ["0", "0.35", "0.7"])],
)
def test_scan_grid_points_never_pass_stop(capsys, grid, values):
    # The step does not divide the range: the last point stays below stop.
    assert main(["scan", "--family", "werner", "--grid", grid]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [row[:2] for row in rows] == [[a, b] for a in values for b in values]


@pytest.mark.parametrize(
    "grid",
    ["0:1", "1:0:0.1", "0:1:-0.1", "0:1:0.5,0:1:0.5,0:1:0.5", "a:b:c"],
)
def test_scan_rejects_bad_grids(capsys, grid):
    assert main(["scan", "--family", "werner", "--grid", grid]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid", ["0:1:nan", "nan:1:0.1", "0:inf:0.1", "0:1e999:0.1", "0:1:inf"]
)
def test_scan_rejects_non_finite_grids(capsys, grid):
    assert main(["scan", "--family", "werner", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


@pytest.mark.parametrize(
    "grid",
    [
        "0:1:1e-12",  # one axis alone: ~1e12 points
        "0:1e300:1e-300",  # (stop - start) / step overflows to inf
        "0:1:0.003",  # one range, square: 334 x 334
        "0:1:0.001,0:0.1:0.001",  # two small axes, large product: 1001 x 101
    ],
)
def test_scan_rejects_oversized_grids(capsys, grid):
    assert main(["scan", "--family", "werner", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limit of 100000 points" in captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_theorem1(capsys):
    code, report = run_json(
        capsys, ["verify", "--suite", "theorem1", "--instances", "10"]
    )
    assert code == 0
    assert report["suite"] == "theorem1"
    assert report["instances"] == 10
    assert report["max_correlator_diff"] <= 1e-12
    assert report["pass"] is True
    assert "restarts" not in report


def test_verify_theorem1_counts_every_failing_instance(capsys, monkeypatch):
    monkeypatch.setattr(cli, "theorem1_check", lambda *args: 1.0)
    code, report = run_json(
        capsys, ["verify", "--suite", "theorem1", "--instances", "7"]
    )
    assert code == 1
    assert report["failures"] == report["instances"] == 7
    assert report["pass"] is False


def test_verify_lemma2(capsys):
    code, report = run_json(
        capsys, ["verify", "--suite", "lemma2", "--instances", "50"]
    )
    assert code == 0
    assert report["max_eigenvalue_diff"] <= 1e-9
    assert report["pass"] is True


def test_verify_lemma4(capsys):
    code, report = run_json(
        capsys, ["verify", "--suite", "lemma4", "--instances", "50"]
    )
    assert code == 0
    assert report["min_t"] >= 0.0
    assert report["max_t"] <= 1.0 + 1e-9
    assert report["pass"] is True


def test_verify_prop1(capsys):
    code, report = run_json(
        capsys, ["verify", "--suite", "prop1", "--instances", "25"]
    )
    assert code == 0
    assert report["max_b2_minus_product"] <= 1e-12
    assert report["failures"] == 0
    assert report["pass"] is True


def test_verify_theorem3_small(capsys):
    code, report = run_json(
        capsys, ["verify", "--suite", "theorem3", "--instances", "5"]
    )
    assert code == 0
    assert report["restarts"] == 32
    assert report["max_gap"] <= 1e-4
    assert report["min_gap"] >= -1e-7
    assert report["overshoots"] == 0
    assert report["pass"] is True


def test_verify_theorem4_reports_the_closed_form_excess(capsys):
    # Random three- and four-branch instances routinely beat the closed form;
    # the suite reports them as overshoots and fails honestly.
    code, report = run_json(
        capsys, ["verify", "--suite", "theorem4", "--seed", "0", "--instances", "20"]
    )
    assert code == 1
    assert report["overshoots"] == 6
    assert report["failures"] == 6
    assert report["min_gap"] < -1e-7
    assert report["pass"] is False


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_verify_rejects_fewer_than_one_instance(capsys, instances):
    code = main(["verify", "--suite", "theorem3", "--instances", instances])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--instances must be >= 1" in captured.err


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-3")], ids=["flag", "env"])
def test_verify_rejects_a_negative_seed(capsys, monkeypatch, suite, flag, env):
    monkeypatch.delenv("QNETMAX_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("QNETMAX_SEED", env)
    code = main(["verify", "--suite", suite, "--instances", "1", *flag])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be >= 0" in captured.err


def test_verify_rejects_more_than_the_instance_limit(capsys):
    # Rejected before any instance seed is drawn, so nothing is allocated.
    code = main(["verify", "--suite", "lemma2", "--instances", str(10**30)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"<= {cli._MAX_INSTANCES}, got {10**30}" in captured.err


@pytest.mark.parametrize("restarts", ["0", str(10**30)])
def test_verify_rejects_restarts_outside_the_limit(capsys, restarts):
    # Rejected before the optimizer sizes any array, so nothing is allocated.
    code = main(["verify", "--suite", "theorem3", "--instances", "1", "--restarts", restarts])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--restarts must be >= 1 and <= {cli._MAX_RESTARTS}, got {restarts}" in captured.err


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "theorem9"]) == 2
    assert "unknown suite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# swap-sim
# ---------------------------------------------------------------------------


def split_swap_output(out):
    csv_part, json_part = out.split("\n\n", 1)
    return csv_part.split("\n"), json.loads(json_part)


def test_swap_sim_defaults(capsys, state_files):
    code = main(["swap-sim", state_files["singlet"], state_files["singlet"]])
    captured = capsys.readouterr()
    assert code == 0
    assert (
        "notice: no settings file given; using default zx-diagonal settings"
        in captured.err
    )
    csv_lines, report = split_swap_output(captured.out)
    assert csv_lines[0] == "x,z,a,b0,b1,c,p"
    assert len(csv_lines) == 1 + 64
    assert report["settings"] == "default-zx-diagonal"
    assert report["I"] == pytest.approx(0.5, abs=1e-12)
    assert report["J"] == pytest.approx(0.5, abs=1e-12)
    assert report["B"] == pytest.approx(SQRT2, abs=1e-12)
    assert report["bilocality_violated"] is True


def test_swap_sim_with_settings_file(capsys, state_files, tmp_path):
    s = 1.0 / math.sqrt(2.0)
    doc = {
        "a0": [s, 0.0, s],
        "a1": [-s, 0.0, s],
        "c0": [s, 0.0, s],
        "c1": [-s, 0.0, s],
    }
    settings = tmp_path / "my_settings.json"
    settings.write_text(json.dumps(doc))
    code = main(
        [
            "swap-sim",
            state_files["singlet"],
            state_files["singlet"],
            "--settings",
            str(settings),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "notice" not in captured.err
    _, report = split_swap_output(captured.out)
    assert report["settings"] == "my_settings.json"
    assert report["B"] == pytest.approx(SQRT2, abs=1e-12)


def test_swap_sim_rejects_bad_settings_json(capsys, state_files, tmp_path):
    settings = tmp_path / "broken.json"
    settings.write_text("[1, 2")
    code = main(
        [
            "swap-sim",
            state_files["singlet"],
            state_files["singlet"],
            "--settings",
            str(settings),
        ]
    )
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_swap_sim_settings_errors_name_the_file(capsys, state_files, tmp_path):
    settings = tmp_path / "three_keys.json"
    settings.write_text(json.dumps({"a0": [0, 0, 1], "a1": [1, 0, 0], "c0": [0, 0, 1]}))
    code = main(
        ["swap-sim", state_files["singlet"], state_files["singlet"], "--settings", str(settings)]
    )
    assert code == 2
    assert "three_keys.json: missing settings field 'c1'" in capsys.readouterr().err


UNIT_SETTINGS = {"a0": [0, 0, 1], "a1": [1, 0, 0], "c0": [0, 0, 1], "c1": [1, 0, 0]}


def test_swap_sim_off_norm_settings_warn_in_one_line_naming_the_file(
    capsys, state_files, tmp_path
):
    path = tmp_path / "offnorm.json"
    path.write_text(json.dumps({**UNIT_SETTINGS, "a0": [2, 0, 0]}))
    code = main(
        ["swap-sim", state_files["singlet"], state_files["singlet"], "--settings", str(path)]
    )
    assert code == 0
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines == [f"warning: {path}: settings vector 'a0' has norm 2; normalizing"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_swap_sim_rejects_an_overflowing_direction_without_a_warning(
    capsys, state_files, tmp_path
):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({**UNIT_SETTINGS, "a0": [1e200, 0, 0]}))
    code = main(
        ["swap-sim", state_files["singlet"], state_files["singlet"], "--settings", str(path)]
    )
    assert code == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines == [f"error: {path}: direction vector norm overflows"]


@pytest.mark.parametrize("command", ["analyze", "swap-sim"])
def test_undecodable_input_file_is_an_input_error(state_files, tmp_path, command):
    bad = tmp_path / "undecodable.json"
    bad.write_bytes(b"\xff")
    if command == "analyze":
        argv = ["analyze", str(bad)]
    else:
        argv = ["swap-sim", state_files["singlet"], state_files["singlet"], "--settings", str(bad)]
    result = subprocess.run(
        [sys.executable, "-m", "qnetmax", *argv],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


def test_analyze_rejects_an_overflowing_matrix_with_one_error_line(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_hermitian_doc(1e308)))
    result = subprocess.run(
        [sys.executable, "-m", "qnetmax", "analyze", str(path)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: {path}: state has an entry of magnitude 1.000e+308, above 1"
    ]


# ---------------------------------------------------------------------------
# output stability
# ---------------------------------------------------------------------------


def test_reports_round_to_fifteen_significant_digits(capsys, tmp_path):
    path = tmp_path / "third.json"
    path.write_text(json.dumps({"family": "werner", "v": 1.0 / 3.0}))
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.111111111111111" in out
    assert "0.1111111111111111" not in out


def test_module_invocation_is_byte_stable(state_files):
    argv = [sys.executable, "-m", "qnetmax", "analyze", state_files["werner08"]]
    first = subprocess.run(argv, capture_output=True, check=True, env=subprocess_env())
    second = subprocess.run(argv, capture_output=True, check=True, env=subprocess_env())
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"{")
    report = json.loads(first.stdout)
    assert report["links"][0]["label"] == "werner(v=0.8)"


# ---------------------------------------------------------------------------
# the input contract: any state or settings file exits 0 or 2, never raises
# ---------------------------------------------------------------------------

JSON_NUMBERS = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([10**400, -(10**40), 2**1024, 1e308, -1e200]),
    st.floats(),  # NaN and +-Infinity included; json.dumps writes them out
    st.booleans(),
)
JSON_VALUES = st.recursive(
    JSON_NUMBERS | st.none() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
NUMBERISH = st.floats(-1.0, 1.0) | JSON_NUMBERS | JSON_VALUES


def _hermitian_doc(off_diagonal):
    """Trace-one real symmetric matrix with one off-diagonal pair."""
    re = [[0.25 if i == j else 0 for j in range(4)] for i in range(4)]
    re[0][1] = re[1][0] = off_diagonal
    return {"re": re, "im": [[0] * 4 for _ in range(4)]}


MATRICES = st.lists(st.lists(NUMBERISH, min_size=4, max_size=4), min_size=4, max_size=4)
STATE_DOCS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {"family": st.sampled_from(["werner", "colored", "bell"]) | JSON_VALUES},
        optional={
            "v": NUMBERISH,
            "lambda": NUMBERISH,
            "which": st.sampled_from(["psi-", "phi+"]) | JSON_VALUES,
            "extra": JSON_VALUES,
        },
    ),
    st.fixed_dictionaries(
        {"re": MATRICES | JSON_VALUES, "im": MATRICES | JSON_VALUES},
        optional={"label": st.text(max_size=4) | JSON_VALUES, "extra": JSON_VALUES},
    ),
    st.builds(_hermitian_doc, st.floats(allow_nan=False) | JSON_NUMBERS),
)
DIRECTIONS = st.lists(NUMBERISH, min_size=3, max_size=3) | JSON_VALUES
SETTINGS_KEYS = ("a0", "a1", "c0", "c1")
SETTINGS_DOCS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {k: DIRECTIONS for k in SETTINGS_KEYS}, optional={"extra": JSON_VALUES}
    ),
    st.fixed_dictionaries({}, optional={k: DIRECTIONS for k in (*SETTINGS_KEYS, "b0")}),
)
BIG = 10**400


def assert_exits_0_or_2(argv):
    """Run ``main`` in-process; argparse's SystemExit counts as an exit code."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    if code == 2:
        assert "error:" in err.getvalue()


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "singlet.json").write_text(json.dumps({"family": "bell", "which": "psi-"}))
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(text=STATE_DOCS.map(json.dumps))
@example(text=json.dumps({"family": "werner", "v": BIG}))
@example(text=json.dumps({"family": "colored", "v": 0.5, "lambda": -BIG}))
@example(text=json.dumps(_hermitian_doc(BIG)))
@example(text='{"family": "werner", "v": 1e999}')
@example(text=json.dumps({"family": "werner", "v": math.nan}))
@example(text=json.dumps(_hermitian_doc(1e308)))
def test_analyze_exits_0_or_2_on_any_state_document(contract_dir, text):
    path = contract_dir / "state.json"
    path.write_text(text)
    assert_exits_0_or_2(["analyze", str(path)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(text=SETTINGS_DOCS.map(json.dumps))
@example(text=json.dumps({**UNIT_SETTINGS, "a0": [BIG, 0, 0]}))
@example(text=json.dumps({**UNIT_SETTINGS, "a0": [1e200, 0, 0]}))
@example(text=json.dumps({**UNIT_SETTINGS, "a0": [1e308, 1e308, 0]}))
@example(text=json.dumps({**UNIT_SETTINGS, "a0": [math.inf, 0, 0]}))
@example(text=json.dumps({**UNIT_SETTINGS, "a0": [2, 0, 0]}))
def test_swap_sim_exits_0_or_2_on_any_settings_document(contract_dir, text):
    path = contract_dir / "settings.json"
    path.write_text(text)
    singlet = str(contract_dir / "singlet.json")
    assert_exits_0_or_2(["swap-sim", singlet, singlet, "--settings", str(path)])
