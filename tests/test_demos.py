"""Every demo script runs to completion in its own process."""

import subprocess
import sys

import pytest

from conftest import ROOT, subprocess_env

DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=subprocess_env()
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
