"""Every narrative script in demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    # conftest points PYTHONPATH at the package these tests import
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
    assert "Traceback" not in res.stderr
