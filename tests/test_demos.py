"""The solver demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqlab

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["04_energy_minimization.py", "05_estimate_stress_test.py"])
def test_demo_exits_zero(script):
    src = str(Path(pqlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, str(DEMOS / script)], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr[-2000:]
