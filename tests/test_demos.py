"""Smoke test: every demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualgeo

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["demo_expressions_and_jets.py",
                                  "demo_structure_recovery.py",
                                  "demo_dual_geodesics.py",
                                  "demo_verification_suites.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    package_root = str(Path(dualgeo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    result = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
