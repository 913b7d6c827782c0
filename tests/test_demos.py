"""The walkthrough scripts in demos/ run to completion against the package.

Demo 04 is left out: it trains a reduced k-fold and ablation (about 11 s),
and the calls it makes are covered by test_reporting and criterion 7.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_dual_channel_autodiff.py",
    "02_eda_dynamics_and_synthesis.py",
    "03_train_and_evaluate.py",
    "05_physics_recovery.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
