"""The walkthrough scripts in demos/ run to completion against the package.

Demo 04 is left out of the runs: it trains a reduced k-fold and ablation
(about 11 s), and the calls it makes are covered by test_reporting and
criterion 7. Every demo's package imports are resolved without running it.
"""

import ast
import importlib
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


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_resolve(name):
    """Each ``from edapinn... import name`` of the demo names something its module has."""
    tree = ast.parse((ROOT / "demos" / name).read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "edapinn"
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
