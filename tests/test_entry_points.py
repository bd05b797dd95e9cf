"""The demo scripts and ``python -m analogical`` run from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import analogical

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    src = str(Path(analogical.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_python(str(script))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_module_entry_point_help():
    proc = run_python("-m", "analogical", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: analogical")
