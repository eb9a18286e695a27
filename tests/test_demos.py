"""Every demo runs to completion as a script and prints its pinned output.

The expected stdout of demos/<name>.py is tests/demo_output/<name>.txt.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = ROOT / "tests" / "demo_output"


def test_demos_are_found():
    assert DEMOS
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [
        p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == (PINNED / (demo.stem + ".txt")).read_text()
