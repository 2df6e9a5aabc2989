"""Smoke test of the demo scripts: each runs to completion without a warning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bioassay as ba

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(ba.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_demos_are_found():
    assert DEMOS
