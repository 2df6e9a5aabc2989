"""Smoke test of the demo scripts: each runs to completion without a warning."""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    proc = run_python(str(demo), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_demos_are_found():
    assert DEMOS
