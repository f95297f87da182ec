"""Smoke tests: every demo runs, and every exported name exists.

A name deleted from the package while a demo or ``__all__`` still uses it
fails here.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalot

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_all_names_resolve():
    missing = [name for name in causalot.__all__ if not hasattr(causalot, name)]
    assert missing == []
