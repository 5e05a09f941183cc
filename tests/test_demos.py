"""Smoke test: every script in demos/ runs to completion on the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=600, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
