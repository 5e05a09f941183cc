"""The benchmark's own self-tests, run with the rest of the suite.

They check perfbench's span arithmetic, its tracer and that its metrics
agree with ``BENCHMARK.json``; a change that breaks them fails here too.

    python -m pytest -q -p no:cacheprovider perfbench
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
