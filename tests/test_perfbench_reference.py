"""The benchmark's own reference check, run on the tree.

``perfbench/workloads.py`` records op 0 of seed 0 of every workload from the
source in ``src/`` and checks it against ``perfbench/reference.json``:
``t_hat`` bit for bit, every other value within 1e-12 relative. A change
that moves those bits fails here, not only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_ops_match_reference_json(tmp_path):
    workloads = _load_workloads()
    reference = workloads.load_reference()
    got = workloads.record_reference(tmp_path)
    assert sorted(got) == sorted(reference)
    problems = {name: workloads.check(got[name], reference[name]) for name in reference}
    assert problems == {name: [] for name in reference}
