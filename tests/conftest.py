"""Shared pytest plumbing: a leaked-thread guard, and acceptance verdicts in the summary."""

import threading

import pytest

VERDICTS = []

# How long a thread started by a test may take to finish after it.
_JOIN_S = 1.0


@pytest.fixture(autouse=True)
def _no_thread_outlives_its_test():
    """Fail a test that leaves a Python thread it started still running."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for t in left:
        t.join(timeout=_JOIN_S)
    alive = [t.name for t in left if t.is_alive()]
    assert not alive, f"threads left running: {alive}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
