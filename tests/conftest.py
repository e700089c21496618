"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or
    unreaped: detect waits for or kills every worker it forks."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one that has exited
    except ChildProcessError:  # no child at all
        return
    pytest.fail("a child process was left " + (f"unreaped: {pid}" if pid else "running"))
