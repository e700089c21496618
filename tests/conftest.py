"""Suite-wide fixtures."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Kills and joins every child process a test started and left running,
    then fails that test naming them. A worker left waiting would otherwise
    hang the run in multiprocessing's join at exit, with no summary."""
    before = set(multiprocessing.active_children())
    yield
    left = [child for child in multiprocessing.active_children() if child not in before]
    for child in left:
        child.kill()
        child.join(timeout=10)
    if left:
        pytest.fail(f"child processes left running: {sorted(child.name for child in left)}")
