"""Cost as executed lines: the number of "line" events that sys.settrace
reports in the package's own frames. The count is exact and the same on
any host, where a ratio of wall times on a shared host drifts by up to
1.6x, so it can hold the north star's "twice the input, twice the time"
in tier-1.

Standard library only; the counter is test code, not a program module.
"""

import sys
from pathlib import Path

import pytest

import socialevents
from socialevents import cli, identity
from synth import make_video, write_observations

PACKAGE = str(Path(socialevents.__file__).parent)


def executed_lines(call, *args) -> int:
    """How many lines of the package run while ``call(*args)`` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def scope(frame, event, arg):  # a new frame: trace it only if it is the package's
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return count


def test_detect_lines_per_frame_do_not_grow_with_video_length(tmp_path):
    """detect on one 6-person video of N frames runs the same number of
    lines per frame at N = 300 and 600, within 3% (about 1373 each)."""
    per_frame = []
    for n in (300, 600):
        obs = tmp_path / f"obs{n}.jsonl"
        write_observations(make_video(7, "v", 6, 6, n, n), obs)
        argv = ["detect", "--input", str(obs), "--out", str(tmp_path / f"out{n}")]
        per_frame.append(executed_lines(cli.main, argv) / n)
    assert per_frame[1] <= per_frame[0] * 1.03 and per_frame[0] <= per_frame[1] * 1.03, per_frame


def _association_lines_per_frame(persons: int) -> float:
    """Face association's lines per frame over the one frame of
    ``make_video(s, "v", persons, persons, 1, 1)`` for seeds 0-4, whose
    side-by-side person boxes make contested faces."""
    frames = [make_video(seed, "v", persons, persons, 1, 1)[0] for seed in range(5)]
    return sum(executed_lines(identity.match_faces_to_persons, f) for f in frames) / len(frames)


@pytest.mark.xfail(strict=True, reason="face association re-solves each component once per "
                                       "edge it tries: 5958 lines per frame at 20 persons, "
                                       "656,736 at 40")
def test_face_association_lines_grow_at_most_quadratically_in_the_crowd():
    """Doubling the persons of a crowded frame from 20 to 40 multiplies
    face association's lines per frame by at most 4.4 (quadratic, the
    overlap matrix every frame builds, plus 10%)."""
    small, large = _association_lines_per_frame(20), _association_lines_per_frame(40)
    assert large <= 4.4 * small, (small, large)
