"""Cost as executed lines: the number of "line" events that sys.settrace
reports in the package's own frames. The count is exact and the same on
any host, where a ratio of wall times on a shared host drifts by up to
1.6x, so it can hold the north star's "twice the input, twice the time"
in tier-1.

Standard library only; the counter is test code, not a program module.
"""

import json
import sys
from pathlib import Path

import pytest

import socialevents
from socialevents import cli, identity
from socialevents.qa import load_qa_items
from synth import make_gestures, make_traces, make_video, write_gestures, write_observations

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


def _no_growth(per_unit: list[float]) -> bool:
    """Whether lines per unit at 2N are at most 3% above those at N. A
    stage's one-off cost (loading its inputs, say) makes them fall."""
    return per_unit[1] <= per_unit[0] * 1.03


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory) -> dict:
    """For one 6-person video of N frames with N // 50 gestures, at N = 1200
    and 2400: the output directory of detect, graph and qagen, graph's lines
    per input event (gaze event or gesture) and qagen's lines per graph."""
    runs = {}
    for n in (1200, 2400):
        out = tmp_path_factory.mktemp(f"video{n}")
        o = str(out)
        write_observations(make_video(7, "v", 6, 6, n, n), out / "obs.jsonl")
        write_gestures(make_gestures(3, "v", range(6), n / 2, n // 50), out / "gestures.jsonl")
        assert cli.main(["detect", "--input", f"{o}/obs.jsonl", "--out", o]) == 0
        graph = executed_lines(cli.main, [
            "graph", "--input", f"{o}/events.jsonl", "--gestures", f"{o}/gestures.jsonl",
            "--videos", f"{o}/videos.jsonl", "--out", o])
        qagen = executed_lines(cli.main, ["qagen", "--input", f"{o}/graph.jsonl", "--out", o])
        events = len((out / "events.jsonl").read_text().splitlines()) + n // 50
        graphs = len((out / "graph.jsonl").read_text().splitlines())
        runs[n] = out, graph / events, qagen / graphs
    return runs


def test_graph_lines_per_event_do_not_grow_with_video_length(pipelines):
    """About 95.6 and 89.8 lines per event at 1200 and 2400 frames. Pair
    linking that tests every gaze event against every gesture ran 112.0 and
    117.8."""
    per_event = [pipelines[n][1] for n in (1200, 2400)]
    assert _no_growth(per_event), per_event


def test_qagen_lines_per_graph_do_not_grow_with_video_length(pipelines):
    """A graph holds at most 25 events, whatever the video's length: about
    10,854 and 10,113 lines per graph at 1200 and 2400 frames."""
    per_graph = [pipelines[n][2] for n in (1200, 2400)]
    assert _no_growth(per_graph), per_graph


def test_reward_and_analyze_lines_per_rollout_do_not_grow_with_the_traces(pipelines, tmp_path):
    """Over synth.make_traces of 200 and 400 groups of 8 rollouts on the
    1200-frame video's QA items: about 94.6 and 93.8 lines per rollout in
    reward, 20.0 and 19.6 in analyze."""
    out = pipelines[1200][0]
    items = load_qa_items(out / "qa.jsonl")
    per_rollout: dict[str, list[float]] = {"reward": [], "analyze": []}
    for groups in (200, 400):
        traces, run = tmp_path / f"traces{groups}.jsonl", tmp_path / str(groups)
        traces.write_text("".join(json.dumps(r) + "\n" for r in make_traces(7, items, groups)))
        reward = executed_lines(cli.main, [
            "reward", "--input", str(out / "qa.jsonl"), "--traces", str(traces),
            "--graphs", str(out / "graph.jsonl"), "--out", str(run)])
        analyze = executed_lines(cli.main, [
            "analyze", "--input", str(run / "rewards.jsonl"), "--out", str(run)])
        per_rollout["reward"].append(reward / (groups * 8))
        per_rollout["analyze"].append(analyze / (groups * 8))
    assert all(map(_no_growth, per_rollout.values())), per_rollout


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
