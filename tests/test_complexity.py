"""Cost as executed lines: the number of "line" events that sys.settrace
reports in the package's own frames. The count is exact and the same on
any host, where a ratio of wall times on a shared host drifts by up to
1.6x, so it can hold the north star's "twice the input, twice the time"
in tier-1.

BUDGETS commits each stage's lines per unit at the default config, each
held within 10% either way. A change that moves one past its bound, up or
down, sets the new value here and names the budget in CHANGES.md, as for a
golden digest. The counts differ by Python version, by up to 7.5%
(analyze, 20.0 lines per rollout on 3.11 and 18.5 on 3.12), so each budget
is the midpoint of the counts on 3.10-3.13, which lie within 4% of it.

Standard library only; the counter is test code, not a program module.
"""

import json
import sys
from pathlib import Path

import pytest

import socialevents
from socialevents import cli, events, identity
from socialevents.gaze import build_tracks, interpolate_track
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


def _detect_lines_per_frame(directory: Path, seed: int, persons: int, frames: int) -> float:
    """detect's lines per frame on make_video(seed, "v", persons, persons,
    frames, frames)."""
    obs = directory / f"obs{seed}_{persons}_{frames}.jsonl"
    write_observations(make_video(seed, "v", persons, persons, frames, frames), obs)
    argv = ["detect", "--input", str(obs), "--out", str(directory / obs.stem)]
    return executed_lines(cli.main, argv) / frames


@pytest.fixture(scope="module")
def detect_per_frame(tmp_path_factory) -> dict:
    """detect's lines per frame on one 6-person video of N frames, at N = 300
    and 600."""
    out = tmp_path_factory.mktemp("detect")
    return {n: _detect_lines_per_frame(out, 7, 6, n) for n in (300, 600)}


def test_detect_lines_per_frame_do_not_grow_with_video_length(detect_per_frame):
    """detect on one 6-person video of N frames runs the same number of
    lines per frame at N = 300 and 600, within 3% (about 991 each)."""
    per_frame = [detect_per_frame[n] for n in (300, 600)]
    assert per_frame[1] <= per_frame[0] * 1.03 and per_frame[0] <= per_frame[1] * 1.03, per_frame


# Lines per unit at the default config: the midpoint of the counts on Python
# 3.10-3.13, which follow in that order.
BUDGETS = {
    "detect per frame, 6 persons, 300 frames": 984.8,  # 991.4, 991.4, 978.2, 978.4
    "detect per frame, 24 persons, 120 frames": 14534.2,  # 14626.0, 14626.0, 14451.8, 14442.3
    "graph per input event, 1200 frames": 94.2,  # 95.6, 95.6, 92.8, 92.8
    "qagen per graph, 1200 frames": 10721.0,  # 10832, 10854, 10919, 10523
    # 97.3, 97.3, 93.6, 93.5 before parse_trace's tag split; 93.7 on 3.11 after it
    "reward per rollout, 200 groups": 95.4,
    "analyze per rollout, 200 groups": 19.25,  # 20.0, 20.0, 18.5, 18.5
}


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


@pytest.fixture(scope="module")
def per_rollout(pipelines, tmp_path_factory) -> dict[str, list[float]]:
    """reward's and analyze's lines per rollout over synth.make_traces of 200
    and 400 groups of 8 rollouts on the 1200-frame video's QA items."""
    out = pipelines[1200][0]
    tmp_path = tmp_path_factory.mktemp("traces")
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
    return per_rollout


def test_reward_and_analyze_lines_per_rollout_do_not_grow_with_the_traces(per_rollout):
    """About 93.7 and 92.6 lines per rollout in reward, 20.0 and 19.6 in
    analyze, at 200 and 400 groups (Python 3.11)."""
    assert all(map(_no_growth, per_rollout.values())), per_rollout


def _association_lines_per_frame(persons: int) -> float:
    """Face association's lines per frame over the one frame of
    ``make_video(s, "v", persons, persons, 1, 1)`` for seeds 0-4, whose
    side-by-side person boxes make contested faces."""
    frames = [make_video(seed, "v", persons, persons, 1, 1)[0] for seed in range(5)]
    return sum(executed_lines(identity.match_faces_to_persons, f) for f in frames) / len(frames)


@pytest.mark.xfail(strict=True, reason="face association re-solves each component once per "
                                       "edge it tries: 4378 lines per frame at 20 persons, "
                                       "651,581 at 40")
def test_face_association_lines_grow_at_most_quadratically_in_the_crowd():
    """Doubling the persons of a crowded frame from 20 to 40 multiplies
    face association's lines per frame by at most 4.4 (quadratic, the
    overlap of every person and face that each frame computes, plus 10%)."""
    small, large = _association_lines_per_frame(20), _association_lines_per_frame(40)
    assert large <= 4.4 * small, (small, large)


def _following_lines_per_frame(persons: int) -> float:
    """Gaze following's lines per frame over the tracks of
    ``make_video(s, "v", persons, persons, 300, 300)`` for seeds 0-2."""
    total = 0
    for seed in range(3):
        frames = make_video(seed, "v", persons, persons, 300, 300)
        tracks = [interpolate_track(t) for t in build_tracks(frames)]
        total += executed_lines(events.detect_gaze_following, tracks)
    return total / (3 * 300)


def test_following_lines_grow_less_than_quadratically_in_the_crowd():
    """Doubling the persons from 14 to 28 multiplies gaze following's lines
    per frame by at most 3.0: about 476 and 1234 (2.59x). A scan of every
    measured leader for every follower sample ran 1960 and 7410 (3.78x)."""
    small, large = _following_lines_per_frame(14), _following_lines_per_frame(28)
    assert large <= 3.0 * small, (small, large)


@pytest.fixture(scope="module")
def measured(detect_per_frame, pipelines, per_rollout, tmp_path_factory) -> dict[str, float]:
    """Each budget's lines per unit, measured now."""
    crowded = _detect_lines_per_frame(tmp_path_factory.mktemp("crowded"), 9, 24, 120)
    return {
        "detect per frame, 6 persons, 300 frames": detect_per_frame[300],
        "detect per frame, 24 persons, 120 frames": crowded,
        "graph per input event, 1200 frames": pipelines[1200][1],
        "qagen per graph, 1200 frames": pipelines[1200][2],
        "reward per rollout, 200 groups": per_rollout["reward"][0],
        "analyze per rollout, 200 groups": per_rollout["analyze"][0],
    }


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_lines_per_unit_stay_within_their_budget(budget, measured):
    assert 0.9 * BUDGETS[budget] <= measured[budget] <= 1.1 * BUDGETS[budget], \
        (measured[budget], BUDGETS[budget])
