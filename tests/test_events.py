import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialevents.config import DEFAULT_CONFIG
from socialevents.errors import ValidationError
from socialevents.events import (
    SocialEvent,
    _confidence,
    cluster_intervals,
    detect_all,
    detect_attention_capture,
    detect_gaze_following,
    detect_joint_attention,
    detect_mutual_gaze,
    detect_sudden_shifts,
    event_record,
)
from socialevents.gaze import (
    PROV_INTERPOLATED,
    GazeTrack,
    build_tracks,
    compute_features,
    interpolate_track,
)
from socialevents.ingest import Box
from helpers import event, grid_track, sample, tick
from oracles import (
    contains,
    detector_view,
    expand,
    follow_hits,
    oracle_all,
    oracle_capture,
    oracle_joint_attention,
)
from synth import make_video


def features_of(tracks):
    return compute_features(tracks)


class TestClusterIntervals:
    def test_gap_splits(self):
        clusters = cluster_intervals([tick(0.5), tick(1.0), tick(2.5)], 0.6)
        assert [(c.start, c.end) for c in clusters] == [(tick(0.5), tick(1.0)), (tick(2.5),) * 2]
        assert clusters[0].members == (tick(0.5), tick(1.0))

    def test_empty(self):
        assert cluster_intervals([], 0.6) == []

    def test_singleton_zero_length(self):
        (c,) = cluster_intervals([tick(2.0)], 0.6)
        assert (c.start, c.end) == (tick(2.0), tick(2.0))


def velocity_track(pid, deltas, center=(0.5, 0.5)):
    """Track whose |d_t - d_{t-1}| equals the given deltas at successive steps."""
    x = 0.1
    points = {0.0: {"gaze": (center[0] + x, center[1]), "center": center}}
    t = 0.0
    for delta in deltas:
        t += 0.5
        x += delta
        points[t] = {"gaze": (center[0] + x, center[1]), "center": center}
    return grid_track(pid, 0.0, t, points)


class TestSuddenShifts:
    def test_two_flagged_frames(self):
        # v at 0.5..2.0 = 0.1, 0.9, 0.95, 0.1
        track = velocity_track(0, [0.05, 0.45, 0.475, 0.05])
        (ev,) = detect_sudden_shifts(track, features_of([track]))
        assert (ev.start_time, ev.end_time) == (1.0, 1.5)
        assert ev.participants == {0}
        assert ev.event_type == "sudden_gaze_shift"

    def test_all_below_threshold(self):
        track = velocity_track(0, [0.2, 0.3, 0.1])
        assert detect_sudden_shifts(track, features_of([track])) == []

    def test_long_run_dropped(self):
        # 5 consecutive flagged frames span 2.0 s > 1.5 s
        track = velocity_track(0, [0.4, -0.4, 0.4, -0.4, 0.4])
        assert detect_sudden_shifts(track, features_of([track])) == []

    def test_single_flagged_frame_too_short(self):
        track = velocity_track(0, [0.45, 0.05])
        assert detect_sudden_shifts(track, features_of([track])) == []


def ja_tracks(points_by_t, pids=(0, 1, 2)):
    tracks = []
    times = sorted(points_by_t)
    for i, pid in enumerate(pids):
        measured = {
            t: {"gaze": pts[i], "center": (0.1 + 0.3 * i, 0.4)}
            for t, pts in points_by_t.items() if pts[i] is not None
        }
        tracks.append(grid_track(pid, times[0], times[-1], measured))
    return tracks


class TestJointAttention:
    def test_three_persons_one_second(self):
        pts = {(t): [(0.5, 0.5), (0.51, 0.5), (0.5, 0.51)] for t in (0.0, 0.5, 1.0)}
        tracks = ja_tracks(pts)
        (ev,) = detect_joint_attention(tracks, features_of(tracks))
        assert ev.participants == {0, 1, 2}
        assert (ev.start_time, ev.end_time) == (0.0, 1.0)

    def test_low_convergence_no_event(self):
        # spread the points so the median distance keeps s below 0.6
        pts = {t: [(0.1, 0.1), (0.5, 0.9), (0.9, 0.1)] for t in (0.0, 0.5, 1.0)}
        tracks = ja_tracks(pts)
        assert detect_joint_attention(tracks, features_of(tracks)) == []

    def test_single_face_no_event(self):
        pts = {t: [(0.5, 0.5), None, None] for t in (0.0, 0.5, 1.0)}
        tracks = ja_tracks(pts)
        assert detect_joint_attention(tracks, features_of(tracks)) == []

    def test_short_event_dropped(self):
        pts = {0.0: [(0.5, 0.5), (0.51, 0.5), (0.5, 0.51)]}
        pts[0.5] = [None, None, None]
        pts[1.0] = [None, None, None]
        tracks = ja_tracks(pts)
        assert detect_joint_attention(tracks, features_of(tracks)) == []

    def test_peripheral_contributor_dropped(self):
        # three coincident gazers and one outlier at 3x the median distance
        pts = {t: [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (0.9, 0.5)] for t in (0.0, 0.5)}
        tracks = ja_tracks(pts, pids=(0, 1, 2, 3))
        (ev,) = detect_joint_attention(tracks, features_of(tracks))
        assert ev.participants == {0, 1, 2}


class TestGazeFollowing:
    def make_pair(self, leader_point, follower_point, leader_t, follower_t):
        leader = grid_track(0, 0.0, 4.0, {leader_t: {"gaze": leader_point, "center": (0.2, 0.4)}})
        follower = grid_track(1, 0.0, 4.0, {follower_t: {"gaze": follower_point, "center": (0.8, 0.4)}})
        return [leader, follower]

    def test_basic_follow(self):
        tracks = self.make_pair((0.70, 0.30), (0.71, 0.30), 2.0, 3.5)
        (ev,) = detect_gaze_following(tracks)
        assert ev.roles == {"leader": 0, "follower": 1}
        assert (ev.start_time, ev.end_time) == (2.0, 3.5)
        assert ev.attributes["lag"] == 1.5
        assert ev.attributes["distance"] == pytest.approx(0.01)

    def test_lag_too_short(self):
        tracks = self.make_pair((0.70, 0.30), (0.71, 0.30), 2.0, 2.5)
        assert detect_gaze_following(tracks) == []

    def test_interpolated_leader_ignored(self):
        # leader measured at 0.0 and 1.5 far from the target; interpolated
        # samples in between pass near it, but they must not count
        leader = interpolate_track(grid_track(0, 0.0, 4.0, {
            0.0: {"gaze": (0.2, 0.3), "center": (0.2, 0.4)},
            1.5: {"gaze": (0.8, 0.3), "center": (0.2, 0.4)},
        }))
        assert leader.samples[2].provenance == PROV_INTERPOLATED
        mid = leader.samples[2].gaze_point  # value at t=1.0
        follower = grid_track(1, 0.0, 4.0, {2.5: {"gaze": mid, "center": (0.8, 0.4)}})
        events = detect_gaze_following([leader, follower])
        assert events == []

    @pytest.mark.parametrize("dx, found", [
        (DEFAULT_CONFIG.follow_distance, False),
        (-DEFAULT_CONFIG.follow_distance, False),
        (math.nextafter(DEFAULT_CONFIG.follow_distance, 0.0), True),
        (-math.nextafter(DEFAULT_CONFIG.follow_distance, 0.0), True),
    ])
    def test_leader_at_the_distance_on_x(self, dx, found):
        # the x offset alone decides: exactly the distance apart is not
        # within it, one ulp closer is; one of the two points sits at x = 0,
        # so each offset is exact
        leader_x = max(0.0, -dx)
        tracks = self.make_pair((leader_x, 0.30), (leader_x + dx, 0.30), 2.0, 3.0)
        events = detect_gaze_following(tracks)
        assert len(events) == (1 if found else 0)
        if found:
            assert events[0].attributes["distance"] == abs(dx)

    def test_near_on_x_far_on_y_is_no_follow(self):
        tracks = self.make_pair((0.50, 0.30), (0.51, 0.33), 2.0, 3.0)
        assert detect_gaze_following(tracks) == []

    def test_earliest_lag_wins(self):
        leader = grid_track(0, 0.0, 4.0, {
            1.0: {"gaze": (0.5, 0.5), "center": (0.2, 0.4)},
            1.5: {"gaze": (0.5, 0.5), "center": (0.2, 0.4)},
            2.0: {"gaze": (0.5, 0.5), "center": (0.2, 0.4)},
        })
        follower = grid_track(1, 0.0, 4.0, {3.0: {"gaze": (0.5, 0.5), "center": (0.8, 0.4)}})
        events = detect_gaze_following([leader, follower])
        (ev,) = events
        assert ev.attributes["lag"] == 1.0
        assert ev.start_time == 2.0

    def test_lag_spanning_the_whole_track(self):
        tracks = self.make_pair((0.70, 0.30), (0.71, 0.30), 0.0, 4.0)
        config = dataclasses.replace(DEFAULT_CONFIG, follow_lag_max=1e17)
        (ev,) = detect_gaze_following(tracks, config)
        assert ev.attributes["lag"] == 4.0


class TestAttentionCapture:
    def capture_tracks(self, n=3, jump=0.3):
        tracks = []
        for pid in range(n):
            tracks.append(velocity_track(pid, [0.05, jump, 0.05], center=(0.15 + 0.2 * pid, 0.4)))
        return tracks

    def test_three_person_event(self):
        tracks = self.capture_tracks(3, 0.3)  # v = 0.6 at t=1.0
        events = detect_attention_capture(tracks, features_of(tracks))
        assert len(events) == 1
        assert events[0].participants == {0, 1, 2}
        assert (events[0].start_time, events[0].end_time) == (1.0, 1.0)

    def test_two_persons_insufficient(self):
        tracks = self.capture_tracks(2, 0.3)
        assert detect_attention_capture(tracks, features_of(tracks)) == []

    def test_low_velocity_no_event(self):
        tracks = self.capture_tracks(3, 0.15)  # v = 0.3
        assert detect_attention_capture(tracks, features_of(tracks)) == []


def facing_tracks(n_hits, margin_miss=False, one_way=False):
    """Two persons whose gaze lands in each other's face boxes for n frames."""
    box_a = Box(0.20, 0.30, 0.30, 0.44)
    box_b = Box(0.70, 0.30, 0.80, 0.44)
    hi = max(0.5 * (n_hits - 1), 0.0) + 1.0
    a_pts, b_pts = {}, {}
    for k in range(n_hits):
        t = 0.5 * k
        a_gaze = box_b.center if not margin_miss else (box_b.x2 + 0.05, 0.37)
        b_gaze = box_a.center if not one_way else (0.5, 0.9)
        a_pts[t] = {"gaze": a_gaze, "center": box_a.center, "box": box_a}
        b_pts[t] = {"gaze": b_gaze, "center": box_b.center, "box": box_b}
    return [grid_track(0, 0.0, hi, a_pts), grid_track(1, 0.0, hi, b_pts)]


class TestMutualGaze:
    def test_four_frames(self):
        tracks = facing_tracks(4)
        (ev,) = detect_mutual_gaze(tracks)
        assert ev.participants == {0, 1}
        assert (ev.start_time, ev.end_time) == (0.0, 1.5)

    def test_one_way_no_event(self):
        assert detect_mutual_gaze(facing_tracks(4, one_way=True)) == []

    def test_single_frame_too_short(self):
        assert detect_mutual_gaze(facing_tracks(1)) == []

    def test_margin_hit(self):
        # gaze 0.015 outside the box is inside the 0.02 margin
        box_a = Box(0.20, 0.30, 0.30, 0.44)
        box_b = Box(0.70, 0.30, 0.80, 0.44)
        a_pts, b_pts = {}, {}
        for k in range(3):
            t = 0.5 * k
            a_pts[t] = {"gaze": (box_b.x2 + 0.015, 0.37), "center": box_a.center, "box": box_a}
            b_pts[t] = {"gaze": (box_a.x1 - 0.015, 0.37), "center": box_b.center, "box": box_b}
        tracks = [grid_track(0, 0.0, 1.0, a_pts), grid_track(1, 0.0, 1.0, b_pts)]
        (ev,) = detect_mutual_gaze(tracks)
        assert (ev.start_time, ev.end_time) == (0.0, 1.0)

    def test_interpolated_gaze_never_hits(self):
        tracks = facing_tracks(4)
        # recast every sample of one side as interpolated
        recast = tuple(s._replace(provenance=PROV_INTERPOLATED) for s in tracks[0].samples)
        tracks[0] = GazeTrack("v", 0, recast)
        assert detect_mutual_gaze(tracks) == []


def test_oracle_box_helpers():
    box = Box(0.2, 0.4, 0.6, 0.8)
    assert expand(box, 0.1) == pytest.approx((0.1, 0.3, 0.7, 0.9))
    assert contains(box, (0.2, 0.8))
    assert not contains(box, (0.61, 0.5))


class TestEventConfidence:
    def test_all_measured_full_confidence(self):
        ev = event(0)
        samples = [sample(t, gaze=(0.5, 0.5)) for t in (0.0, 0.5)]
        assert _confidence(ev.event_type, samples) == 1.0

    def test_interpolated_support_discounted(self):
        ev = event(0)
        samples = [
            sample(0.0, gaze=(0.5, 0.5)),
            sample(0.5, gaze=(0.5, 0.5), conf=0.8, prov=PROV_INTERPOLATED),
        ]
        # mean 0.9, measured fraction 0.5
        assert _confidence(ev.event_type, samples) == pytest.approx(0.9 * 0.75)

    def test_no_support_is_an_error(self):
        with pytest.raises(ValidationError, match="^event mutual_gaze has no supporting samples$"):
            _confidence(event(0).event_type, [])

    def test_mean_is_a_left_to_right_fold(self):
        # sum() of floats rounds otherwise from Python 3.12 on
        samples = [sample(0.5 * i, gaze=(0.5, 0.5), conf=c) for i, c in enumerate((0.1, 0.2, 0.3))]
        assert _confidence(event(0).event_type, samples) == ((0.1 + 0.2) + 0.3) / 3


class TestSocialEvent:
    def test_defaults_are_fresh_per_event(self):
        a = SocialEvent(0, "gaze", "sudden_gaze_shift", frozenset({1}))
        b = SocialEvent(1, "gaze", "sudden_gaze_shift", frozenset({2}))
        assert a.roles == a.attributes == {} and (a.start_time, a.end_time, a.confidence) == \
            (0.0, 0.0, 0.0)
        assert a.roles is not b.roles and a.attributes is not b.attributes
        assert a.roles is not a.attributes

    def test_a_named_tuple_of_its_fields(self):
        ev = event(3, start=1.0, end=2.5)
        assert ev == tuple(getattr(ev, name) for name in SocialEvent._fields)
        assert ev.duration == 1.5
        moved = ev._replace(event_id=7)
        assert type(moved) is SocialEvent and moved.event_id == 7 and moved[1:] == ev[1:]


class TestDetectorOracleEquivalence:
    def test_synthetic_videos_match_oracle(self):
        for seed in range(40):
            frames = make_video(seed, max_frames=40)
            tracks = [interpolate_track(t) for t in build_tracks(frames)]
            detected = detect_all(tracks, features_of(tracks))
            assert detector_view(detected) == oracle_all(tracks), f"seed {seed}"


# Detectors off their defaults, on long videos (300-400 frames, 5-6 persons,
# scripted mutual gaze) where capture merges span many windows, velocity
# runs grow long and, with two or more lags, a leader can qualify at several
# lags of one follower sample.
SWEEP_SEEDS = (12, 24, 34, 44)
SWEEP = [
    *(({"capture_window": v}, "attention_capture") for v in (0.5, 1.0, 2.0)),
    *(({"capture_min_persons": v}, "attention_capture") for v in (1, 2, 3, 4)),
    *(({"sudden_cluster_gap": v}, "sudden_gaze_shift") for v in (0.5, 0.6, 1.5)),
    *(({"mutual_margin": v}, "mutual_gaze") for v in (0.0, 0.02, 0.1)),
    *(({"follow_lag_min": lo, "follow_lag_max": hi}, "gaze_following")
      for lo, hi in ((0.5, 0.5), (0.5, 3.0), (1.5, 2.0))),
    *(({"follow_distance": v}, "gaze_following") for v in (0.01, 0.1)),
]


@pytest.fixture(scope="module")
def sweep_videos():
    return [make_video(seed, min_persons=3, min_frames=300, max_frames=400)
            for seed in SWEEP_SEEDS]


@pytest.mark.parametrize("overrides, event_type", [
    pytest.param(overrides, event_type, id="-".join(
        [f"{k}-{v}" for k, v in overrides.items()] + [event_type]))
    for overrides, event_type in SWEEP
])
def test_long_videos_match_oracle_off_defaults(sweep_videos, overrides, event_type):
    config = dataclasses.replace(DEFAULT_CONFIG, **overrides)
    seen = multi_lag = 0
    for seed, frames in zip(SWEEP_SEEDS, sweep_videos):
        tracks = [interpolate_track(t, config) for t in build_tracks(frames)]
        detected = detect_all(tracks, compute_features(tracks, config), config)
        assert detector_view(detected) == oracle_all(tracks, config), f"seed {seed}"
        seen += sum(1 for e in detected if e.event_type == event_type)
        if event_type == "gaze_following":
            keys = Counter((leader, follower, t)
                           for leader, follower, t, _ in follow_hits(tracks, config))
            multi_lag += sum(1 for n in keys.values() if n > 1)
    assert seen, f"no {event_type} events, so {overrides} was not exercised"
    if event_type == "gaze_following" and config.follow_lag_max > config.follow_lag_min:
        assert multi_lag, f"no leader qualifies at two lags under {overrides}"


def test_joint_attention_matches_oracle_below_the_median_cutoff():
    # Below 1, the peripheral cutoff can retain fewer than two of a frame's
    # contributors; such a frame ends the current run and starts none.
    config = dataclasses.replace(DEFAULT_CONFIG, ja_peripheral_mult=0.9)
    found = 0
    for seed in range(200):
        tracks = [interpolate_track(t, config) for t in build_tracks(make_video(seed))]
        detected = detect_joint_attention(tracks, compute_features(tracks, config), config)
        assert detector_view(detected) == oracle_joint_attention(tracks, config), f"seed {seed}"
        found += len(detected)
    assert found, "no joint attention at ja_peripheral_mult=0.9"


def test_follow_lag_max_beyond_the_video_costs_no_more_than_its_span():
    # a lag longer than the tracks' time span never reaches a leader sample
    frames = make_video(5, min_persons=6, min_frames=100, max_frames=120)
    tracks = [interpolate_track(t) for t in build_tracks(frames)]
    span = frames[-1].t - frames[0].t
    at_span = detect_gaze_following(tracks, dataclasses.replace(DEFAULT_CONFIG, follow_lag_max=span))
    assert any(e.attributes["lag"] > DEFAULT_CONFIG.follow_lag_max for e in at_span)
    start = time.perf_counter()
    huge = detect_gaze_following(tracks, dataclasses.replace(DEFAULT_CONFIG, follow_lag_max=1e17))
    assert time.perf_counter() - start < 1.0
    assert huge == at_span


def _capture_setup(seed):
    frames = make_video(seed, min_persons=3, max_frames=60)
    tracks = [interpolate_track(t) for t in build_tracks(frames)]
    return tracks, compute_features(tracks)


def test_capture_window_beyond_the_flags_costs_what_their_span_costs():
    # Once a window holds every flag, a wider one changes nothing, and the
    # sweep's cost does not grow with the width.
    tracks, features = _capture_setup(44)
    flags = [f.t for f in features
             if any(v > DEFAULT_CONFIG.capture_velocity for v in f.velocities.values())]
    config = dataclasses.replace(DEFAULT_CONFIG, capture_window=flags[-1] - flags[0] + 1.0)
    at_span = detect_attention_capture(tracks, features, config)
    assert len(at_span) > 1
    assert detector_view(at_span) == oracle_capture(tracks, config)
    child = (
        "import dataclasses, json\n"
        "from socialevents.config import DEFAULT_CONFIG\n"
        "from socialevents.events import detect_attention_capture, event_record\n"
        "from test_events import _capture_setup\n"
        "config = dataclasses.replace(DEFAULT_CONFIG, capture_window=1e17)\n"
        "events = detect_attention_capture(*_capture_setup(44), config)\n"
        "print(json.dumps([event_record(e) for e in events]))\n"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert json.loads(done.stdout) == [event_record(e) for e in at_span]


def test_capture_right_edge_is_the_float_sum():
    # Near t = 1000 s, w + 0.9999999999999999 rounds to w + 1.0, so that
    # window holds a flag 1.0 s after its start, as a 1.0 s window does.
    frames = [dataclasses.replace(f, k=f.k + 2000) for f in make_video(10, min_persons=4,
                                                                       max_frames=40)]
    tracks = [interpolate_track(t) for t in build_tracks(frames)]
    features = compute_features(tracks)
    found = {}
    for width in (0.5, 0.9999999999999999, 1.0):
        config = dataclasses.replace(DEFAULT_CONFIG, capture_window=width)
        found[width] = detector_view(detect_attention_capture(tracks, features, config))
        assert found[width] == oracle_capture(tracks, config)
    assert found[0.9999999999999999] == found[1.0] != found[0.5]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), width=st.floats(0.0, 5.0, exclude_min=True),
       min_persons=st.integers(1, 4))
@example(seed=3, width=0.3, min_persons=3).via("off-grid")
@example(seed=7, width=0.75, min_persons=3).via("off-grid")
@example(seed=12, width=0.9999999999999999, min_persons=2).via("one ulp below the grid")
@example(seed=23, width=4.999999999999999, min_persons=3).via("one ulp below the grid")
def test_capture_matches_oracle_at_any_width(seed, width, min_persons):
    tracks, features = _capture_setup(seed)
    config = dataclasses.replace(DEFAULT_CONFIG, capture_window=width,
                                 capture_min_persons=min_persons)
    assert detector_view(detect_attention_capture(tracks, features, config)) == \
        oracle_capture(tracks, config)


class TestEventProperties:
    def relabel(self, tracks, mapping):
        return [GazeTrack(t.video_id, mapping[t.person_id], t.samples) for t in tracks]

    def test_relabeling_bijection(self):
        frames = make_video(17, max_frames=30)
        tracks = [interpolate_track(t) for t in build_tracks(frames)]
        pids = [t.person_id for t in tracks]
        mapping = {pid: pid + 100 for pid in pids}
        base = detect_all(tracks, features_of(tracks))
        relabeled_tracks = self.relabel(tracks, mapping)
        relabeled = detect_all(relabeled_tracks, features_of(relabeled_tracks))
        expect = sorted(
            (e.event_type, tuple(sorted(mapping[p] for p in e.participants)),
             e.start_time, e.end_time)
            for e in base
        )
        assert detector_view(relabeled) == expect

    def test_time_shift(self):
        frames = make_video(23, max_frames=30)
        tracks = [interpolate_track(t) for t in build_tracks(frames)]
        delta = 7.5
        shifted_tracks = [
            GazeTrack(t.video_id, t.person_id, tuple(
                s._replace(k=s.k + tick(delta)) for s in t.samples
            ))
            for t in tracks
        ]
        base = detector_view(detect_all(tracks, features_of(tracks)))
        shifted = detector_view(detect_all(shifted_tracks, features_of(shifted_tracks)))
        assert shifted == [
            (typ, parts, s + delta, e + delta) for typ, parts, s, e in base
        ]

    def test_cardinality_and_duration_invariants(self):
        for seed in range(30):
            frames = make_video(seed + 1000, max_frames=40)
            tracks = [interpolate_track(t) for t in build_tracks(frames)]
            for ev in detect_all(tracks, features_of(tracks)):
                assert ev.participants
                assert ev.end_time >= ev.start_time
                if ev.event_type == "mutual_gaze":
                    assert len(ev.participants) == 2
                    assert ev.duration >= 1.0
                elif ev.event_type == "attention_capture":
                    assert len(ev.participants) >= 3
                elif ev.event_type == "joint_attention":
                    assert len(ev.participants) >= 2
                    assert ev.duration >= 0.5
                elif ev.event_type == "sudden_gaze_shift":
                    assert len(ev.participants) == 1
                    assert 0.5 <= ev.duration <= 1.5
                elif ev.event_type == "gaze_following":
                    assert len(ev.participants) == 2
                    assert 1.0 <= ev.duration <= 2.0
                assert 0.0 <= ev.confidence <= 1.0


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(dx=_finite, dy=_finite)
@example(dx=0.03, dy=0.0).via("on the x axis")
@example(dx=-0.03, dy=5e-324).via("the smallest y offset")
def test_hypot_is_at_least_the_x_offset(dx, dy):
    # gaze following skips a leader whose x offset alone reaches the
    # distance; that skip drops no event only while this holds
    assert math.hypot(dx, dy) >= abs(dx)
