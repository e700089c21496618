"""Edge-shape inputs: tiny videos, lone persons, gesture-only graphs,
and heavy-dropout tracks."""

import json

from socialevents.events import detect_all
from socialevents.gaze import build_tracks, compute_features, interpolate_track
from socialevents.graph import build_graph
from socialevents.ingest import GestureAnnotation
from socialevents.qa import generate_qa, validate_qa
from socialevents.cli import main as cli_main
from helpers import event
from oracles import detector_view, oracle_all
from synth import make_gestures, make_video, write_observations


def pipeline(frames):
    tracks = [interpolate_track(t) for t in build_tracks(frames)]
    return tracks, compute_features(tracks)


class TestTinyVideos:
    def test_single_frame_video(self):
        frames = make_video(77, min_frames=1, max_frames=1)
        tracks, features = pipeline(frames)
        assert detect_all(tracks, features) == []

    def test_two_frame_videos_match_oracle(self):
        for seed in range(40):
            frames = make_video(seed + 300, min_frames=2, max_frames=3)
            tracks, features = pipeline(frames)
            assert detector_view(detect_all(tracks, features)) == oracle_all(tracks)

    def test_single_person_videos_match_oracle(self):
        for seed in range(40):
            frames = make_video(seed + 400, min_persons=2, max_persons=2,
                                min_frames=5, max_frames=25)
            # drop one person entirely: only sudden shifts remain possible
            frames = [
                type(f)(f.video_id, f.k, tuple(p for p in f.persons if p.person_id == 0),
                        f.faces)
                for f in frames
            ]
            tracks, features = pipeline(frames)
            detected = detector_view(detect_all(tracks, features))
            assert detected == oracle_all(tracks)
            assert all(d[0] == "sudden_gaze_shift" for d in detected)


class TestWiderOracleStress:
    def test_additional_seed_band(self):
        for seed in range(200, 320):
            frames = make_video(seed, max_frames=45)
            tracks, features = pipeline(frames)
            assert detector_view(detect_all(tracks, features)) == oracle_all(tracks), seed


class TestGestureOnlyGraphs:
    def gesture(self, i, start, end, conf=0.9):
        return GestureAnnotation("v", "pointing", i, "person", i + 1, start, end, conf)

    def test_graph_without_gaze_events(self):
        gestures = [self.gesture(i, 2.0 * i + 1.0, 2.0 * i + 2.2) for i in range(4)]
        graph = build_graph("v", 60.0, [], gestures)
        assert len(graph.events) == 4
        assert graph.joint_pairs == []
        assert [e.event_id for e in graph.events] == [0, 1, 2, 3]
        items = generate_qa(graph, budget=50, seed=0)
        assert items
        assert all(i.category.startswith("G") for i in items)
        assert all(validate_qa(i, graph) is None for i in items)

    def test_object_target_gesture_single_participant(self):
        gesture = GestureAnnotation("v", "reaching", 2, "object", None, 1.0, 2.5, 0.95)
        graph = build_graph("v", 60.0, [], [gesture])
        (ev,) = graph.events
        assert ev.participants == {2}
        assert "target" not in ev.roles


class TestHeavyDropout:
    def test_mostly_missing_tracks_still_consistent(self):
        frames = make_video(911, min_frames=30, max_frames=30)
        # keep only every fourth frame: long gaps everywhere
        frames = frames[::4]
        # thin frames break strict monotonic? no: order preserved
        tracks, features = pipeline(frames)
        assert detector_view(detect_all(tracks, features)) == oracle_all(tracks)

    def test_detect_cli_on_sparse_video(self, tmp_path):
        frames = make_video(912, min_frames=40, max_frames=40)[::3]
        obs = tmp_path / "obs.jsonl"
        write_observations(frames, obs)
        assert cli_main(["detect", "--input", str(obs), "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "videos.jsonl").read_text().splitlines()[0])
        assert manifest["duration"] == frames[-1].t + 0.5


class TestGraphDurationEdge:
    def test_event_ending_at_duration_kept(self):
        g = build_graph("v", 10.0, [event(0, start=8.0, end=10.0, conf=0.95)], [])
        assert len(g.events) == 1

    def test_event_past_duration_removed(self):
        g = build_graph("v", 10.0, [event(0, start=8.0, end=10.5, conf=0.95)], [])
        assert g.events == []
