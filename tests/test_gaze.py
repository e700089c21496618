import dataclasses
import json
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialevents.config import DEFAULT_CONFIG
from socialevents.errors import DataError
from socialevents.gaze import (
    PROV_CARRIED,
    PROV_INTERPOLATED,
    PROV_MEASURED,
    PROV_MISSING,
    FrameFeatures,
    GazeSample,
    GazeTrack,
    build_tracks,
    compute_features,
    convergence_score,
    gaze_velocity,
    interpolate_track,
    join_tracks,
)
from socialevents.ingest import Box, FaceMeasurement, FrameObservation, PersonBox, parse_frame
from helpers import grid_track, sample, tick
from synth import make_video, serialize_frame


def person_frame(t, pids, gaze_by_pid=None, video="v"):
    """Frame with one person per id and a face centered in each head region."""
    gaze_by_pid = gaze_by_pid or {}
    persons = []
    faces = []
    n = max(pids) + 1
    for pid in pids:
        slot = 1.0 / max(n, 1)
        x1, x2 = pid * slot + 0.02, (pid + 1) * slot - 0.02
        persons.append(PersonBox(pid, Box(x1, 0.2, x2, 1.0)))
        if pid in gaze_by_pid:
            cx = (x1 + x2) / 2
            fb = Box(cx - 0.02, 0.3, cx + 0.02, 0.38)
            faces.append(FaceMeasurement(fb, 1.0, gaze_by_pid[pid], True))
    return FrameObservation(video, tick(t), tuple(persons), tuple(faces))


class TestBuildTracks:
    def test_grid_completion(self):
        frames = [
            person_frame(0.0, [0], {0: (0.5, 0.5)}),
            person_frame(1.0, [0], {0: (0.5, 0.5)}),
        ]
        (track,) = build_tracks(frames)
        assert [s.t for s in track.samples] == [0.0, 0.5, 1.0]
        assert [s.provenance for s in track.samples] == [
            PROV_MEASURED, PROV_MISSING, PROV_MEASURED,
        ]

    def test_two_persons_two_tracks(self):
        frames = [person_frame(0.0, [0, 1], {0: (0.1, 0.1), 1: (0.9, 0.9)})]
        tracks = build_tracks(frames)
        assert [t.person_id for t in tracks] == [0, 1]

    def test_empty_video(self):
        assert build_tracks([]) == []

    def test_face_without_gaze_is_missing_with_center(self):
        frames = [person_frame(0.0, [0], {0: None})]
        (track,) = build_tracks(frames)
        s = track.samples[0]
        assert s.provenance == PROV_MISSING
        assert s.confidence == 0.0
        assert s.gaze_point is None
        assert s.face_center is not None

    def test_track_needs_one_sample_per_tick(self):
        with pytest.raises(DataError, match="skips a tick"):
            GazeTrack("v", 0, (sample(0.0), sample(1.0)))

    def test_measured_confidence_as_ingested(self):
        frame = person_frame(0.0, [0], {0: (0.5, 0.5)})
        face = frame.faces[0]
        frame = FrameObservation(
            frame.video_id, frame.k, frame.persons,
            (FaceMeasurement(face.box, 0.77, face.gaze_point, True),),
        )
        (track,) = build_tracks([frame])
        assert track.samples[0].confidence == 0.77

    def test_repeated_person_id_gives_one_sample_per_tick(self):
        # ingest rejects a repeated id; a frame built in code can still hold one
        frames = [person_frame(t, [0, 1], {0: (0.5, 0.5)}) for t in (0.0, 0.5, 1.5)]
        repeated = [FrameObservation(f.video_id, f.k, f.persons * 2, f.faces) for f in frames]
        tracks = build_tracks(repeated)
        assert tracks == build_tracks(frames)
        assert [[s.k for s in t.samples] for t in tracks] == [[0, 1, 2, 3]] * 2
        assert [s.provenance for s in tracks[0].samples] == \
            [PROV_MEASURED, PROV_MEASURED, PROV_MISSING, PROV_MEASURED]


class TestStreamedTracks:
    @pytest.mark.parametrize("seed", range(6))
    def test_any_iterable_gives_the_list_tracks(self, seed):
        frames = make_video(seed, max_frames=80)
        assert build_tracks(iter(frames)) == build_tracks(frames)
        assert build_tracks(f for f in frames) == build_tracks(frames)

    def test_streamed_frames_do_not_outlive_build_tracks(self):
        records = [json.loads(serialize_frame(f))
                   for f in make_video(5, min_frames=40, max_frames=40)]
        refs = []
        most_alive = 0

        def stream():
            nonlocal most_alive
            for line, record in enumerate(records, start=1):
                frame = parse_frame(record, line)
                refs.append(weakref.ref(frame))
                most_alive = max(most_alive, sum(r() is not None for r in refs))
                yield frame

        tracks = build_tracks(stream())
        assert tracks and len(refs) == 40
        # the frame being read and the one before it, never the whole video
        assert most_alive <= 2
        assert all(r() is None for r in refs)


def _split(frames, cuts):
    bounds = [0, *sorted(cuts), len(frames)]
    return [frames[a:b] for a, b in zip(bounds, bounds[1:])]


class TestJoinTracks:
    def test_one_run_is_its_tracks(self):
        tracks = build_tracks(make_video(3))
        assert join_tracks([tracks]) == tracks

    def test_person_absent_from_a_run_gets_missing_samples(self):
        runs = [
            [person_frame(0.0, [0, 1], {0: (0.5, 0.5), 1: (0.2, 0.2)})],
            [person_frame(1.0, [1], {1: (0.3, 0.3)})],
            [person_frame(2.5, [0], {0: (0.6, 0.6)}), person_frame(3.0, [0, 1])],
        ]
        joined = join_tracks([build_tracks(run) for run in runs])
        assert joined == build_tracks([f for run in runs for f in run])
        zero, one = joined
        assert [s.provenance for s in zero.samples] == \
            [PROV_MEASURED] + [PROV_MISSING] * 4 + [PROV_MEASURED, PROV_MISSING]
        assert (zero.start, zero.stop, one.start, one.stop) == (0, 7, 0, 7)

    def test_runs_without_persons(self):
        empty = FrameObservation("v", 0, (), ())
        assert join_tracks([[], build_tracks([empty])]) == []
        later = [person_frame(1.0, [2], {2: (0.5, 0.5)})]
        assert join_tracks([build_tracks([empty]), build_tracks(later)]) == build_tracks(later)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_joined_runs_give_the_whole_video_tracks(self, seed, data):
        frames = make_video(seed, max_frames=50)
        # a dropped stretch puts some runs apart in time
        lo = data.draw(st.integers(0, len(frames)))
        frames = frames[:lo] + frames[data.draw(st.integers(lo, len(frames))):]
        cuts = data.draw(st.sets(st.integers(1, max(1, len(frames) - 1)), max_size=8))
        runs = _split(frames, cuts if len(frames) > 1 else ())
        assert join_tracks([build_tracks(run) for run in runs]) == build_tracks(frames)


def flank_track(gap, left=(0.2, 0.2), right=(0.5, 0.5), centers=((0.5, 0.5), (0.5, 0.5))):
    """Two measured samples separated by `gap` missing frames."""
    hi = 0.5 * (gap + 1)
    return grid_track(0, 0.0, hi, {
        0.0: {"gaze": left, "center": centers[0]},
        hi: {"gaze": right, "center": centers[1]},
    })


class TestInterpolation:
    def test_gap2_linear_fill(self):
        track = interpolate_track(flank_track(2))
        fills = track.samples[1:3]
        assert [s.provenance for s in fills] == [PROV_INTERPOLATED] * 2
        assert fills[0].gaze_point == pytest.approx((0.3, 0.3))
        assert fills[1].gaze_point == pytest.approx((0.4, 0.4))
        assert all(s.confidence == 1.0 - 0.1 * 2 for s in fills)

    def test_gap5_carry(self):
        track = interpolate_track(flank_track(5))
        fills = track.samples[1:6]
        assert [s.provenance for s in fills] == [PROV_CARRIED] * 5
        assert all(s.gaze_point == (0.2, 0.2) for s in fills)
        expected = 0.5 * math.exp(-0.2 * 5)
        assert all(s.confidence == expected for s in fills)
        assert expected == pytest.approx(0.1839, abs=1e-4)

    def test_gap12_stays_missing(self):
        track = interpolate_track(flank_track(12))
        assert all(s.provenance == PROV_MISSING for s in track.samples[1:12])
        assert all(s.confidence == 0.0 for s in track.samples[1:12])

    def test_face_displacement_blocks_fill(self):
        track = interpolate_track(
            flank_track(2, centers=((0.3, 0.5), (0.65, 0.5)))  # 0.35 frame widths
        )
        assert all(s.provenance == PROV_MISSING for s in track.samples[1:3])

    def test_displacement_at_boundary_not_blocked(self):
        track = interpolate_track(
            flank_track(2, centers=((0.3, 0.5), (0.6, 0.5)))  # exactly 0.30
        )
        assert all(s.provenance == PROV_INTERPOLATED for s in track.samples[1:3])

    @pytest.mark.parametrize("gap", range(1, 13))
    def test_closed_forms_per_gap_length(self, gap):
        track = interpolate_track(flank_track(gap))
        fills = track.samples[1:gap + 1]
        if gap <= 3:
            assert all(s.confidence == 1.0 - 0.1 * gap for s in fills)
            assert all(s.provenance == PROV_INTERPOLATED for s in fills)
        elif gap <= 5:  # flank gap 0.5*(gap+1) stays within the 3 s window
            assert all(s.confidence == 0.5 * math.exp(-0.2 * gap) for s in fills)
            assert all(s.provenance == PROV_CARRIED for s in fills)
        else:  # blocked by the 3 s temporal rule or past the carry range
            assert all(s.confidence == 0.0 for s in fills)
            assert all(s.provenance == PROV_MISSING for s in fills)

    def test_interpolated_flank_never_used(self):
        # measured at 0.0 and 1.5 (gap 2), then missing until a lone measured
        # sample at 5.0; the second gap's left flank must be the measured 1.5
        track = grid_track(0, 0.0, 5.0, {
            0.0: {"gaze": (0.2, 0.2)},
            1.5: {"gaze": (0.5, 0.5)},
            5.0: {"gaze": (0.6, 0.6)},
        })
        repaired = interpolate_track(track)
        # gap between 1.5 and 5.0 is 6 frames: blocked by the temporal rule
        assert all(s.provenance == PROV_MISSING for s in repaired.samples[4:10])

    def test_leading_and_trailing_gaps_stay_missing(self):
        track = grid_track(0, 0.0, 2.0, {1.0: {"gaze": (0.5, 0.5)}})
        repaired = interpolate_track(track)
        assert repaired.samples[0].provenance == PROV_MISSING
        assert repaired.samples[-1].provenance == PROV_MISSING


class TestVelocity:
    def test_constant_direction_zero(self):
        track = grid_track(0, 0.0, 0.5, {
            0.0: {"gaze": (0.6, 0.5), "center": (0.5, 0.5)},
            0.5: {"gaze": (0.7, 0.6), "center": (0.6, 0.6)},  # same d = (0.1, 0)
        })
        assert gaze_velocity(track, tick(0.5)) == pytest.approx(0.0)

    def test_direction_change(self):
        track = grid_track(0, 0.0, 0.5, {
            0.0: {"gaze": (0.6, 0.5), "center": (0.5, 0.5)},  # d = (0.1, 0.0)
            0.5: {"gaze": (0.6, 0.7), "center": (0.5, 0.5)},  # d = (0.1, 0.2)
        })
        assert gaze_velocity(track, tick(0.5)) == pytest.approx(0.4)

    def test_missing_previous_sample(self):
        track = grid_track(0, 0.0, 1.0, {1.0: {"gaze": (0.5, 0.5)}})
        assert gaze_velocity(track, tick(1.0)) is None
        assert gaze_velocity(track, tick(0.5)) is None

    def test_translation_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            pts = {
                0.0: ((rng.random(), rng.random()), (rng.random(), rng.random())),
                0.5: ((rng.random(), rng.random()), (rng.random(), rng.random())),
            }
            track = grid_track(0, 0.0, 0.5, {
                t: {"gaze": g, "center": c} for t, (g, c) in pts.items()
            })
            dx, dy = rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
            shifted = grid_track(0, 0.0, 0.5, {
                t: {"gaze": (g[0] + dx, g[1] + dy), "center": (c[0] + dx, c[1] + dy)}
                for t, (g, c) in pts.items()
            })
            assert gaze_velocity(shifted, tick(0.5)) == \
                pytest.approx(gaze_velocity(track, tick(0.5)))


def one_point_tracks(points, t=0.0):
    return [
        grid_track(pid, t, t, {t: {"gaze": g}}) for pid, g in enumerate(points)
    ]


class TestConvergence:
    def test_identical_points_score_one(self):
        result = convergence_score(one_point_tracks([(0.5, 0.5)] * 3), tick(0.0))
        assert result[0] == 1.0

    def test_two_points(self):
        s, centroid, who = convergence_score(
            one_point_tracks([(0.4, 0.5), (0.6, 0.5)]), tick(0.0))
        assert centroid == pytest.approx((0.5, 0.5))
        assert s == pytest.approx(math.exp(-0.3))
        assert who == (0, 1)

    def test_three_points_even_median(self):
        s, centroid, _ = convergence_score(
            one_point_tracks([(0.5, 0.5), (0.5, 0.5), (0.9, 0.5)]), tick(0.0)
        )
        assert centroid[0] == pytest.approx(0.63333333)
        assert s == pytest.approx(math.exp(-0.4))

    def test_single_point_undefined(self):
        assert convergence_score(one_point_tracks([(0.5, 0.5)]), tick(0.0)) is None

    def test_out_of_frame_excluded(self):
        tracks = one_point_tracks([(0.5, 0.5), (0.5, 0.5)])
        s0 = tracks[0].samples[0]
        tracks[0] = GazeTrack(tracks[0].video_id, 0, (GazeSample(
            s0.k, s0.gaze_point, s0.face_center, s0.face_box, False, s0.confidence,
            s0.provenance), ))
        assert convergence_score(tracks, tick(0.0)) is None

    def test_permutation_and_relabel_invariance(self):
        pts = [(0.2, 0.3), (0.25, 0.33), (0.7, 0.7), (0.21, 0.29)]
        tracks = one_point_tracks(pts)
        base = convergence_score(tracks, tick(0.0))
        relabeled = [
            GazeTrack("v", 10 - tr.person_id, tr.samples) for tr in reversed(tracks)
        ]
        other = convergence_score(relabeled, tick(0.0))
        assert other[0] == pytest.approx(base[0])
        assert other[1] == pytest.approx(base[1])
        assert len(other[2]) == len(base[2])

    def test_score_range_and_unity_condition(self):
        import statistics
        rng = random.Random(11)
        for _ in range(100):
            pts = [(rng.random(), rng.random()) for _ in range(rng.randint(2, 6))]
            s, centroid, _ = convergence_score(one_point_tracks(pts), tick(0.0))
            assert 0.0 < s <= 1.0
            median = statistics.median(
                math.hypot(p[0] - centroid[0], p[1] - centroid[1]) for p in pts
            )
            assert (s == 1.0) == (median == 0.0)
        # all-coincident points always score exactly 1
        coincident = [(0.37, 0.61)] * 4
        assert convergence_score(one_point_tracks(coincident), tick(0.0))[0] == 1.0

    def test_centroid_is_a_left_to_right_fold(self):
        # sum() of floats rounds otherwise from Python 3.12 on, which gives
        # 0.19999999999999998 here and would change the detect bytes.
        tracks = one_point_tracks([(0.1, 0.5), (0.2, 0.5), (0.3, 0.5)])
        _, centroid, _ = convergence_score(tracks, tick(0.0))
        assert centroid[0] == ((0.1 + 0.2) + 0.3) / 3 == 0.20000000000000004
        assert compute_features(tracks)[0].centroid == centroid

    def test_strict_measured_mode_excludes_interpolated(self):
        import dataclasses
        cfg = dataclasses.replace(DEFAULT_CONFIG, convergence_measured_only=True)
        tracks = one_point_tracks([(0.5, 0.5), (0.5, 0.5)])
        s0 = tracks[0].samples[0]
        tracks[0] = GazeTrack("v", 0, (s0._replace(provenance=PROV_INTERPOLATED),))
        assert convergence_score(tracks, tick(0.0), cfg) is None
        assert convergence_score(tracks, tick(0.0)) is not None


def test_compute_features_shape():
    frames = [
        person_frame(t, [0, 1], {0: (0.5, 0.5), 1: (0.52, 0.5)}) for t in (0.0, 0.5, 1.0)
    ]
    tracks = [interpolate_track(t) for t in build_tracks(frames)]
    features = compute_features(tracks)
    assert [f.t for f in features] == [0.0, 0.5, 1.0]
    assert features[0].convergence is not None
    assert features[0].contributors == (0, 1)
    assert 0 in features[1].velocities


def _reference_features(tracks, config):
    """compute_features tick by tick, from the public per-tick functions."""
    spanned = [tr for tr in tracks if tr.samples]
    features = []
    for k in range(min((tr.start for tr in spanned), default=0),
                   max((tr.stop for tr in spanned), default=0)):
        velocities = {}
        for track in tracks:
            v = gaze_velocity(track, k)
            if v is not None:
                velocities[track.person_id] = v
        features.append(FrameFeatures(
            k, velocities, *(convergence_score(tracks, k, config) or (None, None, ()))))
    return features


SAMPLE_EDITS = [dict(in_frame=False), dict(confidence=0.0), dict(face_center=None),
                dict(gaze_point=None, provenance=PROV_MISSING)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10_000), persons=st.integers(1, 6), data=st.data(),
       measured_only=st.booleans(), alpha=st.floats(0.0, 50.0))
def test_feature_sweep_matches_the_per_tick_reference(seed, persons, data, measured_only, alpha):
    """compute_features equals, bit for bit, the features built tick by tick
    from gaze_velocity and convergence_score, also on ticks where no track
    has a sample and on samples that are out of frame, of zero confidence or
    without a face centre."""
    config = dataclasses.replace(DEFAULT_CONFIG, convergence_measured_only=measured_only,
                                 convergence_alpha=alpha)
    frames = make_video(seed, min_persons=persons, max_persons=persons, max_frames=40)
    tracks = [interpolate_track(t, config) for t in build_tracks(frames)]
    for i, track in enumerate(tracks):
        samples = list(track.samples)
        for j in data.draw(st.sets(st.integers(0, len(samples) - 1), max_size=6), label="edit"):
            samples[j] = samples[j]._replace(**data.draw(st.sampled_from(SAMPLE_EDITS)))
        # a shift opens ticks where no track has a sample
        shift = data.draw(st.integers(0, 60), label=f"shift {i}")
        tracks[i] = GazeTrack(track.video_id, track.person_id,
                              tuple(s._replace(k=s.k + shift) for s in samples))
    if data.draw(st.booleans(), label="empty track"):
        tracks.append(GazeTrack("v", 99, ()))
    features = compute_features(tracks, config)
    assert repr(features) == repr(_reference_features(tracks, config))
