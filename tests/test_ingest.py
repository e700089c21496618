import json
import random

import pytest

from socialevents.errors import OrderingError, ParseError, ValidationError
from socialevents.ingest import (
    Box,
    FaceMeasurement,
    PersonBox,
    _box,
    _det_conf,
    _gaze,
    load_gestures,
    load_observations,
    parse_frame,
    parse_gesture,
    read_jsonl,
)
from synth import make_video, serialize_frame, serialize_gesture, write_observations


def frame_record(t=0.0, video="v1", persons=None, faces=None):
    return {
        "video_id": video,
        "t": t,
        "persons": persons if persons is not None else [{"id": 0, "box": [0.1, 0.1, 0.4, 0.9]}],
        "faces": faces if faces is not None else [
            {"box": [0.2, 0.15, 0.3, 0.3], "det_conf": 0.97, "gaze": [0.6, 0.4], "in_frame": True}
        ],
    }


def write_lines(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


class TestLoadObservations:
    def test_three_valid_frames(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        write_lines(path, [frame_record(t) for t in (0.0, 0.5, 1.0)])
        frames = list(load_observations(path))
        assert [f.t for f in frames] == [0.0, 0.5, 1.0]
        assert frames[0].persons[0].person_id == 0
        assert frames[0].faces[0].gaze_point == (0.6, 0.4)

    def test_non_monotonic_t_names_line(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        write_lines(path, [frame_record(1.0), frame_record(0.5)])
        with pytest.raises(OrderingError, match="line 2"):
            list(load_observations(path))

    def test_gaze_out_of_range_names_field(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        bad = frame_record()
        bad["faces"][0]["gaze"] = [1.2, 0.5]
        write_lines(path, [bad])
        with pytest.raises(ValidationError, match=r"gaze\[0\]"):
            list(load_observations(path))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"video_id": "v"\n')
        with pytest.raises(ParseError, match="line 1"):
            list(load_observations(path))

    def test_off_grid_t_rejected(self):
        with pytest.raises(ValidationError, match="multiple"):
            parse_frame(frame_record(t=0.3))

    def test_duplicate_person_ids_rejected(self):
        record = frame_record(persons=[
            {"id": 1, "box": [0.1, 0.1, 0.3, 0.9]},
            {"id": 1, "box": [0.5, 0.1, 0.7, 0.9]},
        ])
        with pytest.raises(ValidationError, match="repeated"):
            parse_frame(record)

    def test_degenerate_box_rejected(self):
        record = frame_record(persons=[{"id": 0, "box": [0.4, 0.1, 0.4, 0.9]}])
        with pytest.raises(ValidationError, match="degenerate"):
            parse_frame(record)

    def test_same_t_in_different_videos_ok(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        write_lines(path, [frame_record(0.0, "a"), frame_record(0.0, "b")])
        assert len(list(load_observations(path))) == 2

    def test_unknown_fields_ignored(self):
        record = frame_record()
        record["extra"] = {"model": "x"}
        parse_frame(record)


class TestGestures:
    def gesture_record(self, **overrides):
        record = {
            "video_id": "v1", "gesture_type": "pointing", "initiator_id": 3,
            "target_type": "person", "target_person_id": 0,
            "start_time": 3.0, "end_time": 5.0, "confidence": 0.9,
        }
        record.update(overrides)
        return record

    def test_accepted(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_lines(path, [self.gesture_record()])
        accepted, rejected = load_gestures(path)
        assert rejected == []
        g = accepted[0]
        assert (g.gesture_type, g.initiator_id, g.target_person_id) == ("pointing", 3, 0)
        assert (g.start_time, g.end_time, g.confidence) == (3.0, 5.0, 0.9)

    def test_unknown_type_rejected_with_reason(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_lines(path, [self.gesture_record(gesture_type="waving"), self.gesture_record()])
        accepted, rejected = load_gestures(path)
        assert len(accepted) == 1
        assert len(rejected) == 1
        assert rejected[0].line == 1
        assert "waving" in rejected[0].reason

    def test_zero_duration_rejected(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_lines(path, [self.gesture_record(start_time=5.0, end_time=5.0)])
        accepted, rejected = load_gestures(path)
        assert accepted == []
        assert "end_time" in rejected[0].reason

    def test_end_time_of_2_to_the_52_or_more_rejected(self, tmp_path):
        # beyond it snapping to the grid would overflow
        path = tmp_path / "g.jsonl"
        write_lines(path, [self.gesture_record(end_time=2.0 ** 52),
                           self.gesture_record(start_time=1e308, end_time=1.5e308),
                           self.gesture_record(end_time=2.0 ** 52 - 1.0)])
        accepted, rejected = load_gestures(path)
        assert [g.end_time for g in accepted] == [2.0 ** 52 - 1.0]
        assert [r.reason for r in rejected] == [
            "line 1: end_time must be below 2**52, got 4503599627370496.0",
            "line 2: end_time must be below 2**52, got 1.5e+308",
        ]

    def test_person_target_requires_id(self):
        with pytest.raises(ValidationError, match="target_person_id"):
            parse_gesture(self.gesture_record(target_person_id=None))

    def test_object_target_forbids_id(self):
        with pytest.raises(ValidationError):
            parse_gesture(self.gesture_record(target_type="object"))

    def test_object_target_ok(self):
        g = parse_gesture(self.gesture_record(target_type="object", target_person_id=None))
        assert g.target_person_id is None

    def test_off_grid_times_accepted(self):
        g = parse_gesture(self.gesture_record(start_time=3.2, end_time=5.75))
        assert g.start_time == 3.2

    def test_gesture_round_trip(self):
        g = parse_gesture(self.gesture_record())
        line = serialize_gesture(g)
        assert serialize_gesture(parse_gesture(json.loads(line))) == line


class TestRoundTrip:
    def test_serialize_parse_is_fixed_point(self):
        for seed in range(20):
            for frame in make_video(seed, max_frames=15):
                line = serialize_frame(frame)
                reparsed = parse_frame(json.loads(line))
                assert serialize_frame(reparsed) == line

    def test_stream_round_trip_bytes(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        frames = make_video(7, max_frames=30)
        write_observations(frames, path)
        original = path.read_bytes()
        reparsed = list(load_observations(path))
        rewritten = "".join(serialize_frame(f) + "\n" for f in reparsed).encode()
        assert rewritten == original


class TestRandomizedValidation:
    def test_random_corruptions_rejected(self):
        rng = random.Random(42)
        corruptions = [
            lambda r: r.__setitem__("t", -0.5),
            lambda r: r.__setitem__("t", 0.25),
            lambda r: r["persons"][0].__setitem__("id", -1),
            lambda r: r["persons"][0].__setitem__("box", [0.5, 0.5, 0.4, 0.9]),
            lambda r: r["faces"][0].__setitem__("det_conf", 1.5),
            lambda r: r["faces"][0].__setitem__("gaze", [0.5, -0.1]),
            lambda r: r["faces"][0].__setitem__("in_frame", "yes"),
            lambda r: r.__setitem__("video_id", ""),
            lambda r: r.__setitem__("persons", "nope"),
        ]
        for _ in range(200):
            record = frame_record(t=rng.randrange(100) * 0.5)
            if rng.random() < 0.5:
                parse_frame(record)  # valid stays valid
            else:
                rng.choice(corruptions)(record)
                with pytest.raises(ValidationError):
                    parse_frame(record)

    def test_every_accepted_frame_satisfies_invariants(self):
        for seed in range(10):
            for frame in make_video(seed, max_frames=20):
                reparsed = parse_frame(json.loads(serialize_frame(frame)))
                assert reparsed.t >= 0 and round(reparsed.t * 2) == reparsed.t * 2
                ids = [p.person_id for p in reparsed.persons]
                assert len(ids) == len(set(ids))
                for p in reparsed.persons:
                    assert p.box.area > 0
                for f in reparsed.faces:
                    assert 0 <= f.det_confidence <= 1
                    if f.gaze_point is not None:
                        assert 0 <= f.gaze_point[0] <= 1 and 0 <= f.gaze_point[1] <= 1


def test_box_helpers():
    box = Box(0.2, 0.4, 0.6, 0.8)
    assert box.center == pytest.approx((0.4, 0.6))
    assert (box.width, box.height) == pytest.approx((0.4, 0.4))
    assert box.area == pytest.approx(0.16)
    assert list(box) == [0.2, 0.4, 0.6, 0.8]


def test_records_are_immutable_hashable_tuples():
    box = Box(0.2, 0.4, 0.6, 0.8)
    # A Box is its coordinates: it equals, and hashes like, the plain tuple.
    assert box == (0.2, 0.4, 0.6, 0.8)
    assert hash(box) == hash((0.2, 0.4, 0.6, 0.8))
    assert len({box, Box(0.2, 0.4, 0.6, 0.8)}) == 1
    face = FaceMeasurement(box, 0.9, (0.5, 0.5), True)
    person = PersonBox(3, box)
    assert hash(face) == hash(FaceMeasurement(Box(0.2, 0.4, 0.6, 0.8), 0.9, (0.5, 0.5), True))
    assert hash(person) == hash(PersonBox(3, Box(0.2, 0.4, 0.6, 0.8)))
    for record, attr in ((box, "x1"), (face, "det_confidence"), (person, "person_id")):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0.0)


def test_box_fast_and_slow_paths_agree():
    fast = _box([0.1, 0.2, 0.3, 0.4], "box", 0, 1)
    assert fast == Box(0.1, 0.2, 0.3, 0.4)
    # ints take the checked path and come out as the same float Box
    slow = _box([0, 0.2, 1, 0.4], "box", 0, 1)
    assert slow == _box([0.0, 0.2, 1.0, 0.4], "box", 0, 1) == Box(0.0, 0.2, 1.0, 0.4)
    assert all(type(v) is float for v in slow)
    assert _box([0.0, 0.0, 1.0, 1.0], "box", 0, 1) == Box(0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("value, message", [
    ([True, 0.2, 0.3, 0.4], "faces[2].box[0] out of range [0,1]: True"),
    ([0.1, 0.2, 0.3, False], "faces[2].box[3] out of range [0,1]: False"),
    ([0.1, float("nan"), 0.3, 0.4], "faces[2].box[1] out of range [0,1]: nan"),
    ([0.1, 0.2, float("inf"), 0.4], "faces[2].box[2] out of range [0,1]: inf"),
    ([-0.1, 0.2, 0.3, 0.4], "faces[2].box[0] out of range [0,1]: -0.1"),
    ([0.1, 0.2, 1.5, 0.4], "faces[2].box[2] out of range [0,1]: 1.5"),
    ([0.1, 0.2, 0.3, 2], "faces[2].box[3] out of range [0,1]: 2"),
    ([0.1, 0.2, "0.3", 0.4], "faces[2].box[2] out of range [0,1]: '0.3'"),
    ([0.3, 0.2, 0.3, 0.4], "faces[2].box is degenerate: [0.3, 0.2, 0.3, 0.4]"),
    ([0.1, 0.4, 0.3, 0.2], "faces[2].box is degenerate: [0.1, 0.4, 0.3, 0.2]"),
    ([0.1, 0.2, 0.3], "faces[2].box must be [x1, y1, x2, y2]"),
    ([0.1, 0.2, 0.3, 0.4, 0.5], "faces[2].box must be [x1, y1, x2, y2]"),
    ((0.1, 0.2, 0.3, 0.4), "faces[2].box must be [x1, y1, x2, y2]"),
    ("0.1,0.2,0.3,0.4", "faces[2].box must be [x1, y1, x2, y2]"),
    (None, "faces[2].box must be [x1, y1, x2, y2]"),
])
def test_bad_box_error_text(value, message):
    with pytest.raises(ValidationError) as exc:
        _box(value, "faces", 2, 9)
    assert str(exc.value) == f"line 9: {message}"


def test_det_conf_and_gaze_fast_and_slow_paths_agree():
    assert _det_conf(0.25, 2, 9) == 0.25
    assert _gaze([0.25, 0.75], 2, 9) == (0.25, 0.75)
    assert _gaze(None, 2, 9) is None
    # ints take the checked path and come out as the same floats
    for value in (0, 1):
        conf = _det_conf(value, 2, 9)
        assert conf == _det_conf(float(value), 2, 9) and type(conf) is float
    for value in ([0, 1], [0.25, 1], [0, 0.75]):
        point = _gaze(value, 2, 9)
        assert point == _gaze([float(v) for v in value], 2, 9)
        assert all(type(v) is float for v in point)
    assert _det_conf(0.0, 2, 9) == 0.0 and _gaze([1.0, 0.0], 2, 9) == (1.0, 0.0)


def _face_error(field, value):
    record = frame_record()
    record["faces"] = [record["faces"][0]] * 2 + [{**record["faces"][0], field: value}]
    with pytest.raises(ValidationError) as exc:
        parse_frame(record, 9)
    return str(exc.value)


@pytest.mark.parametrize("value, message", [
    (True, "faces[2].det_conf out of range [0,1]: True"),
    (float("nan"), "faces[2].det_conf out of range [0,1]: nan"),
    (float("inf"), "faces[2].det_conf out of range [0,1]: inf"),
    (-0.1, "faces[2].det_conf out of range [0,1]: -0.1"),
    (1.5, "faces[2].det_conf out of range [0,1]: 1.5"),
    (2, "faces[2].det_conf out of range [0,1]: 2"),
    ("0.9", "faces[2].det_conf out of range [0,1]: '0.9'"),
    ([0.1, 0.2, 0.3], "faces[2].det_conf out of range [0,1]: [0.1, 0.2, 0.3]"),
    (None, "faces[2].det_conf out of range [0,1]: None"),
])
def test_bad_det_conf_error_text(value, message):
    assert _face_error("det_conf", value) == f"line 9: {message}"


@pytest.mark.parametrize("value, message", [
    ([True, 0.5], "faces[2].gaze[0] out of range [0,1]: True"),
    ([0.5, False], "faces[2].gaze[1] out of range [0,1]: False"),
    ([float("nan"), 0.5], "faces[2].gaze[0] out of range [0,1]: nan"),
    ([0.5, float("inf")], "faces[2].gaze[1] out of range [0,1]: inf"),
    ([-0.1, 0.5], "faces[2].gaze[0] out of range [0,1]: -0.1"),
    ([0.5, 1.5], "faces[2].gaze[1] out of range [0,1]: 1.5"),
    ([2, 0.5], "faces[2].gaze[0] out of range [0,1]: 2"),
    (["0.5", 0.5], "faces[2].gaze[0] out of range [0,1]: '0.5'"),
    ([0.1, 0.2, 0.3], "faces[2].gaze must be [x, y] or null"),
    ([0.5], "faces[2].gaze must be [x, y] or null"),
    ((0.5, 0.5), "faces[2].gaze must be [x, y] or null"),
    ("0.5,0.5", "faces[2].gaze must be [x, y] or null"),
    (0.5, "faces[2].gaze must be [x, y] or null"),
])
def test_bad_gaze_error_text(value, message):
    assert _face_error("gaze", value) == f"line 9: {message}"


def test_read_jsonl_skips_blank_lines_and_names_bad_ones(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n  \n \t\r\n{"b": 2}\n')
    assert list(read_jsonl(path)) == [(1, {"a": 1}), (5, {"b": 2})]
    # A blank line holds only spaces and tabs: a form feed, U+00A0, U+0085
    # or U+2028 is not JSON whitespace.
    for bad in ("[1, 2]", "{bad", '"text"', "3", "\f", " \f\t", "\xa0", "\x85", "\u2028"):
        path.write_text('{"a": 1}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            list(read_jsonl(path))
