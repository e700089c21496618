"""Line-delimited readers and writers for frame observations and gestures.

Canonical record shapes (one JSON object per line):

observations.jsonl
    {"video_id": str, "t": float, "persons": [{"id": int, "box": [x1,y1,x2,y2]}],
     "faces": [{"box": [x1,y1,x2,y2], "det_conf": float,
                "gaze": [gx,gy] | null, "in_frame": bool}]}
    with each video's frames one contiguous run of lines, in increasing t

gestures.jsonl
    {"video_id": str, "gesture_type": str, "initiator_id": int,
     "target_type": "person"|"object", "target_person_id": int | null,
     "start_time": float, "end_time": float, "confidence": float}

Every JSONL file of the pipeline is read as text by ``jsonl_text`` and its
lines judged by ``read_lines`` alone, in file order, so the first faulty
line is the one named, a byte that is not UTF-8 included. A blank line, one
holding only spaces and tabs besides its newline, is skipped; any other
line, say one holding only a form feed or U+00A0, must be a JSON object.
Every record is read through ``read_record`` and the table (``Schema``) of
its kind, which gives each field's key, kind and default once: a missing
key or a value of the wrong JSON type is a ValidationError naming the line
and the field. Only an observation's per-person and per-face fields are
checked inline, on the parse hot path, where a value of the wrong type is
reported as out of range. Unknown fields are ignored for forward
compatibility.

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

import io
import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import compress, product
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, TextIO

from .errors import OrderingError, ParseError, ValidationError

# The timeline is fixed at 2 fps; every stage reads the grid from here.
SAMPLE_PERIOD = 0.5
TIME_LIMIT = 2.0 ** 52
GESTURE_TYPES = ("pointing", "showing", "giving", "reaching")

_GRID_TOL = 1e-9

_MISSING = object()
_FLOAT_MAX = sys.float_info.max


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
    # Every caller passes a tree of fresh dicts and lists, which cannot hold
    # a cycle: skipping the encoder's cycle check gives the same text sooner.
    return json.dumps(obj, separators=(",", ":"), check_circular=False)


def jsonl_text(binary: BinaryIO) -> TextIO:
    """JSONL bytes as text: UTF-8 with universal newlines (a line ends at
    "\n", "\r\n" or a lone "\r"), where each byte that is not UTF-8 is kept
    as the lone surrogate U+DC80..U+DCFF (``surrogateescape``) for
    ``read_lines`` to name. After a "\n" the decoder holds no state."""
    return io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSONL file
    read as text by ``jsonl_text``, checked by ``read_lines``."""
    with jsonl_text(open(path, "rb")) as fh:
        yield from read_lines(enumerate(fh, start=1))


# A character that stands for a byte that is not UTF-8 in jsonl_text's text.
_UNDECODED = re.compile("[\udc80-\udcff]")


def read_lines(numbered: Iterable[tuple[int, str]]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each (line number, text) pair of text
    read by ``jsonl_text``, skipping blank lines. Each line is judged in
    file order, so the first faulty one is the ParseError named: a byte that
    is not UTF-8, text that is not JSON, or a JSON value that is not an
    object."""
    for line_no, raw in numbered:
        if not raw.isascii() and _UNDECODED.search(raw):
            try:  # the line's bytes again, for the decoder's reason
                raw.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8: {exc.reason}", line_no) from None
        if not raw.strip(" \t\n"):  # text mode made each CR and CRLF an LF
            continue
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # also an over-long int, deep nesting
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line_no) from exc
        if not isinstance(record, dict):
            raise ParseError("record must be a JSON object", line_no)
        yield line_no, record


# ---------------------------------------------------------------------------
# record schemas


# A kind: a finite number kept as read (the kind float converts an int).
NUMBER = "number"
_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number",
               NUMBER: "a finite number", bool: "a boolean", list: "a list", dict: "an object"}


class Nullable(NamedTuple):
    """A kind that also takes null, read as None."""

    kind: object


class Schema:
    """One record kind: its name in messages and its fields in the order
    they are checked, each ``(key, kind)`` or, for a key that may be absent,
    ``(key, kind, default)``, with a kind that ``typed`` takes. For the fast
    path, each shape (tuple of value types) taken as read maps to masks of
    its floats and NUMBER ints, and ``items`` holds a test of the items of
    each list and object field."""

    def __init__(self, what: str, *fields: tuple) -> None:
        self.what, self.fields = what, [(*field, _MISSING)[:3] for field in fields]
        self.keys = [field[0] for field in fields]
        self.defaults = [field[2] for field in self.fields]
        self.values = itemgetter(*self.keys)  # a tuple: every table has two fields or more
        kinds = [field[1] for field in fields]
        fast = [_fast(kind) for kind in kinds]
        self.shapes = {shape: ([t is float for t in shape],
                               [t is int and kind is not int for t, kind in zip(shape, kinds)])
                       for shape in product(*(types for types, _ in fast))}
        self.items = [(i, test) for i, (_, test) in enumerate(fast) if test]


def _fast(kind) -> tuple[tuple, object]:
    """The types of a value of ``kind`` that the fast path takes as read,
    and, for a kind with items, a test that such a value's items are of
    their kinds as read (else None). A float item must also be finite, so
    only a fixed-length list takes one."""
    if kind is NUMBER:
        return (int, float), None
    if type(kind) is Nullable:
        types, test = _fast(kind.kind)
        return (*types, type(None)), test and (lambda value: value is None or test(value))
    if type(kind) is tuple:  # a fixed-length list
        if not set(kind) <= {str, int, bool, float}:
            return (), None
        floats = [k is float for k in kind]
        return (list,), lambda value: tuple(map(type, value)) == kind \
            and math.isfinite(sum(compress(value, floats)))
    if type(kind) is list and type(kind[0]) is tuple:  # a list of fixed-length lists
        _, row = _fast(kind[0])
        return ((list,), lambda value: all(type(v) is list and row(v) for v in value)) if row \
            else ((), None)
    if type(kind) in (list, dict):  # [k] or {str: k}
        (item,) = kind.values() if type(kind) is dict else kind
        if item not in (str, int, bool, list, dict):
            return (), None
        types = frozenset((item,))
        if type(kind) is dict:
            return (dict,), lambda value: types.issuperset(map(type, value.values()))
        return (list,), lambda value: types.issuperset(map(type, value))
    return ((kind,) if type(kind) is type else ()), None


def read_record(record: dict, schema: Schema, line: int | None) -> tuple:
    """The values of ``schema``'s fields in ``record``, checked, in table
    order. Fast path: every required key present (an absent optional key
    gives its default), the values' types a shape of the table, its floats
    finite, its NUMBER ints within the float range and the items of its
    lists and objects of their kind; the values are returned as read. Any
    other record takes ``_read_checked``, which names its fault."""
    try:
        values = schema.values(record)
    except KeyError:  # a required key's _MISSING matches no shape
        values = tuple(map(record.get, schema.keys, schema.defaults))
    masks = schema.shapes.get(tuple(map(type, values)))
    # a float sum is finite only if every term is
    if masks is not None and math.isfinite(sum(compress(values, masks[0]))) \
            and sum(map(abs, compress(values, masks[1]))) <= _FLOAT_MAX \
            and (not schema.items or all(test(values[i]) for i, test in schema.items)):
        return values
    return _read_checked(record, schema, line)


def _read_checked(record: dict, schema: Schema, line: int | None) -> tuple:
    """``read_record`` without its fast path: each field checked by
    ``typed`` in table order, so the first fault is the one named. A
    missing key gives its default, itself checked, or, with none, a
    ValidationError naming the key."""
    return tuple(typed(record.get(key, default), kind, key, schema.what, line)
                 for key, kind, default in schema.fields)


def typed(value, kind, name: str, what: str, line: int | None):
    """``value`` if its JSON type is ``kind``, else a ValidationError naming
    ``name``. ``kind`` is str, int, float, bool, list, dict, NUMBER,
    ``Nullable(k)`` for kind ``k`` or null, ``[k]`` for a list of items of
    kind ``k``, ``{str: k}`` for an object of values of kind ``k``, or a
    tuple of kinds for a list of exactly that shape, returned as a list;
    items are named ``name[i]`` or ``name[key]``. A bool is neither an int
    nor a number; a float is any finite int or float, returned as a float."""
    if type(value) is kind:
        if kind is not float or math.isfinite(value):
            return value
    elif kind is float:
        if type(value) is int and abs(value) <= _FLOAT_MAX:
            return float(value)
    elif kind is NUMBER:
        if type(value) in (int, float) and abs(value) <= _FLOAT_MAX:  # NaN fails too
            return value
    elif type(kind) is Nullable:
        return None if value is None else typed(value, kind.kind, name, what, line)
    elif type(value) is list:
        if type(kind) is list:
            return [typed(v, kind[0], f"{name}[{i}]", what, line) for i, v in enumerate(value)]
        if type(kind) is tuple and len(value) == len(kind):
            return [typed(v, k, f"{name}[{i}]", what, line)
                    for i, (v, k) in enumerate(zip(value, kind))]
    elif type(value) is dict and type(kind) is dict:
        (item,) = kind.values()
        for key, v in value.items():
            typed(v, item, f"{name}[{key!r}]", what, line)
        return value
    if value is _MISSING:
        raise ValidationError(f"bad {what} record: {name!r}", line)
    expected = (f"a list of {len(kind)} items" if type(kind) is tuple
                else "a list" if type(kind) is list else "an object" if type(kind) is dict
                else _KIND_NAMES[kind])
    raise ValidationError(f"bad {what} record: {name} must be {expected}, got {value!r}", line)


# ---------------------------------------------------------------------------
# frame observations


# Builds a NamedTuple from a sequence of its fields without the Python-level
# __new__ of the class, at about half the cost; the parse hot path uses it
# once each field is checked, and the other modules' hot paths import it.
_new = tuple.__new__


OBSERVATION = Schema("observation", ("video_id", str), ("t", float), ("persons", list),
                     ("faces", list))


def parse_frame(record: dict, line: int | None = None) -> FrameObservation:
    """Validate one decoded observation record."""
    video_id, t, person_entries, face_entries = read_record(record, OBSERVATION, line)
    if not video_id:
        raise ValidationError("video_id must be non-empty", line)

    if t < 0:
        raise ValidationError(f"t must be non-negative, got {t}", line)
    if t >= TIME_LIMIT:
        raise ValidationError(f"t must be below 2**52, got {t}", line)
    k = to_tick(t)
    if abs(t / SAMPLE_PERIOD - k) > _GRID_TOL:
        raise ValidationError(f"t={t} is not a multiple of {SAMPLE_PERIOD}", line)

    persons = []
    seen_ids: set[int] = set()
    for i, entry in enumerate(person_entries):
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
    for i, entry in enumerate(face_entries):
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
    """Stream frames from a JSONL file in ``parse_observations``'s order."""
    yield from parse_observations(read_jsonl(path))


def parse_observations(records: Iterable[tuple[int, dict]]) -> Iterator[FrameObservation]:
    """Frames from (line number, record) pairs. Each video's frames are one
    contiguous run in increasing time: a frame not after the one before it,
    or of a video whose run has ended, is an OrderingError naming its line."""
    video_id = None
    last = 0  # tick of the current video's latest frame
    done: set[str] = set()
    for line_no, record in records:
        frame = parse_frame(record, line_no)
        if frame.video_id != video_id:
            if frame.video_id in done:
                raise OrderingError(
                    f"video {frame.video_id!r} resumes after video {video_id!r}", line_no)
            done.add(video_id)
            video_id = frame.video_id
        elif frame.k <= last:
            raise OrderingError(
                f"t={frame.t} not after t={last * SAMPLE_PERIOD} for video {video_id!r}", line_no)
        last = frame.k
        yield frame


# ---------------------------------------------------------------------------
# gesture annotations


# target_person_id is read after the table, as target_type says if it is due.
GESTURE = Schema("gesture", ("video_id", str), ("gesture_type", str), ("initiator_id", int),
                 ("target_type", str), ("start_time", float), ("end_time", float),
                 ("confidence", float))


def parse_gesture(record: dict, line: int | None = None) -> GestureAnnotation:
    video_id, gesture_type, initiator, target_type, start, end, conf = \
        read_record(record, GESTURE, line)
    if not video_id:
        raise ValidationError("video_id must be non-empty", line)

    if gesture_type not in GESTURE_TYPES:
        raise ValidationError(
            f"unknown gesture_type {gesture_type!r}; expected one of {GESTURE_TYPES}", line
        )
    if initiator < 0:
        raise ValidationError("initiator_id must be non-negative", line)

    if target_type not in ("person", "object"):
        raise ValidationError(f"target_type must be 'person' or 'object', got {target_type!r}", line)
    target_pid = None
    if target_type == "person":
        target_pid = typed(record.get("target_person_id", _MISSING), int, "target_person_id",
                           "gesture", line)
        if target_pid < 0:
            raise ValidationError("target_person_id must be non-negative", line)
    elif record.get("target_person_id") is not None:
        raise ValidationError("target_person_id must be null for object targets", line)

    if start < 0:
        raise ValidationError("start_time must be non-negative", line)
    if end <= start:
        raise ValidationError(f"end_time {end} must exceed start_time {start}", line)
    if end >= TIME_LIMIT:
        raise ValidationError(f"end_time must be below 2**52, got {end}", line)
    return GestureAnnotation(video_id, gesture_type, initiator, target_type, target_pid,
                             start, end, _unit(conf, "confidence", line))


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


# videos.jsonl, the manifest detect writes; graph reads these two fields.
MANIFEST = Schema("video manifest", ("video_id", str), ("duration", float))


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
    x1, y1, x2, y2 = [_unit(v, f"{label}[{j}]", line) for j, v in enumerate(value)]
    if x1 >= x2 or y1 >= y2:
        raise ValidationError(f"{label} is degenerate: {value}", line)
    return Box(x1, y1, x2, y2)


def _det_conf(value, i: int, line) -> float:
    # Fast path as in _box: a float in range.
    if type(value) is float and 0.0 <= value <= 1.0:
        return value
    return _unit(value, f"faces[{i}].det_conf", line)


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
    return (_unit(value[0], f"faces[{i}].gaze[0]", line),
            _unit(value[1], f"faces[{i}].gaze[1]", line))


def _unit(value, name: str, line) -> float:
    """``value`` as a float if it is a number in [0, 1], else a
    ValidationError naming ``name``; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} out of range [0,1]: {value!r}", line)
    return float(value)
