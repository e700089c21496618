"""Social gaze event detection over interpolated tracks and frame features.

Five detectors, each a pure function of its inputs:

    sudden_gaze_shift   per-person velocity above 0.7, clustered, 0.5-1.5 s
    joint_attention     convergence >= 0.6, contributor-set chaining at 70%
                        overlap, peripheral contributors dropped, >= 0.5 s
    gaze_following      follower hits a leader's measured gaze point within
                        0.03 at a lag of 1.0-2.0 s
    attention_capture   >= 3 persons above velocity 0.4 inside one window
    mutual_gaze         bidirectional measured-gaze hits on face boxes with a
                        2% margin, >= 1.0 s

Cost per video, for F frames and P persons. Each is linear in F, so doubling
a video's length roughly doubles its detection time:

    sudden_gaze_shift   O(F) per person, O(F x P) over all persons
    joint_attention     O(F x P)
    gaze_following      O(F x P x lags) lookups plus one x-offset test per
                        measured leader: each follower sample visits only
                        the leaders measured at t - lag, and only a leader
                        within the distance on x costs a hypot; lags stop at
                        the video's span
    attention_capture   O(n log n) for n <= F x P velocity flags, whatever
                        the width: only windows where the held flags change
    mutual_gaze         O(F x P^2): every pair

An event is a NamedTuple built once, its confidence scored before it is
built; detect_all and graph's snapping set its id and grid times with
``_replace``. ``parse_event`` reads a record through the EVENT table: one
whose fields are of their exact kinds, as the JSON decoder gives a valid
one, takes ``ingest.read_record``'s shape test, and any other its checked
path, whose messages name the fault. On the crowd benchmark's events
(x86-64, Python 3.11, best of 30) building one takes ~1.2 us, ~7 us as a
frozen dataclass copied by two ``dataclasses.replace``; snapping one ~1.3
us, ~3.2 us; parsing one ~3.7 us, ~5.7 us on the checked path.

Means over floats are left-to-right folds, not ``sum()``, whose float
rounding differs from Python 3.12 on; the bytes are the same on every
version.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import ValidationError
from .gaze import PROV_MEASURED, FrameFeatures, GazeSample, GazeTrack, Point
from .ingest import (GESTURE_TYPES, SAMPLE_PERIOD, TIME_LIMIT, Schema, dumps_canonical,
                     read_record, to_tick)

SOURCE_GAZE = "gaze"
SOURCE_GESTURE = "gesture"

GAZE_EVENT_TYPES = (
    "sudden_gaze_shift",
    "joint_attention",
    "gaze_following",
    "attention_capture",
    "mutual_gaze",
)
_TYPES_BY_SOURCE = {SOURCE_GAZE: GAZE_EVENT_TYPES, SOURCE_GESTURE: GESTURE_TYPES}

# Builds a NamedTuple from its fields without the class's Python-level
# __new__, as ingest's parse does.
_new = tuple.__new__


class _EventFields(NamedTuple):
    event_id: int
    source: str
    event_type: str
    participants: frozenset[int]
    roles: dict[str, int]
    start_time: float
    end_time: float
    confidence: float
    attributes: dict


class SocialEvent(_EventFields):
    """One event, a NamedTuple of the fields above. A call to the class gives
    each event its own empty ``roles`` and ``attributes`` when they are left
    out; the hot paths build events with ``tuple.__new__``."""

    __slots__ = ()

    def __new__(cls, event_id: int, source: str, event_type: str,
                participants: frozenset[int], roles: dict[str, int] | None = None,
                start_time: float = 0.0, end_time: float = 0.0, confidence: float = 0.0,
                attributes: dict | None = None) -> SocialEvent:
        return _new(cls, (event_id, source, event_type, participants,
                          {} if roles is None else roles, start_time, end_time, confidence,
                          {} if attributes is None else attributes))

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class IntervalCluster(NamedTuple):
    start: int  # ticks
    end: int
    members: tuple[int, ...]


def cluster_intervals(flagged: Iterable[int], max_gap: float) -> list[IntervalCluster]:
    """Maximal runs of sorted ticks whose gaps stay within max_gap seconds."""
    clusters = []
    run: list[int] = []
    for k in flagged:
        if run and (k - run[-1]) * SAMPLE_PERIOD > max_gap:
            clusters.append(IntervalCluster(run[0], run[-1], tuple(run)))
            run = []
        run.append(k)
    if run:
        clusters.append(IntervalCluster(run[0], run[-1], tuple(run)))
    return clusters


def _confidence(event_type: str, samples: list[GazeSample]) -> float:
    """Mean supporting-sample confidence, discounted by interpolated support."""
    if not samples:
        raise ValidationError(f"event {event_type} has no supporting samples")
    total = 0.0  # a left-to-right fold: sum() of floats rounds otherwise from 3.12 on
    measured = 0
    for s in samples:
        total += s.confidence
        measured += s.provenance == PROV_MEASURED
    return total / len(samples) * (0.5 + 0.5 * measured / len(samples))


def detect_sudden_shifts(
    track: GazeTrack,
    features: list[FrameFeatures],
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[SocialEvent]:
    pid = track.person_id
    velocity: dict[int, float] = {}  # flagged tick -> velocity
    for f in features:
        v = f.velocities.get(pid)
        if v is not None and v > config.sudden_velocity:
            velocity[f.k] = v
    events = []
    for cluster in cluster_intervals(velocity, config.sudden_cluster_gap):
        duration = (cluster.end - cluster.start) * SAMPLE_PERIOD
        if not config.sudden_min_duration <= duration <= config.sudden_max_duration:
            continue
        # support: the samples from the tick before the first flag, which the
        # first flag's velocity needs, to the last flag
        lo = cluster.start - 1 - track.start
        events.append(_event(
            "sudden_gaze_shift", {pid}, cluster.start, cluster.end,
            list(track.samples[lo:cluster.end + 1 - track.start]),
            attributes={"peak_velocity": max(velocity[k] for k in cluster.members)},
        ))
    return events


def detect_joint_attention(
    tracks: list[GazeTrack],
    features: list[FrameFeatures],
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[SocialEvent]:
    by_id = {track.person_id: track for track in tracks}
    events = []
    run: list[tuple[int, frozenset[int], float]] = []  # (tick, retained set, score)
    for f in features:
        if f.convergence is None or f.convergence < config.ja_convergence:
            continue
        retained = _retain_central(f, by_id, config)
        if len(retained) < 2:
            continue
        if run and not (f.k == run[-1][0] + 1
                        and _jaccard(run[-1][1], retained) >= config.ja_set_overlap):
            events.extend(_finish_ja(run, by_id, config))
            run = []
        run.append((f.k, retained, f.convergence))
    if run:
        events.extend(_finish_ja(run, by_id, config))
    return events


def _retain_central(
    f: FrameFeatures, by_id: dict[int, GazeTrack], config: EngineConfig
) -> frozenset[int]:
    """Drop contributors farther than mult x median distance from the centroid."""
    dists = {}
    for pid in f.contributors:
        sample = by_id[pid].sample_at(f.k)
        dists[pid] = math.hypot(
            sample.gaze_point[0] - f.centroid[0], sample.gaze_point[1] - f.centroid[1]
        )
    cutoff = config.ja_peripheral_mult * statistics.median(dists.values())
    return frozenset(pid for pid, d in dists.items() if d <= cutoff)


def _finish_ja(
    run: list[tuple[int, frozenset[int], float]],
    by_id: dict[int, GazeTrack],
    config: EngineConfig,
) -> list[SocialEvent]:
    start, end = run[0][0], run[-1][0]
    if (end - start) * SAMPLE_PERIOD < config.ja_min_duration:
        return []
    participants = frozenset().union(*(retained for _, retained, _ in run))
    support = [by_id[pid].sample_at(k) for k, retained, _ in run for pid in sorted(retained)]
    total = 0.0  # a left-to-right fold, as in _confidence
    for _, _, score in run:
        total += score
    return [_event(
        "joint_attention", participants, start, end, support,
        attributes={
            "mean_convergence": total / len(run),
            "peak_convergence": max(score for _, _, score in run),
        },
    )]


def detect_gaze_following(
    tracks: list[GazeTrack], config: EngineConfig = DEFAULT_CONFIG
) -> list[SocialEvent]:
    # EngineConfig keeps both lags on the grid. A lag longer than the tracks'
    # span never reaches a leader sample.
    span = max((tr.stop for tr in tracks), default=0) - min((tr.start for tr in tracks), default=0)
    lags = range(to_tick(config.follow_lag_min), min(to_tick(config.follow_lag_max), span) + 1)
    distance = config.follow_distance
    # tick -> {leader id: gaze point} for every measured gaze point. The
    # garbage collector stops tracking a pair of floats once it survives a
    # collection, and never tracks a dict of such pairs, so it never walks
    # this index; a leader's sample is looked up only for an event.
    measured_at: dict[int, dict[int, Point]] = {}
    track_of = {}
    for tr in tracks:
        leader_id = tr.person_id
        track_of[leader_id] = tr
        for s in tr.samples:
            if s.provenance == PROV_MEASURED and s.gaze_point is not None:
                measured_at.setdefault(s.k, {})[leader_id] = s.gaze_point
    events = []
    for follower in tracks:
        follower_id = follower.person_id
        for cur in follower.samples:
            if cur.gaze_point is None:
                continue
            k = cur.k
            cx, cy = cur.gaze_point
            done: tuple[int, ...] = ()  # leaders that qualified at an earlier lag
            for lag in lags:
                for leader_id, (px, py) in measured_at.get(k - lag, {}).items():
                    dx = cx - px
                    # hypot(dx, dy) >= |dx|: a leader this far apart on x
                    # cannot be within the distance
                    if dx >= distance or dx <= -distance:
                        continue
                    if leader_id == follower_id or leader_id in done:
                        continue
                    d = math.hypot(dx, cy - py)
                    if d < distance:
                        done += (leader_id,)
                        events.append(_event(
                            "gaze_following",
                            {leader_id, follower_id},
                            k - lag, k, [track_of[leader_id].sample_at(k - lag), cur],
                            roles={"leader": leader_id, "follower": follower_id},
                            attributes={"lag": lag * SAMPLE_PERIOD, "distance": d},
                        ))
    return events


def detect_attention_capture(
    tracks: list[GazeTrack],
    features: list[FrameFeatures],
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[SocialEvent]:
    """Groups of persons whose velocity flags fall in one sliding window.

    The window starting at tick w holds the flags at ticks k >= w with
    k * SAMPLE_PERIOD <= w * SAMPLE_PERIOD + width, a float sum, as
    capture_window need not be a grid multiple. Widths from 2**51 s up act
    as 2**51 s, which keeps every product exact and changes no event of a
    shorter video. A window with at least capture_min_persons persons joins
    the group of the latest window with the same persons if the two
    intersect, else starts one; the hull of a group's windows selects the
    flags of its support and peak.

    The sweep visits only the starts where the held flags change, so its cost
    does not grow with the width. It rests on two facts. The first start that
    reaches a flag at tick k is k - floor(width / SAMPLE_PERIOD) or just
    below: that start reaches k in exact arithmetic, and rounding is
    monotone. And the windows of a run hold the same flags and all reach the
    first of them, so they intersect: a run joins or starts a group as its
    first window would and extends it to its last.
    """
    flags: list[tuple[int, int, float]] = []  # (tick, person, velocity)
    for f in features:
        for pid, v in f.velocities.items():
            if v > config.capture_velocity:
                flags.append((f.k, pid, v))
    if not flags:
        return []
    # A stable sort keeps feature order among equal ticks, which fixes the
    # order of the support samples and so the confidence bytes.
    flags.sort(key=lambda flag: flag[0])
    ticks = [k for k, _, _ in flags]
    width = min(config.capture_window, 2.0 ** 51)

    def reaches(w: int, k: int) -> bool:
        return k * SAMPLE_PERIOD <= w * SAMPLE_PERIOD + width

    # enter[j]: the first start whose window reaches flag j; sorted, as right
    # edges grow with the start
    enter = []
    for k in ticks:
        w = k - math.floor(width / SAMPLE_PERIOD)
        while reaches(w - 1, k):
            w -= 1
        enter.append(w)

    # A run begins where a flag enters or the start passes a flag's tick; the
    # last run begins past every flag and holds none.
    starts = sorted({*enter, *(k + 1 for k in ticks)})
    groups: list[list] = []  # [persons, first tick, last tick, first start, last start]
    latest: dict[frozenset[int], list] = {}  # persons -> their latest group
    held: dict[int, int] = {}  # person -> flags held
    lo = hi = 0
    for w, after in zip(starts, starts[1:]):
        while hi < len(flags) and enter[hi] <= w:
            held[flags[hi][1]] = held.get(flags[hi][1], 0) + 1
            hi += 1
        while ticks[lo] < w:  # w is at most the last tick, so lo stays in range
            held[flags[lo][1]] -= 1
            if not held[flags[lo][1]]:
                del held[flags[lo][1]]
            lo += 1
        if len(held) < config.capture_min_persons:
            continue
        persons = frozenset(held)
        group = latest.get(persons)
        # starts only grow, so no older group of these persons can intersect
        if group is None or not reaches(group[4], w):
            group = latest[persons] = [persons, ticks[lo], ticks[hi - 1], w, after - 1]
            groups.append(group)
        else:
            group[2], group[4] = ticks[hi - 1], after - 1

    by_id = {track.person_id: track for track in tracks}
    events = []
    for persons, span_lo, span_hi, first, last in groups:
        support: list[GazeSample] = []
        seen: set[GazeSample] = set()  # equal samples count once, as in a list test
        peak = 0.0
        # the hull holds the flags from tick first on that window last reaches
        for k, pid, v in flags[bisect_left(ticks, first):bisect_right(enter, last)]:
            if pid not in persons:
                continue
            peak = max(peak, v)
            for at in (k - 1, k):
                sample = by_id[pid].sample_at(at)
                if sample is not None and sample not in seen:
                    seen.add(sample)
                    support.append(sample)
        events.append(_event(
            "attention_capture", persons, span_lo, span_hi, support,
            attributes={"peak_velocity": peak},
        ))
    return events


def detect_mutual_gaze(
    tracks: list[GazeTrack], config: EngineConfig = DEFAULT_CONFIG
) -> list[SocialEvent]:
    # Only measured samples with a gaze point and a face box can hit; others are None.
    hittable = [
        [s if s.provenance == PROV_MEASURED and s.gaze_point is not None
         and s.face_box is not None else None for s in track.samples]
        for track in tracks
    ]
    m = config.mutual_margin
    events = []
    for i, a in enumerate(tracks):
        for b, b_hittable in zip(tracks[i + 1:], hittable[i + 1:]):
            lo, hi = max(a.start, b.start), min(a.stop, b.stop)
            hits = []
            for k, sa, sb in zip(range(lo, hi), hittable[i][lo - a.start:hi - a.start],
                                 b_hittable[lo - b.start:hi - b.start]):
                if sa is None or sb is None:
                    continue
                # each gaze point inside the other's face box grown by the margin
                (ax, ay), (bx, by) = sa.gaze_point, sb.gaze_point
                fa, fb = sa.face_box, sb.face_box
                if fb.x1 - m <= ax <= fb.x2 + m and fb.y1 - m <= ay <= fb.y2 + m and \
                        fa.x1 - m <= bx <= fa.x2 + m and fa.y1 - m <= by <= fa.y2 + m:
                    hits.append(k)
            for cluster in cluster_intervals(hits, SAMPLE_PERIOD):
                if (cluster.end - cluster.start) * SAMPLE_PERIOD < config.mutual_min_duration:
                    continue
                support = []
                for k in cluster.members:
                    support.append(a.samples[k - a.start])
                    support.append(b.samples[k - b.start])
                events.append(_event(
                    "mutual_gaze", {a.person_id, b.person_id},
                    cluster.start, cluster.end, support,
                ))
    return events


def detect_all(
    tracks: list[GazeTrack],
    features: list[FrameFeatures],
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[SocialEvent]:
    """Run every detector and return ID-assigned events in canonical order."""
    events: list[SocialEvent] = []
    for track in tracks:
        events.extend(detect_sudden_shifts(track, features, config))
    events.extend(detect_joint_attention(tracks, features, config))
    events.extend(detect_gaze_following(tracks, config))
    events.extend(detect_attention_capture(tracks, features, config))
    events.extend(detect_mutual_gaze(tracks, config))
    events.sort(key=event_sort_key)
    return [e._replace(event_id=i) for i, e in enumerate(events)]


def event_sort_key(event: SocialEvent):
    return (
        event.start_time,
        event.end_time,
        event.source,
        event.event_type,
        sorted(event.participants),
        sorted(event.roles.items()),
    )


def serialize_event(event: SocialEvent, video_id: str | None = None) -> str:
    return dumps_canonical(event_record(event, video_id))


def event_record(event: SocialEvent, video_id: str | None = None) -> dict:
    """The event's record, its keys in EVENT table order after the video_id
    when one is given, with participants, roles and attributes sorted."""
    record = {} if video_id is None else {"video_id": video_id}
    record.update(zip(EVENT.keys, event))
    record.update(participants=sorted(event.participants), roles=dict(sorted(event.roles.items())),
                  attributes=dict(sorted(event.attributes.items())))
    return record


# An event record, in events.jsonl or inside a graph, in the order it is
# written; EVENT_LINE is an events.jsonl line as graph reads it.
EVENT = Schema("event", ("event_id", int), ("source", str), ("event_type", str),
               ("participants", [int]), ("roles", {str: int}, {}), ("start_time", float),
               ("end_time", float), ("confidence", float), ("attributes", dict, {}))
EVENT_LINE = Schema("event", ("video_id", str), *EVENT.fields)


def parse_event(record: dict, line: int | None = None) -> SocialEvent:
    """A checked event: typed fields, times below 2**52 in magnitude, a type
    known for its source, at least one participant, two for mutual gaze, an
    initiator on a gesture, and no NaN or infinity at any depth of its
    attributes."""
    return _valid_event(read_record(record, EVENT, line), line)


def parse_event_line(record: dict, line: int | None = None) -> tuple[str, SocialEvent]:
    """The video_id and the checked event of an events.jsonl line."""
    video_id, *values = read_record(record, EVENT_LINE, line)
    return video_id, _valid_event(values, line)


def _valid_event(values, line: int | None) -> SocialEvent:
    """The event of an EVENT table's values, with its own roles and
    attributes, if it keeps the rules of ``parse_event``."""
    event_id, source, event_type, participants, roles, start, end, confidence, attributes = values
    event = _new(SocialEvent, (event_id, source, event_type, frozenset(participants), dict(roles),
                               start, end, confidence, dict(attributes)))
    types = _TYPES_BY_SOURCE.get(event.source)
    if types is None:
        fault = f"source must be {SOURCE_GAZE!r} or {SOURCE_GESTURE!r}, got {event.source!r}"
    elif event.event_type not in types:
        fault = f"event_type {event.event_type!r} is not a {event.source} event type"
    elif not event.participants:
        fault = "participants must not be empty"
    elif event.event_type == "mutual_gaze" and len(event.participants) != 2:
        fault = f"participants of mutual_gaze must be 2 persons, got {sorted(event.participants)}"
    elif event.source == SOURCE_GESTURE and "initiator" not in event.roles:
        fault = "roles['initiator'] is required on a gesture event"
    elif abs(event.start_time) >= TIME_LIMIT:
        fault = f"start_time must be below 2**52 in magnitude, got {event.start_time}"
    elif abs(event.end_time) >= TIME_LIMIT:
        fault = f"end_time must be below 2**52 in magnitude, got {event.end_time}"
    elif _non_finite(event.attributes) is None:
        return event
    else:  # a NaN or an infinity would be written as a bare NaN or Infinity, not JSON
        key, number = next((k, n) for k, v in event.attributes.items()
                           if (n := _non_finite(v)) is not None)
        fault = f"attributes[{key!r}] must hold only finite numbers, got {number}"
    raise ValidationError(f"bad event record: {fault}", line)


def _non_finite(value) -> float | None:
    """The first NaN or infinity at any depth of a JSON value, or None.
    Iterative: a parsed value nests as deep as the decoder allows."""
    stack = [value]
    while stack:
        value = stack.pop()
        if type(value) is float:
            if not math.isfinite(value):
                return value
        elif type(value) is dict:
            stack.extend(value.values())
        elif type(value) is list:
            stack.extend(value)
    return None


def _event(
    event_type: str,
    participants: Iterable[int],
    start: int,
    end: int,
    support: list[GazeSample],
    roles: dict[str, int] | None = None,
    attributes: dict | None = None,
) -> SocialEvent:
    return _new(SocialEvent, (
        -1, SOURCE_GAZE, event_type, frozenset(participants), roles or {},
        start * SAMPLE_PERIOD, end * SAMPLE_PERIOD, _confidence(event_type, support),
        attributes or {},
    ))


def _jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    """Overlap of two retained sets, each of two or more persons."""
    return len(a & b) / len(a | b)

