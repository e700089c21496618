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
    gaze_following      O(F x P x lags) lookups plus one distance per
                        measured leader: each follower sample visits only
                        the leaders measured at t - lag; lags stop at the
                        video's span
    attention_capture   O(F x P) (windows hold a fixed number of frames)
    mutual_gaze         O(F x P^2): every pair
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterable

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import ValidationError
from .gaze import PROV_MEASURED, FrameFeatures, GazeSample, GazeTrack
from .ingest import GESTURE_TYPES, SAMPLE_PERIOD, dumps_canonical, read_field, typed

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


@dataclass(frozen=True)
class SocialEvent:
    event_id: int
    source: str
    event_type: str
    participants: frozenset[int]
    roles: dict[str, int] = field(default_factory=dict)
    start_time: float = 0.0
    end_time: float = 0.0
    confidence: float = 0.0
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


@dataclass(frozen=True)
class IntervalCluster:
    start_t: float
    end_t: float
    member_times: tuple[float, ...]


def cluster_intervals(flagged_times: list[float], max_gap: float) -> list[IntervalCluster]:
    """Maximal runs of sorted times whose consecutive gaps stay within max_gap."""
    clusters = []
    run: list[float] = []
    for t in flagged_times:
        if run and t - run[-1] > max_gap:
            clusters.append(IntervalCluster(run[0], run[-1], tuple(run)))
            run = []
        run.append(t)
    if run:
        clusters.append(IntervalCluster(run[0], run[-1], tuple(run)))
    return clusters


def score_event_confidence(event: SocialEvent, samples: list[GazeSample]) -> float:
    """Mean supporting-sample confidence, discounted by interpolated support."""
    if not samples:
        raise ValidationError(f"event {event.event_type} has no supporting samples")
    mean_conf = sum(s.confidence for s in samples) / len(samples)
    measured = sum(1 for s in samples if s.provenance == PROV_MEASURED)
    return mean_conf * (0.5 + 0.5 * measured / len(samples))


def detect_sudden_shifts(
    track: GazeTrack,
    features: list[FrameFeatures],
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[SocialEvent]:
    pid = track.person_id
    flagged: list[float] = []
    flagged_v: list[float] = []  # velocity of each flagged time, in the same order
    for f in features:
        v = f.velocities.get(pid)
        if v is not None and v > config.sudden_velocity:
            flagged.append(f.t)
            flagged_v.append(v)
    times = [s.t for s in track.samples]  # ascending, so bisect finds a time span
    events = []
    first = 0
    for cluster in cluster_intervals(flagged, config.sudden_cluster_gap):
        members = slice(first, first + len(cluster.member_times))
        first = members.stop
        duration = cluster.end_t - cluster.start_t
        if not config.sudden_min_duration <= duration <= config.sudden_max_duration:
            continue
        lo = bisect_left(times, cluster.start_t - SAMPLE_PERIOD)
        hi = bisect_right(times, cluster.end_t)
        events.append(_event(
            "sudden_gaze_shift", {pid}, cluster.start_t, cluster.end_t,
            list(track.samples[lo:hi]), attributes={"peak_velocity": max(flagged_v[members])},
        ))
    return events


def detect_joint_attention(
    tracks: list[GazeTrack],
    features: list[FrameFeatures],
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[SocialEvent]:
    by_id = {track.person_id: track for track in tracks}

    eligible: list[tuple[float, frozenset[int], float]] = []  # (t, retained set, score)
    for f in features:
        if f.convergence is None or f.convergence < config.ja_convergence:
            continue
        retained = _retain_central(f, by_id, config)
        if len(retained) >= 2:
            eligible.append((f.t, retained, f.convergence))

    events = []
    run: list[tuple[float, frozenset[int], float]] = []
    for entry in eligible:
        if run:
            prev_t, prev_set, _ = run[-1]
            adjacent = entry[0] - prev_t == SAMPLE_PERIOD
            if not (adjacent and _jaccard(prev_set, entry[1]) >= config.ja_set_overlap):
                events.extend(_finish_ja(run, by_id, config))
                run = []
        run.append(entry)
    events.extend(_finish_ja(run, by_id, config))
    return events


def _retain_central(
    f: FrameFeatures, by_id: dict[int, GazeTrack], config: EngineConfig
) -> frozenset[int]:
    """Drop contributors farther than mult x median distance from the centroid."""
    dists = {}
    for pid in f.contributors:
        sample = by_id[pid].sample_at(f.t)
        dists[pid] = math.hypot(
            sample.gaze_point[0] - f.centroid[0], sample.gaze_point[1] - f.centroid[1]
        )
    ordered = sorted(dists.values())
    k = len(ordered)
    median = ordered[k // 2] if k % 2 else (ordered[k // 2 - 1] + ordered[k // 2]) / 2.0
    cutoff = config.ja_peripheral_mult * median
    return frozenset(pid for pid, d in dists.items() if d <= cutoff)


def _finish_ja(
    run: list[tuple[float, frozenset[int], float]],
    by_id: dict[int, GazeTrack],
    config: EngineConfig,
) -> list[SocialEvent]:
    if not run:
        return []
    start, end = run[0][0], run[-1][0]
    if end - start < config.ja_min_duration:
        return []
    participants: set[int] = set()
    support = []
    scores = []
    for t, retained, score in run:
        participants.update(retained)
        scores.append(score)
        for pid in sorted(retained):
            support.append(by_id[pid].sample_at(t))
    return [_event(
        "joint_attention", participants, start, end, support,
        attributes={
            "mean_convergence": sum(scores) / len(scores),
            "peak_convergence": max(scores),
        },
    )]


def detect_gaze_following(
    tracks: list[GazeTrack], config: EngineConfig = DEFAULT_CONFIG
) -> list[SocialEvent]:
    lags = _lag_grid(config, tracks)
    distance = config.follow_distance
    # time -> {leader id: sample} for every measured gaze point; one dict per
    # time and no container per sample keeps the garbage collector's work low
    measured_at: dict[float, dict[int, GazeSample]] = {}
    for tr in tracks:
        for s in tr.samples:
            if s.provenance == PROV_MEASURED and s.gaze_point is not None:
                measured_at.setdefault(s.t, {})[tr.person_id] = s
    events = []
    for follower in tracks:
        follower_id = follower.person_id
        for cur in follower.samples:
            if cur.gaze_point is None:
                continue
            cx, cy = cur.gaze_point
            done: tuple[int, ...] = ()  # leaders that qualified at an earlier lag
            for lag in lags:
                for leader_id, past in measured_at.get(cur.t - lag, {}).items():
                    if leader_id == follower_id or leader_id in done:
                        continue
                    px, py = past.gaze_point
                    d = math.hypot(cx - px, cy - py)
                    if d < distance:
                        done += (leader_id,)
                        events.append(_event(
                            "gaze_following",
                            {leader_id, follower_id},
                            cur.t - lag, cur.t, [past, cur],
                            roles={"leader": leader_id, "follower": follower_id},
                            attributes={"lag": lag, "distance": d},
                        ))
    return events


def detect_attention_capture(
    tracks: list[GazeTrack],
    features: list[FrameFeatures],
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[SocialEvent]:
    flags: list[tuple[float, int, float]] = []  # (t, person, velocity)
    for f in features:
        for pid, v in f.velocities.items():
            if v > config.capture_velocity:
                flags.append((f.t, pid, v))
    if not flags:
        return []
    # A stable sort keeps feature order among equal times, which fixes the
    # order of the support samples and so the confidence bytes.
    flags.sort(key=lambda flag: flag[0])
    flag_times = [t for t, _, _ in flags]

    # Slide the window over every grid start that could contain a flag; both
    # window edges only move forward, so two pointers find each window's flags.
    candidates = []  # (window_start, participants, span)
    width = config.capture_window
    step = SAMPLE_PERIOD
    last_flag = flag_times[-1]
    w = flag_times[0] - math.ceil(width / step - 1e-9) * step
    lo = hi = 0
    while w <= last_flag:
        while lo < len(flags) and flag_times[lo] < w:
            lo += 1
        while hi < len(flags) and flag_times[hi] <= w + width:
            hi += 1
        persons = frozenset(pid for _, pid, _ in flags[lo:hi])
        if len(persons) >= config.capture_min_persons:
            candidates.append((w, persons, flag_times[lo], flag_times[hi - 1]))
        w += step

    # Merge candidates whose windows intersect and participant sets match.
    # Windows arrive in increasing order, so once a set starts a new group its
    # older groups can never intersect again: only the latest group per set
    # can take a candidate.
    merged: list[list] = []  # [persons, span_lo, span_hi, win_lo, win_hi]
    latest: dict[frozenset[int], list] = {}
    for w, persons, span_lo, span_hi in candidates:
        group = latest.get(persons)
        if group is None or not (w <= group[4] and w + width >= group[3]):
            group = [persons, span_lo, span_hi, w, w + width]
            merged.append(group)
            latest[persons] = group
        else:
            group[1] = min(group[1], span_lo)
            group[2] = max(group[2], span_hi)
            group[3] = min(group[3], w)
            group[4] = max(group[4], w + width)

    by_id = {track.person_id: track for track in tracks}
    events = []
    for persons, span_lo, span_hi, win_lo, win_hi in merged:
        support: list[GazeSample] = []
        seen: set[GazeSample] = set()  # equal samples count once, as in a list test
        peak = 0.0
        for t, pid, v in flags[bisect_left(flag_times, win_lo):bisect_right(flag_times, win_hi)]:
            if pid not in persons:
                continue
            peak = max(peak, v)
            for at in (t - SAMPLE_PERIOD, t):
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
    # Only measured samples with a gaze point and a face box can hit.
    hittable = {
        track.person_id: {
            s.t: s for s in track.samples
            if s.provenance == PROV_MEASURED and s.gaze_point is not None
            and s.face_box is not None
        }
        for track in tracks
    }
    m = config.mutual_margin
    events = []
    for i, a in enumerate(tracks):
        a_by_t = hittable[a.person_id]
        for b in tracks[i + 1:]:
            b_by_t = hittable[b.person_id]
            hits = []
            for t, sa in a_by_t.items():
                sb = b_by_t.get(t)
                if sb is None:
                    continue
                # each gaze point inside the other's face box grown by the margin
                (ax, ay), (bx, by) = sa.gaze_point, sb.gaze_point
                fa, fb = sa.face_box, sb.face_box
                if fb.x1 - m <= ax <= fb.x2 + m and fb.y1 - m <= ay <= fb.y2 + m and \
                        fa.x1 - m <= bx <= fa.x2 + m and fa.y1 - m <= by <= fa.y2 + m:
                    hits.append(t)
            for cluster in cluster_intervals(hits, SAMPLE_PERIOD):
                if cluster.end_t - cluster.start_t < config.mutual_min_duration:
                    continue
                support = []
                for t in cluster.member_times:
                    support.append(a_by_t[t])
                    support.append(b_by_t[t])
                events.append(_event(
                    "mutual_gaze", {a.person_id, b.person_id},
                    cluster.start_t, cluster.end_t, support,
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
    return [replace(e, event_id=i) for i, e in enumerate(events)]


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
    record: dict = {}
    if video_id is not None:
        record["video_id"] = video_id
    record.update({
        "event_id": event.event_id,
        "source": event.source,
        "event_type": event.event_type,
        "participants": sorted(event.participants),
        "roles": dict(sorted(event.roles.items())),
        "start_time": event.start_time,
        "end_time": event.end_time,
        "confidence": event.confidence,
        "attributes": dict(sorted(event.attributes.items())),
    })
    return record


def parse_event(record: dict, line: int | None = None) -> SocialEvent:
    """A checked event: typed fields, a type known for its source, at least
    one participant, two for mutual gaze, and an initiator on a gesture."""
    roles = read_field(record, "roles", dict, "event", line, default={})
    event = SocialEvent(
        event_id=read_field(record, "event_id", int, "event", line),
        source=read_field(record, "source", str, "event", line),
        event_type=read_field(record, "event_type", str, "event", line),
        participants=frozenset(read_field(record, "participants", [int], "event", line)),
        roles={k: typed(v, int, f"roles[{k!r}]", "event", line) for k, v in roles.items()},
        start_time=read_field(record, "start_time", float, "event", line),
        end_time=read_field(record, "end_time", float, "event", line),
        confidence=read_field(record, "confidence", float, "event", line),
        attributes=dict(read_field(record, "attributes", dict, "event", line, default={})),
    )
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
    else:
        return event
    raise ValidationError(f"bad event record: {fault}", line)


def _event(
    event_type: str,
    participants: Iterable[int],
    start: float,
    end: float,
    support: list[GazeSample],
    roles: dict[str, int] | None = None,
    attributes: dict | None = None,
) -> SocialEvent:
    event = SocialEvent(
        event_id=-1,
        source=SOURCE_GAZE,
        event_type=event_type,
        participants=frozenset(participants),
        roles=roles or {},
        start_time=start,
        end_time=end,
        attributes=attributes or {},
    )
    return replace(event, confidence=score_event_confidence(event, [s for s in support if s]))


def _jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def _lag_grid(config: EngineConfig, tracks: list[GazeTrack]) -> list[float]:
    # EngineConfig keeps both lags on the grid, so the quotients are whole. A
    # lag longer than the tracks' time span never reaches a leader sample.
    ends = [s.t for tr in tracks for s in tr.samples[:1] + tr.samples[-1:]]
    span = max(ends) - min(ends) if ends else 0.0
    first = int(config.follow_lag_min / SAMPLE_PERIOD)
    last = min(int(config.follow_lag_max / SAMPLE_PERIOD), round(span / SAMPLE_PERIOD))
    return [k * SAMPLE_PERIOD for k in range(first, last + 1)]
