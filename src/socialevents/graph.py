"""Unified per-video social graph: filter, snap, deduplicate, link, prune.

Construction order is fixed: confidence filtering (gaze >= 0.9, gesture
>= 0.85, inclusive), timestamp snapping to the 0.5 s grid with removal of
events that leave [0, duration], duplicate collapse, gaze-gesture pair
linking at temporal distance <= 3.0 s, and a 25-event cap that protects
linked pairs, then event-type diversity, then raw confidence.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import ValidationError
from .events import (SOURCE_GAZE, SOURCE_GESTURE, SocialEvent, event_record, event_sort_key,
                     parse_event)
from .ingest import (SAMPLE_PERIOD, GestureAnnotation, Schema, dumps_canonical, read_jsonl,
                     read_record, snap_to_grid)

_EPS = 1e-9


@dataclass
class SocialGraph:
    video_id: str
    duration: float
    events: list[SocialEvent] = field(default_factory=list)
    joint_pairs: list[tuple[int, int, float]] = field(default_factory=list)

    def event_by_id(self, event_id: int) -> SocialEvent | None:
        for event in self.events:
            if event.event_id == event_id:
                return event
        return None

    def person_ids(self) -> list[int]:
        ids: set[int] = set()
        for event in self.events:
            ids.update(event.participants)
        return sorted(ids)


def gesture_to_event(gesture: GestureAnnotation, event_id: int) -> SocialEvent:
    participants = {gesture.initiator_id}
    roles = {"initiator": gesture.initiator_id}
    if gesture.target_person_id is not None:
        participants.add(gesture.target_person_id)
        roles["target"] = gesture.target_person_id
    return SocialEvent(
        event_id=event_id,
        source=SOURCE_GESTURE,
        event_type=gesture.gesture_type,
        participants=frozenset(participants),
        roles=roles,
        start_time=gesture.start_time,
        end_time=gesture.end_time,
        confidence=gesture.confidence,
        attributes={"target_type": gesture.target_type},
    )


def filter_events(events: list[SocialEvent], config: EngineConfig = DEFAULT_CONFIG) -> list[SocialEvent]:
    """Keep gaze events at confidence >= 0.9 and gestures at >= 0.85."""
    kept = []
    for event in events:
        threshold = config.gesture_conf_min if event.source == SOURCE_GESTURE else config.gaze_conf_min
        if event.confidence >= threshold:
            kept.append(event)
    return kept


def snap_timestamps(event: SocialEvent, duration: float) -> SocialEvent | None:
    """Snap boundaries to the grid; None signals removal (outside the video)."""
    start = snap_to_grid(event.start_time)
    end = snap_to_grid(event.end_time)
    if end <= start:
        end = start + SAMPLE_PERIOD
    if start < -_EPS or end > duration + _EPS:
        return None
    return event._replace(start_time=start, end_time=end)


def _strength(e: SocialEvent) -> tuple:
    """Strongest first: highest confidence, earliest start, lowest event_id."""
    return (-e.confidence, e.start_time, e.event_id)


def deduplicate(events: list[SocialEvent]) -> list[SocialEvent]:
    """Collapse same-type, same-participant events with overlapping windows,
    keeping the highest-confidence one per overlap component."""
    groups: dict[tuple, list[SocialEvent]] = {}
    for event in events:
        groups.setdefault((event.event_type, event.participants), []).append(event)

    kept: list[SocialEvent] = []
    for group in groups.values():
        group.sort(key=lambda e: (e.start_time, e.end_time, e.event_id))
        # Sweep into overlap components; intervals are sorted by start.
        component: list[SocialEvent] = []
        comp_end = -math.inf
        for event in group:
            if component and event.start_time >= comp_end - _EPS:
                kept.append(min(component, key=_strength))
                component = []
                comp_end = -math.inf
            component.append(event)
            comp_end = max(comp_end, event.end_time)
        if component:
            kept.append(min(component, key=_strength))
    kept.sort(key=lambda e: (event_sort_key(e), e.event_id))
    return kept


def interval_distance(a: SocialEvent, b: SocialEvent) -> float:
    """Gap between nearest endpoints; zero when the windows overlap."""
    return max(0.0, max(a.start_time, b.start_time) - min(a.end_time, b.end_time))


def link_joint_pairs(
    events: list[SocialEvent], config: EngineConfig = DEFAULT_CONFIG
) -> list[tuple[int, int, float]]:
    """All (gaze event, gesture event) pairs within the proximity bound.

    Each gaze event tests only the gestures, sorted by start, that start
    within the bound plus the longest gesture before it or within the bound
    after it. A gesture outside that window is farther than the bound: the
    distance is at least its start minus the gaze end, or the gaze start
    minus its end, and rounding is monotone. The margin, 2**-40 of the
    magnitudes involved, covers the rounding of the window's own edges.
    """
    gaze = [e for e in events if e.source != SOURCE_GESTURE]
    gestures = sorted((e for e in events if e.source == SOURCE_GESTURE),
                      key=lambda e: e.start_time)
    starts = [e.start_time for e in gestures]
    longest = max((e.end_time - e.start_time for e in gestures), default=0.0)
    bound = config.pair_max_distance + _EPS
    pairs = []
    for g in gaze:
        margin = (abs(g.start_time) + abs(g.end_time) + bound + longest) * 2.0 ** -40
        for ges in gestures[bisect_left(starts, g.start_time - bound - longest - margin):
                            bisect_right(starts, g.end_time + bound + margin)]:
            distance = interval_distance(g, ges)
            if distance <= bound:
                pairs.append((g.event_id, ges.event_id, distance))
    pairs.sort(key=lambda p: (p[0], p[1]))
    return pairs


def prune_graph(graph: SocialGraph, config: EngineConfig = DEFAULT_CONFIG) -> SocialGraph:
    """Cap the graph at the event limit, never orphaning a linked pair.

    Selection tiers: (1) events in joint pairs, dropping whole pairs by
    ascending minimum confidence if they alone exceed the cap; (2) the best
    unlinked event of each event type; (3) remaining unlinked events by
    descending confidence.
    """
    cap = config.max_graph_events
    events = sorted(graph.events, key=lambda e: (event_sort_key(e), e.event_id))
    pairs = sorted(graph.joint_pairs)
    if len(events) <= cap:
        return SocialGraph(graph.video_id, graph.duration, events, pairs)

    kept_ids = {eid for gid, gesid, _ in pairs for eid in (gid, gesid)}
    if len(kept_ids) > cap:
        # Keep whole pairs, strongest first, up to the first that would
        # overflow the cap: what dropping the weakest first until the rest
        # fit leaves.
        by_id = {e.event_id: e for e in events}
        ranked = sorted(
            pairs, key=lambda p: (min(by_id[p[0]].confidence, by_id[p[1]].confidence), p[0], p[1])
        )
        kept_ids, kept_pairs = set(), []
        for pair in reversed(ranked):
            ids = kept_ids | {pair[0], pair[1]}
            if len(ids) > cap:
                break
            kept_ids = ids
            kept_pairs.append(pair)
        pairs = sorted(kept_pairs)
    else:
        ranked = sorted((e for e in events if e.event_id not in kept_ids), key=_strength)
        # One diversity slot per event type, strongest types first, then the
        # strongest of the rest.
        best: dict[str, SocialEvent] = {}
        for event in ranked:
            best.setdefault(event.event_type, event)
        budget = cap - len(kept_ids)
        slots = sorted(best.values(), key=lambda e: (-e.confidence, e.event_type))[:budget]
        kept_ids.update(e.event_id for e in slots)
        rest = [e for e in ranked if e.event_id not in kept_ids]
        kept_ids.update(e.event_id for e in rest[:budget - len(slots)])

    kept_events = [e for e in events if e.event_id in kept_ids]
    return SocialGraph(graph.video_id, graph.duration, kept_events, pairs)


def build_graph(
    video_id: str,
    duration: float,
    gaze_events: list[SocialEvent],
    gestures: list[GestureAnnotation],
    config: EngineConfig = DEFAULT_CONFIG,
) -> SocialGraph:
    """Full construction pipeline for one video."""
    next_id = max((e.event_id for e in gaze_events), default=-1) + 1
    ordered = sorted(
        gestures, key=lambda g: (g.start_time, g.end_time, g.initiator_id, g.gesture_type)
    )
    events = list(gaze_events)
    for offset, gesture in enumerate(ordered):
        events.append(gesture_to_event(gesture, next_id + offset))

    events = filter_events(events, config)
    snapped = []
    for event in events:
        result = snap_timestamps(event, duration)
        if result is not None:
            snapped.append(result)
    deduped = deduplicate(snapped)
    pairs = link_joint_pairs(deduped, config)
    graph = SocialGraph(video_id, duration, deduped, pairs)
    return prune_graph(graph, config)


GRAPH = Schema("graph", ("video_id", str), ("duration", float), ("events", [dict]),
               ("joint_pairs", [(int, int, float)], []))


def serialize_graph(graph: SocialGraph) -> str:
    """The graph's line, in GRAPH table order (a pair's tuple as a list)."""
    return dumps_canonical(dict(zip(GRAPH.keys, (
        graph.video_id, graph.duration, [event_record(e) for e in graph.events],
        graph.joint_pairs))))


def parse_graph(record: dict, line: int | None = None) -> SocialGraph:
    """A checked graph: checked events with unique ids, and joint pairs that
    each link a gaze event of the graph to one of its gesture events."""
    video_id, duration, event_records, pairs = read_record(record, GRAPH, line)
    events = [parse_event(e, line) for e in event_records]
    sources: dict[int, str] = {}
    for e in events:
        if e.event_id in sources:
            raise ValidationError(f"bad graph record: events repeat event_id {e.event_id}", line)
        sources[e.event_id] = e.source
    for i, (gaze_id, gesture_id, _) in enumerate(pairs):
        if (sources.get(gaze_id), sources.get(gesture_id)) != (SOURCE_GAZE, SOURCE_GESTURE):
            raise ValidationError(
                f"bad graph record: joint_pairs[{i}] must link a gaze event id to a gesture "
                f"event id of this graph, got [{gaze_id}, {gesture_id}]", line)
    return SocialGraph(video_id, duration, events, [tuple(pair) for pair in pairs])


def load_graphs(path) -> list[SocialGraph]:
    """Each graph of a graph.jsonl file in file order; a video_id that
    comes back is a ValidationError naming its line."""
    graphs: dict[str, SocialGraph] = {}
    for line_no, record in read_jsonl(path):
        g = parse_graph(record, line_no)
        if graphs.setdefault(g.video_id, g) is not g:
            raise ValidationError(f"bad graph record: video_id {g.video_id!r} repeats", line_no)
    return list(graphs.values())
