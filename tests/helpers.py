"""Shared fixtures for unit tests, and the tests' one conversion from
seconds to grid ticks."""

from __future__ import annotations

from collections import Counter

from socialevents.events import SOURCE_GAZE, SOURCE_GESTURE, SocialEvent
from socialevents.gaze import PROV_MEASURED, PROV_MISSING, GazeSample, GazeTrack
from socialevents.ingest import SAMPLE_PERIOD, Box
from socialevents.mentions import PERSON_RE, extract_person_ids
from socialevents.qa import LETTERS, QAItem

DEFAULT_FACE = Box(0.48, 0.38, 0.52, 0.42)


def tick(t: float) -> int:
    """The grid tick of a time in seconds; the time must lie on the grid."""
    k = round(t / SAMPLE_PERIOD)
    assert k * SAMPLE_PERIOD == t, f"{t} is not on the {SAMPLE_PERIOD} s grid"
    return k


def sample(
    t,
    gaze=None,
    center=None,
    box=None,
    conf=None,
    in_frame=True,
    prov=None,
):
    """One track sample; defaults to a confident measured sample when a gaze
    point is given and a missing sample otherwise."""
    if gaze is None:
        return GazeSample(tick(t), None, center, box, False, 0.0, prov or PROV_MISSING)
    if box is None and center is None:
        box = DEFAULT_FACE
    if center is None:
        center = box.center
    return GazeSample(
        tick(t), gaze, center, box, in_frame,
        1.0 if conf is None else conf,
        prov or PROV_MEASURED,
    )


def grid_track(pid, lo, hi, measured, video="v", center=None, box=None):
    """Grid-complete track from lo to hi with measured samples per dict
    {t: gaze_point} or {t: (gaze_point, face_center)}."""
    samples = []
    steps = round((hi - lo) / 0.5)
    for k in range(steps + 1):
        t = lo + 0.5 * k
        entry = measured.get(t)
        if entry is None:
            samples.append(sample(t))
        elif isinstance(entry, dict):
            samples.append(sample(t, **entry))
        elif len(entry) == 2 and isinstance(entry[0], tuple):
            samples.append(sample(t, gaze=entry[0], center=entry[1], box=box))
        else:
            samples.append(sample(t, gaze=entry, center=center, box=box))
    return GazeTrack(video, pid, tuple(samples))


def event(
    eid,
    event_type="mutual_gaze",
    parts=(0, 1),
    start=0.0,
    end=1.0,
    conf=0.95,
    source=None,
    roles=None,
    attributes=None,
):
    if source is None:
        source = SOURCE_GESTURE if event_type in ("pointing", "showing", "giving", "reaching") \
            else SOURCE_GAZE
    if roles is None and source == SOURCE_GESTURE:
        parts_sorted = sorted(parts)
        roles = {"initiator": parts_sorted[0]}
        if len(parts_sorted) > 1:
            roles["target"] = parts_sorted[1]
    return SocialEvent(
        event_id=eid,
        source=source,
        event_type=event_type,
        participants=frozenset(parts),
        roles=roles or {},
        start_time=start,
        end_time=end,
        confidence=conf,
        attributes=attributes or {},
    )


def person_id_counts(text: str) -> Counter:
    """Mention counts per person ID (both token forms pooled)."""
    return Counter(map(int, PERSON_RE.findall(text)))


def id_echo_answer(item: QAItem) -> str | None:
    """Reference shortcut answerer: take the most frequent person ID in the
    question (ties to the smallest ID) and pick the first option mentioning
    it. Used to demonstrate that ID corruption breaks text-only shortcuts."""
    if item.format != "mcq" or not item.options:
        return None
    counts = person_id_counts(item.question)
    if not counts:
        return None
    top = max(counts.values())
    echo_id = min(pid for pid, c in counts.items() if c == top)
    for index, option in enumerate(item.options):
        if echo_id in extract_person_ids(option):
            return LETTERS[index]
    return None
