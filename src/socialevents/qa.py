"""Template-driven QA generation over social graphs, with MCQ distractors
and deterministic seeding.

Sixteen categories cover gaze (T1-T6), gesture (G1-G6), and joint gaze-gesture
reasoning (J1-J4). ``CATEGORIES`` is the one place a category is declared: its
difficulty, its distractor kind and the enumerator of its candidates, in
generation order. Question wording varies by a seeded per-item draw; the
answer string for a category is a fixed function of the cited events, so an
oracle reading only those events can reconstruct every answer. Graphs with few
events emit only the easy categories; richer graphs unlock medium and hard
ones, and the J categories enumerate linked gaze-gesture pairs only.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from collections import Counter
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import ValidationError
from .events import SOURCE_GESTURE, SocialEvent
from .graph import SocialGraph
from .ingest import (GESTURE_TYPES, Nullable, Schema, dumps_canonical, read_jsonl, read_record,
                     snap_to_grid)
from .mentions import extract_person_ids

BLACKLIST = (
    "suggesting", "indicating", "likely", "because", "implies",
    "seems", "probably", "emotion", "feeling",
)
_BLACKLIST_RE = re.compile(r"\b(" + "|".join(BLACKLIST) + r")\b", re.IGNORECASE)

GAZE_LABELS = {
    "mutual_gaze": "Making eye contact",
    "joint_attention": "Looking at the same thing",
    "gaze_following": "Following another person's gaze",
    "attention_capture": "Several people turning to look at once",
    "sudden_gaze_shift": "A quick gaze shift",
}

# gesture verbs: (present participle, bare infinitive, third person singular)
GESTURE_VERBS = {
    "pointing": ("pointing at", "point at", "points at"),
    "showing": ("showing an object to", "show an object to", "shows an object to"),
    "giving": ("giving an object to", "give to", "gives to"),
    "reaching": ("reaching toward", "reach toward", "reaches toward"),
}

LETTERS = "ABCD"

ORDER_GAZE_FIRST = "The gaze event starts first"
ORDER_GESTURE_FIRST = "The gesture starts first"
_ORDER_FILLERS = ("They start at the same time", "Neither event occurs in the clip")


@dataclass(frozen=True)
class QAItem:
    qa_id: str
    video_id: str
    category: str
    difficulty: str
    format: str
    question: str
    options: tuple[str, ...] | None
    answer: str
    answer_text: str
    source_event_ids: tuple[int, ...]
    time_range: tuple[float, float]


def _ts(t: float) -> str:
    return f"{t:.1f}"


def _persons_phrase(ids) -> str:
    names = [f"Person {p}" for p in sorted(ids)]
    if len(names) == 1:
        return names[0]
    if len(names) == 2:
        return f"{names[0]} and {names[1]}"
    return ", ".join(names[:-1]) + f", and {names[-1]}"


def _count_phrase(n: int) -> str:
    return "1 person" if n == 1 else f"{n} people"


def _item_rng(seed: int, video_id: str, category: str, source_ids) -> random.Random:
    key = f"{seed}:{video_id}:{category}:{','.join(str(i) for i in source_ids)}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# distractor construction


def make_mcq_options(
    correct: str,
    graph: SocialGraph,
    kind: str,
    rng: random.Random,
    window: tuple[float, float] | None = None,
) -> tuple[tuple[str, ...], str] | None:
    """Build 4 shuffled options for the correct answer, or None to skip."""
    distractors = _distractors(correct, graph, kind, window)
    if distractors is None or len(distractors) < 3:
        return None
    options = [correct] + distractors[:3]
    rng.shuffle(options)
    return tuple(options), LETTERS[options.index(correct)]


def _distractors(
    correct: str, graph: SocialGraph, kind: str, window: tuple[float, float] | None
) -> list[str] | None:
    if kind == "person":
        pool = [f"Person {p}" for p in graph.person_ids()]
        return [c for c in pool if c != correct]
    if kind == "person_pair":
        persons = graph.person_ids()
        pool = [
            f"Person {a} and Person {b}"
            for i, a in enumerate(persons) for b in persons[i + 1:]
        ]
        return [c for c in pool if c != correct]
    if kind == "gaze_label":
        used = _types_in_window(graph, window)
        ordered = sorted(GAZE_LABELS, key=lambda t: (t in used, t))
        return [GAZE_LABELS[t] for t in ordered if GAZE_LABELS[t] != correct]
    if kind == "gesture_type":
        used = _types_in_window(graph, window)
        ordered = sorted(GESTURE_TYPES, key=lambda t: (t in used, t))
        return [t.capitalize() for t in ordered if t.capitalize() != correct]
    if kind == "duration":
        value = float(correct.split()[0])
        cands = [value + off for off in (0.5, -0.5, 1.0, -1.0, 1.5, 2.0)]
        return [f"{c:.1f} seconds" for c in cands if c > 0 and abs(c - value) > 1e-9]
    if kind == "count":
        value = int(correct.split()[0])
        cands = [value + off for off in (1, -1, 2, -2, 3)]
        return [_count_phrase(c) for c in cands if c >= 1 and c != value]
    if kind == "order":
        other = ORDER_GESTURE_FIRST if correct == ORDER_GAZE_FIRST else ORDER_GAZE_FIRST
        return [other, *_ORDER_FILLERS]
    return None


def _types_in_window(graph: SocialGraph, window: tuple[float, float] | None) -> set[str]:
    """Event types occurring in the time window (whole graph when None)."""
    if window is None:
        return {e.event_type for e in graph.events}
    lo, hi = window
    return {
        e.event_type for e in graph.events
        if min(e.end_time, hi) - max(e.start_time, lo) > 0
    }


# ---------------------------------------------------------------------------
# validation


def item_person_ids(item: QAItem) -> set[int]:
    """Person IDs mentioned in the item's question, answer text and options."""
    texts = [item.question, item.answer_text]
    if item.options:
        texts.extend(item.options)
    ids: set[int] = set()
    for text in texts:
        ids.update(extract_person_ids(text))
    return ids


def validate_qa(item: QAItem, graph: SocialGraph) -> str | None:
    """Return a rejection reason, or None when the item is acceptable."""
    if item.category not in CATEGORY_DIFFICULTY:
        return f"unknown category {item.category!r}"
    if item.difficulty != CATEGORY_DIFFICULTY[item.category]:
        return f"difficulty {item.difficulty!r} does not match category {item.category}"

    if item.format == "mcq":
        if item.options is None or len(item.options) != 4:
            return "mcq items need exactly 4 options"
        if len(set(item.options)) != 4:
            return "mcq options must be distinct"
        if item.answer not in LETTERS:
            return f"bad answer letter {item.answer!r}"
        if item.answer_text != item.options[LETTERS.index(item.answer)]:
            return "answer_text does not match the chosen option"
        for option in item.options:
            if len(option.split()) > 15:
                return f"option exceeds 15 words: {option!r}"
    elif item.format == "open_ended":
        if item.options:
            return "open-ended items carry no options"
        if item.answer != item.answer_text:
            return "open-ended answer must equal answer_text"
    else:
        return f"unknown format {item.format!r}"

    if not item.answer_text:
        return "empty answer_text"
    match = _BLACKLIST_RE.search(item.answer_text)
    if match:
        return f"blacklisted word in answer: {match.group(0)!r}"

    if not item.source_event_ids:
        return "no source events"
    sources = []
    for eid in item.source_event_ids:
        event = graph.event_by_id(eid)
        if event is None:
            return f"source event {eid} not in graph"
        sources.append(event)

    lo, hi = item.time_range
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        return f"invalid time_range {item.time_range}"
    if lo > min(e.start_time for e in sources) or hi < max(e.end_time for e in sources):
        return "time_range does not cover the source events"

    unknown = item_person_ids(item) - set(graph.person_ids())
    if unknown:
        return f"unknown person reference {sorted(unknown)}"

    gaze = [e for e in sources if e.source != SOURCE_GESTURE]
    gestures = [e for e in sources if e.source == SOURCE_GESTURE]
    if item.category.startswith("T") and gestures:
        return "gaze category citing gesture events"
    if item.category.startswith("G") and gaze:
        return "gesture category citing gaze events"
    if item.category.startswith("J"):
        if not gaze or not gestures:
            return "joint category must cite gaze and gesture events"
        linked = {(g, ges) for g, ges, _ in graph.joint_pairs}
        if not any((a.event_id, b.event_id) in linked for a in gaze for b in gestures):
            return "joint category sources are not a linked pair"
    return None


# ---------------------------------------------------------------------------
# generation


def generate_qa(
    graph: SocialGraph,
    budget: int,
    seed: int = 0,
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[QAItem]:
    """Emit up to budget validated items for one graph, deterministically."""
    allowed = {"easy"}
    if len(graph.events) >= config.qa_medium_min_events:
        allowed.add("medium")
    if len(graph.events) >= config.qa_hard_min_events:
        allowed.add("hard")

    items: list[QAItem] = []
    for category, (difficulty, kind, candidates) in CATEGORIES.items():
        if difficulty not in allowed:
            continue
        counter = 0
        for sources, answer_text, phrasings in candidates(graph):
            if len(items) >= budget:
                return items
            item = _build_item(graph, category, difficulty, kind, sources, answer_text,
                               phrasings, counter, seed)
            if item is None or validate_qa(item, graph) is not None:
                continue
            items.append(item)
            counter += 1
    return items


def _build_item(
    graph: SocialGraph, category: str, difficulty: str, kind: str,
    sources: tuple[SocialEvent, ...], answer_text: str, phrasings: tuple[str, ...],
    counter: int, seed: int,
) -> QAItem | None:
    source_ids = tuple(e.event_id for e in sources)
    time_range = (min(e.start_time for e in sources), max(e.end_time for e in sources))
    rng = _item_rng(seed, graph.video_id, category, source_ids)
    question = phrasings[rng.randrange(len(phrasings))]
    if difficulty == "hard" and rng.random() < 0.5:
        fmt, options, answer = "open_ended", None, answer_text
    else:
        built = make_mcq_options(answer_text, graph, kind, rng, window=time_range)
        if built is None:
            return None
        fmt, (options, answer) = "mcq", built
    return QAItem(
        qa_id=f"{graph.video_id}:{category}:{counter}",
        video_id=graph.video_id,
        category=category,
        difficulty=difficulty,
        format=fmt,
        question=question,
        options=options,
        answer=answer,
        answer_text=answer_text,
        source_event_ids=source_ids,
        time_range=time_range,
    )


# Candidate enumerators. Each yields (cited events, canonical answer string,
# phrasings); CATEGORIES names each one's difficulty and distractor kind.


def _events_of(graph: SocialGraph, event_type: str) -> list[SocialEvent]:
    return [e for e in graph.events if e.event_type == event_type]


def _gaze_events(graph: SocialGraph) -> list[SocialEvent]:
    return [e for e in graph.events if e.source != SOURCE_GESTURE]


def _gesture_events(graph: SocialGraph) -> list[SocialEvent]:
    return [e for e in graph.events if e.source == SOURCE_GESTURE]


def _pair_events(graph: SocialGraph):
    for gid, gesid, dist in graph.joint_pairs:
        yield graph.event_by_id(gid), graph.event_by_id(gesid), dist


def _cands_t1(graph):
    for e in _events_of(graph, "mutual_gaze"):
        asked, answer = min(e.participants), max(e.participants)
        mid = _ts(snap_to_grid((e.start_time + e.end_time) / 2.0))
        yield (e,), f"Person {answer}", (
            f"At around {mid} seconds, who is Person {asked} looking at?",
            f"Who is Person {asked} looking at around {mid} seconds?",
        )


def _cands_t2(graph):
    for e in _gaze_events(graph):
        who = _persons_phrase(e.participants)
        start = _ts(e.start_time)
        yield (e,), GAZE_LABELS[e.event_type], (
            f"What best describes the gaze behavior involving {who} around {start} seconds?",
            f"Around {start} seconds, which description fits the gaze behavior of {who}?",
        )


def _cands_t3(graph):
    for e in _events_of(graph, "mutual_gaze"):
        a, b = sorted(e.participants)
        start = _ts(e.start_time)
        yield (e,), f"{e.duration:.1f} seconds", (
            f"How long do Person {a} and Person {b} maintain eye contact starting at "
            f"{start} seconds?",
            f"Starting at {start} seconds, for how long do Person {a} and Person {b} "
            f"hold eye contact?",
        )


def _cands_t4(graph):
    for e in _events_of(graph, "gaze_following"):
        leader, follower = e.roles.get("leader"), e.roles.get("follower")
        if leader is None or follower is None:
            continue
        span = f"between {_ts(e.start_time)} and {_ts(e.end_time)} seconds"
        yield (e,), f"Person {follower}", (
            f"Who follows Person {leader}'s gaze {span}?",
            f"{span.capitalize()}, who looks where Person {leader} was looking?",
        )


def _cands_t5(graph):
    for e in _events_of(graph, "gaze_following"):
        leader = e.roles.get("leader")
        if leader is None:
            continue
        span = f"between {_ts(e.start_time)} and {_ts(e.end_time)} seconds"
        yield (e,), f"Person {leader}", (
            f"In the gaze following event {span}, who looks at the target first?",
            f"One person follows another's gaze {span}. Who looks first?",
        )


def _cands_t6(graph):
    for e in _events_of(graph, "joint_attention"):
        span = f"between {_ts(e.start_time)} and {_ts(e.end_time)} seconds"
        yield (e,), _count_phrase(len(e.participants)), (
            f"How many people look at the same spot {span}?",
            f"{span.capitalize()}, how many people share attention on one spot?",
        )


def _cands_g1(graph):
    for e in _gesture_events(graph):
        target = e.roles.get("target")
        if target is None:
            continue
        verb = GESTURE_VERBS[e.event_type][0]
        init = e.roles["initiator"]
        span = f"between {_ts(e.start_time)} and {_ts(e.end_time)} seconds"
        yield (e,), f"Person {target}", (
            f"{span.capitalize()}, who is Person {init} {verb}?",
            f"Who is Person {init} {verb} {span}?",
        )


def _cands_g2(graph):
    for e in _gesture_events(graph):
        init = e.roles["initiator"]
        start = _ts(e.start_time)
        yield (e,), e.event_type.capitalize(), (
            f"What type of gesture does Person {init} perform at {start} seconds?",
            f"At {start} seconds, which gesture does Person {init} make?",
        )


def _cands_g3(graph):
    gestures = _gesture_events(graph)
    for i, e1 in enumerate(gestures):
        for e2 in gestures[i + 1:]:
            if e1.roles["initiator"] != e2.roles["initiator"]:
                continue
            if e1.event_type == e2.event_type or e1.start_time == e2.start_time:
                continue
            first = e1 if e1.start_time < e2.start_time else e2
            init = e1.roles["initiator"]
            lo = _ts(min(e1.start_time, e2.start_time))
            hi = _ts(max(e1.end_time, e2.end_time))
            yield (e1, e2), first.event_type.capitalize(), (
                f"Between {lo} and {hi} seconds, Person {init} performs two gestures. "
                f"Which happens first?",
                f"Person {init} makes two gestures between {lo} and {hi} seconds. "
                f"Which comes first?",
            )


def _cands_g4(graph):
    gestures = _gesture_events(graph)
    for e1 in gestures:
        for e2 in gestures:
            if e1 is e2 or e1.start_time >= e2.start_time:
                continue
            t1, t2 = e1.roles.get("target"), e2.roles.get("target")
            if t1 is None or t2 is None:
                continue
            if e1.roles["initiator"] != t2 or t1 != e2.roles["initiator"]:
                continue
            a, b = e1.roles["initiator"], t1
            verb = GESTURE_VERBS[e1.event_type][2]
            start = _ts(e1.start_time)
            yield (e1, e2), f"Person {t2}", (
                f"Person {a} {verb} Person {b} at {start} seconds. "
                f"Who does Person {b} direct a gesture at afterwards?",
                f"After Person {a}'s {e1.event_type} gesture at {start} seconds, "
                f"who does Person {b} gesture toward?",
            )


def _cands_g5(graph):
    gestures = _gesture_events(graph)
    if len(gestures) < 2:
        return
    counts = Counter(e.event_type for e in gestures)
    top = max(counts.values())
    modal = [t for t, c in counts.items() if c == top]
    if len(modal) != 1:
        return
    yield tuple(gestures), modal[0].capitalize(), (
        "What is the most common gesture type performed throughout the video clip?",
        "Which gesture type occurs most often in the clip?",
    )


def _cands_g6(graph):
    gestures = _gesture_events(graph)
    for e1 in gestures:
        for e2 in gestures:
            if e1 is e2 or e1.event_type != e2.event_type:
                continue
            if e2.start_time <= e1.start_time:
                continue
            t1, t2 = e1.roles.get("target"), e2.roles.get("target")
            if t1 is None or t2 is None or t1 != e2.roles["initiator"]:
                continue
            a, b = e1.roles["initiator"], t1
            verb = GESTURE_VERBS[e1.event_type][1]
            s1, e1t = _ts(e1.start_time), _ts(e1.end_time)
            yield (e1, e2), f"Person {t2}", (
                f"Person {a} performs a {e1.event_type} gesture toward Person {b} "
                f"between {s1} and {e1t} seconds. Who does Person {b} {verb} next?",
                f"After receiving Person {a}'s {e1.event_type} gesture at {s1} seconds, "
                f"who does Person {b} {verb}?",
            )


def _cands_j1(graph):
    for g, ges, _ in _pair_events(graph):
        if g.start_time == ges.start_time:
            continue
        init = ges.roles["initiator"]
        t = _ts(min(g.start_time, ges.start_time))
        answer = ORDER_GAZE_FIRST if g.start_time < ges.start_time else ORDER_GESTURE_FIRST
        yield (g, ges), answer, (
            f"Around {t} seconds, which starts first: the gaze interaction or "
            f"Person {init}'s {ges.event_type} gesture?",
            f"Does the gaze interaction or Person {init}'s {ges.event_type} gesture "
            f"start first, near {t} seconds?",
        )


def _cands_j2(graph):
    for g, ges, dist in _pair_events(graph):
        if g.event_type != "mutual_gaze" or dist > 0:
            continue
        init = ges.roles["initiator"]
        if init not in g.participants:
            continue
        others = sorted(g.participants - {init})
        if len(others) != 1:
            continue
        t = _ts(ges.start_time)
        yield (g, ges), f"Person {others[0]}", (
            f"Just as Person {init} starts a {ges.event_type} gesture at {t} seconds, "
            f"who are they making eye contact with?",
            f"Who is making eye contact with Person {init} when their "
            f"{ges.event_type} gesture starts at {t} seconds?",
        )


def _cands_j3(graph):
    for g, ges, _ in _pair_events(graph):
        if g.event_type != "joint_attention" or len(g.participants) != 2:
            continue
        if ges.start_time < g.start_time:
            continue
        a, b = sorted(g.participants)
        init = ges.roles["initiator"]
        t = _ts(ges.start_time)
        yield (g, ges), f"Person {a} and Person {b}", (
            f"Right before Person {init} starts a {ges.event_type} gesture at {t} "
            f"seconds, which two people look at the same spot?",
            f"Which two people share attention just before Person {init}'s "
            f"{ges.event_type} gesture at {t} seconds?",
        )


def _cands_j4(graph):
    for g, ges, _ in _pair_events(graph):
        common = g.participants & ges.participants
        if len(common) != 1:
            continue
        t = _ts(ges.start_time)
        yield (g, ges), f"Person {next(iter(common))}", (
            f"Around {t} seconds, who takes part in both the gesture and the gaze "
            f"interaction?",
            f"Who is involved in both the {ges.event_type} gesture and the gaze "
            f"interaction around {t} seconds?",
        )


# The taxonomy, in generation order: category -> (difficulty, distractor
# kind for make_mcq_options, candidate enumerator).
CATEGORIES = {
    "T1": ("easy", "person", _cands_t1),
    "T2": ("easy", "gaze_label", _cands_t2),
    "T3": ("medium", "duration", _cands_t3),
    "T4": ("medium", "person", _cands_t4),
    "T5": ("hard", "person", _cands_t5),
    "T6": ("hard", "count", _cands_t6),
    "G1": ("easy", "person", _cands_g1),
    "G2": ("easy", "gesture_type", _cands_g2),
    "G3": ("medium", "gesture_type", _cands_g3),
    "G4": ("medium", "person", _cands_g4),
    "G5": ("hard", "gesture_type", _cands_g5),
    "G6": ("hard", "person", _cands_g6),
    "J1": ("medium", "order", _cands_j1),
    "J2": ("medium", "person", _cands_j2),
    "J3": ("hard", "person_pair", _cands_j3),
    "J4": ("hard", "person", _cands_j4),
}
CATEGORY_DIFFICULTY = {category: spec[0] for category, spec in CATEGORIES.items()}


# ---------------------------------------------------------------------------
# serialization


QA = Schema("qa", ("qa_id", str), ("video_id", str), ("category", str), ("difficulty", str),
            ("format", str), ("question", str), ("options", Nullable([str]), None),
            ("answer", str), ("answer_text", str), ("source_event_ids", [int]),
            ("time_range", (float, float)))


def qa_item_record(item: QAItem) -> dict:
    """The item's record in QA table order, ``options`` only on an MCQ."""
    record = {key: getattr(item, key) for key in QA.keys}
    if item.format != "mcq":
        del record["options"]
    return record


def serialize_qa_item(item: QAItem) -> str:
    return dumps_canonical(qa_item_record(item))


def parse_qa_item(record: dict, line: int | None = None) -> QAItem:
    (qa_id, video_id, category, difficulty, fmt, question, options, answer, answer_text,
     source_event_ids, time_range) = read_record(record, QA, line)
    if fmt == "mcq" and options is None:
        raise ValidationError("bad qa record: options must be a list on an mcq item", line)
    return QAItem(qa_id, video_id, category, difficulty, fmt, question,
                  None if options is None else tuple(options), answer, answer_text,
                  tuple(source_event_ids), time_range)


def load_qa_items(path) -> list[QAItem]:
    return [parse_qa_item(record, line_no) for line_no, record in read_jsonl(path)]
