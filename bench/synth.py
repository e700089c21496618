"""Seeded input generators owned by the benchmark.

The video, gesture and graph-event generators start from the test suite's
synthetic generator, frozen here so that editing the tests cannot change a
workload. They write the README's JSONL input formats directly and import
nothing from the program, so the input bytes depend on the seed alone.

Persons stand in a row and faces jitter inside their head regions. Scripted
episodes (mutual gaze, joint attention, gaze following, attention capture,
sudden shifts) override a random gaze walk, and noise (missing faces and
gaze, decoy faces below the heads, out-of-frame flags) exercises repair.
"""

from __future__ import annotations

import json
from random import Random

GESTURE_TYPES = ("pointing", "showing", "giving", "reaching")
GAZE_EVENT_TYPES = ("mutual_gaze", "joint_attention", "gaze_following",
                    "attention_capture", "sudden_gaze_shift")


def dumps(record) -> str:
    return json.dumps(record, separators=(",", ":"))


def _clamp(v: float, lo: float = 0.0, hi: float = 1.0) -> float:
    return max(lo, min(hi, v))


def _clamp_point(p):
    return (_clamp(p[0]), _clamp(p[1]))


def _box(x1, y1, x2, y2):
    return [x1, y1, x2, y2]


def _center(box):
    return ((box[0] + box[2]) / 2, (box[1] + box[3]) / 2)


def _face(box, conf, gaze, in_frame):
    return {"box": box, "det_conf": conf,
            "gaze": list(gaze) if gaze is not None else None, "in_frame": in_frame}


def make_video(seed: int, video_id: str, n_persons: int, n_frames: int,
               overlap_share: float = 0.3) -> list[dict]:
    """One video as observation records. With probability overlap_share the
    body boxes overlap their neighbours; with 6 or fewer persons no face
    reaches a neighbour's head region either way."""
    rng = Random(seed)
    slot = 1.0 / n_persons
    overlap_layout = rng.random() < overlap_share
    pad = -0.10 * slot if overlap_layout else 0.02 * slot
    bodies = []
    for i in range(n_persons):
        bodies.append(_box(_clamp(i * slot + pad), 0.30, _clamp((i + 1) * slot - pad), 0.95))

    def face_box(i: int, frame_rng: Random):
        x1, _, x2, _ = bodies[i]
        cx = (x1 + x2) / 2 + frame_rng.uniform(-0.15, 0.15) * (x2 - x1)
        cy = 0.42 + frame_rng.uniform(-0.04, 0.04)
        half = 0.012 + frame_rng.uniform(0.0, 0.01)
        return _box(_clamp(cx - half), _clamp(cy - half),
                    _clamp(cx + half, 0.001), _clamp(cy + half, 0.001))

    gaze_state = [(rng.random(), rng.random()) for _ in range(n_persons)]

    # scripted episodes: kind, window [a, b) in frame indices, persons, params
    episodes = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["mutual", "ja", "follow", "capture", "sudden"])
        start = rng.randrange(2, max(3, n_frames - 8))
        if kind == "mutual" and n_persons >= 2:
            a, b = rng.sample(range(n_persons), 2)
            episodes.append(("mutual", start, start + rng.randint(3, 6), (a, b), None))
        elif kind == "ja" and n_persons >= 2:
            group = rng.sample(range(n_persons), rng.randint(2, n_persons))
            point = (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
            episodes.append(("ja", start, start + rng.randint(2, 5), tuple(group), point))
        elif kind == "follow" and n_persons >= 2:
            leader, follower = rng.sample(range(n_persons), 2)
            point = (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
            lag = rng.choice([2, 3, 4])  # grid steps
            episodes.append(("follow", start, start + lag + 1, (leader, follower), (point, lag)))
        elif kind == "capture" and n_persons >= 3:
            group = rng.sample(range(n_persons), rng.randint(3, n_persons))
            episodes.append(("capture", start, start + 2, tuple(group), None))
        else:
            p = rng.randrange(n_persons)
            episodes.append(("sudden", start, start + rng.randint(2, 3), (p,), None))

    frames = []
    for idx in range(n_frames):
        frame_rng = Random(seed * 100003 + idx)
        forced: dict[int, object] = {}
        must_appear: set[int] = set()
        for kind, a, b, persons, params in episodes:
            if not a <= idx < b:
                continue
            if kind == "mutual":
                pa, pb = persons
                must_appear.update(persons)
                forced[pa] = ("face_of", pb)
                forced[pb] = ("face_of", pa)
            elif kind == "ja":
                must_appear.update(persons)
                for p in persons:
                    forced[p] = _clamp_point((params[0] + frame_rng.uniform(-0.015, 0.015),
                                              params[1] + frame_rng.uniform(-0.015, 0.015)))
            elif kind == "follow":
                leader, follower = persons
                point, lag = params
                if idx == a:
                    must_appear.add(leader)
                    forced[leader] = point
                if idx == a + lag:
                    must_appear.add(follower)
                    forced[follower] = _clamp_point((point[0] + frame_rng.uniform(-0.005, 0.005),
                                                     point[1] + frame_rng.uniform(-0.005, 0.005)))
            elif kind == "capture":
                must_appear.update(persons)
                if idx == a + 1:
                    for p in persons:
                        g = gaze_state[p]
                        forced[p] = _clamp_point((g[0] + 0.35, g[1] + 0.2))
            elif kind == "sudden":
                (p,) = persons
                must_appear.add(p)
                forced[p] = (0.05, 0.05) if (idx - a) % 2 else (0.95, 0.95)

        persons = []
        face_entries = []
        for i in range(n_persons):
            if not (i in must_appear or frame_rng.random() < 0.93):
                continue
            persons.append({"id": i, "box": bodies[i]})
            if not (i in must_appear or frame_rng.random() < 0.85):
                continue
            face_entries.append((i, face_box(i, frame_rng), i in forced or frame_rng.random() < 0.9))

        centers = {i: _center(box) for i, box, _ in face_entries}
        faces = []
        for i, box, has_gaze in face_entries:
            gaze = None
            in_frame = True
            if has_gaze:
                target = forced.get(i)
                if isinstance(target, tuple) and target and target[0] == "face_of":
                    gaze = centers.get(target[1], gaze_state[i])
                elif target is not None:
                    gaze = target
                else:
                    g = gaze_state[i]
                    if frame_rng.random() < 0.08:
                        g = (frame_rng.random(), frame_rng.random())
                    else:
                        g = (g[0] + frame_rng.uniform(-0.03, 0.03),
                             g[1] + frame_rng.uniform(-0.03, 0.03))
                    gaze = _clamp_point(g)
                gaze_state[i] = gaze
                in_frame = frame_rng.random() < 0.97
            conf = frame_rng.uniform(0.9, 1.0)
            if frame_rng.random() < 0.1:
                conf = frame_rng.uniform(0.5, 0.9)
            faces.append(_face(box, conf, gaze, in_frame))

        # decoy face far below every head region
        if frame_rng.random() < 0.15:
            x = frame_rng.uniform(0.1, 0.8)
            faces.append(_face(_box(x, 0.8, x + 0.05, 0.88), frame_rng.uniform(0.6, 1.0),
                               None, False))
        frame_rng.shuffle(faces)
        frames.append({"video_id": video_id, "t": idx * 0.5, "persons": persons, "faces": faces})
    return frames


def contest_frames(frames: list[dict], seed: int, n_persons: int,
                   plan: dict[int, int]) -> None:
    """Rewrite frames so that frame index k of plan holds plan[k] faces, one of
    them straddling the border of two adjacent head regions.

    The straddling face overlaps two persons, so the frame leaves face
    association's conflict-free path; plan[k] decides whether the exact
    solver for up to 12 faces or the wide-frame solver runs. Expects frames
    from make_video with overlap_share 0 and plan values from 2 to n_persons.
    """
    slot = 1.0 / n_persons
    for k, n_faces in sorted(plan.items()):
        rng = Random(seed * 7919 + k)
        frame = frames[k]
        bodies = {i: [i * slot + 0.02 * slot, 0.30, (i + 1) * slot - 0.02 * slot, 0.95]
                  for i in range(n_persons)}
        frame["persons"] = [{"id": i, "box": bodies[i]} for i in range(n_persons)]
        owned = sorted(rng.sample(range(n_persons), n_faces - 1))
        faces = []
        for i in owned:
            x1, _, x2, _ = bodies[i]
            cx = (x1 + x2) / 2 + rng.uniform(-0.1, 0.1) * (x2 - x1)
            cy = 0.42 + rng.uniform(-0.04, 0.04)
            half = 0.010 + rng.uniform(0.0, 0.006)
            gaze = (rng.random(), rng.random()) if rng.random() < 0.9 else None
            faces.append(_face(_box(cx - half, cy - half, cx + half, cy + half),
                               rng.uniform(0.9, 1.0), gaze, rng.random() < 0.97))
        border = rng.randrange(1, n_persons) * slot
        half = 0.012
        cy = 0.42 + rng.uniform(-0.04, 0.04)
        faces.append(_face(_box(border - half, cy - half, border + half, cy + half),
                           rng.uniform(0.6, 1.0), (rng.random(), rng.random()), True))
        rng.shuffle(faces)
        frame["faces"] = faces


def make_gestures(seed: int, video_id: str, person_ids: list[int], duration: float,
                  count: int) -> list[dict]:
    rng = Random(seed)
    gestures = []
    for _ in range(count):
        initiator = rng.choice(person_ids)
        to_person = rng.random() < 0.7 and len(person_ids) >= 2
        target = rng.choice([p for p in person_ids if p != initiator]) if to_person else None
        start = round(rng.uniform(0.0, max(0.5, duration - 2.0)) * 2) / 2
        end = min(duration, start + rng.choice([1.0, 1.5, 2.0, 3.0]))
        gestures.append({
            "video_id": video_id,
            "gesture_type": rng.choice(GESTURE_TYPES),
            "initiator_id": initiator,
            "target_type": "person" if to_person else "object",
            "target_person_id": target,
            "start_time": start,
            "end_time": end,
            "confidence": rng.uniform(0.7, 1.0),
        })
    return gestures


def make_graph_events(seed: int, video_id: str, duration: float = 60.0) -> list[dict]:
    """Gaze event records for the graph stage: 0-28 events over 6 persons."""
    rng = Random(seed)
    events = []
    for i in range(rng.randint(0, 28)):
        etype = rng.choice(GAZE_EVENT_TYPES)
        roles = {}
        if etype in ("mutual_gaze", "gaze_following"):
            parts = rng.sample(range(6), 2)
            if etype == "gaze_following":
                roles = {"follower": parts[1], "leader": parts[0]}
        elif etype == "attention_capture":
            parts = rng.sample(range(6), rng.randint(3, 5))
        elif etype == "joint_attention":
            parts = rng.sample(range(6), rng.randint(2, 5))
        else:
            parts = [rng.randrange(6)]
        start = rng.randrange(0, int(duration * 2) - 10) * 0.5
        end = start + rng.randrange(1, 9) * 0.5
        events.append({
            "video_id": video_id, "event_id": i, "source": "gaze", "event_type": etype,
            "participants": sorted(parts), "roles": roles,
            "start_time": start, "end_time": end,
            "confidence": round(rng.uniform(0.6, 1.0), 3), "attributes": {},
        })
    return events


_WORDS = ("the", "person", "on", "left", "looks", "toward", "then", "turns", "while",
          "others", "watch", "object", "table", "after", "before", "gesture", "points",
          "so", "answer", "is", "likely", "because", "both", "gaze", "at", "same", "time")


def _mention(rng: Random, pid: int) -> str:
    return f"Person {pid}" if rng.random() < 0.6 else f"P{pid}"


def make_rollout(rng: Random, item: dict) -> tuple[str, int, bool]:
    """One reasoning trace for a QA record: (text, think words, follows
    template).

    Think blocks run 5-120 words and mention 0-4 persons inside gaze/gesture
    blocks; one trace in ten breaks the template."""
    words = [rng.choice(_WORDS) for _ in range(rng.randint(5, 120))]
    mentions = [_mention(rng, rng.randrange(6)) for _ in range(rng.randint(0, 4))]
    tag = "gaze" if rng.random() < 0.6 else "gesture"
    cut = rng.randint(0, len(words))
    block = f"<{tag}>{' and '.join(mentions) or 'someone'} {rng.choice(_WORDS)}</{tag}>"
    think = " ".join(words[:cut] + [block] + words[cut:])
    if item["format"] == "mcq":
        answer = item["answer"] if rng.random() < 0.5 else rng.choice("ABCD")
    else:
        answer = item["answer_text"] if rng.random() < 0.5 else rng.choice(_WORDS)
    if rng.random() < 0.1:
        broken = rng.randrange(3)
        if broken == 0:
            return f"{think} so the answer is {answer}", len(words), False
        if broken == 1:
            return f"<think>{think}<answer>{answer}</answer>", len(words), False
        return f"<think>{think}</think>", len(words), False
    return f"<think>{think}</think><answer>{answer}</answer>", len(words), True


def make_traces(seed: int, qa_records: list[dict], groups: int, k: int,
                models: tuple[str, ...]) -> tuple[list[dict], list[tuple[int, bool]]]:
    """Trace groups over the QA records, models assigned round-robin.

    Returns the trace records and (think words, follows template) per
    rollout."""
    rng = Random(seed)
    records = []
    shapes = []
    for g in range(groups):
        item = qa_records[rng.randrange(len(qa_records))]
        rollouts = []
        for _ in range(k):
            text, n_words, ok = make_rollout(rng, item)
            rollouts.append(text)
            shapes.append((n_words, ok))
        records.append({"query_id": f"q{g:05d}", "qa_id": item["qa_id"],
                        "model": models[g % len(models)], "rollouts": rollouts})
    return records, shapes
