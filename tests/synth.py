"""Synthetic multi-person videos with scripted social episodes.

Persons stand in a row; faces jitter inside their head regions. Episodes
(mutual gaze, joint attention, gaze following, attention capture, sudden
shifts) override the random gaze walk so that every detector has something
to find, and noise (missing faces, missing gaze, decoy faces, out-of-frame
flags) exercises the repair and association paths.
"""

from __future__ import annotations

from random import Random

from socialevents.ingest import (
    Box,
    FaceMeasurement,
    FrameObservation,
    GestureAnnotation,
    PersonBox,
    dumps_canonical,
)


def _clamp(v: float, lo: float = 0.0, hi: float = 1.0) -> float:
    return max(lo, min(hi, v))


def _clamp_point(p):
    return (_clamp(p[0]), _clamp(p[1]))


def make_video(
    seed: int,
    video_id: str | None = None,
    min_persons: int = 2,
    max_persons: int = 6,
    min_frames: int = 10,
    max_frames: int = 60,
) -> list[FrameObservation]:
    rng = Random(seed)
    n_persons = rng.randint(min_persons, max_persons)
    n_frames = rng.randint(min_frames, max_frames)
    video_id = video_id or f"synth-{seed}"

    slot = 1.0 / n_persons
    overlap_layout = rng.random() < 0.3
    pad = -0.10 * slot if overlap_layout else 0.02 * slot
    bodies = []
    for i in range(n_persons):
        x1 = _clamp(i * slot + pad)
        x2 = _clamp((i + 1) * slot - pad)
        bodies.append(Box(x1, 0.30, x2, 0.95))

    def face_box(i: int, frame_rng: Random) -> Box:
        body = bodies[i]
        cx = (body.x1 + body.x2) / 2 + frame_rng.uniform(-0.15, 0.15) * (body.x2 - body.x1)
        cy = 0.42 + frame_rng.uniform(-0.04, 0.04)
        half = 0.012 + frame_rng.uniform(0.0, 0.01)
        return Box(
            _clamp(cx - half), _clamp(cy - half), _clamp(cx + half, 0.001), _clamp(cy + half, 0.001)
        )

    # free gaze walk
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
    for idx in range(n_frames):  # the frame index is its grid tick
        frame_rng = Random(seed * 100003 + idx)

        forced: dict[int, tuple[float, float]] = {}
        must_appear: set[int] = set()
        for kind, a, b, persons, params in episodes:
            if not a <= idx < b:
                continue
            if kind == "mutual":
                pa, pb = persons
                must_appear.update(persons)
                # aimed at each other's face centers; boxes jitter, so fix
                # the hit by aiming at this frame's actual face centers later
                forced[pa] = ("face_of", pb)
                forced[pb] = ("face_of", pa)
            elif kind == "ja":
                must_appear.update(persons)
                for p in persons:
                    point = params
                    forced[p] = _clamp_point(
                        (point[0] + frame_rng.uniform(-0.015, 0.015),
                         point[1] + frame_rng.uniform(-0.015, 0.015))
                    )
            elif kind == "follow":
                leader, follower = persons
                point, lag = params
                if idx == a:
                    must_appear.add(leader)
                    forced[leader] = point
                if idx == a + lag:
                    must_appear.add(follower)
                    forced[follower] = _clamp_point(
                        (point[0] + frame_rng.uniform(-0.005, 0.005),
                         point[1] + frame_rng.uniform(-0.005, 0.005))
                    )
            elif kind == "capture":
                must_appear.update(persons)
                if idx == a + 1:
                    for p in persons:
                        g = gaze_state[p]
                        forced[p] = _clamp_point((g[0] + 0.35, g[1] + 0.2))
            elif kind == "sudden":
                (p,) = persons
                must_appear.add(p)
                corner = (0.05, 0.05) if (idx - a) % 2 else (0.95, 0.95)
                forced[p] = corner

        persons = []
        faces = []
        face_entries = []
        for i in range(n_persons):
            present = i in must_appear or frame_rng.random() < 0.93
            if not present:
                continue
            persons.append(PersonBox(i, bodies[i]))
            has_face = i in must_appear or frame_rng.random() < 0.85
            if not has_face:
                continue
            box = face_box(i, frame_rng)
            has_gaze = i in forced or frame_rng.random() < 0.9
            face_entries.append((i, box, has_gaze))

        centers = {i: box.center for i, box, _ in face_entries}
        for i, box, has_gaze in face_entries:
            gaze = None
            in_frame = True
            if has_gaze:
                target = forced.get(i)
                if isinstance(target, tuple) and target and target[0] == "face_of":
                    other = target[1]
                    gaze = centers.get(other, gaze_state[i])
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
            faces.append(FaceMeasurement(box, conf, gaze, in_frame))

        # decoy face far below every head region
        if frame_rng.random() < 0.15:
            x = frame_rng.uniform(0.1, 0.8)
            faces.append(FaceMeasurement(
                Box(x, 0.8, x + 0.05, 0.88), frame_rng.uniform(0.6, 1.0), None, False
            ))
        frame_rng.shuffle(faces)
        frames.append(FrameObservation(video_id, idx, tuple(persons), tuple(faces)))
    return frames


def make_gestures(
    seed: int, video_id: str, person_ids: list[int], duration: float, count: int | None = None
) -> list[GestureAnnotation]:
    rng = Random(seed)
    if count is None:
        count = rng.randint(0, 6)
    gestures = []
    for _ in range(count):
        initiator = rng.choice(person_ids)
        to_person = rng.random() < 0.7 and len(person_ids) >= 2
        if to_person:
            target = rng.choice([p for p in person_ids if p != initiator])
        start = round(rng.uniform(0.0, max(0.5, duration - 2.0)) * 2) / 2
        end = min(duration, start + rng.choice([1.0, 1.5, 2.0, 3.0]))
        gestures.append(GestureAnnotation(
            video_id=video_id,
            gesture_type=rng.choice(["pointing", "showing", "giving", "reaching"]),
            initiator_id=initiator,
            target_type="person" if to_person else "object",
            target_person_id=target if to_person else None,
            start_time=start,
            end_time=end,
            confidence=rng.uniform(0.7, 1.0),
        ))
    return gestures


def make_graph(seed: int, video_id: str | None = None, duration: float = 60.0):
    """Random but invariant-satisfying social graph via the real constructor."""
    from socialevents.events import SocialEvent
    from socialevents.graph import build_graph

    rng = Random(seed)
    video_id = video_id or f"graph-{seed}"
    gaze_types = ("mutual_gaze", "joint_attention", "gaze_following",
                  "attention_capture", "sudden_gaze_shift")
    events = []
    for i in range(rng.randint(0, 28)):
        etype = rng.choice(gaze_types)
        roles = {}
        if etype == "mutual_gaze" or etype == "gaze_following":
            parts = rng.sample(range(6), 2)
            if etype == "gaze_following":
                roles = {"leader": parts[0], "follower": parts[1]}
        elif etype == "attention_capture":
            parts = rng.sample(range(6), rng.randint(3, 5))
        elif etype == "joint_attention":
            parts = rng.sample(range(6), rng.randint(2, 5))
        else:
            parts = [rng.randrange(6)]
        start = rng.randrange(0, int(duration * 2) - 10) * 0.5
        end = start + rng.randrange(1, 9) * 0.5
        events.append(SocialEvent(
            event_id=i, source="gaze", event_type=etype,
            participants=frozenset(parts), roles=roles,
            start_time=start, end_time=end,
            confidence=round(rng.uniform(0.6, 1.0), 3),
        ))
    person_ids = list(range(6))
    gestures = make_gestures(seed + 1, video_id, person_ids, duration,
                             count=rng.randint(0, 8))
    return build_graph(video_id, duration, events, gestures)


def serialize_frame(frame: FrameObservation) -> str:
    record = {
        "video_id": frame.video_id,
        "t": frame.t,
        "persons": [{"id": p.person_id, "box": list(p.box)} for p in frame.persons],
        "faces": [
            {
                "box": list(f.box),
                "det_conf": f.det_confidence,
                "gaze": list(f.gaze_point) if f.gaze_point is not None else None,
                "in_frame": f.gaze_in_frame,
            }
            for f in frame.faces
        ],
    }
    return dumps_canonical(record)


def serialize_gesture(gesture: GestureAnnotation) -> str:
    record = {
        "video_id": gesture.video_id,
        "gesture_type": gesture.gesture_type,
        "initiator_id": gesture.initiator_id,
        "target_type": gesture.target_type,
        "target_person_id": gesture.target_person_id,
        "start_time": gesture.start_time,
        "end_time": gesture.end_time,
        "confidence": gesture.confidence,
    }
    return dumps_canonical(record)


def write_observations(frames, path):
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            fh.write(serialize_frame(frame) + "\n")


def write_gestures(gestures, path):
    with open(path, "w", encoding="utf-8") as fh:
        for gesture in gestures:
            fh.write(serialize_gesture(gesture) + "\n")


_WORDS = ("the", "person", "looks", "left", "then", "right", "toward", "object",
          "answer", "because", "both", "gaze", "same", "time", "points", "hand")


def _rollout(rng: Random, item) -> str:
    """One reasoning trace for a QA item.

    One trace in five mentions no person (it predicts no one) and one in ten
    breaks the template. MCQ answers come as the correct letter, as the
    correct option's text (the alias path) or as a random letter."""
    words = [rng.choice(_WORDS) for _ in range(rng.randint(3, 30))]
    if rng.random() < 0.2:
        mentions = []
    else:
        mentions = [f"Person {pid}" if rng.random() < 0.5 else f"P{pid}"
                    for pid in rng.sample(range(6), rng.randint(1, 3))]
    tag = "gaze" if rng.random() < 0.6 else "gesture"
    cut = rng.randint(0, len(words))
    block = f"<{tag}>{' and '.join(mentions) or 'someone'} {rng.choice(_WORDS)}</{tag}>"
    think = " ".join(words[:cut] + [block] + words[cut:])
    pick = rng.random()
    if item.format == "mcq":
        answer = item.answer if pick < 0.35 else item.answer_text if pick < 0.7 \
            else rng.choice("ABCD")
    else:
        answer = item.answer_text if pick < 0.5 else rng.choice(_WORDS)
    if rng.random() < 0.1:
        broken = rng.randrange(3)
        if broken == 0:
            return f"{think} so the answer is {answer}"
        if broken == 1:
            return f"<think>{think}<answer>{answer}</answer>"
        return f"<think>{think}</think>"
    return f"<think>{think}</think><answer>{answer}</answer>"


def make_traces(seed: int, items, groups: int, k: int = 8,
                models: tuple[str, ...] = ("model-a", "model-b", "model-c")) -> list[dict]:
    """traces.jsonl records: groups of k rollouts over random QA items, with
    the models assigned round-robin."""
    rng = Random(seed)
    records = []
    for g in range(groups):
        item = items[rng.randrange(len(items))]
        records.append({
            "query_id": f"q{g:03d}", "qa_id": item.qa_id, "model": models[g % len(models)],
            "rollouts": [_rollout(rng, item) for _ in range(k)],
        })
    return records
