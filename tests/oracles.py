"""Independent brute-force oracles for the detectors, the assignment, the
graph's event cap, the trace template, QA answers and the rewards record.
These enumerate candidates literally and re-derive intermediate quantities
from the tracks themselves rather than reusing detector internals.

Two are byte-level references instead: ``dense_association`` and
``following_nested`` keep the dense overlap matrix and the every-leader scan
that face association and gaze following replaced, and build their outputs
with the package's own solver and event builder, so that a property can
compare the outputs whole, floats and order included.
"""

from __future__ import annotations

import math
import re
import statistics
from itertools import permutations

from socialevents.config import DEFAULT_CONFIG, EngineConfig
from socialevents.events import SocialEvent, _event, event_sort_key
from socialevents.gaze import PROV_MEASURED, FrameFeatures, Point
from socialevents.graph import SocialGraph
from socialevents.identity import Association, _assign_lexicographic
from socialevents.ingest import SAMPLE_PERIOD, Box, FrameObservation, to_tick
from helpers import tick


def best_assignment_total(weights: list[list[float]]) -> float:
    """Maximum total weight over all one-to-one partial assignments, found by
    enumerating permutations of the larger side against the smaller."""
    n, m = len(weights), len(weights[0]) if weights else 0
    if n == 0 or m == 0:
        return 0.0
    best = 0.0
    if n <= m:
        for perm in permutations(range(m), n):
            total = sum(max(0.0, weights[i][perm[i]]) for i in range(n)
                        if weights[i][perm[i]] > 0.0)
            best = max(best, total)
    else:
        for perm in permutations(range(n), m):
            total = sum(weights[perm[j]][j] for j in range(m) if weights[perm[j]][j] > 0.0)
            best = max(best, total)
    return best


def assign_dp(weights: list[list[float]]) -> list[tuple[int, int]]:
    """Exact assignment via DP over face bitmasks, reconstructed so that the
    (row, col) pair sequence is lexicographically smallest among optima.
    O(n * 2^m * m): the reference for the face-assignment solver."""
    n = len(weights)
    m = len(weights[0])
    full = (1 << m) - 1

    # best[i][mask]: max total matching rows i.. using only faces in mask
    best = [[0.0] * (full + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = weights[i]
        nxt = best[i + 1]
        cur = best[i]
        for mask in range(full + 1):
            value = nxt[mask]
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                j = bit.bit_length() - 1
                w = row[j]
                if w > 0.0:
                    cand = w + nxt[mask ^ bit]
                    if cand > value:
                        value = cand
            cur[mask] = value

    chosen: list[tuple[int, int]] = []
    mask = full
    for i in range(n):
        target = best[i][mask]
        for j in range(m):
            bit = 1 << j
            if mask & bit and weights[i][j] > 0.0:
                if abs(weights[i][j] + best[i + 1][mask ^ bit] - target) <= 1e-12:
                    chosen.append((i, j))
                    mask ^= bit
                    break
    return chosen


def dense_weights(frame: FrameObservation) -> list[list[float]]:
    """The full persons x faces overlap matrix, persons by ID, each entry
    box_overlap(head_region(person box), face box) as identity computed it
    from unpacked coordinates before it kept only positive overlaps."""
    faces = [(x1, y1, x2, y2, (x2 - x1) * (y2 - y1)) for x1, y1, x2, y2 in
             (f.box for f in frame.faces)]
    weights = []
    for p in sorted(frame.persons, key=lambda p: p.person_id):
        hx1, hy1, hx2, py2 = p.box
        hy2 = (hy1 + py2) / 2.0
        head_area = (hx2 - hx1) * (hy2 - hy1)
        row = []
        for fx1, fy1, fx2, fy2, face_area in faces:
            iw = (fx2 if fx2 < hx2 else hx2) - (fx1 if fx1 > hx1 else hx1)
            ih = (fy2 if fy2 < hy2 else hy2) - (fy1 if fy1 > hy1 else hy1)
            if iw <= 0.0 or ih <= 0.0:
                row.append(0.0)
            else:
                inter = iw * ih
                row.append(inter / (head_area + face_area - inter))
        weights.append(row)
    return weights


def assign_conflict_free(weights: list[list[float]]) -> list[tuple[int, int]] | None:
    """The positive edges when no face or person has two positive-overlap
    candidates (then they are the unique optimal matching), else None."""
    n, m = len(weights), len(weights[0])
    col_hits = [0] * m
    edges: list[tuple[int, int]] = []
    for i in range(n):
        row = weights[i]
        hit = -1
        for j in range(m):
            if row[j] > 0.0:
                if hit >= 0:
                    return None  # person with two candidate faces
                hit = j
        if hit >= 0:
            col_hits[hit] += 1
            if col_hits[hit] > 1:
                return None  # face contested by two persons
            edges.append((i, hit))
    return edges


def assign_components(weights: list[list[float]]) -> list[tuple[int, int]]:
    """Each connected component of the positive-overlap graph, found by a
    union-find over the whole matrix, solved by the package's
    _assign_lexicographic on its dense sub-matrix, lone edges included."""
    n, m = len(weights), len(weights[0])
    parent = list(range(n + m))  # rows 0..n-1, then columns n..n+m-1

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(weights):
        for j, w in enumerate(row):
            if w > 0.0:
                parent[find(i)] = find(n + j)

    components: dict[int, tuple[list[int], list[int]]] = {}
    for i in range(n):
        components.setdefault(find(i), ([], []))[0].append(i)
    for j in range(m):
        components.setdefault(find(n + j), ([], []))[1].append(j)

    chosen: list[tuple[int, int]] = []
    for rows, cols in components.values():
        if not rows or not cols:
            continue  # a person or face with no positive overlap
        sub = [[weights[i][j] for j in cols] for i in rows]
        chosen.extend((rows[a], cols[b]) for a, b in _assign_lexicographic(sub))
    return chosen


def dense_association(frame: FrameObservation) -> Association:
    """identity.match_faces_to_persons as it was with the dense matrix: the
    frame-level conflict-free test, else every component solved."""
    persons = sorted(frame.persons, key=lambda p: p.person_id)
    m = len(frame.faces)
    if not persons or m == 0:
        return Association((), tuple(range(m)))
    weights = dense_weights(frame)
    chosen = assign_conflict_free(weights)
    if chosen is None:
        chosen = assign_components(weights)
    pairs = tuple((persons[i].person_id, j, weights[i][j]) for i, j in sorted(chosen))
    matched = {j for _, j in chosen}
    return Association(pairs, tuple(j for j in range(m) if j not in matched))


# ---------------------------------------------------------------------------
# detector oracles; events are (type, participants tuple, start, end)


def _at(track, t):
    """The track's sample at time t in seconds, or None."""
    return track.sample_at(tick(t))


def _grid(tracks) -> list[float]:
    ts = [s.t for tr in tracks for s in tr.samples]
    if not ts:
        return []
    lo, hi = min(ts), max(ts)
    return [lo + 0.5 * k for k in range(round((hi - lo) / 0.5) + 1)]


def _velocity(track, t) -> float | None:
    cur = _at(track, t)
    prev = _at(track, t - 0.5)
    for s in (cur, prev):
        if s is None or s.gaze_point is None or s.face_center is None:
            return None
    dx = (cur.gaze_point[0] - cur.face_center[0]) - (prev.gaze_point[0] - prev.face_center[0])
    dy = (cur.gaze_point[1] - cur.face_center[1]) - (prev.gaze_point[1] - prev.face_center[1])
    return math.hypot(dx, dy) / 0.5


def features_per_tick(tracks, config: EngineConfig = DEFAULT_CONFIG) -> list[FrameFeatures]:
    """gaze.compute_features tick by tick: each track's _velocity, and the
    convergence of the tick's contributors, re-derived here: a centroid by
    left-to-right folds (the detect bytes' rounding), each contributor's
    distance to it in person-ID order, and exp(-alpha * their median)."""
    spanned = [tr for tr in tracks if tr.samples]
    features = []
    for k in range(min((tr.start for tr in spanned), default=0),
                   max((tr.stop for tr in spanned), default=0)):
        velocities = {}
        points = []
        for tr in tracks:
            v = _velocity(tr, k * 0.5)
            if v is not None:
                velocities[tr.person_id] = v
            s = tr.sample_at(k)
            if s is None or s.gaze_point is None or not s.in_frame or s.confidence <= 0.0:
                continue
            if config.convergence_measured_only and s.provenance != PROV_MEASURED:
                continue
            points.append((tr.person_id, s.gaze_point))
        if len(points) < 2:
            features.append(FrameFeatures(k, velocities, None, None, (), ()))
            continue
        cx = cy = 0.0
        for _, (x, y) in points:
            cx += x
            cy += y
        cx, cy = cx / len(points), cy / len(points)
        points.sort(key=lambda point: point[0])
        dists = tuple(math.hypot(x - cx, y - cy) for _, (x, y) in points)
        score = math.exp(-config.convergence_alpha * statistics.median(dists))
        features.append(FrameFeatures(k, velocities, score, (cx, cy),
                                      tuple(pid for pid, _ in points), dists))
    return features


def oracle_sudden(tracks, config: EngineConfig = DEFAULT_CONFIG) -> list[tuple]:
    events = []
    for tr in tracks:
        flagged = [t for t in _grid([tr])
                   if (v := _velocity(tr, t)) is not None and v > config.sudden_velocity]
        for a, b in _maximal_runs(flagged, config.sudden_cluster_gap):
            if config.sudden_min_duration <= b - a <= config.sudden_max_duration:
                events.append(("sudden_gaze_shift", (tr.person_id,), a, b))
    return sorted(events)


def _maximal_runs(flagged: list[float], max_gap: float) -> list[tuple[float, float]]:
    """Enumerate all (a, b) pairs of flagged times that form a maximal run."""
    out = []
    for a in flagged:
        for b in flagged:
            if b < a:
                continue
            inside = sorted(t for t in flagged if a <= t <= b)
            if any(v - u > max_gap for u, v in zip(inside, inside[1:])):
                continue
            if any(t < a and a - t <= max_gap for t in flagged):
                continue
            if any(t > b and t - b <= max_gap for t in flagged):
                continue
            out.append((a, b))
    return sorted(set(out))


def expand(box: Box, margin: float) -> Box:
    """The box grown by `margin` on every side."""
    return Box(box.x1 - margin, box.y1 - margin, box.x2 + margin, box.y2 + margin)


def contains(box: Box, point: tuple[float, float]) -> bool:
    """Whether the point lies in the box, edges included."""
    x, y = point
    return box.x1 <= x <= box.x2 and box.y1 <= y <= box.y2


def oracle_mutual(tracks, config: EngineConfig = DEFAULT_CONFIG) -> list[tuple]:
    events = []
    margin = config.mutual_margin
    for i, ta in enumerate(tracks):
        for tb in tracks[i + 1:]:
            hits = []
            for t in _grid([ta, tb]):
                sa, sb = _at(ta, t), _at(tb, t)
                if sa is None or sb is None:
                    continue
                if sa.provenance != PROV_MEASURED or sb.provenance != PROV_MEASURED:
                    continue
                if sa.gaze_point is None or sb.gaze_point is None:
                    continue
                if sa.face_box is None or sb.face_box is None:
                    continue
                ea, eb = expand(sa.face_box, margin), expand(sb.face_box, margin)
                if contains(eb, sa.gaze_point) and contains(ea, sb.gaze_point):
                    hits.append(t)
            for a, b in _maximal_runs(hits, 0.5):
                if b - a >= config.mutual_min_duration:
                    events.append((
                        "mutual_gaze", tuple(sorted((ta.person_id, tb.person_id))), a, b
                    ))
    return sorted(events)


def follow_hits(tracks, config: EngineConfig = DEFAULT_CONFIG) -> list[tuple]:
    """Every (leader, follower, t, lag) at which the follower's gaze at t lies
    within follow_distance of the leader's measured gaze at t - lag; the hits
    of one (leader, follower, t) come in increasing lag order."""
    hits = []
    # every grid lag from the minimum to the maximum, both on the 0.5 s grid
    lags = [0.5 * k for k in range(round(config.follow_lag_min / 0.5),
                                   round(config.follow_lag_max / 0.5) + 1)]
    for follower in tracks:
        for t in _grid([follower]):
            cur = _at(follower, t)
            if cur is None or cur.gaze_point is None:
                continue
            for leader in tracks:
                if leader.person_id == follower.person_id:
                    continue
                for lag in lags:
                    past = _at(leader, t - lag)
                    if past is None or past.provenance != PROV_MEASURED:
                        continue
                    if past.gaze_point is None:
                        continue
                    d = math.hypot(cur.gaze_point[0] - past.gaze_point[0],
                                   cur.gaze_point[1] - past.gaze_point[1])
                    if d < config.follow_distance:
                        hits.append((leader.person_id, follower.person_id, t, lag))
    return hits


def oracle_follow(tracks, config: EngineConfig = DEFAULT_CONFIG) -> list[tuple]:
    earliest: dict[tuple, float] = {}  # the earliest qualifying lag wins
    for leader, follower, t, lag in follow_hits(tracks, config):
        earliest.setdefault((leader, follower, t), lag)
    return sorted(
        ("gaze_following", tuple(sorted((leader, follower))), t - lag, t)
        for (leader, follower, t), lag in earliest.items()
    )


def following_nested(tracks, config: EngineConfig = DEFAULT_CONFIG) -> list[SocialEvent]:
    """events.detect_gaze_following as it was before its x-sorted window: every
    follower sample tests every leader measured at each lag's tick, and emits
    the same events, with the same bytes, in the same order."""
    span = max((tr.stop for tr in tracks), default=0) - min((tr.start for tr in tracks), default=0)
    lags = range(to_tick(config.follow_lag_min), min(to_tick(config.follow_lag_max), span) + 1)
    distance = config.follow_distance
    measured_at: dict[int, dict[int, Point]] = {}
    track_of = {}
    for tr in tracks:
        track_of[tr.person_id] = tr
        for s in tr.samples:
            if s.provenance == PROV_MEASURED and s.gaze_point is not None:
                measured_at.setdefault(s.k, {})[tr.person_id] = s.gaze_point
    events = []
    for follower in tracks:
        follower_id = follower.person_id
        for cur in follower.samples:
            if cur.gaze_point is None:
                continue
            k = cur.k
            cx, cy = cur.gaze_point
            done: tuple[int, ...] = ()
            for lag in lags:
                for leader_id, (px, py) in measured_at.get(k - lag, {}).items():
                    dx = cx - px
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


def oracle_capture(tracks, config: EngineConfig = DEFAULT_CONFIG) -> list[tuple]:
    flags = []
    for tr in tracks:
        for t in _grid([tr]):
            v = _velocity(tr, t)
            if v is not None and v > config.capture_velocity:
                flags.append((t, tr.person_id))
    if not flags:
        return []
    width = config.capture_window
    lo = min(t for t, _ in flags) - math.ceil(width / 0.5 - 1e-9) * 0.5
    hi = max(t for t, _ in flags)
    candidates = []
    w = lo
    while w <= hi:
        inside = [(t, p) for t, p in flags if w <= t <= w + width]
        persons = frozenset(p for _, p in inside)
        if len(persons) >= config.capture_min_persons:
            times = [t for t, _ in inside]
            candidates.append({
                "persons": persons, "lo": min(times), "hi": max(times),
                "wlo": w, "whi": w + width,
            })
        w += 0.5

    # fixpoint merge of same-set candidates with intersecting windows
    merged = True
    while merged:
        merged = False
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                a, b = candidates[i], candidates[j]
                if a["persons"] == b["persons"] and \
                        a["wlo"] <= b["whi"] and b["wlo"] <= a["whi"]:
                    a["lo"] = min(a["lo"], b["lo"])
                    a["hi"] = max(a["hi"], b["hi"])
                    a["wlo"] = min(a["wlo"], b["wlo"])
                    a["whi"] = max(a["whi"], b["whi"])
                    del candidates[j]
                    merged = True
                    break
            if merged:
                break
    return sorted(
        ("attention_capture", tuple(sorted(c["persons"])), c["lo"], c["hi"])
        for c in candidates
    )


def oracle_joint_attention(tracks, config: EngineConfig = DEFAULT_CONFIG) -> list[tuple]:
    eligible: dict[float, frozenset[int]] = {}
    for t in _grid(tracks):
        pts = []
        for tr in tracks:
            s = _at(tr, t)
            if s is None or s.gaze_point is None or not s.in_frame or s.confidence <= 0.0:
                continue
            pts.append((tr.person_id, s.gaze_point))
        if len(pts) < 2:
            continue
        cx = sum(p[1][0] for p in pts) / len(pts)
        cy = sum(p[1][1] for p in pts) / len(pts)
        dists = {pid: math.hypot(g[0] - cx, g[1] - cy) for pid, g in pts}
        score = math.exp(-config.convergence_alpha * statistics.median(dists.values()))
        if score < config.ja_convergence:
            continue
        cutoff = config.ja_peripheral_mult * statistics.median(dists.values())
        retained = frozenset(pid for pid, d in dists.items() if d <= cutoff)
        if len(retained) >= 2:
            eligible[t] = retained

    overlap = config.ja_set_overlap
    times = sorted(eligible)
    events = []
    for a in times:
        for b in times:
            if b < a:
                continue
            chain = [t for t in times if a <= t <= b]
            expected = [a + 0.5 * k for k in range(round((b - a) / 0.5) + 1)]
            if chain != expected:
                continue
            if any(_jac(eligible[u], eligible[v]) < overlap
                   for u, v in zip(chain, chain[1:])):
                continue
            # maximality on both sides
            if a - 0.5 in eligible and _jac(eligible[a - 0.5], eligible[a]) >= overlap:
                continue
            if b + 0.5 in eligible and _jac(eligible[b], eligible[b + 0.5]) >= overlap:
                continue
            if b - a < config.ja_min_duration:
                continue
            participants: set[int] = set()
            for t in chain:
                participants.update(eligible[t])
            events.append(("joint_attention", tuple(sorted(participants)), a, b))
    return sorted(set(events))


def _jac(a, b) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 1.0


def oracle_all(tracks, config: EngineConfig = DEFAULT_CONFIG) -> list[tuple]:
    events = []
    events.extend(oracle_sudden(tracks, config))
    events.extend(oracle_joint_attention(tracks, config))
    events.extend(oracle_follow(tracks, config))
    events.extend(oracle_capture(tracks, config))
    events.extend(oracle_mutual(tracks, config))
    return sorted(events)


def detector_view(events) -> list[tuple]:
    return sorted(
        (e.event_type, tuple(sorted(e.participants)), e.start_time, e.end_time)
        for e in events
    )


# ---------------------------------------------------------------------------
# QA answer recovery from cited events alone

_LABELS = {
    "mutual_gaze": "Making eye contact",
    "joint_attention": "Looking at the same thing",
    "gaze_following": "Following another person's gaze",
    "attention_capture": "Several people turning to look at once",
    "sudden_gaze_shift": "A quick gaze shift",
}


def recover_answer(category: str, events: list) -> str:
    """Reconstruct the expected answer text from the cited events only."""
    if category == "T1":
        return f"Person {max(events[0].participants)}"
    if category == "T2":
        return _LABELS[events[0].event_type]
    if category == "T3":
        e = events[0]
        return f"{e.end_time - e.start_time:.1f} seconds"
    if category == "T4":
        return f"Person {events[0].roles['follower']}"
    if category == "T5":
        return f"Person {events[0].roles['leader']}"
    if category == "T6":
        n = len(events[0].participants)
        return "1 person" if n == 1 else f"{n} people"
    if category == "G1":
        return f"Person {events[0].roles['target']}"
    if category == "G2":
        return events[0].event_type.capitalize()
    if category == "G3":
        first = min(events, key=lambda e: e.start_time)
        return first.event_type.capitalize()
    if category == "G4":
        later = max(events, key=lambda e: e.start_time)
        return f"Person {later.roles['target']}"
    if category == "G5":
        counts = {}
        for e in events:
            counts[e.event_type] = counts.get(e.event_type, 0) + 1
        top = max(counts.values())
        modal = [t for t, c in counts.items() if c == top]
        assert len(modal) == 1
        return modal[0].capitalize()
    if category == "G6":
        later = max(events, key=lambda e: e.start_time)
        return f"Person {later.roles['target']}"
    gaze = next(e for e in events if e.source == "gaze")
    gesture = next(e for e in events if e.source == "gesture")
    if category == "J1":
        assert gaze.start_time != gesture.start_time
        return ("The gaze event starts first" if gaze.start_time < gesture.start_time
                else "The gesture starts first")
    if category == "J2":
        others = sorted(gaze.participants - {gesture.roles["initiator"]})
        return f"Person {others[0]}"
    if category == "J3":
        a, b = sorted(gaze.participants)
        return f"Person {a} and Person {b}"
    if category == "J4":
        (common,) = gaze.participants & gesture.participants
        return f"Person {common}"
    raise AssertionError(f"unknown category {category}")


def oracle_joint_pairs(events, bound: float) -> list[tuple]:
    """graph.link_joint_pairs by testing every gaze event against every
    gesture: the gap between their nearest endpoints, 0 where they overlap,
    at most the bound plus 1e-9, ordered by the two event IDs."""
    pairs = []
    for g in events:
        if g.source == "gesture":
            continue
        for h in events:
            if h.source != "gesture":
                continue
            gap = max(0.0, max(g.start_time, h.start_time) - min(g.end_time, h.end_time))
            if gap <= bound + 1e-9:
                pairs.append((g.event_id, h.event_id, gap))
    return sorted(pairs, key=lambda p: p[:2])


def oracle_prune(graph: SocialGraph, config: EngineConfig = DEFAULT_CONFIG) -> SocialGraph:
    """The reference for graph.prune_graph, tier by tier as its docstring
    reads: cap the graph at the event limit, never orphaning a linked pair.

    Selection tiers: (1) events in joint pairs, dropping whole pairs by
    ascending minimum confidence if they alone exceed the cap; (2) the best
    unlinked event of each event type; (3) remaining unlinked events by
    descending confidence.
    """
    cap = config.max_graph_events
    events = sorted(graph.events, key=lambda e: (event_sort_key(e), e.event_id))
    if len(events) <= cap:
        return SocialGraph(graph.video_id, graph.duration, events, sorted(graph.joint_pairs))

    by_id = {e.event_id: e for e in events}
    pairs = sorted(graph.joint_pairs)
    protected_ids = {eid for gid, gesid, _ in pairs for eid in (gid, gesid)}

    if len(protected_ids) > cap:
        # Drop whole pairs, weakest first, until the protected set fits.
        surviving = list(pairs)
        surviving.sort(
            key=lambda p: (min(by_id[p[0]].confidence, by_id[p[1]].confidence), p[0], p[1])
        )
        while True:
            ids = {eid for gid, gesid, _ in surviving for eid in (gid, gesid)}
            if len(ids) <= cap:
                break
            surviving.pop(0)
        kept_ids = ids
        kept_pairs = sorted(surviving)
    else:
        kept_ids = set(protected_ids)
        kept_pairs = pairs
        free = [e for e in events if e.event_id not in protected_ids]
        budget = cap - len(kept_ids)

        # One diversity slot per event type, strongest types first.
        pools: dict[str, list[SocialEvent]] = {}
        for event in free:
            pools.setdefault(event.event_type, []).append(event)
        for pool in pools.values():
            pool.sort(key=lambda e: (-e.confidence, e.start_time, e.event_id))
        type_order = sorted(pools, key=lambda t: (-pools[t][0].confidence, t))
        for event_type in type_order:
            if budget == 0:
                break
            kept_ids.add(pools[event_type][0].event_id)
            budget -= 1

        rest = [e for e in free if e.event_id not in kept_ids]
        rest.sort(key=lambda e: (-e.confidence, e.start_time, e.event_id))
        for event in rest[:budget]:
            kept_ids.add(event.event_id)

    kept_events = [e for e in events if e.event_id in kept_ids]
    return SocialGraph(graph.video_id, graph.duration, kept_events, kept_pairs)


_TAG_RE = re.compile(r"</?(think|gaze|gesture|answer)>")


def check_template(raw: str) -> bool:
    """The trace template as a state machine over the tags: one think block,
    then one answer block, sub-tags nested inside think, nothing but
    whitespace outside."""
    tags = list(_TAG_RE.finditer(raw))
    state = "start"
    cursor = 0
    for match in tags:
        outside = raw[cursor:match.start()]
        token = match.group(0)
        if state == "start":
            if token != "<think>" or outside.strip():
                return False
            state = "think"
        elif state == "think":
            if token == "<gaze>":
                state = "gaze"
            elif token == "<gesture>":
                state = "gesture"
            elif token == "</think>":
                state = "between"
            else:
                return False
        elif state == "gaze":
            if token != "</gaze>":
                return False
            state = "think"
        elif state == "gesture":
            if token != "</gesture>":
                return False
            state = "think"
        elif state == "between":
            if token != "<answer>" or outside.strip():
                return False
            state = "answer"
        elif state == "answer":
            if token != "</answer>":
                return False
            state = "done"
        else:  # done: no tags allowed past the answer
            return False
        cursor = match.end()
    return state == "done" and not raw[cursor:].strip()


_THINK_RE = re.compile(r"<think>(.*?)</think>", re.DOTALL)
_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)
_GAZE_RE = re.compile(r"<gaze>(.*?)</gaze>", re.DOTALL)
_GESTURE_RE = re.compile(r"<gesture>(.*?)</gesture>", re.DOTALL)


def regex_blocks(raw: str) -> tuple:
    """(think, gaze blocks, gesture blocks, answer) of a trace as four lazy
    regexes find them: the first think and answer block in the raw text, and
    every gaze and gesture block within the think block, or within the raw
    text when there is none. Quadratic on unclosed tags, so only for short
    traces."""
    think = _THINK_RE.search(raw)
    think_block = think.group(1) if think else None
    answer = _ANSWER_RE.search(raw)
    scope = think_block if think_block is not None else raw
    return (think_block, tuple(_GAZE_RE.findall(scope)), tuple(_GESTURE_RE.findall(scope)),
            answer.group(1) if answer else None)


_PERSON_WORD_RE = re.compile(r"\bperson\s+(\d+)\b", re.IGNORECASE)
_PERSON_SHORT_RE = re.compile(r"\bP(\d+)\b")


def regex_person_ids(text: str) -> list[int]:
    """Every person token's ID, one regex per token form: "Person N" tokens
    first, then "PN" tokens."""
    return [int(m.group(1)) for regex in (_PERSON_WORD_RE, _PERSON_SHORT_RE)
            for m in regex.finditer(text)]


def regex_replace_person_ids(text: str, mapping: dict[int, int]) -> str:
    """Rewrite "Person N" tokens through mapping, then "PN" tokens."""

    def _sub(match: re.Match) -> str:
        prefix = match.group(0)[: match.start(1) - match.start(0)]
        return prefix + str(mapping[int(match.group(1))])

    return _PERSON_SHORT_RE.sub(_sub, _PERSON_WORD_RE.sub(_sub, text))


def rewards_record(query_id: str, qa_id: str, model: str, scored, gt: set[int],
                   asked: set[int]) -> dict:
    """A trace group's rewards.jsonl record as a dict in key order, each
    value derived from the scored rollouts and the group's sets: the
    overlap from ``gt``, the think tokens from ``str.split``. The reward
    stage writes ``dumps_canonical`` of it."""
    per_rollout = []
    for s in scored:
        pred = s.breakdown.pred_participants
        hits = len(pred & gt)
        well_formed = s.trace.well_formed and s.trace.think_block is not None
        per_rollout.append({
            "r_acc": s.breakdown.r_acc,
            "r_fmt": s.breakdown.r_fmt,
            "r_str": s.breakdown.r_str,
            "r_gnd": s.breakdown.r_gnd,
            "total": s.breakdown.total,
            "advantage": s.advantage,
            "pred_participants": sorted(pred),
            "n_pred": len(pred),
            "n_correct": hits,
            "grounding_precision": hits / len(pred) if pred else None,
            "novel_participants": len(pred - asked),
            "think_tokens": len((s.trace.think_block if well_formed else s.trace.raw).split()),
            "well_formed": well_formed,
        })
    return {"query_id": query_id, "qa_id": qa_id, "model": model, "per_rollout": per_rollout}
