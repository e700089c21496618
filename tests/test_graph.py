import dataclasses
import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialevents.config import DEFAULT_CONFIG
from socialevents.events import SOURCE_GESTURE
from socialevents.graph import (
    SocialGraph,
    build_graph,
    deduplicate,
    filter_events,
    gesture_to_event,
    interval_distance,
    link_joint_pairs,
    parse_graph,
    prune_graph,
    serialize_graph,
    snap_timestamps,
)
from socialevents.ingest import GestureAnnotation
from helpers import event
from oracles import oracle_joint_pairs, oracle_prune

GAZE_TYPES = ("mutual_gaze", "joint_attention", "gaze_following",
              "attention_capture", "sudden_gaze_shift")
GESTURE_TYPES = ("pointing", "showing", "giving", "reaching")


class TestFilter:
    def test_gaze_threshold(self):
        kept = filter_events([event(0, conf=0.92), event(1, conf=0.89)])
        assert [e.event_id for e in kept] == [0]

    def test_gesture_boundary_inclusive(self):
        kept = filter_events([event(0, "pointing", conf=0.85)])
        assert len(kept) == 1

    def test_gaze_boundary_inclusive(self):
        kept = filter_events([event(0, conf=0.9)])
        assert len(kept) == 1

    def test_empty(self):
        assert filter_events([]) == []


class TestSnap:
    def test_round_down(self):
        snapped = snap_timestamps(event(0, start=2.74, end=4.0), duration=60.0)
        assert snapped.start_time == 2.5

    def test_half_rounds_up(self):
        snapped = snap_timestamps(event(0, start=2.75, end=4.0), duration=60.0)
        assert snapped.start_time == 3.0

    def test_beyond_duration_removed(self):
        assert snap_timestamps(event(0, start=58.0, end=61.0), duration=60.0) is None

    def test_collapsed_interval_extended(self):
        snapped = snap_timestamps(event(0, start=2.4, end=2.6), duration=60.0)
        assert (snapped.start_time, snapped.end_time) == (2.5, 3.0)

    def test_confidence_untouched(self):
        snapped = snap_timestamps(event(0, start=2.74, end=4.1, conf=0.88), duration=60.0)
        assert snapped.confidence == 0.88

    def test_filter_snap_commute(self):
        rng = random.Random(0)
        for _ in range(200):
            events = [
                event(i, rng.choice(GAZE_TYPES + GESTURE_TYPES),
                      start=rng.uniform(0, 50), end=rng.uniform(50, 58),
                      conf=rng.random())
                for i in range(10)
            ]
            a = [snap_timestamps(e, 60.0) for e in filter_events(events)]
            b = filter_events([s for e in events if (s := snap_timestamps(e, 60.0))])
            assert [x for x in a if x] == b


class TestDeduplicate:
    def test_overlapping_same_type_participants(self):
        first = event(0, start=2.0, end=3.5, conf=0.95)
        second = event(1, start=3.0, end=4.0, conf=0.91)
        assert deduplicate([first, second]) == [first]

    def test_different_participants_kept(self):
        a = event(0, parts=(0, 1), start=2.0, end=3.5)
        b = event(1, parts=(0, 2), start=2.0, end=3.5)
        assert len(deduplicate([a, b])) == 2

    def test_disjoint_windows_kept(self):
        a = event(0, start=2.0, end=3.0)
        b = event(1, start=4.0, end=5.0)
        assert len(deduplicate([a, b])) == 2

    def test_touching_windows_not_duplicates(self):
        a = event(0, start=2.0, end=3.0)
        b = event(1, start=3.0, end=4.0)
        assert len(deduplicate([a, b])) == 2

    def test_tie_broken_by_earliest_start_then_id(self):
        a = event(3, start=2.0, end=3.0, conf=0.9)
        b = event(1, start=2.5, end=3.5, conf=0.9)
        assert deduplicate([a, b]) == [a]
        c = event(5, start=2.0, end=3.0, conf=0.9)
        d = event(2, start=2.0, end=3.5, conf=0.9)
        assert deduplicate([c, d]) == [d]

    def test_chained_overlap_collapses_to_one(self):
        chain = [
            event(0, start=0.0, end=2.0, conf=0.90),
            event(1, start=1.5, end=3.5, conf=0.99),
            event(2, start=3.0, end=5.0, conf=0.92),
        ]
        assert deduplicate(chain) == [chain[1]]


class TestJointPairs:
    def test_gap_linked(self):
        gaze = event(0, start=2.0, end=4.0)
        gesture = event(1, "pointing", start=6.5, end=8.0)
        (pair,) = link_joint_pairs([gaze, gesture])
        assert pair == (0, 1, 2.5)

    def test_gap_beyond_bound(self):
        gaze = event(0, start=2.0, end=4.0)
        gesture = event(1, "pointing", start=7.5, end=8.0)
        assert link_joint_pairs([gaze, gesture]) == []

    def test_overlap_distance_zero(self):
        gaze = event(0, start=2.0, end=4.0)
        gesture = event(1, "pointing", start=3.0, end=6.0)
        (pair,) = link_joint_pairs([gaze, gesture])
        assert pair == (0, 1, 0.0)

    def test_boundary_inclusive(self):
        gaze = event(0, start=2.0, end=4.0)
        gesture = event(1, "pointing", start=7.0, end=8.0)
        (pair,) = link_joint_pairs([gaze, gesture])
        assert pair[2] == 3.0

    def test_interval_distance_symmetry(self):
        a = event(0, start=1.0, end=2.0)
        b = event(1, start=4.5, end=6.0)
        assert interval_distance(a, b) == interval_distance(b, a) == 2.5


@st.composite
def linkable_events(draw):
    """Gaze events and gestures near 0, 2**40 or +-2**51 s, where floats
    are spaced up to 0.5 s apart: on the grid or not, up to 1e5 s long."""
    base = draw(st.sampled_from((0.0, 2.0 ** 40, 2.0 ** 51, -2.0 ** 51)))
    offsets = st.integers(-60, 60).map(lambda i: i * 0.5) | st.floats(-30.0, 30.0)
    lengths = st.integers(0, 12).map(lambda i: i * 0.5) | st.floats(0.0, 1e5)
    drawn = draw(st.lists(st.tuples(st.booleans(), offsets, lengths), max_size=24))
    return [event(i, "pointing" if gesture else "mutual_gaze", start=base + offset,
                  end=base + offset + length)
            for i, (gesture, offset, length) in enumerate(drawn)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(events=linkable_events(), bound=st.sampled_from((0.0, 0.5, 3.0, 1000.0)))
@example(events=[event(0, "pointing", start=1e-9, end=2 / 3), event(1, start=-1.0, end=-0.1)],
         bound=0.1).via("-0.1 + (0.1 + 1e-9) rounds below the gesture's start 1e-9")
def test_pair_linking_matches_the_nested_loop(events, bound):
    """Each gaze event tests only the gestures in its window of starts and
    finds the pairs that testing every gesture finds; the window's margin
    keeps a gesture on its rounded edge."""
    config = dataclasses.replace(DEFAULT_CONFIG, pair_max_distance=bound)
    assert link_joint_pairs(events, config) == oracle_joint_pairs(events, bound)


def graph_of(events, pairs=None, duration=100.0):
    return SocialGraph("v", duration, list(events), list(pairs or []))


class TestPrune:
    def test_under_cap_identity(self):
        events = [event(i, start=float(i), end=i + 1.0) for i in range(20)]
        g = prune_graph(graph_of(events))
        assert len(g.events) == 20

    def test_protected_pairs_survive(self):
        # 8 protected events in 4 pairs, 22 fillers: cap 25 keeps all protected
        events = []
        pairs = []
        for k in range(4):
            gaze = event(k * 2, "mutual_gaze", start=10.0 * k, end=10.0 * k + 1, conf=0.91)
            gesture = event(k * 2 + 1, "pointing", start=10.0 * k + 1.5, end=10.0 * k + 3,
                            conf=0.86)
            events += [gaze, gesture]
            pairs.append((k * 2, k * 2 + 1, 0.5))
        for i in range(22):
            events.append(event(100 + i, "sudden_gaze_shift", parts=(i % 3,),
                                start=50.0 + i, end=51.0 + i, conf=0.99 - i * 0.001))
        g = prune_graph(graph_of(events, pairs))
        kept = {e.event_id for e in g.events}
        assert len(g.events) == 25
        assert all(eid in kept for k in range(4) for eid in (k * 2, k * 2 + 1))
        assert g.joint_pairs == pairs

    def test_protected_overflow_drops_whole_pairs(self):
        # 15 disjoint pairs = 30 protected events; lowest-confidence pairs go
        events = []
        pairs = []
        for k in range(15):
            conf = 0.90 + k * 0.005
            gaze = event(k * 2, "mutual_gaze", start=10.0 * k, end=10.0 * k + 1.0,
                         conf=conf)
            gesture = event(k * 2 + 1, "pointing", start=10.0 * k + 1.5,
                            end=10.0 * k + 2.5, conf=min(1.0, conf + 0.01))
            events += [gaze, gesture]
            pairs.append((k * 2, k * 2 + 1, 0.5))
        g = prune_graph(graph_of(events, pairs))
        assert len(g.events) == 24  # 12 whole pairs
        kept = {e.event_id for e in g.events}
        # the three weakest pairs (k = 0, 1, 2) were dropped whole
        for k in range(3):
            assert k * 2 not in kept and k * 2 + 1 not in kept
        surviving_ids = {eid for gid, gesid, _ in g.joint_pairs for eid in (gid, gesid)}
        assert surviving_ids == kept  # no orphaned sides

    def test_overflow_with_shared_pair_events(self):
        # one gaze event linked to 30 gestures: protected = 31 events; whole
        # pair drops must keep the shared gaze side alive until its last pair
        events = [event(0, "mutual_gaze", parts=(0, 1), start=0.0, end=50.0, conf=0.99)]
        pairs = []
        for k in range(30):
            events.append(event(
                1 + k, "pointing", parts=(2, 3), start=1.0 + k, end=2.0 + k,
                conf=0.86 + k * 0.001,
            ))
            pairs.append((0, 1 + k, 0.0))
        g = prune_graph(graph_of(events, pairs))
        kept = {e.event_id for e in g.events}
        assert len(kept) <= 25
        assert 0 in kept  # shared gaze event survives with its strongest pairs
        surviving_pair_ids = {eid for gid, gesid, _ in g.joint_pairs for eid in (gid, gesid)}
        assert surviving_pair_ids == kept
        # the weakest gestures were the ones dropped
        assert 1 not in kept and 30 in kept

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(50):
            g = random_graph(rng)
            once = prune_graph(g)
            twice = prune_graph(once)
            assert serialize_graph(twice) == serialize_graph(once)

    def test_protected_never_dropped_while_unprotected_survives(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_graph(rng)
            pruned = prune_graph(g)
            protected = {eid for gid, gesid, _ in g.joint_pairs for eid in (gid, gesid)}
            kept = {e.event_id for e in pruned.events}
            dropped_protected = protected - kept
            unprotected_kept = kept - protected
            if dropped_protected:
                assert not unprotected_kept


def over_cap_graph(rng, n_pairs):
    """More events than the cap, with confidences drawn from five values, so
    that pairs and events tie on confidence, and n_pairs random links."""
    events = []
    for i in range(rng.randint(26, 60)):
        start = rng.randrange(0, 40) * 0.5
        events.append(event(i, rng.choice(GAZE_TYPES + GESTURE_TYPES),
                            parts=tuple(rng.sample(range(6), 2)), start=start,
                            end=start + rng.randrange(1, 6) * 0.5,
                            conf=rng.choice((0.9, 0.93, 0.95, 0.98, 1.0))))
    gaze = [e.event_id for e in events if e.event_type in GAZE_TYPES]
    gestures = [e.event_id for e in events if e.event_type in GESTURE_TYPES]
    links = {(rng.choice(gaze), rng.choice(gestures)) for _ in range(n_pairs)}
    return graph_of(events, [(g, h, 0.5) for g, h in sorted(links)])


def test_prune_matches_the_reference_on_over_cap_graphs():
    """Both tiers, with ties in confidence: the pair tier (more linked ids
    than the cap) and the diversity tier (fewer) keep what the reference
    keeps, down to the order of equal-confidence pairs and types."""
    rng = random.Random(14)
    tiers = {"pairs": 0, "diversity": 0}
    for _ in range(600):
        g = over_cap_graph(rng, rng.choice((0, 4, 8, 12, 20, 30, 45)))
        protected = {eid for gid, gesid, _ in g.joint_pairs for eid in (gid, gesid)}
        tiers["pairs" if len(protected) > 25 else "diversity"] += 1
        assert serialize_graph(prune_graph(g)) == serialize_graph(oracle_prune(g))
    assert min(tiers.values()) >= 150, tiers


def random_graph(rng, max_events=40):
    events = []
    for i in range(rng.randint(0, max_events)):
        etype = rng.choice(GAZE_TYPES + GESTURE_TYPES)
        parts = tuple(rng.sample(range(6), rng.choice([1, 2, 2, 3])))
        start = rng.randrange(0, 110) * 0.5
        events.append(event(
            i, etype, parts=parts, start=start,
            end=start + rng.randrange(1, 8) * 0.5,
            conf=round(rng.uniform(0.85, 1.0), 3),
        ))
    pairs = link_joint_pairs(events)
    # randomly keep a subset of eligible links to vary protection patterns
    pairs = [p for p in pairs if rng.random() < 0.4]
    return graph_of(events, pairs, duration=60.0)


class TestBuildGraph:
    def gesture(self, start=3.0, end=5.0, conf=0.9, initiator=3, target=0, video="v"):
        return GestureAnnotation(video, "pointing", initiator, "person", target,
                                 start, end, conf)

    def test_gesture_conversion(self):
        ev = gesture_to_event(self.gesture(), 7)
        assert ev.source == SOURCE_GESTURE
        assert ev.event_type == "pointing"
        assert ev.participants == {0, 3}
        assert ev.roles == {"initiator": 3, "target": 0}

    def test_full_pipeline_orders_and_links(self):
        gaze_events = [
            event(0, "mutual_gaze", parts=(0, 3), start=2.1, end=4.2, conf=0.95),
            event(1, "mutual_gaze", parts=(1, 2), start=9.0, end=10.0, conf=0.80),
        ]
        g = build_graph("v", 60.0, gaze_events, [self.gesture()])
        # low-confidence gaze event filtered; gesture gets the next free id
        assert [e.event_id for e in g.events] == [0, 2]
        assert g.events[0].start_time == 2.0  # snapped
        assert g.events[0].end_time == 4.0
        assert g.joint_pairs == [(0, 2, 0.0)]

    def test_invariants_on_random_inputs(self):
        rng = random.Random(9)
        for _ in range(100):
            gaze_events = []
            for i in range(rng.randint(0, 30)):
                etype = rng.choice(GAZE_TYPES)
                parts = tuple(rng.sample(range(5), 2))
                start = rng.uniform(0, 50)
                gaze_events.append(event(i, etype, parts=parts, start=start,
                                         end=start + rng.uniform(0.3, 5.0),
                                         conf=rng.uniform(0.5, 1.0)))
            gestures = [
                self.gesture(start=rng.uniform(0, 50), end=rng.uniform(51, 58),
                             conf=rng.uniform(0.5, 1.0),
                             initiator=rng.randrange(5), target=rng.randrange(5, 8))
                for _ in range(rng.randint(0, 8))
            ]
            g = build_graph("v", 60.0, gaze_events, gestures)
            check_graph_invariants(g)

    def test_round_trip_serialization(self):
        g = build_graph("v", 60.0, [event(0, start=1.9, end=4.2, conf=0.95)],
                        [self.gesture()])
        line = serialize_graph(g)
        assert serialize_graph(parse_graph(json.loads(line))) == line


def check_graph_invariants(g: SocialGraph, cap=25):
    assert len(g.events) <= cap
    ids = {e.event_id for e in g.events}
    assert len(ids) == len(g.events)
    starts = [e.start_time for e in g.events]
    assert starts == sorted(starts)
    for gid, gesid, dist in g.joint_pairs:
        assert gid in ids and gesid in ids
        assert dist <= 3.0 + 1e-9
    seen = []
    for e in g.events:
        assert e.start_time * 2 == round(e.start_time * 2)
        assert e.end_time * 2 == round(e.end_time * 2)
        assert e.start_time < e.end_time
        assert 0 <= e.start_time and e.end_time <= g.duration + 1e-9
        for other in seen:
            if other.event_type == e.event_type and other.participants == e.participants:
                overlap = min(other.end_time, e.end_time) - max(other.start_time, e.start_time)
                assert overlap <= 1e-9, "duplicate events share an overlapping window"
        seen.append(e)
