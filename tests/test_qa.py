import json
import random

from socialevents.graph import SocialGraph, link_joint_pairs
from socialevents.qa import (
    BLACKLIST,
    CATEGORY_DIFFICULTY,
    QAItem,
    generate_qa,
    make_mcq_options,
    parse_qa_item,
    serialize_qa_item,
    validate_qa,
)
from helpers import event
from oracles import recover_answer
from synth import make_graph


def graph_of(events, pairs=None, duration=60.0, video="v"):
    return SocialGraph(video, duration, list(events), list(pairs or []))


def padding_events(start_id, n, t0=30.0):
    return [
        event(start_id + i, "sudden_gaze_shift", parts=(i % 5,),
              start=t0 + 2 * i, end=t0 + 2 * i + 1.0, conf=0.95)
        for i in range(n)
    ]


class TestTaxonomyExamples:
    def test_t3_mutual_gaze_duration(self):
        events = [event(0, "mutual_gaze", parts=(1, 2), start=1.5, end=4.5, conf=0.95)]
        events += padding_events(1, 3)
        items = generate_qa(graph_of(events), budget=50, seed=0)
        t3 = [i for i in items if i.category == "T3"]
        assert len(t3) == 1
        item = t3[0]
        assert item.answer_text == "3.0 seconds"
        assert "Person 1 and Person 2" in item.question
        assert "1.5 seconds" in item.question
        assert item.source_event_ids == (0,)

    def test_g1_pointing_target(self):
        events = [event(0, "pointing", parts=(3, 0), start=3.0, end=5.0, conf=0.9,
                        roles={"initiator": 3, "target": 0})]
        events += [event(1, "mutual_gaze", parts=(1, 2), start=10.0, end=12.0, conf=0.95)]
        items = generate_qa(graph_of(events), budget=50, seed=0)
        g1 = [i for i in items if i.category == "G1"]
        assert len(g1) == 1
        item = g1[0]
        assert item.answer_text == "Person 0"
        assert "Person 3 pointing at" in item.question
        assert "3.0" in item.question and "5.0" in item.question

    def test_no_pairs_no_joint_items(self):
        events = padding_events(0, 12)
        items = generate_qa(graph_of(events), budget=100, seed=0)
        assert items  # hard categories unlocked, still no J
        assert not [i for i in items if i.category.startswith("J")]

    def test_joint_items_when_linked(self):
        events = [
            event(0, "mutual_gaze", parts=(0, 1), start=2.0, end=4.0, conf=0.95),
            event(1, "pointing", parts=(0, 2), start=3.0, end=5.0, conf=0.9,
                  roles={"initiator": 0, "target": 2}),
        ]
        events += padding_events(2, 10, t0=20.0)
        pairs = link_joint_pairs(events)
        items = generate_qa(graph_of(events, pairs), budget=100, seed=0)
        joint = {i.category for i in items if i.category.startswith("J")}
        assert "J2" in joint  # overlapping mutual gaze during the gesture
        j2 = next(i for i in items if i.category == "J2")
        assert j2.answer_text == "Person 1"


class TestDensityGates:
    def test_sparse_graph_easy_only(self):
        events = [
            event(0, "mutual_gaze", parts=(0, 1), start=2.0, end=4.0, conf=0.95),
            event(1, "pointing", parts=(0, 2), start=6.0, end=8.0, conf=0.9,
                  roles={"initiator": 0, "target": 2}),
        ]
        items = generate_qa(graph_of(events), budget=100, seed=0)
        assert items
        assert {i.difficulty for i in items} == {"easy"}
        assert {i.category for i in items} <= {"T1", "T2", "G1", "G2"}

    def test_medium_unlocks_at_four_events(self):
        events = [event(0, "mutual_gaze", parts=(0, 1), start=2.0, end=4.0, conf=0.95)]
        events += padding_events(1, 3)
        cats = {i.category for i in generate_qa(graph_of(events), budget=100, seed=0)}
        assert "T3" in cats

    def test_hard_unlocks_at_ten_events(self):
        events = [event(0, "joint_attention", parts=(0, 1, 2), start=2.0, end=4.0, conf=0.95)]
        events += padding_events(1, 8)
        cats = {i.category for i in generate_qa(graph_of(events), budget=100, seed=0)}
        assert "T6" not in cats
        events += padding_events(50, 1, t0=55.0)
        cats = {i.category for i in generate_qa(graph_of(events), budget=100, seed=0)}
        assert "T6" in cats

    def test_budget_respected(self):
        events = padding_events(0, 12)
        assert len(generate_qa(graph_of(events), budget=5, seed=0)) == 5


class TestMcqOptions:
    def test_person_distractors(self):
        events = [
            event(0, "mutual_gaze", parts=(0, 2), start=1.0, end=3.0),
            event(1, "mutual_gaze", parts=(1, 3), start=5.0, end=7.0),
        ]
        g = graph_of(events)
        rng = random.Random(0)
        options, letter = make_mcq_options("Person 2", g, "person", rng)
        assert set(options) == {"Person 0", "Person 1", "Person 2", "Person 3"}
        assert options["ABCD".index(letter)] == "Person 2"

    def test_gesture_type_fallback_two_persons(self):
        events = [event(0, "pointing", parts=(0, 1), start=1.0, end=3.0,
                        roles={"initiator": 0, "target": 1})]
        g = graph_of(events)
        options, letter = make_mcq_options("Pointing", g, "gesture_type", random.Random(0))
        assert set(options) == {"Pointing", "Showing", "Giving", "Reaching"}
        assert options["ABCD".index(letter)] == "Pointing"

    def test_single_person_graph_skips(self):
        events = [event(0, "sudden_gaze_shift", parts=(1,), start=1.0, end=2.0)]
        g = graph_of(events)
        assert make_mcq_options("Person 1", g, "person", random.Random(0)) is None

    def test_duration_distractors_positive(self):
        g = graph_of([event(0, start=1.0, end=1.5)])
        options, _ = make_mcq_options("0.5 seconds", g, "duration", random.Random(1))
        values = sorted(float(o.split()[0]) for o in options)
        assert all(v > 0 for v in values)
        assert len(set(options)) == 4

    def test_seeded_shuffle_deterministic(self):
        g = graph_of([event(0, "mutual_gaze", parts=(0, 1)), event(1, "mutual_gaze", parts=(2, 3), start=5.0, end=6.0)])
        a = make_mcq_options("Person 2", g, "person", random.Random(7))
        b = make_mcq_options("Person 2", g, "person", random.Random(7))
        assert a == b


class TestValidator:
    def base_item(self, **overrides):
        fields = dict(
            qa_id="v:T1:0", video_id="v", category="T1", difficulty="easy",
            format="mcq",
            question="At around 2.0 seconds, who is Person 0 looking at?",
            options=("Person 1", "Person 0", "Person 2", "Person 3"),
            answer="A", answer_text="Person 1",
            source_event_ids=(0,), time_range=(1.0, 3.0),
        )
        fields.update(overrides)
        return QAItem(**fields)

    def graph(self):
        events = [
            event(0, "mutual_gaze", parts=(0, 1), start=1.0, end=3.0, conf=0.95),
            event(1, "mutual_gaze", parts=(2, 3), start=5.0, end=7.0, conf=0.95),
        ]
        return graph_of(events)

    def test_accepts_well_formed(self):
        assert validate_qa(self.base_item(), self.graph()) is None

    def test_blacklisted_answer_rejected(self):
        item = self.base_item(
            options=("Person 3 is likely looking away", "Person 0", "Person 2", "Person 3"),
            answer_text="Person 3 is likely looking away",
        )
        reason = validate_qa(item, self.graph())
        assert reason and "likely" in reason

    def test_wrong_option_count_rejected(self):
        item = self.base_item(options=("Person 1", "Person 0", "Person 2"))
        assert "4 options" in validate_qa(item, self.graph())

    def test_unknown_person_rejected(self):
        item = self.base_item(options=("Person 9", "Person 0", "Person 2", "Person 3"),
                              answer_text="Person 9")
        assert "person" in validate_qa(item, self.graph()).lower()

    def test_missing_source_rejected(self):
        item = self.base_item(source_event_ids=(99,))
        assert "99" in validate_qa(item, self.graph())

    def test_time_range_must_cover_sources(self):
        item = self.base_item(time_range=(1.5, 3.0))
        assert "cover" in validate_qa(item, self.graph())

    def test_category_modality_mismatch(self):
        item = self.base_item(category="G1", difficulty="easy",
                              question="Between 1.0 and 3.0 seconds, who is Person 0 pointing at?")
        assert "gesture" in validate_qa(item, self.graph()).lower()

    def test_answer_text_must_match_letter(self):
        item = self.base_item(answer="B")
        assert "answer_text" in validate_qa(item, self.graph())

    def test_option_word_limit(self):
        long_option = " ".join(["word"] * 16)
        item = self.base_item(options=("Person 1", long_option, "Person 2", "Person 3"))
        assert "15 words" in validate_qa(item, self.graph())


class TestClosure:
    def test_generator_output_always_validates(self):
        for seed in range(60):
            g = make_graph(seed)
            items = generate_qa(g, budget=100, seed=seed)
            for item in items:
                assert validate_qa(item, g) is None, (seed, item.qa_id)

    def test_no_blacklist_words_in_answers(self):
        for seed in range(60):
            g = make_graph(seed)
            for item in generate_qa(g, budget=100, seed=seed):
                lowered = item.answer_text.lower()
                assert not any(w in lowered.split() for w in BLACKLIST)

    def test_answers_recoverable_from_source_events(self):
        for seed in range(60):
            g = make_graph(seed)
            for item in generate_qa(g, budget=100, seed=seed):
                events = [g.event_by_id(i) for i in item.source_event_ids]
                assert recover_answer(item.category, events) == item.answer_text

    def test_difficulty_matches_category(self):
        for seed in range(20):
            g = make_graph(seed)
            for item in generate_qa(g, budget=100, seed=seed):
                assert item.difficulty == CATEGORY_DIFFICULTY[item.category]

    def test_open_ended_only_hard(self):
        for seed in range(40):
            g = make_graph(seed)
            for item in generate_qa(g, budget=100, seed=seed):
                if item.format == "open_ended":
                    assert item.difficulty == "hard"
                    assert item.answer == item.answer_text


class TestFullTaxonomyCoverage:
    def rich_graph(self):
        events = [
            # gaze: one of each type, roles where needed
            event(0, "mutual_gaze", parts=(0, 1), start=1.0, end=3.0, conf=0.95),
            event(1, "joint_attention", parts=(2, 3), start=2.0, end=4.0, conf=0.95),
            event(2, "gaze_following", parts=(0, 2), start=5.0, end=6.5, conf=0.95,
                  roles={"leader": 0, "follower": 2}),
            event(3, "attention_capture", parts=(0, 1, 2, 3), start=8.0, end=8.5, conf=0.95),
            event(4, "sudden_gaze_shift", parts=(4,), start=9.0, end=10.0, conf=0.95),
            # gestures: reciprocal pair, same-type chain, and a type contrast
            event(5, "giving", parts=(0, 1), start=11.0, end=12.0, conf=0.9,
                  roles={"initiator": 0, "target": 1}),
            event(6, "giving", parts=(1, 2), start=14.0, end=15.0, conf=0.9,
                  roles={"initiator": 1, "target": 2}),
            event(7, "pointing", parts=(2, 0), start=16.0, end=17.0, conf=0.9,
                  roles={"initiator": 2, "target": 0}),
            event(8, "showing", parts=(0, 2), start=18.0, end=19.0, conf=0.9,
                  roles={"initiator": 0, "target": 2}),
            event(9, "pointing", parts=(0, 2), start=20.0, end=21.0, conf=0.9,
                  roles={"initiator": 0, "target": 2}),
            # gesture that the joint-attention event links to (J3) and a
            # reciprocal partner for event 5 (G4)
            event(10, "reaching", parts=(2, 3), start=4.5, end=6.0, conf=0.9,
                  roles={"initiator": 2, "target": 3}),
            event(11, "giving", parts=(1, 0), start=13.0, end=13.5, conf=0.9,
                  roles={"initiator": 1, "target": 0}),
            # overlapping mutual gaze for J2
            event(12, "pointing", parts=(1, 3), start=1.5, end=2.5, conf=0.9,
                  roles={"initiator": 1, "target": 3}),
            # break the giving/pointing tie so G5 has a unique modal type
            event(13, "giving", parts=(3, 4), start=22.0, end=23.0, conf=0.9,
                  roles={"initiator": 3, "target": 4}),
        ]
        pairs = link_joint_pairs(events)
        return graph_of(events, pairs)

    def test_every_category_constructible(self):
        g = self.rich_graph()
        seen = set()
        # phrasing/format draws are seeded per item, so sweep a few seeds
        for seed in range(6):
            for item in generate_qa(g, budget=500, seed=seed):
                assert validate_qa(item, g) is None
                events = [g.event_by_id(i) for i in item.source_event_ids]
                assert recover_answer(item.category, events) == item.answer_text
                seen.add(item.category)
        assert seen == set(CATEGORY_DIFFICULTY), f"missing {set(CATEGORY_DIFFICULTY) - seen}"

    def test_g6_chain_answer(self):
        g = self.rich_graph()
        items = [i for i in generate_qa(g, budget=500, seed=0) if i.category == "G6"]
        assert items
        # chain: Person 0 gives to Person 1, then Person 1 gives to Person 2
        chain = next(i for i in items if set(i.source_event_ids) == {5, 6})
        assert chain.answer_text == "Person 2"

    def test_j3_pair_answer(self):
        g = self.rich_graph()
        items = [i for i in generate_qa(g, budget=500, seed=0) if i.category == "J3"]
        assert any(i.answer_text == "Person 2 and Person 3" for i in items)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        g = make_graph(12)
        a = [serialize_qa_item(i) for i in generate_qa(g, budget=100, seed=5)]
        b = [serialize_qa_item(i) for i in generate_qa(g, budget=100, seed=5)]
        assert a == b

    def test_round_trip(self):
        g = make_graph(12)
        for item in generate_qa(g, budget=100, seed=5):
            line = serialize_qa_item(item)
            assert serialize_qa_item(parse_qa_item(json.loads(line))) == line
