import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialevents.analytics import (
    IdRemap,
    corrupt_ids,
    grounding_precision,
    item_person_ids,
    novel_participants,
    pearson,
    reasoning_length,
    seeded_remap,
)
from socialevents.cli import main
from socialevents.errors import ContractError
from socialevents.qa import QAItem
from socialevents.reward import ReasoningTrace, parse_trace
from helpers import id_echo_answer


def item_fixture(**overrides):
    fields = dict(
        qa_id="v:T1:0", video_id="v", category="T1", difficulty="easy", format="mcq",
        question="At around 2.0 seconds, who is Person 0 looking at?",
        options=("Person 1", "Person 0", "Person 2", "Person 3"),
        answer="A", answer_text="Person 1",
        source_event_ids=(0,), time_range=(1.0, 3.0),
    )
    fields.update(overrides)
    return QAItem(**fields)


class TestGroundingPrecision:
    def test_exact_match(self):
        assert grounding_precision({0, 2}, {0, 2}) == 1.0

    def test_half(self):
        assert grounding_precision({0, 1, 2, 3}, {0, 2}) == 0.5

    def test_empty_pred_undefined(self):
        assert grounding_precision(set(), {0, 2}) is None

    def test_empty_gt_contract(self):
        with pytest.raises(ContractError):
            grounding_precision({0}, set())


class TestCorruptIds:
    def test_swap(self):
        item = item_fixture()
        out = corrupt_ids(item, IdRemap({0: 1, 1: 0, 2: 2, 3: 3}))
        assert out.question == "At around 2.0 seconds, who is Person 1 looking at?"
        assert out.options == ("Person 0", "Person 1", "Person 2", "Person 3")
        assert out.answer == "A"  # letter preserved
        assert out.answer_text == "Person 0"
        assert out.source_event_ids == item.source_event_ids
        assert out.time_range == item.time_range

    def test_identity_remap_is_noop(self):
        item = item_fixture()
        out = corrupt_ids(item, IdRemap({i: i for i in range(4)}))
        assert out == item

    def test_round_trip(self):
        item = item_fixture()
        remap = IdRemap({0: 2, 2: 3, 3: 0, 1: 1})
        assert corrupt_ids(corrupt_ids(item, remap), remap.inverse()) == item

    def test_missing_id_is_contract_violation(self):
        with pytest.raises(ContractError, match=r"\[3\]"):
            corrupt_ids(item_fixture(), IdRemap({0: 1, 1: 0, 2: 2}))

    def test_short_tokens_rewritten(self):
        item = item_fixture(
            question="Who does P0 give the card to at 2.0 seconds?",
            options=("P1", "P0", "P2", "P3"),
            answer_text="P1",
        )
        out = corrupt_ids(item, IdRemap({0: 3, 3: 0, 1: 1, 2: 2}))
        assert out.question == "Who does P3 give the card to at 2.0 seconds?"
        assert out.options == ("P1", "P3", "P2", "P0")

    def test_open_ended_answer_follows_text(self):
        item = item_fixture(format="open_ended", options=None,
                            answer="Person 1", answer_text="Person 1")
        out = corrupt_ids(item, IdRemap({0: 1, 1: 0, 2: 2, 3: 3}))
        assert out.answer == out.answer_text == "Person 0"

    def test_group_action_composition(self):
        rng = random.Random(0)
        ids = [0, 1, 2, 3]
        for _ in range(50):
            sigma = dict(zip(ids, rng.sample(ids, 4)))
            tau = dict(zip(ids, rng.sample(ids, 4)))
            composed = {k: sigma[tau[k]] for k in ids}
            item = item_fixture()
            via_two = corrupt_ids(corrupt_ids(item, IdRemap(tau)), IdRemap(sigma))
            via_one = corrupt_ids(item, IdRemap(composed))
            assert via_two == via_one

    def test_remap_must_be_permutation(self):
        with pytest.raises(ContractError):
            IdRemap({0: 1, 1: 1})
        with pytest.raises(ContractError):
            IdRemap({0: 5})


class TestSeededRemap:
    def test_deterministic_and_non_identity(self):
        for n in range(2, 7):
            ids = list(range(n))
            a = seeded_remap(ids, "key")
            b = seeded_remap(ids, "key")
            assert a == b
            assert a.mapping != {pid: pid for pid in ids}

    def test_single_id_stays(self):
        assert seeded_remap([4], "k").mapping == {4: 4}


class TestIdEcho:
    def test_picks_most_frequent_question_id(self):
        item = item_fixture(
            question="Person 2 waves while Person 2 smiles; Person 0 watches.",
        )
        assert id_echo_answer(item) == "C"  # first option mentioning Person 2

    def test_tie_broken_by_smallest_id(self):
        item = item_fixture(
            question="Does Person 1 pass Person 0, or does Person 0 follow Person 1?",
        )
        # tie between 0 and 1 -> echo id 0 -> option B
        assert id_echo_answer(item) == "B"

    def test_corruption_changes_echo_on_tie(self):
        item = item_fixture(
            question="Does Person 1 pass Person 0, or does Person 0 follow Person 1?",
        )
        before = id_echo_answer(item)
        corrupted = corrupt_ids(item, IdRemap({0: 1, 1: 0, 2: 2, 3: 3}))
        after = id_echo_answer(corrupted)
        assert before == "B" and after == "A"

    def test_no_ids_returns_none(self):
        assert id_echo_answer(item_fixture(question="Who moves first?")) is None


class TestPearson:
    def test_perfect_linear(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_constant_series_error(self):
        with pytest.raises(ContractError):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            pearson([1.0], [1.0, 2.0])

    def test_symmetry_and_affine_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(3, 20)
            xs = [rng.gauss(0, 1) for _ in range(n)]
            ys = [rng.gauss(0, 1) for _ in range(n)]
            r = pearson(xs, ys)
            assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12
            assert pearson(ys, xs) == pytest.approx(r)
            assert pearson([3 * x - 7 for x in xs], ys) == pytest.approx(r)
            assert pearson(xs, [0.5 * y + 2 for y in ys]) == pytest.approx(r)


def test_novel_participants():
    assert novel_participants({0, 2, 5}, "Person 0 looks at Person 1") == 2
    assert novel_participants(set(), "Person 0") == 0


# Every character str.split() splits at: \t-\r, \x1c-\x1f, space, \x85,
# \xa0, U+1680, U+2000-U+200A, U+2028, U+2029, U+202F, U+205F and U+3000.
SPACES = "".join(c for c in map(chr, range(0x110000)) if c.isspace())


def token_counts(text: str) -> tuple:
    """reasoning_length over text as a well-formed trace's think block and
    as a malformed trace's raw text."""
    return (reasoning_length(ReasoningTrace("", text, (), (), "", True)),
            reasoning_length(ReasoningTrace(text, None, (), (), None, False)))


def test_token_count_at_each_space():
    for c in SPACES:
        for text in (c, c * 3, f"a{c}b", f"{c}ab{c}{c}c", f"x{c}", f"{c}\u00e9{c}z"):
            n = len(text.split())
            assert token_counts(text) == ((n, False), (n, True)), repr(text)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=st.text(st.sampled_from(SPACES + "ab<>") | st.characters(exclude_categories=()),
                    max_size=40))
@example(text="")
def test_token_count_is_the_split_count(text):
    """For any text, ASCII or not, the count is len(text.split())."""
    n = len(text.split())
    assert token_counts(text) == ((n, False), (n, True))


def analyze(tmp_path, records) -> dict:
    """report.json of the analyze stage over hand-written rewards.jsonl records."""
    path = tmp_path / "rewards.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
    return json.loads((tmp_path / "out" / "report.json").read_text())


def rollout(raw="<think>a</think><answer>A</answer>", **fields) -> dict:
    """One per_rollout entry with every field analyze reads; think_tokens
    and well_formed come from raw as the reward stage derives them."""
    tokens, flagged = reasoning_length(parse_trace(raw))
    entry = {"r_acc": 0, "r_fmt": 1, "r_str": 0, "r_gnd": 0.0, "total": 0.0, "advantage": 0.0,
             "n_pred": 0, "n_correct": 0, "grounding_precision": None, "novel_participants": 0,
             "think_tokens": tokens, "well_formed": not flagged}
    entry.update(fields)
    return entry


def group(model, *rollouts) -> dict:
    return {"query_id": "q", "qa_id": "v:T1:0", "model": model, "per_rollout": list(rollouts)}


class TestLengthStats:
    """analyze's reasoning-length fields: think-block tokens, raw tokens for a
    malformed trace, the median, and the malformed count."""

    def test_think_token_count(self, tmp_path):
        report = analyze(tmp_path, [group("m", rollout("<think>a b c</think><answer>A</answer>"))])
        assert report["models"]["m"]["mean_reasoning_length"] == 3.0
        assert report["models"]["m"]["malformed_traces"] == 0

    def test_malformed_counts_raw_and_flags(self, tmp_path):
        report = analyze(tmp_path, [group("m", rollout("no tags at all here"))])
        assert report["models"]["m"]["mean_reasoning_length"] == 5.0
        assert report["models"]["m"]["malformed_traces"] == 1

    def test_empty_input(self, tmp_path):
        assert analyze(tmp_path, []) == {
            "models": {},
            "cross_model": {"accuracy_vs_grounding_precision": None,
                            "accuracy_vs_reasoning_length": None},
        }
        # a group with no rollouts counts as a query; every mean is null
        stats = analyze(tmp_path, [group("m")])["models"]["m"]
        assert (stats["queries"], stats["rollouts"], stats["malformed_traces"]) == (1, 0, 0)
        assert stats["accuracy"] is None and stats["median_reasoning_length"] is None

    def test_median(self, tmp_path):
        report = analyze(tmp_path, [group("m", *(rollout(f"<think>{words}</think><answer>A</answer>")
                                                  for words in ("a", "a b", "a b c d")))])
        assert report["models"]["m"]["median_reasoning_length"] == 2.0
        assert report["models"]["m"]["mean_reasoning_length"] == pytest.approx(7 / 3)


class TestGroundingStats:
    """analyze's per-model grounding fields over hand-written rollouts."""

    def test_aggregates(self, tmp_path):
        # pred {0, 2}, {0, 1, 2, 3} and {} against gt {0, 2}; the question
        # mentions Person 0 only
        report = analyze(tmp_path, [group(
            "m",
            rollout(r_acc=1, n_pred=2, n_correct=2, grounding_precision=1.0,
                    novel_participants=1),
            rollout(n_pred=4, n_correct=2, grounding_precision=0.5, novel_participants=3),
            rollout(),
        )])
        stats = report["models"]["m"]
        assert (stats["queries"], stats["rollouts"]) == (1, 3)
        assert stats["accuracy"] == pytest.approx(1 / 3)
        # the rollout that predicts no one is left out of the macro mean
        assert stats["grounding_precision_macro"] == pytest.approx((1.0 + 0.5) / 2)
        # pooled n_correct / n_pred
        assert stats["grounding_precision_micro"] == pytest.approx(4 / 6)
        assert stats["mean_novel_participants"] == pytest.approx(4 / 3)

    def test_all_empty_preds(self, tmp_path):
        stats = analyze(tmp_path, [group("m", rollout(r_acc=1))])["models"]["m"]
        assert stats["accuracy"] == 1.0
        assert stats["grounding_precision_macro"] is None
        assert stats["grounding_precision_micro"] is None


class TestCrossModel:
    """report.json's cross_model Pearson correlations across the per-model
    accuracy, macro precision and mean reasoning length."""

    @staticmethod
    def models(*rows):
        """One group per (model, [(r_acc, precision, raw), ...]), each
        precision that of 4 predicted persons."""
        return [group(model, *(rollout(raw, r_acc=acc, n_pred=4, n_correct=int(4 * p),
                                       grounding_precision=p)
                               for acc, p, raw in rs))
                for model, rs in rows]

    def test_single_model_is_null(self, tmp_path):
        report = analyze(tmp_path, self.models(
            ("m", [(1, 1.0, "<think>a</think>"), (0, 0.5, "<think>a b</think>")])))
        assert report["cross_model"] == {"accuracy_vs_grounding_precision": None,
                                         "accuracy_vs_reasoning_length": None}

    def test_constant_series_is_null(self, tmp_path):
        # every model has macro precision 0.5; lengths and accuracies vary
        report = analyze(tmp_path, self.models(
            ("a", [(1, 0.5, "<think>a</think>")]),
            ("b", [(0, 0.5, "<think>a b c</think>")]),
            ("c", [(1, 0.5, "<think>a b c d e f</think>")]),
        ))
        cross = report["cross_model"]
        assert cross["accuracy_vs_grounding_precision"] is None
        assert cross["accuracy_vs_reasoning_length"] == pearson([1.0, 0.0, 1.0], [1.0, 3.0, 6.0])

    def test_three_models_match_pearson(self, tmp_path):
        report = analyze(tmp_path, self.models(
            ("a", [(1, 1.0, "<think>a</think>"), (0, 0.5, "<think>a b c</think>")]),
            ("b", [(0, 0.5, "<think>a b</think>"), (0, 0.25, "<think>a</think>")]),
            ("c", [(1, 1.0, "<think>a b c d</think>"), (1, 0.5, "<think>a b</think>")]),
        ))
        models = report["models"]
        accs = [models[m]["accuracy"] for m in "abc"]
        assert accs == [0.5, 0.0, 1.0]
        cross = report["cross_model"]
        assert cross["accuracy_vs_grounding_precision"] == \
            pearson(accs, [models[m]["grounding_precision_macro"] for m in "abc"])
        assert cross["accuracy_vs_reasoning_length"] == \
            pearson(accs, [models[m]["mean_reasoning_length"] for m in "abc"])
        assert cross["accuracy_vs_grounding_precision"] is not None


class TestAnalyzeRejects:
    """analyze reads every field it reports by key: a record that lacks one,
    whose keys are not strings, or whose rollouts hold a value reward never
    writes, exits 3 naming the line and the field."""

    def run(self, tmp_path, bad, *flags) -> int:
        good = group("m", rollout())
        path = tmp_path / "rewards.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        return main(["analyze", "--input", str(path), "--out", str(tmp_path / "out"), *flags])

    @pytest.mark.parametrize("field", [
        "r_acc", "total", "n_pred", "n_correct", "grounding_precision",
        "novel_participants", "think_tokens", "well_formed",
    ])
    def test_missing_rollout_field(self, tmp_path, capsys, field):
        entry = rollout()
        del entry[field]
        assert self.run(tmp_path, group("m", entry)) == 3
        assert capsys.readouterr().err == f"error: line 2: bad rewards record: '{field}'\n"
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("field", ["r_fmt", "r_str", "r_gnd", "advantage"])
    def test_missing_tsv_field(self, tmp_path, capsys, field):
        """A field only report.tsv writes is read with or without --tsv."""
        entry = rollout()
        del entry[field]
        for flags in ((), ("--tsv",)):
            assert self.run(tmp_path, group("m", entry), *flags) == 3
            assert capsys.readouterr().err == f"error: line 2: bad rewards record: '{field}'\n"
            assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("fields, message", [
        ({"n_pred": -1, "n_correct": 1, "grounding_precision": -1.0, "novel_participants": -4,
          "think_tokens": -7}, "n_pred must be at least 0, got -1"),
        ({"n_correct": -1}, "n_correct must be at least 0, got -1"),
        ({"novel_participants": -4}, "novel_participants must be at least 0, got -4"),
        ({"think_tokens": -7}, "think_tokens must be at least 0, got -7"),
        ({"n_pred": 1, "n_correct": 2, "grounding_precision": 1.0},
         "n_correct must be at most n_pred 1, got 2"),
        ({"grounding_precision": 0.0}, "grounding_precision must be null when n_pred is 0, got 0.0"),
        ({"n_pred": 2, "n_correct": 1}, "grounding_precision must not be null when n_pred is 2"),
        ({"n_pred": 2, "n_correct": 1, "grounding_precision": -1.0},
         "grounding_precision must be n_correct / n_pred 0.5, got -1.0"),
        ({"n_pred": 2, "n_correct": 2, "grounding_precision": 1.5},
         "grounding_precision must be n_correct / n_pred 1.0, got 1.5"),
        ({"n_pred": 2, "n_correct": 2, "grounding_precision": 0.5},
         "grounding_precision must be n_correct / n_pred 1.0, got 0.5"),
        ({"n_pred": 3, "n_correct": 1, "grounding_precision": 0.3333333333333333,
          "novel_participants": 4}, "novel_participants must be at most n_pred 3, got 4"),
        ({"n_pred": 2, "n_correct": 2, "grounding_precision": 0.5, "novel_participants": 9},
         "novel_participants must be at most n_pred 2, got 9"),
    ], ids=["all-negative", "n_correct-negative", "novel-negative", "tokens-negative",
            "n_correct-above-n_pred", "precision-without-pred", "no-precision", "precision-below",
            "precision-above", "precision-not-the-quotient", "novel-above-n_pred",
            "precision-and-novel"])
    def test_rollout_value_reward_never_writes(self, tmp_path, capsys, fields, message):
        """Counts below 0, more correct or novel than predicted, or a
        precision that is null when it should not be, or is not n_correct /
        n_pred, exit 3 with or without --tsv, naming the first rule broken,
        and leave no report."""
        for flags in ((), ("--tsv",)):
            assert self.run(tmp_path, group("m", rollout(), rollout(**fields)), *flags) == 3
            assert capsys.readouterr().err == f"error: line 2: bad rewards record: {message}\n"
            assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("field", ["query_id", "qa_id", "per_rollout"])
    def test_missing_record_field(self, tmp_path, capsys, field):
        record = group("m", rollout())
        del record[field]
        assert self.run(tmp_path, record) == 3
        assert capsys.readouterr().err == f"error: line 2: bad rewards record: '{field}'\n"

    @pytest.mark.parametrize("field, value", [
        ("model", None), ("model", 3), ("query_id", None), ("qa_id", ["v:T1:0"]),
    ], ids=["model-null", "model-int", "query_id-null", "qa_id-list"])
    def test_key_not_a_string(self, tmp_path, capsys, field, value):
        assert self.run(tmp_path, {**group("m", rollout()), field: value}) == 3
        assert capsys.readouterr().err == (
            f"error: line 2: bad rewards record: {field} must be a string, got {value!r}\n")

    @pytest.mark.parametrize("keys, field", [
        ({"query_id": "q\t1\nx", "model": "m\r2"}, "query_id"),
        ({"qa_id": "v:T1\n0"}, "qa_id"),
        ({"model": "m\r2"}, "model"),
    ], ids=["query_id-and-model", "qa_id-lf", "model-cr"])
    def test_tsv_key_breaking_a_row(self, tmp_path, capsys, keys, field):
        """A tab, LF or CR in a key would split its report.tsv rows: with
        --tsv the record exits 3 naming the line and the first such field,
        and no report is written. Without --tsv the keys are only names."""
        record = {**group("m", rollout()), **keys}
        assert self.run(tmp_path, record) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report["models"]) == {"m", keys.get("model", "m")}
        (tmp_path / "out" / "report.json").unlink()
        assert self.run(tmp_path, record, "--tsv") == 3
        assert capsys.readouterr().err == (
            f"error: line 2: bad rewards record: {field} must not hold a tab, LF or CR "
            f"in report.tsv, got {record[field]!r}\n")
        assert not (tmp_path / "out" / "report.json").exists()
        assert not (tmp_path / "out" / "report.tsv").exists()


    @pytest.mark.parametrize("keys, field", [
        ({"query_id": "q\ud800"}, "query_id"),
        ({"qa_id": "v:T1:\udfff", "model": "m\udc00"}, "qa_id"),
        ({"model": "\udbff\tm"}, "model"),
    ], ids=["query_id-high", "qa_id-low-and-model", "model-before-a-tab"])
    def test_tsv_key_with_a_lone_surrogate(self, tmp_path, capsys, keys, field):
        """A lone surrogate in a key has no UTF-8 bytes for report.tsv: with
        --tsv the record exits 3 naming the line and the first such field,
        and no report is written. Without --tsv report.json escapes it."""
        record = {**group("m", rollout()), **keys}
        assert self.run(tmp_path, record) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report["models"]) == {"m", keys.get("model", "m")}
        (tmp_path / "out" / "report.json").unlink()
        assert self.run(tmp_path, record, "--tsv") == 3
        assert capsys.readouterr().err == (
            f"error: line 2: bad rewards record: {field} must not hold a lone surrogate "
            f"in report.tsv, got {record[field]!r}\n")
        assert not (tmp_path / "out" / "report.json").exists()
        assert not (tmp_path / "out" / "report.tsv").exists()


def test_item_person_ids_covers_all_text():
    item = item_fixture()
    assert item_person_ids(item) == {0, 1, 2, 3}
