import math
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from oracles import check_template, regex_blocks, regex_person_ids, regex_replace_person_ids
from socialevents import reward
from socialevents.config import EngineConfig
from socialevents.errors import ContractError, ValidationError
from socialevents.mentions import extract_person_ids, person_id_counts, replace_person_ids
from socialevents.reward import (
    _TEMPLATE_RE,
    extract_participants,
    group_advantages,
    normalize_answer,
    parse_trace,
    reward_components,
    score_group,
)

GOOD = "<think><gaze>Person 0 looks at Person 2</gaze><gesture>none</gesture></think><answer>B</answer>"


class TestParseTrace:
    def test_canonical_form(self):
        trace = parse_trace(GOOD)
        assert trace.well_formed
        assert trace.gaze_blocks == ("Person 0 looks at Person 2",)
        assert trace.gesture_blocks == ("none",)
        assert trace.answer_block == "B"
        assert "<gaze>" in trace.think_block

    def test_missing_answer_close(self):
        trace = parse_trace("<think>x</think><answer>B")
        assert not trace.well_formed
        assert trace.think_block == "x"
        assert trace.answer_block is None

    def test_answer_before_think(self):
        trace = parse_trace("<answer>B</answer><think>x</think>")
        assert not trace.well_formed
        # partial extraction still finds both blocks
        assert trace.answer_block == "B"
        assert trace.think_block == "x"

    def test_text_outside_template(self):
        assert not parse_trace("hello " + GOOD).well_formed
        assert not parse_trace(GOOD + " trailing").well_formed
        assert parse_trace("  " + GOOD + "\n").well_formed

    def test_nested_answer_inside_think(self):
        trace = parse_trace("<think><answer>A</answer></think><answer>B</answer>")
        assert not trace.well_formed

    def test_unclosed_gaze_block(self):
        assert not parse_trace("<think><gaze>x</think><answer>B</answer>").well_formed

    def test_multiple_blocks_ok(self):
        raw = ("<think><gaze>a</gaze> free text <gaze>b</gaze>"
               "<gesture>c</gesture></think><answer>A</answer>")
        trace = parse_trace(raw)
        assert trace.well_formed
        assert trace.gaze_blocks == ("a", "b")

    def test_empty_think_is_well_formed(self):
        trace = parse_trace("<think></think><answer>C</answer>")
        assert trace.well_formed
        assert trace.gaze_blocks == ()

    def test_duplicate_think_rejected(self):
        assert not parse_trace("<think>a</think><think>b</think><answer>C</answer>").well_formed


class TestExtractParticipants:
    def test_person_tokens(self):
        trace = parse_trace(GOOD)
        assert extract_participants(trace) == {0, 2}

    def test_short_tokens(self):
        raw = "<think><gesture>P3 points at P0</gesture></think><answer>A</answer>"
        assert extract_participants(parse_trace(raw)) == {3, 0}

    def test_empty_blocks(self):
        raw = "<think><gaze></gaze></think><answer>A</answer>"
        assert extract_participants(parse_trace(raw)) == frozenset()

    def test_text_outside_blocks_ignored(self):
        raw = ("<think>Person 5 talks. <gaze>Person 1 watches</gaze></think>"
               "<answer>Person 9</answer>")
        assert extract_participants(parse_trace(raw)) == {1}

    def test_case_insensitive_person_word(self):
        raw = "<think><gaze>person 4 and PERSON 6</gaze></think><answer>A</answer>"
        assert extract_participants(parse_trace(raw)) == {4, 6}

    def test_lowercase_p_token_not_matched(self):
        raw = "<think><gaze>p7 and GP3 and P12x</gaze></think><answer>A</answer>"
        assert extract_participants(parse_trace(raw)) == frozenset()


# The mention corpus: near-tokens made of both forms in mixed case, every
# kind of separator and digits of other scripts, run together or apart.
MENTION_FORMS = ["Person", "person", "PERSON", "pErSoN", "per\u017fon", "Persons", "P", "p", "x"]
MENTION_SEPARATORS = ["", " ", "  ", "\t", "\u00a0", "\n", "_", ".", "-"]
MENTION_DIGITS = ["", "0", "1", "23", "007", "\u0663", "\uff17", "x"]


def mention_text(rng) -> str:
    return "".join(rng.choice(MENTION_SEPARATORS + ["", ""]) + rng.choice(MENTION_FORMS)
                   + rng.choice(MENTION_SEPARATORS) + rng.choice(MENTION_DIGITS)
                   for _ in range(rng.randint(0, 4)))


class TestMentionRule:
    """The one mention regex against the two it replaced (tests/oracles.py)."""

    def test_agrees_with_two_regexes(self):
        rng = random.Random(5)
        found = 0
        for _ in range(20_000):
            text = mention_text(rng)
            expected = regex_person_ids(text)
            assert extract_person_ids(text) == set(expected), text
            assert person_id_counts(text) == Counter(expected), text
            mapping = {pid: 7 * pid + 3 for pid in expected}
            assert replace_person_ids(text, mapping) == \
                regex_replace_person_ids(text, mapping), text
            found += bool(expected)
        assert found > 4_000

    def test_identity_mapped_token_keeps_its_text(self):
        text = "P03 sees Person 007, P\u0663 and person\t2"
        assert replace_person_ids(text, {3: 3, 7: 7, 2: 2}) == text
        assert replace_person_ids(text, {3: 3, 7: 8, 2: 2}) == \
            "P03 sees Person 8, P\u0663 and person\t2"

    @pytest.mark.parametrize("text, ids", [
        ("P1P2", set()), ("person 3P4", set()), ("p5", set()), ("PERSON\t6", {6}),
        ("Person\u00a07", {7}), ("P\u0663 and person \uff17", {3, 7}), ("P007", {7}),
    ])
    def test_edge_tokens(self, text, ids):
        assert extract_person_ids(text) == ids == set(regex_person_ids(text))

    def test_over_long_id_is_a_validation_error(self):
        limit = sys.get_int_max_str_digits()
        assert extract_person_ids("P" + "1" * limit) == {int("1" * limit)}
        for text in (f"P{'1' * 5000}", f"Person 2 and person {'0' * (limit + 1)}"):
            digits = len(text.rsplit(maxsplit=1)[-1].lstrip("P"))
            message = f"person id of {digits} digits is too long"
            for call in (extract_person_ids, person_id_counts,
                         lambda t: replace_person_ids(t, {2: 5})):
                with pytest.raises(ValidationError, match=message):
                    call(text)


def trace_for(pred_ids, answer="B", well_formed=True, tagged=True):
    mention = " ".join(f"Person {i}" for i in sorted(pred_ids))
    inner = f"<gaze>{mention} interact</gaze>" if tagged else mention
    raw = f"<think>{inner}</think><answer>{answer}</answer>"
    if not well_formed:
        raw = raw.replace("</answer>", "")
    return parse_trace(raw)


class TestRewardComponents:
    def test_perfect_trace_total(self):
        breakdown = reward_components(trace_for({0, 2}), "B", {0, 2})
        assert (breakdown.r_acc, breakdown.r_fmt, breakdown.r_str) == (1, 1, 1)
        assert breakdown.r_gnd == 2.0
        assert breakdown.total == 1.55

    def test_noisy_mentions_halve_precision(self):
        breakdown = reward_components(trace_for({0, 1, 2, 3}), "B", {0, 2})
        assert breakdown.r_gnd == 1.0  # P=0.5, R=1.0
        assert breakdown.total == 1.35

    def test_format_only(self):
        breakdown = reward_components(trace_for(set(), answer="C", tagged=False), "B", {0, 2})
        assert (breakdown.r_acc, breakdown.r_fmt, breakdown.r_str) == (0, 1, 0)
        assert breakdown.r_gnd == 0.0
        assert breakdown.total == 0.1

    def test_everything_fails(self):
        trace = parse_trace("just text, no tags")
        breakdown = reward_components(trace, "B", {0, 2})
        assert breakdown.total == 0.0

    def test_empty_gt_is_contract_violation(self):
        with pytest.raises(ContractError):
            reward_components(trace_for({0}), "B", set())

    def test_answer_normalization(self):
        assert reward_components(trace_for({0}, answer=" b "), "B", {0}).r_acc == 1
        assert reward_components(trace_for({0}, answer="person 2"), "A", {0},
                                 answer_aliases=("Person 2",)).r_acc == 1

    def test_str_fires_with_either_tag(self):
        raw = "<think><gesture>none</gesture></think><answer>B</answer>"
        assert reward_components(parse_trace(raw), "B", {1}).r_str == 1

    def test_grounding_before_format(self):
        # malformed trace still earns grounding for tagged mentions
        breakdown = reward_components(trace_for({0, 2}, well_formed=False), "B", {0, 2})
        assert breakdown.r_fmt == 0
        assert breakdown.r_gnd == 2.0

    def test_total_is_exact_weighted_sum(self):
        rng = random.Random(2)
        for _ in range(200):
            pred = set(rng.sample(range(8), rng.randint(0, 5)))
            gt = set(rng.sample(range(8), rng.randint(1, 5)))
            config = EngineConfig(
                weight_acc=rng.random(), weight_fmt=rng.random(),
                weight_str=rng.random(), weight_gnd=rng.random(),
            )
            trace = trace_for(pred, answer=rng.choice("AB"))
            b = reward_components(trace, "A", gt, config=config)
            expected = math.fsum([
                config.weight_acc * b.r_acc, config.weight_fmt * b.r_fmt,
                config.weight_str * b.r_str, config.weight_gnd * b.r_gnd,
            ])
            assert b.total == expected

    def test_grounding_range_and_monotonicity(self):
        gt = {0, 2}
        values = []
        for extra in range(5):
            pred = {0, 2} | set(range(10, 10 + extra))
            b = reward_components(trace_for(pred), "B", gt)
            assert 0.0 <= b.r_gnd <= 2.0
            values.append(b.r_gnd)
        assert values == sorted(values, reverse=True)
        assert values[0] == 2.0  # exact match maxes out
        # r_gnd == 2 only for the exact set
        assert all(v < 2.0 for v in values[1:])


class TestScoreGroup:
    """score_group builds the accepted answers and the participant set once
    per group; each breakdown must equal reward_components on the rollout
    alone."""

    def test_breakdowns_equal_reward_components_alone(self):
        rng = random.Random(11)
        answers = ["B", " b ", "b\n", "C", "Person 2 looks at Person 0",
                   " person 2 LOOKS AT person 0\t", "Person 2", "", "  "]
        alias_hits = 0
        for n in range(300):
            rollouts = []
            for _ in range(8):
                if rng.random() < 0.3:
                    rollouts.append(tag_soup(rng) if n % 2 else near_valid(rng))
                else:
                    pred = " ".join(f"Person {i}" for i in rng.sample(range(5), rng.randint(0, 3)))
                    rollouts.append(f"<think><gaze>{pred}</gaze></think>"
                                    f"<answer>{rng.choice(answers)}</answer>")
            mcq = n % 3 != 0
            correct = "B" if mcq else rng.choice(["Person 2", " person 2 "])
            aliases = ("Person 2 looks at Person 0",) if mcq else ()
            gt = set(rng.sample(range(5), rng.randint(1, 3)))
            config = EngineConfig(weight_acc=rng.random(), weight_gnd=rng.random())
            scored = score_group(rollouts, correct, gt, aliases, config)
            alone = [reward_components(parse_trace(raw), correct, gt, aliases, config)
                     for raw in rollouts]
            assert [s.breakdown for s in scored] == alone
            alias_hits += sum(b.r_acc for b, raw in zip(alone, rollouts)
                              if mcq and "looks at" in raw.lower())
        assert alias_hits > 100

    def test_empty_gt_is_contract_violation(self):
        with pytest.raises(ContractError, match="gt_participants must be non-empty"):
            score_group([GOOD] * 8, "B", set())

    def test_over_long_id_names_the_rollout(self):
        rollouts = [GOOD] * 8
        rollouts[3] = f"<think><gaze>P{'9' * 5000}</gaze></think><answer>B</answer>"
        with pytest.raises(ValidationError,
                           match="^rollout 3: person id of 5000 digits is too long$"):
            score_group(rollouts, "B", {0})


class TestGroupAdvantages:
    def test_two_ones_six_zeros(self):
        adv = group_advantages([1, 1, 0, 0, 0, 0, 0, 0])
        assert adv[0] == pytest.approx(1.7320508075688772, abs=1e-12)
        assert adv[2] == pytest.approx(-0.5773502691896258, abs=1e-12)

    def test_uniform_rewards_zero(self):
        assert group_advantages([0.7] * 8) == [0.0] * 8

    def test_clipping(self):
        adv = group_advantages([100.0, 0.0], clip=5.0, mode="mean_center")
        assert adv == [5.0, -5.0]

    def test_k_below_two_rejected(self):
        with pytest.raises(ContractError):
            group_advantages([1.0])

    def test_mean_center_mode(self):
        adv = group_advantages([2.0, 1.0, 0.0], mode="mean_center")
        assert adv == pytest.approx([1.0, 0.0, -1.0])

    def test_sum_zero_and_affine_invariance(self):
        rng = random.Random(8)
        for _ in range(100):
            k = rng.randint(2, 12)
            rewards = [rng.uniform(0, 2) for _ in range(k)]
            adv = group_advantages(rewards)
            if max(abs(a) for a in adv) < 5.0:
                assert math.fsum(adv) == pytest.approx(0.0, abs=1e-9)
            shift = [r + 0.73 for r in rewards]
            scale = [r * 3.1 for r in rewards]
            assert group_advantages(shift) == pytest.approx(adv, abs=1e-9)
            assert group_advantages(scale) == pytest.approx(adv, abs=1e-9)


def test_normalize_answer():
    assert normalize_answer("  The Answer ") == "the answer"


# Pieces of random tag soup: every tag, mentions, plain and odd whitespace,
# and near-tags that are not tags.
PIECES = [
    "<think>", "</think>", "<answer>", "</answer>", "<gaze>", "</gaze>",
    "<gesture>", "</gesture>", "Person 1 ", "P2 ", "text ", "\n", "  ",
    "<think>", "</answer>", "<unknown>", "B", "<", ">", "</", "<think", "gaze>",
    "<Think>", "< answer>", "\u00a0", "\u2028", "\u200b",
]


def tag_soup(rng) -> str:
    return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 20)))


def near_valid(rng) -> str:
    """A template-shaped trace, then up to two random insertions or
    deletions, so that both outcomes stay frequent."""
    def text():
        return "".join(rng.choice(["", "Person 1 ", "a < b", "<unknown>", "P3", "\n", "x"])
                       for _ in range(rng.randint(0, 3)))

    def ws():
        return rng.choice(["", " ", "\n", "\t ", "\u3000", "\u00a0"])

    body = "".join(rng.choice([f"<gaze>{text()}</gaze>", f"<gesture>{text()}</gesture>", text()])
                   for _ in range(rng.randint(0, 4)))
    raw = f"{ws()}<think>{body}</think>{ws()}<answer>{text()}</answer>{ws()}"
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, len(raw))
        if rng.random() < 0.5:
            raw = raw[:at] + rng.choice(PIECES) + raw[at:]
        else:
            raw = raw[:at] + raw[at + rng.randint(1, 8):]
    return raw


class TestParserFuzz:
    def test_random_tag_soup_never_raises(self):
        rng = random.Random(99)
        for _ in range(500):
            raw = tag_soup(rng)
            trace = parse_trace(raw)
            assert isinstance(trace.well_formed, bool)
            extract_participants(trace)
            assert trace.well_formed == check_template(raw), raw

    def test_empty_and_whitespace_inputs(self):
        for raw in ("", "   ", "\n\n"):
            trace = parse_trace(raw)
            assert not trace.well_formed
            assert trace.think_block is None and trace.answer_block is None


def grammar_corpus():
    """100,000 traces, tag soup and near-valid in turn."""
    rng = random.Random(7)
    for n in range(100_000):
        yield tag_soup(rng) if n % 2 else near_valid(rng)


class TestTemplateGrammar:
    """The compiled template grammar against the state machine, and the
    blocks and mentions parse_trace finds against the regexes in
    tests/oracles.py."""

    def test_agrees_with_state_machine(self):
        outcomes = {True: 0, False: 0}
        for raw in grammar_corpus():
            expected = check_template(raw)
            assert (_TEMPLATE_RE.fullmatch(raw) is not None) == expected, raw
            outcomes[expected] += 1
        assert min(outcomes.values()) > 10_000, outcomes

    def test_blocks_and_mentions_agree_with_regexes(self):
        with_blocks = with_ids = 0
        for raw in grammar_corpus():
            trace = parse_trace(raw)
            blocks = (trace.think_block, trace.gaze_blocks, trace.gesture_blocks,
                      trace.answer_block)
            assert blocks == regex_blocks(raw), raw
            ids = set(regex_person_ids(raw))
            assert extract_person_ids(raw) == ids, raw
            with_blocks += bool(trace.gaze_blocks or trace.gesture_blocks)
            with_ids += bool(ids)
        assert min(with_blocks, with_ids) > 30_000, (with_blocks, with_ids)

    def test_outside_whitespace_is_str_isspace(self):
        every = "".join(map(chr, range(0x110000)))
        spaces = [ch for ch in every if ch.isspace()]
        assert re.findall(r"\s", every) == spaces
        near_misses = ["\u200b", "\ufeff", "\u180e", "x", "<"]
        for ch in spaces + near_misses:
            for raw in (f"{ch}<think>a</think><answer>B</answer>",
                        f"<think>a</think>{ch}<answer>B</answer>",
                        f"<think>a</think><answer>B</answer>{ch}"):
                assert parse_trace(raw).well_formed == check_template(raw) == ch.isspace(), \
                    hex(ord(ch))

    @pytest.mark.parametrize("raw", [
        "<think>" + "a <b " * 25_000 + "</think><answer>A</answer>x",
        "<think>" + "<gaze>a<b</gaze> <" * 7_000 + "<answer>A</answer>",
        "<think>" + "<" * 100_000 + "</think><answer>A",
        "<think></think><answer>" + "<gaze" * 25_000 + "</answer></answer>",
        "<think>" + "<gaze>" * 25_000,
        "<answer>" * 25_000,
    ], ids=["trailing-text", "unclosed-think", "bare-lt", "tag-in-answer", "unclosed-gaze",
            "unclosed-answer"])
    def test_failing_long_trace_is_linear(self, raw):
        """The whole parse, template match and block search, runs in a child
        process that times it, so a parse that backtracks or rescans fails at
        the outer timeout instead of hanging the run."""
        assert len(raw) >= 100_000 and raw.count("<") >= 25_000
        child = (
            "import sys, time\n"
            f"sys.path.insert(0, {str(Path(reward.__file__).parents[1])!r})\n"
            "from socialevents.reward import parse_trace\n"
            "raw = sys.stdin.read()\n"
            "start = time.perf_counter()\n"
            "well_formed = parse_trace(raw).well_formed\n"
            "print(well_formed, time.perf_counter() - start)\n"
        )
        done = subprocess.run([sys.executable, "-c", child], input=raw, capture_output=True,
                              text=True, timeout=30, check=True)
        well_formed, seconds = done.stdout.split()
        assert well_formed == "False"
        assert float(seconds) < 0.25
