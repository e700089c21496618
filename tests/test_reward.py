import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import check_template
from socialevents import reward
from socialevents.config import EngineConfig
from socialevents.errors import ContractError
from socialevents.reward import (
    _TEMPLATE_RE,
    extract_participants,
    group_advantages,
    normalize_answer,
    parse_trace,
    reward_components,
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


class TestTemplateGrammar:
    """The compiled template grammar against the state machine in
    tests/oracles.py."""

    def test_agrees_with_state_machine(self):
        rng = random.Random(7)
        outcomes = {True: 0, False: 0}
        for n in range(100_000):
            raw = tag_soup(rng) if n % 2 else near_valid(rng)
            expected = check_template(raw)
            assert (_TEMPLATE_RE.fullmatch(raw) is not None) == expected, raw
            outcomes[expected] += 1
        assert min(outcomes.values()) > 10_000, outcomes

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
    ], ids=["trailing-text", "unclosed-think", "bare-lt", "tag-in-answer"])
    def test_failing_long_trace_is_linear(self, raw):
        """The match runs in a child process that times it, so a backtracking
        grammar fails at the outer timeout instead of hanging the run."""
        assert len(raw) >= 100_000 and raw.count("<") >= 25_000
        child = (
            "import sys, time\n"
            f"sys.path.insert(0, {str(Path(reward.__file__).parents[1])!r})\n"
            "from socialevents.reward import _TEMPLATE_RE\n"
            "raw = sys.stdin.read()\n"
            "start = time.perf_counter()\n"
            "matched = _TEMPLATE_RE.fullmatch(raw) is not None\n"
            "print(matched, time.perf_counter() - start)\n"
        )
        done = subprocess.run([sys.executable, "-c", child], input=raw, capture_output=True,
                              text=True, timeout=30, check=True)
        matched, seconds = done.stdout.split()
        assert matched == "False"
        assert float(seconds) < 0.25
