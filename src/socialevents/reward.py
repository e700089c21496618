r"""Dual-tag reasoning-trace parsing and the four-part grounded reward.

A trace is well formed when it matches the template grammar

    template := ws <think> text (block text)* </think> ws <answer> text </answer> ws
    block    := <gaze> text </gaze> | <gesture> text </gesture>

where ws is whitespace (regex ``\s``, the characters ``str.isspace`` accepts)
and text is any run of characters that holds none of the eight tags. The
grammar is checked on one split of the trace at its tags (``_TAG_SPLIT``):
no two tags overlap, as each holds one ``<``, so the split finds every tag,
and the parts between tags are exactly the grammar's text runs. A trace is
well formed when its parts fall in the template's order (see
``parse_trace``); the split scans the trace once, as its pattern starts with
a literal ``<``, so the check is linear in the trace's length.

A well-formed trace's blocks are read from its parts. Every other trace's
blocks come from ``str.find`` scans (``_blocks``), linear as well.

The reward combines answer accuracy, format validity, tag usage, and a
precision-recall grounding term over mentioned person IDs; trajectory
advantages are normalized within their rollout group and clipped. Every
weight and advantage setting is read from ``EngineConfig``.

Cost: a rollout takes one tag split, one ``str.find`` scan per block tag
searched in a malformed trace, one mention scan per gaze or gesture block,
and three records (``ReasoningTrace``, ``RewardBreakdown``,
``ScoredRollout``) built with ``tuple.__new__``. ``cli.rewards_line`` then
writes its line from texts it formats once per run, keyed by the score they
spell (see there): the 16,000 rollouts of the ``rl`` benchmark's seed 1 hold
102 distinct ``r_acc``-to-``total`` runs, 57 predicted-ID sets and 15
``(n_pred, n_correct)`` pairs. On that input ``parse_trace`` takes ~3.3 us
per rollout, and in-process ``reward`` ~0.26 s (x86-64, Python 3.11, best of
10 runs, two rounds interleaved with the former parser); with the grammar as
one unrolled regex, matched before the ``str.find`` scans, they took ~4.8 us
and ~0.29 s.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import ContractError, ValidationError
from .ingest import _new
from .mentions import extract_person_ids

# Splits a trace at each of the eight tags, keeping the tags: the parts at
# odd indices are tags and those at even indices the text between them.
_TAG_SPLIT = re.compile(r"(</?(?:think|gaze|gesture|answer)>)")
# Each in-think block's open tag and its close tag.
_BLOCK_CLOSE = {"<gaze>": "</gaze>", "<gesture>": "</gesture>"}


# The result types are NamedTuples, immutable and hashable: one of each is
# built per rollout, at about a third of a frozen dataclass's cost.
class ReasoningTrace(NamedTuple):
    raw: str
    think_block: str | None
    gaze_blocks: tuple[str, ...]
    gesture_blocks: tuple[str, ...]
    answer_block: str | None
    well_formed: bool


class RewardBreakdown(NamedTuple):
    r_acc: int
    r_fmt: int
    r_str: int
    r_gnd: float
    total: float
    pred_participants: frozenset[int]
    n_correct: int  # predicted participants in the ground-truth set


class ScoredRollout(NamedTuple):
    trace: ReasoningTrace
    breakdown: RewardBreakdown
    advantage: float


# Each tag's open and close text.
_TAGS = {tag: (f"<{tag}>", f"</{tag}>") for tag in ("think", "gaze", "gesture", "answer")}


def _blocks(text: str, tag: str) -> tuple[str, ...]:
    """The text of each <tag>...</tag> block, left to right: an open tag pairs
    with the first close tag after it, and the search resumes after that
    close tag. These are the matches of re.findall(r"<tag>(.*?)</tag>", text,
    re.DOTALL), found in linear time even when close tags are missing."""
    open_tag, close_tag = _TAGS[tag]
    blocks = []
    start = text.find(open_tag)
    while start >= 0:
        start += len(open_tag)
        end = text.find(close_tag, start)
        if end < 0:
            break
        blocks.append(text[start:end])
        start = text.find(open_tag, end + len(close_tag))
    return tuple(blocks)


def parse_trace(raw: str) -> ReasoningTrace:
    """Extract template blocks; malformedness is reported, never raised.

    The think and answer blocks are the first block of their tag in the raw
    text; gaze and gesture blocks are searched within the think block, or
    within the raw text when there is none."""
    parts = _TAG_SPLIT.split(raw)
    n = len(parts)
    # A well-formed trace splits into 9 + 4k parts: ws <think> text, k times
    # (open tag, text, its close tag, text), then </think> ws <answer> text
    # </answer> ws, each ws empty or str.isspace().
    if (n % 4 == 1 and n >= 9 and parts[1] == "<think>" and parts[-6] == "</think>"
            and parts[-4] == "<answer>" and parts[-2] == "</answer>"
            and (not parts[0] or parts[0].isspace()) and (not parts[-5] or parts[-5].isspace())
            and (not parts[-1] or parts[-1].isspace())):
        blocks: dict[str, list[str]] = {"<gaze>": [], "<gesture>": []}
        for i in range(3, n - 6, 4):
            if _BLOCK_CLOSE.get(parts[i]) != parts[i + 2]:
                break
            blocks[parts[i]].append(parts[i + 1])
        else:
            # the text between the one <think> (7 characters) and the one </think>
            think_block = raw[len(parts[0]) + 7:raw.rfind("</think>")]
            return _new(ReasoningTrace, (raw, think_block, tuple(blocks["<gaze>"]),
                                         tuple(blocks["<gesture>"]), parts[-3], True))
    think_block = (_blocks(raw, "think") or (None,))[0]
    answer_block = (_blocks(raw, "answer") or (None,))[0]
    scope = think_block if think_block is not None else raw
    return _new(ReasoningTrace, (raw, think_block, _blocks(scope, "gaze"),
                                 _blocks(scope, "gesture"), answer_block, False))


def extract_participants(trace: ReasoningTrace) -> frozenset[int]:
    """Person IDs mentioned inside gaze/gesture blocks, other text ignored."""
    ids: set[int] = set()
    for block in trace.gaze_blocks + trace.gesture_blocks:
        ids.update(extract_person_ids(block))
    return frozenset(ids)


def normalize_answer(text: str) -> str:
    return text.strip().casefold()


def reward_components(
    trace: ReasoningTrace,
    correct_answer: str,
    gt_participants: frozenset[int] | set[int],
    answer_aliases: tuple[str, ...] = (),
    config: EngineConfig = DEFAULT_CONFIG,
) -> RewardBreakdown:
    """Score one trajectory against the item's answer and participant set.

    The grounding term is (1 + recall) * precision over mentioned person IDs,
    with precision defined as 0 for an empty prediction set. The total is the
    exact weighted sum of the four components, weighted by config.
    """
    return _score(trace, *_targets(correct_answer, gt_participants, answer_aliases), config)


def _targets(
    correct_answer: str, gt_participants, answer_aliases: tuple[str, ...],
) -> tuple[set[str], frozenset[int]]:
    """The normalized answers a trace may give and the participant set, built
    once per rollout group."""
    if not gt_participants:
        raise ContractError("gt_participants must be non-empty")
    accepted = {normalize_answer(a) for a in (correct_answer, *answer_aliases)}
    return accepted, frozenset(gt_participants)


def _score(
    trace: ReasoningTrace, accepted: set[str], gt: frozenset[int], config: EngineConfig,
) -> RewardBreakdown:
    answer = trace.answer_block
    r_acc = 1 if answer is not None and normalize_answer(answer) in accepted else 0
    r_fmt = 1 if trace.well_formed else 0
    r_str = 1 if trace.gaze_blocks or trace.gesture_blocks else 0

    pred = extract_participants(trace)
    hits = len(pred & gt)
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(gt)
    r_gnd = (1.0 + recall) * precision

    total = math.fsum([
        config.weight_acc * r_acc,
        config.weight_fmt * r_fmt,
        config.weight_str * r_str,
        config.weight_gnd * r_gnd,
    ])
    return _new(RewardBreakdown, (r_acc, r_fmt, r_str, r_gnd, total, pred, hits))


def score_group(
    rollouts,
    correct_answer: str,
    gt_participants,
    answer_aliases: tuple[str, ...] = (),
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[ScoredRollout]:
    """Score one rollout group end to end: parse, component rewards, and
    group-normalized advantages. The group must hold
    config.rollouts_per_query rollouts. A person id too long to convert is a
    ValidationError naming the rollout's index."""
    rollouts = list(rollouts)
    if len(rollouts) != config.rollouts_per_query:
        raise ContractError(f"expected {config.rollouts_per_query} rollouts, got {len(rollouts)}")
    accepted, gt = _targets(correct_answer, gt_participants, answer_aliases)
    traces = [parse_trace(raw) for raw in rollouts]
    breakdowns = []
    for index, trace in enumerate(traces):
        try:
            breakdowns.append(_score(trace, accepted, gt, config))
        except ValidationError as exc:
            raise ValidationError(f"rollout {index}: {exc}") from None
    advantages = group_advantages([b.total for b in breakdowns],
                                  config.advantage_clip, config.advantage_mode)
    return [_new(ScoredRollout, rollout) for rollout in zip(traces, breakdowns, advantages)]


def group_advantages(
    rewards: list[float],
    clip: float = DEFAULT_CONFIG.advantage_clip,
    mode: str = DEFAULT_CONFIG.advantage_mode,
) -> list[float]:
    """Group-normalized advantages: mean-centered, divided by the population
    standard deviation (unless mode is mean_center), clipped to +-clip.
    A zero-spread group gets all-zero advantages."""
    k = len(rewards)
    if k < 2:
        raise ContractError(f"rollout group needs at least 2 trajectories, got {k}")
    if mode not in ("zscore", "mean_center"):
        raise ContractError(f"unknown advantage mode {mode!r}")

    mean = math.fsum(rewards) / k
    centered = [r - mean for r in rewards]
    if mode == "zscore":
        std = math.sqrt(math.fsum([c * c for c in centered]) / k)
        if std == 0.0:
            return [0.0] * k
        centered = [c / std for c in centered]
    return [max(-clip, min(clip, c)) for c in centered]
