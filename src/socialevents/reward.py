"""Dual-tag reasoning-trace parsing and the four-part grounded reward.

Traces follow the template

    <think> ... <gaze>...</gaze> <gesture>...</gesture> ... </think><answer>a</answer>

with any number of gaze/gesture blocks inside think. The reward combines
answer accuracy, format validity, tag usage, and a precision-recall grounding
term over mentioned person IDs; trajectory advantages are normalized within
their rollout group and clipped.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .config import DEFAULT_CONFIG
from .errors import ContractError
from .mentions import extract_person_ids

_TAG_RE = re.compile(r"</?(think|gaze|gesture|answer)>")
_THINK_RE = re.compile(r"<think>(.*?)</think>", re.DOTALL)
_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)
_GAZE_RE = re.compile(r"<gaze>(.*?)</gaze>", re.DOTALL)
_GESTURE_RE = re.compile(r"<gesture>(.*?)</gesture>", re.DOTALL)


@dataclass(frozen=True)
class ReasoningTrace:
    raw: str
    think_block: str | None
    gaze_blocks: tuple[str, ...]
    gesture_blocks: tuple[str, ...]
    answer_block: str | None
    well_formed: bool


@dataclass(frozen=True)
class RewardWeights:
    acc: float = DEFAULT_CONFIG.weight_acc
    fmt: float = DEFAULT_CONFIG.weight_fmt
    structure: float = DEFAULT_CONFIG.weight_str
    grounding: float = DEFAULT_CONFIG.weight_gnd


@dataclass(frozen=True)
class RewardBreakdown:
    r_acc: int
    r_fmt: int
    r_str: int
    r_gnd: float
    total: float
    weights: RewardWeights
    pred_participants: frozenset[int]


@dataclass(frozen=True)
class ScoredRollout:
    trace: ReasoningTrace
    breakdown: RewardBreakdown
    advantage: float


def parse_trace(raw: str) -> ReasoningTrace:
    """Extract template blocks; malformedness is reported, never raised."""
    well_formed = _check_template(raw)
    think = _THINK_RE.search(raw)
    think_block = think.group(1) if think else None
    answer = _ANSWER_RE.search(raw)
    answer_block = answer.group(1) if answer else None
    scope = think_block if think_block is not None else raw
    gaze_blocks = tuple(_GAZE_RE.findall(scope))
    gesture_blocks = tuple(_GESTURE_RE.findall(scope))
    return ReasoningTrace(raw, think_block, gaze_blocks, gesture_blocks, answer_block, well_formed)


def _check_template(raw: str) -> bool:
    """One think block, then one answer block, sub-tags nested inside think,
    nothing but whitespace outside."""
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


def serialize_trace(trace: ReasoningTrace) -> str:
    """Canonical template text for a parsed trace."""
    think = trace.think_block or ""
    answer = trace.answer_block or ""
    return f"<think>{think}</think><answer>{answer}</answer>"


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
    weights: RewardWeights = RewardWeights(),
    answer_aliases: tuple[str, ...] = (),
) -> RewardBreakdown:
    """Score one trajectory against the item's answer and participant set.

    The grounding term is (1 + recall) * precision over mentioned person IDs,
    with precision defined as 0 for an empty prediction set. The total is the
    exact weighted sum of the four components.
    """
    if not gt_participants:
        raise ContractError("gt_participants must be non-empty")

    accepted = {normalize_answer(correct_answer)}
    accepted.update(normalize_answer(a) for a in answer_aliases)
    r_acc = int(trace.answer_block is not None and normalize_answer(trace.answer_block) in accepted)
    r_fmt = int(trace.well_formed)
    r_str = int(bool(trace.gaze_blocks or trace.gesture_blocks))

    pred = extract_participants(trace)
    gt = frozenset(gt_participants)
    hits = len(pred & gt)
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(gt)
    r_gnd = (1.0 + recall) * precision

    total = math.fsum([
        weights.acc * r_acc,
        weights.fmt * r_fmt,
        weights.structure * r_str,
        weights.grounding * r_gnd,
    ])
    return RewardBreakdown(r_acc, r_fmt, r_str, r_gnd, total, weights, pred)


def score_group(
    rollouts,
    correct_answer: str,
    gt_participants,
    weights: RewardWeights = RewardWeights(),
    answer_aliases: tuple[str, ...] = (),
    expected_k: int | None = DEFAULT_CONFIG.rollouts_per_query,
    clip: float = DEFAULT_CONFIG.advantage_clip,
    mode: str = DEFAULT_CONFIG.advantage_mode,
) -> list[ScoredRollout]:
    """Score one rollout group end to end: parse, component rewards, and
    group-normalized advantages. Enforces the group size when expected_k is
    given."""
    rollouts = list(rollouts)
    if expected_k is not None and len(rollouts) != expected_k:
        raise ContractError(f"expected {expected_k} rollouts, got {len(rollouts)}")
    traces = [parse_trace(raw) for raw in rollouts]
    breakdowns = [
        reward_components(trace, correct_answer, gt_participants,
                          weights=weights, answer_aliases=answer_aliases)
        for trace in traces
    ]
    advantages = group_advantages([b.total for b in breakdowns], clip=clip, mode=mode)
    return [
        ScoredRollout(trace, breakdown, advantage)
        for trace, breakdown, advantage in zip(traces, breakdowns, advantages)
    ]


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
        std = math.sqrt(math.fsum(c * c for c in centered) / k)
        if std == 0.0:
            return [0.0] * k
        centered = [c / std for c in centered]
    return [max(-clip, min(clip, c)) for c in centered]
