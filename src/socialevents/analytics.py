"""Diagnostics over scored traces and QA corpora.

Covers the per-rollout diagnostics the reward stage records (grounding
precision, novel participants, reasoning length), participant-ID corruption
for shortcut probing and Pearson correlation. The per-model aggregation over
scored rollouts is the analyze stage in cli.py.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ContractError
from .mentions import extract_person_ids, replace_person_ids
from .qa import QAItem, item_person_ids, keyed_rng
from .reward import ReasoningTrace


@dataclass(frozen=True)
class IdRemap:
    """A permutation over the person IDs appearing in one QA item."""

    mapping: dict[int, int]

    def __post_init__(self):
        domain = set(self.mapping)
        image = set(self.mapping.values())
        if len(image) != len(self.mapping) or domain != image:
            raise ContractError(f"remap is not a permutation: {self.mapping}")

    def inverse(self) -> "IdRemap":
        return IdRemap({v: k for k, v in self.mapping.items()})


def grounding_precision(pred: set[int], gt: set[int]) -> float | None:
    """Fraction of predicted participants that are correct; None (excluded
    from aggregates) when nothing was predicted."""
    if not gt:
        raise ContractError("gt participants must be non-empty")
    if not pred:
        return None
    return len(set(pred) & set(gt)) / len(pred)


def novel_participants(pred: set[int], question: str) -> int:
    """Predicted IDs that the question text never mentions."""
    return len(set(pred) - extract_person_ids(question))


def corrupt_ids(item: QAItem, remap: IdRemap) -> QAItem:
    """Rewrite person tokens in the item text through the remap.

    The answer letter, source event IDs, and time range stay untouched; only
    the textual ID references move.
    """
    present = item_person_ids(item)
    missing = present - set(remap.mapping)
    if missing:
        raise ContractError(f"remap does not cover IDs {sorted(missing)}")

    mapping = remap.mapping
    question = replace_person_ids(item.question, mapping)
    answer_text = replace_person_ids(item.answer_text, mapping)
    options = item.options
    if options is not None:
        options = tuple(replace_person_ids(o, mapping) for o in options)
    answer = item.answer if item.format == "mcq" else answer_text
    return dataclasses.replace(
        item, question=question, options=options, answer=answer, answer_text=answer_text
    )


def seeded_remap(ids: list[int], key: str) -> IdRemap:
    """Deterministic permutation of ids keyed by an arbitrary string; always
    non-identity when two or more IDs are present."""
    ids = sorted(ids)
    if len(ids) < 2:
        return IdRemap({pid: pid for pid in ids})
    shuffled = ids[:]
    keyed_rng(key).shuffle(shuffled)
    if shuffled == ids:
        shuffled = ids[1:] + ids[:1]
    return IdRemap(dict(zip(ids, shuffled)))


def pearson(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson correlation; raises on degenerate series."""
    if len(xs) != len(ys):
        raise ContractError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ContractError("need at least 2 points")
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ContractError("correlation undefined for a constant series")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


# Each byte of an ASCII text marked as a separator of str.split() (b" ") or
# a token byte (b"x"). The ASCII characters str.isspace() accepts are
# \t \n \x0b \x0c \r \x1c-\x1f and space.
_TOKEN_MARKS = bytes(32 if b < 128 and chr(b).isspace() else 120 for b in range(256))


def reasoning_length(trace: ReasoningTrace) -> tuple[int, bool]:
    """Whitespace-token count of the think block; malformed traces are counted
    over the raw text and flagged. The count is ``len(text.split())``; for
    an ASCII text it is taken from the marks of ``_TOKEN_MARKS`` without
    building the words: a token starts at each separator followed by a
    token byte, and at a leading token byte."""
    if trace.well_formed and trace.think_block is not None:
        text, flagged = trace.think_block, False
    else:
        text, flagged = trace.raw, True
    if text.isascii():
        marks = text.encode().translate(_TOKEN_MARKS)
        return marks.count(b" x") + (marks[:1] == b"x"), flagged
    return len(text.split()), flagged
