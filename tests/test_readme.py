"""README's field lists against the record tables, so the docs cannot drift
from what the stages read."""

import json
import re
from pathlib import Path

import pytest

from socialevents import cli, events, graph, ingest, qa

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def listed(span: str) -> list[str]:
    """The top-level keys of a README field list such as ``{a, b?, c: [...]}``."""
    inner = span.strip()[1:-1]
    while re.search(r"\[[^\[\]]*\]|\{[^{}]*\}", inner):
        inner = re.sub(r"\[[^\[\]]*\]|\{[^{}]*\}", "", inner)
    return [part.split(":")[0].strip().rstrip("?") for part in inner.split(",")]


def span_after(label: str) -> str:
    """The code span that follows a file's name in README."""
    return re.search(re.escape(label) + r"[^`]*`([^`]*)`", README)[1]


@pytest.mark.parametrize("label, schema", [
    ("`qa.jsonl`:", qa.QA),
    ("`traces.jsonl` (input):", cli.TRACE),
    ("`rewards.jsonl`:", cli.REWARDS),
    ("`graph.jsonl`:", graph.GRAPH),
], ids=["qa", "traces", "rewards", "graph"])
def test_field_list_is_the_table(label, schema):
    assert listed(span_after(label)) == schema.keys


def test_written_lists_name_every_key_read():
    """rewards.jsonl's rollouts and videos.jsonl hold keys no stage reads."""
    rollout = re.search(r"per_rollout: \[(\{[^{}]*\})", span_after("`rewards.jsonl`:"))[1]
    assert set(cli.ROLLOUT.keys) <= set(listed(rollout))
    assert set(ingest.MANIFEST.keys) <= set(listed(span_after("`videos.jsonl`:")))


def test_event_field_order_is_the_table():
    order = re.search(r"`events.jsonl` field order: `([^`]*)`", README)[1]
    assert [key.strip() for key in order.split(",")] == events.EVENT_LINE.keys


def test_analyze_reads_rollout_fields_in_table_order():
    sentence = re.search(r"From each\s+rollout it reads, in this order, (.*?)\. ", README, re.S)[1]
    assert [name for name in re.findall(r"`(\w+)`", sentence) if name != "null"] == \
        cli.ROLLOUT.keys


@pytest.mark.parametrize("label, schema", [
    ("`observations.jsonl` (input)", ingest.OBSERVATION),
    ("`gestures.jsonl` (input)", ingest.GESTURE),
], ids=["observations", "gestures"])
def test_input_example_has_the_table_keys(label, schema):
    """A gesture's target_person_id is read after its table."""
    example = re.search(re.escape(label) + r"\s*```json\n(.*?)```", README, re.S)[1]
    assert set(schema.keys) <= set(json.loads(example))
