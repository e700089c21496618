"""Every function the benchmark traces exists under its name, and reward
calls its traced functions as the benchmark counts them.

bench/spans.py wraps functions of the package by module and name, and
reports one it cannot find only as "missing metrics" when the benchmark
runs. These tests read its TARGETS table, without installing the tracer,
and check each name in tier-1."""

import importlib
import json
from collections import Counter
from pathlib import Path

from socialevents.cli import main
from socialevents.graph import serialize_graph
from socialevents.qa import load_qa_items
from synth import make_graph, make_traces

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets() -> tuple:
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)  # no bytecode file written
    return namespace["TARGETS"]


def test_every_traced_function_exists():
    missing = []
    for module_name, attr, *_, aliases in _targets():
        fn = getattr(importlib.import_module(f"socialevents.{module_name}"), attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
        # a module that imports the function by name must still call that one
        missing += [f"{alias}.{attr}" for alias in aliases
                    if getattr(importlib.import_module(f"socialevents.{alias}"), attr, None)
                    is not fn]
    assert missing == []


# The reward stage's traced functions, each with the calls the stage makes
# per trace line ("group") or per rollout.
REWARD_CALLS = {("reward", "score_group"): "group", ("reward", "parse_trace"): "rollout",
                ("reward", "extract_participants"): "rollout",
                ("analytics", "reasoning_length"): "rollout"}


def test_reward_calls_each_traced_function_per_group_or_rollout(tmp_path, monkeypatch):
    """The benchmark attributes reward's time through these module
    attributes, so the stage must call each through its module, once per
    trace line or rollout. This wraps them as bench/spans.py does, with
    wrappers that count, and runs reward on synth traces."""
    assert set(REWARD_CALLS) <= {(module, attr) for module, attr, *_ in _targets()}
    (tmp_path / "graph.jsonl").write_text("".join(
        serialize_graph(make_graph(seed)) + "\n" for seed in range(4)))
    out = str(tmp_path)
    assert main(["qagen", "--input", f"{out}/graph.jsonl", "--out", out]) == 0
    records = make_traces(3, load_qa_items(tmp_path / "qa.jsonl"), groups=10)
    (tmp_path / "traces.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))

    calls = Counter()
    for name in REWARD_CALLS:
        module = importlib.import_module(f"socialevents.{name[0]}")
        fn = getattr(module, name[1])

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name[1], counted)
    assert main(["reward", "--input", f"{out}/qa.jsonl", "--traces", f"{out}/traces.jsonl",
                 "--graphs", f"{out}/graph.jsonl", "--out", out]) == 0
    per = {"group": len(records), "rollout": sum(len(r["rollouts"]) for r in records)}
    assert calls == {name: per[unit] for name, unit in REWARD_CALLS.items()}
