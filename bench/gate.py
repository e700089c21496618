"""Semantic checks on one pass's artifacts.

Every later pass must match the first byte for byte, so these checks run
once, on the first pass. Each returns a list of problems; empty means the
artifacts are correct.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import read_jsonl

MAX_EVENTS = 25
MAX_PAIR_DISTANCE = 3.0
ADVANTAGE_CLIP = 5.0
_TOL = 1e-9


def _on_grid(t: float) -> bool:
    return abs(t * 2 - round(t * 2)) <= _TOL


def check_build(out: Path, videos: int) -> list[str]:
    """Graph invariants and QA validity for a detect -> graph -> qagen pass."""
    from socialevents.graph import parse_graph
    from socialevents.qa import parse_qa_item, validate_qa

    problems = []
    graph_records = read_jsonl(out / "graph.jsonl")
    if len(graph_records) != videos:
        problems.append(f"{len(graph_records)} graphs for {videos} videos")
    graphs = {}
    for record in graph_records:
        vid = record["video_id"]
        events = record["events"]
        if len(events) > MAX_EVENTS:
            problems.append(f"{vid}: {len(events)} events")
        for e in events:
            if not (_on_grid(e["start_time"]) and _on_grid(e["end_time"])):
                problems.append(f"{vid}: event {e['event_id']} off the 0.5 s grid")
        for gaze_id, gesture_id, distance in record["joint_pairs"]:
            if distance > MAX_PAIR_DISTANCE + _TOL:
                problems.append(f"{vid}: pair ({gaze_id}, {gesture_id}) {distance} s apart")
        graphs[vid] = parse_graph(record)
    items = read_jsonl(out / "qa.jsonl")
    if not items:
        problems.append("no QA items")
    for record in items:
        item = parse_qa_item(record)
        graph = graphs.get(item.video_id)
        reason = "no graph" if graph is None else validate_qa(item, graph)
        if reason is not None:
            problems.append(f"{item.qa_id}: {reason}")
    return problems


def check_rl(out: Path, groups: int, k: int) -> list[str]:
    """Reward records per trace group and rollout counts in the report."""
    problems = []
    records = read_jsonl(out / "rewards.jsonl")
    if len(records) != groups:
        problems.append(f"{len(records)} reward records for {groups} trace groups")
    for record in records:
        rollouts = record["per_rollout"]
        if len(rollouts) != k:
            problems.append(f"{record['query_id']}: {len(rollouts)} rollouts, expected {k}")
        if any(abs(r["advantage"]) > ADVANTAGE_CLIP for r in rollouts):
            problems.append(f"{record['query_id']}: advantage outside +-{ADVANTAGE_CLIP}")
    report = json.loads((out / "report.json").read_text())
    models = report["models"]
    total = sum(m["rollouts"] for m in models.values())
    if total != groups * k:
        problems.append(f"report counts {total} rollouts, expected {groups * k}")
    for name, m in models.items():
        if m["rollouts"] != m["queries"] * k:
            problems.append(f"{name}: {m['rollouts']} rollouts for {m['queries']} queries")
    return problems
