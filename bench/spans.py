"""Per-layer tracing from outside the program.

The tracer replaces public functions of the program's modules with wrappers
that record a span per call: name, start, end, parent span and the video or
trace group it worked on. Spans stay in memory; the worker writes them once
at the end. A function that no longer exists is reported as missing and its
metrics are left out, so a renamed function cannot stop a run.

Span names are "<layer>.<what>"; a layer's self time is the time of its
spans minus the time of their child spans. The CLI's serialisation calls are
attributed to the cli layer, because the CLI makes them to write artifacts.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import Counter
from time import perf_counter

LAYERS = ("ingest", "identity", "gaze", "events", "graph", "qa", "reward", "analytics", "cli")
STAGES = ("detect", "graph", "qagen", "reward", "analyze")
DETECT_LAYERS = ("ingest.load_observations", "identity.", "gaze.", "events.")
PROVENANCES = ("measured", "interpolated", "carried", "missing")
EVENT_TYPES = ("sudden_gaze_shift", "joint_attention", "gaze_following",
               "attention_capture", "mutual_gaze")


def _video_key(args):
    first = args[0] if args else None
    if isinstance(first, (list, tuple)):
        first = first[0] if first else None
    return getattr(first, "video_id", None)


# Counters read the arguments and result of each call after the pass, so
# that counting never runs inside a timed span.
def _count_frames(counts, args, frames):
    counts["ingest.frames"] += len(frames)
    counts["ingest.faces"] += sum(len(f.faces) for f in frames)
    counts["ingest.input_bytes"] += os.path.getsize(args[0])


def _count_gestures(counts, args, result):
    accepted, rejected = result
    counts["ingest.gestures"] += len(accepted)
    counts["ingest.gestures_rejected"] += len(rejected)
    counts["ingest.input_bytes"] += os.path.getsize(args[0])


def _count_match(counts, args, association):
    counts["identity.unmatched_faces"] += len(association.unmatched_faces)


def _count_samples(counts, args, track):
    for sample in track.samples:
        counts[f"gaze.samples_{sample.provenance}"] += 1


def _count_events(counts, args, detected):
    for event in detected:
        counts[f"events.n_{event.event_type}"] += 1


def _count_graph(counts, args, graph):
    counts["graph.events_in"] += len(args[2]) + len(args[3])
    counts["graph.events_out"] += len(graph.events)
    counts["graph.joint_pairs"] += len(graph.joint_pairs)


def _count_qa(counts, args, items):
    counts["qa.items"] += len(items)


def _count_group(counts, args, scored):
    counts["reward.rollouts"] += len(scored)
    counts["reward.malformed"] += sum(not s.trace.well_formed for s in scored)
    counts["reward.zero_spread_groups"] += all(s.advantage == 0.0 for s in scored)


# The counts each counter feeds; a count is reported only while the
# function that feeds it is wrapped.
FEEDS = {
    _count_frames: ("ingest.frames", "ingest.faces", "ingest.input_bytes"),
    _count_gestures: ("ingest.gestures", "ingest.gestures_rejected", "ingest.input_bytes"),
    _count_match: ("identity.unmatched_faces",),
    _count_samples: tuple(f"gaze.samples_{p}" for p in PROVENANCES),
    _count_events: tuple(f"events.n_{t}" for t in EVENT_TYPES),
    _count_graph: ("graph.events_in", "graph.events_out", "graph.joint_pairs"),
    _count_qa: ("qa.items",),
    _count_group: ("reward.rollouts", "reward.malformed", "reward.zero_spread_groups"),
}

# (module, function, span name, key, counter, other modules that import the
# function by name and call it through that binding)
TARGETS = (
    ("ingest", "load_observations", "ingest.load_observations", None, _count_frames, ()),
    ("ingest", "load_gestures", "ingest.load_gestures", None, _count_gestures, ()),
    ("identity", "match_faces_to_persons", "identity.match", "video", _count_match, ("gaze",)),
    ("gaze", "build_tracks", "gaze.build_tracks", "video", None, ()),
    ("gaze", "interpolate_track", "gaze.interpolate", "video", _count_samples, ()),
    ("gaze", "compute_features", "gaze.features", "video", None, ()),
    ("events", "detect_sudden_shifts", "events.sudden", "video", None, ()),
    ("events", "detect_joint_attention", "events.joint_attention", "video", None, ()),
    ("events", "detect_gaze_following", "events.following", "video", None, ()),
    ("events", "detect_attention_capture", "events.capture", "video", None, ()),
    ("events", "detect_mutual_gaze", "events.mutual", "video", None, ()),
    ("events", "detect_all", "events.detect_all", "video", _count_events, ()),
    ("graph", "build_graph", "graph.build", "name", _count_graph, ()),
    ("graph", "load_graphs", "graph.load", None, None, ()),
    ("qa", "generate_qa", "qa.generate", "video", _count_qa, ()),
    ("qa", "load_qa_items", "qa.load", None, None, ()),
    ("reward", "score_group", "reward.score_group", "group", _count_group, ()),
    ("reward", "parse_trace", "reward.parse_trace", None, None, ()),
    ("reward", "extract_participants", "reward.extract_participants", None, None, ()),
    ("analytics", "reasoning_length", "analytics.per_rollout", None, None, ()),
    ("analytics", "grounding_precision", "analytics.per_rollout", None, None, ()),
    ("analytics", "novel_participants", "analytics.per_rollout", None, None, ()),
    ("events", "serialize_event", "cli.serialize", None, None, ()),
    ("graph", "serialize_graph", "cli.serialize", None, None, ()),
    ("qa", "serialize_qa_item", "cli.serialize", None, None, ()),
    ("ingest", "dumps_canonical", "cli.serialize", None, None, ()),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, key]
        self.stack: list[int] = []
        self.calls: list[tuple] = []  # (counter, args, result) for counted calls
        self.groups = 0
        self.names: set[str] = set()
        self.counted: set[str] = set()
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every target that exists; record the others as missing."""
        for module_name, attr, name, key, counter, aliases in TARGETS:
            try:
                module = importlib.import_module(f"socialevents.{module_name}")
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(fn, name, key, counter)
            setattr(module, attr, wrapped)
            for alias in aliases:
                other = importlib.import_module(f"socialevents.{alias}")
                if getattr(other, attr, None) is fn:
                    setattr(other, attr, wrapped)
            self.names.add(name)
            self.counted.update(FEEDS.get(counter, ()))

    def reset(self) -> list[list]:
        """Start a new pass; returns the spans of the previous one."""
        spans = self.spans
        self.spans, self.stack, self.calls, self.groups = [], [], [], 0
        return spans

    def _wrap(self, fn, name, key, counter):
        materialize = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            parent = stack[-1] if stack else -1
            if key == "video":
                span_key = _video_key(args)
            elif key == "name":
                span_key = args[0]
            elif key == "group":
                span_key = f"group-{self.groups}"
                self.groups += 1
            else:
                span_key = spans[parent][4] if parent >= 0 else None
            span = [name, 0.0, 0.0, parent, span_key]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                self.calls.append((counter, args, result))
            return iter(result) if materialize else result

        return wrapper

    def stage(self, stage: str, fn, argv):
        """Run one CLI stage as a root span."""
        span = [f"cli.{stage}", 0.0, 0.0, -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(argv)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def metrics(self) -> dict[str, float]:
        """Per-layer seconds and counts of the current pass."""
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - children[i]

        names = self.names | {f"cli.{s}" for s in STAGES}
        metrics = {f"{n}_s": total[n] for n in sorted(names)}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                v for n, v in own.items() if n.startswith(f"{layer}."))
        if "gaze.build_tracks" in self.names:
            metrics["gaze.build_tracks_self_s"] = own["gaze.build_tracks"]

        counts: Counter = Counter()
        for counter, args, result in self.calls:
            counter(counts, args, result)
        for name in sorted(self.counted):
            metrics[name] = counts[name]
        metrics["trace.spans"] = len(spans)
        metrics["trace.detect_spans"] = sum(
            1 for s in spans if s[0].startswith(DETECT_LAYERS))
        return metrics
