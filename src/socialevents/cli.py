"""Command-line front end chaining the pipeline stages over JSONL files.

Subcommands:

    detect    observations.jsonl        -> events.jsonl, videos.jsonl
    graph     events.jsonl + gestures   -> graph.jsonl
    qagen     graph.jsonl               -> qa.jsonl
    reward    qa.jsonl + traces.jsonl   -> rewards.jsonl
    analyze   rewards.jsonl             -> report.json
    corrupt   qa.jsonl                  -> qa.corrupted.jsonl

Each stage takes flags only for the engine parameters it reads (see
STAGE_FIELDS); reward's weights and rollout count come from --weights and
--k. detect, graph, qagen and reward take --print-config to dump the full
parameter set. The timeline is fixed at 2 fps (ingest.SAMPLE_PERIOD).

--threads N (default 1) is the number of worker processes. Only detect uses
it: with N > 1 it cuts the input's lines into runs by each line's key, the
value of its first "video_id" key read by the JSON decoder's own string
scanner, or of the video_id json.loads reads from a line that spells the
key name with an escape (a line without one joins the run before it), and
runs a pool of up to N forked workers (concurrent.futures.ProcessPoolExecutor;
no more workers than runs or usable CPUs), each detecting every video of one
run at a time, and writes their output in run order. Every other stage
runs serially in input order. The bytes, the exit code and the message are
the same at any N: only the workers' readers judge the input, and a fault
in the pool or a video detected twice (one that comes back after another,
or whose lines a wrong key split) makes detect run serially from the start,
which detects and writes each video as soon as its run of frames ends (a
video that comes back exits 3).

reward formats each rewards.jsonl line as text (rewards_line), with the
bytes ingest.dumps_canonical would write for the group's record, and
formats the text of each distinct score once per run. Trace
records, rewards records and their rollouts are read through the TRACE,
REWARDS and ROLLOUT tables below with ingest.read_record, as every other
record is through its own table; whether a rollout is valid does not depend
on --tsv, and a rollout must hold counts and a precision reward can write
(_rollout). analyze keeps one trace group per rewards line, in file order:
report.json's block for each model is _block over that model's groups, and
report.tsv's rows are written from the same groups. With --tsv a query_id,
qa_id or model holding a tab, LF or CR (which would split report.tsv's rows)
or a lone surrogate (which has no UTF-8 bytes) is a schema error.

Each stage runs with the cyclic garbage collector off; main restores the
caller's setting however the stage ends.

Exit codes: 0 success; 2 missing or unreadable input, an output directory
that cannot be made, or a bad command line; 3 schema/validation error,
including an input byte that is not UTF-8. The message names the path, the
line or the config field. Identical inputs, seed, and parameters give
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import itertools
import json
import math
import operator
import os
import re
import statistics
import sys
from pathlib import Path

from . import analytics, events, gaze, graph as graph_mod, ingest, qa, reward as reward_mod
from .config import EngineConfig, add_config_arguments, config_from_args
from .errors import ContractError, EngineError, ValidationError
from .mentions import extract_person_ids

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_SCHEMA = 3

# The engine parameters each stage reads; every EngineConfig field belongs to
# exactly one stage. WEIGHT_FIELDS (--weights) and rollouts_per_query (--k)
# complete the reward stage.
STAGE_FIELDS = {
    "detect": (
        "linear_max_gap", "carry_max_gap", "linear_conf_slope", "carry_conf_base",
        "carry_conf_decay", "block_temporal_gap", "block_face_displacement",
        "convergence_alpha", "convergence_measured_only",
        "sudden_velocity", "sudden_cluster_gap", "sudden_min_duration", "sudden_max_duration",
        "ja_convergence", "ja_min_duration", "ja_set_overlap", "ja_peripheral_mult",
        "follow_distance", "follow_lag_min", "follow_lag_max",
        "capture_velocity", "capture_min_persons", "capture_window",
        "mutual_margin", "mutual_min_duration",
    ),
    "graph": ("gaze_conf_min", "gesture_conf_min", "pair_max_distance", "max_graph_events"),
    "qagen": ("qa_medium_min_events", "qa_hard_min_events"),
    "reward": ("advantage_clip", "advantage_mode"),
}
WEIGHT_FIELDS = ("weight_acc", "weight_fmt", "weight_str", "weight_gnd")


def main(argv: list[str] | None = None) -> int:
    """Run one stage with the cyclic garbage collector off, then restore
    the caller's setting, however the stage ends.

    Every gaze sample and its face box is a NamedTuple subclass, which the
    collector never untracks, so with it on each full collection walks every
    sample of the video and detect's time grows faster than its length. The
    stages leave no cycles that grow with the input; the few they leave
    (argparse's) wait for the caller's next collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if getattr(args, "weights", None) is not None:
            config = dataclasses.replace(config, **dict(zip(WEIGHT_FIELDS, args.weights)))
        if getattr(args, "budget", 0) < 0:
            raise ContractError(f"--budget = {args.budget!r} must be >= 0")
        if getattr(args, "print_config", False):
            print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
            return EXIT_OK
        return args.handler(args, config)
    except FileNotFoundError as exc:
        print(f"error: missing input: {exc.filename or exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except OSError as exc:  # e.g. --input names a directory, --out lies under a file
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialevents",
        description="Deterministic social gaze/gesture event engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, summary: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", required=True, help="primary input JSONL file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=_threads, default=1, metavar="N",
                       help="worker processes, at least 1: detect shards its videos over "
                            "up to N; other stages run serially; same bytes at any N")
        if name in STAGE_FIELDS:
            p.add_argument("--print-config", action="store_true",
                           help="print the effective parameter set and exit")
            add_config_arguments(p, STAGE_FIELDS[name])
        p.set_defaults(handler=handler)
        return p

    p = stage("detect", "observations to gaze events", _cmd_detect)
    p.add_argument("--dump-features", action="store_true",
                   help="also write per-frame features.jsonl")

    p = stage("graph", "events + gestures to unified graphs", _cmd_graph)
    p.add_argument("--gestures", required=True, help="gestures.jsonl")
    p.add_argument("--videos", default=None, help="videos.jsonl manifest from detect")

    p = stage("qagen", "graphs to QA items", _cmd_qagen)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=25, help="max items per graph")

    p = stage("reward", "QA + reasoning traces to rewards", _cmd_reward)
    p.add_argument("--traces", required=True, help="traces.jsonl")
    p.add_argument("--graphs", required=True, help="graph.jsonl for participant lookup")
    p.add_argument("--weights", type=_weights, default=None, metavar="ACC,FMT,STR,GND",
                   help="reward weights")
    p.add_argument("--k", type=int, default=None, dest="rollouts_per_query",
                   metavar="K", help="rollouts per query")

    p = stage("analyze", "rewards to a summary report", _cmd_analyze)
    p.add_argument("--tsv", action="store_true", help="also write per-rollout report.tsv")

    p = stage("corrupt", "QA to participant-ID corrupted QA", _cmd_corrupt)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs an integer of at least 1, got {text!r}")
    return value


def _weights(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        values = ()
    if len(values) != 4 or not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(
            f"needs four finite comma-separated numbers acc,fmt,str,gnd, got {text!r}")
    return values


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextlib.contextmanager
def _artifact(path: Path):
    """A text file for one artifact: a temporary file in the same directory
    that replaces the artifact when the block ends. A failure inside the
    block leaves any previous artifact as it was and removes the temporary
    file, so the next stage never reads a truncated artifact."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_lines(path: Path, lines) -> None:
    """Write one artifact, one line per item."""
    with _artifact(path) as fh:
        fh.writelines(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# detect


def _cmd_detect(args: argparse.Namespace, config: EngineConfig) -> int:
    out = _out_dir(args)
    outputs = _detect_sharded(args, config) if args.threads > 1 else None
    if outputs is None:
        outputs = (_detect_video(video_id, tracks, stop, config, args.dump_features)
                   for video_id, tracks, stop in _read_videos(
                       ingest.load_observations(args.input)))

    # Each video's lines are written as soon as it is detected.
    dump = _artifact(out / "features.jsonl") if args.dump_features else contextlib.nullcontext()
    with (_artifact(out / "events.jsonl") as events_fh,
          _artifact(out / "videos.jsonl") as videos_fh, dump as features_fh):
        for events_text, video_line, features_text in outputs:
            events_fh.write(events_text)
            videos_fh.write(video_line)
            if args.dump_features:
                features_fh.write(features_text)
    return EXIT_OK


def _read_videos(frames):
    """``(video_id, tracks, stop)`` of each video as soon as its run of
    frames ends, in file order, where stop is one past its last tick. Each
    frame is garbage once its samples exist, and a video's tracks once the
    caller moves on."""
    last = None

    def run_of(run):
        nonlocal last
        for last in run:
            yield last

    for video_id, run in itertools.groupby(frames, operator.attrgetter("video_id")):
        yield video_id, gaze.build_tracks(run_of(run)), last.k + 1


def _detect_video(video_id: str, tracks: list[gaze.GazeTrack], stop: int,
                  config: EngineConfig, dump: bool) -> tuple[str, str, str]:
    """One video's events, manifest line and (when ``dump``) features, as
    the text of its lines in each artifact."""
    tracks = [gaze.interpolate_track(t, config) for t in tracks]
    features = gaze.compute_features(tracks, config)
    events_text = "".join(events.serialize_event(event, video_id) + "\n"
                          for event in events.detect_all(tracks, features, config))
    video_line = ingest.dumps_canonical({
        "video_id": video_id, "duration": stop * ingest.SAMPLE_PERIOD,
        "person_ids": [t.person_id for t in tracks]}) + "\n"
    features_text = "".join(ingest.dumps_canonical(_feature_record(video_id, f)) + "\n"
                            for f in features) if dump else ""
    return events_text, video_line, features_text


# A "video_id" key up to its value's opening quote; spaces or tabs may stand
# around the colon. It holds no string body: _video_key reads the value.
_VIDEO_KEY = re.compile(r'"video_id"[ \t]*:[ \t]*"')


def _video_key(line: str) -> str | None:
    """A line's key, which only cuts the input into runs: the string value
    of its first ``_VIDEO_KEY``, read by ``json.decoder.scanstring``, the
    strict scanner ``json.loads`` reads every string with, so escapes read
    as the worker's reader reads them. A line that ``_VIDEO_KEY`` misses but
    that holds a backslash may spell the key name with an escape
    (``"video\\u005fid"``): it is keyed by the top-level ``video_id`` that
    ``json.loads`` reads from it. None where neither gives a string: no
    key, a string the scanner rejects, or a line that does not decode."""
    match = _VIDEO_KEY.search(line)
    try:
        if match:
            return json.decoder.scanstring(line, match.end())[0]
        if "\\" in line:
            record = json.loads(line)
            key = record.get("video_id") if isinstance(record, dict) else None
            return key if isinstance(key, str) else None
    except (ValueError, RecursionError):  # a faulty line, which a worker's reader names
        pass
    return None


def _detect_sharded(args: argparse.Namespace,
                    config: EngineConfig) -> list[tuple[str, str, str]] | None:
    """Each video's ``_detect_video`` output in file order, computed by a
    pool of up to ``args.threads`` forked workers, each taking one run of
    lines at a time. None, with nothing written, where the serial path must
    run instead: fewer than two workers would run (one run, one usable
    CPU), there is no fork, another thread runs, the pool met a fault of
    any kind (no process, a worker that dies or raises), or a video was
    detected twice. The serial path then gives the serial exit code and
    message. Results are read in run order; at the first fault the runs
    still queued are cancelled, so only those already handed to a worker
    still run.

    The parent reads the text as ``ingest.read_jsonl`` does and judges none
    of it. It cuts the lines into runs that never overlap: a run starts at
    the first line and at each line whose key (``_video_key``) differs from
    the run's, and a line without a key joins the run before it. Workers
    get the lines by inheritance, nothing of the input is pickled, and
    detect every video their run holds, read as ``load_observations`` does,
    so a faulty line is raised in a worker. The one rule: a video detected
    twice sends the file to the serial path. A video that resumes after
    another and a line holding another video's "video_id" key before its
    own each give one; without one, each video's lines lie within one run,
    and its worker reads them as the serial path does."""
    with ingest.open_jsonl(args.input) as fh:
        lines = fh.readlines()
    starts: list[int] = []  # the first line of each run
    key = None
    for i, line in enumerate(lines):
        line_key = _video_key(line)
        if not starts or line_key is not None and line_key != key:
            starts.append(i)
            key = line_key
    n = min(args.threads, len(starts), _usable_cpus())
    if n < 2:
        return None
    import multiprocessing  # here, not at the top: they add ~20 ms to importing the CLI
    import threading
    from concurrent.futures import ProcessPoolExecutor

    # Input reaches the workers by inheritance, so they must be forked, and
    # forking is safe only in a process that runs no other thread. A pool
    # with a "fork" context forks all its workers before it starts a thread.
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return None
    children = set(multiprocessing.active_children())
    try:
        with ProcessPoolExecutor(n, multiprocessing.get_context("fork"), initializer=_take_input,
                                 initargs=(lines, config, args.dump_features)) as pool:
            outputs = [video for run in pool.map(_detect_lines, starts, [*starts[1:], len(lines)])
                       for video in run]
    except Exception:  # the serial rerun reports it
        # A fork that fails after others succeeded leaves those workers
        # waiting for work; the pool neither feeds nor ends them.
        for worker in set(multiprocessing.active_children()) - children:
            worker.kill()
            worker.join()
        return None
    videos = dict(outputs)
    return list(videos.values()) if len(videos) == len(outputs) else None


_input: tuple[list[str], EngineConfig, bool] | None = None  # a worker's, from _take_input


def _take_input(lines: list[str], config: EngineConfig, dump: bool) -> None:
    global _input
    _input = lines, config, dump


def _detect_lines(start: int, stop: int) -> list[tuple[str, tuple[str, str, str]]]:
    """In a forked worker: ``(video_id, _detect_video output)`` for every
    video that lines [start, stop) of the input hold, in file order."""
    lines, config, dump = _input
    frames = ingest.parse_observations(
        ingest.read_lines(enumerate(lines[start:stop], start=start + 1)))
    return [(video[0], _detect_video(*video, config, dump)) for video in _read_videos(frames)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _feature_record(video_id: str, f: gaze.FrameFeatures) -> dict:
    record = {
        "video_id": video_id,
        "t": f.t,
        "velocities": {str(pid): f.velocities[pid] for pid in sorted(f.velocities)},
    }
    if f.convergence is None:
        record["convergence"] = None
    else:
        record["convergence"] = {
            "s": f.convergence,
            "centroid": list(f.centroid),
            "contributors": list(f.contributors),
        }
    return record


# ---------------------------------------------------------------------------
# graph


def _cmd_graph(args: argparse.Namespace, config: EngineConfig) -> int:
    out = _out_dir(args)

    gaze_by_video: dict[str, list[events.SocialEvent]] = {}
    seen: set[tuple[str, int]] = set()
    for line_no, record in ingest.read_jsonl(args.input):
        video_id, event = events.parse_event_line(record, line_no)
        if (video_id, event.event_id) in seen:
            raise ValidationError(
                f"bad event record: video {video_id!r} repeats event_id {event.event_id}", line_no)
        seen.add((video_id, event.event_id))
        gaze_by_video.setdefault(video_id, []).append(event)

    gestures, rejections = ingest.load_gestures(args.gestures)
    for rej in rejections:
        print(f"warning: gesture rejected: {rej.reason}", file=sys.stderr)
    gestures_by_video: dict[str, list[ingest.GestureAnnotation]] = {}
    for gesture in gestures:
        gestures_by_video.setdefault(gesture.video_id, []).append(gesture)

    durations: dict[str, float] = {}
    for line_no, record in ingest.read_jsonl(args.videos) if args.videos else ():
        video_id, duration = ingest.read_record(record, ingest.MANIFEST, line_no)
        fault = ("video_id must be non-empty" if not video_id
                 else f"duration must be non-negative, got {duration}" if duration < 0
                 else f"video_id {video_id!r} repeats" if video_id in durations else None)
        if fault:
            raise ValidationError(f"bad video manifest record: {fault}", line_no)
        durations[video_id] = duration

    def graphs():  # each written as soon as it is built
        for video_id in dict.fromkeys(list(gaze_by_video) + list(gestures_by_video)):
            gaze_events = gaze_by_video.get(video_id, [])
            video_gestures = gestures_by_video.get(video_id, [])
            duration = durations.get(video_id)
            if duration is None:
                ends = [e.end_time for e in gaze_events] + [g.end_time for g in video_gestures]
                duration = (math.ceil(max(ends, default=0.0) / ingest.SAMPLE_PERIOD)
                            * ingest.SAMPLE_PERIOD)
            yield graph_mod.build_graph(video_id, duration, gaze_events, video_gestures, config)

    _write_lines(out / "graph.jsonl", (graph_mod.serialize_graph(g) for g in graphs()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# qagen


def _cmd_qagen(args: argparse.Namespace, config: EngineConfig) -> int:
    out = _out_dir(args)
    _write_lines(out / "qa.jsonl", (
        qa.serialize_qa_item(item) for g in graph_mod.load_graphs(args.input)
        for item in qa.generate_qa(g, budget=args.budget, seed=args.seed, config=config)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# reward


# A trace group's keys, as traces.jsonl and rewards.jsonl both hold them.
_GROUP_KEYS = (("query_id", str), ("qa_id", str), ("model", str, "default"))
TRACE = ingest.Schema("trace", *_GROUP_KEYS, ("rollouts", [str]))
REWARDS = ingest.Schema("rewards", *_GROUP_KEYS, ("per_rollout", [dict]))


# json.dumps's string encoder under ensure_ascii=True, quotes included.
_json_string = json.encoder.encode_basestring_ascii


def rewards_line(query_id: str, qa_id: str, model: str,
                 scored: list[reward_mod.ScoredRollout], asked: set[int], texts: dict) -> str:
    """One trace group's rewards.jsonl line, newline included: the text of
    ``ingest.dumps_canonical`` of its record, formatted per rollout with the
    keys as literal text in the record's order.

    ``float.__repr__`` writes a float as json.dumps does only while it is
    finite, and every float here is: each weight is within [-1e100, 1e100]
    (EngineConfig) and r_gnd at most 2, so a total is finite, advantages are
    clipped, and a precision is at most 1.

    ``texts`` is the run's text cache (``_cmd_reward`` makes one per run):
    it maps each distinct score to its text, so that each is formatted
    once. A rollout's texts are the "r_acc" to "total" run, keyed by the
    breakdown's first five fields; the "pred_participants" list, keyed by
    the predicted-ID frozenset; and the "n_pred" to "grounding_precision"
    run, keyed by (n_pred, n_correct). The advantage, novel_participants,
    think_tokens and well_formed are written per rollout.

    A key must fix its text, so equal keys must have equal reprs. Keys hold
    ints, and floats that are never -0.0 (equal to 0.0, repr "-0.0") or NaN
    (equal to nothing): r_gnd is a product of non-negative terms, at least
    +0.0, and math.fsum never returns -0.0. No position mixes an int with a
    float of equal value (1 == 1.0, reprs "1" and "1.0"): r_acc, r_fmt,
    r_str and the counts are always ints, r_gnd and total always floats.
    Keys of different kinds (5-tuples, 2-tuples, frozensets) never compare
    equal."""
    rollouts = []
    for trace, b, advantage in scored:
        score = b[:5]
        head = texts.get(score)
        if head is None:
            r_acc, r_fmt, r_str, r_gnd, total = score
            head = texts[score] = (f'{{"r_acc":{r_acc},"r_fmt":{r_fmt},"r_str":{r_str},'
                                   f'"r_gnd":{r_gnd!r},"total":{total!r},"advantage":')
        pred = b.pred_participants
        ids = texts.get(pred)
        if ids is None:
            ids = texts[pred] = f',"pred_participants":[{",".join(map(str, sorted(pred)))}],'
        counts = len(pred), b.n_correct
        tail = texts.get(counts)
        if tail is None:
            n_pred, n_correct = counts
            tail = texts[counts] = (
                f'"n_pred":{n_pred},"n_correct":{n_correct},"grounding_precision":'
                f'{repr(n_correct / n_pred) if n_pred else "null"},"novel_participants":')
        tokens, flagged = analytics.reasoning_length(trace)
        rollouts.append(f'{head}{advantage!r}{ids}{tail}{len(pred - asked)},'
                        f'"think_tokens":{tokens},"well_formed":{"false" if flagged else "true"}}}')
    return (f'{{"query_id":{_json_string(query_id)},"qa_id":{_json_string(qa_id)},'
            f'"model":{_json_string(model)},"per_rollout":[{",".join(rollouts)}]}}\n')


def _cmd_reward(args: argparse.Namespace, config: EngineConfig) -> int:
    out = _out_dir(args)
    items = {item.qa_id: item for item in qa.load_qa_items(args.input)}
    graphs = {g.video_id: g for g in graph_mod.load_graphs(args.graphs)}
    texts: dict = {}  # rewards_line's, for this run only

    with _artifact(out / "rewards.jsonl") as fh:
        for line_no, record in ingest.read_jsonl(args.traces):
            query_id, qa_id, model, rollouts = ingest.read_record(record, TRACE, line_no)
            try:
                item = items.get(qa_id)
                if item is None:
                    raise ValidationError(f"unknown qa_id {qa_id!r}")
                g = graphs.get(item.video_id)
                if g is None:
                    raise ValidationError(f"no graph for video {item.video_id!r}")
                gt: set[int] = set()
                for eid in item.source_event_ids:
                    event = g.event_by_id(eid)
                    if event is None:
                        raise ValidationError(f"qa {qa_id} cites unknown event {eid}")
                    gt.update(event.participants)
                if not gt:
                    raise ValidationError(f"qa {qa_id} cites no events with participants")
                try:
                    asked = extract_person_ids(item.question)
                except ValidationError as exc:
                    raise ValidationError(f"qa {qa_id} question: {exc}") from None
                aliases = (item.answer_text,) if item.format == "mcq" else ()
                scored = reward_mod.score_group(rollouts, item.answer, gt, aliases, config)
            except (ValidationError, ContractError) as exc:  # the rollout count is a ContractError
                raise ValidationError(str(exc), line_no) from None
            fh.write(rewards_line(query_id, qa_id, model, scored, asked, texts))
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


# The per-rollout fields report.tsv writes after query_id, qa_id, model and
# the rollout index.
TSV_FIELDS = ("r_acc", "r_fmt", "r_str", "r_gnd", "total", "advantage",
              "grounding_precision", "novel_participants", "think_tokens", "well_formed")
# Each per-rollout field analyze reads, in the order they are checked, with or
# without --tsv; report.json uses the first eight. r_acc, r_fmt and r_str are
# written as ints: each value is kept as read, so report.tsv writes it as
# reward did.
ROLLOUT = ingest.Schema(
    "rewards", ("r_acc", ingest.NUMBER), ("grounding_precision", ingest.Nullable(ingest.NUMBER)),
    ("n_pred", int), ("n_correct", int), ("novel_participants", int), ("think_tokens", int),
    ("well_formed", bool), ("total", ingest.NUMBER), ("r_fmt", ingest.NUMBER),
    ("r_str", ingest.NUMBER), ("r_gnd", ingest.NUMBER), ("advantage", ingest.NUMBER))
# A key character report.tsv cannot hold: a tab, LF or CR would split its
# row, and a lone surrogate has no UTF-8 encoding.
_TSV_BREAK = re.compile(r"[\t\n\r\ud800-\udfff]")


def _cmd_analyze(args: argparse.Namespace, config: EngineConfig) -> int:
    out = _out_dir(args)
    groups = []  # one (query_id, qa_id, model, rollout values) per trace group, in file order
    for line_no, record in ingest.read_jsonl(args.input):
        *keys, per_rollout = ingest.read_record(record, REWARDS, line_no)
        for name, value in zip(REWARDS.keys, keys) if args.tsv else ():
            if found := _TSV_BREAK.search(value):
                what = "a tab, LF or CR" if found[0] in "\t\n\r" else "a lone surrogate"
                raise ValidationError(f"bad rewards record: {name} must not hold {what} "
                                      f"in report.tsv, got {value!r}", line_no)
        groups.append((*keys, [_rollout(r, line_no) for r in per_rollout]))

    by_model = itertools.groupby(sorted(groups, key=operator.itemgetter(2)), operator.itemgetter(2))
    models = {model: _block(model, list(model_groups)) for model, model_groups in by_model}
    report = {"models": models, "cross_model": _cross_model(models)}
    _write_lines(out / "report.json", [json.dumps(report, indent=2, sort_keys=True)])

    if args.tsv:
        with _artifact(out / "report.tsv") as fh:
            fh.write("\t".join(("query_id", "qa_id", "model", "rollout", *TSV_FIELDS)) + "\n")
            for query_id, qa_id, model, rollouts in groups:
                fh.writelines(  # each value as read: 1, 0.0, None, True
                    f"{query_id}\t{qa_id}\t{model}\t{i}\t{r_acc}\t{r_fmt}\t{r_str}\t{r_gnd}\t"
                    f"{total}\t{advantage}\t{precision}\t{novel}\t{tokens}\t{well_formed}\n"
                    for i, (r_acc, precision, _, _, novel, tokens, well_formed, total,
                            r_fmt, r_str, r_gnd, advantage) in enumerate(rollouts))
    return EXIT_OK


def _rollout(record: dict, line: int) -> tuple:
    """A per_rollout entry's ROLLOUT values, if its counts and precision are
    ones reward writes: n_pred, n_correct, novel_participants and
    think_tokens at least 0, n_correct and novel_participants at most
    n_pred, and grounding_precision null exactly when n_pred is 0, else
    n_correct / n_pred. Else a ValidationError naming the line and the
    first rule broken, in that order."""
    values = ingest.read_record(record, ROLLOUT, line)
    _, precision, n_pred, n_correct, novel, tokens = values[:6]
    if 0 <= n_correct <= n_pred and 0 <= novel <= n_pred and tokens >= 0 and (
            precision is None if n_pred == 0 else precision == n_correct / n_pred):
        return values
    fault = next((f"{name} must be at least 0, got {count}" for name, count in zip(
        ("n_pred", "n_correct", "novel_participants", "think_tokens"), values[2:6]) if count < 0),
        f"n_correct must be at most n_pred {n_pred}, got {n_correct}" if n_correct > n_pred
        else f"novel_participants must be at most n_pred {n_pred}, got {novel}" if novel > n_pred
        else f"grounding_precision must be null when n_pred is 0, got {precision}" if n_pred == 0
        else f"grounding_precision must not be null when n_pred is {n_pred}" if precision is None
        else f"grounding_precision must be n_correct / n_pred {n_correct / n_pred}, "
             f"got {precision}")
    raise ValidationError(f"bad rewards record: {fault}", line)


def _block(model: str, groups: list) -> dict:
    """report.json's block over trace groups ``(query_id, qa_id, model,
    rollout values)``, as for one model; ``model`` names it in a message."""
    rollouts = [values for *_, group_rollouts in groups for values in group_rollouts]
    acc, precision, n_preds, n_correct, novel, length, well_formed, total = \
        list(zip(*rollouts))[:8] if rollouts else [()] * 8
    n_pred = sum(n_preds)
    return {
        "queries": len(groups),
        "rollouts": len(rollouts),
        "accuracy": _mean(acc, model, "accuracy"),
        # null: nothing predicted, left out of the mean
        "grounding_precision_macro": _mean([p for p in precision if p is not None], model,
                                           "grounding_precision_macro"),
        # at most 1, as each n_correct is at most its n_pred
        "grounding_precision_micro": sum(n_correct) / n_pred if n_pred else None,
        "mean_novel_participants": _mean(novel, model, "mean_novel_participants"),
        "mean_reasoning_length": _mean(length, model, "mean_reasoning_length"),
        "median_reasoning_length": float(statistics.median(length)) if length else None,
        "malformed_traces": well_formed.count(False),
        "mean_total_reward": _mean(total, model, "mean_total_reward"),
    }


def _mean(values: tuple | list, model: str, aggregate: str) -> float | None:
    """The mean, or None for no values. A sum beyond the float range is a
    ContractError naming the model and the aggregate."""
    if not values:
        return None
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise ContractError(f"model {model!r}: {aggregate} overflows the float range") from None


def _cross_model(models: dict) -> dict:
    cross: dict = {}
    names = sorted(models)
    accs = [models[m]["accuracy"] for m in names]
    for key, label in (
        ("grounding_precision_macro", "accuracy_vs_grounding_precision"),
        ("mean_reasoning_length", "accuracy_vs_reasoning_length"),
    ):
        series = [models[m][key] for m in names]
        if len(names) >= 2 and None not in series and None not in accs:
            try:
                cross[label] = analytics.pearson(accs, series)
            except ContractError:
                cross[label] = None
            except OverflowError:
                raise ContractError(
                    f"cross_model {label}: the Pearson sums overflow the float range") from None
        else:
            cross[label] = None
    return cross


# ---------------------------------------------------------------------------
# corrupt


def _cmd_corrupt(args: argparse.Namespace, config: EngineConfig) -> int:
    out = _out_dir(args)
    with _artifact(out / "qa.corrupted.jsonl") as fh:
        for line_no, item in qa.read_qa_items(args.input):
            try:
                ids = sorted(analytics.item_person_ids(item))
            except ValidationError as exc:
                raise ValidationError(f"qa {item.qa_id}: {exc}", line_no) from None
            remap = analytics.seeded_remap(ids, f"{args.seed}:{item.qa_id}")
            record = qa.qa_item_record(analytics.corrupt_ids(item, remap))
            record["id_remap"] = {str(k): v for k, v in sorted(remap.mapping.items())}
            fh.write(ingest.dumps_canonical(record) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
