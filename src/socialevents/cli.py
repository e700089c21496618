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
it: with N > 1 it splits the input's lines by video and forks up to N workers
(no more than the videos or the usable CPUs), each detecting whole videos,
and writes their output in the order each video first appears. Every other
stage runs serially in input order. The bytes, the exit code and the message
are the same at any N: input the workers cannot take, or a fault in any of
them, makes detect run serially from the start.

reward formats each rewards.jsonl line as text (rewards_line), with the
bytes ingest.dumps_canonical would write for the group's record. Trace
records, rewards records and their rollouts are read through the TRACE,
REWARDS and ROLLOUT tables below with ingest.read_record, as every other
record is through its own table. With --tsv a query_id, qa_id or model
holding a tab, LF or CR (which would split report.tsv's rows) or a lone
surrogate (which has no UTF-8 bytes) is a schema error.

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
        runs, stops = _read_runs(ingest.load_observations(args.input))
        outputs = (_detect_video(video_id, runs.pop(video_id), stops[video_id], config,
                                 args.dump_features) for video_id in list(runs))

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


def _read_runs(frames) -> tuple[dict[str, list[list[gaze.GazeTrack]]], dict[str, int]]:
    """Tracks of each contiguous run of a video's frames, per video in
    first-appearance order, and one past each video's last tick.

    Each run becomes tracks as it is read, so a frame is garbage once its
    samples exist. A video whose frames come back after another video's has
    several runs, joined per person by ``_detect_video``."""
    runs: dict[str, list[list[gaze.GazeTrack]]] = {}
    stops: dict[str, int] = {}

    def frames_of(video_id, run):
        for frame in run:
            yield frame
        stops[video_id] = frame.k + 1

    for video_id, run in itertools.groupby(frames, operator.attrgetter("video_id")):
        runs.setdefault(video_id, []).append(gaze.build_tracks(frames_of(video_id, run)))
    return runs, stops


def _detect_video(video_id: str, runs: list[list[gaze.GazeTrack]], stop: int,
                  config: EngineConfig, dump: bool) -> tuple[str, str, str]:
    """One video's events, manifest line and (when ``dump``) features, as
    the text of its lines in each artifact."""
    tracks = [gaze.interpolate_track(t, config) for t in gaze.join_tracks(runs)]
    features = gaze.compute_features(tracks, config)
    events_text = "".join(events.serialize_event(event, video_id) + "\n"
                          for event in events.detect_all(tracks, features, config))
    video_line = ingest.dumps_canonical({
        "video_id": video_id, "duration": stop * ingest.SAMPLE_PERIOD,
        "person_ids": [t.person_id for t in tracks]}) + "\n"
    features_text = "".join(ingest.dumps_canonical(_feature_record(video_id, f)) + "\n"
                            for f in features) if dump else ""
    return events_text, video_line, features_text


# A line's video, read from its bytes: the first "video_id":"..." whose
# value holds no quote and no backslash. A worker checks it against the
# parsed record.
_VIDEO_KEY = re.compile(rb'"video_id":"([^"\\]*)"')


def _detect_sharded(args: argparse.Namespace,
                    config: EngineConfig) -> list[tuple[str, str, str]] | None:
    """Each video's ``_detect_video`` output in first-appearance order,
    computed by up to ``args.threads`` forked workers, each given whole
    videos. None, with nothing written, where the serial path must run
    instead: fewer than two workers would run (one video, one usable CPU),
    a line has no key, the input holds a "\\r" or a byte that is not UTF-8,
    there is no fork, another thread runs, or a worker met a fault of any
    kind. The serial path then gives the serial exit code and message.

    Workers read their lines through ``ingest.read_lines`` and
    ``ingest.parse_observations``, as ``load_observations`` does, and get
    them by inheritance: nothing of the input is pickled."""
    with open(args.input, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        return None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    lines = data.split(b"\n")  # with no "\r", text mode's lines
    index: dict[str, list[int]] = {}  # video -> its line indices, first-appearance order
    for i, line in enumerate(lines):
        if line.strip():
            key = _VIDEO_KEY.search(line)
            if key is None:
                return None
            index.setdefault(key[1].decode("utf-8"), []).append(i)
    n = min(args.threads, len(index), _usable_cpus())
    if n < 2:
        return None
    import multiprocessing  # here, not at the top: it adds ~10 ms to importing the CLI
    import threading

    # Input reaches the workers by inheritance, so they must be forked, and
    # forking is safe only in a process that runs no other thread.
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return None
    context = multiprocessing.get_context("fork")

    # Whole videos, largest first, each to the worker with the fewest lines.
    shares: list[list[str]] = [[] for _ in range(n)]
    load = [0] * n
    for video_id in sorted(index, key=lambda v: len(index[v]), reverse=True):
        w = load.index(min(load))
        shares[w].append(video_id)
        load[w] += len(index[video_id])

    workers = []
    done: dict[str, tuple[str, str, str]] = {}
    try:
        for share in shares:
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_detect_share, daemon=True,
                                     args=(share, lines, index, config, args.dump_features, sender))
            try:
                worker.start()
            except OSError:  # no process to be had
                receiver.close()
                return None
            finally:
                sender.close()
            workers.append((worker, receiver))
        for (worker, receiver), share in zip(workers, shares):
            try:
                outputs = receiver.recv()
            except EOFError:  # the worker died
                outputs = None
            if outputs is None:
                return None
            done.update(zip(share, outputs))
    finally:
        for worker, receiver in workers:  # each has sent its output or is not needed
            worker.terminate()
            worker.join()
            receiver.close()
    return [done[video_id] for video_id in index]


def _detect_share(share: list[str], lines: list[bytes], index: dict[str, list[int]],
                  config: EngineConfig, dump: bool, sender) -> None:
    """A forked worker: sends ``_detect_video``'s output for each video of
    its share, or None at its first fault, of any kind. A line whose parsed
    video_id is not its key is a fault."""
    try:
        outputs = []
        for video_id in share:
            numbered = ((i + 1, lines[i].decode("utf-8")) for i in index[video_id])
            runs, stops = _read_runs(ingest.parse_observations(ingest.read_lines(numbered)))
            if list(runs) != [video_id]:
                raise ValidationError(f"a line keyed {video_id!r} belongs to another video")
            outputs.append(_detect_video(video_id, runs[video_id], stops[video_id], config, dump))
    except Exception:  # the serial rerun reports it
        outputs = None
    sender.send(outputs)


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

    durations = dict(ingest.read_record(record, ingest.MANIFEST, line_no)
                     for line_no, record in ingest.read_jsonl(args.videos)) if args.videos else {}

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
                 scored: list[reward_mod.ScoredRollout], asked: set[int]) -> str:
    """One trace group's rewards.jsonl line, newline included: the text of
    ``ingest.dumps_canonical`` of its record, formatted per rollout with the
    keys as literal text in the record's order.

    ``float.__repr__`` writes a float as json.dumps does only while it is
    finite, and every float here is: each weight is within [-1e100, 1e100]
    (EngineConfig) and r_gnd at most 2, so a total is finite, advantages are
    clipped, and a precision is at most 1."""
    rollouts = []
    for s in scored:
        b = s.breakdown
        pred = b.pred_participants
        n_pred = len(pred)
        tokens, flagged = analytics.reasoning_length(s.trace)
        rollouts.append(
            f'{{"r_acc":{b.r_acc},"r_fmt":{b.r_fmt},"r_str":{b.r_str},"r_gnd":{b.r_gnd!r},'
            f'"total":{b.total!r},"advantage":{s.advantage!r},'
            f'"pred_participants":[{",".join(map(str, sorted(pred)))}],"n_pred":{n_pred},'
            f'"n_correct":{b.n_correct},'
            f'"grounding_precision":{repr(b.n_correct / n_pred) if n_pred else "null"},'
            f'"novel_participants":{len(pred - asked)},"think_tokens":{tokens},'
            f'"well_formed":{"false" if flagged else "true"}}}')
    return (f'{{"query_id":{_json_string(query_id)},"qa_id":{_json_string(qa_id)},'
            f'"model":{_json_string(model)},"per_rollout":[{",".join(rollouts)}]}}\n')


def _cmd_reward(args: argparse.Namespace, config: EngineConfig) -> int:
    out = _out_dir(args)
    items = {item.qa_id: item for item in qa.load_qa_items(args.input)}
    graphs = {g.video_id: g for g in graph_mod.load_graphs(args.graphs)}

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
            fh.write(rewards_line(query_id, qa_id, model, scored, asked))
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


# The per-rollout fields report.tsv writes after query_id, qa_id, model and
# the rollout index.
TSV_FIELDS = ("r_acc", "r_fmt", "r_str", "r_gnd", "total", "advantage",
              "grounding_precision", "novel_participants", "think_tokens", "well_formed")
# Each per-rollout field analyze reads, in the order they are checked; the
# last four only with --tsv. r_acc, r_fmt and r_str are written as ints:
# each value is kept as read, so report.tsv writes it as reward did.
ROLLOUT_TSV = ingest.Schema(
    "rewards", ("r_acc", ingest.NUMBER), ("grounding_precision", ingest.Nullable(ingest.NUMBER)),
    ("n_pred", int), ("n_correct", int), ("novel_participants", int), ("think_tokens", int),
    ("well_formed", bool), ("total", ingest.NUMBER), ("r_fmt", ingest.NUMBER),
    ("r_str", ingest.NUMBER), ("r_gnd", ingest.NUMBER), ("advantage", ingest.NUMBER))
ROLLOUT = ingest.Schema("rewards", *ROLLOUT_TSV.fields[:8])
# A key character report.tsv cannot hold: a tab, LF or CR would split its
# row, and a lone surrogate has no UTF-8 encoding.
_TSV_BREAK = re.compile(r"[\t\n\r\ud800-\udfff]")


def _cmd_analyze(args: argparse.Namespace, config: EngineConfig) -> int:
    out = _out_dir(args)
    tsv = args.tsv
    per_model: dict[str, tuple[list, list]] = {}  # model -> (query_ids, rollout values)
    rows = []
    for line_no, record in ingest.read_jsonl(args.input):
        *keys, per_rollout = ingest.read_record(record, REWARDS, line_no)
        query_id, qa_id, model = keys
        if tsv and _TSV_BREAK.search("".join(keys)):
            name, value = next(item for item in zip(REWARDS.keys, keys)
                               if _TSV_BREAK.search(item[1]))
            what = "a tab, LF or CR" if _TSV_BREAK.search(value)[0] in "\t\n\r" \
                else "a lone surrogate"
            raise ValidationError(f"bad rewards record: {name} must not hold {what} "
                                  f"in report.tsv, got {value!r}", line_no)
        queries, rollouts = per_model.setdefault(model, ([], []))
        queries.append(query_id)
        prefix = f"{query_id}\t{qa_id}\t{model}\t"
        for i, r in enumerate(per_rollout):
            values = ingest.read_record(r, ROLLOUT_TSV if tsv else ROLLOUT, line_no)
            rollouts.append(values)
            if tsv:  # each value as read: 1, 0.0, None, True
                (r_acc, precision, _, _, novel, tokens, well_formed, total,
                 r_fmt, r_str, r_gnd, advantage) = values
                rows.append(f"{prefix}{i}\t{r_acc}\t{r_fmt}\t{r_str}\t{r_gnd}\t{total}\t"
                            f"{advantage}\t{precision}\t{novel}\t{tokens}\t{well_formed}\n")

    models = {}
    for model, (queries, rollouts) in sorted(per_model.items()):
        acc, precision, n_preds, n_correct, novel, length, well_formed, total = \
            list(zip(*rollouts))[:8] if rollouts else [()] * 8
        n_pred = sum(n_preds)
        try:
            micro = sum(n_correct) / n_pred if n_pred else None
        except OverflowError:  # Python ints: the quotient can leave the float range
            raise ContractError(
                f"model {model!r}: grounding_precision_micro overflows the float range") from None
        models[model] = {
            "queries": len(queries),
            "rollouts": len(rollouts),
            "accuracy": _mean(acc, model, "accuracy"),
            # null: nothing predicted, left out of the mean
            "grounding_precision_macro": _mean([p for p in precision if p is not None], model,
                                               "grounding_precision_macro"),
            "grounding_precision_micro": micro,
            "mean_novel_participants": _mean(novel, model, "mean_novel_participants"),
            "mean_reasoning_length": _mean(length, model, "mean_reasoning_length"),
            "median_reasoning_length": float(statistics.median(length)) if length else None,
            "malformed_traces": well_formed.count(False),
            "mean_total_reward": _mean(total, model, "mean_total_reward"),
        }

    report = {"models": models, "cross_model": _cross_model(models)}
    _write_lines(out / "report.json", [json.dumps(report, indent=2, sort_keys=True)])

    if tsv:
        with _artifact(out / "report.tsv") as fh:
            fh.write("\t".join(("query_id", "qa_id", "model", "rollout", *TSV_FIELDS)) + "\n"
                     + "".join(rows))
    return EXIT_OK


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
        for line_no, raw in ingest.read_jsonl(args.input):
            item = qa.parse_qa_item(raw, line_no)
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
