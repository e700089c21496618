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

Work runs serially in input order. --threads is still accepted so that
existing scripts keep working, but it changes nothing.

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
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; work runs serially")
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
    # Observations stream in: each contiguous run of a video's frames becomes
    # tracks as it is read, so a frame is garbage once its samples exist. A
    # video whose frames come back after another video's has several runs,
    # joined per person once the input is read.
    runs: dict[str, list[list[gaze.GazeTrack]]] = {}  # first-appearance order
    stops: dict[str, int] = {}  # one past each video's last tick

    def frames_of(video_id, run):
        for frame in run:
            yield frame
        stops[video_id] = frame.k + 1

    for video_id, run in itertools.groupby(ingest.load_observations(args.input),
                                           operator.attrgetter("video_id")):
        runs.setdefault(video_id, []).append(gaze.build_tracks(frames_of(video_id, run)))

    # Each video's lines are written as soon as it is detected.
    dump = _artifact(out / "features.jsonl") if args.dump_features else contextlib.nullcontext()
    with (_artifact(out / "events.jsonl") as events_fh,
          _artifact(out / "videos.jsonl") as videos_fh, dump as features_fh):
        for video_id in list(runs):
            tracks = [gaze.interpolate_track(t, config)
                      for t in gaze.join_tracks(runs.pop(video_id))]
            features = gaze.compute_features(tracks, config)
            events_fh.writelines(events.serialize_event(event, video_id) + "\n"
                                 for event in events.detect_all(tracks, features, config))
            videos_fh.write(ingest.dumps_canonical({
                "video_id": video_id, "duration": stops[video_id] * ingest.SAMPLE_PERIOD,
                "person_ids": [t.person_id for t in tracks]}) + "\n")
            if args.dump_features:
                features_fh.writelines(ingest.dumps_canonical(_feature_record(video_id, f)) + "\n"
                                       for f in features)
    return EXIT_OK


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
        video_id = ingest.read_field(record, "video_id", str, "event", line_no)
        event = events.parse_event(record, line_no)
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
    if args.videos:
        for line_no, record in ingest.read_jsonl(args.videos):
            video_id = ingest.read_field(record, "video_id", str, "video manifest", line_no)
            durations[video_id] = ingest.read_field(
                record, "duration", float, "video manifest", line_no)

    graphs = []
    for video_id in dict.fromkeys(list(gaze_by_video) + list(gestures_by_video)):
        gaze_events = gaze_by_video.get(video_id, [])
        video_gestures = gestures_by_video.get(video_id, [])
        duration = durations.get(video_id)
        if duration is None:
            ends = [e.end_time for e in gaze_events] + [g.end_time for g in video_gestures]
            duration = math.ceil(max(ends, default=0.0) / ingest.SAMPLE_PERIOD) * ingest.SAMPLE_PERIOD
        graphs.append(graph_mod.build_graph(video_id, duration, gaze_events, video_gestures, config))
    _write_lines(out / "graph.jsonl", (graph_mod.serialize_graph(g) for g in graphs))
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


def _group_keys(record: dict, what: str, line_no: int) -> tuple[str, str, str]:
    """A trace or rewards record's query_id, qa_id and model ("default" when
    absent)."""
    return (ingest.read_field(record, "query_id", str, what, line_no),
            ingest.read_field(record, "qa_id", str, what, line_no),
            ingest.read_field(record, "model", str, what, line_no, default="default"))


def _cmd_reward(args: argparse.Namespace, config: EngineConfig) -> int:
    out = _out_dir(args)
    items = {item.qa_id: item for item in qa.load_qa_items(args.input)}
    graphs = {g.video_id: g for g in graph_mod.load_graphs(args.graphs)}

    with _artifact(out / "rewards.jsonl") as fh:
        for line_no, record in ingest.read_jsonl(args.traces):
            query_id, qa_id, model = _group_keys(record, "trace", line_no)
            rollouts = ingest.read_field(record, "rollouts", [str], "trace", line_no)
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
            per_rollout = []
            for s in scored:
                pred = s.breakdown.pred_participants
                tokens, flagged = analytics.reasoning_length(s.trace)
                per_rollout.append({
                    "r_acc": s.breakdown.r_acc,
                    "r_fmt": s.breakdown.r_fmt,
                    "r_str": s.breakdown.r_str,
                    "r_gnd": s.breakdown.r_gnd,
                    "total": s.breakdown.total,
                    "advantage": s.advantage,
                    "pred_participants": sorted(pred),
                    "n_pred": len(pred),
                    "n_correct": len(pred & gt),
                    "grounding_precision": analytics.grounding_precision(pred, gt),
                    "novel_participants": len(pred - asked),
                    "think_tokens": tokens,
                    "well_formed": not flagged,
                })
            fh.write(ingest.dumps_canonical({
                "query_id": query_id,
                "qa_id": qa_id,
                "model": model,
                "per_rollout": per_rollout,
            }) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


# The per-rollout fields report.tsv writes after query_id, qa_id, model and
# the rollout index.
TSV_FIELDS = ("r_acc", "r_fmt", "r_str", "r_gnd", "total", "advantage",
              "grounding_precision", "novel_participants", "think_tokens", "well_formed")
_tsv_values = operator.itemgetter(*TSV_FIELDS)


def _cmd_analyze(args: argparse.Namespace, config: EngineConfig) -> int:
    out = _out_dir(args)
    per_model: dict[str, dict[str, list]] = {}
    rows = []
    for line_no, record in ingest.read_jsonl(args.input):
        query_id, qa_id, model = _group_keys(record, "rewards", line_no)
        bucket = per_model.setdefault(model, {
            "acc": [], "precision": [], "n_pred": [], "n_correct": [],
            "novel": [], "length": [], "malformed": [], "total": [], "queries": [],
        })
        bucket["queries"].append(query_id)
        for i, r in enumerate(ingest.read_field(record, "per_rollout", [dict], "rewards", line_no)):
            bucket["acc"].append(ingest.read_field(r, "r_acc", float, "rewards", line_no))
            # null: nothing predicted, left out of the mean; a missing key fails in read_field
            if r.get("grounding_precision", 0) is not None:
                bucket["precision"].append(
                    ingest.read_field(r, "grounding_precision", float, "rewards", line_no))
            bucket["n_pred"].append(ingest.read_field(r, "n_pred", int, "rewards", line_no))
            bucket["n_correct"].append(ingest.read_field(r, "n_correct", int, "rewards", line_no))
            bucket["novel"].append(
                ingest.read_field(r, "novel_participants", int, "rewards", line_no))
            bucket["length"].append(ingest.read_field(r, "think_tokens", int, "rewards", line_no))
            well_formed = ingest.read_field(r, "well_formed", bool, "rewards", line_no)
            bucket["malformed"].append(0 if well_formed else 1)
            bucket["total"].append(ingest.read_field(r, "total", float, "rewards", line_no))
            if args.tsv:  # check the fields only the TSV reads; rows keep values as read
                for key in ("r_fmt", "r_str", "r_gnd", "advantage"):
                    ingest.read_field(r, key, float, "rewards", line_no)
                rows.append((query_id, qa_id, model, i, *_tsv_values(r)))

    models = {}
    for model, b in sorted(per_model.items()):
        n_pred = sum(b["n_pred"])
        try:
            micro = sum(b["n_correct"]) / n_pred if n_pred else None
        except OverflowError:  # Python ints: the quotient can leave the float range
            raise ContractError(
                f"model {model!r}: grounding_precision_micro overflows the float range") from None
        models[model] = {
            "queries": len(b["queries"]),
            "rollouts": len(b["acc"]),
            "accuracy": _mean(b["acc"], model, "accuracy"),
            "grounding_precision_macro": _mean(b["precision"], model, "grounding_precision_macro"),
            "grounding_precision_micro": micro,
            "mean_novel_participants": _mean(b["novel"], model, "mean_novel_participants"),
            "mean_reasoning_length": _mean(b["length"], model, "mean_reasoning_length"),
            "median_reasoning_length": float(statistics.median(b["length"])) if b["length"] else None,
            "malformed_traces": sum(b["malformed"]),
            "mean_total_reward": _mean(b["total"], model, "mean_total_reward"),
        }

    report = {"models": models, "cross_model": _cross_model(models)}
    _write_lines(out / "report.json", [json.dumps(report, indent=2, sort_keys=True)])

    if args.tsv:
        columns = ("query_id", "qa_id", "model", "rollout", *TSV_FIELDS)
        _write_lines(out / "report.tsv", itertools.chain(
            ["\t".join(columns)], ("\t".join(map(str, row)) for row in rows)))
    return EXIT_OK


def _mean(values: list, model: str, aggregate: str) -> float | None:
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
