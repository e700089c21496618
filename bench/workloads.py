"""The four seeded workloads: inputs on disk, the CLI passes that run on
them, and the input properties later changes can cite.

Why each workload exists:

- long: one 6-person video of 4800 frames (40 min at 2 fps). Per-video
  scaling of the detectors and per-frame ingest and track cost; every frame
  takes face association's conflict-free path, and graph plus qagen are a
  small share of a pass.
- corpus: 48 videos of 100 frames, 2-6 persons, run with two worker
  threads. The same 4800 frames as long, so the throughput gap between the
  two shows superlinear per-video scaling; per-video fixed costs (graph
  build, QA generation, graph loading) weigh more here.
- crowd: 4 videos of 150 frames with 14 persons. 24 frames per video have
  contested face-person overlaps with 8-11 faces and 8 have 13-14 faces,
  so it is the only workload where face association's exact solver and
  wide-frame solver run. The exact solver's cost doubles with each face;
  stopping at 11 keeps a pass short enough for several passes per run.
- rl: 2000 trace groups of K = 8 rollouts over the QA items of 120
  synthetic graphs and 3 models. Only reward scoring, mention extraction,
  analytics and the CLI's JSON I/O run.

Person counts and contested-frame plans are fixed per workload and only
their details are drawn from the seed, so that throughput moves little
from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import synth

K = 8
MODELS = ("model-a", "model-b", "model-c")
WIDE_FACES = 12  # face association's exact solver handles up to this many faces


@dataclass
class Inputs:
    """One workload's inputs as built on disk."""

    directory: Path
    stages: list[tuple[str, list[str]]]  # (stage, argv); "{out}" is the pass directory
    artifacts: list[str]  # pass outputs compared byte for byte
    units: int  # frames or rollouts per pass
    unit: str
    digests: dict[str, str]
    properties: dict = field(default_factory=dict)
    frames: list[dict] = field(default_factory=list)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_jsonl(records, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(synth.dumps(record) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def share(count: int, base: int) -> dict:
    return {"count": count, "base": base, "share": count / base if base else None}


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else list(values) * 3


def _detect_stages(directory: Path, threads: int, seed: int) -> list[tuple[str, list[str]]]:
    t = ["--threads", str(threads)]
    return [
        ("detect", ["detect", "--input", str(directory / "observations.jsonl"),
                    "--out", "{out}", *t]),
        ("graph", ["graph", "--input", "{out}/events.jsonl",
                   "--gestures", str(directory / "gestures.jsonl"),
                   "--videos", "{out}/videos.jsonl", "--out", "{out}", *t]),
        ("qagen", ["qagen", "--input", "{out}/graph.jsonl", "--out", "{out}",
                   "--seed", str(seed), "--budget", "25", *t]),
    ]


def _detect_inputs(directory: Path, seed: int, threads: int, videos, gestures) -> Inputs:
    frames = [frame for video in videos for frame in video]
    write_jsonl(frames, directory / "observations.jsonl")
    write_jsonl(gestures, directory / "gestures.jsonl")
    persons = sum(len(f["persons"]) for f in frames)
    faces = sum(len(f["faces"]) for f in frames)
    return Inputs(
        directory=directory,
        stages=_detect_stages(directory, threads, seed),
        artifacts=["events.jsonl", "videos.jsonl", "graph.jsonl", "qa.jsonl"],
        units=len(frames),
        unit="frames",
        digests={name: sha256(directory / name)
                 for name in ("observations.jsonl", "gestures.jsonl")},
        properties={
            "videos": len(videos),
            "frames": len(frames),
            "gestures": len(gestures),
            "persons_per_frame": {"mean": persons / len(frames), "base": len(frames)},
            "faces_per_frame": {"mean": faces / len(frames), "base": len(frames)},
        },
        frames=frames,
    )


def build_long(directory: Path, seed: int) -> Inputs:
    video = synth.make_video(seed, "long-0", 6, 4800)
    gestures = synth.make_gestures(seed + 1, "long-0", list(range(6)), 2400.0, 8)
    return _detect_inputs(directory, seed, 1, [video], gestures)


def build_corpus(directory: Path, seed: int) -> Inputs:
    rng = Random(seed)
    videos, gestures = [], []
    for v in range(48):
        video_id = f"corpus-{v:02d}"
        n_persons = 2 + v % 5
        videos.append(synth.make_video(seed * 1000 + v, video_id, n_persons, 100))
        gestures += synth.make_gestures(seed * 1000 + 500 + v, video_id,
                                        list(range(n_persons)), 50.0, rng.randint(0, 8))
    return _detect_inputs(directory, seed, 2, videos, gestures)


def build_crowd(directory: Path, seed: int) -> Inputs:
    rng = Random(seed)
    videos, gestures = [], []
    for v in range(4):
        video_id = f"crowd-{v}"
        video = synth.make_video(seed * 1000 + v, video_id, 14, 150, overlap_share=0.0)
        picked = rng.sample(range(150), 32)
        plan = {k: 8 + i % 4 for i, k in enumerate(picked[:24])}
        plan.update({k: 13 + i % 2 for i, k in enumerate(picked[24:])})
        synth.contest_frames(video, seed * 1000 + v, 14, plan)
        videos.append(video)
        gestures += synth.make_gestures(seed * 1000 + 500 + v, video_id,
                                        list(range(14)), 75.0, 4)
    return _detect_inputs(directory, seed, 1, videos, gestures)


def build_rl(directory: Path, seed: int) -> Inputs:
    """Graphs and QA items come from the program's own graph and qagen stages
    over generated events, so they are valid by construction."""
    from socialevents import cli

    rng = Random(seed)
    events, gestures, manifest = [], [], []
    for v in range(120):
        video_id = f"rl-{v:03d}"
        events += synth.make_graph_events(seed * 1000 + v, video_id)
        gestures += synth.make_gestures(seed * 1000 + 500 + v, video_id, list(range(6)),
                                        60.0, rng.randint(0, 8))
        manifest.append({"video_id": video_id, "duration": 60.0, "person_ids": list(range(6))})
    write_jsonl(events, directory / "events.jsonl")
    write_jsonl(gestures, directory / "gestures.jsonl")
    write_jsonl(manifest, directory / "videos.jsonl")
    for argv in (
        ["graph", "--input", str(directory / "events.jsonl"),
         "--gestures", str(directory / "gestures.jsonl"),
         "--videos", str(directory / "videos.jsonl"), "--out", str(directory),
         "--threads", "1"],
        ["qagen", "--input", str(directory / "graph.jsonl"), "--out", str(directory),
         "--seed", str(seed), "--budget", "25", "--threads", "1"],
    ):
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"rl setup: socialevents {argv[0]} exited {code}")
    qa_records = read_jsonl(directory / "qa.jsonl")
    traces, shapes = synth.make_traces(seed, qa_records, 2000, K, MODELS)
    write_jsonl(traces, directory / "traces.jsonl")

    lengths = [n for n, _ in shapes]
    return Inputs(
        directory=directory,
        stages=[
            ("reward", ["reward", "--input", str(directory / "qa.jsonl"),
                        "--traces", str(directory / "traces.jsonl"),
                        "--graphs", str(directory / "graph.jsonl"),
                        "--out", "{out}", "--threads", "1"]),
            ("analyze", ["analyze", "--input", "{out}/rewards.jsonl", "--out", "{out}",
                         "--tsv", "--threads", "1"]),
        ],
        artifacts=["rewards.jsonl", "report.json", "report.tsv"],
        units=len(shapes),
        unit="rollouts",
        digests={name: sha256(directory / name) for name in
                 ("events.jsonl", "gestures.jsonl", "videos.jsonl",
                  "graph.jsonl", "qa.jsonl", "traces.jsonl")},
        properties={
            "graphs": 120,
            "groups": len(traces),
            "rollouts": len(shapes),
            "qa_items": len(qa_records),
            "qa_by_category": category_shares(qa_records),
            "think_words_quartiles": _quartiles(lengths),
            "malformed": share(sum(1 for _, ok in shapes if not ok), len(shapes)),
        },
    )


BUILDERS = {"long": build_long, "corpus": build_corpus, "crowd": build_crowd, "rl": build_rl}


def build(name: str, directory: Path, seed: int) -> tuple[Inputs, float]:
    """Build a workload's inputs into a fresh directory; returns them and the
    seconds it took."""
    directory.mkdir(parents=True)
    start = time.perf_counter()
    inputs = BUILDERS[name](directory, seed)
    return inputs, time.perf_counter() - start


def category_shares(qa_records) -> dict:
    counts = Counter(r["category"] for r in qa_records)
    return {c: share(n, len(qa_records)) for c, n in sorted(counts.items())}


def contested_frames(frames: list[dict]) -> tuple[int, int]:
    """(contested, contested with more than WIDE_FACES faces).

    A frame is contested when a person or a face has two positive-overlap
    candidates under the program's public head_region and box_overlap; this
    is a property of the input, whatever solver the program runs on it."""
    from socialevents.identity import box_overlap, head_region
    from socialevents.ingest import Box

    contested = wide = 0
    for frame in frames:
        heads = [head_region(Box(*p["box"])) for p in frame["persons"]]
        faces = [Box(*f["box"]) for f in frame["faces"]]
        hits = [[box_overlap(h, f) > 0.0 for f in faces] for h in heads]
        if any(sum(row) > 1 for row in hits) or any(sum(col) > 1 for col in zip(*hits)):
            contested += 1
            wide += len(faces) > WIDE_FACES
    return contested, wide
