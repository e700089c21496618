import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialevents import cli, ingest, qa
from socialevents import events as events_mod
from socialevents import graph as graph_mod
from socialevents.cli import main
from socialevents.config import EngineConfig
from socialevents.errors import ContractError, ValidationError
from socialevents.events import serialize_event
from socialevents.gaze import GazeTrack
from socialevents.ingest import dumps_canonical
from socialevents.mentions import extract_person_ids
from socialevents.qa import load_qa_items
from socialevents.reward import score_group
from helpers import event
from oracles import rewards_record
from synth import (
    make_gestures,
    make_traces,
    make_video,
    serialize_frame,
    write_gestures,
    write_observations,
)


def run(*argv):
    return main(list(argv))


def make_inputs(tmp_path, seed=3, n_videos=2):
    obs = tmp_path / "observations.jsonl"
    gestures_path = tmp_path / "gestures.jsonl"
    frames = []
    gestures = []
    for v in range(n_videos):
        video = make_video(seed + v, video_id=f"vid{v}", min_frames=24, max_frames=40)
        frames += video
        pids = sorted({p.person_id for f in video for p in f.persons})
        duration = video[-1].t + 0.5
        gestures += make_gestures(seed + 10 + v, f"vid{v}", pids, duration, count=4)
    write_observations(frames, obs)
    write_gestures(gestures, gestures_path)
    return obs, gestures_path


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@st.composite
def interleavings(draw, videos):
    """The videos' frames in a drawn order of whole videos: each video's
    frames are one run, in their own order, as observations.jsonl needs."""
    return [frame for video in draw(st.permutations(videos)) for frame in video]


class TestDetect:
    def test_three_frame_fixture(self, tmp_path):
        obs = tmp_path / "obs.jsonl"
        frames = make_video(1, min_frames=3, max_frames=3)
        write_observations(frames, obs)
        out = tmp_path / "out"
        assert run("detect", "--input", str(obs), "--out", str(out)) == 0
        assert (out / "events.jsonl").exists()
        assert (out / "videos.jsonl").exists()
        manifest = read_lines(out / "videos.jsonl")
        assert manifest[0]["duration"] == frames[-1].t + 0.5

    def test_t_just_below_2_to_the_52_keeps_its_grid(self, tmp_path):
        # every grid time below 2**52 is an exact float, so two frames there
        # give two samples at their own times and the duration is exact
        frames = make_video(1, min_frames=2, max_frames=2)
        top = 2 ** 53 - 1  # the tick of t = 2**52 - 0.5
        frames = [dataclasses.replace(f, k=top - 1 + f.k) for f in frames]
        obs = tmp_path / "obs.jsonl"
        write_observations(frames, obs)
        assert '"t":4503599627370495.5' in obs.read_text()
        out = tmp_path / "out"
        assert run("detect", "--input", str(obs), "--out", str(out), "--dump-features") == 0
        assert '"duration":4503599627370496.0' in (out / "videos.jsonl").read_text()
        assert [r["t"] for r in read_lines(out / "features.jsonl")] == [2 ** 52 - 1, 2 ** 52 - 0.5]

    def test_t_at_2_to_the_52_exit_3(self, tmp_path, capsys):
        obs = tmp_path / "obs.jsonl"
        obs.write_text('{"video_id": "v", "t": 0.0, "persons": [], "faces": []}\n'
                       '{"video_id": "v", "t": 4503599627370496, "persons": [], "faces": []}\n')
        assert run("detect", "--input", str(obs), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "t must be below 2**52" in err

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("lines, line_no", [
        (lambda one, two: [f for pair in zip(one, two) for f in pair], 3),
        (lambda one, two: one[:5] + two + one[5:], 46),
    ], ids=["alternating", "after-a-whole-video"])
    def test_resumed_video_exit_3(self, tmp_path, capsys, threads, lines, line_no):
        """A video's frames are one run: a frame of a video whose run has
        ended exits 3 naming its line, at any thread count, and writes no
        artifact."""
        one = make_video(1, min_frames=40, max_frames=40)
        two = make_video(2, min_frames=40, max_frames=40)
        write_observations(lines(one, two), tmp_path / "obs.jsonl")
        out = tmp_path / "out"
        assert run("detect", "--input", str(tmp_path / "obs.jsonl"), "--out", str(out),
                   "--threads", threads) == 3
        assert capsys.readouterr().err == \
            f"error: line {line_no}: video 'synth-1' resumes after video 'synth-2'\n"
        assert list(out.iterdir()) == []

    def test_no_other_video_is_alive_while_one_is_detected(self, tmp_path, monkeypatch):
        """At --threads 1 each video is detected as soon as its frames end:
        while the detectors run on one video, no other video's track is
        alive."""
        frames = [f for v in range(3)
                  for f in make_video(v, video_id=f"spy{v}", min_frames=24, max_frames=40)]
        write_observations(frames, tmp_path / "obs.jsonl")
        detect_all = events_mod.detect_all
        alive = []

        def spy(tracks, *args, **kwargs):
            alive.append(({t.video_id for t in tracks},
                          {o.video_id for o in gc.get_objects()
                           if isinstance(o, GazeTrack) and o.video_id.startswith("spy")}))
            return detect_all(tracks, *args, **kwargs)

        monkeypatch.setattr(events_mod, "detect_all", spy)
        gc.collect()
        assert run("detect", "--input", str(tmp_path / "obs.jsonl"),
                   "--out", str(tmp_path / "out")) == 0
        assert alive == [({f"spy{v}"}, {f"spy{v}"}) for v in range(3)]

    def test_missing_input_exit_2(self, tmp_path):
        assert run("detect", "--input", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o")) == 2

    def test_schema_violation_exit_3(self, tmp_path, capsys):
        obs = tmp_path / "obs.jsonl"
        obs.write_text('{"video_id": "v", "t": 0.3, "persons": [], "faces": []}\n')
        assert run("detect", "--input", str(obs), "--out", str(tmp_path / "o")) == 3
        assert "line 1" in capsys.readouterr().err

    def test_features_dump(self, tmp_path):
        obs, _ = make_inputs(tmp_path, n_videos=1)
        out = tmp_path / "out"
        assert run("detect", "--input", str(obs), "--out", str(out), "--dump-features") == 0
        rows = read_lines(out / "features.jsonl")
        assert rows and "velocities" in rows[0]

    def test_print_config(self, tmp_path, capsys):
        assert run("detect", "--input", "x", "--out", "y", "--print-config",
                   "--sudden-velocity", "0.8") == 0
        config = json.loads(capsys.readouterr().out)
        assert config["sudden_velocity"] == 0.8
        assert config["gaze_conf_min"] == 0.9
        # the full parameter set, not only the flags detect takes
        assert set(config) == {f.name for f in dataclasses.fields(EngineConfig)}


class TestPipeline:
    def run_through_qa(self, tmp_path, threads="1"):
        obs, gestures = make_inputs(tmp_path)
        out = tmp_path / f"out{threads}"
        assert run("detect", "--input", str(obs), "--out", str(out),
                   "--threads", threads) == 0
        assert run("graph", "--input", str(out / "events.jsonl"),
                   "--gestures", str(gestures),
                   "--videos", str(out / "videos.jsonl"),
                   "--out", str(out), "--threads", threads) == 0
        assert run("qagen", "--input", str(out / "graph.jsonl"),
                   "--out", str(out), "--seed", "7", "--threads", threads) == 0
        return out

    def test_full_chain_and_thread_determinism(self, tmp_path):
        out1 = self.run_through_qa(tmp_path, threads="1")
        out4 = self.run_through_qa(tmp_path, threads="4")
        for name in ("events.jsonl", "videos.jsonl", "graph.jsonl", "qa.jsonl"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()

    def test_pipeline_qa_validates_against_pipeline_graphs(self, tmp_path):
        from socialevents.graph import load_graphs
        from socialevents.qa import validate_qa
        from oracles import recover_answer

        out = self.run_through_qa(tmp_path)
        graphs = {g.video_id: g for g in load_graphs(out / "graph.jsonl")}
        items = load_qa_items(out / "qa.jsonl")
        assert items
        for item in items:
            g = graphs[item.video_id]
            assert validate_qa(item, g) is None
            cited = [g.event_by_id(i) for i in item.source_event_ids]
            assert recover_answer(item.category, cited) == item.answer_text

    def test_qagen_empty_graph_file(self, tmp_path):
        empty = tmp_path / "graph.jsonl"
        empty.write_text("")
        out = tmp_path / "out"
        assert run("qagen", "--input", str(empty), "--out", str(out), "--seed", "0") == 0
        assert (out / "qa.jsonl").read_text() == ""

    def test_reward_and_analyze(self, tmp_path):
        out = self.run_through_qa(tmp_path)
        items = load_qa_items(out / "qa.jsonl")
        assert items, "pipeline produced no QA items"
        traces = tmp_path / "traces.jsonl"
        with open(traces, "w") as fh:
            for i, item in enumerate(items[:4]):
                good = (f"<think><gaze>Person 0 and Person 1</gaze></think>"
                        f"<answer>{item.answer}</answer>")
                bad = "<think></think><answer>Z</answer>"
                fh.write(json.dumps({
                    "query_id": f"q{i}", "qa_id": item.qa_id, "model": "demo",
                    "rollouts": [good, bad] * 4,
                }) + "\n")
        assert run("reward", "--input", str(out / "qa.jsonl"),
                   "--traces", str(traces), "--graphs", str(out / "graph.jsonl"),
                   "--out", str(out)) == 0
        rewards = read_lines(out / "rewards.jsonl")
        assert len(rewards) == min(4, len(items))
        first = rewards[0]["per_rollout"]
        assert len(first) == 8
        assert first[0]["total"] > first[1]["total"]
        advantages = [r["advantage"] for r in first]
        assert abs(sum(advantages)) < 1e-6

        assert run("analyze", "--input", str(out / "rewards.jsonl"),
                   "--out", str(out), "--tsv") == 0
        report = json.loads((out / "report.json").read_text())
        assert "demo" in report["models"]
        assert report["models"]["demo"]["rollouts"] == len(rewards) * 8
        assert (out / "report.tsv").exists()

    def test_reward_k_mismatch_exit_3(self, tmp_path, capsys):
        out = self.run_through_qa(tmp_path)
        items = load_qa_items(out / "qa.jsonl")
        traces = tmp_path / "traces.jsonl"
        traces.write_text(json.dumps({
            "query_id": "q0", "qa_id": items[0].qa_id,
            "rollouts": ["<think></think><answer>A</answer>"] * 3,
        }) + "\n")
        capsys.readouterr()
        assert run("reward", "--input", str(out / "qa.jsonl"),
                   "--traces", str(traces), "--graphs", str(out / "graph.jsonl"),
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == "error: line 1: expected 8 rollouts, got 3\n"
        assert not (out / "rewards.jsonl").exists()

    def test_reward_k_flag(self, tmp_path):
        out = self.run_through_qa(tmp_path)
        items = load_qa_items(out / "qa.jsonl")
        traces = tmp_path / "traces.jsonl"
        traces.write_text(json.dumps({
            "query_id": "q0", "qa_id": items[0].qa_id,
            "rollouts": ["<think></think><answer>A</answer>"] * 3,
        }) + "\n")
        assert run("reward", "--input", str(out / "qa.jsonl"),
                   "--traces", str(traces), "--graphs", str(out / "graph.jsonl"),
                   "--out", str(out), "--k", "3") == 0

    def test_reward_and_corrupt_byte_determinism(self, tmp_path):
        out = self.run_through_qa(tmp_path)
        items = load_qa_items(out / "qa.jsonl")
        traces = tmp_path / "traces.jsonl"
        with open(traces, "w") as fh:
            fh.write(json.dumps({
                "query_id": "q0", "qa_id": items[0].qa_id,
                "rollouts": ["<think><gaze>P0 and P1</gaze></think><answer>A</answer>"] * 8,
            }) + "\n")
        for sub in ("r1", "r2"):
            assert run("reward", "--input", str(out / "qa.jsonl"),
                       "--traces", str(traces), "--graphs", str(out / "graph.jsonl"),
                       "--out", str(tmp_path / sub)) == 0
            assert run("corrupt", "--input", str(out / "qa.jsonl"),
                       "--out", str(tmp_path / sub), "--seed", "11") == 0
        assert (tmp_path / "r1" / "rewards.jsonl").read_bytes() == \
            (tmp_path / "r2" / "rewards.jsonl").read_bytes()
        assert (tmp_path / "r1" / "qa.corrupted.jsonl").read_bytes() == \
            (tmp_path / "r2" / "qa.corrupted.jsonl").read_bytes()

    def test_corrupt_round_trip_fields(self, tmp_path):
        out = self.run_through_qa(tmp_path)
        assert run("corrupt", "--input", str(out / "qa.jsonl"),
                   "--out", str(out), "--seed", "11") == 0
        original = read_lines(out / "qa.jsonl")
        corrupted = read_lines(out / "qa.corrupted.jsonl")
        assert len(original) == len(corrupted)
        for before, after in zip(original, corrupted):
            assert before["qa_id"] == after["qa_id"]
            if before["format"] == "mcq":
                assert after["answer"] == before["answer"]  # letter preserved
            assert after["source_event_ids"] == before["source_event_ids"]
            assert "id_remap" in after


class TestWeightsFlag:
    def test_weights_override(self, tmp_path, capsys):
        assert run("reward", "--input", "x", "--traces", "y", "--graphs", "z",
                   "--out", "o", "--weights", "2.0,0.2,0.1,0.4", "--print-config") == 0
        config = json.loads(capsys.readouterr().out)
        assert config["weight_acc"] == 2.0
        assert config["weight_gnd"] == 0.4


# ---------------------------------------------------------------------------
# detect --threads N: the same outcome at any N

# Each fault, applied to line i (j is a later position), gives the file's
# bytes. "blank lines" and "CRLF" are not faults to the serial path; the
# duplicate, the escaped video_id and the unkeyable video are not faults to
# it either: the line scan keys the duplicate's line wrongly, and the
# escaped key names only through json.loads. A line that does not decode
# and whose key name is escaped ("unkeyed bad JSON") has no key, and joins
# the run before it. A form feed is not JSON whitespace, so a line holding
# only one is not blank.
FAULTS = ("none", "bad JSON", "not an object", "schema error", "ordering error",
          "resumed video", "duplicate video_id key", "escaped video_id", "unkeyable video",
          "unkeyed bad JSON", "BOM", "CRLF", "CR inside a line", "blank lines",
          "form feed line", "not UTF-8")
VALID = ("none", "duplicate video_id key", "escaped video_id", "unkeyable video", "CRLF",
         "blank lines")


def _unkeyable(line: bytes) -> bytes:
    """The line with its key name spelled "video\\u005fid", which the
    reader reads as video_id and the key pattern misses: the line scan
    keys it by the video_id json.loads reads from it."""
    return line.replace(b'"video_id":', b'"video\\u005fid":', 1)


def _escaped_id(line: bytes) -> bytes:
    """The line with its video id spelled "synth\\u002d...", which the
    line scan reads as the reader does."""
    return line.replace(b'"video_id":"synth-', b'"video_id":"synth\\u002d', 1)


def observation_bytes(frames, fault="none", i=0, j=1) -> bytes:
    lines = [serialize_frame(f).encode() for f in frames]
    line = lines[i]
    newline = b"\n"
    if fault == "bad JSON":
        lines[i] = line[:-1]
    elif fault == "not an object":
        lines[i] = b"[" + line + b"]"
    elif fault == "schema error":
        lines[i] = line.replace(b'"persons":', b'"persons":7,"was":', 1)
    elif fault == "ordering error":
        lines.insert(j, line)
    elif fault == "resumed video":  # the first video's first frame again, after the last video
        lines.append(lines[0])
    elif fault == "duplicate video_id key":
        other = next((f.video_id for f in frames if f.video_id != frames[i].video_id), "other")
        lines[i] = b'{"video_id":"' + other.encode() + b'",' + line[1:]
    elif fault == "escaped video_id":
        lines[i] = _unkeyable(line)
    elif fault == "unkeyable video":  # every line of frame i's video
        lines = [_unkeyable(line) if f.video_id == frames[i].video_id else line
                 for f, line in zip(frames, lines)]
    elif fault == "unkeyed bad JSON":
        lines[i] = _unkeyable(line)[:-1]
    elif fault == "BOM":
        lines[0] = "\ufeff".encode() + lines[0]
    elif fault == "CRLF":
        newline = b"\r\n"
    elif fault == "CR inside a line":  # text mode ends a line there
        lines[i] = line.replace(b',"t":', b',\r"t":', 1)
    elif fault == "blank lines":
        lines[j:j] = [b"", b"  \t"]
    elif fault == "form feed line":
        lines.insert(j, b"\x0c")
    elif fault == "not UTF-8":
        lines[i] = line.replace(b'"video_id":"synth-', b'"video_id":"synth\xff-', 1)
    return b"".join(line + newline for line in lines)


def detect_outcome(data: bytes, directory: Path, threads: int, dump: bool):
    """Exit code, stderr and artifact bytes of detect over these bytes."""
    directory.mkdir()
    (directory / "obs.jsonl").write_bytes(data)
    out = directory / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("detect", "--input", str(directory / "obs.jsonl"), "--out", str(out),
                   "--threads", str(threads), *(["--dump-features"] if dump else []))
    assert multiprocessing.active_children() == []
    artifacts = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    if code != 0:
        assert artifacts == {}, "a faulty run leaves no artifact behind"
    return code, err.getvalue(), artifacts


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_detect_gives_the_same_outcome_at_any_thread_count(data):
    videos = [make_video(seed, min_frames=4, max_frames=24) for seed in
              data.draw(st.lists(st.integers(0, 10_000), min_size=2, max_size=4, unique=True))]
    frames = data.draw(interleavings(videos))
    fault = data.draw(st.sampled_from(FAULTS))
    i = data.draw(st.integers(0, len(frames) - 1))
    j = data.draw(st.integers(i + 1, len(frames)))
    dump = data.draw(st.booleans())
    observations = observation_bytes(frames, fault, i, j)
    with tempfile.TemporaryDirectory() as tmp:
        serial = detect_outcome(observations, Path(tmp, "1"), 1, dump)
        for threads in (2, 3):
            assert detect_outcome(observations, Path(tmp, str(threads)), threads, dump) == serial
    assert (serial[0] == 0) == (fault in VALID)


def _three_videos():
    return [f for seed in (1, 2, 3) for f in make_video(seed, min_frames=20, max_frames=30)]


needs_two_cpus = pytest.mark.skipif(cli._usable_cpus() < 2, reason="detect shards only on 2+ CPUs")


@needs_two_cpus
@pytest.mark.parametrize("fault", FAULTS)
def test_sharded_detect_runs_only_on_input_it_can_key(tmp_path, fault):
    """Valid input shards, escaped key names included (each such line keys
    itself by the video_id json.loads reads); any faulty line reaches a
    worker's reader, an unkeyed one through the run before it, and the
    pool's fault leaves the input to the serial path, as does a video
    detected twice (a resumed video, a line keyed to another video)."""
    obs = tmp_path / "obs.jsonl"
    obs.write_bytes(observation_bytes(_three_videos(), fault, i=5, j=30))
    args = argparse.Namespace(input=str(obs), threads=2, dump_features=True)
    sharded = cli._detect_sharded(args, EngineConfig())
    assert multiprocessing.active_children() == []
    assert (sharded is not None) == (fault in VALID and fault != "duplicate video_id key")


@needs_two_cpus
def test_sharded_detect_never_forks_beside_another_thread(tmp_path):
    obs = tmp_path / "obs.jsonl"
    obs.write_bytes(observation_bytes(_three_videos()))
    args = argparse.Namespace(input=str(obs), threads=2, dump_features=False)
    assert cli._detect_sharded(args, EngineConfig()) is not None
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert cli._detect_sharded(args, EngineConfig()) is None
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@needs_two_cpus
def test_sharded_detect_leaves_no_thread_and_no_warning(tmp_path):
    """A pool that forks beside its own thread (which warns from 3.12 on)
    or leaves a thread alive (which makes every later pass in the process
    run serially) fails here."""
    obs = tmp_path / "obs.jsonl"
    obs.write_bytes(observation_bytes(_three_videos()))
    args = argparse.Namespace(input=str(obs), threads=2, dump_features=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sharded = cli._detect_sharded(args, EngineConfig())
    assert sharded is not None
    assert caught == []
    assert threading.active_count() == 1


@pytest.fixture
def started(monkeypatch):
    """The processes started while the test runs."""
    processes = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda self: (processes.append(self), start(self))[1])
    return processes


@needs_two_cpus
def test_detect_starts_no_more_workers_than_videos_or_cpus(tmp_path, started):
    obs = tmp_path / "obs.jsonl"
    obs.write_bytes(observation_bytes(_three_videos()))
    for threads in ("1", "1000000"):
        assert run("detect", "--input", str(obs), "--out", str(tmp_path / threads),
                   "--threads", threads) == 0
    assert len(started) == min(3, cli._usable_cpus())
    assert multiprocessing.active_children() == []
    assert (tmp_path / "1" / "events.jsonl").read_bytes() == \
        (tmp_path / "1000000" / "events.jsonl").read_bytes()


@needs_two_cpus
@pytest.mark.parametrize("separators", [(", ", ": "), (",", "\t:\t"), (",", " :")],
                         ids=["json.dumps", "tabs", "space before"])
def test_detect_shards_spaced_json(tmp_path, started, separators):
    """Whitespace around a key's colon, as json.dumps writes by default."""
    obs = tmp_path / "obs.jsonl"
    obs.write_text("".join(json.dumps(json.loads(serialize_frame(f)), separators=separators)
                           + "\n" for f in _three_videos()))
    for threads in ("1", "2"):
        assert run("detect", "--input", str(obs), "--out", str(tmp_path / threads),
                   "--threads", threads, "--dump-features") == 0
    assert len(started) == 2
    for artifact in ("events.jsonl", "videos.jsonl", "features.jsonl"):
        assert (tmp_path / "1" / artifact).read_bytes() == (tmp_path / "2" / artifact).read_bytes()


@needs_two_cpus
@pytest.mark.parametrize("layout", ["first", "middle", "last", "id escaped on line 1",
                                    "id escaped on synth-2's first line",
                                    "key name escaped on line 1",
                                    "key name escaped on synth-2's first line"])
def test_detect_shards_a_video_it_cannot_key(tmp_path, started, layout):
    """The first, middle or last video with every line's key name spelled
    "video\\u005fid": the key pattern misses each line, so the parent keys
    it by the video_id json.loads reads from it, and the video is one run.
    A video whose first line alone spells its key name so: that line keys
    itself the same way and starts its video's run, where it used to join
    the run before it (or, on line 1, be a run alone) and leave the video
    detected twice. A video whose first line spells its id "synth\\u002d...":
    the parent reads that key as the reader does, so the line starts its
    video's run. Each way _detect_sharded returns the pool's output, the
    serial bytes."""
    videos = [make_video(seed, min_frames=20, max_frames=30) for seed in (1, 2, 3)]
    lines = [[serialize_frame(f).encode() for f in video] for video in videos]
    if layout in ("first", "middle", "last"):
        unkeyed = ("first", "middle", "last").index(layout)
        lines[unkeyed] = [_unkeyable(line) for line in lines[unkeyed]]
    else:
        edit = _escaped_id if layout.startswith("id") else _unkeyable
        first = 0 if layout.endswith("line 1") else 1
        lines[first][0] = edit(lines[first][0])
    obs = tmp_path / "obs.jsonl"
    obs.write_bytes(b"".join(line + b"\n" for video in lines for line in video))
    args = argparse.Namespace(input=str(obs), threads=2, dump_features=True)
    sharded = cli._detect_sharded(args, EngineConfig())
    assert sharded is not None
    assert len(started) == 2
    assert multiprocessing.active_children() == []
    assert run("detect", "--input", str(obs), "--out", str(tmp_path / "1"), "--dump-features") == 0
    for artifact, texts in zip(("events.jsonl", "videos.jsonl", "features.jsonl"), zip(*sharded)):
        assert (tmp_path / "1" / artifact).read_text() == "".join(texts)
    assert [r["video_id"] for r in read_lines(tmp_path / "1" / "videos.jsonl")] == \
        ["synth-1", "synth-2", "synth-3"]


# Any character, with the ones JSON escapes drawn often: quotes,
# backslashes, control characters and lone surrogates.
ID_CHARACTERS = st.one_of(st.sampled_from('"\\/'), st.characters(max_codepoint=0x1f),
                          st.characters(categories=["Cs"]), st.characters(exclude_categories=()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(video_id=st.text(ID_CHARACTERS, min_size=1),
       first=st.booleans(), ensure_ascii=st.booleans(),
       separators=st.sampled_from([None, (",", ":")]))
def test_a_line_is_keyed_by_the_video_id_it_parses_to(video_id, first, ensure_ascii, separators):
    """Quotes, backslashes, control characters, non-ASCII text and lone
    surrogates, however json.dumps writes them, key a line as its parsed
    video_id (a surrogate pair escaped by ensure_ascii reads back as one
    character, by the reader and the key alike)."""
    fields = {"t": 0.0, "persons": [], "faces": []}
    record = {"video_id": video_id, **fields} if first else {**fields, "video_id": video_id}
    line = json.dumps(record, ensure_ascii=ensure_ascii, separators=separators) + "\n"
    assert cli._video_key(line) == ingest.parse_frame(json.loads(line)).video_id


@pytest.mark.parametrize("line", [
    '{"video\\u005fid":"synth-1","t":0.0', '{"video\\u005fid":7,"t":0.0}',
    '["video\\u005fid","synth-1"]', '{"video\\u005fid":' + "[" * 100_000,
    '{"video\\u005fid":"synth-\\ud800\\"}', '{"t":"\\n"}',
], ids=["no JSON", "not a string", "not an object", "deep", "unterminated", "no key"])
def test_a_line_without_a_string_video_id_stays_unkeyed(line):
    """A line that does not decode, or decodes to no string video_id, has no
    key, so the parent judges nothing: a worker's reader names the fault."""
    assert cli._video_key(line + "\n") is None


def _fork_fails(self):
    raise BlockingIOError(11, "Resource temporarily unavailable")


_start = multiprocessing.process.BaseProcess.start


def _later_fork_fails(self):
    if multiprocessing.active_children():  # a worker already runs
        _fork_fails(self)
    _start(self)


def _worker_dies(*args):
    os._exit(1)


def _worker_raises(*args):
    raise RuntimeError("a fault in a worker")


@needs_two_cpus
@pytest.mark.parametrize("target, name, value", [
    (multiprocessing.process.BaseProcess, "start", _fork_fails),
    (multiprocessing.process.BaseProcess, "start", _later_fork_fails),
    (cli, "_detect_lines", _worker_dies),
    (cli, "_detect_lines", _worker_raises),
], ids=["no process", "a later fork fails", "a worker dies", "a worker raises"])
def test_detect_runs_serially_when_the_workers_fail(tmp_path, monkeypatch, target, name, value):
    obs = tmp_path / "obs.jsonl"
    obs.write_bytes(observation_bytes(_three_videos()))
    assert run("detect", "--input", str(obs), "--out", str(tmp_path / "1")) == 0
    monkeypatch.setattr(target, name, value)
    assert run("detect", "--input", str(obs), "--out", str(tmp_path / "2"), "--threads", "2") == 0
    assert multiprocessing.active_children() == []
    for artifact in ("events.jsonl", "videos.jsonl"):
        assert (tmp_path / "1" / artifact).read_bytes() == (tmp_path / "2" / artifact).read_bytes()


@pytest.mark.parametrize("value", ["0", "-3", "two", "1.5"])
def test_threads_below_1_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run("detect", "--input", "x", "--out", "o", "--threads", value)
    assert exc.value.code == 2
    assert "argument --threads: needs an integer of at least 1" in capsys.readouterr().err


def test_env_var_thread_fallback(tmp_path, monkeypatch, started):
    """GRASP_ENGINE_THREADS is not read: detect without --threads starts no
    worker, even on input it could shard."""
    obs = tmp_path / "obs.jsonl"
    obs.write_bytes(observation_bytes(_three_videos()))
    monkeypatch.setenv("GRASP_ENGINE_THREADS", "2")
    assert run("detect", "--input", str(obs), "--out", str(tmp_path / "out")) == 0
    assert started == []


def test_detect_empty_observations(tmp_path):
    obs = tmp_path / "obs.jsonl"
    obs.write_text("")
    out = tmp_path / "out"
    assert run("detect", "--input", str(obs), "--out", str(out)) == 0
    assert (out / "events.jsonl").read_text() == ""


def test_analyze_malformed_rewards_exit_3(tmp_path):
    bad = tmp_path / "rewards.jsonl"
    bad.write_text('{"query_id": "q", "per_rollout": [{"r_acc": 1}]}\n')
    assert run("analyze", "--input", str(bad), "--out", str(tmp_path / "o")) == 3


@pytest.mark.parametrize("weights, field", [
    ({"weight_acc": 1e308, "weight_fmt": 1e308}, "weight_acc"),  # the total overflows
    ({"weight_acc": 1e200}, "weight_acc"),  # squared deviations overflow to inf
    ({"weight_gnd": -1.0000000000000002e100}, "weight_gnd"),
])
def test_reward_weight_beyond_1e100_rejected(weights, field):
    with pytest.raises(ContractError, match=rf"^config field {field} = .* must be within "
                                            r"\[-1e100, 1e100\]$"):
        EngineConfig(**weights)


def test_reward_weights_at_1e100_give_finite_advantages(capsys):
    config = EngineConfig(weight_acc=1e100, weight_fmt=-1e100, weight_str=1e100,
                          weight_gnd=1e100, rollouts_per_query=2)
    scored = score_group(["<think><gaze>Person 0</gaze></think><answer>B</answer>",
                          "<think></think><answer>C</answer>"], "B", {0}, config=config)
    assert [round(s.advantage, 9) for s in scored] == [1.0, -1.0]
    assert run("reward", "--input", "x", "--traces", "y", "--graphs", "z", "--out", "o",
               "--weights", "1e308,1e308,0,0") == 3
    assert capsys.readouterr().err == (
        "error: config field weight_acc = 1e+308 must be within [-1e100, 1e100]\n")


# Any text: non-ASCII, quotes, backslashes, control characters, lone surrogates.
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
PERSON = st.integers(0, 5) | st.integers(0, 10 ** 100)
WEIGHT = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, 1e100, -1e100, 5e-324, -1e-310])


@st.composite
def rollout_text(draw) -> str:
    """A trace naming some persons (maybe none) in a gaze or gesture block,
    well formed or cut short."""
    words = draw(st.text(st.sampled_from(" \t\n\x1c\x85\u3000ab\"\\"), max_size=12))
    mentions = " ".join(draw(st.sampled_from(["Person {}", "P{}"])).format(i)
                        for i in draw(st.lists(PERSON, max_size=4)))
    tag = draw(st.sampled_from(["gaze", "gesture"]))
    answer = draw(st.sampled_from(["A", "B", " b "]))
    raw = f"<think>{words}<{tag}>{mentions}</{tag}></think><answer>{answer}</answer>"
    return raw[:draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


@pytest.fixture(scope="module")
def shared_texts():
    """One rewards_line text cache for every example of a property."""
    return {}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rewards_line_is_the_canonical_record(shared_texts, data):
    """reward's line for a group is dumps_canonical of the oracle's record,
    for any keys, weights within the bound, advantage mode and traces, with
    one text cache shared by every example, as by every group of a run;
    analyze's tables take its record and each rollout on their fast path,
    and analyze's rules for a rollout accept every one."""
    k = data.draw(st.integers(2, 4))
    config = EngineConfig(
        **dict(zip(("weight_acc", "weight_fmt", "weight_str", "weight_gnd"),
                   data.draw(st.tuples(WEIGHT, WEIGHT, WEIGHT, WEIGHT)))),
        rollouts_per_query=k, advantage_mode=data.draw(st.sampled_from(["zscore", "mean_center"])),
        advantage_clip=data.draw(st.sampled_from([5.0, 0.5, 1e300])))
    gt = data.draw(st.sets(PERSON, min_size=1, max_size=3))
    asked = data.draw(st.sets(PERSON, max_size=3))
    scored = score_group(data.draw(st.lists(rollout_text(), min_size=k, max_size=k)),
                         "B", gt, config=config)
    keys = data.draw(st.tuples(ANY_TEXT, ANY_TEXT, ANY_TEXT))
    line = cli.rewards_line(*keys, scored, asked, shared_texts)
    assert line == dumps_canonical(rewards_record(*keys, scored, gt, asked)) + "\n"
    record = json.loads(line)
    for schema, r in [(cli.REWARDS, record), *((cli.ROLLOUT, r) for r in record["per_rollout"])]:
        assert tuple(map(type, schema.values(r))) in schema.shapes
    for r in record["per_rollout"]:
        assert cli._rollout(r, 1) == cli.ROLLOUT.values(r)


def test_weights_flag_rejects_bad_values(capsys):
    base = ("reward", "--input", "x", "--traces", "y", "--graphs", "z", "--out", "o")
    for flag, value in (("--weights", "x,1,1,1"), ("--weights", "1,2"),
                        ("--weights", "1,1,1,1,1"), ("--weights", "1,1,1,nan"),
                        ("--weights", "inf,1,1,1"), ("--k", "abc")):
        with pytest.raises(SystemExit) as exc:
            run(*base, flag, value)
        assert exc.value.code == 2, (flag, value)
        assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("field, flags", [
    ("capture_min_persons", ("--capture-min-persons", "0")),
    ("capture_window", ("--capture-window", "-1")),
    ("sudden_cluster_gap", ("--sudden-cluster-gap", "0")),
    ("follow_lag_min", ("--follow-lag-min", "0")),
    ("follow_lag_max", ("--follow-lag-min", "2.5", "--follow-lag-max", "1.0")),
    ("mutual_margin", ("--mutual-margin", "-0.01")),
    ("sudden_velocity", ("--sudden-velocity", "nan")),
    ("mutual_min_duration", ("--mutual-min-duration", "inf")),
    ("capture_window", ("--capture-window", "0", "--print-config")),
    ("follow_lag_min", ("--follow-lag-min", "1.2")),
    ("follow_lag_min", ("--follow-lag-min", "1.3", "--follow-lag-max", "1.4")),
    ("follow_lag_max", ("--follow-lag-max", "2.2")),
    ("sudden_max_duration", ("--sudden-min-duration", "2", "--sudden-max-duration", "1")),
    ("ja_convergence", ("--ja-convergence", "0")),
    ("ja_convergence", ("--ja-convergence", "1.01")),
    ("ja_set_overlap", ("--ja-set-overlap", "-0.1")),
    ("ja_set_overlap", ("--ja-set-overlap", "1.5")),
    ("linear_max_gap", ("--linear-max-gap", "-1")),
    ("carry_max_gap", ("--carry-max-gap", "-1")),
    ("linear_conf_slope", ("--linear-conf-slope", "-0.1")),
    ("linear_conf_slope", ("--linear-conf-slope", "nan")),
    ("linear_conf_slope", ("--linear-conf-slope", "0.5")),
    pytest.param("linear_conf_slope", ("--linear-max-gap", "1" + "0" * 400),
                 id="--linear-max-gap-10**400"),
    ("carry_conf_base", ("--carry-conf-base", "1.5")),
    ("carry_conf_base", ("--carry-conf-base", "-0.5")),
    ("carry_conf_decay", ("--carry-conf-decay", "-1")),
    ("carry_conf_decay", ("--carry-conf-decay", "inf")),
    ("block_temporal_gap", ("--block-temporal-gap", "-1")),
    ("block_temporal_gap", ("--block-temporal-gap", "nan")),
    ("block_face_displacement", ("--block-face-displacement", "-0.1")),
    ("block_face_displacement", ("--block-face-displacement", "inf")),
    ("convergence_alpha", ("--convergence-alpha", "-1")),
    ("convergence_alpha", ("--convergence-alpha", "nan")),
    ("sudden_velocity", ("--sudden-velocity", "-1")),
    ("capture_velocity", ("--capture-velocity", "-1")),
    ("follow_distance", ("--follow-distance", "-1")),
    ("sudden_min_duration", ("--sudden-min-duration", "-1")),
    ("ja_min_duration", ("--ja-min-duration", "-1")),
    ("mutual_min_duration", ("--mutual-min-duration", "-1")),
    ("ja_peripheral_mult", ("--ja-peripheral-mult", "-1")),
    ("ja_peripheral_mult", ("--ja-peripheral-mult", "0")),
], ids=lambda v: v if isinstance(v, str) else "-".join(v))
def test_bad_detector_config_exit_3(field, flags, tmp_path, capsys):
    obs = tmp_path / "obs.jsonl"
    write_observations(make_video(5), obs)
    out = tmp_path / "out"
    assert run("detect", "--input", str(obs), "--out", str(out), *flags) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config field {field} = ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_boundary_detector_config_accepted():
    config = EngineConfig(capture_min_persons=1, follow_lag_min=1.5, follow_lag_max=1.5,
                          mutual_margin=0.0)
    assert config.capture_min_persons == 1
    for overrides in (
        {"follow_lag_min": 0.5, "follow_lag_max": 3.0},
        {"sudden_min_duration": 1.0, "sudden_max_duration": 1.0},
        {"ja_convergence": 1.0, "ja_set_overlap": 0.0},
        {"ja_convergence": 1e-9, "ja_set_overlap": 1.0},
        {"gaze_conf_min": 0.0, "gesture_conf_min": 1.0},
        {"gaze_conf_min": 1.0, "gesture_conf_min": 0.0},
        {"pair_max_distance": 0.0, "max_graph_events": 1},
        {"qa_medium_min_events": 0, "qa_hard_min_events": 0},
        {"qa_medium_min_events": 7, "qa_hard_min_events": 7},
        {"rollouts_per_query": 2, "advantage_clip": 1e-9, "advantage_mode": "mean_center"},
        {"linear_max_gap": 0, "carry_max_gap": 0, "carry_conf_base": 0.0},
        {"linear_conf_slope": 0.0, "carry_conf_decay": 0.0, "carry_conf_base": 1.0},
        {"linear_conf_slope": 0.25, "linear_max_gap": 4},
        {"block_temporal_gap": 0.0, "block_face_displacement": 0.0, "convergence_alpha": 0.0},
        {"sudden_velocity": 0.0, "capture_velocity": 0.0, "follow_distance": 0.0},
        {"sudden_min_duration": 0.0, "ja_min_duration": 0.0, "mutual_min_duration": 0.0},
        {"ja_peripheral_mult": 1e-9},
    ):
        config = EngineConfig(**overrides)
        assert all(getattr(config, k) == v for k, v in overrides.items())


@pytest.mark.parametrize("field, value", [
    ("weight_acc", float("nan")), ("weight_gnd", float("inf")), ("linear_max_gap", float("inf")),
])
def test_non_finite_config_field_rejected(field, value):
    """Every numeric field must be finite, also those no flag sets to a float."""
    with pytest.raises(ContractError, match=f"^config field {field} = {value!r} must be finite$"):
        EngineConfig(**{field: value})


def _stage_parsers():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestFlagSurface:
    WEIGHTS = ("weight_acc", "weight_fmt", "weight_str", "weight_gnd")

    def test_every_config_field_settable_from_exactly_one_stage(self):
        dests = {name: {a.dest for a in p._actions} for name, p in _stage_parsers().items()}
        for f in dataclasses.fields(EngineConfig):
            stages = [name for name, d in dests.items()
                      if f.name in d or (f.name in self.WEIGHTS and "weights" in d)]
            assert len(stages) == 1, (f.name, stages)

    def test_flag_count(self):
        flags = [o for p in _stage_parsers().values() for a in p._actions
                 for o in a.option_strings if o.startswith("--") and o != "--help"]
        assert len(flags) <= 66

    @pytest.mark.parametrize("argv", [
        ("detect", "--sample-period", "1.0"),
        ("detect", "--gaze-conf-min", "0.5"),
        ("reward", "--traces", "t", "--graphs", "g", "--weight-acc", "2"),
        ("reward", "--traces", "t", "--graphs", "g", "--rollouts-per-query", "3"),
        ("analyze", "--sudden-velocity", "1"),
        ("analyze", "--print-config"),
        ("corrupt", "--weights", "1,1,1,1"),
    ], ids=lambda argv: argv[0] + [a for a in argv if a.startswith("--")][-1])
    def test_flags_of_other_stages_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv[0], "--input", "x", "--out", "y", *argv[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_graph_without_videos_rounds_duration_up_to_grid(tmp_path):
    events_path = tmp_path / "events.jsonl"
    events_path.write_text(
        serialize_event(event(0, start=1.0, end=3.2), "a") + "\n"
        + serialize_event(event(1, start=0.5, end=2.0), "a") + "\n"
    )
    gestures_path = tmp_path / "gestures.jsonl"
    gestures_path.write_text("".join(json.dumps({
        "video_id": video, "gesture_type": "pointing", "initiator_id": 0,
        "target_type": "object", "target_person_id": None,
        "start_time": 0.0, "end_time": end, "confidence": 0.9,
    }) + "\n" for video, end in (("a", 2.7), ("b", 4.0), ("c", 4.1))))
    out = tmp_path / "out"
    assert run("graph", "--input", str(events_path), "--gestures", str(gestures_path),
               "--out", str(out)) == 0
    durations = {g["video_id"]: g["duration"] for g in read_lines(out / "graph.jsonl")}
    assert durations == {"a": 3.5, "b": 4.0, "c": 4.5}


def test_graph_event_times_without_videos(tmp_path, capsys):
    """Without --videos the duration comes from the latest end time: a time
    of 2**52 or more exits 3 naming the line and the field, while a small
    negative time is snapped and its event dropped as outside the video."""
    events_path = tmp_path / "events.jsonl"
    gestures_path = tmp_path / "gestures.jsonl"
    gestures_path.write_text("")
    events_path.write_text(serialize_event(event(0, start=-3.0, end=2.0), "a") + "\n"
                           + serialize_event(event(1, start=1.0, end=2.0), "a") + "\n")
    out = tmp_path / "out"
    assert run("graph", "--input", str(events_path), "--gestures", str(gestures_path),
               "--out", str(out)) == 0
    assert [[e["event_id"] for e in g["events"]] for g in read_lines(out / "graph.jsonl")] == [[1]]
    events_path.write_text(serialize_event(event(0, start=1.0, end=1e308), "a") + "\n")
    assert run("graph", "--input", str(events_path), "--gestures", str(gestures_path),
               "--out", str(tmp_path / "out2")) == 3
    assert capsys.readouterr().err == (
        "error: line 1: bad event record: end_time must be below 2**52 in magnitude, "
        "got 1e+308\n")


@pytest.mark.parametrize("manifest, message", [
    ('{"video_id":"synth-1","duration":-5.0}\n',
     "line 1: bad video manifest record: duration must be non-negative, got -5.0"),
    ('{"video_id":"","duration":5.0}\n',
     "line 1: bad video manifest record: video_id must be non-empty"),
    ('{"video_id":"synth-1","duration":5.0}\n{"video_id":"synth-1","duration":6.0}\n',
     "line 2: bad video manifest record: video_id 'synth-1' repeats"),
], ids=["negative duration", "empty video_id", "repeated video_id"])
def test_graph_bad_manifest_exit_3(tmp_path, capsys, manifest, message):
    events_path = tmp_path / "events.jsonl"
    events_path.write_text("".join(serialize_event(event(i, start=1.0, end=2.0 + i), "synth-1")
                                   + "\n" for i in range(5)))
    (tmp_path / "gestures.jsonl").write_text("")
    (tmp_path / "videos.jsonl").write_text(manifest)
    out = tmp_path / "out"
    assert run("graph", "--input", str(events_path), "--gestures", str(tmp_path / "gestures.jsonl"),
               "--videos", str(tmp_path / "videos.jsonl"), "--out", str(out)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def test_analyze_overflow_names_the_model_and_the_aggregate(valid_inputs, tmp_path, capsys):
    """Finite per-rollout values whose sum, or whose Pearson squares across
    models, leave the float range exit 3 naming the model or the pair."""
    record = read_lines(valid_inputs["rewards"])[0]
    path = tmp_path / "rewards.jsonl"
    for field, model, message in (
        ("total", "m", "model 'm': mean_total_reward overflows the float range"),
        ("r_acc", "m", "model 'm': accuracy overflows the float range"),
        ("r_acc", None, "cross_model accuracy_vs_reasoning_length: the Pearson sums "
                        "overflow the float range"),
    ):
        big = {**record, "model": model or "a",
               "per_rollout": [{**r, field: 1e308 if model else 1e300, "think_tokens": 3}
                               for r in record["per_rollout"]]}
        small = {**record, "model": "b",
                 "per_rollout": [{**r, field: 0.0, "think_tokens": 5}
                                 for r in record["per_rollout"]]}
        path.write_text(json.dumps(big) + "\n" + ("" if model else json.dumps(small) + "\n"))
        assert run("analyze", "--input", str(path), "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
    # n_correct and n_pred are Python ints of any size, but each n_correct is
    # at most its n_pred, so their pooled quotient is at most 1
    huge = {**record, "model": "m",
            "per_rollout": [{**r, "n_correct": 10 ** 400, "n_pred": 10 ** 400,
                             "grounding_precision": 1.0} for r in record["per_rollout"]]}
    path.write_text(json.dumps(huge) + "\n")
    assert run("analyze", "--input", str(path), "--out", str(tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["models"]["m"]["grounding_precision_micro"] == 1.0


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file of every JSONL input the stages read."""
    tmp_path = tmp_path_factory.mktemp("inputs")
    obs, gestures = make_inputs(tmp_path)
    out = tmp_path / "out"
    assert run("detect", "--input", str(obs), "--out", str(out)) == 0
    assert run("graph", "--input", str(out / "events.jsonl"), "--gestures", str(gestures),
               "--videos", str(out / "videos.jsonl"), "--out", str(out)) == 0
    assert run("qagen", "--input", str(out / "graph.jsonl"), "--out", str(out)) == 0
    traces = tmp_path / "traces.jsonl"
    traces.write_text("".join(json.dumps({
        "query_id": f"q{i}", "qa_id": item.qa_id,
        "rollouts": ["<think></think><answer>A</answer>"] * 8,
    }) + "\n" for i, item in enumerate(load_qa_items(out / "qa.jsonl")[:3])))
    assert run("reward", "--input", str(out / "qa.jsonl"), "--traces", str(traces),
               "--graphs", str(out / "graph.jsonl"), "--out", str(out)) == 0
    return {
        "observations": obs, "gestures": gestures, "events": out / "events.jsonl",
        "videos": out / "videos.jsonl", "graph": out / "graph.jsonl",
        "qa": out / "qa.jsonl", "traces": traces, "rewards": out / "rewards.jsonl",
    }


GRAPH_ARGS = ("graph", "--input", "{events}", "--gestures", "{gestures}", "--videos", "{videos}")
REWARD_ARGS = ("reward", "--input", "{qa}", "--traces", "{traces}", "--graphs", "{graph}")


@pytest.mark.parametrize("bad_line", [
    "[1, 2]", "{bad", '{"a": 1' + "0" * 5000 + "}", "[" * 100_000 + "]" * 100_000,
], ids=["array", "invalid", "long-integer", "deep"])
@pytest.mark.parametrize("broken, command", [
    pytest.param("observations", ("detect", "--input", "{observations}"),
                 id="detect-observations"),
    pytest.param("events", GRAPH_ARGS, id="graph-events"),
    pytest.param("gestures", GRAPH_ARGS, id="graph-gestures"),
    pytest.param("videos", GRAPH_ARGS, id="graph-videos"),
    pytest.param("graph", ("qagen", "--input", "{graph}"), id="qagen-graph"),
    pytest.param("graph", REWARD_ARGS, id="reward-graph"),
    pytest.param("qa", REWARD_ARGS, id="reward-qa"),
    pytest.param("traces", REWARD_ARGS, id="reward-traces"),
    pytest.param("qa", ("corrupt", "--input", "{qa}"), id="corrupt-qa"),
    pytest.param("rewards", ("analyze", "--input", "{rewards}"), id="analyze-rewards"),
])
def test_bad_jsonl_line_exit_3(valid_inputs, tmp_path, capsys, broken, command, bad_line):
    first = valid_inputs[broken].read_text().splitlines()[0]
    paths = dict(valid_inputs)
    paths[broken] = tmp_path / f"{broken}.jsonl"
    paths[broken].write_text(f"{first}\n\n{bad_line}\n")
    argv = [arg.format(**paths) for arg in command]
    assert run(*argv, "--out", str(tmp_path / "out")) == 3
    assert "line 3" in capsys.readouterr().err


QAGEN_ARGS = ("qagen", "--input", "{graph}")


@pytest.mark.parametrize("field, stage, flags", [
    ("max_graph_events", GRAPH_ARGS, ("--max-graph-events", "-1")),
    ("max_graph_events", GRAPH_ARGS, ("--max-graph-events", "0")),
    ("gaze_conf_min", GRAPH_ARGS, ("--gaze-conf-min", "2")),
    ("gaze_conf_min", GRAPH_ARGS, ("--gaze-conf-min", "-0.1")),
    ("gesture_conf_min", GRAPH_ARGS, ("--gesture-conf-min", "1.5")),
    ("gesture_conf_min", GRAPH_ARGS, ("--gesture-conf-min", "nan")),
    ("pair_max_distance", GRAPH_ARGS, ("--pair-max-distance", "nan")),
    ("pair_max_distance", GRAPH_ARGS, ("--pair-max-distance", "inf")),
    ("pair_max_distance", GRAPH_ARGS, ("--pair-max-distance", "-1")),
    ("qa_medium_min_events", QAGEN_ARGS, ("--qa-medium-min-events", "-1")),
    ("qa_hard_min_events", QAGEN_ARGS,
     ("--qa-medium-min-events", "20", "--qa-hard-min-events", "1")),
    ("--budget", QAGEN_ARGS, ("--budget", "-1")),
    ("advantage_clip", REWARD_ARGS, ("--advantage-clip", "-1")),
    ("advantage_clip", REWARD_ARGS, ("--advantage-clip", "0")),
    ("advantage_clip", REWARD_ARGS, ("--advantage-clip", "nan")),
    ("advantage_clip", REWARD_ARGS, ("--advantage-clip", "inf")),
    ("rollouts_per_query", REWARD_ARGS, ("--k", "1")),
    ("advantage_mode", REWARD_ARGS, ("--advantage-mode", "minmax")),
], ids=lambda v: v if isinstance(v, str) else v[0] if "{" in v[-1] else "-".join(v))
def test_bad_stage_config_exit_3(valid_inputs, tmp_path, capsys, field, stage, flags):
    """Each graph, qagen and reward value out of range exits 3 before the
    stage reads any input, with one line naming the field."""
    out = tmp_path / "out"
    argv = [arg.format(**valid_inputs) for arg in stage]
    assert run(*argv, *flags, "--out", str(out)) == 3
    captured = capsys.readouterr()
    prefix = field if field.startswith("--") else f"config field {field}"
    assert captured.err.startswith(f"error: {prefix} = ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_qagen_budget_zero_accepted(valid_inputs, tmp_path):
    out = tmp_path / "out"
    assert run("qagen", "--input", str(valid_inputs["graph"]), "--out", str(out),
               "--budget", "0") == 0
    assert (out / "qa.jsonl").read_text() == ""


@pytest.mark.parametrize("trace, message", [
    ({"rollouts": "ABCDEFGH"}, "rollouts must be a list, got 'ABCDEFGH'"),
    ({"rollouts": {"a": "A"}}, "rollouts must be a list, got {'a': 'A'}"),
    ({"rollouts": None}, "rollouts must be a list, got None"),
    ({"rollouts": ["A"] * 7 + [1]}, "rollouts[7] must be a string, got 1"),
    ({"model": None}, "model must be a string, got None"),
    ({"model": 3}, "model must be a string, got 3"),
    ({"query_id": None}, "query_id must be a string, got None"),
    ({"query_id": 3}, "query_id must be a string, got 3"),
    ({"query_id": ["q1"]}, "query_id must be a string, got ['q1']"),
    ({"qa_id": None}, "qa_id must be a string, got None"),
    ({"qa_id": 3}, "qa_id must be a string, got 3"),
    ({"qa_id": ["v:T1:0"]}, "qa_id must be a string, got ['v:T1:0']"),
], ids=["rollouts-str", "rollouts-object", "rollouts-null", "rollouts-int-item",
        "model-null", "model-int", "query_id-null", "query_id-int", "query_id-list",
        "qa_id-null", "qa_id-int", "qa_id-list"])
def test_mistyped_trace_record_exit_3(valid_inputs, tmp_path, capsys, trace, message):
    good = json.loads(valid_inputs["traces"].read_text().splitlines()[0])
    traces = tmp_path / "traces.jsonl"
    traces.write_text(json.dumps(good) + "\n" + json.dumps({**good, **trace}) + "\n")
    paths = {**valid_inputs, "traces": traces}
    out = tmp_path / "out"
    assert run(*(arg.format(**paths) for arg in REWARD_ARGS), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err == f"error: line 2: bad trace record: {message}\n"
    assert not (out / "rewards.jsonl").exists()


def test_reward_names_the_first_faulty_line(valid_inputs, tmp_path, capsys):
    """Traces are joined and scored one line at a time: the first faulty line
    is named, and within a line a broken join comes before a wrong rollout
    count."""
    traces = read_lines(valid_inputs["traces"])
    qa_records = read_lines(valid_inputs["qa"])
    target = traces[1]["qa_id"]
    for r in qa_records:
        if r["qa_id"] == target:
            r["source_event_ids"] = [999999]
    paths = {**valid_inputs, "qa": tmp_path / "qa.jsonl", "traces": tmp_path / "traces.jsonl"}
    paths["qa"].write_text("".join(json.dumps(r) + "\n" for r in qa_records))
    for short in (1, 2):  # the wrong rollout count on the faulty line, then on the next
        records = [dict(r) for r in traces]
        records[short]["rollouts"] = records[short]["rollouts"][:3]
        paths["traces"].write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / f"out{short}"
        assert run(*(arg.format(**paths) for arg in REWARD_ARGS), "--out", str(out)) == 3
        assert capsys.readouterr().err == \
            f"error: line 2: qa {target} cites unknown event 999999\n"
        assert not (out / "rewards.jsonl").exists()


@pytest.mark.parametrize("stage, key, field", [
    (("qagen", "--input", "{graph}"), "graph", "video_id"),
    (REWARD_ARGS, "graph", "video_id"),
    (REWARD_ARGS, "qa", "qa_id"),
    (("corrupt", "--input", "{qa}"), "qa", "qa_id"),
], ids=["qagen-graph", "reward-graphs", "reward-qa", "corrupt-qa"])
def test_repeated_key_exit_3(valid_inputs, tmp_path, capsys, stage, key, field):
    """A graph.jsonl or qa.jsonl whose first record comes back at its end
    exits 3 naming that line; the last record does not silently win."""
    lines = valid_inputs[key].read_text().splitlines(keepends=True)
    paths = {**valid_inputs, key: tmp_path / f"{key}.jsonl"}
    paths[key].write_text("".join(lines) + lines[0])
    out = tmp_path / "out"
    assert run(*(arg.format(**paths) for arg in stage), "--out", str(out)) == 3
    value = json.loads(lines[0])[field]
    assert capsys.readouterr().err == \
        f"error: line {len(lines) + 1}: bad {key} record: {field} {value!r} repeats\n"
    assert list(out.iterdir()) == []


MISSING = object()
# Any JSON value, numbers beyond the float range included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=12)
    | st.integers(-10 ** 400, 10 ** 400) | st.sampled_from([0, 1, -1, 1e308, 2 ** 53, 10 ** 400]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=6,
)
ROLLOUTS = st.text(max_size=80) | st.sampled_from([
    "<think></think><answer>A</answer>",
    "<think><gaze>P1 looks at P2</gaze></think><answer>B</answer>",
    "<think>P0 and P3</think><answer>P0, P3</answer>",
    "<answer>", "",
])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_trace_record_exits_0_or_3(valid_inputs, data):
    """A trace record with any JSON value in query_id, qa_id, model or
    rollouts, after a valid line, exits 0 or 3 and never raises; on 3 it
    leaves no rewards.jsonl."""
    good = read_lines(valid_inputs["traces"])[0]
    qa_ids = [r["qa_id"] for r in read_lines(valid_inputs["qa"])]
    record = dict(good)
    for key, plausible in (
        ("query_id", st.text(max_size=8)),
        ("qa_id", st.sampled_from(qa_ids)),
        ("model", st.text(max_size=8)),
        ("rollouts", st.lists(ROLLOUTS, min_size=8, max_size=8) | st.lists(ROLLOUTS)),
    ):
        value = data.draw(st.sampled_from([good.get(key, MISSING), MISSING]) | plausible
                          | JSON_VALUES, label=key)
        if value is MISSING:
            record.pop(key, None)
        else:
            record[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        paths = {**valid_inputs, "traces": Path(tmp, "traces.jsonl")}
        paths["traces"].write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        out = Path(tmp, "out")
        code = run(*(arg.format(**paths) for arg in REWARD_ARGS), "--out", str(out))
        assert code in (0, 3)
        assert (out / "rewards.jsonl").exists() == (code == 0)


# Values at the edge of read_record's fast path, by class: kinds it must
# reject (a bool is an int to isinstance, json.loads reads NaN and Infinity
# as floats, an int beyond the float range is still an int) and valid ones,
# the float range's ends included, plus a float where an int belongs.
FLOAT_MAX_INT = int(sys.float_info.max)
ROLLOUT_EDGE_CLASSES = [
    [True, False], [None], [float("nan"), float("inf"), -float("inf")],
    [10 ** 400, -10 ** 400, FLOAT_MAX_INT + 1, -FLOAT_MAX_INT - 1],
    [0, 1, -1, FLOAT_MAX_INT, -FLOAT_MAX_INT], [0.5, 1.0, -0.0, 1e308], ["1", [], {}],
]
ROLLOUT_EDGES = [value for values in ROLLOUT_EDGE_CLASSES for value in values]


def _read_outcome(read, record, schema):
    try:
        return repr(read(record, schema, 1))
    except ValidationError as exc:
        return f"error: {exc}\n"


def _rule_outcome(entry) -> str:
    """The message for the first rule of reward's rollouts that a well-typed
    per_rollout entry breaks, or "" for none."""
    counts = ("n_pred", "n_correct", "novel_participants", "think_tokens")
    n_pred, n_correct, precision = entry["n_pred"], entry["n_correct"], entry["grounding_precision"]
    faults = [f"{key} must be at least 0, got {entry[key]}" for key in counts if entry[key] < 0]
    if n_correct > n_pred:
        faults.append(f"n_correct must be at most n_pred {n_pred}, got {n_correct}")
    if entry["novel_participants"] > n_pred:
        faults.append(f"novel_participants must be at most n_pred {n_pred}, "
                      f"got {entry['novel_participants']}")
    if n_pred == 0 and precision is not None:
        faults.append(f"grounding_precision must be null when n_pred is 0, got {precision}")
    if n_pred != 0 and precision is None:
        faults.append(f"grounding_precision must not be null when n_pred is {n_pred}")
    if n_pred > 0 and precision is not None and precision != n_correct / n_pred:
        faults.append(f"grounding_precision must be n_correct / n_pred {n_correct / n_pred}, "
                      f"got {precision}")
    return f"error: line 1: bad rewards record: {faults[0]}\n" if faults else ""


def _analyze_gives_the_read(records, tsv):
    """analyze over rewards records, only the first of them edited: exit 3
    with the message read_record gives for the first rollout it rejects, or
    the first rule of reward's rollouts that one breaks, else 0, or 3 naming
    an aggregate beyond the float range; each report.tsv row is its values
    as read, joined by tabs. One table reads the rollouts with or without
    --tsv."""
    outcomes = (outcome if outcome.startswith("error: ") else _rule_outcome(entry)
                for entry in records[0]["per_rollout"]
                for outcome in [_read_outcome(ingest.read_record, entry, cli.ROLLOUT)])
    expected = next(filter(None, outcomes), None)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "rewards.jsonl"), Path(tmp, "out")
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run("analyze", "--input", str(path), "--out", str(out),
                       *(["--tsv"] if tsv else []))
        if expected is not None:
            assert (code, err.getvalue()) == (3, expected)
        elif code == 3:
            assert err.getvalue().endswith(" overflows the float range\n")
        else:
            assert code == 0
            assert (out / "report.tsv").exists() == tsv
            if tsv:
                rows = ["\t".join(("query_id", "qa_id", "model", "rollout", *cli.TSV_FIELDS))]
                rows += ["\t".join(map(str, (r["query_id"], r["qa_id"], r["model"], j,
                                             *(entry[k] for k in cli.TSV_FIELDS))))
                         for r in records for j, entry in enumerate(r["per_rollout"])]
                assert (out / "report.tsv").read_text() == "\n".join(rows) + "\n"


@pytest.mark.parametrize("tsv", [False, True], ids=["report", "tsv"])
@pytest.mark.parametrize("key", sorted(cli.ROLLOUT.keys))
def test_rollout_field_edges_give_the_checked_read(valid_inputs, key, tsv):
    """Each edge value, or no value, in each per_rollout field: analyze
    exits 0 with the value as read in report.tsv, or 3 with read_record's
    message."""
    records = read_lines(valid_inputs["rewards"])
    good = records[0]["per_rollout"][0]
    for value in [MISSING, *ROLLOUT_EDGES]:
        entry = {k: v for k, v in good.items() if k != key}
        if value is not MISSING:
            entry[key] = value
        records[0]["per_rollout"][0] = entry
        _analyze_gives_the_read(records, tsv)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_per_rollout_value_exits_0_or_3(valid_inputs, data):
    """Rollouts of a rewards record, each with any JSON value, or none, in
    one to three of its fields: analyze exits 0, or 3 with the message
    read_record gives for the first faulty one, with and without --tsv. A 3
    on valid rollouts names an aggregate beyond the float range. Each
    report.tsv row is its values as read, joined by tabs."""
    records = read_lines(valid_inputs["rewards"])
    entries = records[0]["per_rollout"]
    edges = [st.just(MISSING), *map(st.sampled_from, ROLLOUT_EDGE_CLASSES), JSON_VALUES]
    for i in data.draw(st.lists(st.integers(0, len(entries) - 1), min_size=1, unique=True),
                       label="rollouts"):
        for key in data.draw(st.lists(st.sampled_from(sorted(entries[i])), min_size=1,
                                      max_size=3, unique=True), label=f"fields of {i}"):
            value = data.draw(st.one_of(st.just(entries[i][key]), *edges), label=key)
            if value is MISSING:
                del entries[i][key]
            else:
                entries[i][key] = value
    _analyze_gives_the_read(records, data.draw(st.booleans(), label="tsv"))


@pytest.fixture(scope="module")
def synth_rewards(valid_inputs, tmp_path_factory):
    """rewards.jsonl's lines for synth.make_traces over the valid QA items,
    with analyze --tsv's report.json bytes, report.tsv header and each
    line's report.tsv rows."""
    tmp = tmp_path_factory.mktemp("synth_rewards")
    paths = {**valid_inputs, "traces": tmp / "traces.jsonl"}
    records = make_traces(7, load_qa_items(valid_inputs["qa"]), groups=12)
    paths["traces"].write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(*(arg.format(**paths) for arg in REWARD_ARGS), "--out", str(tmp)) == 0
    assert run("analyze", "--input", str(tmp / "rewards.jsonl"), "--out", str(tmp), "--tsv") == 0
    lines = (tmp / "rewards.jsonl").read_text().splitlines(keepends=True)
    header, *rows = (tmp / "report.tsv").read_text().splitlines(keepends=True)
    per_line = []
    for line in lines:
        n = len(json.loads(line)["per_rollout"])
        per_line.append("".join(rows[:n]))
        rows = rows[n:]
    assert not rows and len(set(r["model"] for r in records)) == 3
    return lines, (tmp / "report.json").read_bytes(), header, per_line


def _oracle_rewards(valid_inputs, records, config=EngineConfig()) -> list[str]:
    """rewards.jsonl's lines for trace records over the valid QA items: each
    dumps_canonical of the oracle's record, with the participant set read
    from the cited events of the item's graph."""
    items = {item.qa_id: item for item in load_qa_items(valid_inputs["qa"])}
    graphs = {g.video_id: g for g in graph_mod.load_graphs(valid_inputs["graph"])}
    lines = []
    for r in records:
        item = items[r["qa_id"]]
        gt = {pid for eid in item.source_event_ids
              for pid in graphs[item.video_id].event_by_id(eid).participants}
        aliases = (item.answer_text,) if item.format == "mcq" else ()
        scored = score_group(r["rollouts"], item.answer, gt, aliases, config)
        lines.append(dumps_canonical(rewards_record(
            r["query_id"], r["qa_id"], r.get("model", "default"), scored, gt,
            extract_person_ids(item.question))) + "\n")
    return lines


def _reward_lines(valid_inputs, records, out: Path) -> list[str]:
    traces = out.parent / f"{out.name}.traces.jsonl"
    traces.write_text("".join(json.dumps(r) + "\n" for r in records))
    paths = {**valid_inputs, "traces": traces}
    assert run(*(arg.format(**paths) for arg in REWARD_ARGS), "--out", str(out)) == 0
    return (out / "rewards.jsonl").read_text().splitlines(keepends=True)


def test_reward_lines_follow_the_trace_lines(valid_inputs, tmp_path):
    """A run's text cache keeps only the text of equal scores: the same trace
    groups in reverse order give the same lines in reverse order, each the
    oracle's."""
    records = make_traces(7, load_qa_items(valid_inputs["qa"]), groups=24)
    forward = _reward_lines(valid_inputs, records, tmp_path / "forward")
    assert forward == _oracle_rewards(valid_inputs, records)
    assert _reward_lines(valid_inputs, records[::-1], tmp_path / "reversed") == forward[::-1]


def test_mcq_answered_by_option_text_shares_the_cache(valid_inputs, tmp_path):
    """An MCQ group answered with the correct option's text (the alias path)
    between groups answered by letter, with the same mentions: each score
    of the alias group is one a letter group formatted first, and every
    line is the oracle's."""
    item = next(i for i in load_qa_items(valid_inputs["qa"]) if i.format == "mcq")
    wrong = next(letter for letter in "ABCD" if letter != item.answer)
    mentions = ["", "Person 0", "P1 and P2", "Person 3", "P0 P1 P2 P3", "P4", "P5", "P9"]

    def group(query_id, answers):
        return {"query_id": query_id, "qa_id": item.qa_id, "model": "m", "rollouts": [
            f"<think>so <gaze>{m}</gaze></think><answer>{a}</answer>"
            for m, a in zip(mentions, answers)]}

    letters = [item.answer, wrong] * 4
    options = [item.answer_text, wrong] * 4
    records = [group("by letter", letters), group("by text", options),
               group("by letter again", letters)]
    lines = _reward_lines(valid_inputs, records, tmp_path / "out")
    assert lines == _oracle_rewards(valid_inputs, records)
    by_letter, by_text, _ = (json.loads(line)["per_rollout"] for line in lines)
    assert [r["r_acc"] for r in by_text] == [1, 0] * 4
    assert by_text == by_letter


# Flag values for reward: values each flag takes, or edges of its type and
# of its config rule. A valid value is drawn about half the time.
READABLE_WEIGHT = st.floats(-1e100, 1e100).map(repr)
REWARD_FLAGS = {
    "--weights": (st.lists(READABLE_WEIGHT, min_size=4, max_size=4) | st.lists(
        READABLE_WEIGHT | st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0", "5e-324",
                                           "1.0000000000000002e100", "-1e101", "x", ""]),
        min_size=3, max_size=5)).map(",".join),
    "--k": st.just("8") | st.integers(-3, 9).map(str)
    | st.sampled_from(["-0", "3.0", "x", "9" * 20, "1" + "0" * 5000]),
    "--advantage-clip": st.floats(5e-324, 1e300).map(repr)
    | st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-0", "-1", "x"]),
    "--advantage-mode": st.sampled_from(["zscore", "mean_center"])
    | st.sampled_from(["foo", "", "ZSCORE"]),
}


@pytest.fixture(scope="module")
def small_traces(valid_inputs):
    """Three trace groups of 8 rollouts over the valid QA items."""
    return make_traces(5, load_qa_items(valid_inputs["qa"]), groups=3)


def _flag_value(flag: str, text: str):
    """The value reward reads from a flag's text, or None where argparse
    cannot read it: --weights takes four finite numbers."""
    try:
        if flag == "--weights":
            values = tuple(map(float, text.split(",")))
            return values if len(values) == 4 and all(map(math.isfinite, values)) else None
        return {"--k": int, "--advantage-clip": float, "--advantage-mode": str}[flag](text)
    except ValueError:  # also an int of more digits than int() converts
        return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_reward_flag_value_exits_0_2_or_3(valid_inputs, small_traces, tmp_path_factory,
                                             data):
    """reward under any value of --weights, --k, --advantage-clip and
    --advantage-mode: the first value its flag cannot read exits 2 naming
    the flag, a config that breaks a rule exits 3 naming the field (the
    --weights fields are set last), a rollout count other than --k exits 3
    naming line 1, and any other run writes the oracle's lines. Each
    failure prints one error line, never a traceback."""
    flags = {flag: data.draw(values, label=flag) for flag, values in REWARD_FLAGS.items()
             if data.draw(st.booleans(), label=f"{flag} given")}
    out = tmp_path_factory.mktemp("flags")
    traces = out / "traces.jsonl"
    traces.write_text("".join(json.dumps(r) + "\n" for r in small_traces))
    argv = [arg.format(**{**valid_inputs, "traces": traces}) for arg in REWARD_ARGS]
    # "--flag=value", so that argparse reads a value like "-1e100" as one
    argv += ["--out", str(out / "out"), *(f"{flag}={text}" for flag, text in flags.items())]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = run(*argv)
        except SystemExit as exc:
            code = exc.code
    message = err.getvalue()
    assert "Traceback" not in message
    values = {flag: _flag_value(flag, text) for flag, text in flags.items()}
    unread = [flag for flag, value in values.items() if value is None]
    if unread:
        assert code == 2
        (line,) = [line for line in message.splitlines() if "error:" in line]
        assert f"error: argument {unread[0]}: " in line
        return
    try:
        config = EngineConfig(rollouts_per_query=values.get("--k", 8),
                              advantage_clip=values.get("--advantage-clip", 5.0),
                              advantage_mode=values.get("--advantage-mode", "zscore"))
        config = dataclasses.replace(config, **dict(zip(cli.WEIGHT_FIELDS,
                                                        values.get("--weights", ()))))
    except ContractError as exc:
        assert str(exc).startswith("config field ")
        assert (code, message) == (3, f"error: {exc}\n")
        return
    if config.rollouts_per_query != 8:
        assert (code, message) == (
            3, f"error: line 1: expected {config.rollouts_per_query} rollouts, got 8\n")
        return
    assert (code, message) == (0, "")
    assert (out / "out" / "rewards.jsonl").read_text().splitlines(keepends=True) == \
        _oracle_rewards(valid_inputs, small_traces, config)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_line_order_moves_only_report_tsv_rows(synth_rewards, data):
    """Any reordering of rewards.jsonl's lines leaves report.json
    byte-identical (fsum, integer sums, the median and the counts do not
    depend on order), while report.tsv's rows follow the new file order."""
    lines, report, header, rows = synth_rewards
    order = data.draw(st.permutations(range(len(lines))), label="order")
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "rewards.jsonl"), Path(tmp, "out")
        path.write_text("".join(lines[i] for i in order))
        assert run("analyze", "--input", str(path), "--out", str(out), "--tsv") == 0
        assert (out / "report.json").read_bytes() == report
        assert (out / "report.tsv").read_text() == header + "".join(rows[i] for i in order)


def _tables(valid_inputs):
    """Each record table of the package, by name, with a valid record of its
    kind."""
    first = {name: read_lines(path)[0] for name, path in valid_inputs.items()}
    gesture = next(g for g in read_lines(valid_inputs["gestures"]) if g["target_type"] == "person")
    mcq = next(item for item in read_lines(valid_inputs["qa"]) if item["format"] == "mcq")
    rollout = first["rewards"]["per_rollout"][0]
    # the rollout report.tsv's last row is written from: the last rewards
    # line's last rollout, read through the same ROLLOUT table
    last_rollout = read_lines(valid_inputs["rewards"])[-1]["per_rollout"][-1]
    return {
        "observation": (ingest.OBSERVATION, first["observations"]),
        "gesture": (ingest.GESTURE, gesture), "manifest": (ingest.MANIFEST, first["videos"]),
        "event": (events_mod.EVENT, first["events"]),
        "event_line": (events_mod.EVENT_LINE, first["events"]),
        "graph": (graph_mod.GRAPH, first["graph"]), "qa": (qa.QA, mcq),
        "trace": (cli.TRACE, {**first["traces"], "model": "m"}),
        "rewards": (cli.REWARDS, first["rewards"]),
        "rollout": (cli.ROLLOUT, rollout), "rollout_tsv": (cli.ROLLOUT, last_rollout),
    }


TABLES = ("observation", "gesture", "manifest", "event", "event_line", "graph", "qa", "trace",
          "rewards", "rollout", "rollout_tsv")


def test_every_table_has_a_valid_record(valid_inputs):
    """The property below runs on every Schema of the package, and each
    record it starts from is read without a fault."""
    declared = {id(value) for module in (ingest, events_mod, graph_mod, qa, cli)
                for value in vars(module).values() if isinstance(value, ingest.Schema)}
    tables = _tables(valid_inputs)
    assert list(tables) == list(TABLES)
    assert {id(schema) for schema, _ in tables.values()} == declared
    for schema, record in tables.values():
        assert not _read_outcome(ingest.read_record, record, schema).startswith("error: ")


def test_written_qa_items_and_graphs_take_the_fast_path(valid_inputs, monkeypatch):
    """What qagen and graph write is read as read: read_record gives back
    the record's own values, lists included, and for an absent optional key
    its default, without the checked path. That holds for an open-ended
    item, which has no options, and for an event without roles or
    attributes."""
    items = read_lines(valid_inputs["qa"])
    # qagen's line for each item asked open-ended, as a hard item may be
    items += [json.loads(qa.serialize_qa_item(dataclasses.replace(
        item, format="open_ended", options=None, answer=item.answer_text)))
        for item in load_qa_items(valid_inputs["qa"])]
    assert not any("options" in item for item in items if item["format"] == "open_ended")
    graphs = read_lines(valid_inputs["graph"])
    events = [{k: v for k, v in e.items() if k not in dropped}
              for g in graphs for e in g["events"]
              for dropped in ((), ("roles",), ("attributes",), ("roles", "attributes"))]
    monkeypatch.setattr(ingest, "_read_checked", None)  # calling it fails the test
    for schema, records in ((qa.QA, items), (graph_mod.GRAPH, graphs),
                            (events_mod.EVENT, events)):
        assert records
        for record in records:
            values = ingest.read_record(record, schema, 1)
            assert all(value is record.get(key, default)
                       for key, default, value in zip(schema.keys, schema.defaults, values))


# Values for the two tests below: no value, the edges above, and lists and
# objects holding one edge, which only an item test rejects.
FIELD_EDGES = [MISSING, *ROLLOUT_EDGES, *([v] for v in ROLLOUT_EDGES),
               *({"k": v} for v in ROLLOUT_EDGES)]


@pytest.mark.parametrize("table", TABLES)
def test_each_field_edge_gives_the_checked_read(valid_inputs, table):
    """Each edge value, or no value, in each field of a valid record:
    read_record's fast path gives what its checked path gives."""
    schema, good = _tables(valid_inputs)[table]
    for key in schema.keys:
        for value in FIELD_EDGES:
            record = {k: v for k, v in good.items() if k != key}
            if value is not MISSING:
                record[key] = value
            assert _read_outcome(ingest.read_record, record, schema) == \
                _read_outcome(ingest._read_checked, record, schema), (key, value)


_EDGE_VALUES = st.sampled_from(ROLLOUT_EDGES) | st.text(max_size=3)
FIELD_VALUES = (st.sampled_from(FIELD_EDGES) | JSON_VALUES
                | st.lists(_EDGE_VALUES, max_size=3)
                | st.dictionaries(st.text(max_size=3), _EDGE_VALUES, max_size=3))


@pytest.mark.parametrize("table", TABLES)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_read_record_gives_its_checked_read(valid_inputs, table, data):
    """Any JSON value, or no value, in one to three fields of a valid record
    of any table: read_record's fast path gives what its checked path
    gives, the same values or the same message."""
    schema, good = _tables(valid_inputs)[table]
    record = dict(good)
    for key in data.draw(st.lists(st.sampled_from(schema.keys),
                                  min_size=1, max_size=3, unique=True), label="fields"):
        value = data.draw(FIELD_VALUES, label=key)
        if value is MISSING:
            record.pop(key, None)
        else:
            record[key] = value
    assert _read_outcome(ingest.read_record, record, schema) == \
        _read_outcome(ingest._read_checked, record, schema)


EVENT_FIELDS = ("event_id", "source", "event_type", "participants", "roles", "start_time",
                "end_time", "confidence", "attributes")
# Values at the edge of read_record's fast path for an event: kinds it must
# reject, and valid ones. The first five pass a test of kind alone: a bool
# is an int to isinstance, and json.loads reads NaN and Infinity as floats.
EVENT_EDGES = [float("nan"), float("inf"), -float("inf"), True, False, None, 0, 3, -1, 0.5, -0.0,
               2.0 ** 52, 10 ** 400, "gaze", "gesture", "mutual_gaze", "pointing", [], {}]
_EDGE_ITEMS = st.sampled_from(EVENT_EDGES[:13]) | st.integers(0, 9)
# Per field: values of its kind, and lists and role maps with edge items.
EVENT_VALUES = {
    "event_id": st.integers(-2, 2 ** 64),
    "source": st.sampled_from(["gaze", "gesture", "gestures"]),
    "event_type": st.sampled_from(["mutual_gaze", "joint_attention", "pointing", "waving"]),
    "participants": st.lists(_EDGE_ITEMS, max_size=3),
    "roles": st.dictionaries(st.sampled_from(["leader", "follower", "initiator", "target"]),
                             _EDGE_ITEMS, max_size=3),
    "start_time": st.floats(),
    "end_time": st.floats(),
    "confidence": st.floats(),
    "attributes": st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2),
}


def _parse_outcome(parse, record):
    try:
        return repr(parse(record, 1))
    except ValidationError as exc:
        return f"error: {exc}\n"


def _graph_gives_the_parse(valid_inputs, record):
    """graph over one events.jsonl line exits 0, or 3 with the message
    parse_event gives for it."""
    expected = _parse_outcome(events_mod.parse_event, record)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {**valid_inputs, "events": Path(tmp, "events.jsonl")}
        paths["events"].write_text(json.dumps(record) + "\n")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run(*(arg.format(**paths) for arg in GRAPH_ARGS), "--out", str(Path(tmp, "out")))
    if expected.startswith("error: "):
        assert (code, err.getvalue()) == (3, expected)
    else:
        assert (code, err.getvalue()) == (0, "")


@pytest.mark.parametrize("key", EVENT_FIELDS)
def test_event_field_edges_give_the_checked_parse_outcome(valid_inputs, key):
    """Each edge value, alone in a list, as a role value or deep in an
    attribute (NaN and the infinities), in each event field: graph exits 0,
    or 3 with parse_event's message."""
    good = read_lines(valid_inputs["events"])[0]
    for value in [MISSING, *EVENT_EDGES, *([0, v] for v in EVENT_EDGES),
                  *({"leader": 0, "follower": v} for v in EVENT_EDGES),
                  *({"lag": 1.0, "distance": [0.5, {"x": v}]} for v in EVENT_EDGES[:3])]:
        record = {k: v for k, v in good.items() if k != key}
        if value is not MISSING:
            record[key] = value
        _graph_gives_the_parse(valid_inputs, record)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_event_field_gives_the_checked_parse_outcome(valid_inputs, data):
    """An event record with any JSON value in any of its fields (NaN, bools
    and floats in participants and non-int role values included) makes
    graph exit 0, or 3 with parse_event's message."""
    record = read_lines(valid_inputs["events"])[0]
    for key in data.draw(st.lists(st.sampled_from(EVENT_FIELDS), min_size=1, max_size=2,
                                  unique=True), label="fields"):
        value = data.draw(EVENT_VALUES[key] | st.sampled_from([MISSING, *EVENT_EDGES])
                          | st.sampled_from(EVENT_EDGES[:5]) | JSON_VALUES, label=key)
        if value is MISSING:
            record.pop(key, None)
        else:
            record[key] = value
    _graph_gives_the_parse(valid_inputs, record)


NAN = float("nan")
# Each input file, the stages that read it and the artifact each would write.
READERS = {
    "events": [(GRAPH_ARGS, "graph.jsonl")],
    "videos": [(GRAPH_ARGS, "graph.jsonl")],
    "graph": [(QAGEN_ARGS, "qa.jsonl"), (REWARD_ARGS, "rewards.jsonl")],
    "qa": [(REWARD_ARGS, "rewards.jsonl"), (("corrupt", "--input", "{qa}"), "qa.corrupted.jsonl")],
    "traces": [(REWARD_ARGS, "rewards.jsonl")],
    "rewards": [(("analyze", "--input", "{rewards}", "--tsv"), "report.json")],
}
MISTYPED = [
    ("events", ("video_id",), MISSING, "event record: 'video_id'"),
    ("events", ("source",), None, "event record: source must be a string, got None"),
    ("events", ("event_type",), 5, "event record: event_type must be a string, got 5"),
    ("events", ("event_id",), True, "event record: event_id must be an integer, got True"),
    ("events", ("participants",), [1.9, "2"],
     "event record: participants[0] must be an integer, got 1.9"),
    ("events", ("start_time",), "0.5",
     "event record: start_time must be a finite number, got '0.5'"),
    ("events", ("confidence",), NAN, "event record: confidence must be a finite number, got nan"),
    ("events", ("end_time",), 10 ** 400,
     f"event record: end_time must be a finite number, got {10 ** 400}"),
    ("events", ("attributes",), [], "event record: attributes must be an object, got []"),
    ("events", ("attributes",), {"peak_velocity": NAN},
     "event record: attributes['peak_velocity'] must hold only finite numbers, got nan"),
    ("events", ("attributes",), {"lag": 1.0, "distance": [0.5, {"x": -float("inf")}]},
     "event record: attributes['distance'] must hold only finite numbers, got -inf"),
    ("events", ("start_time",), 1e308,
     "event record: start_time must be below 2**52 in magnitude, got 1e+308"),
    ("events", ("end_time",), -2.0 ** 52,
     "event record: end_time must be below 2**52 in magnitude, got -4503599627370496.0"),
    ("events", ("end_time",), 1.0, "event record: end_time 1.0 must not be below start_time 1.5"),
    ("events", ("participants",), [-1, 2],
     "event record: participants must be non-negative, got [-1, 2]"),
    ("events", ("roles",), {"leader": 2, "follower": 5},
     "event record: roles['follower'] must be one of the participants, got 5"),
    ("videos", ("video_id",), 7, "video manifest record: video_id must be a string, got 7"),
    ("videos", ("duration",), None,
     "video manifest record: duration must be a finite number, got None"),
    ("videos", ("duration",), True,
     "video manifest record: duration must be a finite number, got True"),
    ("videos", ("duration",), NAN,
     "video manifest record: duration must be a finite number, got nan"),
    ("graph", ("video_id",), None, "graph record: video_id must be a string, got None"),
    ("graph", ("duration",), NAN, "graph record: duration must be a finite number, got nan"),
    ("graph", ("events",), {"a": 1}, "graph record: events must be a list, got {'a': 1}"),
    ("graph", ("events", 0, "participants", 0), True,
     "event record: participants[0] must be an integer, got True"),
    ("graph", ("events", 0, "start_time"), -1e308,
     "event record: start_time must be below 2**52 in magnitude, got -1e+308"),
    ("graph", ("events", 0, "attributes"), {"peak_velocity": float("inf")},
     "event record: attributes['peak_velocity'] must hold only finite numbers, got inf"),
    ("graph", ("events", 0, "end_time"), 3.5,
     "event record: end_time 3.5 must not be below start_time 4.0"),
    ("graph", ("events", 0, "participants"), [1, 0, -1],
     "event record: participants must be non-negative, got [-1, 0, 1]"),
    ("graph", ("events", 0, "roles"), {"initiator": 0, "target": 7},
     "event record: roles['target'] must be one of the participants, got 7"),
    ("graph", ("joint_pairs",), [[0, 1, True]],
     "graph record: joint_pairs[0][2] must be a finite number, got True"),
    ("graph", ("joint_pairs",), [[0, 1]],
     "graph record: joint_pairs[0] must be a list of 3 items, got [0, 1]"),
    ("qa", ("qa_id",), None, "qa record: qa_id must be a string, got None"),
    ("qa", ("video_id",), 7, "qa record: video_id must be a string, got 7"),
    ("qa", ("options",), "ABCD", "qa record: options must be a list, got 'ABCD'"),
    ("qa", ("options",), MISSING, "qa record: options must be a list on an mcq item"),
    ("qa", ("options",), None, "qa record: options must be a list on an mcq item"),
    ("qa", ("source_event_ids",), [True],
     "qa record: source_event_ids[0] must be an integer, got True"),
    ("qa", ("time_range",), [0.0, NAN], "qa record: time_range[1] must be a finite number, got nan"),
    ("qa", ("time_range",), [0.0], "qa record: time_range must be a list of 2 items, got [0.0]"),
    ("traces", ("rollouts",), MISSING, "trace record: 'rollouts'"),
    ("traces", ("model",), True, "trace record: model must be a string, got True"),
    ("rewards", ("per_rollout",), None, "rewards record: per_rollout must be a list, got None"),
    ("rewards", ("per_rollout", 0), "x", "rewards record: per_rollout[0] must be an object, got 'x'"),
    ("rewards", ("per_rollout", 0, "n_pred"), True,
     "rewards record: n_pred must be an integer, got True"),
    ("rewards", ("per_rollout", 0, "total"), NAN,
     "rewards record: total must be a finite number, got nan"),
    ("rewards", ("per_rollout", 0, "well_formed"), 1,
     "rewards record: well_formed must be a boolean, got 1"),
    ("rewards", ("per_rollout", 0, "grounding_precision"), "0.5",
     "rewards record: grounding_precision must be a finite number, got '0.5'"),
    ("rewards", ("per_rollout", 0, "advantage"), None,
     "rewards record: advantage must be a finite number, got None"),
]


def _mistyped_id(broken, path, value, command):
    shown = "missing" if value is MISSING else json.dumps(value, separators=(",", ":"))
    shown = shown.replace('"', "'") if len(shown) < 20 else shown[:8] + "..."
    return "-".join([command[0], broken, *map(str, path), shown])


@pytest.mark.parametrize("broken, path, value, message, command, artifact", [
    pytest.param(broken, path, value, message, command, artifact,
                 id=_mistyped_id(broken, path, value, command))
    for broken, path, value, message in MISTYPED for command, artifact in READERS[broken]
])
def test_mistyped_record_exit_3(valid_inputs, tmp_path, capsys, broken, path, value, message,
                                command, artifact):
    """A missing key, null, the wrong JSON type, a bool for a number, NaN,
    an event time of 2**52 or more in magnitude, or an event that breaks a
    rule its producers keep, in any record, exits 3 with one line naming the
    line and the field, and writes no artifact."""
    lines = valid_inputs[broken].read_text().splitlines()
    record = json.loads(lines[1])
    *parents, last = path
    target = record
    for key in parents:
        target = target[key]
    if value is MISSING:
        del target[last]
    else:
        target[last] = value
    lines[1] = json.dumps(record)
    paths = {**valid_inputs, broken: tmp_path / f"{broken}.jsonl"}
    paths[broken].write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(*(arg.format(**paths) for arg in command), "--out", str(out)) == 3
    assert capsys.readouterr().err == f"error: line 2: bad {message}\n"
    assert not (out / artifact).exists()


def _open_ended(record, answer):
    record.update(format="open_ended", answer=answer)
    del record["options"]


@pytest.mark.parametrize("edit, reason", [
    pytest.param(lambda r: r.update(options=[r["answer_text"]], answer="Z"),
                 "mcq items need exactly 4 options", id="one-option-answer-Z"),
    pytest.param(lambda r: r["options"].pop(), "mcq items need exactly 4 options",
                 id="three-options"),
    pytest.param(lambda r: r["options"].__setitem__(3, r["options"][0]),
                 "mcq options must be distinct", id="repeated-option"),
    pytest.param(lambda r: r.update(answer="Z"), "bad answer letter 'Z'", id="answer-Z"),
    pytest.param(lambda r: r.update(answer_text="nobody"),
                 "answer_text does not match the chosen option", id="answer-text"),
    pytest.param(lambda r: r.update(format="essay"), "unknown format 'essay'", id="format"),
    pytest.param(lambda r: r.update(format="open_ended", answer=r["answer_text"]),
                 "open-ended items carry no options", id="open-ended-options"),
    pytest.param(lambda r: _open_ended(r, r["answer"]),
                 "open-ended answer must equal answer_text", id="open-ended-answer"),
])
@pytest.mark.parametrize("command, artifact", READERS["qa"], ids=["reward", "corrupt"])
def test_qa_shape_fault_exit_3(valid_inputs, tmp_path, capsys, edit, reason, command, artifact):
    """A QA item is read with the format, options and answer rules that
    qagen applies: a fault exits 3 in reward and corrupt, naming the line."""
    lines = valid_inputs["qa"].read_text().splitlines()
    record = json.loads(lines[1])
    assert record["format"] == "mcq"
    edit(record)
    lines[1] = json.dumps(record)
    paths = {**valid_inputs, "qa": tmp_path / "qa.jsonl"}
    paths["qa"].write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(*(arg.format(**paths) for arg in command), "--out", str(out)) == 3
    assert capsys.readouterr().err == f"error: line 2: bad qa record: {reason}\n"
    assert not (out / artifact).exists()


def test_open_ended_item_is_read(valid_inputs):
    record = json.loads(valid_inputs["qa"].read_text().splitlines()[1])
    _open_ended(record, record["answer_text"])
    item = qa.parse_qa_item(record, 2)
    assert (item.format, item.options, item.answer) == ("open_ended", None, record["answer_text"])
    assert json.loads(qa.serialize_qa_item(item)) == record


@pytest.mark.parametrize("emptied", ["source_event_ids", "participants"])
def test_qa_citing_no_participants_names_its_line(valid_inputs, tmp_path, capsys, emptied):
    """A QA item that cites no events has no ground truth to score against:
    exit 3 naming the trace line and the item. A graph event without
    participants cannot be loaded: exit 3 naming the graph line and the
    field."""
    qa_records = read_lines(valid_inputs["qa"])
    target = json.loads(valid_inputs["traces"].read_text().splitlines()[1])["qa_id"]
    record = next(r for r in qa_records if r["qa_id"] == target)
    paths = dict(valid_inputs)
    if emptied == "source_event_ids":
        record["source_event_ids"] = []
        paths["qa"] = tmp_path / "qa.jsonl"
        paths["qa"].write_text("".join(json.dumps(r) + "\n" for r in qa_records))
    else:
        graphs = read_lines(valid_inputs["graph"])
        for g in graphs:
            for e in g["events"]:
                if g["video_id"] == record["video_id"] and \
                        e["event_id"] in record["source_event_ids"]:
                    e["participants"] = []
        paths["graph"] = tmp_path / "graph.jsonl"
        paths["graph"].write_text("".join(json.dumps(g) + "\n" for g in graphs))
    out = tmp_path / "out"
    assert run(*(arg.format(**paths) for arg in REWARD_ARGS), "--out", str(out)) == 3
    err = capsys.readouterr().err
    if emptied == "source_event_ids":
        assert err == f"error: line 2: qa {target} cites no events with participants\n"
    else:
        line = next(i for i, g in enumerate(graphs, 1) if g["video_id"] == record["video_id"])
        assert err == f"error: line {line}: bad event record: participants must not be empty\n"
    assert not (out / "rewards.jsonl").exists()


LONG_ID = "P" + "7" * 5000


@pytest.mark.parametrize("where", ["rollout", "question"])
def test_over_long_person_id_in_reward_names_its_line(valid_inputs, tmp_path, capsys, where):
    """A person id of more digits than Python converts to an int exits 3
    naming the trace line, and the rollout or the QA item."""
    traces = valid_inputs["traces"].read_text().splitlines()
    record = json.loads(traces[1])
    paths = dict(valid_inputs)
    if where == "rollout":
        record["rollouts"][5] = f"<think><gaze>{LONG_ID} looks</gaze></think><answer>A</answer>"
        traces[1] = json.dumps(record)
        paths["traces"] = tmp_path / "traces.jsonl"
        paths["traces"].write_text("\n".join(traces) + "\n")
        message = "rollout 5: person id of 5000 digits is too long"
    else:
        qa_records = read_lines(valid_inputs["qa"])
        item = next(r for r in qa_records if r["qa_id"] == record["qa_id"])
        item["question"] += f" And {LONG_ID}?"
        paths["qa"] = tmp_path / "qa.jsonl"
        paths["qa"].write_text("".join(json.dumps(r) + "\n" for r in qa_records))
        message = f"qa {record['qa_id']} question: person id of 5000 digits is too long"
    out = tmp_path / "out"
    assert run(*(arg.format(**paths) for arg in REWARD_ARGS), "--out", str(out)) == 3
    assert capsys.readouterr().err == f"error: line 2: {message}\n"
    assert not (out / "rewards.jsonl").exists()


def test_over_long_person_id_in_corrupt_names_its_line(valid_inputs, tmp_path, capsys):
    lines = valid_inputs["qa"].read_text().splitlines()
    record = json.loads(lines[1])
    record["answer_text"] += f" {LONG_ID}"
    if record["format"] == "mcq":  # the chosen option is the answer text
        record["options"][qa.LETTERS.index(record["answer"])] = record["answer_text"]
    lines[1] = json.dumps(record)
    path = tmp_path / "qa.jsonl"
    path.write_text("\n\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run("corrupt", "--input", str(path), "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        f"error: line 3: qa {record['qa_id']}: person id of 5000 digits is too long\n")
    assert not (out / "qa.corrupted.jsonl").exists()


def test_graph_rejects_repeated_event_id(valid_inputs, tmp_path, capsys):
    """Two events of one video with one event_id would make a graph that
    qagen rejects; the graph stage exits 3 naming the second line. The same
    id in another video is fine."""
    events = tmp_path / "events.jsonl"
    events.write_text(serialize_event(event(0, parts=(0, 1)), "v") + "\n"
                      + serialize_event(event(0, parts=(1, 2)), "w") + "\n"
                      + serialize_event(event(0, parts=(2, 3)), "v") + "\n")
    out = tmp_path / "out"
    assert run("graph", "--input", str(events), "--gestures", str(valid_inputs["gestures"]),
               "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "error: line 3: bad event record: video 'v' repeats event_id 0\n")
    assert not (out / "graph.jsonl").exists()


def test_input_directory_exit_2(tmp_path, capsys):
    assert run("detect", "--input", str(tmp_path), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1


def test_out_under_a_file_exit_2(valid_inputs, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "out"):
        assert run("detect", "--input", str(valid_inputs["observations"]),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_non_utf8_byte_names_its_line(valid_inputs, tmp_path, capsys, newline):
    """Text mode decodes 8 KiB at a time, so the bad line must lie past the
    first chunk for the reported line to be checked at all."""
    lines = valid_inputs["observations"].read_bytes().splitlines()
    bad_at = next(i for i in range(len(lines)) if sum(map(len, lines[:i])) > 3 * 8192)
    lines[bad_at] = lines[bad_at].replace(b'"persons"', b'"pers\xffons"', 1)
    obs = tmp_path / "obs.jsonl"
    obs.write_bytes(newline.encode().join(lines) + newline.encode())
    out = tmp_path / "out"
    assert run("detect", "--input", str(obs), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {bad_at + 1}: not UTF-8: ") and err.count("\n") == 1
    assert not (out / "events.jsonl").exists()


@pytest.mark.parametrize("early", [b"{", b"{}"], ids=["invalid", "schema"])
@pytest.mark.parametrize("broken, command", [
    pytest.param("events", GRAPH_ARGS, id="graph-events"),
    pytest.param("traces", REWARD_ARGS, id="reward-traces"),
])
def test_first_faulty_line_is_named_before_a_later_byte(valid_inputs, tmp_path, capsys,
                                                        broken, command, early):
    """A faulty line 1 and a byte that is not UTF-8 on line 3, both within
    text mode's first 8 KiB read: line 1 is named, with the message it
    gives alone."""
    lines = valid_inputs[broken].read_bytes().splitlines(keepends=True)[:3]
    paths = {**valid_inputs, broken: tmp_path / f"{broken}.jsonl"}
    outcomes = []
    for later in (lines[2], lines[2].replace(b'"', b'"\xff', 1)):
        paths[broken].write_bytes(early + b"\n" + lines[1] + later)
        assert paths[broken].stat().st_size < 8192
        assert run(*(arg.format(**paths) for arg in command), "--out", str(tmp_path / "out")) == 3
        outcomes.append(capsys.readouterr().err)
    assert outcomes[0].startswith("error: line 1: ")
    assert outcomes[1] == outcomes[0]


# One fault on line 41 of _three_videos()'s observations, past text mode's
# first 8 KiB read: how it changes the line, and its message on a file whose
# lines end in LF, CRLF or a lone CR, or that ends, unterminated, just after
# that line ("eof").
SINGLE_FAULTS = {
    "start byte": (lambda line: line.replace(b'"persons"', b'"pers\xffons"', 1),
                   "not UTF-8: invalid start byte"),
    "cut sequence": (lambda line: line + b"\xe2\x82", "not UTF-8: invalid continuation byte"),
    "bad JSON": (lambda line: line[:-1], "invalid JSON: Expecting ',' delimiter"),
    "not an object": (lambda line: b"[" + line + b"]", "record must be a JSON object"),
    "form feed line": (lambda line: b"\x0c", "invalid JSON: Expecting value"),
}


@pytest.mark.parametrize("ending", ["lf", "crlf", "cr", "eof"])
@pytest.mark.parametrize("fault", SINGLE_FAULTS)
def test_single_fault_message_at_any_line_ending_and_thread_count(tmp_path, fault, ending):
    edit, message = SINGLE_FAULTS[fault]
    if (fault, ending) == ("cut sequence", "eof"):
        message = "not UTF-8: unexpected end of data"
    lines = [serialize_frame(f).encode() for f in _three_videos()]
    lines[40] = edit(lines[40])
    data = (b"\n".join(lines[:41]) if ending == "eof" else
            b"".join(line + {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}[ending] for line in lines))
    for threads in (1, 2, 3):
        assert detect_outcome(data, tmp_path / str(threads), threads, dump=False) == \
            (3, f"error: line 41: {message}\n", {})


def test_stages_warn_of_no_encoding_and_import_only_the_standard_library(valid_inputs, tmp_path):
    """Every stage, detect at --threads 2 included, in a child process where
    a text file opened without an encoding is an error (EncodingWarning),
    imports nothing but the standard library: numpy being installed where
    the suite runs must not hide a stray import."""
    script = (
        "import json, sys\n"
        "at_start = {name.partition('.')[0] for name in sys.modules}\n"
        "from socialevents.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "imported = {name.partition('.')[0] for name in sys.modules} - at_start\n"
        # __mp_main__ is the name multiprocessing gives __main__ in sys.modules
        "print(json.dumps(sorted(imported - sys.stdlib_module_names\n"
        "                        - {'socialevents', '__mp_main__'})))\n")
    out = str(tmp_path / "out")
    paths = {**valid_inputs, "events": f"{out}/events.jsonl", "videos": f"{out}/videos.jsonl",
             "graph": f"{out}/graph.jsonl", "qa": f"{out}/qa.jsonl",
             "rewards": f"{out}/rewards.jsonl"}
    stages = [("detect", "--input", "{observations}", "--threads", "2"), GRAPH_ARGS, QAGEN_ARGS,
              REWARD_ARGS, ("analyze", "--input", "{rewards}", "--tsv"),
              ("corrupt", "--input", "{qa}")]
    argvs = [[arg.format(**paths) for arg in stage] + ["--out", out] for stage in stages]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get(
        "PYTHONPATH"))))}
    child = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", script, json.dumps(argvs)], capture_output=True, text=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []
    for name in ("events.jsonl", "graph.jsonl", "qa.jsonl", "rewards.jsonl"):
        assert Path(out, name).read_bytes() == Path(valid_inputs["events"].parent, name).read_bytes()


def _graph_record(events, pairs=((0, 3, 0.0),)):
    return {"video_id": "v", "duration": 10.0, "events": events,
            "joint_pairs": [list(p) for p in pairs]}


def _event_record(event_id, source, event_type, participants, roles=None):
    return {"event_id": event_id, "source": source, "event_type": event_type,
            "participants": participants, "roles": roles or {}, "start_time": 1.0,
            "end_time": 2.0, "confidence": 0.95, "attributes": {}}


# Four events, so qagen reaches the medium categories, J included.
GRAPH_EVENTS = [
    _event_record(0, "gaze", "mutual_gaze", [0, 1]),
    _event_record(1, "gaze", "sudden_gaze_shift", [2]),
    _event_record(2, "gaze", "joint_attention", [1, 2]),
    _event_record(3, "gesture", "pointing", [0, 1], {"initiator": 0, "target": 1}),
]


def _with_event(index, **fields):
    return [{**e, **fields} if i == index else e for i, e in enumerate(GRAPH_EVENTS)]


@pytest.mark.parametrize("graph, message", [
    pytest.param(_graph_record(_with_event(1, event_type="waving")),
                 "event record: event_type 'waving' is not a gaze event type",
                 id="unknown-gaze-type"),
    pytest.param(_graph_record(_with_event(3, roles={})),
                 "event record: roles['initiator'] is required on a gesture event",
                 id="gesture-without-initiator"),
    pytest.param(_graph_record(GRAPH_EVENTS, pairs=[(0, 3, 0.0), (0, 9, 0.0)]),
                 "graph record: joint_pairs[1] must link a gaze event id to a gesture event id "
                 "of this graph, got [0, 9]",
                 id="pair-names-absent-id"),
    pytest.param(_graph_record(_with_event(0, participants=[0, 1, 2])),
                 "event record: participants of mutual_gaze must be 2 persons, got [0, 1, 2]",
                 id="three-person-mutual-gaze"),
    pytest.param(_graph_record(_with_event(0, participants=[])),
                 "event record: participants must not be empty", id="no-participants"),
    pytest.param(_graph_record(_with_event(2, event_id=1), pairs=()),
                 "graph record: events repeat event_id 1", id="duplicate-ids"),
])
def test_graph_breaking_the_contract_exit_3(tmp_path, capsys, graph, message):
    """Each of these graphs ended qagen in a traceback, or (duplicate ids) was
    accepted although its items could cite either event."""
    path = tmp_path / "graph.jsonl"
    path.write_text(json.dumps(_graph_record(GRAPH_EVENTS)) + "\n" + json.dumps(graph) + "\n")
    out = tmp_path / "out"
    assert run("qagen", "--input", str(path), "--out", str(out)) == 3
    assert capsys.readouterr().err == f"error: line 2: bad {message}\n"
    assert not (out / "qa.jsonl").exists()


def test_gesture_warning_names_its_line_once(valid_inputs, tmp_path, capsys):
    lines = valid_inputs["gestures"].read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "gesture_type": "waving"})
    paths = {**valid_inputs, "gestures": tmp_path / "gestures.jsonl"}
    paths["gestures"].write_text("\n".join(lines) + "\n")
    assert run(*(arg.format(**paths) for arg in GRAPH_ARGS), "--out", str(tmp_path / "out")) == 0
    assert capsys.readouterr().err == (
        "warning: gesture rejected: line 2: unknown gesture_type 'waving'; "
        "expected one of ('pointing', 'showing', 'giving', 'reaching')\n")


def test_failed_write_keeps_previous_artifact(valid_inputs, tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ("qagen", "--input", str(valid_inputs["graph"]), "--out", str(out))
    assert run(*argv) == 0
    before = (out / "qa.jsonl").read_bytes()
    serialize = qa.serialize_qa_item
    written = []

    def fail_after_first(item):
        if written:
            raise ContractError("serializer failed")
        written.append(item)
        return serialize(item)

    monkeypatch.setattr(qa, "serialize_qa_item", fail_after_first)
    assert run(*argv, "--seed", "1") == 3
    assert written
    assert (out / "qa.jsonl").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["qa.jsonl"]


# ---------------------------------------------------------------------------
# the cyclic garbage collector


def _pipeline(directory, n_videos=2, threads=1):
    """(stage, argv) of each stage in order over make_inputs' videos; the
    traces for reward are written once qagen has run."""
    directory.mkdir(exist_ok=True)
    obs, gestures = make_inputs(directory, n_videos=n_videos)
    out = str(directory / "out")
    yield "detect", ["detect", "--input", str(obs), "--out", out, "--threads", str(threads)]
    yield "graph", ["graph", "--input", f"{out}/events.jsonl", "--gestures", str(gestures),
                    "--videos", f"{out}/videos.jsonl", "--out", out]
    yield "qagen", ["qagen", "--input", f"{out}/graph.jsonl", "--out", out]
    traces = directory / "traces.jsonl"
    traces.write_text("".join(json.dumps({
        "query_id": f"q{i}", "qa_id": item.qa_id,
        "rollouts": ["<think></think><answer>A</answer>"] * 8,
    }) + "\n" for i, item in enumerate(load_qa_items(f"{out}/qa.jsonl"))))
    yield "reward", ["reward", "--input", f"{out}/qa.jsonl", "--traces", str(traces),
                     "--graphs", f"{out}/graph.jsonl", "--out", out]
    yield "analyze", ["analyze", "--input", f"{out}/rewards.jsonl", "--out", out, "--tsv"]


@pytest.fixture
def collector():
    """Restores the collector's setting after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _interrupt(args, config):
    assert not gc.isenabled()
    raise KeyboardInterrupt


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("argv, outcome", [
    (("detect", "--input", "{obs}", "--out", "{out}"), 0),
    (("detect", "--input", "{out}/absent.jsonl", "--out", "{out}"), 2),
    (("detect", "--input", "{bad}", "--out", "{out}"), 3),
    (("detect", "--input", "{obs}"), SystemExit),
    (("detect", "--input", "{obs}", "--out", "{out}", "--print-config"), 0),
    (("graph", "--input", "{obs}", "--gestures", "{obs}", "--out", "{out}"), KeyboardInterrupt),
], ids=["exit-0", "exit-2", "exit-3", "usage", "print-config", "interrupt"])
def test_collector_setting_restored(tmp_path, monkeypatch, collector, capsys, enabled, argv,
                                    outcome):
    """main runs a stage with the collector off and leaves the caller's
    setting as it found it, however the stage ends."""
    obs, bad = tmp_path / "obs.jsonl", tmp_path / "bad.jsonl"
    write_observations(make_video(5, min_frames=4, max_frames=6), obs)
    bad.write_text("{bad\n")
    monkeypatch.setattr(cli, "_cmd_graph", _interrupt)
    argv = [a.format(obs=obs, bad=bad, out=tmp_path / "out") for a in argv]
    (gc.enable if enabled else gc.disable)()
    if isinstance(outcome, int):
        assert main(argv) == outcome
    else:
        with pytest.raises(outcome):
            main(argv)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("threads", [1, 2])
def test_no_collection_while_a_stage_runs(tmp_path, collector, threads):
    """A gc.callbacks hook sees no collection while main runs any stage,
    and some while the same stage runs with the collector on."""
    gc.enable()
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    for stage, argv in _pipeline(tmp_path, n_videos=3, threads=threads):
        counts = []
        for run_stage in (main, cli._main):
            starts.clear()
            gc.callbacks.append(hook)
            try:
                assert run_stage(argv) == 0, stage
            finally:
                gc.callbacks.remove(hook)
            counts.append(len(starts))
        assert counts[0] == 0 < counts[1], (stage, counts)


def test_no_growing_cycles(tmp_path, collector):
    """After each stage, the collector finds as many unreachable objects
    for 8 videos as for 1: the stages leave no cycles that grow with the
    input."""
    gc.enable()

    def unreachable(name, n_videos):
        gc.collect()
        return [(stage, main(argv), gc.collect())
                for stage, argv in _pipeline(tmp_path / name, n_videos=n_videos)]

    unreachable("warm-up", 1)
    one = unreachable("one", 1)
    assert [code for _, code, _ in one] == [0] * 5
    assert unreachable("eight", 8) == one
