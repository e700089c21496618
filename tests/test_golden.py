"""Byte goldens: the sha256 of every artifact the pipeline writes.

Detect: events.jsonl and features.jsonl of single videos, and events.jsonl,
videos.jsonl and features.jsonl of four videos one after another in one file.

The oracle tests compare only (type, participants, start, end). These digests
also pin every confidence, peak velocity, lag, distance and feature value, so
a rewrite of a detector or of track building that changes any output byte
fails here. The 1200-frame video builds multi-window capture merges and long
velocity runs that the short videos never reach. The expected digests were
computed with the detectors as they stood before their linear-time rewrite.
The three crowded videos (14, 24 and 30 persons side by side) pin contested
face association and following among many leaders; every frame of the last
two is contested, and they hold 239 and 3419 following events. Their digests
were computed with the dense overlap matrix and the nested-loop following
scan, before either became sparse.
The four-video digests were computed while detect still held every video's
events and features until the input was done.

The rest of the pipeline (graph, qagen, reward, analyze, corrupt) runs on one
six-person video with gestures and seeded traces: three models, about one
malformed trace in ten, rollouts that predict no one, and MCQ answers given
as the option text. Its digests were computed before analyze became the
only per-model aggregation. report.json is pinned with and without --tsv.

QA generation is pinned on its own across all sixteen categories: the
full-taxonomy graph of test_qa plus eighty synthetic graphs, at twelve seeds
and five budgets each. The digest was computed before the categories were
declared in one table.
"""

import json

import hashlib

import pytest

import test_qa
from socialevents.cli import main
from socialevents.qa import generate_qa, load_qa_items, serialize_qa_item
from synth import (make_gestures, make_graph, make_traces, make_video, write_gestures,
                   write_observations)

GOLDEN = {
    "seed3": (
        dict(seed=3),
        "0ad31901d6e454bd5318898f39afebc2c07a2bb6ee7b64ad604bcf152d4190f6",
        "96ce440b31ead3440cdaea8ca9f5ccd56df3058bc5ad167d9196763e1c2c2563",
    ),
    "seed7": (
        dict(seed=7),
        "06f64b2a3ce9cf7825f2fd54589a08b98900bd83ee2ef51ac7de337978bb2564",
        "cccc8a9ec50ab7e73788186e68b0b16b31320a1834d2dbf8779e764fdc7eb5d6",
    ),
    "seed19": (
        dict(seed=19),
        "43590bff170be0dac27affab6c6b2c9b63c07c0e02dc41d995c24268debb6396",
        "48a9704f6b1e949bca14eb32dc095b3eae582cc52aea27a434c6d284dd785333",
    ),
    "seed11_6p_1200f": (
        dict(seed=11, min_persons=6, max_persons=6, min_frames=1200, max_frames=1200),
        "318d4c5a53a8375b24af2c4b8ba81d1be475624ea79e09525f18be1d92492c1d",
        "82ee75e1cc2b8a407b3b19b971a47bda9c47176badf413b63193af0caa40562e",
    ),
    "seed5_14p_200f": (
        dict(seed=5, min_persons=14, max_persons=14, min_frames=200, max_frames=200),
        "56a7edc1a26c0f959fbda2edee3d3afd0e187454092a9bcc5530dd820e7fba57",
        "f6b6ef8612731447c164b28528eb2cdae8ff9f974d8427973998abdcc74ad0d6",
    ),
    "seed9_24p_120f": (
        dict(seed=9, min_persons=24, max_persons=24, min_frames=120, max_frames=120),
        "fde6bc197f0e3fe66fd2d14ce01357988390038004828d59f97a5f029942ce53",
        "6abdb84711f92ecbcbc95181ff9ddb3d0145f51a11443abb81edbf3874ecd0d5",
    ),
    "seed13_30p_60f": (
        dict(seed=13, min_persons=30, max_persons=30, min_frames=60, max_frames=60),
        "8b7d7dd5c60d1ed8a2d460de295ef52c8a758a668a60e5c707e26e71c244f843",
        "cb0530d4d45f68b605b3158f07cc37855c090e845b3c6216ed456cedef22366f",
    ),
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_detect_bytes_match_golden(name, tmp_path):
    video_args, events_sha, features_sha = GOLDEN[name]
    obs = tmp_path / "observations.jsonl"
    write_observations(make_video(**video_args), obs)
    out = tmp_path / "out"
    assert main(["detect", "--input", str(obs), "--out", str(out), "--dump-features"]) == 0
    assert (_digest(out / "events.jsonl"), _digest(out / "features.jsonl")) == \
        (events_sha, features_sha)


MULTI_VIDEO_GOLDEN = {
    "events.jsonl":
        "b63269b6450906ec4d9762bf7795b995b54a83d2dd5efafd2f6612aaf4d55de0",
    "videos.jsonl":
        "f2392cbf2f159a87ab96bda91a0c59ed4b720022a3562627fd292a4dfaff4faa",
    "features.jsonl":
        "9e434156263ba4c74aa020f2762f9f6948a648d89063cd3774d7dbeec94cb7c2",
}


def test_multi_video_detect_bytes_match_golden(tmp_path):
    """Videos of 2, 4, 6 and 3 persons, each one's frames contiguous."""
    frames = [f for seed, persons in ((4, 2), (9, 4), (13, 6), (21, 3))
              for f in make_video(seed, min_persons=persons, max_persons=persons,
                                  min_frames=40, max_frames=90)]
    obs = tmp_path / "observations.jsonl"
    write_observations(frames, obs)
    out = tmp_path / "out"
    assert main(["detect", "--input", str(obs), "--out", str(out), "--dump-features"]) == 0
    assert len((out / "videos.jsonl").read_text().splitlines()) == 4
    assert {name: _digest(out / name) for name in MULTI_VIDEO_GOLDEN} == MULTI_VIDEO_GOLDEN


PIPELINE_GOLDEN = {
    "graph.jsonl":
        "c9dead64d25f6562b9ee03a2448092ec29e06552050837877084078989c6065d",
    "qa.jsonl":
        "7733a5d8fa7e9ecaf349cf4ac3362d47bb66d91a85f53735e9ec4f2ebf6aa033",
    "rewards.jsonl":
        "cbc6d9942a3cbeb65892fc7f6e43cdb59736ff9e42ac0f3e66eaf7fc5e6d058a",
    "report.json":
        "d780d02f0fef026216cbe78ab84cadad17874fe583a9ba1c45aca61e37884b60",
    "report.tsv":
        "29e9954396a0db66b1d16c224992de79300967e6c5657be27dd9a39f4b7eec10",
    "qa.corrupted.jsonl":
        "0a38111e5c389bd4dcc02b855d10d651edd9d7b706c9ed0becc49916352fba08",
}


def test_pipeline_bytes_match_golden(tmp_path):
    frames = make_video(11, min_persons=6, max_persons=6, min_frames=240, max_frames=240)
    obs, gestures, traces = (tmp_path / name for name in
                             ("observations.jsonl", "gestures.jsonl", "traces.jsonl"))
    write_observations(frames, obs)
    write_gestures(make_gestures(12, frames[0].video_id, list(range(6)),
                                 frames[-1].t + 0.5, count=8), gestures)
    out = tmp_path / "out"
    o = str(out)
    assert main(["detect", "--input", str(obs), "--out", o]) == 0
    assert main(["graph", "--input", f"{o}/events.jsonl", "--gestures", str(gestures),
                 "--videos", f"{o}/videos.jsonl", "--out", o]) == 0
    assert main(["qagen", "--input", f"{o}/graph.jsonl", "--out", o,
                 "--seed", "5", "--budget", "80"]) == 0
    records = make_traces(11, load_qa_items(out / "qa.jsonl"), groups=24)
    traces.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["reward", "--input", f"{o}/qa.jsonl", "--traces", str(traces),
                 "--graphs", f"{o}/graph.jsonl", "--out", o]) == 0
    assert main(["analyze", "--input", f"{o}/rewards.jsonl", "--out", o, "--tsv"]) == 0
    assert main(["corrupt", "--input", f"{o}/qa.jsonl", "--out", o, "--seed", "11"]) == 0
    assert {name: _digest(out / name) for name in PIPELINE_GOLDEN} == PIPELINE_GOLDEN
    # Without --tsv: the same report.json, and no report.tsv.
    plain = tmp_path / "plain"
    assert main(["analyze", "--input", f"{o}/rewards.jsonl", "--out", str(plain)]) == 0
    assert sorted(p.name for p in plain.iterdir()) == ["report.json"]
    assert _digest(plain / "report.json") == PIPELINE_GOLDEN["report.json"]


QA_GOLDEN = (27204, "1326fc9263b22bbb0be2027403b5793a56e105b6c6cd10428cc54abbaafcbf1b")


def test_qa_bytes_match_golden():
    graphs = [test_qa.TestFullTaxonomyCoverage().rich_graph()] + [make_graph(s) for s in range(80)]
    digest, count = hashlib.sha256(), 0
    for g in graphs:
        for seed in range(12):
            for budget in (0, 1, 5, 25, 500):
                for item in generate_qa(g, budget=budget, seed=seed):
                    digest.update((serialize_qa_item(item) + "\n").encode("utf-8"))
                    count += 1
    assert (count, digest.hexdigest()) == QA_GOLDEN
