"""Byte goldens for detect: the sha256 of events.jsonl and features.jsonl.

The oracle tests compare only (type, participants, start, end). These digests
also pin every confidence, peak velocity, lag, distance and feature value, so
a rewrite of a detector or of track building that changes any output byte
fails here. The 1200-frame video builds multi-window capture merges and long
velocity runs that the short videos never reach. The expected digests were
computed with the detectors as they stood before their linear-time rewrite.
"""

import hashlib

import pytest

from socialevents.cli import main
from synth import make_video, write_observations

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
