"""Per-person gaze tracks, gap repair, and per-frame motion/convergence features.

Tracks are built on the fixed 0.5 s sampling grid. Short gaps between two
measured samples are repaired; long gaps are left missing:

    gap of 1-3 missing frames   linear interpolation, confidence 1.0 - 0.1*gap
    gap of 4-10 missing frames  carry last measured sample, confidence
                                0.5*exp(-0.2*gap)
    gap of 11+ missing frames   left missing, confidence 0

Repair is suppressed when the flanking measured samples are more than 3 s
apart or their face centers moved more than 30% of the frame width, which on
the 0.5 s grid means carries are only reachable for gaps of 4-5 frames.

Cost: ``build_tracks`` builds each sample with ``tuple.__new__`` and the face
centre inline, with ``Box.center``'s float operations. ``compute_features``
makes one sweep per track, which fills its row of velocities and of
convergence points over the video's ticks; each tick then reads its column,
O(F x P) for F ticks and P persons. On 14 persons (x86-64, Python 3.11,
best of 30) a tick takes ~12.7 us. The centroid is a left-to-right fold,
not ``sum()``, whose float rounding differs from Python 3.12 on. A tick's
``FrameFeatures`` end with its contributors' distances to the centroid,
which joint attention reads to drop peripheral contributors.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import DataError
from .identity import match_faces_to_persons
from .ingest import SAMPLE_PERIOD, Box, FrameObservation, _new

PROV_MEASURED = "measured"
PROV_INTERPOLATED = "interpolated"
PROV_CARRIED = "carried"
PROV_MISSING = "missing"

Point = tuple[float, float]


class GazeSample(NamedTuple):
    k: int  # grid tick
    gaze_point: Point | None
    face_center: Point | None
    face_box: Box | None
    in_frame: bool
    confidence: float
    provenance: str

    @property
    def t(self) -> float:
        return self.k * SAMPLE_PERIOD


@dataclass(frozen=True)
class GazeTrack:
    """A person's samples on consecutive ticks, the first at tick ``start``."""

    video_id: str
    person_id: int
    samples: tuple[GazeSample, ...]
    start: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        start = self.samples[0].k if self.samples else 0
        if self.samples and self.samples[-1].k - start != len(self.samples) - 1:
            raise DataError(f"track of person {self.person_id} skips a tick")
        object.__setattr__(self, "start", start)

    @property
    def stop(self) -> int:
        """One past the last tick."""
        return self.start + len(self.samples)

    def sample_at(self, k: int) -> GazeSample | None:
        i = k - self.start
        if 0 <= i < len(self.samples):
            return self.samples[i]
        return None


class FrameFeatures(NamedTuple):
    k: int
    velocities: dict[int, float]
    convergence: float | None
    centroid: Point | None
    contributors: tuple[int, ...]
    distances: tuple[float, ...]  # each contributor's distance to the centroid

    @property
    def t(self) -> float:
        return self.k * SAMPLE_PERIOD


def _missing(k: int) -> GazeSample:
    return _new(GazeSample, (k, None, None, None, False, 0.0, PROV_MISSING))


def build_tracks(frames: Iterable[FrameObservation]) -> list[GazeTrack]:
    """One grid-complete track per person ID observed in a single video.

    Samples are measured where the person has an associated face with a gaze
    point, missing elsewhere. Track spans run from the person's first to last
    appearance. ``frames`` are all of the video's frames, in time order, and
    are read once, so a frame from a stream can be dropped as soon as its
    samples exist.
    """
    video_id = None
    tracks: dict[int, list[GazeSample]] = {}
    for frame in frames:
        if frame.video_id != video_id:
            if video_id is not None:
                raise DataError(
                    f"mixed videos in one track build: {video_id!r}, {frame.video_id!r}")
            video_id = frame.video_id
        k = frame.k
        faced: dict[int, GazeSample] = {}
        for person_id, face_index, _overlap in match_faces_to_persons(frame).pairs:
            if person_id in faced:
                raise DataError(f"person {person_id} assigned two faces at t={frame.t}")
            box, det_confidence, gaze_point, in_frame = frame.faces[face_index]
            x1, y1, x2, y2 = box
            center = ((x1 + x2) / 2.0, (y1 + y2) / 2.0)  # box.center
            if gaze_point is not None:
                faced[person_id] = _new(GazeSample, (
                    k, gaze_point, center, box, in_frame, det_confidence, PROV_MEASURED))
            else:
                faced[person_id] = _new(GazeSample, (
                    k, None, center, box, False, 0.0, PROV_MISSING))
        for person_id in {person.person_id for person in frame.persons}:
            samples = tracks.setdefault(person_id, [])
            if samples and samples[-1].k + 1 < k:  # absent since the last appearance
                samples.extend(_missing(gap) for gap in range(samples[-1].k + 1, k))
            samples.append(faced.get(person_id) or _missing(k))
    return [GazeTrack(video_id, pid, tuple(tracks[pid])) for pid in sorted(tracks)]


def interpolate_track(track: GazeTrack, config: EngineConfig = DEFAULT_CONFIG) -> GazeTrack:
    """Repair interior gaps between measured samples per the gap table."""
    samples = list(track.samples)
    measured_idx = [i for i, s in enumerate(samples) if s.provenance == PROV_MEASURED]
    for left, right in zip(measured_idx, measured_idx[1:]):
        gap = right - left - 1
        if gap == 0:
            continue
        a, b = samples[left], samples[right]
        if (right - left) * SAMPLE_PERIOD > config.block_temporal_gap:
            continue
        if _dist(a.face_center, b.face_center) > config.block_face_displacement:
            continue
        if gap <= config.linear_max_gap:
            conf = 1.0 - config.linear_conf_slope * gap
            in_frame = a.in_frame and b.in_frame
            for i in range(left + 1, right):
                frac = (i - left) / (gap + 1)
                samples[i] = GazeSample(
                    samples[i].k,
                    _lerp(a.gaze_point, b.gaze_point, frac),
                    _lerp(a.face_center, b.face_center, frac),
                    None, in_frame, conf, PROV_INTERPOLATED,
                )
        elif gap <= config.carry_max_gap:
            conf = config.carry_conf_base * math.exp(-config.carry_conf_decay * gap)
            for i in range(left + 1, right):
                samples[i] = GazeSample(
                    samples[i].k, a.gaze_point, a.face_center,
                    None, a.in_frame, conf, PROV_CARRIED,
                )
    return GazeTrack(track.video_id, track.person_id, tuple(samples))


def _convergence(
    points: list[tuple[int, Point]], alpha: float
) -> tuple[float, Point, tuple[int, ...], tuple[float, ...]]:
    """Score, centroid, sorted person IDs and their distances to the
    centroid, of two or more gaze points. The score is exp(-alpha * median
    distance): 1 if they agree."""
    cx = cy = 0.0  # left-to-right folds: sum() of floats rounds otherwise from 3.12 on
    for _, (x, y) in points:
        cx += x
        cy += y
    cx /= len(points)
    cy /= len(points)
    contributors, dists = zip(*sorted((pid, math.hypot(x - cx, y - cy)) for pid, (x, y) in points))
    return math.exp(-alpha * statistics.median(dists)), (cx, cy), contributors, dists


def compute_features(
    tracks: list[GazeTrack], config: EngineConfig = DEFAULT_CONFIG
) -> list[FrameFeatures]:
    """Per-frame velocities and convergence for a video's interpolated tracks,
    one per tick from the earliest sample of any track to the latest.

    One sweep per track fills its row of velocities and of convergence
    points over those ticks, None where it has none; then each tick reads
    its column. A velocity is the speed of the face-centred gaze direction
    (gaze point minus face centre) since the tick before, where both samples
    hold both points. A tick's contributors are its samples with a gaze
    point, in frame, of confidence above 0 and, with
    ``convergence_measured_only``, measured; two or more give ``_convergence``'s
    four fields, fewer give None, None, () and ().
    """
    tracks = [tr for tr in tracks if tr.samples]
    if not tracks:
        return []
    lo = min(tr.start for tr in tracks)
    hi = max(tr.stop for tr in tracks)
    measured_only = config.convergence_measured_only
    velocity_rows = []
    point_rows = []
    for track in tracks:
        pid = track.person_id
        velocity: list[float | None] = [None] * (hi - lo)
        point: list[tuple[int, Point] | None] = [None] * (hi - lo)
        i = track.start - lo
        prev = None  # gaze direction of the sample one tick before, if it has one
        for s in track.samples:
            gaze_point, face_center = s.gaze_point, s.face_center
            if gaze_point is None or face_center is None:
                prev = None
            else:
                cur = (gaze_point[0] - face_center[0], gaze_point[1] - face_center[1])
                if prev is not None:
                    velocity[i] = math.hypot(cur[0] - prev[0], cur[1] - prev[1]) / SAMPLE_PERIOD
                prev = cur
            # a contributor; `not <=` lets a NaN confidence in
            if gaze_point is not None and s.in_frame and not s.confidence <= 0.0 \
                    and (not measured_only or s.provenance == PROV_MEASURED):
                point[i] = (pid, gaze_point)
            i += 1
        velocity_rows.append(velocity)
        point_rows.append(point)
    pids = [tr.person_id for tr in tracks]
    alpha = config.convergence_alpha
    features = []
    for k, velocities, points in zip(range(lo, hi), zip(*velocity_rows), zip(*point_rows)):
        points = [p for p in points if p is not None]
        features.append(_new(FrameFeatures, (
            k, {pid: v for pid, v in zip(pids, velocities) if v is not None},
            *(_convergence(points, alpha) if len(points) > 1 else (None, None, (), ())))))
    return features


def _lerp(a: Point | None, b: Point | None, frac: float) -> Point | None:
    if a is None or b is None:
        return None
    return (a[0] + (b[0] - a[0]) * frac, a[1] + (b[1] - a[1]) * frac)


def _dist(a: Point | None, b: Point | None) -> float:
    if a is None or b is None:
        return math.inf
    return math.hypot(a[0] - b[0], a[1] - b[1])
