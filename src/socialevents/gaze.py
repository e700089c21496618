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
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import DataError
from .identity import match_faces_to_persons
from .ingest import SAMPLE_PERIOD, Box, FrameObservation

PROV_MEASURED = "measured"
PROV_INTERPOLATED = "interpolated"
PROV_CARRIED = "carried"
PROV_MISSING = "missing"

Point = tuple[float, float]


@dataclass(frozen=True)
class GazeSample:
    t: float
    gaze_point: Point | None
    face_center: Point | None
    face_box: Box | None
    in_frame: bool
    confidence: float
    provenance: str


@dataclass(frozen=True)
class GazeTrack:
    video_id: str
    person_id: int
    samples: tuple[GazeSample, ...]

    def sample_at(self, t: float) -> GazeSample | None:
        if not self.samples:
            return None
        idx = round((t - self.samples[0].t) / SAMPLE_PERIOD)
        if 0 <= idx < len(self.samples) and self.samples[idx].t == t:
            return self.samples[idx]
        return None


@dataclass(frozen=True)
class FrameFeatures:
    t: float
    velocities: dict[int, float]
    convergence: float | None
    centroid: Point | None
    contributors: tuple[int, ...]


def _missing(t: float) -> GazeSample:
    return GazeSample(t, None, None, None, False, 0.0, PROV_MISSING)


def build_tracks(frames: list[FrameObservation]) -> list[GazeTrack]:
    """One grid-complete track per person ID observed in a single video.

    Samples are measured where the person has an associated face with a gaze
    point, missing elsewhere. Track spans run from the person's first to last
    appearance.
    """
    if not frames:
        return []
    video_id = frames[0].video_id

    span: dict[int, tuple[float, float]] = {}
    observed: dict[int, dict[float, GazeSample]] = {}
    for frame in frames:
        if frame.video_id != video_id:
            raise DataError(f"mixed videos in one track build: {video_id!r}, {frame.video_id!r}")
        for person in frame.persons:
            lo, hi = span.get(person.person_id, (frame.t, frame.t))
            span[person.person_id] = (min(lo, frame.t), max(hi, frame.t))
        assoc = match_faces_to_persons(frame)
        seen: set[int] = set()
        for person_id, face_index, _overlap in assoc.pairs:
            if person_id in seen:
                raise DataError(f"person {person_id} assigned two faces at t={frame.t}")
            seen.add(person_id)
            face = frame.faces[face_index]
            if face.gaze_point is not None:
                sample = GazeSample(
                    frame.t, face.gaze_point, face.box.center, face.box,
                    face.gaze_in_frame, face.det_confidence, PROV_MEASURED,
                )
            else:
                sample = GazeSample(
                    frame.t, None, face.box.center, face.box, False, 0.0, PROV_MISSING
                )
            observed.setdefault(person_id, {})[frame.t] = sample

    tracks = []
    for person_id in sorted(span):
        lo, hi = span[person_id]
        by_t = observed.get(person_id, {})
        samples = []
        steps = round((hi - lo) / SAMPLE_PERIOD)
        for k in range(steps + 1):
            t = lo + k * SAMPLE_PERIOD
            samples.append(by_t.get(t) or _missing(t))
        tracks.append(GazeTrack(video_id, person_id, tuple(samples)))
    return tracks


def interpolate_track(track: GazeTrack, config: EngineConfig = DEFAULT_CONFIG) -> GazeTrack:
    """Repair interior gaps between measured samples per the gap table."""
    samples = list(track.samples)
    measured_idx = [i for i, s in enumerate(samples) if s.provenance == PROV_MEASURED]
    for left, right in zip(measured_idx, measured_idx[1:]):
        gap = right - left - 1
        if gap == 0:
            continue
        a, b = samples[left], samples[right]
        if b.t - a.t > config.block_temporal_gap:
            continue
        if _dist(a.face_center, b.face_center) > config.block_face_displacement:
            continue
        if gap <= config.linear_max_gap:
            conf = 1.0 - config.linear_conf_slope * gap
            in_frame = a.in_frame and b.in_frame
            for k in range(1, gap + 1):
                frac = k / (gap + 1)
                samples[left + k] = GazeSample(
                    samples[left + k].t,
                    _lerp(a.gaze_point, b.gaze_point, frac),
                    _lerp(a.face_center, b.face_center, frac),
                    None, in_frame, conf, PROV_INTERPOLATED,
                )
        elif gap <= config.carry_max_gap:
            conf = config.carry_conf_base * math.exp(-config.carry_conf_decay * gap)
            for k in range(1, gap + 1):
                samples[left + k] = GazeSample(
                    samples[left + k].t, a.gaze_point, a.face_center,
                    None, a.in_frame, conf, PROV_CARRIED,
                )
    return GazeTrack(track.video_id, track.person_id, tuple(samples))


def gaze_velocity(track: GazeTrack, t: float) -> float | None:
    """Speed of the face-centered gaze direction between t-step and t."""
    cur = track.sample_at(t)
    prev = track.sample_at(t - SAMPLE_PERIOD)
    if cur is None or prev is None:
        return None
    if cur.gaze_point is None or cur.face_center is None:
        return None
    if prev.gaze_point is None or prev.face_center is None:
        return None
    dx = (cur.gaze_point[0] - cur.face_center[0]) - (prev.gaze_point[0] - prev.face_center[0])
    dy = (cur.gaze_point[1] - cur.face_center[1]) - (prev.gaze_point[1] - prev.face_center[1])
    return math.hypot(dx, dy) / SAMPLE_PERIOD


def convergence_score(
    tracks: list[GazeTrack], t: float, config: EngineConfig = DEFAULT_CONFIG
) -> tuple[float, Point, tuple[int, ...]] | None:
    """Convergence of concurrent in-frame gaze points at time t.

    Needs at least two contributors; returns (score, centroid, person IDs).
    The score is exp(-alpha * median distance to the centroid), so identical
    points score exactly 1.
    """
    points: list[tuple[int, Point]] = []
    for track in tracks:
        sample = track.sample_at(t)
        if sample is None or sample.gaze_point is None:
            continue
        if not sample.in_frame or sample.confidence <= 0.0:
            continue
        if config.convergence_measured_only and sample.provenance != PROV_MEASURED:
            continue
        points.append((track.person_id, sample.gaze_point))
    if len(points) < 2:
        return None
    cx = sum(p[1][0] for p in points) / len(points)
    cy = sum(p[1][1] for p in points) / len(points)
    dists = [math.hypot(p[1][0] - cx, p[1][1] - cy) for p in points]
    score = math.exp(-config.convergence_alpha * statistics.median(dists))
    return score, (cx, cy), tuple(sorted(pid for pid, _ in points))


def grid_times(tracks: list[GazeTrack]) -> list[float]:
    """All grid steps between the earliest and latest sample of any track."""
    if not any(track.samples for track in tracks):
        return []
    lo = min(track.samples[0].t for track in tracks if track.samples)
    hi = max(track.samples[-1].t for track in tracks if track.samples)
    steps = round((hi - lo) / SAMPLE_PERIOD)
    return [lo + k * SAMPLE_PERIOD for k in range(steps + 1)]


def compute_features(
    tracks: list[GazeTrack], config: EngineConfig = DEFAULT_CONFIG
) -> list[FrameFeatures]:
    """Per-frame velocities and convergence for a video's interpolated tracks."""
    features = []
    for t in grid_times(tracks):
        velocities = {}
        for track in tracks:
            v = gaze_velocity(track, t)
            if v is not None:
                velocities[track.person_id] = v
        conv = convergence_score(tracks, t, config)
        if conv is None:
            features.append(FrameFeatures(t, velocities, None, None, ()))
        else:
            score, centroid, contributors = conv
            features.append(FrameFeatures(t, velocities, score, centroid, contributors))
    return features


def _lerp(a: Point | None, b: Point | None, frac: float) -> Point | None:
    if a is None or b is None:
        return None
    return (a[0] + (b[0] - a[0]) * frac, a[1] + (b[1] - a[1]) * frac)


def _dist(a: Point | None, b: Point | None) -> float:
    if a is None or b is None:
        return math.inf
    return math.hypot(a[0] - b[0], a[1] - b[1])
