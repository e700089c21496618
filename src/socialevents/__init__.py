"""Deterministic engine for multi-person social gaze/gesture events.

Turns per-frame observations into identity-consistent gaze tracks, typed
social events, unified per-video graphs, template QA items, and grounded
rewards with group-normalized advantages.
"""

from .analytics import (
    IdRemap,
    corrupt_ids,
    grounding_precision,
    novel_participants,
    pearson,
    seeded_remap,
)
from .config import DEFAULT_CONFIG, EngineConfig
from .events import SocialEvent, cluster_intervals, detect_all
from .gaze import GazeTrack, build_tracks, compute_features, interpolate_track
from .graph import SocialGraph, build_graph, prune_graph
from .identity import Association, box_overlap, head_region, match_faces_to_persons
from .ingest import (
    Box,
    FaceMeasurement,
    FrameObservation,
    GestureAnnotation,
    PersonBox,
    load_gestures,
    load_observations,
)
from .qa import QAItem, generate_qa, make_mcq_options, validate_qa
from .reward import (
    ReasoningTrace,
    RewardBreakdown,
    ScoredRollout,
    extract_participants,
    group_advantages,
    parse_trace,
    reward_components,
    score_group,
)

__version__ = "0.1.0"

__all__ = [
    "Association",
    "Box",
    "DEFAULT_CONFIG",
    "EngineConfig",
    "FaceMeasurement",
    "FrameObservation",
    "GazeTrack",
    "GestureAnnotation",
    "IdRemap",
    "PersonBox",
    "QAItem",
    "ReasoningTrace",
    "RewardBreakdown",
    "ScoredRollout",
    "SocialEvent",
    "SocialGraph",
    "box_overlap",
    "build_graph",
    "build_tracks",
    "cluster_intervals",
    "compute_features",
    "corrupt_ids",
    "detect_all",
    "extract_participants",
    "generate_qa",
    "group_advantages",
    "grounding_precision",
    "head_region",
    "interpolate_track",
    "load_gestures",
    "load_observations",
    "make_mcq_options",
    "match_faces_to_persons",
    "novel_participants",
    "parse_trace",
    "pearson",
    "prune_graph",
    "reward_components",
    "score_group",
    "seeded_remap",
    "validate_qa",
]
