"""Engine configuration.

All tunables live in one frozen dataclass so a run can be reproduced from a
single dumped parameter set. Defaults are the published operating points of
the detection, graph-construction, and reward stages. The 0.5 s sampling
grid is not a tunable; it is ``ingest.SAMPLE_PERIOD``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass, fields

from .errors import ContractError
from .ingest import SAMPLE_PERIOD

@dataclass(frozen=True)
class EngineConfig:
    # gaze gap repair
    linear_max_gap: int = 3
    carry_max_gap: int = 10
    linear_conf_slope: float = 0.1
    carry_conf_base: float = 0.5
    carry_conf_decay: float = 0.2
    block_temporal_gap: float = 3.0
    block_face_displacement: float = 0.30

    # group gaze features
    convergence_alpha: float = 3.0
    convergence_measured_only: bool = False

    # gaze event detectors
    sudden_velocity: float = 0.7
    sudden_cluster_gap: float = 0.6
    sudden_min_duration: float = 0.5
    sudden_max_duration: float = 1.5
    ja_convergence: float = 0.6
    ja_min_duration: float = 0.5
    ja_set_overlap: float = 0.7
    ja_peripheral_mult: float = 2.0
    follow_distance: float = 0.03
    follow_lag_min: float = 1.0
    follow_lag_max: float = 2.0
    capture_velocity: float = 0.4
    capture_min_persons: int = 3
    capture_window: float = 1.0
    mutual_margin: float = 0.02
    mutual_min_duration: float = 1.0

    # unified graph
    gaze_conf_min: float = 0.9
    gesture_conf_min: float = 0.85
    pair_max_distance: float = 3.0
    max_graph_events: int = 25

    # qa generation density gates
    qa_medium_min_events: int = 4
    qa_hard_min_events: int = 10

    # reward and advantages
    weight_acc: float = 1.0
    weight_fmt: float = 0.1
    weight_str: float = 0.05
    weight_gnd: float = 0.2
    rollouts_per_query: int = 8
    advantage_clip: float = 5.0
    advantage_mode: str = "zscore"  # "zscore" or "mean_center"

    def __post_init__(self) -> None:
        # An int is always finite; a float may be given for any numeric field.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                _reject(f.name, value, "must be finite")
        # Following compares samples a whole number of grid steps apart.
        on_grid = f"must be a multiple of the {SAMPLE_PERIOD} s sample period"
        rules = (
            ("linear_max_gap", self.linear_max_gap >= 0, "must be >= 0"),
            ("carry_max_gap", self.carry_max_gap >= 0, "must be >= 0"),
            ("linear_conf_slope", self.linear_conf_slope >= 0, "must be >= 0"),
            # An interpolated sample's confidence is 1 - slope * gap. min() keeps
            # a huge integer gap from overflowing the float product.
            ("linear_conf_slope",
             self.linear_conf_slope * min(self.linear_max_gap, sys.float_info.max) <= 1,
             f"must be <= 1 / linear_max_gap ({self.linear_max_gap!r})"),
            ("carry_conf_base", 0 <= self.carry_conf_base <= 1, "must be in [0, 1]"),
            ("carry_conf_decay", self.carry_conf_decay >= 0, "must be >= 0"),
            ("block_temporal_gap", self.block_temporal_gap >= 0, "must be >= 0"),
            ("block_face_displacement", self.block_face_displacement >= 0, "must be >= 0"),
            ("convergence_alpha", self.convergence_alpha >= 0, "must be >= 0"),
            ("capture_min_persons", self.capture_min_persons >= 1, "must be >= 1"),
            ("capture_window", self.capture_window > 0, "must be > 0"),
            ("capture_velocity", self.capture_velocity >= 0, "must be >= 0"),
            ("sudden_velocity", self.sudden_velocity >= 0, "must be >= 0"),
            ("sudden_cluster_gap", self.sudden_cluster_gap > 0, "must be > 0"),
            ("sudden_min_duration", self.sudden_min_duration >= 0, "must be >= 0"),
            ("sudden_max_duration", self.sudden_max_duration >= self.sudden_min_duration,
             f"must be >= sudden_min_duration ({self.sudden_min_duration!r})"),
            ("ja_convergence", 0 < self.ja_convergence <= 1, "must be in (0, 1]"),
            ("ja_min_duration", self.ja_min_duration >= 0, "must be >= 0"),
            ("ja_set_overlap", 0 <= self.ja_set_overlap <= 1, "must be in [0, 1]"),
            # The cutoff is mult x the median distance to the centroid: at 0 or
            # below it keeps at most the gazes exactly on the centroid.
            ("ja_peripheral_mult", self.ja_peripheral_mult > 0, "must be > 0"),
            ("follow_distance", self.follow_distance >= 0, "must be >= 0"),
            ("follow_lag_min", self.follow_lag_min > 0, "must be > 0"),
            ("follow_lag_min", (self.follow_lag_min / SAMPLE_PERIOD).is_integer(), on_grid),
            ("follow_lag_max", self.follow_lag_max >= self.follow_lag_min,
             f"must be >= follow_lag_min ({self.follow_lag_min!r})"),
            ("follow_lag_max", (self.follow_lag_max / SAMPLE_PERIOD).is_integer(), on_grid),
            ("mutual_margin", self.mutual_margin >= 0, "must be >= 0"),
            ("mutual_min_duration", self.mutual_min_duration >= 0, "must be >= 0"),
            ("gaze_conf_min", 0 <= self.gaze_conf_min <= 1, "must be in [0, 1]"),
            ("gesture_conf_min", 0 <= self.gesture_conf_min <= 1, "must be in [0, 1]"),
            ("pair_max_distance", self.pair_max_distance >= 0, "must be >= 0"),
            ("max_graph_events", self.max_graph_events >= 1, "must be >= 1"),
            ("qa_medium_min_events", self.qa_medium_min_events >= 0, "must be >= 0"),
            ("qa_hard_min_events", self.qa_hard_min_events >= self.qa_medium_min_events,
             f"must be >= qa_medium_min_events ({self.qa_medium_min_events!r})"),
            # A total is at most 5 weights (r_gnd <= 2), so at this bound the
            # totals and their squared deviations stay finite.
            *((name, abs(getattr(self, name)) <= 1e100, "must be within [-1e100, 1e100]")
              for name in ("weight_acc", "weight_fmt", "weight_str", "weight_gnd")),
            ("rollouts_per_query", self.rollouts_per_query >= 2, "must be >= 2"),
            ("advantage_clip", self.advantage_clip > 0, "must be > 0"),
            ("advantage_mode", self.advantage_mode in ("zscore", "mean_center"),
             "must be 'zscore' or 'mean_center'"),
        )
        for name, ok, rule in rules:
            if not ok:
                _reject(name, getattr(self, name), rule)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_CONFIG = EngineConfig()


def add_config_arguments(parser: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    """Attach one override flag per named config field to an argparse parser;
    the flag name is the field name with underscores swapped for dashes."""
    defaults = {f.name: f.default for f in fields(EngineConfig)}
    group = parser.add_argument_group("engine parameters")
    for name in names:
        flag = "--" + name.replace("_", "-")
        default = defaults[name]
        if isinstance(default, bool):
            group.add_argument(flag, type=_parse_bool, default=None, metavar="BOOL")
        elif isinstance(default, int):
            group.add_argument(flag, type=int, default=None, metavar="N")
        elif isinstance(default, float):
            group.add_argument(flag, type=float, default=None, metavar="X")
        else:
            group.add_argument(flag, type=str, default=None)


def config_from_args(args: argparse.Namespace) -> EngineConfig:
    """Build a config from parsed args, keeping defaults for absent flags."""
    overrides = {}
    for f in fields(EngineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return dataclasses.replace(DEFAULT_CONFIG, **overrides)


def _reject(name: str, value, rule: str) -> None:
    raise ContractError(f"config field {name} = {value!r} {rule}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")
