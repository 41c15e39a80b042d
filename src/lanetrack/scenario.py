"""The scenario: its types, its rules, and its JSON schema (load,
serialize, and dotted-path overrides).

The on-disk layout mirrors the Scenario type field for field (snake_case
keys, SI units, seed as a decimal integer); see docs/FORMATS.md. Every
field is checked once, in Scenario.validate.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field, fields, replace

from .angles import wrap_angle
from .exceptions import InvalidScenario, UnknownField
from .model import Pose
from .tracks import Track, is_finite_number, make_track, record_args, track_fields

#: Arc-length interval at which a sensed lane is resampled before its
#: cubic fit (m).
DEFAULT_DELTA_S = 0.25

#: Largest accepted sensor.clutter_rate (mean clutter points per frame):
#: far above any useful rate, and far below where rng.poisson gives up.
MAX_CLUTTER_RATE = 1000.0

#: The sensing window: sense_lanes samples the track from SENSE_BEHIND m
#: behind the robot's arc position to SENSE_AHEAD m beyond the ROI's x_max.
SENSE_BEHIND = 2.0
SENSE_AHEAD = 4.0

#: Most arc positions sense_lanes may sample per frame, (x_max +
#: SENSE_AHEAD + SENSE_BEHIND) / sample_spacing: far above any shipped
#: scenario or test (64).
MAX_FRAME_SAMPLES = 10_000

#: Largest accepted step budget duration_max / dt: far above any shipped
#: scenario (30,000) or test run (100,000), and a run of minutes, not ages.
MAX_STEPS = 1_000_000

#: Scenario fields that must be > 0, and >= 0, once they are numbers; a
#: limits field is checked when the scenario has limits.
_POSITIVE = ("dt", "duration_max", "v_t", "sensor.frame_period", "sensor.sample_spacing",
             "gains.lambda_v", "gains.lambda_a", "gains.k1", "gains.k2",
             "limits.omega_abs_max", "limits.accel_max", "limits.alpha_accel_max")
_NON_NEGATIVE = ("sensor.point_noise_sigma", "sensor.clutter_rate")


@dataclass(frozen=True)
class ControllerGains:
    """Gains of the tracking laws; defaults follow the tuned field values."""

    lambda_v: float = 0.075
    lambda_a: float = 0.15
    k1: float = 0.8
    k2: float = 50.0


@dataclass(frozen=True)
class SaturationLimits:
    """Magnitude and slew bounds applied to every command."""

    v_min: float = 0.6
    v_max: float = 1.75
    omega_abs_max: float = 0.4
    accel_max: float = 1.0
    alpha_accel_max: float = 1.0


@dataclass(frozen=True)
class SensorConfig:
    """Synthetic lane-point sensor replacing the perception network."""

    point_noise_sigma: float = 0.0
    clutter_rate: float = 0.0
    frame_period: float = 0.1
    #: region of interest in the vehicle frame (x forward, y left)
    roi: tuple[float, float, float, float] = (0.0, 10.0, -5.0, 5.0)
    sample_spacing: float = 0.25
    min_points: int = 4


#: The scenario's records, in the order they are built and checked, with
#: whether each may be null; their types give their fields and defaults.
_RECORDS = {"sensor": (SensorConfig, False), "gains": (ControllerGains, False),
            "limits": (SaturationLimits, True), "initial_pose": (Pose, True)}


@dataclass
class Scenario:
    track: Track
    mode: str  # preset_path | vision
    v_t: float
    gains: ControllerGains = field(default_factory=ControllerGains)
    limits: SaturationLimits | None = None
    dt: float = 0.01
    duration_max: float = 300.0
    initial_pose: Pose | None = None
    controller: str = "proposed"  # proposed | comparative
    sensor: SensorConfig = field(default_factory=SensorConfig)
    rng_seed: int = 0
    initial_target_s: float = 2.0

    def validate(self) -> None:
        """Check every field against its rules, numeric ones first against
        the number rule (tracks.is_finite_number): the first rule broken
        raises InvalidScenario naming the field by its path in the file."""
        if self.mode not in ("preset_path", "vision"):
            raise InvalidScenario(f"unknown mode {self.mode!r}")
        if self.controller not in ("proposed", "comparative"):
            raise InvalidScenario(f"unknown controller {self.controller!r}")
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise InvalidScenario(f"rng_seed must be an integer >= 0, got {seed!r}")
        if seed < 0:
            raise InvalidScenario("rng_seed must be >= 0")
        roi = self.sensor.roi
        if not isinstance(roi, (tuple, list)) or len(roi) != 4:
            raise InvalidScenario("sensor.roi must be four numbers [x_min, x_max, y_min, y_max]")
        values = {name: getattr(self, name)
                  for name in ("dt", "duration_max", "v_t", "initial_target_s")}
        for group in _RECORDS:
            if (record := getattr(self, group)) is not None:
                values.update(_record_dict(record, f"{group}."))
        values.update((f"sensor.roi[{i}]", x) for i, x in enumerate(values.pop("sensor.roi")))
        for name, value in values.items():
            if not is_finite_number(value):
                raise InvalidScenario(f"{name} must be a finite number, got {value!r}")
        for name in _POSITIVE:
            if name in values and values[name] <= 0:
                raise InvalidScenario(f"{name} must be > 0")
        for name in _NON_NEGATIVE:
            if values[name] < 0:
                raise InvalidScenario(f"{name} must be >= 0")
        if self.limits is not None and self.limits.v_min > self.limits.v_max:
            raise InvalidScenario("limits.v_min must be <= limits.v_max")
        if self.duration_max / self.dt > MAX_STEPS:
            raise InvalidScenario(f"duration_max / dt must be <= {MAX_STEPS}, "
                                  f"got {self.duration_max / self.dt:.3g} steps")
        if round(self.duration_max / self.dt) < 1:
            raise InvalidScenario(f"duration_max / dt must round to >= 1 step, "
                                  f"got {self.duration_max / self.dt:.3g}")
        if self.mode == "preset_path" and not self.track.closed:
            first = self.initial_target_s + self.v_t * self.dt  # as advance_target sums it
            if first > self.track.length:
                raise InvalidScenario(f"initial_target_s + v_t * dt must be <= the open track's "
                                      f"length {self.track.length!r}, got {first!r}")
        sensor = self.sensor
        if sensor.clutter_rate > MAX_CLUTTER_RATE:
            raise InvalidScenario(f"sensor.clutter_rate must be <= {MAX_CLUTTER_RATE:g}")
        x_min, x_max, y_min, y_max = roi
        if x_min >= x_max or y_min >= y_max:
            raise InvalidScenario("sensor.roi must have x_min < x_max and y_min < y_max")
        samples = (x_max + SENSE_AHEAD + SENSE_BEHIND) / sensor.sample_spacing
        if samples > MAX_FRAME_SAMPLES:
            raise InvalidScenario(f"(sensor.roi x_max + {SENSE_AHEAD + SENSE_BEHIND:g}) / "
                                  f"sensor.sample_spacing must be <= {MAX_FRAME_SAMPLES}, "
                                  f"got {samples:.3g}")
        if self.mode == "vision" and sensor.frame_period < self.dt:
            raise InvalidScenario("sensor.frame_period must be >= dt")
        if self.mode == "vision" and sensor.frame_period / self.dt > MAX_STEPS:
            raise InvalidScenario(f"sensor.frame_period / dt must be <= {MAX_STEPS}, "
                                  f"got {sensor.frame_period / self.dt:.3g}")

    def start_pose(self) -> Pose:
        """The pose at t = 0, with its heading wrapped to (-pi, pi]."""
        if self.initial_pose is not None:
            x, y, phi = self.initial_pose.x, self.initial_pose.y, self.initial_pose.phi
        else:
            xy, heading = self.track.points_at(0.0)
            (x, y), phi = xy.tolist(), heading.item()
        return Pose(x, y, wrap_angle(phi))


def _record_dict(record, prefix: str = "") -> dict:
    """A record (or track zone) as JSON, each key after prefix, a tuple as a list."""
    return {prefix + name: list(v) if isinstance(v := getattr(record, name), tuple) else v
            for name in inspect.signature(type(record)).parameters}


def scenario_to_dict(sc: Scenario, track_spec: dict | None = None) -> dict:
    """Serialize a Scenario with its start_pose; track_spec is the JSON track description."""
    if track_spec is None:
        track_spec = {
            "kind": "polyline",
            "points": sc.track.reference_path.tolist(),
            "closed": sc.track.closed,
            "lane_width": sc.track.lane_width,
            "segments": [_record_dict(s) for s in sc.track.segments],
        }
    data = {f.name: getattr(sc, f.name) for f in fields(Scenario)}
    data.update(track=track_spec, initial_pose=sc.start_pose())
    return {name: _record_dict(value) if name in _RECORDS and value is not None else value
            for name, value in data.items()}


def scenario_from_dict(data: dict) -> Scenario:
    """The validated Scenario of a JSON object; a field it leaves out takes its default."""
    try:
        args = dict(record_args(data, "", Scenario))
        args["track"] = make_track(args["track"])
        for name, (cls, nullable) in _RECORDS.items():
            if name in args and not (nullable and args[name] is None):
                args[name] = cls(**record_args(args[name], name, cls))
        sc = Scenario(**args)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScenario(f"bad scenario data: {exc}") from exc
    if isinstance(sc.sensor.roi, list):
        sc.sensor = replace(sc.sensor, roi=tuple(sc.sensor.roi))
    sc.validate()
    return sc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(load_scenario_dict(path))


def load_scenario_dict(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def apply_override(data: dict, dotted_key: str, raw_value: str) -> None:
    """Apply one key=value override to a scenario dict, in place.

    The key is a dotted path (e.g. sensor.point_noise_sigma) of schema
    fields, held by the file or not: a Scenario field, then one of its
    record's (of track: kind, segments or its kind's parameters). A typo
    fails loudly (UnknownField, a KeyError); a record the file leaves out
    or sets to null starts as {}. The value is parsed as JSON when
    possible, else kept as a string."""
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    *path, last = dotted_key.split(".")
    node, names = data, inspect.signature(Scenario).parameters
    for depth, part in enumerate(path + [last]):
        if not isinstance(node, dict) or part not in names:
            raise UnknownField(f"unknown scenario field {dotted_key!r} (at {part!r})")
        node = {} if node.get(part) is None else node[part]
        if depth == 0 and part in _RECORDS:
            names = inspect.signature(_RECORDS[part][0]).parameters
        else:  # nothing lies below a record's field
            names = track_fields(node) if depth == 0 and part == "track" else ()
    for part in path:  # a record: a dict, null or absent
        data[part] = data.get(part) or {}
        data = data[part]
    data[last] = value
