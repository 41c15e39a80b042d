"""The scenario: its types, its rules, and its JSON schema (load,
serialize, and dotted-path overrides).

The on-disk layout mirrors the Scenario type field for field (snake_case
keys, SI units, seed as a decimal integer); see docs/FORMATS.md. Every
field is checked once, in Scenario.validate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .angles import wrap_angle
from .exceptions import InvalidScenario, UnknownField
from .model import Pose
from .tracks import Track, is_finite_number, make_track, record_args

#: Default region of interest in the vehicle frame (x forward, y left).
DEFAULT_ROI = (0.0, 10.0, -5.0, 5.0)

#: Arc-length interval at which a sensed lane is resampled before its
#: cubic fit (m).
DEFAULT_DELTA_S = 0.25

#: Largest accepted sensor.clutter_rate (mean clutter points per frame):
#: far above any useful rate, and far below where rng.poisson gives up.
MAX_CLUTTER_RATE = 1000.0

#: Most arc positions sense_lanes may sample per frame, (x_max + 6) /
#: sample_spacing: far above any shipped scenario or test (64).
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
    roi: tuple[float, float, float, float] = DEFAULT_ROI
    sample_spacing: float = 0.25
    min_points: int = 4


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
        pose = self.initial_pose
        records = {"sensor": asdict(self.sensor), "gains": asdict(self.gains),
                   "limits": asdict(self.limits) if self.limits is not None else {},
                   "initial_pose": pose._asdict() if pose is not None else {}}
        for group, record in records.items():
            values.update((f"{group}.{name}", value) for name, value in record.items())
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
        sensor = self.sensor
        if sensor.clutter_rate > MAX_CLUTTER_RATE:
            raise InvalidScenario(f"sensor.clutter_rate must be <= {MAX_CLUTTER_RATE:g}")
        x_min, x_max, y_min, y_max = roi
        if x_min >= x_max or y_min >= y_max:
            raise InvalidScenario("sensor.roi must have x_min < x_max and y_min < y_max")
        # sense_lanes samples from 2 m behind to x_max + 4 m ahead
        samples = (x_max + 6.0) / sensor.sample_spacing
        if samples > MAX_FRAME_SAMPLES:
            raise InvalidScenario("(sensor.roi x_max + 6) / sensor.sample_spacing must be "
                                  f"<= {MAX_FRAME_SAMPLES}, got {samples:.3g}")
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


def scenario_to_dict(sc: Scenario, track_spec: dict | None = None) -> dict:
    """Serialize a Scenario; track_spec is the JSON track description."""
    if track_spec is None:
        track_spec = {
            "kind": "polyline",
            "points": sc.track.reference_path.tolist(),
            "closed": sc.track.closed,
            "lane_width": sc.track.lane_width,
            "segments": [asdict(s) for s in sc.track.segments],
        }
    pose = sc.start_pose()
    return {
        "track": track_spec,
        "mode": sc.mode,
        "v_t": sc.v_t,
        "gains": asdict(sc.gains),
        "limits": asdict(sc.limits) if sc.limits is not None else None,
        "dt": sc.dt,
        "duration_max": sc.duration_max,
        "initial_pose": pose._asdict(),
        "controller": sc.controller,
        "sensor": {**asdict(sc.sensor), "roi": list(sc.sensor.roi)},
        "rng_seed": sc.rng_seed,
        "initial_target_s": sc.initial_target_s,
    }


def scenario_from_dict(data: dict) -> Scenario:
    try:
        record_args(data, "", Scenario)
        track = make_track(data["track"])
        sensor_data = dict(record_args(data.get("sensor", {}), "sensor", SensorConfig))
        if isinstance(sensor_data.get("roi"), list):
            sensor_data["roi"] = tuple(sensor_data["roi"])
        limits_data = data.get("limits")
        pose_data = data.get("initial_pose")
        sc = Scenario(
            track=track,
            mode=data["mode"],
            v_t=data["v_t"],
            gains=ControllerGains(**record_args(data.get("gains", {}), "gains", ControllerGains)),
            limits=(None if limits_data is None else
                    SaturationLimits(**record_args(limits_data, "limits", SaturationLimits))),
            dt=data.get("dt", 0.01),
            duration_max=data.get("duration_max", 300.0),
            initial_pose=(None if pose_data is None else
                          Pose(**record_args(pose_data, "initial_pose", Pose))),
            controller=data.get("controller", "proposed"),
            sensor=SensorConfig(**sensor_data),
            rng_seed=data.get("rng_seed", 0),
            initial_target_s=data.get("initial_target_s", 2.0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScenario(f"bad scenario data: {exc}") from exc
    sc.validate()
    return sc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(load_scenario_dict(path))


def load_scenario_dict(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def apply_override(data: dict, dotted_key: str, raw_value: str) -> None:
    """Apply one key=value override to a scenario dict, in place.

    The key is a dotted path (e.g. sensor.point_noise_sigma); the value is
    parsed as JSON when possible, else kept as a string. Every path element
    must already exist in the scenario, so typos fail loudly: UnknownField,
    a KeyError.
    """
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = data
    for part in dotted_key.split("."):
        if not isinstance(node, dict) or part not in node:
            raise UnknownField(f"unknown scenario field {dotted_key!r} (at {part!r})")
        parent, node = node, node[part]
    parent[part] = value
