"""Scenario JSON schema: load, serialize, and dotted-path overrides.

The on-disk layout mirrors the Scenario type field for field (snake_case
keys, SI units, seed as a decimal integer); see docs/FORMATS.md.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .controllers import ControllerGains, SaturationLimits
from .exceptions import InvalidScenario
from .model import Pose
from .simulator import Scenario, SensorConfig
from .tracks import make_track, record_args


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
    must already exist in the scenario, so typos fail loudly.
    """
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    parts = dotted_key.split(".")
    node = data
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise KeyError(f"unknown scenario field {dotted_key!r} (at {part!r})")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise KeyError(f"unknown scenario field {dotted_key!r} (at {leaf!r})")
    node[leaf] = value
