"""Deterministic closed-loop scenario engine.

One control period runs: synthetic lane sensing (vision mode) or direct
path sampling (preset mode) -> centerline / moving target -> controller ->
saturation -> kinematic integration -> logging. A run is a pure function
of its Scenario: a single seeded RNG stream, no wall-clock reads.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import controllers as ctl
from . import lanefit
from .angles import wrap_angle
from .controllers import ControllerGains, SaturationLimits
from .exceptions import (
    CoincidentPoints,
    DegeneratePolyline,
    DegenerateRho,
    DisjointRanges,
    InvalidScenario,
    PathExhausted,
    TooFewPoints,
)
from .model import Pose, TargetState, Twist, integrate, polar_error, target_heading_rate
from .tracks import Track

#: Fallback linear speed when no lane line is detected (m/s).
FALLBACK_V_MIN = 0.6

#: Largest accepted sensor.clutter_rate (mean clutter points per frame):
#: far above any useful rate, and far below where rng.poisson gives up.
MAX_CLUTTER_RATE = 1000.0

#: Look-ahead geometry: primary point distance and spacing (m).
LOOKAHEAD_LEAD = 2.0
LOOKAHEAD_SPACING = 0.5

#: The trajectory CSV's columns, in file order.
CSV_COLUMNS = (
    "t", "x", "y", "phi", "v_cmd", "omega_cmd", "v_app", "omega_app",
    "x_t", "y_t", "phi_t", "phi_t_dot", "rho", "alpha", "beta", "V1", "V2",
    "sat_flag", "mode",
)
CSV_HEADER = ",".join(CSV_COLUMNS)

#: Columns kept in memory only: the Lyapunov rates and the guard flags.
DIAGNOSTIC_COLUMNS = ("V1_dot", "V2_dot", "singular_flag", "degenerate_flag")

#: Every column of a SimLog, in the order step() appends a row.
LOG_COLUMNS = CSV_COLUMNS + DIAGNOSTIC_COLUMNS


@dataclass(frozen=True)
class SensorConfig:
    """Synthetic lane-point sensor replacing the perception network."""

    point_noise_sigma: float = 0.0
    clutter_rate: float = 0.0
    frame_period: float = 0.1
    roi: tuple[float, float, float, float] = lanefit.DEFAULT_ROI
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
        if self.mode not in ("preset_path", "vision"):
            raise InvalidScenario(f"unknown mode {self.mode!r}")
        if self.controller not in ("proposed", "comparative"):
            raise InvalidScenario(f"unknown controller {self.controller!r}")
        if len(self.sensor.roi) != 4:
            raise InvalidScenario("sensor.roi must be four numbers [x_min, x_max, y_min, y_max]")
        finite = [
            ("dt", self.dt),
            ("duration_max", self.duration_max),
            ("v_t", self.v_t),
            ("initial_target_s", self.initial_target_s),
            ("sensor.point_noise_sigma", self.sensor.point_noise_sigma),
            ("sensor.clutter_rate", self.sensor.clutter_rate),
            ("sensor.frame_period", self.sensor.frame_period),
            ("sensor.sample_spacing", self.sensor.sample_spacing),
            ("sensor.min_points", self.sensor.min_points),
        ]
        finite += [
            (f"sensor.roi[{i}]", value) for i, value in enumerate(self.sensor.roi)
        ]
        finite += [
            (f"gains.{name}", getattr(self.gains, name))
            for name in ("lambda_v", "lambda_a", "k1", "k2")
        ]
        if self.limits is not None:
            finite += [
                (f"limits.{name}", getattr(self.limits, name))
                for name in ("v_min", "v_max", "omega_abs_max", "accel_max",
                             "alpha_accel_max")
            ]
        if self.initial_pose is not None:
            finite += [
                (f"initial_pose.{name}", getattr(self.initial_pose, name))
                for name in ("x", "y", "phi")
            ]
        for name, value in finite:
            if not math.isfinite(value):
                raise InvalidScenario(f"{name} must be finite, got {value!r}")
        if self.dt <= 0:
            raise InvalidScenario("dt must be > 0")
        if self.duration_max <= 0:
            raise InvalidScenario("duration_max must be > 0")
        if self.v_t <= 0:
            raise InvalidScenario("v_t must be > 0")
        if self.rng_seed < 0:
            raise InvalidScenario("rng_seed must be >= 0")
        sensor = self.sensor
        if sensor.point_noise_sigma < 0:
            raise InvalidScenario("sensor.point_noise_sigma must be >= 0")
        if sensor.clutter_rate < 0:
            raise InvalidScenario("sensor.clutter_rate must be >= 0")
        if sensor.clutter_rate > MAX_CLUTTER_RATE:
            raise InvalidScenario(f"sensor.clutter_rate must be <= {MAX_CLUTTER_RATE:g}")
        if sensor.frame_period <= 0:
            raise InvalidScenario("sensor.frame_period must be > 0")
        if sensor.sample_spacing <= 0:
            raise InvalidScenario("sensor.sample_spacing must be > 0")
        x_min, x_max, y_min, y_max = sensor.roi
        if x_min >= x_max or y_min >= y_max:
            raise InvalidScenario("sensor.roi must have x_min < x_max and y_min < y_max")
        if self.mode == "vision" and sensor.frame_period < self.dt:
            raise InvalidScenario("sensor frame_period must be >= dt")

    def start_pose(self) -> Pose:
        """The pose at t = 0, with its heading wrapped to (-pi, pi]."""
        if self.initial_pose is not None:
            x, y, phi = self.initial_pose.x, self.initial_pose.y, self.initial_pose.phi
        else:
            x, y = self.track.point_at(0.0)
            phi = self.track.heading_at(0.0)
        return Pose(x, y, wrap_angle(phi))


def write_columns(path, names, columns) -> None:
    """Write equal-length columns as CSV under a header of their names.

    Numbers are written as %.9g, so that repeated runs of a scenario give
    identical bytes; the mode column is text.
    """
    row = ",".join("%s" if name == "mode" else "%.9g" for name in names) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(row % values for values in zip(*columns))


class SimLog:
    """The log of a run: one column per name in LOG_COLUMNS, one row per step.

    log["x"] is that column as a numpy array; the flags read 0.0 or 1.0.
    """

    def __init__(self):
        self.termination_reason = "timeout"
        self._columns = {name: [] if name == "mode" else array("d") for name in LOG_COLUMNS}
        self._appends = [column.append for column in self._columns.values()]

    def __len__(self):
        return len(self._columns["t"])

    def __getitem__(self, name: str) -> np.ndarray:
        return np.array(self._columns[name])

    def append(self, row) -> None:
        """Append one step: its values in LOG_COLUMNS order."""
        for append, value in zip(self._appends, row):
            append(value)

    def to_csv(self, path) -> None:
        write_columns(path, CSV_COLUMNS, [self._columns[name] for name in CSV_COLUMNS])


def sense_lanes(
    track: Track,
    pose: Pose,
    cfg: SensorConfig,
    rng: np.random.Generator,
    s0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic lane-point sensor around the robot's arc position s0.

    Returns (left_pts, right_pts) in the vehicle frame: true boundary
    points inside the ROI, after dash-gap dropout, plus isotropic Gaussian
    noise and (inside zebra zones) uniformly scattered clutter. Either set
    may be empty. Identical (rng state, inputs) give identical output.
    """
    x_min, x_max, y_min, y_max = cfg.roi
    span_lo, span_hi = -2.0, x_max + 4.0
    n = int((span_hi - span_lo) / cfg.sample_spacing) + 1
    s = s0 + span_lo + np.arange(n) * cfg.sample_spacing
    if not track.closed:
        s = s[(s >= 0.0) & (s <= track.length)]
    visible, zebra = track.visibility(s)
    s = s[visible]
    cphi, sphi = math.cos(pose.phi), math.sin(pose.phi)

    out = {}
    for side in ("left", "right"):
        d = track.boundary_point(s, side) - (pose.x, pose.y)
        pts = np.column_stack((cphi * d[:, 0] + sphi * d[:, 1], -sphi * d[:, 0] + cphi * d[:, 1]))
        pts = lanefit.roi_filter(pts, cfg.roi)
        if cfg.point_noise_sigma > 0 and len(pts):
            pts = pts + rng.normal(0.0, cfg.point_noise_sigma, size=pts.shape)
        out[side] = pts

    if zebra.any() and cfg.clutter_rate > 0:
        clutter = {"left": [], "right": []}
        for _ in range(int(rng.poisson(cfg.clutter_rate))):
            cx = rng.uniform(x_min, x_max)
            cy = rng.uniform(y_min, y_max)
            clutter["left" if rng.random() < 0.5 else "right"].append((cx, cy))
        for side, extra in clutter.items():
            if extra:
                out[side] = np.vstack((out[side], extra))

    return out["left"], out["right"]


def advance_target(track: Track, s: float, v_t: float, dt: float) -> tuple[TargetState, float]:
    """Move the preset-path target forward by v_t * dt along the track.

    The target heading rate comes from three path samples spaced like the
    vision look-ahead points; the time base is the interval the target
    needs to cover one spacing.
    """
    s_next = s + v_t * dt
    if track.closed:
        s_next %= track.length
    elif s_next > track.length:
        raise PathExhausted(f"target s={s_next:.3f} beyond track end {track.length:.3f}")
    a = track.point_at(s_next)
    b = track.point_at(s_next + LOOKAHEAD_SPACING)
    c = track.point_at(s_next + 2.0 * LOOKAHEAD_SPACING)
    try:
        rate = target_heading_rate(a, b, c, LOOKAHEAD_SPACING / v_t)
    except CoincidentPoints:
        # open-track end: samples clamp onto the final vertex
        rate = 0.0
    return TargetState(a[0], a[1], wrap_angle(track.heading_at(s_next)), v_t, rate), s_next


def _fit_side(pts: np.ndarray, cfg: SensorConfig) -> lanefit.CubicPoly | None:
    """Sensor points -> resampled polyline -> cubic, or None if too sparse."""
    if len(pts) < cfg.min_points:
        return None
    ordered = pts[np.argsort(pts[:, 0])]
    try:
        resampled = lanefit.resample(ordered, lanefit.DEFAULT_DELTA_S)
        return lanefit.fit_cubic(resampled)
    except (DegeneratePolyline, TooFewPoints):
        return None


@dataclass
class SimState:
    """Mutable per-run state threaded through step()."""

    scenario: Scenario
    pose: Pose
    prev_applied: Twist
    rng: np.random.Generator
    k: int = 0
    target_s: float = 0.0
    target: TargetState | None = None
    centerline_mode: str = "preset"
    progress: float = 0.0
    robot_s: float = 0.0
    log: SimLog | None = None


def init_state(scenario: Scenario) -> SimState:
    scenario.validate()
    pose = scenario.start_pose()
    limits = scenario.limits
    v0 = limits.v_min if limits is not None else 0.0
    return SimState(
        scenario=scenario,
        pose=pose,
        prev_applied=Twist(v0, 0.0),
        rng=np.random.default_rng(scenario.rng_seed),
        target_s=scenario.initial_target_s,
        robot_s=scenario.track.nearest_s(pose.x, pose.y),
        log=SimLog(),
    )


def _vision_frame(state: SimState) -> None:
    """Sense, fit, synthesize the centerline and rebuild the global target."""
    sc = state.scenario
    # _update_progress has just projected this pose
    left_pts, right_pts = sense_lanes(sc.track, state.pose, sc.sensor, state.rng, state.robot_s)
    left = _fit_side(left_pts, sc.sensor)
    right = _fit_side(right_pts, sc.sensor)
    try:
        result = lanefit.centerline(left, right, sc.track.lane_width)
    except (DisjointRanges, TooFewPoints):  # no overlap wide enough to fit
        result = lanefit.CenterlineResult("none", None, None, None)
    state.centerline_mode = result.mode
    if result.mode == "none":
        state.target = None
        return

    a_v, b_v, c_v = lanefit.lookahead_points(
        result.centerline, LOOKAHEAD_LEAD, LOOKAHEAD_SPACING
    )
    cphi, sphi = math.cos(state.pose.phi), math.sin(state.pose.phi)

    def to_global(p):
        return (
            state.pose.x + cphi * p[0] - sphi * p[1],
            state.pose.y + sphi * p[0] + cphi * p[1],
        )

    a, b, c = to_global(a_v), to_global(b_v), to_global(c_v)
    phi_t = wrap_angle(math.atan2(b[1] - a[1], b[0] - a[0]))
    try:
        rate = target_heading_rate(a, b, c, sc.sensor.frame_period)
    except CoincidentPoints:
        rate = 0.0
    state.target = TargetState(a[0], a[1], phi_t, sc.v_t, rate)


def _update_progress(state: SimState) -> None:
    """Track the robot's unwrapped arc-length progress along the path."""
    sc = state.scenario
    s_new = sc.track.nearest_s(state.pose.x, state.pose.y)
    ds = s_new - state.robot_s
    if sc.track.closed:
        half = 0.5 * sc.track.length
        if ds > half:
            ds -= sc.track.length
        elif ds < -half:
            ds += sc.track.length
    state.progress += ds
    state.robot_s = s_new


def step(state: SimState) -> None:
    """Advance the closed loop by one control period and log the step."""
    sc = state.scenario
    dt = sc.dt
    t = state.k * dt

    if sc.mode == "preset_path":
        state.target, state.target_s = advance_target(sc.track, state.target_s, sc.v_t, dt)
        state.centerline_mode = "preset"
        # progress checks are cheap enough at 10 Hz (robot moves < 0.25 m)
        if state.k % 10 == 0:
            _update_progress(state)
    else:
        frame_steps = max(1, round(sc.sensor.frame_period / dt))
        if state.k % frame_steps == 0:
            _update_progress(state)
            _vision_frame(state)

    degenerate = singular = False
    tgt = state.target
    if tgt is None:
        # no detected lane: drive straight at the preset minimum speed
        v_min = sc.limits.v_min if sc.limits is not None else FALLBACK_V_MIN
        raw = Twist(v_min, 0.0)
        applied = raw
        tracked = (math.nan,) * 7  # x_t .. beta
        v1 = v2 = v1_dot = v2_dot = math.nan
    else:
        err = polar_error(state.pose, tgt)
        if sc.controller == "proposed":
            v = ctl.proposed_linear(err, tgt, sc.gains)
            try:
                omega = ctl.proposed_angular(err, tgt, sc.gains)
            except DegenerateRho:
                omega = state.prev_applied.omega
                degenerate = True
            raw = Twist(v, omega)
        else:
            try:
                raw = ctl.comparative_cmd(err, tgt, sc.gains)
            except DegenerateRho:
                raw = Twist(ctl.proposed_linear(err, tgt, sc.gains), state.prev_applied.omega)
                degenerate = True
        singular = not degenerate and ctl.singular_alpha(err, sc.controller)
        applied = raw if sc.limits is None else ctl.saturate(raw, state.prev_applied, sc.limits, dt)
        v1, v2, v1_dot, v2_dot = ctl.lyapunov_report(err, applied, tgt, sc.gains, sc.controller)
        tracked = (tgt.x_t, tgt.y_t, tgt.phi_t, tgt.phi_t_dot, err.rho, err.alpha, err.beta)

    sat = abs(applied.v - raw.v) > 1e-12 or abs(applied.omega - raw.omega) > 1e-12
    pose = state.pose
    state.log.append((
        t, pose.x, pose.y, pose.phi, raw.v, raw.omega, applied.v, applied.omega,
        *tracked, v1, v2, sat, state.centerline_mode,
        v1_dot, v2_dot, singular, degenerate,
    ))
    state.pose = integrate(pose, applied, dt)
    state.prev_applied = applied
    state.k += 1


def _lap_complete(state: SimState) -> bool:
    sc = state.scenario
    track = sc.track
    if track.closed:
        if state.progress < track.length:
            return False
        x0, y0 = track.point_at(0.0)
        return math.hypot(state.pose.x - x0, state.pose.y - y0) < 1.0
    if sc.mode == "vision":
        return state.progress >= track.length - (LOOKAHEAD_LEAD + 2 * LOOKAHEAD_SPACING)
    return False


def run(scenario: Scenario) -> SimLog:
    """Run a scenario to lap completion, path exhaustion, or timeout."""
    state = init_state(scenario)
    n_max = int(round(scenario.duration_max / scenario.dt))
    log = state.log
    for _ in range(n_max):
        try:
            step(state)
        except PathExhausted:
            log.termination_reason = "finished"
            return log
        if _lap_complete(state):
            log.termination_reason = "completed"
            return log
    log.termination_reason = "timeout"
    return log
