"""Deterministic closed-loop scenario engine.

One control period runs: synthetic lane sensing (vision mode) or direct
path sampling (preset mode) -> centerline / moving target -> controller ->
saturation -> kinematic integration -> logging. A run is a pure function
of its Scenario and reads no wall clock. A vision run draws its sensor
noise and clutter from one stream seeded by rng_seed; a preset run makes
no generator, so its seed changes no output. Progress along the path
projects the first pose globally, and walks each later sampled pose on
from the last one's foot segment, so it keeps to the branch driven.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

import numpy as np

from . import controllers as ctl
from . import lanefit
from .angles import wrap_angle
from .exceptions import (
    DegeneratePolyline,
    DisjointRanges,
    PathExhausted,
    TooFewPoints,
    TooManyPoints,
)
from .model import Pose, TargetState, Twist, integrate, target_heading_rate
from .scenario import DEFAULT_DELTA_S, SENSE_AHEAD, SENSE_BEHIND, Scenario, SensorConfig
from .tracks import Track

#: Fallback linear speed when no lane line is detected (m/s).
FALLBACK_V_MIN = 0.6

#: Look-ahead geometry: primary point distance and spacing (m).
LOOKAHEAD_LEAD = 2.0
LOOKAHEAD_SPACING = 0.5

#: Steps of preset-path target motion computed per advance_target call.
TARGET_BLOCK = 256

#: The columns of a SimLog and of the trajectory CSV, in file order.
CSV_COLUMNS = (
    "t", "x", "y", "phi", "v_cmd", "omega_cmd", "v_app", "omega_app",
    "x_t", "y_t", "phi_t", "phi_t_dot", "rho", "alpha", "beta", "V1", "V2",
    "sat_flag", "mode",
)

#: The numbers of a row as step() appends it: every column but the last,
#: mode.
NUMERIC_COLUMNS = CSV_COLUMNS[:-1]
_NUMERIC_INDEX = {name: k for k, name in enumerate(NUMERIC_COLUMNS)}

#: A fallback row's values from x_t on: no target, no law, no flag.
_UNTRACKED = (math.nan,) * 9 + (False,)


def write_csv(path, names, rows) -> None:
    """Write CSV under a header of the column names, one line per row of
    values in rows.

    Numbers are written as %.9g, so that repeated runs of a scenario give
    identical bytes; the mode column is text.
    """
    row = ",".join("%s" if name == "mode" else "%.9g" for name in names) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(row % values for values in rows)


class SimLog:
    """The log of a run, one row per step, with the columns of the
    trajectory CSV (CSV_COLUMNS) and no others.

    step() appends each row to the two stores: its numbers (NUMERIC_COLUMNS)
    to values, one array("d") kept row-major, and its mode to modes, a
    list. log["x"] is a column as a numpy array, and rows() the rows the
    CSV files are written from; sat_flag reads 0.0 or 1.0.
    """

    def __init__(self):
        self.termination_reason = "timeout"
        self.values = array("d")
        self.modes = []

    def __len__(self):
        return len(self.modes)

    def __getitem__(self, name: str) -> np.ndarray:
        if name == "mode":
            return np.array(self.modes)
        k = _NUMERIC_INDEX[name]
        # the copy lets go of the buffer, so that the array can grow again
        return np.frombuffer(self.values)[k::len(NUMERIC_COLUMNS)].copy()

    def rows(self, names=CSV_COLUMNS):
        """The rows of the named columns, one tuple per step, read in order
        from values and modes, so that no copy of the table is made."""
        rows = zip(*[iter(self.values)] * len(NUMERIC_COLUMNS), self.modes)
        if names == CSV_COLUMNS:
            return rows
        return map(itemgetter(*map(CSV_COLUMNS.index, names)), rows)

    def to_csv(self, path) -> None:
        write_csv(path, CSV_COLUMNS, self.rows())


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
    n = int((x_max + SENSE_AHEAD + SENSE_BEHIND) / cfg.sample_spacing) + 1
    s = np.arange(n) * cfg.sample_spacing + (s0 - SENSE_BEHIND)
    if not track.closed:
        s = s[(s >= 0.0) & (s <= track.length)]
    visible, zebra = track.visibility(s)
    s = s[visible]
    cphi, sphi = math.cos(pose.phi), math.sin(pose.phi)

    # both sides at once, as (2, n, 2) arrays: left, then right. They are
    # views of coordinate planes (see Track._locate_many), so each x or y
    # below is one contiguous (2, n) array.
    d = track.boundary_point(s)
    dx, dy = d[..., 0], d[..., 1]
    dx -= pose.x
    dy -= pose.y
    rotated = np.empty_like(d)
    xv, yv = rotated[..., 0], rotated[..., 1]
    np.multiply(cphi, dx, out=xv)
    np.multiply(cphi, dy, out=yv)
    dx *= -sphi
    dy *= sphi
    xv += dy
    yv += dx
    keep = lanefit.in_roi(xv, yv, cfg.roi)
    pts = rotated[keep]
    n_left = int(np.count_nonzero(keep[0]))
    if cfg.point_noise_sigma > 0 and len(pts):
        # one draw for both sides: the generator fills it in order, so the
        # left rows get the numbers a draw for the left side alone would
        pts += rng.normal(0.0, cfg.point_noise_sigma, size=pts.shape)
    left, right = pts[:n_left], pts[n_left:]

    if zebra.any() and cfg.clutter_rate > 0:
        clutter = {"left": [], "right": []}
        for _ in range(int(rng.poisson(cfg.clutter_rate))):
            cx = rng.uniform(x_min, x_max)
            cy = rng.uniform(y_min, y_max)
            clutter["left" if rng.random() < 0.5 else "right"].append((cx, cy))
        if clutter["left"]:
            left = np.vstack((left, clutter["left"]))
        if clutter["right"]:
            right = np.vstack((right, clutter["right"]))

    return left, right


def advance_target(
    track: Track, s: float, v_t: float, dt: float
) -> tuple[list[TargetState], float]:
    """The next TARGET_BLOCK targets of the preset-path target, and the arc
    position of the last one.

    The target starts at arc position s and moves v_t * dt along the track
    per step: on a closed track each position is wrapped by % length. On an
    open track the block ends before the first position beyond the end;
    PathExhausted is raised when there is none left.

    Each target's heading rate is target_heading_rate of the chords between
    three path samples spaced like the vision look-ahead points; the time
    base is the interval the target needs to cover one spacing. At the end
    of an open track the samples clamp onto the last vertex, coincide, and
    give 0.0.
    """
    length = track.length
    ds = v_t * dt
    arc = []
    for _ in range(TARGET_BLOCK):
        s = s + ds
        if track.closed:
            s %= length
        elif s > length:
            break
        arc.append(s)
    if not arc:
        raise PathExhausted(f"target s={s:.3f} beyond track end {length:.3f}")
    arc = np.array(arc)
    n = len(arc)
    xy, heading = track.points_at(np.concatenate((arc, arc + LOOKAHEAD_SPACING,
                                                  arc + 2.0 * LOOKAHEAD_SPACING)))
    # x and y planes of the samples A, B and C, and the chords A->B and B->C
    planes = xy.T.reshape(2, 3, n)
    (abx, bcx), (aby, bcy) = (planes[:, 1:] - planes[:, :-1]).tolist()
    rate = map(target_heading_rate, abx, aby, bcx, bcy, repeat(LOOKAHEAD_SPACING / v_t, n))
    x, y = planes[:, 0].tolist()
    rows = zip(x, y, wrap_angle(heading[:n]).tolist(), repeat(v_t, n), rate)
    # tuple.__new__ builds each TargetState from its row in C, without the
    # Python-level __new__ of a NamedTuple
    return list(map(tuple.__new__, repeat(TargetState, n), rows)), arc.item(-1)


def _fit_side(pts: np.ndarray, cfg: SensorConfig) -> lanefit.CubicPoly | None:
    """Sensor points -> resampled polyline -> cubic, or None if too sparse,
    or spread too far (by noise far beyond the ROI) to resample."""
    if len(pts) < cfg.min_points:
        return None
    ordered = pts.take(pts[:, 0].argsort(), axis=0)
    try:
        resampled = lanefit.resample(ordered, DEFAULT_DELTA_S)
        return lanefit.fit_cubic(resampled)
    except (DegeneratePolyline, TooFewPoints, TooManyPoints):
        return None


@dataclass(slots=True)
class SimState:
    """Mutable per-run state threaded through step()."""

    scenario: Scenario
    pose: Pose
    prev_applied: Twist
    #: the vision-mode sensor stream; None in a preset run, which draws nothing
    rng: np.random.Generator | None
    k: int = 0
    #: arc position of the last preset-path target computed, where the
    #: next block starts
    target_s: float = 0.0
    target: TargetState | None = None
    #: preset-path targets computed ahead, the next one last
    targets: list[TargetState] = field(default_factory=list)
    centerline_mode: str = "preset"
    #: control steps per vision frame: a frame runs when k is a multiple
    frame_steps: int = 1
    progress: float = 0.0
    #: the arc position and segment of the last sampled pose's foot point
    robot_s: float = 0.0
    foot: int = 0
    #: the path point at s = 0, where a closed-track lap ends
    start_xy: tuple[float, float] = (0.0, 0.0)
    log: SimLog | None = None


def init_state(scenario: Scenario) -> SimState:
    scenario.validate()
    pose = scenario.start_pose()
    limits = scenario.limits
    v0 = limits.v_min if limits is not None else 0.0
    foot, robot_s = scenario.track._nearest(pose[:2])
    return SimState(
        scenario=scenario,
        pose=pose,
        prev_applied=Twist(v0, 0.0),
        rng=(np.random.default_rng(scenario.rng_seed)
             if scenario.mode == "vision" else None),
        target_s=scenario.initial_target_s,
        frame_steps=(max(1, round(scenario.sensor.frame_period / scenario.dt))
                     if scenario.mode == "vision" else 1),
        robot_s=robot_s,
        foot=foot,
        start_xy=scenario.track.point_at(0.0),
        log=SimLog(),
    )


def _vision_frame(state: SimState) -> None:
    """Sense, fit, synthesize the centerline and rebuild the global target."""
    sc = state.scenario
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
    abx, aby = b[0] - a[0], b[1] - a[1]
    rate = target_heading_rate(abx, aby, c[0] - b[0], c[1] - b[1], sc.sensor.frame_period)
    state.target = TargetState(a[0], a[1], wrap_angle(math.atan2(aby, abx)), sc.v_t, rate)


def _update_progress(state: SimState) -> None:
    """Walk robot_s on to the current pose's foot point (Track.walk_s), and
    add the step to the unwrapped progress: on a closed track the shorter
    way round, which math.remainder takes exactly."""
    track = state.scenario.track
    state.foot, s_new = track.walk_s(state.pose[:2], state.foot)
    ds = s_new - state.robot_s
    if track.closed:
        ds = math.remainder(ds, track.length)
    state.progress += ds
    state.robot_s = s_new


def step(state: SimState) -> None:
    """Advance the closed loop by one control period and log the step."""
    sc = state.scenario
    dt = sc.dt
    t = state.k * dt

    if sc.mode == "preset_path":
        if not state.targets:
            targets, state.target_s = advance_target(sc.track, state.target_s, sc.v_t, dt)
            state.targets = targets[::-1]
        state.target = state.targets.pop()
        if state.k % 10 == 0:
            # progress samples the pose every tenth step, < 0.25 m apart
            _update_progress(state)
    elif state.k % state.frame_steps == 0:
        # sensing reads robot_s, so the frame's pose is projected first
        _update_progress(state)
        _vision_frame(state)

    pose = state.pose
    tgt = state.target
    if tgt is None:
        # no detected lane: drive straight at the preset minimum speed
        v_min = sc.limits.v_min if sc.limits is not None else FALLBACK_V_MIN
        applied = tuple.__new__(Twist, (v_min, 0.0))
        row = [t, *pose, v_min, 0.0, v_min, 0.0, *_UNTRACKED]
    else:
        v_cmd, w_cmd, v_app, w_app, rho, alpha, beta, v1, v2, sat = ctl.control_step(
            pose, tgt, state.prev_applied, sc.gains, sc.limits, dt, sc.controller)
        applied = tuple.__new__(Twist, (v_app, w_app))
        x, y, phi = pose
        x_t, y_t, phi_t, _, phi_t_dot = tgt
        row = [t, x, y, phi, v_cmd, w_cmd, v_app, w_app, x_t, y_t, phi_t, phi_t_dot,
               rho, alpha, beta, v1, v2, sat]
    log = state.log
    # fromlist takes a list about twice as fast as extend a tuple
    log.values.fromlist(row)
    log.modes.append(state.centerline_mode)
    state.pose = integrate(pose, applied, dt)
    state.prev_applied = applied
    state.k += 1


def _lap_complete(state: SimState) -> bool:
    sc = state.scenario
    track = sc.track
    if track.closed:
        x0, y0 = state.start_xy
        near = math.hypot(state.pose.x - x0, state.pose.y - y0) < 1.0
        return near and not state.progress < track.length
    if sc.mode == "vision":
        return state.progress >= track.length - (LOOKAHEAD_LEAD + 2 * LOOKAHEAD_SPACING)
    return False


def run(scenario: Scenario) -> SimLog:
    """Run a scenario to lap completion, path exhaustion, or timeout."""
    state = init_state(scenario)
    n_max = round(scenario.duration_max / scenario.dt)  # validate bounds it
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
