import filecmp
import functools
import math
import tempfile
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from polylines import (bits, cumulative_arclength, descend, full_scan, gerono_lemniscate,
                       hairpin, log_guards, point_heading_rate, polylines, unit_square)

from lanetrack import controllers as ctl, metrics, simulator
from lanetrack.angles import wrap_angle
from lanetrack.cli import _read_log_csv
from lanetrack.controllers import ControllerGains, SaturationLimits
from lanetrack.exceptions import InvalidScenario, PathExhausted
from lanetrack.model import PolarError, Pose, TargetState, Twist
from lanetrack.scenario import MAX_CLUTTER_RATE, MAX_FRAME_SAMPLES, MAX_STEPS, load_scenario
from lanetrack.simulator import (
    CSV_COLUMNS,
    FALLBACK_V_MIN,
    LOOKAHEAD_SPACING,
    TARGET_BLOCK,
    Scenario,
    SensorConfig,
    SimLog,
    _fit_side,
    advance_target,
    init_state,
    run,
    sense_lanes,
    step,
)
from lanetrack.tracks import (
    StyleSegment,
    Track,
    circle_track,
    figure_course,
    make_track,
    oval_track,
    straight_track,
)


def _preset(track=None, **kw):
    base = dict(
        track=track or oval_track(),
        mode="preset_path",
        v_t=1.5,
        limits=SaturationLimits(v_max=1.75),
        dt=0.01,
        duration_max=5.0,
    )
    base.update(kw)
    return Scenario(**base)


def _first_step(log):
    """The first logged step, as {column name: value}."""
    return {name: log[name][0] for name in CSV_COLUMNS}


# -------------------------------------------------------------- sensor model


def test_sense_lanes_noiseless_straight():
    track = straight_track(50.0)
    pose = Pose(10.0, 0.0, 0.0)
    rng = np.random.default_rng(0)
    left, right = sense_lanes(track, pose, SensorConfig(), rng, 10.0)
    assert len(left) and len(right)
    assert np.allclose(left[:, 1], 1.75, atol=1e-9)
    assert np.allclose(right[:, 1], -1.75, atol=1e-9)
    x_min, x_max, y_min, y_max = SensorConfig().roi
    for pts in (left, right):
        assert (pts[:, 0] >= x_min).all() and (pts[:, 0] <= x_max).all()


def test_sense_lanes_reproducible_with_seed():
    track = straight_track(50.0)
    pose = Pose(10.0, 0.2, 0.05)
    cfg = SensorConfig(point_noise_sigma=0.05)
    a = sense_lanes(track, pose, cfg, np.random.default_rng(9), 10.0)
    b = sense_lanes(track, pose, cfg, np.random.default_rng(9), 10.0)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_sense_lanes_dotted_gap_drops_points():
    full = straight_track(50.0)
    gappy = straight_track(50.0)
    gappy.segments = [StyleSegment(0.0, 50.0, "dotted", dash_len=0.5, gap_len=2.0)]
    pose = Pose(10.0, 0.0, 0.0)
    rng = np.random.default_rng(0)
    n_full = len(sense_lanes(full, pose, SensorConfig(), rng, 10.0)[0])
    n_gap = len(sense_lanes(gappy, pose, SensorConfig(), rng, 10.0)[0])
    assert 0 < n_gap < n_full


def test_sense_lanes_zebra_adds_clutter():
    track = straight_track(50.0)
    track.segments = [StyleSegment(5.0, 20.0, "zebra_clutter")]
    pose = Pose(10.0, 0.0, 0.0)
    cfg = SensorConfig(clutter_rate=20.0)
    clean = sense_lanes(track, pose, SensorConfig(), np.random.default_rng(3), 10.0)
    noisy = sense_lanes(track, pose, cfg, np.random.default_rng(3), 10.0)
    assert len(noisy[0]) + len(noisy[1]) > len(clean[0]) + len(clean[1])


def _scalar_sense_lanes(track, pose, cfg, rng, s0):
    """sense_lanes as the per-sample loop over scalar track queries that the
    array version replaced: the one bit-level oracle of sense_lanes."""
    x_min, x_max, y_min, y_max = cfg.roi
    span_lo, span_hi = -2.0, x_max + 4.0
    n = int((span_hi - span_lo) / cfg.sample_spacing) + 1
    cphi, sphi = math.cos(pose.phi), math.sin(pose.phi)
    half = 0.5 * track.lane_width
    sides = {"left": [], "right": []}
    zebra_in_view = False
    for k in range(n):
        s = s0 + span_lo + k * cfg.sample_spacing
        if not track.closed and (s < 0.0 or s > track.length):
            continue
        wrapped = s % track.length if track.closed else s
        zone = next((seg for seg in track.segments if seg.s_lo <= wrapped < seg.s_hi), None)
        if zone is not None and zone.style == "zebra_clutter":
            zebra_in_view = True
        if zone is not None and zone.style == "dotted":
            period = zone.dash_len + zone.gap_len
            if period <= 0 or zone.dash_len <= 0:
                continue
            if not (s - zone.s_lo) % period < zone.dash_len:
                continue
        x, y = track.point_at(s)
        phi = track.points_at(s)[1].item()
        for side, sign in (("left", 1.0), ("right", -1.0)):
            dx = x - sign * half * math.sin(phi) - pose.x
            dy = y + sign * half * math.cos(phi) - pose.y
            xv = cphi * dx + sphi * dy
            yv = -sphi * dx + cphi * dy
            if x_min <= xv <= x_max and y_min <= yv <= y_max:
                sides[side].append((xv, yv))

    out = {}
    for side in ("left", "right"):
        pts = np.asarray(sides[side], dtype=float).reshape(-1, 2)
        if cfg.point_noise_sigma > 0 and len(pts):
            pts = pts + rng.normal(0.0, cfg.point_noise_sigma, size=pts.shape)
        out[side] = pts
    if zebra_in_view and cfg.clutter_rate > 0:
        for _ in range(int(rng.poisson(cfg.clutter_rate))):
            cx = rng.uniform(x_min, x_max)
            cy = rng.uniform(y_min, y_max)
            side = "left" if rng.random() < 0.5 else "right"
            out[side] = np.vstack((out[side], [[cx, cy]]))
    return out["left"], out["right"]


_FIXTURE_PATHS = [
    (straight_track(30.0).reference_path, False),
    (circle_track(8.0).reference_path, True),
    (oval_track().reference_path, True),
]


@st.composite
def style_segments(draw, length):
    """Up to four solid, dotted and zebra zones, overlapping or not, some
    reaching past either end of the track."""
    zones = []
    for _ in range(draw(st.integers(0, 4))):
        s_lo = draw(st.floats(-5.0, length + 5.0))
        zones.append(StyleSegment(
            s_lo,
            s_lo + draw(st.floats(0.5, 30.0)),
            draw(st.sampled_from(["solid", "dotted", "zebra_clutter"])),
            dash_len=draw(st.sampled_from([0.0, 0.3, 0.8, 1.0])),
            gap_len=draw(st.sampled_from([0.0, 0.5, 1.2])),
        ))
    return zones


@st.composite
def sensing_frames(draw):
    """(track, pose, sensor, seed, s0) around a random arc position, which
    on a closed track may lie laps past the seam and on an open one past
    either end."""
    kind = draw(st.sampled_from(["figure_course", "fixture", "random"]))
    if kind == "figure_course":
        track = figure_course()
    else:
        if kind == "fixture":
            path, closed = draw(st.sampled_from(_FIXTURE_PATHS))
        else:
            path, closed = draw(polylines()), draw(st.booleans())
            assume(np.any(np.diff(path, axis=0) != 0.0))
        track = Track(path, lane_width=draw(st.sampled_from([1.0, 3.5])), closed=closed)
        track.segments = draw(style_segments(track.length))
    L = track.length
    s0 = draw(st.floats(-2.0 * L, 3.0 * L) if track.closed else st.floats(-15.0, L + 15.0))
    x, y = track.point_at(s0)
    pose = Pose(
        x + draw(st.floats(-2.0, 2.0)),
        y + draw(st.floats(-2.0, 2.0)),
        draw(st.floats(-math.pi, math.pi)),
    )
    x_min = draw(st.floats(-3.0, 2.0))
    y_min = draw(st.floats(-6.0, -0.5))
    sensor = SensorConfig(
        point_noise_sigma=draw(st.sampled_from([0.0, 0.05])),
        clutter_rate=draw(st.sampled_from([0.0, 3.0, 20.0])),
        roi=(x_min, x_min + draw(st.floats(0.5, 12.0)), y_min, y_min + draw(st.floats(1.0, 10.0))),
        sample_spacing=draw(st.sampled_from([0.1, 0.25, 0.37])),
    )
    return track, pose, sensor, draw(st.integers(0, 2**32)), s0


def _pts_bits(pts):
    return pts.shape, bits(*pts.ravel())


def _frame_at(track, s, dy=0.0, dphi=0.0, **sensor):
    x, y = track.point_at(s)
    phi = track.points_at(s)[1].item()
    return track, Pose(x, y + dy, phi + dphi), SensorConfig(**sensor), 5, s


# the zebra zone [38, 44) of figure_course in view, with noise and clutter
_ZEBRA_FRAME = _frame_at(figure_course(), 36.0, 0.2, 0.05, point_noise_sigma=0.05,
                         clutter_rate=20.0)
# a ROI left of the path: the right side is empty, and its noise draw too
_LEFT_ONLY_FRAME = _frame_at(figure_course(), 60.0, point_noise_sigma=0.05,
                             roi=(0.0, 10.0, 0.5, 5.0))
# an open track seen from past its end: every sample is clamped away
_PAST_THE_END_FRAME = _frame_at(straight_track(30.0), 30.0, point_noise_sigma=0.05)
_PAST_THE_END_FRAME = _PAST_THE_END_FRAME[:4] + (60.0,)


@settings(max_examples=300, deadline=None)
@given(frame=sensing_frames())
@example(frame=_ZEBRA_FRAME)
@example(frame=_LEFT_ONLY_FRAME)
@example(frame=_PAST_THE_END_FRAME)
def test_sense_lanes_matches_scalar_loop(frame):
    """sense_lanes gives the scalar loop's points, bit for bit, and leaves
    the RNG where it does: noise, clutter, zones, empty sides and frames
    with no sample at all."""
    track, pose, sensor, seed, s0 = frame
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sense_lanes(track, pose, sensor, rng, s0)
    want = _scalar_sense_lanes(track, pose, sensor, rng_ref, s0)
    for pts, ref in zip(got, want):
        assert pts.dtype == np.float64
        assert _pts_bits(pts) == _pts_bits(ref)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_one_pass_examples_cover_an_empty_frame():
    track, pose, sensor, seed, s0 = _PAST_THE_END_FRAME
    left, right = sense_lanes(track, pose, sensor, np.random.default_rng(seed), s0)
    assert left.shape == right.shape == (0, 2)


def test_per_side_examples_cover_noise_clutter_and_an_empty_side():
    track, pose, sensor, seed, s0 = _ZEBRA_FRAME
    clean = sense_lanes(track, pose, SensorConfig(), np.random.default_rng(seed), s0)
    noisy = sense_lanes(track, pose, sensor, np.random.default_rng(seed), s0)
    assert min(map(len, clean)) > 0 and len(noisy[0]) + len(noisy[1]) > sum(map(len, clean))
    track, pose, sensor, seed, s0 = _LEFT_ONLY_FRAME
    left, right = sense_lanes(track, pose, sensor, np.random.default_rng(seed), s0)
    assert len(left) > 0 and right.shape == (0, 2)


def test_sensor_config_validation():
    cases = [
        (SensorConfig(point_noise_sigma=-0.1), "point_noise_sigma must be >= 0"),
        (SensorConfig(clutter_rate=-1.0), "clutter_rate must be >= 0"),
        (SensorConfig(clutter_rate=MAX_CLUTTER_RATE * 1.001), "clutter_rate must be <= 1000"),
        (SensorConfig(frame_period=0.0), "frame_period must be > 0"),
        (SensorConfig(sample_spacing=0.0), "sample_spacing must be > 0"),
        (SensorConfig(sample_spacing=-0.25), "sample_spacing must be > 0"),
        (SensorConfig(roi=(0.0, 10.0)), "roi must be four numbers"),
        (SensorConfig(roi=(0.0, 10.0, -5.0, 5.0, 1.0)), "roi must be four numbers"),
        (SensorConfig(roi="abcd"), "roi must be four numbers"),
        (SensorConfig(roi=(10.0, 10.0, -5.0, 5.0)), "x_min < x_max and y_min < y_max"),
        (SensorConfig(roi=(0.0, 10.0, 5.0, -5.0)), "x_min < x_max and y_min < y_max"),
        (SensorConfig(roi=(0.0, True, -5.0, 5.0)), r"^sensor\.roi\[1\] must be a finite number"),
        (SensorConfig(min_points="4"), r"^sensor\.min_points must be a finite number"),
    ]
    for sensor, message in cases:
        for mode in ("preset_path", "vision"):
            with pytest.raises(InvalidScenario, match=message):
                _preset(mode=mode, sensor=sensor).validate()
    _preset(sensor=SensorConfig(roi=[0.0, 10.0, -5.0, 5.0])).validate()  # a list is four numbers too


# ------------------------------------------------------------- target motion


def test_advance_target_speed_along_track():
    track = oval_track()
    targets, s_last = advance_target(track, 2.0, 1.5, 0.01)
    assert s_last == pytest.approx(2.0 + len(targets) * 0.015)
    tgt = targets[0]
    assert (tgt.x_t, tgt.y_t) == pytest.approx(track.point_at(2.015))
    assert tgt.v_t == 1.5
    assert tgt.phi_t_dot == pytest.approx(0.0, abs=1e-9)  # on the straight


def test_advance_target_circle_heading_rate():
    R, v = 15.0, 1.5
    track = circle_track(R)
    tgt = advance_target(track, 5.0, v, 0.01)[0][0]
    assert tgt.phi_t_dot == pytest.approx(v / R, rel=2e-2)


def test_phi_t_dot_time_base_per_mode():
    """phi_t_dot is the heading change between the chords of look-ahead
    points LOOKAHEAD_SPACING apart, about LOOKAHEAD_SPACING / R on a
    circle, over a time base set by the mode: LOOKAHEAD_SPACING / v_t, the
    time the target takes to cover one spacing, in preset mode, and
    frame_period in vision mode (docs/FORMATS.md)."""
    R, v_t = 15.0, 1.5
    track = circle_track(R)
    turn = LOOKAHEAD_SPACING / R
    tgt = advance_target(track, 2.0, v_t, 0.01)[0][0]
    assert tgt.phi_t_dot * (LOOKAHEAD_SPACING / v_t) == pytest.approx(turn, rel=1e-3)
    for frame_period in (0.05, 0.1, 0.2):
        sc = Scenario(track=track, mode="vision", v_t=v_t, dt=0.01,
                      sensor=SensorConfig(frame_period=frame_period))
        state = init_state(sc)
        step(state)  # one noise-free frame, sensed from the start pose
        assert state.centerline_mode == "both_lanes"
        assert state.target.phi_t_dot * frame_period == pytest.approx(turn, rel=1e-2)


def test_advance_target_wraps_closed_track():
    track = oval_track()
    targets, s_last = advance_target(track, track.length - 0.005, 1.5, 0.01)
    assert (targets[0].x_t, targets[0].y_t) == pytest.approx(track.point_at(0.01), abs=1e-9)
    assert s_last == pytest.approx(0.01 + (len(targets) - 1) * 0.015, abs=1e-9)


def test_advance_target_wraps_every_lap_of_a_block():
    """A block that laps a closed track many times wraps each sum that
    reaches the length, as the scalar steps do: on a track 1 m round, at
    0.25 m per step, every fourth position is 0.0, never 1.0."""
    track = Track(np.array([[0.0, 0.0], [0.25, 0.0], [0.25, 0.25], [0.0, 0.25], [0.0, 0.0]]),
                  closed=True)
    assert track.length == 1.0
    targets, s_last = advance_target(track, 0.0, 0.5, 0.5)
    assert len(targets) == TARGET_BLOCK and bits(s_last) == bits(0.0)
    s = 0.0
    for target in targets:
        want, s = _advance_target_scalar(track, s, 0.5, 0.5)
        assert bits(*target) == bits(*want)


def _advance_target_scalar(track, s, v_t, dt):
    """advance_target as one step at a time, with scalar track queries and
    the per-point heading rate: the reference for the block version."""
    s_next = s + v_t * dt
    if track.closed:
        s_next %= track.length
    elif s_next > track.length:
        raise PathExhausted(f"target s={s_next:.3f} beyond track end {track.length:.3f}")
    a = track.point_at(s_next)
    b = track.point_at(s_next + LOOKAHEAD_SPACING)
    c = track.point_at(s_next + 2.0 * LOOKAHEAD_SPACING)
    rate = point_heading_rate(a, b, c, LOOKAHEAD_SPACING / v_t)
    phi = track.points_at(s_next)[1].item()
    return TargetState(a[0], a[1], wrap_angle(phi), v_t, rate), s_next


_DEFAULT_OVAL = oval_track()


@st.composite
def target_runs(draw):
    """(track, s, v_t, dt, steps): a closed track with the target starting
    near its seam, or an open one with it starting within a block of the end."""
    if draw(st.booleans()):
        path, closed = draw(st.sampled_from(_FIXTURE_PATHS))
    else:
        path, closed = draw(polylines()), draw(st.booleans())
        assume(np.any(np.diff(path, axis=0) != 0.0))
    track = Track(path, closed=closed)
    v_t = draw(st.sampled_from([0.3, 1.5, 2.0]) | st.floats(0.05, 8.0))
    dt = draw(st.sampled_from([0.01, 0.02, 0.1]) | st.floats(1e-3, 0.2))
    L = track.length
    if closed:
        ds = v_t * dt
        s = draw(st.floats(L - 3.0 * ds, L) | st.floats(-ds, ds) | st.floats(-L, 2.0 * L))
    else:
        s = draw(st.floats(L - TARGET_BLOCK * v_t * dt, L + 0.1))
    return track, s, v_t, dt, draw(st.integers(1, 2 * TARGET_BLOCK + 20))


def _target_bits(target):
    if target is None:
        return None
    assert all(type(value) is float for value in target)
    return bits(*target)


@settings(max_examples=200, deadline=None)
@given(case=target_runs())
@example(case=(straight_track(30.0), 30.0 - 0.01, 1.5, 0.01, 5))
@example(case=(circle_track(8.0), circle_track(8.0).length - 1e-12, 1.5, 0.01, 300))
# every other target lands exactly on a vertex, where the heading turns
@example(case=(Track(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0]])), 0.0, 1.0, 0.5, 10))
# the first sum is -1.7e-18, which % rounds up to length itself: the first
# target is the path's start
@example(case=(_DEFAULT_OVAL, float(np.nextafter(-0.015, -1.0)), 1.5, 0.01, 5))
# the third sum lands exactly on length, which % takes to 0.0
@example(case=(_DEFAULT_OVAL, _DEFAULT_OVAL.length - 3 * 0.015, 1.5, 0.01, 5))
def test_advance_target_blocks_match_scalar_steps(case):
    """Taken one per step as step() takes them, the blocks give the scalar
    steps' targets bit for bit, each block's last position is the scalar
    position at its last step, and PathExhausted comes on the same step."""
    track, s0, v_t, dt, n = case
    want, s = [], s0
    for _ in range(n):
        try:
            pair = _advance_target_scalar(track, s, v_t, dt)
        except PathExhausted:
            want.append(None)
            break
        want.append(pair)
        s = pair[1]

    got, pending, s = [], [], s0
    for k in range(len(want)):
        if not pending:
            try:
                block, s = advance_target(track, s, v_t, dt)
            except PathExhausted:
                got.append(None)
                break
            assert 1 <= len(block) <= TARGET_BLOCK
            assert len(block) == TARGET_BLOCK or not track.closed
            last = k + len(block) - 1
            if last < len(want) and want[last] is not None:
                assert bits(s) == bits(want[last][1])
            pending = block[::-1]
        got.append(pending.pop())
    assert [_target_bits(t) for t in got] == [_target_bits(p and p[0]) for p in want]


# ------------------------------------------------------------ scenario rules


def test_scenario_validation():
    with pytest.raises(InvalidScenario):
        _preset(mode="dreaming").validate()
    with pytest.raises(InvalidScenario):
        _preset(controller="pid").validate()
    with pytest.raises(InvalidScenario):
        _preset(dt=-0.01).validate()
    with pytest.raises(InvalidScenario):
        _preset(dt=0.0).validate()
    with pytest.raises(InvalidScenario):
        _preset(v_t=0.0).validate()
    with pytest.raises(InvalidScenario):
        _preset(mode="vision", dt=0.5).validate()  # dt > frame_period


def test_validate_bounds_the_step_count():
    # the budget is bounded before it is rounded, so even one too large for
    # an int is an InvalidScenario
    _preset(dt=0.25, duration_max=0.25 * MAX_STEPS).validate()
    for dt, duration_max in ((0.25, 0.25 * MAX_STEPS + 0.25), (1e-300, 1.0), (1e-300, 1e10)):
        with pytest.raises(InvalidScenario, match=r"duration_max / dt must be <= 1000000"):
            _preset(dt=dt, duration_max=duration_max).validate()


def test_validate_needs_a_first_step():
    # duration_max / dt rounds half to even: half a step makes no step
    assert len(run(_preset(duration_max=0.006))) == 1
    with pytest.raises(InvalidScenario, match=r"^duration_max / dt must round to >= 1 step"):
        _preset(duration_max=0.005).validate()
    # the first preset target may lie exactly at the end of an open track,
    # not one ulp past it; the sum is formed as advance_target forms it
    track, ds = straight_track(6.0), 1.5 * 0.01
    at_end = 6.0 - ds
    assert at_end + ds == 6.0
    log = run(_preset(track=track, initial_target_s=at_end))
    assert (len(log), log.termination_reason) == (1, "finished")
    past = float(np.nextafter(at_end, 7.0))
    assert past + ds == np.nextafter(6.0, 7.0)
    with pytest.raises(InvalidScenario, match=r"^initial_target_s \+ v_t \* dt must be <="):
        _preset(track=track, initial_target_s=past).validate()
    # a closed track wraps the target, so any start is a step
    _preset(initial_target_s=1e6).validate()


def test_validate_bounds_the_frame_samples():
    # (x_max + 6) / sample_spacing, checked in both modes without sensing
    for mode in ("preset_path", "vision"):
        edge = SensorConfig(sample_spacing=0.5, roi=(0.0, 0.5 * MAX_FRAME_SAMPLES - 6.0, -5.0, 5.0))
        _preset(mode=mode, sensor=edge).validate()
        for sensor in (SensorConfig(sample_spacing=0.5, roi=(0.0, edge.roi[1] + 0.5, -5.0, 5.0)),
                       SensorConfig(sample_spacing=1e-9),
                       SensorConfig(roi=(0.0, 1e308, -5.0, 5.0))):
            with pytest.raises(InvalidScenario, match=r"sample_spacing must be <= 10000"):
                _preset(mode=mode, sensor=sensor).validate()


def test_validate_bounds_the_frame_period_in_steps():
    # in vision mode a frame runs every round(frame_period / dt) steps, a
    # count that must exist; a preset run never senses
    edge = SensorConfig(frame_period=0.01 * MAX_STEPS)
    _preset(mode="vision", sensor=edge).validate()
    for sensor in (SensorConfig(frame_period=0.01 * MAX_STEPS * 1.001), SensorConfig(frame_period=1e300)):
        with pytest.raises(InvalidScenario, match=r"^sensor\.frame_period / dt must be <= 1000000"):
            _preset(mode="vision", sensor=sensor).validate()
    _preset(sensor=SensorConfig(frame_period=1e300), dt=1e-300, duration_max=1e-298).validate()
    state = init_state(_preset(sensor=SensorConfig(frame_period=1e300), dt=1e-300,
                               duration_max=1e-298))
    assert state.frame_steps == 1


def test_lane_spread_too_far_to_resample_is_not_fitted():
    """A side whose points span too far to resample at DEFAULT_DELTA_S
    (noise far beyond the ROI) has no fit, as a too-sparse side has none;
    resampling refuses it before allocating."""
    wide = np.array([[0.0, 0.0], [1e6, 1.0], [2e6, 0.0], [3e6, 1.0]])
    assert _fit_side(wide, SensorConfig()) is None
    sc = Scenario(track=straight_track(20.0), mode="vision", v_t=1.5, dt=0.01, duration_max=0.3,
                  initial_pose=Pose(2.0, 0.0, 0.0), sensor=SensorConfig(point_noise_sigma=1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        log = run(sc)
    assert log.termination_reason == "timeout"
    assert set(log["mode"]) == {"none"}


def test_start_pose_defaults_to_track_origin():
    sc = _preset(initial_pose=None)
    p = sc.start_pose()
    assert (p.x, p.y) == pytest.approx(sc.track.point_at(0.0))


def test_start_pose_wraps_heading():
    p = _preset(initial_pose=Pose(0.0, 0.0, 3 * math.pi)).start_pose()
    assert p.phi == pytest.approx(math.pi)
    assert _preset(initial_pose=Pose(0.0, 0.0, -math.pi)).start_pose().phi == math.pi


def test_validate_rejects_non_finite_initial_pose():
    for pose in (Pose(math.nan, 0.0, 0.0), Pose(0.0, math.inf, 0.0), Pose(0.0, 0.0, -math.inf)):
        with pytest.raises(InvalidScenario, match=r"initial_pose\.\w+ must be a finite number"):
            _preset(initial_pose=pose).validate()


def test_validate_rejects_non_finite_sensor_roi():
    sc = _preset(sensor=SensorConfig(roi=(0.5, math.inf, -2.0, 2.0)))
    with pytest.raises(InvalidScenario, match=r"sensor\.roi\[1\] must be a finite number"):
        sc.validate()


def test_init_state_seeds_previous_command():
    with_limits = init_state(_preset())
    assert with_limits.prev_applied == Twist(0.6, 0.0)
    without = init_state(_preset(limits=None))
    assert without.prev_applied == Twist(0.0, 0.0)


# ----------------------------------------------------------------- stepping


def test_step_composition_matches_manual_pipeline():
    """One preset step reproduced by hand from the public pieces."""
    import lanetrack.controllers as ctl
    from lanetrack.model import integrate, polar_error

    sc = _preset(initial_pose=Pose(0.0, 0.4, 0.2))
    state = init_state(sc)
    tgt = advance_target(sc.track, sc.initial_target_s, sc.v_t, sc.dt)[0][0]
    err = polar_error(sc.start_pose(), tgt)
    raw = Twist(
        ctl.proposed_linear(err, tgt, sc.gains),
        ctl.proposed_angular(err, tgt, sc.gains),
    )
    applied = ctl.saturate(raw, Twist(sc.limits.v_min, 0.0), sc.limits, sc.dt)
    expected_pose = integrate(sc.start_pose(), applied, sc.dt)

    step(state)
    rec = _first_step(state.log)
    assert (rec["v_cmd"], rec["omega_cmd"]) == (raw.v, raw.omega)
    assert (rec["v_app"], rec["omega_app"]) == (applied.v, applied.omega)
    assert state.pose == expected_pose
    assert rec["t"] == 0.0


def test_no_lane_fallback_bypasses_slew():
    """With no detected lane the applied command is exactly (v_min, 0)."""
    track = straight_track(60.0)
    # gaps so long the boundary is essentially never visible
    track.segments = [StyleSegment(0.0, 60.0, "dotted", dash_len=0.01, gap_len=50.0)]
    sc = Scenario(
        track=track,
        mode="vision",
        v_t=1.5,
        limits=SaturationLimits(v_max=1.75),
        dt=0.01,
        duration_max=1.0,
        initial_pose=Pose(5.0, 0.0, 0.0),
    )
    state = init_state(sc)
    state.prev_applied = Twist(1.7, 0.3)  # far from the fallback command
    step(state)
    rec = _first_step(state.log)
    assert rec["mode"] == "none"
    assert (rec["v_app"], rec["omega_app"]) == (sc.limits.v_min, 0.0)
    assert (rec["v_cmd"], rec["omega_cmd"]) == (rec["v_app"], rec["omega_app"])
    assert math.isnan(rec["V1"]) and math.isnan(rec["V2"])


def test_no_lane_fallback_without_limits_uses_default():
    track = straight_track(60.0)
    track.segments = [StyleSegment(0.0, 60.0, "dotted", dash_len=0.01, gap_len=50.0)]
    sc = Scenario(
        track=track, mode="vision", v_t=1.5, limits=None, dt=0.01,
        duration_max=1.0, initial_pose=Pose(5.0, 0.0, 0.0),
    )
    state = init_state(sc)
    step(state)
    rec = _first_step(state.log)
    assert rec["v_app"] == FALLBACK_V_MIN
    assert rec["omega_app"] == 0.0


def _convergence(controller, initial_pose):
    """The criterion-02 convergence scenario with the given controller."""
    return Scenario(
        track=straight_track(50.0),
        mode="preset_path",
        v_t=1.5,
        gains=ControllerGains(lambda_v=0.3, lambda_a=0.8, k1=0.8, k2=50.0),
        limits=SaturationLimits(v_max=1.75),
        dt=0.01,
        duration_max=20.0,
        initial_pose=initial_pose,
        controller=controller,
    )


@pytest.mark.parametrize("controller", ["proposed", "comparative"])
@pytest.mark.parametrize(
    "initial_pose",
    # the second starts on the target's first position: rho = 0 there
    [Pose(0.0, 1.0, 0.5), Pose(2.015, 0.0, 0.0)],
    ids=["offset", "on_target"],
)
def test_diagnostic_columns_follow_documented_rules(controller, initial_pose):
    """The guard rules of docs/FORMATS.md, read from the logged rho, alpha
    and beta (log_guards), explain every logged command: at rho <= 1e-3
    the previous applied angular speed is held, elsewhere omega_cmd is the
    law's (clamped where singular) on the logged polar error, bit for
    bit; the Lyapunov rates are NaN exactly where rho <= 1e-3."""
    sc = _convergence(controller, initial_pose)
    log = run(sc)
    singular, degenerate, v1_dot, v2_dot = log_guards(log, sc)
    assert np.array_equal(np.isnan(v1_dot), degenerate)
    assert np.array_equal(np.isnan(v2_dot), degenerate)
    # the on-target start is degenerate at once, and the offset proposed
    # run passes through alpha = 0 (criterion 02)
    on_target = initial_pose == Pose(2.015, 0.0, 0.0)
    assert degenerate[0] == on_target
    assert singular.any() == (not on_target and controller == "proposed")
    prev_omega = [0.0, *log["omega_app"][:-1].tolist()]
    columns = zip(*(log[name].tolist() for name in ("rho", "alpha", "beta", "phi_t_dot")))
    want = []
    for held, prev, (rho, a, b, phi_t_dot) in zip(degenerate, prev_omega, columns):
        err = PolarError(rho, a, b, math.sin(a), math.cos(a), math.sin(b), math.cos(b))
        tgt = TargetState(0.0, 0.0, 0.0, sc.v_t, phi_t_dot)
        if held:
            omega = prev
        elif controller == "proposed":
            omega = ctl.proposed_angular(err, tgt, sc.gains)
        else:
            omega = ctl.comparative_cmd(err, tgt, sc.gains).omega
        want.append((ctl.proposed_linear(err, tgt, sc.gains), omega))
    want_v, want_omega = np.array(want).T
    assert log["v_cmd"].tobytes() == want_v.tobytes()
    assert log["omega_cmd"].tobytes() == want_omega.tobytes()


@pytest.mark.parametrize("controller", ["proposed", "comparative"])
def test_degenerate_rho_holds_last_angular_speed(controller):
    """At rho <= 1e-3 either controller commands the proposed linear law
    and the previous applied angular speed."""
    from lanetrack.model import polar_error

    sc = _convergence(controller, Pose(2.015, 0.0, 0.0))  # on the first target
    state = init_state(sc)
    state.prev_applied = Twist(1.0, 0.123)
    tgt = advance_target(sc.track, sc.initial_target_s, sc.v_t, sc.dt)[0][0]
    v = ctl.proposed_linear(polar_error(sc.start_pose(), tgt), tgt, sc.gains)
    step(state)
    rec = _first_step(state.log)
    assert rec["rho"] <= 1e-3
    assert (rec["v_cmd"], rec["omega_cmd"]) == (v, 0.123)


def test_saturation_flag_reflects_clipping():
    sc = _preset(initial_pose=Pose(0.0, 2.5, 1.2))  # large error -> clipped
    state = init_state(sc)
    step(state)
    rec = _first_step(state.log)
    assert rec["sat_flag"]
    assert abs(rec["omega_app"]) <= sc.limits.omega_abs_max + 1e-12


# ------------------------------------------------------------------ full runs


def test_run_is_deterministic():
    sc = dict(
        track=oval_track(), mode="vision", v_t=1.5,
        limits=SaturationLimits(v_max=1.75), dt=0.01,
        duration_max=3.0, sensor=SensorConfig(point_noise_sigma=0.05),
        rng_seed=11,
    )
    a = run(Scenario(**sc))
    b = run(Scenario(**sc))
    assert len(a) == len(b)
    for name in ("x", "y", "phi", "v_app", "omega_app"):
        assert np.array_equal(a[name], b[name])


def test_run_seed_changes_noisy_trajectory():
    base = dict(
        track=oval_track(), mode="vision", v_t=1.5,
        limits=SaturationLimits(v_max=1.75), dt=0.01,
        duration_max=3.0, sensor=SensorConfig(point_noise_sigma=0.05),
    )
    a = run(Scenario(**base, rng_seed=1))
    b = run(Scenario(**base, rng_seed=2))
    n = min(len(a), len(b))
    assert any(not np.array_equal(a[name][:n], b[name][:n]) for name in ("x", "y", "phi"))


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
_SHIPPED = sorted(path.stem for path in SCENARIOS.glob("*.json"))


@functools.cache
def _shipped(name):
    """A shipped scenario, loaded once: runs only read their Scenario."""
    return load_scenario(SCENARIOS / f"{name}.json")


def test_a_preset_run_makes_no_generator_so_its_seed_changes_nothing():
    """rng_seed seeds the vision-mode stream only: a preset run's state has
    no generator, and preset runs that differ only in the seed log the same
    bytes (docs/FORMATS.md)."""
    preset = _shipped("oval_preset_v15")
    vision = _shipped("oval_vision_noisy_v20")
    assert init_state(preset).rng is None
    rng = init_state(vision).rng
    assert isinstance(rng, np.random.Generator)
    assert rng.random() == np.random.default_rng(vision.rng_seed).random()
    a = run(replace(preset, rng_seed=0))
    b = run(replace(preset, rng_seed=12345))
    assert a.values.tobytes() == b.values.tobytes()
    assert a.modes == b.modes


#: How a run may end (docs/FORMATS.md).
_TERMINATIONS = ("completed", "finished", "timeout")


def _no_lane_entries(modes):
    """The steps that enter mode none. The no-lane fallback applies
    (v_min, 0) at once, past the slew bounds; this is the one exception to
    them, pinned by test_no_lane_fallback_bypasses_slew."""
    return np.array([mode == "none" and (k == 0 or modes[k - 1] != "none")
                     for k, mode in enumerate(modes)], dtype=bool)


#: A size of a fixture track, from tiny to past make_track's vertex bound.
_SIZE = st.floats(1e-9, 5e3)


@st.composite
def drawn_tracks(draw):
    """A track as make_track builds it from JSON, of drawn lane width: a
    fixture kind of drawn size, or a polyline, open or closed, through a
    random walk, the hairpin or the figure eight. A spec make_track
    refuses is outside the scenario rules, and is not drawn."""
    kind = draw(st.sampled_from(["straight", "circle", "oval", "figure_course", "polyline"]))
    spec = {"kind": kind, "lane_width": draw(st.floats(1e-3, 20.0))}
    if kind == "straight":
        spec["length"] = draw(_SIZE)
    elif kind == "circle":
        spec["radius"] = draw(_SIZE)
    elif kind == "oval":
        spec["straight_len"], spec["radius"] = draw(_SIZE), draw(_SIZE)
    elif kind == "polyline":
        points = draw(st.one_of(polylines(), st.just(hairpin()), st.just(gerono_lemniscate())))
        spec["points"], spec["closed"] = points.tolist(), draw(st.booleans())
    try:
        return make_track(spec)
    except ValueError:
        assume(False)


@st.composite
def shipped_variants(draw):
    """A shipped scenario with its mode, controller, v_t, seed, sensor noise
    and clutter drawn, its track at times replaced by a drawn one
    (drawn_tracks), its start pose moved off the lane (so far, at times,
    that the sensor sees no lane), cut to at most 2 s. A draw Scenario.validate
    refuses (a preset target that starts past the end of a short open
    track) is outside the scenario rules, and is not drawn."""
    base = _shipped(draw(st.sampled_from(_SHIPPED)))
    track = draw(st.one_of(st.just(base.track), drawn_tracks()))
    if track is not base.track:
        # the new track's start, as a scenario without initial_pose starts
        base = replace(base, track=track, initial_pose=None)
    x, y, phi = base.start_pose()
    sensor = replace(base.sensor,
                     point_noise_sigma=draw(st.floats(0.0, 1.0)),
                     clutter_rate=draw(st.floats(0.0, 30.0)),
                     sample_spacing=draw(st.floats(0.1, 4.0)))
    sc = replace(
        base,
        mode=draw(st.sampled_from(["preset_path", "vision"])),
        controller=draw(st.sampled_from(["proposed", "comparative"])),
        v_t=draw(st.floats(0.1, 3.0)),
        rng_seed=draw(st.integers(0, 2**64)),
        sensor=sensor,
        initial_pose=Pose(x, y + draw(st.floats(-3.0, 3.0)), phi + draw(st.floats(-1.5, 1.5))),
        duration_max=draw(st.floats(0.01, 2.0)),
    )
    try:
        sc.validate()
    except InvalidScenario:
        assume(False)
    return sc


_OVAL = _shipped("oval_preset_v15")
#: a noisy, sparse sensor turned off the lane: mode none is entered and left
#: twice in 100 steps
_IN_AND_OUT_OF_NONE = replace(
    _OVAL, mode="vision", v_t=1.0, duration_max=1.0, initial_pose=Pose(0.0, 0.0, 1.3125),
    sensor=replace(_OVAL.sensor, point_noise_sigma=1.0, sample_spacing=2.0))


@settings(max_examples=100, deadline=None)
@given(sc=shipped_variants())
@example(sc=_IN_AND_OUT_OF_NONE)
def test_closed_loop_keeps_its_bounds_and_repeats(sc):
    """Every applied command is inside the magnitude bounds and, except at
    an entry to mode none, within one step's slew of the command before it
    ((v_min, 0) before the first step); the log is finite where a value is
    defined; the run ends in a documented way, and a second run logs the
    same bytes."""
    log = run(sc)
    tracked = np.array(log.modes) != "none"
    for names, rows in (
        (("t", "x", "y", "phi", "v_cmd", "omega_cmd", "v_app", "omega_app"), slice(None)),
        (("x_t", "y_t", "phi_t", "phi_t_dot", "rho", "alpha", "beta", "V1", "V2"), tracked),
    ):
        for name in names:
            assert np.isfinite(log[name][rows]).all(), name
    _, degenerate, v1_dot, v2_dot = log_guards(log, sc)
    for name, rate in (("V1_dot", v1_dot), ("V2_dot", v2_dot)):
        assert np.isfinite(rate[tracked & ~degenerate]).all(), name
    lim = sc.limits
    v, w = log["v_app"], log["omega_app"]
    assert ((lim.v_min <= v) & (v <= lim.v_max)).all()
    assert (np.abs(w) <= lim.omega_abs_max).all()
    prev_v = np.concatenate(([lim.v_min], v[:-1]))
    prev_w = np.concatenate(([0.0], w[:-1]))
    # the same sums the saturation clamps to, so the check is exact
    dv, dw = lim.accel_max * sc.dt, lim.alpha_accel_max * sc.dt
    slewed = ~_no_lane_entries(log.modes)
    assert ((prev_v - dv <= v) & (v <= prev_v + dv))[slewed].all()
    assert ((prev_w - dw <= w) & (w <= prev_w + dw))[slewed].all()
    assert log.termination_reason in _TERMINATIONS
    again = run(sc)
    assert again.values.tobytes() == log.values.tobytes()
    assert again.modes == log.modes
    assert again.termination_reason == log.termination_reason


#: Largest relative error of a number written as %.9g and read back: the
#: 9-digit decimal is within 5e-9 of it, and the double read within 2**-53
#: of that decimal.
CSV_ROUNDING = 5e-9 + 2.0**-52


def _read_back_bounds(log, back, path, v_t):
    """{metric: the most it can move when each of log's values moves by at
    most CSV_ROUNDING of itself, as in back, its CSV read back}, from how
    each metric is built: t[-1]; the travelled chord sum over the
    duration; means of |omega|, of the distance to the path and of
    |wrap(phi - phi_ref)|; a 2-norm and a maximum of v_app - v_t; a sum
    of |wrap(delta phi)|. A distance and |wrap| move no more than their
    argument, apart from phi_ref: the heading of the path chord at the
    nearer vertex of the pose's foot point, which jumps where that vertex
    changes, so its move is measured at the poses of back."""
    u = CSV_ROUNDING
    t, x, y, phi, v, w = (log[name] for name in metrics.METRIC_COLUMNS)
    size = np.hypot(x, y)  # a pose moves by at most u times this
    duration = t[-1]
    travelled = np.sum(np.hypot(np.diff(x), np.diff(y)))
    chords = u * np.sum(size[1:] + size[:-1])
    phi_ref, phi_ref_back = (metrics._project(np.column_stack((cols["x"], cols["y"])), path)[1]
                             for cols in (log, back))
    return {
        "completion_time": u * duration,
        "avg_linear_speed": (chords + u * travelled) / ((1.0 - u) * duration) if duration else 0.0,
        "avg_angular_speed": u * np.mean(np.abs(w)),
        "mae_lateral": u * np.mean(size),
        "mae_orientation": np.mean(u * np.abs(phi) + np.abs(wrap_angle(phi_ref_back - phi_ref))),
        "rmse_linear_speed": u * np.sqrt(np.mean(v * v)),
        "linear_speed_deviation_pct": 100.0 * u * np.max(np.abs(v)) / v_t,
        "accumulated_orientation": u * np.sum(np.abs(phi[1:]) + np.abs(phi[:-1])),
    }


@settings(max_examples=100, deadline=None)
@given(sc=shipped_variants())
@example(sc=_IN_AND_OUT_OF_NONE)
def test_metrics_of_the_csv_read_back_match_the_log(sc):
    """The metrics of trajectory.csv read back (what simulate writes to
    metrics.json) equal those of the in-memory log within the bounds that
    %.9g's rounding of each value allows (_read_back_bounds), plus 1e-12
    of the value and 1e-15 per row for the metrics' own float sums."""
    log = run(sc)
    path = sc.track.reference_path
    with tempfile.TemporaryDirectory() as tmp:
        log.to_csv(Path(tmp) / "trajectory.csv")
        back = _read_log_csv(Path(tmp) / "trajectory.csv")
    # t < TRANSIENT_S on every row of these short runs: one speed window
    assert log["t"][-1] < metrics.TRANSIENT_S
    want = metrics.metrics_from_log(log, path, sc.v_t).as_dict()
    got = metrics.metrics_from_log(back, path, sc.v_t).as_dict()
    bounds = _read_back_bounds(log, back, path, sc.v_t)
    for name, value in want.items():
        if name not in bounds:
            assert got[name] == value, name
            continue
        slack = 1e-12 * max(abs(value), abs(got[name])) + 1e-15 * len(log)
        assert abs(got[name] - value) <= bounds[name] + slack, (name, got[name], value)


def test_run_times_out():
    log = run(_preset(duration_max=0.5))
    assert log.termination_reason == "timeout"
    assert len(log) == 50


def test_open_track_run_finishes():
    sc = _preset(track=straight_track(3.0), duration_max=60.0, initial_target_s=0.5)
    log = run(sc)
    assert log.termination_reason == "finished"


def test_closed_track_lap_completes():
    sc = _preset(duration_max=120.0)
    log = run(sc)
    assert log.termination_reason == "completed"
    # one lap at roughly v_t
    assert log["t"][-1] == pytest.approx(sc.track.length / sc.v_t, rel=0.1)


@pytest.mark.parametrize("mode, n_quarter, a", [
    pytest.param("preset_path", 400, 25.0, id="preset_path"),
    pytest.param("vision", 400, 25.0, id="vision"),
    # projected globally, a pose at the crossing took the other branch
    # here, lost a lap, and the run timed out
    pytest.param("preset_path", 200, 20.0, id="preset_path-a20"),
])
def test_figure_eight_lap_completes(mode, n_quarter, a):
    # a Gerono lemniscate: the path crosses itself at the origin, where the
    # progress projection must stay on the branch being driven
    track = Track(gerono_lemniscate(n_quarter, a), closed=True)
    sc = Scenario(
        track=track, mode=mode, v_t=1.5, limits=SaturationLimits(v_max=1.75)
    )
    log = run(sc)
    assert log.termination_reason == "completed"
    assert log["t"][-1] == pytest.approx(track.length / sc.v_t, rel=0.1)


#: Most that |delta progress| between two projected poses may exceed the
#: distance moved between them: the foot point runs ahead of a robot inside
#: a bend, the more so on a coarse polyline (up to 0.08 m on figure eights
#: of 40 points per quarter). A pose projected onto the other branch of a
#: figure eight moves it by about half the track.
PROGRESS_SLACK = 0.25

#: The largest rho of a run that holds its target: the preset target starts
#: 2 m ahead and the vision target is 2 m ahead (LOOKAHEAD_LEAD).
RHO_BOUND = 3.0


def _figure_eight(a, n_quarter):
    return Track(gerono_lemniscate(n_quarter, a), closed=True)


@st.composite
def closed_laps(draw):
    """A lap from the start of a drawn closed track, a figure eight of drawn
    size and point count or a fixture, in either mode, with the settings of
    oval_preset_v15 or figure_course_vision_v15 and a drawn v_t; the step
    budget is 1.3 laps at v_t."""
    track = draw(st.one_of(
        st.builds(_figure_eight, st.floats(15.0, 30.0), st.integers(40, 400)),
        st.sampled_from([circle_track(), oval_track(), figure_course()]),
    ))
    name = draw(st.sampled_from(["oval_preset_v15", "figure_course_vision_v15"]))
    v_t = draw(st.floats(1.0, 1.5))
    return replace(_shipped(name), track=track, initial_pose=None, v_t=v_t,
                   duration_max=1.3 * track.length / v_t)


# 12 examples: a lap takes about 0.05 s in preset mode and 0.3 s in vision
# mode, so the property stays within about 5 s
@settings(max_examples=12, deadline=None)
@given(sc=closed_laps())
@example(sc=replace(_shipped("oval_preset_v15"), track=_figure_eight(20.0, 200),
                    initial_pose=None, duration_max=1.3 * _figure_eight(20.0, 200).length / 1.5))
def test_closed_lap_progress_follows_the_robot(sc):
    """Between consecutive projected poses, progress moves by at most the
    distance the robot moved plus PROGRESS_SLACK; a run whose rho stays
    within RHO_BOUND ends completed within 1.3 laps at v_t."""
    update = simulator._update_progress
    samples = []

    def record(state):
        update(state)
        samples.append((state.pose.x, state.pose.y, state.progress))

    with mock.patch.object(simulator, "_update_progress", record):
        log = run(sc)
    x, y, progress = np.array(samples).T
    excess = np.abs(np.diff(progress)) - np.hypot(np.diff(x), np.diff(y))
    assert excess.max(initial=0.0) <= PROGRESS_SLACK
    rho = log["rho"]
    if np.all(rho <= RHO_BOUND):  # False with a NaN: a step with no lane
        assert log.termination_reason == "completed"


def _descent_update(state):
    """_update_progress by the oracle: the pose's foot point by
    polylines.descend, from the last foot segment, its arc position as
    nearest_s computes it, and the step to it taken on a closed track as the
    shorter way round."""
    track = state.scenario.track
    path = track.reference_path
    seg_len = np.linalg.norm(np.diff(path, axis=0), axis=1)
    k, t, _ = descend(path, seg_len**2, np.array(state.pose[:2]), state.foot, track.closed)
    s_new = (cumulative_arclength(path)[k] + t * seg_len[k]).item()
    ds = s_new - state.robot_s
    if track.closed:
        half = 0.5 * track.length
        if ds > half:
            ds -= track.length
        elif ds < -half:
            ds += track.length
    state.progress += ds
    state.robot_s, state.foot = s_new, k


def _init_by_full_scan(sc):
    """init_state, with the first foot point by polylines.full_scan."""
    state = init_state(sc)
    path = sc.track.reference_path
    seg_len = np.linalg.norm(np.diff(path, axis=0), axis=1)
    k, t, _ = full_scan(path, seg_len**2, np.array(state.pose[:2]))
    state.robot_s, state.foot = (cumulative_arclength(path)[k] + t * seg_len[k]).item(), k
    return state


def _lap_complete_per_step(state):
    """_lap_complete in another order: progress first, then the start point."""
    sc = state.scenario
    track = sc.track
    if track.closed:
        if state.progress < track.length:
            return False
        x0, y0 = track.point_at(0.0)
        return math.hypot(state.pose.x - x0, state.pose.y - y0) < 1.0
    if sc.mode == "vision":
        return state.progress >= track.length - (
            simulator.LOOKAHEAD_LEAD + 2 * LOOKAHEAD_SPACING)
    return False


def _run_to_state(scenario, init=init_state):
    """run(scenario), with its state made by init, and that final state."""
    states = []

    def keep(sc):
        states.append(init(sc))
        return states[-1]

    with mock.patch.object(simulator, "init_state", keep):
        log = run(scenario)
    (state,) = states
    return log, state


def _slow_circle():
    # a 19 m lap at 0.25 m/s: about 700 steps within 1 m of the start,
    # each a lap check that reads progress
    return _preset(track=circle_track(3.0), v_t=0.25,
                   limits=SaturationLimits(v_min=0.1, v_max=0.5), duration_max=120.0)


@pytest.mark.parametrize("scenario", [
    pytest.param(lambda: _preset(duration_max=120.0), id="oval-proposed"),
    pytest.param(lambda: _preset(duration_max=120.0, controller="comparative"),
                 id="oval-comparative"),
    pytest.param(lambda: _preset(track=Track(gerono_lemniscate(400, 25.0), closed=True),
                                 duration_max=300.0), id="lemniscate"),
    pytest.param(_slow_circle, id="slow-circle"),
    pytest.param(lambda: _preset(track=straight_track(20.0), duration_max=60.0), id="straight"),
    pytest.param(lambda: _preset(mode="vision", duration_max=3.0), id="oval-vision"),
])
def test_batched_progress_matches_per_step_rule(scenario, tmp_path):
    """A run's progress, projected pose by pose as the simulator samples
    them, has the bits of the oracle's: the first pose by full_scan, each
    later one by a descent from the last foot segment (polylines.descend),
    with the lap checked in another order. The name is the one the test had
    when the simulator still folded its poses in batches."""
    log, state = _run_to_state(scenario())
    with mock.patch.multiple(simulator, _update_progress=_descent_update,
                             _lap_complete=_lap_complete_per_step):
        want_log, want = _run_to_state(scenario(), _init_by_full_scan)
    assert (log.termination_reason, len(log)) == (want_log.termination_reason, len(want_log))
    assert bits(state.progress, state.robot_s) == bits(want.progress, want.robot_s)
    assert state.foot == want.foot
    log.to_csv(tmp_path / "got.csv")
    want_log.to_csv(tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


_SQUARE = Track(unit_square(), closed=True)


@settings(max_examples=50, deadline=None)
@given(track=st.just(circle_track(3.0)),
       s=st.lists(st.floats(0.0, 6.0 * math.pi), min_size=1, max_size=40))
# ties at the seam of a closed track: at the start corner from segment 0,
# which stays, and from the last segment, which moves on to segment 0; a
# walk that must step back
@example(track=_SQUARE, s=[0.0])
@example(track=_SQUARE, s=[3.5, 0.0])
@example(track=_SQUARE, s=[1.5, 0.5])
def test_update_progress_folds_the_queue_in_order(track, s):
    """_update_progress over a sequence of poses, one call each in order,
    gives the bits of the oracle's descent from the last foot segment. A
    run's poses lie 0.15 m apart; these lie anywhere on a 19 m circle,
    where a pose walked to the wrong side moves progress by a lap, or on a
    unit square whose start corner ties its first and last segments."""
    sc = _preset(track=track)
    got, want = init_state(sc), _init_by_full_scan(sc)
    assert bits(got.robot_s) == bits(want.robot_s) and got.foot == want.foot
    for si in s:
        got.pose = want.pose = Pose(*track.point_at(si), 0.0)
        simulator._update_progress(got)
        _descent_update(want)
        assert bits(got.progress, got.robot_s) == bits(want.progress, want.robot_s)
        assert got.foot == want.foot


# ----------------------------------------------------------------- CSV output


def test_csv_header_and_shape(tmp_path):
    log = run(_preset(duration_max=0.2))
    p = tmp_path / "log.csv"
    log.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(log)
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_COLUMNS)
    assert fields[-1] == "preset"
    assert fields[-2] in ("0", "1")
    # %.9g: no field carries more than 9 significant digits
    for cell in fields[:-2]:
        mantissa = cell.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
        assert len(mantissa) <= 9


def test_log_columns_are_the_csv_columns(tmp_path):
    """A run's log answers exactly the columns of its trajectory.csv, one
    value per row each, and keeps no other."""
    log = run(_preset(duration_max=0.2))
    log.to_csv(tmp_path / "trajectory.csv")
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0].split(",")
    assert header == list(CSV_COLUMNS)
    for name in header:
        assert len(log[name]) == len(log), name
    assert len(log.values) == len(log) * (len(header) - 1)  # all but mode
    for name in ("V1_dot", "V2_dot", "singular_flag", "degenerate_flag"):
        with pytest.raises(KeyError):
            log[name]


def test_csv_writes_are_byte_identical(tmp_path):
    log = run(_preset(duration_max=0.3))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    log.to_csv(p1)
    log.to_csv(p2)
    assert filecmp.cmp(p1, p2, shallow=False)


def test_csv_nan_target_fields_in_fallback(tmp_path):
    track = straight_track(60.0)
    track.segments = [StyleSegment(0.0, 60.0, "dotted", dash_len=0.01, gap_len=50.0)]
    sc = Scenario(
        track=track, mode="vision", v_t=1.5, limits=None, dt=0.01,
        duration_max=0.1, initial_pose=Pose(5.0, 0.0, 0.0),
    )
    log = run(sc)
    p = tmp_path / "log.csv"
    log.to_csv(p)
    row = p.read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("x_t")] == "nan"
    assert row[CSV_COLUMNS.index("mode")] == "none"


class _ColumnLog:
    """The SimLog that kept one array("d") per column and a list of modes,
    appended a step at a time in CSV_COLUMNS order: the reference."""

    def __init__(self):
        self._columns = {name: [] if name == "mode" else array("d") for name in CSV_COLUMNS}

    def __getitem__(self, name):
        return np.array(self._columns[name])

    def append(self, row):
        for column, value in zip(self._columns.values(), row):
            column.append(value)

    def to_csv(self, path):
        row = ",".join("%s" if name == "mode" else "%.9g" for name in CSV_COLUMNS) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            fh.writelines(row % values for values in zip(*[self._columns[n] for n in CSV_COLUMNS]))


_MODES = ("preset", "both_lanes", "left_only", "right_only", "none")
_LOG_VALUE = st.one_of(
    st.floats(),  # NaN, the infinities and -0.0 among them
    st.sampled_from([0.0, -0.0, math.nan, 1e-300, -123456.789012345]),
    st.booleans(),  # the flags
)


@st.composite
def log_rows(draw):
    """Rows in CSV_COLUMNS order: any float or flag, and a mode."""
    rows = []
    for _ in range(draw(st.integers(0, 20))):
        values = draw(st.lists(_LOG_VALUE, min_size=len(CSV_COLUMNS), max_size=len(CSV_COLUMNS)))
        values[CSV_COLUMNS.index("mode")] = draw(st.sampled_from(_MODES))
        rows.append(tuple(values))
    return rows


def _logs_of(rows):
    log, ref = SimLog(), _ColumnLog()
    mode = CSV_COLUMNS.index("mode")
    for row in rows:
        log.values.fromlist(list(row[:mode] + row[mode + 1:]))
        log.modes.append(row[mode])
        ref.append(row)
    return log, ref


def _assert_logs_equal(log, ref, rows, tmp_path):
    assert len(log) == len(rows)
    for name in CSV_COLUMNS:
        got, want = log[name], ref[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    log.to_csv(tmp_path / "got.csv")
    ref.to_csv(tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(rows=log_rows(), chunk=st.integers(1, 7))
def test_simlog_matches_column_log(rows, chunk):
    """Columns and CSV bytes equal those of the column-per-name log, also
    when the rows span several CSV chunks or end inside one."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(simulator, "CSV_CHUNK", chunk):
        _assert_logs_equal(*_logs_of(rows), rows, Path(tmp))


def test_simlog_matches_column_log_across_full_chunks(tmp_path):
    rng = np.random.default_rng(5)
    n = 2 * simulator.CSV_CHUNK + 3
    values = rng.normal(0.0, 1e3, size=(n, len(CSV_COLUMNS))).tolist()
    mode = CSV_COLUMNS.index("mode")
    rows = []
    for k, row in enumerate(values):
        row[mode] = _MODES[k % len(_MODES)]
        row[k % mode] = (math.nan, -0.0, math.inf, True, False)[k % 5]
        rows.append(tuple(row))
    _assert_logs_equal(*_logs_of(rows), rows, tmp_path)


def test_simlog_to_csv_memory_is_bounded(tmp_path):
    """to_csv reads out a chunk at a time: on 8000 rows its Python
    allocations peak at 0.15 MB (2.7 MB with the whole table in one chunk)."""
    log = run(_preset(duration_max=80.0))
    assert len(log) == 8000
    tracemalloc.start()
    try:
        log.to_csv(tmp_path / "log.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000

