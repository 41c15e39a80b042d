import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from polylines import (CROSSING_SEGMENTS, bits, descend, full_scan, gerono_lemniscate, polylines,
                       query_points)

from lanetrack.angles import wrap_angle
from lanetrack.exceptions import DegeneratePath, EmptyLog
from lanetrack.metrics import MetricsReport, _project, compute_metrics
from lanetrack.scenario import SaturationLimits, Scenario
from lanetrack.simulator import run as simulate
from lanetrack.tracks import Track, oval_track, walk

STRAIGHT = np.array([[0.0, 0.0], [10.0, 0.0]])


def _lateral(point, path):
    """Signed cross-track error of one point: positive to the path's left."""
    lat, _ = _project(np.asarray(point, dtype=float).reshape(1, 2), path)
    return float(lat[0])


# ---------------------------------------------------------------- cross track


def test_cross_track_sign_convention():
    # positive to the left of the traversal direction
    assert _lateral((1.0, 0.5), STRAIGHT) == pytest.approx(0.5)
    assert _lateral((1.0, -0.5), STRAIGHT) == pytest.approx(-0.5)
    assert _lateral((1.0, 0.0), STRAIGHT) == pytest.approx(0.0)


def test_cross_track_reversed_path_flips_sign():
    rev = STRAIGHT[::-1].copy()
    assert _lateral((1.0, 0.5), rev) == pytest.approx(-0.5)


def test_cross_track_beyond_endpoint():
    # past the end the nearest point is the final vertex
    d = _lateral((11.0, 1.0), STRAIGHT)
    assert abs(d) == pytest.approx(math.hypot(1.0, 1.0))


def test_cross_track_picks_nearest_segment():
    bent = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0]])
    assert _lateral((4.0, 0.2), bent) == pytest.approx(0.2)
    assert _lateral((4.8, 3.0), bent) == pytest.approx(0.2)


def _walked_errors(xy, phi, path):
    """Segments, cross-track and heading errors of the rows of a log by the
    oracles: the path without its repeated vertices, the first row's
    segment by polylines.full_scan, and each later row's by
    polylines.descend from the segment of the row before, wrapping on a
    path that ends where it starts."""
    path = np.asarray(path, dtype=float)
    path = path[np.concatenate(([True], np.any(np.diff(path, axis=0) != 0.0, axis=1)))]
    seg = np.diff(path, axis=0)
    denom = np.einsum("ij,ij->i", seg, seg)
    loop = bool(np.all(path[0] == path[-1]))
    n = len(path)
    k = full_scan(path, denom, xy[0])[0]
    segments, lat, head = [], [], []
    for p, phi_k in zip(xy, phi):
        k, t, d2 = descend(path, denom, p, k, loop)
        diff = p - (path[k] + t * seg[k])
        cross = seg[k, 0] * diff[1] - seg[k, 1] * diff[0]
        dist = math.sqrt(d2)
        segments.append(k)
        lat.append(math.copysign(dist, cross) if cross != 0.0 else dist)
        j = k if t < 0.5 else min(k + 1, n - 1)
        d = path[min(j + 1, n - 1)] - path[max(j - 1, 0)]
        head.append(wrap_angle(phi_k - math.atan2(d[1], d[0])))
    return segments, np.array(lat), np.array(head)


@st.composite
def _trajectories(draw, path):
    """The (x, y) rows of a log about path: one to three pieces, each either
    points anywhere near it (query_points) or a run along it at a drawn
    offset and pace, forward or back."""
    track = Track(path)
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            pieces.append(draw(query_points(path)))
        else:
            s0 = draw(st.floats(-5.0, track.length + 5.0))
            ds = draw(st.sampled_from([0.01, -0.03, 0.05, 0.5]))
            offset = draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
            pieces.append(track.points_at(s0 + ds * np.arange(draw(st.integers(1, 300))))[0]
                          + offset)
    return np.concatenate(pieces)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_errors_match_full_scan(data):
    path = data.draw(polylines())
    assume(np.any(np.diff(path, axis=0) != 0.0))
    xy = data.draw(_trajectories(path))
    phi = np.linspace(-4.0, 4.0, len(xy))
    _, lat, head = _walked_errors(xy, phi, path)
    lat_got, phi_ref = _project(xy, path)
    assert lat_got.tobytes() == lat.tobytes()
    assert wrap_angle(phi - phi_ref).tobytes() == head.tobytes()
    t = np.arange(len(xy)) * 0.1
    rep = compute_metrics(t, xy, phi, np.ones(len(xy)), np.zeros(len(xy)), path, 1.0)
    assert bits(rep.mae_lateral) == bits(np.mean(np.abs(lat)))
    assert bits(rep.mae_orientation) == bits(np.mean(np.abs(head)))
    dphi = [wrap_angle(d) for d in np.diff(phi)]
    assert bits(rep.accumulated_orientation) == bits(np.sum(np.abs(dphi)))


NAN, INF = math.nan, math.inf


def test_non_finite_positions_match_full_scan():
    # `lanetrack metrics` reads logs from outside, which can hold nan or inf
    lem = gerono_lemniscate()
    for xy, segments in [
        # on the figure eight's second branch, then rows that are not
        # finite, which keep its segment, so that the walk to the crossing
        # stays on it
        ([(0.3, -0.3), (NAN, 2.0), (INF, 0.0), (1.0, -INF), (0.0, 0.05)], [120] * 4 + [119]),
        # a first row whose scan is all NaN takes segment 0, as np.argmin
        # does, and the next row walks on from there, to the first branch
        ([(NAN, NAN), (0.0, 0.05), (INF, INF)], [0, 39, 39]),
    ]:
        xy = np.array(xy)
        phi = np.zeros(len(xy))
        with np.errstate(invalid="ignore", over="ignore"):
            walked, _, head = _walked_errors(xy, phi, lem)
            _, phi_ref = _project(xy, lem)
            rep = compute_metrics(np.arange(len(xy)), xy, phi, phi, phi, lem, 1.0)
        assert walked == segments
        assert wrap_angle(phi - phi_ref).tobytes() == head.tobytes()
        assert math.isnan(rep.mae_lateral)
        assert bits(rep.mae_orientation) == bits(np.mean(np.abs(head)))


def test_cross_track_tie_uses_first_segment():
    # on the y axis the two branches through the crossing are equally near
    # and give opposite signs; the first in path order decides
    lem = gerono_lemniscate()
    first, second = CROSSING_SEGMENTS
    for y in (0.05, -0.2):
        d = _lateral((0.0, y), lem)
        assert d == _lateral((0.0, y), lem[first : first + 2])
        assert d == -_lateral((0.0, y), lem[second : second + 2])
        assert bits(d) == bits(_walked_errors(np.array([(0.0, y)]), [0.0], lem)[1][0])


def _wavy_oval_run(n=8000, laps=1.0):
    """The arrays of compute_metrics for n rows that weave 0.3 m about the
    2458-segment oval over laps laps: (t, xy, phi, v_app, omega_app, path,
    v_t)."""
    track = oval_track()
    s = np.linspace(0.0, laps * track.length, n)
    xy = track.points_at(s)[0]
    xy[:, 1] += 0.3 * np.sin(s)
    phi = np.zeros(n)
    return np.arange(n) * 0.01, xy, phi, np.ones(n), phi, track.reference_path, 1.0


def test_compute_metrics_memory_stays_small():
    # one rows x segments matrix of 8000 rows would take 157 MB
    run = _wavy_oval_run()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        compute_metrics(*run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_compute_metrics_projects_few_segments_per_row():
    # the rows are 1.5 cm apart on segments of 5 cm: each walks at most one
    # segment on, so the walk evaluates (takes the dot product on) its start
    # segment and one on either side, and one more where it moves; a scan
    # of every segment would evaluate 2458
    lines, first = inspect.getsourcelines(walk)
    (dot_line,) = [first + i for i, line in enumerate(lines) if "dot = " in line]
    evaluated = 0

    def trace(frame, event, arg):
        nonlocal evaluated
        if frame.f_code is not walk.__code__:
            return None
        evaluated += event == "line" and frame.f_lineno == dot_line
        return trace

    run = _wavy_oval_run()
    sys.settrace(trace)
    try:
        compute_metrics(*run)
    finally:
        sys.settrace(None)
    assert len(run[0]) <= evaluated <= 4 * len(run[0])


def test_laps_of_an_oval_match_the_nearest_segment():
    # the oval neither crosses nor nears itself, so a run along it is
    # walked onto the nearest segment of every row, across the seam, where
    # its path ends at its start vertex, too
    t, xy, phi, _, _, path, _ = _wavy_oval_run(n=1500, laps=1.5)
    seg = np.diff(path, axis=0)
    denom = np.einsum("ij,ij->i", seg, seg)
    segments = [full_scan(path, denom, p)[0] for p in xy]
    assert np.ptp(segments) == len(seg) - 1  # both ends of the path
    got = _project(xy, path)
    scanned = [_project(p[None], path) for p in xy]
    assert got[0].tobytes() == np.concatenate([lat for lat, _ in scanned]).tobytes()
    assert got[1].tobytes() == np.concatenate([ref for _, ref in scanned]).tobytes()


def test_a_repeated_vertex_does_not_stop_the_walk():
    # a zero-length segment ties with the one before it, and a tie never
    # moves the walk on: the metrics drop the repeated vertex
    path = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    x = np.linspace(0.0, 2.9, 30)
    xy = np.column_stack((x, 0.1 + 0.05 * x))
    lat, phi_ref = _project(xy, path)
    assert lat == pytest.approx(xy[:, 1], rel=1e-12)
    assert np.all(phi_ref == 0.0)
    assert bits(*lat) == bits(*_project(xy, np.delete(path, 2, axis=0))[0])


@pytest.mark.parametrize("n_quarter, a", [(400, 25.0), (200, 20.0), (40, 15.0)])
def test_figure_eight_laps_keep_the_driven_branch(n_quarter, a):
    # test_figure_eight_lap_completes's run: rows at the crossing are as
    # near to the other branch, whose heading differs by pi/2; each row
    # continued from the one before keeps the branch the robot drives
    track = Track(gerono_lemniscate(n_quarter, a), closed=True)
    log = simulate(Scenario(track=track, mode="preset_path", v_t=1.5,
                            limits=SaturationLimits(v_max=1.75)))
    _, phi_ref = _project(np.column_stack((log["x"], log["y"])), track.reference_path)
    assert np.max(np.abs(wrap_angle(log["phi"] - phi_ref))) < 0.25 * math.pi


def test_cross_track_degenerate_path():
    with pytest.raises(DegeneratePath):
        _lateral((0, 0), np.array([[1.0, 1.0]]))
    with pytest.raises(DegeneratePath):
        _lateral((0, 0), np.array([[1.0, 1.0], [1.0, 1.0]]))


# ------------------------------------------------------------ compute_metrics


def _perfect_run(n=101, v=1.5, dt=0.1):
    t = np.arange(n) * dt
    xy = np.column_stack((v * t, np.zeros(n)))
    phi = np.zeros(n)
    v_app = np.full(n, v)
    omega = np.zeros(n)
    return t, xy, phi, v_app, omega


def test_perfect_tracking_gives_zero_errors():
    t, xy, phi, v_app, omega = _perfect_run()
    path = np.array([[0.0, 0.0], [100.0, 0.0]])
    rep = compute_metrics(t, xy, phi, v_app, omega, path, v_t=1.5)
    assert rep.mae_lateral == pytest.approx(0.0, abs=1e-12)
    assert rep.mae_orientation == pytest.approx(0.0, abs=1e-12)
    assert rep.rmse_linear_speed == 0.0
    assert rep.linear_speed_deviation_pct == 0.0
    assert rep.accumulated_orientation == 0.0
    assert rep.completion_time == pytest.approx(t[-1])
    assert rep.avg_linear_speed == pytest.approx(1.5)
    assert rep.avg_angular_speed == 0.0


def test_lateral_mae_hand_value():
    t, xy, phi, v_app, omega = _perfect_run(n=11)
    xy[:, 1] = 0.3  # constant offset to the left
    path = np.array([[0.0, 0.0], [100.0, 0.0]])
    rep = compute_metrics(t, xy, phi, v_app, omega, path, v_t=1.5)
    assert rep.mae_lateral == pytest.approx(0.3)


def test_orientation_mae_hand_value():
    t, xy, phi, v_app, omega = _perfect_run(n=11)
    phi[:] = 0.2
    path = np.array([[0.0, 0.0], [100.0, 0.0]])
    rep = compute_metrics(t, xy, phi, v_app, omega, path, v_t=1.5)
    assert rep.mae_orientation == pytest.approx(0.2)
    # heading never changes -> nothing accumulates
    assert rep.accumulated_orientation == 0.0


def test_accumulated_orientation_sums_absolute_increments():
    t, xy, phi, v_app, omega = _perfect_run(n=5)
    phi[:] = [0.0, 0.1, 0.0, -0.1, 0.0]
    path = np.array([[0.0, 0.0], [100.0, 0.0]])
    rep = compute_metrics(t, xy, phi, v_app, omega, path, v_t=1.5)
    assert rep.accumulated_orientation == pytest.approx(0.4)


def test_speed_window_skips_transient():
    # big speed error before the transient cutoff, perfect after
    t, xy, phi, v_app, omega = _perfect_run(n=201, dt=0.1)
    v_app[t < 10.0] = 0.1
    path = np.array([[0.0, 0.0], [100.0, 0.0]])
    rep = compute_metrics(t, xy, phi, v_app, omega, path, v_t=1.5)
    assert rep.rmse_linear_speed == 0.0
    assert rep.transient_skip_s == 10.0


def test_short_run_uses_whole_window():
    t, xy, phi, v_app, omega = _perfect_run(n=11, dt=0.1)  # 1 s < transient
    v_app[:] = 1.2
    path = np.array([[0.0, 0.0], [100.0, 0.0]])
    rep = compute_metrics(t, xy, phi, v_app, omega, path, v_t=1.5)
    assert rep.rmse_linear_speed == pytest.approx(0.3)


def test_speed_deviation_is_max_relative():
    t, xy, phi, v_app, omega = _perfect_run(n=4, dt=0.1)
    v_app[:] = [1.5, 1.5, 1.8, 1.5]
    path = np.array([[0.0, 0.0], [100.0, 0.0]])
    rep = compute_metrics(t, xy, phi, v_app, omega, path, 1.5)
    assert rep.linear_speed_deviation_pct == pytest.approx(100 * 0.3 / 1.5)
    assert rep.speed_deviation_definition == "max_relative"


def test_empty_log_raises():
    with pytest.raises(EmptyLog):
        compute_metrics(
            np.array([]), np.zeros((0, 2)), np.array([]), np.array([]),
            np.array([]), STRAIGHT, 1.5,
        )


def test_avg_angular_speed_uses_absolute_values():
    t, xy, phi, v_app, omega = _perfect_run(n=4)
    omega[:] = [0.2, -0.2, 0.2, -0.2]
    path = np.array([[0.0, 0.0], [100.0, 0.0]])
    rep = compute_metrics(t, xy, phi, v_app, omega, path, 1.5)
    assert rep.avg_angular_speed == pytest.approx(0.2)


def test_report_serialization_roundtrip():
    t, xy, phi, v_app, omega = _perfect_run(n=11)
    path = np.array([[0.0, 0.0], [100.0, 0.0]])
    rep = compute_metrics(t, xy, phi, v_app, omega, path, 1.5)
    d = rep.as_dict()
    assert MetricsReport(**d) == rep
