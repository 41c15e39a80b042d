import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from polylines import CROSSING_SEGMENTS, bits, gerono_lemniscate, polylines, query_points

from lanetrack.angles import wrap_angle
from lanetrack.exceptions import DegeneratePath, EmptyLog
from lanetrack.metrics import MetricsReport, _project, compute_metrics
from lanetrack.tracks import PathProjector, oval_track

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


def _scan_errors(xy, phi, path):
    """Cross-track and heading errors by the per-point full scan that the
    block-pruned projection replaced."""
    path = np.asarray(path, dtype=float)
    seg = np.diff(path, axis=0)
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
    n = len(path)
    lat, head = [], []
    for p, phi_k in zip(xy, phi):
        w = p - path[:-1]
        t = np.clip(np.einsum("ij,ij->i", w, seg) / seg_len2, 0.0, 1.0)
        proj = path[:-1] + t[:, None] * seg
        diff = p - proj
        d2 = np.einsum("ij,ij->i", diff, diff)
        i = int(np.argmin(d2))
        cross = seg[i, 0] * diff[i, 1] - seg[i, 1] * diff[i, 0]
        dist = math.sqrt(d2[i])
        lat.append(math.copysign(dist, cross) if cross != 0.0 else dist)
        j = i if t[i] < 0.5 else min(i + 1, n - 1)
        d = path[min(j + 1, n - 1)] - path[max(j - 1, 0)]
        head.append(wrap_angle(phi_k - math.atan2(d[1], d[0])))
    return np.array(lat), np.array(head)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_errors_match_full_scan(data):
    path = data.draw(polylines())
    assume(np.any(np.diff(path, axis=0) != 0.0))
    xy = data.draw(query_points(path))
    phi = np.linspace(-4.0, 4.0, len(xy))
    lat, head = _scan_errors(xy, phi, path)
    for p, lat_k in zip(xy, lat):
        assert bits(_lateral(p, path)) == bits(lat_k)
    t = np.arange(len(xy)) * 0.1
    rep = compute_metrics(t, xy, phi, np.ones(len(xy)), np.zeros(len(xy)), path, 1.0)
    assert bits(rep.mae_lateral) == bits(np.mean(np.abs(lat)))
    assert bits(rep.mae_orientation) == bits(np.mean(np.abs(head)))
    dphi = [wrap_angle(d) for d in np.diff(phi)]
    assert bits(rep.accumulated_orientation) == bits(np.sum(np.abs(dphi)))


def test_non_finite_positions_match_full_scan():
    # `lanetrack metrics` reads logs from outside, which can hold nan or inf
    path = oval_track().reference_path
    xy = np.array([[1.0, 0.1], [np.nan, 2.0], [np.inf, 0.0], [1.0, -np.inf], [3.0, 0.0]])
    phi = np.zeros(len(xy))
    with np.errstate(invalid="ignore"):
        _, head = _scan_errors(xy, phi, path)
        rep = compute_metrics(np.arange(5.0), xy, phi, phi, phi, path, 1.0)
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
        assert bits(d) == bits(_scan_errors([(0.0, y)], [0.0], lem)[0][0])


def _wavy_oval_run(n=8000):
    """The arrays of compute_metrics for n rows that weave 0.3 m about the
    2458-segment oval: (t, xy, phi, v_app, omega_app, path, v_t)."""
    track = oval_track()
    s = np.linspace(0.0, track.length, n)
    xy = np.array([track.point_at(v) for v in s])
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


def test_compute_metrics_projects_few_segments_per_row(monkeypatch):
    # the bounds leave about two blocks of PROJECTION_BLOCK = 16 segments
    # per row; blocks of 32 leave 64, and a scan that pruned nothing 2458
    evaluated = []
    blocks_t_d2 = PathProjector._blocks_t_d2

    def counted(self, q, block):
        t, d2 = blocks_t_d2(self, q, block)
        evaluated.append(t.size)
        return t, d2

    monkeypatch.setattr(PathProjector, "_blocks_t_d2", counted)
    run = _wavy_oval_run()
    compute_metrics(*run)
    assert sum(evaluated) <= 40 * len(run[0])


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
