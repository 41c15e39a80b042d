"""Trajectory evaluation: cross-track error and the run metric vector."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .angles import wrap_angle
from .exceptions import DegeneratePath, EmptyLog
from .tracks import PathProjector

#: Steps before this time are excluded from the speed metrics (launch transient).
TRANSIENT_S = 10.0

#: The log columns the metric vector is computed from.
METRIC_COLUMNS = ("t", "x", "y", "phi", "v_app", "omega_app")


def _path_arrays(path: np.ndarray):
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or len(path) < 2:
        raise DegeneratePath("path must have at least 2 points")
    seg = np.diff(path, axis=0)
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    if np.all(seg_len2 == 0.0):
        raise DegeneratePath("path has zero length")
    seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
    return path, seg, seg_len2


def _project(xy: np.ndarray, path: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed cross-track error and reference heading for each (x, y) row.

    The reference heading is that of the chord between the vertices around
    the foot point's nearer vertex (ties at t = 0.5 go to the later one).
    """
    path, seg, seg_len2 = _path_arrays(path)
    i, t, d2 = PathProjector(path, seg_len2).project(xy)
    diff = xy - (path[i] + t[:, None] * seg[i])
    cross = seg[i, 0] * diff[:, 1] - seg[i, 1] * diff[:, 0]
    dist = np.sqrt(d2)
    lat = np.where(cross != 0.0, np.copysign(dist, cross), dist)

    last = len(path) - 1
    j = np.where(t < 0.5, i, np.minimum(i + 1, last))
    d = path[np.minimum(j + 1, last)] - path[np.maximum(j - 1, 0)]
    # math.atan2, not np.arctan2: the two can differ in the last bit
    phi_ref = np.fromiter(map(math.atan2, d[:, 1].tolist(), d[:, 0].tolist()), float, len(d))
    return lat, phi_ref


@dataclass(frozen=True)
class MetricsReport:
    """The per-run metric vector (all values non-negative)."""

    completion_time: float
    avg_linear_speed: float
    avg_angular_speed: float
    mae_lateral: float
    mae_orientation: float
    rmse_linear_speed: float
    linear_speed_deviation_pct: float
    accumulated_orientation: float
    transient_skip_s: float
    speed_deviation_definition: str

    def as_dict(self) -> dict:
        return asdict(self)


def compute_metrics(
    t: np.ndarray,
    xy: np.ndarray,
    phi: np.ndarray,
    v_app: np.ndarray,
    omega_app: np.ndarray,
    path: np.ndarray,
    v_t: float,
) -> MetricsReport:
    """Compute the run metric vector from per-step trajectory arrays.

    mae_lateral / mae_orientation are taken over the whole run; the speed
    metrics over the post-transient window t >= TRANSIENT_S (whole run if
    shorter). 'Linear speed deviation' is the max relative deviation from
    v_t over that window.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise EmptyLog("metrics need a non-empty log")
    xy = np.asarray(xy, dtype=float)
    phi = np.asarray(phi, dtype=float)
    v_app = np.asarray(v_app, dtype=float)
    omega_app = np.asarray(omega_app, dtype=float)
    lat, phi_ref = _project(xy, path)
    head_err = wrap_angle(phi - phi_ref)

    window = t >= TRANSIENT_S
    if not window.any():
        window = np.ones_like(t, dtype=bool)
    dv = v_app[window] - v_t

    completion_time = float(t[-1])
    travelled = float(np.sum(np.linalg.norm(np.diff(xy, axis=0), axis=1)))
    dphi = wrap_angle(np.diff(phi))

    return MetricsReport(
        completion_time=completion_time,
        avg_linear_speed=travelled / completion_time if completion_time > 0 else 0.0,
        avg_angular_speed=float(np.mean(np.abs(omega_app))),
        mae_lateral=float(np.mean(np.abs(lat))),
        mae_orientation=float(np.mean(np.abs(head_err))),
        rmse_linear_speed=float(np.sqrt(np.mean(dv * dv))),
        linear_speed_deviation_pct=float(100.0 * np.max(np.abs(dv)) / v_t),
        accumulated_orientation=float(np.sum(np.abs(dphi))),
        transient_skip_s=TRANSIENT_S,
        speed_deviation_definition="max_relative",
    )


def metrics_from_log(log, path: np.ndarray, v_t: float) -> MetricsReport:
    """The metric vector of a log given as columns by name: a SimLog, or the
    {name: array} mapping read back from a trajectory CSV."""
    t, x, y, phi, v_app, omega_app = (log[name] for name in METRIC_COLUMNS)
    return compute_metrics(t, np.column_stack((x, y)), phi, v_app, omega_app, path, v_t)
