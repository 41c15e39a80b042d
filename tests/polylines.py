"""Shared helpers for the path-projection, track, resampling, model and
closed-loop tests: random polylines, query points around them, the
nearest and the walked-to segment by a scan of every segment, a
self-crossing figure eight, an open hairpin, a unit square, the
cumulative arc length of a polyline and the arc position of a point on
it, the reference Track queries, the per-point target heading rate, the
exact unicycle flow and the guard rules read from a log's columns."""

import math

import numpy as np
from hypothesis import strategies as st

from lanetrack.angles import wrap_angle
from lanetrack.controllers import lyapunov_report
from lanetrack.model import PolarError, TargetState, Twist

# no subnormal steps: their squared length underflows to zero
_COORD = st.floats(-5.0, 5.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-9)
# grid steps make collinear runs, repeated points and exact ties
_GRID = st.integers(-8, 8).map(lambda k: 0.5 * k)
_STEP = st.one_of(
    st.just((0.0, 0.0)),  # a repeated vertex: a zero-length segment
    st.tuples(_COORD, _COORD),
    st.tuples(_GRID, _GRID),
)


@st.composite
def polylines(draw):
    """An open or closed random-walk polyline of up to 150 segments."""
    steps = draw(st.lists(_STEP, min_size=1, max_size=150))
    path = np.cumsum(np.vstack(([[0.0, 0.0]], steps)), axis=0)
    if draw(st.booleans()):
        path = np.vstack((path, path[:1]))
    return path


@st.composite
def query_points(draw, path):
    """Points near vertices, far off the path, and past either end."""
    n = len(path)
    near = st.tuples(st.integers(0, n - 1), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(
        lambda a: path[a[0]] + a[1:]
    )
    far = st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)).map(np.array)
    beyond = st.tuples(st.booleans(), st.floats(0.0, 20.0)).map(
        lambda a: path[0] + a[1] * (path[0] - path[1])
        if a[0]
        else path[-1] + a[1] * (path[-1] - path[-2])
    )
    pts = draw(st.lists(st.one_of(near, far, beyond), min_size=1, max_size=300))
    return np.array(pts, dtype=float)


def _scan(path, denom, p):
    """t and d2 of the point p on every segment of path."""
    seg = np.diff(path, axis=0)
    w = p - path[:-1]
    t = np.clip(np.einsum("ij,ij->i", w, seg) / denom, 0.0, 1.0)
    proj = path[:-1] + t[:, None] * seg
    return t, np.einsum("ij,ij->i", proj - p, proj - p)


def full_scan(path, denom, p):
    """(segment index, t, d2) of the nearest segment by a scan over every
    segment, the lowest index among equals: the reference for
    tracks.nearest_segment, behind Track.nearest_s, a run's first pose and
    the metrics' first row."""
    t, d2 = _scan(path, denom, p)
    i = int(np.argmin(d2))
    return i, t[i], d2[i]


def descend(path, denom, p, k, closed):
    """(segment index, t, d2) by a descent from segment k over full_scan's
    per-segment t and d2: on to the next segment while it is nearer, then
    back to the one before the same way, where as near counts as nearer
    when its index is lower. A closed path's index wraps. A point whose d2
    on segment k is not finite stays there. The reference for tracks.walk,
    behind Track.walk_s and the metrics' later rows."""
    t, d2 = _scan(path, denom, p)
    n = len(d2)
    if not d2[k] < math.inf:
        return k, t[k], d2[k]
    for step in (1, -1):
        j = k + step
        while closed or 0 <= j < n:
            j %= n
            if not (d2[j] < d2[k] or (d2[j] == d2[k] and j < k)):
                break
            k, j = j, j + step
    return k, t[k], d2[k]


def bits(*values):
    """Exact bytes of float values; equal bytes mean bit-identical floats."""
    return np.array(values, dtype=float).tobytes()


def hairpin():
    """An open U of 0.5 m segments: 40 along y = 0, one 2 m up, then 40
    back along y = 2. Every point of the midline y = 1 over the straights
    is as near to the way out as to the way back."""
    xs = np.linspace(0.0, 20.0, 41)
    bottom = np.column_stack((xs, np.zeros_like(xs)))
    top = np.column_stack((xs[::-1], np.full_like(xs, 2.0)))
    return np.vstack((bottom, top))


def gerono_lemniscate(n_quarter=40, a=10.0):
    """Closed figure eight x = a cos th, y = a sin th cos th.

    The four quarters are exact mirror images, so the segments
    CROSSING_SEGMENTS, one on each branch, pass through the crossing at
    the origin, and any point on the y axis is at exactly the same
    distance from both.
    """
    th = (np.arange(n_quarter) + 0.5) * (0.5 * np.pi / n_quarter)
    q1 = np.column_stack((a * np.cos(th), a * np.sin(th) * np.cos(th)))
    q2 = -q1[::-1]
    q3 = q1 * [-1.0, 1.0]
    q4 = (q1 * [1.0, -1.0])[::-1]
    return np.vstack((q1, q2, q3, q4, q1[:1]))


def unit_square():
    """The closed unit square from (0, 0), counterclockwise. Every point of
    the diagonal y = x from (0, 0) down is as near to the last segment as
    to segment 0, exactly: a tie across the seam of a closed track."""
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])


#: The segments of gerono_lemniscate() through its crossing, in path order.
CROSSING_SEGMENTS = (39, 119)


def cumulative_arclength(pts):
    """Cumulative chord length along a polyline; S[0] = 0 (the resampling
    oracle's arc-length table)."""
    seg = np.linalg.norm(np.diff(np.asarray(pts, dtype=float), axis=0), axis=1)
    return np.concatenate(([0.0], np.cumsum(seg)))


def arc_position(pts, s_tab, p):
    """(distance, arc length) of the point of the polyline pts nearest to
    p, by a scan over every segment; s_tab is its cumulative_arclength."""
    best = None
    for i in range(len(pts) - 1):
        seg = pts[i + 1] - pts[i]
        L2 = float(seg @ seg)
        t = float(np.clip((p - pts[i]) @ seg / L2, 0.0, 1.0))
        d = float(np.hypot(*(pts[i] + t * seg - p)))
        s = s_tab[i] + t * math.sqrt(L2)
        if best is None or d < best[0]:
            best = (d, s)
    return best


class TrackQueries:
    """Track's position queries as written before its per-segment columns:
    point_at/points_at (_locate_many), boundary_point and visibility over
    per-segment arrays rebuilt from the track's public fields. The
    reference for the one-take queries, bit for bit."""

    def __init__(self, track):
        self.track = track
        path = track.reference_path
        self.seg_vec = np.diff(path, axis=0)
        self.seg_len = np.linalg.norm(self.seg_vec, axis=1)
        self.s = np.concatenate(([0.0], np.cumsum(self.seg_len)))
        self.headings = np.arctan2(self.seg_vec[:, 1], self.seg_vec[:, 0])
        self.sin = np.array([math.sin(h) for h in self.headings.tolist()])
        self.cos = np.array([math.cos(h) for h in self.headings.tolist()])

    def locate_many(self, s):
        track = self.track
        s = np.asarray(s, dtype=float)
        s = s % track.length if track.closed else np.minimum(np.maximum(0.0, s), track.length)
        i = np.minimum(np.maximum(np.searchsorted(self.s, s, side="right") - 1, 0),
                       len(self.seg_len) - 1)
        frac = (s - self.s[i]) / self.seg_len[i]
        return i, track.reference_path[i] + frac[..., None] * self.seg_vec[i]

    def points_at(self, s):
        i, p = self.locate_many(s)
        return p, self.headings[i]

    def boundary_point(self, s):
        i, p = self.locate_many(s)
        h = 0.5 * self.track.lane_width
        out = np.empty((2,) + p.shape)
        np.multiply(-h, self.sin[i], out=out[0, ..., 0])
        np.multiply(h, self.cos[i], out=out[0, ..., 1])
        np.negative(out[0], out=out[1])
        out += p
        return out

    def visibility(self, s):
        track = self.track
        s = np.asarray(s, dtype=float)
        wrapped = s % track.length if track.closed else s
        visible = np.ones(s.shape, dtype=bool)
        zebra = np.zeros(s.shape, dtype=bool)
        unclaimed = np.ones(s.shape, dtype=bool)
        for seg in track.segments:
            hit = unclaimed & (seg.s_lo <= wrapped) & (wrapped < seg.s_hi)
            if not hit.any():
                continue
            unclaimed &= ~hit
            if seg.style == "zebra_clutter":
                zebra |= hit
            elif seg.style == "dotted":
                period = seg.dash_len + seg.gap_len
                dash = period > 0 and seg.dash_len > 0 and (s - seg.s_lo) % period < seg.dash_len
                visible &= ~hit | dash
        return visible, zebra


def point_heading_rate(a, b, c, dt):
    """The target heading rate of three look-ahead points as Python floats,
    one call per target: the reference for model.target_heading_rate."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    bcx, bcy = c[0] - b[0], c[1] - b[1]
    if (abx == 0.0 and aby == 0.0) or (bcx == 0.0 and bcy == 0.0):
        return 0.0
    return wrap_angle(math.atan2(bcy, bcx) - math.atan2(aby, abx)) / dt


def advance_exact(x, y, phi, v, om, h):
    """Closed-form unicycle flow over signed time h at the constant twist
    (v, om): the oracle the polar rates are differenced along."""
    if abs(om) < 1e-14:
        return x + v * math.cos(phi) * h, y + v * math.sin(phi) * h, phi
    r = v / om
    phi1 = phi + om * h
    return (
        x + r * (math.sin(phi1) - math.sin(phi)),
        y - r * (math.cos(phi1) - math.cos(phi)),
        phi1,
    )


def log_guards(log, sc):
    """docs/FORMATS.md's guard rules applied to the columns of a log of
    the scenario sc (a SimLog, or any {name: array} mapping): the arrays
    (singular, degenerate, V1_dot, V2_dot), one value per row.

    degenerate is rho <= 1e-3, where the angular law does not run and the
    last angular speed is held. singular is where the law clamped an
    alpha denominator: rho > 1e-3, |sin(alpha)| <= 1e-6 and
    |sin(beta)| > 1e-6 for the proposed law, |alpha| and |beta| for the
    comparative one. Both are False on a row with no lane (rho is NaN).
    The rates are lyapunov_report's along the applied command, NaN at
    rho <= 1e-3 and with no lane.
    """
    proposed = sc.controller == "proposed"
    singular, rates = [], []
    for rho, a, b, v, w, phi_t_dot in zip(*(log[name].tolist() for name in (
            "rho", "alpha", "beta", "v_app", "omega_app", "phi_t_dot"))):
        sa, sb = math.sin(a), math.sin(b)
        err = PolarError(rho, a, b, sa, math.cos(a), sb, math.cos(b))
        tgt = TargetState(0.0, 0.0, 0.0, sc.v_t, phi_t_dot)
        rates.append(lyapunov_report(err, Twist(v, w), tgt, sc.gains, sc.controller)[2:])
        da, db = (sa, sb) if proposed else (a, b)
        singular.append(rho > 1e-3 and abs(da) <= 1e-6 and abs(db) > 1e-6)
    v1_dot, v2_dot = np.array(rates).reshape(-1, 2).T
    return np.array(singular, dtype=bool), log["rho"] <= 1e-3, v1_dot, v2_dot
