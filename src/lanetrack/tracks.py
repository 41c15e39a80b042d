"""Reference tracks: arc-length parameterized polylines with lane boundaries.

Ships a small set of desk-scale fixtures (straight, circle, oval, and a
figure course with dotted/zebra zones) used by the scenarios and tests.
"""

from __future__ import annotations

import inspect
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

#: Default lane width (m).
DEFAULT_LANE_WIDTH = 3.5

#: Vertex spacing used when generating fixture polylines (m).
FIXTURE_DS = 0.05

#: Most vertices a fixture track may have: far above any shipped scenario
#: or test (2,459), and a track of a few MB, not of all memory.
MAX_FIXTURE_VERTICES = 100_000


def is_finite_number(value) -> bool:
    """The number rule of every numeric scenario field: a real number, not a
    bool, and finite as a float (an int too large for one is not)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max  # False for NaN


def record_args(value, name: str, cls) -> dict:
    """value, the JSON object of the scenario record called name ("" for
    the scenario itself), checked to be keyword arguments of cls: a
    ValueError names the record if value is not an object, else the first
    key that is not a parameter of cls, else the first parameter without a
    default that value lacks."""
    if not isinstance(value, dict):
        raise ValueError(f"{name or 'the scenario'} must be an object, got {value!r}")
    prefix = f"{name}." if name else ""
    params = inspect.signature(cls).parameters
    for key in value:
        if key not in params:
            raise ValueError(f"{prefix}{key} is not a field")
    for key, param in params.items():
        if param.default is param.empty and key not in value:
            raise ValueError(f"{prefix}{key} is missing")
    return value


def _segments(path: np.ndarray, name: str):
    """path without the vertices that repeat the one before, its segment
    vectors and lengths, and the arc length at each vertex. A ValueError
    names the path unless its length is finite and positive: a segment or
    a sum too long for a float is infinite, and warns nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        seg_vec = np.diff(path, axis=0)
        seg_len = np.linalg.norm(seg_vec, axis=1)
        if np.any(seg_len == 0.0):
            path = path[np.concatenate(([True], seg_len > 0.0))]
            seg_vec = np.diff(path, axis=0)
            seg_len = np.linalg.norm(seg_vec, axis=1)
        s = np.concatenate(([0.0], np.cumsum(seg_len)))
    length = s[-1].item()
    if not 0.0 < length <= sys.float_info.max:  # NaN too
        raise ValueError(f"{name} must have a finite positive length, got {length:.3g}")
    return path, seg_vec, seg_len, s


def nearest_segment(p, columns) -> tuple[int, float, float]:
    """(segment, t, d2) of the point p = (x, y) on the nearest segment of a
    polyline, by one scan of every segment: the lowest index among equals,
    a NaN d2 counting as the lowest, as in np.argmin.

    columns are the segments' start x0, y0, vector sx, sy and denominator
    |s|^2, computed the caller's way: two ways can differ in the last bit.
    t = clamp((p - start) . s / denom, 0, 1) and d2 = |start + t s - p|^2,
    the dot product summed from 0.0 (so never -0.0), and the clamp keeping
    a t of -0.0, as np.clip does; walk does the same in Python floats.
    """
    x0, y0, sx, sy, denom = columns
    x, y = p
    # a non-finite or huge point overflows, or makes inf - inf or 0 * inf,
    # on the way to its result, which says all there is to say
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dot = 0.0 + (x - x0) * sx
        dot += (y - y0) * sy
        t = dot / denom
        np.maximum(0.0, t, out=t)
        np.minimum(t, 1.0, out=t)
        dx = sx * t + x0 - x
        dy = sy * t + y0 - y
        d2 = dx * dx + dy * dy
    k = int(d2.argmin())
    return k, t[k].item(), d2[k].item()


def walk(points, k: int, columns, closed: bool):
    """Yield (segment, t, d2) for each (x, y) of points, walked on from the
    segment of the point before it, the first from segment k: to k + 1
    while that segment's d2 is smaller, then to k - 1 the same way. A tie
    moves only to a lower index; the index wraps on a closed path and stops
    at the ends of an open one. A point whose d2 on the segment it starts
    from is not finite stays there. The walk ends at a local minimum of
    d2, on the branch it walks: another branch may be nearer, and a
    zero-length segment, which ties with the one before it, stops it.

    columns are nearest_segment's as sequences of Python floats, and t and
    d2 its arithmetic; a square that underflows gives numpy's quotient.
    """
    x0, y0, sx, sy, denom = columns
    n = len(denom)
    for x, y in points:
        # the arithmetic is inline, for speed: step is 0 on the start
        # segment k, then 1 while walking up and -1 while walking down; on
        # an open path, a step past either end counts as not nearer
        j, step = k, 0
        while True:
            dot = 0.0 + (x - x0[j]) * sx[j] + (y - y0[j]) * sy[j]
            t_j = dot / denom[j] if denom[j] else dot * math.inf
            t_j = 0.0 if t_j < 0.0 else 1.0 if t_j > 1.0 else t_j  # keeps -0.0 and NaN
            dx = sx[j] * t_j + x0[j] - x
            dy = sy[j] * t_j + y0[j] - y
            d2_j = dx * dx + dy * dy
            if step == 0:
                t, d2 = t_j, d2_j
                if not d2 < math.inf:
                    break
                step = 1
            elif (closed or j == k + step) and (d2_j < d2 or d2_j == d2 and j < k):
                k, t, d2 = j, t_j, d2_j
            elif step == 1:
                step = -1
            else:
                break
            j = (k + step) % n
        yield k, t, d2


@dataclass(frozen=True)
class StyleSegment:
    """Boundary style over an arc-length interval [s_lo, s_hi)."""

    s_lo: float
    s_hi: float
    style: str  # solid | dotted | zebra_clutter
    dash_len: float = 1.0
    gap_len: float = 1.0

    def __post_init__(self):
        # each message leads with the field: make_track prefixes its place
        for name in ("s_lo", "s_hi", "dash_len", "gap_len"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.style not in ("solid", "dotted", "zebra_clutter"):
            raise ValueError(f"style must be solid, dotted or zebra_clutter, got {self.style!r}")
        if self.s_lo >= self.s_hi:
            raise ValueError("s_lo must be < s_hi")


class Track:
    """A reference path with lane width and boundary-style zones.

    The path and lane width are fixed at construction; segments, the
    zones, is empty until a caller sets it.
    """

    def __init__(
        self,
        reference_path: np.ndarray,
        lane_width: float = DEFAULT_LANE_WIDTH,
        closed: bool = False,
    ):
        path = np.asarray(reference_path, dtype=float)
        if path.ndim != 2 or path.shape[0] < 2 or path.shape[1] != 2:
            raise ValueError("reference_path must be an (N, 2) array with N >= 2")
        if not (is_finite_number(lane_width) and lane_width > 0):
            raise ValueError(f"lane_width must be a finite number > 0, got {lane_width}")
        path, seg_vec, seg_len, s = _segments(path, "reference_path")

        self.reference_path = path
        self.lane_width = float(lane_width)
        self.closed = bool(closed)
        self.segments: list[StyleSegment] = []
        self.length = s[-1].item()
        self._headings = np.arctan2(seg_vec[:, 1], seg_vec[:, 0])
        headings = self._headings.tolist()
        # One column per segment, which one take picks for a set of arc
        # positions: its start s and length, nearest_segment's five columns,
        # and the offset from the path to its left lane boundary, half a
        # lane width along the left normal (-sin phi, cos phi). math, not
        # np: the normals are math.sin/math.cos of the headings, bit for bit.
        h = 0.5 * self.lane_width
        self._columns = np.stack((
            s[:-1], seg_len, path[:-1, 0], path[:-1, 1], seg_vec[:, 0], seg_vec[:, 1],
            seg_len * seg_len,
            -h * np.array([math.sin(a) for a in headings]),
            h * np.array([math.cos(a) for a in headings]),
        ))
        # walk_s reads the first seven rows as Python floats, without a copy
        self._rows = [row.data for row in self._columns[:7]]
        # the segment of an arc position in [0, length] is the number of
        # these inner segment starts at or below it
        self._inner_starts = s[1:-1]

    def __reduce__(self):
        # a memoryview does not pickle: a copy is built again from the
        # fields, with the zones of the original
        fields = (self.reference_path, self.lane_width, self.closed)
        return type(self), fields, {"segments": self.segments}

    def point_at(self, s: float) -> tuple[float, float]:
        """The path point at arc position s, as Python floats."""
        x, y = self._locate_many(s)[1].tolist()
        return x, y

    def _locate_many(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """At each arc position in s, wrapped on a closed track and clamped
        to the ends of an open one: the segment index, the path point and
        the segment's column of _columns. The points and columns have the
        coordinate (the row of _columns) first, so that the arithmetic runs
        along the positions, not along the short (x, y) pairs."""
        s = np.asarray(s, dtype=float)
        # np.maximum(0.0, s) keeps a -0.0, as np.clip does. A NaN sorts
        # last, onto the last segment, as does the end of the track.
        s = s % self.length if self.closed else np.minimum(np.maximum(0.0, s), self.length)
        i = self._inner_starts.searchsorted(s, side="right")
        col = self._columns.take(i, axis=1)
        frac = (s - col[0]) / col[1]
        p = col[4:6] * frac
        p += col[2:4]
        return i, p, col

    def points_at(self, s) -> tuple[np.ndarray, np.ndarray]:
        """point_at over an array, with the heading: one (x, y) row per arc
        position in s, and the path heading there."""
        i, p, _ = self._locate_many(s)
        return _coordinate_last(p), self._headings.take(i)

    def boundary_point(self, s) -> np.ndarray:
        """The lane boundary points at the arc positions in s, wrapped or
        clamped as in point_at: one array of the left and the right
        boundary, each one (x, y) row per position, so that
        `left, right = track.boundary_point(s)`."""
        _, p, col = self._locate_many(s)
        # the right boundary is p - offset: p + (-offset), bit for bit
        offset = col[7:]
        out = np.empty((2, 2) + p.shape[1:])
        np.add(p, offset, out=out[:, 0])
        np.subtract(p, offset, out=out[:, 1])
        return _coordinate_last(out)

    def visibility(self, s) -> tuple[np.ndarray, np.ndarray]:
        """(visible, zebra) boolean arrays for the arc positions s.

        A position takes the style of the first segment whose [s_lo, s_hi)
        holds it, wrapped into [0, length) on a closed track; with none it
        is solid. Only a dotted zone hides a boundary: in its gaps, where
        the phase (s - s_lo) % (dash_len + gap_len) of the unwrapped s is
        >= dash_len, or everywhere if its dash or period is not positive.
        """
        s = np.asarray(s, dtype=float)
        visible = np.ones(s.shape, dtype=bool)
        zebra = np.zeros(s.shape, dtype=bool)
        if not (self.segments and s.size):
            return visible, zebra
        wrapped = s % self.length if self.closed else s
        # a zone wholly below or above the positions holds none of them;
        # with a NaN position both bounds are NaN and no zone is skipped
        lo, hi = np.minimum.reduce(wrapped, None).item(), np.maximum.reduce(wrapped, None).item()
        unclaimed = np.ones(s.shape, dtype=bool)
        for seg in self.segments:
            if seg.s_hi <= lo or seg.s_lo > hi:
                continue
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

    def nearest_s(self, xy) -> np.ndarray:
        """Arc positions of the path points nearest to the (x, y) rows of
        xy, an (n, 2) array-like, each by one scan of every segment
        (nearest_segment): the global rule of a run's first pose, from
        which walk_s continues."""
        return np.array([self._nearest(p)[1] for p in np.asarray(xy, dtype=float).reshape(-1, 2)])

    def _nearest(self, p) -> tuple[int, float]:
        """(segment, arc position) of the path point nearest to p = (x, y),
        in Python floats."""
        k, t, _ = nearest_segment(p, self._columns[2:7])
        s0, seg_len = self._rows[:2]
        return k, s0[k] + t * seg_len[k]

    def walk_s(self, xy, k: int) -> tuple[int, float]:
        """(segment, arc position) of the foot point of xy = (x, y), walked
        on from segment k (see walk), in Python floats: t and s are
        nearest_s's where the walk ends on the nearest segment."""
        rows = self._rows
        k, t, _ = next(walk((xy,), k, rows[2:], self.closed))
        return k, rows[0][k] + t * rows[1][k]


def _coordinate_last(planes: np.ndarray) -> np.ndarray:
    """planes, coordinate first (x of every point, then y), viewed with
    the coordinate as the last axis, as the (x, y) rows of the points."""
    return planes.transpose(*range(1, planes.ndim), 0)


def _arc_points(cx, cy, r, phi0, phi1, ds):
    n = max(2, int(math.ceil(abs(phi1 - phi0) * r / ds)))
    ang = np.linspace(phi0, phi1, n + 1)
    return np.column_stack((cx + r * np.cos(ang), cy + r * np.sin(ang)))


def straight_track(length: float = 50.0, lane_width: float = DEFAULT_LANE_WIDTH) -> Track:
    """Open straight track along +x starting at the origin."""
    n = int(round(length / FIXTURE_DS))
    xs = np.linspace(0.0, length, n + 1)
    return Track(np.column_stack((xs, np.zeros_like(xs))), lane_width=lane_width)


def circle_track(radius: float = 15.0, lane_width: float = DEFAULT_LANE_WIDTH) -> Track:
    """Closed circular track, counterclockwise, starting at angle -pi/2."""
    pts = _arc_points(0.0, radius, radius, -0.5 * math.pi, 1.5 * math.pi, FIXTURE_DS)
    pts[-1] = pts[0]
    return Track(pts, lane_width=lane_width, closed=True)


def oval_track(
    straight_len: float = 30.0, radius: float = 10.0, lane_width: float = DEFAULT_LANE_WIDTH
) -> Track:
    """Closed oval: two straights joined by two semicircles, counterclockwise."""
    ds = FIXTURE_DS
    n = int(round(straight_len / ds))
    xs = np.linspace(0.0, straight_len, n + 1)
    bottom = np.column_stack((xs, np.zeros_like(xs)))
    arc1 = _arc_points(straight_len, radius, radius, -0.5 * math.pi, 0.5 * math.pi, ds)
    top = np.column_stack((xs[::-1], np.full_like(xs, 2.0 * radius)))
    arc2 = _arc_points(0.0, radius, radius, 0.5 * math.pi, 1.5 * math.pi, ds)
    pts = np.vstack((bottom, arc1[1:], top[1:], arc2[1:]))
    pts[-1] = pts[0]
    return Track(pts, lane_width=lane_width, closed=True)


def figure_course(lane_width: float = DEFAULT_LANE_WIDTH) -> Track:
    """Oval with dotted and zebra-clutter zones emulating a mixed course."""
    track = oval_track(lane_width=lane_width)
    L = track.length
    track.segments = [
        StyleSegment(8.0, 22.0, "dotted", dash_len=1.0, gap_len=1.0),
        StyleSegment(38.0, 44.0, "zebra_clutter"),
        StyleSegment(0.45 * L, 0.45 * L + 14.0, "dotted", dash_len=0.8, gap_len=1.2),
        StyleSegment(0.75 * L, 0.75 * L + 6.0, "zebra_clutter"),
    ]
    return track


def polyline_track(points, lane_width: float = DEFAULT_LANE_WIDTH, closed: bool = False) -> Track:
    """A track through the given (x, y) points."""
    return Track(np.asarray(points, dtype=float), lane_width=lane_width, closed=closed)


_KINDS = {
    "straight": straight_track,
    "circle": circle_track,
    "oval": oval_track,
    "figure_course": figure_course,
    "polyline": polyline_track,
}


def track_fields(spec) -> set[str]:
    """The keys a JSON track may hold: kind, segments and its kind's parameters, if known."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    build = _KINDS.get(kind) if isinstance(kind, str) else None
    return {"kind", "segments", *(inspect.signature(build).parameters if build else ())}


def make_track(spec: dict) -> Track:
    """Build a Track from its JSON description (see docs/FORMATS.md); each
    field is checked, and named in an error, before any array is made."""
    if not isinstance(spec, dict):
        raise ValueError(f"track must be an object, got {spec!r}")
    spec = dict(spec)
    kind = spec.pop("kind", None)
    segments = spec.pop("segments", None)
    if not (isinstance(kind, str) and kind in _KINDS):
        raise ValueError(f"unknown track kind {kind!r}")
    build = _KINDS[kind]
    args = inspect.signature(build).bind(**record_args(spec, "track", build))
    args.apply_defaults()
    _check_track_args(args.arguments)
    if segments is not None and not isinstance(segments, list):
        raise ValueError(f"track.segments must be a list, got {segments!r}")
    zones = None if segments is None else [_zone(i, seg) for i, seg in enumerate(segments)]
    track = build(**spec)
    if zones is not None:
        track.segments = zones
    return track


def _zone(i: int, seg: dict) -> StyleSegment:
    """Zone i of a track's segments list; an error names the field, as
    track.segments[0].s_lo."""
    name = f"track.segments[{i}]"
    args = record_args(seg, name, StyleSegment)
    try:
        return StyleSegment(**args)
    except ValueError as exc:
        raise ValueError(f"{name}.{exc}") from None


def _check_track_args(args: dict) -> None:
    """Reject the arguments of a track kind whose lane width, lengths or
    radius are not finite numbers > 0, whose closed is not a bool, whose
    polyline points are not (see _check_points), or that would make a
    fixture of more than MAX_FIXTURE_VERTICES vertices.

    A fixture has about its path length over FIXTURE_DS vertices, and at
    most 8 more: each straight and each arc adds one or two.
    """
    if not isinstance(args.get("closed", False), bool):
        raise ValueError(f"track.closed must be true or false, got {args['closed']!r}")
    if "points" in args:
        _check_points(args["points"])
    sizes = {name: args[name] for name in ("length", "straight_len", "radius", "lane_width")
             if name in args}
    for name, value in sizes.items():
        if not (is_finite_number(value) and value > 0):
            raise ValueError(f"track.{name} must be a finite number > 0, got {value!r}")
    # a circle's one turn, or an oval's two half turns
    path_len = (sizes.get("length", 0.0) + 2.0 * sizes.get("straight_len", 0.0)
                + 2.0 * math.pi * sizes.get("radius", 0.0))
    if path_len / FIXTURE_DS + 8 > MAX_FIXTURE_VERTICES:
        raise ValueError(f"track of {path_len:.3g} m has more than {MAX_FIXTURE_VERTICES} "
                         f"vertices {FIXTURE_DS} m apart")


def _check_points(points) -> None:
    """Reject a polyline's points unless they are a list of 2 to
    MAX_FIXTURE_VERTICES [x, y] pairs of finite numbers, along a path of
    finite positive length (as Track measures it); an error names the
    point, as track.points[1][0], or track.points."""
    if not isinstance(points, (list, tuple)):
        raise ValueError(f"track.points must be a list of [x, y] pairs, got {points!r}")
    if len(points) > MAX_FIXTURE_VERTICES:
        raise ValueError(f"track.points has {len(points)} vertices, more than "
                         f"{MAX_FIXTURE_VERTICES}")
    for i, point in enumerate(points):
        if not (isinstance(point, (list, tuple)) and len(point) == 2):
            raise ValueError(f"track.points[{i}] must be a pair [x, y], got {point!r}")
        for j, value in enumerate(point):
            if not is_finite_number(value):
                raise ValueError(f"track.points[{i}][{j}] must be a finite number, got {value!r}")
    if len(points) < 2:
        raise ValueError(f"track.points must have at least 2 points, got {len(points)}")
    _segments(np.array(points, dtype=float), "track.points")
