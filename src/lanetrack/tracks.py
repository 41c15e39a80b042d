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

#: Consecutive segments per block of a PathProjector index.
PROJECTION_BLOCK = 32
#: Query points projected per batch; keeps the temporaries small.
PROJECTION_CHUNK = 128


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


class PathProjector:
    """Exact nearest-segment projection of points onto a polyline.

    Segment k runs from path[k] to path[k + 1]. A point p projects onto it
    at t = clip((p - path[k]) . seg_k / denom[k], 0, 1) with squared
    distance d2 = |path[k] + t seg_k - p|^2; the nearest segment is the one
    with the smallest d2, the lowest index among equals (as np.argmin).
    The caller supplies denom, |seg_k|^2 computed its own way: two ways of
    computing it can differ in the last bit, and so would the results.

    The segments are split into blocks of PROJECTION_BLOCK, each with a
    bounding circle. The distance from p to the nearest block start vertex
    is an upper bound on the answer and |p - c| - r a lower bound for a
    block; only blocks whose lower bound does not exceed the upper bound
    are evaluated. Every segment that can attain the minimum lies in such
    a block, so the pruning changes no result.
    """

    def __init__(self, path: np.ndarray, denom: np.ndarray):
        n_seg = len(path) - 1
        n_block = -(-n_seg // PROJECTION_BLOCK)
        # Segment k sits at [k // B, k % B]. The last block is filled up
        # with copies of the last segment: a copy never beats the original,
        # which comes first with the same d2.
        k = np.minimum(np.arange(n_block * PROJECTION_BLOCK), n_seg - 1)
        self._k = k.reshape(n_block, PROJECTION_BLOCK)
        start = path[self._k]
        seg = path[self._k + 1] - start
        # per segment x0, y0, sx, sy and denom, one (n_block, B) plane each,
        # so that one index picks them all for a set of blocks
        self._planes = np.stack((start[..., 0], start[..., 1], seg[..., 0], seg[..., 1],
                                 denom[self._k]))
        # the bounds work on points as complex numbers x + iy
        self._first_vertex = start[:, 0].copy().view(np.complex128)[:, 0]
        vertices = np.concatenate((start, path[self._k[:, -1:] + 1]), axis=1)
        centers = 0.5 * (vertices.min(axis=1) + vertices.max(axis=1))
        radii = np.sqrt(np.max(np.sum((vertices - centers[:, None]) ** 2, axis=2), axis=1))
        self._centers = centers.view(np.complex128)[:, 0]
        # absorbs rounding in the bounds; a looser test only keeps more blocks
        self._radii = radii * (1.0 + 1e-9) + 1e-9 * (1.0 + np.abs(path).max())

    def project(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(segment index, t, d2) of the nearest segment for each (x, y) row."""
        pts = np.ascontiguousarray(points, dtype=float).reshape(-1, 2)
        n = len(pts)
        # a non-finite or huge point overflows, or makes inf - inf or
        # 0 * inf, on the way to its result, which says all there is to say
        with np.errstate(invalid="ignore", over="ignore"):
            if n == 1:
                return self._project_one(pts)
            if n <= PROJECTION_CHUNK:
                return self._project_chunk(pts)
            idx, t, d2 = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n)
            for lo in range(0, n, PROJECTION_CHUNK):
                hi = lo + PROJECTION_CHUNK
                idx[lo:hi], t[lo:hi], d2[lo:hi] = self._project_chunk(pts[lo:hi])
        return idx, t, d2

    def _blocks_t_d2(self, q, block):
        """t and d2 on every segment of the blocks for the points q, given
        coordinate first: q[0] holds the x and q[1] the y of one point for
        all of them, (2, 1, 1), or of one point per block, (2, len(block), 1).

        The dot products are summed from 0.0, as np.einsum sums them, so
        that one of -0.0 becomes 0.0; np.maximum(0.0, t) keeps a t of -0.0
        that a tiny negative quotient rounds to, as np.clip does. x and y
        go through each step as one array: (q - start) * seg, then
        start + t * seg - q.
        """
        planes = self._planes.take(block, axis=1)
        start, seg = planes[:2], planes[2:4]
        prod = q - start
        prod *= seg
        dot = 0.0 + prod[0]
        dot += prod[1]
        t = dot / planes[4]
        np.maximum(0.0, t, out=t)
        np.minimum(t, 1.0, out=t)
        diff = seg * t
        diff += start
        diff -= q
        diff *= diff
        return t, diff[0] + diff[1]

    def _project_one(self, p):
        """project() for a single point: the same arithmetic, with its first
        minimum taken by one argmin over its kept blocks, which come in
        ascending order and so put its segments in path order."""
        z = p.view(np.complex128)[0]
        upper = np.minimum.reduce(np.abs(z - self._first_vertex))
        lower = np.abs(z - self._centers) - self._radii
        (block,) = np.nonzero(~(lower > upper * (1.0 + 1e-9)))
        t, d2 = self._blocks_t_d2(p.reshape(2, 1, 1), block)
        first = int(d2.argmin())
        b, j = divmod(first, PROJECTION_BLOCK)
        one = slice(first, first + 1)
        return self._k[block[b], j : j + 1], t.reshape(-1)[one], d2.reshape(-1)[one]

    def _project_chunk(self, p):
        z = p.view(np.complex128)
        upper = np.abs(z - self._first_vertex).min(axis=1, keepdims=True)
        lower = np.abs(z - self._centers) - self._radii
        # upper carries slack for rounding, like the radii; a non-finite
        # point compares false everywhere and keeps every block
        row, block = np.nonzero(~(lower > upper * (1.0 + 1e-9)))
        t, d2 = self._blocks_t_d2(p.T[:, row, None], block)

        # nearest segment per (point, block), then per point over its blocks,
        # which come in ascending order; NaN ranks lowest, as in np.argmin
        best = np.argmin(d2, axis=1)
        pair = np.arange(len(row))
        t, d2 = t[pair, best], d2[pair, best]
        order = np.lexsort((np.where(np.isnan(d2), -np.inf, d2), row))
        counts = np.bincount(row, minlength=len(p))
        first = order[np.cumsum(counts) - counts]
        return self._k[block[first], best[first]], t[first], d2[first]


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
        self._s = s
        self.length = s[-1].item()
        self._seg_len = seg_len
        self._headings = np.arctan2(seg_vec[:, 1], seg_vec[:, 0])
        headings = self._headings.tolist()
        # One column per segment, which one take picks for a set of arc
        # positions: its start s and length, start point, vector, and the
        # offset from the path to its left lane boundary, half a lane width
        # along the left normal (-sin phi, cos phi). math, not np: the
        # normals are math.sin/math.cos of the headings, bit for bit.
        h = 0.5 * self.lane_width
        self._columns = np.stack((
            s[:-1], seg_len, path[:-1, 0], path[:-1, 1], seg_vec[:, 0], seg_vec[:, 1],
            -h * np.array([math.sin(a) for a in headings]),
            h * np.array([math.cos(a) for a in headings]),
        ))
        # the segment of an arc position in [0, length] is the number of
        # these inner segment starts at or below it
        self._inner_starts = s[1:-1]
        self._projector = PathProjector(path, seg_len**2)

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
        offset = col[6:]
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
        xy, an (n, 2) array-like, from one projection of them all."""
        i, t, _ = self._projector.project(xy)
        return self._s[i] + t * self._seg_len[i]


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
