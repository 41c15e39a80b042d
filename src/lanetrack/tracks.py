"""Reference tracks: arc-length parameterized polylines with lane boundaries.

Ships a small set of desk-scale fixtures (straight, circle, oval, and a
figure course with dotted/zebra zones) used by the scenarios and tests.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Vertex spacing used when generating fixture polylines (m).
FIXTURE_DS = 0.05

#: Most vertices a fixture track may have: far above any shipped scenario
#: or test (2,459), and a track of a few MB, not of all memory.
MAX_FIXTURE_VERTICES = 100_000

#: Consecutive segments per block of a PathProjector index.
PROJECTION_BLOCK = 32
#: Query points projected per batch; keeps the temporaries small.
PROJECTION_CHUNK = 128


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
        self._start = path[self._k]
        self._seg = path[self._k + 1] - self._start
        self._denom = denom[self._k]
        # the bounds work on points as complex numbers x + iy
        self._first_vertex = self._start[:, 0].copy().view(np.complex128)[:, 0]
        vertices = np.concatenate((self._start, path[self._k[:, -1:] + 1]), axis=1)
        centers = 0.5 * (vertices.min(axis=1) + vertices.max(axis=1))
        radii = np.sqrt(np.max(np.sum((vertices - centers[:, None]) ** 2, axis=2), axis=1))
        self._centers = centers.view(np.complex128)[:, 0]
        # absorbs rounding in the bounds; a looser test only keeps more blocks
        self._radii = radii * (1.0 + 1e-9) + 1e-9 * (1.0 + np.abs(path).max())

    def project(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(segment index, t, d2) of the nearest segment for each (x, y) row."""
        pts = np.ascontiguousarray(points, dtype=float).reshape(-1, 2)
        n = len(pts)
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
        """t and d2 on every segment of the blocks for the points q, one
        per block or one for all of them."""
        start, seg = self._start[block], self._seg[block]
        t = np.clip(np.einsum("kbj,kbj->kb", q - start, seg) / self._denom[block], 0.0, 1.0)
        diff = start + t[..., None] * seg - q
        return t, np.einsum("kbj,kbj->kb", diff, diff)

    def _project_one(self, p):
        """project() for a single point: the same arithmetic, with its first
        minimum taken by one argmin over its kept blocks, which come in
        ascending order and so put its segments in path order."""
        z = p.view(np.complex128)[0]
        upper = np.abs(z - self._first_vertex).min()
        lower = np.abs(z - self._centers) - self._radii
        (block,) = np.nonzero(~(lower > upper * (1.0 + 1e-9)))
        t, d2 = self._blocks_t_d2(p, block)
        first = int(np.argmin(d2))
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
        t, d2 = self._blocks_t_d2(p[row, None], block)

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
        for name in ("s_lo", "s_hi", "dash_len", "gap_len"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise TypeError(f"segment {name} must be a number, got {value!r}")
        if self.style not in ("solid", "dotted", "zebra_clutter"):
            raise ValueError(f"unknown boundary style {self.style!r}")
        if self.s_lo >= self.s_hi:
            raise ValueError("s_lo must be < s_hi")


class Track:
    """A reference path with lane width and boundary-style zones.

    segments, the zones, is empty until a caller sets it.
    """

    def __init__(
        self,
        reference_path: np.ndarray,
        lane_width: float = 3.5,
        closed: bool = False,
    ):
        path = np.asarray(reference_path, dtype=float)
        if path.ndim != 2 or path.shape[0] < 2 or path.shape[1] != 2:
            raise ValueError("reference_path must be an (N, 2) array with N >= 2")
        if not (math.isfinite(lane_width) and lane_width > 0):
            raise ValueError(f"lane_width must be a finite number > 0, got {lane_width}")
        seg_vec = np.diff(path, axis=0)
        seg_len = np.linalg.norm(seg_vec, axis=1)
        if np.any(seg_len == 0.0):
            keep = np.concatenate(([True], seg_len > 0.0))
            path = path[keep]
            seg_vec = np.diff(path, axis=0)
            seg_len = np.linalg.norm(seg_vec, axis=1)
        total = float(seg_len.sum())
        if total <= 0.0 or len(path) < 2:
            raise ValueError("reference_path must have positive total length")

        self.reference_path = path
        self.lane_width = float(lane_width)
        self.closed = bool(closed)
        self.segments: list[StyleSegment] = []
        self._s = np.concatenate(([0.0], np.cumsum(seg_len)))
        self.length = float(self._s[-1])
        self._seg_vec = seg_vec
        self._seg_len = seg_len
        self._headings = np.arctan2(seg_vec[:, 1], seg_vec[:, 0])
        headings = self._headings.tolist()
        # math, not np: the per-segment normals are math.sin/math.cos of
        # the headings, bit for bit
        self._sin = np.array([math.sin(h) for h in headings])
        self._cos = np.array([math.cos(h) for h in headings])
        self._projector = PathProjector(path, seg_len**2)

    def point_at(self, s: float) -> tuple[float, float]:
        """The path point at arc position s, as Python floats."""
        x, y = self._locate_many(s)[1].tolist()
        return x, y

    def _locate_many(self, s) -> tuple[np.ndarray, np.ndarray]:
        """The segment index and the (x, y) path point at each arc position
        in s: wrapped on a closed track, clamped to the ends of an open one."""
        s = np.asarray(s, dtype=float)
        s = s % self.length if self.closed else np.clip(s, 0.0, self.length)
        i = np.clip(np.searchsorted(self._s, s, side="right") - 1, 0, len(self._seg_len) - 1)
        frac = (s - self._s[i]) / self._seg_len[i]
        return i, self.reference_path[i] + frac[..., None] * self._seg_vec[i]

    def points_at(self, s) -> tuple[np.ndarray, np.ndarray]:
        """point_at over an array, with the heading: one (x, y) row per arc
        position in s, and the path heading there."""
        i, p = self._locate_many(s)
        return p, self._headings[i]

    def boundary_point(self, s) -> tuple[np.ndarray, np.ndarray]:
        """The (left, right) lane boundary points, one (x, y) row each per
        arc position in s, wrapped or clamped as in point_at."""
        i, p = self._locate_many(s)
        # half a lane width along the left normal (-sin phi, cos phi), and against it
        h = 0.5 * self.lane_width
        offset = np.stack((-h * self._sin[i], h * self._cos[i]), axis=-1)
        return p + offset, p - offset

    def visibility(self, s) -> tuple[np.ndarray, np.ndarray]:
        """(visible, zebra) boolean arrays for the arc positions s.

        A position takes the style of the first segment whose [s_lo, s_hi)
        holds it, wrapped into [0, length) on a closed track; with none it
        is solid. Only a dotted zone hides a boundary: in its gaps, where
        the phase (s - s_lo) % (dash_len + gap_len) of the unwrapped s is
        >= dash_len, or everywhere if its dash or period is not positive.
        """
        s = np.asarray(s, dtype=float)
        wrapped = s % self.length if self.closed else s
        visible = np.ones(s.shape, dtype=bool)
        zebra = np.zeros(s.shape, dtype=bool)
        unclaimed = np.ones(s.shape, dtype=bool)
        for seg in self.segments:
            hit = unclaimed & (seg.s_lo <= wrapped) & (wrapped < seg.s_hi)
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


def _arc_points(cx, cy, r, phi0, phi1, ds):
    n = max(2, int(math.ceil(abs(phi1 - phi0) * r / ds)))
    ang = np.linspace(phi0, phi1, n + 1)
    return np.column_stack((cx + r * np.cos(ang), cy + r * np.sin(ang)))


def straight_track(length: float = 50.0, lane_width: float = 3.5) -> Track:
    """Open straight track along +x starting at the origin."""
    n = int(round(length / FIXTURE_DS))
    xs = np.linspace(0.0, length, n + 1)
    return Track(np.column_stack((xs, np.zeros_like(xs))), lane_width=lane_width)


def circle_track(radius: float = 15.0, lane_width: float = 3.5) -> Track:
    """Closed circular track, counterclockwise, starting at angle -pi/2."""
    pts = _arc_points(0.0, radius, radius, -0.5 * math.pi, 1.5 * math.pi, FIXTURE_DS)
    pts[-1] = pts[0]
    return Track(pts, lane_width=lane_width, closed=True)


def oval_track(straight_len: float = 30.0, radius: float = 10.0, lane_width: float = 3.5) -> Track:
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


def figure_course(lane_width: float = 3.5) -> Track:
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


_FIXTURES = {
    "straight": straight_track,
    "circle": circle_track,
    "oval": oval_track,
    "figure_course": figure_course,
}


def make_track(spec: dict) -> Track:
    """Build a Track from its JSON description (see docs/FORMATS.md)."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    segments = spec.pop("segments", None)
    if kind == "polyline":
        track = Track(
            np.asarray(spec["points"], dtype=float),
            lane_width=spec.get("lane_width", 3.5),
            closed=spec.get("closed", False),
        )
    elif isinstance(kind, str) and kind in _FIXTURES:
        build = _FIXTURES[kind]
        args = inspect.signature(build).bind(**spec)  # a TypeError for an unknown key
        args.apply_defaults()
        _check_fixture_size(args.arguments)
        track = build(**spec)
    else:
        raise ValueError(f"unknown track kind {kind!r}")
    if segments is not None:
        track.segments = [StyleSegment(**seg) for seg in segments]
    return track


def _check_fixture_size(args: dict) -> None:
    """Reject the arguments of a fixture whose lengths or radii are not
    finite and > 0, or that would have more than MAX_FIXTURE_VERTICES
    vertices, before any array is made.

    A fixture has about its path length over FIXTURE_DS vertices, and at
    most 8 more: each straight and each arc adds one or two.
    """
    sizes = {name: args[name] for name in ("length", "straight_len", "radius") if name in args}
    for name, value in sizes.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"track {name} must be a finite number > 0, got {value!r}")
    # a circle's one turn, or an oval's two half turns
    path_len = (sizes.get("length", 0.0) + 2.0 * sizes.get("straight_len", 0.0)
                + 2.0 * math.pi * sizes.get("radius", 0.0))
    if path_len / FIXTURE_DS + 8 > MAX_FIXTURE_VERTICES:
        raise ValueError(f"track of {path_len:.3g} m has more than {MAX_FIXTURE_VERTICES} "
                         f"vertices {FIXTURE_DS} m apart")
