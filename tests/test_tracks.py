import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from polylines import (
    CROSSING_SEGMENTS,
    TrackQueries,
    bits,
    descend,
    full_scan,
    gerono_lemniscate,
    hairpin,
    polylines,
    query_points,
    unit_square,
)

from lanetrack.tracks import (
    FIXTURE_DS,
    MAX_FIXTURE_VERTICES,
    StyleSegment,
    Track,
    circle_track,
    figure_course,
    make_track,
    nearest_segment,
    oval_track,
    straight_track,
    walk,
)
from lanetrack import tracks


def test_straight_track_basics():
    t = straight_track(50.0)
    assert t.length == pytest.approx(50.0)
    assert not t.closed
    assert t.point_at(12.5) == pytest.approx((12.5, 0.0))
    assert t.points_at(30.0)[1] == pytest.approx(0.0)


def test_circle_track_geometry():
    R = 15.0
    t = circle_track(R)
    assert t.closed
    assert t.length == pytest.approx(2 * math.pi * R, rel=1e-4)
    # starts at the bottom of the circle heading +x
    assert t.point_at(0.0) == pytest.approx((0.0, 0.0), abs=1e-6)
    assert t.points_at(0.0)[1] == pytest.approx(0.0, abs=2e-3)
    # quarter of the way round
    x, y = t.point_at(t.length / 4)
    assert x == pytest.approx(R, abs=1e-2)
    assert y == pytest.approx(R, abs=1e-2)


def test_oval_track_length():
    t = oval_track(30.0, 10.0)
    assert t.length == pytest.approx(2 * 30.0 + 2 * math.pi * 10.0, rel=1e-4)
    assert t.closed


def test_open_track_clamps_out_of_range():
    t = straight_track(10.0)
    assert t.point_at(-5.0) == pytest.approx((0.0, 0.0))
    assert t.point_at(99.0) == pytest.approx((10.0, 0.0))


def test_closed_track_wraps():
    t = oval_track()
    p1 = t.point_at(1.0)
    p2 = t.point_at(1.0 + t.length)
    assert p1 == pytest.approx(p2, abs=1e-9)


_FIXTURES = [straight_track(10.0).reference_path, oval_track().reference_path]


@st.composite
def _zones(draw, length):
    """Up to four dotted, zebra and solid zones, overlapping or not, some
    reaching past either end of the track."""
    zones = []
    for _ in range(draw(st.integers(0, 4))):
        s_lo = draw(st.floats(-5.0, length + 5.0))
        zones.append(StyleSegment(
            s_lo, s_lo + draw(st.floats(0.5, 30.0)),
            draw(st.sampled_from(["solid", "dotted", "zebra_clutter"])),
            dash_len=draw(st.sampled_from([0.0, 0.3, 1.0])),
            gap_len=draw(st.sampled_from([0.0, 0.5, 1.2])),
        ))
    return zones


@settings(max_examples=200, deadline=None)
@given(
    path=st.one_of(polylines(), st.sampled_from(_FIXTURES)),
    closed=st.booleans(),
    lane_width=st.sampled_from([0.5, 3.5, 1e-300]),
    data=st.data(),
)
@example(path=_FIXTURES[1], closed=True, lane_width=3.5, data=None)
def test_track_queries_match_the_reference(path, closed, lane_width, data):
    """point_at, points_at, boundary_point and visibility give the bits of
    the per-array queries they replaced (polylines.TrackQueries), for arc
    positions on and between the vertices, around the seam, past either
    end, -0.0, NaN, infinite and huge, as scalars, a list and 1-D and 2-D
    arrays; point_at gives Python floats."""
    assume(np.any(np.diff(path, axis=0) != 0.0))
    track = Track(path, lane_width=lane_width, closed=closed)
    L = track.length
    ref = TrackQueries(track)
    vertex = st.sampled_from(ref.s.tolist())
    position = st.one_of(
        vertex, vertex.map(lambda v: v + L), vertex.map(lambda v: v - L),
        st.sampled_from([0.0, -0.0, -1e-12, L, math.nextafter(L, 0.0), math.nextafter(L, math.inf),
                         2.0 * L, math.nan, math.inf, -math.inf, 1e300, -1e300]),
        st.floats(-3.0 * L, 4.0 * L),
    )
    if data is None:  # the figure course's zones over its seam
        track.segments = figure_course().segments
        queries = [-0.0, 8.0, 8.9, 21.99, 40.0, L - 0.1, L, L + 9.5, math.nan, math.inf]
    else:
        track.segments = data.draw(_zones(L))
        queries = data.draw(st.lists(position, min_size=0, max_size=40))
    s = np.array(queries, dtype=float)
    grid = s[: len(s) // 2 * 2].reshape(2, -1)
    # an infinite position wraps to NaN on a closed track, as in the reference
    with np.errstate(invalid="ignore"):
        for arg in (s, grid, queries, *queries):
            p, phi = track.points_at(arg)
            p_ref, phi_ref = ref.points_at(arg)
            assert p.shape == p_ref.shape and p.tobytes() == p_ref.tobytes()
            assert phi.shape == phi_ref.shape and phi.tobytes() == phi_ref.tobytes()
            sides, sides_ref = track.boundary_point(arg), ref.boundary_point(arg)
            assert sides.shape == sides_ref.shape and sides.tobytes() == sides_ref.tobytes()
            for got, want in zip(track.visibility(arg), ref.visibility(arg)):
                assert got.shape == want.shape and got.tolist() == want.tolist()
        for arg in queries:
            x, y = track.point_at(arg)
            assert type(x) is float and type(y) is float
            assert bits(x, y) == ref.locate_many(arg)[1].tobytes()


def test_boundary_points_are_half_width_off():
    t = straight_track(20.0, lane_width=3.5)
    s = np.array([-1.0, 5.0, 25.0])  # open track: the ends clamp
    left, right = t.boundary_point(s)
    assert left.tolist() == [[0.0, 1.75], [5.0, 1.75], [20.0, 1.75]]
    assert right.tolist() == [[0.0, -1.75], [5.0, -1.75], [20.0, -1.75]]
    assert [side.shape for side in t.boundary_point(np.empty(0))] == [(0, 2), (0, 2)]


def test_boundary_orthogonal_on_curve():
    t = circle_track(15.0)
    s = np.array([3.0, 20.0, 60.0, 3.0 + t.length, 3.0 - t.length])
    left, right = t.boundary_point(s)
    for (bx, by), (rx, ry), s_k in zip(left, right, s):
        cx, cy = t.point_at(s_k)
        phi = t.points_at(s_k)[1].item()
        # the same bits as the scalar formula on the path point and heading,
        # the right side as the left one's offset taken the other way
        sin, cos = 1.75 * math.sin(phi), 1.75 * math.cos(phi)
        assert bits(bx, by) == bits(cx - sin, cy + cos)
        assert bits(rx, ry) == bits(cx - -sin, cy + -cos)
        d = math.hypot(bx - cx, by - cy)
        assert d == pytest.approx(1.75, abs=1e-9)
        # left of a counterclockwise circle means closer to the center
        assert math.hypot(bx - 0.0, by - 15.0) < 15.0
        assert math.hypot(rx - 0.0, ry - 15.0) > 15.0


def test_nearest_s_roundtrip():
    t = oval_track()
    rng = np.random.default_rng(1)
    s = rng.uniform(0, t.length, size=25)
    assert t.nearest_s(t.points_at(s)[0]) == pytest.approx(s, abs=0.06)


def test_nearest_s_off_path():
    t = straight_track(10.0)
    assert t.nearest_s([(3.0, 2.0)]).tolist() == [pytest.approx(3.0, abs=1e-9)]


def _scan_nearest_s(track, p):
    """Track.nearest_s by the full per-point scan."""
    path = track.reference_path
    seg_len = np.linalg.norm(np.diff(path, axis=0), axis=1)
    i, t, _ = full_scan(path, seg_len**2, p)
    s = np.concatenate(([0.0], np.cumsum(seg_len)))
    return float(s[i] + t * seg_len[i])


#: A point on the start vertex of a segment heading down and left: each
#: product of its dot product is -0.0, and their sum from 0.0 is 0.0.
_DOWN_LEFT = np.array([[0.0, 0.0], [-1.0, -1.0], [-2.0, -1.5]])


def _columns(path, denom):
    """nearest_segment's columns of path, with the denominators denom."""
    seg = np.diff(path, axis=0)
    return np.stack((path[:-1, 0], path[:-1, 1], seg[:, 0], seg[:, 1], denom))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_projection_matches_full_scan(data):
    path = data.draw(st.one_of(polylines(), st.just(_DOWN_LEFT)))
    # np.einsum's denominators, as the metrics compute them, and 1 for a
    # zero-length segment (which the metrics drop), so that d2 is finite
    seg = np.diff(path, axis=0)
    denom = np.einsum("ij,ij->i", seg, seg)
    denom[denom == 0.0] = 1.0
    columns = _columns(path, denom)
    # the query points, and each vertex exactly; the walk from the scan's
    # segment stays there, with the same bits
    for p in np.vstack((data.draw(query_points(path)), path)):
        i, t_ref, d2_ref = full_scan(path, denom, p)
        i_scan, t, d2 = nearest_segment(p, columns)
        assert i_scan == i
        assert bits(t, d2) == bits(t_ref, d2_ref)
        ((i_walk, t, d2),) = walk([p.tolist()], i, columns.tolist(), closed=False)
        assert i_walk == i
        assert bits(t, d2) == bits(t_ref, d2_ref)


@st.composite
def _tracks_with_points(draw):
    path = draw(polylines())
    assume(np.any(np.diff(path, axis=0) != 0.0))
    track = Track(path, closed=draw(st.booleans()))
    return track, draw(query_points(track.reference_path))


def _hairpin():
    """The hairpin as a track."""
    return Track(hairpin())


@settings(max_examples=100, deadline=None)
@given(case=_tracks_with_points())
# exact ties, which go to the first segment in path order: points on the
# axis of the figure eight, as near to one branch as to the other; points
# on the hairpin's midline, as near to the way out as to the way back; and
# points off a vertex, as near to the segment ending there as to the one
# starting there, inside a block (vertex 10) and across blocks (vertex 32)
@example(case=(Track(gerono_lemniscate(), closed=True), np.array([[0.0, y] for y in (0.0, 0.05, -0.2)])))
@example(case=(_hairpin(), np.array([[0.25, 1.0], [5.0, 1.0], [16.0, 1.0], [17.5, 1.0]])))
@example(case=(_hairpin(), np.array([[5.0, -1.0], [16.0, -1.0], [16.0, 3.0], [4.0, 3.5]])))
def test_nearest_s_matches_full_scan(case):
    track, pts = case
    for p in pts:
        assert bits(*track.nearest_s([p])) == bits(_scan_nearest_s(track, p))


def _descend_s(track, p, k):
    """Track.walk_s by polylines.descend."""
    path = track.reference_path
    seg_len = np.linalg.norm(np.diff(path, axis=0), axis=1)
    # a segment whose squared length underflows divides by 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        i, t, _ = descend(path, seg_len**2, p, k, track.closed)
    s = np.concatenate(([0.0], np.cumsum(seg_len)))
    return i, float(s[i] + t * seg_len[i])


@settings(max_examples=100, deadline=None)
@given(case=_tracks_with_points(), start=st.integers(0, 10**6))
# ties across the seam of a closed track, from segment 0 (which stays) and
# from the last segment (which moves on to segment 0); the ends of an open
# track, and the hairpin's midline, as near to the way out as to the way
# back; a segment whose squared length underflows to 0.0
@example(case=(Track(unit_square(), closed=True), np.array([[-0.5, -0.5], [0.0, 0.0]])), start=0)
@example(case=(Track(unit_square(), closed=True), np.array([[-0.5, -0.5], [0.3, 0.0]])), start=3)
@example(case=(Track(unit_square()), np.array([[-0.5, -0.5], [0.5, 0.0], [0.0, 2.0]])), start=3)
@example(case=(_hairpin(), np.array([[0.25, 1.0], [17.5, 1.0], [-3.0, 0.0]])), start=80)
@example(case=(Track(np.array([[0.0, 0.0], [1e-170, 0.0], [1.0, 0.0]])),
               np.array([[-1.0, 0.0], [1e-171, 0.0], [0.5, 1.0]])), start=1)
def test_walk_s_matches_descent(case, start):
    """Each point walked from the last one's segment, the first from a drawn
    one, lands on descend's segment with the bits of its arc position."""
    track, pts = case
    k = start % (len(track.reference_path) - 1)
    for p in pts:
        got = track.walk_s(tuple(p.tolist()), k)
        want = _descend_s(track, p, k)
        assert got[0] == want[0]
        assert bits(got[1]) == bits(want[1])
        k = got[0]


_NON_FINITE = st.tuples(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 2.5]),
).flatmap(lambda p: st.sampled_from([p, p[::-1]]))

NAN, INF = math.nan, math.inf


@settings(max_examples=100, deadline=None)
@given(case=_tracks_with_points(), extra=st.lists(st.tuples(st.integers(0, 300), _NON_FINITE),
                                                  max_size=6))
# the ties of test_nearest_s_matches_full_scan, in one array each
@example(case=(Track(gerono_lemniscate(), closed=True), np.array([[0.0, y] for y in (0.0, 0.05, -0.2)])),
         extra=[(0, (NAN, 0.0)), (2, (INF, -INF))])
@example(case=(_hairpin(), np.array([[0.25, 1.0], [5.0, 1.0], [16.0, 1.0], [17.5, 1.0]])),
         extra=[(1, (-INF, 1.0))])
@example(case=(_hairpin(), np.array([[5.0, -1.0], [16.0, -1.0], [16.0, 3.0], [4.0, 3.5]])),
         extra=[])
def test_nearest_s_array_matches_per_point(case, extra):
    # each row of a call with many rows is scanned as if alone; extra
    # holds non-finite points and where they go
    track, pts = case
    for at, p in extra:
        pts = np.insert(pts, min(at, len(pts)), p, axis=0)
    s = track.nearest_s(pts)
    assert s.shape == (len(pts),)
    rows = [track.nearest_s([p]) for p in pts.tolist()]
    assert all(row.shape == (1,) for row in rows)
    assert bits(*s) == bits(*np.concatenate(rows))


#: Points that are not finite, or whose squared distances overflow.
_WILD = st.one_of(_NON_FINITE, st.sampled_from([(1e200, 0.0), (2.5, -1e200), (1e200, -1e200)]))

#: Walk steps on a grid: x or y may stay fixed, and (0, 0) stands still.
_WALK_STEP = st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                       st.sampled_from([0.01, 0.05, 0.5])).map(lambda a: (a[0] * a[2], a[1] * a[2]))


#: An open square hook of 0.5 m segments, 2 m down, 4 m across and 2 m up,
#: then one segment back in toward the start, ending 2.5 m from it: a walk
#: along it passes near its other end.
_HOOK = np.array([(0.0, -0.5 * k) for k in range(5)] + [(0.5 * k, -2.0) for k in range(1, 9)]
                 + [(4.0, -2.0 + 0.5 * k) for k in range(1, 5)] + [(2.5, 0.0)])


@st.composite
def _walks(draw):
    """A track and runs of consecutive points, as a robot's poses come.

    A run either follows the path, a drawn offset off it, or walks a
    straight line in grid steps, from a vertex or from far away. A line on
    the figure eight may run up its y axis (x = 0) through the crossing,
    and one on the hairpin along its midline (y = 1): every point of those
    is an exact tie. Points that are not finite or overflow go in between."""
    track = draw(st.one_of(
        st.sampled_from([Track(gerono_lemniscate(), closed=True), _hairpin(), Track(_HOOK)]),
        st.builds(Track, polylines().filter(lambda p: np.any(np.diff(p, axis=0) != 0.0)),
                  closed=st.booleans()),
    ))
    path = track.reference_path
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 300))
        if draw(st.booleans()):
            s0 = draw(st.floats(-5.0, track.length + 5.0))
            ds = draw(st.sampled_from([0.0, 0.01, -0.03, 0.05, 0.5]))
            offset = draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
            runs.append(track.points_at(s0 + ds * np.arange(n))[0] + offset)
        else:
            start = draw(st.one_of(
                st.tuples(st.just(0.0), st.floats(-1.0, 1.0)),
                st.tuples(st.floats(-1.0, 21.0), st.just(1.0)),
                st.integers(0, len(path) - 1).map(lambda i: tuple(path[i])),
                st.tuples(st.floats(-1e10, 1e10), st.floats(-1e10, 1e10)),
            ))
            step = draw(_WALK_STEP)
            runs.append(np.add(start, np.multiply.outer(np.arange(n), step)))
    pts = np.concatenate(runs)
    for at, p in draw(st.lists(st.tuples(st.integers(0, len(pts)), _WILD), max_size=4)):
        pts = np.insert(pts, at, p, axis=0)
    return track, pts


@settings(max_examples=100, deadline=None)
@given(case=_walks())
# a point that is not finite keeps the segment it starts from, 120 on the
# figure eight's second branch, where a walk down through the equal
# infinite d2 of the segments before it would end at segment 80
@example(case=(Track(gerono_lemniscate(), closed=True),
               np.array([[0.3, -0.3], [INF, 0.0], [0.0, 0.05], [0.0, 0.1]])))
def test_runs_of_points_match_full_scan_and_descent(case):
    # each point's nearest_s is the scan over every segment, and the first
    # point's segment, walked on from one point to the next, follows
    # polylines.descend
    track, pts = case
    path = track.reference_path
    seg_len = np.linalg.norm(np.diff(path, axis=0), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in pts:
            assert bits(*track.nearest_s([p])) == bits(_scan_nearest_s(track, p))
        k = full_scan(path, seg_len**2, pts[0])[0]
        for p in pts:
            want = descend(path, seg_len**2, p, k, track.closed)[0]
            k = track.walk_s(tuple(p.tolist()), k)[0]
            assert k == want
    assert bits(*track.nearest_s(pts)) == bits(*[track.nearest_s([p]) for p in pts.tolist()])


def test_projection_of_a_start_vertex_is_at_t_zero():
    columns = _columns(_DOWN_LEFT, np.array([2.0, 1.25]))
    for i, t, d2 in (nearest_segment((0.0, 0.0), columns),
                     *walk([(0.0, 0.0)], 1, columns.tolist(), closed=False)):
        assert (i, d2) == (0, 0.0)
        assert bits(t) == bits(0.0)  # not -0.0


@pytest.mark.parametrize("point", [(NAN, 0.0), (0.0, NAN), (INF, 1.0), (-INF, INF),
                                   (1e200, 1e200), (1e200, 0.0), (-1e300, 5.0)])
def test_projecting_non_finite_or_huge_points_warns_nothing(point):
    track = figure_course()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = track.nearest_s([point])
        many = track.nearest_s([point, (1.0, 2.0), point])
    assert bits(*one) == bits(many[0]) == bits(many[2])


@pytest.mark.parametrize("round_trip", [lambda track: pickle.loads(pickle.dumps(track)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_round_tripped_track_answers_with_the_same_bits(round_trip):
    # the figure course, whose zones are set after it is built
    track = figure_course()
    copied = round_trip(track)
    assert copied.segments == track.segments
    s = np.linspace(-5.0, track.length + 5.0, 201)
    pts = track.points_at(s)[0] + (0.3, -0.2)
    assert bits(*copied.nearest_s(pts)) == bits(*track.nearest_s(pts))
    assert copied.boundary_point(s).tobytes() == track.boundary_point(s).tobytes()
    k = k_copy = 0
    for p in pts.tolist():
        (k, s_walk), (k_copy, s_copy) = track.walk_s(p, k), copied.walk_s(p, k_copy)
        assert k == k_copy
        assert bits(s_walk) == bits(s_copy)


def test_projection_tie_goes_to_first_segment():
    lem = gerono_lemniscate()
    seg = np.diff(lem, axis=0)
    denom = np.einsum("ij,ij->i", seg, seg)
    first, second = CROSSING_SEGMENTS
    track = Track(lem, closed=True)
    for y in (0.0, 0.05, -0.2):
        p = np.array([0.0, y])
        # exactly as near to the second branch as to the first
        d2_first = full_scan(lem[first : first + 2], denom[first : first + 1], p)[2]
        d2_second = full_scan(lem[second : second + 2], denom[second : second + 1], p)[2]
        assert d2_first == d2_second
        i, _, d2 = nearest_segment(p, _columns(lem, denom))
        assert (i, d2) == (first, d2_first)
        assert full_scan(lem, denom, p)[0] == first
        assert bits(*track.nearest_s([p])) == bits(_scan_nearest_s(track, p))
    # the crossing is passed near L/4 and again near 3L/4; it maps to the first
    assert track.nearest_s([(0.0, 0.0)]).item() < 0.5 * track.length


def test_style_segments_and_visibility():
    seg = [StyleSegment(2.0, 6.0, "dotted", dash_len=1.0, gap_len=1.0)]
    t = straight_track(10.0)
    t.segments = seg
    # solid before the zone, dash, gap, dash, solid after the zone
    visible, zebra = t.visibility([1.0, 2.5, 3.5, 4.5, 7.0])
    assert visible.tolist() == [True, True, False, True, True]
    assert not zebra.any()


def test_zebra_zone():
    t = straight_track(10.0)
    t.segments = [StyleSegment(1.0, 3.0, "zebra_clutter")]
    visible, zebra = t.visibility([2.0, 5.0])
    assert zebra.tolist() == [True, False]
    assert visible.all()  # zebra zones keep the boundary visible


def test_figure_course_has_mixed_zones():
    t = figure_course()
    styles = {seg.style for seg in t.segments}
    assert styles == {"dotted", "zebra_clutter"}
    visible, zebra = t.visibility(np.linspace(8, 22, 57))
    assert not visible.all() and not zebra.any()
    # on a closed track the zone comes from the wrapped s and the first
    # matching zone wins; the dash phase is measured from the unwrapped s
    overlap = figure_course()
    overlap.segments = [
        StyleSegment(5.0, 7.0, "dotted", dash_len=0.5, gap_len=0.5),
        StyleSegment(5.0, 7.0, "zebra_clutter"),
    ]
    # L = 122.83 m, so 5.6 lies in a gap and 5.6 + L in a dash
    L = overlap.length
    visible, zebra = overlap.visibility([5.25, 5.25 + L, 5.6, 5.6 + L])
    assert visible.tolist() == [True, True, False, True]
    assert not zebra.any()
def test_style_segment_validation():
    with pytest.raises(ValueError):
        StyleSegment(0.0, 1.0, "dashed")
    with pytest.raises(ValueError):
        StyleSegment(2.0, 1.0, "solid")
    for bad in (True, "1", None, math.nan, math.inf):
        with pytest.raises(ValueError, match="s_lo must be a finite number"):
            StyleSegment(bad, 1.0, "solid")


def test_track_validation():
    with pytest.raises(ValueError):
        Track(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        Track(np.array([[0.0, 0.0], [0.0, 0.0]]))
    for lane_width in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lane_width must be a finite number > 0"):
            Track(np.array([[0.0, 0.0], [1.0, 0.0]]), lane_width=lane_width)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("points", [
    [[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0]],  # a segment too long for a float
    [[0.0, 0.0], [1e200, 1e200]],  # one whose squared length is
    [[0.0, 0.0], [1.5e308, 0.0], [0.0, 0.0], [1.5e308, 0.0]],  # a sum that is
    [[0.0, 0.0], [math.inf, 0.0]],
    [[math.nan, 0.0], [1.0, 0.0]],
])
def test_track_of_no_finite_length_is_refused_without_a_warning(points):
    with pytest.raises(ValueError, match=r"^reference_path must have a finite positive length"):
        Track(np.array(points))
    finite = all(math.isfinite(v) for point in points for v in point)
    if finite:
        with pytest.raises(ValueError, match=r"^track\.points must have a finite positive length"):
            make_track({"kind": "polyline", "points": points})


def test_track_drops_duplicate_vertices():
    t = Track(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert t.length == pytest.approx(2.0)


def test_make_track_kinds():
    t = make_track({"kind": "straight", "length": 12.0})
    assert t.length == pytest.approx(12.0)
    t = make_track({"kind": "circle", "radius": 5.0})
    assert t.closed
    t = make_track({"kind": "oval", "straight_len": 10.0, "radius": 4.0})
    assert t.length == pytest.approx(20 + 2 * math.pi * 4, rel=1e-3)
    t = make_track({"kind": "figure_course"})
    assert t.segments
    t = make_track(
        {
            "kind": "polyline",
            "points": [[0, 0], [5, 0], [5, 5]],
            "closed": False,
            "segments": [{"s_lo": 0.0, "s_hi": 2.0, "style": "dotted"}],
        }
    )
    assert t.length == pytest.approx(10.0)
    assert t.segments[0].style == "dotted"
    with pytest.raises(ValueError):
        make_track({"kind": "moebius"})


@pytest.mark.parametrize("kind", ["straight", "circle", "oval", "figure_course", "polyline"])
def test_make_track_sets_segments_on_every_kind(kind):
    spec = {"kind": kind, "segments": [{"s_lo": 1.0, "s_hi": 4.0, "style": "zebra_clutter"}]}
    if kind == "polyline":
        spec["points"] = [[0, 0], [5, 0], [5, 5]]
    assert make_track(spec).segments == [StyleSegment(1.0, 4.0, "zebra_clutter")]


@pytest.mark.parametrize("spec, message", [
    ({"kind": "circle", "radius": 1e9}, "has more than 100000 vertices"),
    ({"kind": "straight", "length": 1e12}, "has more than 100000 vertices"),
    ({"kind": "oval", "straight_len": 1e300, "radius": 1e300}, "has more than 100000 vertices"),
    ({"kind": "oval", "radius": -5}, "radius must be a finite number > 0, got -5"),
    ({"kind": "oval", "straight_len": 0}, "straight_len must be a finite number > 0"),
    ({"kind": "circle", "radius": math.nan}, "radius must be a finite number > 0, got nan"),
    ({"kind": "straight", "length": math.inf}, "length must be a finite number > 0, got inf"),
    ({"kind": "polyline", "points": [[0, 0], [1, 0]], "lane_width": True},
     r"^track\.lane_width must be a finite number > 0, got True$"),
    ({"kind": "polyline", "points": [[0, 0], [1, 0]], "closed": "no"},
     r"^track\.closed must be true or false, got 'no'$"),
    ({"kind": "straight", "segments": [{"s_lo": 0.0, "s_hi": 1.0, "style": "solid"},
                                       {"s_lo": 0.0, "s_hi": math.nan, "style": "solid"}]},
     r"^track\.segments\[1\]\.s_hi must be a finite number, got nan$"),
    # polyline points, each by name, and their count before any array
    ({"kind": "polyline", "points": [[0, 0], [10, "x"]]},
     r"^track\.points\[1\]\[1\] must be a finite number, got 'x'$"),
    ({"kind": "polyline", "points": [[0, 0], [10, True], [20, 0]]},
     r"^track\.points\[1\]\[1\] must be a finite number, got True$"),
    ({"kind": "polyline", "points": [[0, 0], [None, 1]]},
     r"^track\.points\[1\]\[0\] must be a finite number, got None$"),
    ({"kind": "polyline", "points": [[0, 0], [math.inf, 1]]},
     r"^track\.points\[1\]\[0\] must be a finite number, got inf$"),
    ({"kind": "polyline", "points": [[0, 0], [1, 1, 1]]},
     r"^track\.points\[1\] must be a pair \[x, y\], got \[1, 1, 1\]$"),
    ({"kind": "polyline", "points": [[0, 0], 5]}, r"^track\.points\[1\] must be a pair"),
    ({"kind": "polyline", "points": 5}, r"^track\.points must be a list of \[x, y\] pairs"),
    ({"kind": "polyline", "points": [[0, 0]] * (MAX_FIXTURE_VERTICES + 1)},
     r"^track\.points has 100001 vertices, more than 100000$"),
    ({"kind": "polyline"}, r"^track\.points is missing$"),
    # records of the wrong shape, by name
    ({"kind": "oval", "radius": 5, "size": 1}, r"^track\.size is not a field$"),
    ({"kind": "oval", "segments": 5}, r"^track\.segments must be a list, got 5$"),
    ({"kind": "oval", "segments": [5]}, r"^track\.segments\[0\] must be an object, got 5$"),
    ({"kind": "oval", "segments": [{"s_lo": 1, "s_hi": 2, "style": "solid", "dash": 1}]},
     r"^track\.segments\[0\]\.dash is not a field$"),
    ({"kind": "oval", "segments": [{"s_lo": 1, "s_hi": 2}]},
     r"^track\.segments\[0\]\.style is missing$"),
    # a path of too few points, or of no length, or one too long for a float
    ({"kind": "polyline", "points": [[0, 0]]}, r"^track\.points must have at least 2 points, got 1$"),
    ({"kind": "polyline", "points": []}, r"^track\.points must have at least 2 points, got 0$"),
    ({"kind": "polyline", "points": [[1, 2], [1, 2], [1, 2]]},
     r"^track\.points must have a finite positive length, got 0$"),
    ({"kind": "polyline", "points": [[0, 0], [1e308, 0], [-1e308, 0]]},
     r"^track\.points must have a finite positive length, got inf$"),
    ({"kind": "polyline", "points": [[0, 0], [1e200, 1e200]]},
     r"^track\.points must have a finite positive length, got inf$"),
    ({"kind": "polyline", "points": [[0, 0], [1.5e308, 0], [0, 0], [1.5e308, 0]]},
     r"^track\.points must have a finite positive length, got inf$"),
])
def test_make_track_bounds_fixture_sizes(spec, message):
    # each is rejected before the track is built: a circle of radius 1e9
    # would take 936 GiB
    with pytest.raises(ValueError, match=message):
        make_track(spec)


def test_make_track_needs_an_object():
    with pytest.raises(ValueError, match=r"^track must be an object, got 5$"):
        make_track(5)


def test_polyline_points_at_the_bound_are_accepted():
    points = [[0.5 * k, 0.0] for k in range(MAX_FIXTURE_VERTICES)]
    assert len(make_track({"kind": "polyline", "points": points}).reference_path) == len(points)


def test_fixture_size_bound_at_its_edge():
    """The largest path length the bound admits, and just above it, for
    each sized fixture: checked on the arguments, building nothing."""
    edge = (MAX_FIXTURE_VERTICES - 8) * FIXTURE_DS
    for args in ({"length": edge}, {"radius": edge / (2.0 * math.pi)},
                 {"straight_len": edge / 4.0, "radius": edge / (4.0 * math.pi)}):
        tracks._check_track_args({name: v * (1.0 - 1e-12) for name, v in args.items()})
        with pytest.raises(ValueError, match="has more than 100000 vertices"):
            tracks._check_track_args({name: v * (1.0 + 1e-12) for name, v in args.items()})


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["straight", "circle", "oval"]),
       size=st.floats(1e-3, 40.0), radius=st.floats(1e-3, 12.0))
def test_fixture_vertices_within_the_bound_estimate(kind, size, radius):
    """A fixture has at most its path length over FIXTURE_DS vertices, plus
    8: the estimate _check_track_args bounds."""
    args = {"straight": {"length": size}, "circle": {"radius": radius},
            "oval": {"straight_len": size, "radius": radius}}[kind]
    path_len = (args.get("length", 0.0) + 2.0 * args.get("straight_len", 0.0)
                + 2.0 * math.pi * args.get("radius", 0.0))
    try:
        track = make_track({"kind": kind, **args})
    except ValueError:  # a straight too short for two vertices
        assume(False)
    assert len(track.reference_path) <= path_len / FIXTURE_DS + 8
