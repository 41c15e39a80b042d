import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from polylines import cumulative_arclength

from lanetrack.exceptions import (
    DegeneratePolyline,
    DisjointRanges,
    NonPositiveDuration,
    TooFewPoints,
    TooManyPoints,
)
from lanetrack import lanefit
from lanetrack.lanefit import (
    CENTERLINE_SAMPLES,
    MAX_RESAMPLED,
    X_SPAN_EPS,
    CubicPoly,
    boundary_cubic,
    centerline,
    fit_cubic,
    lookahead_points,
    resample,
    roi_filter,
)
from lanetrack.tracks import make_track

# ------------------------------------------------------------------- ROI


def test_roi_filter_box():
    pts = np.array([[1.0, 0.0], [11.0, 0.0], [5.0, -6.0], [10.0, 5.0]])
    kept = roi_filter(pts, (0.0, 10.0, -5.0, 5.0))
    assert kept.tolist() == [[1.0, 0.0], [10.0, 5.0]]


def test_roi_filter_empty_and_bad_bounds():
    assert roi_filter(np.empty((0, 2)), (0, 1, 0, 1)).shape == (0, 2)
    # an inverted box holds no point; Scenario.validate rejects it
    assert roi_filter(np.zeros((1, 2)), (1, -1, 0, 1)).shape == (0, 2)


# -------------------------------------------------------------- resampling


def test_cumulative_arclength():
    # the oracle's arc-length table, checked before it checks resample
    s = cumulative_arclength(np.array([[0, 0], [3, 0], [3, 4]]))
    assert s.tolist() == [0.0, 3.0, 7.0]


def test_resample_straight_line_exact():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = resample(pts, 0.25)
    assert len(out) == 5
    assert np.allclose(out[:, 0], [0, 0.25, 0.5, 0.75, 1.0])


def test_resample_count_rule():
    # S = 1.0, delta = 0.3 -> floor(S/delta) + 1 = 4 points
    out = resample(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.3)
    assert len(out) == 4


def test_resample_random_polylines_property():
    """Output chords sit at k*delta_s on the cumulative arc-length table."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(2, 30)
        pts = np.cumsum(rng.uniform(-1, 1, size=(n, 2)), axis=0)
        pts = pts[np.concatenate(([True], np.any(np.diff(pts, axis=0) != 0, axis=1)))]
        if len(pts) < 2:
            continue
        delta = rng.uniform(0.05, 0.8)
        out = resample(pts, delta)
        s_tab = cumulative_arclength(pts)
        total = s_tab[-1]
        assert len(out) == int(math.floor(total / delta + 1e-9)) + 1
        s_out = cumulative_arclength(out)
        # positions measured along the original polyline
        for k, p in enumerate(out):
            assert _arc_position(pts, s_tab, p) == pytest.approx(k * delta, abs=1e-9)
        assert s_out[-1] <= total + 1e-9


def _arc_position(pts, s_tab, p):
    """Arc length of point p assuming it lies on the polyline (test helper)."""
    best = None
    for i in range(len(pts) - 1):
        seg = pts[i + 1] - pts[i]
        L2 = seg @ seg
        t = np.clip((p - pts[i]) @ seg / L2, 0.0, 1.0)
        d = np.hypot(*(pts[i] + t * seg - p))
        s = s_tab[i] + t * math.sqrt(L2)
        if best is None or d < best[0]:
            best = (d, s)
    assert best[0] < 1e-9
    return best[1]


@pytest.mark.filterwarnings("error")
def test_resample_bounds_its_point_count():
    # MAX_RESAMPLED points at most: one more is refused before allocating,
    # as are counts past what an array can hold and non-finite lengths,
    # without a warning from the chords that overflow on the way
    assert len(resample(np.array([[0.0, 0.0], [MAX_RESAMPLED - 1.0, 0.0]]), 1.0)) == MAX_RESAMPLED
    line = np.array([[0.0, 0.0], [6.0, 0.0]])
    for pts, delta_s in ((np.array([[0.0, 0.0], [float(MAX_RESAMPLED), 0.0]]), 1.0),
                         (line, 1e-12), (line, 1e-300),
                         (np.array([[0.0, 0.0], [1e200, 1e200], [0.0, 0.0]]), 0.25),
                         (np.array([[0.0, 0.0], [math.inf, 1.0], [math.inf, 2.0]]), 0.25)):
        with pytest.raises(TooManyPoints, match="more than 100000"):
            resample(pts, delta_s)


def test_resample_drops_duplicate_vertices():
    pts = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [2, 0]], dtype=float)
    out = resample(pts, 0.5)
    assert len(out) == 5


def test_resample_degenerate():
    with pytest.raises(DegeneratePolyline):
        resample(np.array([[1.0, 1.0], [1.0, 1.0]]), 0.1)


def _resample_reference(pts, delta_s):
    """resample as written with np.linalg.norm, as cumulative_arclength
    takes it: the reference for the single diff and the written-out norm.
    It drops every step that leaves the arc length where it was, duplicate
    points and steps too short to change the sum alike, and interpolates
    along the steps kept from their start points."""
    step = np.diff(pts, axis=0)
    s = np.concatenate(([0.0], np.cumsum(np.linalg.norm(step, axis=1))))
    keep = s[1:] != s[:-1]
    if not keep.any():
        raise DegeneratePolyline("resampling needs >= 2 distinct points")
    start, step, s = pts[:-1][keep], step[keep], s[np.concatenate(([True], keep))]
    n_out = int(math.floor(s[-1] / delta_s + 1e-9)) + 1
    targets = np.arange(n_out) * delta_s
    idx = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, len(s) - 2)
    t = (targets - s[idx]) / (s[idx + 1] - s[idx])
    return start[idx] + t[:, None] * step[idx]


_STEP = st.one_of(
    st.just((0.0, 0.0)),  # a consecutive duplicate
    # steps too short to change the arc length
    st.tuples(st.floats(-1e-150, 1e-150), st.floats(-1e-150, 1e-150)),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda k: (0.25 * k[0], 0.25 * k[1])),
)


@settings(max_examples=300, deadline=None)
@given(
    start=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    steps=st.lists(_STEP, min_size=1, max_size=60),
    delta_s=st.floats(0.01, 2.0),
)
@example(start=(0.0, 0.0), steps=[(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 1.0)],
         delta_s=0.25)
@example(start=(0.0, 0.0), steps=[(3.0, 0.0), (0.0, 1e-160)], delta_s=0.25)
@example(start=(1.0, 1.0), steps=[(1e-160, 0.0)], delta_s=0.25)
def test_resample_matches_norm_formula(start, steps, delta_s):
    """resample gives the bits of the np.linalg.norm formula, or the same
    DegeneratePolyline, with and without steps of length 0."""
    pts = np.cumsum(np.vstack(([start], steps)), axis=0)
    try:
        want = _resample_reference(pts, delta_s)
    except DegeneratePolyline:
        with pytest.raises(DegeneratePolyline):
            resample(pts, delta_s)
        return
    got = resample(pts, delta_s)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------- cubic fitting


def test_fit_recovers_exact_cubic():
    rng = np.random.default_rng(21)
    for _ in range(100):
        coeffs = rng.uniform(-2, 2, size=4)
        x = np.sort(rng.uniform(-3, 3, size=rng.integers(6, 30)))
        if len(np.unique(x)) < 4:
            continue
        y = np.polyval(coeffs[::-1], x)
        poly = fit_cubic(np.column_stack((x, y)))
        assert poly.order == 3
        assert np.max(np.abs(np.array(poly.coeffs) - coeffs)) < 1e-9


def test_fit_matches_extended_precision_oracle():
    """Residual no worse than an mpmath (50-digit) least-squares solve."""
    mpmath.mp.dps = 50
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(6, 40))
        x = rng.uniform(-2, 8, size=n)
        y = rng.normal(0, 1, size=n) + 0.3 * x**2
        poly = fit_cubic(np.column_stack((x, y)))

        A = mpmath.matrix([[mpmath.mpf(xi) ** k for k in range(4)] for xi in x])
        b = mpmath.matrix([mpmath.mpf(yi) for yi in y])
        c = mpmath.lu_solve(A.T * A, A.T * b)  # normal equations are safe at dps=50
        res_oracle = mpmath.norm(A * c - b)

        V = np.vander(x, 4, increasing=True)
        res_ours = np.linalg.norm(V @ np.array(poly.coeffs) - y)
        assert res_ours <= float(res_oracle) + 1e-8


def test_fit_degrades_on_collinear_points():
    x = np.linspace(0, 5, 12)
    poly = fit_cubic(np.column_stack((x, 2.0 * x + 1.0)))
    assert poly.order <= 3
    assert poly.a0 == pytest.approx(1.0, abs=1e-8)
    assert poly.a1 == pytest.approx(2.0, abs=1e-8)


def test_fit_two_points_is_a_line():
    poly = fit_cubic(np.array([[0.0, 1.0], [2.0, 5.0]]))
    assert poly.order == 1
    assert poly.a1 == pytest.approx(2.0)
    assert poly.a3 == 0.0


def test_fit_repeated_x_constant():
    poly = fit_cubic(np.array([[1.0, 2.0], [1.0, 4.0], [1.0 + 1e-12, 3.0]]))
    assert poly.order <= 1


def test_fit_too_few():
    with pytest.raises(TooFewPoints):
        fit_cubic(np.array([[0.0, 0.0]]))


def test_cubic_poly_eval_and_derivative():
    p = CubicPoly(1.0, -1.0, 0.5, 0.25, 0.0, 4.0)
    xs = np.array([0.0, 1.0, 2.0])
    assert np.allclose(p(xs), 1 - xs + 0.5 * xs**2 + 0.25 * xs**3)
    assert np.allclose(p.derivative(xs), -1 + xs + 0.75 * xs**2)


def _qr_fit_reference(pts):
    """fit_cubic as written over scipy.linalg.qr and solve_triangular, the
    reference for the direct LAPACK calls: (coeffs, x_lo, x_hi, order)."""
    from scipy.linalg import qr, solve_triangular

    x, y = pts[:, 0], pts[:, 1]
    n_distinct = len(np.unique(x))
    if n_distinct < 2:
        raise TooFewPoints("need points at 2 or more distinct x to fit")
    order = min(3, n_distinct - 1)
    while True:
        V = np.vander(x, N=order + 1, increasing=True)
        Q, R, piv = qr(V, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        tol = max(V.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
        rank = int(np.sum(diag > tol)) if diag.size else 0
        if rank == order + 1 or order == 0:
            break
        order = max(rank - 1, 0)
    z = solve_triangular(R[: order + 1, : order + 1], Q.T @ y)
    coeffs = np.zeros(4)
    permuted = np.zeros(order + 1)
    permuted[piv] = z
    coeffs[: order + 1] = permuted
    return coeffs, float(np.min(x)), float(np.max(x)), order


def _assert_fit_matches_reference(pts):
    """fit_cubic gives the reference's bits, or TooFewPoints where the
    reference does or where x spans too little; returns the order."""
    span = np.ptp(pts[:, 0])
    try:
        coeffs, x_lo, x_hi, order = _qr_fit_reference(pts)
    except TooFewPoints:
        assert span == 0.0
        with pytest.raises(TooFewPoints):
            fit_cubic(pts)
        return None
    if span <= X_SPAN_EPS * np.finfo(float).eps * np.abs(pts).max():
        with pytest.raises(TooFewPoints):
            fit_cubic(pts)
        return None
    poly = fit_cubic(pts)
    assert poly.order == order
    assert np.array(poly.coeffs).tobytes() == coeffs.tobytes()
    # equal values: with 0.0 and -0.0 both at an end, np.min and np.max
    # may return either zero
    assert (poly.x_lo, poly.x_hi) == (x_lo, x_hi)
    return order


# x values: a few shared values (duplicates), values a few ulps from them
# (near-duplicates), signed zeros, and spread values
_BASE_X = st.sampled_from([0.0, -0.0, 0.25, 1.0, 1.25, 3.0, 7.5, 1000.0])
_NEAR_X = st.tuples(_BASE_X, st.integers(-40, 40)).map(
    lambda a: a[0] + a[1] * np.spacing(a[0]) if a[0] else a[1] * 5e-324
)
_FIT_X = st.one_of(_BASE_X, _NEAR_X, st.floats(-20.0, 20.0))


@st.composite
def _lane_points(draw):
    """2-300 points; or the centerline grid over a drawn range."""
    if draw(st.booleans()):
        x_lo = draw(st.floats(-5.0, 10.0))
        x = np.linspace(x_lo, x_lo + draw(st.floats(1e-9, 10.0)), CENTERLINE_SAMPLES)
    else:
        x = np.array(draw(st.lists(_FIT_X, min_size=2, max_size=300)))
    a = draw(st.tuples(*[st.floats(-3.0, 3.0)] * 4))
    noise = draw(st.floats(0.0, 1.0))
    jitter = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, noise, len(x))
    return np.column_stack((x, ((a[3] * x + a[2]) * x + a[1]) * x + a[0] + jitter))


# order degraded by the rank rule: a cubic through x clustered far from 0
_DEGRADED = np.column_stack((1e4 + np.linspace(0.0, 1e-3, 20), np.linspace(0.0, 1.0, 20)))


@settings(max_examples=400, deadline=None)
@given(pts=_lane_points())
@example(pts=_DEGRADED)
@example(pts=np.array([[1.0, 2.0], [1.0, 4.0], [1.0 + 1e-12, 3.0]]))
@example(pts=np.array([[0.0, 1.0], [-0.0, 2.0], [2.0, 5.0]]))
def test_fit_matches_scipy_qr(pts):
    _assert_fit_matches_reference(pts)


def test_fit_degrades_like_scipy_qr():
    """The rank rule lowers the order on inputs like these, and the
    degraded fits match the reference too."""
    assert _assert_fit_matches_reference(_DEGRADED) < 3
    x = 1.0 + np.arange(12) % 4 * 1e-9
    assert _assert_fit_matches_reference(np.column_stack((x, x))) < 3


def _vander_fit(pts):
    """fit_cubic as written over np.vander, with the coefficients read off
    a numpy array: the reference for the Vandermonde built column by
    column and the Python-float coefficients. (coeffs, x_lo, x_hi, order)."""
    x, y = pts[:, 0], pts[:, 1]
    xs = np.sort(x)
    order = min(3, int(np.count_nonzero(xs[1:] != xs[:-1])))
    while True:
        V = np.vander(x, N=order + 1, increasing=True)
        geqp3, orgqr, trtrs, lwork_qr, lwork_q = lanefit._lapack(order + 1)
        qr, jpvt, tau, _, _ = geqp3(V, lwork=lwork_qr)
        diag = np.abs(qr.diagonal())
        rank = int(np.count_nonzero(diag > len(x) * np.finfo(float).eps * diag[0]))
        if rank == order + 1 or order == 0:
            break
        order = max(rank - 1, 0)
    Q, _, _ = orgqr(qr, tau, lwork=lwork_q)
    R = qr[: order + 1]
    if order:
        z, _ = trtrs(R.T, Q.T @ y, lower=1, trans=1)
    else:
        z, _ = trtrs(R, Q.T @ y)
    coeffs = np.zeros(4)
    coeffs[jpvt - 1] = z
    return coeffs, float(xs[0]), float(xs[-1]), order


def _clustered(offset, width):
    """25 points at x in [offset, offset + width] on a line: far from 0 and
    narrow, the rank rule lowers the order."""
    return np.column_stack((offset + np.linspace(0.0, width, 25), np.linspace(0.0, 1.0, 25)))


@settings(max_examples=200, deadline=None)
@given(pts=_lane_points())
# an order of each kind: 3; 2, 1 and 0 by the rank rule; 1 from two
# distinct x values
@example(pts=_clustered(100.0, 1.0))
@example(pts=_clustered(100.0, 0.01))
@example(pts=_clustered(1e4, 1.0))
@example(pts=_clustered(1e6, 1e-4))
@example(pts=np.array([[1.0, 2.0], [1.0, 4.0], [2.0, 3.0]]))
def test_fit_matches_the_vander_fit(pts):
    try:
        poly = fit_cubic(pts)
    except TooFewPoints:
        return  # test_fit_matches_scipy_qr checks where it is raised
    coeffs, x_lo, x_hi, order = _vander_fit(pts)
    assert poly.order == order
    assert all(type(c) is float for c in poly.coeffs)
    assert np.array(poly.coeffs).tobytes() == coeffs.tobytes()
    assert (poly.x_lo, poly.x_hi) == (x_lo, x_hi)


def test_the_vander_fit_examples_cover_every_order():
    orders = [_vander_fit(_clustered(*c))[3] for c in ((100.0, 1.0), (100.0, 0.01),
                                                        (1e4, 1.0), (1e6, 1e-4))]
    assert orders == [3, 2, 1, 0]


@pytest.mark.parametrize(
    "pts",
    [
        [[0.0, 0.0], [1.0, float("nan")], [2.0, 1.0]],
        [[0.0, 0.0], [float("nan"), 1.0], [2.0, 1.0]],
        [[0.0, 0.0], [1.0, 1.0], [float("inf"), 1.0]],
        [[0.0, -float("inf")], [1.0, 1.0], [2.0, 1.0]],
        # finite x whose cube overflows: the Vandermonde matrix holds inf
        [[1e200, 0.0], [2e200, 1.0], [3e200, 0.0], [4e200, 1.0]],
    ],
)
def test_fit_rejects_non_finite(pts):
    pts = np.array(pts)
    with pytest.raises(ValueError), np.errstate(all="ignore"):
        _qr_fit_reference(pts)
    with pytest.raises(ValueError):
        fit_cubic(pts)


def test_fit_rejects_x_span_within_rounding():
    # the right boundary seen facing across a straight lane: x values
    # that differ only by the rounding of coordinates a few metres long
    y = np.linspace(-5.0, 5.0, 29)
    x = 1.25 + np.where(np.arange(29) % 3 == 0, 4.4e-16, 0.0)
    with pytest.raises(TooFewPoints):
        fit_cubic(np.column_stack((x, y)))
    # a nanometre of spread is data
    assert fit_cubic(np.column_stack((x + np.linspace(0.0, 1e-9, 29), y))).order == 1


def test_fit_rejects_one_distinct_x():
    # a lane seen at one x has no graph y(x) to fit
    with pytest.raises(TooFewPoints):
        fit_cubic(np.array([[2.0, 0.0], [2.0, 1.0], [2.0, 3.0]]))
    with pytest.raises(TooFewPoints):
        fit_cubic(np.array([[2.0, 1.0], [2.0, 1.0]]))


# ------------------------------------------------------------- centerline


def _line_poly(a0, a1, x_lo=0.0, x_hi=10.0):
    x = np.linspace(x_lo, x_hi, 20)
    return fit_cubic(np.column_stack((x, a0 + a1 * x)))


def test_centerline_both_lanes_mean():
    left = _line_poly(1.75, 0.0)
    right = _line_poly(-1.75, 0.0)
    res = centerline(left, right)
    assert res.mode == "both_lanes"
    xs = np.linspace(0, 10, 11)
    assert np.allclose(res.centerline(xs), 0.0, atol=1e-9)


def test_centerline_overlap_range_only():
    left = _line_poly(1.0, 0.1, 0.0, 6.0)
    right = _line_poly(-1.0, 0.1, 2.0, 10.0)
    res = centerline(left, right)
    assert res.centerline.x_lo >= 2.0 - 1e-9
    assert res.centerline.x_hi <= 6.0 + 1e-9


def test_centerline_left_only_offsets_right():
    left = _line_poly(1.75, 0.0)
    res = centerline(left, None, lane_width=3.5)
    assert res.mode == "left_only"
    xs = np.linspace(0.5, 9.5, 10)
    # synthesized right boundary 3.5 m to the right -> centerline at y = 0
    assert np.allclose(res.centerline(xs), 0.0, atol=1e-6)
    assert np.allclose(res.lane_right(xs), -1.75, atol=1e-6)


def test_centerline_right_only_offsets_left():
    right = _line_poly(-1.75, 0.0)
    res = centerline(None, right, lane_width=3.5)
    assert res.mode == "right_only"
    xs = np.linspace(0.5, 9.5, 10)
    assert np.allclose(res.centerline(xs), 0.0, atol=1e-6)


def test_centerline_offset_follows_normal_not_vertical():
    # for a sloped lane the offset must be along the normal; a vertical
    # shift of 3.5 would put the centerline at -1.75 + slope*x + 3.5/2
    left = _line_poly(0.0, 1.0)  # 45 degrees
    res = centerline(left, None, lane_width=3.5)
    # a vertical gap of g between two 45-degree lines is a perpendicular
    # separation of g/sqrt(2); the centerline must sit half a lane width
    # (1.75 m) from the detected lane, i.e. a vertical gap of 1.75*sqrt(2)
    mid = res.centerline(5.0) - left(5.0)
    assert abs(mid) / math.sqrt(2) == pytest.approx(1.75, abs=1e-6)
    assert mid < 0  # shifted toward the track interior (right of the lane)


def test_centerline_none():
    res = centerline(None, None)
    assert res.mode == "none"
    assert res.centerline is None


def test_centerline_disjoint_ranges():
    with pytest.raises(DisjointRanges):
        centerline(_line_poly(1, 0, 0.0, 3.0), _line_poly(-1, 0, 5.0, 9.0))


def test_centerline_overlap_within_rounding():
    # lanes that overlap over one ulp have no centerline to fit; the
    # simulator runs such a frame in the no-lane fallback
    left = _line_poly(1.75, 0.0, 0.0, 3.0)
    right = _line_poly(-1.75, 0.0, math.nextafter(3.0, 0.0), 9.0)
    with pytest.raises(TooFewPoints):
        centerline(left, right)


def test_centerline_bad_width():
    # the simulator passes its track's lane width, which the scenario file
    # cannot set to 0; `lanetrack fit` checks its --lane-width itself
    with pytest.raises(ValueError, match="lane_width must be a finite number > 0"):
        make_track({"kind": "straight", "lane_width": 0.0})


_SPAN = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e300]))


@settings(max_examples=300, deadline=None)
@given(lo=_SPAN, width=_SPAN.map(abs))
def test_grid_is_linspace(lo, width):
    """The centerline grid is np.linspace's, bit for bit: subnormal and
    zero spans too."""
    hi = lo + width
    assert lanefit._grid(lo, hi).tobytes() == np.linspace(lo, hi, CENTERLINE_SAMPLES).tobytes()


# --------------------------------------------------------- look-ahead points


def test_lookahead_straight():
    c = _line_poly(0.0, 0.0)
    a, b, cc = lookahead_points(c)
    assert a == (2.0, 0.0)
    assert b == (2.5, 0.0)
    assert cc == (3.0, 0.0)


_COEFF = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(a=st.tuples(_COEFF, _COEFF, _COEFF, _COEFF), lead=st.floats(-1e3, 1e3),
       spacing=st.floats(-10.0, 10.0))
@example(a=(1.0, -2.0, 0.5, 0.25), lead=2.0, spacing=0.5)
@example(a=(1e300, 1e300, -1e300, 1e300), lead=1e3, spacing=10.0)  # overflow to inf, nan
def test_lookahead_points_match_cubic_call(a, lead, spacing):
    """The Horner rule over Python floats rounds as CubicPoly.__call__'s
    over 0-d arrays does."""
    poly = CubicPoly(*a, 0.0, 1.0)
    got = lookahead_points(poly, lead, spacing)
    with np.errstate(all="ignore"):
        want = tuple((x, float(poly(x))) for x in (lead, lead + spacing, lead + 2.0 * spacing))
    assert all(type(y) is float for _, y in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_lookahead_diagonal_and_quadratic():
    c = _line_poly(0.0, 1.0)
    a, b, cc = lookahead_points(c)
    assert a[1] == pytest.approx(2.0, abs=1e-9)
    assert cc[1] == pytest.approx(3.0, abs=1e-9)

    x = np.linspace(0, 10, 40)
    q = fit_cubic(np.column_stack((x, 0.1 * x**2)))
    _, b, _ = lookahead_points(q)
    assert b == (2.5, pytest.approx(0.625, abs=1e-9))


# ------------------------------------------------------------ boundary cubic


def test_boundary_cubic_known_case():
    assert boundary_cubic(0.0, 1.0, 0.0, 0.0, 1.0) == pytest.approx((0.0, 0.0, 3.0, -2.0))


def test_boundary_cubic_constant():
    assert boundary_cubic(2.5, 2.5, 0.0, 0.0, 3.0) == pytest.approx((2.5, 0, 0, 0))


def test_boundary_cubic_reconstructs_constraints():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        th0, thT = rng.uniform(-5, 5, size=2)
        r0, rT = rng.uniform(-3, 3, size=2)
        t0 = rng.uniform(0.1, 10.0)
        a0, a1, a2, a3 = boundary_cubic(th0, thT, r0, rT, t0)
        val_T = a0 + a1 * t0 + a2 * t0**2 + a3 * t0**3
        rate_T = a1 + 2 * a2 * t0 + 3 * a3 * t0**2
        assert a0 == pytest.approx(th0, abs=1e-12)
        assert a1 == pytest.approx(r0, abs=1e-12)
        assert val_T == pytest.approx(thT, abs=1e-9)
        assert rate_T == pytest.approx(rT, abs=1e-9)


def test_boundary_cubic_bad_duration():
    with pytest.raises(NonPositiveDuration):
        boundary_cubic(0, 1, 0, 0, 0.0)
