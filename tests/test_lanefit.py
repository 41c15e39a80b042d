import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from polylines import arc_position, bits, cumulative_arclength

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
    in_roi,
    lookahead_points,
    resample,
)
from lanetrack.scenario import DEFAULT_DELTA_S
from lanetrack.simulator import LOOKAHEAD_LEAD, LOOKAHEAD_SPACING
from lanetrack.tracks import make_track

# ------------------------------------------------------------------- ROI


def test_roi_filter_box():
    x, y = np.array([1.0, 11.0, 5.0, 10.0]), np.array([0.0, 0.0, -6.0, 5.0])
    assert in_roi(x, y, (0.0, 10.0, -5.0, 5.0)).tolist() == [True, False, False, True]


def test_roi_filter_empty_and_bad_bounds():
    assert in_roi(np.empty(0), np.empty(0), (0, 1, 0, 1)).shape == (0,)
    # an inverted box holds no point; Scenario.validate rejects it
    assert in_roi(np.zeros(1), np.zeros(1), (1, -1, 0, 1)).tolist() == [False]


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
            dist, s = arc_position(pts, s_tab, p)
            assert dist < 1e-9
            assert s == pytest.approx(k * delta, abs=1e-9)
        assert s_out[-1] <= total + 1e-9


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
    takes it: the one bit-level oracle of resample. It drops every step
    that leaves the arc length where it was, duplicate points and steps
    too short to change the sum alike, and interpolates along the steps
    kept from their start points. A chord too long to square, or one
    between infinite points, makes the total inf or NaN, which raises
    TooManyPoints."""
    pts = np.asarray(pts, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.diff(pts, axis=0)
        s = np.concatenate(([0.0], np.cumsum(np.linalg.norm(step, axis=1))))
    keep = s[1:] != s[:-1]
    if not keep.any():
        raise DegeneratePolyline("resampling needs >= 2 distinct points")
    start, step, s = pts[:-1][keep], step[keep], s[np.concatenate(([True], keep))]
    total = s[-1].item()
    steps = total / delta_s + 1e-9
    if not steps < MAX_RESAMPLED:
        raise TooManyPoints(f"resampling {total:.3g} m every {delta_s:.3g} m gives more "
                            f"than {MAX_RESAMPLED} points")
    n_out = int(math.floor(steps)) + 1
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

# coordinates: lane-sized, repeated, signed zeros, and huge or not finite
_AWKWARD = st.one_of(
    st.floats(-20.0, 20.0),
    st.sampled_from([0.0, -0.0, 1.0, 1e-160, 1e155, -1e300, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(
    pts=st.one_of(
        st.lists(st.tuples(_AWKWARD, _AWKWARD), min_size=0, max_size=60).map(
            lambda p: np.array(p, dtype=float).reshape(-1, 2)),
        st.builds(lambda start, steps: np.cumsum(np.vstack(([start], steps)), axis=0),
                  st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                  st.lists(_STEP, min_size=1, max_size=60)),
    ),
    delta_s=st.one_of(st.floats(0.01, 2.0), st.just(DEFAULT_DELTA_S)),
)
# duplicate points, and steps too short to change the sum, in the middle,
# at the end and alone
@example(pts=np.cumsum([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
                       axis=0), delta_s=0.25)
@example(pts=np.cumsum([[0.0, 0.0], [3.0, 0.0], [0.0, 1e-160]], axis=0), delta_s=0.25)
@example(pts=np.cumsum([[1.0, 1.0], [1e-160, 0.0]], axis=0), delta_s=0.25)
@example(pts=np.array([[0.0, 0.0], [1.0, 0.0]]), delta_s=0.25)  # a target at the very end
@example(pts=np.array([[0.0, 0.0], [0.0, 0.0]]), delta_s=0.25)
@example(pts=np.array([[0.0, 0.0], [100.0, 0.0]]), delta_s=0.25)  # 401 targets
# a target exactly on an inner vertex b, where a + (b - a) is not b: it
# starts the next step, as np.searchsorted(side="right") puts it
@example(pts=np.array([[0.008972988942744878, 0.0], [-0.01533471020548487, 0.0],
                       [-0.01533471020548487, 1.0]]),
         delta_s=0.008972988942744878 - -0.01533471020548487)
def test_resample_matches_norm_formula(pts, delta_s):
    """resample gives the bits of the np.linalg.norm formula, or raises
    what it raises with the same message, with warnings as errors: a huge
    or non-finite point raises TooManyPoints and warns nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = _resample_reference(pts, delta_s)
        except (DegeneratePolyline, TooManyPoints) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
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
    """fit_cubic as written over np.vander, scipy.linalg.qr and
    solve_triangular, after fit_cubic's checks: the one bit-level oracle
    of the fit. (coeffs, x_lo, x_hi, order), the ends from np.sort so that
    a zero end keeps its sign, or the error fit_cubic raises, with its
    message."""
    from scipy.linalg import qr, solve_triangular

    pts = np.asarray(pts, dtype=float)
    if len(pts) < 2:
        raise TooFewPoints("need 2 or more points to fit")
    scale = float(np.abs(pts).max())
    if not math.isfinite(scale):
        raise ValueError("array must not contain infs or NaNs")
    x, y = pts[:, 0], pts[:, 1]
    xs = np.sort(x)
    x_lo, x_hi = xs[0].item(), xs[-1].item()
    if x_hi - x_lo <= X_SPAN_EPS * np.finfo(float).eps * scale:
        raise TooFewPoints(f"the x values span {x_hi - x_lo:.3g}, too little to fit y(x)")
    order = min(3, len(np.unique(x)) - 1)
    # the largest Vandermonde entry must be finite
    if math.isinf(math.prod([max(abs(x_lo), abs(x_hi))] * order)):
        raise ValueError("array must not contain infs or NaNs")
    while True:
        V = np.vander(x, N=order + 1, increasing=True)
        Q, R, piv = qr(V, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        rank = int(np.sum(diag > len(x) * np.finfo(float).eps * diag[0]))
        if rank == order + 1 or order == 0:
            break
        order = max(rank - 1, 0)
    z = solve_triangular(R[: order + 1, : order + 1], Q.T @ y)
    coeffs = np.zeros(4)
    coeffs[piv] = z
    return coeffs.tolist(), x_lo, x_hi, order


def _assert_fit_matches_reference(pts):
    """fit_cubic gives the reference's coefficients, as Python floats, its
    range (the sign of a zero end too) and order to the last bit, or raises
    the same error with the same message; returns the order."""
    try:
        coeffs, x_lo, x_hi, order = _qr_fit_reference(pts)
    except (TooFewPoints, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            fit_cubic(pts)
        return None
    poly = fit_cubic(pts)
    assert poly.order == order
    assert all(type(c) is float for c in poly.coeffs)
    assert bits(*poly.coeffs, poly.x_lo, poly.x_hi) == bits(*coeffs, x_lo, x_hi)
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


_POINT = st.tuples(st.one_of(_FIT_X, _AWKWARD), st.one_of(st.floats(-5.0, 5.0), _AWKWARD))

# order degraded by the rank rule: a cubic through x clustered far from 0
_DEGRADED = np.column_stack((1e4 + np.linspace(0.0, 1e-3, 20), np.linspace(0.0, 1.0, 20)))


def _clustered(offset, width):
    """25 points at x in [offset, offset + width] on a line: far from 0 and
    narrow, the rank rule lowers the order."""
    return np.column_stack((offset + np.linspace(0.0, width, 25), np.linspace(0.0, 1.0, 25)))


@settings(max_examples=400, deadline=None)
@given(pts=st.one_of(
    _lane_points(),
    st.lists(_POINT, min_size=0, max_size=80).map(lambda p: np.array(p, dtype=float).reshape(-1, 2)),
))
@example(pts=_DEGRADED)
# an order of each kind: 3; 2, 1 and 0 by the rank rule; 1 from two
# distinct x values
@example(pts=_clustered(100.0, 1.0))
@example(pts=_clustered(100.0, 0.01))
@example(pts=_clustered(1e4, 1.0))
@example(pts=_clustered(1e6, 1e-4))
@example(pts=np.array([[1.0, 2.0], [1.0, 4.0], [2.0, 3.0]]))
@example(pts=np.array([[1.0, 2.0], [1.0, 4.0], [1.0 + 1e-12, 3.0]]))
@example(pts=np.array([[0.0, 1.0], [-0.0, 2.0], [2.0, 5.0]]))
@example(pts=np.array([[-0.0, 1.0], [0.0, 2.0], [-0.0, 3.0], [2.0, 5.0]]))
@example(pts=np.array([[0.0, 1.0], [-0.0, 2.0], [3.0, 5.0], [-0.0, 0.0]]))
# zeros of both signs that np.sort orders otherwise than a stable sort
@example(pts=np.column_stack(([0.0, 3.0, -0.0, 0.0, 0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 3.0, 0.0,
                               -0.0, 0.0, -0.0, -0.0, 3.0, 3.0, 3.0, -0.0, 0.0, 3.0, 0.0, -0.0,
                               -0.0, 3.0, -0.0], np.arange(28.0))))
@example(pts=np.array([[1e200, 0.0], [2e200, 1.0], [3e200, 0.0], [4e200, 1.0]]))  # x^3 overflows
@example(pts=np.array([[0.0, 0.0], [1.0, math.nan], [2.0, 1.0]]))
@example(pts=np.array([[2.0, 0.0], [2.0, 1.0], [2.0, 3.0]]))  # one distinct x
def test_fit_matches_scipy_qr(pts):
    _assert_fit_matches_reference(pts)


_ORDER_EXAMPLES = ((100.0, 1.0), (100.0, 0.01), (1e4, 1.0), (1e6, 1e-4))
_OVERFLOW_EXAMPLE = np.array([[1e200, 0.0], [2e200, 1.0], [3e200, 0.0], [4e200, 1.0]])
_ONE_X_EXAMPLE = np.array([[2.0, 0.0], [2.0, 1.0], [2.0, 3.0]])


def test_the_vander_fit_examples_cover_every_order():
    """The np.vander reference gives orders 3, 2, 1 and 0 on the
    clustered examples of test_fit_matches_scipy_qr."""
    orders = [_qr_fit_reference(_clustered(*c))[3] for c in _ORDER_EXAMPLES]
    assert orders == [3, 2, 1, 0]


def test_column_fit_examples_cover_every_order_and_error():
    """fit_cubic, which builds the Vandermonde column by column, reaches
    the same orders on those examples and raises both of the reference's
    errors."""
    assert [fit_cubic(_clustered(*c)).order for c in _ORDER_EXAMPLES] == [3, 2, 1, 0]
    with pytest.raises(ValueError):
        _qr_fit_reference(_OVERFLOW_EXAMPLE)
    with pytest.raises(ValueError):
        fit_cubic(_OVERFLOW_EXAMPLE)
    with pytest.raises(TooFewPoints):
        _qr_fit_reference(_ONE_X_EXAMPLE)
    with pytest.raises(TooFewPoints):
        fit_cubic(_ONE_X_EXAMPLE)


def test_fit_degrades_like_scipy_qr():
    """The rank rule lowers the order on inputs like these, and the
    degraded fits match the reference too."""
    assert _assert_fit_matches_reference(_DEGRADED) < 3
    x = 1.0 + np.arange(12) % 4 * 1e-9
    assert _assert_fit_matches_reference(np.column_stack((x, x))) < 3


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
    with pytest.raises(ValueError):
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


def _expression_centerline(left, right, lane_width=lanefit.DEFAULT_LANE_WIDTH):
    """centerline with the lanes averaged as written before the in-place
    Horner rule: 0.5 * (left(xs) + right(xs)), each side the expression
    ((a3 x + a2) x + a1) x + a0 out of place. The reference for the
    in-place evaluation; the fits are fit_cubic's, pinned above."""

    def value(poly, x):
        return ((poly.a3 * x + poly.a2) * x + poly.a1) * x + poly.a0

    def average(left, right):
        x_lo, x_hi = max(left.x_lo, right.x_lo), min(left.x_hi, right.x_hi)
        if x_lo >= x_hi:
            raise DisjointRanges("do not overlap")
        xs = np.linspace(x_lo, x_hi, CENTERLINE_SAMPLES)
        return fit_cubic(np.column_stack((xs, 0.5 * (value(left, xs) + value(right, xs)))))

    if left is None and right is None:
        return "none", None, None, None
    if left is not None and right is not None:
        return "both_lanes", average(left, right), left, right
    if left is not None:
        synth = lanefit._offset_lane(left, lane_width, toward_left=False)
        return "left_only", average(left, synth), left, synth
    synth = lanefit._offset_lane(right, lane_width, toward_left=True)
    return "right_only", average(synth, right), synth, right


_LANE = st.builds(
    lambda a, lo, width: CubicPoly(*a, lo, lo + width),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-1.0, 1.0), st.floats(-0.1, 0.1),
              st.floats(-0.01, 0.01)),
    st.floats(-2.0, 8.0), st.floats(1e-9, 12.0),
)


@settings(max_examples=300, deadline=None)
@given(left=st.one_of(st.none(), _LANE), right=st.one_of(st.none(), _LANE),
       lane_width=st.sampled_from([0.5, 3.5]))
@example(left=CubicPoly(1.75, 0.0, 0.0, 0.0, 0.0, 3.0),
         right=CubicPoly(-1.75, 0.0, 0.0, 0.0, 5.0, 9.0), lane_width=3.5)  # disjoint
@example(left=CubicPoly(1e300, 1e300, -1e300, 1e300, 0.0, 10.0),
         right=CubicPoly(0.0, 0.0, 0.0, 0.0, 0.0, 10.0), lane_width=3.5)  # overflow
def test_centerline_matches_the_expression_average(left, right, lane_width):
    """centerline's mode, lanes and centerline are the bits of the
    out-of-place average, or it raises the same error."""
    with np.errstate(all="ignore"):
        try:
            want = _expression_centerline(left, right, lane_width)
        except (DisjointRanges, TooFewPoints, ValueError) as exc:
            with pytest.raises(type(exc)):
                centerline(left, right, lane_width)
            return
        got = centerline(left, right, lane_width)
    assert got.mode == want[0]
    for poly, ref in zip(got[1:], want[1:]):
        assert (poly is None) == (ref is None)
        if poly is not None:
            assert bits(*poly) == bits(*ref)


@settings(max_examples=300, deadline=None)
@given(a=st.tuples(*[st.floats(allow_nan=False)] * 4),
       x=st.lists(st.floats(), min_size=0, max_size=70))
@example(a=(1e300, 1e300, -1e300, 1e300), x=[1e3, -0.0, math.nan])
def test_cubic_call_matches_the_expression(a, x):
    """CubicPoly.__call__, in place, rounds as the expression
    ((a3 x + a2) x + a1) x + a0 does, over arrays and 0-d arrays."""
    poly = CubicPoly(*a, 0.0, 1.0)
    with np.errstate(all="ignore"):
        for arg in (np.array(x), *x):
            want = ((poly.a3 * np.asarray(arg) + poly.a2) * np.asarray(arg) + poly.a1) \
                * np.asarray(arg) + poly.a0
            got = poly(arg)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# --------------------------------------------------------- look-ahead points


def test_lookahead_straight():
    c = _line_poly(0.0, 0.0)
    a, b, cc = lookahead_points(c, LOOKAHEAD_LEAD, LOOKAHEAD_SPACING)
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
    a, b, cc = lookahead_points(c, LOOKAHEAD_LEAD, LOOKAHEAD_SPACING)
    assert a[1] == pytest.approx(2.0, abs=1e-9)
    assert cc[1] == pytest.approx(3.0, abs=1e-9)

    x = np.linspace(0, 10, 40)
    q = fit_cubic(np.column_stack((x, 0.1 * x**2)))
    _, b, _ = lookahead_points(q, LOOKAHEAD_LEAD, LOOKAHEAD_SPACING)
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
