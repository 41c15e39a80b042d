"""Lane geometry pipeline.

ROI filtering, arc-length resampling, cubic least-squares fitting via
pivoted QR, centerline synthesis with missing-lane fallback, look-ahead
point extraction, and the boundary-conditioned temporal cubic.

Polynomial order is hard-capped at 3: equispaced high-order fits
oscillate at the interval ends (Runge phenomenon), which is exactly what
a navigation path must not do.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import NamedTuple

import numpy as np

from .exceptions import (
    DegeneratePolyline,
    DisjointRanges,
    NonPositiveDuration,
    TooFewPoints,
    TooManyPoints,
)
from .tracks import DEFAULT_LANE_WIDTH

#: Most points resample may return: far above a simulator frame (about
#: 100 at scenario.DEFAULT_DELTA_S), and a few MB, not all of memory.
MAX_RESAMPLED = 100_000

#: Grid size used when averaging/refitting centerlines.
CENTERLINE_SAMPLES = 64

#: Points whose x values span at most this many epsilons of their largest
#: coordinate are seen at one x: the spread is within the rounding of the
#: coordinates they were computed from, and there is no graph y(x) to fit.
X_SPAN_EPS = 8

_EPS = float(np.finfo(float).eps)


def in_roi(x: np.ndarray, y: np.ndarray, roi: tuple[float, float, float, float]) -> np.ndarray:
    """Whether each point (x, y) lies in the closed box roi = (x_min, x_max,
    y_min, y_max)."""
    x_min, x_max, y_min, y_max = roi
    return (x >= x_min) & (x <= x_max) & (y >= y_min) & (y <= y_max)


def resample(pts: np.ndarray, delta_s: float) -> np.ndarray:
    """Resample a polyline at constant arc-length spacing delta_s.

    Output points sit at arc lengths k * delta_s for k = 0..floor(S/delta_s),
    linearly interpolated within the containing segment. delta_s > 0 is
    the caller's: a constant, or the checked --delta-s of `lanetrack fit`.
    More than MAX_RESAMPLED points raise TooManyPoints before any is made.
    """
    pts = np.asarray(pts, dtype=float)
    if len(pts) < 2:
        raise DegeneratePolyline("resampling needs >= 2 distinct points")
    # the cumulative chord length, with the norm's sum of squares written
    # out. A chord too long to square (or one between infinite points)
    # makes the total infinite (or NaN), which raises TooManyPoints below,
    # so the warning it would print says nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        start = pts[:-1]
        step = pts[1:] - start
        chord = step * step
        chord = chord[:, 0] + chord[:, 1]
        np.sqrt(chord, out=chord)
        s = np.empty(len(pts))
        s[0] = 0.0
        chord.cumsum(out=s[1:])
        ds = s[1:] - s[:-1]
    # drop the steps that leave s where it was, so that every segment kept
    # divides by a positive length: duplicate points, and steps too short
    # to change the sum. The sums over the steps kept keep their bits, and
    # so do the differences: a dropped step's ends are equal.
    if np.count_nonzero(ds) < len(ds):
        moved = ds != 0.0
        start, step, ds = start[moved], step[moved], ds[moved]
        s = s[np.concatenate(([True], moved))]
        if not len(step):
            raise DegeneratePolyline("resampling needs >= 2 distinct points")
    total = s.item(-1)
    steps = total / delta_s + 1e-9
    if not steps < MAX_RESAMPLED:  # NaN too
        raise TooManyPoints(f"resampling {total:.3g} m every {delta_s:.3g} m gives more "
                            f"than {MAX_RESAMPLED} points")
    n_out = int(math.floor(steps)) + 1
    targets = np.arange(n_out) * delta_s
    # the step of each target: the number of inner vertices at or below
    # it (every target is >= s[0] = 0.0; the last may reach s[-1])
    idx = s[1:-1].searchsorted(targets, side="right")
    t = targets - s.take(idx)
    t /= ds.take(idx)
    out = step.take(idx, axis=0)
    out *= t[:, None]
    out += start.take(idx, axis=0)
    return out


class CubicPoly(NamedTuple):
    """y = a0 + a1 x + a2 x^2 + a3 x^3, valid over [x_lo, x_hi]."""

    a0: float
    a1: float
    a2: float
    a3: float
    x_lo: float
    x_hi: float
    order: int = 3

    @property
    def coeffs(self) -> tuple[float, float, float, float]:
        return self[:4]

    def __call__(self, x):
        return _horner(self, np.asarray(x, dtype=float))

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return (3.0 * self.a3 * x + 2.0 * self.a2) * x + self.a1


def _horner(a, x):
    """((a[3] x + a[2]) x + a[1]) x + a[0] for the array x, by Horner's
    rule, in place in one array."""
    y = x * a[3]
    y += a[2]
    y *= x
    y += a[1]
    y *= x
    y += a[0]
    return y


@functools.cache
def _lapack(n_cols: int):
    """LAPACK's dgeqp3, dorgqr and dtrtrs, with the optimal geqp3 and
    orgqr workspace sizes for n_cols columns; the sizes depend on nothing
    else. The routines are attributes of scipy's f2py extension
    scipy.linalg._flapack, the same objects scipy.linalg.lapack.
    get_lapack_funcs returns for float64. That extension alone is loaded,
    on the first fit: the scipy.linalg package would load some 330 modules
    more, and the processes which never fit a lane (metrics, preset runs)
    load no scipy at all."""
    flapack = _flapack()
    geqp3, orgqr, trtrs = flapack.dgeqp3, flapack.dorgqr, flapack.dtrtrs
    a = np.zeros((n_cols, n_cols), order="F")
    lwork_qr = int(geqp3(a, lwork=-1)[-2][0])
    lwork_q = int(orgqr(a, np.zeros(n_cols), lwork=-1)[-2][0])
    return geqp3, orgqr, trtrs, lwork_qr, lwork_q


def _flapack():
    """The module scipy.linalg._flapack, loaded from scipy's linalg
    directory and registered under its own name, without running
    scipy/linalg/__init__.py; the one in sys.modules if scipy.linalg (or
    this function) has loaded it. `import scipy` comes first: it sets up
    the bundled OpenBLAS where a platform needs that."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"No module named {name!r}", name=name)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def fit_cubic(pts: np.ndarray) -> CubicPoly:
    """Least-squares cubic through (x_i, y_i) via column-pivoted QR.

    The Vandermonde system is solved directly through its QR factors (never
    via the normal equations). On numerical rank deficiency the fit degrades
    to the highest full-rank order (quadratic, line, constant) and the
    missing coefficients are zero. Points whose x values span no more than
    X_SPAN_EPS * eps times their largest |coordinate| raise TooFewPoints,
    as do fewer than two points; non-finite points raise ValueError.

    The LAPACK calls are those of scipy.linalg.qr(np.vander(x, increasing=
    True), mode="economic", pivoting=True) and solve_triangular(R, Q.T @ y),
    made directly, so the coefficients are the same to the last bit. The
    coefficients are Python floats.
    """
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    if n < 2:
        raise TooFewPoints("need 2 or more points to fit")
    # x and y, each sorted as np.sort sorts it: NaN last, so the ends say
    # whether every coordinate is finite, and give the largest |coordinate|
    rows = pts.T.copy()
    rows.sort()
    xs, ys = rows.tolist()
    x_lo, x_hi = xs[0], xs[-1]
    if not all(map(math.isfinite, (x_lo, x_hi, ys[0], ys[-1]))):
        raise ValueError("array must not contain infs or NaNs")
    scale = max(-x_lo, x_hi, -ys[0], ys[-1])
    if x_hi - x_lo <= X_SPAN_EPS * _EPS * scale:
        raise TooFewPoints(f"the x values span {x_hi - x_lo:.3g}, too little to fit y(x)")
    x_max = max(abs(x_lo), abs(x_hi))
    # the order: the distinct x values but one, at most 3
    order = 0
    prev = x_lo
    for value in xs:
        if value != prev:
            order += 1
            if order == 3:
                break
            prev = value
    # the largest Vandermonde entry, multiplied out as np.vander does
    if math.isinf(math.prod([x_max] * order)):
        raise ValueError("array must not contain infs or NaNs")

    x, y = pts[:, 0], pts[:, 1]
    while True:
        # np.vander(x, order + 1, increasing=True) with the products
        # np.vander forms, x, x * x and (x * x) * x, in the Fortran order
        # LAPACK takes: geqp3 factors it in place
        V = np.empty((order + 1, n))
        V[0] = 1.0
        V[1:] = x
        np.multiply.accumulate(V[1:], axis=0, out=V[1:])
        geqp3, orgqr, trtrs, lwork_qr, lwork_q = _lapack(order + 1)
        qr, jpvt, tau, _, _ = geqp3(V.T, lwork=lwork_qr, overwrite_a=1)
        diag = qr.diagonal().tolist()
        tol = n * _EPS * abs(diag[0])
        rank = len([d for d in diag if abs(d) > tol])
        if rank == order + 1 or order == 0:
            break
        order = max(rank - 1, 0)

    Q, _, _ = orgqr(qr, tau, lwork=lwork_q)
    # R is the upper triangle of qr's first rows. scipy solves a C-ordered
    # R (every R but 1 x 1) as its transpose, a lower triangle, with trans=1
    R = qr[: order + 1]
    if order:
        z, _ = trtrs(R.T, Q.T @ y, lower=1, trans=1)
    else:
        z, _ = trtrs(R, Q.T @ y)
    coeffs = [0.0] * 4
    for j, value in zip(jpvt.tolist(), z.tolist()):
        coeffs[j - 1] = value
    return CubicPoly(*coeffs, x_lo, x_hi, order)


class CenterlineResult(NamedTuple):
    """Outcome of centerline synthesis; centerline is None iff mode='none'."""

    mode: str  # both_lanes | left_only | right_only | none
    centerline: CubicPoly | None
    lane_left: CubicPoly | None
    lane_right: CubicPoly | None


def _offset_lane(poly: CubicPoly, distance: float, toward_left: bool) -> CubicPoly:
    """Synthesize the missing lane by offsetting along the local curve normal."""
    xs = np.linspace(poly.x_lo, poly.x_hi, CENTERLINE_SAMPLES)
    ys = poly(xs)
    slope = poly.derivative(xs)
    norm = np.sqrt(1.0 + slope * slope)
    # left normal of the graph (x, f(x)) traversed with increasing x
    nx, ny = -slope / norm, 1.0 / norm
    sign = 1.0 if toward_left else -1.0
    shifted = np.column_stack((xs + sign * distance * nx, ys + sign * distance * ny))
    return fit_cubic(shifted)


def _average_fit(left: CubicPoly, right: CubicPoly) -> CubicPoly:
    x_lo = max(left.x_lo, right.x_lo)
    x_hi = min(left.x_hi, right.x_hi)
    if x_lo >= x_hi:
        raise DisjointRanges(
            f"lane x-ranges [{left.x_lo}, {left.x_hi}] and "
            f"[{right.x_lo}, {right.x_hi}] do not overlap"
        )
    pts = np.empty((CENTERLINE_SAMPLES, 2))
    pts[:, 0] = xs = np.linspace(x_lo, x_hi, CENTERLINE_SAMPLES)
    mean = pts[:, 1]
    np.add(_horner(left, xs), _horner(right, xs), out=mean)
    mean *= 0.5
    return fit_cubic(pts)


def centerline(
    left: CubicPoly | None,
    right: CubicPoly | None,
    lane_width: float = DEFAULT_LANE_WIDTH,
) -> CenterlineResult:
    """Synthesize the lane centerline from zero, one or two fitted lanes.

    With both lanes, the centerline is the pointwise mean of the two
    polynomials over their overlapping x-range, refit to a cubic. With one
    lane the missing side is generated by a lane-width normal offset toward
    the track interior, then averaged the same way. With none, mode='none'
    signals the minimum-speed fallback to the caller. lane_width > 0 is the
    caller's: a Track's, or the checked --lane-width of `lanetrack fit`.
    """
    if left is None and right is None:
        return CenterlineResult("none", None, None, None)
    if left is not None and right is not None:
        return CenterlineResult("both_lanes", _average_fit(left, right), left, right)
    if left is not None:
        synth = _offset_lane(left, lane_width, toward_left=False)
        return CenterlineResult("left_only", _average_fit(left, synth), left, synth)
    synth = _offset_lane(right, lane_width, toward_left=True)
    return CenterlineResult("right_only", _average_fit(synth, right), synth, right)


def lookahead_points(
    center: CubicPoly,
    lead: float = 2.0,
    spacing: float = 0.5,
) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
    """Three look-ahead points on the centerline at lead, lead+s, lead+2s."""
    a0, a1, a2, a3 = center.coeffs
    # CubicPoly.__call__'s Horner rule, over Python floats
    return tuple((x, ((a3 * x + a2) * x + a1) * x + a0)
                 for x in (lead, lead + spacing, lead + 2.0 * spacing))


def boundary_cubic(
    theta0: float,
    thetaT: float,
    rate0: float,
    rateT: float,
    t0: float,
) -> tuple[float, float, float, float]:
    """Cubic in time matching value and rate constraints at t=0 and t=t0."""
    if t0 <= 0:
        raise NonPositiveDuration(f"t0 must be > 0, got {t0}")
    d = thetaT - theta0
    a0 = theta0
    a1 = rate0
    a2 = 3.0 * d / (t0 * t0) - 2.0 * rate0 / t0 - rateT / t0
    a3 = -2.0 * d / (t0 * t0 * t0) + (rate0 + rateT) / (t0 * t0)
    return a0, a1, a2, a3
