import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from polylines import advance_exact, bits, point_heading_rate

from lanetrack.angles import wrap_angle
from lanetrack.exceptions import InvalidScenario
from lanetrack.model import (
    Pose,
    TargetState,
    Twist,
    integrate,
    polar_error,
    polar_rates,
    target_heading_rate,
)
from lanetrack.simulator import Scenario
from lanetrack.tracks import straight_track


# --------------------------------------------------------------- integration


def test_integrate_rejects_bad_dt():
    # integrate steps by the scenario's dt, which the scenario rejects at 0
    with pytest.raises(InvalidScenario, match="dt must be > 0"):
        Scenario(straight_track(), "preset_path", 1.5, dt=0.0).validate()


def test_integrate_euler_straight():
    p = integrate(Pose(1.0, 2.0, 0.0), Twist(2.0, 0.0), 0.5)
    assert (p.x, p.y, p.phi) == pytest.approx((2.0, 2.0, 0.0))


def test_integrate_arc_quarter_circle():
    # the closed-form arc flow, the oracle of the tests below: v=1, omega=1
    # for pi/2 seconds is a quarter of the unit circle
    x, y, phi = advance_exact(0.0, 0.0, 0.0, 1.0, 1.0, math.pi / 2)
    assert (x, y, phi) == pytest.approx((1.0, 1.0, math.pi / 2))


def test_integrate_euler_converges_to_arc():
    """Euler with shrinking steps approaches the exact arc solution at O(dt)."""
    cmd = Twist(1.3, 0.7)
    x, y, _ = advance_exact(0.0, 0.0, 0.2, cmd.v, cmd.omega, 1.0)
    errs = []
    for n in (100, 200, 400):
        p = Pose(0, 0, 0.2)
        for _ in range(n):
            p = integrate(p, cmd, 1.0 / n)
        errs.append(math.hypot(p.x - x, p.y - y))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)


def _parent_integrate(pose, cmd, dt):
    """integrate as it was written before it unpacked its arguments and
    built the Pose by tuple.__new__: the reference."""
    return Pose(
        pose.x + cmd.v * math.cos(pose.phi) * dt,
        pose.y + cmd.v * math.sin(pose.phi) * dt,
        wrap_angle(pose.phi + cmd.omega * dt),
    )


_ANY_FLOAT = st.floats() | st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 1e300])


@settings(max_examples=500)
@given(x=_ANY_FLOAT, y=_ANY_FLOAT, phi=_ANY_FLOAT, v=_ANY_FLOAT, omega=_ANY_FLOAT,
       dt=st.floats(1e-6, 1.0) | _ANY_FLOAT)
@example(x=0.0, y=0.0, phi=math.pi, v=1.0, omega=0.0, dt=0.01)  # wraps to pi
@example(x=0.0, y=0.0, phi=-math.pi, v=1.0, omega=0.0, dt=0.01)  # wraps to pi too
@example(x=0.0, y=0.0, phi=3.1, v=1.0, omega=10.0, dt=0.01)  # past pi
@example(x=0.0, y=0.0, phi=-3.1, v=1.0, omega=-10.0, dt=0.01)  # past -pi
@example(x=math.nan, y=math.inf, phi=1.0, v=-math.inf, omega=math.nan, dt=0.01)
@example(x=0.0, y=0.0, phi=math.inf, v=1.0, omega=0.0, dt=0.01)  # raises
def test_integrate_matches_the_parent_integrate(x, y, phi, v, omega, dt):
    """A Pose of Python floats with the parent's bits, NaN and inf too, or
    the parent's error (math.cos of an infinite heading)."""
    pose, cmd = Pose(x, y, phi), Twist(v, omega)
    try:
        want = _parent_integrate(pose, cmd, dt)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            integrate(pose, cmd, dt)
        return
    got = integrate(pose, cmd, dt)
    assert type(got) is Pose
    assert all(type(value) is float for value in got)
    assert bits(*got) == bits(*want)


def test_integrate_wraps_heading():
    p = integrate(Pose(0.0, 0.0, 3.0), Twist(1.0, 1.0), 0.5)
    assert p.phi == pytest.approx(3.5 - 2 * math.pi)
    straight = integrate(Pose(0.0, 0.0, 7.0), Twist(1.0, 0.0), 0.1)
    assert straight.phi == pytest.approx(7.0 - 2 * math.pi)


# -------------------------------------------------------------- polar errors


def test_polar_error_geometry():
    err = polar_error(Pose(0, 0, 0), TargetState(1.0, 1.0, math.pi / 2, 1.0, 0.0))
    assert err.rho == pytest.approx(math.sqrt(2))
    assert err.alpha == pytest.approx(math.pi / 4)
    assert err.beta == pytest.approx(math.pi / 4 - math.pi / 2)
    # the trig the control laws share is that of the wrapped angles
    a, b = err.alpha, err.beta
    assert err[3:] == (math.sin(a), math.cos(a), math.sin(b), math.cos(b))


def test_polar_error_zero_rho_uses_heading():
    err = polar_error(Pose(2, 3, 0.7), TargetState(2.0, 3.0, 0.0, 1.0, 0.0))
    assert err.rho == 0.0
    # theta is the heading, so alpha is 0 and beta the heading off phi_t
    assert err.alpha == 0.0
    assert err.beta == pytest.approx(0.7)


def test_polar_rates_match_finite_differences():
    """Central finite differences of the geometric definitions (oracle).

    Robot and target are both advanced through their exact constant-twist
    flows over +/- h and the polar quantities differenced.
    """
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(400):
        px, py = rng.uniform(-5, 5, size=2)
        pphi = rng.uniform(-math.pi, math.pi)
        ang = rng.uniform(-math.pi, math.pi)
        rho = rng.uniform(0.05, 8.0)
        tx, ty = px + rho * math.cos(ang), py + rho * math.sin(ang)
        tphi = rng.uniform(-math.pi, math.pi)
        v, om = rng.uniform(0, 2), rng.uniform(-1, 1)
        v_t, tdot = rng.uniform(0, 2), rng.uniform(-1, 1)

        pose = Pose(px, py, pphi)
        target = TargetState(tx, ty, tphi, v_t, tdot)
        err = polar_error(pose, target)
        rho_dot, alpha_dot, beta_dot = polar_rates(err, Twist(v, om), target)

        samples = []
        for s in (+h, -h):
            rx, ry, rphi = advance_exact(px, py, pphi, v, om, s)
            gx, gy, gphi = advance_exact(tx, ty, tphi, v_t, tdot, s)
            e = polar_error(Pose(rx, ry, rphi), TargetState(gx, gy, gphi, v_t, tdot))
            samples.append(e)
        ep, em = samples
        fd_rho = (ep.rho - em.rho) / (2 * h)
        fd_alpha = wrap_angle(ep.alpha - em.alpha) / (2 * h)
        fd_beta = wrap_angle(ep.beta - em.beta) / (2 * h)

        for fd, an in ((fd_rho, rho_dot), (fd_alpha, alpha_dot), (fd_beta, beta_dot)):
            assert abs(fd - an) <= 1e-4 * max(1.0, abs(an))


# --------------------------------------------------------- target heading rate


def test_target_heading_rate_straight_line():
    assert target_heading_rate(1.0, 0.0, 1.0, 0.0, 0.5) == 0.0


def test_target_heading_rate_circle():
    # points on a circle of radius R traversed at speed v -> rate v/R
    R, v = 5.0, 1.5
    dt = 0.5 / v
    ang = [0.0, 0.5 / R, 1.0 / R]
    (ax, ay), (bx, by), (cx, cy) = [(R * math.cos(a), R * math.sin(a)) for a in ang]
    rate = target_heading_rate(bx - ax, by - ay, cx - bx, cy - by, dt)
    assert rate == pytest.approx(v / R, rel=1e-3)


def test_target_heading_rate_wraps_branch_cut():
    # chords straddling the atan2 cut must not produce a 2*pi spike:
    # A (1, -0.01), B (0, 0), C (-1, -0.01)
    rate = target_heading_rate(-1.0, 0.01, -1.0, -0.01, 1.0)
    assert abs(rate) < 0.1


def test_target_heading_rate_errors():
    # a chord of two coincident points has no heading: the rate reads 0.0
    assert target_heading_rate(0.0, 0.0, 1.0, 0.0, 1.0) == 0.0
    assert target_heading_rate(1.0, 1.0, 0.0, 0.0, 1.0) == 0.0
    assert target_heading_rate(0.0, -0.0, -0.0, 0.0, 0.5) == 0.0
    assert type(target_heading_rate(1.0, 0.0, 0.0, 1.0, 1.0)) is float


# grid points repeat (zero chords) and straddle the atan2 branch cut
_COORD = (st.integers(-2, 2).map(float) | st.sampled_from([-0.0, 1e-300, -1e-300])
          | st.floats(-1e3, 1e3))
_POINT = st.tuples(_COORD, _COORD)


@settings(max_examples=200)
@given(points=st.lists(st.tuples(_POINT, _POINT, _POINT), min_size=1, max_size=40),
       dt=st.floats(1e-3, 10.0))
@example(points=[((1.0, -0.0), (0.0, 0.0), (-1.0, -0.0)), ((0.0, 0.0), (-0.0, -0.0), (1.0, 1.0)),
                 ((1.0, 0.0), (0.0, 0.0), (-1.0, 0.0))], dt=0.1)
def test_target_heading_rate_matches_the_point_rate(points, dt):
    """Mapped over the chords of a block of targets, as advance_target forms
    and maps them, each rate has the bits of the per-point rate of its
    three points."""
    planes = np.array(points, dtype=float).transpose(2, 1, 0)  # x and y of A, B, C
    (abx, bcx), (aby, bcy) = (planes[:, 1:] - planes[:, :-1]).tolist()
    got = list(map(target_heading_rate, abx, aby, bcx, bcy, repeat(dt, len(points))))
    want = [point_heading_rate(a, b, c, dt) for a, b, c in points]
    assert bits(*got) == bits(*want)
