"""Unicycle kinematics and polar tracking-error geometry.

All operations here are pure functions of their arguments; there is no
shared state, so everything is safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .angles import wrap_angle
from .exceptions import DegenerateRho, NonPositiveDt

#: Below this |omega| the arc integrator takes the straight-line limit.
OMEGA_EPS = 1e-9

#: Polar-error rates and the angular laws refuse distances at or below this (meters).
RHO_EPS = 1e-3


class Pose(NamedTuple):
    """Planar robot posture (x, y, phi) in the global frame.

    The simulator keeps phi in (-pi, pi]: Scenario.start_pose wraps the
    initial heading and integrate wraps every later one.
    """

    x: float
    y: float
    phi: float


class Twist(NamedTuple):
    """Body-frame velocity command: linear v (m/s) and angular omega (rad/s)."""

    v: float
    omega: float


class TargetState(NamedTuple):
    """Moving target: position, heading in (-pi, pi], speed, and heading rate."""

    x_t: float
    y_t: float
    phi_t: float
    v_t: float
    phi_t_dot: float


class PolarError(NamedTuple):
    """Tracking error in polar coordinates (rho, theta, alpha, beta).

    polar_error returns the angles wrapped to (-pi, pi].
    """

    rho: float
    theta: float
    alpha: float
    beta: float


def integrate(pose: Pose, cmd: Twist, dt: float, scheme: str = "euler") -> Pose:
    """Advance the unicycle pose by one step of length dt.

    scheme="euler" is the default explicit-Euler update used by the control
    loop; scheme="arc" is the closed-form constant-twist solution, provided
    for oracle tests. The new heading is wrapped to (-pi, pi].
    """
    if dt <= 0:
        raise NonPositiveDt(f"dt must be > 0, got {dt}")
    if scheme == "euler":
        return Pose(
            pose.x + cmd.v * math.cos(pose.phi) * dt,
            pose.y + cmd.v * math.sin(pose.phi) * dt,
            wrap_angle(pose.phi + cmd.omega * dt),
        )
    if scheme == "arc":
        if abs(cmd.omega) <= OMEGA_EPS:
            return Pose(
                x=pose.x + cmd.v * math.cos(pose.phi) * dt,
                y=pose.y + cmd.v * math.sin(pose.phi) * dt,
                phi=wrap_angle(pose.phi),
            )
        phi1 = pose.phi + cmd.omega * dt
        r = cmd.v / cmd.omega
        return Pose(
            x=pose.x + r * (math.sin(phi1) - math.sin(pose.phi)),
            y=pose.y - r * (math.cos(phi1) - math.cos(pose.phi)),
            phi=wrap_angle(phi1),
        )
    raise ValueError(f"unknown integration scheme {scheme!r}")


def polar_error(pose: Pose, target: TargetState) -> PolarError:
    """Polar tracking error of the robot relative to the moving target.

    When the robot sits exactly on the target (rho = 0) the line-of-sight
    angle theta is undefined; it is taken equal to the robot heading so the
    derived angles stay finite.
    """
    dx = target.x_t - pose.x
    dy = target.y_t - pose.y
    rho = math.hypot(dx, dy)
    theta = math.atan2(dy, dx) if rho > 0.0 else pose.phi
    return PolarError(
        rho,
        wrap_angle(theta),
        wrap_angle(theta - pose.phi),
        wrap_angle(theta - target.phi_t),
    )


def polar_rates(err: PolarError, cmd: Twist, target: TargetState) -> tuple[float, float, float]:
    """Analytic time derivatives (rho_dot, alpha_dot, beta_dot).

    Undefined near rho = 0; raises DegenerateRho at or below RHO_EPS.
    """
    if err.rho <= RHO_EPS:
        raise DegenerateRho(f"rho={err.rho:.3e} <= {RHO_EPS:.0e}")
    sa, sb = math.sin(err.alpha), math.sin(err.beta)
    ca, cb = math.cos(err.alpha), math.cos(err.beta)
    los_rate = (cmd.v * sa - target.v_t * sb) / err.rho
    rho_dot = target.v_t * cb - cmd.v * ca
    alpha_dot = los_rate - cmd.omega
    beta_dot = los_rate - target.phi_t_dot
    return rho_dot, alpha_dot, beta_dot


Point = tuple[float, float]


def target_heading_rate(a: Point, b: Point, c: Point, dt: float) -> float:
    """Heading rate of the target from three look-ahead points.

    The chord headings A->B and B->C are differenced (wrapped, to avoid
    2*pi spikes at the atan2 branch cut) and divided by dt. The rate is
    0.0 where two consecutive points coincide and a chord has no heading.
    """
    if dt <= 0:
        raise NonPositiveDt(f"dt must be > 0, got {dt}")
    abx, aby = b[0] - a[0], b[1] - a[1]
    bcx, bcy = c[0] - b[0], c[1] - b[1]
    if (abx == 0.0 and aby == 0.0) or (bcx == 0.0 and bcy == 0.0):
        return 0.0
    return wrap_angle(math.atan2(bcy, bcx) - math.atan2(aby, abx)) / dt
