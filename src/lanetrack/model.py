"""Unicycle kinematics and polar tracking-error geometry.

All operations here are pure functions of their arguments; there is no
shared state, so everything is safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .angles import wrap_angle

#: Polar-error rates and the angular laws are undefined at distances at or
#: below this (meters); the simulator's step does not call them there.
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
    """Tracking error in polar coordinates (rho, alpha, beta), with the
    sines and cosines of alpha and beta.

    polar_error returns the angles wrapped to (-pi, pi] and computes their
    trig once, for every control law and Lyapunov term that reads it.
    """

    rho: float
    alpha: float
    beta: float
    sin_alpha: float
    cos_alpha: float
    sin_beta: float
    cos_beta: float


def integrate(pose: Pose, cmd: Twist, dt: float) -> Pose:
    """Advance the unicycle pose by one explicit-Euler step of length dt.

    The new heading is wrapped to (-pi, pi].
    """
    return Pose(
        pose.x + cmd.v * math.cos(pose.phi) * dt,
        pose.y + cmd.v * math.sin(pose.phi) * dt,
        wrap_angle(pose.phi + cmd.omega * dt),
    )


def polar_error(pose: Pose, target: TargetState) -> PolarError:
    """Polar tracking error of the robot relative to the moving target.

    alpha and beta wrap their differences of the line-of-sight angle theta,
    taken unwrapped. At rho = 0 theta is undefined; it is taken equal to the
    robot heading so the derived angles stay finite.
    """
    dx = target.x_t - pose.x
    dy = target.y_t - pose.y
    rho = math.hypot(dx, dy)
    theta = math.atan2(dy, dx) if rho > 0.0 else pose.phi
    alpha = wrap_angle(theta - pose.phi)
    beta = wrap_angle(theta - target.phi_t)
    return PolarError(
        rho, alpha, beta,
        math.sin(alpha), math.cos(alpha), math.sin(beta), math.cos(beta),
    )


def polar_rates(err: PolarError, cmd: Twist, target: TargetState) -> tuple[float, float, float]:
    """Analytic time derivatives (rho_dot, alpha_dot, beta_dot).

    Undefined near rho = 0: callers keep rho above RHO_EPS.
    """
    los_rate = (cmd.v * err.sin_alpha - target.v_t * err.sin_beta) / err.rho
    rho_dot = target.v_t * err.cos_beta - cmd.v * err.cos_alpha
    alpha_dot = los_rate - cmd.omega
    beta_dot = los_rate - target.phi_t_dot
    return rho_dot, alpha_dot, beta_dot


Point = tuple[float, float]


def target_heading_rate(a: Point, b: Point, c: Point, dt: float) -> float:
    """Heading rate of the target from three look-ahead points.

    The chord headings A->B and B->C are differenced (wrapped, to avoid
    2*pi spikes at the atan2 branch cut) and divided by dt. The rate is
    0.0 where two consecutive points coincide and a chord has no heading.
    dt > 0 is the caller's: a scenario's frame period, or the look-ahead
    spacing over its target speed.
    """
    abx, aby = b[0] - a[0], b[1] - a[1]
    bcx, bcy = c[0] - b[0], c[1] - b[1]
    if (abx == 0.0 and aby == 0.0) or (bcx == 0.0 and bcy == 0.0):
        return 0.0
    return wrap_angle(math.atan2(bcy, bcx) - math.atan2(aby, abx)) / dt
