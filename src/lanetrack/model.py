"""Unicycle kinematics and polar tracking-error geometry.

All operations here are pure functions of their arguments; there is no
shared state, so everything is safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

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


_PI = math.pi
_TAU = 2.0 * math.pi


def integrate(pose: Pose, cmd: Twist, dt: float) -> Pose:
    """Advance the unicycle pose by one explicit-Euler step of length dt.

    The new heading is wrapped to (-pi, pi].
    """
    x, y, phi = pose
    v, omega = cmd
    # once per step: wrap_angle written out, and tuple.__new__ builds the
    # Pose in C, without the Python-level __new__ of a NamedTuple
    return tuple.__new__(Pose, (x + v * math.cos(phi) * dt, y + v * math.sin(phi) * dt,
                                 _PI - (_PI - (phi + omega * dt)) % _TAU))


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


def target_heading_rate(x: list[float], y: list[float], dt: float) -> np.ndarray:
    """Heading rates of n targets from the chords between their look-ahead
    points A, B and C: x and y hold the chords' components, the n chords
    A->B first, then the n chords B->C.

    The chord headings are differenced (wrapped, to avoid 2*pi spikes at
    the atan2 branch cut) and divided by dt. A rate is 0.0 where two
    consecutive points coincide and a chord has no heading. dt > 0 is the
    caller's: a scenario's frame period, or the look-ahead spacing over its
    target speed. The headings are math.atan2's: np.arctan2 can differ from
    it in the last bit.
    """
    n = len(x) // 2
    heading = np.fromiter(map(math.atan2, y, x), float, 2 * n)
    rate = wrap_angle(heading[n:] - heading[:n])
    rate /= dt
    if 0.0 in x and 0.0 in y:  # else no chord is zero
        zero = (np.array((x, y)) == 0.0).all(axis=0)
        rate[zero.reshape(2, n).any(axis=0)] = 0.0
    return rate
