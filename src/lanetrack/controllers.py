"""Tracking control laws and command saturation.

Contains the proposed Lyapunov controller (linear and angular laws), a
conventional Lyapunov controller used for comparison, Lyapunov value/rate
diagnostics, and magnitude + slew saturation of commands: the spec terms.
control_step, the kernel the simulator runs once per step, is all of them
in one straight-line function that matches them bit for bit.

All functions are pure; the slew limiter's dependence on the previous
command is explicit in its signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import RHO_EPS, PolarError, Pose, TargetState, Twist, polar_rates

#: Magnitude clamp for singular sin(alpha)/alpha denominators.
SIN_EPS = 1e-6

#: |alpha| below which sin(2a)/(2a) is evaluated by series.
SERIES_EPS = 1e-4


@dataclass(frozen=True)
class ControllerGains:
    """Gains of the tracking laws; defaults follow the tuned field values."""

    lambda_v: float = 0.075
    lambda_a: float = 0.15
    k1: float = 0.8
    k2: float = 50.0


@dataclass(frozen=True)
class SaturationLimits:
    """Magnitude and slew bounds applied to every command."""

    v_min: float = 0.6
    v_max: float = 1.75
    omega_abs_max: float = 0.4
    accel_max: float = 1.0
    alpha_accel_max: float = 1.0

    @classmethod
    def for_target_speed(cls, v_t: float) -> "SaturationLimits":
        """Speed bounds for a given target speed: v in [0.6, v_t + 0.25].

        Matches both published profiles (v_max 1.75 at v_t=1.5, 2.25 at 2.0).
        """
        return cls(v_min=0.6, v_max=v_t + 0.25)


def proposed_linear(err: PolarError, target: TargetState, gains: ControllerGains) -> float:
    """Linear law v = (v_t cos(beta) + lambda_v rho) cos(alpha)."""
    return (target.v_t * err.cos_beta + gains.lambda_v * err.rho) * err.cos_alpha


def _clamped(x: float, eps: float) -> float:
    """Clamp |x| from below to eps, preserving sign (sign(0) treated as +)."""
    if abs(x) >= eps:
        return x
    return eps if x >= 0.0 else -eps


def proposed_angular(err: PolarError, target: TargetState, gains: ControllerGains) -> float:
    """Angular law of the proposed controller.

    Built so that along the closed loop the angular Lyapunov term decays as
    dV2/dt = -lambda_a sin^2(alpha)/k1 exactly. Using sin(2a)/(2 sin a) =
    cos a, the law reads

        omega = lambda_a sin(a)
              + G k1 v_t (cos(a) cos(b) - sin(b)/sin(a))
              - phi_t_dot k1 sin(b) / (k2 sin(a))
              + lambda_v cos(a) (sin(a) + k1 sin(b)/k2)

    with G = sin(a)/(k1 rho) + sin(b)/(k2 rho). The sin(b)/sin(a) quotients
    are singular at a = 0 with b != 0; their denominator is clamped in
    magnitude to SIN_EPS (sign-preserving) instead of raising, since
    closed-loop runs pass through a = 0 (control_step flags it). Undefined at
    rho <= RHO_EPS, where the simulator holds the last angular speed.
    """
    sa, sb, ca, cb = err.sin_alpha, err.sin_beta, err.cos_alpha, err.cos_beta
    k1, k2 = gains.k1, gains.k2
    sa_c = _clamped(sa, SIN_EPS)

    g = (sa / k1 + sb / k2) / err.rho
    coupling = g * k1 * target.v_t * (ca * cb - sb / sa_c)
    feedforward = -target.phi_t_dot * k1 * sb / (k2 * sa_c)
    damping = gains.lambda_v * ca * (sa + k1 * sb / k2)
    return gains.lambda_a * sa + coupling + feedforward + damping


def _sinc2(alpha: float) -> float:
    """sin(2a)/(2a), evaluated by series near zero."""
    if abs(alpha) < SERIES_EPS:
        x = 2.0 * alpha
        return 1.0 - x * x / 6.0
    return math.sin(2.0 * alpha) / (2.0 * alpha)


def comparative_cmd(err: PolarError, target: TargetState, gains: ControllerGains) -> Twist:
    """Conventional comparison controller.

    The linear law is identical in form to the proposed one; the angular law

        omega = lambda_a a
              + ((a+b)/rho)(sin(2a)/(2a) cos(b) - sin(b)/a) v_t
              - (b/a) phi_t_dot
              + sin(2a)/(2a) lambda_v (a+b)

    has a-denominators that are clamped in magnitude to SIN_EPS when the
    robot passes through a = 0. Undefined at rho <= RHO_EPS, like the
    proposed angular law.
    """
    a, b = err.alpha, err.beta
    a_c = _clamped(a, SIN_EPS)
    sinc2 = _sinc2(a)

    v = proposed_linear(err, target, gains)
    omega = (
        gains.lambda_a * a
        + ((a + b) / err.rho) * (sinc2 * err.cos_beta - err.sin_beta / a_c) * target.v_t
        - (b / a_c) * target.phi_t_dot
        + sinc2 * gains.lambda_v * (a + b)
    )
    return Twist(v, omega)


def lyapunov_report(
    err: PolarError,
    cmd: Twist,
    target: TargetState,
    gains: ControllerGains,
    variant: str = "proposed",
) -> tuple[float, float, float, float]:
    """(V1, V2, V1_dot, V2_dot): Lyapunov values and their rates along cmd.

    V1 = rho^2/2 for both variants. V2 is (1-cos a)/k1 + (1-cos b)/k2 for
    the proposed controller and (a^2 + b^2)/2 for the comparative one. The
    rates are chain-ruled through the analytic polar-error derivatives, so
    they reflect whatever command was actually applied (including any
    saturation). They are undefined at rho <= RHO_EPS and read NaN there.
    Any variant but "proposed" reads as the comparative one.
    """
    a, b = err.alpha, err.beta
    v1 = 0.5 * err.rho * err.rho
    if variant == "proposed":
        v2 = (1.0 - err.cos_alpha) / gains.k1 + (1.0 - err.cos_beta) / gains.k2
    else:
        v2 = 0.5 * (a * a + b * b)
    if err.rho <= RHO_EPS:
        return v1, v2, math.nan, math.nan

    rho_dot, alpha_dot, beta_dot = polar_rates(err, cmd, target)
    v1_dot = err.rho * rho_dot
    if variant == "proposed":
        v2_dot = err.sin_alpha * alpha_dot / gains.k1 + err.sin_beta * beta_dot / gains.k2
    else:
        v2_dot = a * alpha_dot + b * beta_dot
    return v1, v2, v1_dot, v2_dot


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def saturate(raw: Twist, prev: Twist, limits: SaturationLimits, dt: float) -> Twist:
    """Clamp a raw command to magnitude bounds, then slew-limit against prev.

    Clamp order is magnitude first, slew second; dt > 0 is the scenario's.
    """
    v = _clamp(raw.v, limits.v_min, limits.v_max)
    dv = limits.accel_max * dt
    v = _clamp(v, prev.v - dv, prev.v + dv)

    w = _clamp(raw.omega, -limits.omega_abs_max, limits.omega_abs_max)
    dw = limits.alpha_accel_max * dt
    w = _clamp(w, prev.omega - dw, prev.omega + dw)
    return Twist(v, w)


_PI = math.pi
_TAU = 2.0 * math.pi


def control_step(
    pose: Pose,
    target: TargetState,
    prev: Twist,
    gains: ControllerGains,
    limits: SaturationLimits | None,
    dt: float,
    controller: str,
) -> tuple:
    """One control period as plain floats: the step's law, saturation and
    Lyapunov terms in one straight-line function.

    It is polar_error, then the law of controller (proposed_linear with
    proposed_angular, or comparative_cmd), saturate (skipped when limits
    is None) and lyapunov_report along the applied command, with the trig
    of alpha and beta taken once; it matches those spec terms bit for bit.
    Returns (v_cmd, omega_cmd, v_app, omega_app, rho, alpha, beta, V1, V2,
    sat, V1_dot, V2_dot, singular, degenerate), in the log's column order.

    degenerate is rho <= RHO_EPS, where the angular laws are undefined:
    omega_cmd holds prev.omega and the rates read NaN. singular says
    whether the law clamped an alpha denominator, sin(a) for the proposed
    law and a for the comparative one, within SIN_EPS of 0 while the
    matching beta term is not. sat says whether saturation moved either
    command by more than 1e-12. Any controller but "proposed" reads as
    the comparative one.
    """
    x, y, phi = pose
    x_t, y_t, phi_t, v_t, phi_t_dot = target
    dx = x_t - x
    dy = y_t - y
    rho = math.hypot(dx, dy)
    # wrap_angle written out; alpha and beta wrap their differences of the
    # unwrapped theta, as polar_error does
    theta = math.atan2(dy, dx) if rho > 0.0 else phi
    a = _PI - (_PI - (theta - phi)) % _TAU
    b = _PI - (_PI - (theta - phi_t)) % _TAU
    sa = math.sin(a)
    ca = math.cos(a)
    sb = math.sin(b)
    cb = math.cos(b)
    lambda_v = gains.lambda_v
    k1 = gains.k1
    k2 = gains.k2

    v = (v_t * cb + lambda_v * rho) * ca
    proposed = controller == "proposed"
    degenerate = rho <= RHO_EPS
    if degenerate:
        # the angular laws are undefined here: hold the last angular speed
        w = prev.omega
        singular = False
    elif proposed:
        sa_c = sa if abs(sa) >= SIN_EPS else SIN_EPS if sa >= 0.0 else -SIN_EPS
        g = (sa / k1 + sb / k2) / rho
        coupling = g * k1 * v_t * (ca * cb - sb / sa_c)
        feedforward = -phi_t_dot * k1 * sb / (k2 * sa_c)
        damping = lambda_v * ca * (sa + k1 * sb / k2)
        w = gains.lambda_a * sa + coupling + feedforward + damping
        singular = abs(sa) <= SIN_EPS and abs(sb) > SIN_EPS
    else:
        a_c = a if abs(a) >= SIN_EPS else SIN_EPS if a >= 0.0 else -SIN_EPS
        if abs(a) < SERIES_EPS:
            x2 = 2.0 * a
            sinc2 = 1.0 - x2 * x2 / 6.0
        else:
            sinc2 = math.sin(2.0 * a) / (2.0 * a)
        w = (
            gains.lambda_a * a
            + ((a + b) / rho) * (sinc2 * cb - sb / a_c) * v_t
            - (b / a_c) * phi_t_dot
            + sinc2 * lambda_v * (a + b)
        )
        singular = abs(a) <= SIN_EPS and abs(b) > SIN_EPS

    if limits is None:
        v_app, w_app, sat = v, w, False
    else:
        lo, hi = limits.v_min, limits.v_max
        v_app = lo if v < lo else hi if v > hi else v
        dv = limits.accel_max * dt
        lo, hi = prev.v - dv, prev.v + dv
        v_app = lo if v_app < lo else hi if v_app > hi else v_app
        hi = limits.omega_abs_max
        lo = -hi
        w_app = lo if w < lo else hi if w > hi else w
        dw = limits.alpha_accel_max * dt
        lo, hi = prev.omega - dw, prev.omega + dw
        w_app = lo if w_app < lo else hi if w_app > hi else w_app
        sat = abs(v_app - v) > 1e-12 or abs(w_app - w) > 1e-12

    v1 = 0.5 * rho * rho
    if proposed:
        v2 = (1.0 - ca) / k1 + (1.0 - cb) / k2
    else:
        v2 = 0.5 * (a * a + b * b)
    if degenerate:
        v1_dot = v2_dot = math.nan
    else:
        los_rate = (v_app * sa - v_t * sb) / rho
        v1_dot = rho * (v_t * cb - v_app * ca)
        alpha_dot = los_rate - w_app
        beta_dot = los_rate - phi_t_dot
        if proposed:
            v2_dot = sa * alpha_dot / k1 + sb * beta_dot / k2
        else:
            v2_dot = a * alpha_dot + b * beta_dot
    return (v, w, v_app, w_app, rho, a, b, v1, v2, sat, v1_dot, v2_dot, singular, degenerate)
