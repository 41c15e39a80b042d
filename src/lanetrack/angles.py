"""Angle wrapping shared by the kinematics, simulator and metrics code."""

import math


def wrap_angle(a: float) -> float:
    """Wrap an angle to the interval (-pi, pi].

    The upper endpoint is inclusive so that wrap_angle(pi) == pi and
    wrap_angle(-pi) == pi, keeping the convention consistent with atan2
    except on the branch cut. Works elementwise on numpy arrays, with the
    same results as on floats.
    """
    return math.pi - (math.pi - a) % (2.0 * math.pi)

