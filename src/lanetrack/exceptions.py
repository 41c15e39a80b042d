"""Exception types raised across the package."""


class LanetrackError(Exception):
    """Base class for all package-specific errors."""


class DegeneratePolyline(LanetrackError):
    """Operation requires at least two distinct points."""


class TooFewPoints(LanetrackError):
    """Not enough samples for any polynomial fit."""


class TooManyPoints(LanetrackError):
    """A resampled polyline would have more than lanefit.MAX_RESAMPLED points."""


class DisjointRanges(LanetrackError):
    """Left and right lane fits do not overlap in x."""


class NonPositiveDuration(LanetrackError):
    """Boundary-conditioned cubic needs a positive time span."""


class PathExhausted(LanetrackError):
    """Target ran off the end of an open reference path."""


class InvalidScenario(LanetrackError):
    """Scenario violates one of its declared invariants."""


class EmptyLog(LanetrackError):
    """Metrics require at least one log record."""


class DegeneratePath(LanetrackError):
    """Cross-track distance requires a path with at least two points."""
