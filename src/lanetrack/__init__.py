"""Lane-geometry pipeline, Lyapunov tracking controller, and a
deterministic closed-loop simulator for a differential-drive robot."""

from .controllers import ControllerGains, SaturationLimits
from .metrics import MetricsReport, compute_metrics, metrics_from_log
from .model import Pose, PolarError, TargetState, Twist
from .simulator import Scenario, SensorConfig, SimLog, run
from .tracks import Track, circle_track, figure_course, oval_track, straight_track

__all__ = [
    "ControllerGains",
    "SaturationLimits",
    "MetricsReport",
    "compute_metrics",
    "metrics_from_log",
    "Pose",
    "PolarError",
    "TargetState",
    "Twist",
    "Scenario",
    "SensorConfig",
    "SimLog",
    "run",
    "Track",
    "circle_track",
    "figure_course",
    "oval_track",
    "straight_track",
]

__version__ = "0.1.0"
