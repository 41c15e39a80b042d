"""Lane-geometry pipeline, Lyapunov tracking controller, and a
deterministic closed-loop simulator for a differential-drive robot.

The names below are loaded on first use (PEP 562), so that a process
loads only the modules it runs: `lanetrack metrics` never imports the
simulator or the lane fit.
"""

import importlib

#: Each public name and the module that defines it.
_SOURCES = {
    "ControllerGains": "scenario",
    "SaturationLimits": "scenario",
    "MetricsReport": "metrics",
    "compute_metrics": "metrics",
    "metrics_from_log": "metrics",
    "Pose": "model",
    "PolarError": "model",
    "TargetState": "model",
    "Twist": "model",
    "Scenario": "scenario",
    "SensorConfig": "scenario",
    "SimLog": "simulator",
    "run": "simulator",
    "Track": "tracks",
    "circle_track": "tracks",
    "figure_course": "tracks",
    "oval_track": "tracks",
    "straight_track": "tracks",
}

__all__ = list(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
