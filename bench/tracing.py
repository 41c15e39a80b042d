"""Per-layer tracing from outside the program.

`Tracer.installed` replaces lanetrack's public functions with wrappers for
the length of a `with` block and puts the original objects back after it.
Each wrapped call is a span; spans nest through a stack, so a span's self
time is its duration minus the durations of the wrapped calls made inside
it. Hooks count what a layer produced (points sensed, fit orders, modes,
clamped commands), so the ratios are measured where the work happens.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Calls, self time and counts of the wrapped layers over one traced pass."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.step_ns: list[int] = []
        self._open: list[list[int]] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook=None):
        """fn inside a span called name; hook(tracer, duration_ns, args, result)
        runs after each call that returns."""

        def traced(*args, **kwargs):
            child = [0]
            self._open.append(child)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.clock() - t0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dur
                self.calls[name] += 1
                self.self_ns[name] += dur - child[0]
            if hook is not None:
                hook(self, dur, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, layers):
        """Wrap each (name, owner, attr, hook) for the length of the block.

        A module function is also replaced wherever another lanetrack
        module bound it by name (`from .model import integrate`).
        """
        try:
            for name, owner, attr, hook in layers:
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, hook)
                targets = [owner]
                if isinstance(owner, types.ModuleType):
                    targets = [
                        mod for mod_name, mod in list(sys.modules.items())
                        if mod_name.split(".")[0] == "lanetrack"
                        and vars(mod).get(attr) is original
                    ]
                for target in targets:
                    self._patched.append((target, attr, original))
                    setattr(target, attr, wrapped)
            yield self
        finally:
            while self._patched:
                target, attr, original = self._patched.pop()
                setattr(target, attr, original)


def _sensed(tr, dur, args, result):
    left, right = result
    tr.counts["sense_lanes.points"] += len(left) + len(right)


def _step(tr, dur, args, result):
    tr.step_ns.append(dur)
    if dur > args[0].scenario.dt * 1e9:
        tr.counts["step.over_dt"] += 1


def _csv_bytes(tr, dur, args, result):
    tr.counts["to_csv.bytes"] += os.path.getsize(args[1])


def _fit_order(tr, dur, args, result):
    if result.order < 3:
        tr.counts["fit_cubic.degraded"] += 1


def _mode(tr, dur, args, result):
    tr.counts["centerline.mode." + result.mode] += 1


def _clamped(tr, dur, args, result):
    raw = args[0]
    # same tolerance as the simulator's sat_flag
    if abs(result.v - raw.v) > 1e-12 or abs(result.omega - raw.omega) > 1e-12:
        tr.counts["saturate.active"] += 1


def _rows(tr, dur, args, result):
    tr.counts["compute_metrics.rows"] += len(args[0])


#: Layers reported as <name>.calls and <name>.us_per_call (self time).
TIMED = (
    "simulator.sense_lanes",
    "simulator.advance_target",
    "tracks.nearest_s",
    "tracks.point_at",
    "tracks.boundary_point",
    "lanefit.resample",
    "lanefit.fit_cubic",
    "lanefit.centerline",
    "lanefit.lookahead_points",
    "controllers.proposed_linear",
    "controllers.proposed_angular",
    "controllers.comparative_cmd",
    "controllers.lyapunov_report",
    "controllers.saturate",
    "model.polar_error",
    "model.integrate",
    "model.target_heading_rate",
)
MODES = ("both_lanes", "left_only", "right_only", "none")


def layers():
    """The spans a traced pass records: (name, owner, attribute, hook)."""
    from lanetrack import cli, controllers, lanefit, metrics, model, scenario, simulator
    from lanetrack.tracks import Track

    hooks = {
        "simulator.sense_lanes": _sensed,
        "lanefit.fit_cubic": _fit_order,
        "lanefit.centerline": _mode,
        "controllers.saturate": _clamped,
    }
    modules = {"simulator": simulator, "lanefit": lanefit, "controllers": controllers, "model": model}
    table = []
    for name in TIMED:
        mod, fn = name.split(".")
        owner = Track if mod == "tracks" else modules[mod]
        table.append((name, owner, fn, hooks.get(name)))
    return table + [
        ("simulator.step", simulator, "step", _step),
        ("simulator.SimLog.to_csv", simulator.SimLog, "to_csv", _csv_bytes),
        ("metrics.compute_metrics", metrics, "compute_metrics", _rows),
        ("scenario.load_scenario", scenario, "load_scenario", None),
        # the body of `lanetrack metrics`, after click has parsed the arguments
        ("cli.metrics_cmd", cli.cmd_metrics, "callback", None),
    ]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    calls, counts = tr.calls, tr.counts

    def self_s(name):
        return tr.self_ns[name] / 1e9

    m = {}
    for name in TIMED:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.us_per_call"] = (_ratio(tr.self_ns[name] / 1e3, calls[name]), "us")
    m["simulator.sense_lanes.yield"] = (
        _ratio(counts["sense_lanes.points"], calls["tracks.boundary_point"]), "ratio")
    m["tracks.nearest_s.calls_per_frame"] = (
        _ratio(calls["tracks.nearest_s"], calls["simulator.sense_lanes"]), "ratio")
    m["lanefit.fit_cubic.degraded"] = (
        _ratio(counts["fit_cubic.degraded"], calls["lanefit.fit_cubic"]), "ratio")
    # A centerline call that raises (DisjointRanges) is a frame the
    # simulator runs in mode "none", so it counts there.
    returned = {mode: counts["centerline.mode." + mode] for mode in MODES}
    returned["none"] += calls["lanefit.centerline"] - sum(returned.values())
    for mode in MODES:
        m[f"lanefit.centerline.mode.{mode}"] = (returned[mode], "count")
    m["controllers.saturate.active"] = (
        _ratio(counts["saturate.active"], calls["controllers.saturate"]), "ratio")
    if len(tr.step_ns) >= 2:
        q = statistics.quantiles(tr.step_ns, n=100)
        p50, p99 = q[49] / 1e3, q[98] / 1e3
    else:
        p50 = p99 = 0.0
    m["simulator.step.p50_us"] = (p50, "us")
    m["simulator.step.p99_us"] = (p99, "us")
    m["simulator.step.over_dt"] = (counts["step.over_dt"], "count")
    m["simulator.SimLog.to_csv.s"] = (self_s("simulator.SimLog.to_csv"), "s")
    m["simulator.SimLog.to_csv.bytes"] = (counts["to_csv.bytes"], "B")
    m["metrics.compute_metrics.s"] = (self_s("metrics.compute_metrics"), "s")
    m["metrics.compute_metrics.us_per_row"] = (
        _ratio(tr.self_ns["metrics.compute_metrics"] / 1e3, counts["compute_metrics.rows"]), "us")
    m["scenario.load_scenario.s"] = (self_s("scenario.load_scenario"), "s")
    m["cli.metrics_cmd.self_s"] = (self_s("cli.metrics_cmd"), "s")
    return m


def is_count(name: str) -> bool:
    """Metrics that are a pure function of the workload and must repeat exactly."""
    return name.endswith((".calls", ".yield", ".calls_per_frame", ".degraded", ".active",
                          ".bytes")) or ".mode." in name
