"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import sys

import pytest

import run
import tracing
import workloads

workloads.use_checkout()


def straight_item():
    [item] = [i for i in workloads.load("cli_rescore") if i[0] == "straight_convergence/proposed"]
    return item


def test_gate_flags_a_one_byte_change_in_a_trajectory(tmp_path):
    gate = run.Gate(json.loads(run.REFERENCE.read_text()))
    run.sim_pass([straight_item()], gate, tmp_path)
    assert (gate.attempted, gate.failed) == (1, 0), gate.errors

    key = "sim:straight_convergence/proposed"
    csv = tmp_path / "straight_convergence" / "proposed" / "trajectory.csv"
    data = bytearray(csv.read_bytes())
    data[len(data) // 2] ^= 0x01
    csv.write_bytes(bytes(data))
    gate.check(key, dict(gate.reference[key], trajectory_csv=run.file_sha256(csv)))
    assert gate.failed == 1
    assert gate.errors[0].startswith(key + ": trajectory_csv ")


def test_gate_compares_unshipped_runs_with_their_first_outcome():
    gate = run.Gate({})
    first = {"trajectory_csv": "a", "steps": 10}
    gate.check("sim:x@5", first, shipped=False)
    gate.check("sim:x@5", dict(first), shipped=False)
    gate.check("sim:x@5", dict(first, steps=11), shipped=False)
    assert (gate.attempted, gate.failed) == (3, 1)


def test_self_time_of_nested_spans():
    # outer [0, 100] holds inner [10, 40], which holds leaf [15, 25]
    ticks = iter([0, 10, 15, 25, 40, 100])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tr.wrap("leaf", lambda: None)
    inner = tr.wrap("inner", lambda: leaf())
    outer = tr.wrap("outer", lambda: inner())
    outer()
    assert dict(tr.self_ns) == {"outer": 70, "inner": 20, "leaf": 10}
    assert dict(tr.calls) == {"outer": 1, "inner": 1, "leaf": 1}


def test_a_raised_centerline_counts_as_mode_none():
    from lanetrack.exceptions import DisjointRanges

    def centerline(left, right, lane_width):
        raise DisjointRanges("no overlap")

    tr = tracing.Tracer()
    traced = tr.wrap("lanefit.centerline", centerline, tracing._mode)
    with pytest.raises(DisjointRanges):
        traced([], [], 3.5)
    metrics = tracing.layer_metrics(tr)
    assert metrics["lanefit.centerline.calls"][0] == 1
    assert metrics["lanefit.centerline.mode.none"][0] == 1


def snapshot(table):
    """Every attribute a traced run could replace, with its current object."""
    seen = [(owner, attr, getattr(owner, attr)) for _, owner, attr, _ in table]
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "lanetrack":
            seen += [(mod, attr, value) for attr, value in vars(mod).items()]
    return seen


def test_traced_pass_restores_every_wrapped_attribute(tmp_path):
    item = straight_item()
    table = tracing.layers()
    before = snapshot(table)
    tracer = tracing.Tracer()
    gate = run.Gate(json.loads(run.REFERENCE.read_text()))
    with tracer.installed(table):
        run.sim_pass([item], gate, tmp_path)
    assert gate.failed == 0, gate.errors
    assert tracer.calls["simulator.step"] == 2000
    assert tracer.calls["model.integrate"] == 2000
    assert all(getattr(owner, attr) is value for owner, attr, value in before)

    with pytest.raises(RuntimeError), tracer.installed(table):
        raise RuntimeError("pass failed")
    assert all(getattr(owner, attr) is value for owner, attr, value in before)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = {name: unit for name, (_, unit) in tracing.layer_metrics(tracing.Tracer()).items()}
    layer.update({"cli.import_s": "s", "trace_overhead": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
