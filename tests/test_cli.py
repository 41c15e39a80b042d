import copy
import filecmp
import gc
import json
import operator
import os
import subprocess
import sys
import tempfile
import textwrap
from functools import lru_cache, reduce
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from lanetrack import scenario as scenario_mod, simulator
from lanetrack.cli import _read_lane_csv, _read_log_csv, main
from lanetrack.controllers import SaturationLimits
from lanetrack.metrics import METRIC_COLUMNS
from lanetrack.scenario import load_scenario, scenario_to_dict
from lanetrack.model import Pose
from lanetrack.simulator import CSV_COLUMNS, Scenario, SensorConfig, _fit_side, init_state, step
from lanetrack.tracks import straight_track

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

#: The header line of a trajectory CSV.
CSV_HEADER = ",".join(CSV_COLUMNS)


@pytest.fixture
def runner():
    return CliRunner()


def _cli_env():
    """The environment of a child Python that imports this checkout's lanetrack."""
    path = [str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _write_scenario(path, **kw):
    """A short open-track preset run that terminates by path exhaustion."""
    base = dict(
        track=straight_track(6.0),
        mode="preset_path",
        v_t=1.5,
        limits=SaturationLimits(v_max=1.75),
        dt=0.01,
        duration_max=30.0,
    )
    base.update(kw)
    sc = Scenario(**base)
    path.write_text(json.dumps(scenario_to_dict(sc)))
    return sc


def test_simulate_writes_outputs(runner, tmp_path):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", "--scenario", str(sc_path), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "termination: finished" in res.output
    assert (out / "trajectory.csv").exists()
    assert (out / "metrics.json").exists()
    assert (out / "plotdata" / "v.csv").exists()
    assert (out / "plotdata" / "trajectory_xy.csv").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["completion_time"] > 0
    assert "mae_lateral" in metrics


def test_simulate_emit_subset(runner, tmp_path):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path)
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        ["simulate", "--scenario", str(sc_path), "--out", str(out), "--emit", "log_csv"],
    )
    assert res.exit_code == 0
    assert (out / "trajectory.csv").exists()
    assert not (out / "metrics.json").exists()
    assert not (out / "plotdata").exists()


def test_simulate_unknown_emit_is_usage_error(runner, tmp_path):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path)
    res = runner.invoke(
        main,
        ["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / "o"),
         "--emit", "log_csv,gif"],
    )
    assert res.exit_code == 1


def test_simulate_override_changes_run(runner, tmp_path):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path)
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        ["simulate", "--scenario", str(sc_path), "--out", str(out),
         "--set", "v_t=2.0", "--set", "limits.v_max=2.25"],
    )
    assert res.exit_code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    v_app = [float(r.split(",")[6]) for r in rows]
    assert max(v_app) > 1.75  # default cap would forbid this


def test_simulate_bad_override_key(runner, tmp_path):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path)
    res = runner.invoke(
        main,
        ["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / "o"),
         "--set", "velocity=2.0"],
    )
    assert res.exit_code == 1
    assert "error" in res.output


@pytest.mark.parametrize(
    "field, value",
    [
        ("dt", "NaN"),
        ("duration_max", "Infinity"),
        ("v_t", "NaN"),
        ("initial_target_s", "-Infinity"),
        ("sensor.frame_period", "NaN"),
        ("sensor.point_noise_sigma", "NaN"),
        ("sensor.clutter_rate", "Infinity"),
        ("sensor.sample_spacing", "NaN"),
        ("gains.lambda_v", "NaN"),
        ("gains.k2", "Infinity"),
        ("limits.v_min", "NaN"),
        ("limits.v_max", "Infinity"),
        ("limits.omega_abs_max", "Infinity"),
        ("limits.accel_max", "NaN"),
        ("limits.alpha_accel_max", "Infinity"),
    ],
)
def test_simulate_rejects_non_finite_field(runner, tmp_path, field, value):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path)
    res = runner.invoke(
        main,
        ["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / "o"),
         "--set", f"{field}={value}"],
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"error: {field} must be a finite number" in res.output


def test_simulate_zero_step_run_is_a_data_error(runner, tmp_path):
    # the default initial_target_s (2 m) lies past the end of this 1 m path,
    # so the run would end before its first step
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps({
        "track": {"kind": "polyline", "points": [[0, 0], [1, 0]]},
        "mode": "preset_path",
        "v_t": 1.5,
    }))
    res = runner.invoke(
        main, ["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / "o" / "p")]
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == ("error: initial_target_s + v_t * dt must be <= the open track's "
                          "length 1.0, got 2.015\n")
    # the scenario is refused before --out is made: nothing is written
    assert not (tmp_path / "o").exists()


def test_simulate_run_shorter_than_a_step_is_a_data_error(runner, tmp_path):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path)
    res = runner.invoke(
        main, ["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / "o"),
               "--set", "duration_max=0.001"]
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == "error: duration_max / dt must round to >= 1 step, got 0.1\n"
    assert not (tmp_path / "o").exists()


@pytest.fixture
def here(tmp_path, monkeypatch):
    """tmp_path made the working directory and given as the relative path
    '.', so that an error line which names a file under it stays under the
    160 bytes at which a line is cut, however long the temporary directory's
    name is."""
    monkeypatch.chdir(tmp_path)
    return Path()


def _error_lines(res):
    """The `error:` lines of a CliRunner result, each checked to be short."""
    lines = [line for line in res.output.splitlines() if line.startswith("error: ")]
    assert all(len(line.encode()) < 200 for line in lines), lines
    return lines


def test_simulate_non_finite_metric_is_a_data_error(tmp_path):
    # v_app stays within the limits while v_t is 1e300: the squared speed
    # error overflows, and JSON has no Infinity to write
    out = tmp_path / "o"
    res = subprocess.run(
        [sys.executable, "-m", "lanetrack.cli", "simulate",
         "--scenario", str(SCENARIOS / "oval_vision_noisy_v20.json"), "--out", str(out),
         "--set", "v_t=1e300", "--set", "duration_max=3"],
        capture_output=True, text=True, env=_cli_env(),
    )
    assert res.returncode == 1, res.stderr
    assert res.stderr == "error: metric rmse_linear_speed is not finite (inf)\n"
    assert (out / "trajectory.csv").exists()
    assert not (out / "metrics.json").exists()


def _lanetrack(*args):
    """Run the lanetrack CLI in a child Python, so that an uncaught error
    shows as a traceback on stderr."""
    return subprocess.run([sys.executable, "-m", "lanetrack.cli", *map(str, args)],
                          capture_output=True, text=True, env=_cli_env())


def _assert_one_error_line(res):
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    assert [line[:7] for line in res.stderr.splitlines()] == ["error: "]


def test_simulate_out_onto_a_file_is_a_data_error(here):
    sc_path = here / "sc.json"
    _write_scenario(sc_path)
    out = here / "out"
    out.write_text("not a directory\n")
    res = _lanetrack("simulate", "--scenario", sc_path, "--out", out)
    _assert_one_error_line(res)
    assert res.stderr == f"error: [Errno 17] File exists: {str(out)!r}\n"
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_an_out_name_too_long_is_cut_in_its_error_line(tmp_path, command):
    # the line is cut in the middle, as every long error line is
    if command == "simulate":
        _write_scenario(tmp_path / "sc.json")
        args = ("--scenario", tmp_path / "sc.json")
    else:
        _write_lane_csv(tmp_path / "lanes.csv")
        args = ("--input", tmp_path / "lanes.csv")
    res = _lanetrack(command, *args, "--out", tmp_path / ("a" * 5000))
    _assert_one_error_line(res)
    assert "File name too long: " in res.stderr and res.stderr.endswith("aaa'\n")
    assert len(res.stderr.encode()) < 200


def test_simulate_checks_out_before_the_run(runner, here, monkeypatch):
    sc_path = here / "sc.json"
    _write_scenario(sc_path)
    out = here / "out"
    out.write_text("")

    def no_run(sc):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(simulator, "run", no_run)
    res = runner.invoke(main, ["simulate", "--scenario", str(sc_path), "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert _error_lines(res) == [f"error: [Errno 17] File exists: {str(out)!r}"]


@pytest.mark.parametrize("duration_max", ["1", "1e10"])
def test_simulate_rejects_a_run_too_long_to_end(tmp_path, duration_max):
    # 1e300 steps would loop for ages; 1e310 overflows an int
    res = subprocess.run(
        [sys.executable, "-m", "lanetrack.cli", "simulate",
         "--scenario", str(SCENARIOS / "oval_preset_v20.json"), "--out", str(tmp_path / "o"),
         "--set", "dt=1e-300", "--set", f"duration_max={duration_max}"],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    _assert_one_error_line(res)
    assert "duration_max / dt must be <= 1000000" in res.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lane_width", ["NaN", "Infinity"])
def test_simulate_rejects_a_non_finite_lane_width(tmp_path, lane_width):
    # a NaN width used to run every step in mode none, an infinite one
    # with numpy warnings on stderr
    res = _lanetrack("simulate", "--scenario", SCENARIOS / "oval_vision_noisy_v20.json",
                     "--out", tmp_path / "o",
                     "--set", f'track={{"kind":"oval","lane_width":{lane_width}}}')
    _assert_one_error_line(res)
    assert "lane_width must be a finite number > 0" in res.stderr
    assert not (tmp_path / "o").exists()


def test_simulate_lane_seen_at_one_x(runner, tmp_path):
    # facing across a straight lane, a boundary is seen at one forward
    # distance: that side has no fit, and the run goes on without it
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps({
        "track": {"kind": "straight"},
        "mode": "vision",
        "v_t": 1.5,
        "initial_pose": {"x": 10, "y": -3, "phi": 1.5707963267948966},
        "duration_max": 5,
    }))
    out = tmp_path / "o"
    res = runner.invoke(main, ["simulate", "--scenario", str(sc_path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "termination: timeout" in res.output
    # the right boundary's x values span a few ulps (cos(phi) = 6e-17),
    # first 4.4e-16 m at x = 1.25 and later 4.2e-16 m at x = 0.23; no frame
    # fits a lane to them, so the run never leaves the no-lane fallback
    modes = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, usecols=-1, dtype=str)
    assert set(modes) == {"none"}


# Values put in place of scenario fields: wrong types, non-finite and
# out-of-range numbers, and other valid choices.
_MUTANT_VALUES = [
    None, True, False, -1, 0, 0.05, 2, "x", "vision", "preset_path", "comparative",
    [], [0, 1], [0.0, 10.0, -5.0, 5.0], [10, 0, -5, 5], {}, float("nan"),
    float("inf"), -float("inf"), {"kind": "figure_course"},
    {"kind": "polyline", "points": [[0, 0], [float("nan"), 1]]},
    [{"s_lo": 1.0, "s_hi": 9.0, "style": "dotted", "dash_len": 0.0, "gap_len": 1.0}],
]


def _mutable_paths(node, prefix=()):
    """Every key and list index of a scenario dict, as a path of keys."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _mutable_paths(value, prefix + (key,))


def _mutation_base():
    """A short vision run that sees a zebra zone, with every field set."""
    sc = Scenario(
        track=straight_track(20.0), mode="vision", v_t=1.5,
        limits=SaturationLimits(v_max=1.75), dt=0.01, duration_max=0.3,
        initial_pose=Pose(2.0, 0.0, 0.0),
        sensor=SensorConfig(point_noise_sigma=0.02, clutter_rate=2.0), rng_seed=3,
    )
    spec = {"kind": "straight", "length": 20.0, "lane_width": 3.5,
            "segments": [{"s_lo": 4.0, "s_hi": 9.0, "style": "zebra_clutter"}]}
    return scenario_to_dict(sc, spec)


_BASE = _mutation_base()
_PATHS = list(_mutable_paths(_BASE))


#: A mutation that deletes the field.
_DELETE = object()


def _mutate(data, path, value):
    """Set or delete the field at path, if its parent is still there."""
    node = data
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    leaf = path[-1]
    if isinstance(node, dict):
        if value is _DELETE:
            node.pop(leaf, None)
        else:
            node[leaf] = copy.deepcopy(value)
    elif isinstance(node, list) and isinstance(leaf, int) and leaf < len(node) and value is not _DELETE:
        node[leaf] = copy.deepcopy(value)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("sensor", "sample_spacing"), 0, "sample_spacing must be > 0"),
        (("sensor", "roi"), [0, 10], "roi must be four numbers"),
        (("sensor", "roi"), [10, 0, -5, 5], "x_min < x_max and y_min < y_max"),
        (("sensor", "roi"), [0, 10, 5, 5], "x_min < x_max and y_min < y_max"),
        (("sensor", "clutter_rate"), -1, "clutter_rate must be >= 0"),
        (("sensor", "min_points"), "x", "sensor.min_points must be a finite number"),
        (("rng_seed",), -1, "rng_seed must be >= 0"),
        (("rng_seed",), float("inf"), "rng_seed must be an integer >= 0, got inf"),
        (("track", "length"), float("inf"), "bad scenario data"),
        (("track", "segments", 0, "s_hi"), "x", "track.segments[0].s_hi must be a finite number"),
        (("sensor", "clutter_rate"), 1e20, "clutter_rate must be <= 1000"),
    ],
)
def test_simulate_rejects_bad_field(runner, tmp_path, path, value, message):
    data = copy.deepcopy(_BASE)
    _mutate(data, path, value)
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(data))
    res = runner.invoke(
        main, ["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / "o")]
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert len(_error_lines(res)) == 1 and message in res.output


def _dotted(path):
    """The name of the field at path as an error message gives it, as
    sensor.roi[1] or track.segments[0].s_lo."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


#: Every number field of _BASE, and the radius of an oval.
_NUMBER_FIELDS = [(_BASE, path) for path in _PATHS
                  if type(reduce(operator.getitem, path, _BASE)) in (int, float)]
_NUMBER_FIELDS.append(({**_BASE, "track": {"kind": "oval", "radius": 10.0}}, ("track", "radius")))


@pytest.mark.parametrize("base, path", _NUMBER_FIELDS,
                         ids=[_dotted(path) for _, path in _NUMBER_FIELDS])
def test_simulate_set_names_a_field_that_is_not_a_number(runner, tmp_path, base, path):
    """true, a string, null or a list in place of a number, given through
    --set, exits 1 with one error line that names the field."""
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(base))
    name = _dotted(path)
    # --set reaches the keys of objects only: a field in a list is set with its list
    cut = next((k for k, key in enumerate(path) if isinstance(key, int)), len(path))
    for value in (True, "1.5", None, [1]):
        data = copy.deepcopy(base)
        _mutate(data, path, value)
        setting = f"{'.'.join(path[:cut])}={json.dumps(reduce(operator.getitem, path[:cut], data))}"
        res = runner.invoke(
            main, ["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / "o"),
                   "--set", setting]
        )
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), (setting, res.output)
        lines = _error_lines(res)
        assert len(lines) == 1 and f"{name} must be" in lines[0], (setting, res.output)
        assert not (tmp_path / "o").exists()


@settings(max_examples=150, deadline=None)
@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(_PATHS), st.sampled_from([_DELETE, *_MUTANT_VALUES])),
        min_size=1, max_size=3,
    )
)
def test_mutated_scenarios_exit_cleanly(mutations):
    """Any scenario file ends in exit 0, 1 or 2, a rejected one in exactly
    one `error:` line, and none in a traceback."""
    data = copy.deepcopy(_BASE)
    for path, value in mutations:
        _mutate(data, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        sc_path = Path(tmp) / "sc.json"
        sc_path.write_text(json.dumps(data))
        res = CliRunner().invoke(
            main, ["simulate", "--scenario", str(sc_path), "--out", str(Path(tmp) / "o")]
        )
    assert res.exception is None or isinstance(res.exception, SystemExit), data
    assert res.exit_code in (0, 1, 2)
    if res.exit_code == 1:
        assert len(_error_lines(res)) == 1, res.output


_BYTES = [b"\xef\xbb\xbf", b"\r\n", b"\r", b"\n", b"\x00", b"\xff", b'"', b",", b"#",
          b" ", b"\t", b"-", b"e", b"."]
_FIELDS = ["", "nan", "inf", "-inf", "1e308", "-1e308", "1e309", "-1", "x", '"', '"open',
           '"1"', " 1 ", "0x10", "a" * 100_000]


@lru_cache(maxsize=1)
def _short_trajectory():
    """The trajectory CSV and scenario JSON of a 30-step preset run."""
    with tempfile.TemporaryDirectory() as tmp:
        sc_path, log_path = Path(tmp) / "sc.json", Path(tmp) / "trajectory.csv"
        _write_scenario(sc_path, duration_max=0.3)
        simulator.run(load_scenario(sc_path)).to_csv(log_path)
        return log_path.read_text(), sc_path.read_text()


def _mutate_bytes(draw, data: bytes, keep=()) -> bytes:
    """data with up to three bytes or byte runs put in, replaced or taken
    out; a byte put in that is one of keep is replaced by "_"."""
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        size = draw(st.integers(0, 3))
        new = draw(st.sampled_from(_BYTES) | st.binary(max_size=3))
        data[at:at + size] = bytes(ord("_") if b in keep else b for b in new)
    return bytes(data)


@st.composite
def _mutated_csv(draw, text, names):
    """The CSV text with one to three fields, rows or header names changed
    (a header name to one of names, or to itself in upper case), then up
    to three bytes or byte runs put in, replaced or taken out."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(",")
        kind = draw(st.sampled_from(["field", "drop_row", "copy_row", "swap_rows", "header"]))
        if kind == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_FIELDS))
            lines[k] = ",".join(fields)
        elif kind == "drop_row":
            del lines[k]
        elif kind == "copy_row":
            lines.insert(k, lines[k])
        elif kind == "swap_rows":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            header = lines[0].split(",")
            j = draw(st.integers(0, len(header) - 1))
            header[j] = draw(st.sampled_from([*names, header[j].upper()]))
            lines[0] = ",".join(header)
        if not lines:
            break
    return _mutate_bytes(draw, "".join(line + "\n" for line in lines).encode())


@st.composite
def _mutated_trajectories(draw):
    """A short trajectory CSV, mutated."""
    return draw(_mutated_csv(_short_trajectory()[0], ["", "T", "t", "x", "mode"]))


@settings(max_examples=200, deadline=None)
@given(data=_mutated_trajectories())
# a header field past the csv module's size limit (131,072 characters)
@example(data=f"{CSV_HEADER},{'a' * 200_000}\n{'0,' * (len(CSV_COLUMNS) - 1)}preset,\n".encode())
def test_mutated_trajectories_exit_cleanly(data):
    """metrics on any mutation of a simulated trajectory.csv exits 0, or 1
    with exactly one `error:` line, and never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        log_path, sc_path = Path(tmp) / "trajectory.csv", Path(tmp) / "sc.json"
        log_path.write_bytes(data)
        sc_path.write_text(_short_trajectory()[1])
        res = CliRunner().invoke(main, ["metrics", "--log", str(log_path),
                                        "--scenario", str(sc_path)])
    _assert_clean_exit(res)


def _assert_clean_exit(res):
    """The exit of a command on bad input: 0, or 1 with one `error:` line,
    the whole output; never a traceback."""
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code in (0, 1)
    if res.exit_code == 1:
        assert res.output.count("\n") == 1 and res.output.startswith("error: "), res.output


#: A lane CSV that fits in mode both_lanes.
_LANES = ("lane_id,x,y\nleft,1,1.75\nleft,3,1.8\nleft,5,1.9\nleft,7,2.1\n"
          "right,1,-1.75\nright,3,-1.7\nright,5,-1.6\nright,7,-1.4\n")


@settings(max_examples=200, deadline=None)
@given(data=_mutated_csv(_LANES, ["", "LANE_ID", "lane_id", "x", "y"]))
# a field past the csv module's size limit, and a quoted header field over
# two lines
@example(data=_LANES.replace("left,1,", f"left{' ' * 200_000},1,").encode())
@example(data=_LANES.replace("lane_id,", '"lane_id\n",').encode())
def test_mutated_lane_csvs_exit_cleanly(data):
    """fit on any mutation of a lane CSV exits 0, or 1 with exactly one
    `error:` line, and never with a traceback. An error line names the
    file, but for the fit's own rule that the lanes overlap."""
    runner = CliRunner()
    # a relative path keeps the file's name in the error line's first bytes
    with tempfile.TemporaryDirectory() as tmp, runner.isolated_filesystem(temp_dir=tmp):
        Path("lanes.csv").write_bytes(data)
        res = runner.invoke(main, ["fit", "--input", "lanes.csv"])
    _assert_clean_exit(res)
    if res.exit_code == 1:
        assert res.output.startswith("error: lanes.csv") or "do not overlap" in res.output


#: Values a batch job's fields are changed to: "j\0" is a path no file
#: can have, and {"dt": 1e-300} a run rejected before it starts.
_JOB_VALUES = [None, True, 0, -1, 1e300, "", "x", "sc.json", "j1", "j\0", "a" * 100_000,
               [], ["sc.json"], {}, {"a.b": 1}, {"v_t": "x"}, {"dt": 1e-300}, {"v_t": 2.0}]


@st.composite
def _mutated_batches(draw):
    """A one-job batch file of a short run with one to three jobs, fields,
    keys or its top level changed, then, in half the files, up to three
    bytes or byte runs put in, replaced or taken out. No "/" or "\\" is
    put in, so that the paths stay relative to the directory the batch
    runs in."""
    jobs = [{"scenario": "sc.json", "out": "j0", "overrides": {"v_t": 1.5}}]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "key", "drop_job", "copy_job", "top"]))
        if kind == "top":
            jobs = draw(st.sampled_from([{"jobs": jobs}, None, "sc.json", jobs[:1] * 2]))
            break
        if not jobs:
            break
        k = draw(st.integers(0, len(jobs) - 1))
        if kind == "drop_job":
            del jobs[k]
        elif kind == "copy_job":
            jobs.insert(k, copy.deepcopy(jobs[k]))
        elif isinstance(jobs[k], dict) and jobs[k]:
            key = draw(st.sampled_from(sorted(jobs[k])))
            if kind == "field":
                jobs[k][key] = draw(st.sampled_from(_JOB_VALUES))
            else:
                jobs[k][draw(st.sampled_from(["", "Scenario", "out", "extra"]))] = jobs[k].pop(key)
    data = json.dumps(jobs).encode()
    # most byte changes make the file JSON no more, so half the files keep
    # their bytes and reach the jobs
    return _mutate_bytes(draw, data, keep=b"/\\") if draw(st.booleans()) else data


@settings(max_examples=100, deadline=None)
@given(data=_mutated_batches())
# an `out` too long for the file system: Path.exists() raises OSError
@example(data=json.dumps([{"scenario": "sc.json", "out": "a" * 5000}]).encode())
def test_mutated_batch_files_exit_cleanly(data):
    """batch on any mutation of a batch file exits 0, 1 or 2, never with a
    traceback. A file it cannot read gives one `error:` line; otherwise
    each job gives at most one, which names the job."""
    runner = CliRunner()
    # the batch runs in a directory of its own in tmp, so ".." stays in tmp
    with tempfile.TemporaryDirectory() as tmp, runner.isolated_filesystem(temp_dir=tmp):
        Path("sc.json").write_text(_short_trajectory()[1])
        Path("batch.json").write_bytes(data)
        res = runner.invoke(main, ["batch", "--file", "batch.json"])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code in (0, 1, 2)
    errors = _error_lines(res)
    if errors and not errors[0].startswith("error: job "):
        assert errors == [res.output.rstrip("\n")], res.output
    jobs = [line.split(":")[1] for line in errors]
    assert len(jobs) == len(set(jobs)), errors


def _csv_columns(path):
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


@pytest.mark.parametrize("name", ["oval_preset_v15", "figure_course_vision_v15"])
def test_plotdata_columns_are_trajectory_columns(runner, tmp_path, name):
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        ["simulate", "--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(out),
         "--set", "duration_max=3"],
    )
    assert res.exit_code == 2, res.output
    trajectory = _csv_columns(out / "trajectory.csv")
    files = sorted(p.name for p in (out / "plotdata").iterdir())
    assert files == ["omega.csv", "phi.csv", "reference_path.csv", "trajectory_xy.csv",
                     "v.csv", "x.csv", "y.csv"]
    for file in files:
        if file != "reference_path.csv":
            for column, values in _csv_columns(out / "plotdata" / file).items():
                assert values == trajectory[column], (file, column)


def test_simulate_timeout_exit_code(runner, tmp_path):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path, track=straight_track(50.0), duration_max=1.0)
    res = runner.invoke(
        main, ["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / "o")]
    )
    assert res.exit_code == 2
    assert "termination: timeout" in res.output


def test_simulate_is_deterministic_on_disk(runner, tmp_path):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path)
    for name in ("a", "b"):
        res = runner.invoke(
            main, ["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / name)]
        )
        assert res.exit_code == 0
    assert filecmp.cmp(
        tmp_path / "a" / "trajectory.csv", tmp_path / "b" / "trajectory.csv",
        shallow=False,
    )


def test_metrics_matches_simulate_output(runner, tmp_path):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path)
    out = tmp_path / "out"
    assert runner.invoke(
        main, ["simulate", "--scenario", str(sc_path), "--out", str(out)]
    ).exit_code == 0
    res = runner.invoke(
        main,
        ["metrics", "--log", str(out / "trajectory.csv"), "--scenario", str(sc_path)],
    )
    assert res.exit_code == 0
    assert res.output == (out / "metrics.json").read_text()


def test_metrics_rejects_malformed_log(runner, tmp_path):
    sc_path = tmp_path / "sc.json"
    _write_scenario(sc_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x\n0,0\n")
    res = runner.invoke(
        main, ["metrics", "--log", str(bad), "--scenario", str(sc_path)]
    )
    assert res.exit_code == 1


_ROW = ",".join(["0"] * (len(CSV_COLUMNS) - 1) + ["preset"])


def _with_value(name, text):
    """_ROW with the field of column `name` replaced by `text`."""
    fields = _ROW.split(",")
    fields[CSV_COLUMNS.index(name)] = text
    return ",".join(fields)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "is empty"),
        (CSV_HEADER + "\n", "has no data rows"),
        ("t,x\n0,0\n", "is missing column 'y'"),
        (f"{CSV_HEADER}\n{_ROW}\n1,2\n",
         "line 3: the dtype passed requires 19 columns but 2 were found\n"),
        (f"{CSV_HEADER}\n{_ROW}\n{_ROW},7\n",
         "line 3: the dtype passed requires 19 columns but 20 were found\n"),
        (f"{CSV_HEADER}\n{_ROW}\n{_with_value('phi', 'nan')}\n", "column phi is not finite"),
        (f"{CSV_HEADER}\n{_with_value('t', 'inf')}\n", "column t is not finite"),
        (f"{CSV_HEADER}\n{_with_value('omega_app', '-inf')}\n", "column omega_app is not finite"),
        (f"{CSV_HEADER}\n{_ROW}\n#{_ROW}\n", "line 3, column 1: could not convert string '#0'"),
        (f"{CSV_HEADER}\n{_ROW}\n\n{_ROW}\n{_with_value('x', 'x')}\n{_ROW}\n1\n",
         "line 5, column 2: could not convert string 'x' to float64\n"),
        (f"{CSV_HEADER}\n{_with_value('t', '-1')}\n", ": line 2: t must be >= 0, got -1\n"),
        # the bad row is found by record: a quoted field over two lines is
        # one row
        (f"{CSV_HEADER}\n{_ROW[:-6]}\"pre\nset\"\n{_ROW}\n{_with_value('t', 'x')}\n",
         ": line 5, column 1: could not convert string 'x' to float64\n"),
        (f"{CSV_HEADER}\n{_ROW[:-6]}{'a' * 200_000}\n{_with_value('t', 'x')}\n",
         ": line 3, column 1: could not convert string 'x' to float64\n"),
        # rows are counted as loadtxt reads them: a blank line, and a quoted
        # field over two lines
        (f"{CSV_HEADER}\n{_with_value('t', '0.5')}\n\n{_with_value('t', '0.5')[:-6]}"
         f"\"pre\nset\"\n{_with_value('t', '0.25')}\n",
         ": line 6: t must not decrease, got 0.25 after 0.5\n"),
        # a field past the csv module's size limit still gets its line
        (f"{CSV_HEADER}\n{_ROW[:-6]}{'a' * 200_000}\n{_with_value('t', '-1')}\n",
         ": line 3: t must not decrease, got -1 after 0\n"),
    ],
    ids=["empty", "header_only", "missing_column", "short_row", "long_row", "nan", "inf",
         "minus_inf", "comment_row", "first_bad_line", "negative_t",
         "bad_line_after_a_quoted_newline", "bad_line_after_a_huge_field", "t_backwards",
         "t_backwards_after_a_huge_field"],
)
def test_metrics_read_back_errors(runner, here, text, message):
    sc_path = here / "sc.json"
    _write_scenario(sc_path)
    log = here / "trajectory.csv"
    log.write_text(text)
    res = runner.invoke(main, ["metrics", "--log", str(log), "--scenario", str(sc_path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.count("\n") == 1 and _error_lines(res) == [res.output.rstrip("\n")]
    assert res.output.startswith(f"error: {log}") and message in res.output


def _fields(values):
    """A CSV field of one of values: padded, quoted, or as %.9g or repr writes it."""
    return st.builds(
        lambda value, fmt, pad, quoted: ('"{}"' if quoted else "{}").format(
            pad[0] + fmt(value) + pad[1]),
        values,
        st.sampled_from([lambda v: "%.9g" % v, repr]),
        st.tuples(st.sampled_from(["", " ", "\t", "  "]), st.sampled_from(["", " ", "\t "])),
        st.booleans(),
    )


def _value(field):
    return float(field.strip(" \t").strip('"'))


@settings(max_examples=100, deadline=None)
@given(
    # t (the first column) is >= 0 and never decreases, by the read-back
    # rule: the rows come in the order of their t
    rows=st.lists(st.tuples(_fields(st.floats(0.0, allow_infinity=False)),
                            st.lists(_fields(st.floats(allow_nan=False, allow_infinity=False)),
                                     min_size=len(CSV_COLUMNS) - 2,
                                     max_size=len(CSV_COLUMNS) - 2)),
                  min_size=1, max_size=6).map(lambda rows: [
                      [t, *fields] for t, fields in sorted(rows, key=lambda row: _value(row[0]))]),
)
def test_read_log_csv_matches_float(rows):
    """The read-back of a trajectory, and of a lane CSV of its x and y,
    gives the bits a per-value float() of each field gives."""
    assert CSV_COLUMNS[:3] == ("t", "x", "y")
    lines = [CSV_HEADER] + [",".join(fields + ['"both_lanes"']) for fields in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path, lane_path = Path(tmp) / "trajectory.csv", Path(tmp) / "lanes.csv"
        path.write_text("\n".join(lines) + "\n")
        lane_path.write_text("lane_id,x,y\n" + "".join(f"left,{fields[1]},{fields[2]}\n"
                                                       for fields in rows))
        got, lanes = _read_log_csv(path), _read_lane_csv(lane_path)
    for name in METRIC_COLUMNS:
        k = CSV_COLUMNS.index(name)
        want = np.array([_value(fields[k]) for fields in rows])
        assert got[name].tobytes() == want.tobytes(), name
        if name in ("x", "y"):
            assert lanes[name].tobytes() == want.tobytes(), name


def _child(*args):
    """Run a child Python with args; its stdout and stderr."""
    proc = subprocess.run([sys.executable, *map(str, args)], env=_cli_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def test_metrics_process_imports_only_what_it_runs(tmp_path):
    """`python -m lanetrack.cli metrics` imports neither the simulator, the
    lane fit nor scipy, and `import lanetrack` imports no submodule."""
    log_path, sc_path = tmp_path / "trajectory.csv", tmp_path / "sc.json"
    log_path.write_text(_short_trajectory()[0])
    sc_path.write_text(_short_trajectory()[1])
    out, err = _child("-X", "importtime", "-m", "lanetrack.cli", "metrics",
                      "--log", log_path, "--scenario", sc_path)
    assert out == CliRunner().invoke(main, ["metrics", "--log", str(log_path),
                                            "--scenario", str(sc_path)]).output
    # -X importtime writes "import time: <self> | <cumulative> | <module>"
    modules = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
               if line.startswith("import time:")}
    assert {"lanetrack.metrics", "lanetrack.scenario", "numpy"} <= modules
    assert not modules & {"lanetrack.simulator", "lanetrack.lanefit", "scipy"}
    out, _ = _child("-c", "import sys, lanetrack; "
                          "print(sorted(m for m in sys.modules if m.startswith('lanetrack')))")
    assert out == "['lanetrack']\n"


def test_the_entry_point_alone_freezes_the_start_up_heap(tmp_path):
    """The lanetrack script and `python -m lanetrack.cli` call entry(),
    which freezes the heap before main runs; main called in a process of
    its own leaves the heap as it is."""
    pyproject = (SCENARIOS.parent / "pyproject.toml").read_text()
    assert 'lanetrack = "lanetrack.cli:entry"' in pyproject.splitlines()
    log_path, sc_path = tmp_path / "trajectory.csv", tmp_path / "sc.json"
    log_path.write_text(_short_trajectory()[0])
    sc_path.write_text(_short_trajectory()[1])
    # runpy with run_name "__main__" runs the module as -m does
    out, _ = _child("-c", textwrap.dedent("""
        import atexit, gc, runpy
        atexit.register(lambda: print("frozen:", gc.get_freeze_count()))
        runpy.run_module("lanetrack.cli", run_name="__main__")
    """), "metrics", "--log", log_path, "--scenario", sc_path)
    assert int(out.splitlines()[-1].removeprefix("frozen: ")) > 0

    before = gc.get_freeze_count()
    with pytest.raises(SystemExit) as exit_info:
        main.main(["metrics", "--log", str(log_path), "--scenario", str(sc_path)],
                  standalone_mode=False)
    assert exit_info.value.code == 0
    assert gc.get_freeze_count() == before == 0


def test_preset_runs_and_their_metrics_load_no_scipy():
    """The CLI import, a preset run and its metrics load no scipy module,
    and no numpy.random module: a preset run makes no random generator."""
    out, _ = _child("-c", textwrap.dedent(f"""
        import sys
        import lanetrack.cli
        from lanetrack import metrics_from_log, run
        from lanetrack.scenario import load_scenario
        sc = load_scenario({str(SCENARIOS / "straight_convergence.json")!r})
        assert sc.mode == "preset_path"
        metrics_from_log(run(sc), sc.track.reference_path, sc.v_t)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
    """))
    assert out == "[]\n[]\n"


#: The scipy.linalg modules a lane fit loads: the LAPACK extension alone.
_FIT_LINALG = "['scipy.linalg._flapack']\n"


def test_lane_fits_load_scipys_lapack_extension_only(tmp_path):
    """A lane fit, a short vision run and `lanetrack fit` load scipy's
    LAPACK extension, never the scipy.linalg package. The vision run
    loads numpy.random, which the preset-run guard above must not see."""
    linalg = "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    out, _ = _child("-c", textwrap.dedent(f"""
        import sys
        import numpy as np
        from lanetrack import run
        from lanetrack.lanefit import fit_cubic
        from lanetrack.scenario import apply_override, load_scenario_dict, scenario_from_dict
        fit_cubic(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 4.0], [3.0, 9.0]]))
        {linalg}
        print("numpy.random" in sys.modules)
        data = load_scenario_dict({str(SCENARIOS / "figure_course_vision_v15.json")!r})
        apply_override(data, "duration_max", "1")
        assert len(run(scenario_from_dict(data))) > 0
        {linalg}
        print("numpy.random" in sys.modules)
    """))
    assert out == _FIT_LINALG + "False\n" + _FIT_LINALG + "True\n"
    lanes = tmp_path / "lanes.csv"
    _write_lane_csv(lanes)
    # runpy with run_name "__main__" runs the module as -m does
    out, _ = _child("-c", textwrap.dedent(f"""
        import atexit, runpy, sys
        atexit.register(lambda: {linalg})
        runpy.run_module("lanetrack.cli", run_name="__main__")
    """), "fit", "--input", lanes)
    assert out.startswith("mode: both_lanes\n") and out.endswith("\n" + _FIT_LINALG)


@pytest.mark.parametrize("scipy_linalg_first", [False, True], ids=["ours_first", "scipy_first"])
def test_the_lapack_routines_are_scipys_in_either_import_order(scipy_linalg_first):
    """lanefit's LAPACK routines are the objects scipy.linalg.lapack hands
    out for float64, whichever loads the extension first, and scipy.linalg
    works after lanefit has loaded it."""
    ours = "routines = lanefit._lapack(4)[:3]"
    theirs = "import scipy.linalg"
    out, _ = _child("-c", textwrap.dedent(f"""
        import numpy as np
        from lanetrack import lanefit
        {theirs if scipy_linalg_first else ours}
        {ours if scipy_linalg_first else theirs}
        from scipy.linalg.lapack import get_lapack_funcs
        funcs = get_lapack_funcs(("geqp3", "orgqr", "trtrs"), (np.empty((1, 1)),))
        assert all(a is b for a, b in zip(routines, funcs, strict=True)), (routines, funcs)
        a = np.vander(np.arange(6.0), 4)
        q, r, p = scipy.linalg.qr(a, mode="economic", pivoting=True)
        assert np.allclose(q @ r, a[:, p])
        print("ok")
    """))
    assert out == "ok\n"


def _write_lane_csv(path):
    xs = np.linspace(1.0, 9.0, 30)
    lines = ["lane_id,x,y"]
    lines += [f"left,{x:.4f},{1.75 + 0.02 * x * x:.6f}" for x in xs]
    lines += [f"right,{x:.4f},{-1.75 + 0.02 * x * x:.6f}" for x in xs]
    path.write_text("\n".join(lines) + "\n")


def test_fit_both_lanes(runner, tmp_path):
    lane_csv = tmp_path / "lanes.csv"
    _write_lane_csv(lane_csv)
    out = tmp_path / "fit.json"
    res = runner.invoke(main, ["fit", "--input", str(lane_csv), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "mode: both_lanes" in res.output
    payload = json.loads(out.read_text())
    assert payload["mode"] == "both_lanes"
    coeffs = payload["centerline"]["coeffs"]
    # centerline of two parallel quadratics: ~0.02 x^2 through y=0
    assert abs(coeffs[0]) < 0.1
    assert coeffs[2] == pytest.approx(0.02, abs=5e-3)
    assert len(payload["centerline_samples"]) == 64


def test_fit_single_lane(runner, tmp_path):
    lane_csv = tmp_path / "lanes.csv"
    xs = np.linspace(1.0, 9.0, 30)
    lane_csv.write_text(
        "lane_id,x,y\n" + "\n".join(f"left,{x:.4f},1.75" for x in xs) + "\n"
    )
    res = runner.invoke(main, ["fit", "--input", str(lane_csv)])
    assert res.exit_code == 0
    assert "mode: left_only" in res.output


def test_fit_lane_seen_at_one_x(runner, tmp_path):
    lane_csv = tmp_path / "lanes.csv"
    left = ["lane_id,x,y"] + [f"left,2,{y}" for y in (0.5, 1.0, 1.5, 2.0)]
    lane_csv.write_text("\n".join(left) + "\n")
    res = runner.invoke(main, ["fit", "--input", str(lane_csv)])
    assert res.exit_code == 0, res.output
    assert "mode: none" in res.output
    right = [f"right,{x},-1.75" for x in (1.0, 3.0, 5.0, 7.0)]
    lane_csv.write_text("\n".join(left + right) + "\n")
    out = tmp_path / "fit.json"
    res = runner.invoke(main, ["fit", "--input", str(lane_csv), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["mode"] == "right_only"


def test_fit_lane_with_a_step_too_short_to_measure(runner, tmp_path):
    # the last step adds nothing to the arc length 3.0; resampling drops it
    # instead of dividing by its length 0
    lane_csv = tmp_path / "lanes.csv"
    lane_csv.write_text("lane_id,x,y\nleft,0,0\nleft,3,0\nleft,3,1e-160\n")
    res = runner.invoke(main, ["fit", "--input", str(lane_csv)])
    assert res.exit_code in (0, 1), res.output
    assert not isinstance(res.exception, Exception)  # SystemExit is none
    assert "mode: left_only" in res.output


def test_fit_out_onto_a_directory_is_a_data_error(tmp_path):
    lane_csv = tmp_path / "lanes.csv"
    _write_lane_csv(lane_csv)
    res = _lanetrack("fit", "--input", lane_csv, "--out", tmp_path)
    _assert_one_error_line(res)
    assert "Is a directory" in res.stderr


@pytest.mark.parametrize(
    "option, value",
    [
        ("--delta-s", "0"), ("--delta-s", "-0.25"), ("--delta-s", "nan"), ("--delta-s", "inf"),
        ("--lane-width", "0"), ("--lane-width", "-3.5"), ("--lane-width", "nan"),
    ],
)
def test_fit_rejects_bad_option(runner, tmp_path, option, value):
    lane_csv = tmp_path / "lanes.csv"
    _write_lane_csv(lane_csv)
    res = runner.invoke(main, ["fit", "--input", str(lane_csv), option, value])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert _error_lines(res) == [f"error: {option} must be a finite number > 0, got {float(value)}"]


@pytest.mark.parametrize("text, message", [
    ("lane,x,y\nleft,1,1\n", "is missing column 'lane_id'"),
    ("lane_id,x\n", "is missing column 'y'"),  # with no rows
    ("\nlane_id,x,y\n", "is missing column 'lane_id'"),  # a blank header
    ("", "is empty"),
], ids=["missing_column", "missing_column_no_rows", "blank_header", "empty"])
def test_fit_names_a_file_without_its_columns(runner, here, text, message):
    lane_csv = here / "lanes.csv"
    lane_csv.write_text(text)
    res = runner.invoke(main, ["fit", "--input", str(lane_csv)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert _error_lines(res) == [f"error: {lane_csv} {message}"]


def test_a_line_break_in_a_path_is_shown_escaped(runner, here):
    """A path that holds a line break still makes one error line."""
    log = here / "a\nb\r.csv"
    log.write_text("")
    res = runner.invoke(main, ["metrics", "--log", str(log),
                               "--scenario", str(SCENARIOS / "oval_preset_v20.json")])
    assert res.exit_code == 1
    assert res.output == "error: a\\nb\\r.csv is empty\n"


def test_fit_rejects_unknown_lane_id(runner, tmp_path):
    lane_csv = tmp_path / "lanes.csv"
    lane_csv.write_text("lane_id,x,y\ncenter,1.0,0.0\n")
    res = runner.invoke(main, ["fit", "--input", str(lane_csv)])
    assert res.exit_code == 1


@pytest.mark.parametrize("rows, message", [
    # after a blank line
    ("left,1,1\n\nleft,3\n", "line 4: the dtype passed requires 3 columns but 2 were found"),
    ("left,1,1\nleft,1,1,9\n", "line 3: the dtype passed requires 3 columns but 4 were found"),
    ("left,1,1\nleft,x,1\n", "line 3, column 2: could not convert string 'x' to float64"),
    ("left,1,1\ncenter,1,0\n", "line 3: unknown lane_id 'center'"),
    # a row is named by its first line, and one after it by its own
    pytest.param('left,1,1\n"cen\nter",1,0\n', "line 3: unknown lane_id 'cen\\nter'",
                 id="unknown_lane_id_over_two_lines"),
    pytest.param('"left\n",1,1\nleft,x,1\n',
                 "line 4, column 2: could not convert string 'x' to float64",
                 id="bad_row_after_a_quoted_newline"),
    # a field past the csv module's size limit (131,072 characters)
    pytest.param(f"left{' ' * 200_000},1,1\nleft,x,1\n",
                 "line 3, column 2: could not convert string 'x' to float64",
                 id="bad_row_after_a_huge_field"),
    # a number as numpy reads it, not as Python's float() does
    pytest.param("left,1,1\nleft,1_0,1\n",
                 "line 3, column 2: could not convert string '1_0' to float64",
                 id="python_only_number"),
])
def test_fit_names_the_line_of_a_bad_row(runner, here, rows, message):
    lane_csv = here / "lanes.csv"
    lane_csv.write_text("lane_id,x,y\n" + rows)
    res = runner.invoke(main, ["fit", "--input", str(lane_csv)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert _error_lines(res) == [f"error: {lane_csv}: {message}"]


@pytest.mark.parametrize("delta_s", ["1e-12", "1e-300"])
def test_fit_rejects_a_resampled_count_too_large(runner, tmp_path, delta_s):
    # an error before the points are made, not a lane left out: 1e-12
    # would ask for 29 TiB
    lane_csv = tmp_path / "lanes.csv"
    _write_lane_csv(lane_csv)
    res = runner.invoke(main, ["fit", "--input", str(lane_csv), "--delta-s", delta_s])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert len(_error_lines(res)) == 1 and "more than 100000 points" in res.output
    assert "mode:" not in res.output


def _lane_rows(lane, points):
    return "".join(f"{lane},{x},{y}\n" for x, y in points)


def test_fit_rejects_disjoint_lanes_the_simulator_runs_without(runner, tmp_path, monkeypatch):
    """docs/FORMATS.md, Lane CSV: lanes whose x-ranges do not overlap are
    an error for `fit`; a simulator frame that senses them runs in mode
    none."""
    left = [(1.0, 1.75), (2.0, 1.75), (3.0, 1.75), (4.0, 1.75)]
    right = [(6.0, -1.75), (7.0, -1.75), (8.0, -1.75), (9.0, -1.75)]
    lane_csv = tmp_path / "lanes.csv"
    lane_csv.write_text("lane_id,x,y\n" + _lane_rows("left", left) + _lane_rows("right", right))
    res = runner.invoke(main, ["fit", "--input", str(lane_csv)])
    assert res.exit_code == 1
    assert len(_error_lines(res)) == 1 and "do not overlap" in res.output

    sc = Scenario(track=straight_track(20.0), mode="vision", v_t=1.5, dt=0.01,
                  duration_max=0.3, initial_pose=Pose(2.0, 0.0, 0.0))
    state = init_state(sc)
    monkeypatch.setattr(simulator, "sense_lanes", lambda *args: (np.array(left), np.array(right)))
    step(state)
    assert state.centerline_mode == "none" and state.target is None


def test_fit_resamples_in_file_order_the_simulator_sorts(runner, tmp_path):
    """docs/FORMATS.md, Lane CSV: `fit` resamples a lane in file order and
    fits two points; the simulator sorts a side by x and needs
    sensor.min_points."""
    rows = [(1.0, 1.7), (5.0, 2.1), (3.0, 1.6), (7.0, 1.9), (9.0, 1.8)]

    def fit_left(points):
        lane_csv, out = tmp_path / "lanes.csv", tmp_path / "fit.json"
        lane_csv.write_text("lane_id,x,y\n" + _lane_rows("left", points))
        res = runner.invoke(main, ["fit", "--input", str(lane_csv), "--out", str(out)])
        assert res.exit_code == 0, res.output
        return json.loads(out.read_text())["lane_left"]

    assert fit_left(rows)["coeffs"] != fit_left(sorted(rows))["coeffs"]
    assert _fit_side(np.array(rows), SensorConfig()) == _fit_side(np.array(sorted(rows)),
                                                                  SensorConfig())
    assert fit_left(rows[:2]) is not None
    assert _fit_side(np.array(rows[:2]), SensorConfig(min_points=4)) is None


@pytest.mark.parametrize("override, message", [
    ('track={"kind":"circle","radius":1e9}', "has more than 100000 vertices"),
    ('track={"kind":"straight","length":1e12}', "has more than 100000 vertices"),
    ('track={"kind":"oval","radius":-5}', "track.radius must be a finite number > 0, got -5"),
    ("sensor.sample_spacing=1e-9", "sample_spacing must be <= 10000, got 1.6e+10"),
    ("sensor.roi=[0,1e308,-5,5]", "sample_spacing must be <= 10000, got inf"),
    ("rng_seed=1.5", "rng_seed must be an integer >= 0, got 1.5"),
    ('rng_seed="7"', "rng_seed must be an integer >= 0, got '7'"),
    ('track={"kind":"polyline","points":[[0,0],[10,0],[20,0]],"closed":"no"}',
     "track.closed must be true or false, got 'no'"),
    ("rng_seed=true", "rng_seed must be an integer >= 0, got True"),
    ('track={"kind":"polyline","points":[[0,0],[10,"x"]]}',
     "track.points[1][1] must be a finite number, got 'x'"),
    ('track={"kind":"polyline","points":[[0,0],[10,true],[20,0]]}',
     "track.points[1][1] must be a finite number, got True"),
    ("gains=5", "gains must be an object, got 5"),
    ('gains={"k3":1}', "gains.k3 is not a field"),
    ('track={"kind":"oval","segments":[{"s_lo":1,"s_hi":2,"style":"solid","foo":1}]}',
     "track.segments[0].foo is not a field"),
])
def test_simulate_rejects_an_oversized_or_mistyped_scenario(runner, tmp_path, override, message):
    # each fails before any large array is made
    out = tmp_path / "o"
    res = runner.invoke(main, ["simulate", "--scenario",
                               str(SCENARIOS / "oval_vision_noisy_v20.json"),
                               "--out", str(out), "--set", override])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert len(_error_lines(res)) == 1 and message in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["batch", "batch_job", "simulate", "metrics_log",
                                     "metrics_scenario", "fit"])
def test_a_file_that_is_not_utf8_is_a_data_error(runner, here, command):
    """One error line that names the file, as the other read-back errors do."""
    bad = here / "bad"
    bad.write_bytes(b"\xff\xfe[1]")
    good = here / "sc.json"
    _write_scenario(good)
    batch = here / "batch.json"
    batch.write_text(json.dumps([{"scenario": str(bad), "out": str(here / "j")}]))
    args = {
        "batch": ["batch", "--file", bad],
        "batch_job": ["batch", "--file", batch],
        "simulate": ["simulate", "--scenario", bad, "--out", here / "o"],
        "metrics_log": ["metrics", "--log", bad, "--scenario", good],
        "metrics_scenario": ["metrics", "--log", good, "--scenario", bad],
        "fit": ["fit", "--input", bad],
    }[command]
    res = runner.invoke(main, list(map(str, args)))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    job = "job 0: " if command == "batch_job" else ""
    assert res.output == (f"error: {job}{bad}: 'utf-8' codec can't decode byte 0xff "
                          "in position 0: invalid start byte\n")


def test_batch_runs_jobs_and_propagates_worst_exit(runner, tmp_path):
    ok_sc = tmp_path / "ok.json"
    slow_sc = tmp_path / "slow.json"
    _write_scenario(ok_sc)
    _write_scenario(slow_sc, track=straight_track(50.0), duration_max=1.0)
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([
        {"scenario": str(ok_sc), "out": str(tmp_path / "j1")},
        {"scenario": str(ok_sc), "out": str(tmp_path / "j2"),
         "overrides": {"v_t": 2.0, "limits.v_max": 2.25}},
        {"scenario": str(slow_sc), "out": str(tmp_path / "j3")},
    ]))
    res = runner.invoke(main, ["batch", "--file", str(batch)])
    assert res.exit_code == 2  # worst of {0, 0, 2}
    for j in ("j1", "j2", "j3"):
        assert (tmp_path / j / "trajectory.csv").exists()


def test_batch_reports_bad_jobs_and_runs_the_rest(runner, tmp_path):
    ok_sc = tmp_path / "ok.json"
    _write_scenario(ok_sc)
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([
        {"out": str(tmp_path / "j0")},
        "not a job",
        {"scenario": str(tmp_path / "missing.json"), "out": str(tmp_path / "j2")},
        {"scenario": str(ok_sc), "out": str(tmp_path / "j3"), "overrides": [1]},
        {"scenario": str(ok_sc), "out": str(tmp_path / "j4")},
    ]))
    res = runner.invoke(main, ["batch", "--file", str(batch)])
    assert res.exit_code == 1  # worst of {1, 1, 1, 1, 0}
    assert isinstance(res.exception, SystemExit)
    for n in range(4):
        assert f"error: job {n}: " in res.output
    assert (tmp_path / "j4" / "trajectory.csv").exists()


def test_batch_job_with_an_unwritable_out_runs_the_rest(here):
    ok_sc = here / "ok.json"
    _write_scenario(ok_sc)
    (here / "j0").write_text("")
    batch = here / "batch.json"
    batch.write_text(json.dumps([
        {"scenario": str(ok_sc), "out": str(here / "j0")},
        {"scenario": str(ok_sc), "out": str(here / "j1")},
    ]))
    res = _lanetrack("batch", "--file", batch)
    _assert_one_error_line(res)  # worst of {1, 0}
    assert res.stderr == f"error: job 0: [Errno 17] File exists: {str(here / 'j0')!r}\n"
    assert (here / "j1" / "trajectory.csv").exists()


@pytest.mark.parametrize("case", ["existing_out_under_a_long_dir", "huge_missing_scenario"])
def test_a_batch_job_line_is_cut_in_the_middle(runner, tmp_path, case):
    """A long job line keeps its end: the file name of an existing `out`
    under a long directory, or of a missing 5,000-character scenario."""
    ok_sc = tmp_path / "ok.json"
    _write_scenario(ok_sc)
    if case == "existing_out_under_a_long_dir":
        (tmp_path / ("d" * 90)).mkdir()
        job = {"scenario": str(ok_sc), "out": str(tmp_path / ("d" * 90) / "j0")}
        Path(job["out"]).write_text("")
        end = "/j0'"
    else:
        job = {"scenario": str(tmp_path / ("a" * 5000)), "out": str(tmp_path / "o")}
        end = "aaa' does not exist."
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([job]))
    res = runner.invoke(main, ["batch", "--file", str(batch)])
    assert res.exit_code == 1
    assert res.output.count("\n") == 1 and len(_error_lines(res)) == 1
    assert res.output.startswith("error: job 0: ") and res.output.endswith(f"{end}\n")
    assert "..." in res.output


def test_batch_rejects_an_override_key_holding_equals(runner, tmp_path):
    # --set v_t=2=1 would set v_t to "2=1" and blame v_t, which the job never named
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"scenario": str(SCENARIOS / "oval_preset_v20.json"),
                                  "out": str(tmp_path / "j0"), "overrides": {"v_t=2": 1}}]))
    res = runner.invoke(main, ["batch", "--file", str(batch)])
    assert res.exit_code == 1
    assert _error_lines(res) == ["error: job 0: override key 'v_t=2' must not hold '='"]
    assert not (tmp_path / "j0").exists()


def test_batch_names_the_job_of_a_rejected_scenario(runner, tmp_path):
    ok_sc = tmp_path / "ok.json"
    _write_scenario(ok_sc)
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([
        {"scenario": str(ok_sc), "out": str(tmp_path / "j0")},
        {"scenario": str(ok_sc), "out": str(tmp_path / "j1"), "overrides": {"dt": 1e-300}},
    ]))
    res = runner.invoke(main, ["batch", "--file", str(batch)])
    assert res.exit_code == 1
    assert _error_lines(res) == ["error: job 1: duration_max / dt must be <= 1000000, "
                                 "got 3e+301 steps"]
    assert (tmp_path / "j0" / "trajectory.csv").exists()
    assert not (tmp_path / "j1").exists()


def test_batch_rejects_non_list(runner, tmp_path):
    batch = tmp_path / "batch.json"
    batch.write_text('{"scenario": "x"}')
    res = runner.invoke(main, ["batch", "--file", str(batch)])
    assert res.exit_code == 1


@pytest.mark.parametrize("override, line", [
    ("a.b=1", "error: unknown scenario field 'a.b' (at 'a')"),
    ("sensor.noise=1", "error: unknown scenario field 'sensor.noise' (at 'noise')"),
    ("noequals", "error: override 'noequals' is not KEY=VALUE"),
])
def test_simulate_override_errors_read_without_quotes(runner, tmp_path, override, line):
    res = runner.invoke(main, ["simulate", "--scenario", str(SCENARIOS / "oval_preset_v20.json"),
                               "--out", str(tmp_path / "o"), "--set", override])
    assert res.exit_code == 1
    assert _error_lines(res) == [line]


@pytest.mark.parametrize("args, line", [
    (["simulate", "--scenario", "missing.json", "--out", "o"],
     "error: Invalid value for '--scenario': Path 'missing.json' does not exist."),
    (["simulate", "--bogus"], "error: No such option '--bogus'. Did you mean '--out'?"),
    (["fit", "--delta-s", "abc"],
     "error: Invalid value for '--delta-s': 'abc' is not a valid float."),
    (["metrics"], "error: Missing option '--log'."),
], ids=["missing_file", "unknown_option", "bad_float", "missing_option"])
def test_a_usage_error_is_one_error_line_and_exit_1(args, line):
    """click's own errors exit 1, as data errors do: exit code 2 means a
    run timeout only."""
    res = _lanetrack(*args)
    _assert_one_error_line(res)
    assert res.stderr == f"{line}\n"


def test_help_exits_0_and_bare_lanetrack_prints_help_and_exits_1(runner, monkeypatch):
    res = runner.invoke(main, ["simulate", "--help"])
    assert res.exit_code == 0 and res.output.startswith("Usage: ")
    res = runner.invoke(main, [])
    assert res.exit_code == 1 and res.output.startswith("Usage: ")
    assert "Commands:" in res.output and not _error_lines(res)

    def interrupted(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(scenario_mod, "load_scenario", interrupted)
    res = runner.invoke(main, ["metrics", "--log", str(SCENARIOS / "oval_preset_v20.json"),
                               "--scenario", str(SCENARIOS / "oval_preset_v20.json")])
    assert res.exit_code == 1 and res.output == "\nAborted!\n"


_HUGE = "a" * 20_000


@pytest.mark.parametrize("args, shown, end", [
    (["simulate", "--set", _HUGE], "error: override 'aaa", "aaa' is not KEY=VALUE"),
    (["simulate", "--set", f"{_HUGE}.b=1"], "error: unknown scenario field 'aaa", "aaa')"),
    (["fit"], "line 2: unknown lane_id 'aaa", "aaa'"),
], ids=["override_without_equals", "unknown_field", "lane_id"])
def test_a_huge_value_gives_a_short_error_line(runner, here, args, shown, end):
    """A 20,000-character value on the command line or in a lane CSV makes
    an error line cut in the middle, which keeps its start and its end."""
    lanes = here / "lanes.csv"
    lanes.write_text(f"lane_id,x,y\n{_HUGE},1,1\n")
    where = (["--input", str(lanes)] if args[0] == "fit" else
             ["--scenario", str(SCENARIOS / "oval_preset_v20.json"), "--out", str(here / "o")])
    res = runner.invoke(main, [args[0], *where, *args[1:]])
    assert res.exit_code == 1
    assert _error_lines(res) == [res.output.rstrip("\n")]
    assert shown in res.output and "..." in res.output
    assert res.output.endswith(f"{end}\n")


def test_a_non_ascii_value_is_cut_by_bytes(runner, tmp_path):
    """5,000 two-byte characters are cut by bytes, to a line under 200
    bytes; a character the cut splits is dropped."""
    lanes = tmp_path / "lanes.csv"
    lanes.write_text(f"lane_id,x,y\n{'é' * 5000},1,1\n", encoding="utf-8")
    res = runner.invoke(main, ["fit", "--input", str(lanes)])
    assert res.exit_code == 1
    assert _error_lines(res) == [res.output.rstrip("\n")]
    assert res.output.endswith("éé'\n") and "...é" in res.output


def test_batch_override_error_reads_without_quotes(runner, tmp_path):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"scenario": str(SCENARIOS / "oval_preset_v20.json"),
                                  "out": str(tmp_path / "j0"), "overrides": {"a.b": 1}}]))
    res = runner.invoke(main, ["batch", "--file", str(batch)])
    assert res.exit_code == 1
    assert _error_lines(res) == ["error: job 0: unknown scenario field 'a.b' (at 'a')"]


@pytest.mark.parametrize("points, message", [
    ([[0, 0]], "track.points must have at least 2 points, got 1"),
    ([[0, 0], [0, 0]], "track.points must have a finite positive length, got 0"),
    ([[0, 0], [1e308, 0], [-1e308, 0]], "track.points must have a finite positive length, got inf"),
])
def test_simulate_rejects_a_polyline_without_a_finite_length(tmp_path, points, message):
    """One error line that names track.points, before any step, and no
    RuntimeWarning from the overflowing length."""
    res = _lanetrack("simulate", "--scenario", SCENARIOS / "oval_preset_v20.json",
                     "--out", tmp_path / "o",
                     "--set", "track=" + json.dumps({"kind": "polyline", "points": points}))
    _assert_one_error_line(res)
    assert res.stderr == f"error: bad scenario data: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("top, line", [
    ([], "error: bad scenario data: the scenario must be an object, got []"),
    ("oval", "error: bad scenario data: the scenario must be an object, got 'oval'"),
])
def test_simulate_rejects_a_scenario_that_is_not_an_object(runner, tmp_path, top, line):
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(json.dumps(top))
    res = runner.invoke(main, ["simulate", "--scenario", str(sc_path), "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert _error_lines(res) == [line]
