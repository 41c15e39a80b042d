import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from lanetrack.cli import main
from lanetrack.controllers import SaturationLimits
from lanetrack.exceptions import InvalidScenario
from lanetrack.model import Pose
from lanetrack.scenario import (
    Scenario,
    SensorConfig,
    apply_override,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from lanetrack.tracks import oval_track


def _sample_scenario():
    return Scenario(
        track=oval_track(),
        mode="vision",
        v_t=1.5,
        limits=SaturationLimits(v_max=1.75),
        dt=0.01,
        duration_max=120.0,
        initial_pose=Pose(0.0, 0.3, 0.1),
        controller="proposed",
        sensor=SensorConfig(point_noise_sigma=0.05, clutter_rate=2.0),
        rng_seed=7,
    )


def test_dict_roundtrip_preserves_fields():
    sc = _sample_scenario()
    data = scenario_to_dict(sc)
    sc2 = scenario_from_dict(data)
    assert sc2.mode == sc.mode
    assert sc2.v_t == sc.v_t
    assert sc2.dt == sc.dt
    assert sc2.controller == sc.controller
    assert sc2.rng_seed == sc.rng_seed
    assert sc2.gains == sc.gains
    assert sc2.limits == sc.limits
    assert sc2.sensor == sc.sensor
    assert sc2.start_pose() == sc.start_pose()
    assert sc2.track.length == pytest.approx(sc.track.length)
    assert sc2.track.closed == sc.track.closed


def test_track_spec_shorthand_is_kept():
    sc = _sample_scenario()
    data = scenario_to_dict(sc, track_spec={"kind": "oval"})
    sc2 = scenario_from_dict(data)
    assert sc2.track.length == pytest.approx(sc.track.length, rel=1e-6)


def test_null_limits_disable_saturation():
    data = scenario_to_dict(_sample_scenario())
    data["limits"] = None
    sc = scenario_from_dict(data)
    assert sc.limits is None


def test_file_roundtrip(tmp_path):
    data = scenario_to_dict(_sample_scenario(), track_spec={"kind": "oval"})
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(data))
    sc = load_scenario(p)
    assert sc.v_t == 1.5
    assert json.loads(p.read_text())["mode"] == "vision"


def test_from_dict_rejects_bad_data():
    data = scenario_to_dict(_sample_scenario(), track_spec={"kind": "oval"})
    for mutate in (
        lambda d: d.pop("track"),
        lambda d: d.update(mode="teleport"),
        lambda d: d.update(v_t=-1.0),
        lambda d: d.update(dt=0.0),
        lambda d: d.update(controller="pid"),
        lambda d: d["gains"].update(lambda_v=-2.0),
        lambda d: d["sensor"].update(point_noise_sigma=-0.1),
        lambda d: d["initial_pose"].update(x=float("nan")),
        lambda d: d["initial_pose"].update(phi="north"),
        lambda d: d["initial_pose"].update(z=0.0),
    ):
        bad = json.loads(json.dumps(data))
        mutate(bad)
        with pytest.raises(InvalidScenario):
            scenario_from_dict(bad)


@pytest.mark.parametrize("record, value, message", [
    ("gains", 5, r"^bad scenario data: gains must be an object, got 5$"),
    ("gains", {"k3": 1.0}, r"^bad scenario data: gains\.k3 is not a field$"),
    ("limits", [1.0], r"^bad scenario data: limits must be an object, got \[1\.0\]$"),
    ("limits", {"v_mx": 1.0}, r"^bad scenario data: limits\.v_mx is not a field$"),
    ("sensor", "x", r"^bad scenario data: sensor must be an object, got 'x'$"),
    ("sensor", {"noise": 0.1}, r"^bad scenario data: sensor\.noise is not a field$"),
    ("initial_pose", [0, 0, 0], r"^bad scenario data: initial_pose must be an object"),
    ("initial_pose", {"x": 0.0, "y": 0.0}, r"^bad scenario data: initial_pose\.phi is missing$"),
    ("initial_pose", {"x": 0.0, "y": 0.0, "phi": 0.0, "z": 0.0},
     r"^bad scenario data: initial_pose\.z is not a field$"),
])
def test_from_dict_names_a_record_of_the_wrong_shape(record, value, message):
    data = scenario_to_dict(_sample_scenario(), track_spec={"kind": "oval"})
    data[record] = value
    with pytest.raises(InvalidScenario, match=message):
        scenario_from_dict(data)


def test_vision_needs_frame_period_ge_dt():
    data = scenario_to_dict(_sample_scenario(), track_spec={"kind": "oval"})
    data["dt"] = 0.2  # > frame_period 0.1
    with pytest.raises(InvalidScenario):
        scenario_from_dict(data)


def test_apply_override_scalars_and_nested():
    data = scenario_to_dict(_sample_scenario(), track_spec={"kind": "oval"})
    apply_override(data, "v_t", "2.0")
    apply_override(data, "controller", "comparative")
    apply_override(data, "sensor.point_noise_sigma", "0.08")
    apply_override(data, "limits", "null")
    assert data["v_t"] == 2.0
    assert data["controller"] == "comparative"
    assert data["sensor"]["point_noise_sigma"] == 0.08
    assert data["limits"] is None
    sc = scenario_from_dict(data)
    assert sc.controller == "comparative"
    assert sc.limits is None


def test_apply_override_unknown_key_fails_loudly():
    data = scenario_to_dict(_sample_scenario(), track_spec={"kind": "oval"})
    with pytest.raises(KeyError):
        apply_override(data, "sensor.noise_sigma", "0.1")
    with pytest.raises(KeyError):
        apply_override(data, "speed", "2.0")
    with pytest.raises(KeyError):
        apply_override(data, "sensor.roi.extra", "1")


def test_shipped_fixture_scenarios_load():
    fixture_dir = Path(__file__).resolve().parents[1] / "scenarios"
    files = sorted(fixture_dir.glob("*.json"))
    assert files, "no shipped scenario fixtures found"
    for f in files:
        sc = load_scenario(f)
        sc.validate()


def test_apply_override_non_json_stays_string():
    data = scenario_to_dict(_sample_scenario(), track_spec={"kind": "oval"})
    apply_override(data, "mode", "preset_path")
    assert data["mode"] == "preset_path"
    assert scenario_from_dict(data).mode == "preset_path"


def test_from_dict_refuses_an_unknown_top_level_key():
    # a misspelt optional field would otherwise take its default silently
    data = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                       / "oval_preset_v20.json").read_text())
    data["v_T"] = 2.0
    with pytest.raises(InvalidScenario, match=r"^bad scenario data: v_T is not a field$"):
        scenario_from_dict(data)


def test_from_dict_refuses_a_top_level_that_is_not_an_object():
    with pytest.raises(InvalidScenario,
                       match=r"^bad scenario data: the scenario must be an object, got \[\]$"):
        scenario_from_dict([])
    # the message holds the whole value; the CLI cuts its error line
    with pytest.raises(InvalidScenario) as info:
        scenario_from_dict([0] * 20000)
    assert str(info.value) == ("bad scenario data: the scenario must be an object, got "
                               + repr([0] * 20000))


def test_from_dict_names_a_missing_top_level_field():
    with pytest.raises(InvalidScenario, match=r"^bad scenario data: mode is missing$"):
        scenario_from_dict({"track": {"kind": "oval"}, "v_t": 1.5})


def test_unknown_override_field_is_a_key_error_without_quotes():
    data = scenario_to_dict(_sample_scenario(), track_spec={"kind": "oval"})
    with pytest.raises(KeyError) as info:
        apply_override(data, "a.b", "1")
    assert str(info.value) == "unknown scenario field 'a.b' (at 'a')"


_LONG = [0] * 20000
_POLYLINE = {"kind": "polyline", "points": [[0, 0], [10, 0]]}


@pytest.mark.parametrize("field, value, message", [
    ("v_t", _LONG, "v_t must be a finite number, got [0, 0,"),
    ("mode", _LONG, "unknown mode [0, 0,"),
    ("controller", _LONG, "unknown controller [0, 0,"),
    ("rng_seed", _LONG, "rng_seed must be an integer >= 0, got [0, 0,"),
    ("track", _LONG, "track must be an object, got [0, 0,"),
    ("track", {"kind": _LONG}, "unknown track kind [0, 0,"),
    ("track", {"kind": "oval", "segments": {"zones": _LONG}},
     "track.segments must be a list, got {'zones': [0, 0,"),
    ("track", {"kind": "oval", "segments": [{"s_lo": _LONG, "s_hi": 1.0, "style": "solid"}]},
     "track.segments[0].s_lo must be a finite number, got [0, 0,"),
    ("track", {"kind": "oval", "segments": [{"s_lo": 0.0, "s_hi": 1.0, "style": _LONG}]},
     "track.segments[0].style must be solid, dotted or zebra_clutter, got [0, 0,"),
    ("track", {**_POLYLINE, "closed": _LONG}, "track.closed must be true or false, got [0, 0,"),
    ("track", {"kind": "oval", "radius": _LONG}, "track.radius must be a finite number > 0, got [0,"),
    ("track", {"kind": "polyline", "points": {"xy": _LONG}},
     "track.points must be a list of [x, y] pairs, got {'xy': [0, 0,"),
    ("track", {"kind": "polyline", "points": [_LONG, [1, 1]]},
     "track.points[0] must be a pair [x, y], got [0, 0,"),
    ("track", {"kind": "polyline", "points": [[_LONG, 0], [1, 1]]},
     "track.points[0][0] must be a finite number, got [0, 0,"),
])
def test_an_error_line_cuts_a_long_value_short(tmp_path, field, value, message):
    """A 20,000-element value, about 60 KB as a repr, makes one short error
    line cut in the middle: its start names the field and the rule, and
    its end is the end of the value."""
    data = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                       / "oval_preset_v20.json").read_text())
    data[field] = value
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["simulate", "--scenario", str(path),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.output[:300]
    assert message in lines[0] and re.search(r"\.\.\.[0, ]*0\]\}?$", lines[0])
    assert len(lines[0].encode()) < 200
