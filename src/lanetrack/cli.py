"""Command-line interface: simulate, fit, metrics, batch.

Exit codes are a stable contract for scripting: 0 success, 1 usage or
data error, 2 run timeout.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from . import lanefit, metrics as metrics_mod, scenario as scenario_mod
from .exceptions import DegeneratePolyline, EmptyLog, LanetrackError, TooFewPoints
from .simulator import run, write_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2

#: plotdata/ files and the log columns each one holds; reference_path.csv
#: (x,y) is written from the scenario's track.
PLOT_SERIES = {
    "v.csv": ("t", "v_app", "v_cmd"),
    "omega.csv": ("t", "omega_app", "omega_cmd"),
    "x.csv": ("t", "x"),
    "y.csv": ("t", "y"),
    "phi.csv": ("t", "phi"),
    "trajectory_xy.csv": ("x", "y"),
}


def _read_log_csv(path) -> dict[str, np.ndarray]:
    """Read the columns the metrics need back from a trajectory CSV.

    The header line names the columns and every row has its width. One
    np.loadtxt call parses the rows in C: the metric columns as doubles,
    rounded as float() rounds them, and the other columns as text that is
    dropped. A metric value that is not finite is an error.
    """
    with open(path) as fh:
        line = fh.readline()
        if not line:
            raise EmptyLog(f"{path} is empty")
        header = next(csv.reader([line]))
        for name in metrics_mod.METRIC_COLUMNS:
            if name not in header:
                raise LanetrackError(f"{path} is missing column {name!r}")
        index = {name: header.index(name) for name in metrics_mod.METRIC_COLUMNS}
        # one field per header column, unlike usecols, makes loadtxt reject
        # a row that is shorter or longer than the header
        dtype = [(f"c{k}", "f8" if k in index.values() else "U1") for k in range(len(header))]
        try:
            table = _loadtxt(fh, dtype)
        except ValueError as exc:
            raise LanetrackError(_first_bad_line(path, dtype, exc)) from None
    if not len(table):
        raise EmptyLog(f"{path} has no data rows")
    cols = {}
    for name, k in index.items():
        cols[name] = table[f"c{k}"].copy()
        if not np.isfinite(cols[name]).all():
            raise LanetrackError(f"{path}: column {name} is not finite")
    t = cols["t"]
    back = np.flatnonzero(np.diff(t, prepend=0.0) < 0.0)
    if len(back):
        k = back[0]
        rule = (f"t must be >= 0, got {t[k]:.9g}" if k == 0 else
                f"t must not decrease, got {t[k]:.9g} after {t[k - 1]:.9g}")
        raise LanetrackError(f"{path}: {_row_line(path, k)}: {rule}")
    return cols


def _row_line(path, row: int) -> str:
    """Where data row `row` (from 0) of a CSV starts, as "line N" with the
    header as line 1. Rows are counted as np.loadtxt counts them: blank
    lines are skipped, and a quoted field may span lines. A file the csv
    module cannot walk (a field over its size limit) names the row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        start, left = 1, row + 1  # the header is the first record
        try:
            for fields in reader:
                if fields:
                    if not left:
                        return f"line {start}"
                    left -= 1
                start = reader.line_num + 1
        except csv.Error:
            pass
    return f"data row {row + 1}"


def _loadtxt(lines, dtype):
    """The rows of a trajectory CSV, or of a list of its lines, as a table."""
    with warnings.catch_warnings():
        # loadtxt warns when there are no rows, which the callers handle
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          ndmin=1)


def _first_bad_line(path, dtype, exc: ValueError) -> str:
    """The error message for a file that np.loadtxt rejected with exc.

    numpy's row numbers skip the header and count from 1 or from 0
    depending on the error, so the rows are parsed again one at a time to
    find the first bad one. Its message names the file's line number,
    with the header as line 1.
    """
    with open(path) as fh:
        fh.readline()
        for number, line in enumerate(fh, start=2):
            try:
                _loadtxt([line], dtype)
            except ValueError as line_exc:
                # "<reason> at row R[, column C][; use `usecols` ...]"; the
                # advice to use usecols is meant for loadtxt's caller
                reason, _, where = str(line_exc).partition(" at row ")
                column = re.search(r", (column \d+)", where)
                place = f"line {number}" + (f", {column.group(1)}" if column else "")
                return f"{path}: {place}: {reason}"
    return f"{path}: {exc}"


@contextmanager
def _reading(path):
    """A block that reads the file at path: a file that is not UTF-8 is a
    data error that names the path, as the other read-back errors do."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise LanetrackError(f"{path}: {exc}") from None


def _fail(message) -> NoReturn:
    """Print one error line and exit 1. A `batch` job's line names the job,
    whose number batch passes as the click context object."""
    job = click.get_current_context().obj
    prefix = "error: " if job is None else f"error: job {job}: "
    click.echo(f"{prefix}{message}", err=True)
    sys.exit(EXIT_ERROR)


def _metrics_json(log, sc) -> str:
    """The metrics.json text of a log. JSON has no NaN or Infinity, so a
    metric that is not finite is an error."""
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        report = metrics_mod.metrics_from_log(log, sc.track.reference_path, sc.v_t)
    values = report.as_dict()
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise LanetrackError(f"metric {name} is not finite ({value})")
    return json.dumps(values, indent=2) + "\n"


@click.group()
def main():
    """Lane-following simulator, lane fitting, and trajectory metrics."""


@main.command("simulate")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option(
    "--set",
    "overrides",
    multiple=True,
    metavar="KEY=VALUE",
    help="Override a scenario field by dotted path, e.g. controller=comparative "
    "or sensor.point_noise_sigma=0.05.",
)
@click.option(
    "--emit",
    default="log_csv,metrics_json,plotdata",
    show_default=True,
    help="Comma-separated subset of {log_csv,metrics_json,plotdata}.",
)
def cmd_simulate(scenario_path, out_dir, overrides, emit):
    """Run one scenario and write trajectory, metrics, and plot series."""
    emit_set = {e.strip() for e in emit.split(",") if e.strip()}
    unknown = emit_set - {"log_csv", "metrics_json", "plotdata"}
    if unknown:
        _fail(f"unknown emit target(s): {sorted(unknown)}")
    try:
        with _reading(scenario_path):
            data = scenario_mod.load_scenario_dict(scenario_path)
        for ov in overrides:
            if "=" not in ov:
                raise ValueError(f"override {ov!r} is not KEY=VALUE")
            key, _, value = ov.partition("=")
            scenario_mod.apply_override(data, key, value)
        sc = scenario_mod.scenario_from_dict(data)
    except (LanetrackError, ValueError, OSError) as exc:  # ValueError: bad JSON
        _fail(exc)

    # --out is made before the run, so that a path that cannot be written
    # fails in set-up time; a run that logs nothing leaves nothing behind
    out = Path(out_dir)
    made = [p for p in (out, *out.parents) if not p.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(exc)
    log = run(sc)
    if not len(log):
        for p in made:
            p.rmdir()
        _fail(f"the run logged no steps (termination: {log.termination_reason})")
    try:
        _write_outputs(log, sc, out, emit_set)
    except (LanetrackError, OSError) as exc:
        _fail(exc)

    click.echo(f"termination: {log.termination_reason} after {len(log)} steps")
    sys.exit(EXIT_TIMEOUT if log.termination_reason == "timeout" else EXIT_OK)


def _write_outputs(log, sc, out: Path, emit_set) -> None:
    """Write the emitted files of a run into the existing directory out.

    trajectory.csv is written first, since metrics.json is recomputed from
    it, and removed at the end if it is not emitted.
    """
    log_path = out / "trajectory.csv"
    log.to_csv(log_path)
    try:
        if "metrics_json" in emit_set:
            # recompute from the CSV so file outputs are mutually consistent
            text = _metrics_json(_read_log_csv(log_path), sc)
            (out / "metrics.json").write_text(text)
        if "plotdata" in emit_set:
            plot = out / "plotdata"
            plot.mkdir(exist_ok=True)
            for name, columns in PLOT_SERIES.items():
                write_csv(plot / name, columns, [zip(*[log[c] for c in columns])])
            write_csv(plot / "reference_path.csv", ("x", "y"),
                      [zip(*sc.track.reference_path.T)])
    finally:
        if "log_csv" not in emit_set:
            log_path.unlink(missing_ok=True)


@main.command("fit")
@click.option("--input", "in_csv", required=True, type=click.Path(exists=True))
@click.option("--delta-s", default=lanefit.DEFAULT_DELTA_S, show_default=True)
@click.option("--lane-width", default=lanefit.DEFAULT_LANE_WIDTH, show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path())
def cmd_fit(in_csv, delta_s, lane_width, out_path):
    """Fit lane files offline: ROI filter, resample, cubic fit, centerline.

    The input CSV needs lane_id,x,y columns with lane_id in {left,right}.
    """
    for option, value in (("--delta-s", delta_s), ("--lane-width", lane_width)):
        if not (math.isfinite(value) and value > 0):
            _fail(f"{option} must be a finite number > 0, got {value}")
    try:
        with _reading(in_csv):
            lanes = _read_lane_csv(in_csv)
        fitted = {}
        for side, pts in lanes.items():
            pts = lanefit.roi_filter(np.asarray(pts).reshape(-1, 2), lanefit.DEFAULT_ROI)
            try:
                fitted[side] = lanefit.fit_cubic(lanefit.resample(pts, delta_s))
            except (DegeneratePolyline, TooFewPoints):  # too few points, or all at one x
                fitted[side] = None
        result = lanefit.centerline(fitted["left"], fitted["right"], lane_width)
    except (LanetrackError, ValueError, OSError, csv.Error) as exc:
        _fail(exc)

    def poly_dict(p):
        if p is None:
            return None
        return {"coeffs": list(p.coeffs), "x_range": [p.x_lo, p.x_hi], "order": p.order}

    payload = {
        "mode": result.mode,
        "centerline": poly_dict(result.centerline),
        "lane_left": poly_dict(result.lane_left),
        "lane_right": poly_dict(result.lane_right),
    }
    if result.centerline is not None:
        xs = np.linspace(result.centerline.x_lo, result.centerline.x_hi, 64)
        payload["centerline_samples"] = np.column_stack((xs, result.centerline(xs))).tolist()

    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            _fail(exc)
    click.echo(f"mode: {result.mode}")
    if result.centerline is not None:
        click.echo("centerline coeffs: " + " ".join(f"{c:.9g}" for c in result.centerline.coeffs))
    sys.exit(EXIT_OK)


def _read_lane_csv(path) -> dict[str, list[tuple[float, float]]]:
    """The points of each lane of a lane CSV, in file order. A row whose
    width is not the header's, or that does not parse, is an error that
    names its line, with the header as line 1."""
    lanes = {"left": [], "right": []}
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for fields in reader:
            if not fields:
                continue  # a blank line
            if not {"lane_id", "x", "y"} <= set(header):
                raise LanetrackError("input must have lane_id,x,y columns")
            where = f"{path}: line {reader.line_num}"
            if len(fields) != len(header):
                raise LanetrackError(f"{where}: {len(fields)} fields, the header has {len(header)}")
            row = dict(zip(header, fields))
            lane = row["lane_id"].strip()
            if lane not in lanes:
                raise LanetrackError(f"{where}: unknown lane_id {lane!r}")
            try:
                lanes[lane].append((float(row["x"]), float(row["y"])))
            except ValueError as exc:
                raise LanetrackError(f"{where}: {exc}") from None
    return lanes


@main.command("metrics")
@click.option("--log", "log_csv", required=True, type=click.Path(exists=True))
@click.option(
    "--scenario", "scenario_path", required=True, type=click.Path(exists=True),
    help="Scenario JSON providing the reference track and target speed.",
)
def cmd_metrics(log_csv, scenario_path):
    """Print the metric vector for a trajectory CSV as JSON."""
    try:
        with _reading(scenario_path):
            sc = scenario_mod.load_scenario(scenario_path)
        with _reading(log_csv):
            cols = _read_log_csv(log_csv)
        click.echo(_metrics_json(cols, sc), nl=False)
    except (LanetrackError, ValueError, OSError) as exc:
        _fail(exc)
    sys.exit(EXIT_OK)


@main.command("batch")
@click.option("--file", "batch_path", required=True, type=click.Path(exists=True))
def cmd_batch(batch_path):
    """Run a list of scenarios: [{"scenario": ..., "out": ..., "overrides": {...}}]."""
    try:
        with _reading(batch_path):
            jobs = json.loads(Path(batch_path).read_text())
        if not isinstance(jobs, list):
            raise LanetrackError("batch file must contain a JSON list")
    except (LanetrackError, ValueError, OSError) as exc:  # ValueError: bad JSON
        _fail(exc)

    worst = EXIT_OK
    for n, job in enumerate(jobs):
        try:
            main.main(args=_batch_args(job), standalone_mode=False, prog_name="lanetrack",
                      obj=n)
            rc = EXIT_OK
        except SystemExit as exc:
            rc = int(exc.code or 0)
        except click.ClickException as exc:
            # a bad job is reported and counted; the jobs after it still run
            click.echo(f"error: job {n}: {exc.format_message()}", err=True)
            rc = EXIT_ERROR
        worst = max(worst, rc)
    sys.exit(worst)


def _batch_args(job) -> list[str]:
    """The `simulate` arguments for one batch job."""
    if not isinstance(job, dict):
        raise click.ClickException("a job must be a JSON object")
    for key in ("scenario", "out"):
        if not isinstance(job.get(key), str):
            raise click.ClickException(f"a job needs a string {key!r}")
    overrides = job.get("overrides", {})
    if not isinstance(overrides, dict):
        raise click.ClickException("'overrides' must be a JSON object")
    args = ["simulate", "--scenario", job["scenario"], "--out", job["out"]]
    for key, value in overrides.items():
        args += ["--set", f"{key}={json.dumps(value)}"]
    return args


if __name__ == "__main__":
    main()
