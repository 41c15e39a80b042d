"""Command-line interface: simulate, fit, metrics, batch.

Exit codes are a stable contract for scripting: 0 success, 1 usage or
data error, 2 run timeout. Every error, click's usage errors among them,
is one `error:` line on stderr; a long line is cut in the middle, keeping
its start and end (_print_error).
"""

from __future__ import annotations

import csv
import gc
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

from . import metrics as metrics_mod, scenario as scenario_mod
from .exceptions import DegeneratePolyline, EmptyLog, LanetrackError, TooFewPoints
from .tracks import DEFAULT_LANE_WIDTH

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2

#: An error message longer than this many bytes of UTF-8 is cut in the
#: middle: its first ERROR_HEAD bytes, "...", and its last ones. The head
#: keeps the field and the rule, the tail a path's file name.
ERROR_MAX = 160
ERROR_HEAD = 100

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


def _read_csv(path, columns: dict[str, str]) -> dict[str, np.ndarray]:
    """The named columns of a CSV file, each parsed as the dtype that
    columns gives it.

    The header line names the columns and every row has its width.
    np.loadtxt parses both, in C and with no limit on a field's size: the
    header as one row of text, then the rows in one call, which reads a
    number to the bits float() gives it and drops the columns not named.
    Where a name appears twice, its first column is read. A row that does
    not parse is an error that names its first line, with the header as
    line 1.
    """
    with open(path) as fh:
        line = fh.readline()
        if not line:
            raise LanetrackError(f"{path} is empty")
        header = _loadtxt([line], object).tolist()  # a blank line has no columns
        for name in columns:
            if name not in header:
                raise LanetrackError(f"{path} is missing column {name!r}")
        index = {header.index(name): name for name in columns}
        # one field per header column, unlike usecols, makes loadtxt reject
        # a row that is shorter or longer than the header
        dtype = [(f"c{k}", columns[index[k]] if k in index else "U1") for k in range(len(header))]
        try:
            table = _loadtxt(fh, dtype)
        except ValueError as exc:
            raise LanetrackError(_first_bad_line(path, dtype, exc)) from None
    return {name: table[f"c{k}"].copy() for k, name in index.items()}


def _read_log_csv(path) -> dict[str, np.ndarray]:
    """The columns the metrics need, read back from a trajectory CSV by
    _read_csv: there is at least one row, every value is finite, and t is
    >= 0 and never decreases."""
    cols = _read_csv(path, dict.fromkeys(metrics_mod.METRIC_COLUMNS, "f8"))
    if not len(cols["t"]):
        raise EmptyLog(f"{path} has no data rows")
    for name, col in cols.items():
        if not np.isfinite(col).all():
            raise LanetrackError(f"{path}: column {name} is not finite")
    t = cols["t"]
    back = np.flatnonzero(np.diff(t, prepend=0.0) < 0.0)
    if len(back):
        k = back[0]
        rule = (f"t must be >= 0, got {t[k]:.9g}" if k == 0 else
                f"t must not decrease, got {t[k]:.9g} after {t[k - 1]:.9g}")
        raise LanetrackError(f"{path}: {_row_line(path, k)}: {rule}")
    return cols


def _read_lane_csv(path) -> dict[str, np.ndarray]:
    """The lane_id, x and y columns of a lane CSV, read by _read_csv, with
    each lane_id stripped of white space. A lane_id other than left or
    right is an error that names its row's line."""
    cols = _read_csv(path, {"lane_id": "O", "x": "f8", "y": "f8"})
    # stripped one by one: as a string array, every id would take the
    # width of the longest
    lane_ids = [lane.strip() for lane in cols["lane_id"].tolist()]
    for k, lane in enumerate(lane_ids):
        if lane not in ("left", "right"):
            raise LanetrackError(f"{path}: {_row_line(path, k)}: unknown lane_id {lane!r}")
    cols["lane_id"] = np.array(lane_ids, dtype=str)
    return cols


def _row_line(path, row: int) -> str:
    """Where data row `row` (from 0) of a CSV starts, as "line N" with the
    header as line 1. Rows are counted as np.loadtxt counts them: blank
    lines are skipped, and a quoted field may span lines. A row the walk
    does not reach is named by its number."""
    with open(path) as fh:
        for k, (start, _) in enumerate(_records(fh, 1)):
            if k == row + 1:  # the header is the first record
                return f"line {start}"
    return f"data row {row + 1}"


def _loadtxt(lines, dtype):
    """The rows of a CSV file, or of a list of its lines, as a table."""
    with warnings.catch_warnings():
        # loadtxt warns when there are no rows, which the callers handle
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar='"',
                          ndmin=1)


_PLAIN_RUN = re.compile(r'[^",\r\n]+')


def _records(fh, first: int):
    """The records of the CSV lines left in the open file fh, blank ones
    skipped, each as the number of the line it starts on and its lines;
    fh's next line is line `first`. A file the csv module cannot walk ends
    the walk."""
    record = []

    def lines():
        for line in fh:
            record.append(line)
            # quotes, commas and line ends decide where a record ends; a
            # run of other characters is walked as one, so that a long
            # field stays under the csv module's size limit
            yield _PLAIN_RUN.sub("a", line)

    reader = csv.reader(lines())
    start = first
    try:
        for fields in reader:
            if fields:
                yield start, record[:]
            record.clear()
            start = first + reader.line_num
    except csv.Error:
        return


def _first_bad_line(path, dtype, exc: ValueError) -> str:
    """The error message for a file that np.loadtxt rejected with exc.

    numpy's row numbers skip the header and count from 1 or from 0
    depending on the error, so the rows are parsed again one at a time to
    find the first bad one. The rows are walked as records, as _row_line
    walks them, since a quoted field may span lines. The message names
    the line where the bad row starts, with the header as line 1.
    """
    with open(path) as fh:
        fh.readline()
        for start, record in _records(fh, 2):
            try:
                _loadtxt(record, dtype)
            except ValueError as row_exc:
                # "<reason> at row R[, column C][; use `usecols` ...]";
                # the advice to use usecols is meant for loadtxt's caller
                reason, _, where = str(row_exc).partition(" at row ")
                column = re.search(r", (column \d+)", where)
                place = f"line {start}" + (f", {column.group(1)}" if column else "")
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
    """Stop the command with message, an exception or a text, kept whole:
    _Main.main, or batch for a job, prints it as one error line."""
    raise click.ClickException(str(message))


def _print_error(exc: click.ClickException, job=None) -> None:
    """Print exc as one error line on stderr; the line of a `batch` job
    names the job. A line break in the message, from a path say, is shown
    as \\r or \\n. A message of more than ERROR_MAX bytes is cut in the
    middle, so that a huge value makes a short line and a long path keeps
    its file name."""
    message = exc.format_message().replace("\r", "\\r").replace("\n", "\\n")
    # a surrogate that cannot be encoded is shown as stderr shows it
    raw = message.encode(errors="backslashreplace")
    if len(raw) > ERROR_MAX:
        raw = raw[:ERROR_HEAD] + b"..." + raw[ERROR_HEAD + 3 - ERROR_MAX:]
    message = raw.decode(errors="ignore")  # drops a character cut in two
    prefix = "error: " if job is None else f"error: job {job}: "
    click.echo(f"{prefix}{message}", err=True)


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


class _Main(click.Group):
    """The command group, whose main prints every error of a command, a
    data error or one of click's (a bad option, a missing file), as one
    line and exits 1, so that exit code 2 means a run timeout only. Bare
    `lanetrack` prints its help and exits 1; --help exits 0. A caller
    that passes standalone_mode=False, as batch does for each job, gets
    the errors raised."""

    def main(self, *args, standalone_mode=True, **kwargs):
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **kwargs)
        try:
            sys.exit(super().main(*args, standalone_mode=False, **kwargs))
        except click.exceptions.NoArgsIsHelpError as exc:
            exc.show()
        except click.ClickException as exc:
            _print_error(exc)
        except click.Abort:
            click.echo("Aborted!", err=True)
        sys.exit(EXIT_ERROR)


@click.group(cls=_Main)
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
    from .simulator import run

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
    # fails in set-up time
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(exc)
    log = run(sc)
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
    from .simulator import write_csv

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
@click.option("--delta-s", default=scenario_mod.DEFAULT_DELTA_S, show_default=True)
@click.option("--lane-width", default=DEFAULT_LANE_WIDTH, show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path())
def cmd_fit(in_csv, delta_s, lane_width, out_path):
    """Fit lane files offline: ROI filter, resample, cubic fit, centerline.

    The input CSV needs lane_id,x,y columns with lane_id in {left,right}.
    It is read as `metrics` reads a trajectory: a row that does not parse
    is an error that names its first line.
    """
    from . import lanefit

    for option, value in (("--delta-s", delta_s), ("--lane-width", lane_width)):
        if not (math.isfinite(value) and value > 0):
            _fail(f"{option} must be a finite number > 0, got {value}")
    try:
        with _reading(in_csv):
            lanes = _read_lane_csv(in_csv)
        x, y = lanes["x"], lanes["y"]
        in_roi = lanefit.in_roi(x, y, scenario_mod.SensorConfig.roi)
        fitted = {}
        for side in ("left", "right"):
            keep = in_roi & (lanes["lane_id"] == side)
            try:
                fitted[side] = lanefit.fit_cubic(
                    lanefit.resample(np.column_stack((x[keep], y[keep])), delta_s))
            except (DegeneratePolyline, TooFewPoints):  # too few points, or all at one x
                fitted[side] = None
        result = lanefit.centerline(fitted["left"], fitted["right"], lane_width)
    except (LanetrackError, ValueError, OSError) as exc:
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
            main.main(args=_batch_args(job), standalone_mode=False, prog_name="lanetrack")
            rc = EXIT_OK
        except SystemExit as exc:
            rc = int(exc.code or 0)
        except click.ClickException as exc:
            # a bad job is reported and counted; the jobs after it still run
            _print_error(exc, n)
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
        if "\0" in job[key]:  # no path holds one, and os.stat raises ValueError
            raise click.ClickException(f"a job's {key!r} must not hold a NUL character")
    overrides = job.get("overrides", {})
    if not isinstance(overrides, dict):
        raise click.ClickException("'overrides' must be a JSON object")
    args = ["simulate", "--scenario", job["scenario"], "--out", job["out"]]
    for key, value in overrides.items():
        if "=" in key:  # --set splits at the first "="
            raise click.ClickException(f"override key {key!r} must not hold '='")
        args += ["--set", f"{key}={json.dumps(value)}"]
    return args


def entry() -> None:
    """The process entry point: the lanetrack script and `python -m
    lanetrack.cli`.

    The imports have made most of the objects this process will hold, and
    none of them is garbage. gc.freeze() moves them out of the collector's
    view, so neither the collections during the command nor the last ones
    at interpreter exit walk them. Code that calls main in its own process
    (tests, the benchmark's traced pass, batch for each job) leaves its
    heap as it is.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    entry()
