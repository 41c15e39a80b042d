#!/usr/bin/env python3
"""The lanetrack benchmark.

    python3 bench/run.py --workload preset_laps --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20
    python3 bench/run.py --write-reference

Run it from the root of a source checkout. One invocation sets up one
workload (or each of them, in a child process apiece, with `all`), runs
passes of it until --seconds have gone by, checks every output against
bench/reference.json, prints each metric with its unit, and ends with one
JSON line. `--trace 1` reports the per-layer metrics instead of the
end-to-end ones. bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from workloads import ROOT, SCENARIOS, SRC

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
WORKLOADS = tuple(workloads.ITEMS)
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
#: The speed probe (see `probe`) and its median time on the reference
#: machine, 2 vCPUs with Python 3.11.7. The host's speed drifts by up to a
#: third over minutes; dividing by the probe time measured around each
#: pass takes most of that drift out of the pass times.
PROBE_LOOPS = 300_000
PROBE_REF_S = 0.025
#: The import of the packages lanetrack builds on, in a fresh interpreter,
#: and its median time on the reference machine. Set-up is mostly this
#: kind of work, which the probe above tracks poorly: over a few minutes
#: set-up times moved by 29 %, probe-scaled ones by 17 % and set-up divided
#: by this import, timed next to it, by 3 %. So each set-up is rescaled by it.
REF_IMPORT = "import numpy, scipy.linalg, click"
REF_IMPORT_S = 0.35
MIN_PASSES = 2
#: The end-to-end metrics (BENCHMARK.json "end_to_end") and their units.
END_TO_END = {"setup_s": "s", "pass_s": "s", "step_us": "us", "peak_rss_mb": "MB"}
TERMINATION = re.compile(rb"termination: (\w+) after (\d+) steps")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str | None:
    return sha256(path.read_bytes()) if path.is_file() else None


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(BENCH), str(SRC))))


class Gate:
    """Counts operations and checks each one's outcome.

    A run at its shipped inputs must match bench/reference.json; any other
    run must match the first outcome seen for its key in this process.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, key: str, got: dict, shipped: bool = True) -> None:
        self.attempted += 1
        expected = self.reference.get(key) if shipped else self.first.setdefault(key, got)
        if expected is None:
            self.fail(key, "no reference outcome")
            return
        bad = [f"{k} {got.get(k)!r} != {v!r}" for k, v in expected.items() if got.get(k) != v]
        if bad:
            self.fail(key, "; ".join(bad))

    def error(self, key: str, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(key, f"raised {type(exc).__name__}: {exc}")

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{key}: {why}")


class Recorder(Gate):
    """A gate that records every outcome as the reference (--write-reference)."""

    def check(self, key, got, shipped=True):
        self.attempted += 1
        self.reference[key] = got


def sim_outcome(log, csv_path: Path, metrics_text: str) -> dict:
    return {
        "trajectory_csv": file_sha256(csv_path),
        "metrics_json": sha256(metrics_text.encode()),
        "termination": log.termination_reason,
        "steps": len(log),
        "exit_code": 2 if log.termination_reason == "timeout" else 0,
    }


def sim_pass(items, gate: Gate, out_dir: Path) -> dict:
    """run() -> SimLog.to_csv -> metrics_from_log for each item, in order."""
    from lanetrack import metrics_from_log
    from lanetrack.simulator import run

    wall = run_s = 0.0
    steps = 0
    for key, sc, shipped in items:
        path = out_dir / key / "trajectory.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        try:
            t0 = time.perf_counter()
            log = run(sc)
            t1 = time.perf_counter()
            log.to_csv(path)
            report = metrics_from_log(log, sc.track.reference_path, sc.v_t)
            text = json.dumps(report.as_dict(), indent=2) + "\n"
            t2 = time.perf_counter()
        except Exception as exc:  # a failed run is counted, not fatal
            gate.error("sim:" + key, exc)
            continue
        wall += t2 - t0
        run_s += t1 - t0
        steps += len(log)
        gate.check("sim:" + key, sim_outcome(log, path, text), shipped)
    return {"pass_s": wall, "step_us": 1e6 * run_s / max(steps, 1)}


def spawn_cli(args) -> tuple[float, int, bytes, int]:
    """`lanetrack <args>` in a fresh interpreter: (wall s, exit code, output, max RSS kB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "lanetrack.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, usage.ru_maxrss


def inprocess_cli(args) -> tuple[float, int, bytes, int]:
    """`lanetrack <args>` called in this process, as the traced run needs."""
    from lanetrack import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli.main.main(args=list(args), prog_name="lanetrack", standalone_mode=False)
            rc = 0
        except SystemExit as exc:
            rc = int(exc.code or 0)
        except Exception as exc:  # what a subprocess would report as a traceback
            buf.write(f"error: {type(exc).__name__}: {exc}\n")
            rc = 1
    return time.perf_counter() - t0, rc, buf.getvalue().encode(), 0


def cli_pass(gate: Gate, traj_dir: Path, call=spawn_cli) -> dict:
    """`lanetrack metrics` on each shipped trajectory, then one `lanetrack batch`.

    Its step_us is wall µs per control step the CLI handles: trajectory
    rows rescored plus steps the batch simulates.
    """
    wall = 0.0
    rss_kb = 0
    steps = 0
    for name in workloads.SHIPPED:
        log = traj_dir / name / "proposed" / "trajectory.csv"
        t, rc, out, kb = call(["metrics", "--log", str(log),
                               "--scenario", str(SCENARIOS / f"{name}.json")])
        wall += t
        rss_kb = max(rss_kb, kb)
        steps += log.read_bytes().count(b"\n") - 1
        gate.check(f"metrics:{name}", {"metrics_json": sha256(out), "exit_code": rc})

    batch_out = WORK / "batch"
    jobs = WORK / "jobs.json"
    shutil.rmtree(batch_out, ignore_errors=True)
    jobs.write_text(json.dumps(
        [{"scenario": str(SCENARIOS / "straight_convergence.json"), "out": str(batch_out)}]))
    t, rc, out, kb = call(["batch", "--file", str(jobs)])
    wall += t
    rss_kb = max(rss_kb, kb)
    m = TERMINATION.search(out)
    steps += int(m[2]) if m else 0
    gate.check("batch:straight_convergence", {
        "trajectory_csv": file_sha256(batch_out / "trajectory.csv"),
        "metrics_json": file_sha256(batch_out / "metrics.json"),
        "termination": m[1].decode() if m else None,
        "steps": int(m[2]) if m else None,
        "exit_code": rc,
    })
    return {"pass_s": wall, "step_us": 1e6 * wall / max(steps, 1), "rss_kb": rss_kb}


def fresh_interpreter(stmt: str) -> float:
    """Wall seconds that `stmt` takes in a fresh interpreter, timed inside it."""
    code = f"import time; t = time.perf_counter(); {stmt}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def probe() -> float:
    """Wall seconds of a fixed pure-Python loop that runs no lanetrack code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_scaled(fn):
    """Call fn between two probes. Return its result and the factor that
    rescales a time measured during the call to the reference host speed."""
    before = probe()
    result = fn()
    return result, 2.0 * PROBE_REF_S / (before + probe())


def unscaled(fn):
    return fn(), 1.0


def setup_times(workload, seed) -> list[tuple[float, float]]:
    """(wall s, speed factor) of each set-up in a fresh interpreter; the
    factor comes from the reference import timed before and after it."""
    stmt = f"import workloads; workloads.load({workload!r}, {seed!r})"
    refs = [fresh_interpreter(REF_IMPORT)]
    times = []
    for _ in range(SETUP_REPEATS):
        wall = fresh_interpreter(stmt)
        refs.append(fresh_interpreter(REF_IMPORT))
        times.append((wall, 2.0 * REF_IMPORT_S / (refs[-2] + refs[-1])))
    return times


def prepare(workload: str, seed, gate: Gate):
    """Load the workload; return a function that runs one pass of it and
    the in-process form of that pass, which the traced run times."""
    items = workloads.load(workload, seed)
    if workload != "cli_rescore":
        def one_pass():
            return sim_pass(items, gate, WORK / "sim")
        return one_pass, one_pass
    # the trajectories cli_rescore reads back, generated once and hash-checked
    sim_pass(items, gate, WORK / "cli")
    return (lambda: cli_pass(gate, WORK / "cli"),
            lambda: cli_pass(gate, WORK / "cli", call=inprocess_cli))


def until(seconds: float, fn, minimum: int = MIN_PASSES) -> list:
    results = []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < seconds:
        results.append(fn())
    return results


def end_to_end(workload, seed, seconds, gate) -> dict[str, tuple[float, str]]:
    setup = setup_times(workload, seed)
    one_pass, _ = prepare(workload, seed, gate)
    one_pass()  # warm-up: let file and allocator caches fill before timing
    # cli_rescore's time goes to child interpreters, mostly to start-up and
    # imports, which the in-process probe does not track: over two sets of
    # ten runs its probe-scaled pass_s spread by 13 % and 26 %, its raw one
    # by 12 % in both.
    timed = unscaled if workload == "cli_rescore" else host_scaled
    passes = until(seconds, lambda: timed(one_pass))
    if workload == "cli_rescore":
        rss_kb = max(p["rss_kb"] for p, _ in passes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("  wall s per set-up:  " + " ".join(f"{w:.3f}" for w, _ in setup))
    print("  its speed factor:   " + " ".join(f"{f:.3f}" for _, f in setup))
    print("  wall s per pass:    " + " ".join(f"{p['pass_s']:.3f}" for p, _ in passes))
    print("  its speed factor:   " + " ".join(f"{f:.3f}" for _, f in passes))
    values = {
        "setup_s": statistics.median(wall * f for wall, f in setup),
        "pass_s": statistics.median(p["pass_s"] * f for p, f in passes),
        "step_us": statistics.median(p["step_us"] * f for p, f in passes),
        "peak_rss_mb": rss_kb / 1024,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(workload, seed, seconds, gate) -> dict[str, tuple[float, str]]:
    """Alternate untraced and traced in-process passes until --seconds."""
    _, one_pass = prepare(workload, seed, gate)
    one_pass()  # warm-up, so that neither side of the first pair pays for it
    plain, traced, found = [], [], []

    def pair():
        plain.append(one_pass()["pass_s"])
        tracer = tracing.Tracer()
        with tracer.installed(tracing.layers()):
            traced.append(one_pass()["pass_s"])
        found.append(tracing.layer_metrics(tracer))

    until(seconds, pair, minimum=1)
    for name, (value, _) in found[0].items():
        if tracing.is_count(name) and any(f[name][0] != value for f in found[1:]):
            gate.fail("trace", f"{name} differs between traced passes")
    metrics = {name: (statistics.median(f[name][0] for f in found), unit)
               for name, (_, unit) in found[0].items()}
    imports = [fresh_interpreter("import lanetrack.cli") for _ in range(IMPORT_REPEATS)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics


def machine() -> str:
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def run_one(args) -> int:
    reference = json.loads(REFERENCE.read_text())
    gate = Gate(reference)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} ({machine()})",
          flush=True)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args.workload, args.seed, args.seconds, gate)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.6g} {unit}")
    print(f"  {'error_rate':<44} {gate.failed / max(gate.attempted, 1):14.6g} "
          f"({gate.failed} of {gate.attempted} operations)")
    for line in gate.errors[:20]:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if gate.failed else 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up stay separate."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):  # it ended without a result
            print(f"error: {workload} printed no result", file=sys.stderr)
            combined["correct"] = False
            status = 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return status


def write_reference() -> int:
    """Record the outcome of every run the workloads make at shipped inputs."""
    recorder = Recorder({})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    for workload in WORKLOADS:
        one_pass, _ = prepare(workload, None, recorder)
        one_pass()
    if recorder.failed:
        sys.exit("error: not recording a reference with failed runs:\n" + "\n".join(recorder.errors))
    REFERENCE.write_text(json.dumps(dict(sorted(recorder.reference.items())), indent=1) + "\n")
    print(f"wrote {len(recorder.reference)} outcomes to {REFERENCE}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=None,
                    help="rng_seed for the seeded vision runs (default: shipped seeds)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the current outputs as bench/reference.json")
    args = ap.parse_args(argv)
    workloads.use_checkout()
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
