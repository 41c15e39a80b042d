import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st
from polylines import bits

from lanetrack.angles import wrap_angle
from lanetrack.controllers import (
    SERIES_EPS,
    SIN_EPS,
    ControllerGains,
    SaturationLimits,
    comparative_cmd,
    control_step,
    lyapunov_report,
    proposed_angular,
    proposed_linear,
    saturate,
)
from lanetrack.exceptions import InvalidScenario
from lanetrack.model import RHO_EPS, PolarError, Pose, TargetState, Twist, polar_error
from lanetrack.simulator import NUMERIC_COLUMNS, Scenario, init_state, step
from lanetrack.tracks import straight_track

GAINS = ControllerGains()  # tuned field values


def _err(rho, alpha, beta):
    """A polar error with its trig filled in, as polar_error fills it."""
    return PolarError(rho, alpha, beta,
                      math.sin(alpha), math.cos(alpha), math.sin(beta), math.cos(beta))


def _target(v_t=1.5, phi_t_dot=0.0):
    return TargetState(0.0, 0.0, 0.0, v_t, phi_t_dot)


# ------------------------------------------------------------ symbolic oracle
#
# The angular law is re-derived here symbolically, independently of the
# implementation, and checked two ways: (1) plugging the laws into the
# chain-ruled Lyapunov rates must give dV2/dt = -lambda_a sin^2(a)/k1
# identically; (2) the implementation must agree numerically with the
# symbolic expression at random states.

_S = sp.symbols("rho a b vt lv la k1 k2 pd")
_rho, _a, _b, _vt, _lv, _la, _k1, _k2, _pd = _S
_sa, _sb, _ca, _cb = sp.sin(_a), sp.sin(_b), sp.cos(_a), sp.cos(_b)
_v_expr = (_vt * _cb + _lv * _rho) * _ca
_g = (_sa / _k1 + _sb / _k2) / _rho
_w_expr = (
    _la * _sa
    + _g * _k1 * _vt * (_ca * _cb - _sb / _sa)
    - _pd * _k1 * _sb / (_k2 * _sa)
    + _lv * _ca * (_sa + _k1 * _sb / _k2)
)


def test_angular_law_closes_v2_identity_symbolically():
    los = (_v_expr * _sa - _vt * _sb) / _rho
    adot = los - _w_expr
    bdot = los - _pd
    v2dot = _sa * adot / _k1 + _sb * bdot / _k2
    assert sp.simplify(v2dot + _la * _sa**2 / _k1) == 0


def test_linear_law_closes_v1_identity_symbolically():
    v1dot = _rho * (_vt * _cb - _v_expr * _ca)
    target = -_lv * _rho**2 * _ca**2 + _vt * _rho * _sa**2 * _cb
    assert sp.simplify(v1dot - target) == 0


def test_angular_law_matches_symbolic_expression():
    fn = sp.lambdify(_S, _w_expr, "math")
    rng = np.random.default_rng(11)
    for _ in range(200):
        rho = rng.uniform(0.05, 6.0)
        alpha = rng.uniform(-3.0, 3.0)
        if abs(math.sin(alpha)) < 1e-3:
            alpha += 0.01
        beta = rng.uniform(-3.0, 3.0)
        v_t = rng.uniform(0.1, 2.5)
        pdot = rng.uniform(-1, 1)
        g = ControllerGains(
            lambda_v=rng.uniform(0.01, 1),
            lambda_a=rng.uniform(0.01, 1),
            k1=rng.uniform(0.1, 3),
            k2=rng.uniform(0.5, 60),
        )
        got = proposed_angular(_err(rho, alpha, beta), _target(v_t, pdot), g)
        want = fn(rho, alpha, beta, v_t, g.lambda_v, g.lambda_a, g.k1, g.k2, pdot)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_comparative_law_matches_direct_formula():
    rng = np.random.default_rng(12)
    for _ in range(200):
        rho = rng.uniform(0.05, 6.0)
        a = rng.uniform(-3.0, 3.0)
        if abs(a) < 1e-3:
            a = 0.01
        b = rng.uniform(-3.0, 3.0)
        v_t = rng.uniform(0.1, 2.5)
        pdot = rng.uniform(-1, 1)
        cmd = comparative_cmd(_err(rho, a, b), _target(v_t, pdot), GAINS)
        sinc2 = math.sin(2 * a) / (2 * a)
        want = (
            GAINS.lambda_a * a
            + ((a + b) / rho) * (sinc2 * math.cos(b) - math.sin(b) / a) * v_t
            - (b / a) * pdot
            + sinc2 * GAINS.lambda_v * (a + b)
        )
        assert cmd.omega == pytest.approx(want, rel=1e-9)
        assert cmd.v == pytest.approx(
            proposed_linear(_err(rho, a, b), _target(v_t, pdot), GAINS)
        )


# -------------------------------------------------------------- linear laws


def test_proposed_linear_values():
    assert proposed_linear(_err(1.0, 0.0, 0.0), _target(1.5), GAINS) == pytest.approx(
        1.5 + GAINS.lambda_v
    )
    # alpha = pi/2: heading orthogonal to the line of sight, no advance
    assert proposed_linear(_err(1.0, math.pi / 2, 0.0), _target(1.5), GAINS) == pytest.approx(
        0.0, abs=1e-15
    )


def test_proposed_linear_bounded_everywhere():
    # unlike v_t cos(b)/cos(a) + lambda_v rho cos(a), it never blows up
    for alpha in np.linspace(-math.pi, math.pi, 101):
        v = proposed_linear(_err(2.0, alpha, 0.3), _target(2.0), GAINS)
        assert abs(v) <= 2.0 + GAINS.lambda_v * 2.0 + 1e-12


# ---------------------------------------------------------------- guards


#: The log columns of control_step's values, in its order.
_KERNEL_COLUMNS = NUMERIC_COLUMNS[4:8] + NUMERIC_COLUMNS[12:]


def _kernel(alpha, beta, controller):
    """control_step at rho = 1 with no limits, by log column; alpha and
    beta come out of its geometry within about 1e-15 of the arguments."""
    return dict(zip(_KERNEL_COLUMNS, control_step(
        Pose(0.0, 0.0, -alpha), TargetState(1.0, 0.0, -beta, 1.5, 0.0), Twist(1.0, 0.0),
        GAINS, None, 0.01, controller)))


def _singular(alpha, beta, controller):
    return _kernel(alpha, beta, controller)["singular_flag"]


def test_singular_alpha_flag_set_and_clamped():
    for controller in ("proposed", "comparative"):
        out = _kernel(0.0, 0.5, controller)
        assert out["singular_flag"]
        assert math.isfinite(out["omega_cmd"])
        # clamp magnitude: the beta term over SIN_EPS dominates
        assert abs(out["omega_cmd"]) > 1e3


def test_no_flag_when_beta_also_small():
    assert not _singular(0.0, 0.0, "proposed") and not _singular(0.0, 0.0, "comparative")


def test_singular_alpha_follows_each_law_denominator():
    # alpha = pi: sin(alpha) is 1.2e-16, so only the proposed law is singular
    assert _singular(math.pi, 0.5, "proposed") and not _singular(math.pi, 0.5, "comparative")
    # at the SIN_EPS edge: |alpha| <= 1e-6 flags, beyond it does not
    assert _singular(-0.9999999e-6, 0.5, "comparative")
    assert not _singular(1.0000001e-6, 0.5, "comparative")
    assert not _singular(0.0, 0.9999999e-6, "comparative")


def test_comparative_sinc_series_accuracy():
    # below |a| = 1e-4 the sin(2a)/(2a) factor switches to its series; the
    # law must still match the direct formula evaluated in full precision
    for a in (9.9e-5, 5e-5, -7e-5):
        got = comparative_cmd(_err(1.0, a, 0.2), _target(), GAINS).omega
        sinc2 = math.sin(2 * a) / (2 * a)
        want = (
            GAINS.lambda_a * a
            + ((a + 0.2) / 1.0) * (sinc2 * math.cos(0.2) - math.sin(0.2) / a) * 1.5
            + sinc2 * GAINS.lambda_v * (a + 0.2)
        )
        assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------- lyapunov report


def test_lyapunov_values():
    err = _err(2.0, 0.3, -0.2)
    v1, v2, _, _ = lyapunov_report(err, Twist(1.0, 0.1), _target(), GAINS)
    assert v1 == pytest.approx(2.0)
    assert v2 == pytest.approx(
        (1 - math.cos(0.3)) / GAINS.k1 + (1 - math.cos(-0.2)) / GAINS.k2
    )

    _, v2_c, _, _ = lyapunov_report(err, Twist(1.0, 0.1), _target(), GAINS, "comparative")
    assert v2_c == pytest.approx(0.5 * (0.3**2 + 0.2**2))


def test_lyapunov_rate_identity_numeric():
    """With the exact laws applied, V2_dot == -lambda_a sin^2(a)/k1."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        err = _err(rng.uniform(0.1, 5), rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if abs(math.sin(err.alpha)) < 1e-4:
            continue
        tgt = _target(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
        cmd = Twist(
            proposed_linear(err, tgt, GAINS), proposed_angular(err, tgt, GAINS)
        )
        v2_dot = lyapunov_report(err, cmd, tgt, GAINS)[3]
        want = -GAINS.lambda_a * math.sin(err.alpha) ** 2 / GAINS.k1
        assert v2_dot == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_lyapunov_report_non_strict_nan():
    # the rates are undefined at rho <= RHO_EPS; the values are not
    for variant in ("proposed", "comparative"):
        v1, v2, v1_dot, v2_dot = lyapunov_report(
            _err(1e-3, 0.1, 0.1), Twist(1, 0), _target(), GAINS, variant
        )
        assert v1 == 0.5e-6 and v2 > 0.0
        assert math.isnan(v1_dot) and math.isnan(v2_dot)


# ------------------------------------------------------------- saturation


LIMITS = SaturationLimits()


def test_saturate_magnitude_bounds():
    prev = Twist(1.0, 0.0)
    out = saturate(Twist(9.0, 9.0), prev, LIMITS, 1.0)
    assert out.v <= LIMITS.v_max
    assert out.omega <= LIMITS.omega_abs_max
    out = saturate(Twist(-9.0, -9.0), prev, LIMITS, 1.0)
    assert out.v >= LIMITS.v_min
    assert out.omega >= -LIMITS.omega_abs_max


def test_saturate_slew():
    prev = Twist(1.0, 0.0)
    out = saturate(Twist(1.75, 0.4), prev, LIMITS, 0.01)
    assert out.v == pytest.approx(1.0 + LIMITS.accel_max * 0.01)
    assert out.omega == pytest.approx(LIMITS.alpha_accel_max * 0.01)


def test_saturate_passthrough():
    prev = Twist(1.0, 0.1)
    cmd = Twist(1.003, 0.104)
    out = saturate(cmd, prev, LIMITS, 0.01)
    assert out == cmd


def test_saturate_clamp_then_slew_order():
    # raw far below v_min: first clamped up to v_min, then slewed from prev;
    # the result must not undershoot what the slew permits
    prev = Twist(0.6, 0.0)
    out = saturate(Twist(-5.0, 0.0), prev, LIMITS, 0.01)
    assert out.v == pytest.approx(0.6 - 0.0, abs=1e-12)  # v_min wins


def test_for_target_speed_profiles():
    assert SaturationLimits.for_target_speed(1.5).v_max == pytest.approx(1.75)
    assert SaturationLimits.for_target_speed(2.0).v_max == pytest.approx(2.25)


@settings(max_examples=200, deadline=None)
@given(
    v=st.floats(-10, 10),
    w=st.floats(-10, 10),
    pv=st.floats(0.6, 1.75),
    pw=st.floats(-0.4, 0.4),
    dt=st.floats(1e-4, 0.5),
)
def test_saturate_properties(v, w, pv, pw, dt):
    """Output always inside the box and within one slew step of prev."""
    prev = Twist(pv, pw)
    out = saturate(Twist(v, w), prev, LIMITS, dt)
    assert LIMITS.v_min - 1e-12 <= out.v <= LIMITS.v_max + 1e-12
    assert abs(out.omega) <= LIMITS.omega_abs_max + 1e-12
    assert abs(out.v - prev.v) <= LIMITS.accel_max * dt + 1e-12
    assert abs(out.omega - prev.omega) <= LIMITS.alpha_accel_max * dt + 1e-12
    # idempotent: saturating the result again changes nothing
    assert saturate(out, prev, LIMITS, dt) == out


def test_gain_validation():
    # gains and limits are plain records: Scenario.validate checks them
    gains, limits = ControllerGains(lambda_v=0.0), SaturationLimits(v_min=2.0, v_max=1.0)
    track = straight_track(10.0)
    with pytest.raises(InvalidScenario, match=r"^gains\.lambda_v must be > 0$"):
        Scenario(track=track, mode="preset_path", v_t=1.5, gains=gains).validate()
    with pytest.raises(InvalidScenario, match=r"^limits\.v_min must be <= limits\.v_max$"):
        Scenario(track=track, mode="preset_path", v_t=1.5, limits=limits).validate()


# ------------------------------------------------ one step against the parent
#
# The control chain of one step as it was written before PolarError carried
# the trig of alpha and beta, when each function computed its own sin and
# cos: the oracle that simulator.step must match bit for bit.


def _parent_clamped(x, eps):
    if abs(x) >= eps:
        return x
    return eps if x >= 0.0 else -eps


def _parent_linear(rho, a, b, tgt, g):
    return (tgt.v_t * math.cos(b) + g.lambda_v * rho) * math.cos(a)


def _parent_angular(rho, a, b, tgt, g):
    sa, sb = math.sin(a), math.sin(b)
    ca, cb = math.cos(a), math.cos(b)
    k1, k2 = g.k1, g.k2
    sa_c = _parent_clamped(sa, SIN_EPS)
    gg = (sa / k1 + sb / k2) / rho
    coupling = gg * k1 * tgt.v_t * (ca * cb - sb / sa_c)
    feedforward = -tgt.phi_t_dot * k1 * sb / (k2 * sa_c)
    damping = g.lambda_v * ca * (sa + k1 * sb / k2)
    return g.lambda_a * sa + coupling + feedforward + damping


def _parent_sinc2(a):
    if abs(a) < SERIES_EPS:
        x = 2.0 * a
        return 1.0 - x * x / 6.0
    return math.sin(2.0 * a) / (2.0 * a)


def _parent_comparative_omega(rho, a, b, tgt, g):
    cb = math.cos(b)
    sb = math.sin(b)
    a_c = _parent_clamped(a, SIN_EPS)
    return (
        g.lambda_a * a
        + ((a + b) / rho) * (_parent_sinc2(a) * cb - sb / a_c) * tgt.v_t
        - (b / a_c) * tgt.phi_t_dot
        + _parent_sinc2(a) * g.lambda_v * (a + b)
    )


def _parent_lyapunov(rho, a, b, cmd, tgt, g, variant):
    v1 = 0.5 * rho * rho
    if variant == "proposed":
        v2 = (1.0 - math.cos(a)) / g.k1 + (1.0 - math.cos(b)) / g.k2
    else:
        v2 = 0.5 * (a * a + b * b)
    if rho <= RHO_EPS:
        return v1, v2, math.nan, math.nan
    sa, sb = math.sin(a), math.sin(b)
    ca, cb = math.cos(a), math.cos(b)
    los_rate = (cmd.v * sa - tgt.v_t * sb) / rho
    rho_dot = tgt.v_t * cb - cmd.v * ca
    alpha_dot = los_rate - cmd.omega
    beta_dot = los_rate - tgt.phi_t_dot
    v1_dot = rho * rho_dot
    if variant == "proposed":
        v2_dot = math.sin(a) * alpha_dot / g.k1 + math.sin(b) * beta_dot / g.k2
    else:
        v2_dot = a * alpha_dot + b * beta_dot
    return v1, v2, v1_dot, v2_dot


def _parent_saturate(raw, prev, lim, dt):
    def clamp(x, lo, hi):
        return lo if x < lo else hi if x > hi else x

    v = clamp(raw.v, lim.v_min, lim.v_max)
    dv = lim.accel_max * dt
    v = clamp(v, prev.v - dv, prev.v + dv)
    w = clamp(raw.omega, -lim.omega_abs_max, lim.omega_abs_max)
    dw = lim.alpha_accel_max * dt
    w = clamp(w, prev.omega - dw, prev.omega + dw)
    return Twist(v, w)


def _parent_step(pose, tgt, prev, g, limits, controller, dt):
    """The logged values of one step, in LOG_COLUMNS order from v_cmd on
    (without the target's own fields and sat_flag), and the next pose."""
    dx, dy = tgt.x_t - pose.x, tgt.y_t - pose.y
    rho = math.hypot(dx, dy)
    theta = math.atan2(dy, dx) if rho > 0.0 else pose.phi
    a, b = wrap_angle(theta - pose.phi), wrap_angle(theta - tgt.phi_t)
    degenerate = rho <= RHO_EPS
    v = _parent_linear(rho, a, b, tgt, g)
    if degenerate:
        raw = Twist(v, prev.omega)
    elif controller == "proposed":
        raw = Twist(v, _parent_angular(rho, a, b, tgt, g))
    else:
        raw = Twist(v, _parent_comparative_omega(rho, a, b, tgt, g))
    if controller == "proposed":
        sa, sb = math.sin(a), math.sin(b)
    else:
        sa, sb = a, b
    singular = not degenerate and abs(sa) <= SIN_EPS and abs(sb) > SIN_EPS
    applied = raw if limits is None else _parent_saturate(raw, prev, limits, dt)
    v1, v2, v1_dot, v2_dot = _parent_lyapunov(rho, a, b, applied, tgt, g, controller)
    values = (*raw, *applied, rho, a, b, v1, v2, v1_dot, v2_dot, singular, degenerate)
    nxt = Pose(pose.x + applied.v * math.cos(pose.phi) * dt,
               pose.y + applied.v * math.sin(pose.phi) * dt,
               wrap_angle(pose.phi + applied.omega * dt))
    return values, nxt


_STEP_COLUMNS = ("v_cmd", "omega_cmd", "v_app", "omega_app", "rho", "alpha", "beta",
                 "V1", "V2", "V1_dot", "V2_dot", "singular_flag", "degenerate_flag")
_ANGLE = st.floats(-math.pi, math.pi)
_POS = st.floats(-20.0, 20.0)
_LIMITS = st.one_of(
    st.none(),
    st.builds(
        lambda lo, span, w, acc, alpha_acc: SaturationLimits(lo, lo + span, w, acc, alpha_acc),
        st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.05, 2.0),
        st.floats(0.1, 5.0), st.floats(0.1, 5.0),
    ),
)


@pytest.mark.parametrize("controller", ["proposed", "comparative"])
@settings(max_examples=400, deadline=None)
@given(
    pose=st.tuples(_POS, _POS, _ANGLE),
    # the edges: alpha within SIN_EPS of 0 (the proposed and comparative
    # clamps) and under SERIES_EPS (the comparative series), |beta| near
    # pi, and rho around RHO_EPS (the degenerate path)
    alpha=st.one_of(_ANGLE, st.one_of(st.floats(-2 * SIN_EPS, 2 * SIN_EPS),
                                      st.floats(-2 * SERIES_EPS, 2 * SERIES_EPS))),
    beta=st.one_of(_ANGLE, st.one_of(st.floats(math.pi - 1e-6, math.pi),
                                     st.floats(-math.pi, -math.pi + 1e-6))),
    rho=st.one_of(st.floats(0.01, 10.0), st.floats(0.0, 2 * RHO_EPS)),
    v_t=st.floats(0.1, 2.5),
    phi_t_dot=st.floats(-1.0, 1.0),
    prev=st.tuples(st.floats(0.0, 2.5), st.floats(-0.5, 0.5)),
    gains=st.tuples(*[st.floats(0.01, 60.0)] * 4),
    limits=_LIMITS,
    dt=st.floats(1e-3, 0.1),
)
# alpha exactly 0, where the clamps take the sign branch, and beta = pi
@example(pose=(0.0, 0.0, 0.0), alpha=0.0, beta=0.5, rho=1.0, v_t=1.5, phi_t_dot=0.1,
         prev=(1.0, 0.0), gains=(0.075, 0.15, 0.8, 50.0), limits=None, dt=0.01)
@example(pose=(0.0, 0.0, 0.0), alpha=0.3, beta=math.pi, rho=1.0, v_t=1.5, phi_t_dot=0.1,
         prev=(1.0, 0.0), gains=(0.075, 0.15, 0.8, 50.0), limits=None, dt=0.01)
def test_step_matches_the_parent_control_chain(controller, pose, alpha, beta, rho, v_t,
                                               phi_t_dot, prev, gains, limits, dt):
    """Raw and applied command, V1, V2, their rates, the singular and
    degenerate flags and the next pose of one step, bit for bit."""
    g = ControllerGains(*gains)
    sc = Scenario(track=straight_track(), mode="preset_path", v_t=v_t, gains=g, limits=limits,
                  dt=dt, duration_max=1.0, controller=controller, initial_pose=Pose(*pose))
    state = init_state(sc)
    start = state.pose  # its heading wrapped
    theta = start.phi + alpha
    tgt = TargetState(start.x + rho * math.cos(theta), start.y + rho * math.sin(theta),
                      wrap_angle(theta - beta), v_t, phi_t_dot)
    state.prev_applied = Twist(*prev)
    state.targets = [tgt]
    step(state)

    want, want_pose = _parent_step(start, tgt, Twist(*prev), g, limits, controller, dt)
    got = [state.log[name][0] for name in _STEP_COLUMNS]
    assert bits(*got) == bits(*want)
    assert bits(*state.pose) == bits(*want_pose)


def _spec_step(pose, tgt, prev, g, limits, dt, controller):
    """control_step's values from the spec terms of src/: polar_error, the
    laws, saturate and lyapunov_report, with the singular predicate and the
    sat tolerance of the log."""
    err = polar_error(pose, tgt)
    degenerate = err.rho <= RHO_EPS
    if degenerate:
        raw = Twist(proposed_linear(err, tgt, g), prev.omega)
    elif controller == "proposed":
        raw = Twist(proposed_linear(err, tgt, g), proposed_angular(err, tgt, g))
    else:
        raw = comparative_cmd(err, tgt, g)
    if controller == "proposed":
        sa, sb = err.sin_alpha, err.sin_beta
    else:
        sa, sb = err.alpha, err.beta
    singular = not degenerate and abs(sa) <= SIN_EPS and abs(sb) > SIN_EPS
    applied = raw if limits is None else saturate(raw, prev, limits, dt)
    sat = abs(applied.v - raw.v) > 1e-12 or abs(applied.omega - raw.omega) > 1e-12
    v1, v2, v1_dot, v2_dot = lyapunov_report(err, applied, tgt, g, controller)
    return (*raw, *applied, err.rho, err.alpha, err.beta, v1, v2, sat, v1_dot, v2_dot,
            singular, degenerate)


@pytest.mark.parametrize("controller", ["proposed", "comparative"])
@settings(max_examples=400, deadline=None)
@given(
    pose=st.tuples(_POS, _POS, _ANGLE),
    alpha=st.one_of(_ANGLE, st.floats(-2 * SIN_EPS, 2 * SIN_EPS),
                    st.floats(-2 * SERIES_EPS, 2 * SERIES_EPS)),
    beta=st.one_of(_ANGLE, st.floats(math.pi - 1e-6, math.pi),
                   st.floats(-math.pi, -math.pi + 1e-6)),
    rho=st.one_of(st.floats(0.01, 10.0), st.floats(0.0, 2 * RHO_EPS)),
    v_t=st.floats(0.1, 2.5),
    phi_t_dot=st.floats(-1.0, 1.0),
    prev=st.tuples(st.floats(0.0, 2.5), st.floats(-0.5, 0.5)),
    gains=st.tuples(*[st.floats(0.01, 60.0)] * 4),
    limits=_LIMITS,
    dt=st.floats(1e-3, 0.1),
)
@example(pose=(0.0, 0.0, 0.0), alpha=0.0, beta=-0.5, rho=1.0, v_t=1.5, phi_t_dot=0.1,
         prev=(1.0, 0.0), gains=(0.075, 0.15, 0.8, 50.0), limits=None, dt=0.01)
# rho exactly RHO_EPS, and exactly 0
@example(pose=(0.0, 0.0, 0.0), alpha=0.0, beta=-math.pi, rho=RHO_EPS, v_t=1.5,
         phi_t_dot=0.1, prev=(1.0, 0.2), gains=(0.075, 0.15, 0.8, 50.0),
         limits=SaturationLimits(), dt=0.01)
@example(pose=(0.0, 0.0, 0.0), alpha=0.0, beta=0.0, rho=0.0, v_t=1.5, phi_t_dot=0.1,
         prev=(1.0, 0.2), gains=(0.075, 0.15, 0.8, 50.0), limits=None, dt=0.01)
# the slew bound moves v_cmd = 1.575 by 1.0e-10 (sat) and by 5.0e-13 (not)
@example(pose=(0.0, 0.0, 0.0), alpha=0.0, beta=0.0, rho=1.0, v_t=1.5, phi_t_dot=0.1,
         prev=(1.5649999999, 0.0), gains=(0.075, 0.15, 0.8, 50.0),
         limits=SaturationLimits(), dt=0.01)
@example(pose=(0.0, 0.0, 0.0), alpha=0.0, beta=0.0, rho=1.0, v_t=1.5, phi_t_dot=0.1,
         prev=(1.565 - 5e-13, 0.0), gains=(0.075, 0.15, 0.8, 50.0),
         limits=SaturationLimits(), dt=0.01)
def test_control_step_matches_the_spec_terms(controller, pose, alpha, beta, rho, v_t,
                                             phi_t_dot, prev, gains, limits, dt):
    """Every value control_step returns, bit for bit, against the chain of
    the per-law functions it inlines; the flags as booleans."""
    g = ControllerGains(*gains)
    pose = Pose(*pose)
    theta = pose.phi + alpha
    tgt = TargetState(pose.x + rho * math.cos(theta), pose.y + rho * math.sin(theta),
                      wrap_angle(theta - beta), v_t, phi_t_dot)
    got = control_step(pose, tgt, Twist(*prev), g, limits, dt, controller)
    want = _spec_step(pose, tgt, Twist(*prev), g, limits, dt, controller)
    assert [type(x) for x in got] == [type(x) for x in want]
    assert bits(*got) == bits(*want)
