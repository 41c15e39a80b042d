import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from lanetrack.controllers import (
    ControllerGains,
    SaturationLimits,
    comparative_cmd,
    lyapunov_report,
    proposed_angular,
    proposed_linear,
    saturate,
    singular_alpha,
)
from lanetrack.exceptions import DegenerateRho
from lanetrack.model import PolarError, TargetState, Twist

GAINS = ControllerGains()  # tuned field values


def _err(rho, alpha, beta):
    return PolarError(rho=rho, theta=0.0, alpha=alpha, beta=beta)


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


def test_angular_degenerate_rho():
    with pytest.raises(DegenerateRho):
        proposed_angular(_err(1e-4, 0.5, 0.1), _target(), GAINS)
    with pytest.raises(DegenerateRho):
        comparative_cmd(_err(5e-4, 0.5, 0.1), _target(), GAINS)


def test_singular_alpha_flag_set_and_clamped():
    err = _err(1.0, 0.0, 0.5)
    w = proposed_angular(err, _target(), GAINS)
    assert singular_alpha(err, "proposed") and singular_alpha(err, "comparative")
    assert math.isfinite(w)
    # clamp magnitude: sin(b)/sin_eps dominates
    assert abs(w) > 1e3


def test_no_flag_when_beta_also_small():
    err = _err(1.0, 0.0, 0.0)
    assert not singular_alpha(err, "proposed") and not singular_alpha(err, "comparative")


def test_singular_alpha_follows_each_law_denominator():
    # alpha = pi: sin(alpha) is 1.2e-16, so only the proposed law is singular
    err = _err(1.0, math.pi, 0.5)
    assert singular_alpha(err, "proposed") and not singular_alpha(err, "comparative")
    # at the SIN_EPS edge: |alpha| <= 1e-6 flags, beyond it does not
    assert singular_alpha(_err(1.0, -1e-6, 0.5), "comparative")
    assert not singular_alpha(_err(1.0, 1.0000001e-6, 0.5), "comparative")
    assert not singular_alpha(_err(1.0, 0.0, 1e-6), "comparative")


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


def test_lyapunov_unknown_variant():
    with pytest.raises(ValueError):
        lyapunov_report(_err(1, 0, 0), Twist(1, 0), _target(), GAINS, variant="x")


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
    with pytest.raises(ValueError):
        ControllerGains(lambda_v=0.0)
    with pytest.raises(ValueError):
        SaturationLimits(v_min=2.0, v_max=1.0)
    with pytest.raises(ValueError):
        saturate(Twist(1, 0), Twist(1, 0), LIMITS, 0.0)
