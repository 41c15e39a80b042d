import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lanetrack.angles import wrap_angle


def test_wrap_identity_inside_interval():
    for a in (-3.0, -1.5, 0.0, 0.25, 3.0):
        assert wrap_angle(a) == pytest.approx(a, abs=1e-15)


def test_wrap_endpoints():
    # (-pi, pi]: both endpoints map onto +pi
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)


def test_wrap_known_values():
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrap_angle(7 * math.pi) == pytest.approx(math.pi)


@given(st.floats(-1e6, 1e6))
def test_wrap_range_and_equivalence(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    # same direction on the unit circle
    assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-6)
    assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-6)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_wrap_on_arrays_matches_floats(values):
    wrapped = wrap_angle(np.array(values))
    assert wrapped.tobytes() == np.array([wrap_angle(a) for a in values]).tobytes()
