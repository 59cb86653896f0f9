"""Rendezvous state construction in the surface frame."""

import math

import pytest

from perchsim.controller import acceleration_to_attitude_thrust
from perchsim.dynamics import GRAVITY
from perchsim.surface import SurfacePrediction
from perchsim.terminal import (
    DEFAULT_PERCH_CONDITIONS,
    PerchConditions,
    default_conditions,
    get_terminal_states,
)

import numpy as np


def _pred(phi_deg, y0=2.0, vy=0.0, z0=1.0):
    return SurfacePrediction(y0=y0, vy=vy, z0=z0, phi_s=math.radians(phi_deg), t_fit=0.0)


def test_vertical_surface_standoff_geometry():
    # 90 deg: the normal points along -Y, so the standoff backs off in -Y
    # and the tangential direction is +Z
    cond = PerchConditions(dV_Ys=0.3, dV_Zs=-0.5, l_Zs=0.33)
    ts = get_terminal_states(_pred(90.0), 0.0, cond)
    assert ts.y == pytest.approx(2.0 - 0.33, abs=1e-12)
    assert ts.z == pytest.approx(1.0, abs=1e-12)
    assert ts.dy == pytest.approx(0.5, abs=1e-12)   # -dV_Zs, closing along +Y
    assert ts.dz == pytest.approx(0.3, abs=1e-12)   # dV_Ys, climbing the wall


def test_level_surface_standoff_geometry():
    cond = PerchConditions(0.3, -0.5, 0.2)
    ts = get_terminal_states(_pred(0.0), 0.0, cond)
    assert ts.y == pytest.approx(2.0)
    assert ts.z == pytest.approx(1.2)
    assert ts.dy == pytest.approx(0.3)
    assert ts.dz == pytest.approx(-0.5)
    assert ts.ddy == 0.0
    assert ts.ddz == 0.0


def test_moving_surface_velocity_composition():
    cond = PerchConditions(0.3, -0.5, 0.1)
    ts = get_terminal_states(_pred(90.0, vy=1.0), horizon=0.7, cond=cond)
    # surface advanced by vy * horizon and its velocity adds to the approach
    assert ts.y == pytest.approx(2.0 + 0.7 - 0.1, abs=1e-12)
    assert ts.dy == pytest.approx(1.0 + 0.5, abs=1e-12)
    assert ts.dz == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("deg", [0.0, 13.0, 47.0, 70.0, 90.0])
def test_terminal_acceleration_hands_over_cleanly(deg):
    # terminal acceleration must map to attitude = inclination at exactly
    # weight thrust, for any inclination
    cond = PerchConditions(0.3, -0.5, 0.2)
    ts = get_terminal_states(_pred(deg), 0.0, cond)
    m = 0.945
    att = acceleration_to_attitude_thrust(np.array([ts.ddy, ts.ddz]), m)
    assert att.phi == pytest.approx(math.radians(deg), abs=1e-12)
    assert att.f == pytest.approx(m * GRAVITY, rel=1e-12)


def test_default_conditions_table():
    assert default_conditions("static", 90) == PerchConditions(0.3, -0.5, 0.33)
    assert default_conditions("forward", 90.0) == PerchConditions(0.3, -0.1, 0.15)
    assert default_conditions("backward", 47) == PerchConditions(0.3, -0.3, 0.10)
    assert len(DEFAULT_PERCH_CONDITIONS) == 9


def test_default_conditions_rounds_and_rejects():
    assert default_conditions("static", 69.6) == default_conditions("static", 70)
    with pytest.raises(KeyError):
        default_conditions("static", 55)
    with pytest.raises(KeyError):
        default_conditions("sideways", 90)
