"""Outer tracking loop and the acceleration-to-actuator mappings."""

import math

import numpy as np
import pytest

from perchsim.controller import (
    AttitudeThrustCmd,
    ControllerGains,
    TrackingController,
    acceleration_to_attitude_thrust,
    attitude_pd_lifts,
)
from perchsim.dynamics import GRAVITY, QuadParams
from perchsim.flatness import FreeFallSingularityError, flat_to_attitude

P = np.zeros(2)
V = np.zeros(2)


def test_zero_error_passes_reference_through():
    ctl = TrackingController()
    ref_a = np.array([1.0, -0.5])
    out = ctl.command(P, V, ref_a, P, V, t=0.2, T=2.0, dt=0.01)
    assert np.allclose(out, ref_a)
    assert np.all(ctl.integral == 0.0)


def test_terminal_window_is_pure_feedforward():
    ctl = TrackingController()
    ref_a = np.array([0.123456789, -3.2109876])
    big_err = np.array([5.0, 5.0])
    out = ctl.command(P + big_err, V + big_err, ref_a, P, V, t=1.95, T=2.0, dt=0.01)
    # bitwise: the returned command must be exactly the reference sample
    assert out[0] == ref_a[0] and out[1] == ref_a[1]
    assert np.all(ctl.integral == 0.0)  # frozen inside the window


def test_feedforward_weight_shrinks_with_feedback():
    ctl = ControllerGains()
    a = TrackingController(ctl)
    b = TrackingController(ctl)
    ref_a = np.array([2.0, 0.0])
    small = a.command(np.array([0.01, 0.0]), V, ref_a, P, V, 0.1, 2.0, 0.0)
    large = b.command(np.array([1.0, 0.0]), V, ref_a, P, V, 0.1, 2.0, 0.0)
    # with dt = 0 the integral stays zero; subtracting the proportional part
    # leaves k_a * ref_a, which must shrink as feedback grows
    ff_small = small[0] - 6.0 * 0.01
    ff_large = large[0] - 6.0 * 1.0
    assert ff_large < ff_small < ref_a[0]


def test_integral_accumulates_and_clamps():
    g = ControllerGains(i_limit=0.02)
    ctl = TrackingController(g)
    err = np.array([1.0, 0.0])
    for _ in range(100):
        ctl.command(err, V, np.zeros(2), P, V, 0.1, 2.0, 0.01)
    assert ctl.integral[0] == pytest.approx(0.02)


def test_attitude_thrust_hover():
    att = acceleration_to_attitude_thrust(np.zeros(2), 0.945)
    assert att.phi == 0.0
    assert att.f == pytest.approx(0.945 * GRAVITY, rel=1e-12)


def test_attitude_thrust_matches_flat_map():
    # the flat map and the command map must agree on roll while thrust points up
    for ddy, ddz in [(1.1, -2.3), (-0.7, 0.4), (2.0, 2.0)]:
        att = acceleration_to_attitude_thrust(np.array([ddy, ddz]), 0.945)
        assert att.phi == pytest.approx(flat_to_attitude(ddy, ddz), abs=1e-12)


def test_attitude_thrust_projection():
    m = 0.945
    for cmd in (np.array([-0.8, 1.5]), np.array([0.6, -2.0 * GRAVITY])):
        att = acceleration_to_attitude_thrust(cmd, m)
        want = cmd + np.array([0.0, GRAVITY])
        up = np.array([want[0], abs(want[1])])
        body = np.array([-math.sin(att.phi), math.cos(att.phi)])
        # the body axis is aligned with (ay, |az + g|), so f is m |a + g e_z|
        # also when the command asks for downward specific force
        assert att.f == pytest.approx(m * float(np.dot(up, body)), rel=1e-12)
        assert att.f == pytest.approx(m * float(np.linalg.norm(want)), rel=1e-9)


def test_free_fall_command_rejected():
    with pytest.raises(FreeFallSingularityError):
        acceleration_to_attitude_thrust(np.array([0.0, -GRAVITY]), 0.945)


def test_pd_lifts_split_and_recombine():
    params = QuadParams(m=0.945)
    att = AttitudeThrustCmd(f=9.0, phi=0.1)
    cmd = attitude_pd_lifts(att, phi=0.0, dphi=0.0, params=params)
    diff = (params.J / params.d_s) * 120.0 * 0.1
    assert cmd.F1 + cmd.F2 == pytest.approx(9.0, rel=1e-12)
    assert cmd.F1 - cmd.F2 == pytest.approx(diff, rel=1e-12)
    # damping opposes roll rate
    cmd2 = attitude_pd_lifts(att, phi=0.0, dphi=5.0, params=params)
    assert cmd2.F1 - cmd2.F2 < cmd.F1 - cmd.F2


def test_pd_lifts_clamped():
    params = QuadParams(m=0.945)
    att = AttitudeThrustCmd(f=100.0, phi=2.0)
    cmd = attitude_pd_lifts(att, phi=-2.0, dphi=0.0, params=params)
    assert cmd.F1 == params.F_max
    assert 0.0 <= cmd.F2 <= params.F_max
    down = attitude_pd_lifts(AttitudeThrustCmd(f=0.5, phi=-2.0),
                             phi=2.0, dphi=0.0, params=params)
    assert down.F1 == 0.0
