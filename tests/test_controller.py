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


class ReferenceController:
    """The outer loop on numpy 2-vectors, kept as the reference for the
    float-pair TrackingController."""

    def __init__(self, gains: ControllerGains = ControllerGains()):
        self.gains = gains
        self.integral = np.zeros(2)

    def command(self, ref_p, ref_v, ref_a, act_p, act_v, t, T, dt):
        g = self.gains
        ref_a = np.asarray(ref_a, dtype=float)
        if t > T - g.delta_t:
            return ref_a
        e_p = np.asarray(ref_p, dtype=float) - np.asarray(act_p, dtype=float)
        e_v = np.asarray(ref_v, dtype=float) - np.asarray(act_v, dtype=float)
        self.integral += e_p * dt
        np.clip(self.integral, -g.i_limit, g.i_limit, out=self.integral)
        fb = np.array(g.k_p) * e_p + np.array(g.k_v) * e_v
        k_a = 1.0 / (1.0 + np.abs(fb) / (np.abs(ref_a) + 0.5))
        return fb + np.array(g.k_i) * self.integral + k_a * ref_a


def _bits(pair):
    """The bit patterns of a (y, z) pair, so -0.0 and NaN compare exactly."""
    return np.array([float(pair[0]), float(pair[1])]).tobytes()


def test_zero_error_passes_reference_through():
    ctl = TrackingController()
    ref_a = np.array([1.0, -0.5])
    out = ctl.command(P, V, ref_a, P, V, t=0.2, T=2.0, dt=0.01)
    assert np.allclose(out, ref_a)
    assert ctl.integral == (0.0, 0.0)


def test_terminal_window_is_pure_feedforward():
    ctl = TrackingController()
    ref_a = np.array([0.123456789, -3.2109876])
    big_err = np.array([5.0, 5.0])
    out = ctl.command(P + big_err, V + big_err, ref_a, P, V, t=1.95, T=2.0, dt=0.01)
    # bitwise: the returned command must be exactly the reference sample
    assert out[0] == ref_a[0] and out[1] == ref_a[1]
    assert ctl.integral == (0.0, 0.0)  # frozen inside the window


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
    cmd = attitude_pd_lifts(att, phi=0.0, dphi=0.0, params=params,
                            k_p_phi=120.0, k_d_phi=22.0)
    diff = (params.J / params.d_s) * 120.0 * 0.1
    assert cmd.F1 + cmd.F2 == pytest.approx(9.0, rel=1e-12)
    assert cmd.F1 - cmd.F2 == pytest.approx(diff, rel=1e-12)
    # damping opposes roll rate
    cmd2 = attitude_pd_lifts(att, phi=0.0, dphi=5.0, params=params,
                             k_p_phi=120.0, k_d_phi=22.0)
    assert cmd2.F1 - cmd2.F2 < cmd.F1 - cmd.F2


def test_pd_lifts_clamped():
    params = QuadParams(m=0.945)
    att = AttitudeThrustCmd(f=100.0, phi=2.0)
    cmd = attitude_pd_lifts(att, phi=-2.0, dphi=0.0, params=params,
                            k_p_phi=120.0, k_d_phi=22.0)
    assert cmd.F1 == params.F_max
    assert 0.0 <= cmd.F2 <= params.F_max
    down = attitude_pd_lifts(AttitudeThrustCmd(f=0.5, phi=-2.0),
                             phi=2.0, dphi=0.0, params=params,
                             k_p_phi=120.0, k_d_phi=22.0)
    assert down.F1 == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_float_pairs_equal_reference(seed):
    # seeded call sequences: errors large enough to clamp the integral at
    # both limits, calls inside the handover window, dt = 0 and a signed zero
    rng = np.random.default_rng(seed)
    gains = ControllerGains(
        k_p=rng.uniform(0.0, 10.0), k_v=rng.uniform(0.0, 6.0),
        k_i=rng.uniform(0.0, 2.0), delta_t=rng.uniform(0.0, 0.3),
        i_limit=rng.choice([0.0, 0.02, 0.5]))
    ctl, ref = TrackingController(gains), ReferenceController(gains)
    hit = {"upper": False, "lower": False, "window": False, "dt0": False}
    T = 2.0
    for k in range(400):
        scale = rng.choice([0.0, 0.01, 1.0, 20.0])
        pairs = [tuple(float(x) for x in rng.normal(0.0, scale, 2)) for _ in range(5)]
        if k % 37 == 0:
            pairs[0] = (-0.0, 0.0)
        t = rng.uniform(0.0, T + 0.1)
        dt = 0.0 if k % 11 == 0 else rng.choice([1.0 / 30.0, 0.3])
        got = ctl.command(*pairs, t, T, dt)
        want = ref.command(*[np.array(p) for p in pairs], t, T, dt)
        assert isinstance(got, tuple) and len(got) == 2
        assert _bits(got) == _bits(want), k
        assert _bits(ctl.integral) == _bits(ref.integral), k
        lim = gains.i_limit
        hit["upper"] |= lim > 0.0 and lim in ctl.integral
        hit["lower"] |= lim > 0.0 and -lim in ctl.integral
        hit["window"] |= t > T - gains.delta_t
        hit["dt0"] |= dt == 0.0
    assert hit["window"] and hit["dt0"]
    if gains.i_limit > 0.0:
        assert hit["upper"] and hit["lower"]


def test_handover_returns_the_reference_pair():
    ctl = TrackingController()
    out = ctl.command((1.0, 2.0), (0.5, 0.5), (0.25, -3.5), (0.0, 0.0), (0.0, 0.0),
                      t=1.95, T=2.0, dt=0.01)
    assert out == (0.25, -3.5)
    assert ctl.integral == (0.0, 0.0)
