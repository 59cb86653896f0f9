"""Rigid-body model: equilibria, ballistic limits, integrator order."""

import math

import pytest

from perchsim.dynamics import (
    GRAVITY,
    IntegrationDivergedError,
    QuadParams,
    QuadState,
    RotorCommand,
    derivative,
    integrate,
    rk4_step,
)

PARAMS = QuadParams(m=0.945)


def test_hover_is_equilibrium():
    hover = RotorCommand(0.5 * PARAMS.m * GRAVITY, 0.5 * PARAMS.m * GRAVITY)
    d = derivative(QuadState(z=1.0), hover, PARAMS)
    assert d == pytest.approx((0.0,) * 6, abs=1e-12)


def test_free_fall_matches_closed_form():
    # no lift: pure ballistic drop, attitude frozen
    s0 = QuadState(y=0.5, z=2.0, dy=0.3, dz=0.1, phi=0.2)
    t1 = 0.8
    s1, _ = integrate(s0, lambda t: RotorCommand(0.0, 0.0), 0.0, t1, 1e-3, PARAMS)
    assert s1.y == pytest.approx(0.5 + 0.3 * t1, abs=1e-10)
    assert s1.z == pytest.approx(2.0 + 0.1 * t1 - 0.5 * GRAVITY * t1 * t1, abs=1e-9)
    assert s1.phi == pytest.approx(0.2, abs=1e-12)


def test_differential_lift_spins():
    cmd = RotorCommand(5.0, 4.0)
    d = derivative(QuadState(), cmd, PARAMS)
    assert d[5] == pytest.approx(1.0 * PARAMS.d_s / PARAMS.J, abs=1e-12)


def test_tilt_turns_lift_lateral():
    hover = RotorCommand(0.5 * PARAMS.m * GRAVITY, 0.5 * PARAMS.m * GRAVITY)
    d = derivative(QuadState(phi=math.pi / 2), hover, PARAMS)
    assert d[2] == pytest.approx(-GRAVITY, abs=1e-12)   # all thrust along -y
    assert d[3] == pytest.approx(-GRAVITY, abs=1e-12)   # nothing holds it up


def test_rk4_fourth_order():
    # halving dt should shrink the error by about 2^4
    s0 = QuadState(z=1.0, dphi=2.0)
    cmd = lambda t: RotorCommand(4.0 + math.sin(3.0 * t), 4.0 - math.cos(2.0 * t))
    ref, _ = integrate(s0, cmd, 0.0, 1.0, 1e-5, PARAMS)

    def err(dt):
        s, _ = integrate(s0, cmd, 0.0, 1.0, dt, PARAMS)
        return abs(s.y - ref.y) + abs(s.z - ref.z) + abs(s.phi - ref.phi)

    e1, e2 = err(4e-3), err(2e-3)
    assert e1 / e2 > 10.0


def test_integrate_checks_span_and_step():
    s0 = QuadState()
    with pytest.raises(ValueError):
        integrate(s0, lambda t: RotorCommand(0, 0), 1.0, 1.0, 1e-3, PARAMS)
    with pytest.raises(ValueError):
        integrate(s0, lambda t: RotorCommand(0, 0), 0.0, 1.0, 0.0, PARAMS)


def test_integrate_records_history():
    s0 = QuadState(z=1.0)
    hover = lambda t: RotorCommand(0.5 * PARAMS.m * GRAVITY, 0.5 * PARAMS.m * GRAVITY)
    _, hist = integrate(s0, hover, 0.0, 0.01, 1e-3, PARAMS, record=True)
    assert len(hist) == 10
    assert hist[-1][0] == pytest.approx(0.01, abs=1e-12)


def test_divergence_guard():
    runaway = lambda t: RotorCommand(1e9, 1e9)
    with pytest.raises(IntegrationDivergedError):
        integrate(QuadState(), runaway, 0.0, 5.0, 1e-3, PARAMS)


def test_param_validation():
    with pytest.raises(ValueError):
        QuadParams(m=0.0)
    with pytest.raises(ValueError):
        QuadParams(m=1.0, J=-0.01)
    # default lift ceiling: one pair carries the whole weight
    assert QuadParams(m=2.0).F_max == pytest.approx(2.0 * GRAVITY)


def test_rk4_single_step_matches_integrate():
    s0 = QuadState(z=1.0, dy=0.2)
    cmd = lambda t: RotorCommand(4.6, 4.7)
    a = rk4_step(s0, cmd, 0.0, 1e-3, PARAMS)
    b, _ = integrate(s0, cmd, 0.0, 1e-3, 1e-3, PARAMS)
    assert a.as_tuple() == b.as_tuple()


def test_negative_lift_ceiling_rejected():
    # only 0 selects the default ceiling; a negative one is a typo
    with pytest.raises(ValueError, match="F_max"):
        QuadParams(m=1.0, F_max=-5.0)
