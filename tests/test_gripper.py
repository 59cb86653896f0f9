"""Engaged-cup selection, the impact outcome rules and cup adhesion."""

import math

import pytest

from perchsim.gripper import (
    A_FAILURE,
    V_FAILURE,
    AdhesionModel,
    GripperGeometry,
    PerchEnvelope,
    adhesion_force,
    judge_perch,
    select_cup,
)

ALPHA = math.radians(30.0)


def test_adhesion_two_cups():
    F_G, F_f = adhesion_force(AdhesionModel())
    assert F_G == pytest.approx(86.94357668809752, rel=1e-12)
    assert F_f == pytest.approx(26.083073006429256, rel=1e-12)
    assert F_f == pytest.approx(0.3 * F_G, rel=1e-12)
    one_G, _ = adhesion_force(AdhesionModel(), n_cups=1)
    assert one_G == pytest.approx(0.5 * F_G, rel=1e-12)
    with pytest.raises(ValueError):
        adhesion_force(AdhesionModel(), n_cups=0)


def test_select_cup_nearest_offset():
    assert select_cup(0.0, 0.0, ALPHA) == (0, 0.0)
    idx, resid = select_cup(0.0, math.radians(25.0), ALPHA)
    assert idx == 1
    assert resid == pytest.approx(math.radians(-5.0), abs=1e-12)
    idx, resid = select_cup(0.0, math.radians(-20.0), ALPHA)
    assert idx == -1
    assert resid == pytest.approx(math.radians(10.0), abs=1e-12)


def test_select_cup_tie_follows_rolling_direction():
    half = ALPHA / 2.0
    assert select_cup(0.0, half, ALPHA)[0] == 0      # at rest the center cup wins
    assert select_cup(0.5, half, ALPHA)[0] == 1      # rolling up takes the upper cup
    assert select_cup(-0.5, -half, ALPHA)[0] == -1   # rolling down takes the lower


def test_judge_perch_regions():
    env = PerchEnvelope()
    ok, why = judge_perch(0.1, 0.2, -0.5, env)
    assert ok and why is None
    ok, why = judge_perch(math.radians(40.0), 0.2, -0.5, env)
    assert not ok and why == A_FAILURE
    ok, why = judge_perch(0.1, 0.2, -0.01, env)      # too soft
    assert not ok and why == V_FAILURE
    ok, why = judge_perch(0.1, 0.2, -1.5, env)       # bounce-hard
    assert not ok and why == V_FAILURE
    ok, why = judge_perch(0.1, -0.3, -0.5, env)      # sliding down
    assert not ok and why == V_FAILURE


def test_judge_perch_attitude_wins_ties():
    env = PerchEnvelope()
    ok, why = judge_perch(math.radians(-45.0), 5.0, 3.0, env)
    assert not ok and why == A_FAILURE


def test_judge_perch_boundary_inclusive():
    env = PerchEnvelope()
    ok, _ = judge_perch(env.phi_e_max, env.vt_max, env.vn_max, env)
    assert ok
    ok, _ = judge_perch(env.phi_e_min, env.vt_min, env.vn_min, env)
    assert ok


def test_geometry_validation():
    with pytest.raises(ValueError):
        GripperGeometry(r_w=0.0)
    with pytest.raises(ValueError):
        GripperGeometry(alpha_w=-1.0)


def test_envelope_and_adhesion_validation():
    with pytest.raises(ValueError):
        PerchEnvelope(vt_min=2.0)           # min above max
    with pytest.raises(ValueError):
        AdhesionModel(P_G=100.0)
    with pytest.raises(ValueError):
        AdhesionModel(mu=0.0)
