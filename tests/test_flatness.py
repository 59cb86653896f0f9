"""Flat-output maps and the sampled feasibility screen."""

import math

import numpy as np
import pytest

from perchsim.dynamics import QuadParams
from perchsim.flatness import (
    ALTITUDE,
    LIFT,
    VELOCITY,
    Constraints,
    FreeFallSingularityError,
    check_feasible,
    feasible_rows,
    flat_to_attitude,
    flat_to_attitude_rate,
    flat_to_lifts,
)
from perchsim.minjerk import AxisBoundary, AxisTrajectory, solve_axis

PARAMS = QuadParams(m=0.945)
G = PARAMS.g


def test_attitude_level_flight():
    assert flat_to_attitude(0.0, 0.0) == 0.0


def test_attitude_frozen_case():
    assert flat_to_attitude(1.1, -2.3) == pytest.approx(-0.14562838057082264, abs=1e-15)


def test_attitude_quadrants():
    # accelerating toward -y tilts positive, past free fall flips the sign of the pull
    assert flat_to_attitude(-1.0, 0.0) > 0.0
    assert abs(flat_to_attitude(1.0, -2.0 * G)) > math.pi / 2


def test_attitude_singularity():
    with pytest.raises(FreeFallSingularityError):
        flat_to_attitude(0.0, -G)
    with pytest.raises(FreeFallSingularityError):
        flat_to_attitude_rate(0.0, -G, 1.0, 1.0)


def test_attitude_rate_matches_finite_difference():
    ay, az, jy, jz = 0.8, -1.5, 2.0, -3.0
    h = 1e-7
    fd = (flat_to_attitude(ay + jy * h, az + jz * h) - flat_to_attitude(ay - jy * h, az - jz * h)) / (2 * h)
    assert flat_to_attitude_rate(ay, az, jy, jz) == pytest.approx(fd, rel=1e-6)


def test_lift_difference_matches_finite_difference():
    # the roll acceleration inside flat_to_lifts is d/dt of the rate formula
    ay, az, jy, jz, sy, sz = 0.8, -1.5, 2.0, -3.0, 1.0, 4.0
    h = 1e-6
    r_plus = flat_to_attitude_rate(ay + jy * h, az + jz * h, jy + sy * h, jz + sz * h)
    r_minus = flat_to_attitude_rate(ay - jy * h, az - jz * h, jy - sy * h, jz - sz * h)
    ddphi_fd = (r_plus - r_minus) / (2 * h)
    f1, f2 = flat_to_lifts(ay, az, jy, jz, sy, sz, PARAMS)
    assert (f1 - f2) * PARAMS.d_s / PARAMS.J == pytest.approx(ddphi_fd, rel=1e-6)


def test_lift_sum_is_specific_force():
    ay, az = 1.2, 0.4
    f1, f2 = flat_to_lifts(ay, az, 0.0, 0.0, 0.0, 0.0, PARAMS)
    assert f1 == f2
    assert f1 + f2 == pytest.approx(PARAMS.m * math.hypot(ay, az + G), rel=1e-14)


def _hover_pair(T=1.0, z=1.0):
    b = AxisBoundary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    bz = AxisBoundary(z, 0.0, 0.0, z, 0.0, 0.0)
    return solve_axis(b, T), solve_axis(bz, T)


def test_feasible_hover():
    ty, tz = _hover_pair()
    c = Constraints(z_min=0.0, z_max=2.0, v_min=-1.0, v_max=1.0, F_max=PARAMS.m * G)
    res = check_feasible(ty, tz, c, PARAMS)
    assert res.feasible and bool(res)


def test_altitude_violation_reported_first():
    ty, tz = _hover_pair(z=3.0)
    c = Constraints(z_min=0.0, z_max=2.0, v_min=-1.0, v_max=1.0, F_max=PARAMS.m * G)
    res = check_feasible(ty, tz, c, PARAMS)
    assert not res.feasible
    assert res.violation == ALTITUDE
    assert res.t == 0.0
    assert res.value == pytest.approx(3.0)


def test_velocity_violation():
    # gentle enough that the lifts stay legal, fast enough to break the band
    ty = solve_axis(AxisBoundary(0.0, 0.0, 0.0, 0.5, 0.0, 0.0), 1.0)
    tz = solve_axis(AxisBoundary(1.0, 0.0, 0.0, 1.0, 0.0, 0.0), 1.0)
    c = Constraints(z_min=0.0, z_max=2.0, v_min=-0.5, v_max=0.5, F_max=100.0)
    res = check_feasible(ty, tz, c, PARAMS)
    assert res.violation == VELOCITY


def test_lift_violation():
    tz = solve_axis(AxisBoundary(1.0, 0.0, 0.0, 1.5, 0.0, 0.0), 0.25)
    ty = solve_axis(AxisBoundary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.25)
    c = Constraints(z_min=0.0, z_max=5.0, v_min=-20.0, v_max=20.0, F_max=0.5 * PARAMS.m * G)
    res = check_feasible(ty, tz, c, PARAMS)
    assert res.violation == LIFT


def test_free_fall_sample_is_a_lift_violation():
    # az climbs linearly through -g and hits it exactly at the middle sample
    ty = AxisTrajectory(c1=0.0, c2=0.0, c3=0.0, p0=0.0, v0=0.0, a0=0.0, T=1.0)
    tz = AxisTrajectory(c1=0.0, c2=0.0, c3=4.0, p0=10.0, v0=0.0, a0=-G - 2.0, T=1.0)
    assert tz.eval(0.5)[2] == -G and ty.eval(0.5)[2] == 0.0
    c = Constraints(z_min=0.0, z_max=20.0, v_min=-20.0, v_max=20.0, F_max=PARAMS.m * G,
                    n_samples=5)
    res = check_feasible(ty, tz, c, PARAMS)
    assert res.violation == LIFT
    assert res.t == 0.5
    assert math.isnan(res.value)


def test_free_fall_lifts():
    with pytest.raises(FreeFallSingularityError):
        flat_to_lifts(0.0, -G, 0.0, 0.0, 0.0, 0.0, PARAMS)
    # elementwise on arrays: only the free-fall entry is undefined
    f1, f2 = flat_to_lifts(np.zeros(2), np.array([-G, 0.0]), np.zeros(2), np.zeros(2),
                           np.zeros(2), np.zeros(2), PARAMS)
    assert np.isnan(f1[0]) and np.isnan(f2[0])
    assert (f1[1], f2[1]) == flat_to_lifts(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, PARAMS)


def test_bound_sample_counts_as_violation():
    # resting exactly on z_min is rejected, the band is open
    ty, tz = _hover_pair(z=1.0)
    c = Constraints(z_min=1.0, z_max=2.0, v_min=-1.0, v_max=1.0, F_max=PARAMS.m * G)
    assert not check_feasible(ty, tz, c, PARAMS).feasible


def test_mismatched_horizons_rejected():
    ty, _ = _hover_pair(T=1.0)
    _, tz = _hover_pair(T=2.0)
    c = Constraints(z_min=0.0, z_max=2.0, v_min=-1.0, v_max=1.0, F_max=10.0)
    with pytest.raises(ValueError):
        check_feasible(ty, tz, c, PARAMS)


def test_constraints_validation():
    with pytest.raises(ValueError):
        Constraints(z_min=1.0, z_max=1.0, v_min=-1.0, v_max=1.0, F_max=1.0)
    with pytest.raises(ValueError):
        Constraints(z_min=0.0, z_max=1.0, v_min=1.0, v_max=-1.0, F_max=1.0)
    with pytest.raises(ValueError):
        Constraints(z_min=0.0, z_max=1.0, v_min=-1.0, v_max=1.0, F_max=1.0, n_samples=1)


def _stack(pairs):
    """Row-stack scalar trajectory pairs into one pair of (n, 1) columns."""
    def col(trajs, field):
        return np.array([getattr(t, field) for t in trajs]).reshape(-1, 1)
    fields = ("c1", "c2", "c3", "p0", "v0", "a0", "T")
    ty, tz = zip(*pairs)
    return (AxisTrajectory(**{f: col(ty, f) for f in fields}),
            AxisTrajectory(**{f: col(tz, f) for f in fields}))


def test_feasible_rows_match_scalar_screen():
    # rows of different horizons, one per verdict kind, screened in one call
    c = Constraints(z_min=1.0, z_max=2.0, v_min=-1.0, v_max=1.0, F_max=0.6 * PARAMS.m * G,
                    n_samples=5)
    pairs = [
        _hover_pair(z=1.5),                                     # feasible
        _hover_pair(z=3.0),                                     # altitude
        (solve_axis(AxisBoundary(0.0, 0.0, 0.0, 2.0, 0.0, 0.0), 2.0),
         solve_axis(AxisBoundary(1.5, 0.0, 0.0, 1.5, 0.0, 0.0), 2.0)),   # velocity
        (solve_axis(AxisBoundary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.6),
         solve_axis(AxisBoundary(1.5, 0.0, 0.0, 1.8, 0.0, 0.0), 0.6)),   # lift
        (AxisTrajectory(c1=0.0, c2=0.0, c3=0.0, p0=0.0, v0=0.0, a0=0.0, T=1.0),
         AxisTrajectory(c1=0.0, c2=0.0, c3=4.0, p0=1.5, v0=0.0, a0=-G, T=1.0)),  # free fall at t=0
        _hover_pair(z=1.0),                                     # exactly on z_min
    ]
    verdicts = [check_feasible(ty, tz, c, PARAMS) for ty, tz in pairs]
    assert [v.violation for v in verdicts] == [None, ALTITUDE, VELOCITY, LIFT, LIFT, ALTITUDE]
    assert math.isnan(verdicts[4].value)
    assert verdicts[5].value == c.z_min
    rows = feasible_rows(*_stack(pairs), c, PARAMS)
    assert rows.shape == (len(pairs),)
    assert rows.tolist() == [bool(v) for v in verdicts]
