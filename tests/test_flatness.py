"""Flat-output maps and the sampled feasibility screen."""

import math

import numpy as np
import pytest

import perchsim.flatness
import perchsim.timesearch
from perchsim.dynamics import GRAVITY, QuadParams
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
    sample_instants,
    state_in_band,
)
from perchsim.minjerk import AxisBoundary, AxisTrajectory, solve_axis

PARAMS = QuadParams(m=0.945)
G = GRAVITY


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


def test_state_in_band_uses_the_screen_bounds():
    c = Constraints(z_min=1.0, z_max=2.0, v_min=-1.0, v_max=1.0, F_max=10.0)
    assert state_in_band(1.5, 0.0, 0.0, c)
    # a value on a bound violates, as in the screen
    assert not state_in_band(1.0, 0.0, 0.0, c)
    assert not state_in_band(1.5, 1.0, 0.0, c)
    assert not state_in_band(1.5, 0.0, -1.0, c)
    assert not state_in_band(2.5, 0.0, 0.0, c)
    # NaN breaks no bound here; the screen rejects it through the lifts
    assert state_in_band(math.nan, 0.0, 0.0, c)
    # a pair leaving an out-of-band state fails at its first sample
    ty, tz = _hover_pair(z=1.0)
    res = check_feasible(ty, tz, c, PARAMS)
    assert (res.violation, res.t) == (ALTITUDE, 0.0)


def test_constraints_validation():
    with pytest.raises(ValueError):
        Constraints(z_min=1.0, z_max=1.0, v_min=-1.0, v_max=1.0, F_max=1.0)
    with pytest.raises(ValueError):
        Constraints(z_min=0.0, z_max=1.0, v_min=1.0, v_max=-1.0, F_max=1.0)
    with pytest.raises(ValueError):
        Constraints(z_min=0.0, z_max=1.0, v_min=-1.0, v_max=1.0, F_max=1.0, n_samples=1)


def _stack(pairs):
    """Row-stack scalar trajectory pairs into one stacked pair: y over z on a
    leading axis of 2, one row per pair over an (n, 1) horizon column."""
    def col(trajs, field):
        return np.array([getattr(t, field) for t in trajs]).reshape(-1, 1)
    fields = ("c1", "c2", "c3", "p0", "v0", "a0")
    ty, tz = zip(*pairs)
    return AxisTrajectory(**{f: np.stack((col(ty, f), col(tz, f))) for f in fields},
                          T=col(ty, "T"))


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
    rows, _ = feasible_rows(_stack(pairs), c, PARAMS)
    assert rows.shape == (len(pairs),)
    assert rows.tolist() == [bool(v) for v in verdicts]


# --- the one-pass screen, kept here as the reference for the two-stage one


def reference_feasible_rows(pair, c, params):
    """(verdicts, rows passing the state bounds) of the one-pass screen:
    every row sampled on np.linspace instants through the full eval, lifts
    from every sample, and all masks tested together."""
    ts = np.linspace(0.0, pair.T[:, 0], c.n_samples, axis=1)
    (_, pz), (vy, vz), (ay, az), (jy, jz), (sy, sz) = pair.eval(ts)
    f1, f2 = flat_to_lifts(ay, az, jy, jz, sy, sz, params)
    bad_state = (pz <= c.z_min) | (pz >= c.z_max) | (vy <= c.v_min) | (vy >= c.v_max) \
        | (vz <= c.v_min) | (vz >= c.v_max)
    bad_lift = ~((f1 >= 0.0) & (f1 <= c.F_max)) | ~((f2 >= 0.0) & (f2 <= c.F_max))
    in_band = ~bad_state.any(axis=1)
    return ~(bad_state | bad_lift).any(axis=1), int(in_band.sum())


def _row(pair, i):
    """Row i of a stacked pair as the (y, z) scalar trajectories it holds."""
    return tuple(AxisTrajectory(**{f: float(getattr(pair, f)[axis, i, 0])
                                   for f in ("c1", "c2", "c3", "p0", "v0", "a0")},
                                T=float(pair.T[i, 0]))
                 for axis in (0, 1))


def _random_pairs(n, seed=0, gain=1.0, T_min=0.3):
    """n stacked random pairs over horizons of T_min to T_min + 2.7 s; gain
    scales every velocity and acceleration boundary."""
    rng = np.random.default_rng(seed)
    T = rng.uniform(T_min, T_min + 2.7, (n, 1))

    def draw(y_lo, y_hi, z_lo, z_hi, k=1.0):
        return k * np.stack((rng.uniform(y_lo, y_hi, (n, 1)), rng.uniform(z_lo, z_hi, (n, 1))))
    b = AxisBoundary(draw(-1, 1, 1, 6), draw(-3, 3, -3, 3, gain), draw(-4, 4, -4, 4, gain),
                     draw(-2, 4, 0, 7), draw(-3, 3, -3, 3, gain), draw(-9, 9, -9, 9, gain))
    return solve_axis(b, T)


#: the random pairs fail every kind of bound under these limits
MIXED = Constraints(z_min=0.0, z_max=20.0, v_min=-5.0, v_max=5.0, F_max=PARAMS.m * G)


def _edge_pairs():
    """Rows at the edges of the two stages, under MIXED.

    free_fall: inside the state bands, az hits -g exactly at sample 16;
    last_lift: the lifts break F_max at the last sample only;
    z_min_last: lands exactly on z_min at the last sample.
    """
    T_exact = 49.0 / 64.0                        # sample k lies at exactly k / 64
    zero = AxisTrajectory(c1=0.0, c2=0.0, c3=0.0, p0=0.0, v0=0.0, a0=0.0, T=T_exact)
    free_fall = AxisTrajectory(c1=0.0, c2=0.0, c3=2.0, p0=10.0, v0=4.0, a0=-G - 0.5, T=T_exact)
    assert free_fall.eval(16.0 / 64.0)[2] == -G
    last_lift = AxisTrajectory(c1=0.0, c2=0.0, c3=12.9, p0=10.0, v0=0.0, a0=0.0, T=T_exact)
    zero_1 = AxisTrajectory(c1=0.0, c2=0.0, c3=0.0, p0=0.0, v0=0.0, a0=0.0, T=1.0)
    z_min_last = AxisTrajectory(c1=0.0, c2=0.0, c3=0.0, p0=1.0, v0=0.0, a0=-2.0, T=1.0)
    return {"free_fall": (zero, free_fall), "last_lift": (zero, last_lift),
            "z_min_last": (zero_1, z_min_last)}


def _assert_rows_match_reference(pair, c):
    """feasible_rows against the one-pass reference and check_feasible, row
    by row; returns the verdicts and the lift-stage row count."""
    ok, lifted = feasible_rows(pair, c, PARAMS)
    ref_ok, ref_in_band = reference_feasible_rows(pair, c, PARAMS)
    assert ok.dtype == bool and ok.shape == (len(pair.T),)
    assert ok.tolist() == ref_ok.tolist()
    assert lifted == ref_in_band
    assert ok.tolist() == [bool(check_feasible(*_row(pair, i), c, PARAMS)) for i in range(len(ok))]
    return ok, lifted


def test_edge_rows_of_each_stage():
    edges = _edge_pairs()
    res = {k: check_feasible(ty, tz, MIXED, PARAMS) for k, (ty, tz) in edges.items()}
    assert res["free_fall"].violation == LIFT and res["free_fall"].t == 16.0 / 64.0
    assert math.isnan(res["free_fall"].value)
    assert (res["last_lift"].violation, res["last_lift"].t) == (LIFT, 49.0 / 64.0)
    assert res["last_lift"].value > MIXED.F_max
    assert (res["z_min_last"].violation, res["z_min_last"].t, res["z_min_last"].value) == (
        ALTITUDE, 1.0, MIXED.z_min)
    # every edge row with a feasible hover on either side of it
    pairs = [_hover_pair(z=10.0)]
    for ty, tz in edges.values():
        pairs += [(ty, tz), _hover_pair(z=10.0)]
    ok, lifted = _assert_rows_match_reference(_stack(pairs), MIXED)
    assert ok.tolist() == [True, False, True, False, True, False, True]
    # the free-fall and last-sample lift rows reach the lift stage; the row
    # on z_min does not
    assert lifted == 6


def test_random_rows_match_reference():
    # more rows than one timesearch block, with the edge rows spread among them
    pair = _random_pairs(600)
    fields = ("c1", "c2", "c3", "p0", "v0", "a0", "T")
    edges = list(_edge_pairs().values())
    cols = {f: [getattr(pair, f)] for f in fields}
    for ty, tz in edges:
        for f in fields[:-1]:
            cols[f].append(np.array([getattr(ty, f), getattr(tz, f)]).reshape(2, 1, 1))
        cols["T"].append(np.array([[ty.T]]))
    order = np.random.default_rng(1).permutation(600 + len(edges))
    mixed = AxisTrajectory(**{f: np.concatenate(cols[f], axis=-2)[..., order, :] for f in fields})
    ok, lifted = _assert_rows_match_reference(mixed, MIXED)
    assert len(ok) > perchsim.timesearch.SCREEN_BLOCK
    # the batch mixes state failures, lift failures and feasible rows
    assert 0 < ok.sum() < lifted < len(ok)


def test_all_rows_fail_the_state_bounds_without_lifts(monkeypatch):
    pair = _random_pairs(500)
    high = Constraints(z_min=7.0, z_max=20.0, v_min=-50.0, v_max=50.0, F_max=PARAMS.F_max)
    ref_ok, ref_in_band = reference_feasible_rows(pair, high, PARAMS)
    assert ref_in_band == 0

    def no_lifts(*args):
        raise AssertionError("lifts evaluated for a row that failed the state bounds")

    monkeypatch.setattr(perchsim.flatness, "flat_to_lifts", no_lifts)
    ok, lifted = feasible_rows(pair, high, PARAMS)
    assert lifted == 0
    assert not ok.any() and ok.tolist() == ref_ok.tolist()


def test_all_rows_pass():
    # slow, gentle pairs: the lifts stay near hover
    pair = _random_pairs(500, gain=0.05, T_min=2.3)
    wide = Constraints(z_min=-1e3, z_max=1e3, v_min=-1e3, v_max=1e3, F_max=1e6)
    ok, lifted = _assert_rows_match_reference(pair, wide)
    assert ok.all() and lifted == 500


@pytest.mark.parametrize("n", [2, 5, 50])
def test_sample_instants_equal_linspace(n):
    T = np.concatenate((np.random.default_rng(n).uniform(0.01, 12.0, (200, 1)),
                        [[0.4], [1.0], [3.0], [10.0], [0.1]]))
    want = np.linspace(0.0, T[:, 0], n, axis=1)
    got = sample_instants(T, n)
    assert got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_constraints_need_a_positive_lift_ceiling():
    for F_max in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="F_max"):
            Constraints(z_min=0.0, z_max=1.0, v_min=-1.0, v_max=1.0, F_max=F_max)
