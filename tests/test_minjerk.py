"""Closed-form quintic solver against frozen oracle values and its contracts."""

import math

import numpy as np
import pytest

from perchsim.minjerk import AxisBoundary, AxisTrajectory, InvalidHorizonError, OutOfDomainError, solve_axis

B = AxisBoundary(p0=0.3, v0=-0.4, a0=1.2, pT=1.7, vT=0.5, aT=-0.8)
T = 1.3

# frozen from the direct quintic-interpolation oracle at t = 0.77
GOLDEN = {
    "p": 1.0572413150358366,
    "v": 1.8929678761517224,
    "a": -0.9384860581804697,
    "j": -14.870526511407462,
    "s": 21.01542447608776,
}


def test_golden_sample():
    traj = solve_axis(B, T)
    p, v, a, j, s = traj.eval(0.77)
    assert p == pytest.approx(GOLDEN["p"], abs=1e-12)
    assert v == pytest.approx(GOLDEN["v"], abs=1e-11)
    assert a == pytest.approx(GOLDEN["a"], abs=1e-10)
    assert j == pytest.approx(GOLDEN["j"], abs=1e-9)
    assert s == pytest.approx(GOLDEN["s"], abs=1e-9)


def test_boundary_reproduction():
    traj = solve_axis(B, T)
    assert traj.eval(0.0)[:3] == pytest.approx((B.p0, B.v0, B.a0), abs=1e-12)
    assert traj.eval(T)[:3] == pytest.approx((B.pT, B.vT, B.aT), abs=1e-9)


def test_rest_to_rest_shape():
    # symmetric profile: midpoint at the mean, peak velocity 15/8 dp/T
    b = AxisBoundary(0.0, 0.0, 0.0, 2.0, 0.0, 0.0)
    traj = solve_axis(b, 2.0)
    assert traj.eval(1.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert traj.eval(1.0)[1] == pytest.approx(15.0 / 8.0 * 2.0 / 2.0, abs=1e-12)
    assert traj.eval(1.0)[2] == pytest.approx(0.0, abs=1e-12)


def test_zero_displacement_is_identity():
    b = AxisBoundary(0.7, 0.0, 0.0, 0.7, 0.0, 0.0)
    traj = solve_axis(b, 1.0)
    for t in (0.0, 0.31, 0.8, 1.0):
        p, v, a, j, s = traj.eval(t)
        assert (p, v, a, j, s) == (0.7, 0.0, 0.0, 0.0, 0.0)


def test_eval_arrays_matches_eval():
    traj = solve_axis(B, T)
    ts = np.linspace(0.0, T, 23)
    arrays = traj.eval(ts)
    for i, t in enumerate(ts):
        scalar = traj.eval(float(t))
        for k in range(5):
            assert arrays[k][i] == scalar[k]


@pytest.mark.parametrize("bad_T", [0.0, -1.0, math.inf, math.nan])
def test_invalid_horizon(bad_T):
    with pytest.raises(InvalidHorizonError):
        solve_axis(B, bad_T)
    with pytest.raises(InvalidHorizonError):
        solve_axis(B, np.float64(bad_T))
    with pytest.raises(InvalidHorizonError):
        solve_axis(B, np.array([[bad_T]]))


def test_float_horizon_equals_one_row_column():
    # the flown pair solves a float T; it must equal the screen's column
    # solve of the same horizon bit for bit
    rng = np.random.default_rng(5)
    for _ in range(300):
        b = AxisBoundary(*(float(x) for x in rng.normal(0.0, 3.0, 6)))
        Ti = float(rng.choice([rng.uniform(0.05, 10.0), 1e-3, 0.4 + 0.05 * rng.integers(0, 190)]))
        got = solve_axis(b, Ti)
        col = solve_axis(b, np.array([[Ti]]))
        for f in ("c1", "c2", "c3"):
            assert np.array([getattr(got, f)]).tobytes() == getattr(col, f)[0].tobytes(), f
        assert type(got.c1) is float and got.T == Ti


def test_out_of_domain():
    traj = solve_axis(B, T)
    with pytest.raises(OutOfDomainError):
        traj.eval(-0.01)
    with pytest.raises(OutOfDomainError):
        traj.eval(T + 0.01)
    with pytest.raises(OutOfDomainError):
        traj.eval(np.array([0.0, T + 0.5]))
    with pytest.raises(OutOfDomainError):
        traj.eval(np.array([-0.5, 0.0]))


def test_int_instant_is_a_scalar():
    traj = solve_axis(AxisBoundary(0.0, 0.0, 0.0, 2.0, 0.0, 0.0), 1.0)
    assert traj.eval(0) == traj.eval(0.0)
    assert traj.eval(1) == traj.eval(1.0)
    with pytest.raises(OutOfDomainError):
        traj.eval(2)
    with pytest.raises(OutOfDomainError):
        traj.eval(-1)


def test_column_horizons_match_rows():
    # one quintic per row; each row is bit-equal to the scalar solve and eval
    Ts = [0.9, 1.3, 2.05]
    col = solve_axis(B, np.array(Ts).reshape(-1, 1))
    ts = np.linspace(0.0, np.array(Ts), 7, axis=1)
    rows = col.eval(ts)
    for i, Ti in enumerate(Ts):
        scalar = solve_axis(B, Ti)
        assert (col.c1[i, 0], col.c2[i, 0], col.c3[i, 0]) == (scalar.c1, scalar.c2, scalar.c3)
        expected = scalar.eval(np.linspace(0.0, Ti, 7))
        for k in range(5):
            assert np.array_equal(rows[k][i], expected[k])


def test_stacked_axes_match_rows():
    # y stacked over z on a leading axis of 2: one solve and one eval give
    # every axis of every row, each bit-equal to its own scalar solve and eval
    Bz = AxisBoundary(1.2, -0.3, 0.4, 0.9, 0.2, -1.1)
    Ts = [0.9, 1.3, 2.05]
    T = np.array(Ts).reshape(-1, 1)
    stacked = AxisBoundary(*(np.stack((np.full_like(T, getattr(B, f)), np.full_like(T, getattr(Bz, f))))
                             for f in ("p0", "v0", "a0", "pT", "vT", "aT")))
    pair = solve_axis(stacked, T)
    assert pair.c1.shape == (2, 3, 1)
    out = pair.eval(np.linspace(0.0, T[:, 0], 7, axis=1))
    assert out[0].shape == (2, 3, 7)
    for axis, b in enumerate((B, Bz)):
        for i, Ti in enumerate(Ts):
            scalar = solve_axis(b, Ti)
            assert (pair.c1[axis, i, 0], pair.c2[axis, i, 0], pair.c3[axis, i, 0]) == (
                scalar.c1, scalar.c2, scalar.c3)
            expected = scalar.eval(np.linspace(0.0, Ti, 7))
            for k in range(5):
                assert out[k][axis, i].tobytes() == expected[k].tobytes()


def test_column_domain_is_per_row():
    col = solve_axis(B, np.array([[1.0], [2.0]]))
    col.eval(np.array([[0.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(OutOfDomainError):
        # 1.5 is inside the second row's [0, 2] but outside the first row's
        col.eval(np.array([[0.0, 1.5], [0.0, 1.5]]))
    with pytest.raises(OutOfDomainError):
        col.eval(np.array([[0.0, 1.0], [-0.1, 2.0]]))
    with pytest.raises(InvalidHorizonError):
        solve_axis(B, np.array([[1.0], [0.0]]))


def test_coasting_initial_conditions():
    # with zero free coefficients the polynomial is the pure coast
    traj = AxisTrajectory(c1=0.0, c2=0.0, c3=0.0, p0=1.0, v0=2.0, a0=-1.0, T=3.0)
    t = 1.7
    assert traj.eval(t)[0] == pytest.approx(1.0 + 2.0 * t - 0.5 * t * t, abs=1e-14)


def test_row_subset_and_split_chains_match_eval():
    # eval_state and eval_derivs are eval's (p, v) and (a, j, s) parts; a
    # row subset of a stacked pair evaluates each kept row bit for bit as
    # the whole pair does
    Bz = AxisBoundary(1.2, -0.3, 0.4, 0.9, 0.2, -1.1)
    T = np.array([[0.9], [1.3], [2.05], [0.7]])
    stacked = AxisBoundary(*(np.stack((np.full_like(T, getattr(B, f)), np.full_like(T, getattr(Bz, f))))
                             for f in ("p0", "v0", "a0", "pT", "vT", "aT")))
    pair = solve_axis(stacked, T)
    ts = np.linspace(0.0, T[:, 0], 9, axis=1)
    full = pair.eval(ts)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(full, pair.eval_state(ts) + pair.eval_derivs(ts)))
    idx = np.array([3, 1])
    sub = pair.rows(idx)
    assert sub.c1.shape == (2, 2, 1) and sub.T.shape == (2, 1)
    assert sub.T.tobytes() == T[idx].tobytes()
    for got, want in zip(sub.eval(ts[idx]), full):
        assert got.tobytes() == want[:, idx].tobytes()
