"""Independent cross-checks for the analytic planner components.

Each oracle recomputes a result by a different route than the production
code: quintic interpolation by a direct linear solve, minimum-jerk by an
equality-constrained quadratic program over a richer basis, minimum time by
exhaustive scan, and trajectory consistency by forward integration of the
recovered rotor lifts.  Tests and the oracle CLI suites compare the two
routes.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .dynamics import QuadParams, QuadState, RotorCommand, integrate, step_schedule
from .flatness import (
    Constraints,
    FreeFallSingularityError,
    check_feasible,
    flat_to_attitude,
    flat_to_attitude_rate,
    flat_to_lifts,
)
from .minjerk import AxisBoundary, AxisTrajectory, solve_axis
from .surface import SurfacePrediction
from .terminal import PerchConditions, get_terminal_states
from .timesearch import FlatState, _solve_pair


def hermite_quintic(b: AxisBoundary, T: float, ts: np.ndarray) -> np.ndarray:
    """Quintic interpolant of the six boundary conditions, evaluated at ts.

    Solved directly in the monomial basis: the first three coefficients come
    from the initial conditions, the last three from a 3x3 linear system at
    the far end.  Independent of any closed-form coefficient map.
    """
    a0 = b.p0
    a1 = b.v0
    a2 = 0.5 * b.a0
    M = np.array([
        [T ** 3, T ** 4, T ** 5],
        [3 * T ** 2, 4 * T ** 3, 5 * T ** 4],
        [6 * T, 12 * T ** 2, 20 * T ** 3],
    ])
    rhs = np.array([
        b.pT - (a0 + a1 * T + a2 * T ** 2),
        b.vT - (a1 + 2 * a2 * T),
        b.aT - 2 * a2,
    ])
    a3, a4, a5 = np.linalg.solve(M, rhs)
    t = np.asarray(ts, dtype=float)
    return a0 + a1 * t + a2 * t ** 2 + a3 * t ** 3 + a4 * t ** 4 + a5 * t ** 5


def qp_min_jerk(b: AxisBoundary, T: float, ts: np.ndarray, degree: int = 9) -> np.ndarray:
    """Minimum-jerk trajectory by an equality-constrained QP, evaluated at ts.

    The position is a degree-`degree` polynomial in normalized time tau =
    t/T; the squared-jerk Gram matrix and the six endpoint constraints form a
    KKT system.  The basis strictly contains the quintic family, so the
    optimum must coincide with the closed-form solution.
    """
    n = degree + 1
    Q = np.zeros((n, n))
    for i in range(3, n):
        ci = i * (i - 1) * (i - 2)
        for j in range(3, n):
            cj = j * (j - 1) * (j - 2)
            Q[i, j] = ci * cj / (i + j - 5)
    A = np.zeros((6, n))
    rhs = np.zeros(6)
    A[0, 0] = 1.0
    rhs[0] = b.p0
    A[1, 1] = 1.0
    rhs[1] = b.v0 * T
    A[2, 2] = 2.0
    rhs[2] = b.a0 * T * T
    k = np.arange(n)
    A[3, :] = 1.0
    rhs[3] = b.pT
    A[4, :] = k
    rhs[4] = b.vT * T
    A[5, :] = k * (k - 1)
    rhs[5] = b.aT * T * T
    kkt = np.zeros((n + 6, n + 6))
    kkt[:n, :n] = 2.0 * Q
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    full_rhs = np.concatenate([np.zeros(n), rhs])
    sol = np.linalg.solve(kkt, full_rhs)
    alpha = sol[:n]
    tau = np.asarray(ts, dtype=float) / T
    return np.polyval(alpha[::-1], tau)


def brute_force_min_time(
    s0: FlatState,
    pred: SurfacePrediction,
    cond: PerchConditions,
    t_lo: float,
    t_hi: float,
    c: Constraints,
    params: QuadParams,
    resolution: float = 1e-3,
) -> Optional[float]:
    """First feasible horizon of an exhaustive scan of [t_lo, t_hi]."""
    n = int(math.floor((t_hi - t_lo) / resolution))
    for k in range(n + 1):
        T = t_lo + k * resolution
        if T <= 0:
            continue
        sT = get_terminal_states(pred, T, cond)
        ty, tz = _solve_pair(s0, sT, T)
        if check_feasible(ty, tz, c, params):
            return T
    return None


def roundtrip_position_error(
    traj_y: AxisTrajectory,
    traj_z: AxisTrajectory,
    params: QuadParams,
    dt: float = 1e-4,
) -> float:
    """Max position gap between a trajectory pair and its integrated lifts.

    The rotor lifts recovered along the pair are integrated open loop through
    the rigid-body model from the exact initial state (attitude and roll rate
    included); the flown positions are compared against the polynomials at
    every step.
    """
    T = traj_y.T

    # integrate samples the lifts at the start, middle and end of each step;
    # evaluate them all in one array pass and look them up by instant
    stages = [
        t for start, step in step_schedule(0.0, T, dt)
        for t in (start, start + 0.5 * step, start + step)
    ]
    te = np.clip(np.array(stages), 0.0, T)
    _, _, ay, jy, sy = traj_y.eval(te)
    _, _, az, jz, sz = traj_z.eval(te)
    f1, f2 = flat_to_lifts(ay, az, jy, jz, sy, sz, params)
    if np.isnan(f1).any():
        raise FreeFallSingularityError("lifts undefined in exact free fall")
    lifts = dict(zip(stages, map(RotorCommand, f1.tolist(), f2.tolist())))

    _, _, ay0, jy0, _ = traj_y.eval(0.0)
    _, _, az0, jz0, _ = traj_z.eval(0.0)
    state0 = QuadState(
        y=traj_y.p0, z=traj_z.p0, dy=traj_y.v0, dz=traj_z.v0,
        phi=flat_to_attitude(ay0, az0, params.g),
        dphi=flat_to_attitude_rate(ay0, az0, jy0, jz0, params.g),
    )
    _, hist = integrate(state0, lifts.__getitem__, 0.0, T, dt, params, record=True)
    t_hist = np.minimum(np.array([t for t, _ in hist]), T)
    flown = np.array([(s.y, s.z) for _, s in hist])
    err_y = np.abs(flown[:, 0] - traj_y.eval(t_hist)[0])
    err_z = np.abs(flown[:, 1] - traj_z.eval(t_hist)[0])
    return float(max(err_y.max(), err_z.max()))


def minjerk_suite(n: int = 1000, seed: int = 20240) -> dict:
    """Closed form vs QP oracle on n random boundary instances.

    Every fourth instance is rest-to-rest and additionally checked against
    the direct quintic interpolant.  Returns max position deviation over a
    97-point grid and max relative boundary-state error at the endpoints.
    """
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    max_bnd = 0.0
    for i in range(n):
        rest = i % 4 == 0
        if rest:
            b = AxisBoundary(rng.uniform(-3, 3), 0.0, 0.0, rng.uniform(-3, 3), 0.0, 0.0)
        else:
            b = AxisBoundary(
                rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(-5, 5),
                rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(-5, 5))
        T = rng.uniform(0.2, 3.0)
        ts = np.linspace(0.0, T, 97)
        traj = solve_axis(b, T)
        p = traj.eval(ts)[0]
        max_dev = max(max_dev, float(np.max(np.abs(p - qp_min_jerk(b, T, ts)))))
        if rest:
            max_dev = max(max_dev, float(np.max(np.abs(p - hermite_quintic(b, T, ts)))))
        for t, want in ((0.0, (b.p0, b.v0, b.a0)), (T, (b.pT, b.vT, b.aT))):
            got = traj.eval(t)[:3]
            for gv, wv in zip(got, want):
                max_bnd = max(max_bnd, abs(gv - wv) / max(1.0, abs(wv)))
    return {
        "n": n,
        "max_position_dev": max_dev,
        "max_boundary_rel": max_bnd,
        "ok": max_dev < 1e-6 and max_bnd < 1e-9,
    }


def roundtrip_suite(n: int = 100, seed: int = 20241, dt: float = 1e-4) -> dict:
    """Forward-integration consistency on n random feasible pairs, T <= 2 s."""
    rng = np.random.default_rng(seed)
    params = QuadParams(m=0.945)
    c = Constraints(z_min=-50.0, z_max=50.0, v_min=-6.0, v_max=6.0,
                    F_max=2.0 * params.m * params.g)
    max_err = 0.0
    count = 0
    while count < n:
        T = rng.uniform(0.5, 2.0)
        by = AxisBoundary(
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-2, 2),
            rng.uniform(-1, 1) + rng.uniform(0.5, 2.5), rng.uniform(-1, 1), rng.uniform(-2, 2))
        bz = AxisBoundary(
            rng.uniform(0.5, 1.5), rng.uniform(-1, 1), rng.uniform(-2, 2),
            rng.uniform(0.5, 1.5), rng.uniform(-1, 1), rng.uniform(-2, 2))
        ty = solve_axis(by, T)
        tz = solve_axis(bz, T)
        if not check_feasible(ty, tz, c, params):
            continue
        count += 1
        max_err = max(max_err, roundtrip_position_error(ty, tz, params, dt))
    return {"n": n, "max_position_err": max_err, "ok": max_err < 1e-4}


def timesearch_suite(n: int = 100, seed: int = 20242) -> dict:
    """Window search vs 1 ms exhaustive scan on n randomized setups.

    Each setup seeds the search by the linear initialization scan, runs one
    planning cycle, and scans the same window exhaustively.  A found horizon
    must land within the bisection tolerance of the scan's first feasible
    horizon and its trajectories must pass the feasibility screen; a
    fallback is consistent only when the scan also comes up empty.
    """
    from .timesearch import BISECT_TOL, FOUND, initialize, plan
    from .timesearch import InitializationFailedError

    rng = np.random.default_rng(seed)
    params = QuadParams(m=0.945)
    c = Constraints(z_min=-2.0, z_max=5.0, v_min=-2.5, v_max=2.5,
                    F_max=params.F_max)
    max_gap = 0.0
    worst_infeasible = 0
    count = 0
    while count < n:
        pred = SurfacePrediction(
            y0=rng.uniform(1.5, 3.0),
            vy=float(rng.choice([0.0, 1.0]) * rng.uniform(-1.0, 1.0)),
            z0=rng.uniform(0.8, 1.2),
            phi_s=rng.uniform(math.radians(40), math.radians(90)),
            t_fit=0.0)
        s0 = FlatState(0.0, rng.uniform(-0.2, 0.2), 0.0,
                       rng.uniform(0.9, 1.5), rng.uniform(-0.2, 0.2), 0.0)
        cond = PerchConditions(0.3, rng.uniform(-0.6, -0.1), rng.uniform(0.07, 0.33))
        try:
            st = initialize(s0, pred, cond, c, params)
        except InitializationFailedError:
            continue
        count += 1
        lo, hi = 0.5 * st.T_last, 1.5 * st.T_last
        res = plan(st, s0, pred, cond, c, params)
        brute = brute_force_min_time(s0, pred, cond, lo, hi, c, params)
        if res.outcome == FOUND:
            if brute is None or abs(res.T - brute) > BISECT_TOL:
                worst_infeasible += 1
                continue
            max_gap = max(max_gap, abs(res.T - brute))
            ty, tz = res.trajectories
            if not check_feasible(ty, tz, c, params):
                worst_infeasible += 1
        else:
            if brute is not None:
                worst_infeasible += 1
    return {
        "n": n,
        "max_time_gap": max_gap,
        "violations": worst_infeasible,
        "ok": worst_infeasible == 0,
    }
