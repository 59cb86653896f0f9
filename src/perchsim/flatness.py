"""Differential flatness of the planar vehicle and trajectory feasibility.

Position in the Y-Z plane is a flat output: attitude and the two pair lifts
are algebraic functions of its derivatives up to snap.  That lets a candidate
trajectory pair be screened against state and actuator limits by sampling,
with no integration in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import math

import numpy as np

from .dynamics import GRAVITY, QuadParams
from .minjerk import QUINTIC_FIELDS, AxisTrajectory

#: violation kinds reported by check_feasible
ALTITUDE = "altitude"
VELOCITY = "velocity"
LIFT = "lift"

_SINGULAR_EPS = 1e-12


class FreeFallSingularityError(ValueError):
    """Attitude is undefined at exact free fall (zdd + g = 0 and ydd = 0)."""


@dataclass(frozen=True)
class Constraints:
    """Sampled feasibility limits.

    Altitude band and per-axis velocity band follow the state limits; the lift
    band [0, F_max] applies to each rotor pair.  n_samples uniform instants
    over [0, T] are tested, endpoints included.
    """

    z_min: float
    z_max: float
    v_min: float
    v_max: float
    F_max: float
    n_samples: int = 50

    def __post_init__(self):
        if not self.z_min < self.z_max:
            raise ValueError("z band is empty")
        if not self.v_min < self.v_max:
            raise ValueError("velocity band is empty")
        if not self.F_max > 0:
            raise ValueError("screen lift ceiling F_max must be positive")
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples")


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    violation: Optional[str] = None  # ALTITUDE, VELOCITY or LIFT
    t: Optional[float] = None
    value: Optional[float] = None

    def __bool__(self) -> bool:
        return self.feasible


def flat_to_attitude(ay: float, az: float) -> float:
    """Roll angle realizing a flat-output acceleration, in (-pi, pi].

    Uses the two-argument arctangent so attitudes beyond +-90 deg (thrust
    pointing below the horizon) are still defined.

    Raises:
        FreeFallSingularityError: ay = 0 and az + g = 0.
    """
    b = az + GRAVITY
    if abs(ay) <= _SINGULAR_EPS and abs(b) <= _SINGULAR_EPS:
        raise FreeFallSingularityError("attitude undefined in exact free fall")
    return -math.atan2(ay, b)


def flat_to_attitude_rate(ay: float, az: float, jy: float, jz: float) -> float:
    """Roll rate along a flat trajectory, from acceleration and jerk.

    Raises:
        FreeFallSingularityError: acceleration sits at the free-fall point.
    """
    b = az + GRAVITY
    d = ay * ay + b * b
    if d <= _SINGULAR_EPS:
        raise FreeFallSingularityError("attitude rate undefined in exact free fall")
    return -(jy * b - ay * jz) / d


def flat_to_lifts(ay, az, jy, jz, sy, sz, params: QuadParams):
    """Pair lifts (F1, F2) realizing a flat trajectory point exactly.

    The lift sum is m times the thrust acceleration magnitude.  The lift
    difference follows from the roll acceleration, obtained by expanding the
    time derivative of the roll rate

        dphi = -(jy*b - ay*jz) / (ay^2 + b^2),   b = az + g

    by the quotient rule in terms of jerk and snap.  No numeric
    differentiation is involved.

    Works elementwise: the inputs are floats or arrays of one shape.  On
    arrays, a free-fall sample gets NaN lifts, which fail every bound check.

    Raises:
        FreeFallSingularityError: float inputs sit at the free-fall point.
    """
    a = ay
    b = az + GRAVITY
    d = a * a + b * b
    if isinstance(d, float):
        if d <= _SINGULAR_EPS:
            raise FreeFallSingularityError("lifts undefined in exact free fall")
    else:
        d = np.where(d <= _SINGULAR_EPS, np.nan, d)
    total = params.m * d ** 0.5
    n = jy * b - a * jz
    n_dot = sy * b - a * sz
    d_dot = 2.0 * (a * jy + b * jz)
    ddphi = -(n_dot * d - n * d_dot) / (d * d)
    diff = ddphi * params.J / params.d_s
    return (0.5 * (total + diff), 0.5 * (total - diff))


def _state_violations(pz, vy, vz, c: Constraints):
    """Altitude and velocity violation flags of sampled states, elementwise.

    A value sitting exactly on a bound counts as a violation; NaN violates
    nothing here.  Works on floats or arrays of one shape.
    """
    bad_alt = (pz <= c.z_min) | (pz >= c.z_max)
    bad_vel = (vy <= c.v_min) | (vy >= c.v_max) | (vz <= c.v_min) | (vz >= c.v_max)
    return bad_alt, bad_vel


def state_in_band(z: float, dy: float, dz: float, c: Constraints) -> bool:
    """Whether a state passes the screen's altitude and velocity bound tests.

    A trajectory pair starts at its initial state: every finite quintic
    samples exactly (p0, v0) at t = 0, and a non-finite one gets NaN lifts
    there.  So when the start state fails this test, every pair leaving it
    fails the screen at its first sample.
    """
    bad_alt, bad_vel = _state_violations(z, dy, dz, c)
    return not (bad_alt or bad_vel)


def _pair_row(traj_y: AxisTrajectory, traj_z: AxisTrajectory) -> AxisTrajectory:
    """One (y, z) trajectory pair as a stacked pair with a single row."""
    if np.any(traj_y.T != traj_z.T):
        raise ValueError("trajectory pair must share one horizon")
    return AxisTrajectory(
        *(np.array([getattr(traj_y, f), getattr(traj_z, f)], dtype=float).reshape(2, 1, 1)
          for f in QUINTIC_FIELDS),
        T=np.array([[traj_y.T]], dtype=float))


def sample_instants(T: np.ndarray, n: int) -> np.ndarray:
    """n uniform instants on [0, T[i]] for each row of a (k, 1) horizon column.

    Bit-equal to np.linspace(0.0, T[:, 0], n, axis=1) for positive finite
    T and n >= 2 (the same k * (T / (n - 1)) products and an exact T in the
    last column), without linspace's general-purpose overhead, which
    dominates the small screens of a FOUND cycle.
    """
    ts = np.arange(n, dtype=float) * (T / (n - 1))
    ts[:, -1] = T[:, 0]
    return ts


def _sample_states(pair: AxisTrajectory, ts: np.ndarray, c: Constraints):
    """Stage 1 of the screen: altitude and velocities at every sample, and
    their altitude and velocity violation masks."""
    (_, pz), (vy, vz) = pair.eval_state(ts)
    bad_alt, bad_vel = _state_violations(pz, vy, vz, c)
    return (pz, vy, vz), bad_alt, bad_vel


def _sample_lifts(pair: AxisTrajectory, ts: np.ndarray, c: Constraints, params: QuadParams):
    """Stage 2 of the screen: pair lifts at every sample from acceleration,
    jerk and snap, and the first-lift and any-lift violation masks.  A
    free-fall sample has NaN lifts, which fail the lift band."""
    (ay, az), (jy, jz), (sy, sz) = pair.eval_derivs(ts)
    f1, f2 = flat_to_lifts(ay, az, jy, jz, sy, sz, params)
    bad_f1 = ~((f1 >= 0.0) & (f1 <= c.F_max))
    bad_lift = bad_f1 | ~((f2 >= 0.0) & (f2 <= c.F_max))
    return (f1, f2), bad_f1, bad_lift


def check_feasible(
    traj_y: AxisTrajectory,
    traj_z: AxisTrajectory,
    c: Constraints,
    params: QuadParams,
) -> FeasibilityResult:
    """Screen a trajectory pair against altitude, velocity and lift limits.

    Both trajectories must share one horizon.  n_samples uniform instants in
    [0, T] are checked; a sample sitting exactly on a state bound counts as a
    violation.  The earliest offending sample wins, with altitude checked
    before velocity before lift at equal times.  A free-fall singularity at a
    sample is reported as a lift violation there with value NaN
    (conservative rejection).  The pair is screened as a one-row batch by
    both stages of the feasible_rows screen, each over every sample, since a
    lift violation can come before the first state violation.
    """
    pair = _pair_row(traj_y, traj_z)
    ts = sample_instants(pair.T, c.n_samples)
    pair.check_domain(ts)
    (pz, vy, vz), bad_alt, bad_vel = _sample_states(pair, ts, c)
    (f1, f2), bad_f1, bad_lift = _sample_lifts(pair, ts, c, params)
    bad_any = (bad_alt | bad_vel | bad_lift)[0]
    if not bad_any.any():
        return FeasibilityResult(True)
    i = (0, int(np.argmax(bad_any)))
    t_bad = float(ts[i])
    if bad_alt[i]:
        return FeasibilityResult(False, ALTITUDE, t_bad, float(pz[i]))
    if bad_vel[i]:
        v_bad = vy[i] if (vy[i] <= c.v_min or vy[i] >= c.v_max) else vz[i]
        return FeasibilityResult(False, VELOCITY, t_bad, float(v_bad))
    f_bad = f1[i] if bad_f1[i] else f2[i]
    return FeasibilityResult(False, LIFT, t_bad, float(f_bad))


def feasible_rows(pair: AxisTrajectory, c: Constraints, params: QuadParams) -> Tuple[np.ndarray, int]:
    """Screen a batch of trajectory pairs at once, one verdict per row.

    pair stacks the y quintics over the z quintics on a leading axis of 2,
    one pair per row of an (n, 1) horizon column, as solve_axis returns for
    stacked boundaries, so one evaluation samples both axes of every row;
    the sample instants are domain-checked once.  Row i's verdict equals
    bool(check_feasible(...)) on that row's pair: the same samples, the same
    lifts and the same bound tests.

    The screen runs in two stages.  Stage 1 samples altitude and velocity on
    every row and applies the state bounds.  Stage 2 evaluates acceleration,
    jerk, snap and the lifts only on the rows that pass stage 1, and writes
    their lift verdicts back by row index.  A row is feasible when it
    breaks no bound at any sample, so skipping the lifts of a row that
    already failed changes no verdict.  Returns the verdicts and the number
    of rows that reached stage 2.
    """
    ts = sample_instants(pair.T, c.n_samples)
    pair.check_domain(ts)
    _, bad_alt, bad_vel = _sample_states(pair, ts, c)
    ok = ~(bad_alt | bad_vel).any(axis=1)
    live = np.flatnonzero(ok)
    if live.size:
        _, _, bad_lift = _sample_lifts(pair.rows(live), ts[live], c, params)
        ok[live] = ~bad_lift.any(axis=1)
    return ok, int(live.size)
