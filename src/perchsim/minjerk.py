"""Closed-form minimum-jerk point-to-point trajectories for one axis.

Fixing position, velocity and acceleration at both ends of a horizon T and
minimizing the integral of squared jerk yields a quintic whose three free
coefficients follow from the boundary mismatch in closed form.  Both motion
axes use this solver independently and share one T; the solver and the
evaluator work elementwise, so both axes can also go through one call.
FlatState holds both axes' (p, v, a) at one end of such a pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


#: the fields of an AxisTrajectory besides its horizon T
QUINTIC_FIELDS = ("c1", "c2", "c3", "p0", "v0", "a0")


class InvalidHorizonError(ValueError):
    """Horizon is not a positive finite number."""


class OutOfDomainError(ValueError):
    """Evaluation instant lies outside [0, T]."""


@dataclass(frozen=True)
class AxisBoundary:
    """Boundary conditions for one axis: start and end (p, v, a)."""

    p0: float
    v0: float
    a0: float
    pT: float
    vT: float
    aT: float


@dataclass(frozen=True)
class FlatState:
    """Flat-output state of the vehicle: position, velocity, acceleration.

    A plan starts from one and ends at one.  For a column of horizons the
    fields may be arrays: the terminal states of an (n, 1) column hold
    arrays of that shape in the fields that depend on the horizon.
    """

    y: float
    dy: float
    ddy: float
    z: float
    dz: float
    ddz: float


@dataclass(frozen=True)
class AxisTrajectory:
    """Quintic minimum-jerk trajectory on [0, T] for a single axis.

    c1, c2, c3 are the jerk-chain coefficients; together with the initial
    conditions they fix the polynomial:

        p(t) = c1/120 t^5 + c2/24 t^4 + c3/6 t^3 + a0/2 t^2 + v0 t + p0
    """

    c1: float
    c2: float
    c3: float
    p0: float
    v0: float
    a0: float
    T: float

    def eval(self, t):
        """Position, velocity, acceleration, jerk and snap at instant t.

        t is a scalar (float or int) or an array of instants.  The fields may
        also be (n, 1) columns, one row per horizon, as solve_axis returns
        for a column T; t is then an (n, m) array of instants whose row i
        lies in [0, T[i]], and the outputs broadcast to (n, m).  Fields that
        stack several axes in front of those columns, such as the (2, n, 1)
        y-over-z stacks of a trajectory pair, give (2, n, m) outputs from
        the same elementwise arithmetic.

        Raises:
            OutOfDomainError: t (or any of its instants) is outside [0, T].
        """
        self.check_domain(t)
        return self.eval_state(t) + self.eval_derivs(t)

    def check_domain(self, t) -> None:
        """Raise OutOfDomainError unless every instant of t lies in [0, T]."""
        if isinstance(t, np.ndarray) or isinstance(self.T, np.ndarray):
            outside = bool(np.any(t < 0.0)) or bool(np.any(t > self.T))
        else:
            outside = t < 0.0 or t > self.T
        if outside:
            raise OutOfDomainError(f"t={t} outside [0, {self.T}]")

    def eval_state(self, t):
        """Position and velocity at t, as eval gives them, with no domain check."""
        c1, c2, c3 = self.c1, self.c2, self.c3
        p = ((((c1 / 120.0 * t + c2 / 24.0) * t + c3 / 6.0) * t + self.a0 / 2.0) * t + self.v0) * t + self.p0
        v = (((c1 / 24.0 * t + c2 / 6.0) * t + c3 / 2.0) * t + self.a0) * t + self.v0
        return (p, v)

    def eval_derivs(self, t):
        """Acceleration, jerk and snap at t, as eval gives them, with no
        domain check."""
        c1, c2, c3 = self.c1, self.c2, self.c3
        a = ((c1 / 6.0 * t + c2 / 2.0) * t + c3) * t + self.a0
        j = (c1 / 2.0 * t + c2) * t + c3
        s = c1 * t + c2
        return (a, j, s)

    def rows(self, idx) -> "AxisTrajectory":
        """The quintics of the rows idx selects, from a trajectory whose
        fields are (n, 1) horizon columns or (k, n, 1) axis stacks of them.

        idx is an index array over the horizon axis; every field keeps its
        leading axes, so the subset evaluates row by row exactly as the full
        trajectory does.
        """
        return AxisTrajectory(*(getattr(self, f)[..., idx, :] for f in QUINTIC_FIELDS),
                              T=self.T[idx])


def solve_axis(b: AxisBoundary, T) -> AxisTrajectory:
    """Solve the minimum-jerk quintic for one axis over horizon T.

    The boundary mismatch is reduced to the part not explained by coasting at
    the initial conditions, then mapped onto (c1, c2, c3) by the closed-form
    inverse of the endpoint map.  Coefficients are stored unnormalized; with
    the 1/T^5 factor a very small T produces huge but still exact values, so
    callers enforce their own lower bound on T.

    T may be an (n, 1) column of horizons, with boundary fields that are
    floats or columns of the same length; the coefficients are then (n, 1)
    columns and the trajectory holds one quintic per row.  Boundary fields
    of shape (2, n, 1), the y axis stacked over the z axis, solve both axes
    of every row in one call; each entry equals the float solve bit for bit.
    A float T, as the flown pair of a plan has, is checked with math rather
    than numpy.

    Raises:
        InvalidHorizonError: T (or any of its rows) <= 0 or not finite.
    """
    if isinstance(T, float):
        valid = T > 0.0 and math.isfinite(T)
    else:
        valid = np.all(T > 0.0) and np.all(np.isfinite(T))
    if not valid:
        raise InvalidHorizonError(f"horizon must be positive and finite, got {T}")
    d_a = b.aT - b.a0
    d_v = b.vT - b.v0 - b.a0 * T
    d_p = b.pT - b.p0 - b.v0 * T - 0.5 * b.a0 * T * T
    T2 = T * T
    T3 = T2 * T
    T4 = T3 * T
    T5 = T4 * T
    c1 = (60.0 * T2 * d_a - 360.0 * T * d_v + 720.0 * d_p) / T5
    c2 = (-24.0 * T3 * d_a + 168.0 * T2 * d_v - 360.0 * T * d_p) / T5
    c3 = (3.0 * T4 * d_a - 24.0 * T3 * d_v + 60.0 * T2 * d_p) / T5
    return AxisTrajectory(c1=c1, c2=c2, c3=c3, p0=b.p0, v0=b.v0, a0=b.a0, T=T)
