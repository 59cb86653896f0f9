"""Planar rigid-body quadrotor model restricted to the vertical Y-Z plane.

The vehicle is driven by two lift sums F1 (front rotor pair) and F2 (rear
rotor pair) acting at a lever arm d_s about the center of mass.  Roll phi is
the only attitude degree of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

GRAVITY = 9.8  # m/s^2, fixed for the whole package


class IntegrationDivergedError(RuntimeError):
    """Raised when a state leaves the finite range during integration."""


@dataclass(frozen=True)
class QuadParams:
    """Physical constants of the planar vehicle.

    Attributes:
        m: total mass in kg.
        J: roll inertia about the body x axis in kg m^2.
        d_s: lever arm from center of mass to each rotor pair in m.
        F_max: lift ceiling per rotor pair in N.

    Gravity is not a parameter: every model reads GRAVITY.
    """

    m: float
    J: float = 0.01
    d_s: float = 0.0792
    F_max: float = 0.0

    def __post_init__(self):
        if not (self.m > 0 and self.J > 0 and self.d_s > 0):
            raise ValueError("mass, inertia and lever arm must be positive")
        if not self.F_max >= 0:
            raise ValueError("vehicle lift ceiling F_max must be nonnegative (0: the default)")
        if self.F_max == 0:
            # default ceiling: one pair can carry the whole weight
            object.__setattr__(self, "F_max", self.m * GRAVITY)


@dataclass
class QuadState:
    """Planar state (y, z, dy, dz, phi, dphi)."""

    y: float = 0.0
    z: float = 0.0
    dy: float = 0.0
    dz: float = 0.0
    phi: float = 0.0
    dphi: float = 0.0

    def as_tuple(self) -> Tuple[float, float, float, float, float, float]:
        return (self.y, self.z, self.dy, self.dz, self.phi, self.dphi)


@dataclass(frozen=True)
class RotorCommand:
    """Lift of each rotor pair in N; feasible iff 0 <= F1, F2 <= F_max."""

    F1: float
    F2: float


def derivative(state: QuadState, cmd: RotorCommand, params: QuadParams) -> Tuple[float, ...]:
    """Time derivative of the planar state under a rotor command.

    Translational acceleration comes from the total lift rotated by phi minus
    gravity; roll acceleration from the differential lift times the lever arm.
    """
    return _deriv_raw(*state.as_tuple(), cmd.F1, cmd.F2, params.m, GRAVITY, params.d_s / params.J)


def _deriv_raw(y, z, dy, dz, phi, dphi, F1, F2, m, g, d_s_over_J):
    total = F1 + F2
    return (
        dy,
        dz,
        -total * math.sin(phi) / m,
        total * math.cos(phi) / m - g,
        dphi,
        (F1 - F2) * d_s_over_J,
    )


def rk4_step(
    state: QuadState,
    cmd_at: Callable[[float], RotorCommand],
    t: float,
    dt: float,
    params: QuadParams,
) -> QuadState:
    """One classical four-stage Runge-Kutta step from t to t + dt.

    cmd_at is sampled at t, t + dt/2 and t + dt so a time-varying open-loop
    command is integrated at full fourth order.
    """
    m, g, dsj = params.m, GRAVITY, params.d_s / params.J
    y, z, dy, dz, phi, dphi = state.as_tuple()

    c = cmd_at(t)
    k1 = _deriv_raw(y, z, dy, dz, phi, dphi, c.F1, c.F2, m, g, dsj)
    h = 0.5 * dt
    c = cmd_at(t + h)
    k2 = _deriv_raw(
        y + h * k1[0], z + h * k1[1], dy + h * k1[2], dz + h * k1[3],
        phi + h * k1[4], dphi + h * k1[5], c.F1, c.F2, m, g, dsj)
    k3 = _deriv_raw(
        y + h * k2[0], z + h * k2[1], dy + h * k2[2], dz + h * k2[3],
        phi + h * k2[4], dphi + h * k2[5], c.F1, c.F2, m, g, dsj)
    c = cmd_at(t + dt)
    k4 = _deriv_raw(
        y + dt * k3[0], z + dt * k3[1], dy + dt * k3[2], dz + dt * k3[3],
        phi + dt * k3[4], dphi + dt * k3[5], c.F1, c.F2, m, g, dsj)

    s = dt / 6.0
    return QuadState(
        y + s * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        z + s * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        dy + s * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        dz + s * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
        phi + s * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4]),
        dphi + s * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5]),
    )


_DIVERGE_LIMIT = 1e6


def step_schedule(t0: float, t1: float, dt: float) -> List[Tuple[float, float]]:
    """(start, length) of every step integrate takes from t0 to t1.

    Steps are dt long except the last, which is shortened to land exactly
    on t1; each start is the previous start plus the previous length.
    rk4_step samples its command at start, start + length/2 and start +
    length of each.
    """
    steps: List[Tuple[float, float]] = []
    t = t0
    while t < t1 - 1e-12:
        step = min(dt, t1 - t)
        steps.append((t, step))
        t += step
    return steps


def integrate(
    state: QuadState,
    cmd_at: Callable[[float], RotorCommand],
    t0: float,
    t1: float,
    dt: float,
    params: QuadParams,
    record: bool = False,
) -> Tuple[QuadState, List[Tuple[float, QuadState]]]:
    """Integrate the open-loop command profile from t0 to t1 at a fixed step.

    Args:
        state: initial state at t0.
        cmd_at: rotor command as a function of absolute time.
        t0, t1: integration span, t1 > t0.
        dt: fixed step; the last step is shortened to land exactly on t1.
        params: vehicle constants.
        record: when True the returned history holds every step.

    Returns:
        (final state, history).  History is empty unless record is set.

    Raises:
        IntegrationDivergedError: a state component left +-1e6.
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if dt <= 0:
        raise ValueError("dt must be positive")
    history: List[Tuple[float, QuadState]] = []
    s = state
    for t, step in step_schedule(t0, t1, dt):
        s = rk4_step(s, cmd_at, t, step, params)
        t += step
        if abs(s.y) > _DIVERGE_LIMIT or abs(s.z) > _DIVERGE_LIMIT or abs(s.dy) > _DIVERGE_LIMIT:
            raise IntegrationDivergedError(f"state diverged at t={t:.4f}")
        if record:
            history.append((t, s))
    return s, history
