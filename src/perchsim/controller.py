"""Trajectory tracking: outer acceleration law and attitude/thrust mapping.

The outer loop blends position, velocity and integral feedback with the
reference acceleration.  The feedforward weight shrinks when feedback is
large relative to the reference so the two do not fight mid-maneuver, and
snaps to one with all feedback gains zeroed inside a short window before the
rendezvous instant: the final attitude command must come from the reference
alone, uncorrupted by position error against a surface the vehicle is about
to touch.

Everything works in the (y, z) plane of the plant.  Commanded accelerations
map to a thrust magnitude and a roll angle, which the plant realizes through
a roll PD loop on differential lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .dynamics import GRAVITY, QuadParams, RotorCommand
from .flatness import FreeFallSingularityError


@dataclass(frozen=True)
class ControllerGains:
    """Outer-loop gains and the handover window.

    k_p, k_v and k_i are the position, velocity and integral gains, each
    shared by the y and z axes.  delta_t is the terminal pure-feedforward
    window length; i_limit clamps each axis integral (anti-windup).
    """

    k_p: float = 6.0
    k_v: float = 4.0
    k_i: float = 0.5
    delta_t: float = 0.1
    i_limit: float = 0.5


@dataclass(frozen=True)
class AttitudeThrustCmd:
    """Collective thrust (N) and roll command (rad)."""

    f: float
    phi: float


class TrackingController:
    """Owns the integral state; one instance per tracked vehicle.

    The integral is a (y, z) pair of floats.
    """

    def __init__(self, gains: ControllerGains = ControllerGains()):
        self.gains = gains
        self.integral: Tuple[float, float] = (0.0, 0.0)

    def command(
        self,
        ref_p: Tuple[float, float],
        ref_v: Tuple[float, float],
        ref_a: Tuple[float, float],
        act_p: Tuple[float, float],
        act_v: Tuple[float, float],
        t: float,
        T: float,
        dt: float,
    ) -> Tuple[float, float]:
        """Commanded (y, z) acceleration for reference sample (p, v, a) at time t.

        Every argument pair and the result are (y, z) float pairs.  Inside
        the terminal window t > T - delta_t the reference acceleration is
        returned as-is (the integral is frozen there).  Otherwise the
        integral advances by e_p dt under the anti-windup clamp and each axis
        blends feedback, under the gains both axes share, with the weighted
        reference.
        """
        g = self.gains
        ay, az = ref_a
        if t > T - g.delta_t:
            return (ay, az)
        e_py = ref_p[0] - act_p[0]
        e_pz = ref_p[1] - act_p[1]
        e_vy = ref_v[0] - act_v[0]
        e_vz = ref_v[1] - act_v[1]
        lim = g.i_limit
        iy, iz = self.integral
        # np.clip's result, NaN and signed zeros included
        iy = min(max(iy + e_py * dt, -lim), lim)
        iz = min(max(iz + e_pz * dt, -lim), lim)
        self.integral = (iy, iz)
        fb_y = g.k_p * e_py + g.k_v * e_vy
        fb_z = g.k_p * e_pz + g.k_v * e_vz
        k_ay = 1.0 / (1.0 + abs(fb_y) / (abs(ay) + 0.5))
        k_az = 1.0 / (1.0 + abs(fb_z) / (abs(az) + 0.5))
        return (fb_y + g.k_i * iy + k_ay * ay, fb_z + g.k_i * iz + k_az * az)


def acceleration_to_attitude_thrust(cmd: Tuple[float, float], m: float) -> AttitudeThrustCmd:
    """Map a commanded (y, z) acceleration to thrust and roll.

    Roll comes from the lateral share of the desired specific force
    (ay, az + g).  The thrust is m times the projection of (ay, |az + g|) onto
    the body axis (-sin phi, cos phi), i.e. m times the force magnitude; the
    absolute value keeps the thrust positive when the command asks for a
    downward specific force.

    Raises:
        FreeFallSingularityError: the commanded specific force vanishes.
    """
    ay, az = float(cmd[0]), float(cmd[1])
    vz = az + GRAVITY
    norm = math.sqrt(ay * ay + vz * vz)
    if norm <= 1e-12:
        raise FreeFallSingularityError("thrust direction undefined in free fall")
    phi = -math.asin(ay / norm)
    f = m * (abs(vz) * math.cos(phi) - ay * math.sin(phi))
    return AttitudeThrustCmd(f=f, phi=phi)


def attitude_pd_lifts(
    att: AttitudeThrustCmd,
    phi: float,
    dphi: float,
    params: QuadParams,
    k_p_phi: float,
    k_d_phi: float,
) -> RotorCommand:
    """Inner roll loop: realize a thrust/attitude command as pair lifts.

    Differential lift is a PD law on the roll error scaled by the inertia
    over lever ratio; each resulting pair lift is clamped to [0, F_max].
    """
    diff = (params.J / params.d_s) * (k_p_phi * (att.phi - phi) - k_d_phi * dphi)
    f1 = 0.5 * (att.f + diff)
    f2 = 0.5 * (att.f - diff)
    f1 = min(max(f1, 0.0), params.F_max)
    f2 = min(max(f2, 0.0), params.F_max)
    return RotorCommand(F1=f1, F2=f2)
