"""Terminal states for perching on an inclined, possibly moving surface.

The rendezvous state is the FlatState a plan ends at, the same flat-output
form as the state it starts from.  It is built in the surface frame: a
commanded relative velocity (tangential, normal) and a standoff distance
along the surface normal, rotated into the world frame and added to the
predicted surface motion.  Terminal accelerations are chosen so the vehicle
arrives with its attitude matching the surface inclination while thrusting
exactly its own weight, which makes the final attitude command continuous at
handover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .dynamics import GRAVITY
from .minjerk import FlatState
from .surface import SurfacePrediction


@dataclass(frozen=True)
class PerchConditions:
    """Approach conditions in the surface frame.

    Attributes:
        dV_Ys: terminal tangential relative velocity, m/s.
        dV_Zs: terminal normal relative velocity, m/s (negative = toward the
            surface).
        l_Zs: standoff of the terminal point along the surface normal, m; it
            absorbs attitude and position tracking lag so the physical
            contact happens at the surface plane.
    """

    dV_Ys: float
    dV_Zs: float
    l_Zs: float


#: (motion, inclination deg) -> conditions, following the reported campaigns:
#: static surfaces, a surface driven forward (away along +Y) and backward.
DEFAULT_PERCH_CONDITIONS: Dict[Tuple[str, int], PerchConditions] = {
    ("static", 47): PerchConditions(0.3, -0.5, 0.20),
    ("static", 70): PerchConditions(0.3, -0.5, 0.25),
    ("static", 90): PerchConditions(0.3, -0.5, 0.33),
    ("forward", 47): PerchConditions(0.3, -0.2, 0.07),
    ("forward", 70): PerchConditions(0.3, -0.2, 0.23),
    ("forward", 90): PerchConditions(0.3, -0.1, 0.15),
    ("backward", 47): PerchConditions(0.3, -0.3, 0.10),
    ("backward", 70): PerchConditions(0.3, -0.6, 0.19),
    ("backward", 90): PerchConditions(0.3, -0.6, 0.25),
}


def default_conditions(motion: str, inclination_deg: float) -> PerchConditions:
    """Look up the default approach conditions for a campaign setup."""
    key = (motion, int(round(inclination_deg)))
    try:
        return DEFAULT_PERCH_CONDITIONS[key]
    except KeyError:
        raise KeyError(f"no default perch conditions for {key}") from None


def get_terminal_states(p: SurfacePrediction, horizon, cond: PerchConditions) -> FlatState:
    """Terminal state at `horizon` seconds ahead of the prediction anchor.

    Velocities add the commanded surface-frame relative velocity, rotated by
    the inclination, to the predicted surface velocity.  The position backs
    off the predicted contact point by l_Zs along the surface normal.

    horizon may be a float or an array (for example an (n, 1) column of
    candidate horizons); the states are computed elementwise, and each entry
    equals the float call at that horizon bit for bit.
    """
    y_s, dy_s, z_s, dz_s = p.predict(horizon)
    phi = p.phi_s
    s, c = math.sin(phi), math.cos(phi)
    return FlatState(
        y=y_s - cond.l_Zs * s,
        z=z_s + cond.l_Zs * c,
        dy=dy_s + cond.dV_Ys * c - cond.dV_Zs * s,
        dz=dz_s + cond.dV_Ys * s + cond.dV_Zs * c,
        ddy=-GRAVITY * s,
        ddz=-GRAVITY + GRAVITY * c,
    )
