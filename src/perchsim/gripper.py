"""Suction-cup gripper: which cup engages and whether the perch holds.

The gripper is not simulated as a deformable body.  Its behavior enters the
pipeline as algebra: which of the three wheel-mounted cups engages for a
given impact geometry, an empirical success envelope that classifies an
impact from its attitude error and relative velocity, and the adhesion the
engaged cups can supply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

A_FAILURE = "A-failure"
V_FAILURE = "V-failure"


@dataclass(frozen=True)
class GripperGeometry:
    """Cup wheel layout: radius r_w, three cups spaced alpha_w apart."""

    r_w: float = 0.0657
    alpha_w: float = math.radians(30.0)

    def __post_init__(self):
        if not (self.r_w > 0 and self.alpha_w > 0):
            raise ValueError("wheel radius and inter-cup angle must be positive")


@dataclass(frozen=True)
class PerchEnvelope:
    """Impact tolerance box: attitude error interval x velocity rectangle.

    Normal velocity bounds are negative (toward the surface): vn_max near
    zero rejects impacts too soft to trigger the cups, vn_min rejects
    impacts hard enough to bounce off.
    """

    phi_e_min: float = math.radians(-19.5)
    phi_e_max: float = math.radians(31.6)
    vt_min: float = -0.15
    vt_max: float = 1.0
    vn_min: float = -1.1
    vn_max: float = -0.05

    def __post_init__(self):
        if not (self.phi_e_min < self.phi_e_max and self.vt_min < self.vt_max
                and self.vn_min < self.vn_max):
            raise ValueError("each envelope pair needs min < max")


@dataclass(frozen=True)
class AdhesionModel:
    """Negative chamber pressure, cup radius and surface friction."""

    P_G: float = -61500.0
    R_cup: float = 0.015
    mu: float = 0.3

    def __post_init__(self):
        if self.P_G >= 0:
            raise ValueError("chamber pressure must be negative")
        if self.R_cup <= 0:
            raise ValueError("cup radius must be positive")
        if not (0.0 < self.mu <= 1.0):
            raise ValueError("friction coefficient must be in (0, 1]")


def select_cup(nu: float, phi_e: float, alpha_w: float) -> Tuple[int, float]:
    """Engaged cup of the three-cup wheel for a given impact.

    The wheel rolls toward the tangential velocity, so the engaged cup is the
    offset in {-alpha_w, 0, +alpha_w} closest to the impact attitude error,
    ties going to the rolling direction (center for a static impact).  The
    chosen cup's lean then satisfies the error-reducing contact condition.

    Returns:
        (cup index in {-1, 0, +1} for lower/center/upper, signed residual
        angle error phi_e - offset the cup must absorb).
    """
    offsets = (-alpha_w, 0.0, alpha_w)
    best = -1
    best_resid = abs(phi_e - offsets[0])
    for idx in (0, 1):
        off = offsets[idx + 1]
        resid = abs(phi_e - off)
        if resid < best_resid - 1e-15:
            best, best_resid = idx, resid
        elif abs(resid - best_resid) <= 1e-15:
            # tie: prefer the cup on the rolling side; at rest prefer center
            if nu > 0 and idx > best:
                best = idx
            elif nu < 0 and idx < best:
                best = idx
            elif nu == 0 and abs(idx) < abs(best):
                best = idx
    return best, phi_e - offsets[best + 1]


def judge_perch(
    phi_e: float, dV_Ys: float, dV_Zs: float, env: PerchEnvelope
) -> Tuple[bool, Optional[str]]:
    """Classify an impact: success, attitude failure or velocity failure.

    Success needs the attitude error inside the envelope interval and the
    (tangential, normal) velocity inside the rectangle.  An attitude
    violation wins over a simultaneous velocity violation.
    """
    angle_ok = env.phi_e_min <= phi_e <= env.phi_e_max
    vel_ok = env.vt_min <= dV_Ys <= env.vt_max and env.vn_min <= dV_Zs <= env.vn_max
    if not angle_ok:
        return False, A_FAILURE
    if not vel_ok:
        return False, V_FAILURE
    return True, None


def adhesion_force(a: AdhesionModel, n_cups: int = 2) -> Tuple[float, float]:
    """Total adhesion of n engaged cups and the friction it can support.

    Adhesion is the chamber pressure deficit over the cup disc area summed
    across cups; the supportable tangential friction is mu times that.
    """
    if n_cups < 1:
        raise ValueError("need at least one cup")
    F_G = -n_cups * math.pi * a.R_cup ** 2 * a.P_G
    return F_G, a.mu * F_G
