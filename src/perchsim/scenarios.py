"""INI-style scenario files.

A scenario file is plain key-value text with one section per configuration
group.  Every key is optional except [scenario] phi_s_deg; omitted keys take
neutral defaults (the [perch] keys come from DEFAULT_PERCH_CONDITIONS).  The
shipped files under scenarios/ are the only source of the campaign setups
and their retuned gains.  Unknown sections or keys are rejected so a typo
cannot silently revert a setting to its default.
"""

from __future__ import annotations

import configparser
import math
from typing import Dict, Optional

from .controller import ControllerGains
from .dynamics import QuadParams
from .flatness import Constraints
from .gripper import PerchEnvelope
from .sim import Scenario, SurfaceMotion
from .terminal import PerchConditions, default_conditions


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the culprit."""


_SECTION_KEYS: Dict[str, set] = {
    "scenario": {"phi_s_deg", "seed", "noise_sigma"},
    "surface": {"kind", "v_target", "accel", "direction", "y0", "z0"},
    "quad": {"m", "j", "d_s", "f_max"},
    "initial": {"y", "z"},
    "constraints": {"z_min", "z_max", "v_min", "v_max", "f_max", "n_samples"},
    "perch": {"dv_ys", "dv_zs", "l_zs"},
    "gains": {"k_p", "k_v", "k_i", "delta_t", "i_limit"},
    "envelope": {"phi_e_min_deg", "phi_e_max_deg", "vt_min", "vt_max", "vn_min", "vn_max"},
    "harness": {
        "d_l", "control_rate", "substeps", "predictor_window", "detect_threshold",
        "timeout", "init_step", "init_cap", "k_p_phi", "k_d_phi", "stall_thrust",
    },
}


def _pair(raw: str, where: str) -> tuple:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ScenarioError(f"{where}: expected two comma-separated values (y, z), got {raw!r}")
    return tuple(float(p) for p in parts)


def _get(cp: configparser.ConfigParser, section: str, key: str, cast, default):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        try:
            return cast(raw)
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    return default


def load_scenario(path: str, seed: Optional[int] = None) -> Scenario:
    """Parse a scenario file, applying neutral defaults for omitted keys.

    Args:
        path: scenario file path.
        seed: overrides the file's seed when given.

    Raises:
        ScenarioError: unknown section/key, unparsable value, or a scenario
            that fails the underlying configuration invariants.
    """
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ScenarioError(f"cannot read scenario file {path!r}")

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _SECTION_KEYS[section]:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")

    if not cp.has_option("scenario", "phi_s_deg"):
        raise ScenarioError("missing required key phi_s_deg in section [scenario]")
    phi_s_deg = _get(cp, "scenario", "phi_s_deg", float, None)

    kind = _get(cp, "surface", "kind", str, "static")
    direction = _get(cp, "surface", "direction", str, "forward")
    try:
        motion = SurfaceMotion(
            kind=kind,
            v_target=_get(cp, "surface", "v_target", float, 0.0),
            accel=_get(cp, "surface", "accel", float, 1.0),
            direction=direction,
        )
    except ValueError as exc:
        raise ScenarioError(f"[surface]: {exc}") from exc

    try:
        params = QuadParams(
            m=_get(cp, "quad", "m", float, 0.945),
            J=_get(cp, "quad", "j", float, 0.01),
            d_s=_get(cp, "quad", "d_s", float, 0.0792),
            F_max=_get(cp, "quad", "f_max", float, 0.0),
        )
        constraints = Constraints(
            z_min=_get(cp, "constraints", "z_min", float, -2.0),
            z_max=_get(cp, "constraints", "z_max", float, 5.0),
            v_min=_get(cp, "constraints", "v_min", float, -4.0),
            v_max=_get(cp, "constraints", "v_max", float, 4.0),
            F_max=_get(cp, "constraints", "f_max", float, params.F_max),
            n_samples=_get(cp, "constraints", "n_samples", int, 50),
        )

        motion_key = "static" if kind == "static" else direction
        try:
            cond_default = default_conditions(motion_key, phi_s_deg)
        except KeyError:
            cond_default = PerchConditions(0.3, -0.5, 0.2)
        conditions = PerchConditions(
            dV_Ys=_get(cp, "perch", "dv_ys", float, cond_default.dV_Ys),
            dV_Zs=_get(cp, "perch", "dv_zs", float, cond_default.dV_Zs),
            l_Zs=_get(cp, "perch", "l_zs", float, cond_default.l_Zs),
        )

        gains = ControllerGains(
            k_p=_get(cp, "gains", "k_p", lambda r: _pair(r, "[gains] k_p"), (6.0, 6.0)),
            k_v=_get(cp, "gains", "k_v", lambda r: _pair(r, "[gains] k_v"), (4.0, 4.0)),
            k_i=_get(cp, "gains", "k_i", lambda r: _pair(r, "[gains] k_i"), (0.5, 0.5)),
            delta_t=_get(cp, "gains", "delta_t", float, 0.1),
            i_limit=_get(cp, "gains", "i_limit", float, 0.5),
        )

        env_default = PerchEnvelope()
        envelope = PerchEnvelope(
            phi_e_min=math.radians(_get(cp, "envelope", "phi_e_min_deg", float,
                                        math.degrees(env_default.phi_e_min))),
            phi_e_max=math.radians(_get(cp, "envelope", "phi_e_max_deg", float,
                                        math.degrees(env_default.phi_e_max))),
            vt_min=_get(cp, "envelope", "vt_min", float, env_default.vt_min),
            vt_max=_get(cp, "envelope", "vt_max", float, env_default.vt_max),
            vn_min=_get(cp, "envelope", "vn_min", float, env_default.vn_min),
            vn_max=_get(cp, "envelope", "vn_max", float, env_default.vn_max),
        )

        base = Scenario(
            phi_s=math.radians(phi_s_deg),
            motion=motion,
            surface_y0=_get(cp, "surface", "y0", float, 2.2 if kind == "static" else 2.5),
            surface_z0=_get(cp, "surface", "z0", float, 1.0),
            quad_y0=_get(cp, "initial", "y", float, 0.0),
            quad_z0=_get(cp, "initial", "z", float, 1.2),
            params=params,
            constraints=constraints,
            conditions=conditions,
            gains=gains,
            envelope=envelope,
            noise_sigma=_get(cp, "scenario", "noise_sigma", float, 0.001),
            seed=seed if seed is not None else _get(cp, "scenario", "seed", int, 0),
            d_l=_get(cp, "harness", "d_l", float, 0.0859),
            control_rate=_get(cp, "harness", "control_rate", float, 30.0),
            substeps=_get(cp, "harness", "substeps", int, 33),
            predictor_window=_get(cp, "harness", "predictor_window", float, 0.5),
            detect_threshold=_get(cp, "harness", "detect_threshold", float, 0.05),
            timeout=_get(cp, "harness", "timeout", float, 8.0 if kind == "static" else 10.0),
            init_step=_get(cp, "harness", "init_step", float, 0.1),
            init_cap=_get(cp, "harness", "init_cap", float, 10.0),
            k_p_phi=_get(cp, "harness", "k_p_phi", float, 120.0),
            k_d_phi=_get(cp, "harness", "k_d_phi", float, 22.0),
            stall_thrust=_get(cp, "harness", "stall_thrust", float, 0.4),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return base
