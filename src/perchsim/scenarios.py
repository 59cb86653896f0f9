"""INI-style scenario files.

A scenario file is plain key-value text with one section per configuration
group.  A key is the lower-case name of the field it sets (SCHEMA lists
them); `*_deg` keys are angles in degrees.  Every key is optional except
[scenario] phi_s_deg; an omitted key takes its field's default.  The shipped
files under scenarios/ are the only source of the campaign setups and their
retuned gains.  Unknown sections or keys are rejected so a typo cannot
silently revert a setting to its default, and so is a [DEFAULT] section.
"""

from __future__ import annotations

import configparser
import math
from collections import defaultdict
from dataclasses import fields, replace
from typing import Dict, Optional

from .controller import ControllerGains
from .dynamics import QuadParams
from .flatness import Constraints
from .gripper import PerchEnvelope
from .sim import Scenario, SurfaceMotion
from .terminal import PerchConditions, default_conditions


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the culprit."""


#: field annotation, as written (the config modules defer annotations) -> parser
_CASTS = {"float": float, "int": int, "str": str}


def _keys(cls: type, names=None, **spelled: str) -> Dict[str, tuple]:
    """{INI key: (cls, field, parser)} for the named fields of cls, all by default.

    A field's key is its name in lower case, unless spelled out as field=key.
    """
    types = {f.name: f.type for f in fields(cls)}
    return {spelled.get(n, n.lower()): (cls, n, _CASTS[types[n]]) for n in names or types}


_SCENARIO_FIELDS = [f.name for f in fields(Scenario)]

#: [section] -> {INI key: (dataclass, field, parser)}; the only list of keys
SCHEMA: Dict[str, Dict[str, tuple]] = {
    "scenario": _keys(Scenario, ["phi_s", "seed", "noise_sigma"], phi_s="phi_s_deg"),
    "surface": {**_keys(SurfaceMotion),
                **_keys(Scenario, ["surface_y0", "surface_z0"], surface_y0="y0", surface_z0="z0")},
    "quad": _keys(QuadParams),
    "initial": _keys(Scenario, ["quad_y0", "quad_z0"], quad_y0="y", quad_z0="z"),
    "constraints": _keys(Constraints),
    "perch": _keys(PerchConditions),
    "gains": _keys(ControllerGains),
    "envelope": _keys(PerchEnvelope, phi_e_min="phi_e_min_deg", phi_e_max="phi_e_max_deg"),
    "harness": _keys(Scenario, _SCENARIO_FIELDS[_SCENARIO_FIELDS.index("d_l"):]),
}


def load_scenario(path: str, seed: Optional[int] = None) -> Scenario:
    """Parse a scenario file; omitted keys take their defaults.

    Args:
        path: scenario file path.
        seed: overrides the file's seed when given.

    Raises:
        ScenarioError: malformed file, unknown section/key, a [DEFAULT]
            section, unparsable value, or a scenario that fails the
            configuration invariants.
    """
    # no header can name the empty section, so a [DEFAULT] section parses as
    # an ordinary one and is rejected as unknown, instead of lending its keys
    # to every other section
    cp = configparser.ConfigParser(default_section="")
    kw: Dict[type, dict] = defaultdict(dict)
    try:
        if not cp.read(path):
            raise ScenarioError(f"cannot read scenario file {path!r}")
        for section in cp.sections():
            if section not in SCHEMA:
                raise ScenarioError(f"unknown section [{section}]")
            for key in cp.options(section):
                if key not in SCHEMA[section]:
                    raise ScenarioError(f"unknown key {key!r} in section [{section}]")
        if not cp.has_option("scenario", "phi_s_deg"):
            raise ScenarioError("missing required key phi_s_deg in section [scenario]")
        if seed is not None:
            cp.set("scenario", "seed", str(seed))

        for section, keys in SCHEMA.items():
            for key, (cls, name, cast) in keys.items():
                if not cp.has_option(section, key):
                    continue
                raw = cp.get(section, key)
                try:
                    value = cast(raw)
                except ValueError as exc:
                    raise ScenarioError(f"[{section}] {key}: cannot parse {raw!r}") from exc
                kw[cls][name] = math.radians(value) if key.endswith("_deg") else value
        # the [perch] lookup reads the inclination as written, not back from radians
        phi_s_deg = float(cp.get("scenario", "phi_s_deg"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ScenarioError(f"malformed scenario file {path!r}: {exc}") from exc

    try:
        motion = SurfaceMotion(**kw[SurfaceMotion])
    except ValueError as exc:
        raise ScenarioError(f"[surface]: {exc}") from exc
    static = motion.kind == "static"

    # Loader defaults, for fields without a dataclass default: mass, bands, the
    # vehicle's lift ceiling for the screen, the [perch] lookup by motion and
    # inclination, and the placement, farther and longer for a moving surface.
    try:
        params = QuadParams(**{"m": 0.945, **kw[QuadParams]})
        bands = {"z_min": -2.0, "z_max": 5.0, "v_min": -4.0, "v_max": 4.0}
        constraints = Constraints(**{**bands, "F_max": params.F_max, **kw[Constraints]})
        try:
            cond = default_conditions("static" if static else motion.direction, phi_s_deg)
        except KeyError:
            cond = PerchConditions(0.3, -0.5, 0.2)
        moving = {} if static else {"surface_y0": 2.5, "timeout": 10.0}
        return Scenario(**{
            "surface_y0": 2.2, "surface_z0": 1.0, "quad_y0": 0.0, "quad_z0": 1.2,
            **moving, **kw[Scenario],
            "motion": motion, "params": params, "constraints": constraints,
            "conditions": replace(cond, **kw[PerchConditions]),
            "gains": ControllerGains(**kw[ControllerGains]),
            "envelope": PerchEnvelope(**kw[PerchEnvelope]),
        })
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
