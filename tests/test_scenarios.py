"""Scenario files: shipped campaign configs and loader validation."""

import configparser
import dataclasses
import math
import re
from pathlib import Path

import pytest

from perchsim.dynamics import GRAVITY, QuadParams
from perchsim.flatness import Constraints
from perchsim.gripper import PerchEnvelope
from perchsim.scenarios import SCHEMA, ScenarioError, load_scenario
from perchsim.sim import Scenario, SurfaceMotion
from perchsim.terminal import DEFAULT_PERCH_CONDITIONS, PerchConditions

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: file -> (motion key, inclination, roll k_p/k_d, v band, outer k_p/k_v, timeout, surface y0)
CAMPAIGNS = {
    "static_47.ini": ("static", 47, (450.0, 32.0), 2.6, (6.0, 4.0), 8.0, 2.2),
    "static_70.ini": ("static", 70, (450.0, 32.0), 2.6, (6.0, 4.0), 8.0, 2.2),
    "static_90.ini": ("static", 90, (320.0, 26.0), 2.6, (6.0, 4.0), 8.0, 2.2),
    "moving_90_forward.ini": ("forward", 90, (1200.0, 35.0), 2.4, (12.0, 8.0), 10.0, 2.5),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_shipped_files_pin_campaign_values(name):
    motion, deg, roll, v, (k_p, k_v), timeout, y0 = CAMPAIGNS[name]
    sc = load_scenario(str(SCENARIO_DIR / name))
    assert sc.phi_s == math.radians(deg)
    assert (sc.motion.kind == "static") == (motion == "static")
    if motion != "static":
        assert (sc.motion.direction, sc.motion.v_target, sc.motion.accel) == (motion, 1.0, 1.0)
    assert (sc.k_p_phi, sc.k_d_phi) == roll
    assert (sc.constraints.v_min, sc.constraints.v_max) == (-v, v)
    assert (sc.gains.k_p, sc.gains.k_v) == (k_p, k_v)
    assert sc.timeout == timeout
    assert (sc.surface_y0, sc.surface_z0) == (y0, 1.0)
    assert (sc.quad_y0, sc.quad_z0) == (0.0, 1.2)
    assert sc.conditions == DEFAULT_PERCH_CONDITIONS[(motion, deg)]
    assert (sc.seed, sc.noise_sigma, sc.stall_thrust) == (0, 0.001, 0.4)


def test_minimal_file_gets_neutral_defaults(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 47\n")
    sc = load_scenario(str(f))
    assert sc.constraints.v_max == 4.0
    assert sc.k_p_phi == 120.0
    assert sc.k_d_phi == 22.0
    assert sc.stall_thrust == 0.4
    assert sc.timeout == 8.0
    assert sc.surface_y0 == 2.2
    assert sc.gains.k_p == 6.0
    assert sc.noise_sigma == 0.001


def test_ramp_defaults_differ(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 90\n[surface]\nkind = ramp\nv_target = 1.0\n")
    sc = load_scenario(str(f))
    assert sc.timeout == 10.0
    assert sc.surface_y0 == 2.5
    assert sc.motion.kind == "ramp"
    assert sc.motion.v_target == 1.0


def test_seed_override_beats_file(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 47\nseed = 3\n")
    assert load_scenario(str(f)).seed == 3
    assert load_scenario(str(f), seed=11).seed == 11


def test_unknown_key_named_in_error(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 47\nbogus_key = 1\n")
    with pytest.raises(ScenarioError, match="bogus_key"):
        load_scenario(str(f))


def test_unknown_section_rejected(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 47\n[turbo]\nboost = 1\n")
    with pytest.raises(ScenarioError, match=r"\[turbo\]"):
        load_scenario(str(f))


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 3\n[scenario]\nphi_s_deg = 47\n",
    "[DEFAULT]\nseed = 3\n[scenario]\nphi_s_deg = 47\n[surface]\nkind = ramp\n",
    "[DEFAULT]\n[scenario]\nphi_s_deg = 47\n",
], ids=["scenario-only", "with-surface", "empty"])
def test_default_section_rejected(text, tmp_path):
    # configparser would copy [DEFAULT] keys into every section, so the same
    # file would load or fail depending on which other sections it has
    f = tmp_path / "s.ini"
    f.write_text(text)
    with pytest.raises(ScenarioError, match=r"unknown section \[DEFAULT\]"):
        load_scenario(str(f))


def test_missing_inclination_rejected(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nseed = 1\n")
    with pytest.raises(ScenarioError, match="phi_s_deg"):
        load_scenario(str(f))


def test_unparsable_value_named(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = steep\n")
    with pytest.raises(ScenarioError, match="phi_s_deg"):
        load_scenario(str(f))


def test_bad_gain_triple(tmp_path):
    # a gain is one value for both axes; a list of them is an error, not ignored
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 47\n[gains]\nk_p = 1, 2, 3\n")
    with pytest.raises(ScenarioError, match=r"\[gains\] k_p: cannot parse"):
        load_scenario(str(f))


def test_attach_hold_rejected(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 47\n[harness]\nattach_hold = 2.0\n")
    with pytest.raises(ScenarioError, match="attach_hold"):
        load_scenario(str(f))


def test_config_invariants_surface_as_scenario_errors(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 47\n[envelope]\nvt_min = 2.0\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(f))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "absent.ini"))


# --- the schema: one table of keys, fields and defaults -------------------

#: every accepted key -> (value written, path of the field it sets, value loaded)
SCHEMA_CASES = {
    ("scenario", "phi_s_deg"): ("50", ("phi_s",), math.radians(50.0)),
    ("scenario", "seed"): ("7", ("seed",), 7),
    ("scenario", "noise_sigma"): ("0.002", ("noise_sigma",), 0.002),
    ("surface", "kind"): ("ramp", ("motion", "kind"), "ramp"),
    ("surface", "v_target"): ("2.0", ("motion", "v_target"), 2.0),
    ("surface", "accel"): ("2.0", ("motion", "accel"), 2.0),
    ("surface", "direction"): ("backward", ("motion", "direction"), "backward"),
    ("surface", "y0"): ("3.0", ("surface_y0",), 3.0),
    ("surface", "z0"): ("1.5", ("surface_z0",), 1.5),
    ("quad", "m"): ("1.0", ("params", "m"), 1.0),
    ("quad", "j"): ("0.02", ("params", "J"), 0.02),
    ("quad", "d_s"): ("0.08", ("params", "d_s"), 0.08),
    ("quad", "f_max"): ("12", ("params", "F_max"), 12.0),
    ("initial", "y"): ("0.5", ("quad_y0",), 0.5),
    ("initial", "z"): ("1.0", ("quad_z0",), 1.0),
    ("constraints", "z_min"): ("-1", ("constraints", "z_min"), -1.0),
    ("constraints", "z_max"): ("4", ("constraints", "z_max"), 4.0),
    ("constraints", "v_min"): ("-3", ("constraints", "v_min"), -3.0),
    ("constraints", "v_max"): ("3", ("constraints", "v_max"), 3.0),
    ("constraints", "f_max"): ("11", ("constraints", "F_max"), 11.0),
    ("constraints", "n_samples"): ("40", ("constraints", "n_samples"), 40),
    ("perch", "dv_ys"): ("0.4", ("conditions", "dV_Ys"), 0.4),
    ("perch", "dv_zs"): ("-0.4", ("conditions", "dV_Zs"), -0.4),
    ("perch", "l_zs"): ("0.3", ("conditions", "l_Zs"), 0.3),
    ("gains", "k_p"): ("7", ("gains", "k_p"), 7.0),
    ("gains", "k_v"): ("5", ("gains", "k_v"), 5.0),
    ("gains", "k_i"): ("0.6", ("gains", "k_i"), 0.6),
    ("gains", "delta_t"): ("0.2", ("gains", "delta_t"), 0.2),
    ("gains", "i_limit"): ("0.6", ("gains", "i_limit"), 0.6),
    ("envelope", "phi_e_min_deg"): ("-20", ("envelope", "phi_e_min"), math.radians(-20.0)),
    ("envelope", "phi_e_max_deg"): ("30", ("envelope", "phi_e_max"), math.radians(30.0)),
    ("envelope", "vt_min"): ("-0.1", ("envelope", "vt_min"), -0.1),
    ("envelope", "vt_max"): ("0.9", ("envelope", "vt_max"), 0.9),
    ("envelope", "vn_min"): ("-1.0", ("envelope", "vn_min"), -1.0),
    ("envelope", "vn_max"): ("-0.1", ("envelope", "vn_max"), -0.1),
    ("harness", "d_l"): ("0.09", ("d_l",), 0.09),
    ("harness", "control_rate"): ("40", ("control_rate",), 40.0),
    ("harness", "substeps"): ("20", ("substeps",), 20),
    ("harness", "predictor_window"): ("0.6", ("predictor_window",), 0.6),
    ("harness", "detect_threshold"): ("0.06", ("detect_threshold",), 0.06),
    ("harness", "timeout"): ("9", ("timeout",), 9.0),
    ("harness", "k_p_phi"): ("130", ("k_p_phi",), 130.0),
    ("harness", "k_d_phi"): ("23", ("k_d_phi",), 23.0),
    ("harness", "stall_thrust"): ("0.5", ("stall_thrust",), 0.5),
}

#: pins every default that follows another key (motion kind, inclination,
#: vehicle ceiling), so a single changed key moves a single field
SCHEMA_BASE = {
    ("scenario", "phi_s_deg"): "47",
    ("surface", "v_target"): "1.0",
    ("surface", "y0"): "2.2",
    ("quad", "f_max"): "10",
    ("constraints", "f_max"): "10",
    ("perch", "dv_ys"): "0.3",
    ("perch", "dv_zs"): "-0.5",
    ("perch", "l_zs"): "0.2",
    ("harness", "timeout"): "8",
}


def _write_ini(path, values):
    sections = {}
    for (section, key), raw in values.items():
        sections.setdefault(section, []).append(f"{key} = {raw}")
    path.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()))
    return str(path)


def _flat_fields(obj, prefix=()):
    """{field path: value} down through nested config dataclasses."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(_flat_fields(value, prefix + (f.name,)))
        else:
            out[prefix + (f.name,)] = value
    return out


def test_schema_cases_cover_exactly_the_accepted_keys():
    accepted = {(s, k) for s, keys in SCHEMA.items() for k in keys}
    assert accepted == set(SCHEMA_CASES)
    assert len(accepted) == 44


@pytest.mark.parametrize("section,key", sorted(SCHEMA_CASES))
def test_each_key_sets_exactly_its_field(section, key, tmp_path):
    raw, path, expected = SCHEMA_CASES[section, key]
    base = _flat_fields(load_scenario(_write_ini(tmp_path / "base.ini", SCHEMA_BASE)))
    assert base[path] != expected
    changed = _flat_fields(load_scenario(
        _write_ini(tmp_path / "changed.ini", {**SCHEMA_BASE, (section, key): raw})))
    assert {p for p in base if base[p] != changed[p]} == {path}
    assert changed[path] == expected


@pytest.mark.parametrize("motion", ["static", "ramp"])
def test_minimal_file_is_dataclass_plus_loader_defaults(motion, tmp_path):
    text = "[scenario]\nphi_s_deg = 90\n"
    if motion == "ramp":
        text += "[surface]\nkind = ramp\nv_target = 1.0\n"
    f = tmp_path / "s.ini"
    f.write_text(text)
    params = QuadParams(m=0.945)
    fields = dict(
        phi_s=math.radians(90.0),
        motion=SurfaceMotion(),
        surface_y0=2.2, surface_z0=1.0, quad_y0=0.0, quad_z0=1.2,
        params=params,
        constraints=Constraints(z_min=-2.0, z_max=5.0, v_min=-4.0, v_max=4.0, F_max=params.F_max),
        conditions=DEFAULT_PERCH_CONDITIONS[("static", 90)],
    )
    if motion == "ramp":
        fields.update(motion=SurfaceMotion(kind="ramp", v_target=1.0), surface_y0=2.5,
                      timeout=10.0, conditions=DEFAULT_PERCH_CONDITIONS[("forward", 90)])
    assert load_scenario(str(f)) == Scenario(**fields)


def test_off_grid_inclination_falls_back(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 50\n")
    assert load_scenario(str(f)).conditions == PerchConditions(0.3, -0.5, 0.2)


def test_perch_lookup_reads_degrees_as_written(tmp_path, monkeypatch):
    # 14.5 deg rounds to 14, but degrees(radians(14.5)) rounds to 15
    assert round(math.degrees(math.radians(14.5))) == 15
    grid = PerchConditions(0.1, -0.2, 0.3)
    monkeypatch.setitem(DEFAULT_PERCH_CONDITIONS, ("static", 14), grid)
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 14.5\n")
    assert load_scenario(str(f)).conditions == grid


def test_readme_example_loads_and_lists_every_key(tmp_path):
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    cp = configparser.ConfigParser()
    cp.read_string(blocks[0])
    written = {(s, k) for s in cp.sections() for k in cp.options(s)}
    assert written == {(s, k) for s, keys in SCHEMA.items() for k in keys}
    f = tmp_path / "readme.ini"
    f.write_text(blocks[0])
    assert load_scenario(str(f)).motion.kind == "ramp"


# --- malformed files and values that cannot run ---------------------------

@pytest.mark.parametrize("text", [
    "[scenario]\nphi_s_deg = 47\n[scenario]\nseed = 1\n",      # duplicate section
    "[scenario]\nphi_s_deg = 47\nseed = 1\nseed = 2\n",        # duplicate key
    "phi_s_deg = 47\n",                                        # no section header
    "[scenario]\nphi_s_deg = 47\nsteep\n",                     # malformed line
], ids=["duplicate-section", "duplicate-key", "no-section-header", "malformed-line"])
def test_malformed_file_is_a_scenario_error(text, tmp_path):
    f = tmp_path / "bad.ini"
    f.write_text(text)
    with pytest.raises(ScenarioError, match=re.escape(repr(str(f)))):
        load_scenario(str(f))


def test_non_text_file_is_a_scenario_error(tmp_path):
    f = tmp_path / "bad.ini"
    f.write_bytes(b"[scenario]\nphi_s_deg = 47\n\xff\xfe\n")
    with pytest.raises(ScenarioError, match="malformed scenario file"):
        load_scenario(str(f))


@pytest.mark.parametrize("section,key,raw,message", [
    ("harness", "timeout", "0.01", "at least one control period"),
    ("harness", "timeout", "inf", "timeout must be finite"),
    ("harness", "substeps", "0", "substeps must be at least 1"),
    ("harness", "control_rate", "0", "control_rate must be positive"),
    ("scenario", "noise_sigma", "-0.001", "noise_sigma must be nonnegative"),
    ("quad", "f_max", "-5", "vehicle lift ceiling F_max"),
    ("constraints", "f_max", "0", "screen lift ceiling F_max"),
    ("constraints", "f_max", "-1", "screen lift ceiling F_max"),
    # the initialization scan's step and cap are search constants now
    ("harness", "init_step", "0.1", r"unknown key 'init_step' in section \[harness\]"),
    ("harness", "init_cap", "10.0", r"unknown key 'init_cap' in section \[harness\]"),
    # one gain per term, shared by both axes
    ("gains", "k_p", "12, 12", r"\[gains\] k_p: cannot parse"),
])
def test_values_that_cannot_run_are_rejected(section, key, raw, message, tmp_path):
    f = _write_ini(tmp_path / "s.ini", {("scenario", "phi_s_deg"): "47", (section, key): raw})
    with pytest.raises(ScenarioError, match=message):
        load_scenario(f)


NAN = math.nan
STATIC_47 = str(SCENARIO_DIR / "static_47.ini")

#: a NaN compares False both ways, so every range check must reject it:
#: name -> (dataclass built with the NaN, file keys that set it, message)
NAN_CASES = {
    "z_min": (lambda: Constraints(z_min=NAN, z_max=5.0, v_min=-4.0, v_max=4.0, F_max=9.0),
              {("constraints", "z_min"): "nan"}, "z band is empty"),
    "z_max": (lambda: Constraints(z_min=-2.0, z_max=NAN, v_min=-4.0, v_max=4.0, F_max=9.0),
              {("constraints", "z_max"): "nan"}, "z band is empty"),
    "v_max": (lambda: Constraints(z_min=-2.0, z_max=5.0, v_min=-4.0, v_max=NAN, F_max=9.0),
              {("constraints", "v_max"): "nan"}, "velocity band is empty"),
    "m": (lambda: QuadParams(m=NAN), {("quad", "m"): "nan"}, "must be positive"),
    "d_s": (lambda: QuadParams(m=0.945, d_s=NAN), {("quad", "d_s"): "nan"}, "must be positive"),
    "v_target": (lambda: SurfaceMotion(kind="ramp", v_target=NAN),
                 {("surface", "kind"): "ramp", ("surface", "v_target"): "nan"},
                 "ramp motion needs positive"),
    "accel": (lambda: SurfaceMotion(kind="ramp", v_target=1.0, accel=NAN),
              {("surface", "kind"): "ramp", ("surface", "v_target"): "1.0",
               ("surface", "accel"): "nan"}, "ramp motion needs positive"),
    "vn_min": (lambda: PerchEnvelope(vn_min=NAN), {("envelope", "vn_min"): "nan"},
               "min < max"),
    "detect_threshold": (
        lambda: dataclasses.replace(load_scenario(STATIC_47), detect_threshold=NAN),
        {("harness", "detect_threshold"): "nan"}, "detect_threshold must be nonnegative"),
}


@pytest.mark.parametrize("name", sorted(NAN_CASES))
def test_nan_fails_the_range_checks(name, tmp_path):
    build, keys, message = NAN_CASES[name]
    with pytest.raises(ValueError, match=message):
        build()
    f = _write_ini(tmp_path / "s.ini", {("scenario", "phi_s_deg"): "47", **keys})
    with pytest.raises(ScenarioError, match=message):
        load_scenario(f)


@pytest.mark.parametrize("raw", ["0.02", "0.0", "nan", repr(1.0 / 30.0)])
def test_window_without_two_samples_is_a_scenario_error(raw, tmp_path):
    f = _write_ini(tmp_path / "s.ini", {("scenario", "phi_s_deg"): "47",
                                        ("harness", "predictor_window"): raw})
    with pytest.raises(ScenarioError, match="predictor_window"):
        load_scenario(f)


def test_vehicle_ceiling_zero_still_means_the_weight(tmp_path):
    f = _write_ini(tmp_path / "s.ini", {("scenario", "phi_s_deg"): "47", ("quad", "f_max"): "0"})
    sc = load_scenario(f)
    assert sc.params.F_max == sc.constraints.F_max == 0.945 * GRAVITY
