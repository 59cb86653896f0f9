"""Scenario files: shipped campaign configs and loader validation."""

import math
from pathlib import Path

import pytest

from perchsim.scenarios import ScenarioError, load_scenario
from perchsim.terminal import DEFAULT_PERCH_CONDITIONS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: file -> (motion key, inclination, roll k_p/k_d, v band, outer k_p/k_v, timeout, surface y0)
CAMPAIGNS = {
    "static_47.ini": ("static", 47, (450.0, 32.0), 2.6, ((6.0, 6.0), (4.0, 4.0)), 8.0, 2.2),
    "static_70.ini": ("static", 70, (450.0, 32.0), 2.6, ((6.0, 6.0), (4.0, 4.0)), 8.0, 2.2),
    "static_90.ini": ("static", 90, (320.0, 26.0), 2.6, ((6.0, 6.0), (4.0, 4.0)), 8.0, 2.2),
    "moving_90_forward.ini": (
        "forward", 90, (1200.0, 35.0), 2.4, ((12.0, 12.0), (8.0, 8.0)), 10.0, 2.5),
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
    assert sc.gains.k_p == (6.0, 6.0)
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
    # gains are (y, z) pairs; a leftover x gain is an error, not ignored
    f = tmp_path / "s.ini"
    f.write_text("[scenario]\nphi_s_deg = 47\n[gains]\nk_p = 1, 2, 3\n")
    with pytest.raises(ScenarioError, match=r"k_p: expected two comma-separated"):
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
