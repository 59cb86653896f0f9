"""Closed-loop episode harness: determinism, phasing, impact scoring."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perchsim.dynamics import QuadState
from perchsim.gripper import A_FAILURE, PerchEnvelope
from perchsim.scenarios import load_scenario
from perchsim.sim import (
    NO_CONTACT,
    EpisodeTrace,
    SurfaceMotion,
    _wheel_gap,
    run_batch,
    run_episode,
)

# short timeout keeps the suite quick; this setup makes contact around 1.4 s
SC = replace(
    load_scenario(str(Path(__file__).resolve().parent.parent / "scenarios" / "static_47.ini")),
    timeout=3.0)


def _traces_equal(a: EpisodeTrace, b: EpisodeTrace) -> bool:
    # plan_T is NaN on ticks without a planner call, so compare NaN as equal
    return all(np.array_equal(getattr(a, c), getattr(b, c), equal_nan=True)
               for c in EpisodeTrace.COLUMNS)


def test_static_episode_succeeds():
    res = run_episode(SC)
    assert res.success
    assert res.failure is None
    assert 0.5 < res.impact_t < 3.0
    assert SC.envelope.phi_e_min <= res.impact_phi_e <= SC.envelope.phi_e_max
    assert SC.envelope.vn_min <= res.impact_dV_Zs <= SC.envelope.vn_max
    assert res.impact_nu_s == 0.0               # the surface is not moving
    assert len(res.solve_times) == len(res.plans)
    assert len(res.solve_times) > 0


def test_same_seed_reproduces_bitwise():
    a = run_episode(SC)
    b = run_episode(SC)
    assert _traces_equal(a.trace, b.trace)
    assert a.impact_t == b.impact_t
    assert a.impact_phi_e == b.impact_phi_e
    assert a.impact_dV_Ys == b.impact_dV_Ys
    assert a.impact_dV_Zs == b.impact_dV_Zs
    assert len(a.plans) == len(b.plans)


def test_different_seed_changes_the_run():
    a = run_episode(SC)
    b = run_episode(replace(SC, seed=1))
    assert not _traces_equal(a.trace, b.trace)


def test_envelope_only_affects_the_verdict():
    base = run_episode(SC)
    tight = PerchEnvelope(phi_e_min=-1e-6, phi_e_max=1e-6)
    res = run_episode(replace(SC, envelope=tight))
    assert not res.success
    assert res.failure == A_FAILURE
    # scoring changed, physics did not
    assert res.impact_t == base.impact_t
    assert res.impact_phi_e == base.impact_phi_e
    assert res.impact_dV_Zs == base.impact_dV_Zs
    assert _traces_equal(res.trace, base.trace)


def test_phase_column_sequencing():
    res = run_episode(SC)
    phase = res.trace.phase
    assert set(np.unique(phase)) <= {0.0, 1.0, 2.0}
    assert int(np.sum(phase == 1.0)) == 3       # handover window at 30 Hz
    ones = np.flatnonzero(phase == 1.0)
    twos = np.flatnonzero(phase == 2.0)
    assert np.array_equal(ones, np.arange(ones[0], ones[0] + 3))
    if twos.size:
        assert twos[0] > ones[-1]
        assert np.array_equal(twos, np.arange(twos[0], twos[0] + twos.size))


def test_handover_ticks_command_the_reference():
    res = run_episode(SC)
    w = res.trace.phase == 1.0
    assert np.array_equal(res.trace.cmd_ay[w], res.trace.ref_ay[w])
    assert np.array_equal(res.trace.cmd_az[w], res.trace.ref_az[w])


def test_timeout_reports_no_contact():
    res = run_episode(replace(SC, timeout=0.5))
    assert not res.success
    assert res.failure == NO_CONTACT
    assert res.impact_t is None
    assert res.impact_phi_e is None
    assert res.trace.t.size == 15               # 0.5 s at 30 Hz


def test_batch_offsets_seeds_and_aggregates():
    batch = run_batch(SC, 3)
    assert batch.n == 3
    solo = run_episode(replace(SC, seed=SC.seed + 1))
    assert _traces_equal(batch.episodes[1].trace, solo.trace)
    n_ok = sum(e.success for e in batch.episodes)
    assert batch.success_rate == n_ok / 3
    assert len(batch.impacts) == sum(e.impact_t is not None for e in batch.episodes)
    assert len(batch.solve_times) == sum(len(e.solve_times) for e in batch.episodes)
    with pytest.raises(ValueError):
        run_batch(SC, 0)


def test_wheel_gap_level_surface():
    sc = replace(SC, phi_s=0.0)
    z_s = 1.0
    st = QuadState(y=0.0, z=z_s + sc.d_l + sc.gripper.r_w + 0.05)
    assert _wheel_gap(st, sc, 2.2, z_s) == pytest.approx(0.05, abs=1e-12)
    st2 = QuadState(y=0.0, z=z_s + sc.d_l + sc.gripper.r_w)
    assert _wheel_gap(st2, sc, 2.2, z_s) == pytest.approx(0.0, abs=1e-12)


def test_wheel_gap_vertical_surface():
    sc = replace(SC, phi_s=math.pi / 2.0)
    y_s = 2.2
    # at zero roll the mount offset hangs straight down, off the normal axis
    st = QuadState(y=y_s - sc.gripper.r_w - 0.03, z=1.0)
    assert _wheel_gap(st, sc, y_s, 1.0) == pytest.approx(0.03, abs=1e-12)
    # rolled to the surface attitude the offset points along -normal
    st3 = QuadState(y=y_s - sc.gripper.r_w - sc.d_l, z=1.0, phi=math.pi / 2.0)
    assert _wheel_gap(st3, sc, y_s, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_surface_motion_profiles():
    m = SurfaceMotion(kind="ramp", v_target=1.0, accel=2.0, direction="forward")
    y_half, v_half = m.state(0.25, 2.0)         # mid-ramp
    assert v_half == pytest.approx(0.5)
    assert y_half == pytest.approx(2.0 + 0.5 * 2.0 * 0.25 ** 2)
    y_end, v_end = m.state(0.5, 2.0)            # ramp ends at t = 0.5
    y_later, v_later = m.state(1.5, 2.0)
    assert v_end == pytest.approx(1.0) and v_later == 1.0
    assert y_later == pytest.approx(y_end + 1.0)
    back = SurfaceMotion(kind="ramp", v_target=1.0, accel=2.0, direction="backward")
    assert back.state(1.5, 2.0)[1] == -1.0
    assert SurfaceMotion().state(9.0, 2.0) == (2.0, 0.0)


def test_surface_motion_validation():
    with pytest.raises(ValueError):
        SurfaceMotion(kind="hover")
    with pytest.raises(ValueError):
        SurfaceMotion(kind="ramp", v_target=0.0)
    with pytest.raises(ValueError):
        SurfaceMotion(direction="up")
