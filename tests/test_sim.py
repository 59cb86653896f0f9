"""Closed-loop episode harness: determinism, phasing, impact scoring."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import perchsim.sim
from perchsim.controller import AttitudeThrustCmd, attitude_pd_lifts
from perchsim.dynamics import QuadState, rk4_step
from perchsim.gripper import A_FAILURE, PerchEnvelope, select_cup
from perchsim.scenarios import load_scenario
from perchsim.sim import (
    NO_CONTACT,
    EpisodeTrace,
    SurfaceMotion,
    _fly_period,
    run_batch,
    run_episode,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# short timeout keeps the suite quick; this setup makes contact around 1.4 s
SC = replace(load_scenario(str(SCENARIOS / "static_47.ini")), timeout=3.0)


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
    assert res.impact_cup is None and res.impact_cup_residual is None
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


def _touches(sc, st, y_s, z_s):
    """_fly_period's contact decision for st against a static plane through
    (y_s, z_s), over one 1 ns substep that moves the vehicle by < 1e-17 m."""
    sc = replace(sc, motion=SurfaceMotion(), surface_y0=y_s, surface_z0=z_s, substeps=1)
    att = AttitudeThrustCmd(sc.params.m * sc.params.g, st.phi)
    return _fly_period(st, att, sc, 0.0, 1e-9)[1] is not None


def _assert_gap(sc, st, y_s, z_s, gap, tol):
    """The kernel sees st's wheel gap off the plane to within tol: moved
    toward the plane along its normal by gap - tol the wheel still clears
    it, moved by gap + tol it touches."""
    n_y, n_z = -math.sin(sc.phi_s), math.cos(sc.phi_s)

    def moved(d):
        return replace(st, y=st.y - d * n_y, z=st.z - d * n_z)

    assert not _touches(sc, moved(gap - tol), y_s, z_s)
    assert _touches(sc, moved(gap + tol), y_s, z_s)


def test_wheel_gap_level_surface():
    sc = replace(SC, phi_s=0.0)
    z_s = 1.0
    st = QuadState(y=0.0, z=z_s + sc.d_l + sc.gripper.r_w + 0.05)
    _assert_gap(sc, st, 2.2, z_s, 0.05, 1e-12)
    st2 = QuadState(y=0.0, z=z_s + sc.d_l + sc.gripper.r_w)
    _assert_gap(sc, st2, 2.2, z_s, 0.0, 1e-12)


def test_wheel_gap_vertical_surface():
    sc = replace(SC, phi_s=math.pi / 2.0)
    y_s = 2.2
    # at zero roll the mount offset hangs straight down, off the normal axis
    st = QuadState(y=y_s - sc.gripper.r_w - 0.03, z=1.0)
    _assert_gap(sc, st, y_s, 1.0, 0.03, 1e-12)
    # rolled to the surface attitude the offset points along -normal
    st3 = QuadState(y=y_s - sc.gripper.r_w - sc.d_l, z=1.0, phi=math.pi / 2.0)
    _assert_gap(sc, st3, y_s, 1.0, 0.0, 1e-9)


def _reference_gap(state, sc, y_s, z_s):
    # signed distance from the wheel circle to the surface plane
    wy = state.y + sc.d_l * math.sin(state.phi)
    wz = state.z - sc.d_l * math.cos(state.phi)
    n_y = -math.sin(sc.phi_s)
    n_z = math.cos(sc.phi_s)
    return (wy - y_s) * n_y + (wz - z_s) * n_z - sc.gripper.r_w


def _reference_fly_period(state, att, sc, t, dt):
    """The per-substep composition that _fly_period inlines."""
    for i in range(sc.substeps):
        t_sub = t + i * dt
        applied = attitude_pd_lifts(att, state.phi, state.dphi, sc.params, sc.k_p_phi, sc.k_d_phi)
        state = rk4_step(state, lambda _t, c=applied: c, t_sub, dt, sc.params)
        y_s, dy_s = sc.motion.state(t_sub + dt, sc.surface_y0)
        if _reference_gap(state, sc, y_s, sc.surface_z0) <= 0.0:
            return state, (t_sub + dt, dy_s)
    return state, None


def _bits(state, impact):
    return np.array(state.as_tuple() + (impact or ()), dtype=float).tobytes()


def _placed_state(sc, t, gap, v_n, rng):
    """Random state whose wheel sits gap off the surface plane at time t,
    closing on it at normal speed v_n."""
    n_y, n_z = -math.sin(sc.phi_s), math.cos(sc.phi_s)
    y_s, dy_s = sc.motion.state(t, sc.surface_y0)
    u, v_t = rng.uniform(-0.2, 0.2), rng.uniform(-1.0, 1.0)
    phi = rng.uniform(-0.3, 1.8)
    wy = y_s + (gap + sc.gripper.r_w) * n_y + u * n_z
    wz = sc.surface_z0 + (gap + sc.gripper.r_w) * n_z - u * n_y
    return QuadState(
        y=wy - sc.d_l * math.sin(phi), z=wz + sc.d_l * math.cos(phi),
        dy=dy_s - v_n * n_y + v_t * n_z, dz=-v_n * n_z - v_t * n_y,
        phi=phi, dphi=rng.uniform(-3.0, 3.0))


#: one ramp profile per direction; t_ramp = 1 s
MOTIONS = {
    "static": SurfaceMotion(),
    "forward": SurfaceMotion(kind="ramp", v_target=1.0, accel=1.0, direction="forward"),
    "backward": SurfaceMotion(kind="ramp", v_target=1.0, accel=1.0, direction="backward"),
}
#: (wheel gap at the period start, closing speed): contact at the first
#: substep, contact mid-period at 33 substeps, no contact
PLACEMENTS = ((-0.005, 0.5), (0.012, 1.0), (0.3, 0.0))


def _commands(state, F_max, rng):
    """(command, state) pairs whose lifts clamp at 0 and at F_max, sit exactly
    on 0 and on F_max at the first substep, or fall inside the band."""
    level = replace(state, dphi=0.0)
    return [
        (AttitudeThrustCmd(rng.uniform(0.2, 1.8) * F_max, rng.uniform(-0.5, 2.0)), state),
        (AttitudeThrustCmd(3.0 * F_max, rng.uniform(-0.5, 2.0)), state),
        (AttitudeThrustCmd(-F_max, rng.uniform(-0.5, 2.0)), state),
        (AttitudeThrustCmd(2.0 * F_max, level.phi), level),
        (AttitudeThrustCmd(0.0, level.phi), level),
    ]


@pytest.mark.parametrize("substeps", [1, 33])
@pytest.mark.parametrize("motion", list(MOTIONS))
def test_fly_period_matches_reference_substeps(motion, substeps):
    sc = replace(SC, motion=MOTIONS[motion], substeps=substeps)
    dt = 1.0 / sc.control_rate / substeps
    F_max = sc.params.F_max
    rng = np.random.default_rng(substeps)
    contact_at = set()
    lifts = set()
    # periods before, across and after the end of the ramp
    for t in (0.3, 1.0 - 10 * dt, 1.5):
        for gap, v_n in PLACEMENTS:
            for _ in range(4):
                placed = _placed_state(sc, t, gap, v_n, rng)
                for att, st in _commands(placed, F_max, rng):
                    got = _fly_period(st, att, sc, t, dt)
                    want = _reference_fly_period(st, att, sc, t, dt)
                    assert _bits(*got) == _bits(*want), (t, gap, att, st)
                    impact = got[1]
                    contact_at.add(None if impact is None else round((impact[0] - t) / dt) - 1)
                    first = attitude_pd_lifts(att, st.phi, st.dphi, sc.params, sc.k_p_phi, sc.k_d_phi)
                    lifts.update((first.F1, first.F2))
    assert {None, 0} <= contact_at
    if substeps > 1:
        assert any(i is not None and 0 < i < substeps - 1 for i in contact_at)
    assert {0.0, F_max} <= lifts


@pytest.mark.parametrize("name", ["static_47.ini", "moving_90_forward.ini"])
def test_episode_trace_matches_reference_substeps(name, monkeypatch):
    sc = replace(load_scenario(str(SCENARIOS / name)), seed=0)
    shipped = run_episode(sc)
    monkeypatch.setattr(perchsim.sim, "_fly_period", _reference_fly_period)
    ref = run_episode(sc)
    assert shipped.impact_t is not None
    for col in EpisodeTrace.COLUMNS:
        assert getattr(shipped.trace, col).tobytes() == getattr(ref.trace, col).tobytes(), col
    for field in ("impact_t", "impact_phi_e", "impact_dV_Ys", "impact_dV_Zs", "impact_nu_s"):
        assert getattr(shipped, field) == getattr(ref, field), field


def test_impact_records_the_engaged_cup():
    res = run_episode(SC)
    cup = select_cup(res.impact_dV_Ys, res.impact_phi_e, SC.gripper.alpha_w)
    assert (res.impact_cup, res.impact_cup_residual) == cup


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
