"""Receding-horizon minimum-time search."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import perchsim.sim
import perchsim.timesearch
from perchsim.dynamics import QuadParams
from perchsim.flatness import Constraints, check_feasible
from perchsim.minjerk import AxisBoundary, solve_axis
from perchsim.oracles import brute_force_min_time
from perchsim.scenarios import load_scenario
from perchsim.sim import EpisodeTrace, run_episode
from perchsim.surface import SurfacePrediction
from perchsim.terminal import PerchConditions, get_terminal_states
from perchsim.timesearch import (
    SCREEN_BLOCK,
    BISECT_TOL,
    FALLBACK,
    FOUND,
    MIN_STRIDE,
    STOP_CUTOFF,
    STOPPED,
    FlatState,
    InitializationFailedError,
    PlanResult,
    SearchState,
    _screen_horizons,
    _solve_pair,
    initialize,
    plan,
)
from test_flatness import reference_feasible_rows

PARAMS = QuadParams(m=0.945)
CONSTR = Constraints(z_min=-2.0, z_max=5.0, v_min=-2.5, v_max=2.5,
                     F_max=PARAMS.F_max, n_samples=50)
PRED = SurfacePrediction(y0=2.2, vy=0.0, z0=1.0, phi_s=math.radians(70), t_fit=0.0)
COND = PerchConditions(0.3, -0.5, 0.25)
S0 = FlatState(y=0.0, dy=0.0, ddy=0.0, z=1.2, dz=0.0, ddz=0.0)


def _feasible_at(T):
    sT = get_terminal_states(PRED, T, COND)
    ty = solve_axis(AxisBoundary(S0.y, S0.dy, S0.ddy, sT.y, sT.dy, sT.ddy), T)
    tz = solve_axis(AxisBoundary(S0.z, S0.dz, S0.ddz, sT.z, sT.dz, sT.ddz), T)
    return check_feasible(ty, tz, CONSTR, PARAMS)


def test_initialize_commits_first_feasible_probe():
    st = initialize(0.0, S0, PRED, COND, CONSTR, PARAMS)
    k = round(st.T_last / 0.1)
    assert st.T_last == pytest.approx(0.1 * k, abs=1e-12)
    assert _feasible_at(st.T_last)
    assert not _feasible_at(st.T_last - 0.1)


def test_initialize_failure_when_nothing_fits():
    tight = Constraints(z_min=-2.0, z_max=5.0, v_min=-0.1, v_max=0.1,
                        F_max=PARAMS.F_max, n_samples=50)
    with pytest.raises(InitializationFailedError):
        initialize(0.0, S0, PRED, COND, tight, PARAMS)


def test_plan_found_tracks_brute_force():
    st = initialize(0.0, S0, PRED, COND, CONSTR, PARAMS)
    lo, hi = 0.5 * st.T_last, 1.5 * st.T_last
    res = plan(st, 0.0, S0, PRED, COND, CONSTR, PARAMS)
    assert res.outcome == FOUND
    assert lo <= res.T <= hi
    ref = brute_force_min_time(S0, PRED, COND, lo, hi, CONSTR, PARAMS)
    assert ref is not None
    assert abs(res.T - ref) <= BISECT_TOL
    ty, tz = res.trajectories
    assert check_feasible(ty, tz, CONSTR, PARAMS)
    assert res.terminal == get_terminal_states(PRED, res.T, COND)
    assert res.solve_time > 0.0


def test_plan_found_endpoints():
    st = initialize(0.0, S0, PRED, COND, CONSTR, PARAMS)
    res = plan(st, 0.0, S0, PRED, COND, CONSTR, PARAMS)
    ty, tz = res.trajectories
    assert ty.eval(0.0)[0] == pytest.approx(S0.y, abs=1e-9)
    assert tz.eval(0.0)[0] == pytest.approx(S0.z, abs=1e-9)
    assert ty.eval(res.T)[0] == pytest.approx(res.terminal.y, abs=1e-9)
    assert tz.eval(res.T)[1] == pytest.approx(res.terminal.dz, abs=1e-9)


def test_plan_found_updates_committed_state():
    st = SearchState(T_last=2.0, T_e=0.0)
    res = plan(st, 0.05, S0, PRED, COND, CONSTR, PARAMS)
    assert res.outcome == FOUND
    assert st.T_last == res.T
    assert st.T_e == 0.05


def test_plan_is_deterministic():
    a = plan(SearchState(2.0, 0.0), 0.0, S0, PRED, COND, CONSTR, PARAMS)
    b = plan(SearchState(2.0, 0.0), 0.0, S0, PRED, COND, CONSTR, PARAMS)
    assert a.T == b.T
    assert a.trajectories[0] == b.trajectories[0]
    assert a.trajectories[1] == b.trajectories[1]


# a target far beyond reach at v_max 0.5 makes the whole window infeasible
SLOW = Constraints(z_min=-2.0, z_max=5.0, v_min=-0.5, v_max=0.5,
                   F_max=PARAMS.F_max, n_samples=50)
FAR = SurfacePrediction(y0=6.0, vy=0.0, z0=1.0, phi_s=math.radians(70), t_fit=0.0)


def test_fallback_counts_down_then_stops():
    slow, far = SLOW, FAR
    st = SearchState(T_last=0.6, T_e=0.0)

    res = plan(st, 0.1, S0, far, COND, slow, PARAMS)
    assert res.outcome == FALLBACK
    assert res.T == pytest.approx(0.5, abs=1e-12)     # 0.6 minus 0.1 elapsed
    assert res.trajectories is not None
    assert res.terminal is not None
    assert st.T_last == res.T and st.T_e == 0.1

    res2 = plan(st, 0.25, S0, far, COND, slow, PARAMS)
    assert res2.T == pytest.approx(0.35, abs=1e-12)   # under the cutoff now
    assert res2.T < STOP_CUTOFF
    assert res2.outcome == STOPPED
    assert res2.trajectories is None
    assert res2.terminal is None


# --- the probe-by-probe search, kept here as the reference for the batched one


def _probe(s0, pred, cond, T, c, params):
    sT = get_terminal_states(pred, T, cond)
    ty, tz = _solve_pair(s0, sT, T)
    return bool(check_feasible(ty, tz, c, params))


def _reference_initialize(s0, pred, cond, c, params):
    step, cap = 0.1, 10.0
    n = int(round(cap / step))
    for k in range(1, n + 1):
        T = k * step
        if _probe(s0, pred, cond, T, c, params):
            return T
    raise InitializationFailedError(f"no feasible horizon up to {cap} s")


def _reference_plan(T_last, T_e, now, s0, pred, cond, c, params):
    """(T, outcome, terminal, trajectories, probes, stride levels)."""
    probes, levels = 0, 1
    T_l = 0.5 * T_last
    T_r = 1.5 * T_last
    stride = (T_r - T_l) / 5.0
    flag = False
    while not flag:
        probes += 1
        flag = _probe(s0, pred, cond, T_l, c, params)
        if not flag:
            T_l += stride
            if T_l > T_r:
                stride *= 0.5
                T_l = 0.5 * T_last + stride
                if stride < MIN_STRIDE:
                    break
                levels += 1
        else:
            T_r = T_l
            T_l = T_r - stride
            while T_r - T_l > BISECT_TOL:
                mid = 0.5 * (T_l + T_r)
                probes += 1
                if _probe(s0, pred, cond, mid, c, params):
                    T_r = mid
                else:
                    T_l = mid
            break
    if flag:
        T, outcome = T_r, FOUND
    else:
        T, outcome = T_last - (now - T_e), FALLBACK
    if T < STOP_CUTOFF:
        return T, STOPPED, None, None, probes, levels
    sT = get_terminal_states(pred, T, cond)
    return T, outcome, sT, _solve_pair(s0, sT, T), probes, levels


def _assert_plan_matches_reference(T_last, pred, c, now=0.0, s0=S0):
    ref = _reference_plan(T_last, 0.0, now, s0, pred, COND, c, PARAMS)
    res = plan(SearchState(T_last, 0.0), now, s0, pred, COND, c, PARAMS)
    assert (res.T, res.outcome, res.terminal, res.trajectories) == ref[:4]
    assert type(res.T) is float
    return res, ref


def test_batched_plan_found_in_first_pass_matches_reference():
    res, ref = _assert_plan_matches_reference(2.0, PRED, CONSTR)
    assert res.outcome == FOUND and ref[5] == 1 and res.passes == 1


def test_batched_plan_found_after_halving_matches_reference():
    res, ref = _assert_plan_matches_reference(0.905, PRED, CONSTR)
    assert res.outcome == FOUND and ref[5] >= 2
    assert res.passes == ref[5]


def test_batched_plan_fallback_then_stop_matches_reference():
    res, _ = _assert_plan_matches_reference(0.6, FAR, SLOW, now=0.1)
    assert res.outcome == FALLBACK
    res, _ = _assert_plan_matches_reference(0.5, FAR, SLOW, now=0.15)
    assert res.outcome == STOPPED


def test_batched_initialize_matches_reference():
    st = initialize(0.0, S0, PRED, COND, CONSTR, PARAMS)
    assert st.T_last == _reference_initialize(S0, PRED, COND, CONSTR, PARAMS)
    assert type(st.T_last) is float
    tight = Constraints(z_min=-2.0, z_max=5.0, v_min=-0.1, v_max=0.1,
                        F_max=PARAMS.F_max, n_samples=50)
    with pytest.raises(InitializationFailedError):
        _reference_initialize(S0, PRED, COND, tight, PARAMS)
    with pytest.raises(InitializationFailedError):
        initialize(0.0, S0, PRED, COND, tight, PARAMS)


def test_fallback_work_counts_are_pinned():
    # every pass of a FALLBACK cycle is screened whole, so its horizons are
    # the probe-by-probe loop's probes and there is one pass per stride level;
    # on top of them come the first pass's speculative midpoints: its 0.12 s
    # stride takes one bisection step, one midpoint under each of 6 horizons
    res, ref = _assert_plan_matches_reference(0.6, FAR, SLOW, now=0.1)
    stride, first = next(perchsim.timesearch._coarse_passes(0.6))
    assert len(first) == 6 and stride > BISECT_TOL >= 0.5 * stride
    assert (res.probes, res.passes) == (ref[4] + len(first), ref[5])
    assert (res.screens, res.probes, res.passes) == (2, 80, 4)


# windows whose first hit sits in the first pass, in a later pass, or nowhere
WINDOWS = [(float(T_last), pred, c) for T_last in np.linspace(0.45, 3.5, 23)
           for pred, c in ((PRED, CONSTR), (FAR, SLOW))]


def test_plan_matches_reference_across_windows():
    # no cycle takes more than two array screens
    for T_last, pred, c in WINDOWS:
        res, ref = _assert_plan_matches_reference(T_last, pred, c, now=0.05)
        assert 1 <= res.screens <= 2
        if res.outcome == FOUND:
            assert res.passes == ref[5]


def test_first_pass_hit_takes_one_screen():
    # a hit in the first pass is bisected in the tree screened along with it;
    # every other in-band cycle screens the later passes in a second screen
    first_pass_hits = 0
    for T_last, pred, c in WINDOWS:
        res, _ = _assert_plan_matches_reference(T_last, pred, c, now=0.05)
        if res.outcome == FOUND and res.passes == 1:
            first_pass_hits += 1
            assert res.screens == 1, T_last
        else:
            assert res.screens == 2, T_last
    assert 0 < first_pass_hits < len(WINDOWS)


def test_speculative_bisection_deep_tree_matches_reference():
    # the first pass hits at its bottom horizon and the 0.6 s bracket takes
    # three halvings; the one screen holds the pass's 6 horizons and, under
    # each, the whole three-level tree of 1 + 2 + 4 midpoints
    res, ref = _assert_plan_matches_reference(3.0, PRED, CONSTR)
    assert res.outcome == FOUND and ref[5] == 1
    assert ref[4] == 1 + 3
    assert (res.screens, res.passes, res.probes) == (1, 1, 6 + 6 * 7)


def test_tight_bracket_takes_one_screen(monkeypatch):
    # with a tolerance wider than the stride the first pass's hit is final
    for module in (perchsim.timesearch, sys.modules[__name__]):
        monkeypatch.setattr(module, "BISECT_TOL", 1.0)
    res, _ = _assert_plan_matches_reference(2.0, PRED, CONSTR)
    assert res.outcome == FOUND
    assert (res.screens, res.passes, res.probes) == (1, 1, 6)


def test_speculative_bisection_after_halving_matches_reference():
    # the first pass is empty and the hit comes in the second, whose 0.1005 s
    # stride still needs a bisection step; its midpoint was screened along
    # with the later passes, so the cycle still takes two screens
    res, ref = _assert_plan_matches_reference(1.005, PRED, CONSTR)
    assert res.outcome == FOUND and res.passes == ref[5] == 2
    assert res.screens == 2
    assert res.T not in list(perchsim.timesearch._coarse_passes(1.005))[1][1]


def test_blocked_screen_matches_reference(monkeypatch):
    # a screen longer than one block goes through block by block, in order,
    # and counts the same screens, rows and lift-stage rows as in one block
    whole = {T_last: _assert_plan_matches_reference(T_last, PRED, CONSTR)[0]
             for T_last in (0.905, 1.005, 3.0)}
    monkeypatch.setattr(perchsim.timesearch, "SCREEN_BLOCK", 4)
    for T_last, ref in whole.items():
        res, _ = _assert_plan_matches_reference(T_last, PRED, CONSTR)
        assert res.outcome == FOUND and res.probes > 4
        assert (res.screens, res.probes, res.lift_rows) == (ref.screens, ref.probes, ref.lift_rows)
    # the deep-tree cycle: one screen of 6 horizons and their 6 * 7 midpoints
    assert (whole[3.0].screens, whole[3.0].probes) == (1, 48)
    res, _ = _assert_plan_matches_reference(0.6, FAR, SLOW, now=0.1)
    assert res.outcome == FALLBACK and (res.screens, res.probes) == (2, 80)
    st = initialize(0.0, S0, PRED, COND, CONSTR, PARAMS)
    assert st.T_last == _reference_initialize(S0, PRED, COND, CONSTR, PARAMS)


# start states that break the band: every candidate fails at its first sample
OUT_OF_BAND = {
    "dy_above_v_max": replace(S0, dy=CONSTR.v_max + 0.5),
    "dy_on_v_max": replace(S0, dy=CONSTR.v_max),
    "z_below_z_min": replace(S0, z=CONSTR.z_min - 0.5),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_BAND))
def test_out_of_band_start_falls_back_without_a_screen(name, monkeypatch):
    s0 = OUT_OF_BAND[name]
    ref = _reference_plan(0.6, 0.0, 0.1, s0, PRED, COND, CONSTR, PARAMS)
    assert ref[1] == FALLBACK and ref[4] > 0

    def no_screen(*args):
        raise AssertionError("screened a cycle whose start state is out of band")

    monkeypatch.setattr(perchsim.timesearch, "feasible_rows", no_screen)
    res, _ = _assert_plan_matches_reference(0.6, PRED, CONSTR, now=0.1, s0=s0)
    assert res.outcome == FALLBACK
    assert (res.probes, res.screens, res.passes) == (0, 0, 0)
    res, _ = _assert_plan_matches_reference(0.5, PRED, CONSTR, now=0.15, s0=s0)
    assert res.outcome == STOPPED
    assert (res.probes, res.screens) == (0, 0)

    with pytest.raises(InitializationFailedError):
        _reference_initialize(s0, PRED, COND, CONSTR, PARAMS)
    with pytest.raises(InitializationFailedError):
        initialize(0.0, s0, PRED, COND, CONSTR, PARAMS)


# --- the shipped planner inside whole episodes, against the reference


def _reference_planner_plan(state, now, s0, pred, cond, c, params):
    T, outcome, sT, trajs, probes, passes = _reference_plan(
        state.T_last, state.T_e, now, s0, pred, cond, c, params)
    state.T_last, state.T_e = T, now
    return PlanResult(T=T, outcome=outcome, terminal=sT, trajectories=trajs,
                      solve_time=0.0, probes=probes, passes=passes)


def _reference_planner_initialize(t, s0, pred, cond, c, params):
    T = _reference_initialize(s0, pred, cond, c, params)
    return SearchState(T_last=T, T_e=t)


@pytest.mark.parametrize("name", ["static_47.ini", "moving_90_forward.ini",
                                  "static_70.ini", "static_90.ini"])
def test_episode_trace_matches_reference_planner(name, monkeypatch):
    # the probe-by-probe search in place of the shipped screen layout
    path = Path(__file__).resolve().parent.parent / "scenarios" / name
    sc = replace(load_scenario(str(path)), seed=0)
    shipped = run_episode(sc)
    monkeypatch.setattr(perchsim.sim.timesearch, "plan", _reference_planner_plan)
    monkeypatch.setattr(perchsim.sim.timesearch, "initialize", _reference_planner_initialize)
    ref = run_episode(sc)
    assert len(shipped.plans) == len(ref.plans) > 0
    for col in EpisodeTrace.COLUMNS:
        assert getattr(shipped.trace, col).tobytes() == getattr(ref.trace, col).tobytes(), col
    for p, r in zip(shipped.plans, ref.plans):
        assert (p.result.T, p.result.outcome) == (r.result.T, r.result.outcome)
        if p.result.outcome == FOUND:
            assert p.result.passes == r.result.passes
            assert p.result.screens == (1 if p.result.passes == 1 else 2)


# --- the two-stage screen inside the planner, against the one-pass screen


def test_long_screen_matches_reference_screen(monkeypatch):
    # a screen of several blocks: same verdicts and lift-stage rows
    horizons = [0.4 + 0.021 * k for k in range(3 * SCREEN_BLOCK + 7)]
    counts = []
    for pred, c in ((PRED, CONSTR), (FAR, SLOW)):
        ok, lifted = _screen_horizons(S0, pred, COND, horizons, c, PARAMS)
        with monkeypatch.context() as m:
            m.setattr(perchsim.timesearch, "feasible_rows", reference_feasible_rows)
            ref_ok, ref_lifted = _screen_horizons(S0, pred, COND, horizons, c, PARAMS)
        assert ok.tolist() == ref_ok.tolist() and lifted == ref_lifted
        counts.append(lifted)
    # some rows of the wide band reach the lift stage; none of the slow one
    assert 0 < counts[0] < len(horizons) and counts[1] == 0


@pytest.mark.parametrize("name", ["static_47.ini", "moving_90_forward.ini"])
def test_episode_trace_matches_reference_screen(name, monkeypatch):
    path = Path(__file__).resolve().parent.parent / "scenarios" / name
    sc = replace(load_scenario(str(path)), seed=0)
    shipped = run_episode(sc)
    monkeypatch.setattr(perchsim.timesearch, "feasible_rows", reference_feasible_rows)
    ref = run_episode(sc)
    assert len(shipped.plans) == len(ref.plans) > 0
    for col in EpisodeTrace.COLUMNS:
        assert getattr(shipped.trace, col).tobytes() == getattr(ref.trace, col).tobytes(), col
    counts = [(p.result.probes, p.result.lift_rows) for p in shipped.plans]
    assert counts == [(p.result.probes, p.result.lift_rows) for p in ref.plans]
    # the lift stage ran on some rows, never on more than were screened
    assert 0 < sum(lifted for _, lifted in counts) < sum(probes for probes, _ in counts)
