"""Acceptance gate: every release criterion, one pass/fail line each.

The campaign batches are built once per module and shared by the planner
latency, success-rate and handover criteria.  Lines print outside pytest's
capture so the run log always carries the verdicts.
"""

import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from perchsim.controller import acceleration_to_attitude_thrust
from perchsim.dynamics import GRAVITY
from perchsim.gripper import AdhesionModel, adhesion_force
from perchsim.oracles import minjerk_suite, roundtrip_suite, timesearch_suite
from perchsim.scenarios import load_scenario
from perchsim.sim import run_batch
from perchsim.surface import SurfacePrediction
from perchsim.terminal import PerchConditions, get_terminal_states

MASS = 0.945
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
STATIC = {deg: load_scenario(str(SCENARIO_DIR / f"static_{deg}.ini")) for deg in (47, 70, 90)}
MOVING = load_scenario(str(SCENARIO_DIR / "moving_90_forward.ini"))


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


@pytest.fixture(scope="module")
def static_batches():
    return {deg: run_batch(sc, 10) for deg, sc in STATIC.items()}


@pytest.fixture(scope="module")
def moving_batch():
    return run_batch(MOVING, 10)


def test_criterion_1_minjerk_matches_oracle(capsys):
    t0 = time.perf_counter()
    rep = minjerk_suite(1000)
    elapsed = time.perf_counter() - t0
    ok = rep["ok"] and elapsed < 5.0
    _report(capsys, "criterion-1", ok,
            f"n={rep['n']} max_position_dev={rep['max_position_dev']:.3e} "
            f"max_boundary_rel={rep['max_boundary_rel']:.3e} elapsed={elapsed:.2f}s "
            f"(limits 1e-6, 1e-9, 5s)")
    assert rep["max_position_dev"] < 1e-6
    assert rep["max_boundary_rel"] < 1e-9
    assert elapsed < 5.0


def test_criterion_2_lift_roundtrip(capsys):
    t0 = time.perf_counter()
    rep = roundtrip_suite(100, dt=1e-4)
    elapsed = time.perf_counter() - t0
    ok = rep["ok"] and elapsed < 60.0
    _report(capsys, "criterion-2", ok,
            f"n={rep['n']} max_position_err={rep['max_position_err']:.3e} "
            f"elapsed={elapsed:.2f}s (limits 1e-4, 60s)")
    assert rep["max_position_err"] < 1e-4
    assert elapsed < 60.0


def test_criterion_3_search_matches_brute_force(capsys):
    rep = timesearch_suite(100)
    ok = rep["ok"]
    _report(capsys, "criterion-3", ok,
            f"n={rep['n']} max_time_gap={rep['max_time_gap']:.3f}s "
            f"violations={rep['violations']} (limit 0.1s, 0)")
    assert rep["violations"] == 0


def test_criterion_4_planner_latency(capsys, static_batches):
    ms = [1e3 * s for s in static_batches[47].solve_times]
    med = statistics.median(ms)
    frac = sum(1 for v in ms if v < 10.0) / len(ms)
    ok = med < 10.0 and frac >= 0.73
    _report(capsys, "criterion-4", ok,
            f"plan_calls={len(ms)} median={med:.3f}ms fraction_under_10ms={frac:.3f} "
            f"(limits <10ms, >=0.73)")
    assert med < 10.0
    assert frac >= 0.73


def test_criterion_5_terminal_handover_identity(capsys):
    rng = np.random.default_rng(20245)
    worst_phi = 0.0
    worst_f = 0.0
    for _ in range(1000):
        phi_s = math.radians(rng.uniform(0.0, 90.0))
        pred = SurfacePrediction(y0=rng.uniform(1.0, 3.0), vy=rng.uniform(-1.0, 1.0),
                                 z0=rng.uniform(0.5, 2.0), phi_s=phi_s, t_fit=0.0)
        cond = PerchConditions(rng.uniform(0.0, 0.5), rng.uniform(-0.8, -0.1),
                               rng.uniform(0.05, 0.4))
        ts = get_terminal_states(pred, rng.uniform(0.0, 2.0), cond)
        att = acceleration_to_attitude_thrust(np.array([ts.ddy, ts.ddz]), MASS)
        worst_phi = max(worst_phi, abs(att.phi - phi_s))
        worst_f = max(worst_f, abs(att.f - MASS * GRAVITY) / (MASS * GRAVITY))
    ok = worst_phi < 1e-12 and worst_f < 1e-12
    _report(capsys, "criterion-5", ok,
            f"n=1000 max_attitude_err={worst_phi:.3e}rad max_thrust_rel={worst_f:.3e} "
            f"(limits 1e-12, 1e-12)")
    assert worst_phi < 1e-12
    assert worst_f < 1e-12


def test_criterion_6_static_success_rates(capsys, static_batches):
    counts = {deg: sum(e.success for e in b.episodes) for deg, b in static_batches.items()}
    ok = all(c >= 9 for c in counts.values())
    _report(capsys, "criterion-6",
            ok, f"successes/10 at 47/70/90 deg = "
                f"{counts[47]}/{counts[70]}/{counts[90]} (limit >=9 each)")
    for deg in (47, 70, 90):
        assert counts[deg] >= 9, f"{deg} deg: {counts[deg]}/10"


def test_criterion_7_moving_surface(capsys, moving_batch):
    n_ok = sum(e.success for e in moving_batch.episodes)
    nus = [e.impact_nu_s for e in moving_batch.episodes if e.success]
    mean_nu = sum(nus) / len(nus) if nus else float("nan")
    ok = n_ok >= 7 and 0.8 <= mean_nu <= 1.2
    _report(capsys, "criterion-7", ok,
            f"successes={n_ok}/10 mean_surface_speed_at_impact={mean_nu:.3f}m/s "
            f"(limits >=7, [0.8, 1.2])")
    assert n_ok >= 7
    assert 0.8 <= mean_nu <= 1.2


def test_criterion_8_handover_and_impact_window(capsys, static_batches, moving_batch):
    checked = 0
    bad = []
    for key, batch in [(47, static_batches[47]), (70, static_batches[70]),
                       (90, static_batches[90]), ("moving", moving_batch)]:
        sc = MOVING if key == "moving" else STATIC[key]
        for i, e in enumerate(batch.episodes):
            if not e.success:
                continue
            checked += 1
            w = e.trace.phase == 1.0
            bitwise = (w.sum() > 0
                       and np.array_equal(e.trace.cmd_ay[w], e.trace.ref_ay[w])
                       and np.array_equal(e.trace.cmd_az[w], e.trace.ref_az[w]))
            in_env = sc.envelope.phi_e_min <= e.impact_phi_e <= sc.envelope.phi_e_max
            if not (bitwise and in_env):
                bad.append((key, i))
    ok = checked > 0 and not bad
    _report(capsys, "criterion-8",
            ok, f"episodes_checked={checked} violations={len(bad)} "
                f"(window commands bitwise-equal reference, impact attitude in envelope)")
    assert checked > 0
    assert not bad, f"violations: {bad}"


def test_criterion_9_adhesion_forces(capsys):
    F_G, F_f = adhesion_force(AdhesionModel(P_G=-61500.0, R_cup=0.015, mu=0.3), n_cups=2)
    err_G = abs(F_G - 86.9) / 86.9
    err_f = abs(F_f - 26.1) / 26.1
    ok = err_G < 0.005 and err_f < 0.005
    _report(capsys, "criterion-9", ok,
            f"F_G={F_G:.2f}N (ref 86.9, rel_err={err_G:.4f}) "
            f"F_f={F_f:.2f}N (ref 26.1, rel_err={err_f:.4f}) (limit 0.5%)")
    assert err_G < 0.005
    assert err_f < 0.005
