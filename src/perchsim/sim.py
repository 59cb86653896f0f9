"""Closed-loop perching episodes against a truth surface model.

One episode reproduces the experiment protocol: hover, detect surface
motion, replan a rendezvous trajectory at the control rate while tracking
it, hand over to pure feedforward near the end, and score the impact when
the gripper wheel touches the surface plane.  Batches rerun the episode
under seeded sample noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from .controller import (
    AttitudeThrustCmd,
    ControllerGains,
    TrackingController,
    acceleration_to_attitude_thrust,
    attitude_pd_lifts,
)
# nothing here calls rk4_step; perfbench/tracing.py rebinds it by this name
from .dynamics import GRAVITY, QuadParams, QuadState, rk4_step  # noqa: F401
from .flatness import Constraints
from .gripper import GripperGeometry, PerchEnvelope, judge_perch, select_cup
from .minjerk import AxisTrajectory, FlatState
from .surface import SurfaceSample, SurfaceTrack, fit
from .terminal import PerchConditions
from . import timesearch
from .timesearch import InitializationFailedError, PlanResult, SearchState

NO_CONTACT = "no-contact"

#: plan outcome codes used in the numeric trace
OUTCOME_CODE = {None: -1, timesearch.FOUND: 0, timesearch.FALLBACK: 1, timesearch.STOPPED: 2}


@dataclass(frozen=True)
class SurfaceMotion:
    """Truth motion profile of the surface reference point.

    static: fixed point.  ramp: accelerate along +Y (forward) or -Y
    (backward) at `accel` until `v_target`, then hold the speed.
    """

    kind: str = "static"  # "static" | "ramp"
    v_target: float = 0.0
    accel: float = 1.0
    direction: str = "forward"  # "forward" | "backward"

    def __post_init__(self):
        if self.kind not in ("static", "ramp"):
            raise ValueError(f"unknown motion kind {self.kind!r}")
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.kind == "ramp" and not (self.v_target > 0 and self.accel > 0):
            raise ValueError("ramp motion needs positive v_target and accel")

    def state(self, t: float, y0: float) -> Tuple[float, float]:
        """Truth (y_s, dy_s) at time t for a profile anchored at y0."""
        if self.kind == "static":
            return y0, 0.0
        s = 1.0 if self.direction == "forward" else -1.0
        t_ramp = self.v_target / self.accel
        if t < t_ramp:
            return y0 + s * 0.5 * self.accel * t * t, s * self.accel * t
        return y0 + s * (self.v_target * t - 0.5 * self.v_target * t_ramp), s * self.v_target


@dataclass(frozen=True)
class Scenario:
    """Full configuration of one perching episode."""

    phi_s: float
    motion: SurfaceMotion
    surface_y0: float
    surface_z0: float
    quad_y0: float
    quad_z0: float
    params: QuadParams
    constraints: Constraints
    conditions: PerchConditions
    gains: ControllerGains = ControllerGains()
    envelope: PerchEnvelope = PerchEnvelope()
    gripper: GripperGeometry = GripperGeometry()
    noise_sigma: float = 0.001
    seed: int = 0
    # harness settings, the [harness] section of a scenario file: every field
    # from d_l on
    d_l: float = 0.0859            # gripper mount offset below the body center
    control_rate: float = 30.0
    substeps: int = 33             # physics steps per control period (dt ~ 1 ms)
    predictor_window: float = 0.5
    detect_threshold: float = 0.05  # fitted surface speed that counts as motion
    timeout: float = 8.0
    k_p_phi: float = 120.0
    k_d_phi: float = 22.0
    stall_thrust: float = 0.4      # hover fraction held while waiting for contact

    def __post_init__(self):
        if not 0 < self.control_rate < math.inf:
            raise ValueError("control_rate must be positive and finite")
        if not self.predictor_window > 1.0 / self.control_rate:
            raise ValueError("predictor_window must exceed one control period")
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")
        if not (math.isfinite(self.timeout) and self.n_ticks >= 1):
            raise ValueError("timeout must be finite and last at least one control period")
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be nonnegative")
        if not self.detect_threshold >= 0:
            raise ValueError("detect_threshold must be nonnegative")

    @property
    def n_ticks(self) -> int:
        """Control periods in one episode."""
        return int(round(self.timeout / (1.0 / self.control_rate)))


@dataclass
class EpisodeTrace:
    """Per-control-tick signal log (numpy arrays after finalize)."""

    t: np.ndarray
    y: np.ndarray
    z: np.ndarray
    phi: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    ref_y: np.ndarray
    ref_z: np.ndarray
    ref_dy: np.ndarray
    ref_dz: np.ndarray
    ref_ay: np.ndarray
    ref_az: np.ndarray
    cmd_ay: np.ndarray
    cmd_az: np.ndarray
    phase: np.ndarray
    plan_T: np.ndarray
    plan_outcome: np.ndarray

    COLUMNS: ClassVar[Tuple[str, ...]]


#: trace column names, in field order
EpisodeTrace.COLUMNS = tuple(f.name for f in fields(EpisodeTrace))


@dataclass(frozen=True)
class PlanRecord:
    """One planner invocation as stored in the episode log."""

    t: float
    result: PlanResult


@dataclass
class EpisodeResult:
    """Outcome and full logs of one episode.

    Impact fields are None unless contact occurred.  impact_cup is the
    engaged cup of the wheel (select_cup: -1, 0, +1 for lower, center,
    upper) and impact_cup_residual the attitude error left for it to absorb.
    solve_times mirrors the planner call sequence; wall-clock solve times
    are excluded from the determinism guarantee, everything else reproduces
    bit-for-bit per seed.
    """

    success: bool
    failure: Optional[str]
    impact_t: Optional[float]
    impact_phi_e: Optional[float]
    impact_dV_Ys: Optional[float]
    impact_dV_Zs: Optional[float]
    impact_nu_s: Optional[float]
    impact_cup: Optional[int]
    impact_cup_residual: Optional[float]
    solve_times: List[float]
    trace: EpisodeTrace
    plans: List[PlanRecord]


@dataclass
class BatchResult:
    """Aggregate over n seeded episodes of one scenario."""

    episodes: List[EpisodeResult]
    success_rate: float
    avg_nu_s: Optional[float]
    solve_times: List[float]

    @property
    def n(self) -> int:
        return len(self.episodes)


def _fly_period(
    state: QuadState, att: AttitudeThrustCmd, sc: Scenario, t: float, dt: float,
) -> Tuple[QuadState, Optional[Tuple[float, float]]]:
    """Fly one control period of sc.substeps physics steps under a held command.

    Each substep realizes att as pair lifts through the roll PD loop and the
    clamp of attitude_pd_lifts, takes one constant-command step in the exact
    operation order of dynamics.rk4_step, and tests the wheel against the
    truth surface plane.  The wheel center hangs d_l below the body center
    along the body -z axis; the plane passes through the surface reference
    point with normal (-sin phi_s, cos phi_s); a nonpositive gap between
    plane and wheel circle is contact.

    The period runs on local floats because it is the plant's hot path;
    tests hold it bit-equal to the per-substep composition of
    attitude_pd_lifts, rk4_step and SurfaceMotion.state.

    Returns:
        (state at the end of the period, or at contact; None, or the
        contact time and the truth surface speed dy_s there).
    """
    p = sc.params
    m, g, F_max = p.m, GRAVITY, p.F_max
    dsj = p.d_s / p.J
    jds = p.J / p.d_s
    k_p, k_d = sc.k_p_phi, sc.k_d_phi
    f, phi_c = att.f, att.phi
    d_l, r_w, z_s = sc.d_l, sc.gripper.r_w, sc.surface_z0
    n_y = -math.sin(sc.phi_s)
    n_z = math.cos(sc.phi_s)
    motion, y0 = sc.motion, sc.surface_y0
    moving = motion.kind != "static"
    y_s, dy_s = motion.state(t, y0)
    h = 0.5 * dt
    s = dt / 6.0
    sin, cos = math.sin, math.cos

    y, z, dy, dz, phi, dphi = state.as_tuple()
    sp, cp = sin(phi), cos(phi)
    for i in range(sc.substeps):
        diff = jds * (k_p * (phi_c - phi) - k_d * dphi)
        F1 = 0.5 * (f + diff)
        F2 = 0.5 * (f - diff)
        # min(max(F, 0.0), F_max) with the same result for -0.0 and NaN
        if F1 < 0.0:
            F1 = 0.0
        if F1 > F_max:
            F1 = F_max
        if F2 < 0.0:
            F2 = 0.0
        if F2 > F_max:
            F2 = F_max

        # RK4 stages k1..k4 under the constant lifts; the roll acceleration
        # and the total lift are the same at every stage
        total = F1 + F2
        ddphi = (F1 - F2) * dsj
        a1y = -total * sp / m
        a1z = total * cp / m - g
        w2 = dphi + h * ddphi
        phi2 = phi + h * dphi
        a2y = -total * sin(phi2) / m
        a2z = total * cos(phi2) / m - g
        phi3 = phi + h * w2
        a3y = -total * sin(phi3) / m
        a3z = total * cos(phi3) / m - g
        phi4 = phi + dt * w2
        a4y = -total * sin(phi4) / m
        a4z = total * cos(phi4) / m - g
        y = y + s * (dy + 2.0 * (dy + h * a1y) + 2.0 * (dy + h * a2y) + (dy + dt * a3y))
        z = z + s * (dz + 2.0 * (dz + h * a1z) + 2.0 * (dz + h * a2z) + (dz + dt * a3z))
        dy = dy + s * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)
        dz = dz + s * (a1z + 2.0 * a2z + 2.0 * a3z + a4z)
        phi = phi + s * (dphi + 2.0 * w2 + 2.0 * w2 + (dphi + dt * ddphi))
        dphi = dphi + s * (ddphi + 2.0 * ddphi + 2.0 * ddphi + ddphi)

        sp, cp = sin(phi), cos(phi)
        t_end = t + i * dt + dt
        if moving:
            y_s, dy_s = motion.state(t_end, y0)
        if (y + d_l * sp - y_s) * n_y + (z - d_l * cp - z_s) * n_z - r_w <= 0.0:
            return QuadState(y, z, dy, dz, phi, dphi), (t_end, dy_s)
    return QuadState(y, z, dy, dz, phi, dphi), None


def run_episode(sc: Scenario) -> EpisodeResult:
    """Run one closed-loop episode; see the module docstring for the protocol."""
    rng = np.random.default_rng(sc.seed)
    params = sc.params
    control_dt = 1.0 / sc.control_rate
    dt = control_dt / sc.substeps

    state = QuadState(y=sc.quad_y0, z=sc.quad_z0)
    controller = TrackingController(sc.gains)
    track = SurfaceTrack()

    search: Optional[SearchState] = None
    planner_active = True
    detected = sc.motion.kind == "static"
    active: Optional[Tuple[float, float, AxisTrajectory, AxisTrajectory]] = None

    rows: List[List[float]] = []
    solve_times: List[float] = []
    plans: List[PlanRecord] = []

    impact: Optional[Tuple[float, float]] = None  # (t, dy_s)

    for k in range(sc.n_ticks):
        t = k * control_dt

        y_s_true, dy_s_true = sc.motion.state(t, sc.surface_y0)
        track.append(SurfaceSample(
            t,
            y_s_true + rng.normal(0.0, sc.noise_sigma),
            sc.surface_z0 + rng.normal(0.0, sc.noise_sigma),
        ))

        # nothing reads the prediction once the planner has stopped
        pred = None
        if planner_active and len(track) >= 2:
            pred = fit(track, sc.predictor_window, sc.phi_s)
        if not detected and pred is not None and abs(pred.vy) >= sc.detect_threshold:
            detected = True

        plan_T = math.nan
        plan_code = OUTCOME_CODE[None]
        if detected and planner_active and pred is not None:
            # position and velocity are measured; acceleration is not (motion
            # capture cannot observe it), so the replanning state reuses the
            # acceleration of the reference currently being fed forward
            if active is None:
                ddy0, ddz0 = 0.0, 0.0
            else:
                t_adopt, T_active, ty, tz = active
                te0 = min(t - t_adopt, T_active)
                ddy0 = ty.eval(te0)[2]
                ddz0 = tz.eval(te0)[2]
            s0 = FlatState(state.y, state.dy, ddy0, state.z, state.dz, ddz0)
            if search is None:
                try:
                    search = timesearch.initialize(
                        t, s0, pred, sc.conditions, sc.constraints, params)
                except InitializationFailedError:
                    search = None
            if search is not None:
                result = timesearch.plan(search, t, s0, pred, sc.conditions, sc.constraints, params)
                solve_times.append(result.solve_time)
                plans.append(PlanRecord(t, result))
                plan_T = result.T
                plan_code = OUTCOME_CODE[result.outcome]
                if result.trajectories is not None:
                    active = (t, result.T, result.trajectories[0], result.trajectories[1])
                elif result.outcome == timesearch.STOPPED:
                    planner_active = False

        # the reference leads the tick by one control interval: each adopted
        # trajectory starts at the measured state, so its tau = 0 sample is
        # the vehicle itself and tracking it would command a standstill
        if active is None:
            ref_p = (float(sc.quad_y0), float(sc.quad_z0))
            ref_v = ref_a = (0.0, 0.0)
            tau, T_active = control_dt, math.inf
        else:
            t_adopt, T_active, ty, tz = active
            tau = t - t_adopt + control_dt
            te = min(tau, T_active)
            py, vy, ay, _, _ = ty.eval(te)
            pz, vz, az, _, _ = tz.eval(te)
            ref_p = (py, pz)
            ref_v = (vy, vz)
            ref_a = (ay, az)

        if tau > T_active:
            # past the end of the last trajectory: drop to a low-throttle
            # surface-aligned posture and wait for contact (pre-stall hold)
            f_stall = sc.stall_thrust * params.m * GRAVITY
            att = AttitudeThrustCmd(f_stall, sc.phi_s)
            cmd = (
                -f_stall * math.sin(sc.phi_s) / params.m,
                f_stall * math.cos(sc.phi_s) / params.m - GRAVITY,
            )
            phase = 2.0
        else:
            cmd = controller.command(ref_p, ref_v, ref_a, (state.y, state.z),
                                     (state.dy, state.dz), tau, T_active, control_dt)
            att = acceleration_to_attitude_thrust(cmd, params.m)
            phase = 1.0 if tau > T_active - sc.gains.delta_t else 0.0

        applied = attitude_pd_lifts(att, state.phi, state.dphi, params, sc.k_p_phi, sc.k_d_phi)
        rows.append([
            t, state.y, state.z, state.phi, state.dy, state.dz,
            applied.F1, applied.F2,
            ref_p[0], ref_p[1], ref_v[0], ref_v[1], ref_a[0], ref_a[1],
            cmd[0], cmd[1], phase, plan_T, float(plan_code),
        ])

        state, impact = _fly_period(state, att, sc, t, dt)
        if impact is not None:
            break

    trace = EpisodeTrace(*(np.array(col) for col in zip(*rows)))

    if impact is None:
        return EpisodeResult(
            success=False, failure=NO_CONTACT, impact_t=None, impact_phi_e=None,
            impact_dV_Ys=None, impact_dV_Zs=None, impact_nu_s=None,
            impact_cup=None, impact_cup_residual=None,
            solve_times=solve_times, trace=trace, plans=plans)

    t_imp, dy_s_imp = impact
    phi_e = state.phi - sc.phi_s
    tx, tz_ = math.cos(sc.phi_s), math.sin(sc.phi_s)
    nx, nz = -math.sin(sc.phi_s), math.cos(sc.phi_s)
    rel_y = state.dy - dy_s_imp
    rel_z = state.dz
    dV_Ys = rel_y * tx + rel_z * tz_
    dV_Zs = rel_y * nx + rel_z * nz
    ok, kind = judge_perch(phi_e, dV_Ys, dV_Zs, sc.envelope)
    cup, cup_residual = select_cup(dV_Ys, phi_e, sc.gripper.alpha_w)
    return EpisodeResult(
        success=ok, failure=kind, impact_t=t_imp, impact_phi_e=phi_e,
        impact_dV_Ys=dV_Ys, impact_dV_Zs=dV_Zs, impact_nu_s=dy_s_imp,
        impact_cup=cup, impact_cup_residual=cup_residual,
        solve_times=solve_times, trace=trace, plans=plans)


def run_batch(sc: Scenario, n: int) -> BatchResult:
    """Run n episodes with seeds sc.seed .. sc.seed + n - 1 and aggregate."""
    if n < 1:
        raise ValueError("need at least one episode")
    episodes = [run_episode(replace(sc, seed=sc.seed + k)) for k in range(n)]
    n_success = sum(e.success for e in episodes)
    nus = [e.impact_nu_s for e in episodes if e.impact_nu_s is not None]
    solve_times = [s for e in episodes for s in e.solve_times]
    return BatchResult(
        episodes=episodes,
        success_rate=n_success / n,
        avg_nu_s=(sum(nus) / len(nus)) if nus else None,
        solve_times=solve_times,
    )
