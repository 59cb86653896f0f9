"""Receding-horizon search for the minimum feasible rendezvous time.

Each planning cycle searches a window around the previously committed
horizon: a coarse forward scan finds a feasible horizon, halving its stride
and restarting whenever a pass comes up empty, then bisection tightens the
result to 0.1 s.  Each pass is screened as one array, all its horizons at
once; the bisection is sequential.  If the whole window is infeasible the
previous horizon is carried forward, shrunk by the wall time elapsed since
it was committed, so the rendezvous instant stays fixed while tracking
continues on the last trajectories.  Search stops producing trajectories
once the horizon falls under a cutoff, which also keeps the unnormalized
quintic coefficients away from their small-T blowup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .dynamics import QuadParams
from .flatness import Constraints, check_feasible, feasible_rows
from .minjerk import AxisBoundary, AxisTrajectory, solve_axis
from .surface import SurfacePrediction
from .terminal import PerchConditions, TerminalStates, get_terminal_states

#: horizons below this are not worth tracking; also the small-T guard
STOP_CUTOFF = 0.4
#: bisection terminates when the bracket is this tight
BISECT_TOL = 0.1
#: the scan stride is halved until it drops under this, then the pass gives up
MIN_STRIDE = 0.01

FOUND = "found"
FALLBACK = "fallback"
STOPPED = "stopped"


class InitializationFailedError(RuntimeError):
    """No feasible horizon exists within the initialization cap."""


@dataclass(frozen=True)
class FlatState:
    """Flat-output state of the vehicle: position, velocity, acceleration."""

    y: float
    dy: float
    ddy: float
    z: float
    dz: float
    ddz: float


@dataclass
class SearchState:
    """Carries the committed horizon between planning cycles."""

    T_last: float
    T_e: float
    clock: Callable[[], float]
    initialized: bool = True


@dataclass(frozen=True)
class PlanResult:
    """One planning cycle's outcome.

    outcome is FOUND when the window search succeeded, FALLBACK when the
    previous horizon was carried forward by countdown, STOPPED when the final
    horizon fell under the cutoff (no trajectories are attached then).
    FOUND trajectories have passed the sampled feasibility screen; FALLBACK
    trajectories are re-solved for the countdown horizon without a new screen.

    probes counts the horizons screened: every horizon of every coarse-scan
    pass (a pass is screened whole, also past its first feasible horizon)
    plus the bisection probes.  passes counts the coarse-scan passes, one
    array screen each.  Both follow from the inputs alone, not the host.
    """

    T: float
    outcome: str
    terminal: Optional[TerminalStates]
    trajectories: Optional[Tuple[AxisTrajectory, AxisTrajectory]]
    solve_time: float
    probes: int = 0
    passes: int = 0


def _solve_pair(s0: FlatState, sT: TerminalStates, T) -> Tuple[AxisTrajectory, AxisTrajectory]:
    ty = solve_axis(AxisBoundary(s0.y, s0.dy, s0.ddy, sT.y, sT.dy, sT.ddy), T)
    tz = solve_axis(AxisBoundary(s0.z, s0.dz, s0.ddz, sT.z, sT.dz, sT.ddz), T)
    return ty, tz


def _feasible(
    s0: FlatState, pred: SurfacePrediction, cond: PerchConditions,
    T: float, c: Constraints, params: QuadParams,
) -> bool:
    """Terminal states are recomputed at every probed horizon: the rendezvous
    point moves with the predicted surface as T changes."""
    sT = get_terminal_states(pred, T, cond)
    ty, tz = _solve_pair(s0, sT, T)
    return bool(check_feasible(ty, tz, c, params))


def _first_feasible(
    s0: FlatState, pred: SurfacePrediction, cond: PerchConditions,
    horizons: List[float], c: Constraints, params: QuadParams,
) -> Optional[int]:
    """Index of the first feasible horizon of a scan pass, or None.

    The whole pass is screened as one array: terminal states, quintic pairs,
    samples, lifts and bound checks for every horizon at once, one row per
    horizon.  Each row's verdict is the one _feasible gives that horizon.
    """
    T = np.array(horizons).reshape(-1, 1)
    sT = get_terminal_states(pred, T, cond)
    ty, tz = _solve_pair(s0, sT, T)
    hits = np.flatnonzero(feasible_rows(ty, tz, c, params))
    return int(hits[0]) if hits.size else None


def initialize(
    s0: FlatState,
    pred: SurfacePrediction,
    cond: PerchConditions,
    c: Constraints,
    params: QuadParams,
    clock: Callable[[], float] = time.perf_counter,
    step: float = 0.1,
    cap: float = 10.0,
) -> SearchState:
    """Seed the search with the first feasible horizon of a linear scan.

    Screens T = step, 2 step, ... up to cap as one array and commits the
    first feasible horizon.

    Raises:
        InitializationFailedError: the whole scan is infeasible; the caller
            is expected to retry on the next state update.
    """
    n = int(round(cap / step))
    horizons = [k * step for k in range(1, n + 1)]
    i = _first_feasible(s0, pred, cond, horizons, c, params)
    if i is None:
        raise InitializationFailedError(f"no feasible horizon up to {cap} s")
    return SearchState(T_last=horizons[i], T_e=clock(), clock=clock)


def _scan_pass(T_l: float, T_r: float, stride: float) -> List[float]:
    """Horizons of one coarse-scan pass: T_l, then steps of stride while
    they stay within T_r.  Built by repeated addition, so every horizon has
    the float value the probe-by-probe walk gives it."""
    horizons = [T_l]
    T_l += stride
    while not T_l > T_r:
        horizons.append(T_l)
        T_l += stride
    return horizons


def plan(
    state: SearchState,
    s0: FlatState,
    pred: SurfacePrediction,
    cond: PerchConditions,
    c: Constraints,
    params: QuadParams,
) -> PlanResult:
    """Run one minimum-time search cycle and update the committed horizon.

    The search window is [0.5 T_last, 1.5 T_last].  A coarse scan walks the
    window at one fifth of its width, each pass screened as one array; an
    empty pass halves the stride and restarts from the bottom until the
    stride drops under 0.01 s.  The first feasible horizon of a pass seeds a
    sequential bisection that tightens the bracket to 0.1 s, keeping the
    upper (feasible) end.
    """
    if not state.initialized:
        raise ValueError("search state is not initialized")
    t_start = time.perf_counter()

    T_base = 0.5 * state.T_last
    T_l = T_base
    T_r = 1.5 * state.T_last
    stride = (T_r - T_l) / 5.0
    flag = False
    probes = passes = 0
    while True:
        horizons = _scan_pass(T_l, T_r, stride)
        i = _first_feasible(s0, pred, cond, horizons, c, params)
        passes += 1
        probes += len(horizons)
        if i is not None:
            flag = True
            T_r = horizons[i]
            T_l = T_r - stride
            while T_r - T_l > BISECT_TOL:
                mid = 0.5 * (T_l + T_r)
                probes += 1
                if _feasible(s0, pred, cond, mid, c, params):
                    T_r = mid
                else:
                    T_l = mid
            break
        stride *= 0.5
        T_l = T_base + stride
        if stride < MIN_STRIDE:
            break

    now = state.clock()
    if flag:
        T = T_r
        outcome = FOUND
    else:
        T = state.T_last - (now - state.T_e)
        outcome = FALLBACK
    state.T_last = T
    state.T_e = now

    if T < STOP_CUTOFF:
        return PlanResult(
            T=T, outcome=STOPPED, terminal=None, trajectories=None,
            solve_time=time.perf_counter() - t_start, probes=probes, passes=passes)
    sT = get_terminal_states(pred, T, cond)
    ty, tz = _solve_pair(s0, sT, T)
    return PlanResult(
        T=T, outcome=outcome, terminal=sT, trajectories=(ty, tz),
        solve_time=time.perf_counter() - t_start, probes=probes, passes=passes)
