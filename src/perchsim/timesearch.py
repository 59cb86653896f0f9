"""Receding-horizon search for the minimum feasible rendezvous time.

Each planning cycle searches a window around the previously committed
horizon: a coarse forward scan finds a feasible horizon, halving its stride
and restarting whenever a pass comes up empty, then bisection tightens the
result to 0.1 s.  The search decides exactly what a probe-by-probe walk
decides, in at most two array screens.  The first holds the first pass and
every midpoint the bisection under each of its horizons can probe, so a hit
in the first pass is decided in that one screen.  Only a miss builds the
later passes; the second screen holds them together with the midpoints of
every bracket a hit there can open.  Each screen solves both axes of every
row in one call (y stacked over z) and samples them in one evaluation.  A
start state outside the altitude or velocity band fails every candidate at
its first sample, so it is decided with no screen: the planner falls back,
and initialization fails.  Initialization scans T = INIT_STEP, 2 INIT_STEP,
... up to INIT_CAP.  If the whole window is infeasible the previous horizon
is carried forward, shrunk by the tick time elapsed since it was committed,
so the rendezvous instant stays fixed while tracking continues on the last
trajectories.  Search stops producing trajectories once the horizon
falls under a cutoff, which also keeps the unnormalized quintic coefficients
away from their small-T blowup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .dynamics import QuadParams
# check_feasible stays importable from here: perfbench/tracing.py rebinds it
# by this name to time the screen layer
from .flatness import Constraints, check_feasible, feasible_rows, state_in_band  # noqa: F401
from .minjerk import AxisBoundary, AxisTrajectory, FlatState, solve_axis
from .surface import SurfacePrediction
from .terminal import PerchConditions, get_terminal_states

#: horizons below this are not worth tracking; also the small-T guard
STOP_CUTOFF = 0.4
#: bisection terminates when the bracket is this tight
BISECT_TOL = 0.1
#: the scan stride is halved until it drops under this, then the pass gives up
MIN_STRIDE = 0.01
#: the initialization scan steps by INIT_STEP up to INIT_CAP
INIT_STEP = 0.1
INIT_CAP = 10.0
#: an array screen evaluates at most this many horizons per numpy pass, which
#: bounds its working set (about 2 MB at 50 samples) however long it is
SCREEN_BLOCK = 200

FOUND = "found"
FALLBACK = "fallback"
STOPPED = "stopped"


class InitializationFailedError(RuntimeError):
    """No feasible horizon exists within the initialization cap."""


@dataclass
class SearchState:
    """Carries the committed horizon and the tick time it was committed at
    between planning cycles."""

    T_last: float
    T_e: float


@dataclass(frozen=True)
class PlanResult:
    """One planning cycle's outcome.

    outcome is FOUND when the window search succeeded, FALLBACK when the
    previous horizon was carried forward by countdown, STOPPED when the final
    horizon fell under the cutoff (no trajectories are attached then).
    FOUND trajectories have passed the sampled feasibility screen; FALLBACK
    trajectories are re-solved for the countdown horizon without a new screen.

    screens counts the array screens of the cycle: none when the start
    state is outside the altitude or velocity band, one when the first
    coarse pass has a feasible horizon, otherwise two.  probes counts the
    rows actually screened: every horizon of every coarse-scan pass screened
    (a screen holds whole passes, also past their first feasible horizon)
    plus every bisection midpoint screened speculatively under each of those
    horizons, whether or not the bisection reaches it; a FALLBACK cycle so
    also counts the first pass's midpoints.  passes counts
    the coarse-scan passes the search needed: up to the one whose hit it
    bisected, or all of them on a fallback.  lift_rows counts the screened
    rows that passed the altitude and velocity bounds and so had their lifts
    evaluated.  All four follow from the inputs alone, not the host.
    """

    T: float
    outcome: str
    terminal: Optional[FlatState]
    trajectories: Optional[Tuple[AxisTrajectory, AxisTrajectory]]
    solve_time: float
    probes: int = 0
    passes: int = 0
    screens: int = 0
    lift_rows: int = 0


def _solve_pair(s0: FlatState, sT: FlatState, T) -> Tuple[AxisTrajectory, AxisTrajectory]:
    ty = solve_axis(AxisBoundary(s0.y, s0.dy, s0.ddy, sT.y, sT.dy, sT.ddy), T)
    tz = solve_axis(AxisBoundary(s0.z, s0.dz, s0.ddz, sT.z, sT.dz, sT.ddz), T)
    return ty, tz


def _stack(y, z, shape) -> np.ndarray:
    """A y value over a z value on a leading axis of 2, each broadcast to shape."""
    out = np.empty((2,) + shape)
    out[0] = y
    out[1] = z
    return out


def _screen_horizons(
    s0: FlatState, pred: SurfacePrediction, cond: PerchConditions,
    horizons: List[float], c: Constraints, params: QuadParams,
) -> Tuple[np.ndarray, int]:
    """Feasibility of every horizon in one array screen, one verdict each,
    and the number of horizons that reached the screen's lift stage.

    Terminal states are recomputed at every horizon: the rendezvous point
    moves with the predicted surface as T changes.  The y and z boundaries
    are stacked on a leading axis of 2 over an (n, 1) horizon column, so
    both axes of every horizon come from one solve_axis call and are sampled
    by one eval; horizon i's verdict is the one check_feasible gives the
    pair _solve_pair returns for it.  A screen longer than SCREEN_BLOCK rows
    goes through in the fewest equal blocks that fit, in order.
    """
    T = np.asarray(horizons).reshape(-1, 1)
    if len(T) > SCREEN_BLOCK:
        oks, lifted = zip(*(
            _screen_horizons(s0, pred, cond, part, c, params)
            for part in np.array_split(T, -(-len(T) // SCREEN_BLOCK))))
        return np.concatenate(oks), sum(lifted)
    sT = get_terminal_states(pred, T, cond)
    b = AxisBoundary(*(_stack(y, z, T.shape) for y, z in (
        (s0.y, s0.z), (s0.dy, s0.dz), (s0.ddy, s0.ddz),
        (sT.y, sT.z), (sT.dy, sT.dz), (sT.ddy, sT.ddz))))
    return feasible_rows(solve_axis(b, T), c, params)


def initialize(
    t: float,
    s0: FlatState,
    pred: SurfacePrediction,
    cond: PerchConditions,
    c: Constraints,
    params: QuadParams,
) -> SearchState:
    """Seed the search at tick time t with the first feasible horizon of a
    linear scan.

    Screens T = INIT_STEP, 2 INIT_STEP, ... up to INIT_CAP as one array and
    commits the first feasible horizon at t.  A start state outside the
    altitude or velocity band makes every horizon infeasible, so it fails
    without a screen.

    Raises:
        InitializationFailedError: the whole scan is infeasible; the caller
            is expected to retry on the next state update.
    """
    if state_in_band(s0.z, s0.dy, s0.dz, c):
        n = int(round(INIT_CAP / INIT_STEP))
        horizons = [k * INIT_STEP for k in range(1, n + 1)]
        hits = np.flatnonzero(_screen_horizons(s0, pred, cond, horizons, c, params)[0])
        if hits.size:
            return SearchState(T_last=horizons[hits[0]], T_e=t)
    raise InitializationFailedError(f"no feasible horizon up to {INIT_CAP} s")


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


def _coarse_passes(T_last: float) -> Iterator[Tuple[float, List[float]]]:
    """(stride, horizons) of every coarse-scan pass over the window of T_last.

    The first pass walks [0.5 T_last, 1.5 T_last] at one fifth of its width;
    each later one halves the stride and starts one stride above the bottom,
    until the stride drops under MIN_STRIDE.  The passes follow from T_last
    alone, so they can be screened before earlier ones are decided; they are
    built lazily, so a search that stops after the first builds no other.
    """
    T_base = 0.5 * T_last
    T_r = 1.5 * T_last
    stride = (T_r - T_base) / 5.0
    yield stride, _scan_pass(T_base, T_r, stride)
    while True:
        stride *= 0.5
        if stride < MIN_STRIDE:
            return
        yield stride, _scan_pass(T_base + stride, T_r, stride)


def _grow_tree(T_l: float, T_r: float, mids: List[float], kids: List[Tuple[int, int]]) -> int:
    """Append every midpoint bisection can probe in (T_l, T_r) to mids.

    The midpoints form a binary tree: node i probes mids[i], and
    kids[i] holds the nodes of its lower and upper half bracket (-1 where
    that bracket is already within BISECT_TOL).  Each midpoint comes from
    the same 0.5 * (T_l + T_r) the sequential bisection computes.  Returns
    the root's index, or -1 if the bracket needs no bisection.
    """
    if not T_r - T_l > BISECT_TOL:
        return -1
    i = len(mids)
    mid = 0.5 * (T_l + T_r)
    mids.append(mid)
    kids.append((-1, -1))
    kids[i] = (_grow_tree(T_l, mid, mids, kids), _grow_tree(mid, T_r, mids, kids))
    return i


def _walk_tree(T_r: float, node: int, mids: List[float], kids: List[Tuple[int, int]],
               ok: np.ndarray) -> float:
    """Upper (feasible) end of the bracket after bisecting it through the
    screened tree: the value the sequential bisection ends on."""
    while node >= 0:
        if ok[node]:
            T_r = mids[node]
            node = kids[node][0]
        else:
            node = kids[node][1]
    return T_r


def _search(
    T_last: float, s0: FlatState, pred: SurfacePrediction, cond: PerchConditions,
    c: Constraints, params: QuadParams,
) -> Tuple[Optional[float], int, int, int, int]:
    """The window search of one cycle in at most two array screens.

    Each screen holds a group of passes, in order, followed by every
    midpoint the bisection of each of their horizons' brackets
    [T - stride, T] can probe.  The first screen's group is the first pass;
    the later passes are built, and screened as the second group, only when
    it has no hit.  The first horizon of the group that passes the screen
    wins, and its bisection walks the tree screened with it.

    Returns the horizon found (None if the window is infeasible), then the
    screens, probes, passes and lift_rows PlanResult reports.
    """
    numbered = enumerate(_coarse_passes(T_last), 1)
    screens = probes = passes = lifted = 0
    for group in ([next(numbered)], numbered):
        # brackets (pass, stride, upper end), in scan order
        brackets = [(k, stride, T) for k, (stride, horizons) in group for T in horizons]
        if not brackets:
            break
        passes = brackets[-1][0]
        scan = [T for _, _, T in brackets]
        mids: List[float] = []
        kids: List[Tuple[int, int]] = []
        roots = [_grow_tree(T - stride, T, mids, kids) for _, stride, T in brackets]
        ok, lifted_here = _screen_horizons(s0, pred, cond, scan + mids, c, params)
        screens, probes, lifted = screens + 1, probes + len(scan) + len(mids), lifted + lifted_here
        hits = np.flatnonzero(ok[:len(scan)])
        if hits.size:
            hit = int(hits[0])
            T = _walk_tree(scan[hit], roots[hit], mids, kids, ok[len(scan):])
            return T, screens, probes, brackets[hit][0], lifted
    return None, screens, probes, passes, lifted


def plan(
    state: SearchState,
    t: float,
    s0: FlatState,
    pred: SurfacePrediction,
    cond: PerchConditions,
    c: Constraints,
    params: QuadParams,
) -> PlanResult:
    """Run one minimum-time search cycle at tick time t and update the
    committed horizon.

    The search window is [0.5 T_last, 1.5 T_last].  A coarse scan walks the
    window at one fifth of its width; an empty pass halves the stride and
    restarts from the bottom until the stride drops under 0.01 s.  The first
    feasible horizon of the first pass that has one seeds a bisection that
    tightens the bracket to 0.1 s, keeping the upper (feasible) end.

    The cycle takes at most two array screens and decides exactly what the
    probe-by-probe search decides.  The first screen holds the first pass
    together with every midpoint the bisection of each of its horizons'
    brackets can probe, so a hit there is bisected without another screen.
    If the first pass has no hit, the second screen holds every later pass
    together with each of their horizons' bisection midpoints, and the
    first pass with a hit wins.  A start state outside the altitude or
    velocity band fails every horizon at its first sample, so it goes to
    the fallback with no screen at all.  The fallback carries T_last
    forward, shrunk by t - T_e, so the rendezvous instant stays fixed.
    """
    t_start = time.perf_counter()

    T_found, screens, probes, passes, lifted = None, 0, 0, 0, 0
    if state_in_band(s0.z, s0.dy, s0.dz, c):
        T_found, screens, probes, passes, lifted = _search(
            state.T_last, s0, pred, cond, c, params)

    if T_found is not None:
        T, outcome = T_found, FOUND
    else:
        T, outcome = state.T_last - (t - state.T_e), FALLBACK
    state.T_last, state.T_e = T, t

    if T < STOP_CUTOFF:
        return PlanResult(
            T=T, outcome=STOPPED, terminal=None, trajectories=None,
            solve_time=time.perf_counter() - t_start,
            probes=probes, passes=passes, screens=screens, lift_rows=lifted)
    sT = get_terminal_states(pred, T, cond)
    ty, tz = _solve_pair(s0, sT, T)
    return PlanResult(
        T=T, outcome=outcome, terminal=sT, trajectories=(ty, tz),
        solve_time=time.perf_counter() - t_start,
        probes=probes, passes=passes, screens=screens, lift_rows=lifted)
