"""Workload inputs, the operation loop's unit of work, and output checks.

A workload is a fixed list of scenarios (one "round") that the benchmark
walks in order, round after round, one episode at a time.  Round r runs
every scenario with episode seed ``seed * SEED_STRIDE + r``, so the run's
inputs follow from --seed alone and consecutive rounds use consecutive
seeds.  The first ``prefix_rounds`` rounds are the run's fixed prefix: the
counts, the success rate and the trace digest are taken over it, so they
repeat exactly for one seed however fast the host is.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perchsim.flatness import check_feasible
from perchsim.scenarios import load_scenario
from perchsim.sim import OUTCOME_CODE, EpisodeResult, EpisodeTrace, Scenario
from perchsim.terminal import default_conditions
from perchsim.timesearch import FALLBACK, FOUND

SEED_STRIDE = 100_000
NO_PLAN = OUTCOME_CODE[None]

STATIC_FILES = ("static_47.ini", "static_70.ini", "static_90.ini")
MOVING_FILE = "moving_90_forward.ini"
MOVING_MATRIX = tuple((d, deg) for d in ("forward", "backward") for deg in (47, 70, 90))


@dataclass(frozen=True)
class Workload:
    name: str
    labels: Tuple[str, ...]
    scenarios: Tuple[Scenario, ...]
    seed_base: int
    prefix_rounds: int

    @property
    def round_size(self) -> int:
        return len(self.scenarios)

    @property
    def prefix_ops(self) -> int:
        return self.prefix_rounds * self.round_size

    def scenario(self, k: int) -> Scenario:
        """Scenario of the k-th operation of the run."""
        return dataclasses.replace(
            self.scenarios[k % self.round_size], seed=self.seed_base + k // self.round_size)


def _static(scenario_dir: Path, seed: int) -> Workload:
    scs = tuple(load_scenario(str(scenario_dir / f)) for f in STATIC_FILES)
    return Workload("static_perch", tuple(f[:-4] for f in STATIC_FILES), scs,
                    seed * SEED_STRIDE, prefix_rounds=12)


def _moving(scenario_dir: Path, seed: int) -> Workload:
    base = load_scenario(str(scenario_dir / MOVING_FILE))
    scs = tuple(
        dataclasses.replace(
            base,
            phi_s=math.radians(deg),
            motion=dataclasses.replace(base.motion, direction=direction),
            conditions=default_conditions(direction, deg),
        )
        for direction, deg in MOVING_MATRIX
    )
    labels = tuple(f"moving_{deg}_{direction}" for direction, deg in MOVING_MATRIX)
    return Workload("moving_matrix", labels, scs, seed * SEED_STRIDE, prefix_rounds=4)


BUILDERS = {"static_perch": _static, "moving_matrix": _moving}


def build(name: str, seed: int, scenario_dir: Path) -> Workload:
    """Load the scenario files and derive the workload's inputs."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return BUILDERS[name](scenario_dir, seed)


def sim_seconds(res: EpisodeResult, sc: Scenario) -> float:
    """Simulated time the episode covered: to impact, else every tick."""
    if res.impact_t is not None:
        return res.impact_t
    return len(res.trace.t) / sc.control_rate


@dataclass
class OpCheck:
    failure: Optional[str]
    unscreened: int  # flown FALLBACK plans that fail the feasibility screen


def check_op(res: EpisodeResult, sc: Scenario) -> OpCheck:
    """Output checks for one episode, run outside the timed region.

    Every trace cell must be finite, except plan_T on ticks without a plan,
    where the harness writes NaN by design.  Every FOUND plan must pass the
    screen the planner claims it passed.
    """
    tr = res.trace
    planned = tr.plan_outcome != NO_PLAN
    for col in EpisodeTrace.COLUMNS:
        arr = getattr(tr, col)
        if col == "plan_T":
            ok = np.isfinite(arr[planned]).all() and np.isnan(arr[~planned]).all()
        else:
            ok = np.isfinite(arr).all()
        if not ok:
            return OpCheck(f"non-finite trace column {col}", 0)
    unscreened = 0
    for rec in res.plans:
        r = rec.result
        if r.trajectories is None:
            continue
        feasible = bool(check_feasible(*r.trajectories, sc.constraints, sc.params))
        if r.outcome == FOUND and not feasible:
            return OpCheck(f"FOUND plan at t={rec.t:.4f} fails the screen", unscreened)
        if r.outcome == FALLBACK and not feasible:
            unscreened += 1
    return OpCheck(None, unscreened)


def trace_bytes(tr: EpisodeTrace) -> List[bytes]:
    return [np.ascontiguousarray(getattr(tr, col), dtype=np.float64).tobytes()
            for col in EpisodeTrace.COLUMNS]


def digest_update(h: hashlib._Hash, tr: EpisodeTrace) -> None:
    """Feed every trace column of one episode into a running hash."""
    for col in trace_bytes(tr):
        h.update(len(col).to_bytes(8, "little"))
        h.update(col)


@dataclass
class Tally:
    """What the run keeps of each episode once its outputs are checked.

    Episodes are dropped after their checks, so memory does not grow with
    the length of the run; only the first round is kept for the replay.
    """

    wl: Workload
    op_s: List[float] = field(default_factory=list)
    plan_s: List[List[float]] = field(default_factory=list)  # solve times, per op
    plan_cycles: int = 0
    sim_s: float = 0.0
    errors: Dict[int, str] = field(default_factory=dict)
    first_round: list = field(default_factory=list)
    # over the fixed prefix only, so they repeat exactly per seed
    ticks: int = 0
    successes: int = 0
    unscreened: int = 0
    digest: hashlib._Hash = field(default_factory=hashlib.sha256)

    def add(self, k: int, res: Optional[EpisodeResult], dt: float, error: Optional[str]) -> None:
        wl = self.wl
        self.op_s.append(dt)
        self.plan_s.append([] if res is None else res.solve_times)
        self.plan_cycles += len(self.plan_s[-1])
        if k < wl.round_size:
            self.first_round.append(res)
        if res is None:
            self.errors[k] = error
            return
        sc = wl.scenario(k)
        chk = check_op(res, sc)
        if chk.failure:
            self.errors[k] = chk.failure
        self.sim_s += sim_seconds(res, sc)
        if k < wl.prefix_ops:
            self.ticks += len(res.trace.t)
            self.successes += res.success
            self.unscreened += chk.unscreened
            digest_update(self.digest, res.trace)
