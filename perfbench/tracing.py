"""Span recorder that times perchsim's layers from outside the package.

install() rebinds each public function at the name its callers look it up
by (for example ``perchsim.sim.fit`` or ``perchsim.timesearch.check_feasible``)
to a timing wrapper; uninstall() puts the originals back.  Every call makes
one span: layer name, start, end, parent span, operation id and a small
outcome tag.  Spans live in flat arrays while the run goes on and are
written out once at the end.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import perchsim.controller
import perchsim.minjerk
import perchsim.sim
import perchsim.timesearch

#: timesearch.plan outcome tags
PLAN_TAG = {
    perchsim.timesearch.FOUND: 0,
    perchsim.timesearch.FALLBACK: 1,
    perchsim.timesearch.STOPPED: 2,
}
NO_TAG = -1
#: one control period at 30 Hz
PLAN_BUDGET_S = 1.0 / 30.0


def _feasible_tag(result) -> int:
    return int(bool(result))


def _plan_tag(result) -> int:
    return PLAN_TAG[result.outcome]


#: (owner, attribute, layer name, outcome tagger).  The owner is the module
#: or class whose attribute the calling code reads at call time.
TARGETS: Tuple[Tuple[object, str, str, Callable], ...] = (
    (perchsim.sim, "run_episode", "sim.run_episode", None),
    (perchsim.sim, "fit", "surface.fit", None),
    (perchsim.timesearch, "initialize", "timesearch.initialize", None),
    (perchsim.timesearch, "plan", "timesearch.plan", _plan_tag),
    (perchsim.timesearch, "check_feasible", "flatness.check_feasible", _feasible_tag),
    (perchsim.timesearch, "solve_axis", "minjerk.solve_axis", None),
    (perchsim.timesearch, "get_terminal_states", "terminal.get_terminal_states", None),
    (perchsim.controller.TrackingController, "command", "controller.command", None),
    (perchsim.sim, "attitude_pd_lifts", "controller.attitude_pd_lifts", None),
    (perchsim.sim, "rk4_step", "dynamics.rk4_step", None),
    (perchsim.minjerk.AxisTrajectory, "eval", "minjerk.eval", None),
    (perchsim.sim, "judge_perch", "gripper.judge_perch", None),
)

LAYERS: Tuple[str, ...] = tuple(t[2] for t in TARGETS)


class Tracer:
    """Records spans for the layers in TARGETS while installed.

    Only one Tracer may be installed at a time; the benchmark is a single
    thread, so a plain stack gives each span its parent.
    """

    def __init__(self) -> None:
        self.op_id = -1
        self.name = array("b")
        self.parent = array("q")
        self.op = array("q")
        self.tag = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name_id: int, tagger) -> Callable:
        names, parents, ops, tags = self.name, self.parent, self.op, self.tag
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            tags.append(NO_TAG)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tagger is not None:
                tags[idx] = tagger(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name_id, (owner, attr, _, tagger) in enumerate(TARGETS):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name_id, tagger))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        """Spans as numpy columns, one row per span in call order.

        The columns are views of the recording buffers: call this once the
        tracer is uninstalled and nothing appends any more.
        """
        return {
            "name": np.frombuffer(self.name, dtype=np.int8),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "tag": np.frombuffer(self.tag, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def write_spans(spans: Dict[str, np.ndarray], path: Path) -> None:
    """Write the span columns and the layer name table to one .npz file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, layers=np.array(LAYERS), **spans)


def self_times(spans: Dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the part its child spans cover.

    Spans nest strictly (one thread, stack discipline), so the children of
    a span never overlap and their durations simply add up.
    """
    dur = spans["end"] - spans["start"]
    covered = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(covered, spans["parent"][has_parent], dur[has_parent])
    return dur - covered


def layer_metrics(spans: Dict[str, np.ndarray], t, overhead_frac: float):
    """Per-layer metrics, work counts and never-called layers of a traced run.

    t is the run's workloads.Tally.  Counts and ratios cover the fixed
    prefix, so they repeat exactly per seed; times cover the whole run.
    Returns ({metric: (value, unit)}, {counter: count}, [layer, ...]).
    """
    layer_id = {name: i for i, name in enumerate(LAYERS)}
    name, parent, tag = spans["name"], spans["parent"], spans["tag"]
    dur = spans["end"] - spans["start"]
    self_t = self_times(spans)
    wl = t.wl
    in_prefix = spans["op"] < wl.prefix_ops

    def sel(layer):
        return name == layer_id[layer]

    def calls(layer):
        return int(np.count_nonzero(sel(layer) & in_prefix))

    def us_per_call(layer):
        d = dur[sel(layer)]
        return 1e6 * float(d.mean()) if d.size else 0.0

    def frac(num, den):
        return num / den if den else 0.0

    op_time = float(dur[sel("sim.run_episode")].sum())

    def share(layer):
        return frac(float(dur[sel(layer)].sum()), op_time)

    plan = sel("timesearch.plan")
    check = sel("flatness.check_feasible")
    plan_calls = calls("timesearch.plan")
    check_calls = calls("flatness.check_feasible")
    parent_name = np.where(parent >= 0, name[parent], -1)
    probes_in_plan = np.count_nonzero(
        check & in_prefix & (parent_name == layer_id["timesearch.plan"]))
    probes_in_init = np.count_nonzero(
        check & in_prefix & (parent_name == layer_id["timesearch.initialize"]))
    plan_dur = dur[plan]
    plan_tag = tag[plan]

    def p50_ms(outcome):
        d = plan_dur[plan_tag == PLAN_TAG[outcome]]
        return 1e3 * float(np.median(d)) if d.size else 0.0

    episode = sel("sim.run_episode")
    found = np.count_nonzero(plan & in_prefix & (tag == PLAN_TAG["found"]))
    feasible = np.count_nonzero(check & in_prefix & (tag == 1))
    m = {
        "timesearch.plan.probes_per_cycle": (frac(probes_in_plan, plan_calls), "count"),
        "flatness.check_feasible.calls": (check_calls, "count"),
        "flatness.check_feasible.us_per_call": (us_per_call("flatness.check_feasible"), "us"),
        "flatness.check_feasible.share": (share("flatness.check_feasible"), "frac"),
        "flatness.check_feasible.feasible_frac": (frac(feasible, check_calls), "frac"),
        "minjerk.solve_axis.us_per_call": (us_per_call("minjerk.solve_axis"), "us"),
        "terminal.get_terminal_states.us_per_call": (
            us_per_call("terminal.get_terminal_states"), "us"),
        "timesearch.plan.calls": (plan_calls, "count"),
        "timesearch.plan.found_frac": (frac(found, plan_calls), "frac"),
        "timesearch.plan.ms_p50.found": (p50_ms("found"), "ms"),
        "timesearch.plan.ms_p50.fallback": (p50_ms("fallback"), "ms"),
        "timesearch.plan.over_budget_frac": (
            frac(np.count_nonzero(plan_dur > PLAN_BUDGET_S), plan_dur.size), "frac"),
        "timesearch.plan.unscreened_violations": (t.unscreened, "count"),
        "timesearch.initialize.probes": (int(probes_in_init), "count"),
        "timesearch.initialize.ms_per_call": (us_per_call("timesearch.initialize") / 1e3, "ms"),
        "surface.fit.calls": (calls("surface.fit"), "count"),
        "surface.fit.us_per_call": (us_per_call("surface.fit"), "us"),
        "surface.fit.share": (share("surface.fit"), "frac"),
        "controller.command.us_per_call": (us_per_call("controller.command"), "us"),
        "controller.attitude_pd_lifts.us_per_call": (
            us_per_call("controller.attitude_pd_lifts"), "us"),
        "sim.run_episode.self_share": (frac(float(self_t[episode].sum()), op_time), "frac"),
        "sim.ticks": (t.ticks, "count"),
        "sim.perch_success_rate": (t.successes / wl.prefix_ops, "frac"),
        "dynamics.rk4_step.calls": (calls("dynamics.rk4_step"), "count"),
        "dynamics.rk4_step.us_per_call": (us_per_call("dynamics.rk4_step"), "us"),
        "dynamics.rk4_step.share": (share("dynamics.rk4_step"), "frac"),
        "minjerk.eval.calls": (calls("minjerk.eval"), "count"),
        "minjerk.eval.us_per_call": (us_per_call("minjerk.eval"), "us"),
        "gripper.judge_perch.calls": (calls("gripper.judge_perch"), "count"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
    counts = {layer: calls(layer) for layer in LAYERS}
    counts.update({
        "ticks": t.ticks,
        "plan_cycles": plan_calls,
        "probes": check_calls,
        "unscreened_violations": t.unscreened,
    })
    missing = [layer for layer in LAYERS if not np.any(sel(layer))]
    return m, counts, missing
