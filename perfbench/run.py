"""perchsim benchmark: closed-loop perching episodes, run back to back.

    python3 perfbench/run.py --workload static_perch --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  One client runs one episode after another in this single process,
with BLAS pinned to one thread, until --seconds of timed episode work are
done, and then to the end of the current round (see workloads.py).  Each
episode's outputs are checked outside its timed region.  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, with times scaled to a reference
host speed (hostspeed.py; the raw wall-clock figures are printed above the
result).  --trace 1 rebinds each layer's public functions to timing
wrappers (tracing.py) and reports the per-layer metrics instead.
BENCHMARK.json lists both sets; README.md in this directory says which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
SPAN_DIR = Path(__file__).resolve().parent / "out"

WORKLOADS = ("static_perch", "moving_matrix")
SETUP_REPEATS = 5
#: p99 needs at least ten samples beyond it
MIN_PLAN_CYCLES = 1000


def _pin_and_import() -> None:
    """Pin BLAS to one thread and import perchsim from this checkout's src/.

    The thread variables only take effect if set before numpy loads.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import perchsim

    if not Path(perchsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"perchsim imported from {perchsim.__file__}, not from {SRC}")


def _setup_probe(workload: str, seed: int) -> None:
    """Time one set-up in a fresh interpreter: import plus input building."""
    t0 = time.perf_counter()
    _pin_and_import()
    import workloads

    workloads.build(workload, seed, SCENARIOS)
    print(repr(time.perf_counter() - t0))


def _setup_seconds(workload: str, seed: int):
    """Median set-up time over SETUP_REPEATS fresh interpreters.

    Returns (wall-clock seconds, seconds at the reference host speed); each
    probe is scaled by a calibration sample taken just before it.
    """
    import hostspeed

    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        cal = hostspeed.sample()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        wall.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(wall[-1] * hostspeed.REFERENCE_S / cal)
    return statistics.median(wall), statistics.median(scaled)


def _nearest_rank(sorted_vals, q: float) -> float:
    idx = max(0, min(len(sorted_vals) - 1, math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[idx]


def _metric(value, unit: str) -> dict:
    # counts stay whole numbers; numpy scalars become plain Python numbers
    return {"value": value.item() if hasattr(value, "item") else value, "unit": unit}


def _end_to_end(t, setup_s: float, scale: List[float]) -> dict:
    """End-to-end metrics, each op's times multiplied by scale[op].

    plan_ms_p99 stays in wall-clock time: the 33.3 ms budget is a real-time
    one, and the numpy-bound full-window scans that set it slow down far
    less with the host than the calibration kernel does.
    """
    op_s = [dt * f for dt, f in zip(t.op_s, scale)]
    host_s = sum(op_s)
    n = t.wl.round_size
    # per-scenario medians: a workload mixes scenarios whose episode times
    # differ tenfold, and the median of that mixture falls in the gap
    per_scenario = [statistics.median(op_s[i::n]) for i in range(n)]
    plan_ms = [1e3 * s * f for times, f in zip(t.plan_s, scale) for s in times]
    plan_wall_ms = sorted(1e3 * s for times in t.plan_s for s in times)
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(len(op_s) / host_s, "1/s"),
        "op_ms_p50": _metric(1e3 * statistics.geometric_mean(per_scenario), "ms"),
        "sim_s_per_host_s": _metric(t.sim_s / host_s, "s/s"),
        "plan_ms_mean": _metric(statistics.fmean(plan_ms), "ms"),
        "plan_ms_p99": _metric(_nearest_rank(plan_wall_ms, 0.99), "ms"),
        "ok_op_frac": _metric(1.0 - len(t.errors) / len(op_s), "frac"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(args) -> int:
    _pin_and_import()
    import perchsim.sim

    import hostspeed
    import workloads

    setup_wall, setup_s = (None, None) if args.trace else _setup_seconds(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed, SCENARIOS)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    tally = workloads.Tally(wl)
    # host-speed samples bracketing every op: cal[k] before op k, cal[k + 1] after
    cal = [hostspeed.sample()] if tracer is None else []
    k = 0
    try:
        # whole rounds until the prefix, the plan-cycle floor and --seconds
        # of timed episode work are all reached
        while not (k % wl.round_size == 0 and k >= wl.prefix_ops
                   and tally.plan_cycles >= MIN_PLAN_CYCLES
                   and sum(tally.op_s) >= args.seconds):
            sc = wl.scenario(k)
            if tracer is not None:
                tracer.op_id = k
            res, error = None, None
            t0 = time.perf_counter()
            try:
                res = perchsim.sim.run_episode(sc)
            except Exception:  # a raising episode is a failed op; the run goes on
                error = traceback.format_exc()
            dt = time.perf_counter() - t0
            tally.add(k, res, dt, error)  # output checks, outside the timed region
            if tracer is None:
                cal.append(hostspeed.sample())
            k += 1
    finally:
        if tracer is not None:
            tracer.uninstall()

    # determinism: replay the first episode of every scenario, untraced
    replay_s = 0.0
    for k, res in enumerate(tally.first_round):
        t0 = time.perf_counter()
        again = perchsim.sim.run_episode(wl.scenario(k))
        replay_s += time.perf_counter() - t0
        if res is None or workloads.trace_bytes(again.trace) != workloads.trace_bytes(res.trace):
            tally.errors.setdefault(k, f"replay of {wl.labels[k]} is not bit-identical")

    n_ops = len(tally.op_s)
    print(f"workload: {wl.name} seed: {args.seed} ops: {n_ops} "
          f"rounds: {n_ops // wl.round_size} prefix_ops: {wl.prefix_ops}")
    print(f"trace_digest: {tally.digest.hexdigest()}")
    episode_ms = {label: round(1e3 * statistics.median(tally.op_s[i::wl.round_size]), 3)
                  for i, label in enumerate(wl.labels)}
    print(f"episode_ms_p50: {json.dumps(episode_ms)}")
    for k, err in sorted(tally.errors.items()):
        print(f"failed op {k} ({wl.labels[k % wl.round_size]}): {err}", file=sys.stderr)

    if tracer is None:
        scale = hostspeed.scales(cal)
        wall = _end_to_end(tally, setup_wall, [1.0] * n_ops)
        print(f"wall_clock: {json.dumps({k: v['value'] for k, v in wall.items()})}")
        print(f"host_speed: calibration kernel median {1e3 * statistics.median(cal):.4f} ms, "
              f"reference {1e3 * hostspeed.REFERENCE_S} ms")
        metrics = _end_to_end(tally, setup_s, scale)
    else:
        import tracing

        spans = tracer.arrays()
        overhead = sum(tally.op_s[:wl.round_size]) / replay_s - 1.0
        values, counts, missing = tracing.layer_metrics(spans, tally, overhead)
        metrics = {k: _metric(v, unit) for k, (v, unit) in values.items()}
        path = SPAN_DIR / f"spans-{wl.name}-seed{args.seed}.npz"
        tracing.write_spans(spans, path)
        print(f"work_counts: {json.dumps(counts, sort_keys=True)}")
        print(f"coverage_missing: {json.dumps(missing)}")
        print(f"spans: {len(spans['name'])} written to {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not tally.errors,
        "attempted": n_ops,
        "failed": len(tally.errors),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
