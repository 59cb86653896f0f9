"""Command-line front end: episodes, batches, benchmarks, oracle suites.

Every command takes a scenario file (except oracle), never a baked-in
campaign: the shipped scenario files under scenarios/ reproduce the default
campaigns.  Outputs are plain CSV and fixed-width text so they diff cleanly.
"""

from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import oracles
from .scenarios import ScenarioError, load_scenario
from .sim import BatchResult, EpisodeResult, run_batch, run_episode


def _load(path: str, seed: Optional[int]):
    if not Path(path).is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    return load_scenario(path, seed=seed)


def _write_trace_csv(res: EpisodeResult, out: Path) -> None:
    tr = res.trace
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(tr.COLUMNS)
        for row in zip(*(getattr(tr, c) for c in tr.COLUMNS)):
            # shortest exact decimal form; parsing the cell recovers the bits
            w.writerow([repr(float(v)) for v in row])


def _episode_summary(res: EpisodeResult) -> List[str]:
    lines = [f"success: {res.success}"]
    if res.failure:
        lines.append(f"failure: {res.failure}")
    if res.impact_t is not None:
        lines += [
            f"impact_t: {res.impact_t:.4f}",
            f"impact_phi_e_deg: {math.degrees(res.impact_phi_e):.2f}",
            f"impact_dV_Ys: {res.impact_dV_Ys:.4f}",
            f"impact_dV_Zs: {res.impact_dV_Zs:.4f}",
            f"impact_nu_s: {res.impact_nu_s:.4f}",
            f"impact_cup: {res.impact_cup}",
            f"impact_cup_residual_deg: {math.degrees(res.impact_cup_residual):.2f}",
        ]
    if res.solve_times:
        ms = [1e3 * s for s in res.solve_times]
        lines.append(f"plan_calls: {len(ms)}")
        lines.append(f"solve_ms_median: {statistics.median(ms):.3f}")
    return lines


def cmd_run(args: argparse.Namespace) -> int:
    sc = _load(args.scenario, args.seed)
    res = run_episode(sc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_trace_csv(res, out / "trace.csv")
    summary = _episode_summary(res)
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    for line in summary:
        print(line)
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    sc = _load(args.scenario, args.seed)
    if args.n < 1:
        raise ScenarioError(f"--n must be at least 1, got {args.n}")
    res = run_batch(sc, args.n)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "episodes.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "success", "failure", "impact_t",
                    "impact_phi_e_deg", "impact_dV_Ys", "impact_dV_Zs", "impact_nu_s"])
        for k, e in enumerate(res.episodes):
            w.writerow([
                sc.seed + k, int(e.success), e.failure or "",
                "" if e.impact_t is None else f"{e.impact_t:.4f}",
                "" if e.impact_phi_e is None else f"{math.degrees(e.impact_phi_e):.2f}",
                "" if e.impact_dV_Ys is None else f"{e.impact_dV_Ys:.4f}",
                "" if e.impact_dV_Zs is None else f"{e.impact_dV_Zs:.4f}",
                "" if e.impact_nu_s is None else f"{e.impact_nu_s:.4f}",
            ])

    n_ok = sum(e.success for e in res.episodes)
    lines = [
        f"scenario: {args.scenario}",
        f"episodes: {res.n}",
        f"successes: {n_ok}",
        f"success_rate: {res.success_rate:.2f}",
        f"avg_nu_s: {'n/a' if res.avg_nu_s is None else f'{res.avg_nu_s:.2f}'}",
    ]
    for kind in ("A-failure", "V-failure", "no-contact"):
        c = sum(1 for e in res.episodes if e.failure == kind)
        if c:
            lines.append(f"{kind}: {c}")
    (out / "batch_summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


#: one control period at 30 Hz, the planner's budget per cycle
_PLAN_BUDGET_MS = 1e3 / 30.0


def _percentile(sorted_ms: List[float], q: float) -> float:
    # nearest-rank on the sorted sample
    idx = max(0, min(len(sorted_ms) - 1, math.ceil(q * len(sorted_ms)) - 1))
    return sorted_ms[idx]


def cmd_bench(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ScenarioError(f"--n must be at least 1, got {args.n}")
    sc = _load(args.scenario, args.seed)
    t0 = time.perf_counter()
    res = run_batch(sc, args.n)
    wall_s = time.perf_counter() - t0
    ms = sorted(1e3 * s for s in res.solve_times)
    if not ms:
        raise ScenarioError("no planner invocations happened; nothing to report")
    frac = sum(1 for v in ms if v < 10.0) / len(ms)
    over = sum(1 for v in ms if v > _PLAN_BUDGET_MS) / len(ms)
    cycles = [p.result for e in res.episodes for p in e.plans]
    print(f"plan_calls: {len(ms)}")
    print(f"p50_ms: {_percentile(ms, 0.50):.3f}")
    print(f"p73_ms: {_percentile(ms, 0.73):.3f}")
    print(f"p95_ms: {_percentile(ms, 0.95):.3f}")
    print(f"p99_ms: {_percentile(ms, 0.99):.3f}")
    print(f"max_ms: {ms[-1]:.3f}")
    print(f"fraction_under_10ms: {frac:.3f}")
    print(f"fraction_over_33ms: {over:.3f}")
    print(f"probes_per_cycle: {statistics.fmean(r.probes for r in cycles):.2f}")
    print(f"screens_per_cycle: {statistics.fmean(r.screens for r in cycles):.2f}")
    # harness cost: everything an episode does besides the planner's cycles
    ticks = sum(e.trace.t.size for e in res.episodes)
    print(f"episode_ms_mean: {1e3 * wall_s / res.n:.3f}")
    print(f"tick_us_excl_plan: {1e6 * (wall_s - sum(res.solve_times)) / ticks:.2f}")
    return 0


_SUITES = {
    "minjerk": lambda n: oracles.minjerk_suite(n or 1000),
    "roundtrip": lambda n: oracles.roundtrip_suite(n or 100),
    "timesearch": lambda n: oracles.timesearch_suite(n or 100),
}


def cmd_oracle(args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        report = _SUITES[name](args.n)
        ok = report.pop("ok")
        all_ok &= ok
        detail = " ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in report.items())
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="perchsim")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one episode, write trace and summary")
    run.add_argument("--scenario", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=".")
    run.set_defaults(fn=cmd_run)

    batch = sub.add_parser("batch", help="run a seeded batch, write the summary table")
    batch.add_argument("--scenario", required=True)
    batch.add_argument("--n", type=int, default=10)
    batch.add_argument("--seed", type=int, default=None)
    batch.add_argument("--out", default=".")
    batch.set_defaults(fn=cmd_batch)

    bench = sub.add_parser("bench", help="planner solve-time percentiles over replayed episodes")
    bench.add_argument("--scenario", required=True)
    bench.add_argument("--n", type=int, default=3, help="episodes to replay")
    bench.add_argument("--seed", type=int, default=None)
    bench.set_defaults(fn=cmd_bench)

    oracle = sub.add_parser("oracle", help="run the independent cross-check suites")
    oracle.add_argument("--suite", choices=["minjerk", "roundtrip", "timesearch", "all"],
                        default="all")
    oracle.add_argument("--n", type=int, default=None, help="override instance count")
    oracle.set_defaults(fn=cmd_oracle)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
