"""Check that two traced runs on one seed agree on every deterministic output.

    python3 perfbench/check_repeat.py --seed 3

For each workload, runs ``run.py --trace 1`` twice with the same seed and
compares the work counts and the trace digest, which cover the run's fixed
prefix and so must match exactly.  Exits 1 on any difference or failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.splitlines()
    found = {}
    for line in lines:
        key, _, value = line.partition(": ")
        if key in ("trace_digest", "work_counts"):
            found[key] = value
    found["result"] = json.loads(lines[-1])
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workload or run.WORKLOADS:
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        for key in ("trace_digest", "work_counts"):
            same = first[key] == second[key]
            ok &= same
            print(f"{'SAME' if same else 'DIFFERENT'} {workload} {key}: {first[key]}")
            if not same:
                print(f"     second run: {second[key]}")
        for res in (first["result"], second["result"]):
            ok &= res["correct"]
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
