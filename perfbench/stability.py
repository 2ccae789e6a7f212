"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/stability.py --workloads landscape,oracle-sweep,rollout \
        --seeds 10 [--first-seed 100] [--seconds 30] [--trace 0] [--save FILE]

For each workload and end-to-end metric this prints the median of the
per-seed values and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the bound in BENCHMARK.json.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]), time.monotonic() - t0


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / abs(median)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="landscape,oracle-sweep,rollout")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="write every run's result here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            final, report, elapsed = run_once(workload, seed, seconds, args.trace)
            results.append({"seed": seed, "result": final, "report": report})
            values = {k: round(v["value"], 4) for k, v in final["metrics"].items()}
            print(workload, seed, final["correct"], final["failed"], f"{elapsed:.1f}s",
                  values, flush=True)
        runs[workload] = results
        for name in results[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            print(f"  {workload:13s} {name:32s} median {median:12.5g}  "
                  f"IQR/median {share:.4f}  bound {bounds.get(name)}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
