"""empkit benchmark: one command, every metric by name and unit, outputs checked.

    python3 perfbench/run.py --workload {landscape,oracle-sweep,rollout} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; empkit is imported from ``src/`` next to this directory,
never from an installed copy.  The workload itself runs in a fresh
interpreter (``worker.py``), so its heap state and peak RSS are its own;
this process only times set-up, checks outputs and prints.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a detailed report that
is also written to ``perfbench/out/``.

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``setup_s``: median over fresh interpreters of the time to import empkit
  and call ``build_pendulum_dynamics``.
* ``work_per_s``: units of work finished per second of operation time.
* ``work_ms_p50``: median time of one unit of work.
* ``rss_peak_mb``: peak RSS of the workload's process after its loop.

A unit of work is one grid cell (``landscape``: a CLI call's time divided
by its cells), one state through the estimator and the oracle
(``oracle-sweep``) and one control step of ``select_action`` over three
torques (``rollout``).  Times are scaled to a fixed host speed by the
reference loop in ``hostspeed.py``, timed next to every operation and every
set-up; the report keeps the raw wall times (``wall_*``) and the probe
(``ref_ms_p50``).  The report also adds each workload's own figures: tails,
the two oracle-sweep routes and their ratio, quality values and the
environment.  ``--trace 1`` prints the per-layer metrics instead (see
``worker.py``).  Metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 9
TIME_LIMIT_S = 170.0
SPEARMAN_MIN = 0.9  # AC-5's gate

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import empkit
empkit.build_pendulum_dynamics(empkit.PendulumParams())
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import hostspeed
print(elapsed, hostspeed.probe_ms())
"""


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(values):
    """Highest integer percentile with at least 10 samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct / 100 * n)
    return {"pct": pct, "value": sorted(values)[rank - 1], "n": n}


def summary(values):
    return {"p50": statistics.median(values), "tail": tail(values), "n": len(values)}


def measure_setup(deadline):
    """Scaled median set-up time, and the raw (seconds, probe ms) pairs."""
    runs = []
    for _ in range(SETUP_RUNS):
        before_ms = hostspeed.probe_ms()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up run failed:\n{proc.stderr}")
        elapsed, after_ms = map(float, proc.stdout.split())
        runs.append((elapsed, (before_ms + after_ms) / 2))
    return statistics.median(hostspeed.scaled(t, ref) for t, ref in runs), runs


def run_worker(args, deadline):
    result_path = OUT / f"worker-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--out", str(OUT / f"{args.workload}-seed{args.seed}"), "--result", str(result_path),
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload did not finish in time: {exc}") from None
    if proc.returncode != 0:
        raise BenchError(f"workload exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(result_path.read_text())


# ---------------------------------------------------------------------------
# per-workload checks: each returns (ops attempted, ops failed, checks, report)


def csv_rows(text):
    lines = text.strip().splitlines()[1:]
    return [line.split(",") for line in lines]


def check_landscape(res):
    records = res["records"]
    count = res["post"]["count"]
    cells = count * count
    attempted = failed = 0
    for r in records:
        attempted += r["work"]
        if r["exit"] != 0:
            failed += r["work"]
        else:
            failed += sum(1 for row in csv_rows(r["csv"]) if row[2] == "")
    first = csv_rows(records[0]["csv"])
    values = [float(row[2]) if row[2] else math.nan for row in first]
    checks = {
        "cli_exit_zero": all(r["exit"] == 0 for r in records),
        "rows_per_cell": len(first) == cells,
        "reruns_byte_identical": len({r["csv"] for r in records}) == 1,
    }
    report = {}
    if checks["rows_per_cell"] and not any(math.isnan(v) for v in values):
        centre = cells // 2
        checks["argmax_is_centre"] = max(range(cells), key=values.__getitem__) == centre
        mirror = values[::-1]  # joint negation reverses both grid axes
        report["symmetry_err_max"] = max(
            abs(a - b) / max(abs(a), abs(b)) for a, b in zip(values, mirror)
        )
    else:
        checks["argmax_is_centre"] = False
    checks["sampled_cells_match_single_state"] = checks["rows_per_cell"] and all(
        first[c["i"]] == c["row"] for c in res["post"]["sampled"]
    )
    ms_per_cell = [r["ms"] / r["work"] for r in records]
    report["states_per_s"] = sum(r["work"] for r in records) / res["wall_s"]
    report["cell_ms"] = summary(ms_per_cell)
    report["cli_calls"] = len(records)
    return attempted, failed, checks, report


def spearman(x, y):
    from scipy.stats import spearmanr

    return float(spearmanr(x, y).statistic)


def check_sweep(res):
    records = res["records"]
    attempted = 2 * len(records)
    failed = sum(r["est_value"] is None for r in records) + sum(
        not r["orc_converged"] for r in records
    )
    ok = [r for r in records[:25] if r["est_value"] is not None and r["orc_converged"]]
    checks = {
        "all_oracle_converged": all(r["orc_converged"] for r in records),
        "estimator_never_failed": all(r["est_value"] is not None for r in records),
    }
    report = {"estimate_ms": summary([r["est_ms"] for r in records])}
    report["oracle_ms"] = summary([r["orc_ms"] for r in records])
    report["speedup_p50"] = {
        "value": statistics.median(r["orc_ms"] / r["est_ms"] for r in records),
        "base": "oracle_ms / estimate_ms per state",
        "estimate_ms_p50": report["estimate_ms"]["p50"],
        "oracle_ms_p50": report["oracle_ms"]["p50"],
    }
    if len(ok) >= 2:
        rho = spearman([r["est_value"] for r in ok], [r["orc_capacity"] for r in ok])
        report["spearman_rho"] = rho
        report["estimate_err_p50"] = statistics.median(
            abs(r["est_value"] - r["orc_capacity"]) / r["orc_capacity"] for r in ok
        )
        checks["spearman_rho_ge_0.9"] = len(ok) == 25 and rho >= SPEARMAN_MIN
    else:
        checks["spearman_rho_ge_0.9"] = False
    report["states"] = len(records)
    report["sweeps"] = len(records) / 25
    return attempted, failed, checks, report


def check_rollout(res):
    records = res["records"]
    torques = {-2.0, 0.0, 2.0}
    bad = [
        r for r in records
        if not (math.isfinite(r["value"]) and r["value"] >= 0 and r["action"] in torques)
    ]
    post = res["post"]
    checks = {"cli_rollout_matches_library": post["cli_rows"] == post["library_rows"]}
    report = {
        "step_ms": summary([r["ms"] for r in records]),
        "steps": len(records),
        "final_state": [records[-1]["angle"], records[-1]["velocity"]],
    }
    return len(records), len(bad), checks, report


CHECKS = {"landscape": check_landscape, "oracle-sweep": check_sweep, "rollout": check_rollout}


def evaluate(args, res, setup):
    attempted, failed, checks, report = CHECKS[args.workload](res)
    if args.trace:
        checks["traced_outputs_identical"] = res["traced_identical"]
    attempted += len(checks)
    failed += sum(not ok for ok in checks.values())
    records = res["records"]
    work = sum(r["work"] for r in records)
    scaled = [hostspeed.scaled(r["ms"], r["ref_ms"]) for r in records]
    report.update(
        wall_work_per_s=work / (sum(r["ms"] for r in records) / 1e3),
        wall_work_ms_p50=statistics.median(r["ms"] / r["work"] for r in records),
        ref_ms_p50=statistics.median(r["ref_ms"] for r in records),
    )
    if args.trace:
        values = res["layers"]
    else:
        values = {
            "setup_s": setup[0],
            "work_per_s": work / (sum(scaled) / 1e3),
            "work_ms_p50": statistics.median(t / r["work"] for t, r in zip(scaled, records)),
            "rss_peak_mb": res["rss_peak_mb"],
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    report.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        checks=checks, references=res["references"], env=res["env"],
        empkit_file=res["empkit_file"], work_units=work, wall_s=res["wall_s"],
    )
    if setup is not None:
        report["setup_runs"] = [{"s": t, "ref_ms": ref} for t, ref in setup[1]]
    if args.trace:
        report.update(
            module_self_s=res["module_self_s"], traced_wall_s=res["traced_wall_s"],
            untraced_wall_s=res["wall_s"], trace_file=res["trace_file"],
        )
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return final, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "empkit" / "__init__.py").is_file():
        print(f"perfbench: no empkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setup = None if args.trace else measure_setup(deadline)
        res = run_worker(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    final, report = evaluate(args, res, setup)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"result": final, "report": report}, indent=1))
    print(json.dumps(report))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
