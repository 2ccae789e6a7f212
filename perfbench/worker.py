"""Run one workload in this (fresh) interpreter and write its raw results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR --result FILE

Every workload imports the same modules before it starts.  Nothing is
imported or set to steady the measurement: the process is what a user of
empkit runs.  With ``--trace 0`` the workload runs for ``S`` seconds.  With
``--trace 1`` it runs untraced for S/2 seconds, then runs the same
operations again with spans recorded, then probes the layers its loop did
not call, and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import empkit  # noqa: E402
import empkit.cli  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_config = blas.get("openblas configuration") or blas.get("name")
    except (KeyError, TypeError, ValueError):
        blas_config = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "blas": blas_config,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
    }


def _median(xs):
    return statistics.median(xs) if xs else None


def _mean(xs):
    return statistics.fmean(xs) if xs else None


def _under(spans, span, name):
    while span["parent"] is not None:
        span = spans[span["parent"]]
        if span["name"] == name:
            return True
    return False


def layer_metrics(tracer, main_spans, traced, traced_wall, untraced):
    """Per-layer numbers from the spans; the first ``main_spans`` spans belong
    to the workload's own loop, the rest to probes.  Times are raw wall times;
    ``host.ref_ms`` is the host speed they were taken at."""
    spans = tracer.spans
    selfs = tracer.self_times()

    def named(name, pool=spans):
        return [s for s in pool if s["name"] == name]

    def dur(s):
        return s["end"] - s["start"]

    est = named("empowerment.maximize_empowerment", spans[:main_spans])
    oracle = named("channel.oracle_empowerment")
    ba = named("channel.blahut_arimoto")
    cond = [s for s in named("nets.conditional") if _under(spans, s, "channel.oracle_empowerment")]
    ba_iters = [s["attrs"]["iterations"] for s in ba]
    return {
        "empowerment.estimate_calls": len(est),
        "empowerment.estimate_ms": _median([selfs[s["id"]] * 1e3 for s in est]),
        "empowerment.iterations_mean": _mean([s["attrs"]["iterations"] for s in est]),
        "empowerment.converged_frac": _mean([float(s["attrs"]["converged"]) for s in est]),
        "channel.ba_ms": _median([dur(s) * 1e3 for s in ba]),
        "channel.ba_iterations": _mean(ba_iters),
        "channel.ba_us_per_iter": sum(dur(s) for s in ba) / sum(ba_iters) * 1e6,
        "channel.discretize_ms": _median(
            [dur(s) * 1e3 for s in named("channel.discretize_dynamics")]
        ),
        "channel.edges_ms": _median([selfs[s["id"]] * 1e3 for s in oracle]),
        "channel.conditional_calls": len(cond) / len(oracle),
        "channel.minflt_per_call": _mean([s["attrs"]["minflt"] for s in oracle]),
        "channel.sys_ms_per_call": _mean([s["attrs"]["sys_ms"] for s in oracle]),
        "cli.landscape_self_ms": _median([selfs[s["id"]] * 1e3 for s in named("cli.main")]),
        "trace.overhead_frac": sum(wl.scaled_ms(traced)) / sum(wl.scaled_ms(untraced)) - 1.0,
        "trace.accounted_frac": sum(selfs[s["id"]] for s in spans[:main_spans]) / traced_wall,
        "host.ref_ms": statistics.median(r["ref_ms"] for r in traced),
    }


def run(name, seed, seconds, trace, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = wl.WORKLOADS[name](seed, out_dir)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        records, wall = wl.run_ops(workload, seconds=seconds)
        result["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        records, wall = wl.run_ops(workload, seconds=seconds / 2)
        tracer = Tracer()
        wl.install_tracing(tracer)
        try:
            traced, traced_wall = wl.run_ops(
                wl.WORKLOADS[name](seed, out_dir), span=tracer.span, n_ops=len(records)
            )
            main_spans = len(tracer.spans)
            states = workload.probe_states(records)
            model = wl.build_model()
            if not tracer_has(tracer, "channel.oracle_empowerment"):
                for s in states:
                    wl.oracle_call(model, s, tracer.span)
            if not tracer_has(tracer, "cli.main"):
                wl.Landscape(seed, out_dir).op(0, tracer.span)
        finally:
            tracer.restore()
        layers = layer_metrics(tracer, main_spans, traced, traced_wall, records)
        layers.update(wl.microbenchmarks(states[0]))
        trace_file = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(trace_file)
        self_s = tracer.self_by_module(main_spans)
        self_s["unspanned"] = traced_wall - sum(self_s.values())
        result.update(
            layers=layers,
            traced_identical=[wl.outputs(r) for r in traced] == [wl.outputs(r) for r in records],
            traced_wall_s=traced_wall,
            module_self_s=self_s,
            trace_file=str(trace_file.relative_to(ROOT)),
        )
    result["wall_s"] = wall
    result["records"] = records
    result["post"] = workload.post(records)
    result["references"] = wl.reference_values()
    result["env"] = environment()
    result["empkit_file"] = str(Path(empkit.__file__).resolve().relative_to(ROOT))
    return result


def tracer_has(tracer, name):
    return any(s["name"] == name for s in tracer.spans)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace, Path(args.out))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
