"""Workload inputs and loops, driven through empkit's public functions.

A workload is a sequence of operations ``op(k, span)``.  Each returns a
record holding the measured wall time ``ms``, the units of ``work`` it
finished and the outputs the checks need.  Inputs depend only on the
workload seed.  ``span`` is ``Tracer.span`` in a traced run and
``null_span`` otherwise, so both runs execute the same code.
"""

from __future__ import annotations

import csv
import json
import math
import resource
import time
from pathlib import Path

import numpy as np

from empkit import channel, cli, empowerment, nets, pendulum
from empkit.config import RunConfig
from empkit.gaussian import DiagonalGaussian

import hostspeed
from tracing import null_span

# AC-5's oracle settings
ORACLE_ACTIONS = 64
ORACLE_BINS = 41
ORACLE_TOL = 1e-3
SWEEP_STATES = 25
# 3 points per axis over the default bounds are the ends and the middle of
# the default 41-point axes: the saturated corners and edges around the
# centre cell (0, 0).  Small CLI calls keep each one short beside the host
# speed probes that bracket it.
LANDSCAPE_COUNT = 3
SAMPLED_CELLS = 3
ROLLOUT_START = (math.pi, 0.0)
ROLLOUT_CHECK_STEPS = 2
REFERENCE_STATES = ((0.0, 0.0), (math.pi, 0.0), (1.0, -2.0))

# record fields that hold measurements rather than program outputs
MEASURED_KEYS = frozenset({"ms", "est_ms", "orc_ms", "minflt", "sys_ms", "ref_ms"})


def fmt(x: float) -> str:
    """The CLI's float format."""
    return f"{x:.12g}"


def build_model():
    return pendulum.build_pendulum_dynamics(pendulum.PendulumParams())


def sweep_states():
    """AC-5's diagonal from (-pi, -8) to (0, 0)."""
    return [
        np.array([-np.pi * (1 - u), -8.0 * (1 - u)])
        for u in np.linspace(0.0, 1.0, SWEEP_STATES)
    ]


def oracle_call(model, state, span):
    """One oracle run at AC-5's settings, with its page faults and system time."""
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with span("channel.oracle_empowerment") as rec:
        res = channel.oracle_empowerment(
            model, state, n_actions=ORACLE_ACTIONS, bins=ORACLE_BINS, tol=ORACLE_TOL
        )
    ms = (time.perf_counter() - t0) * 1e3
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    minflt = r1.ru_minflt - r0.ru_minflt
    sys_ms = (r1.ru_stime - r0.ru_stime) * 1e3
    rec["attrs"].update(minflt=minflt, sys_ms=sys_ms)
    return res, ms, minflt, sys_ms


class Landscape:
    """``empkit landscape`` on a symmetric, odd-sized subgrid, repeated."""

    name = "landscape"
    min_ops = 2  # the repeat check compares two CLI runs

    def __init__(self, seed, out_dir):
        self.seed = seed
        count = LANDSCAPE_COUNT
        self.out = Path(out_dir) / "landscape"
        self.out.mkdir(parents=True, exist_ok=True)
        config = self.out / "config.json"
        config.write_text(
            json.dumps(
                {"angle_count": count, "velocity_count": count, "out_dir": str(self.out)}
            )
        )
        self.argv = ["landscape", "--config", str(config), "--seed", str(seed)]
        self.grid = RunConfig(angle_count=count, velocity_count=count).grid_states()

    def op(self, k, span=null_span):
        t0 = time.perf_counter()
        with span("cli.main"):
            code = cli.main(self.argv)
        ms = (time.perf_counter() - t0) * 1e3
        text = (self.out / "landscape.csv").read_text() if code == 0 else ""
        return {"ms": ms, "work": len(self.grid), "exit": code, "csv": text}

    def sampled_cells(self):
        rng = np.random.default_rng(self.seed)
        return sorted(int(i) for i in rng.choice(len(self.grid), SAMPLED_CELLS, replace=False))

    def probe_states(self, records):
        return [self.grid[i] for i in self.sampled_cells()]

    def post(self, records):
        """Single-state runs of the sampled cells, as CSV rows."""
        model = build_model()
        rows = []
        for i in self.sampled_cells():
            s = self.grid[i]
            est = empowerment.maximize_empowerment(
                model, s, empowerment.OptimizerOptions(seed=self.seed + i)
            )
            row = [fmt(s[0]), fmt(s[1]), fmt(est.value), "true" if est.converged else "false"]
            rows.append({"i": i, "row": row})
        return {"sampled": rows, "count": LANDSCAPE_COUNT}


class OracleSweep:
    """AC-5's 25-state diagonal, estimator and oracle on each state."""

    name = "oracle-sweep"
    min_ops = SWEEP_STATES  # rank agreement needs one full sweep

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.model = build_model()
        self.states = sweep_states()

    def op(self, k, span=null_span):
        i = k % SWEEP_STATES
        s = self.states[i]
        opts = empowerment.OptimizerOptions(seed=self.seed + i)
        t0 = time.perf_counter()
        try:
            est = empowerment.maximize_empowerment(self.model, s, opts)
            error = None
        except RuntimeError as exc:
            est, error = None, str(exc)
        est_ms = (time.perf_counter() - t0) * 1e3
        res, orc_ms, minflt, sys_ms = oracle_call(self.model, s, span)
        return {
            "i": i,
            "ms": est_ms + orc_ms,
            "work": 1,
            "est_ms": est_ms,
            "orc_ms": orc_ms,
            "est_value": None if est is None else est.value,
            "est_iterations": None if est is None else est.iterations,
            "est_converged": None if est is None else est.converged,
            "error": error,
            "orc_capacity": res.capacity,
            "orc_iterations": res.iterations,
            "orc_converged": res.converged,
            "minflt": minflt,
            "sys_ms": sys_ms,
        }

    def probe_states(self, records):
        return [self.states[i] for i in (0, SWEEP_STATES // 2, SWEEP_STATES - 1)]

    def post(self, records):
        return {}


class Rollout:
    """``cmd_rollout``'s greedy loop from hanging down, one timed step per op."""

    name = "rollout"
    min_ops = ROLLOUT_CHECK_STEPS

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out = Path(out_dir) / "rollout"
        self.out.mkdir(parents=True, exist_ok=True)
        self.params = pendulum.PendulumParams()
        self.model = pendulum.build_pendulum_dynamics(self.params)
        torque = self.params.max_torque
        self.candidates = [np.array([-torque]), np.array([0.0]), np.array([torque])]
        self.state = pendulum.PendulumState(*ROLLOUT_START)

    def op(self, k, span=null_span):
        s = self.state
        opts = empowerment.OptimizerOptions(seed=self.seed + k)
        t0 = time.perf_counter()
        with span("empowerment.select_action"):
            action, value = empowerment.select_action(
                self.model, s.as_vector(), self.candidates, opts
            )
        ms = (time.perf_counter() - t0) * 1e3
        with span("nets.forward_point"):
            y = nets.forward_point(self.model.net, np.concatenate([s.as_vector(), action]))
        self.state = pendulum.PendulumState(y[0], y[1])
        return {
            "t": k,
            "ms": ms,
            "work": 1,
            "angle": s.angle,
            "velocity": s.angular_velocity,
            "action": float(action[0]),
            "value": float(value),
        }

    def probe_states(self, records):
        return [np.array([r["angle"], r["velocity"]]) for r in records[:3]]

    def cli_rows(self, steps):
        """``empkit rollout``'s CSV rows for the same start and seed."""
        config = self.out / "config.json"
        config.write_text(json.dumps({"out_dir": str(self.out)}))
        code = cli.main(
            [
                "rollout", "--config", str(config), "--seed", str(self.seed),
                "--start", f"{ROLLOUT_START[0]!r},{ROLLOUT_START[1]!r}",
                "--steps", str(steps),
            ]
        )
        if code != 0:
            return None
        with open(self.out / "rollout.csv", newline="") as fh:
            return list(csv.reader(fh))[1:]

    def post(self, records):
        return {
            "cli_rows": self.cli_rows(ROLLOUT_CHECK_STEPS),
            "library_rows": rollout_rows(records[:ROLLOUT_CHECK_STEPS]),
        }


def rollout_rows(records):
    """Library rollout records in ``rollout.csv``'s row format."""
    return [
        [str(r["t"]), fmt(r["angle"]), fmt(r["velocity"]), fmt(r["action"]), fmt(r["value"])]
        for r in records
    ]


WORKLOADS = {w.name: w for w in (Landscape, OracleSweep, Rollout)}


def run_ops(workload, span=null_span, seconds=None, n_ops=None):
    """Run ``n_ops`` operations, or as many as fit in ``seconds`` (at least
    ``workload.min_ops``).  Returns the records and the wall time in s spent
    outside the host speed probes.

    The probe runs between operations, outside their timings; each record's
    ``ref_ms`` is the mean of the probes on either side."""
    records, refs = [], []
    probe_s = 0.0
    t_start = time.perf_counter()
    deadline = t_start + (seconds or 0.0)
    while True:
        t0 = time.perf_counter()
        refs.append(hostspeed.probe_ms())
        probe_s += time.perf_counter() - t0
        k = len(records)
        if n_ops is not None:
            if k >= n_ops:
                break
        elif k >= workload.min_ops and time.perf_counter() >= deadline:
            break
        records.append(workload.op(k, span))
    wall = time.perf_counter() - t_start - probe_s
    for r, before, after in zip(records, refs, refs[1:]):
        r["ref_ms"] = (before + after) / 2
    return records, wall


def scaled_ms(records):
    """Operation times scaled to the nominal host speed."""
    return [hostspeed.scaled(r["ms"], r["ref_ms"]) for r in records]


def outputs(record):
    """The program outputs of a record, without its measurements."""
    return {k: v for k, v in record.items() if k not in MEASURED_KEYS}


def reference_values():
    """Estimates at fixed states with seed 0; informational, not gated."""
    model = build_model()
    opts = empowerment.OptimizerOptions(seed=0)
    return {
        f"{a:.6g},{v:.6g}": empowerment.maximize_empowerment(model, [a, v], opts).value
        for a, v in REFERENCE_STATES
    }


def install_tracing(tracer):
    """Wrap the names the program looks up, where it looks them up."""
    tracer.wrap(
        empowerment, "maximize_empowerment", "empowerment.maximize_empowerment",
        lambda e: {"iterations": e.iterations, "converged": e.converged},
    )
    tracer.wrap(channel, "discretize_dynamics", "channel.discretize_dynamics")
    tracer.wrap(
        channel, "blahut_arimoto", "channel.blahut_arimoto",
        lambda r: {"iterations": r.iterations, "converged": r.converged},
    )
    tracer.wrap(nets.DynamicsModel, "conditional", "nets.conditional")
    tracer.wrap(cli, "empowerment_landscape", "empowerment.empowerment_landscape")
    tracer.wrap(cli, "build_pendulum_dynamics", "pendulum.build_pendulum_dynamics")


def per_call_us(fn, calls=40, batches=7):
    """Median per-call time of ``fn`` over batches, in microseconds."""
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return float(np.median(times)) * 1e6


def microbenchmarks(state):
    """Per-call costs of the estimator's building blocks at a workload state,
    at the optimizer's initial policy and default sample count."""
    params = pendulum.PendulumParams()
    model = pendulum.build_pendulum_dynamics(params)
    state = np.asarray(state, dtype=float)
    mc = empowerment.OptimizerOptions().mc_samples
    policy = empowerment.GaussianPolicy([0.0], [-1.0])
    g = DiagonalGaussian(np.append(state, 0.0), [0.0, 0.0, math.exp(-2.0)])
    eps = np.random.default_rng(0).standard_normal((mc, 1))
    x = np.concatenate([np.broadcast_to(state, (mc, 2)), math.exp(-1.0) * eps], axis=1)
    return {
        "empowerment.objective_us": per_call_us(
            lambda: empowerment.mi_lower_bound(model, state, policy, mc, 0)
        ),
        "empowerment.objective_grad_us": per_call_us(
            lambda: empowerment.mi_lower_bound_with_gradient(model, state, policy, mc, 0)
        ),
        "nets.forward_moments_us": per_call_us(lambda: nets.forward_moments(model.net, g)),
        "nets.forward_point_batch_us": per_call_us(lambda: nets.forward_point(model.net, x)),
        "pendulum.build_ms": per_call_us(lambda: pendulum.build_pendulum_dynamics(params))
        / 1e3,
    }
