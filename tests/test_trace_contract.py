"""The library-internal call structure that the benchmark's trace relies on.

``perfbench/run.py --trace 1`` wraps module attributes from outside and
derives its per-layer metrics from the spans they record:
``empowerment.maximize_empowerment`` per landscape cell and per
``select_action`` candidate, and ``channel.discretize_dynamics`` (once)
and ``channel.blahut_arimoto`` (once per stage of the staged solve)
inside ``oracle_empowerment``.  A refactor that stops looking these
names up through their modules leaves the spans empty, and the
benchmark then prints ``null`` for metrics such as
``empowerment.estimate_ms``, ``empowerment.iterations_mean`` and
``empowerment.converged_frac``.  These tests wrap the same names the same
way and count the calls.  The traced run also times the estimator's
building blocks through ``perfbench/workloads.py::microbenchmarks``; the
last test runs those probes.
"""

import json
import math
from pathlib import Path

import numpy as np

import empkit.channel
import empkit.empowerment
from empkit import (
    DynamicsModel,
    OptimizerOptions,
    PendulumParams,
    build_pendulum_dynamics,
    empowerment_landscape,
    oracle_empowerment,
    select_action,
)

MODEL = build_pendulum_dynamics(PendulumParams())
QUICK = OptimizerOptions(restarts=1, max_iter=3, mc_samples=4)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name``; the returned list gets each call's result."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(module, name, counted)
    return calls


def test_landscape_estimates_each_cell_through_maximize_empowerment(monkeypatch):
    calls = count_calls(monkeypatch, empkit.empowerment, "maximize_empowerment")
    grid = [np.array([a, v]) for a in (-1.0, 0.0, 1.0) for v in (0.0, 2.0)]
    results = empowerment_landscape(MODEL, grid, QUICK)
    assert len(calls) == len(grid) == len(results)


def test_select_action_estimates_each_candidate_through_maximize_empowerment(
    monkeypatch,
):
    calls = count_calls(monkeypatch, empkit.empowerment, "maximize_empowerment")
    conditional = count_calls(monkeypatch, DynamicsModel, "conditional")
    candidates = [[-2.0], [0.0], [2.0]]
    select_action(MODEL, [np.pi, 0.0], candidates, QUICK)
    assert len(calls) == len(candidates)
    # every candidate's next-state mean comes from one conditional call
    assert len(conditional) == 1


def test_oracle_discretizes_once_and_runs_blahut_arimoto_through_the_module(
    monkeypatch,
):
    conditional = count_calls(monkeypatch, DynamicsModel, "conditional")
    discretize = count_calls(monkeypatch, empkit.channel, "discretize_dynamics")
    ba = count_calls(monkeypatch, empkit.channel, "blahut_arimoto")
    res = oracle_empowerment(MODEL, [-np.pi / 2, -4.0])
    assert len(conditional) == 1
    assert len(discretize) == 1
    assert len(ba) >= 1
    # every Blahut-Arimoto evaluation is a wrapped call's, except one
    # certificate on the whole channel after each sub-run and the start
    assert res.iterations == sum(r.iterations for r in ba) + len(ba) + 1


def test_benchmark_probes_run_at_an_ac5_state(monkeypatch):
    # the names the probes call (the default sample count, the objective and
    # its gradient, forward_moments, forward_point on a batch) must stay, or
    # ``--trace 1`` fails where a plain run still passes
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import workloads

    metrics = workloads.microbenchmarks(workloads.sweep_states()[12])
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) <= {m["name"] for m in declared}
    assert metrics and all(math.isfinite(v) and v > 0 for v in metrics.values())
