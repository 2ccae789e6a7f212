"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from empkit import channel, cli, empowerment, nets  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_same_seed_same_inputs(tmp_path):
    a, b = wl.Landscape(7, tmp_path / "a"), wl.Landscape(7, tmp_path / "b")
    assert a.argv[-2:] == b.argv[-2:] == ["--seed", "7"]
    assert a.sampled_cells() == b.sampled_cells()
    assert all(np.array_equal(x, y) for x, y in zip(a.grid, b.grid))
    assert all(np.array_equal(x, y) for x, y in zip(wl.sweep_states(), wl.sweep_states()))
    first = [wl.outputs(r) for r in wl.run_ops(wl.Rollout(7, tmp_path), n_ops=2)[0]]
    again = [wl.outputs(r) for r in wl.run_ops(wl.Rollout(7, tmp_path), n_ops=2)[0]]
    assert first == again


def test_traced_run_matches_untraced_and_restores_names(tmp_path):
    wrapped = [
        (empowerment, "maximize_empowerment"),
        (channel, "discretize_dynamics"),
        (channel, "blahut_arimoto"),
        (nets.DynamicsModel, "conditional"),
        (cli, "empowerment_landscape"),
        (cli, "build_pendulum_dynamics"),
    ]
    originals = [getattr(owner, attr) for owner, attr in wrapped]
    expected = {
        wl.OracleSweep: {"channel.blahut_arimoto", "nets.conditional"},
        wl.Rollout: {"empowerment.select_action", "empowerment.maximize_empowerment"},
    }
    for cls, names in expected.items():
        plain, _ = wl.run_ops(cls(3, tmp_path), n_ops=2)
        tracer = Tracer()
        wl.install_tracing(tracer)
        try:
            assert all(getattr(o, a) is not f for (o, a), f in zip(wrapped, originals))
            traced, _ = wl.run_ops(cls(3, tmp_path), span=tracer.span, n_ops=2)
        finally:
            tracer.restore()
        assert [wl.outputs(r) for r in traced] == [wl.outputs(r) for r in plain]
        assert all(getattr(o, a) is f for (o, a), f in zip(wrapped, originals))
        assert names <= {s["name"] for s in tracer.spans}


def test_self_times_sum_to_root_durations():
    tracer = Tracer()
    with tracer.span("a.outer"):
        with tracer.span("b.inner"):
            sum(range(10000))
        with tracer.span("b.inner"):
            sum(range(10000))
    selfs = tracer.self_times()
    root = tracer.spans[0]
    assert abs(sum(selfs.values()) - (root["end"] - root["start"])) < 1e-12
    assert all(v >= 0 for v in selfs.values())
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]


def test_library_rollout_reproduces_cli_csv(tmp_path):
    steps = 3
    rollout = wl.Rollout(5, tmp_path)
    records, _ = wl.run_ops(rollout, n_ops=steps)
    assert rollout.cli_rows(steps) == wl.rollout_rows(records)


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    t = run.tail([float(i) for i in range(100)])
    assert t["pct"] == 90 and t["n"] == 100
    assert sum(v > t["value"] for v in range(100)) >= 10


def test_fails_without_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench / f.name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "rollout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
