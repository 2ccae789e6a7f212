"""Count the estimator's objective evaluations per state.

Usage: python tools/evaluations.py SRC_DIR

Imports empkit from SRC_DIR (the directory that holds the ``empkit``
package) and wraps ``empkit.empowerment._mi_core``, the batched objective.
``maximize_empowerment`` advances its restarts in lockstep: each call
evaluates the next trial point of every live restart, one lane per
restart.  So per state:

* ``calls`` is the number of objective calls, which is also the longest
  restart's evaluation count;
* ``lanes`` is the number of lane evaluations, summed over the restarts.

Prints one line per AC-5 state (the 25-state diagonal from (-pi, -8) to
(0, 0), seed i), their mean, the mean and maximum of the Blahut-Arimoto
evaluations (``iterations``) of ``oracle_empowerment`` at its defaults on
those states, as AC-5 runs it, the mean, 99th percentile and maximum of
both counts over the default 41x41 grid (cell i with seed i, as
``empkit landscape`` seeds it), and the mean and maximum of both counts
per ``select_action`` step of a 50-step rollout from (pi, 0) (step t with
seed t over the three default torques, as ``empkit rollout`` runs it).
Compare two source trees with

    diff <(python tools/evaluations.py ../parent/src) <(python tools/evaluations.py src)
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROLLOUT_STEPS = 50


def evaluations():
    import empkit.empowerment
    from empkit import (
        PendulumState,
        build_pendulum_dynamics,
        maximize_empowerment,
        oracle_empowerment,
        select_action,
    )
    from empkit.config import RunConfig

    cfg = RunConfig()
    model = build_pendulum_dynamics(cfg.pendulum_params())
    lanes = []
    mi_core = empkit.empowerment._mi_core

    def counted(model, state, mean, log_std, eps, want_grad):
        lanes.append(len(eps))
        return mi_core(model, state, mean, log_std, eps, want_grad)

    def count(state, seed):
        lanes.clear()
        maximize_empowerment(model, state, cfg.optimizer_options(seed=seed))
        return len(lanes), sum(lanes)

    def rollout(steps):
        torque = cfg.pendulum_params().max_torque
        candidates = [np.array([-torque]), np.array([0.0]), np.array([torque])]
        state = PendulumState(np.pi, 0.0)
        counts = []
        for t in range(steps):
            lanes.clear()
            opts = cfg.optimizer_options(seed=cfg.seed + t)
            action, _ = select_action(model, state.as_vector(), candidates, opts)
            counts.append((len(lanes), sum(lanes)))
            y = model.conditional(state.as_vector(), action).mean
            state = PendulumState(y[0], y[1])
        return counts

    empkit.empowerment._mi_core = counted
    try:
        ac5, ba = [], []
        for i, u in enumerate(np.linspace(0.0, 1.0, 25)):
            state = [-np.pi * (1 - u), -8.0 * (1 - u)]
            ac5.append(count(state, cfg.seed + i))
            ba.append(oracle_empowerment(model, state).iterations)
        grid = [count(s, cfg.seed + i) for i, s in enumerate(cfg.grid_states())]
        steps = rollout(ROLLOUT_STEPS)
    finally:
        empkit.empowerment._mi_core = mi_core

    lines = [f"ac5[{i}] calls {c} lanes {n}" for i, (c, n) in enumerate(ac5)]
    calls, lane_evals = np.array(ac5).mean(axis=0)
    lines.append(f"ac5 mean calls {calls:.2f} lanes {lane_evals:.2f}")
    lines.append(f"ac5 oracle evaluations mean {np.mean(ba):.2f} max {max(ba)}")
    grid = np.array(grid)
    for name, column in zip(("calls", "lanes"), grid.T):
        lines.append(
            f"grid {cfg.angle_count}x{cfg.velocity_count} {name} "
            f"mean {column.mean():.2f} p99 {np.percentile(column, 99):.2f} "
            f"max {column.max()}"
        )
    for name, column in zip(("calls", "lanes"), np.array(steps).T):
        lines.append(
            f"rollout {ROLLOUT_STEPS} steps {name} per step "
            f"mean {column.mean():.2f} max {column.max()}"
        )
    return lines


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "empkit" / "__init__.py").is_file():
        print(f"evaluations: no empkit package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for line in evaluations():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
