"""Count the estimator's objective evaluations per state.

Usage: python tools/evaluations.py SRC_DIR

Imports empkit from SRC_DIR (the directory that holds the ``empkit``
package) and wraps ``empkit.empowerment._mi_core``, the objective, to
count its ``calls``: one per evaluation, summed over the restarts.

Prints one line per AC-5 state (the 25-state diagonal from (-pi, -8) to
(0, 0), seed i), their mean, the mean and maximum of the Blahut-Arimoto
evaluations (``iterations``) of ``oracle_empowerment`` at its defaults on
those states, as AC-5 runs it, the mean, 99th percentile and maximum of
the calls over the default 41x41 grid (cell i with seed i, as
``empkit landscape`` seeds it), and their mean and maximum per
``select_action`` step of a 50-step rollout from (pi, 0) (step t with
seed t over the three default torques, as ``empkit rollout`` runs it).
Off the pendulum, it prints the mean and maximum calls at one restart
(default options) over 24 random bounded nets of 8 tanh/sine hidden
units and output noise 0.05 / 0.1, net i from ``default_rng(1000 + i)``,
each at 5 states uniform in [-1, 1]^2 drawn from the same generator,
then the mean and maximum evaluations of ``oracle_empowerment`` at its
defaults on those 120 states, and on five 1-D shift channels x' = x + a
+ N(0, sigma^2) (sigma 0.5, 0.2, 0.1, 0.05, 0.02) at state 0.
Its last line counts ``blahut_arimoto`` at its defaults on 600 random
channels (from ``default_rng(0)``, sizes from ``integers(1, 7, size=2)``
and Dirichlet rows with alpha cycling over 0.2 / 1 / 5): the draws that
end unconverged, by index, and the mean evaluations per channel.
Compare two source trees with

    diff <(python tools/evaluations.py ../parent/src) <(python tools/evaluations.py src)
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROLLOUT_STEPS = 50
RANDOM_NETS = 24
RANDOM_NET_STATES = 5
RANDOM_CHANNELS = 600
SHIFT_SIGMAS = (0.5, 0.2, 0.1, 0.05, 0.02)


def random_net(rng):
    """A bounded two-state, one-action net: 8 tanh/sine hidden units,
    tanh next-state means and output noise standard deviations 0.05 / 0.1."""
    from empkit import DynamicsModel, FeedforwardNet, LayerSpec

    hidden = LayerSpec(
        rng.normal(0.0, 2.0, (8, 3)),
        rng.normal(size=8),
        rng.choice(["tanh", "sine"], 8),
    )
    out = LayerSpec(
        0.5 * rng.normal(size=(4, 8)),
        np.r_[rng.normal(size=2), np.log([0.05, 0.1])],
        ("tanh", "tanh", "identity", "identity"),
    )
    return DynamicsModel(FeedforwardNet((hidden, out)), 2, 1)


def shift_model(sigma):
    """The one-state, one-action model x' = x + a + N(0, sigma^2)."""
    from empkit import DynamicsModel, FeedforwardNet, LayerSpec

    layer = LayerSpec([[1.0, 1.0], [0.0, 0.0]], [0.0, np.log(sigma)])
    return DynamicsModel(FeedforwardNet((layer,)), 1, 1)


def random_channel_evaluations():
    """Indices of the random channels on which ``blahut_arimoto`` ends
    unconverged at its defaults, and its evaluations on each channel."""
    from empkit import DiscreteChannel, blahut_arimoto

    rng = np.random.default_rng(0)
    unconverged, counts = [], []
    for i in range(RANDOM_CHANNELS):
        a, s = rng.integers(1, 7, size=2)
        P = rng.dirichlet(np.full(s, (0.2, 1.0, 5.0)[i % 3]), size=a)
        res = blahut_arimoto(DiscreteChannel(P))
        counts.append(res.iterations)
        if not res.converged:
            unconverged.append(i)
    return unconverged, counts


def evaluations():
    import empkit.empowerment
    from empkit import (
        OptimizerOptions,
        PendulumState,
        build_pendulum_dynamics,
        maximize_empowerment,
        oracle_empowerment,
        select_action,
    )
    from empkit.config import RunConfig

    cfg = RunConfig()
    model = build_pendulum_dynamics(cfg.pendulum_params())
    calls = []
    mi_core = empkit.empowerment._mi_core

    def counted(*args):
        calls.append(None)
        return mi_core(*args)

    def count(net, state, opts):
        calls.clear()
        maximize_empowerment(net, state, opts)
        return len(calls)

    def rollout(steps):
        torque = cfg.pendulum_params().max_torque
        candidates = [np.array([-torque]), np.array([0.0]), np.array([torque])]
        state = PendulumState(np.pi, 0.0)
        counts = []
        for t in range(steps):
            calls.clear()
            opts = cfg.optimizer_options(seed=cfg.seed + t)
            action, _ = select_action(model, state.as_vector(), candidates, opts)
            counts.append(len(calls))
            y = model.conditional(state.as_vector(), action).mean
            state = PendulumState(y[0], y[1])
        return counts

    empkit.empowerment._mi_core = counted
    try:
        ac5, ba = [], []
        for i, u in enumerate(np.linspace(0.0, 1.0, 25)):
            state = [-np.pi * (1 - u), -8.0 * (1 - u)]
            opts = cfg.optimizer_options(seed=cfg.seed + i)
            ac5.append(count(model, state, opts))
            ba.append(oracle_empowerment(model, state).iterations)
        grid = [
            count(model, s, cfg.optimizer_options(seed=cfg.seed + i))
            for i, s in enumerate(cfg.grid_states())
        ]
        steps = rollout(ROLLOUT_STEPS)
        nets, net_ba = [], []
        for i in range(RANDOM_NETS):
            rng = np.random.default_rng(1000 + i)
            net = random_net(rng)
            for s in rng.uniform(-1.0, 1.0, (RANDOM_NET_STATES, 2)):
                nets.append(count(net, s, OptimizerOptions()))
                net_ba.append(oracle_empowerment(net, s).iterations)
        shift_ba = [
            oracle_empowerment(shift_model(sigma), [0.0]).iterations
            for sigma in SHIFT_SIGMAS
        ]
    finally:
        empkit.empowerment._mi_core = mi_core

    lines = [f"ac5[{i}] calls {c}" for i, c in enumerate(ac5)]
    lines.append(f"ac5 mean calls {np.mean(ac5):.2f}")
    lines.append(f"ac5 oracle evaluations mean {np.mean(ba):.2f} max {max(ba)}")
    grid = np.array(grid)
    lines.append(
        f"grid {cfg.angle_count}x{cfg.velocity_count} calls "
        f"mean {grid.mean():.2f} p99 {np.percentile(grid, 99):.2f} max {grid.max()}"
    )
    steps = np.array(steps)
    lines.append(
        f"rollout {ROLLOUT_STEPS} steps calls per step "
        f"mean {steps.mean():.2f} max {steps.max()}"
    )
    lines.append(
        f"random {RANDOM_NETS} nets x {RANDOM_NET_STATES} states calls "
        f"mean {np.mean(nets):.2f} max {max(nets)}"
    )
    lines.append(
        f"random {RANDOM_NETS} nets x {RANDOM_NET_STATES} states oracle evaluations "
        f"mean {np.mean(net_ba):.2f} max {max(net_ba)}"
    )
    lines.append(
        f"shift {len(SHIFT_SIGMAS)} channels oracle evaluations "
        f"mean {np.mean(shift_ba):.2f} max {max(shift_ba)}"
    )
    unconverged, counts = random_channel_evaluations()
    lines.append(
        f"random {RANDOM_CHANNELS} channels unconverged {len(unconverged)} "
        f"{unconverged} evaluations mean {np.mean(counts):.2f}"
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
