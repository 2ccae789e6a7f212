"""Print a bit-exact fingerprint of empkit's estimator outputs.

Usage: python tools/fingerprint.py SRC_DIR

Imports empkit from SRC_DIR (the directory that holds the ``empkit``
package) and prints ``float.hex`` of a fixed set of outputs, one per line:

* ``maximize_empowerment`` (value, policy mean and log-std, iterations,
  converged) on AC-5's 25-state diagonal (seed i), on a 5x5 subgrid of the
  default grid through ``empowerment_landscape`` (seed 0), and with 6
  restarts at seeds 1, 8 and 33 (``mc_samples`` equal to the seed, which
  the one-dimensional action's Gauss-Hermite objective does not read);
* ``mi_lower_bound``, ``mi_lower_bound_with_gradient``,
  ``marginal_transition`` and ``forward_moments`` at 40 seeded random
  states and policies (the pendulum's action is one-dimensional, so the
  ``mc_samples`` and ``seed`` passed vary but have no effect);
* ``select_action`` from (pi, 0) over torques -2, 0, 2;
* point evaluation on the pendulum and on a seeded mixed-tag net:
  ``forward_point`` on a vector, an (n, in) batch and an (n, 1, in)
  stack, and ``DynamicsModel.conditional`` on one action and on a batch;
* ``oracle_empowerment`` at AC-5's settings on its 25-state diagonal: the
  sha256 of the channel handed to ``blahut_arimoto`` and the iteration
  count on one line, capacity and gap on the next;
* the two-action estimator on the mixed-tag net: ``mi_lower_bound``,
  ``mi_lower_bound_with_gradient`` and ``marginal_transition`` at 10
  seeded random states, policies, Monte Carlo draw counts and seeds, and
  one ``maximize_empowerment`` with 3 restarts;
* ``forward_moments`` on the mixed-tag net at 10 seeded input Gaussians,
  the first of zero variance, so that its output variances come from the
  variance floor alone.

Two source trees compute the same numbers bit for bit exactly when their
outputs are byte-identical:

    diff <(python tools/fingerprint.py ../parent/src) <(python tools/fingerprint.py src)

Only public API is used, so any version of the package can be compared.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np


def _hex(x):
    return " ".join(float(v).hex() for v in np.atleast_1d(x))


def _estimate(tag, est):
    if est is None:
        return f"{tag} None"
    p = est.policy
    return (
        f"{tag} {_hex(est.value)} | {_hex(p.action_mean)} | "
        f"{_hex(p.action_log_std)} | {est.iterations} {est.converged}"
    )


def fingerprint():
    from empkit import (
        DiagonalGaussian,
        DynamicsModel,
        FeedforwardNet,
        GaussianPolicy,
        LayerSpec,
        OptimizerOptions,
        PendulumParams,
        build_pendulum_dynamics,
        empowerment_landscape,
        forward_moments,
        forward_point,
        marginal_transition,
        maximize_empowerment,
        mi_lower_bound,
        mi_lower_bound_with_gradient,
        select_action,
    )
    from empkit.config import RunConfig

    model = build_pendulum_dynamics(PendulumParams())
    lines = []

    for i, u in enumerate(np.linspace(0.0, 1.0, 25)):
        s = np.array([-np.pi * (1 - u), -8.0 * (1 - u)])
        est = maximize_empowerment(model, s, OptimizerOptions(seed=i))
        lines.append(_estimate(f"ac5[{i}]", est))

    cfg = RunConfig()
    angles, velocities = cfg.angles()[::10], cfg.velocities()[::10]
    grid = [np.array([a, v]) for v in velocities for a in angles]
    landscape = empowerment_landscape(model, grid, OptimizerOptions())
    for i, (_, est) in enumerate(landscape):
        lines.append(_estimate(f"grid[{i}]", est))

    for mc in (1, 8, 33):
        opts = OptimizerOptions(restarts=6, mc_samples=mc, seed=mc)
        est = maximize_empowerment(model, [0.4, -1.5], opts)
        lines.append(_estimate(f"restarts6[mc={mc}]", est))

    rng = np.random.default_rng(2024)
    for i in range(40):
        state = rng.uniform([-np.pi, -8.0], [np.pi, 8.0])
        policy = GaussianPolicy(rng.normal(0.0, 1.5, 1), rng.uniform(-6.0, 2.0, 1))
        mc = int(rng.integers(1, 40))
        seed = int(rng.integers(0, 1000))
        value = mi_lower_bound(model, state, policy, mc, seed)
        gvalue, gmean, glog = mi_lower_bound_with_gradient(
            model, state, policy, mc, seed
        )
        marg = marginal_transition(model, state, policy)
        g = DiagonalGaussian(
            np.append(state, policy.action_mean),
            np.append(rng.uniform(0.0, 0.5, 2), np.exp(2.0 * policy.action_log_std)),
        )
        fm = forward_moments(model.net, g)
        lines.append(
            f"probe[{i}] {_hex(value)} | {_hex(gvalue)} {_hex(gmean)} "
            f"{_hex(glog)} | {_hex(marg.mean)} {_hex(marg.variance)} | "
            f"{_hex(fm.mean)} {_hex(fm.variance)}"
        )

    torques = [[-2.0], [0.0], [2.0]]
    a, v = select_action(model, [np.pi, 0.0], torques, OptimizerOptions())
    lines.append(f"select_action {_hex(a)} {_hex(v)}")

    rng = np.random.default_rng(7)
    tags = ("tanh", "sine", "sine", "identity", "tanh")
    hidden = LayerSpec(rng.normal(size=(5, 4)), rng.normal(size=5), tags)
    out = LayerSpec(0.5 * rng.normal(size=(4, 5)), rng.normal(size=4), "tanh")
    mixed = DynamicsModel(FeedforwardNet((hidden, out)), state_dim=2, action_dim=2)
    for name, m in (("pendulum", model), ("mixed", mixed)):
        X = rng.normal(0.0, 2.0, (7, m.net.in_dim))
        state, actions = X[0, : m.state_dim], X[:, m.state_dim :]
        for kind, x in (("vector", X[0]), ("batch", X), ("stack", X[:, None])):
            y = forward_point(m.net, x)
            lines.append(f"point[{name},{kind}] {_hex(y.ravel())}")
        for kind, a in (("one", actions[0]), ("batch", actions)):
            c = m.conditional(state, a)
            lines.append(
                f"conditional[{name},{kind}] {_hex(c.mean.ravel())} | "
                f"{_hex(c.variance.ravel())}"
            )

    lines.extend(oracle_fingerprint(model))

    rng = np.random.default_rng(27)
    for i in range(10):
        state = rng.uniform(-2.0, 2.0, 2)
        policy = GaussianPolicy(rng.normal(0.0, 1.5, 2), rng.uniform(-6.0, 2.0, 2))
        mc = int(rng.integers(2, 40))
        seed = int(rng.integers(0, 1000))
        value = mi_lower_bound(mixed, state, policy, mc, seed)
        gvalue, gmean, glog = mi_lower_bound_with_gradient(
            mixed, state, policy, mc, seed
        )
        marg = marginal_transition(mixed, state, policy)
        lines.append(
            f"mixed_probe[{i}] {_hex(value)} | {_hex(gvalue)} {_hex(gmean)} "
            f"{_hex(glog)} | {_hex(marg.mean)} {_hex(marg.variance)}"
        )
    est = maximize_empowerment(mixed, [0.3, -0.4], OptimizerOptions(restarts=3, seed=5))
    lines.append(_estimate("mixed_estimate", est))

    rng = np.random.default_rng(31)
    for i in range(10):
        var = rng.uniform(0.0, 0.5, 4) if i else np.zeros(4)
        fm = forward_moments(mixed.net, DiagonalGaussian(rng.normal(0.0, 1.5, 4), var))
        lines.append(f"mixed_moments[{i}] {_hex(fm.mean)} {_hex(fm.variance)}")
    return lines


def oracle_fingerprint(model):
    import empkit.channel
    from empkit import oracle_empowerment

    channels = []
    run_ba = empkit.channel.blahut_arimoto

    def recording_ba(ch, *args, **kwargs):
        channels.append(np.ascontiguousarray(ch.transition))
        return run_ba(ch, *args, **kwargs)

    lines = []
    empkit.channel.blahut_arimoto = recording_ba
    try:
        for i, u in enumerate(np.linspace(0.0, 1.0, 25)):
            s = np.array([-np.pi * (1 - u), -8.0 * (1 - u)])
            res = oracle_empowerment(model, s, n_actions=64, bins=41, tol=1e-3)
            digest = hashlib.sha256(channels.pop().tobytes()).hexdigest()
            lines.append(f"oracle[{i}] channel {digest} iterations {res.iterations}")
            lines.append(f"oracle[{i}] capacity {_hex(res.capacity)} gap {_hex(res.gap)}")
    finally:
        empkit.channel.blahut_arimoto = run_ba
    return lines


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "empkit" / "__init__.py").is_file():
        print(f"fingerprint: no empkit package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for line in fingerprint():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
