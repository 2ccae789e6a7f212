"""Command-line driver.

Subcommands:
    empkit landscape      --config <path> [--out <dir>] [--seed <n>]
    empkit compare-oracle --config <path> --states <n> [--out <dir>] [--seed <n>]
    empkit rollout        --config <path> --start <angle,velocity> --steps <n>
    empkit selfcheck

Exit codes: 0 success, 1 check failure, 2 configuration error.
All outputs are deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from .channel import DiscreteChannel, blahut_arimoto, oracle_empowerment
from .config import RunConfig, load_config
from .empowerment import (
    empowerment_landscape,
    maximize_empowerment,
    select_action,
)
from .gaussian import DiagonalGaussian, kl_diag_gaussian
from .nets import FeedforwardNet, LayerSpec, forward_moments, forward_point
from .pendulum import (
    PendulumState,
    build_pendulum_dynamics,
    pendulum_step,
    wrap_angle,
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_pgm(path: Path, values: np.ndarray) -> None:
    """Plain (P2) 8-bit grayscale, min-max normalized; NaN cells map to 0."""
    finite = values[np.isfinite(values)]
    lo = finite.min() if finite.size else 0.0
    hi = finite.max() if finite.size else 1.0
    span = hi - lo
    if span <= 0:
        span = 1.0
    pix = np.where(
        np.isfinite(values),
        np.rint((values - lo) / span * 255.0),
        0.0,
    ).astype(int)
    lines = ["P2", f"{values.shape[1]} {values.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in pix]
    path.write_text("\n".join(lines) + "\n")


def cmd_landscape(config: RunConfig) -> int:
    model = build_pendulum_dynamics(config.pendulum_params())
    states = config.grid_states()
    results = empowerment_landscape(model, states, config.optimizer_options())

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    values = np.full(len(results), np.nan)
    with open(out / "landscape.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle", "velocity", "empowerment_nats", "converged"])
        for i, (s, est) in enumerate(results):
            if est is None:
                failures += 1
                writer.writerow([_fmt(s[0]), _fmt(s[1]), "", "false"])
            else:
                values[i] = est.value
                writer.writerow(
                    [
                        _fmt(s[0]),
                        _fmt(s[1]),
                        _fmt(est.value),
                        "true" if est.converged else "false",
                    ]
                )
    grid = values.reshape(config.velocity_count, config.angle_count)
    _write_pgm(out / "landscape.pgm", grid)
    if failures:
        print(f"warning: {failures} grid cells failed to optimize", file=sys.stderr)
    print(f"wrote {out / 'landscape.csv'} and {out / 'landscape.pgm'}")
    return 0


def _median_ms(fn, reps: int = 3):
    times = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return result, float(np.median(times))


def _spearman(x, y) -> float:
    from scipy.stats import spearmanr

    return float(spearmanr(x, y).statistic)


def cmd_compare_oracle(config: RunConfig, n_states: int) -> int:
    if n_states < 2:
        raise ValueError("need at least 2 states to compare")
    model = build_pendulum_dynamics(config.pendulum_params())
    grid = config.grid_states()
    if n_states > len(grid):
        raise ValueError("more states requested than grid cells")
    rng = np.random.default_rng(config.seed)
    idx = rng.choice(len(grid), size=n_states, replace=False)
    states = [grid[i] for i in idx]

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eff_vals, orc_vals, speedups = [], [], []
    with open(out / "compare.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["angle", "velocity", "efficient_nats", "oracle_nats", "efficient_ms", "oracle_ms"]
        )
        for i, s in enumerate(states):
            opts = config.optimizer_options(seed=config.seed + i)
            est, t_eff = _median_ms(lambda: maximize_empowerment(model, s, opts))
            orc, t_orc = _median_ms(
                lambda: oracle_empowerment(
                    model,
                    s,
                    n_actions=config.oracle_actions,
                    bins=config.oracle_bins,
                    action_range=config.oracle_action_range,
                    tol=config.oracle_tol,
                    max_iter=config.oracle_max_iter,
                )
            )
            if orc.converged:
                eff_vals.append(est.value)
                orc_vals.append(orc.capacity)
                speedups.append(t_orc / t_eff)
                writer.writerow(
                    [_fmt(s[0]), _fmt(s[1]), _fmt(est.value), _fmt(orc.capacity),
                     _fmt(t_eff), _fmt(t_orc)]
                )
            else:
                writer.writerow(
                    [_fmt(s[0]), _fmt(s[1]), _fmt(est.value), "", _fmt(t_eff), _fmt(t_orc)]
                )
    if len(orc_vals) >= 2:
        rho = _spearman(eff_vals, orc_vals)
        print(f"spearman_rank_correlation {rho:.4f}")
        print(f"median_speedup {np.median(speedups):.2f}x")
    else:
        print(
            "warning: oracle converged on fewer than 2 states; "
            "no summary statistics",
            file=sys.stderr,
        )
    print(f"wrote {out / 'compare.csv'}")
    return 0


def cmd_rollout(config: RunConfig, start, steps: int) -> int:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    params = config.pendulum_params()
    model = build_pendulum_dynamics(params)
    candidates = [
        np.array([-params.max_torque]),
        np.array([0.0]),
        np.array([params.max_torque]),
    ]
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = PendulumState(start[0], start[1])
    with open(out / "rollout.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "angle", "velocity", "action", "empowerment_nats"])
        for t in range(steps):
            opts = config.optimizer_options(seed=config.seed + t)
            action, value = select_action(
                model, state.as_vector(), candidates, opts
            )
            writer.writerow(
                [t, _fmt(state.angle), _fmt(state.angular_velocity),
                 _fmt(action[0]), _fmt(value)]
            )
            # advance on the deterministic mean dynamics of the model
            y = forward_point(model.net, np.concatenate([state.as_vector(), action]))
            state = PendulumState(y[0], y[1])
    print(f"wrote {out / 'rollout.csv'}")
    return 0


# ---------------------------------------------------------------------------
# selfcheck


def _check_kl_quadrature():
    from scipy.integrate import quad

    rng = np.random.default_rng(1)
    for _ in range(5):
        mp, mq = rng.normal(0, 1, 2)
        sp, sq = rng.uniform(0.5, 2.0, 2)
        p = DiagonalGaussian([mp], [sp**2])
        q = DiagonalGaussian([mq], [sq**2])

        def integrand(x):
            lp = -0.5 * ((x - mp) / sp) ** 2 - np.log(sp)
            lq = -0.5 * ((x - mq) / sq) ** 2 - np.log(sq)
            return np.exp(lp) / np.sqrt(2 * np.pi) * (lp - lq)

        ref = quad(integrand, mp - 12 * sp, mp + 12 * sp, limit=200)[0]
        if abs(kl_diag_gaussian(p, q) - ref) > 1e-6:
            return False
    return True


def _check_ba_bsc():
    ch = DiscreteChannel(np.array([[0.9, 0.1], [0.1, 0.9]]))
    ref = np.log(2) + 0.1 * np.log(0.1) + 0.9 * np.log(0.9)
    return abs(blahut_arimoto(ch).capacity - ref) < 1e-9


def _check_affine_moments():
    rng = np.random.default_rng(2)
    w1, w2 = rng.normal(size=(3, 2)), rng.normal(size=(2, 3))
    net = FeedforwardNet(
        (LayerSpec(w1, rng.normal(size=3)), LayerSpec(w2, rng.normal(size=2)))
    )
    g = DiagonalGaussian(rng.normal(size=2), rng.uniform(0.5, 1.5, 2))
    out = forward_moments(net, g)
    mean_ref = forward_point(net, g.mean)
    var_ref = (w2**2) @ ((w1**2) @ g.variance)
    return np.allclose(out.mean, mean_ref, rtol=1e-12) and np.allclose(
        out.variance, var_ref, rtol=1e-10
    )


def _check_pendulum_equilibria():
    from .pendulum import PendulumParams

    p = PendulumParams()
    up = pendulum_step(PendulumState(0.0, 0.0), 0.0, p)
    down = pendulum_step(PendulumState(np.pi, 0.0), 0.0, p)
    return (
        abs(up.angle) < 1e-12
        and abs(up.angular_velocity) < 1e-12
        and abs(wrap_angle(down.angle - np.pi)) < 1e-9
        and abs(down.angular_velocity) < 1e-9
    )


_CHECKS = [
    ("kl_quadrature_agreement", _check_kl_quadrature),
    ("blahut_arimoto_bsc", _check_ba_bsc),
    ("affine_moment_propagation", _check_affine_moments),
    ("pendulum_equilibria", _check_pendulum_equilibria),
]


def cmd_selfcheck() -> int:
    failed = 0
    for name, fn in _CHECKS:
        try:
            ok = fn()
        except Exception:
            ok = False
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        failed += not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="empkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="path to a flat JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="global seed override")

    p = sub.add_parser("landscape", help="empowerment over a state grid")
    common(p)

    p = sub.add_parser("compare-oracle", help="efficient estimator vs Blahut-Arimoto")
    common(p)
    p.add_argument("--states", type=int, required=True, help="number of states")

    p = sub.add_parser("rollout", help="greedy empowerment-seeking rollout")
    common(p)
    p.add_argument("--start", required=True, help="start state as angle,velocity")
    p.add_argument("--steps", type=int, required=True)

    sub.add_parser("selfcheck", help="fast invariant suite")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selfcheck":
        return cmd_selfcheck()
    try:
        config = load_config(
            args.config, {"out_dir": args.out, "seed": args.seed}
        )
    except (OSError, ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "landscape":
            return cmd_landscape(config)
        if args.command == "compare-oracle":
            return cmd_compare_oracle(config, args.states)
        if args.command == "rollout":
            try:
                start = [float(v) for v in args.start.split(",")]
                if len(start) != 2:
                    raise ValueError
            except ValueError:
                print("configuration error: --start must be angle,velocity",
                      file=sys.stderr)
                return 2
            return cmd_rollout(config, start, args.steps)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
