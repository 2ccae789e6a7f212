"""Command-line driver.

Subcommands:
    empkit landscape      --config <path> [--out <dir>] [--seed <n>]
    empkit compare-oracle --config <path> --states <n> [--out <dir>] [--seed <n>]
    empkit rollout        --config <path> --start <angle,velocity> --steps <n>

Exit codes: 0 success; 1 I/O failure, or an estimate whose every restart
diverged (``landscape`` instead writes such a cell as an empty field);
2 configuration or usage error.  All outputs are deterministic for a fixed
(config, seed).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from .channel import oracle_empowerment
from .config import RunConfig, load_config
from .empowerment import (
    empowerment_landscape,
    maximize_empowerment,
    select_action,
)
from .pendulum import PendulumState, build_pendulum_dynamics


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


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows) -> Path:
    """Write ``header`` and then each row as ``rows`` yields it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def cmd_landscape(config: RunConfig, model, args) -> list:
    states = config.grid_states()
    out = _out_dir(config)
    results = empowerment_landscape(model, states, config.optimizer_options())
    header = ["angle", "velocity", "empowerment_nats", "converged"]
    rows = (
        [_fmt(s[0]), _fmt(s[1]), "" if est is None else _fmt(est.value),
         "true" if est is not None and est.converged else "false"]
        for s, est in results
    )
    path = _write_csv(out / "landscape.csv", header, rows)
    values = np.array([np.nan if est is None else est.value for _, est in results])
    grid = values.reshape(config.velocity_count, config.angle_count)
    _write_pgm(out / "landscape.pgm", grid)
    failures = sum(est is None for _, est in results)
    if failures:
        print(f"warning: {failures} grid cells failed to optimize", file=sys.stderr)
    return [path, out / "landscape.pgm"]


def _median_ms(fn, reps: int = 3):
    times = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return result, float(np.median(times))


def _ranks(v) -> np.ndarray:
    """Ranks 1..n of ``v``; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return (last - 0.5 * (counts - 1))[inverse]


def _spearman(x, y) -> float:
    """Spearman's rho, the Pearson correlation of the ranks; NaN when
    either input is constant."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(_ranks(x), _ranks(y))[0, 1])


def cmd_compare_oracle(config: RunConfig, model, args) -> list:
    if args.states < 2:
        raise ValueError("need at least 2 states to compare")
    grid = config.grid_states()
    if args.states > len(grid):
        raise ValueError("more states requested than grid cells")
    rng = np.random.default_rng(config.seed)
    idx = rng.choice(len(grid), size=args.states, replace=False)
    states = [grid[i] for i in idx]
    out = _out_dir(config)
    eff_vals, orc_vals, speedups = [], [], []

    def rows():
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
            yield [_fmt(s[0]), _fmt(s[1]), _fmt(est.value),
                   _fmt(orc.capacity) if orc.converged else "",
                   _fmt(t_eff), _fmt(t_orc)]

    header = ["angle", "velocity", "efficient_nats", "oracle_nats",
              "efficient_ms", "oracle_ms"]
    path = _write_csv(out / "compare.csv", header, rows())
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
    return [path]


def cmd_rollout(config: RunConfig, model, args) -> list:
    try:
        angle, velocity = map(float, args.start.split(","))
    except ValueError:
        raise ValueError("--start must be angle,velocity") from None
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    state = PendulumState(angle, velocity)
    torque = config.pendulum_params().max_torque
    candidates = [np.array([-torque]), np.array([0.0]), np.array([torque])]
    out = _out_dir(config)

    def rows(state):
        for t in range(args.steps):
            opts = config.optimizer_options(seed=config.seed + t)
            action, value = select_action(model, state.as_vector(), candidates, opts)
            yield [t, _fmt(state.angle), _fmt(state.angular_velocity),
                   _fmt(action[0]), _fmt(value)]
            # advance on the deterministic mean dynamics of the model
            y = model.conditional(state.as_vector(), action).mean
            state = PendulumState(y[0], y[1])

    header = ["t", "angle", "velocity", "action", "empowerment_nats"]
    return [_write_csv(out / "rollout.csv", header, rows(state))]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="empkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--config", default=None, help="path to a flat JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="global seed override")
        return p

    command("landscape", cmd_landscape, "empowerment over a state grid")
    p = command(
        "compare-oracle", cmd_compare_oracle, "efficient estimator vs Blahut-Arimoto"
    )
    p.add_argument("--states", type=int, required=True, help="number of states")
    p = command("rollout", cmd_rollout, "greedy empowerment-seeking rollout")
    p.add_argument("--start", required=True, help="start state as angle,velocity")
    p.add_argument("--steps", type=int, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config, {"out_dir": args.out, "seed": args.seed}
        )
    except (OSError, ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        model = build_pendulum_dynamics(config.pendulum_params())
        written = args.run(config, model, args)
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    print("wrote " + " and ".join(map(str, written)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
