"""Run configuration: one flat JSON document, every key defaulted.

An empty config reproduces the default 41x41 pendulum landscape run.
Unknown keys are rejected so typos fail loudly (exit code 2 at the CLI).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .empowerment import OptimizerOptions
from .nets import _check_int, _check_real
from .pendulum import PendulumParams

__all__ = ["RunConfig", "load_config"]


def _from_fields(cls, config):
    """``cls`` built from the config fields that share its field names."""
    names = [f.name for f in dataclasses.fields(cls) if hasattr(config, f.name)]
    return cls(**{name: getattr(config, name) for name in names})


# pendulum and optimizer defaults are those of PendulumParams and
# OptimizerOptions, so an empty config runs the library defaults
@dataclass(frozen=True)
class RunConfig:
    # pendulum
    mass: float = PendulumParams.mass
    length: float = PendulumParams.length
    gravity: float = PendulumParams.gravity
    friction: float = PendulumParams.friction
    dt: float = PendulumParams.dt
    max_torque: float = PendulumParams.max_torque
    noise_std: tuple = PendulumParams.noise_std
    # landscape grid
    angle_min: float = -math.pi
    angle_max: float = math.pi
    angle_count: int = 41
    velocity_min: float = -8.0
    velocity_max: float = 8.0
    velocity_count: int = 41
    # optimizer
    max_iter: int = OptimizerOptions.max_iter
    grad_tol: float = OptimizerOptions.grad_tol
    restarts: int = OptimizerOptions.restarts
    # oracle discretization
    oracle_actions: int = 64
    oracle_bins: int = 41
    oracle_action_range: float = 4.0
    # Arimoto bound-gap tolerance: the gap shrinks like O(1/iterations), so
    # this directly prices oracle runtime; 1e-3 nats resolves rank order
    oracle_tol: float = 1e-3
    oracle_max_iter: int = 10_000
    # io
    out_dir: str = "out"
    seed: int = OptimizerOptions.seed

    def __post_init__(self):
        # JSON hands over any type; the pendulum and optimizer settings are
        # checked by the constructors they are passed to
        for name in ("angle_min", "angle_max", "velocity_min", "velocity_max"):
            _check_real(name, getattr(self, name), positive=False)
        for lo, hi in (("angle_min", "angle_max"), ("velocity_min", "velocity_max")):
            if not getattr(self, lo) < getattr(self, hi):
                raise ValueError(f"{lo} must be less than {hi}")
        _check_int("angle_count", self.angle_count, minimum=2)
        _check_int("velocity_count", self.velocity_count, minimum=2)
        for name in ("oracle_actions", "oracle_bins", "oracle_max_iter"):
            _check_int(name, getattr(self, name))
        _check_real("oracle_action_range", self.oracle_action_range)
        _check_real("oracle_tol", self.oracle_tol)
        if not isinstance(self.out_dir, str):
            raise ValueError("out_dir must be a string")
        self.pendulum_params()
        self.optimizer_options()
        object.__setattr__(self, "noise_std", tuple(self.noise_std))

    def pendulum_params(self) -> PendulumParams:
        return _from_fields(PendulumParams, self)

    def optimizer_options(self, seed=None) -> OptimizerOptions:
        opts = _from_fields(OptimizerOptions, self)
        return opts if seed is None else dataclasses.replace(opts, seed=seed)

    def angles(self) -> np.ndarray:
        return np.linspace(self.angle_min, self.angle_max, self.angle_count)

    def velocities(self) -> np.ndarray:
        return np.linspace(self.velocity_min, self.velocity_max, self.velocity_count)

    def grid_states(self):
        """Grid cells in output order: velocity-major, angle fastest."""
        return [
            np.array([a, v]) for v in self.velocities() for a in self.angles()
        ]


def load_config(path=None, overrides=None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus overrides."""
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**data)
