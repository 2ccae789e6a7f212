"""Pendulum dynamics, both as a plain step function and as a moment-net model.

Convention: angle 0 is upright (the unstable equilibrium), angles are
wrapped to [-pi, pi) and angular velocity is limited to [-8, 8].  The
plain step uses hard torque clipping and hard wrap/clamp.  The network
variant replaces every hard saturation with a smooth tanh counterpart so
moment propagation applies:

    u        = max_torque * tanh(a)
    angle'   = pi  * tanh(raw_angle / pi)
    velocity = 8   * tanh(raw_velocity / 8)

The two variants agree closely near the origin and are tested as distinct
maps; ``pendulum_step_smooth`` is the analytic form of the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import DynamicsModel, FeedforwardNet, LayerSpec, _as_vector, _check_real

__all__ = [
    "VEL_LIMIT",
    "PendulumParams",
    "PendulumState",
    "wrap_angle",
    "pendulum_step",
    "pendulum_step_smooth",
    "build_pendulum_dynamics",
]

VEL_LIMIT = 8.0


@dataclass(frozen=True)
class PendulumParams:
    mass: float = 1.0
    length: float = 1.0
    gravity: float = 9.81
    friction: float = 0.05
    dt: float = 0.05
    max_torque: float = 2.0
    noise_std: tuple = (0.01, 0.05)

    def __post_init__(self):
        # stored as Python floats, so that a numpy float32 argument does not
        # carry float32 arithmetic into the dynamics net
        for name in ("mass", "length", "gravity", "friction", "dt", "max_torque"):
            _check_real(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        ns = self.noise_std
        if not (isinstance(ns, (tuple, list, np.ndarray)) and len(ns) == 2):
            raise ValueError("noise_std must be two positive finite numbers")
        for i, s in enumerate(ns):
            _check_real(f"noise_std[{i}]", s)
        object.__setattr__(self, "noise_std", tuple(float(s) for s in ns))


def wrap_angle(angle: float) -> float:
    """Wrap to [-pi, pi)."""
    return (angle + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class PendulumState:
    angle: float
    angular_velocity: float

    def __post_init__(self):
        _check_real("angle", self.angle, positive=False)
        _check_real("angular_velocity", self.angular_velocity, positive=False)
        object.__setattr__(self, "angle", wrap_angle(float(self.angle)))
        object.__setattr__(
            self,
            "angular_velocity",
            float(np.clip(self.angular_velocity, -VEL_LIMIT, VEL_LIMIT)),
        )

    def as_vector(self) -> np.ndarray:
        return np.array([self.angle, self.angular_velocity])


def _accel(angle, velocity, torque, p: PendulumParams) -> float:
    ml2 = p.mass * p.length**2
    return (p.gravity / p.length) * np.sin(angle) + torque / ml2 - (
        p.friction / ml2
    ) * velocity


def pendulum_step(s: PendulumState, torque: float, p: PendulumParams) -> PendulumState:
    """One semi-implicit Euler step with hard torque clipping and wrap/clamp."""
    _check_real("torque", torque, positive=False)
    u = float(np.clip(torque, -p.max_torque, p.max_torque))
    vel = s.angular_velocity + p.dt * _accel(s.angle, s.angular_velocity, u, p)
    ang = s.angle + p.dt * vel
    return PendulumState(ang, vel)


def pendulum_step_smooth(state, action: float, p: PendulumParams) -> np.ndarray:
    """Smooth (tanh-saturated) step: the analytic form of the dynamics net.

    ``action`` is the raw network input; the applied torque is
    max_torque * tanh(action).  Returns the next-state mean vector.
    """
    angle, velocity = _as_vector(state, 2, "state")
    _check_real("action", action, positive=False)
    u = p.max_torque * np.tanh(action)
    vel_raw = velocity + p.dt * _accel(angle, velocity, u, p)
    ang_raw = angle + p.dt * vel_raw
    return np.array(
        [np.pi * np.tanh(ang_raw / np.pi), VEL_LIMIT * np.tanh(vel_raw / VEL_LIMIT)]
    )


def build_pendulum_dynamics(p: PendulumParams) -> DynamicsModel:
    """Express the smooth pendulum step exactly as a three-layer net.

    Layer 1 computes the branches (sin(angle), angle, velocity, tanh(action)),
    layer 2 forms the scaled raw next state and saturates it, layer 3
    rescales.  The log-std outputs are constant at ln(noise_std).
    """
    ml2 = p.mass * p.length**2
    alpha = p.gravity / p.length
    gamma = p.friction / ml2
    beta = 1.0 / ml2
    dt = p.dt
    V = VEL_LIMIT

    l1 = LayerSpec(
        np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.zeros(4),
        ("sine", "identity", "identity", "tanh"),
    )
    # rows: angle_raw/pi, velocity_raw/V, log-std angle, log-std velocity
    l2 = LayerSpec(
        np.array(
            [
                [dt**2 * alpha / np.pi, 1.0 / np.pi, (dt - dt**2 * gamma) / np.pi,
                 dt**2 * beta * p.max_torque / np.pi],
                [dt * alpha / V, 0.0, (1.0 - dt * gamma) / V,
                 dt * beta * p.max_torque / V],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        ),
        np.array([0.0, 0.0, np.log(p.noise_std[0]), np.log(p.noise_std[1])]),
        ("tanh", "tanh", "identity", "identity"),
    )
    l3 = LayerSpec(np.diag([np.pi, V, 1.0, 1.0]), np.zeros(4), "identity")
    return DynamicsModel(FeedforwardNet((l1, l2, l3)), state_dim=2, action_dim=1)
