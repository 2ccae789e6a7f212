"""One scalar rule at every API boundary.

Every scalar argument of the public API takes any integer or real number,
numpy scalars included, and rejects a bool, a string, None and a
non-finite value with a ValueError that names the argument.  The test
feeds one scalar through every boundary of its kind and asks that all of
them accept it, or all reject it.
"""

import numpy as np
import pytest

from empkit import (
    DiscreteChannel,
    DynamicsModel,
    FeedforwardNet,
    GaussianPolicy,
    LayerSpec,
    OptimizerOptions,
    PendulumParams,
    PendulumState,
    blahut_arimoto,
    build_pendulum_dynamics,
    mi_lower_bound,
    oracle_empowerment,
    pendulum_step,
)
from empkit.config import RunConfig

PENDULUM = build_pendulum_dynamics(PendulumParams())
SHIFT = DynamicsModel(
    FeedforwardNet((LayerSpec([[1.0, 1.0], [0.0, 0.0]], [0.0, np.log(0.5)]),)),
    state_dim=1,
    action_dim=1,
)
POLICY = GaussianPolicy([0.0], [-1.0])
CHANNEL = DiscreteChannel([[0.5, 0.5], [1.0, 0.0]])


class Evaluated(Exception):
    """Raised by the stubbed ``conditional``: the oracle took its arguments."""


def _kw(fn, name, *args):
    """``v -> fn(*args, name=v)``."""
    return lambda v: fn(*args, **{name: v})


def _oracle(name):
    return _kw(oracle_empowerment, name, PENDULUM, [0.0, 0.0])


def _net(n_in, n_out):
    return FeedforwardNet((LayerSpec(np.zeros((n_out, n_in)), np.zeros(n_out)),))


# kind -> label -> (argument name in the error message, call with the scalar)
BOUNDARIES = {
    "count": {
        **{
            f"OptimizerOptions.{n}": (n, _kw(OptimizerOptions, n))
            for n in ("max_iter", "restarts", "mc_samples", "seed")
        },
        "blahut_arimoto.max_iter": (
            "max_iter",
            _kw(blahut_arimoto, "max_iter", CHANNEL),
        ),
        **{
            f"oracle_empowerment.{n}": (n, _oracle(n))
            for n in ("n_actions", "bins", "max_iter")
        },
        "mi_lower_bound.mc_samples": (
            "mc_samples",
            lambda v: mi_lower_bound(SHIFT, [0.0], POLICY, v, 0),
        ),
        "mi_lower_bound.seed": (
            "seed",
            lambda v: mi_lower_bound(SHIFT, [0.0], POLICY, 8, v),
        ),
        "DynamicsModel.state_dim": (
            "state_dim",
            lambda v: DynamicsModel(_net(4, 6), state_dim=v, action_dim=1),
        ),
        "DynamicsModel.action_dim": (
            "action_dim",
            lambda v: DynamicsModel(_net(4, 2), state_dim=1, action_dim=v),
        ),
        **{
            f"RunConfig.{n}": (n, _kw(RunConfig, n))
            for n in (
                "angle_count",
                "velocity_count",
                "oracle_actions",
                "oracle_bins",
                "oracle_max_iter",
            )
        },
    },
    "positive": {
        "OptimizerOptions.grad_tol": ("grad_tol", _kw(OptimizerOptions, "grad_tol")),
        "blahut_arimoto.tol": ("tol", _kw(blahut_arimoto, "tol", CHANNEL)),
        **{
            f"oracle_empowerment.{n}": (n, _oracle(n))
            for n in ("action_range", "tol")
        },
        **{
            f"PendulumParams.{n}": (n, _kw(PendulumParams, n))
            for n in ("mass", "length", "gravity", "friction", "dt", "max_torque")
        },
        "PendulumParams.noise_std[0]": (
            "noise_std[0]",
            lambda v: PendulumParams(noise_std=(v, 0.05)),
        ),
        "PendulumParams.noise_std[1]": (
            "noise_std[1]",
            lambda v: PendulumParams(noise_std=(0.01, v)),
        ),
        **{
            f"RunConfig.{n}": (n, _kw(RunConfig, n))
            for n in ("oracle_action_range", "oracle_tol")
        },
    },
    "finite": {
        "PendulumState.angle": ("angle", lambda v: PendulumState(v, 0.0)),
        "PendulumState.angular_velocity": (
            "angular_velocity",
            lambda v: PendulumState(0.0, v),
        ),
        "pendulum_step.torque": (
            "torque",
            lambda v: pendulum_step(PendulumState(0.0, 0.0), v, PendulumParams()),
        ),
        **{
            f"RunConfig.{n}": (n, _kw(RunConfig, n))
            for n in ("angle_min", "angle_max", "velocity_min", "velocity_max")
        },
    },
}

# (kind, scalar, accepted)
CASES = [
    ("count", 3, True),
    ("count", np.int64(3), True),
    ("count", True, False),
    ("count", np.True_, False),
    ("count", 3.0, False),
    ("count", 2.5, False),
    ("count", "3", False),
    ("count", None, False),
    ("positive", 1e-3, True),
    ("positive", np.float32(1e-3), True),
    ("positive", 1, True),
    ("positive", 0, False),
    ("positive", -1.0, False),
    ("positive", np.nan, False),
    ("positive", np.inf, False),
    ("positive", True, False),
    ("positive", "1", False),
    ("finite", 0, True),
    ("finite", -1.0, True),
    ("finite", np.float32(0.5), True),
    ("finite", np.int64(-2), True),
    ("finite", np.nan, False),
    ("finite", -np.inf, False),
    ("finite", True, False),
    ("finite", "0", False),
    ("finite", None, False),
]


def outcome(name, call):
    """"accepted", "rejected", or a description of a ValueError that does
    not name the argument; any other exception propagates."""
    try:
        call()
    except Evaluated:
        pass
    except ValueError as exc:
        return "rejected" if name in str(exc) else f"unnamed: {exc}"
    return "accepted"


@pytest.mark.parametrize(
    "kind, value, accepted",
    CASES,
    ids=[f"{kind}-{v!r}" for kind, v, _ in CASES],
)
def test_every_boundary_of_a_kind_agrees(monkeypatch, kind, value, accepted):
    # the oracle stops at its first model evaluation: its argument checks
    # all come before it
    def conditional(*args):
        raise Evaluated

    monkeypatch.setattr(DynamicsModel, "conditional", conditional)
    want = "accepted" if accepted else "rejected"
    got = {
        label: outcome(name, lambda: call(value))
        for label, (name, call) in BOUNDARIES[kind].items()
    }
    assert got == dict.fromkeys(BOUNDARIES[kind], want)


@pytest.mark.parametrize(
    "state_dim, action_dim", [(True, 2), (1.0, 2.0)], ids=["bool", "float"]
)
def test_dynamics_model_dims_must_be_integers(state_dim, action_dim):
    # both sum to the 3-in/2-out net's sizes, so only the type check rejects them
    with pytest.raises(ValueError, match="state_dim must be an integer"):
        DynamicsModel(_net(3, 2), state_dim=state_dim, action_dim=action_dim)
