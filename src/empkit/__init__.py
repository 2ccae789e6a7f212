"""Empowerment toolkit: channel capacity of the action-to-next-state channel.

Two routes to the same quantity: an exact Blahut-Arimoto solver on a
discretized channel (the oracle), and a fast estimator built from
closed-form Gaussian KL divergences and moment propagation through a
dynamics network.
"""

from .gaussian import DiagonalGaussian, kl_diag_gaussian, sample
from .nets import (
    ACTIVATION_TAGS,
    DynamicsModel,
    FeedforwardNet,
    LayerSpec,
    forward_moments,
    forward_point,
    net_from_json,
    net_to_json,
)
from .channel import (
    CapacityResult,
    DiscreteChannel,
    blahut_arimoto,
    channel_from_csv,
    channel_to_csv,
    discretize_dynamics,
    oracle_empowerment,
)
from .empowerment import (
    EmpowermentEstimate,
    GaussianPolicy,
    OptimizerOptions,
    empowerment_landscape,
    marginal_transition,
    maximize_empowerment,
    mi_lower_bound,
    mi_lower_bound_with_gradient,
    select_action,
)
from .pendulum import (
    PendulumParams,
    PendulumState,
    build_pendulum_dynamics,
    mechanical_energy,
    pendulum_step,
    pendulum_step_smooth,
    wrap_angle,
)

__version__ = "0.1.0"
