import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    kl_diag_gaussian,
    marginal_transition,
    maximize_empowerment,
    mi_lower_bound,
    mi_lower_bound_with_gradient,
    oracle_empowerment,
    select_action,
)
import empkit.empowerment
from empkit.empowerment import (
    _ARMIJO,
    _CURVATURE_TOL,
    _GH_NODES,
    _GH_WEIGHTS,
    _MAX_BACKTRACKS,
    LOG_STD_MAX,
    LOG_STD_MIN,
    _START_LOG_STD,
    _ascend,
    _mi_core,
    _nodes,
)
from empkit.nets import VAR_FLOOR


def shift_model(sigma=0.5):
    """1-D dynamics x' = x + a + N(0, sigma^2): the exactly solvable case."""
    layer = LayerSpec([[1.0, 1.0], [0.0, 0.0]], [0.0, np.log(sigma)])
    return DynamicsModel(FeedforwardNet((layer,)), state_dim=1, action_dim=1)


def tanh_model(sigma=0.5):
    """1-D dynamics x' = tanh(a) + N(0, sigma^2): bounded control authority."""
    layer = LayerSpec(
        [[0.0, 1.0], [0.0, 0.0]], [0.0, np.log(sigma)], ("tanh", "identity")
    )
    return DynamicsModel(FeedforwardNet((layer,)), state_dim=1, action_dim=1)


def linear_model(jacobian, noise):
    """x' = x + J a + N(0, diag(noise^2)): a linear channel of any width."""
    J = np.asarray(jacobian, dtype=float)
    d, k = J.shape
    weights = np.zeros((2 * d, d + k))
    weights[:d, :d] = np.eye(d)
    weights[:d, d:] = J
    layer = LayerSpec(weights, np.concatenate([np.zeros(d), np.log(noise)]))
    return DynamicsModel(FeedforwardNet((layer,)), state_dim=d, action_dim=k)


def tensor_gauss_hermite(k, nodes=_GH_NODES, weights=_GH_WEIGHTS):
    """The tensor product of a 1-D rule in k dimensions, built from a
    meshgrid: points (n^k, k) and product weights (n^k,)."""
    x = np.stack(np.meshgrid(*[nodes] * k, indexing="ij"), axis=-1)
    w = np.prod(np.meshgrid(*[weights] * k, indexing="ij"), axis=0)
    return x.reshape(-1, k), w.ravel()


# a two-action linear channel with unequal, mixed-sign gains
TWO_ACTION = ([[1.0, 0.5], [0.3, -0.7]], [0.3, 0.2])

PENDULUM = build_pendulum_dynamics(PendulumParams())
_POLICY = GaussianPolicy([0.0], [-1.0])
_QUICK = OptimizerOptions(restarts=1, max_iter=5)

BAD_STATE = "state must be a finite vector of length 2"

# estimate / binned capacity on the pendulum; the band was fixed before the
# Gauss-Hermite objective's first AC-5 run
ESTIMATE_BAND = (0.95, 1.5)


def assert_within_band_of_oracle(value, state):
    """``value`` / C lies in ESTIMATE_BAND for every C in the oracle's
    Arimoto bracket [capacity, capacity + gap] at AC-5's settings, so for
    the binned capacity itself, which a tighter tol only approaches."""
    res = oracle_empowerment(PENDULUM, state, n_actions=64, bins=41)
    assert res.converged
    lo, hi = ESTIMATE_BAND
    assert lo * (res.capacity + res.gap) <= value <= hi * res.capacity


# every estimator entry point, called with one state of the model
ENTRY_POINTS = {
    "marginal_transition": lambda m, s: marginal_transition(m, s, _POLICY),
    "mi_lower_bound": lambda m, s: mi_lower_bound(m, s, _POLICY, 8, 0),
    "mi_lower_bound_with_gradient": lambda m, s: mi_lower_bound_with_gradient(
        m, s, _POLICY, 8, 0
    ),
    "maximize_empowerment": lambda m, s: maximize_empowerment(m, s, _QUICK),
    "select_action": lambda m, s: select_action(m, s, [[0.0]], _QUICK),
    # the bad state is the landscape's second cell
    "empowerment_landscape": lambda m, s: empowerment_landscape(
        m, [[0.0, 0.0], s], _QUICK
    ),
}


@st.composite
def bad_states(draw, dim=2):
    """A state of the wrong length, or of the right length with a non-finite entry."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 4).filter(lambda n: n != dim))
        return draw(st.lists(st.floats(), min_size=n, max_size=n))
    state = draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim))
    state[draw(st.integers(0, dim - 1))] = draw(
        st.sampled_from([np.nan, np.inf, -np.inf])
    )
    return state


class TestOptimizerOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("grad_tol", np.nan),
            ("grad_tol", np.inf),
            ("grad_tol", 0.0),
            ("grad_tol", -1e-4),
            ("grad_tol", "1e-4"),
            ("grad_tol", True),
            ("max_iter", 2.5),
            ("max_iter", True),
            ("max_iter", 0),
            ("restarts", 2.5),
            ("restarts", 0),
            ("mc_samples", True),
            ("mc_samples", 8.0),
            ("seed", 1.5),
            ("seed", False),
            ("seed", "0"),
            ("seed", -1),
        ],
    )
    def test_bad_value_raises_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerOptions(**{field: value})

    def test_numeric_types_accepted(self):
        opts = OptimizerOptions(max_iter=1, grad_tol=1, restarts=1, mc_samples=1)
        assert opts.grad_tol == 1
        assert OptimizerOptions(grad_tol=np.float64(1e-3)).grad_tol == 1e-3


def returned_projected_grad_norm(model, state, est, opts):
    """Infinity norm of the projected gradient at the policy returned at
    ``opts``.

    The objective draws nothing, so every restart ascends the same one,
    and it must reproduce the returned value exactly at the returned
    policy; log-std components pushing against an active clamp are zeroed.
    """
    value, gmean, glog = mi_lower_bound_with_gradient(
        model, state, est.policy, opts.mc_samples, opts.seed
    )
    assert value == est.value
    log_std = est.policy.action_log_std
    held = ((log_std <= LOG_STD_MIN) & (glog < 0)) | (
        (log_std >= LOG_STD_MAX) & (glog > 0)
    )
    return np.max(np.abs(np.concatenate([gmean, np.where(held, 0.0, glog)])))


class TestGaussianPolicy:
    def test_log_std_clamped(self):
        pol = GaussianPolicy([0.0], [10.0])
        assert pol.action_log_std[0] == LOG_STD_MAX
        pol = GaussianPolicy([0.0], [-10.0])
        assert pol.action_log_std[0] == LOG_STD_MIN

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianPolicy([0.0, 1.0], [0.0])

    def test_caller_arrays_stay_writable_and_detached(self):
        mean, log_std = np.array([0.5]), np.array([-1.0])
        pol = GaussianPolicy(mean, log_std)
        mean[0], log_std[0] = 2.0, 1.0
        np.testing.assert_array_equal(pol.action_mean, [0.5])
        np.testing.assert_array_equal(pol.action_log_std, [-1.0])
        with pytest.raises(ValueError):
            pol.action_mean[0] = 2.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GaussianPolicy([np.inf], [0.0])


class TestMarginalTransition:
    def test_linear_gaussian_convolution_exact(self):
        sigma = 0.5
        model = shift_model(sigma)
        pol = GaussianPolicy([0.7], [np.log(0.3)])
        g = marginal_transition(model, [1.2], pol)
        assert g.mean[0] == pytest.approx(1.2 + 0.7, abs=1e-12)
        assert g.variance[0] == pytest.approx(0.3**2 + sigma**2, rel=1e-9)

    def test_narrow_policy_recovers_conditional(self):
        model = build_pendulum_dynamics(PendulumParams())
        state = [0.4, -1.0]
        pol = GaussianPolicy([0.8], [LOG_STD_MIN])
        marg = marginal_transition(model, state, pol)
        cond = model.conditional(state, [0.8])
        assert kl_diag_gaussian(cond, marg) < 1e-3

    @staticmethod
    def monte_carlo_marginal(model, state, std):
        """Mean and variance of p(x'|x) under N(0, std^2) actions, from
        200,000 draws and one batched ``model.conditional`` call."""
        rng = np.random.default_rng(0)
        actions = std * rng.standard_normal(200_000)
        g = model.conditional(state, actions[:, None])
        return g.mean.mean(axis=0), g.mean.var(axis=0) + g.variance.mean(axis=0)

    def test_pendulum_marginal_matches_monte_carlo_small_std(self):
        model = build_pendulum_dynamics(PendulumParams())
        state = np.array([0.0, 0.0])
        std = 0.1
        pol = GaussianPolicy([0.0], [np.log(std)])
        marg = marginal_transition(model, state, pol)
        mc_mean, mc_var = self.monte_carlo_marginal(model, state, std)
        np.testing.assert_allclose(marg.mean, mc_mean, atol=2e-3)
        np.testing.assert_allclose(marg.variance, mc_var, rtol=0.10)

    def test_pendulum_marginal_matches_monte_carlo_unit_std(self):
        # at std 1 the torque unit's tanh bends over the action's spread: a
        # marginal that evaluates tanh' at the mean misses the variance by
        # far more than 1%, the node mixture's moments do not
        model = build_pendulum_dynamics(PendulumParams())
        state = np.array([0.0, 0.0])
        marg = marginal_transition(model, state, GaussianPolicy([0.0], [0.0]))
        mc_mean, mc_var = self.monte_carlo_marginal(model, state, 1.0)
        np.testing.assert_allclose(marg.mean, mc_mean, atol=2e-3)
        np.testing.assert_allclose(marg.variance, mc_var, rtol=1e-2)

    def test_multi_dimensional_action_uses_the_tensor_nodes(self):
        # for k = 2 the marginal is the mixture of the conditionals at the
        # 20 x 20 tensor Gauss-Hermite nodes with product weights: the q
        # that mi_lower_bound forms, as its value shows
        model = mixed_tag_model()
        state = np.array([0.3, -0.4])
        pol = GaussianPolicy([0.2, -0.5], [-0.3, 0.1])
        x, weights = tensor_gauss_hermite(2)
        nodes = model.conditional(
            state, pol.action_mean + np.exp(pol.action_log_std) * x
        )
        mean = weights @ nodes.mean
        var = weights @ (nodes.variance + (nodes.mean - mean) ** 2)
        marg = marginal_transition(model, state, pol)
        np.testing.assert_allclose(marg.mean, mean, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(marg.variance, var, rtol=1e-12)
        expected = sum(
            w * kl_diag_gaussian(DiagonalGaussian(m, v), marg)
            for w, m, v in zip(weights, nodes.mean, nodes.variance)
        )
        value = mi_lower_bound(model, state, pol, 32, 0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = shift_model()
        with pytest.raises(ValueError):
            marginal_transition(model, [0.0, 0.0], GaussianPolicy([0.0], [0.0]))


class TestMiLowerBound:
    def test_vanishing_policy_spread_gives_vanishing_mi(self):
        model = shift_model(0.5)
        pol = GaussianPolicy([0.3], [LOG_STD_MIN])
        mi = mi_lower_bound(model, [0.0], pol, mc_samples=64, seed=0)
        assert 0.0 <= mi < 1e-3

    def test_deterministic_per_seed(self):
        model = build_pendulum_dynamics(PendulumParams())
        pol = GaussianPolicy([0.2], [0.0])
        a = mi_lower_bound(model, [0.5, 1.0], pol, mc_samples=32, seed=7)
        b = mi_lower_bound(model, [0.5, 1.0], pol, mc_samples=32, seed=7)
        assert a == b

    def test_nonnegative_on_random_policies(self):
        model = build_pendulum_dynamics(PendulumParams())
        rng = np.random.default_rng(1)
        for _ in range(25):
            state = rng.uniform([-np.pi, -8.0], [np.pi, 8.0])
            pol = GaussianPolicy(rng.normal(size=1), rng.uniform(-3, 1, 1))
            mi = mi_lower_bound(model, state, pol, mc_samples=16,
                                seed=int(rng.integers(1 << 30)))
            assert mi >= -1e-12

    def test_linear_channel_matches_closed_form(self):
        # x' = x + J a + N(0, diag n^2) with a ~ N(mu, diag s^2): the exact
        # marginal has variances n_d^2 + sum_j J_dj^2 s_j^2, and with a
        # diagonal q the objective is sum_d 0.5 ln(1 + sum_j J_dj^2 s_j^2 / n_d^2);
        # for J = 1 (the shift channel) that is the MI 0.5 ln(1 + s^2 / n^2).
        # The conditional means are linear in the action, so a tensor rule
        # of 2 or more points per dimension is exact: k = 3 and 4 take the
        # 7- and 4-point rules
        cases = [([[1.0]], [0.5], [0.4], [0.8])] + [
            (*TWO_ACTION, [0.4, -0.2], std)
            for std in ([0.3, 0.3], [1.0, 0.8], [3.0, 2.0])
        ]
        cases += [
            ([[1.0, 0.5, -0.2], [0.3, -0.7, 0.4]], [0.3, 0.2], [0.1, 0.0, -0.3],
             [1.0, 0.8, 0.5]),
            ([[0.2, -1.0, 0.6, 0.3], [0.9, 0.1, -0.4, 0.5]], [0.4, 0.1],
             [0.0, 0.2, -0.1, 0.5], [0.6, 1.5, 0.9, 0.3]),
        ]
        for jacobian, noise, mean, std in cases:
            model = linear_model(jacobian, noise)
            pol = GaussianPolicy(mean, np.log(std))
            state = np.zeros(len(noise))
            mi = mi_lower_bound(model, state, pol, mc_samples=32, seed=3)
            spread = np.asarray(jacobian) ** 2 @ np.square(std)
            expected = 0.5 * np.log1p(spread / np.square(noise)).sum()
            assert mi == pytest.approx(expected, rel=1e-12)

    def test_invalid_mc_samples(self):
        model = shift_model()
        for objective in (mi_lower_bound, mi_lower_bound_with_gradient):
            with pytest.raises(ValueError):
                objective(model, [0.0], GaussianPolicy([0.0], [0.0]), 0, 0)

    @pytest.mark.parametrize("case", ["shift", "mixed"])
    def test_sampling_arguments_have_no_effect(self, case):
        # the objective draws nothing for any k: one sample and seed 0 give
        # the bits of 32 samples and seed 7, and an estimate accepts one
        model = shift_model() if case == "shift" else mixed_tag_model("tanh")
        k = model.action_dim
        state = np.full(model.state_dim, 0.2)
        pol = GaussianPolicy(np.full(k, 0.3), np.full(k, -0.5))
        assert mi_lower_bound(model, state, pol, 1, 0) == mi_lower_bound(
            model, state, pol, 32, 7
        )
        one = mi_lower_bound_with_gradient(model, state, pol, 1, 0)
        many = mi_lower_bound_with_gradient(model, state, pol, 32, 7)
        for got, want in zip(one, many):
            np.testing.assert_array_equal(got, want)
        est = maximize_empowerment(model, state, OptimizerOptions(mc_samples=1))
        assert est.value > 0.0
        assert est.value == maximize_empowerment(model, state, OptimizerOptions()).value

    @pytest.mark.parametrize(
        "objective", [mi_lower_bound, mi_lower_bound_with_gradient]
    )
    @pytest.mark.parametrize(
        "mc_samples, seed, match",
        [
            (2.5, 0, "mc_samples must be an integer"),
            (True, 0, "mc_samples must be an integer"),
            (8, 1.5, "seed must be an integer"),
            (8, "0", "seed must be an integer"),
            (8, -1, "seed must be >= 0"),
        ],
        ids=["mc_fraction", "mc_bool", "seed_fraction", "seed_str", "seed_negative"],
    )
    def test_bad_scalar_raises_value_error(self, objective, mc_samples, seed, match):
        policy = GaussianPolicy([0.0], [0.0])
        with pytest.raises(ValueError, match=match):
            objective(shift_model(), [0.0], policy, mc_samples, seed)

    @pytest.mark.parametrize("case", ["shift", "pendulum", "mixed"])
    def test_equals_mean_kl_of_conditionals_to_marginal(self, case):
        # the objective's node pass against its definition: conditionals
        # from point evaluation at the policy's node actions, the marginal
        # as their mixture's mean and variance, and the node-weighted mean
        # KL.  The nodes are the tensor Gauss-Hermite points (20 for k = 1,
        # 20 x 20 for k = 2), the marginal is ``marginal_transition``'s and
        # the sampling arguments have no effect
        if case == "shift":
            model = shift_model(0.5)
            state = np.array([0.3])
        elif case == "pendulum":
            model = build_pendulum_dynamics(PendulumParams())
            state = np.array([0.7, -2.0])
        else:
            model = mixed_tag_model()
            state = np.array([0.3, -0.4])
        k = model.action_dim
        rng = np.random.default_rng(12)
        for seed in range(4):
            pol = GaussianPolicy(rng.normal(size=k), rng.uniform(-2.0, 0.5, k))
            x, weights = tensor_gauss_hermite(k)
            actions = pol.action_mean + np.exp(pol.action_log_std) * x
            nodes = model.conditional(state, actions)
            mean = weights @ nodes.mean
            var = weights @ (nodes.variance + (nodes.mean - mean) ** 2)
            marg = marginal_transition(model, state, pol)
            np.testing.assert_allclose(marg.mean, mean, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(marg.variance, var, rtol=1e-12)
            expected = sum(
                w * kl_diag_gaussian(DiagonalGaussian(m, v), marg)
                for w, m, v in zip(weights, nodes.mean, nodes.variance)
            )
            value = mi_lower_bound(model, state, pol, mc_samples=16, seed=seed)
            assert value == pytest.approx(expected, rel=1e-12)
            assert mi_lower_bound(model, state, pol, 3, seed + 100) == value

    @pytest.mark.parametrize(
        "mean, log_std", [(0.0, -3.0), (0.4, np.log(0.8)), (-2.0, 0.0), (1.5, 2.0)]
    )
    def test_shift_channel_exact(self, mean, log_std):
        # x' = x + a + N(0, n^2) with a ~ N(mu, s^2): the node mixture has the
        # exact marginal N(x + mu, s^2 + n^2), and the outer expectation is a
        # quadratic in a, so any K >= 2 gives 0.5 ln(1 + s^2 / n^2) exactly
        noise = 0.5
        model = shift_model(noise)
        pol = GaussianPolicy([mean], [log_std])
        value, gmean, _ = mi_lower_bound_with_gradient(model, [0.2], pol, 1, 0)
        expected = 0.5 * np.log1p(np.exp(2.0 * log_std) / noise**2)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert gmean[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "k, points", [(1, 20), (2, 20), (3, 7), (4, 4), (5, 3), (8, 2), (9, 2)]
    )
    def test_tensor_rule_points_per_dimension(self, k, points):
        # 20 points per dimension while 20^k <= 400, else the most with
        # points^k <= 400, and never fewer than 2
        x, w = _nodes(k)
        assert x.shape == (points**k, k) and w.shape == (points**k, 1)
        assert w.sum() == pytest.approx(1.0, rel=1e-14)
        for column in x.T:
            assert np.unique(column).size == points
        if k == 1:
            np.testing.assert_array_equal(x[:, 0], _GH_NODES)
            np.testing.assert_array_equal(w[:, 0], _GH_WEIGHTS)

    def test_gauss_hermite_rule_matches_numpy(self):
        # the stored rule is numpy's probabilists' Gauss-Hermite rule of 20
        # points with its weights normalised to sum to 1
        nodes, weights = np.polynomial.hermite_e.hermegauss(20)
        np.testing.assert_allclose(_GH_NODES, nodes, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(
            _GH_WEIGHTS, weights / weights.sum(), rtol=1e-14, atol=1e-14
        )


class TestGradient:
    @pytest.mark.parametrize("case", ["shift", "pendulum", "floored", "mixed"])
    def test_matches_central_finite_differences(self, case):
        offset = 0.0
        if case == "shift":
            model = shift_model(0.5)
            state = np.array([0.3])
        elif case == "pendulum":
            model = build_pendulum_dynamics(PendulumParams())
            state = np.array([0.7, -2.0])
        elif case == "mixed":
            # k = 2: the 20 x 20 tensor Gauss-Hermite nodes
            model = mixed_tag_model()
            state = np.array([0.3, -0.4])
        else:
            # saturated tanh, where the delta rule of ``forward_moments``
            # floors the action unit's variance at VAR_FLOOR and with model
            # noise 1e-8 the floor is half its marginal variance; the
            # objective reads only the node conditionals, whose spread and
            # gradient here come from tanh's tails
            model = tanh_model(1e-4)
            state = np.array([0.0])
            offset = 8.0
        k = model.action_dim
        rng = np.random.default_rng(5)
        for _ in range(5):
            mean = offset + rng.normal(size=k)
            log_std = rng.uniform(-2.0, 0.5, k)
            pol = GaussianPolicy(mean, log_std)
            if case == "floored":
                g = DiagonalGaussian(
                    np.concatenate([state, mean]), [0.0, np.exp(2.0 * log_std[0])]
                )
                assert forward_moments(model.net, g).variance[0] == VAR_FLOOR
            value, gmean, glog = mi_lower_bound_with_gradient(
                model, state, pol, mc_samples=16, seed=11
            )
            h = 1e-6
            for i, step in enumerate(h * np.eye(k)):
                for which, analytic in (("mean", gmean[i]), ("log_std", glog[i])):
                    if which == "mean":
                        plus = GaussianPolicy(mean + step, log_std)
                        minus = GaussianPolicy(mean - step, log_std)
                    else:
                        plus = GaussianPolicy(mean, log_std + step)
                        minus = GaussianPolicy(mean, log_std - step)
                    fd = (
                        mi_lower_bound(model, state, plus, 16, 11)
                        - mi_lower_bound(model, state, minus, 16, 11)
                    ) / (2 * h)
                    assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestInputValidation:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "state",
        [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0], [0.0], [0.0, 0.0, 0.0]],
        ids=["nan", "inf", "-inf", "short", "long"],
    )
    def test_bad_state_raises_value_error(self, entry, state):
        with pytest.raises(ValueError, match=BAD_STATE):
            ENTRY_POINTS[entry](PENDULUM, state)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(state=bad_states(), entry=st.sampled_from(sorted(ENTRY_POINTS)))
    def test_any_bad_state_raises_value_error(self, state, entry):
        with pytest.raises(ValueError, match=BAD_STATE):
            ENTRY_POINTS[entry](PENDULUM, state)

    @pytest.mark.parametrize(
        "candidate", [[np.nan], [np.inf], [0.0, 0.0]], ids=["nan", "inf", "long"]
    )
    def test_bad_candidate_raises_value_error(self, candidate):
        with pytest.raises(ValueError, match="candidate action must be a finite"):
            select_action(PENDULUM, [0.0, 0.0], [[0.0], candidate], _QUICK)

    @pytest.mark.parametrize(
        "objective", [mi_lower_bound, mi_lower_bound_with_gradient]
    )
    def test_policy_dimension_checked(self, objective):
        pol = GaussianPolicy([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="policy must have dimension 1"):
            objective(PENDULUM, [0.0, 0.0], pol, 8, 0)


def poison_kick(monkeypatch, seed):
    """Make the generator of ``seed`` draw NaN: the restart that seed kicks
    starts from a NaN mean, so its objective is non-finite at once."""
    default_rng = np.random.default_rng

    class NaNGenerator:
        def standard_normal(self, size):
            return np.full(size, np.nan)

    def poisoned(s):
        return NaNGenerator() if s == seed else default_rng(s)

    monkeypatch.setattr(np.random, "default_rng", poisoned)


class TestMaximizeEmpowerment:
    @pytest.mark.parametrize(
        "state, expected, iterations",
        [
            ([0.0, 0.0], 0.9101089510638385, 1),
            ([np.pi, 0.0], 0.8210785968535399, 1),
            ([1.0, -2.0], 0.8636692916526556, 1),
        ],
    )
    def test_reference_values_pinned(self, state, expected, iterations):
        # pins the objective (Gauss-Hermite nodes and their mixture's
        # moments) and the ascent: a change to either moves these values
        # far more than the tolerance.  Each lies within ESTIMATE_BAND of
        # the binned capacity, wherever in the oracle's bracket that is
        est = maximize_empowerment(PENDULUM, state, OptimizerOptions(seed=0))
        assert est.value == pytest.approx(expected, rel=1e-12)
        assert est.converged
        assert est.iterations == iterations
        assert_within_band_of_oracle(est.value, state)
        # plain Python scalars, not numpy ones taken from the objective's arrays
        assert type(est.value) is float
        assert type(est.converged) is bool
        assert type(est.iterations) is int
        assert type(est.restarts_failed) is int

    def test_deterministic(self):
        model = build_pendulum_dynamics(PendulumParams())
        opts = OptimizerOptions(seed=4)
        a = maximize_empowerment(model, [1.0, 2.0], opts)
        b = maximize_empowerment(model, [1.0, 2.0], opts)
        assert a.value == b.value
        np.testing.assert_array_equal(a.policy.action_mean, b.policy.action_mean)
        np.testing.assert_array_equal(
            a.policy.action_log_std, b.policy.action_log_std
        )

    def test_value_nonnegative_and_converged_at_easy_state(self):
        model = build_pendulum_dynamics(PendulumParams())
        est = maximize_empowerment(model, [0.0, 0.0], OptimizerOptions())
        assert est.value >= 0.0
        assert est.converged

    def test_more_restarts_never_worse(self):
        model = build_pendulum_dynamics(PendulumParams())
        state = [2.5, -4.0]
        one = maximize_empowerment(
            model, state, OptimizerOptions(restarts=1, seed=9)
        )
        four = maximize_empowerment(
            model, state, OptimizerOptions(restarts=4, seed=9)
        )
        assert four.value >= one.value - 1e-12

    def test_more_restarts_reach_a_higher_basin(self):
        # on the pendulum restarts > 1 move values by at most ~1e-6 nats; on
        # this random net of sine and tanh units the objective has several
        # basins in the action mean, and the start at mean 0 climbs a low one
        rng = np.random.default_rng(9)
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
        model = DynamicsModel(FeedforwardNet((hidden, out)), 2, 1)
        one = maximize_empowerment(model, [0.3, -0.4], OptimizerOptions())
        four = maximize_empowerment(model, [0.3, -0.4], OptimizerOptions(restarts=4))
        assert one.converged and four.converged
        assert one.value == pytest.approx(3.533, abs=1e-3)
        assert four.value == pytest.approx(3.707, abs=1e-3)

    @pytest.mark.xfail(
        strict=True,
        reason="the ascent now leaves the start and converges at the "
        "log-std clamp, ~2.83 nats, while the oracle reads ~0.74: the two "
        "routes maximize over different input sets (the oracle's actions "
        "lie in [-4, 4], the Gaussian policy's are unbounded) and the "
        "Gaussian q over-reports its own policy's information (~0.56)",
    )
    def test_saturated_start_ascends(self):
        # x' = tanh(5 + a) + N(0, 0.05^2): the nodes of the start N(0, e^2)
        # reach past tanh's saturated tail, so the ascent leaves the start
        layer = LayerSpec(
            [[0.0, 1.0], [0.0, 0.0]], [5.0, np.log(0.05)], ("tanh", "identity")
        )
        model = DynamicsModel(FeedforwardNet((layer,)), state_dim=1, action_dim=1)
        est = maximize_empowerment(model, [0.0], OptimizerOptions())
        assert est.converged
        cap = oracle_empowerment(model, [0.0], tol=1e-6).capacity
        assert est.value == pytest.approx(cap, rel=0.5)

    def test_linear_channel_saturates_log_std_clamp(self):
        # on x' = x + a + noise the MI grows with the action spread, so the
        # optimum sits at the upper log-std clamp with a known value
        sigma = 0.5
        model = shift_model(sigma)
        est = maximize_empowerment(
            model, [0.0], OptimizerOptions(max_iter=400, seed=2)
        )
        assert est.policy.action_log_std[0] == pytest.approx(LOG_STD_MAX, abs=1e-6)
        expected = 0.5 * np.log(1.0 + np.exp(2 * LOG_STD_MAX) / sigma**2)
        assert est.value == pytest.approx(expected, rel=0.05)

    def test_tanh_clipped_channel_saturates_clamp(self):
        # x' = tanh(a) + noise: spreading the action still helps, so the
        # optimizer runs the log-std into the upper clamp
        model = tanh_model(0.5)
        est = maximize_empowerment(
            model, [0.0], OptimizerOptions(max_iter=400, seed=1)
        )
        assert est.policy.action_log_std[0] == pytest.approx(LOG_STD_MAX, abs=1e-6)

    @pytest.mark.xfail(
        strict=True,
        reason="at the optimum the action's std is e^2, so the true marginal "
        "is bimodal, with its mass piled near tanh = +-1, and no Gaussian q "
        "fits it: the estimate is ~1.23x the discretized capacity, outside 10%",
    )
    def test_tanh_clipped_channel_within_ten_percent_of_oracle(self):
        model = tanh_model(0.5)
        est = maximize_empowerment(
            model, [0.0], OptimizerOptions(max_iter=400, seed=1)
        )
        cap = oracle_empowerment(model, [0.0], n_actions=64).capacity
        assert est.value == pytest.approx(cap, rel=0.10)

    def test_ac5_estimates_within_band_of_oracle(self):
        # the delta rule read 4.7-5.7x the capacity on these states
        for i, state in enumerate(AC5_STATES):
            est = maximize_empowerment(PENDULUM, state, OptimizerOptions(seed=i))
            assert_within_band_of_oracle(est.value, state)

    def test_improves_on_initial_policy(self):
        model = build_pendulum_dynamics(PendulumParams())
        state = [0.3, 1.0]
        opts = OptimizerOptions(seed=6)
        est = maximize_empowerment(model, state, opts)
        start = GaussianPolicy([0.0], [_START_LOG_STD])
        init = mi_lower_bound(model, state, start, opts.mc_samples, opts.seed)
        assert est.value >= init

    @pytest.mark.parametrize(
        "case, state",
        [
            ("pendulum", [0.0, 0.0]),
            ("pendulum", [np.pi, 0.0]),
            ("pendulum", [1.0, -2.0]),
            ("pendulum", [-np.pi, -8.0]),
            ("shift", [0.0]),
            ("tanh", [0.0]),
        ],
    )
    def test_converged_means_small_projected_gradient(self, case, state):
        model = {
            "pendulum": lambda: build_pendulum_dynamics(PendulumParams()),
            "shift": shift_model,
            "tanh": tanh_model,
        }[case]()
        opts = OptimizerOptions(seed=3)
        est = maximize_empowerment(model, state, opts)
        assert est.converged and est.value > 0.0
        assert returned_projected_grad_norm(model, state, est, opts) < opts.grad_tol

    @pytest.mark.parametrize("max_iter", [1, 200])
    @pytest.mark.parametrize("state", [[0.0, 0.0], [np.pi, 0.0], [-2.0, 5.0]])
    def test_grad_norm_is_projected_gradient_at_returned_policy(self, state, max_iter):
        opts = OptimizerOptions(max_iter=max_iter, seed=11)
        est = maximize_empowerment(PENDULUM, state, opts)
        assert type(est.grad_norm) is float
        assert est.converged == (est.grad_norm < opts.grad_tol)
        assert est.grad_norm == returned_projected_grad_norm(
            PENDULUM, state, est, opts
        )

    def test_all_restarts_non_finite_raises(self):
        # log-std output of 1e300: the noise variance overflows to inf and
        # the objective is NaN at every restart's first iterate
        layer = LayerSpec([[1.0, 1.0], [0.0, 0.0]], [0.0, 1e300])
        model = DynamicsModel(FeedforwardNet((layer,)), 1, 1)
        with pytest.raises(RuntimeError, match="all 4 restarts diverged"):
            maximize_empowerment(model, [0.0], OptimizerOptions(restarts=4))

    def test_failed_restart_leaves_the_others_unchanged(self, monkeypatch):
        # a NaN kick for restart 3 makes its objective non-finite at its
        # first trial point; the node set draws nothing, so the other
        # restarts are the clean run's
        cases = [(PENDULUM, [1.0, -2.0]), (mixed_tag_model("tanh"), [0.3, -0.4])]
        opts = OptimizerOptions(restarts=4, seed=7)
        clean_runs = [maximize_empowerment(m, s, opts) for m, s in cases]
        assert [c.restarts_failed for c in clean_runs] == [0, 0]
        poison_kick(monkeypatch, opts.seed + 3)
        for (model, state), clean in zip(cases, clean_runs):
            est = maximize_empowerment(model, state, opts)
            assert est.restarts_failed == 1
            winner = mi_lower_bound(model, state, est.policy, 32, opts.seed)
            assert winner == est.value
            assert est.value == clean.value
            np.testing.assert_array_equal(
                est.policy.action_mean, clean.policy.action_mean
            )
            np.testing.assert_array_equal(
                est.policy.action_log_std, clean.policy.action_log_std
            )
            assert (est.iterations, est.converged) == (
                clean.iterations,
                clean.converged,
            )

    def test_state_dimension_checked(self):
        model = shift_model()
        with pytest.raises(ValueError):
            maximize_empowerment(model, [0.0, 0.0], OptimizerOptions())


def mixed_tag_model(log_std_tag="identity"):
    """2-D state and action; a tag recurs after another within a layer.

    ``log_std_tag`` tags the second log-std output.  Through ``identity``
    it is unbounded in the action, so the noise vanishes far out and the
    capacity has no bound; ``tanh`` keeps that log-std within (-1, 1) and
    the capacity bounded.
    """
    rng = np.random.default_rng(8)
    l1 = LayerSpec(
        rng.normal(size=(5, 4)),
        rng.normal(size=5),
        ("tanh", "sine", "tanh", "identity", "sine"),
    )
    l2 = LayerSpec(
        0.3 * rng.normal(size=(4, 5)),
        rng.normal(size=4),
        ("identity", "sine", "tanh", log_std_tag),
    )
    return DynamicsModel(FeedforwardNet((l1, l2)), state_dim=2, action_dim=2)


class TestBoundedTwoActionChannel:
    """The k > 1 estimator on a nonlinear channel of bounded capacity."""

    @pytest.mark.parametrize("seed", range(20))
    def test_converges_at_its_objective_value(self, seed):
        # the identity-tagged net runs away to ~59 nats unconverged on half
        # of these seeds; bounded noise gives every ascent a maximum.  The
        # seed places restart 1's kick (restart 0 starts at the same point
        # on every seed), so each seed runs a distinct second ascent
        model, state = mixed_tag_model("tanh"), [0.3, -0.4]
        opts = OptimizerOptions(restarts=2, seed=seed)
        est = maximize_empowerment(model, state, opts)
        assert est.converged
        assert est.value == mi_lower_bound(
            model, state, est.policy, opts.mc_samples, opts.seed
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_every_restart_ascends_the_same_objective(self, seed):
        # every restart ascends the one node set, so the best of three
        # restarts is compared on one function and its value is the
        # objective of its policy
        model, state = mixed_tag_model("tanh"), [0.3, -0.4]
        opts = OptimizerOptions(restarts=3, seed=seed)
        est = maximize_empowerment(model, state, opts)
        assert est.value == mi_lower_bound(
            model, state, est.policy, opts.mc_samples, opts.seed
        )


    def test_tensor_rule_matches_a_60_point_reference(self):
        # bounds fixed before the rule's first run; the 32 eps rows it
        # replaced read 21% median and 38% max relative error here
        model, state = mixed_tag_model("tanh"), np.array([0.3, -0.4])
        x1, w1 = np.polynomial.hermite_e.hermegauss(60)
        x, w = tensor_gauss_hermite(2, x1, w1 / w1.sum())
        rng = np.random.default_rng(0)
        errors = []
        for _ in range(20):
            mean, log_std = rng.normal(size=2), rng.uniform(-2.0, 1.0, 2)
            pol = GaussianPolicy(mean, log_std)
            value = mi_lower_bound(model, state, pol, 32, 0)
            exact = _mi_core(model, state, mean, log_std, (x, w[:, None]), False)[0]
            errors.append(abs(value / exact - 1.0))
        assert np.median(errors) <= 1e-3
        assert max(errors) <= 5e-2

    def test_one_restart_does_not_depend_on_the_seed(self):
        # restart 0 draws no kick and the objective draws nothing
        model, state = mixed_tag_model("tanh"), [0.3, -0.4]
        runs = [
            maximize_empowerment(model, state, OptimizerOptions(restarts=1, seed=s))
            for s in range(10)
        ]
        for est in runs[1:]:
            assert est.value == runs[0].value
            np.testing.assert_array_equal(
                est.policy.action_mean, runs[0].policy.action_mean
            )
            np.testing.assert_array_equal(
                est.policy.action_log_std, runs[0].policy.action_log_std
            )


def node_inputs(model, n=15, seed=0):
    rng = np.random.default_rng(seed)
    state = rng.uniform(-2.0, 2.0, model.state_dim)
    actions = rng.normal(0.0, 1.5, (n, model.action_dim))
    return state, actions


class TestNodePass:
    """``DynamicsModel._node_pass`` and ``_node_reverse``: the one place the
    net's input and output layout meets the estimator."""

    @pytest.mark.parametrize("case", ["pendulum", "mixed"])
    def test_rows_match_conditional(self, case):
        # not bit-equal: the node pass takes one matrix product for all
        # rows, and ``conditional`` takes one per row
        model = PENDULUM if case == "pendulum" else mixed_tag_model()
        state, actions = node_inputs(model)
        mp, vp, _ = model._node_pass(state, actions)
        want = model.conditional(state, actions)
        np.testing.assert_allclose(mp, want.mean, rtol=1e-12)
        np.testing.assert_allclose(vp, want.variance, rtol=1e-12)

    @pytest.mark.parametrize("case", ["pendulum", "mixed"])
    def test_reverse_matches_finite_differences(self, case):
        # the reverse step of a fixed linear functional of the two outputs,
        # against central differences in each action row
        model = PENDULUM if case == "pendulum" else mixed_tag_model()
        state, actions = node_inputs(model, seed=1)
        rng = np.random.default_rng(2)
        outs = model._node_pass(state, actions)
        weights = [rng.normal(size=o.shape) for o in outs[:2]]

        def functional(actions):
            outs = model._node_pass(state, actions)
            return sum((w * o).sum() for w, o in zip(weights, outs))

        grad = model._node_reverse(outs[2], *weights)
        h = 1e-6
        fd = np.empty_like(actions)
        for idx in np.ndindex(actions.shape):
            up, down = actions.copy(), actions.copy()
            up[idx] += h
            down[idx] -= h
            fd[idx] = (functional(up) - functional(down)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("case", ["pendulum", "mixed"])
    def test_leading_axes_match_separate_calls(self, case):
        # an (L, n, k) stack of action rows gives, in each of its L slices,
        # the bits of that slice's own (n, k) pass and reverse step
        model = PENDULUM if case == "pendulum" else mixed_tag_model()
        state, actions = node_inputs(model, n=4 * 6, seed=3)
        stack = actions.reshape(4, 6, model.action_dim)
        rng = np.random.default_rng(4)
        gmp, gvp = rng.normal(size=(2, 4, 6, model.state_dim))
        mp, vp, tape = model._node_pass(state, stack)
        grad = model._node_reverse(tape, gmp, gvp)
        for i, rows in enumerate(stack):
            one_mp, one_vp, one_tape = model._node_pass(state, rows)
            np.testing.assert_array_equal(mp[i], one_mp)
            np.testing.assert_array_equal(vp[i], one_vp)
            one_grad = model._node_reverse(one_tape, gmp[i], gvp[i])
            np.testing.assert_array_equal(grad[i], one_grad)

    def test_estimator_leaves_the_layout_to_the_model(self):
        # empowerment.py reaches the net only through DynamicsModel: it imports
        # no pass of nets.py and defines no marginal pass of its own
        tree = ast.parse(Path(empkit.empowerment.__file__).read_text())
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "nets"
            for alias in node.names
        ]
        assert sorted(imported) == [
            "DynamicsModel",
            "_as_vector",
            "_check_int",
            "_check_real",
        ]
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert "_marginal_pass" not in defined


def reference_ascend(x, objective, opts):
    """The projected BFGS ascent of one restart with numpy-array bookkeeping:
    the reference that ``maximize_empowerment`` must equal bit for bit.

    Like the estimator's, it calls ``objective(x)`` for each trial point's
    ``(value, gradient)`` and returns ``(last, iterations)`` with
    ``last = (value, mean, log_std, converged)``, the last accepted iterate.
    """
    k = x.size // 2
    lo = np.concatenate([np.full(k, -np.inf), np.full(k, LOG_STD_MIN)])
    hi = np.concatenate([np.full(k, np.inf), np.full(k, LOG_STD_MAX)])
    eye = np.eye(2 * k)

    def evaluate(x):
        value, g = objective(x)
        if not math.isfinite(value):
            raise FloatingPointError("non-finite objective")
        held = ((x <= lo) & (g < 0)) | ((x >= hi) & (g > 0))
        pg = np.where(held, 0.0, g)
        return value, g, pg, held

    f, g, pg, held = evaluate(x)
    hess_inv = None
    iters = 0
    while np.abs(pg).max() >= opts.grad_tol and iters < opts.max_iter:
        d = None
        if hess_inv is not None:
            d = hess_inv @ pg
            d[held | ((x <= lo) & (d < 0)) | ((x >= hi) & (d > 0))] = 0.0
            if g @ d <= 0.0:
                d = None
            else:
                d = d / max(1.0, np.abs(d).max())
        if d is None:
            d = pg / np.abs(pg).max()
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_new = np.minimum(np.maximum(x + t * d, lo), hi)
            gain = g @ (x_new - x)
            if gain > 0.0:
                f_new, g_new, pg_new, held_new = evaluate(x_new)
                if f_new >= f + _ARMIJO * gain:
                    break
            t *= 0.5
        else:
            if hess_inv is None:
                break
            hess_inv = None
            continue
        iters += 1
        s, y = x_new - x, np.where(held_new, 0.0, g - g_new)
        sy = s @ y
        if sy > _CURVATURE_TOL * math.sqrt(s @ s) * math.sqrt(y @ y):
            if hess_inv is None:
                hess_inv = eye * (sy / (y @ y))
            v = eye - s[:, None] * y / sy
            hess_inv = v @ hess_inv @ v.T + s[:, None] * s / sy
        x, f, g, pg, held = x_new, f_new, g_new, pg_new, held_new
    done = bool(np.abs(pg).max() < opts.grad_tol)
    return (f, x[:k].copy(), x[k:].copy(), done), iters


def reference_maximize(model, state, opts):
    """``maximize_empowerment`` through ``reference_ascend``, one
    ``_mi_core`` objective on one node set for every restart: the best
    restart's ``(value, mean, log_std, converged, iterations)`` and the
    failed-restart count."""
    state = np.asarray(state, dtype=float)
    k = model.action_dim
    best, failures = None, 0
    nodes = _nodes(k)

    def objective(x):
        value, gmean, glog = _mi_core(model, state, x[:k], x[k:], nodes, True)
        return float(value), np.concatenate([gmean, glog])

    for r in range(opts.restarts):
        mean = np.zeros(k)
        if r > 0:
            mean = 0.5 * np.random.default_rng(opts.seed + r).standard_normal(k)
        x0 = np.concatenate([mean, np.full(k, _START_LOG_STD)])
        try:
            result, iters = reference_ascend(x0, objective, opts)
        except FloatingPointError:
            failures += 1
            continue
        if best is None or result[0] > best[0]:
            best = (*result, iters)
    return best, failures


def assert_equals_reference(model, state, opts):
    est = maximize_empowerment(model, state, opts)
    (value, mean, log_std, converged, iters), failures = reference_maximize(
        model, state, opts
    )
    assert est.value == max(value, 0.0)
    np.testing.assert_array_equal(est.policy.action_mean, mean)
    np.testing.assert_array_equal(est.policy.action_log_std, log_std)
    assert (est.iterations, est.converged, est.restarts_failed) == (
        iters,
        converged,
        failures,
    )
    return est


# AC-5's diagonal from (-pi, -8) to (0, 0); state i runs with seed i
AC5_STATES = [[-np.pi * (1 - u), -8.0 * (1 - u)] for u in np.linspace(0.0, 1.0, 25)]


class TestReferenceAscent:
    """The ascent applies each curvature pair at the start of the iteration
    that uses it; the eager ``reference_ascend``, which updates the model
    right after each accepted step, must give the same bits."""

    @pytest.mark.parametrize("i", range(len(AC5_STATES)))
    def test_ac5_state(self, i):
        assert_equals_reference(PENDULUM, AC5_STATES[i], OptimizerOptions(seed=i))

    def test_two_dimensional_action(self):
        opts = OptimizerOptions(restarts=3, max_iter=60, seed=5)
        assert_equals_reference(mixed_tag_model(), [0.3, -0.4], opts)

    def test_log_std_clamp_saturated(self):
        est = assert_equals_reference(
            shift_model(0.5), [0.0], OptimizerOptions(max_iter=400, seed=2)
        )
        assert est.policy.action_log_std[0] == LOG_STD_MAX

    def test_poisoned_restart(self, monkeypatch):
        opts = OptimizerOptions(restarts=4, seed=7)
        poison_kick(monkeypatch, opts.seed + 2)
        with np.errstate(invalid="ignore"):
            est = assert_equals_reference(PENDULUM, [1.0, -2.0], opts)
        assert est.restarts_failed == 1


def ascent_trials(x, objective):
    """Run ``_ascend`` from ``x``, as an array, on ``objective``, called with
    each trial point; returns the points it was called at as lists, in
    order, and ``_ascend``'s result."""
    trials = []

    def recorded(x):
        trials.append(x.tolist())
        return objective(x)

    return trials, _ascend(np.array(x, dtype=float), recorded, OptimizerOptions())


class TestAscentSteps:
    """Every trial step starts in the unit box of the infinity norm, the
    convergence test's norm: the steepest step is the projected gradient
    scaled to infinity norm 1, and a quasi-Newton step with a component
    longer than 1 is scaled down to infinity norm 1.  The curvature pair
    leaves out the components held at the clamp."""

    def test_short_gradient_takes_a_unit_steepest_step(self):
        def linear(x):
            return 0.05 * x[1], np.array([0.0, 0.05])

        trials, _ = ascent_trials([0.0, -1.0], linear)
        assert trials[1] == [0.0, 0.0]

    def test_steepest_step_led_by_log_std_lands_on_the_clamp(self):
        # f = 0.01 m - m^2 / 4 + l / 2 has gradient (0.01, 0.5) at the start
        # (0, 1): its log-std component is the largest, so the step moves
        # log-std by exactly 1, onto the clamp, where it is held.  The mean
        # moves 0.01 / 0.5 = 0.02, onto its peak; with the whole projected
        # gradient 0 there the ascent stops.  A step of Euclidean length 1
        # would stop 2e-4 short of the clamp and take a second iteration
        def objective(x):
            m, l = x
            return 0.01 * m - 0.25 * m * m + 0.5 * l, np.array([0.01 - 0.5 * m, 0.5])

        trials, (best, iterations) = ascent_trials([0.0, 1.0], objective)
        assert trials == [[0.0, 1.0], [0.02, LOG_STD_MAX]]
        assert iterations == 1
        assert best[3] == 0.0

    def test_quasi_newton_step_trimmed_to_the_unit_box(self):
        # f = -c/2 |x - peak|^2 with c = 0.01 rises along (1, 1) from the
        # start: the steepest step is (1, 1), and the BFGS pair it gives is
        # H^-1 = I/c, so the quasi-Newton step points at the peak, (9, 9)
        # away, and is cut to (1, 1), not to (0.707, 0.707)
        c, peak = 0.01, np.array([10.0, 6.0])

        def quadratic(x):
            return -0.5 * c * (x - peak) @ (x - peak), -c * (x - peak)

        trials, _ = ascent_trials([0.0, -4.0], quadratic)
        assert trials[1] == [1.0, -3.0]
        assert trials[2] == pytest.approx([2.0, -2.0], abs=1e-12)

    def test_long_quasi_newton_step_trimmed_to_unit_length(self):
        # f = -c/2 |x - peak|^2 with c = 0.01: the gradient is longer than 1,
        # so the first, steepest step has length 1 under either rule; the
        # BFGS pair it gives is H^-1 = I/c, so the quasi-Newton step points
        # at the peak, 199 away, and is cut to length 1 along that direction
        c, peak = 0.01, np.array([200.0, -1.0])

        def quadratic(x):
            return -0.5 * c * (x - peak) @ (x - peak), -c * (x - peak)

        trials, _ = ascent_trials([0.0, -1.0], quadratic)
        assert trials[1] == [1.0, -1.0]
        assert trials[2] == pytest.approx([2.0, -1.0], abs=1e-12)

    def test_exhausted_search_without_curvature_stops(self):
        # the gradient points up the mean, but every step lowers the value:
        # all backtracks fail, and with no curvature model to drop, the
        # ascent stops at its start
        def falling(x):
            return -np.abs(x - [0.0, -1.0]).sum(), np.array([1.0, 0.0])

        trials, (best, iterations) = ascent_trials([0.0, -1.0], falling)
        assert len(trials) == 1 + _MAX_BACKTRACKS
        assert trials[1] == [1.0, -1.0]
        assert trials[-1] == [0.5 ** (_MAX_BACKTRACKS - 1), -1.0]
        assert iterations == 0
        assert best == (0.0, [0.0], [-1.0], 1.0)

    def test_exhausted_search_with_curvature_resets_to_steepest(self):
        # one accepted unit step up an anisotropic quadratic gives a
        # curvature pair; from then on every step lowers the value while
        # the gradient points up.  The quasi-Newton search fails, the model
        # is dropped and a unit steepest step starts a fresh search; when
        # that fails too, the ascent stops at the accepted point
        peak, c = np.array([3.0, 1.0]), np.array([1.0, 4.0])

        def quadratic(x):
            return -0.5 * c @ (x - peak) ** 2, -c * (x - peak)

        calls = []

        def objective(x):
            calls.append(x)
            if len(calls) <= 2:
                return quadratic(x)
            x1 = calls[1]
            return quadratic(x1)[0] - 1.0 - np.abs(x - x1).sum(), quadratic(x)[1]

        def unit_step(x):
            g = quadratic(np.array(x))[1]
            return pytest.approx(np.add(x, g / np.abs(g).max()), abs=1e-12)

        trials, (best, iterations) = ascent_trials([0.0, -1.0], objective)
        x1 = trials[1]
        assert x1 == unit_step([0.0, -1.0])
        assert len(trials) == 2 + 2 * _MAX_BACKTRACKS
        # the quasi-Newton trial leaves the gradient's direction; after its
        # failed search the next trial is the unit steepest step
        assert trials[2] != unit_step(x1)
        assert trials[2 + _MAX_BACKTRACKS] == unit_step(x1)
        assert iterations == 1
        assert (best[1], best[2]) == ([x1[0]], [x1[1]])

    def test_held_component_left_out_of_the_curvature_pair(self):
        # f = -(m + 9.4)^2 / 2 + l (20 + 5 m) rises in l everywhere it is
        # visited, so l stays held at the clamp 2, where the mean's peak is
        # m = 0.6.  The unit steepest step goes to (1, 2); the held
        # gradient's change (20 -> 25) stays out of the pair, so the pair
        # measures the mean's own curvature 1 and the quasi-Newton step
        # lands on the peak, where the projected gradient is 0
        def objective(x):
            m, l = x
            return (
                -0.5 * (m + 9.4) ** 2 + l * (20.0 + 5.0 * m),
                np.array([-(m + 9.4) + 5.0 * l, 20.0 + 5.0 * m]),
            )

        trials, _ = ascent_trials([0.0, LOG_STD_MAX], objective)
        assert trials[1] == [1.0, LOG_STD_MAX]
        assert trials[2] == pytest.approx([0.6, LOG_STD_MAX], abs=1e-12)
        assert len(trials) == 3

    @staticmethod
    def objective_calls(monkeypatch, state, opts):
        """The estimate and the objective evaluations of each restart."""
        counts = []
        ascend = empkit.empowerment._ascend

        def counted(x, objective, opts):
            counts.append(0)

            def counted_objective(x):
                counts[-1] += 1
                return objective(x)

            return ascend(x, counted_objective, opts)

        monkeypatch.setattr(empkit.empowerment, "_ascend", counted)
        est = maximize_empowerment(PENDULUM, state, opts)
        assert len(counts) == opts.restarts
        return est, counts

    def most_objective_calls(self, monkeypatch, state, seed):
        # the most objective evaluations any of 4 restarts takes
        opts = OptimizerOptions(restarts=4, seed=seed)
        return max(self.objective_calls(monkeypatch, state, opts)[1])

    @pytest.mark.parametrize("i", range(len(AC5_STATES)))
    def test_ac5_state_takes_two_objective_calls(self, monkeypatch, i):
        # the start and one steepest step onto the log-std clamp, where the
        # mean's projected gradient is already below grad_tol
        est, counts = self.objective_calls(
            monkeypatch, AC5_STATES[i], OptimizerOptions(seed=i)
        )
        assert counts == [2]
        assert est.converged
        assert est.policy.action_log_std[0] == LOG_STD_MAX

    @pytest.mark.parametrize("seed", [1334, 1335, 1336, 1337])
    def test_no_crawling_restart_at_the_origin(self, monkeypatch, seed):
        # with steepest steps as short as the gradient, restart seed 1337
        # crawls along the log-std clamp here for 1,140 evaluations
        assert self.most_objective_calls(monkeypatch, [0.0, 0.0], seed) <= 15

    @pytest.mark.parametrize(
        "state, seed",
        [(AC5_STATES[21], 21), ([0.0, 0.0], 19), ([0.0, 0.0], 20), ([0.0, 0.0], 21)],
    )
    def test_no_zigzag_along_the_clamp(self, monkeypatch, state, seed):
        # a restart held at the log-std clamp whose curvature pair took in
        # the held component's gradient change zigzagged across the mean's
        # peak here: 91 evaluations at AC-5 state 21, 61 at the origin
        # (restart seed 22 in each of these)
        assert self.most_objective_calls(monkeypatch, state, seed) <= 12


class TestSelectAction:
    def test_tie_breaks_to_first_candidate(self):
        # all actions lead to the same next state: x' = x + 0*a + noise
        layer = LayerSpec([[1.0, 0.0], [0.0, 0.0]], [0.0, np.log(0.5)])
        model = DynamicsModel(FeedforwardNet((layer,)), 1, 1)
        a, _ = select_action(
            model, [0.0], [[-1.0], [0.0], [1.0]], OptimizerOptions(max_iter=5)
        )
        assert a[0] == -1.0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_action(shift_model(), [0.0], [], OptimizerOptions())

    def test_hanging_state_prefers_nonzero_torque(self):
        model = build_pendulum_dynamics(PendulumParams())
        opts = OptimizerOptions(restarts=2, max_iter=100, seed=0)
        a, value = select_action(
            model, [np.pi - 1e-6, 0.0], [[-2.0], [0.0], [2.0]], opts
        )
        assert a[0] != 0.0
        assert value > 0.0


class TestLandscape:
    def test_matches_single_state_runs(self):
        model = build_pendulum_dynamics(PendulumParams())
        opts = OptimizerOptions(seed=20)
        states = [np.array([0.0, 0.0]), np.array([1.0, -2.0])]
        results = empowerment_landscape(model, states, opts)
        assert len(results) == 2
        for i, (s, est) in enumerate(results):
            np.testing.assert_array_equal(s, states[i])
            solo = maximize_empowerment(
                model, states[i], OptimizerOptions(seed=20 + i)
            )
            assert est.value == solo.value

    def test_output_order_matches_input(self):
        model = build_pendulum_dynamics(PendulumParams())
        states = [np.array([a, 0.0]) for a in (-1.0, 0.0, 1.0)]
        results = empowerment_landscape(
            model, states, OptimizerOptions(max_iter=10)
        )
        for s_in, (s_out, _) in zip(states, results):
            np.testing.assert_array_equal(s_in, s_out)
