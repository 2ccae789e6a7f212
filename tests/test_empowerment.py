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
    select_action,
)
import empkit.empowerment
from empkit.empowerment import (
    _ARMIJO,
    _CURVATURE_TOL,
    _MAX_BACKTRACKS,
    LOG_STD_MAX,
    LOG_STD_MIN,
    _ascend,
    _mi_core,
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


PENDULUM = build_pendulum_dynamics(PendulumParams())
_POLICY = GaussianPolicy([0.0], [-1.0])
_QUICK = OptimizerOptions(restarts=1, max_iter=5)

BAD_STATE = "state must be a finite vector of length 2"

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


def winning_projected_grad_norm(model, state, est, opts):
    """Infinity norm of the projected gradient at the returned policy.

    The winning restart r is the one whose eps draw (seed + r) reproduces
    the returned value exactly at the returned policy; log-std components
    pushing against an active clamp are zeroed.
    """
    norms = []
    for r in range(opts.restarts):
        value, gmean, glog = mi_lower_bound_with_gradient(
            model, state, est.policy, est.mc_samples, opts.seed + r
        )
        if value == est.value:
            log_std = est.policy.action_log_std
            held = ((log_std <= LOG_STD_MIN) & (glog < 0)) | (
                (log_std >= LOG_STD_MAX) & (glog > 0)
            )
            projected = np.concatenate([gmean, np.where(held, 0.0, glog)])
            norms.append(np.max(np.abs(projected)))
    assert len(norms) == 1
    return norms[0]


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

    def test_pendulum_marginal_matches_monte_carlo_small_std(self):
        model = build_pendulum_dynamics(PendulumParams())
        state = np.array([0.0, 0.0])
        std = 0.1
        pol = GaussianPolicy([0.0], [np.log(std)])
        marg = marginal_transition(model, state, pol)

        rng = np.random.default_rng(0)
        n = 200_000
        actions = std * rng.standard_normal(n)
        means = np.empty((n, 2))
        variances = np.empty((n, 2))
        for i, a in enumerate(actions):
            g = model.conditional(state, [a])
            means[i] = g.mean
            variances[i] = g.variance
        mc_mean = means.mean(axis=0)
        mc_var = means.var(axis=0) + variances.mean(axis=0)
        np.testing.assert_allclose(marg.mean, mc_mean, atol=2e-3)
        np.testing.assert_allclose(marg.variance, mc_var, rtol=0.10)

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
        # x' = x + a + noise with a ~ N(mu, s^2): MI = 0.5 ln(1 + s^2/sigma^2)
        sigma, s = 0.5, 0.8
        model = shift_model(sigma)
        pol = GaussianPolicy([0.4], [np.log(s)])
        mi = mi_lower_bound(model, [0.0], pol, mc_samples=10_000, seed=3)
        expected = 0.5 * np.log(1.0 + s**2 / sigma**2)
        assert mi == pytest.approx(expected, rel=0.02)

    def test_invalid_mc_samples(self):
        model = shift_model()
        for objective in (mi_lower_bound, mi_lower_bound_with_gradient):
            with pytest.raises(ValueError):
                objective(model, [0.0], GaussianPolicy([0.0], [0.0]), 0, 0)

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

    @pytest.mark.parametrize("case", ["shift", "pendulum"])
    def test_equals_mean_kl_of_conditionals_to_marginal(self, case):
        # the objective's fused pass against its definition: conditionals
        # from point evaluation, the marginal from the moment pass alone
        if case == "shift":
            model = shift_model(0.5)
            state = np.array([0.3])
        else:
            model = build_pendulum_dynamics(PendulumParams())
            state = np.array([0.7, -2.0])
        rng = np.random.default_rng(12)
        for seed in range(4):
            pol = GaussianPolicy(rng.normal(size=1), rng.uniform(-2.0, 0.5, 1))
            eps = np.random.default_rng(seed).standard_normal((16, 1))
            actions = pol.action_mean + np.exp(pol.action_log_std) * eps
            marg = marginal_transition(model, state, pol)
            expected = np.mean(
                [kl_diag_gaussian(model.conditional(state, a), marg) for a in actions]
            )
            value = mi_lower_bound(model, state, pol, mc_samples=16, seed=seed)
            assert value == pytest.approx(expected, rel=1e-12)


class TestGradient:
    @pytest.mark.parametrize("case", ["shift", "pendulum", "floored"])
    def test_matches_central_finite_differences(self, case):
        offset = 0.0
        if case == "shift":
            model = shift_model(0.5)
            state = np.array([0.3])
        elif case == "pendulum":
            model = build_pendulum_dynamics(PendulumParams())
            state = np.array([0.7, -2.0])
        else:
            # saturated tanh: the moment pass floors the action unit's
            # variance at VAR_FLOOR, and with model noise 1e-8 the floor is
            # half the marginal variance, so the reverse pass must drop the
            # floored unit's variance path or the gradient is visibly off
            model = tanh_model(1e-4)
            state = np.array([0.0])
            offset = 8.0
        rng = np.random.default_rng(5)
        for _ in range(5):
            mean = offset + rng.normal(size=1)
            log_std = rng.uniform(-2.0, 0.5, 1)
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
            for which in ("mean", "log_std"):
                if which == "mean":
                    plus = GaussianPolicy(mean + h, log_std)
                    minus = GaussianPolicy(mean - h, log_std)
                    analytic = gmean[0]
                else:
                    plus = GaussianPolicy(mean, log_std + h)
                    minus = GaussianPolicy(mean, log_std - h)
                    analytic = glog[0]
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


class TestMaximizeEmpowerment:
    @pytest.mark.parametrize(
        "state, expected",
        [
            ([0.0, 0.0], 3.090493797791957),
            ([np.pi, 0.0], 2.4719585836271176),
            ([1.0, -2.0], 2.979236614104851),
        ],
    )
    def test_reference_values_pinned(self, state, expected):
        # pins the determinism contract (restart r draws eps and its initial
        # mean from seed + r) and the marginal: a change to either moves
        # these values far more than the tolerance
        est = maximize_empowerment(PENDULUM, state, OptimizerOptions(seed=0))
        assert est.value == pytest.approx(expected, rel=1e-12)
        assert est.converged
        assert est.iterations == 6
        # plain Python scalars, not numpy ones taken from the lane arrays
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
        reason="the delta-method marginal evaluates tanh' at the action mean, "
        "so a wide policy yields a marginal variance of ~e^4 where the true "
        "marginal is bounded by the tanh range; the estimate exceeds the "
        "discretized capacity several-fold, far outside 10%",
    )
    def test_tanh_clipped_channel_within_ten_percent_of_oracle(self):
        from empkit import oracle_empowerment

        model = tanh_model(0.5)
        est = maximize_empowerment(
            model, [0.0], OptimizerOptions(max_iter=400, seed=1)
        )
        cap = oracle_empowerment(model, [0.0], n_actions=64).capacity
        assert est.value == pytest.approx(cap, rel=0.10)

    def test_improves_on_initial_policy(self):
        model = build_pendulum_dynamics(PendulumParams())
        state = [0.3, 1.0]
        opts = OptimizerOptions(seed=6)
        est = maximize_empowerment(model, state, opts)
        init = mi_lower_bound(
            model, state, GaussianPolicy([0.0], [-1.0]), opts.mc_samples, opts.seed
        )
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
        assert winning_projected_grad_norm(model, state, est, opts) < opts.grad_tol

    @pytest.mark.parametrize("max_iter", [1, 200])
    @pytest.mark.parametrize("state", [[0.0, 0.0], [np.pi, 0.0], [-2.0, 5.0]])
    def test_grad_norm_is_projected_gradient_at_returned_policy(self, state, max_iter):
        opts = OptimizerOptions(max_iter=max_iter, seed=11)
        est = maximize_empowerment(PENDULUM, state, opts)
        assert type(est.grad_norm) is float
        assert est.converged == (est.grad_norm < opts.grad_tol)
        assert est.grad_norm == winning_projected_grad_norm(PENDULUM, state, est, opts)

    def test_all_restarts_non_finite_raises(self):
        # log-std output of 1e300: the noise variance overflows to inf and
        # the objective is NaN at every restart's first iterate
        layer = LayerSpec([[1.0, 1.0], [0.0, 0.0]], [0.0, 1e300])
        model = DynamicsModel(FeedforwardNet((layer,)), 1, 1)
        with pytest.raises(RuntimeError, match="all 4 restarts diverged"):
            maximize_empowerment(model, [0.0], OptimizerOptions(restarts=4))

    def test_failed_restart_leaves_the_others_unchanged(self, monkeypatch):
        # NaN in restart 3's initial-mean row makes its objective non-finite
        # at its first trial point; at this state and seed restart 2 wins
        state, opts = [1.0, -2.0], OptimizerOptions(seed=7)
        clean = maximize_empowerment(PENDULUM, state, opts)
        assert clean.restarts_failed == 0
        draw_eps = empkit.empowerment._draw_eps

        def poisoned(seed, mc_samples, action_dim):
            draw = draw_eps(seed, mc_samples, action_dim)
            if seed == opts.seed + 3:
                draw[-1] = np.nan
            return draw

        monkeypatch.setattr(empkit.empowerment, "_draw_eps", poisoned)
        est = maximize_empowerment(PENDULUM, state, opts)
        assert est.restarts_failed == 1
        winner = mi_lower_bound(PENDULUM, state, est.policy, 32, opts.seed + 2)
        assert winner == est.value
        assert est.value == clean.value
        np.testing.assert_array_equal(est.policy.action_mean, clean.policy.action_mean)
        np.testing.assert_array_equal(
            est.policy.action_log_std, clean.policy.action_log_std
        )
        assert (est.iterations, est.converged) == (clean.iterations, clean.converged)

    def test_state_dimension_checked(self):
        model = shift_model()
        with pytest.raises(ValueError):
            maximize_empowerment(model, [0.0, 0.0], OptimizerOptions())


def mixed_tag_model():
    """2-D state and action; a tag recurs after another within a layer."""
    rng = np.random.default_rng(8)
    l1 = LayerSpec(
        rng.normal(size=(5, 4)),
        rng.normal(size=5),
        ("tanh", "sine", "tanh", "identity", "sine"),
    )
    l2 = LayerSpec(
        0.3 * rng.normal(size=(4, 5)),
        rng.normal(size=4),
        ("identity", "sine", "tanh", "identity"),
    )
    return DynamicsModel(FeedforwardNet((l1, l2)), state_dim=2, action_dim=2)


class TestLanes:
    @pytest.mark.parametrize("case", ["pendulum", "mixed"])
    @pytest.mark.parametrize("lanes", [2, 3, 4, 5, 6])
    def test_each_lane_equals_its_single_lane_run(self, case, lanes):
        # the batched objective must not let the lane count change any
        # lane's rounding: value, both gradients and the consistency flag
        # equal the lane run alone, bit for bit
        model = PENDULUM if case == "pendulum" else mixed_tag_model()
        k = model.action_dim
        rng = np.random.default_rng(lanes)
        state = rng.uniform(-2.0, 2.0, model.state_dim)
        mean = rng.normal(0.0, 1.5, (lanes, k))
        log_std = rng.uniform(LOG_STD_MIN, LOG_STD_MAX, (lanes, k))
        log_std[0], log_std[-1] = LOG_STD_MIN, LOG_STD_MAX
        eps = rng.standard_normal((lanes, 32, k))
        batched = _mi_core(model, state, mean, log_std, eps, True)
        for lane in range(lanes):
            alone = _mi_core(
                model,
                state,
                mean[lane : lane + 1],
                log_std[lane : lane + 1],
                eps[lane : lane + 1],
                True,
            )
            for got, want in zip(batched, alone):
                np.testing.assert_array_equal(got[lane], want[0])



def lane_inputs(model, lanes=3, n=5, seed=0):
    rng = np.random.default_rng(seed)
    k = model.action_dim
    state = rng.uniform(-2.0, 2.0, model.state_dim)
    mean = rng.normal(0.0, 1.0, (lanes, k))
    var_a = rng.uniform(0.05, 1.0, (lanes, k))
    actions = rng.normal(0.0, 1.5, (lanes, n, k))
    return state, mean, var_a, actions


class TestLanePass:
    """``DynamicsModel._lane_pass`` and ``_lane_reverse``: the one place the
    net's input and output layout meets the estimator."""

    @pytest.mark.parametrize("case", ["pendulum", "mixed"])
    def test_rows_match_conditional(self, case):
        # not bit-equal: the lane pass takes one matrix product for all rows
        # of a lane, and ``conditional`` takes one per row
        model = PENDULUM if case == "pendulum" else mixed_tag_model()
        state, mean, var_a, actions = lane_inputs(model)
        _, _, mp, vp, _ = model._lane_pass(state, mean, var_a, actions)
        for lane, rows in enumerate(actions):
            want = model.conditional(state, rows)
            np.testing.assert_allclose(mp[lane], want.mean, rtol=1e-12)
            np.testing.assert_allclose(vp[lane], want.variance, rtol=1e-12)

    @pytest.mark.parametrize("case", ["pendulum", "mixed"])
    def test_reverse_matches_finite_differences(self, case):
        # the reverse step of a fixed linear functional of the four outputs,
        # against central differences in the policy mean, each action row
        # and the action variance
        model = PENDULUM if case == "pendulum" else mixed_tag_model()
        state, mean, var_a, actions = lane_inputs(model, seed=1)
        rng = np.random.default_rng(2)
        outs = model._lane_pass(state, mean, var_a, actions)
        weights = [rng.normal(size=o.shape) for o in outs[:4]]

        def functional(mean, var_a, actions):
            outs = model._lane_pass(state, mean, var_a, actions)
            return sum((w * o).sum() for w, o in zip(weights, outs))

        grads = dict(
            zip(("mean", "actions", "var_a"), model._lane_reverse(outs[4], *weights))
        )
        args = {"mean": mean, "var_a": var_a, "actions": actions}
        h = 1e-6
        for name, x in args.items():
            fd = np.empty_like(x)
            for idx in np.ndindex(x.shape):
                up, down = x.copy(), x.copy()
                up[idx] += h
                down[idx] -= h
                fd[idx] = (
                    functional(**{**args, name: up}) - functional(**{**args, name: down})
                ) / (2 * h)
            np.testing.assert_allclose(grads[name], fd, rtol=1e-6, atol=1e-8)

    def test_estimator_leaves_the_layout_to_the_model(self):
        # empowerment.py reaches the net only through DynamicsModel: it imports
        # no fused pass and forms no marginal of its own
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

def reference_ascend(x, opts):
    """The projected BFGS ascent of one restart with numpy-array bookkeeping:
    the reference that ``maximize_empowerment`` must equal bit for bit.

    A generator like the estimator's: it yields trial points, is sent
    ``(value, gradient, consistent)`` and returns ``(best, iterations)``
    with ``best = (value, mean, log_std, converged)`` or None.
    """
    k = x.size // 2
    lo = np.concatenate([np.full(k, -np.inf), np.full(k, LOG_STD_MIN)])
    hi = np.concatenate([np.full(k, np.inf), np.full(k, LOG_STD_MAX)])
    eye = np.eye(2 * k)

    def evaluate(x):
        value, g, ok = yield x
        if not math.isfinite(value):
            raise FloatingPointError("non-finite objective")
        held = ((x <= lo) & (g < 0)) | ((x >= hi) & (g > 0))
        pg = np.where(held, 0.0, g)
        return value, g, pg, held, ok

    def keep(best, value, x, pg, ok):
        if ok and (best is None or value > best[0]):
            done = bool(np.abs(pg).max() < opts.grad_tol)
            return (value, x[:k].copy(), x[k:].copy(), done)
        return best

    f, g, pg, held, ok = yield from evaluate(x)
    best = keep(None, f, x, pg, ok)
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
                d = d / max(1.0, math.hypot(*d))
        if d is None:
            d = pg / math.hypot(*pg)
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_new = np.minimum(np.maximum(x + t * d, lo), hi)
            gain = g @ (x_new - x)
            if gain > 0.0:
                f_new, g_new, pg_new, held_new, ok = yield from evaluate(x_new)
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
        best = keep(best, f, x, pg, ok)
    return best, iters


def reference_maximize(model, state, opts):
    """``maximize_empowerment`` with the restarts run one after another, each
    through a single-lane ``_mi_core``: the best restart's ``(value, mean,
    log_std, converged, iterations)`` and the failed-restart count."""
    state = np.asarray(state, dtype=float)
    k = model.action_dim
    best, failures = None, 0
    for r in range(opts.restarts):
        draw = empkit.empowerment._draw_eps(opts.seed + r, opts.mc_samples + 1, k)
        mean = 0.5 * draw[-1] if r > 0 else np.zeros(k)
        ascent = reference_ascend(np.concatenate([mean, -np.ones(k)]), opts)
        try:
            x = next(ascent)
            while True:
                X = x[None]
                value, gmean, glog, ok = _mi_core(
                    model, state, X[:, :k], X[:, k:], draw[None, :-1], True
                )
                grad = np.concatenate([gmean, glog], axis=1)[0]
                x = ascent.send((float(value[0]), grad, bool(ok[0])))
        except StopIteration as finished:
            result, iters = finished.value
        except FloatingPointError:
            result = None
        if result is None:
            failures += 1
        elif best is None or result[0] > best[0]:
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
    """The ascent keeps its bookkeeping on Python floats and runs the
    restarts in lockstep; the numpy-array ascent run one restart at a time
    must give the same bits."""

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
        opts = OptimizerOptions(seed=7)
        draw_eps = empkit.empowerment._draw_eps

        def poisoned(seed, mc_samples, action_dim):
            draw = draw_eps(seed, mc_samples, action_dim)
            if seed == opts.seed + 2:
                draw[-1] = np.nan
            return draw

        monkeypatch.setattr(empkit.empowerment, "_draw_eps", poisoned)
        with np.errstate(invalid="ignore"):
            est = assert_equals_reference(PENDULUM, [1.0, -2.0], opts)
        assert est.restarts_failed == 1


def ascent_trials(x, objective, n):
    """The first ``n`` trial points ``_ascend`` yields from ``x`` when each
    point is sent ``objective``'s value and gradient, marked consistent."""
    ascent = _ascend(x, OptimizerOptions())
    trials = [next(ascent)]
    while len(trials) < n:
        value, grad = objective(np.array(trials[-1]))
        trials.append(ascent.send((value, grad, True)))
    return trials


class TestAscentSteps:
    """Every trial step starts at length 1 or shorter: the steepest step is
    the projected gradient scaled to length 1, and a quasi-Newton step
    longer than 1 is scaled down to 1.  The curvature pair leaves out the
    components held at the clamp."""

    def test_short_gradient_takes_a_unit_steepest_step(self):
        def linear(x):
            return 0.05 * x[1], np.array([0.0, 0.05])

        trials = ascent_trials([0.0, -1.0], linear, 2)
        assert trials[1] == [0.0, 0.0]

    def test_long_quasi_newton_step_trimmed_to_unit_length(self):
        # f = -c/2 |x - peak|^2 with c = 0.01: the gradient is longer than 1,
        # so the first, steepest step has length 1 under either rule; the
        # BFGS pair it gives is H^-1 = I/c, so the quasi-Newton step points
        # at the peak, 199 away, and is cut to length 1 along that direction
        c, peak = 0.01, np.array([200.0, -1.0])

        def quadratic(x):
            return -0.5 * c * (x - peak) @ (x - peak), -c * (x - peak)

        trials = ascent_trials([0.0, -1.0], quadratic, 3)
        assert trials[1] == [1.0, -1.0]
        assert trials[2] == pytest.approx([2.0, -1.0], abs=1e-12)

    @staticmethod
    def run_ascent(x0, objective):
        """Drive ``_ascend`` from ``x0`` until it returns, sending each trial
        point ``objective(trials)``, the value and gradient at the last of
        the trials so far; returns the trials and ``_ascend``'s result."""
        ascent = _ascend(x0, OptimizerOptions())
        trials = [next(ascent)]
        while True:
            value, grad = objective(trials)
            try:
                trials.append(ascent.send((value, grad, True)))
            except StopIteration as stop:
                return trials, stop.value

    def test_exhausted_search_without_curvature_stops(self):
        # the gradient points up the mean, but every step lowers the value:
        # all backtracks fail, and with no curvature model to drop, the
        # ascent stops at its start
        def falling(trials):
            x = np.array(trials[-1])
            return -np.abs(x - [0.0, -1.0]).sum(), np.array([1.0, 0.0])

        trials, (best, iterations) = self.run_ascent([0.0, -1.0], falling)
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

        def objective(trials):
            x = np.array(trials[-1])
            if len(trials) <= 2:
                return quadratic(x)
            x1 = np.array(trials[1])
            return quadratic(x1)[0] - 1.0 - np.abs(x - x1).sum(), quadratic(x)[1]

        def unit_step(x):
            g = quadratic(np.array(x))[1]
            return pytest.approx(np.add(x, g / np.hypot(*g)), abs=1e-12)

        trials, (best, iterations) = self.run_ascent([0.0, -1.0], objective)
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

        trials = ascent_trials([0.0, LOG_STD_MAX], objective, 3)
        assert trials[1] == [1.0, LOG_STD_MAX]
        assert trials[2] == pytest.approx([0.6, LOG_STD_MAX], abs=1e-12)
        with pytest.raises(StopIteration):
            ascent_trials([0.0, LOG_STD_MAX], objective, 4)

    @staticmethod
    def objective_calls(monkeypatch, state, seed):
        # the restarts run in lockstep, one _mi_core call per round, so the
        # call count is the longest restart's evaluation count
        lanes = []
        mi_core = empkit.empowerment._mi_core

        def counted(model, state, mean, log_std, eps, want_grad):
            lanes.append(len(eps))
            return mi_core(model, state, mean, log_std, eps, want_grad)

        monkeypatch.setattr(empkit.empowerment, "_mi_core", counted)
        maximize_empowerment(PENDULUM, state, OptimizerOptions(seed=seed))
        assert lanes[0] == 4 and lanes == sorted(lanes, reverse=True)
        return len(lanes)

    @pytest.mark.parametrize("seed", [1334, 1335, 1336, 1337])
    def test_no_crawling_restart_at_the_origin(self, monkeypatch, seed):
        # with steepest steps as short as the gradient, restart seed 1337
        # crawls along the log-std clamp here for 1,140 evaluations
        assert self.objective_calls(monkeypatch, [0.0, 0.0], seed) <= 15

    @pytest.mark.parametrize(
        "state, seed",
        [(AC5_STATES[21], 21), ([0.0, 0.0], 19), ([0.0, 0.0], 20), ([0.0, 0.0], 21)],
    )
    def test_no_zigzag_along_the_clamp(self, monkeypatch, state, seed):
        # a restart held at the log-std clamp whose curvature pair took in
        # the held component's gradient change zigzagged across the mean's
        # peak here: 91 evaluations at AC-5 state 21, 61 at the origin
        # (restart seed 22 in each of these)
        assert self.objective_calls(monkeypatch, state, seed) <= 12


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
