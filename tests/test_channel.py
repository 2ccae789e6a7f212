import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import empkit.nets

from empkit import (
    CapacityResult,
    DiagonalGaussian,
    DiscreteChannel,
    DynamicsModel,
    FeedforwardNet,
    LayerSpec,
    PendulumParams,
    blahut_arimoto,
    build_pendulum_dynamics,
    discretize_dynamics,
    oracle_empowerment,
)


def two_row_capacity_grid_search(P, n=20_001):
    """Independent oracle for 2-action channels: scan p in [0,1] directly."""
    ps = np.linspace(0.0, 1.0, n)
    best = 0.0
    for p in ps:
        m = p * P[0] + (1 - p) * P[1]
        mi = 0.0
        for w, row in ((p, P[0]), (1 - p, P[1])):
            pos = (row > 0) & (m > 0)
            mi += w * np.sum(row[pos] * np.log(row[pos] / m[pos]))
        best = max(best, mi)
    return best


def textbook_blahut_arimoto(P, tol, max_iter=10_000):
    """Reference: the update written out with full-matrix temporaries."""
    logP = np.zeros_like(P)
    pos = P > 0
    logP[pos] = np.log(P[pos])
    p = np.full(P.shape[0], 1.0 / P.shape[0])
    lower_bounds = []
    for it in range(1, max_iter + 1):
        m = p @ P
        logm = np.where(m > 0, np.log(np.where(m > 0, m, 1.0)), 0.0)
        D = np.einsum("as,as->a", P, np.where(pos, logP - logm, 0.0))
        lower, upper = float(p @ D), float(np.max(D))
        lower_bounds.append(lower)
        if upper - lower < tol:
            break
        w = p * np.exp(D - upper)
        p = w / w.sum()
    return max(lower, 0.0), it, np.array(lower_bounds)


def ac5_inputs():
    """Model, state, action grid and bin edges with which oracle_empowerment
    discretizes one state of the AC-5 sweep (its midpoint, angle -pi/2,
    velocity -4)."""
    model = build_pendulum_dynamics(PendulumParams())
    state = np.array([-np.pi / 2, -4.0])
    acts = np.linspace(-4.0, 4.0, 64)
    conds = [model.conditional(state, [a]) for a in acts]
    means = np.array([g.mean for g in conds])
    pad = 6.0 * np.sqrt(np.array([g.variance for g in conds])).max(axis=0)
    edges = [
        np.linspace(means[:, d].min() - pad[d], means[:, d].max() + pad[d], 42)
        for d in range(2)
    ]
    return model, state, [[a] for a in acts], edges


def ac5_channel():
    """The 64 x 41^2 pendulum channel at the state of ``ac5_inputs``."""
    P = discretize_dynamics(*ac5_inputs()).transition
    assert P.shape == (64, 41 * 41)
    return P


def outer_loop_discretization(model, state, action_grid, state_bins):
    """Reference: each row built action by action as an outer product of the
    per-dimension bin masses."""
    rows = []
    for a in action_grid:
        g = model.conditional(np.asarray(state, dtype=float), np.asarray(a, dtype=float))
        sd = np.sqrt(g.variance)
        row = np.ones(1)
        for d, e in enumerate(state_bins):
            cdf = ndtr((np.asarray(e) - g.mean[d]) / sd[d])
            probs = np.diff(cdf)
            probs[0] += cdf[0]
            probs[-1] += 1.0 - cdf[-1]
            row = np.outer(row, probs).ravel()
        rows.append(row)
    return np.vstack(rows)


def row_kron(left, right):
    return np.einsum("ai,aj->aij", left, right).reshape(len(left), -1)


@st.composite
def dirichlet_rows(draw, n_rows=None):
    """A row-stochastic matrix with 1-6 rows (or ``n_rows``) and 1-6
    columns: Dirichlet rows, their concentration ranging from nearly
    deterministic rows to nearly uniform ones."""
    n_rows = n_rows or draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    alpha = draw(st.sampled_from([0.2, 1.0, 5.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.dirichlet(np.full(n_cols, alpha), size=n_rows)


def shift_model(sigma=0.5):
    """1-D dynamics x' = x + a + N(0, sigma^2)."""
    layer = LayerSpec([[1.0, 1.0], [0.0, 0.0]], [0.0, np.log(sigma)])
    return DynamicsModel(FeedforwardNet((layer,)), state_dim=1, action_dim=1)


def mixing_model():
    """3-D linear dynamics x' = A x + b a + N(0, diag(sigma^2))."""
    weights = np.zeros((6, 4))
    weights[:3, :3] = [[0.9, 0.2, 0.0], [-0.3, 1.0, 0.1], [0.0, 0.4, 0.8]]
    weights[:3, 3] = [0.5, -1.0, 2.0]
    bias = np.concatenate([[0.1, 0.0, -0.2], np.log([0.3, 0.5, 0.2])])
    layer = LayerSpec(weights, bias)
    return DynamicsModel(FeedforwardNet((layer,)), state_dim=3, action_dim=1)


def forbid_evaluation(monkeypatch):
    """Record, instead of running, every call of the model's conditional and
    of the net's forward pass; returns the list of recorded calls."""
    calls = []
    monkeypatch.setattr(
        DynamicsModel, "conditional", lambda *a: calls.append("conditional")
    )
    monkeypatch.setattr(
        empkit.nets, "forward_point", lambda *a: calls.append("forward_point")
    )
    return calls


def conditional_1d(model, state, action):
    """Reference: one action through the net as a plain vector, layer by
    layer, as mean and variance of p(x'|x,a)."""
    h = np.concatenate([state, action])
    for layer in model.net.layers:
        h = layer.act(h @ layer.weights.T + layer.bias)
    d = model.state_dim
    return h[:d], np.exp(2.0 * h[d:])


def two_action_model():
    """2-D state, 2-D action, two mixed-activation layers."""
    rng = np.random.default_rng(21)
    tags = ("tanh", "sine", "sine", "identity", "cosine")
    hidden = LayerSpec(rng.normal(size=(5, 4)), rng.normal(size=5), tags)
    out = LayerSpec(0.5 * rng.normal(size=(4, 5)), rng.normal(size=4), "tanh")
    return DynamicsModel(FeedforwardNet((hidden, out)), state_dim=2, action_dim=2)


class TestConditional:
    @pytest.mark.parametrize(
        "case", ["ac5_states", "shift_1d", "mixing_3d", "two_actions", "single_row"]
    )
    def test_batch_rows_equal_one_action_at_a_time(self, case):
        rng = np.random.default_rng(22)
        if case == "ac5_states":
            model = build_pendulum_dynamics(PendulumParams())
            states = [
                np.array([-np.pi * (1 - u), -8.0 * (1 - u)]) for u in np.linspace(0, 1, 25)
            ]
            actions = np.linspace(-4.0, 4.0, 64)[:, None]
        elif case == "shift_1d":
            model, states = shift_model(0.7), [np.array([0.2]), np.array([-3.1])]
            actions = rng.normal(size=(17, 1))
        elif case == "mixing_3d":
            model, states = mixing_model(), [np.array([0.5, -1.0, 0.3])]
            actions = rng.normal(size=(9, 1))
        elif case == "two_actions":
            model, states = two_action_model(), [rng.normal(size=2) for _ in range(5)]
            actions = rng.normal(size=(33, 2))
        else:
            model = build_pendulum_dynamics(PendulumParams())
            states, actions = [np.array([0.4, -1.5])], np.array([[1.25]])
        for state in states:
            stack = model.conditional(state, actions)
            assert stack.mean.shape == (len(actions), model.state_dim)
            for i, a in enumerate(actions):
                mean, variance = conditional_1d(model, state, a)
                assert np.array_equal(stack.mean[i], mean)
                assert np.array_equal(stack.variance[i], variance)
                one = model.conditional(state, a)
                assert one.mean.shape == (model.state_dim,)
                assert np.array_equal(one.mean, mean)
                assert np.array_equal(one.variance, variance)

    def test_vector_action_is_one_action(self):
        model, state = two_action_model(), np.array([0.3, -0.4])
        g = model.conditional(state, [0.5, -1.0])
        stack = model.conditional(state, [[0.5, -1.0]])
        assert g.mean.shape == (2,) and stack.mean.shape == (1, 2)
        assert np.array_equal(g.mean, stack.mean[0])

    @pytest.mark.parametrize(
        "state, action, match",
        [
            ([np.nan, 0.0], [0.5, -1.0], "state must be a finite vector of length 2"),
            ([0.0], [0.5, -1.0], "state must be a finite vector of length 2"),
            ([0.0, 0.0], [0.5], "action entry must be a finite vector of length 2"),
            ([0.0, 0.0], [[0.5, -1.0, 2.0]], "action entry must be a finite"),
            ([0.0, 0.0], [[0.5, np.inf]], "action entry must be a finite"),
            ([0.0, 0.0], np.empty((0, 2)), "action must be non-empty"),
        ],
        ids=["state_nan", "state_length", "action_length", "batch_width", "batch_inf",
             "batch_empty"],
    )
    def test_bad_input_rejected_before_evaluation(self, monkeypatch, state, action, match):
        model = two_action_model()
        calls = []
        monkeypatch.setattr(empkit.nets, "forward_point", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=match):
            model.conditional(state, action)
        assert calls == []


class TestDiscreteChannel:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteChannel([[0.5, 0.4], [0.5, 0.5]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            DiscreteChannel([[1.5, -0.5], [0.5, 0.5]])

    def test_shape_properties(self):
        ch = DiscreteChannel([[0.2, 0.3, 0.5]])
        assert ch.n_actions == 1
        assert ch.n_states == 3

    def test_matrix_is_read_only(self):
        ch = DiscreteChannel(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            ch.transition[0, 0] = 1.0

    def test_caller_matrix_stays_writable_and_detached(self):
        P = np.eye(2)
        ch = DiscreteChannel(P)
        P[0, 0] = 0.5
        np.testing.assert_array_equal(ch.transition, np.eye(2))
        np.testing.assert_array_equal(ch.right, np.eye(2))

    def test_caller_factors_stay_writable_and_detached(self):
        left, right = np.ones((2, 1)), np.eye(2)
        ch = DiscreteChannel.from_factors(left, right)
        left[0, 0], right[0, 0] = 0.5, 0.5
        np.testing.assert_array_equal(ch.left, np.ones((2, 1)))
        np.testing.assert_array_equal(ch.right, np.eye(2))
        np.testing.assert_array_equal(ch.transition, np.eye(2))

    def test_matrix_is_its_own_right_factor(self):
        P = np.array([[0.2, 0.8], [0.6, 0.4]])
        ch = DiscreteChannel(P)
        np.testing.assert_array_equal(ch.left, np.ones((2, 1)))
        np.testing.assert_array_equal(ch.right, P)

    def test_from_factors_builds_row_kronecker_products(self):
        rng = np.random.default_rng(12)
        left, right = rng.dirichlet(np.ones(3), size=4), rng.dirichlet(np.ones(5), size=4)
        ch = DiscreteChannel.from_factors(left, right)
        for a in range(4):
            np.testing.assert_array_equal(ch.transition[a], np.kron(left[a], right[a]))
        np.testing.assert_array_equal(ch.left, left)
        np.testing.assert_array_equal(ch.right, right)
        with pytest.raises(ValueError):
            ch.left[0, 0] = 1.0

    @pytest.mark.parametrize(
        "left, right, match",
        [
            ([[1.0], [1.0]], [[0.5, 0.5]], "one row per action"),
            ([1.0], [[0.5, 0.5]], "one row per action"),
            ([[-1.0]], [[-0.5, -0.5]], "factor entries must be >= 0"),
            ([[0.5]], [[0.5, 0.5]], "every row must sum to 1"),
        ],
        ids=["row_count", "vector_left", "negative", "row_sum"],
    )
    def test_from_factors_rejects_bad_factors(self, left, right, match):
        with pytest.raises(ValueError, match=match):
            DiscreteChannel.from_factors(left, right)


class TestBlahutArimoto:
    def test_identical_rows_zero_capacity(self):
        ch = DiscreteChannel([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
        res = blahut_arimoto(ch)
        assert res.converged
        assert res.capacity == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_identity_channel(self):
        for n in (2, 3, 5):
            ch = DiscreteChannel(np.eye(n))
            res = blahut_arimoto(ch)
            assert res.converged
            assert res.capacity == pytest.approx(np.log(n), abs=1e-9)
            np.testing.assert_allclose(
                res.input_distribution, np.full(n, 1.0 / n), atol=1e-9
            )

    def test_binary_symmetric_channel_closed_form(self):
        eps = 0.1
        ch = DiscreteChannel([[1 - eps, eps], [eps, 1 - eps]])
        res = blahut_arimoto(ch)
        expected = np.log(2) + eps * np.log(eps) + (1 - eps) * np.log(1 - eps)
        assert res.converged
        assert res.capacity == pytest.approx(expected, abs=1e-12)

    def test_binary_erasure_channel_closed_form(self):
        eps = 0.3
        ch = DiscreteChannel([[1 - eps, 0.0, eps], [0.0, 1 - eps, eps]])
        res = blahut_arimoto(ch)
        assert res.capacity == pytest.approx((1 - eps) * np.log(2), abs=1e-9)

    def test_matches_grid_search_on_random_two_row_channels(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            P = rng.dirichlet(np.ones(4), size=2)
            res = blahut_arimoto(DiscreteChannel(P))
            ref = two_row_capacity_grid_search(P)
            assert res.capacity == pytest.approx(ref, abs=1e-6)

    def test_lower_bounds_monotone_nondecreasing(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            P = rng.dirichlet(np.ones(5), size=6)
            res = blahut_arimoto(DiscreteChannel(P))
            lb = np.array(res.lower_bounds)
            assert np.all(np.diff(lb) >= -1e-12)

    def test_capacity_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, s = rng.integers(2, 7, size=2)
            P = rng.dirichlet(np.ones(s), size=a)
            res = blahut_arimoto(DiscreteChannel(P))
            assert 0.0 <= res.capacity <= np.log(min(a, s)) + 1e-9

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        P = rng.dirichlet(np.ones(4), size=4)
        base = blahut_arimoto(DiscreteChannel(P)).capacity
        for perm in itertools.islice(itertools.permutations(range(4)), 6):
            permuted = blahut_arimoto(DiscreteChannel(P[list(perm)])).capacity
            assert permuted == pytest.approx(base, abs=1e-9)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(7)
        P = rng.dirichlet(np.ones(5), size=3)
        base = blahut_arimoto(DiscreteChannel(P)).capacity
        shuffled = blahut_arimoto(DiscreteChannel(P[:, [4, 2, 0, 1, 3]])).capacity
        assert shuffled == pytest.approx(base, abs=1e-9)

    def test_input_distribution_is_valid(self):
        rng = np.random.default_rng(8)
        P = rng.dirichlet(np.ones(6), size=4)
        res = blahut_arimoto(DiscreteChannel(P))
        assert np.all(res.input_distribution >= 0)
        assert res.input_distribution.sum() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_parameters_rejected(self):
        ch = DiscreteChannel([[0.5, 0.5]])
        with pytest.raises(ValueError):
            blahut_arimoto(ch, tol=0.0)
        with pytest.raises(ValueError):
            blahut_arimoto(ch, max_iter=0)

    def test_result_fields(self):
        res = blahut_arimoto(DiscreteChannel(np.eye(2)))
        assert isinstance(res, CapacityResult)
        assert res.iterations >= 1
        assert len(res.lower_bounds) == res.iterations
        assert res.gap >= 0
        assert not res.converged or res.gap < 1e-9
        P = np.random.default_rng(10).dirichlet(np.ones(4), size=3)
        cut = blahut_arimoto(DiscreteChannel(P), tol=1e-6, max_iter=1)
        assert cut.gap >= 1e-6
        assert not cut.converged

    @pytest.mark.parametrize("case", ["zero_column", "dirichlet", "ac5_state"])
    def test_matches_textbook_update(self, case):
        if case == "zero_column":
            channels = [
                np.array(
                    [[0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.3, 0.7], [0.2, 0.0, 0.0, 0.8]]
                )
            ]
            tol = 1e-12
        elif case == "dirichlet":
            rng = np.random.default_rng(11)
            channels = [rng.dirichlet(np.ones(6), size=5) for _ in range(5)]
            tol = 1e-12
        else:
            channels = [ac5_channel()]
            tol = 1e-3
        for P in channels:
            res = blahut_arimoto(DiscreteChannel(P), tol=tol)
            capacity, iterations, lower_bounds = textbook_blahut_arimoto(P, tol)
            assert res.iterations == iterations
            assert res.capacity == pytest.approx(capacity, abs=1e-12)
            np.testing.assert_allclose(res.lower_bounds, lower_bounds, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_product_channel_matches_its_matrix(self, dims):
        """BA on the factors equals BA on the plain matrix they multiply out
        to, for D Dirichlet factors (the last one holding zero entries,
        including a bin no action reaches)."""
        rng = np.random.default_rng(13 + dims)
        factors = [rng.dirichlet(np.ones(n), size=6) for n in (4, 3, 5)[:dims]]
        last = factors[-1]
        last[:, 1] = 0.0
        last[[0, 3], 2] = 0.0
        factors[-1] = last / last.sum(axis=1, keepdims=True)
        left = np.ones((6, 1))
        for f in factors[:-1]:
            left = row_kron(left, f)
        ch = DiscreteChannel.from_factors(left, factors[-1])
        res = blahut_arimoto(ch, tol=1e-10)
        ref = blahut_arimoto(DiscreteChannel(ch.transition), tol=1e-10)
        assert res.converged and res.iterations == ref.iterations
        assert res.capacity == pytest.approx(ref.capacity, abs=1e-12)
        assert res.gap == pytest.approx(ref.gap, abs=1e-12)
        np.testing.assert_allclose(res.lower_bounds, ref.lower_bounds, rtol=0, atol=1e-12)


# Each property holds whether or not BA converges within max_iter, so a
# budget below the default keeps slowly converging draws cheap.
_PROPERTY_BA = {"tol": 1e-10, "max_iter": 2_000}


class TestBlahutArimotoProperties:
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(P=dirichlet_rows())
    def test_capacity_within_log_of_smaller_alphabet(self, P):
        res = blahut_arimoto(DiscreteChannel(P), **_PROPERTY_BA)
        # 1e-12: a single action's capacity is 0 up to rounding
        assert 0.0 <= res.capacity <= np.log(min(P.shape)) + 1e-12

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(P=dirichlet_rows())
    def test_capacity_is_last_of_nondecreasing_lower_bounds(self, P):
        res = blahut_arimoto(DiscreteChannel(P), **_PROPERTY_BA)
        assert np.all(np.diff(res.lower_bounds) >= -1e-12)
        assert res.capacity == max(res.lower_bounds[-1], 0.0)
        assert res.gap >= 0.0

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_capacity_invariant_under_row_and_column_permutation(self, data):
        P = data.draw(dirichlet_rows())
        rows = data.draw(st.permutations(range(P.shape[0])))
        cols = data.draw(st.permutations(range(P.shape[1])))
        base = blahut_arimoto(DiscreteChannel(P), **_PROPERTY_BA).capacity
        permuted = DiscreteChannel(P[np.ix_(rows, cols)])
        assert blahut_arimoto(permuted, **_PROPERTY_BA).capacity == pytest.approx(
            base, abs=1e-9
        )

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_factored_channel_matches_dense_matrix(self, data):
        left = data.draw(dirichlet_rows())
        right = data.draw(dirichlet_rows(n_rows=len(left)))
        factored = DiscreteChannel.from_factors(left, right)
        dense = DiscreteChannel(row_kron(left, right))
        assert blahut_arimoto(factored, **_PROPERTY_BA).capacity == pytest.approx(
            blahut_arimoto(dense, **_PROPERTY_BA).capacity, abs=1e-9
        )


class TestDiscretizeDynamics:
    @pytest.mark.parametrize("case", ["ac5_state", "shift_1d", "mixing_3d"])
    def test_equals_per_action_outer_products(self, case):
        if case == "ac5_state":
            args = ac5_inputs()
        elif case == "shift_1d":
            args = (shift_model(0.7), [0.2], [[-1.0], [0.0], [1.5]], [np.linspace(-3, 3, 12)])
        else:
            edges = [np.linspace(-4, 4, n) for n in (6, 4, 8)]
            args = (mixing_model(), [0.5, -1.0, 0.3], [[-1.0], [0.0], [2.0]], edges)
        ch = discretize_dynamics(*args)
        assert np.array_equal(ch.transition, outer_loop_discretization(*args))

    @pytest.mark.parametrize(
        "state, actions, edges, match",
        [
            ([0.0, 0.0], [[0.0]], [[-1.0, 1.0]], "state must be a finite vector of length 1"),
            ([np.inf], [[0.0]], [[-1.0, 1.0]], "state must be a finite vector of length 1"),
            ([0.0], [[0.0, 1.0]], [[-1.0, 1.0]], "action_grid entry must be a finite"),
            ([0.0], [[np.nan]], [[-1.0, 1.0]], "action_grid entry must be a finite"),
            ([0.0], [[0.0], [0.0, 1.0]], [[-1.0, 1.0]], "action_grid entry must be a finite"),
            ([0.0], [], [[-1.0, 1.0]], "action_grid must be non-empty"),
            ([0.0], [[0.0]], [[-1.0, np.nan, 1.0]], "bin edges must be strictly increasing"),
        ],
        ids=[
            "state_length",
            "state_inf",
            "action_length",
            "action_nan",
            "action_ragged",
            "action_empty",
            "edge_nan",
        ],
    )
    def test_bad_input_rejected_before_any_conditional(
        self, monkeypatch, state, actions, edges, match
    ):
        calls = forbid_evaluation(monkeypatch)
        with pytest.raises(ValueError, match=match):
            discretize_dynamics(shift_model(), state, actions, edges)
        assert calls == []

    def test_flat_grid_of_scalar_actions(self):
        model, edges = shift_model(0.7), [np.linspace(-3, 3, 12)]
        flat = discretize_dynamics(model, [0.2], [-1.0, 0.0, 1.5], edges)
        rows = discretize_dynamics(model, [0.2], [[-1.0], [0.0], [1.5]], edges)
        assert np.array_equal(flat.transition, rows.transition)

    def test_rows_sum_to_one_exactly(self):
        model = shift_model(sigma=0.7)
        edges = [np.linspace(-3, 3, 12)]
        ch = discretize_dynamics(model, [0.0], [[-1.0], [0.0], [1.0]], edges)
        np.testing.assert_allclose(ch.transition.sum(axis=1), 1.0, atol=1e-14)

    def test_mean_on_center_edge_splits_mass_evenly(self):
        model = shift_model(sigma=0.5)
        # mean lands exactly on the shared edge of two wide bins
        ch = discretize_dynamics(model, [0.0], [[0.0]], [[-10.0, 0.0, 10.0]])
        np.testing.assert_allclose(ch.transition[0], [0.5, 0.5], atol=1e-12)

    def test_bin_mass_matches_normal_cdf(self):
        from scipy.stats import norm

        sigma = 0.4
        model = shift_model(sigma)
        edges = np.linspace(-2, 2, 9)
        ch = discretize_dynamics(model, [0.0], [[0.3]], [edges])
        interior = norm.cdf(edges[1:], loc=0.3, scale=sigma) - norm.cdf(
            edges[:-1], loc=0.3, scale=sigma
        )
        # outermost bins absorb the tails
        expected = interior.copy()
        expected[0] += norm.cdf(edges[0], loc=0.3, scale=sigma)
        expected[-1] += 1.0 - norm.cdf(edges[-1], loc=0.3, scale=sigma)
        np.testing.assert_allclose(ch.transition[0], expected, atol=1e-12)

    def test_tiny_variance_concentrates_in_one_bin(self):
        model = shift_model(sigma=1e-6)
        edges = [np.linspace(-3, 3, 13)]  # 12 bins of width 0.5
        ch = discretize_dynamics(model, [0.0], [[0.75]], edges)
        assert ch.transition[0].max() == pytest.approx(1.0, abs=1e-9)
        # mean 0.75 sits in bin [0.5, 1.0)
        assert np.argmax(ch.transition[0]) == 7

    def test_empty_action_grid_rejected(self):
        with pytest.raises(ValueError):
            discretize_dynamics(shift_model(), [0.0], [], [[-1.0, 1.0]])

    def test_non_monotone_edges_rejected(self):
        with pytest.raises(ValueError):
            discretize_dynamics(shift_model(), [0.0], [[0.0]], [[1.0, 0.0]])

    def test_edge_count_must_match_state_dim(self):
        with pytest.raises(ValueError):
            discretize_dynamics(
                shift_model(), [0.0], [[0.0]], [[-1.0, 1.0], [-1.0, 1.0]]
            )


class TestOracleEmpowerment:
    def test_shift_channel_capacity_increases_with_action_range(self):
        model = shift_model(sigma=0.5)
        caps = [
            oracle_empowerment(model, [0.0], action_range=r).capacity
            for r in (0.5, 1.0, 2.0, 4.0)
        ]
        assert np.all(np.diff(caps) > 0)

    def test_shift_channel_translation_invariant(self):
        model = shift_model(sigma=0.5)
        a = oracle_empowerment(model, [0.0]).capacity
        b = oracle_empowerment(model, [10.0]).capacity
        assert a == pytest.approx(b, rel=1e-6)

    def test_capacity_stable_under_bin_refinement(self):
        model = shift_model(sigma=0.5)
        coarse = oracle_empowerment(model, [0.0], bins=41).capacity
        fine = oracle_empowerment(model, [0.0], bins=161).capacity
        assert coarse == pytest.approx(fine, rel=2e-2)

    def test_matches_awgn_upper_bound(self):
        # amplitude-constrained AWGN is bounded by the power-constrained
        # Shannon capacity 0.5 ln(1 + A^2 / sigma^2)
        sigma, amp = 0.5, 4.0
        model = shift_model(sigma)
        cap = oracle_empowerment(model, [0.0], action_range=amp).capacity
        assert cap <= 0.5 * np.log(1 + amp**2 / sigma**2) + 1e-9
        assert cap > 0.5 * np.log(1 + amp**2 / sigma**2) - np.log(2)

    @pytest.mark.parametrize(
        "state, kwargs, match",
        [
            ([0.0], {}, "state must be a finite vector of length 2"),
            ([np.inf, 0.0], {}, "state must be a finite vector of length 2"),
            ([0.0, 0.0], {"n_actions": 0}, "n_actions must be >= 1"),
            ([0.0, 0.0], {"bins": 0}, "bins must be >= 1"),
            ([0.0, 0.0], {"n_actions": 2.5}, "n_actions must be an integer"),
            ([0.0, 0.0], {"bins": 2.5}, "bins must be an integer"),
            ([0.0, 0.0], {"bins": 41.0}, "bins must be an integer"),
            ([0.0, 0.0], {"pad_sigma": -1.0}, "pad_sigma must be positive"),
            ([0.0, 0.0], {"pad_sigma": np.inf}, "pad_sigma must be positive"),
            ([0.0, 0.0], {"action_range": np.nan}, "action_range must be finite"),
        ],
        ids=[
            "state_length",
            "state_inf",
            "n_actions",
            "bins",
            "n_actions_fraction",
            "bins_fraction",
            "bins_float",
            "pad_sigma_negative",
            "pad_sigma_inf",
            "action_range_nan",
        ],
    )
    def test_bad_input_rejected_before_any_conditional(
        self, monkeypatch, state, kwargs, match
    ):
        model = build_pendulum_dynamics(PendulumParams())
        calls = forbid_evaluation(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                oracle_empowerment(model, state, **kwargs)
        assert calls == []

    def test_vector_action_rejected(self):
        layer = LayerSpec(np.zeros((2, 3)), [0.0, 0.0])
        model = DynamicsModel(
            FeedforwardNet((layer,)), state_dim=1, action_dim=2
        )
        with pytest.raises(ValueError):
            oracle_empowerment(model, [0.0])
