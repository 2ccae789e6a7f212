import itertools
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import spearmanr

import empkit.channel
import empkit.nets

from empkit import (
    CapacityResult,
    DiagonalGaussian,
    DiscreteChannel,
    DynamicsModel,
    FeedforwardNet,
    LayerSpec,
    OptimizerOptions,
    PendulumParams,
    blahut_arimoto,
    build_pendulum_dynamics,
    discretize_dynamics,
    maximize_empowerment,
    oracle_empowerment,
)


def two_row_capacity_grid_search(P, n=20_001):
    """Independent oracle for 2-action channels: scan p in [0,1] directly,
    all n grid points at once."""
    p = np.linspace(0.0, 1.0, n)
    m = p[:, None] * P[0] + (1 - p[:, None]) * P[1]
    mi = np.zeros(n)
    for w, row in ((p, P[0]), (1 - p, P[1])):
        # terms with row = 0 or m = 0 contribute 0 (0 log 0 = 0)
        pos = (row > 0) & (m > 0)
        ratio = np.where(pos, row / np.where(pos, m, 1.0), 1.0)
        mi += w * np.sum(row * np.log(ratio), axis=1)
    return max(0.0, mi.max())


def textbook_blahut_arimoto(P, tol, max_iter=10_000):
    """Reference: the textbook update, p_a <- p_a exp(D_a) normalized,
    written out with full-matrix temporaries.  Returns the capacity, the
    Arimoto gap of the last iterate and the lower bound per iteration."""
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
    return max(lower, 0.0), upper - lower, np.array(lower_bounds)


def ac5_inputs(state=(-np.pi / 2, -4.0)):
    """Model, state, action grid and bin edges with which oracle_empowerment
    discretizes a state of the AC-5 sweep (by default its midpoint, angle
    -pi/2, velocity -4)."""
    model = build_pendulum_dynamics(PendulumParams())
    state = np.array(state, dtype=float)
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
    model, state, acts, edges = ac5_inputs()
    P = discretize_dynamics(model.conditional(state, acts), edges).transition
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


def random_channels(n):
    """The first ``n`` of the random channels on which ``blahut_arimoto``'s
    convergence is counted: from ``default_rng(0)``, sizes from
    ``integers(1, 7, size=2)`` and Dirichlet rows with alpha cycling over
    0.2 / 1 / 5."""
    rng = np.random.default_rng(0)
    channels = []
    for i in range(n):
        a, s = rng.integers(1, 7, size=2)
        channels.append(rng.dirichlet(np.full(s, (0.2, 1.0, 5.0)[i % 3]), size=a))
    return channels


def assert_bounds_of_input_distribution(P, res):
    """``res`` reports the Arimoto bounds of its own input distribution on
    the strictly positive channel ``P``."""
    p = res.input_distribution
    D = np.einsum("as,as->a", P, np.log(P / (p @ P)))
    assert float(p @ D) == pytest.approx(res.capacity, abs=1e-12)
    assert float(D.max() - p @ D) == pytest.approx(res.gap, abs=1e-12)


def row_kron(left, right):
    return np.einsum("ai,aj->aij", left, right).reshape(len(left), -1)


def dense_rule_rejects(left, right):
    """The check on the multiplied-out channel: a negative factor entry, or
    a product that is not a finite matrix whose rows sum to 1 within 1e-9."""
    if (left < 0).any() or (right < 0).any():
        return True
    P = row_kron(left, right)
    return not (np.isfinite(P).all() and (np.abs(P.sum(axis=1) - 1.0) <= 1e-9).all())


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


# entries that a factor check has to get right: zeros, negatives, NaN,
# infinities, and finite values whose products or sums overflow
_EDGE_ENTRIES = [0.0, -0.25, np.nan, np.inf, -np.inf, 1e308, np.finfo(float).max]


@st.composite
def factor_pairs(draw):
    """Dirichlet factors with the same row count, a few of whose entries or
    whole rows are replaced by ``_EDGE_ENTRIES``."""
    left = draw(dirichlet_rows())
    right = draw(dirichlet_rows(n_rows=len(left)))
    for f in (left, right):
        for _ in range(draw(st.integers(0, 2))):
            row = draw(st.integers(0, len(f) - 1))
            cols = slice(None) if draw(st.booleans()) else draw(st.integers(0, f.shape[1] - 1))
            f[row, cols] = draw(st.sampled_from(_EDGE_ENTRIES))
    return left, right


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


PLAIN_ACTIVATION = {"tanh": np.tanh, "sine": np.sin, "identity": lambda z: z}


def conditional_1d(model, state, action):
    """Reference: one action through the net as a plain vector, layer by
    layer and unit by unit with numpy's function of each unit's tag, as
    mean and variance of p(x'|x,a)."""
    h = np.concatenate([state, action])
    for layer in model.net.layers:
        z = h @ layer.weights.T + layer.bias
        tags = layer.activation
        if isinstance(tags, str):
            tags = (tags,) * len(z)
        h = np.array([PLAIN_ACTIVATION[t](zu) for t, zu in zip(tags, z)])
    d = model.state_dim
    return h[:d], np.exp(2.0 * h[d:])


def two_action_model():
    """2-D state, 2-D action, two mixed-activation layers."""
    rng = np.random.default_rng(21)
    tags = ("tanh", "sine", "sine", "identity", "tanh")
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
        "model, state, action, match",
        [
            ("two", [np.nan, 0.0], [0.5, -1.0], "state must be a finite vector of length 2"),
            ("two", [0.0], [0.5, -1.0], "state must be a finite vector of length 2"),
            ("two", [0.0, 0.0], [0.5], "action entry must be a finite vector of length 2"),
            ("two", [0.0, 0.0], [[0.5, -1.0, 2.0]], "action entry must be a finite"),
            ("two", [0.0, 0.0], [[0.5, np.inf]], "action entry must be a finite"),
            ("two", [0.0, 0.0], np.empty((0, 2)), "action must be non-empty"),
            ("shift", [0.0, 0.0], [[0.0]], "state must be a finite vector of length 1"),
            ("shift", [np.inf], [[0.0]], "state must be a finite vector of length 1"),
            ("shift", [0.0], [[0.0, 1.0]], "action entry must be a finite vector of length 1"),
            ("shift", [0.0], [[np.nan]], "action entry must be a finite vector of length 1"),
            ("shift", [0.0], [[0.0], [0.0, 1.0]], "action entry must be a finite"),
            ("shift", [0.0], [], "action must be non-empty"),
            ("pendulum", [0, 0], [[0.0], [0.0, 1.0]], "action entry must be a finite"),
        ],
        ids=["state_nan", "state_length", "action_length", "batch_width", "batch_inf",
             "batch_empty", "shift_state_length", "shift_state_inf", "shift_action_length",
             "shift_action_nan", "shift_action_ragged", "shift_action_empty",
             "pendulum_action_ragged"],
    )
    def test_bad_input_rejected_before_evaluation(
        self, monkeypatch, model, state, action, match
    ):
        model = {
            "two": two_action_model,
            "shift": shift_model,
            "pendulum": lambda: build_pendulum_dynamics(PendulumParams()),
        }[model]()
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
        assert set(vars(ch)) == {"left", "right"}
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
        assert set(vars(ch)) == {"left", "right"}
        assert (ch.n_actions, ch.n_states) == (4, 15)
        for a in range(4):
            np.testing.assert_array_equal(ch.transition[a], np.kron(left[a], right[a]))
        np.testing.assert_array_equal(ch.left, left)
        np.testing.assert_array_equal(ch.right, right)
        for array in (ch.left, ch.transition):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(factors=factor_pairs())
    @example(factors=(np.array([[1e308, 1e308]]), np.array([[0.0, 0.0]])))
    def test_rejects_exactly_what_the_dense_rule_rejects(self, factors):
        """Both constructors accept a factor pair exactly when the product
        passes the dense check, and then ``transition`` is that product, bit
        for bit."""
        left, right = factors
        with np.errstate(all="ignore"):
            cases = [
                (left, right, lambda: DiscreteChannel.from_factors(left, right)),
                (np.ones((len(right), 1)), right, lambda: DiscreteChannel(right)),
            ]
            for lf, rf, build in cases:
                if dense_rule_rejects(lf, rf):
                    with pytest.raises(ValueError):
                        build()
                else:
                    expected = row_kron(lf, rf)
                    assert build().transition.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "left, right, match",
        [
            ([[1.0], [1.0]], [[0.5, 0.5]], "one row per action"),
            ([1.0], [[0.5, 0.5]], "one row per action"),
            ([[-1.0]], [[-0.5, -0.5]], "factor entries must be >= 0"),
            ([[0.5]], [[0.5, 0.5]], "every row must sum to 1"),
            (np.ones((0, 1)), np.ones((0, 2)), "non-empty matrices"),
            ([[1.0]], np.ones((1, 0)), "non-empty matrices"),
            ([[1e308, 1e308]], [[0.0, 0.0]], "every row must sum to 1"),
            ([[np.inf]], [[1.0, 0.0]], "every row must sum to 1"),
        ],
        ids=["row_count", "vector_left", "negative", "row_sum", "no_rows", "no_columns",
             "overflowing_sum", "inf_times_zero"],
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
        for tol in (np.nan, np.inf, True):
            with pytest.raises(ValueError, match="tol must be a positive finite number"):
                blahut_arimoto(ch, tol=tol)
        for max_iter in (2.5, True):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                blahut_arimoto(ch, max_iter=max_iter)
        assert blahut_arimoto(ch, tol=np.float32(1e-3), max_iter=np.int64(3)).converged

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_cut_run_reports_bounds_of_its_input_distribution(self, max_iter):
        P = np.random.default_rng(12).dirichlet(np.ones(5), size=4)
        res = blahut_arimoto(DiscreteChannel(P), tol=1e-12, max_iter=max_iter)
        assert not res.converged and res.iterations == max_iter
        assert_bounds_of_input_distribution(P, res)

    def test_discarded_trial_repeats_the_bound_and_keeps_the_iterate(self):
        """An over-relaxed trial that does not raise the bound is discarded:
        its evaluation counts, ``lower_bounds`` repeats the current
        iterate's entry, a run cut right after it returns that iterate, and
        the next step, a textbook one, raises the bound."""
        P = np.random.default_rng(12).dirichlet(np.ones(5), size=4)
        lb = np.array(blahut_arimoto(DiscreteChannel(P), tol=1e-12).lower_bounds)
        # lb[k] == lb[k - 1]: evaluation k + 1 was a discarded trial
        k = int(np.flatnonzero(np.diff(lb) == 0)[0]) + 1
        assert k > 2 and (np.diff(lb[:k]) > 0).all() and lb[k + 1] > lb[k]
        before = blahut_arimoto(DiscreteChannel(P), tol=1e-12, max_iter=k)
        after = blahut_arimoto(DiscreteChannel(P), tol=1e-12, max_iter=k + 1)
        # far from converged, so the trial lowered the bound: no rounding tie
        assert before.gap > 1e-4
        assert after.iterations == k + 1
        assert after.lower_bounds == before.lower_bounds + before.lower_bounds[-1:]
        np.testing.assert_array_equal(after.input_distribution, before.input_distribution)
        for res in (before, after):
            assert not res.converged
            assert_bounds_of_input_distribution(P, res)

    def test_ac5_channel_converges_in_few_evaluations(self):
        # the textbook update takes 380 evaluations here
        res = blahut_arimoto(DiscreteChannel(ac5_channel()), tol=1e-3)
        assert res.converged and res.iterations <= 200

    @pytest.mark.parametrize("seed", [12, 13])
    def test_extrapolation_trial_follows_the_textbook_step(self, seed):
        """After a discarded trial (evaluation k) and the textbook step, the
        next evaluation is the extrapolation trial q ~ p (p / anchor), whose
        anchor is at first the uniform start.  Taken (seed 12), it moves
        the iterate there; discarded (seed 13), its evaluation counts,
        ``lower_bounds`` repeats the current iterate's entry and a run cut
        right after it returns that iterate."""
        P = np.random.default_rng(seed).dirichlet(np.ones(5), size=4)
        lb = np.array(blahut_arimoto(DiscreteChannel(P), tol=1e-12).lower_bounds)
        k = int(np.flatnonzero(np.diff(lb) == 0)[0]) + 1
        # the first trial after the textbook step of evaluation k + 1
        j = k + 2
        before = blahut_arimoto(DiscreteChannel(P), tol=1e-12, max_iter=j)
        after = blahut_arimoto(DiscreteChannel(P), tol=1e-12, max_iter=j + 1)
        assert lb[k + 1] > lb[k] and before.gap > 1e-4
        p = before.input_distribution
        if seed == 12:
            assert lb[j] > lb[j - 1]
            np.testing.assert_allclose(
                after.input_distribution, p * p / (p @ p), rtol=1e-12, atol=0
            )
        else:
            assert after.lower_bounds == before.lower_bounds + before.lower_bounds[-1:]
            np.testing.assert_array_equal(after.input_distribution, p)
        for res in (before, after):
            assert not res.converged
            assert_bounds_of_input_distribution(P, res)

    def test_ac5_channel_converges_in_at_most_50_evaluations(self):
        # the over-relaxed step without extrapolation took 137 here
        res = blahut_arimoto(DiscreteChannel(ac5_channel()), tol=1e-3)
        assert res.converged and res.iterations <= 50

    @pytest.mark.parametrize("draw", [147, 174, 325, 477])
    def test_converges_at_defaults_where_the_over_relaxed_step_stalled(self, draw):
        """Random channels whose gap stalled between 1.3e-8 and 1.7e-5 at
        ``max_iter`` under the over-relaxed step without extrapolation."""
        P = random_channels(draw + 1)[draw]
        res = blahut_arimoto(DiscreteChannel(P))
        assert res.converged and res.iterations < 10_000
        assert_bounds_of_input_distribution(P, res)

    def test_converges_at_defaults_where_the_textbook_update_stalls(self):
        """A 5 x 2 channel (draw 14 of 600 from ``default_rng(0)``: sizes
        from ``integers(1, 7, size=2)``, Dirichlet rows with alpha cycling
        over 0.2 / 1 / 5) whose optimal input leaves actions unused: the
        textbook update stops at 10,000 iterations with a gap of 1.5e-6."""
        P = np.array(
            [
                [0.7584522224095516, 0.24154777759044835],
                [0.3774109854446611, 0.6225890145553389],
                [0.5799364209244284, 0.42006357907557157],
                [0.7577493486904985, 0.24225065130950146],
                [0.588062493854511, 0.41193750614548885],
            ]
        )
        res = blahut_arimoto(DiscreteChannel(P))
        capacity, gap, lower_bounds = textbook_blahut_arimoto(P, 1e-9)
        assert len(lower_bounds) == 10_000 and gap > 1e-6
        assert res.converged and res.iterations < 10_000
        assert res.capacity <= capacity + gap and capacity <= res.capacity + res.gap

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
        """The first two lower bounds (the uniform start and the first step,
        at mu = 1) are the textbook's; after that the paths part, and only
        what any path must satisfy is checked: both runs converge to
        intervals that hold the capacity, and at tol 1e-12 they agree."""
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
            capacity, gap, lower_bounds = textbook_blahut_arimoto(P, tol)
            np.testing.assert_allclose(
                res.lower_bounds[:2], lower_bounds[:2], rtol=0, atol=1e-12
            )
            assert res.converged and gap < tol
            assert res.capacity <= capacity + gap and capacity <= res.capacity + res.gap
            if tol == 1e-12:
                assert res.capacity == pytest.approx(capacity, abs=1e-12)

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
        model, state, actions, edges = args
        ch = discretize_dynamics(model.conditional(state, actions), edges)
        assert np.array_equal(ch.transition, outer_loop_discretization(*args))

    def test_evaluates_no_model(self, monkeypatch):
        model, edges = shift_model(0.7), [np.linspace(-3, 3, 12)]
        stack = model.conditional([0.2], [[-1.0], [0.0], [1.5]])
        calls = forbid_evaluation(monkeypatch)
        assert discretize_dynamics(stack, edges).n_actions == 3
        assert calls == []

    @pytest.mark.parametrize(
        "conditionals, edges, match",
        [
            (
                DiagonalGaussian([[0.0]], [[1.0]]),
                [[-1.0, np.nan, 1.0]],
                "bin edges must be strictly increasing",
            ),
            (
                DiagonalGaussian([0.0], [1.0]),
                [[-1.0, 1.0]],
                "conditionals must be a stack",
            ),
            (
                # the zero-variance mean sits on an edge: 0/0 if binned
                DiagonalGaussian([[0.0, 0.0], [1.0, 0.5]], [[1.0, 0.0], [1.0, 1.0]]),
                [np.linspace(-2, 2, 5)] * 2,
                "conditionals must have positive variances",
            ),
        ],
        ids=["edge_nan", "single_gaussian", "zero_variance"],
    )
    def test_bad_input_rejected(self, conditionals, edges, match):
        with pytest.raises(ValueError, match=match):
            discretize_dynamics(conditionals, edges)

    def test_rows_sum_to_one_exactly(self):
        model = shift_model(sigma=0.7)
        edges = [np.linspace(-3, 3, 12)]
        ch = discretize_dynamics(model.conditional([0.0], [[-1.0], [0.0], [1.0]]), edges)
        np.testing.assert_allclose(ch.transition.sum(axis=1), 1.0, atol=1e-14)

    def test_mean_on_center_edge_splits_mass_evenly(self):
        model = shift_model(sigma=0.5)
        # mean lands exactly on the shared edge of two wide bins
        ch = discretize_dynamics(model.conditional([0.0], [[0.0]]), [[-10.0, 0.0, 10.0]])
        np.testing.assert_allclose(ch.transition[0], [0.5, 0.5], atol=1e-12)

    def test_bin_mass_matches_normal_cdf(self):
        from scipy.stats import norm

        sigma = 0.4
        model = shift_model(sigma)
        edges = np.linspace(-2, 2, 9)
        ch = discretize_dynamics(model.conditional([0.0], [[0.3]]), [edges])
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
        ch = discretize_dynamics(model.conditional([0.0], [[0.75]]), edges)
        assert ch.transition[0].max() == pytest.approx(1.0, abs=1e-9)
        # mean 0.75 sits in bin [0.5, 1.0)
        assert np.argmax(ch.transition[0]) == 7

    def test_empty_action_grid_rejected(self):
        # an empty grid gives no stack to bin
        with pytest.raises(ValueError):
            shift_model().conditional([0.0], np.empty((0, 1)))

    def test_non_monotone_edges_rejected(self):
        stack = shift_model().conditional([0.0], [[0.0]])
        with pytest.raises(ValueError):
            discretize_dynamics(stack, [[1.0, 0.0]])

    def test_edge_count_must_match_state_dim(self):
        stack = shift_model().conditional([0.0], [[0.0]])
        with pytest.raises(ValueError):
            discretize_dynamics(stack, [[-1.0, 1.0], [-1.0, 1.0]])


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

    @pytest.mark.parametrize("case", ["ac5_state", "shift_1d", "mixing_3d"])
    def test_bins_its_conditionals_six_sigma_past_the_means(self, monkeypatch, case):
        """The stack handed to ``discretize_dynamics`` is the conditionals of
        the action grid, and each dimension's edges span the means padded by
        six of that dimension's largest standard deviation, bit for bit as a
        per-action, per-dimension loop places them."""
        if case == "ac5_state":
            model = build_pendulum_dynamics(PendulumParams())
            state, n, bins = [-np.pi / 2, -4.0], 64, 41
        elif case == "shift_1d":
            model, state, n, bins = shift_model(0.7), [0.2], 9, 15
        else:
            model, state, n, bins = mixing_model(), [0.5, -1.0, 0.3], 5, 7
        discretize_ = empkit.channel.discretize_dynamics
        seen = []

        def recording_discretize(conditionals, state_bins):
            seen.append((conditionals, state_bins))
            return discretize_(conditionals, state_bins)

        monkeypatch.setattr(empkit.channel, "discretize_dynamics", recording_discretize)
        oracle_empowerment(model, state, n_actions=n, bins=bins)
        [(stack, edges)] = seen
        acts = np.linspace(-4.0, 4.0, n)
        conds = [model.conditional(state, [a]) for a in acts]
        means = np.array([g.mean for g in conds])
        variances = np.array([g.variance for g in conds])
        assert np.array_equal(stack.mean, means)
        assert np.array_equal(stack.variance, variances)
        assert len(edges) == model.state_dim
        for d in range(model.state_dim):
            pad = 6.0 * np.sqrt(variances[:, d]).max()
            expected = np.linspace(means[:, d].min() - pad, means[:, d].max() + pad, bins + 1)
            assert np.array_equal(edges[d], expected)

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
            ([0.0, 0.0], {"n_actions": True, "bins": 5}, "n_actions must be an integer"),
            ([0.0, 0.0], {"bins": True}, "bins must be an integer"),
            ([0.0, 0.0], {"action_range": np.nan}, "action_range must be a positive finite"),
            ([0.0, 0.0], {"action_range": "4"}, "action_range must be a positive finite"),
            ([0.0, 0.0], {"action_range": 0}, "action_range must be a positive finite"),
            ([0.0, 0.0], {"action_range": True}, "action_range must be a positive finite"),
            ([0.0, 0.0], {"tol": np.nan}, "tol must be a positive finite number"),
            ([0.0, 0.0], {"tol": 0.0}, "tol must be a positive finite number"),
            ([0.0, 0.0], {"tol": np.inf}, "tol must be a positive finite number"),
            ([0.0, 0.0], {"tol": True}, "tol must be a positive finite number"),
            ([0.0, 0.0], {"max_iter": 2.5}, "max_iter must be an integer"),
            ([0.0, 0.0], {"max_iter": 0}, "max_iter must be >= 1"),
            ([0.0, 0.0], {"max_iter": True}, "max_iter must be an integer"),
        ],
        ids=[
            "state_length",
            "state_inf",
            "n_actions",
            "bins",
            "n_actions_fraction",
            "bins_fraction",
            "bins_float",
            "n_actions_bool",
            "bins_bool",
            "action_range_nan",
            "action_range_str",
            "action_range_zero",
            "action_range_bool",
            "tol_nan",
            "tol_zero",
            "tol_inf",
            "tol_bool",
            "max_iter_fraction",
            "max_iter_zero",
            "max_iter_bool",
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

    def test_builds_no_dense_matrix(self, monkeypatch):
        """At AC-5 settings the oracle works on the 64 x 41 factors: no row
        Kronecker product beyond them, and a peak allocation below the size
        of the 64 x 41^2 matrix."""
        row_kron_ = empkit.channel._row_kron
        shapes = []

        def recording_row_kron(left, right):
            out = row_kron_(left, right)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(empkit.channel, "_row_kron", recording_row_kron)
        model = build_pendulum_dynamics(PendulumParams())
        state = [-np.pi / 2, -4.0]
        oracle_empowerment(model, state)
        shapes.clear()
        tracemalloc.start()
        try:
            res = oracle_empowerment(model, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert shapes == [(64, 41)]
        assert peak < 64 * 41**2 * 8

    def test_vector_action_rejected(self):
        layer = LayerSpec(np.zeros((2, 3)), [0.0, 0.0])
        model = DynamicsModel(
            FeedforwardNet((layer,)), state_dim=1, action_dim=2
        )
        with pytest.raises(ValueError):
            oracle_empowerment(model, [0.0])


def binned_policy(policy, acts):
    """A Gaussian policy's mass on a uniform action grid: each action gets
    its cell, the midpoints to its neighbours, and both tails go to the
    end actions."""
    mids = 0.5 * (acts[1:] + acts[:-1])
    sd = np.exp(policy.action_log_std[0])
    cdf = ndtr((mids - policy.action_mean[0]) / sd)
    return np.diff(np.concatenate([[0.0], cdf, [1.0]]))


def arimoto_bounds(P, p):
    """I(p) = sum_a p_a D_a and max_a D_a from one Blahut-Arimoto divergence
    step on the dense matrix P.  D_a is infinite where row a reaches an
    output bin that p leaves without mass, so I sums over p > 0 only."""
    m = p @ P
    pos = P > 0
    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.where(pos, P, 1.0)) - np.log(np.where(pos, m, 1.0))
    D = np.einsum("as,as->a", P, log_ratio)
    used = p > 0
    return float(p[used] @ D[used]), float(D.max())


class TestCertifiedFloor:
    """The estimator's returned policy, binned onto the oracle's action grid,
    carries exact information I(p) on the oracle's channel: a certified
    floor under the binned capacity (Arimoto: I(p) <= C <= capacity + gap),
    and, as E_a KL(p(x'|a) || q) >= I for any q, under the estimate too."""

    def test_ac5_policies_score_near_capacity(self):
        floors, capacities = [], []
        for i, u in enumerate(np.linspace(0.0, 1.0, 25)):
            state = np.array([-np.pi * (1 - u), -8.0 * (1 - u)])
            model, _, acts, edges = ac5_inputs(state)
            est = maximize_empowerment(model, state, OptimizerOptions(seed=i))
            res = oracle_empowerment(model, state, n_actions=64, bins=41)
            assert res.converged
            P = discretize_dynamics(model.conditional(state, acts), edges).transition
            floor, _ = arimoto_bounds(P, binned_policy(est.policy, np.ravel(acts)))
            assert floor <= res.capacity + res.gap
            assert floor >= 0.85 * res.capacity
            assert est.value >= floor
            floors.append(floor)
            capacities.append(res.capacity)
        assert spearmanr(floors, capacities).statistic >= 0.99


def recorded_oracle(monkeypatch, model, state, **kwargs):
    """``oracle_empowerment``'s result, the channel that it discretized and
    the results of its ``blahut_arimoto`` calls, in order."""
    channels, runs = [], []
    discretize_ = empkit.channel.discretize_dynamics
    ba_ = empkit.channel.blahut_arimoto

    def recording_discretize(*args):
        channels.append(discretize_(*args))
        return channels[-1]

    def recording_ba(*args, **kw):
        runs.append(ba_(*args, **kw))
        return runs[-1]

    monkeypatch.setattr(empkit.channel, "discretize_dynamics", recording_discretize)
    monkeypatch.setattr(empkit.channel, "blahut_arimoto", recording_ba)
    res = oracle_empowerment(model, state, **kwargs)
    [ch] = channels
    return res, ch, runs


def random_net_state(monkeypatch, net, state):
    """Random net ``net`` of ``tools/evaluations.py`` and its state ``state``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    from evaluations import RANDOM_NET_STATES, random_net

    rng = np.random.default_rng(1000 + net)
    model = random_net(rng)
    return model, rng.uniform(-1.0, 1.0, (RANDOM_NET_STATES, 2))[state]


class TestStagedSolve:
    """The oracle runs Blahut-Arimoto on a growing support of actions and
    certifies each answer on the whole channel; past its budget, or where
    a lifted input leaves an output bin without mass, it runs
    ``blahut_arimoto`` on the whole channel."""

    def test_ac5_states_are_certified_on_the_whole_channel(self, monkeypatch):
        model = build_pendulum_dynamics(PendulumParams())
        for u in np.linspace(0.0, 1.0, 25):
            state = [-np.pi * (1 - u), -8.0 * (1 - u)]
            res, ch, runs = recorded_oracle(monkeypatch, model, state)
            assert res.converged
            # every run is on a sub-channel: no fallback
            assert all(r.input_distribution.size < ch.n_actions for r in runs)
            assert res.iterations == 1 + sum(r.iterations + 1 for r in runs)
            lower, upper = arimoto_bounds(ch.transition, res.input_distribution)
            assert res.gap == pytest.approx(upper - lower, rel=1e-9)
            assert res.capacity == res.lower_bounds[-1]
            assert res.lower_bounds == runs[-1].lower_bounds + (res.capacity,)
            assert np.all(np.diff(res.lower_bounds) >= -1e-12)
            assert abs(res.capacity - blahut_arimoto(ch, tol=1e-9).capacity) < 1e-3

    @pytest.mark.parametrize("case", ["budget", "zero_mass"])
    def test_fallback_is_blahut_arimoto_on_the_whole_channel(self, monkeypatch, case):
        if case == "budget":
            model, state = shift_model(0.5), [0.0]
        else:
            model, state = random_net_state(monkeypatch, 0, 1)
        res, ch, runs = recorded_oracle(monkeypatch, model, state)
        *stages, whole = runs
        assert stages and whole.input_distribution.size == ch.n_actions == 64
        spent = 1 + sum(r.iterations + 1 for r in stages)
        if case == "budget":
            # the next stage would need two evaluations past 64 // 2
            assert spent + 2 > 32
        else:
            # every action alone leaves without mass a bin that another
            # action reaches, so the one-action stage falls back at once
            P = ch.transition
            assert ((P == 0) & (P.sum(axis=0) > 0)).any(axis=1).all()
            assert len(stages) == 1 and spent == 3
        ref = blahut_arimoto(ch, tol=1e-3)
        assert res.capacity == ref.capacity
        assert res.gap == ref.gap
        assert res.converged == ref.converged
        assert np.array_equal(res.input_distribution, ref.input_distribution)
        assert res.lower_bounds == ref.lower_bounds
        assert res.iterations == ref.iterations + spent

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    @pytest.mark.parametrize("case", ["shift", "zero_mass"])
    def test_cut_solve_reports_bounds_of_its_input(self, monkeypatch, case, max_iter):
        if case == "shift":
            model, state = shift_model(0.5), [0.0]
        else:
            model, state = random_net_state(monkeypatch, 0, 1)
        res, ch, _ = recorded_oracle(monkeypatch, model, state, max_iter=max_iter)
        assert res.iterations <= max_iter
        assert not res.converged
        lower, upper = arimoto_bounds(ch.transition, res.input_distribution)
        assert res.capacity == pytest.approx(max(lower, 0.0), abs=1e-12)
        assert res.gap == pytest.approx(upper - lower, rel=1e-9)
