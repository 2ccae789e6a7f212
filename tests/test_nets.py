import dataclasses

import numpy as np
import pytest

import empkit.nets
from empkit import (
    DiagonalGaussian,
    FeedforwardNet,
    LayerSpec,
    PendulumParams,
    build_pendulum_dynamics,
    forward_moments,
    forward_point,
)


def random_affine_net(rng, depth=None):
    depth = depth or rng.integers(1, 4)
    dims = rng.integers(1, 5, size=depth + 1)
    layers = [
        LayerSpec(rng.normal(size=(dims[i + 1], dims[i])), rng.normal(size=dims[i + 1]))
        for i in range(depth)
    ]
    return FeedforwardNet(tuple(layers))


def affine_variance(net, variance):
    v = variance
    for layer in net.layers:
        v = (layer.weights**2) @ v
    return v


class TestLayerSpec:
    def test_bias_shape_checked(self):
        with pytest.raises(ValueError):
            LayerSpec(np.eye(2), np.zeros(3))

    @pytest.mark.parametrize("where", ["weights", "bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, where, value):
        # e.g. a NaN in the pendulum's first layer: rejected here, not as a
        # diverged optimizer or a non-finite Gaussian further on
        layer = build_pendulum_dynamics(PendulumParams()).net.layers[0]
        w, b = np.array(layer.weights), np.array(layer.bias)
        (w if where == "weights" else b)[0] = value
        with pytest.raises(ValueError, match="weights and bias must be finite"):
            LayerSpec(w, b, layer.tags)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(np.eye(2), np.zeros(2), "relu")

    def test_caller_arrays_stay_writable_and_unshared(self):
        w, b = np.eye(2), np.zeros(2)
        layer = LayerSpec(w, b)
        w[0, 0] = 3.0
        b[1] = -1.0
        np.testing.assert_array_equal(layer.weights, np.eye(2))
        np.testing.assert_array_equal(layer.bias, np.zeros(2))
        assert not layer.weights.flags.writeable and not layer.bias.flags.writeable

    def test_per_unit_tags(self):
        layer = LayerSpec(np.eye(2), np.zeros(2), ("sine", "identity"))
        out = layer.act(np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, [np.sin(0.5), 0.5])

    def test_repeated_tags_apply_per_unit(self):
        # a tag recurring after another one: each unit still gets its own
        # function and derivatives, on a batch with a leading lane axis
        tags = ("sine", "identity", "identity", "sine", "tanh", "square")
        layer = LayerSpec(np.eye(6), np.zeros(6), tags)
        z = np.random.default_rng(4).normal(size=(3, 5, 6))
        f, df, d2f = layer.act_all(z)
        np.testing.assert_array_equal(layer.act(z), f)
        for u, tag in enumerate(tags):
            single = LayerSpec([[1.0]], [0.0], tag)
            np.testing.assert_array_equal(f[..., u], single.act(z[..., u]))
            for got, want in zip((f, df, d2f), single.act_all(z[..., u])):
                np.testing.assert_array_equal(got[..., u], want)

    def test_chaining_checked(self):
        a = LayerSpec(np.ones((2, 3)), np.zeros(2))
        b = LayerSpec(np.ones((1, 4)), np.zeros(1))
        with pytest.raises(ValueError):
            FeedforwardNet((a, b))


class TestForwardPoint:
    def test_identity_layer(self):
        net = FeedforwardNet((LayerSpec(np.eye(3), np.zeros(3)),))
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(forward_point(net, v), v)

    def test_affine_arithmetic(self):
        net = FeedforwardNet((LayerSpec([[2.0]], [1.0]),))
        np.testing.assert_array_equal(forward_point(net, [3.0]), [7.0])

    def test_dimension_mismatch(self):
        net = FeedforwardNet((LayerSpec(np.eye(2), np.zeros(2)),))
        with pytest.raises(ValueError):
            forward_point(net, [1.0, 2.0, 3.0])

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        net = FeedforwardNet(
            (
                LayerSpec(rng.normal(size=(3, 2)), rng.normal(size=3), "tanh"),
                LayerSpec(rng.normal(size=(2, 3)), rng.normal(size=2)),
            )
        )
        xs = rng.normal(size=(10, 2))
        batch = forward_point(net, xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(batch[i], forward_point(net, x), rtol=1e-14)


def one_layer(weights, bias, activation="identity"):
    return FeedforwardNet((LayerSpec(weights, bias, activation),))


def unit_activation(tag):
    """A single identity-weight unit: the activation rule on its own."""
    return one_layer([[1.0]], [0.0], tag)


class TestPropagateLinear:
    """The affine moment rule, on single identity-activation layers."""

    def test_scale_by_two_quadruples_variance(self):
        net = one_layer([[2.0]], [0.0])
        out = forward_moments(net, DiagonalGaussian([1.0], [0.25]))
        np.testing.assert_allclose(out.mean, [2.0])
        np.testing.assert_allclose(out.variance, [1.0])

    def test_stack_rejected(self):
        with pytest.raises(ValueError, match="not a stack"):
            forward_moments(one_layer([[2.0]], [0.0]), DiagonalGaussian([[1.0]], [[0.25]]))

    def test_translation_leaves_variance(self):
        bias = np.array([5.0, -3.0])
        g = DiagonalGaussian([0.0, 1.0], [0.3, 0.7])
        out = forward_moments(one_layer(np.eye(2), bias), g)
        np.testing.assert_allclose(out.mean, g.mean + bias)
        np.testing.assert_allclose(out.variance, g.variance)

    def test_sum_of_independent_variances(self):
        net = one_layer([[1.0, 1.0]], [0.0])
        out = forward_moments(net, DiagonalGaussian([0.0, 0.0], [1.0, 1.0]))
        np.testing.assert_allclose(out.mean, [0.0])
        np.testing.assert_allclose(out.variance, [2.0])


class TestPropagateActivation:
    """The delta rule of each activation, on single-unit nets."""

    def test_identity_case(self):
        net = unit_activation("identity")
        out = forward_moments(net, DiagonalGaussian([3.0], [2.0]))
        np.testing.assert_allclose(out.mean, [3.0])
        np.testing.assert_allclose(out.variance, [2.0])

    def test_tanh_odd_symmetry_at_zero(self):
        out = forward_moments(unit_activation("tanh"), DiagonalGaussian([0.0], [0.5]))
        assert out.mean[0] == 0.0

    def test_sine_matches_monte_carlo(self):
        mu, var = 0.5, 0.01
        out = forward_moments(unit_activation("sine"), DiagonalGaussian([mu], [var]))
        rng = np.random.default_rng(11)
        draws = np.sin(mu + np.sqrt(var) * rng.standard_normal(1_000_000))
        assert out.mean[0] == pytest.approx(np.sin(mu), abs=1e-3)
        assert out.mean[0] == pytest.approx(draws.mean(), rel=5e-2)
        assert out.variance[0] == pytest.approx(np.cos(mu) ** 2 * var, rel=1e-12)
        assert out.variance[0] == pytest.approx(draws.var(), rel=5e-2)

    def test_variance_floor_applied(self):
        net = unit_activation("identity")
        out = forward_moments(net, DiagonalGaussian([1.0], [0.0]))
        assert out.variance[0] == 1e-8


class TestForwardMoments:
    def test_zero_input_variance_mean_equals_point_forward(self, monkeypatch):
        monkeypatch.setattr(empkit.nets, "VAR_FLOOR", 0.0)
        rng = np.random.default_rng(5)
        net = FeedforwardNet(
            (
                LayerSpec(rng.normal(size=(3, 2)), rng.normal(size=3), "sine"),
                LayerSpec(rng.normal(size=(2, 3)), rng.normal(size=2), "tanh"),
            )
        )
        mean = rng.normal(size=2)
        out = forward_moments(net, DiagonalGaussian(mean, np.zeros(2)))
        np.testing.assert_allclose(out.mean, forward_point(net, mean), rtol=1e-14)
        np.testing.assert_allclose(out.variance, np.zeros(2), atol=0.0)

    def test_affine_exactness(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            net = random_affine_net(rng)
            mean = rng.normal(size=net.in_dim)
            var = rng.uniform(0.5, 2.0, net.in_dim)
            out = forward_moments(net, DiagonalGaussian(mean, var))
            np.testing.assert_allclose(
                out.mean, forward_point(net, mean), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                out.variance, affine_variance(net, var), rtol=1e-12
            )

    def test_affine_monotone_in_input_variance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_affine_net(rng)
            mean = rng.normal(size=net.in_dim)
            var = rng.uniform(0.5, 1.0, net.in_dim)
            base = forward_moments(net, DiagonalGaussian(mean, var)).variance
            for i in range(net.in_dim):
                bumped = var.copy()
                bumped[i] += 0.5
                out = forward_moments(net, DiagonalGaussian(mean, bumped)).variance
                assert np.all(out >= base - 1e-15)

    def test_linear_net_matches_monte_carlo(self):
        rng = np.random.default_rng(8)
        net = random_affine_net(rng, depth=2)
        mean = rng.normal(size=net.in_dim)
        var = rng.uniform(0.5, 1.5, net.in_dim)
        out = forward_moments(net, DiagonalGaussian(mean, var))
        n = 100_000
        draws = mean + np.sqrt(var) * rng.standard_normal((n, net.in_dim))
        ys = forward_point(net, draws)
        se_mean = ys.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(ys.mean(axis=0) - out.mean) < 3 * se_mean)
        np.testing.assert_allclose(ys.var(axis=0), out.variance, rtol=0.05)

    def test_delta_variance_vanishes_at_rate_of_input_variance(self, monkeypatch):
        monkeypatch.setattr(empkit.nets, "VAR_FLOOR", 0.0)
        rng = np.random.default_rng(9)
        net = FeedforwardNet(
            (LayerSpec(rng.normal(size=(2, 2)), rng.normal(size=2), "tanh"),)
        )
        mean = rng.normal(size=2)
        prev = None
        for scale in (1e-2, 1e-4, 1e-6):
            out = forward_moments(net, DiagonalGaussian(mean, np.full(2, scale)))
            ratio = out.variance / scale
            if prev is not None:
                np.testing.assert_allclose(ratio, prev, rtol=1e-3)
            prev = ratio

    def test_smooth_net_matches_monte_carlo_small_variance(self):
        # Delta-method moments are first-order, so keep inputs small-variance
        # and weights scaled to avoid saturating the nonlinearity.
        rng = np.random.default_rng(11)
        for _ in range(5):
            net = FeedforwardNet(
                (
                    LayerSpec(
                        rng.normal(size=(4, 3)) * 0.6 / np.sqrt(3),
                        rng.normal(size=4) * 0.3,
                        "tanh",
                    ),
                )
            )
            mean = rng.normal(size=3) * 0.5
            var = rng.uniform(0.002, 0.01, 3)
            out = forward_moments(net, DiagonalGaussian(mean, var))
            draws = mean + np.sqrt(var) * rng.standard_normal((1_000_000, 3))
            ys = forward_point(net, draws)
            np.testing.assert_allclose(ys.mean(axis=0), out.mean, rtol=0.01, atol=1e-2)
            np.testing.assert_allclose(ys.var(axis=0), out.variance, rtol=0.10)


class TestFusedPasses:
    def test_identity_layer_skip_equals_its_full_activation(self):
        # an all-identity layer skips its f' = 1 and f'' = 0 factors in both
        # passes; running them anyway must give the same bits
        from empkit import PendulumParams, build_pendulum_dynamics

        net = build_pendulum_dynamics(PendulumParams()).net
        assert [layer._linear for layer in net.layers] == [False, False, True]
        full = dataclasses.replace(net.layers[-1])
        object.__setattr__(full, "_linear", False)
        full_net = FeedforwardNet(net.layers[:-1] + (full,))
        rng = np.random.default_rng(12)
        H = rng.normal(size=(3, 9, net.in_dim))
        v = rng.uniform(0.0, 2.0, (3, net.in_dim))
        G = rng.normal(size=(3, 9, net.out_dim))
        gv = rng.normal(size=(3, net.out_dim))

        def passes(net):
            Y, vY, trace = empkit.nets._fused_trace(net, H, v)
            return (Y, vY, *empkit.nets._fused_backprop(trace, G.copy(), gv))

        for got, want in zip(passes(net), passes(full_net)):
            np.testing.assert_array_equal(got, want)
