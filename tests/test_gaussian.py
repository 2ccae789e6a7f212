import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from empkit import DiagonalGaussian, kl_diag_gaussian


def univariate_kl_quadrature(mp, vp, mq, vq):
    """Independent oracle: numerical integration of p ln(p/q)."""
    sp, sq = np.sqrt(vp), np.sqrt(vq)

    def integrand(x):
        lp = -0.5 * ((x - mp) / sp) ** 2 - np.log(sp)
        lq = -0.5 * ((x - mq) / sq) ** 2 - np.log(sq)
        return np.exp(lp) / np.sqrt(2 * np.pi) * (lp - lq)

    val, _ = quad(integrand, mp - 15 * sp, mp + 15 * sp, limit=400)
    return val


class TestConstruction:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiagonalGaussian([0.0, 1.0], [1.0])

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            DiagonalGaussian([0.0], [-1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DiagonalGaussian([], [])

    def test_caller_arrays_stay_writable_and_detached(self):
        mean, variance = np.array([0.0, 1.0]), np.array([2.0, 3.0])
        g = DiagonalGaussian(mean, variance)
        mean[0], variance[0] = 5.0, 7.0
        np.testing.assert_array_equal(g.mean, [0.0, 1.0])
        np.testing.assert_array_equal(g.variance, [2.0, 3.0])
        with pytest.raises(ValueError):
            g.mean[0] = 5.0

    def test_stack_of_gaussians(self):
        g = DiagonalGaussian([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], np.ones((3, 2)))
        assert g.mean.shape == (3, 2) and g.dim == 2
        with pytest.raises(ValueError, match="vectors or stacks"):
            DiagonalGaussian(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))

    def test_information_quantities_reject_stacks(self):
        one = DiagonalGaussian([0.0, 1.0], [1.0, 2.0])
        stack = DiagonalGaussian([[0.0, 1.0]], [[1.0, 2.0]])
        for call in (
            lambda: kl_diag_gaussian(stack, one),
            lambda: kl_diag_gaussian(one, stack),
        ):
            with pytest.raises(ValueError, match="not a stack"):
                call()

    def test_zero_variance_allowed_for_degenerate_inputs(self):
        g = DiagonalGaussian([1.0], [0.0])
        assert g.variance[0] == 0.0


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_shapes = st.one_of(
    st.tuples(st.integers(1, 4)), st.tuples(st.integers(1, 3), st.integers(1, 4))
)


class TestConstructionProperties:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), shape=_shapes)
    def test_finite_mean_and_positive_variance_construct(self, data, shape):
        mean = data.draw(arrays(float, shape, elements=_finite))
        variance = data.draw(arrays(float, shape, elements=_positive))
        g = DiagonalGaussian(mean, variance)
        np.testing.assert_array_equal(g.mean, mean)
        np.testing.assert_array_equal(g.variance, variance)
        assert g.dim == shape[-1]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        data=st.data(),
        shape=_shapes,
        bad=st.sampled_from(
            ["mean_nan", "mean_inf", "mean_-inf", "var_nan", "var_inf",
             "var_negative", "shape_mismatch"]
        ),
    )
    def test_non_finite_negative_or_mismatched_rejected(self, data, shape, bad):
        mean = data.draw(arrays(float, shape, elements=_finite))
        variance = data.draw(arrays(float, shape, elements=_positive))
        flat = data.draw(st.integers(0, mean.size - 1))
        where = np.unravel_index(flat, shape)
        if bad.startswith("mean_"):
            mean[where] = float(bad[5:])
        elif bad == "var_negative":
            variance[where] = -data.draw(_positive | st.just(np.inf))
        elif bad.startswith("var_"):
            variance[where] = float(bad[4:])
        else:
            variance = np.concatenate([variance, variance[..., :1]], axis=-1)
        with pytest.raises(ValueError):
            DiagonalGaussian(mean, variance)


class TestKL:
    def test_identity_is_exactly_zero(self):
        g = DiagonalGaussian([0.0, 2.0], [1.0, 3.0])
        assert kl_diag_gaussian(g, g) == 0.0

    def test_unit_variance_mean_shift(self):
        p = DiagonalGaussian([0.0], [1.0])
        q = DiagonalGaussian([1.0], [1.0])
        assert kl_diag_gaussian(p, q) == pytest.approx(0.5, abs=1e-15)

    def test_variance_four(self):
        p = DiagonalGaussian([0.0], [1.0])
        q = DiagonalGaussian([0.0], [4.0])
        expected = np.log(2.0) + 1.0 / 8.0 - 0.5  # ~0.318147
        assert kl_diag_gaussian(p, q) == pytest.approx(expected, abs=1e-12)
        ref = univariate_kl_quadrature(0.0, 1.0, 0.0, 4.0)
        assert kl_diag_gaussian(p, q) == pytest.approx(ref, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_diag_gaussian(
                DiagonalGaussian([0.0], [1.0]), DiagonalGaussian([0.0, 0.0], [1.0, 1.0])
            )

    def test_degenerate_variance_rejected_in_kl(self):
        z = DiagonalGaussian([0.0], [0.0])
        g = DiagonalGaussian([0.0], [1.0])
        with pytest.raises(ValueError):
            kl_diag_gaussian(z, g)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            d = rng.integers(1, 5)
            p = DiagonalGaussian(rng.normal(size=d), rng.uniform(0.1, 5.0, d))
            q = DiagonalGaussian(rng.normal(size=d), rng.uniform(0.1, 5.0, d))
            assert kl_diag_gaussian(p, q) >= 0.0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 4))
    def test_nonnegative_and_zero_only_at_identity(self, data, dim):
        means = arrays(float, (2, dim), elements=st.floats(-1e3, 1e3))
        variances = arrays(float, (2, dim), elements=st.floats(1e-6, 1e6))
        (mp, mq), (vp, vq) = data.draw(means), data.draw(variances)
        p, q = DiagonalGaussian(mp, vp), DiagonalGaussian(mq, vq)
        assert kl_diag_gaussian(p, p) == 0.0
        assert kl_diag_gaussian(p, q) >= 0.0

    def test_additive_across_dimensions(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = rng.integers(2, 6)
            mp, mq = rng.normal(size=(2, d))
            vp, vq = rng.uniform(0.1, 4.0, (2, d))
            total = kl_diag_gaussian(
                DiagonalGaussian(mp, vp), DiagonalGaussian(mq, vq)
            )
            parts = sum(
                kl_diag_gaussian(
                    DiagonalGaussian([mp[i]], [vp[i]]), DiagonalGaussian([mq[i]], [vq[i]])
                )
                for i in range(d)
            )
            assert total == pytest.approx(parts, rel=1e-12)

    def test_matches_quadrature_on_random_univariate_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mp, mq = rng.normal(0, 2, 2)
            vp, vq = rng.uniform(0.2, 4.0, 2)
            closed = kl_diag_gaussian(
                DiagonalGaussian([mp], [vp]), DiagonalGaussian([mq], [vq])
            )
            assert closed == pytest.approx(
                univariate_kl_quadrature(mp, vp, mq, vq), abs=1e-6
            )
