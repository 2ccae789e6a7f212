"""Acceptance suite: one criterion per test, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines on a passing run.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import spearmanr

from empkit import (
    DiagonalGaussian,
    DiscreteChannel,
    DynamicsModel,
    FeedforwardNet,
    LayerSpec,
    OptimizerOptions,
    PendulumParams,
    blahut_arimoto,
    build_pendulum_dynamics,
    empowerment_landscape,
    forward_moments,
    forward_point,
    kl_diag_gaussian,
    maximize_empowerment,
    mi_lower_bound,
    mi_lower_bound_with_gradient,
    oracle_empowerment,
)
from empkit.cli import main
from empkit.empowerment import GaussianPolicy


@contextmanager
def report(name, capsys=None):
    """Print one PASS/FAIL line for ``name``, followed by the notes the
    block appends to the yielded list; with ``capsys`` the line bypasses
    output capture, so it shows in a plain ``pytest -q`` log too."""
    notes = []

    def emit(status):
        line = " ".join([f"{name}: {status}", *notes])
        if capsys is None:
            print(line)
        else:
            with capsys.disabled():
                print(line)

    try:
        yield notes
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def kl_quadrature(mp, vp, mq, vq):
    sp, sq = np.sqrt(vp), np.sqrt(vq)

    def integrand(x):
        lp = -0.5 * ((x - mp) / sp) ** 2 - np.log(sp)
        lq = -0.5 * ((x - mq) / sq) ** 2 - np.log(sq)
        return np.exp(lp) / np.sqrt(2 * np.pi) * (lp - lq)

    return quad(integrand, mp - 15 * sp, mp + 15 * sp, limit=400)[0]


def test_ac1_gaussian_kl():
    with report("AC-1 closed-form KL vs quadrature"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            mp, mq = rng.normal(0, 2, 2)
            vp, vq = rng.uniform(0.2, 4.0, 2)
            closed = kl_diag_gaussian(
                DiagonalGaussian([mp], [vp]), DiagonalGaussian([mq], [vq])
            )
            assert abs(closed - kl_quadrature(mp, vp, mq, vq)) < 1e-6
        g = DiagonalGaussian(rng.normal(size=3), rng.uniform(0.5, 2.0, 3))
        assert kl_diag_gaussian(g, g) == 0.0


def test_ac2_blahut_arimoto_exactness():
    with report("AC-2 Blahut-Arimoto exactness"):
        # BSC(0.1): capacity (1 - H2(0.1)) bits expressed in nats
        bsc = blahut_arimoto(DiscreteChannel([[0.9, 0.1], [0.1, 0.9]]))
        closed = np.log(2) + 0.1 * np.log(0.1) + 0.9 * np.log(0.9)
        assert closed == pytest.approx(0.3680642071684971, abs=1e-12)
        assert abs(bsc.capacity - closed) < 1e-6

        noiseless = blahut_arimoto(DiscreteChannel(np.eye(4)))
        assert abs(noiseless.capacity - np.log(4)) < 1e-9

        flat = blahut_arimoto(
            DiscreteChannel([[0.25, 0.75], [0.25, 0.75], [0.25, 0.75]])
        )
        assert abs(flat.capacity) < 1e-12


def test_ac3_moment_propagation():
    with report("AC-3 moment propagation vs analytic/Monte Carlo"):
        rng = np.random.default_rng(102)
        # affine nets: exact linear-Gaussian moments
        for _ in range(100):
            depth = int(rng.integers(1, 4))
            dims = rng.integers(1, 5, size=depth + 1)
            layers = [
                LayerSpec(
                    rng.normal(size=(dims[i + 1], dims[i])),
                    rng.normal(size=dims[i + 1]),
                )
                for i in range(depth)
            ]
            net = FeedforwardNet(tuple(layers))
            mean = rng.normal(size=net.in_dim)
            var = rng.uniform(0.5, 2.0, net.in_dim)
            out = forward_moments(net, DiagonalGaussian(mean, var))
            v_ref = var
            for layer in net.layers:
                v_ref = (layer.weights**2) @ v_ref
            np.testing.assert_allclose(
                out.mean, forward_point(net, mean), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(out.variance, v_ref, rtol=1e-12)

        # smooth nets, small input variance: delta method vs 1e6-sample MC
        rng = np.random.default_rng(11)
        for _ in range(20):
            din = int(rng.integers(2, 5))
            dout = int(rng.integers(2, 5))
            net = FeedforwardNet(
                (
                    LayerSpec(
                        rng.normal(size=(dout, din)) * 0.6 / np.sqrt(din),
                        rng.normal(size=dout) * 0.3,
                        "tanh",
                    ),
                )
            )
            mean = rng.normal(size=din) * 0.5
            var = rng.uniform(0.002, 0.01, din)
            out = forward_moments(net, DiagonalGaussian(mean, var))
            draws = mean + np.sqrt(var) * rng.standard_normal((1_000_000, din))
            ys = forward_point(net, draws)
            mc_mean = ys.mean(axis=0)
            mc_var = ys.var(axis=0)
            assert np.all(
                np.abs(out.mean - mc_mean) <= 0.01 * np.maximum(np.abs(mc_mean), 1e-2)
            )
            assert np.all(np.abs(out.variance - mc_var) <= 0.10 * mc_var)


def test_ac4_gradient_check():
    with report("AC-4 analytic gradient vs finite differences"):
        pend = build_pendulum_dynamics(PendulumParams())
        shift = DynamicsModel(
            FeedforwardNet(
                (LayerSpec([[1.0, 1.0], [0.0, 0.0]], [0.0, np.log(0.5)]),)
            ),
            1,
            1,
        )
        rng = np.random.default_rng(103)
        h = 1e-6
        for i in range(100):
            if i % 2 == 0:
                model, state = pend, rng.uniform([-np.pi, -8.0], [np.pi, 8.0])
            else:
                model, state = shift, rng.normal(size=1)
            mean = rng.normal(size=1)
            log_std = rng.uniform(-2.0, 0.5, 1)
            seed = int(rng.integers(1 << 30))
            _, gmean, glog = mi_lower_bound_with_gradient(
                model, state, GaussianPolicy(mean, log_std), 16, seed
            )
            for analytic, plus, minus in (
                (
                    gmean[0],
                    GaussianPolicy(mean + h, log_std),
                    GaussianPolicy(mean - h, log_std),
                ),
                (
                    glog[0],
                    GaussianPolicy(mean, log_std + h),
                    GaussianPolicy(mean, log_std - h),
                ),
            ):
                fd = (
                    mi_lower_bound(model, state, plus, 16, seed)
                    - mi_lower_bound(model, state, minus, 16, seed)
                ) / (2 * h)
                assert abs(analytic - fd) <= 1e-4 * max(abs(fd), 1e-3)


@pytest.mark.slow
def test_ac5_oracle_agreement(capsys):
    with report("AC-5 oracle rank agreement and speedup", capsys) as notes:
        t_start = time.time()
        model = build_pendulum_dynamics(PendulumParams())
        # deterministic sweep from the low-empowerment corner to the peak:
        # spans the full dynamic range without symmetry-induced rank ties
        ts = np.linspace(0.0, 1.0, 25)
        states = [np.array([-np.pi * (1 - u), -8.0 * (1 - u)]) for u in ts]

        eff, orc, speedups, t_effs, t_orcs = [], [], [], [], []
        for i, s in enumerate(states):
            t0 = time.perf_counter()
            est = maximize_empowerment(model, s, OptimizerOptions(seed=i))
            t_eff = time.perf_counter() - t0
            t0 = time.perf_counter()
            res = oracle_empowerment(model, s, n_actions=64, bins=41)
            t_orc = time.perf_counter() - t0
            assert res.converged
            eff.append(est.value)
            orc.append(res.capacity)
            speedups.append(t_orc / t_eff)
            t_effs.append(t_eff)
            t_orcs.append(t_orc)

        notes.append(
            f"(median speed-up {np.median(speedups):.2f}; median ms: "
            f"estimator {1e3 * np.median(t_effs):.1f}, "
            f"oracle {1e3 * np.median(t_orcs):.1f})"
        )
        rho = spearmanr(eff, orc).statistic
        assert rho >= 0.9
        assert np.median(speedups) > 1.0
        assert time.time() - t_start < 600.0


@pytest.mark.slow
def test_ac6_landscape_shape():
    with report("AC-6 pendulum landscape argmax and symmetry"):
        t_start = time.time()
        model = build_pendulum_dynamics(PendulumParams())
        angles = np.linspace(-np.pi, np.pi, 41)
        velocities = np.linspace(-8.0, 8.0, 41)
        states = [np.array([a, v]) for v in velocities for a in angles]
        results = empowerment_landscape(model, states, OptimizerOptions(seed=0))
        values = np.array([est.value for _, est in results]).reshape(41, 41)

        # argmax within one grid cell of (angle, velocity) = (0, 0)
        iv, ia = np.unravel_index(np.argmax(values), values.shape)
        assert abs(ia - 20) <= 1
        assert abs(iv - 20) <= 1

        # symmetric under joint negation within 5% per cell; the negated
        # grid is the reversed grid in both axes
        mirrored = values[::-1, ::-1]
        np.testing.assert_allclose(values, mirrored, rtol=0.05)
        assert time.time() - t_start < 600.0


def test_ac7_zero_control():
    with report("AC-7 zero action weights give zero empowerment"):
        # x' depends on the state only; the action column is zero
        layer = LayerSpec(
            [[0.9, 0.0], [0.0, 0.0]], [0.0, np.log(0.3)]
        )
        model = DynamicsModel(FeedforwardNet((layer,)), 1, 1)
        est = maximize_empowerment(model, [0.5], OptimizerOptions())
        assert est.value <= 1e-6


def test_ac8_cli_determinism(tmp_path):
    with report("AC-8 landscape CLI byte-identical reruns"):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "angle_count": 3,
                    "velocity_count": 3,
                    "max_iter": 50,
                    "out_dir": str(tmp_path / "out"),
                }
            )
        )
        assert main(["landscape", "--config", str(cfg)]) == 0
        first = (tmp_path / "out" / "landscape.csv").read_bytes()
        assert main(["landscape", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "landscape.csv").read_bytes() == first
