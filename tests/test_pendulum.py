import numpy as np
import pytest
from scipy.integrate import solve_ivp

from empkit import (
    DiagonalGaussian,
    PendulumParams,
    PendulumState,
    build_pendulum_dynamics,
    forward_point,
    pendulum_step,
    pendulum_step_smooth,
    wrap_angle,
)
from empkit.pendulum import VEL_LIMIT


def reference_trajectory(angle, velocity, torque, p, t_end):
    """Independent oracle: adaptive high-order ODE integration of the
    unclipped pendulum equations (no wrap/clamp)."""
    ml2 = p.mass * p.length**2

    def rhs(_, y):
        th, om = y
        return [om, (p.gravity / p.length) * np.sin(th) + torque / ml2
                - (p.friction / ml2) * om]

    sol = solve_ivp(rhs, (0.0, t_end), [angle, velocity], rtol=1e-10, atol=1e-12)
    return sol.y[:, -1]


def energy(s, p):
    """Kinetic plus potential energy; potential is maximal upright (angle 0)."""
    kinetic = 0.5 * p.mass * p.length**2 * s.angular_velocity**2
    return kinetic + p.mass * p.gravity * p.length * np.cos(s.angle)


class TestParams:
    def test_defaults(self):
        p = PendulumParams()
        assert p.gravity == 9.81
        assert p.dt == 0.05
        assert p.max_torque == 2.0
        assert p.noise_std == (0.01, 0.05)

    def test_numpy_scalars_stored_as_floats(self):
        # a float32 mass must not put float32 arithmetic into the net
        mass = np.float32(1.1)
        p = PendulumParams(mass=mass, dt=np.int64(1), noise_std=(np.float32(0.5), 1))
        assert all(type(v) is float for v in (p.mass, p.dt, *p.noise_std))
        want = PendulumParams(mass=float(mass), dt=1.0, noise_std=(0.5, 1.0))
        assert p == want
        got = build_pendulum_dynamics(PendulumParams(mass=mass)).net.layers
        ref = build_pendulum_dynamics(PendulumParams(mass=float(mass))).net.layers
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a.weights, b.weights)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            PendulumParams(mass=0.0)
        with pytest.raises(ValueError):
            PendulumParams(dt=-0.1)
        with pytest.raises(ValueError):
            PendulumParams(noise_std=(0.01, 0.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": np.nan},
            {"mass": np.inf},
            {"noise_std": (np.nan, 0.05)},
            {"mass": "1.0"},
            {"gravity": True},
            {"noise_std": (0.01, np.inf)},
            {"noise_std": (0.01,)},
            {"noise_std": 0.01},
        ],
        ids=[
            "dt_nan",
            "mass_inf",
            "noise_nan",
            "mass_str",
            "gravity_bool",
            "noise_inf",
            "noise_short",
            "noise_scalar",
        ],
    )
    def test_non_finite_or_non_numeric_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PendulumParams(**kwargs)


class TestState:
    def test_angle_wrapped_into_range(self):
        s = PendulumState(3 * np.pi, 0.0)
        assert s.angle == pytest.approx(-np.pi)
        assert -np.pi <= s.angle < np.pi

    def test_velocity_clamped(self):
        assert PendulumState(0.0, 12.0).angular_velocity == VEL_LIMIT
        assert PendulumState(0.0, -12.0).angular_velocity == -VEL_LIMIT

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PendulumState(np.nan, 0.0)

    @pytest.mark.parametrize(
        "angle, velocity, match",
        [
            ("1.0", 0.0, "angle must be a finite number"),
            (True, 0.0, "angle must be a finite number"),
            (None, 0.0, "angle must be a finite number"),
            (0.0, "2", "angular_velocity must be a finite number"),
            (0.0, np.True_, "angular_velocity must be a finite number"),
        ],
        ids=["angle_str", "angle_bool", "angle_none", "velocity_str",
             "velocity_np_bool"],
    )
    def test_non_numeric_rejected(self, angle, velocity, match):
        with pytest.raises(ValueError, match=match):
            PendulumState(angle, velocity)

    def test_as_vector(self):
        np.testing.assert_array_equal(
            PendulumState(0.5, -1.0).as_vector(), [0.5, -1.0]
        )


class TestWrapAngle:
    def test_interval_is_half_open(self):
        assert wrap_angle(np.pi) == pytest.approx(-np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(-np.pi)
        assert wrap_angle(0.0) == 0.0

    def test_periodicity(self):
        rng = np.random.default_rng(0)
        for a in rng.uniform(-20, 20, 200):
            w = wrap_angle(a)
            assert -np.pi <= w < np.pi
            assert np.sin(w) == pytest.approx(np.sin(a), abs=1e-12)
            assert np.cos(w) == pytest.approx(np.cos(a), abs=1e-12)


class TestStep:
    def test_upright_equilibrium_is_fixed_point(self):
        p = PendulumParams()
        s = pendulum_step(PendulumState(0.0, 0.0), 0.0, p)
        assert s.angle == 0.0
        assert s.angular_velocity == 0.0

    def test_hanging_equilibrium_is_fixed_point(self):
        p = PendulumParams()
        s = pendulum_step(PendulumState(np.pi, 0.0), 0.0, p)
        assert abs(wrap_angle(s.angle - np.pi)) < 1e-9
        assert abs(s.angular_velocity) < 1e-9

    def test_torque_clipped_to_max(self):
        p = PendulumParams()
        s0 = PendulumState(1.0, 0.0)
        a = pendulum_step(s0, p.max_torque, p)
        b = pendulum_step(s0, 100.0, p)
        assert a == b

    def test_nonfinite_torque_rejected(self):
        with pytest.raises(ValueError):
            pendulum_step(PendulumState(0.0, 0.0), np.inf, PendulumParams())

    @pytest.mark.parametrize("torque", ["1", True, None], ids=["str", "bool", "none"])
    def test_non_numeric_torque_rejected(self, torque):
        with pytest.raises(ValueError, match="torque must be a finite number"):
            pendulum_step(PendulumState(0.0, 0.0), torque, PendulumParams())

    def test_single_step_matches_ode_oracle(self):
        p = PendulumParams()
        for angle, velocity, torque in [(0.1, 0.0, 0.0), (0.5, 1.0, 1.5),
                                        (-2.0, -3.0, -2.0)]:
            s = pendulum_step(PendulumState(angle, velocity), torque, p)
            ref = reference_trajectory(angle, velocity, torque, p, p.dt)
            # semi-implicit Euler local error is O(dt^2) ~ 2.5e-3 per unit
            # of acceleration curvature
            assert s.angle == pytest.approx(ref[0], abs=2e-2)
            assert s.angular_velocity == pytest.approx(ref[1], abs=2e-2)

    def test_unforced_energy_dissipates_from_hanging_perturbation(self):
        p = PendulumParams()
        s = PendulumState(np.pi - 0.5, 0.0)
        energies = [energy(s, p)]
        for _ in range(1000):
            s = pendulum_step(s, 0.0, p)
            energies.append(energy(s, p))
        # friction drains the oscillation toward the hanging minimum; after
        # 50 seconds most but not all of the surplus is gone
        surplus0 = energies[0] + p.mass * p.gravity * p.length
        surplus1 = energies[-1] + p.mass * p.gravity * p.length
        assert 0.0 <= surplus1 < 0.15 * surplus0

    def test_gravity_pulls_away_from_upright(self):
        p = PendulumParams()
        s = pendulum_step(PendulumState(0.1, 0.0), 0.0, p)
        assert s.angular_velocity > 0.0
        assert s.angle > 0.1


class TestSmoothStep:
    def test_agrees_with_hard_step_near_origin(self):
        p = PendulumParams()
        s = PendulumState(0.2, 0.3)
        hard = pendulum_step(s, p.max_torque * np.tanh(0.4), p)
        smooth = pendulum_step_smooth(s.as_vector(), 0.4, p)
        assert smooth[0] == pytest.approx(hard.angle, abs=1e-3)
        assert smooth[1] == pytest.approx(hard.angular_velocity, abs=1e-3)

    def test_outputs_strictly_inside_limits(self):
        p = PendulumParams()
        rng = np.random.default_rng(1)
        for _ in range(200):
            state = rng.uniform([-np.pi, -VEL_LIMIT], [np.pi, VEL_LIMIT])
            a = rng.uniform(-5, 5)
            out = pendulum_step_smooth(state, a, p)
            assert abs(out[0]) < np.pi
            assert abs(out[1]) < VEL_LIMIT

    def test_odd_symmetry(self):
        p = PendulumParams()
        rng = np.random.default_rng(2)
        for _ in range(100):
            state = rng.uniform([-np.pi, -VEL_LIMIT], [np.pi, VEL_LIMIT])
            a = rng.uniform(-5, 5)
            plus = pendulum_step_smooth(state, a, p)
            minus = pendulum_step_smooth(-state, -a, p)
            np.testing.assert_allclose(minus, -plus, atol=1e-12)

    @pytest.mark.parametrize(
        "state",
        [[0.0, 0.0, 0.0], [0.0], [np.nan, 0.0], [0.0, np.inf]],
        ids=["long", "short", "nan", "inf"],
    )
    def test_bad_state_rejected(self, state):
        # a 3-vector raised "too many values to unpack", a NaN passed through
        message = "state must be a finite vector of length 2"
        with pytest.raises(ValueError, match=message):
            pendulum_step_smooth(state, 0.0, PendulumParams())

    @pytest.mark.parametrize("params", [None, {"mass": 1.0}], ids=["none", "dict"])
    def test_bad_params_rejected(self, params):
        # None raised AttributeError on p.max_torque
        state = PendulumState(0.3, -1.0)
        for step in (
            lambda: pendulum_step_smooth(state.as_vector(), 0.0, params),
            lambda: pendulum_step(state, 0.0, params),
            lambda: build_pendulum_dynamics(params),
        ):
            with pytest.raises(ValueError, match="p must be a PendulumParams"):
                step()


class TestDynamicsNet:
    def test_net_mean_equals_smooth_step(self):
        p = PendulumParams()
        model = build_pendulum_dynamics(p)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            state = rng.uniform([-np.pi, -VEL_LIMIT], [np.pi, VEL_LIMIT])
            a = rng.uniform(-6, 6)
            y = forward_point(model.net, np.concatenate([state, [a]]))
            np.testing.assert_allclose(
                y[:2], pendulum_step_smooth(state, a, p), atol=1e-10
            )

    def test_net_log_std_constant(self):
        p = PendulumParams()
        model = build_pendulum_dynamics(p)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform([-np.pi, -VEL_LIMIT, -5], [np.pi, VEL_LIMIT, 5])
            y = forward_point(model.net, x)
            np.testing.assert_allclose(y[2:], np.log(p.noise_std), atol=1e-14)

    def test_conditional_variance_is_noise_squared(self):
        p = PendulumParams()
        model = build_pendulum_dynamics(p)
        g = model.conditional([0.3, -0.2], [0.1])
        assert isinstance(g, DiagonalGaussian)
        np.testing.assert_allclose(g.variance, np.square(p.noise_std), rtol=1e-12)

    def test_dimensions(self):
        model = build_pendulum_dynamics(PendulumParams())
        assert model.state_dim == 2
        assert model.action_dim == 1
        assert model.net.in_dim == 3
        assert model.net.out_dim == 4

    def test_respects_custom_parameters(self):
        p = PendulumParams(mass=2.0, length=0.5, gravity=9.0, friction=0.1,
                           dt=0.02, max_torque=1.0, noise_std=(0.02, 0.03))
        model = build_pendulum_dynamics(p)
        rng = np.random.default_rng(5)
        for _ in range(100):
            state = rng.uniform([-np.pi, -VEL_LIMIT], [np.pi, VEL_LIMIT])
            a = rng.uniform(-4, 4)
            y = forward_point(model.net, np.concatenate([state, [a]]))
            np.testing.assert_allclose(
                y[:2], pendulum_step_smooth(state, a, p), atol=1e-10
            )
