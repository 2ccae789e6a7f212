"""Efficient empowerment: maximize the Gaussian-channel mutual-information
objective over a per-state Gaussian action distribution.

The objective is a reparameterized Monte Carlo average of closed-form KL
divergences between the conditional next-state Gaussian (per sampled
action) and the marginal next-state Gaussian obtained by moment
propagation with the action slots carrying the policy's mean and variance.
Common random numbers (one fixed eps draw per restart) make the objective
deterministic and smooth, so a projected quasi-Newton (BFGS) ascent with
analytic gradients applies; the gradients are verified against central
finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import DiagonalGaussian
from .nets import (
    DynamicsModel,
    _as_vector,
    _check_int,
    _check_real,
    _fused_backprop,
    _fused_trace,
    forward_point,
)

__all__ = [
    "LOG_STD_MIN",
    "LOG_STD_MAX",
    "GaussianPolicy",
    "EmpowermentEstimate",
    "OptimizerOptions",
    "marginal_transition",
    "mi_lower_bound",
    "mi_lower_bound_with_gradient",
    "maximize_empowerment",
    "select_action",
    "empowerment_landscape",
]

LOG_STD_MIN = -6.0
LOG_STD_MAX = 2.0

# An optimizer iterate is only accepted when the mean squared mismatch
# between sampled conditional means and the propagated marginal mean stays
# within this factor of the marginal variance; 3 leaves room for Monte
# Carlo fluctuation while rejecting the saturated regime where the
# mismatch exceeds the propagated variance by orders of magnitude.
_CONSISTENCY_FACTOR = 3.0

# Armijo sufficient-increase constant, backtracking budget (step halvings)
# and the relative curvature s.y below which a BFGS update is skipped
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
_CURVATURE_TOL = 1e-10


@dataclass(frozen=True)
class GaussianPolicy:
    """Per-state action distribution N(action_mean, exp(action_log_std)^2)."""

    action_mean: np.ndarray
    action_log_std: np.ndarray

    def __post_init__(self):
        # a copy (the clip below copies log_std), so that freezing them
        # leaves the caller's arrays writable
        mean = np.atleast_1d(np.array(self.action_mean, dtype=float))
        log_std = np.atleast_1d(np.asarray(self.action_log_std, dtype=float))
        if mean.shape != log_std.shape or mean.ndim != 1:
            raise ValueError("mean and log_std must be vectors of equal length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(log_std))):
            raise ValueError("policy parameters must be finite")
        log_std = np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
        mean.setflags(write=False)
        log_std.setflags(write=False)
        object.__setattr__(self, "action_mean", mean)
        object.__setattr__(self, "action_log_std", log_std)

    @property
    def dim(self) -> int:
        return self.action_mean.size


@dataclass(frozen=True)
class OptimizerOptions:
    max_iter: int = 200
    grad_tol: float = 1e-4
    restarts: int = 4
    mc_samples: int = 32
    seed: int = 0

    def __post_init__(self):
        _check_int("max_iter", self.max_iter)
        _check_real("grad_tol", self.grad_tol)
        _check_int("restarts", self.restarts)
        _check_int("mc_samples", self.mc_samples)
        _check_int("seed", self.seed, minimum=0)


@dataclass(frozen=True)
class EmpowermentEstimate:
    """Result of ``maximize_empowerment``.

    ``iterations`` counts the quasi-Newton iterations of the winning
    restart (one iteration may take several objective evaluations);
    ``converged`` refers to the returned policy: its projected gradient's
    infinity norm ``grad_norm`` is below ``grad_tol``.  ``restarts_failed``
    counts the restarts whose objective turned non-finite or that found no
    self-consistent iterate.
    """

    value: float
    policy: GaussianPolicy
    iterations: int
    converged: bool
    grad_norm: float
    restarts_failed: int
    mc_samples: int
    seed: int


def _check_policy(model: DynamicsModel, policy: GaussianPolicy) -> None:
    if policy.dim != model.action_dim:
        raise ValueError(f"policy must have dimension {model.action_dim}")


def _marginal_pass(model, state, mean, var_a, actions):
    """The one place the marginal is formed: a fused pass of its moment
    row and the sampled action rows, per lane.

    Lane l's row 0 carries the state with the policy mean ``mean[l]``
    (variance 0 on the state slots, ``var_a[l]`` on the action slots); its
    rows 1.. carry the state with each row of ``actions[l]``.  Returns per
    lane the marginal next-state mean and variance (see
    ``marginal_transition``) and the model noise part of that variance,
    then the output rows and the trace for ``_fused_backprop``.
    """
    d = model.state_dim
    lanes, n, k = actions.shape
    X = np.empty((lanes, n + 1, d + k))
    X[:, :, :d] = state
    X[:, 0, d:] = mean
    X[:, 1:, d:] = actions
    v0 = np.concatenate([np.zeros((lanes, d)), var_a], axis=1)
    Y, vM, trace = _fused_trace(model.net, X, v0)
    noise = np.exp(2.0 * Y[:, 0, d:])
    return Y[:, 0, :d], vM[:, :d] + noise, noise, Y, trace


def marginal_transition(
    model: DynamicsModel, state, policy: GaussianPolicy
) -> DiagonalGaussian:
    """p(x'|x) with the action marginalized out by moment propagation.

    The network input Gaussian has zero variance on the state slots and
    the policy's mean/variance on the action slots.  The output halves
    (mean, log-std) are combined into a next-state Gaussian whose variance
    is the propagated mean spread plus the intrinsic model noise
    exp(2 * propagated log-std mean).
    """
    state = _as_vector(state, model.state_dim, "state")
    _check_policy(model, policy)
    mq, vq, _, _, _ = _marginal_pass(
        model,
        state,
        policy.action_mean[None],
        np.exp(2.0 * policy.action_log_std)[None],
        np.empty((1, 0, model.action_dim)),
    )
    return DiagonalGaussian(mq[0], vq[0])


def _mi_core(model, state, mean, log_std, eps, want_grad):
    """Objective (and optionally its gradient) at fixed eps draws, per lane.

    ``mean`` and ``log_std`` are (lanes, k) and ``eps`` is (lanes, n, k);
    every lane shares ``state``.  Returns arrays over lanes: the value, the
    gradients wrt mean and log-std (None without ``want_grad``) and the
    self-consistency flag.
    """
    d = model.state_dim
    lanes, n, _ = eps.shape
    sigma_eps = np.exp(log_std)[:, None, :] * eps
    var_a = np.exp(2.0 * log_std)
    actions = mean[:, None, :] + sigma_eps
    mq, vq, noise, Y, trace = _marginal_pass(model, state, mean, var_a, actions)
    mq, vq = mq[:, None, :], vq[:, None, :]  # broadcast over the sampled rows
    mp = Y[:, 1:, :d]
    vp = np.exp(2.0 * Y[:, 1:, d:])

    dm = mp - mq
    dm2 = dm * dm
    vp_dm2 = vp + dm2
    kl = 0.5 * (np.log(vq) - np.log(vp)) + vp_dm2 / (2.0 * vq) - 0.5
    value = kl.reshape(lanes, -1).sum(axis=1) / n
    # self-consistency of the surrogate: the marginal variance produced by
    # moment propagation should account for the spread of the sampled
    # conditional means; when it does not (saturated action means), the KL
    # terms inflate spuriously and the value is not trustworthy
    consistent = (dm2.sum(axis=1) / n <= _CONSISTENCY_FACTOR * vq[:, 0]).all(axis=1)
    if not want_grad:
        return value, None, None, consistent

    # d KL / d outputs: row 0 through the marginal (mq, vq), rows 1.. through
    # the conditionals (mp, vp); log-std outputs enter as exp(2 y).  Negation
    # is exact, so -(dm / vq) summed equals the sum of -dm / vq bit for bit.
    dm_vq = dm / vq
    half_vq = 0.5 / vq
    gY = np.empty_like(Y)
    gY[:, 0, :d] = dm_vq.sum(axis=1) / -n
    gvq = (half_vq - vp_dm2 / (2.0 * vq**2)).sum(axis=1) / n
    gY[:, 0, d:] = gvq * 2.0 * noise
    gY[:, 1:, :d] = dm_vq / n
    gY[:, 1:, d:] = (half_vq - 0.5 / vp) / n * 2.0 * vp
    gX, gv0 = _fused_backprop(
        trace, gY, np.concatenate([gvq, np.zeros((lanes, d))], axis=1)
    )
    ga = gX[:, 1:, d:]
    gmean = ga.sum(axis=1) + gX[:, 0, d:]
    glog = (ga * sigma_eps).sum(axis=1) + gv0[:, d:] * 2.0 * var_a
    return value, gmean, glog, consistent


def _draw_eps(seed: int, mc_samples: int, action_dim: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((mc_samples, action_dim))


def _objective(model, state, policy, mc_samples, seed, want_grad):
    """Validated inputs, the seed's eps draw and one single-lane
    ``_mi_core`` call: the value, with the gradient if ``want_grad``."""
    state = _as_vector(state, model.state_dim, "state")
    _check_policy(model, policy)
    _check_int("mc_samples", mc_samples)
    _check_int("seed", seed, minimum=0)
    eps = _draw_eps(seed, mc_samples, model.action_dim)
    value, gmean, glog, _ = _mi_core(
        model,
        state,
        policy.action_mean[None],
        policy.action_log_std[None],
        eps[None],
        want_grad,
    )
    if not want_grad:
        return float(value[0])
    return float(value[0]), gmean[0], glog[0]


def mi_lower_bound(
    model: DynamicsModel,
    state,
    policy: GaussianPolicy,
    mc_samples: int,
    seed: int,
) -> float:
    """Monte Carlo mutual-information objective, deterministic per seed.

    Not a lower bound: it estimates E_a KL(p(x'|x,a) || q), q the propagated
    marginal, and for any q that is I_pi(A; X') + KL(p_pi(x'|x) || q) >=
    I_pi(A; X').  The name stays because perfbench/workloads.py calls it.
    """
    return _objective(model, state, policy, mc_samples, seed, False)


def mi_lower_bound_with_gradient(
    model: DynamicsModel,
    state,
    policy: GaussianPolicy,
    mc_samples: int,
    seed: int,
):
    """Objective plus analytic gradient wrt (action_mean, action_log_std).
    As with ``mi_lower_bound``, the objective is not a lower bound on I_pi,
    and the name stays because perfbench/workloads.py calls it."""
    return _objective(model, state, policy, mc_samples, seed, True)


def _inf_norm(v):
    """max |v_i| over a list, NaN if an entry is NaN (as numpy's ``max``)."""
    return math.nan if any(map(math.isnan, v)) else max(map(abs, v))


def _ascend(x, opts):
    """Projected BFGS ascent of one restart from ``x`` = (mean, log_std).

    A generator: it yields each trial point as a list and is sent back
    that point's ``(value, gradient, consistent)``, the gradient over
    (mean, log_std) as an array.  It returns ``(best, iterations)``.
    ``best`` is the highest self-consistent iterate along the path as
    ``(value, mean, log_std, grad_norm)``, ``grad_norm`` the infinity norm
    of its projected gradient, or None when no iterate was consistent.
    Raises FloatingPointError on a non-finite objective.

    Points, the clamp, the projection and the steps are lists of Python
    floats: on 2k entries a numpy call costs more than its arithmetic.
    Inner products and the BFGS matrix products stay numpy calls, because
    BLAS rounds a dot product differently from ``a0*b0 + a1*b1``; they use
    ``ndarray.dot``, which gives the same bits as ``@`` at half the cost.
    """
    k = len(x) // 2
    lo = [-math.inf] * k + [LOG_STD_MIN] * k
    hi = [math.inf] * k + [LOG_STD_MAX] * k
    eye = np.eye(2 * k)

    def evaluate(x):
        value, g, ok = yield x
        if not math.isfinite(value):
            raise FloatingPointError("non-finite objective")
        gl = g.tolist()
        # components pushing against an active clamp are held at the clamp
        held = [
            (xi <= l and gi < 0.0) or (xi >= h and gi > 0.0)
            for xi, gi, l, h in zip(x, gl, lo, hi)
        ]
        pg = [0.0 if hd else gi for hd, gi in zip(held, gl)]
        return value, g, pg, held, _inf_norm(pg), ok

    def keep(best, value, x, norm, ok):
        if ok and (best is None or value > best[0]):
            return (value, x[:k], x[k:], norm)
        return best

    f, g, pg, held, norm, ok = yield from evaluate(x)
    best = keep(None, f, x, norm, ok)
    hess_inv = None  # None until a curvature pair is accepted
    iters = 0
    while norm >= opts.grad_tol and iters < opts.max_iter:
        d = None
        if hess_inv is not None:
            d = [
                0.0 if hd or (xi <= l and di < 0.0) or (xi >= h and di > 0.0) else di
                for hd, di, xi, l, h in zip(held, hess_inv.dot(pg).tolist(), x, lo, hi)
            ]
            if g.dot(np.array(d)) <= 0.0:
                d = None
        if d is None:
            # steepest step of at most unit length: on the way to the upper
            # log-std clamp the objective is convex, no curvature pair is
            # accepted there, and a short step would crawl to the clamp
            pga = np.array(pg)
            scale = max(1.0, math.sqrt(pga.dot(pga)))
            d = [p / scale for p in pg]
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_new = [
                min(max(xi + t * di, l), h) for xi, di, l, h in zip(x, d, lo, hi)
            ]
            s = np.array([a - b for a, b in zip(x_new, x)])
            gain = g.dot(s)
            if gain > 0.0:
                f_new, g_new, pg_new, held_new, norm_new, ok = yield from evaluate(
                    x_new
                )
                if f_new >= f + _ARMIJO * gain:
                    break
            t *= 0.5
        else:
            if hess_inv is None:
                break
            hess_inv = None  # retry from a steepest step
            continue
        iters += 1
        y = g - g_new
        sy, yy = s.dot(y), y.dot(y)
        if sy > _CURVATURE_TOL * math.sqrt(s.dot(s)) * math.sqrt(yy):
            if hess_inv is None:
                hess_inv = eye * (sy / yy)
            v = eye - s[:, None] * y / sy
            hess_inv = v.dot(hess_inv).dot(v.T) + s[:, None] * s / sy
        x, f, g, pg, held, norm = x_new, f_new, g_new, pg_new, held_new, norm_new
        best = keep(best, f, x, norm, ok)
    return best, iters


def maximize_empowerment(
    model: DynamicsModel, state, opts: OptimizerOptions
) -> EmpowermentEstimate:
    """Ascend the MI objective with projected BFGS; best result over restarts.

    Restart r uses seed ``opts.seed + r`` for its (fixed) eps draw, so each
    restart ascends a deterministic smooth objective with analytic
    gradients.  The ascent is a quasi-Newton (BFGS) iteration over
    (action_mean, action_log_std) with Armijo backtracking, log-std clipped
    to ``[LOG_STD_MIN, LOG_STD_MAX]``; one iteration may take several
    objective evaluations.  The restarts advance in lockstep: each round
    evaluates the next trial point of every live restart in one batched
    objective call, one lane per restart, and a lane's numbers do not
    depend on the others.  Each restart keeps its best self-consistent
    iterate; a restart whose objective turns non-finite, or that finds no
    self-consistent iterate, counts as failed.  ``iterations`` is the
    quasi-Newton iteration count of the winning restart; ``grad_norm`` is
    the infinity norm of the projected gradient (log-std components
    pushing against an active clamp are zeroed) at the returned policy,
    and ``converged`` means it is below ``grad_tol``.
    """
    state = _as_vector(state, model.state_dim, "state")
    k = model.action_dim

    eps, ascents, trials = [], [], []
    for r in range(opts.restarts):
        # one stream per restart: its first rows are eps, its last row the
        # initial-mean kick
        draw = _draw_eps(opts.seed + r, opts.mc_samples + 1, k)
        eps.append(draw[:-1])
        # restart 0 starts at the canonical initial policy; later restarts
        # perturb the initial mean to reach other basins of the objective.
        # The perturbation is kept small: for saturating dynamics the
        # surrogate (delta-method marginal) is only trustworthy near the
        # activations' linear range, and far-out means can inflate the
        # objective spuriously (the propagated marginal variance collapses
        # while the sampled conditional means still spread).
        mean = (0.5 * draw[-1]).tolist() if r > 0 else [0.0] * k
        ascents.append(_ascend(mean + [-1.0] * k, opts))
        trials.append(next(ascents[-1]))
    eps = np.stack(eps)

    results = [None] * opts.restarts  # (best, iterations) per finished restart
    live = list(range(opts.restarts))
    while live:
        X = np.array([trials[r] for r in live])
        value, gmean, glog, ok = _mi_core(
            model, state, X[:, :k], X[:, k:], eps[live], True
        )
        grad = np.concatenate([gmean, glog], axis=1)
        running = []
        for r, v, g, c in zip(live, value.tolist(), grad, ok.tolist()):
            try:
                trials[r] = ascents[r].send((v, g, c))
                running.append(r)
            except StopIteration as finished:
                results[r] = finished.value
            except FloatingPointError:
                pass  # non-finite objective: the restart failed
        live = running

    best = None
    failures = 0
    for result in results:
        if result is None or result[0] is None:
            failures += 1
        elif best is None or result[0][0] > best[0]:
            best = (*result[0], result[1])

    if best is None:
        raise RuntimeError(f"all {failures} restarts diverged")
    value, mean, log_std, grad_norm, iters = best
    return EmpowermentEstimate(
        value=max(value, 0.0),
        policy=GaussianPolicy(mean, log_std),
        iterations=iters,
        converged=bool(grad_norm < opts.grad_tol),
        grad_norm=grad_norm,
        restarts_failed=failures,
        mc_samples=opts.mc_samples,
        seed=opts.seed,
    )


def select_action(model: DynamicsModel, state, candidates, opts: OptimizerOptions):
    """One-step greedy action choice.

    Predicts the next-state mean for each candidate action and returns the
    candidate whose predicted state has the highest empowerment, together
    with that value.  Ties break toward the lowest candidate index.
    """
    state = _as_vector(state, model.state_dim, "state")
    cands = [_as_vector(a, model.action_dim, "candidate action") for a in candidates]
    if not cands:
        raise ValueError("candidates must be non-empty")
    d = model.state_dim
    best_a = None
    best_v = -np.inf
    for a in cands:
        y = forward_point(model.net, np.concatenate([state, a]))
        est = maximize_empowerment(model, y[:d], opts)
        if est.value > best_v:
            best_a, best_v = a, est.value
    return best_a, best_v


def empowerment_landscape(model: DynamicsModel, state_grid, opts: OptimizerOptions):
    """Empowerment per grid state, with per-state seeds ``opts.seed + index``.

    Every grid state is checked before the sweep starts: a non-finite or
    wrong-length one raises ValueError.  Per-state optimizer failures
    (all restarts diverged) yield a None entry instead of aborting the
    whole sweep.  Output order matches input order.
    """
    states = [_as_vector(s, model.state_dim, "state") for s in state_grid]
    results = []
    for i, s in enumerate(states):
        per_state = replace(opts, seed=opts.seed + i)
        try:
            est = maximize_empowerment(model, s, per_state)
        except RuntimeError:
            est = None
        results.append((s, est))
    return results
