"""Efficient empowerment: maximize the Gaussian-channel mutual-information
objective over a per-state Gaussian action distribution.

The objective averages closed-form KL divergences from the conditional
next-state Gaussian of each action to a Gaussian marginal q.  For a
one-dimensional action both the average and q come from K = 20
Gauss-Hermite nodes of the policy: q is the moment match of the node
conditionals' mixture, exact in its mean and variance, and the objective
is the node-weighted mean of their KL divergences to q; it draws no random
numbers.  For a multi-dimensional action, q comes from moment propagation
through the dynamics net with the action slots carrying the policy's mean
and variance (first-order delta method on the nonlinear units), and the
average is a reparameterized Monte Carlo mean over one fixed eps draw per
restart (common random numbers).  Either objective is deterministic and
smooth, so a projected quasi-Newton (BFGS) ascent with analytic gradients
applies; the gradients are verified against central finite differences in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import DiagonalGaussian
from .nets import DynamicsModel, _as_vector, _check_int, _check_real

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

# Multi-dimensional actions only (the node rule is consistent by the law
# of total variance): an optimizer iterate is accepted when the mean
# squared mismatch between sampled conditional means and the propagated
# marginal mean stays within this factor of the marginal variance; 3 leaves
# room for Monte Carlo fluctuation while rejecting the saturated regime
# where the mismatch exceeds the propagated variance by orders of magnitude.
_CONSISTENCY_FACTOR = 3.0

# Armijo sufficient-increase constant, backtracking budget (step halvings)
# and the relative curvature s.y below which a BFGS update is skipped
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
_CURVATURE_TOL = 1e-10

# Probabilists' Gauss-Hermite rule of K = 20 points (numpy's hermegauss(20),
# weights divided by their sum), stored so that importing the package
# loads no numpy.polynomial; the rule is symmetric, and the positive half
# is mirrored.  E_{x~N(0,1)} f(x) = sum_k w_k f(x_k), exact for polynomials
# of degree < 40.
_GH_HALF = np.array([
    [0.3469641570813559, 0.2607930634495548],
    [1.042945348802751, 0.16173933398400003],
    [1.7452473208141268, 0.06150637206397696],
    [2.458663611172368, 0.013997837447100996],
    [3.1890148165533896, 0.0018301031310804924],
    [3.9439673506573163, 0.00012882627996192942],
    [4.734581334046055, 4.4021210902308646e-06],
    [5.5787388058932015, 6.127490259982928e-08],
    [6.510590157013654, 2.4820623623151797e-10],
    [7.619048541679758, 1.2578006724379264e-13],
])
_GH_NODES = np.concatenate([-_GH_HALF[::-1, 0], _GH_HALF[:, 0]])
_GH_WEIGHTS = np.concatenate([_GH_HALF[::-1, 1], _GH_HALF[:, 1]])


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
    restarts: int = 1
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


def marginal_transition(
    model: DynamicsModel, state, policy: GaussianPolicy
) -> DiagonalGaussian:
    """p(x'|x) with the action marginalized out, as the objective forms it.

    For a one-dimensional action: the mean and variance of the mixture of
    the conditionals at the policy's 20 Gauss-Hermite nodes.  Otherwise:
    moment propagation through the dynamics net (see
    ``DynamicsModel._lane_pass``).
    """
    state = _as_vector(state, model.state_dim, "state")
    _check_policy(model, policy)
    mean, log_std = policy.action_mean[None], policy.action_log_std[None]
    if policy.dim == 1:
        mq, vq = _node_moments(model, state, mean, log_std)[:2]
    else:
        mq, vq = model._lane_pass(
            state, mean, np.exp(2.0 * log_std), np.empty((1, 0, policy.dim))
        )[:2]
    return DiagonalGaussian(mq[0], vq[0])


def _node_moments(model, state, mean, log_std):
    """The conditionals at each lane's Gauss-Hermite node actions
    mean + exp(log_std) * x_k, for (lanes, 1) ``mean`` and ``log_std``, and
    their mixture's moments: M and V (lanes, d), the nodes' offsets from M
    and variances (lanes, K, d), the action offsets exp(log_std) * x_k
    (lanes, K, 1) and the lane pass's tape, whose moment row goes unread.
    """
    offsets = np.exp(log_std)[:, None, :] * _GH_NODES[:, None]
    _, _, mp, vp, tape = model._lane_pass(
        state, mean, np.exp(2.0 * log_std), mean[:, None, :] + offsets
    )
    w = _GH_WEIGHTS[:, None]
    M = (w * mp).sum(axis=1)
    dm = mp - M[:, None, :]
    V = (w * (vp + dm * dm)).sum(axis=1)
    return M, V, dm, vp, offsets, tape


def _mi_core(model, state, mean, log_std, eps, want_grad):
    """Objective (and optionally its gradient), per lane.

    ``mean`` and ``log_std`` are (lanes, k) and every lane shares
    ``state``.  Returns arrays over lanes: the value, the gradients wrt
    mean and log-std (None without ``want_grad``) and the self-consistency
    flag.

    For k = 1 the value is sum_k w_k KL(N(m_k, v_k) || N(M, V)) over the
    Gauss-Hermite nodes (see ``_node_moments``), ``eps`` is not read and
    the flag is always true.  Its gradient holds q = N(M, V) fixed: q is
    the Gaussian closest to the node mixture in the KL the value sums, so
    the derivative through (M, V) is zero.  For k > 1 ``eps`` is
    (lanes, n, k), one fixed draw per lane, and the value is the mean KL
    from the conditionals at the actions mean + exp(log_std) * eps to the
    delta-method marginal.
    """
    if mean.shape[1] == 1:
        M, V, dm, vp, offsets, tape = _node_moments(model, state, mean, log_std)
        w = _GH_WEIGHTS[:, None]
        # the node terms (v_k + dm_k^2) / 2V sum to 1/2 with the weights, so
        # the weighted KL sum is (ln V - sum_k w_k ln v_k) / 2 per dimension
        value = 0.5 * (np.log(V) - (w * np.log(vp)).sum(axis=1)).sum(axis=1)
        consistent = np.ones(len(mean), dtype=bool)
        if not want_grad:
            return value, None, None, consistent
        V = V[:, None, :]
        zero = np.zeros_like(M)
        _, ga, _ = model._lane_reverse(
            tape, zero, zero, w * dm / V, w * (0.5 / V - 0.5 / vp)
        )
        # node action k is mean + exp(log_std) * x_k
        return value, ga.sum(axis=1), (ga * offsets).sum(axis=1), consistent

    n = eps.shape[1]
    sigma_eps = np.exp(log_std)[:, None, :] * eps
    var_a = np.exp(2.0 * log_std)
    actions = mean[:, None, :] + sigma_eps
    mq, vq, mp, vp, tape = model._lane_pass(state, mean, var_a, actions)
    mq, vq = mq[:, None, :], vq[:, None, :]  # broadcast over the sampled rows

    dm = mp - mq
    dm2 = dm * dm
    vp_dm2 = vp + dm2
    kl = 0.5 * (np.log(vq) - np.log(vp)) + vp_dm2 / (2.0 * vq) - 0.5
    value = kl.reshape(len(kl), -1).sum(axis=1) / n
    # self-consistency of the surrogate: the marginal variance produced by
    # moment propagation should account for the spread of the sampled
    # conditional means; when it does not (saturated action means), the KL
    # terms inflate spuriously and the value is not trustworthy
    consistent = (dm2.sum(axis=1) / n <= _CONSISTENCY_FACTOR * vq[:, 0]).all(axis=1)
    if not want_grad:
        return value, None, None, consistent

    # d KL / d (mq, vq, mp, vp).  Negation is exact, so -(dm / vq) summed
    # equals the sum of -dm / vq bit for bit.
    dm_vq = dm / vq
    half_vq = 0.5 / vq
    gmean, ga, gvar = model._lane_reverse(
        tape,
        dm_vq.sum(axis=1) / -n,
        (half_vq - vp_dm2 / (2.0 * vq**2)).sum(axis=1) / n,
        dm_vq / n,
        (half_vq - 0.5 / vp) / n,
    )
    # reparameterisation: action row i is mean + exp(log_std) * eps_i
    gmean = ga.sum(axis=1) + gmean
    glog = (ga * sigma_eps).sum(axis=1) + gvar * 2.0 * var_a
    return value, gmean, glog, consistent


def _draw_eps(seed: int, mc_samples: int, action_dim: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((mc_samples, action_dim))


def _objective(model, state, policy, mc_samples, seed, want_grad):
    """Validated inputs, the seed's eps draw (k > 1 only) and one
    single-lane ``_mi_core`` call: the value, with the gradient if
    ``want_grad``."""
    state = _as_vector(state, model.state_dim, "state")
    _check_policy(model, policy)
    _check_int("mc_samples", mc_samples)
    _check_int("seed", seed, minimum=0)
    k = model.action_dim
    eps = _draw_eps(seed, mc_samples, k)[None] if k > 1 else None
    value, gmean, glog, _ = _mi_core(
        model,
        state,
        policy.action_mean[None],
        policy.action_log_std[None],
        eps,
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
    """Mutual-information objective E_a KL(p(x'|x,a) || q) of ``policy``.

    For a one-dimensional action the expectation is the 20-node
    Gauss-Hermite rule and q the node mixture's moments
    (``marginal_transition``); ``mc_samples`` and ``seed`` are validated and
    have no effect.  Otherwise it is a Monte Carlo mean over ``mc_samples``
    eps rows drawn from ``seed``, deterministic per seed, with q the
    propagated marginal.

    Not a lower bound: for any q the objective is
    I_pi(A; X') + KL(p_pi(x'|x) || q) >= I_pi(A; X').  The name and the
    two sampling arguments stay because perfbench/workloads.py calls it
    with them.
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
    As with ``mi_lower_bound``, ``mc_samples`` and ``seed`` have no effect
    for a one-dimensional action, the objective is not a lower bound on
    I_pi, and the name stays because perfbench/workloads.py calls it."""
    return _objective(model, state, policy, mc_samples, seed, True)


def _inf_norm(v):
    """max |v_i| over a list, NaN if an entry is NaN (as numpy's ``max``)."""
    return math.nan if any(map(math.isnan, v)) else max(map(abs, v))


def _ascend(x, opts):
    """Projected BFGS ascent of one restart from ``x`` = (mean, log_std).

    A generator: it yields each trial point as a list and is sent back
    that point's ``(value, gradient, consistent)``, the gradient over
    (mean, log_std) as an array.  It returns ``(best, iterations)``.
    ``best`` is the last self-consistent iterate along the path as
    ``(value, mean, log_std, grad_norm)``, ``grad_norm`` the infinity norm
    of its projected gradient, or None when no iterate was consistent.
    Raises FloatingPointError on a non-finite objective.

    Each trial step starts at unit length or shorter: the steepest step is
    the projected gradient scaled to length 1, and a quasi-Newton step
    longer than 1 is scaled down to length 1.  Armijo backtracking halves
    it from there.  The BFGS curvature pair leaves out the components held
    at the clamp at the accepted point (projected Newton, Bertsekas 1982),
    so a restart at the log-std clamp models the mean's curvature alone.

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

    f, g, pg, held, norm, ok = yield from evaluate(x)
    best = (f, x[:k], x[k:], norm) if ok else None
    hess_inv = None  # None until a curvature pair is accepted
    iters = 0
    while norm >= opts.grad_tol and iters < opts.max_iter:
        d = None
        if hess_inv is not None:
            d = [
                0.0 if hd or (xi <= l and di < 0.0) or (xi >= h and di > 0.0) else di
                for hd, di, xi, l, h in zip(held, hess_inv.dot(pg).tolist(), x, lo, hi)
            ]
            # g.d = pg'H pg minus blocked terms pg_i (H pg)_i <= 0, so > 0 while
            # hess_inv is positive definite; guards an update rounding left indefinite
            if g.dot(np.array(d)) <= 0.0:
                d = None
            else:
                # no trial step is longer than the steepest step's unit
                scale = max(1.0, math.hypot(*d))
                d = [di / scale for di in d]
        if d is None:
            # steepest step of unit length: on the way to the upper log-std
            # clamp the objective is convex, no curvature pair is accepted
            # there, and a step as short as the gradient would crawl to the
            # clamp.  The loop runs only while |pg| >= grad_tol > 0, and
            # hypot neither underflows nor overflows, so scale > 0.
            scale = math.hypot(*pg)
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
        # a component held at the new point has s = 0: its gradient change
        # stays out of the pair, or it would bend the free components' model
        y = np.where(held_new, 0.0, g - g_new)
        sy, yy = s.dot(y), y.dot(y)
        if sy > _CURVATURE_TOL * math.sqrt(s.dot(s)) * math.sqrt(yy):
            if hess_inv is None:
                hess_inv = eye * (sy / yy)
            v = eye - s[:, None] * y / sy
            hess_inv = v.dot(hess_inv).dot(v.T) + s[:, None] * s / sy
        x, f, g, pg, held, norm = x_new, f_new, g_new, pg_new, held_new, norm_new
        # an accepted value is >= f + 1e-4 * gain with gain > 0, so values
        # never fall along the path and the last consistent iterate is best
        if ok:
            best = (f, x[:k], x[k:], norm)
    return best, iters


def maximize_empowerment(
    model: DynamicsModel, state, opts: OptimizerOptions
) -> EmpowermentEstimate:
    """Ascend the MI objective with projected BFGS; best result over restarts.

    The objective is deterministic and smooth with analytic gradients (see
    ``_mi_core``).  Restart r > 0 starts from a mean kicked by a draw from
    seed ``opts.seed + r``; for a multi-dimensional action that stream
    also gives restart r its fixed eps draw.  The ascent is a quasi-Newton
    (BFGS) iteration over (action_mean, action_log_std) with Armijo
    backtracking, log-std clipped to ``[LOG_STD_MIN, LOG_STD_MAX]``; one
    iteration may take several objective evaluations.  The restarts advance in lockstep: each round
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

    # the Gauss-Hermite objective of a one-dimensional action takes no eps
    n = opts.mc_samples if k > 1 else 0
    eps, ascents, trials = [], [], []
    for r in range(opts.restarts):
        # one stream per restart: its first n rows are eps, its last row the
        # initial-mean kick
        draw = _draw_eps(opts.seed + r, n + 1, k)
        eps.append(draw[:-1])
        # restart 0 starts at the canonical initial policy; later restarts
        # perturb the initial mean to reach other basins of the objective.
        # For k = 1 that is all that sets them apart, and on the pendulum
        # four restarts find the value of one to 2.5e-7.  The perturbation is
        # kept small: for saturating dynamics the delta-method marginal
        # (k > 1) is only trustworthy near the activations' linear range,
        # and far-out means can inflate that objective spuriously (the
        # propagated marginal variance collapses while the sampled
        # conditional means still spread).
        mean = (0.5 * draw[-1]).tolist() if r > 0 else [0.0] * k
        ascents.append(_ascend(mean + [-1.0] * k, opts))
        trials.append(next(ascents[-1]))
    eps = np.stack(eps)

    results = [None] * opts.restarts  # (best, iterations) per finished restart
    live = list(range(opts.restarts))
    # a diverging restart fails through its non-finite value, whatever the
    # warnings filter says about the arithmetic that produced it
    with np.errstate(all="ignore"):
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

    Predicts all candidates' next-state means with one ``model.conditional``
    call and returns the one whose predicted state has the highest
    empowerment, with that value.  Ties break toward the lowest index.
    """
    state = _as_vector(state, model.state_dim, "state")
    cands = [_as_vector(a, model.action_dim, "candidate action") for a in candidates]
    if not cands:
        raise ValueError("candidates must be non-empty")
    best_a = None
    best_v = -np.inf
    for a, mean in zip(cands, model.conditional(state, cands).mean):
        est = maximize_empowerment(model, mean, opts)
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
