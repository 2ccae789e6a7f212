"""Efficient empowerment: maximize the Gaussian-channel mutual-information
objective over a per-state Gaussian action distribution.

The objective averages closed-form KL divergences from the conditional
next-state Gaussians at a set of weighted node actions of the policy to
q, the moment match of their mixture (exact in its mean and variance).
``_nodes`` alone chooses them, a tensor-product Gauss-Hermite rule, so the
objective is deterministic and smooth and a projected quasi-Newton (BFGS)
ascent with analytic gradients applies; the gradients are verified against
central finite differences in the test suite.
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
# every restart starts at this log-std: pendulum optima sit at the clamp
_START_LOG_STD = 1.0

# Armijo sufficient-increase constant, backtracking budget (step halvings)
# and the relative curvature s.y below which a BFGS update is skipped
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
_CURVATURE_TOL = 1e-10

# Probabilists' Gauss-Hermite rule of 20 points: numpy's hermegauss(20),
# weights divided by their sum, stored so that an estimate for k <= 2 loads
# no numpy.polynomial; the rule is symmetric, and the positive half is mirrored
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
        # a copy (the clamp below copies log_std), so that freezing them
        # leaves the caller's arrays writable
        mean = np.atleast_1d(np.array(self.action_mean, dtype=float))
        log_std = np.atleast_1d(np.asarray(self.action_log_std, dtype=float))
        if mean.shape != log_std.shape or mean.ndim != 1:
            raise ValueError("mean and log_std must be vectors of equal length")
        if not (np.isfinite(mean).all() and np.isfinite(log_std).all()):
            raise ValueError("policy parameters must be finite")
        # the same bits as np.clip at half its cost
        log_std = np.minimum(np.maximum(log_std, LOG_STD_MIN), LOG_STD_MAX)
        mean.setflags(write=False)
        log_std.setflags(write=False)
        object.__setattr__(self, "action_mean", mean)
        object.__setattr__(self, "action_log_std", log_std)

    @property
    def dim(self) -> int:
        return self.action_mean.size


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings of ``maximize_empowerment``; ``seed`` places restart kicks.
    ``mc_samples`` is validated, and only perfbench/workloads.py reads it."""

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
    counts the restarts whose objective turned non-finite.
    """

    value: float
    policy: GaussianPolicy
    iterations: int
    converged: bool
    grad_norm: float
    restarts_failed: int


def _check_policy(model: DynamicsModel, policy: GaussianPolicy) -> None:
    if policy.dim != model.action_dim:
        raise ValueError(f"policy must have dimension {model.action_dim}")


def marginal_transition(
    model: DynamicsModel, state, policy: GaussianPolicy
) -> DiagonalGaussian:
    """p(x'|x) with the action marginalized out, as the objective forms it:
    the mean and variance of the mixture of the conditionals at the
    policy's node actions (``_nodes``), so the q of ``mi_lower_bound``.
    """
    state = _as_vector(state, model.state_dim, "state")
    _check_policy(model, policy)
    M, V = _node_moments(
        model, state, policy.action_mean, policy.action_log_std, _nodes(policy.dim)
    )[:2]
    return DiagonalGaussian(M, V)


def _nodes(k):
    """The objective's node set ``(x, w)`` for a k-dimensional action: the
    tensor product of a probabilists' Gauss-Hermite rule of K points, x
    (K^k, k) and product weights w (K^k, 1).  K = 20, the stored rule, while
    20^k <= 400 (k <= 2), else the largest K with K^k <= 400, at least 2."""
    n = 20
    while n > 2 and n**k > 400:
        n -= 1
    x1, w1 = _GH_NODES, _GH_WEIGHTS
    if n < 20:
        from numpy.polynomial.hermite_e import hermegauss

        x1, w1 = hermegauss(n)
        w1 /= w1.sum()
    # each further dimension repeats every row once per point of the rule
    x, w = x1[:, None], w1[:, None]
    for _ in range(k - 1):
        x = np.column_stack([np.repeat(x, n, axis=0), np.tile(x1, len(x))])
        w = (w * w1).reshape(-1, 1)
    return x, w


def _node_moments(model, state, mean, log_std, nodes):
    """The conditionals at the node actions mean + exp(log_std) * x_i and
    their mixture's moments, for (k,) ``mean`` and ``log_std`` and the
    ``(x, w)`` of ``_nodes``.

    Returns M and V (d,), the nodes' offsets from M and variances (n, d),
    the weights, the action offsets exp(log_std) * x_i (n, k) and the node
    pass's tape.
    """
    x, w = nodes
    offsets = np.exp(log_std) * x
    mp, vp, tape = model._node_pass(state, mean + offsets)
    M = (w * mp).sum(axis=0)
    dm = mp - M
    V = (w * (vp + dm * dm)).sum(axis=0)
    return M, V, dm, vp, w, offsets, tape


def _mi_core(model, state, mean, log_std, nodes, want_grad):
    """Objective (and optionally its gradient) of one policy.

    ``mean`` and ``log_std`` are (k,); ``nodes`` is the ``(x, w)`` of
    ``_nodes``.  Returns the value and the gradients wrt mean and log-std
    (None without ``want_grad``).

    The value is sum_i w_i KL(N(m_i, v_i) || N(M, V)) over the node
    actions of ``_node_moments``.  Its gradient holds q = N(M, V) fixed: q
    is the Gaussian closest to the weighted node mixture in the KL the
    value sums, so the derivative through (M, V) is zero for any weights.
    """
    M, V, dm, vp, w, offsets, tape = _node_moments(model, state, mean, log_std, nodes)
    # the node terms (v_i + dm_i^2) / 2V sum to 1/2 with the weights, so
    # the weighted KL sum is (ln V - sum_i w_i ln v_i) / 2 per dimension
    value = 0.5 * (np.log(V) - (w * np.log(vp)).sum(axis=0)).sum()
    if not want_grad:
        return value, None, None
    ga = model._node_reverse(tape, w * dm / V, w * (0.5 / V - 0.5 / vp))
    # node action i is mean + exp(log_std) * x_i
    return value, ga.sum(axis=0), (ga * offsets).sum(axis=0)


def _objective(model, state, policy, mc_samples, seed, want_grad):
    """Validated inputs and one ``_mi_core`` call: the value, with the
    gradient if ``want_grad``; ``mc_samples`` and ``seed`` are only checked."""
    state = _as_vector(state, model.state_dim, "state")
    _check_policy(model, policy)
    _check_int("mc_samples", mc_samples)
    _check_int("seed", seed, minimum=0)
    nodes = _nodes(model.action_dim)
    value, gmean, glog = _mi_core(
        model, state, policy.action_mean, policy.action_log_std, nodes, want_grad
    )
    if not want_grad:
        return float(value)
    return float(value), gmean, glog


def mi_lower_bound(
    model: DynamicsModel,
    state,
    policy: GaussianPolicy,
    mc_samples: int,
    seed: int,
) -> float:
    """Mutual-information objective E_a KL(p(x'|x,a) || q) of ``policy``.

    The expectation is over the node actions of ``_nodes`` and q is their
    mixture's moments; ``mc_samples`` and ``seed`` are validated and unread.

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
    As with ``mi_lower_bound``, ``mc_samples`` and ``seed`` have no effect,
    the objective is not a lower bound on I_pi, and the name stays because
    perfbench/workloads.py calls it."""
    return _objective(model, state, policy, mc_samples, seed, True)


def _ascend(x, objective, opts):
    """Projected BFGS ascent of one restart from ``x`` = (mean, log_std).

    ``objective`` maps a trial point, an array, to its ``(value, gradient)``,
    the gradient over (mean, log_std) as an array.  Returns ``(best,
    iterations)``.  ``best`` is the last accepted iterate as ``(value, mean,
    log_std, grad_norm)``, ``grad_norm`` the infinity norm of its projected
    gradient; values never fall along the path, so it is the best iterate.
    Raises FloatingPointError on a non-finite objective.

    Trial steps start in the unit box of the convergence test's infinity
    norm: the steepest step is the projected gradient scaled to norm 1, a
    longer quasi-Newton step is scaled down to norm 1, and Armijo
    backtracking halves either.  The BFGS pair leaves out the components
    held at the clamp at the accepted point (projected Newton, Bertsekas
    1982), so a restart at the clamp models the mean's curvature alone.
    An accepted step's pair updates the model only when a next iteration
    uses it, so an ascent that stops after one step forms none.
    """
    k = x.size // 2
    lo = np.array([-math.inf] * k + [LOG_STD_MIN] * k)
    hi = np.array([math.inf] * k + [LOG_STD_MAX] * k)
    eye = np.eye(2 * k)

    def evaluate(x):
        value, g = objective(x)
        if not math.isfinite(value):
            raise FloatingPointError("non-finite objective")
        # components pushing against an active clamp are held at the clamp
        held = ((x <= lo) & (g < 0.0)) | ((x >= hi) & (g > 0.0))
        pg = np.where(held, 0.0, g)
        return value, g, pg, held, np.abs(pg).max()

    f, g, pg, held, norm = evaluate(x)
    hess_inv = None  # None until a curvature pair is accepted
    pair = None  # (s, y) of the last accepted step, not yet applied
    iters = 0
    while norm >= opts.grad_tol and iters < opts.max_iter:
        if pair is not None:
            (s, y), pair = pair, None
            sy, yy = s.dot(y), y.dot(y)
            if sy > _CURVATURE_TOL * math.sqrt(s.dot(s)) * math.sqrt(yy):
                if hess_inv is None:
                    hess_inv = eye * (sy / yy)
                v = eye - s[:, None] * y / sy
                hess_inv = v.dot(hess_inv).dot(v.T) + s[:, None] * s / sy
        d = None
        if hess_inv is not None:
            d = hess_inv.dot(pg)
            d[held | ((x <= lo) & (d < 0.0)) | ((x >= hi) & (d > 0.0))] = 0.0
            # g.d = pg'H pg minus blocked terms pg_i (H pg)_i <= 0, so > 0 while
            # hess_inv is positive definite; guards an update rounding left indefinite
            if g.dot(d) <= 0.0:
                d = None
            else:
                # no trial step leaves the steepest step's unit box
                d /= max(1.0, np.abs(d).max())
        if d is None:
            # steepest step of infinity norm 1: on the way to the upper
            # log-std clamp the objective is convex, no curvature pair is
            # accepted there, and a step as short as the gradient would crawl
            # to the clamp; from log-std 1 a step led by log-std lands on it.
            # The loop runs only while norm >= grad_tol > 0.
            d = pg / norm
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_new = np.minimum(np.maximum(x + t * d, lo), hi)
            s = x_new - x
            gain = g.dot(s)
            if gain > 0.0:
                f_new, g_new, pg_new, held_new, norm_new = evaluate(x_new)
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
        pair = s, np.where(held_new, 0.0, g - g_new)
        x, f, g, pg, held, norm = x_new, f_new, g_new, pg_new, held_new, norm_new
    # an accepted value is >= f + 1e-4 * gain with gain > 0, so values never
    # fall along the path and the last accepted iterate is the best
    return (f, x[:k], x[k:], float(norm)), iters


def maximize_empowerment(
    model: DynamicsModel, state, opts: OptimizerOptions
) -> EmpowermentEstimate:
    """Ascend the MI objective with projected BFGS; best result over restarts.

    Every restart ascends one deterministic objective, ``_mi_core`` on the
    nodes of ``_nodes(k)``, so the value returned is ``mi_lower_bound`` of
    the policy returned; ``opts.mc_samples`` is not read.  Restart 0 starts
    at N(0, e^2) (log-std ``_START_LOG_STD``), restart r > 0 at a mean
    kicked by a draw from seed ``opts.seed + r``.  The ascent is a
    quasi-Newton (BFGS) iteration over (action_mean, action_log_std) with
    Armijo backtracking, log-std clipped to ``[LOG_STD_MIN, LOG_STD_MAX]``;
    one iteration may take several objective evaluations.  The restarts
    run one after another.  Each keeps its last accepted iterate, its best;
    a non-finite objective fails its restart.  ``iterations`` is the
    quasi-Newton iteration count of the winning restart; ``grad_norm`` is
    the infinity norm of the projected gradient (log-std components pushing
    against an active clamp are zeroed) at the returned policy, and
    ``converged`` means it is below ``grad_tol``.
    """
    state = _as_vector(state, model.state_dim, "state")
    k = model.action_dim
    nodes = _nodes(k)

    def objective(x):
        value, gmean, glog = _mi_core(model, state, x[:k], x[k:], nodes, True)
        return float(value), np.concatenate([gmean, glog])

    best = None  # (value, mean, log_std, grad_norm, iterations)
    failures = 0
    # a diverging restart fails through its non-finite value, whatever the
    # warnings filter says about the arithmetic that produced it
    with np.errstate(all="ignore"):
        for r in range(opts.restarts):
            # restart 0 starts at the canonical initial policy and draws
            # nothing; later ones kick the mean to reach other basins
            x = np.array([0.0] * k + [_START_LOG_STD] * k)
            if r > 0:
                kick = np.random.default_rng(opts.seed + r).standard_normal(k)
                x[:k] = 0.5 * kick
            try:
                result, iters = _ascend(x, objective, opts)
            except FloatingPointError:
                failures += 1  # non-finite objective: the restart failed
                continue
            if best is None or result[0] > best[0]:
                best = (*result, iters)

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
    (all restarts diverged) give a None entry instead of aborting the
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
