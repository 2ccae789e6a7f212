"""Discrete-channel capacity via Blahut-Arimoto, plus dynamics discretization.

This is the exact (ground-truth) route for empowerment: bin the continuous
next-state distribution per action into a row-stochastic matrix and run the
classical alternating-maximization capacity algorithm on it.  Capacities are
in nats.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .nets import DynamicsModel, _as_rows, _as_vector

__all__ = [
    "DiscreteChannel",
    "CapacityResult",
    "blahut_arimoto",
    "discretize_dynamics",
    "oracle_empowerment",
]

_ROW_SUM_TOL = 1e-9


def _row_kron(left, right):
    """Row-wise Kronecker product: row a is ``kron(left[a], right[a])``."""
    return (left[:, :, None] * right[:, None, :]).reshape(len(left), -1)


def _plogp(x):
    """sum_j x[a, j] ln x[a, j] per row, with 0 ln 0 = 0."""
    return np.einsum("aj,aj->a", x, np.log(np.where(x > 0, x, 1.0)))


def _checked_transition(t):
    """``t``, made read-only, if it is a row-stochastic matrix; else ValueError."""
    if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
        raise ValueError("transition must be a non-empty matrix")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("transition entries must be finite and >= 0")
    rows = t.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > _ROW_SUM_TOL):
        raise ValueError("every row must sum to 1 within 1e-9")
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class DiscreteChannel:
    """Row-stochastic matrix p(x'|a): rows = actions, columns = next-state bins.

    ``left`` and ``right`` factor every row as a Kronecker product,
    ``transition[a] == kron(left[a], right[a])``.  A matrix given directly
    is its own ``right``, with a one-column ``left`` of ones;
    ``from_factors`` builds the matrix from a factor pair.
    """

    transition: np.ndarray
    left: np.ndarray = field(init=False, repr=False, compare=False)
    right: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writable
        t = _checked_transition(np.array(self.transition, dtype=float))
        object.__setattr__(self, "transition", t)
        self._set_factors(np.ones((t.shape[0], 1)), t)

    @classmethod
    def from_factors(cls, left, right) -> DiscreteChannel:
        """The channel whose row a is ``kron(left[a], right[a])``."""
        left = np.array(left, dtype=float)
        right = np.array(right, dtype=float)
        if left.ndim != 2 or right.ndim != 2 or len(left) != len(right):
            raise ValueError("factors must be matrices with one row per action")
        if (left < 0).any() or (right < 0).any():
            raise ValueError("factor entries must be >= 0")
        # the product is already a fresh array: set it without the copy
        # that __init__ makes
        ch = object.__new__(cls)
        object.__setattr__(ch, "transition", _checked_transition(_row_kron(left, right)))
        ch._set_factors(left, right)
        return ch

    def _set_factors(self, left, right):
        left.setflags(write=False)
        right.setflags(write=False)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def n_actions(self) -> int:
        return self.transition.shape[0]

    @property
    def n_states(self) -> int:
        return self.transition.shape[1]


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    input_distribution: np.ndarray
    iterations: int
    converged: bool
    # Arimoto bound gap (upper - lower) of the iterate whose lower bound is
    # ``capacity``; below ``tol`` exactly when ``converged``
    gap: float
    # per-iteration mutual-information values (a monotone lower-bound sequence)
    lower_bounds: tuple = ()


def blahut_arimoto(
    ch: DiscreteChannel, tol: float = 1e-9, max_iter: int = 10_000
) -> CapacityResult:
    """Channel capacity by alternating maximization, with Arimoto's bounds.

    Starting from a uniform input distribution p, each iteration computes
    per-action divergences D_a = sum_s P[a,s] ln(P[a,s]/m[s]) with
    m = p^T P, giving I(p) = sum p_a D_a <= C <= max_a D_a.  The update is
    p_a <- p_a exp(D_a) (normalized).  Terminates when the bound gap drops
    below ``tol``; the reported capacity is the (monotone) lower bound.

    The iteration runs on the channel's factors, P[a] = kron(L[a], R[a]):
    m, as an L-by-R table, is (p L)^T R, and sum_s P[a,s] ln m[s] is
    sum_i L[a,i] (R ln m^T)[a,i].  sum_s P ln P, computed once, splits
    into plogp(L) rowsum(R) + rowsum(L) plogp(R).  An iteration thus costs
    two products over the factors and never touches P itself: for the
    oracle's 64 x 41^2 channel, 64 x 41 factors instead of 64 x 1681.
    Their products go into buffers allocated once per call.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    left, right = ch.left, ch.right
    neg_entropy = _plogp(left) * right.sum(axis=1) + left.sum(axis=1) * _plogp(right)
    pl = np.empty_like(left)
    m = np.empty((left.shape[1], right.shape[1]))
    m_pos = np.empty(m.shape, dtype=bool)
    rl = np.empty_like(left)

    p = np.full(ch.n_actions, 1.0 / ch.n_actions)
    lower_bounds = []
    converged = False
    it = 0
    capacity = 0.0
    for it in range(1, max_iter + 1):
        np.multiply(p[:, None], left, out=pl)
        np.matmul(pl.T, right, out=m)
        # ln m in place, 0 where m == 0: such bins carry no probability
        # anywhere p > 0, and a finite value keeps 0 * ln m at 0
        np.greater(m, 0.0, out=m_pos)
        np.log(m, out=m, where=m_pos)
        np.matmul(right, m.T, out=rl)
        D = neg_entropy - np.einsum("ai,ai->a", left, rl)
        lower = float(p @ D)
        upper = float(D.max())
        lower_bounds.append(lower)
        capacity = max(lower, 0.0)
        gap = upper - lower
        if gap < tol:
            converged = True
            break
        w = p * np.exp(D - upper)
        p = w / w.sum()
    p = p / p.sum()
    p.setflags(write=False)
    return CapacityResult(
        capacity=capacity,
        input_distribution=p,
        iterations=it,
        converged=converged,
        gap=gap,
        lower_bounds=tuple(lower_bounds),
    )


def discretize_dynamics(
    model: DynamicsModel, state, action_grid, state_bins
) -> DiscreteChannel:
    """Bin p(x'|x,a) for every action in ``action_grid``.

    ``state_bins`` is a list of strictly increasing edge arrays, one per
    state dimension; dimension d gets len(edges_d)-1 bins.  Tail mass
    beyond the outer edges is assigned to the outermost bins, so rows sum
    to one exactly.  Per-dimension masses multiply (diagonal model), so
    the channel is built from its factors: the row-wise Kronecker product
    of the first D-1 mass matrices, and the last one.
    """
    state = _as_vector(state, model.state_dim, "state")
    actions = _as_rows(action_grid, model.action_dim, "action_grid")
    edges = [np.asarray(e, dtype=float) for e in state_bins]
    for e in edges:
        if e.ndim != 1 or e.size < 2 or not (np.diff(e) > 0).all():
            raise ValueError("bin edges must be strictly increasing with >= 2 entries")
    if len(edges) != model.state_dim:
        raise ValueError("need one edge array per state dimension")

    conds = model.conditional(state, actions)
    means, sds = conds.mean, np.sqrt(conds.variance)
    masses = []
    for d, e in enumerate(edges):
        cdf = ndtr((e - means[:, d, None]) / sds[:, d, None])
        probs = np.diff(cdf, axis=1)
        probs[:, 0] += cdf[:, 0]
        probs[:, -1] += 1.0 - cdf[:, -1]
        masses.append(probs)
    left = np.ones((len(actions), 1))
    for probs in masses[:-1]:
        left = _row_kron(left, probs)
    return DiscreteChannel.from_factors(left, masses[-1])


def oracle_empowerment(
    model: DynamicsModel,
    state,
    n_actions: int = 64,
    bins: int = 41,
    action_range: float = 4.0,
    tol: float = 1e-3,
    max_iter: int = 10_000,
    pad_sigma: float = 6.0,
) -> CapacityResult:
    """Ground-truth empowerment of a scalar-action model at one state.

    Discretizes the action axis uniformly over [-action_range, action_range]
    and bins each state dimension over the span of the conditional means,
    padded by ``pad_sigma`` standard deviations, so the bin resolution
    adapts to the locally reachable set instead of the full state space.
    """
    if model.action_dim != 1:
        raise ValueError("oracle_empowerment supports scalar actions only")
    state = _as_vector(state, model.state_dim, "state")
    for name, count in (("n_actions", n_actions), ("bins", bins)):
        if not isinstance(count, numbers.Integral):
            raise ValueError(f"{name} must be an integer")
        if count < 1:
            raise ValueError(f"{name} must be >= 1")
    if not np.isfinite(action_range):
        raise ValueError("action_range must be finite")
    if not 0 < pad_sigma < np.inf:
        raise ValueError("pad_sigma must be positive and finite")
    acts = np.linspace(-action_range, action_range, n_actions)[:, None]
    conds = model.conditional(state, acts)
    means, sds = conds.mean, np.sqrt(conds.variance)
    edges = []
    for d in range(model.state_dim):
        pad = pad_sigma * sds[:, d].max()
        edges.append(
            np.linspace(means[:, d].min() - pad, means[:, d].max() + pad, bins + 1)
        )
    ch = discretize_dynamics(model, state, acts, edges)
    return blahut_arimoto(ch, tol=tol, max_iter=max_iter)
