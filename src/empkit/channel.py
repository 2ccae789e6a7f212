"""Discrete-channel capacity via Blahut-Arimoto, plus dynamics discretization.

This is the exact (ground-truth) route for empowerment: bin the continuous
next-state distribution per action into a row-stochastic matrix and run the
classical alternating-maximization capacity algorithm on it.  Capacities are
in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import DynamicsModel, _as_rows, _as_vector, _check_int, _check_real

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


@dataclass(frozen=True, init=False)
class DiscreteChannel:
    """Row-stochastic matrix p(x'|a): rows = actions, columns = next-state bins.

    The channel holds a factor pair, ``left`` and ``right``, with
    ``transition[a] == kron(left[a], right[a])``; ``transition`` is built
    from them, read-only, on each access.  A matrix given directly is its
    own ``right``, with a one-column ``left`` of ones; ``from_factors``
    takes a factor pair.
    """

    left: np.ndarray
    right: np.ndarray

    def __init__(self, transition):
        self._set_factors(np.ones(np.shape(transition)[:1] + (1,)), transition)

    @classmethod
    def from_factors(cls, left, right) -> DiscreteChannel:
        """The channel whose row a is ``kron(left[a], right[a])``."""
        ch = object.__new__(cls)
        ch._set_factors(left, right)
        return ch

    def _set_factors(self, left, right):
        # copies, so that freezing them leaves the caller's arrays writable
        left = np.array(left, dtype=float)
        right = np.array(right, dtype=float)
        if (
            left.ndim != 2
            or right.ndim != 2
            or len(left) != len(right)
            or 0 in left.shape + right.shape
        ):
            raise ValueError("factors must be non-empty matrices with one row per action")
        if (left < 0).any() or (right < 0).any():
            raise ValueError("factor entries must be >= 0")
        # the product's row sums without the product: NaN or inf where the
        # product holds a NaN, an inf or an overflow, so such rows fail too
        rows = np.einsum("ai,aj->a", left, right)
        if not (np.abs(rows - 1.0) <= _ROW_SUM_TOL).all():
            raise ValueError("every row must sum to 1 within 1e-9 over finite entries")
        left.setflags(write=False)
        right.setflags(write=False)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def transition(self) -> np.ndarray:
        t = _row_kron(self.left, self.right)
        t.setflags(write=False)
        return t

    @property
    def n_actions(self) -> int:
        return self.left.shape[0]

    @property
    def n_states(self) -> int:
        return self.left.shape[1] * self.right.shape[1]


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

    The gap closes slowest when the optimal input leaves actions unused:
    their weight decays only gradually, so even at the default ``tol`` a
    run can stop at ``max_iter`` with ``converged`` False.
    """
    _check_real("tol", tol)
    _check_int("max_iter", max_iter)
    left, right = ch.left, ch.right
    neg_entropy = _plogp(left) * right.sum(axis=1) + left.sum(axis=1) * _plogp(right)
    pl = np.empty_like(left)
    m = np.empty((left.shape[1], right.shape[1]))
    m_pos = np.empty(m.shape, dtype=bool)
    rl = np.empty_like(left)

    p = np.full(ch.n_actions, 1.0 / ch.n_actions)
    lower_bounds = []
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
        gap = upper - lower
        converged = bool(gap < tol)
        # the last iteration stops without an update, so that p is the
        # input distribution whose bounds are reported
        if converged or it == max_iter:
            break
        w = p * np.exp(D - upper)
        p = w / w.sum()
    p = p / p.sum()
    p.setflags(write=False)
    return CapacityResult(
        capacity=max(lower, 0.0),
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
    # imported here, not at module top: scipy.special is most of the import
    # time and memory of scipy, and only this binning step needs it
    from scipy.special import ndtr

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
    _check_int("n_actions", n_actions)
    _check_int("bins", bins)
    _check_real("action_range", action_range)
    _check_real("pad_sigma", pad_sigma)
    _check_real("tol", tol)
    _check_int("max_iter", max_iter)
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
