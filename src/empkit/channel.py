"""Discrete-channel capacity via Blahut-Arimoto, plus dynamics discretization.

This is the exact (ground-truth) route for empowerment: bin the continuous
next-state distribution per action into a row-stochastic matrix and run the
classical alternating-maximization capacity algorithm on it.  Capacities are
in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import DiagonalGaussian
from .nets import DynamicsModel, _as_vector, _check_int, _check_real

__all__ = [
    "DiscreteChannel",
    "CapacityResult",
    "blahut_arimoto",
    "discretize_dynamics",
    "oracle_empowerment",
]

_ROW_SUM_TOL = 1e-9
# the oracle's bins reach this many standard deviations past the
# conditional means
_PAD_SIGMA = 6.0
# blahut_arimoto's over-relaxation: mu grows by this factor after each
# accepted step, and a trial with mu > 1 must raise the lower bound by more
# than this fraction of it (8 ulps)
_RELAX_GROWTH = 1.5
_RELAX_MARGIN = 8 * np.finfo(float).eps


def _row_kron(left, right):
    """Row-wise Kronecker product: row a is ``kron(left[a], right[a])``."""
    return (left[:, :, None] * right[:, None, :]).reshape(len(left), -1)


def _plogp(x):
    """sum_j x[a, j] ln x[a, j] per row, with 0 ln 0 = 0."""
    return np.einsum("aj,aj->a", x, np.log(np.where(x > 0, x, 1.0)))


def _extrapolated(p, anchor):
    """q proportional to p (p / anchor): log q = 2 log p - log anchor, up
    to a constant.  The ratio is formed in logs and scaled so that its
    largest entry is 1, so nothing overflows; entries with p = 0 stay 0
    (``anchor`` is an earlier iterate, so it is 0 only where p is)."""
    pos = p > 0
    log_r = np.full_like(p, -np.inf)
    log_r[pos] = np.log(p[pos]) - np.log(anchor[pos])
    w = p * np.exp(log_r - log_r.max())
    return w / w.sum()


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
    # evaluations of the per-action divergences, the start and discarded
    # over-relaxed and extrapolation trials included
    iterations: int
    converged: bool
    # Arimoto bound gap (upper - lower) of the iterate whose lower bound is
    # ``capacity``; below ``tol`` exactly when ``converged``
    gap: float
    # per evaluation, the mutual information of the current iterate
    # (repeated after a discarded trial): nondecreasing up to rounding, one
    # entry per iteration, the last one ``capacity`` (before clipping at 0)
    lower_bounds: tuple = ()


def blahut_arimoto(
    ch: DiscreteChannel, tol: float = 1e-9, max_iter: int = 10_000
) -> CapacityResult:
    """Channel capacity by over-relaxed alternating maximization, with
    Arimoto's bounds.

    For an input distribution p, the per-action divergences
    D_a = sum_s P[a,s] ln(P[a,s]/m[s]), with m = p^T P, bound the capacity:
    I(p) = sum p_a D_a <= C <= max_a D_a.  These bounds hold for any p, so
    the run stops at the first iterate whose gap max D - I(p) is below
    ``tol``, and reports that iterate, its lower bound as the capacity and
    its gap.

    From the uniform start, each step is the adaptive over-relaxed update
    of Matz and Duhamel ("Information geometric formulation and
    interpretation of accelerated Blahut-Arimoto-type algorithms", 2004):
    p_a <- p_a exp(mu (D_a - max D)), normalized.  mu = 1 is the textbook
    Blahut-Arimoto step, which never lowers the bound, and is always
    accepted.  mu starts at 1 and grows by ``_RELAX_GROWTH`` after each
    accepted step; a trial with mu > 1 that does not raise the lower bound
    by more than 8 ulps of it (``_RELAX_MARGIN``) is discarded, and mu
    returns to 1.  The margin keeps rounding from deciding the test once
    the bound has converged to machine precision.

    A reset to mu = 1 throws away the slow mode of the iteration (on the
    oracle's channels, mass creeping out to the saturated end actions), so
    each reset is followed by an extrapolation.  After a discarded trial,
    the next evaluation is the textbook step, and the one after that the
    extrapolation trial q proportional to p (p / anchor): log q = log p +
    (log p - log anchor), which doubles the log-progress made since
    ``anchor``, the iterate from which the previous extrapolation trial
    was formed (at first the uniform start).  It is taken under the same
    8-ulp rule, leaves mu as it is, and moves ``anchor`` to p whether or
    not it is taken.  This is a restart in the spirit of O'Donoghue and
    Candes ("Adaptive restart for accelerated gradient schemes", 2015).

    ``iterations`` counts evaluations of D (each costs the same, and a
    discarded trial of either kind is one), the start included.
    ``lower_bounds`` holds, per evaluation, the lower bound of the current
    iterate: after a discarded trial it repeats its previous entry, so it
    is nondecreasing (up to rounding) and its last entry is the capacity.

    The iteration runs on the channel's factors, P[a] = kron(L[a], R[a]):
    m, as an L-by-R table, is (p L)^T R, and sum_s P[a,s] ln m[s] is
    sum_i L[a,i] (R ln m^T)[a,i].  sum_s P ln P, computed once, splits
    into plogp(L) rowsum(R) + rowsum(L) plogp(R).  An evaluation thus
    costs two products over the factors and never touches P itself: for
    the oracle's 64 x 41^2 channel, 64 x 41 factors instead of 64 x 1681.
    Their products go into buffers allocated once per call.

    The gap closes slowest when the optimal input leaves actions unused,
    whose weight decays only gradually, and once the lower bound has
    converged to rounding level before the gap has: then hardly any trial
    raises the bound by 8 ulps.  So even at the default ``tol`` a run can
    stop at ``max_iter`` with ``converged`` False.
    """
    _check_real("tol", tol)
    _check_int("max_iter", max_iter)
    left, right = ch.left, ch.right
    neg_entropy = _plogp(left) * right.sum(axis=1) + left.sum(axis=1) * _plogp(right)
    pl = np.empty_like(left)
    m = np.empty((left.shape[1], right.shape[1]))
    m_pos = np.empty(m.shape, dtype=bool)
    rl = np.empty_like(left)

    def bounds(p):
        """D, I(p) and max D at p."""
        np.multiply(p[:, None], left, out=pl)
        np.matmul(pl.T, right, out=m)
        # ln m in place, 0 where m == 0: such bins carry no probability
        # anywhere p > 0, and a finite value keeps 0 * ln m at 0
        np.greater(m, 0.0, out=m_pos)
        np.log(m, out=m, where=m_pos)
        np.matmul(right, m.T, out=rl)
        D = neg_entropy - np.einsum("ai,ai->a", left, rl)
        return D, float(p @ D), float(D.max())

    p = np.full(ch.n_actions, 1.0 / ch.n_actions)
    D, lower, upper = bounds(p)
    lower_bounds = [lower]
    mu = 1.0
    anchor = p
    # due counts down to the extrapolation trial: a discarded trial sets it
    # to 2, for the textbook step and then the trial
    due = 0
    while upper - lower >= tol and len(lower_bounds) < max_iter:
        due -= 1
        if due == 0:
            q = _extrapolated(p, anchor)
            anchor = p
        else:
            w = p * np.exp(mu * (D - upper))
            q = w / w.sum()
        D_q, lower_q, upper_q = bounds(q)
        take = lower_q > lower + _RELAX_MARGIN * abs(lower)
        if due != 0:
            take = take or mu == 1.0
            if take:
                mu *= _RELAX_GROWTH
            else:
                mu, due = 1.0, 2
        if take:
            p, D, lower, upper = q, D_q, lower_q, upper_q
        lower_bounds.append(lower)
    gap = upper - lower
    p.setflags(write=False)
    return CapacityResult(
        capacity=max(lower, 0.0),
        input_distribution=p,
        iterations=len(lower_bounds),
        converged=bool(gap < tol),
        gap=gap,
        lower_bounds=tuple(lower_bounds),
    )


def discretize_dynamics(conditionals: DiagonalGaussian, state_bins) -> DiscreteChannel:
    """Bin a stack of conditionals p(x'|x,a), one row per action.

    ``conditionals`` is the (n, D) stack that ``model.conditional(state,
    action_grid)`` returns.  ``state_bins`` is a list of strictly
    increasing edge arrays, one per state dimension; dimension d gets
    len(edges_d)-1 bins.  Tail mass beyond the outer edges is assigned to
    the outermost bins, so rows sum to one exactly.  Per-dimension masses
    multiply (diagonal model), so the channel is built from its factors:
    the row-wise Kronecker product of the first D-1 mass matrices, and
    the last one.
    """
    if conditionals.mean.ndim != 2:
        raise ValueError("conditionals must be a stack, one row per action")
    if not (conditionals.variance > 0).all():
        raise ValueError("conditionals must have positive variances")
    edges = [np.asarray(e, dtype=float) for e in state_bins]
    for e in edges:
        if e.ndim != 1 or e.size < 2 or not (np.diff(e) > 0).all():
            raise ValueError("bin edges must be strictly increasing with >= 2 entries")
    if len(edges) != conditionals.dim:
        raise ValueError("need one edge array per state dimension")
    # imported here, not at module top: scipy.special is most of the import
    # time and memory of scipy, and only this binning step needs it
    from scipy.special import ndtr

    means, sds = conditionals.mean, np.sqrt(conditionals.variance)
    masses = []
    for d, e in enumerate(edges):
        cdf = ndtr((e - means[:, d, None]) / sds[:, d, None])
        probs = np.diff(cdf, axis=1)
        probs[:, 0] += cdf[:, 0]
        probs[:, -1] += 1.0 - cdf[:, -1]
        masses.append(probs)
    left = np.ones((len(means), 1))
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
) -> CapacityResult:
    """Ground-truth empowerment of a scalar-action model at one state.

    Discretizes the action axis uniformly over [-action_range, action_range]
    and bins each state dimension over the span of the conditional means,
    padded by six standard deviations, so the bin resolution adapts to the
    locally reachable set instead of the full state space.  One
    ``model.conditional`` call gives the conditionals that both place the
    edges and are binned.
    """
    if model.action_dim != 1:
        raise ValueError("oracle_empowerment supports scalar actions only")
    state = _as_vector(state, model.state_dim, "state")
    _check_int("n_actions", n_actions)
    _check_int("bins", bins)
    _check_real("action_range", action_range)
    _check_real("tol", tol)
    _check_int("max_iter", max_iter)
    acts = np.linspace(-action_range, action_range, n_actions)[:, None]
    conds = model.conditional(state, acts)
    pad = _PAD_SIGMA * np.sqrt(conds.variance).max(axis=0)
    lo, hi = conds.mean.min(axis=0) - pad, conds.mean.max(axis=0) + pad
    edges = np.linspace(lo, hi, bins + 1, axis=1)
    ch = discretize_dynamics(conds, edges)
    return blahut_arimoto(ch, tol=tol, max_iter=max_iter)
