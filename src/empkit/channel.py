"""Discrete-channel capacity via Blahut-Arimoto, plus dynamics discretization.

This is the exact (ground-truth) route for empowerment: bin the continuous
next-state distribution per action into a row-stochastic matrix and run the
classical alternating-maximization capacity algorithm on it.  Capacities are
in nats.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .nets import DynamicsModel

__all__ = [
    "DiscreteChannel",
    "CapacityResult",
    "blahut_arimoto",
    "discretize_dynamics",
    "oracle_empowerment",
    "channel_to_csv",
    "channel_from_csv",
]

_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteChannel:
    """Row-stochastic matrix p(x'|a): rows = actions, columns = next-state bins."""

    transition: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
            raise ValueError("transition must be a non-empty matrix")
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise ValueError("transition entries must be finite and >= 0")
        rows = t.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > _ROW_SUM_TOL):
            raise ValueError("every row must sum to 1 within 1e-9")
        t.setflags(write=False)
        object.__setattr__(self, "transition", t)

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

    D is computed as sum_s P ln P (once, before the loop) minus P @ ln m,
    so an iteration costs two matrix-vector products and no temporaries
    of the channel's size.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    P = ch.transition
    logP = np.zeros_like(P)
    pos = P > 0
    logP[pos] = np.log(P[pos])
    # 0 ln 0 = 0
    neg_entropy = np.einsum("as,as->a", P, logP)

    p = np.full(ch.n_actions, 1.0 / ch.n_actions)
    lower_bounds = []
    converged = False
    it = 0
    capacity = 0.0
    for it in range(1, max_iter + 1):
        m = p @ P
        # 0 ln 0 = 0; columns with m == 0 carry no probability anywhere p > 0
        logm = np.log(m, out=np.zeros_like(m), where=m > 0)
        D = neg_entropy - P @ logm
        lower = float(p @ D)
        upper = float(np.max(D))
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
    to one exactly.  Per-dimension masses multiply (diagonal model).
    """
    actions = [np.atleast_1d(np.asarray(a, dtype=float)) for a in action_grid]
    if not actions:
        raise ValueError("action_grid must be non-empty")
    edges = [np.asarray(e, dtype=float) for e in state_bins]
    for e in edges:
        if e.ndim != 1 or e.size < 2 or np.any(np.diff(e) <= 0):
            raise ValueError("bin edges must be strictly increasing with >= 2 entries")
    if len(edges) != model.state_dim:
        raise ValueError("need one edge array per state dimension")

    rows = []
    for a in actions:
        g = model.conditional(np.atleast_1d(np.asarray(state, dtype=float)), a)
        sd = np.sqrt(g.variance)
        row = np.ones(1)
        for d, e in enumerate(edges):
            cdf = ndtr((e - g.mean[d]) / sd[d])
            probs = np.diff(cdf)
            probs[0] += cdf[0]
            probs[-1] += 1.0 - cdf[-1]
            row = np.outer(row, probs).ravel()
        rows.append(row)
    return DiscreteChannel(np.vstack(rows))


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
    acts = np.linspace(-action_range, action_range, n_actions)
    means = np.empty((n_actions, model.state_dim))
    sds = np.empty_like(means)
    for i, a in enumerate(acts):
        g = model.conditional(state, [a])
        means[i] = g.mean
        sds[i] = np.sqrt(g.variance)
    edges = []
    for d in range(model.state_dim):
        pad = pad_sigma * sds[:, d].max()
        edges.append(
            np.linspace(means[:, d].min() - pad, means[:, d].max() + pad, bins + 1)
        )
    ch = discretize_dynamics(model, state, [[a] for a in acts], edges)
    return blahut_arimoto(ch, tol=tol, max_iter=max_iter)


def channel_to_csv(ch: DiscreteChannel, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"bin_{j}" for j in range(ch.n_states)])
        for row in ch.transition:
            writer.writerow([f"{v:.17g}" for v in row])


def channel_from_csv(path) -> DiscreteChannel:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("malformed channel CSV")
    return DiscreteChannel(np.asarray(rows))
