"""Diagonal Gaussian distributions and their closed-form KL divergence.

All quantities are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DiagonalGaussian", "kl_diag_gaussian"]


@dataclass(frozen=True)
class DiagonalGaussian:
    """A Gaussian with diagonal covariance, stored as mean and variance vectors.

    Mean and variance may also be (n, dim) arrays: a stack of n Gaussians,
    one per row, such as the conditionals of a batch of actions.  KL
    and moment propagation take single Gaussians.

    Variances must be non-negative.  Zero variance is permitted so that
    degenerate (deterministic) inputs can be pushed through moment
    propagation; KL computations require strictly positive variances and
    reject degenerate arguments.
    """

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        mean = np.atleast_1d(np.array(self.mean, dtype=float))
        variance = np.atleast_1d(np.array(self.variance, dtype=float))
        if mean.ndim > 2:
            raise ValueError("mean and variance must be vectors or stacks of them")
        if mean.shape != variance.shape:
            raise ValueError(
                f"dimension mismatch: mean {mean.shape} vs variance {variance.shape}"
            )
        if mean.size < 1:
            raise ValueError("dimension must be >= 1")
        if not (np.isfinite(mean).all() and np.isfinite(variance).all()):
            raise ValueError("mean and variance must be finite")
        if (variance < 0).any():
            raise ValueError("variance must be non-negative")
        mean.setflags(write=False)
        variance.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def _single(g: DiagonalGaussian) -> DiagonalGaussian:
    """``g`` if it is one Gaussian, else ValueError."""
    if g.mean.ndim != 1:
        raise ValueError("expected one Gaussian, not a stack")
    return g


def kl_diag_gaussian(p: DiagonalGaussian, q: DiagonalGaussian) -> float:
    """KL(p || q) between two diagonal Gaussians, in nats.

    Sum over dimensions of
        ln(sq/sp) + (sp^2 + (mp - mq)^2) / (2 sq^2) - 1/2
    which is exactly zero when p == q componentwise.
    """
    if _single(p).dim != _single(q).dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if np.any(p.variance <= 0) or np.any(q.variance <= 0):
        raise ValueError("KL requires strictly positive variances")
    ratio = q.variance / p.variance
    terms = 0.5 * np.log(ratio) + (p.variance + (p.mean - q.mean) ** 2) / (
        2.0 * q.variance
    ) - 0.5
    return float(np.sum(terms))
