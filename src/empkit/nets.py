"""Feedforward networks with point evaluation and Gaussian moment propagation.

A network is a sequence of layers, each an affine map followed by an
elementwise activation.  Two evaluation modes exist:

* ``forward_point``: ordinary forward pass on a vector.
* ``forward_moments``: pushes a diagonal Gaussian through the network.
  Affine layers use the exact linear-Gaussian rule (off-diagonal output
  covariance dropped), nonlinear activations use the first-order delta
  method: mean -> f(mu), variance -> f'(mu)^2 * var.

Activations may be a single tag applied to the whole layer or a per-unit
list of tags; the latter is needed to express mixed branches (e.g. a sine
branch next to pass-through units) in a single layer.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .gaussian import DiagonalGaussian, _single

__all__ = [
    "LayerSpec",
    "FeedforwardNet",
    "DynamicsModel",
    "forward_point",
    "forward_moments",
]

VAR_FLOOR = 1e-8


def _identity_all(z):
    return z, np.ones(z.shape), np.zeros(z.shape)


def _tanh_all(z):
    t = np.tanh(z)
    d = 1.0 - t * t
    return t, d, -2.0 * t * d


def _sine_all(z):
    s = np.sin(z)
    return s, np.cos(z), -s


def _cosine_all(z):
    c = np.cos(z)
    return c, -np.sin(z), -c


def _square_all(z):
    return z * z, 2.0 * z, np.full(z.shape, 2.0)


# tag -> (f, z -> (f, f', f'') computed together)
_ACT = {
    "identity": (lambda z: z, _identity_all),
    "tanh": (np.tanh, _tanh_all),
    "sine": (np.sin, _sine_all),
    "cosine": (np.cos, _cosine_all),
    "square": (lambda z: z * z, _square_all),
}


@dataclass(frozen=True)
class LayerSpec:
    """One affine + activation layer.

    ``activation`` is either a single tag (applied to every unit) or a
    sequence of tags, one per output unit.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: object = "identity"
    tags: tuple = field(init=False, repr=False, compare=False)
    _runs: tuple = field(init=False, repr=False, compare=False)
    _linear: bool = field(init=False, repr=False, compare=False)
    _weights_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        w = np.array(self.weights, dtype=float)
        b = np.array(self.bias, dtype=float)
        if w.ndim != 2:
            raise ValueError("weights must be a matrix (out x in)")
        if b.ndim != 1 or b.size != w.shape[0]:
            raise ValueError("bias length must equal weights row count")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("weights and bias must be finite")
        act = self.activation
        if isinstance(act, str):
            tags = (act,) * w.shape[0]
        else:
            tags = tuple(act)
            if len(tags) != w.shape[0]:
                raise ValueError("per-unit activation list must match output dim")
        for t in tags:
            if t not in _ACT:
                raise ValueError(f"unknown activation tag: {t!r}")
        # runs of equal adjacent tags: each is applied to a basic slice (a
        # view), one call per run
        runs, start = [], 0
        for t, unit_tags in itertools.groupby(tags):
            stop = start + len(list(unit_tags))
            runs.append((t, slice(start, stop)))
            start = stop
        w.setflags(write=False)
        b.setflags(write=False)
        w_sq = w * w
        w_sq.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "_runs", tuple(runs))
        object.__setattr__(self, "_linear", set(tags) == {"identity"})
        object.__setattr__(self, "_weights_sq", w_sq)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def act(self, z: np.ndarray) -> np.ndarray:
        """Apply f elementwise."""
        if len(self._runs) == 1:
            return _ACT[self.tags[0]][0](z)
        out = np.empty_like(z)
        for tag, units in self._runs:
            out[..., units] = _ACT[tag][0](z[..., units])
        return out

    def act_all(self, z: np.ndarray):
        """(f, f', f'') elementwise, one call per run of equal tags."""
        if len(self._runs) == 1:
            return _ACT[self.tags[0]][1](z)
        f, df, d2f = np.empty((3,) + z.shape)
        for tag, units in self._runs:
            if tag == "identity":
                f[..., units] = z[..., units]
                df[..., units] = 1.0
                d2f[..., units] = 0.0
            else:
                f[..., units], df[..., units], d2f[..., units] = _ACT[tag][1](
                    z[..., units]
                )
        return f, df, d2f


@dataclass(frozen=True)
class FeedforwardNet:
    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer dimensions do not chain: {a.out_dim} -> {b.in_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


# The one scalar rule at every API boundary: any numbers.Integral or
# numbers.Real (numpy scalars included), but never a bool, which both admit.
def _check_int(name, value, minimum=1):
    """ValueError unless ``value`` is an integer >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _check_real(name, value, positive=True):
    """ValueError unless ``value`` is a finite number, and > 0 if ``positive``."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (ok and math.isfinite(value) and (value > 0 or not positive)):
        kind = "positive finite" if positive else "finite"
        raise ValueError(f"{name} must be a {kind} number")


def _as_vector(x, dim: int, what: str) -> np.ndarray:
    """``x`` as a finite float vector of length ``dim``, else ValueError."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (dim,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be a finite vector of length {dim}")
    return v


def _as_rows(x, dim: int, what: str) -> np.ndarray:
    """``x`` as a finite (n, dim) float array with n >= 1, else ValueError.

    For ``dim`` 1 a flat sequence of n scalars is taken as n rows.
    """
    invalid = ValueError(f"{what} entry must be a finite vector of length {dim}")
    try:
        rows = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise invalid from None
    if rows.ndim == 1 and dim == 1:
        rows = rows[:, None]
    if rows.ndim >= 1 and len(rows) == 0:
        raise ValueError(f"{what} must be non-empty")
    if rows.ndim != 2 or rows.shape[1] != dim or not np.isfinite(rows).all():
        raise invalid
    return rows


@dataclass(frozen=True)
class DynamicsModel:
    """Gaussian one-step dynamics p(x'|x,a) packaged as a network.

    The network maps (state, action) to 2*state_dim outputs: the first
    half is the next-state mean, the second half the next-state
    log-standard-deviation.
    """

    net: FeedforwardNet
    state_dim: int
    action_dim: int

    def __post_init__(self):
        if self.net.in_dim != self.state_dim + self.action_dim:
            raise ValueError("net input dim must equal state_dim + action_dim")
        if self.net.out_dim != 2 * self.state_dim:
            raise ValueError("net output dim must equal 2 * state_dim")

    def conditional(self, state, action) -> DiagonalGaussian:
        """p(x'|x,a) as a DiagonalGaussian.

        ``action`` is one action, or an (n, action_dim) batch of them that
        gives a stack of n Gaussians.  The rows go through the net as a
        stack of one-row batches, so that each takes the same BLAS
        matrix-vector product as a lone action and row i equals the
        conditional of action i alone bit for bit; a plain (n, in) batch
        rounds differently.
        """
        state = _as_vector(state, self.state_dim, "state")
        single = np.ndim(action) < 2
        actions = _as_rows(
            np.atleast_1d(action)[None] if single else action, self.action_dim, "action"
        )
        d = self.state_dim
        x = np.empty((len(actions), 1, self.net.in_dim))
        x[:, 0, :d] = state
        x[:, 0, d:] = actions
        y = forward_point(self.net, x)[:, 0]
        if single:
            y = y[0]
        return DiagonalGaussian(y[..., :d], np.exp(2.0 * y[..., d:]))


def forward_point(net: FeedforwardNet, x) -> np.ndarray:
    """Plain forward pass; accepts a vector or a batch of row vectors."""
    h = np.asarray(x, dtype=float)
    if h.shape[-1] != net.in_dim:
        raise ValueError(
            f"input dim {h.shape[-1]} does not match net input {net.in_dim}"
        )
    for layer in net.layers:
        h = layer.act(h @ layer.weights.T + layer.bias)
    return h


def forward_moments(net: FeedforwardNet, g: DiagonalGaussian) -> DiagonalGaussian:
    """Push a diagonal Gaussian through the network layer by layer.

    Each propagated variance is floored at ``VAR_FLOOR``.
    """
    g = _single(g)
    H, v, _ = _fused_trace(net, g.mean[None, None, :], g.variance[None, :])
    return DiagonalGaussian(H[0, 0], v[0])


# ---------------------------------------------------------------------------
# fused forward pass + hand-rolled reverse mode, used by the empowerment
# objective gradient (the nets here are tiny; autodiff frameworks are not
# worth the dependency).
#
# Both passes carry a leading lane axis: lane l is an independent problem,
# and every lane's numbers equal those of the same lane run alone, bit for
# bit.  That is why the variance contractions are stacked per-lane
# vector-matrix products, ``(v[:, None, :] @ W2.T)[:, 0]``: the same BLAS
# matrix-vector call per lane for any lane count, where a 2-D
# ``(lanes, in) @ (in, out)`` product switches to a matrix-matrix kernel
# whose rounding depends on the lane count.


def _fused_trace(net, H, v):
    """Moment row and sampled rows pushed through the net together, per lane.

    ``H`` is (lanes, rows, in): row 0 of each lane is the mean of a diagonal
    Gaussian whose variance is that lane's row of ``v`` (lanes, in); it
    follows the moment rule while rows 1.. get plain point evaluation, all
    with one matrix product per layer.  Returns the output rows, the
    propagated variance and the trace that ``_fused_backprop`` consumes.
    """
    trace = []
    for layer in net.layers:
        Z = H @ layer.weights.T + layer.bias
        va = (v[:, None, :] @ layer._weights_sq.T)[:, 0]
        if layer._linear:
            # f' = 1 and f'' = 0: skipping their factors here and in the
            # reverse pass keeps every finite value, up to the sign of a zero
            H, dF, d2f, raw = Z, None, None, va
        else:
            H, dF, d2F = layer.act_all(Z)
            d2f, raw = d2F[:, 0], dF[:, 0] ** 2 * va
        mask = raw > VAR_FLOOR
        v = np.where(mask, raw, VAR_FLOOR)
        trace.append((layer, dF, d2f, va, mask))
    return H, v, trace


def _fused_backprop(trace, G, gv):
    """Reverse pass of ``_fused_trace``.

    ``G`` holds the gradients wrt the output rows and ``gv`` the gradient
    wrt the propagated variance; returns both wrt the inputs.
    """
    for layer, dF, d2f, va, mask in reversed(trace):
        gv = np.where(mask, gv, 0.0)
        if dF is not None:
            G = dF * G
            G[:, 0] += 2.0 * dF[:, 0] * d2f * va * gv
            gv = dF[:, 0] ** 2 * gv
        gv = (gv[:, None, :] @ layer._weights_sq)[:, 0]
        G = G @ layer.weights
    return G, gv
