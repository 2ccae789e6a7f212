"""Feedforward networks with point evaluation and Gaussian moment propagation.

A network is a sequence of layers, each an affine map followed by an
elementwise activation.  ``_point_trace`` is the one loop over a net's
layers: it evaluates rows with any leading axes and keeps each layer's f'.

* ``forward_point``: ordinary forward pass on a vector or a batch of rows.
* ``forward_moments``: pushes a diagonal Gaussian through the network.
  The mean is the point pass at the input mean, mu -> f(mu); the variance
  takes the exact affine rule (off-diagonal covariance dropped) and the
  first-order delta method, var -> f'(mu)^2 * var, with f' from that
  trace.  The estimator does not use it: it marginalizes the action over
  point evaluations (``DynamicsModel._node_pass``).

Activations may be a single tag applied to the whole layer or a per-unit
list of tags; the latter is needed to express mixed branches (e.g. a sine
branch next to pass-through units) in a single layer.  An ``identity``
unit passes its affine output through, with f' = 1.
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


def _tanh_all(z):
    t = np.tanh(z)
    return t, 1.0 - t * t


def _sine_all(z):
    return np.sin(z), np.cos(z)


# tag -> z -> (f, f') computed together; identity has no entry
_ACT = {"tanh": _tanh_all, "sine": _sine_all}


@dataclass(frozen=True)
class LayerSpec:
    """One affine + activation layer.

    ``activation`` is either a single tag (applied to every unit) or a
    sequence of tags, one per output unit.  ``"identity"`` units keep
    f = z and f' = 1; only the runs of other tags are stored and applied.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: object = "identity"
    _runs: tuple = field(init=False, repr=False, compare=False)

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
            if t != "identity" and t not in _ACT:
                raise ValueError(f"unknown activation tag: {t!r}")
        # runs of equal adjacent non-identity tags: each is applied to a
        # basic slice (a view), one call per run
        runs, start = [], 0
        for t, unit_tags in itertools.groupby(tags):
            stop = start + len(list(unit_tags))
            if t != "identity":
                runs.append((t, slice(start, stop)))
            start = stop
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "_runs", tuple(runs))

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def act_all(self, z: np.ndarray):
        """(f, f') elementwise, one call per run of equal tags."""
        f, df = z.copy(), np.ones(z.shape)
        for tag, units in self._runs:
            f[..., units], df[..., units] = _ACT[tag](z[..., units])
        return f, df


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
    if v.shape != (dim,) or not np.isfinite(v).all():
        raise ValueError(f"{what} must be a finite vector of length {dim}")
    return v


def _as_rows(x, dim: int, what: str) -> np.ndarray:
    """``x`` as a finite (n, dim) float array with n >= 1, else ValueError.

    A single vector (or, for ``dim`` 1, a scalar) is one row.
    """
    invalid = ValueError(f"{what} entry must be a finite vector of length {dim}")
    try:
        rows = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise invalid from None
    if rows.size == 0:
        raise ValueError(f"{what} must be non-empty")
    if rows.ndim < 2:
        rows = np.atleast_1d(rows)[None]
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
        _check_int("state_dim", self.state_dim)
        _check_int("action_dim", self.action_dim)
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
        actions = _as_rows(action, self.action_dim, "action")
        mean, variance, _ = self._node_pass(state, actions[:, None])
        # one action; _as_rows has ruled out a ragged batch by now
        rows = 0 if np.ndim(action) < 2 else slice(None)
        return DiagonalGaussian(mean[rows, 0], variance[rows, 0])

    def _node_pass(self, state, actions):
        """Conditionals of action rows (..., k) from one point pass.

        The net's input rows are [state | action] and its output rows
        [mean | log-std], a next-state Gaussian of variance
        exp(2 * log-std).  Returns the means and variances (..., d) and
        the tape that ``_node_reverse`` consumes.
        """
        d = self.state_dim
        X = np.empty(actions.shape[:-1] + (self.net.in_dim,))
        X[..., :d] = state
        X[..., d:] = actions
        Y, trace = _point_trace(self.net, X)
        vp = np.exp(2.0 * Y[..., d:])
        return Y[..., :d], vp, (trace, vp)

    def _node_reverse(self, tape, gmp, gvp):
        """Reverse step of ``_node_pass``: gradients wrt its two outputs
        mapped onto the action rows (..., k)."""
        trace, vp = tape
        G = np.concatenate([gmp, gvp * 2.0 * vp], axis=-1)
        return _point_backprop(trace, G)[..., self.state_dim :]


def _check_input(net, dim):
    if dim != net.in_dim:
        raise ValueError(f"input dim {dim} does not match net input {net.in_dim}")


def forward_point(net: FeedforwardNet, x) -> np.ndarray:
    """Plain forward pass; accepts a vector or a batch of row vectors."""
    h = np.asarray(x, dtype=float)
    _check_input(net, h.shape[-1])
    return _point_trace(net, h)[0]


def forward_moments(net: FeedforwardNet, g: DiagonalGaussian) -> DiagonalGaussian:
    """Push a diagonal Gaussian through the network: the point pass at
    its mean, and per layer the affine rule and f'(mu)^2 on its variance,
    floored at ``VAR_FLOOR``."""
    g = _single(g)
    _check_input(net, g.dim)
    h, trace = _point_trace(net, g.mean)
    v = g.variance
    for layer, df in trace:
        raw = df**2 * (v @ (layer.weights**2).T)
        v = np.where(raw > VAR_FLOOR, raw, VAR_FLOOR)
    return DiagonalGaussian(h, v)


# ---------------------------------------------------------------------------
# the point pass behind every evaluation above, and its hand-rolled reverse
# mode (the nets here are tiny; autodiff frameworks are not worth the
# dependency).


def _point_trace(net, H):
    """Point evaluation of the rows of ``H`` (..., in) that keeps each
    layer's f' for ``_point_backprop``; returns the output rows and that
    trace."""
    trace = []
    for layer in net.layers:
        H, dF = layer.act_all(H @ layer.weights.T + layer.bias)
        trace.append((layer, dF))
    return H, trace


def _point_backprop(trace, G):
    """Reverse pass of ``_point_trace``: the gradient ``G`` wrt the output
    rows mapped onto the input rows."""
    for layer, dF in reversed(trace):
        G = (dF * G) @ layer.weights
    return G
