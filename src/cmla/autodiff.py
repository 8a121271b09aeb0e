"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is small on purpose: each layer of the model is one node that
`node` wraps around a numpy forward result and a hand-written backward,
so a two-layer forward pass and its loss are 17 nodes whatever the
sentence length, and the engine has no generic primitives. Tensors are
plain row-major numpy arrays. The graph is rebuilt for every loss;
creation order doubles as a topological order, so backward() just sweeps
reachable tensors in reverse creation order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_NODE_IDS = itertools.count()


class Tensor:
    """A float64 array plus its position in the computation graph.

    Tensors with requires_grad=False are constants: they keep no parent
    links, are skipped by backward() and are safe to share between threads.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id", "_parents", "_backprop")

    def __init__(self, data, requires_grad=False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.node_id = next(_NODE_IDS)
        self._parents = ()
        self._backprop = None

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def zeros(shape, requires_grad=False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def init_uniform(shape, lo: float, hi: float, rng) -> Tensor:
    """Fresh parameter tensor with entries drawn i.i.d. from U[lo, hi).

    `rng` is either an integer seed or a numpy Generator owned by the
    caller; the same seed always yields a bitwise-identical tensor.
    """
    dims = tuple(int(s) for s in shape)
    if len(dims) == 0 or any(s <= 0 for s in dims):
        raise ValueError(f"invalid shape {dims}: dimensions must be positive")
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"bad interval [{lo}, {hi}]: need lo < hi and a finite width")
    gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
    return Tensor(gen.uniform(lo, hi, size=dims), requires_grad=True)


def node(data, parents, backprop) -> Tensor:
    """Wrap an op result; constants in, constant out (graph pruning).

    `backprop` maps the output gradient to one gradient per parent; it may
    return None for a parent that needs no gradient.
    """
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backprop = backprop
    return out


# ---------------------------------------------------------------------------
# reverse sweep


def backward(loss: Tensor) -> dict:
    """Accumulate gradients of a scalar loss into every reachable tensor.

    Returns {tensor: gradient} and stores the same object on each
    tensor's .grad (overwriting any previous value, so there is no
    zero-grad step between training iterations). A gradient is usually a
    numpy array, but may be any array-like with `+` and `*` by a scalar.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    seen = {loss}
    stack = [loss]
    while stack:
        t = stack.pop()
        for p in t._parents:
            if p.requires_grad and p not in seen:
                seen.add(p)
                stack.append(p)

    grads = {loss: np.ones(())}
    for t in sorted(seen, key=lambda n: n.node_id, reverse=True):
        g = grads.get(t)
        if g is None or t._backprop is None:
            continue
        for parent, pg in zip(t._parents, t._backprop(g)):
            if not parent.requires_grad:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg

    for t, g in grads.items():
        t.grad = g
    return grads


def grad_check(f, params, eps=1e-5, rng=None, max_coords_per_param=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` rebuilds the scalar loss from the current parameter data on every
    call. Error per coordinate is |analytic - numeric| scaled by
    max(|analytic|, |numeric|, 1e-8); coordinates are checked exhaustively
    unless max_coords_per_param caps them, in which case `rng` picks the
    sample.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    grads = backward(f())
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    worst = 0.0
    for p in params:
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        a_flat = np.asarray(analytic).reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = gen.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        for c in coords:
            saved = flat[c]
            flat[c] = saved + eps
            hi = float(f().data)
            flat[c] = saved - eps
            lo = float(f().data)
            flat[c] = saved
            numeric = (hi - lo) / (2.0 * eps)
            a = float(a_flat[c])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
