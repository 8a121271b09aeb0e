"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is small on purpose: each layer of the model is one node that
`node` wraps around a numpy forward result and a hand-written backward,
so a two-layer forward pass and its loss are 13 nodes whatever the
sentence length, and the engine has no generic primitives. `node` also
makes every op's graph-or-array choice: an op whose first input is a
plain array gets its plain result back and builds no graph. Tensors are
plain row-major numpy arrays. The graph is rebuilt for every loss;
creation order doubles as a topological order, so backward() pops op
nodes from one heap, newest first, each after all of its consumers.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

_NODE_IDS = itertools.count()


class Tensor:
    """A float64 array plus its position in the computation graph.

    Tensors with requires_grad=False are constants: they keep no parent
    links, are skipped by backward() and are safe to share between threads.
    """

    __slots__ = ("data", "requires_grad", "node_id", "_parents", "_backprop")

    def __init__(self, data, requires_grad=False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = requires_grad
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


def value(x) -> np.ndarray:
    """The data of a Tensor, or x itself if it is a plain array."""
    return x.data if isinstance(x, Tensor) else x


def node(data, parents, backprop):
    """Wrap an op result; constants in, constant out (graph pruning), and
    a plain array as the first parent gives `data` back, with no Tensor.

    `backprop` maps the output gradient to one gradient per parent; it may
    return None for a parent that needs no gradient.
    """
    if not isinstance(parents[0], Tensor):
        return data
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backprop = backprop
    return out


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> dict:
    """Gradients of a scalar loss, as {tensor: gradient} for every reachable
    tensor that requires one, in one pass over a heap of op nodes.

    A node is popped, newest first, once all its consumers have added their
    gradients; leaves never enter the heap. Each call starts from nothing,
    so there is no zero-grad step between training iterations. A gradient
    is usually a numpy array, but may be any array-like with `+` and scalar `*`.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    grads = {loss: np.ones(())}
    heap = [(-loss.node_id, loss)] if loss._backprop is not None else []
    while heap:
        t = heapq.heappop(heap)[1]
        for parent, pg in zip(t._parents, t._backprop(grads[t])):
            if not parent.requires_grad:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg
                if parent._backprop is not None:
                    heapq.heappush(heap, (-parent.node_id, parent))
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
        a_flat = np.asarray(analytic).reshape(-1)
        n = p.data.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = gen.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        for c in coords:
            at = np.unravel_index(c, p.data.shape)   # into p.data itself, which may be a strided view
            saved = p.data[at]
            p.data[at] = saved + eps
            hi = float(f().data)
            p.data[at] = saved - eps
            lo = float(f().data)
            p.data[at] = saved
            numeric = (hi - lo) / (2.0 * eps)
            a = float(a_flat[c])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
