"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built per sentence, not per token: a primitive takes whole
(n, ...) blocks, so a forward pass is a few dozen nodes whatever the
sentence length. Tensors are plain row-major numpy arrays with no views
or strides, and there is no implicit broadcasting; every binary op wants
equal shapes. The graph is rebuilt for every loss; creation order doubles
as a topological order, so backward() just sweeps reachable tensors in
reverse creation order.
"""

from __future__ import annotations

import itertools

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

    @property
    def shape(self):
        return self.data.shape

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
    if not lo < hi:
        raise ValueError(f"degenerate interval [{lo}, {hi}]: need lo < hi")
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
# elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return node(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    return node(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(t: Tensor, c: float) -> Tensor:
    """t * c for a python number c."""
    cf = float(c)
    return node(t.data * cf, (t,), lambda g: (g * cf,))


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)
    return node(y, (t,), lambda g: (g * (1.0 - y * y),))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for 2-d x 2-d, 2-d x 1-d and 1-d x 2-d operands.

    The forward product is an unoptimised einsum rather than BLAS: each
    output row is then summed the same way however many rows there are,
    so appending a token never changes an earlier token's bits.
    """
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        spec, backprop = "ij,jk->ik", lambda g: (g @ bd.T, ad.T @ g)
    elif ad.ndim == 2 and bd.ndim == 1:
        spec, backprop = "ij,j->i", lambda g: (np.outer(g, bd), ad.T @ g)
    elif ad.ndim == 1 and bd.ndim == 2:
        spec, backprop = "j,jk->k", lambda g: (bd @ g, np.outer(ad, g))
    else:
        raise ValueError(f"matmul supports 2dx2d, 2dx1d, 1dx2d; got {ad.ndim}d x {bd.ndim}d")
    if ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} x {bd.shape}")
    return node(np.einsum(spec, ad, bd), (a, b), backprop)


def transpose(t: Tensor) -> Tensor:
    if t.data.ndim != 2:
        raise ValueError(f"transpose expects a matrix, got shape {t.data.shape}")
    return node(np.ascontiguousarray(t.data.T), (t,), lambda g: (g.T,))


def bilinear(h: Tensor, maps: Tensor, u: Tensor) -> Tensor:
    """Channel-wise bilinear forms of every row: out[n, k] = h[n] . maps[k] . u.

    `h` is (rows, d), `maps` a (channels, d, len(u)) stack of bilinear
    maps. maps . u is formed once, so the cost is one (rows, d) x (d,
    channels) product on top of it.
    """
    hd, md, ud = h.data, maps.data, u.data
    if hd.ndim != 2 or ud.ndim != 1 or md.ndim != 3:
        raise ValueError("bilinear expects a (rows, d) matrix, 3-d map stack, vector")
    if md.shape[1] != hd.shape[1] or md.shape[2] != ud.shape[0]:
        raise ValueError(f"bilinear shape mismatch: {hd.shape}, {md.shape}, {ud.shape}")
    mu = md @ ud

    def backprop(g):
        gh = g.T @ hd
        return g @ mu, gh[:, :, None] * ud, np.tensordot(gh, md, axes=2)

    return node(np.einsum("ni,ki->nk", hd, mu), (h, maps, u), backprop)


# ---------------------------------------------------------------------------
# reductions, reshaping, normalization


def tensor_sum(t: Tensor) -> Tensor:
    shape = t.data.shape
    return node(np.asarray(t.data.sum()), (t,), lambda g: (np.full(shape, float(g)),))


def reduce_max(t: Tensor) -> Tensor:
    """Max over the last axis; each gradient routes to the first maximum."""
    x = t.data
    idx = np.argmax(x, axis=-1)[..., None]

    def backprop(g):
        out = np.zeros(x.shape)
        np.put_along_axis(out, idx, np.asarray(g)[..., None], axis=-1)
        return (out,)

    return node(np.take_along_axis(x, idx, axis=-1)[..., 0], (t,), backprop)


def slice_last(t: Tensor, start: int, stop: int) -> Tensor:
    """Entries [start, stop) of the last axis."""
    shape = t.data.shape
    n = shape[-1] if shape else 0
    if not (0 <= start < stop <= n):
        raise ValueError(f"slice [{start}, {stop}) out of range for last axis of {shape}")

    def backprop(g):
        out = np.zeros(shape)
        out[..., start:stop] = g
        return (out,)

    return node(t.data[..., start:stop], (t,), backprop)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Join along the last axis; the other axes must agree."""
    ad, bd = a.data, b.data
    if ad.ndim == 0 or ad.ndim != bd.ndim or ad.shape[:-1] != bd.shape[:-1]:
        raise ValueError(f"concat shape mismatch: {ad.shape} vs {bd.shape}")
    p = ad.shape[-1]
    return node(
        np.concatenate([ad, bd], axis=-1), (a, b), lambda g: (g[..., :p], g[..., p:])
    )


def softmax(t: Tensor, axis: int) -> Tensor:
    x = t.data
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e / e.sum(axis=axis, keepdims=True)
    return node(s, (t,), lambda g: ((g - (g * s).sum(axis=axis, keepdims=True)) * s,))


def log_softmax(t: Tensor, axis: int) -> Tensor:
    x = t.data
    m = x.max(axis=axis, keepdims=True)
    shifted = x - m
    ls = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return node(ls, (t,), lambda g: (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),))


# ---------------------------------------------------------------------------
# reverse sweep


def backward(loss: Tensor) -> dict:
    """Accumulate gradients of a scalar loss into every reachable tensor.

    Returns {tensor: gradient array} and stores the same array on each
    tensor's .grad (overwriting any previous value, so there is no
    zero-grad step between training iterations).
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
