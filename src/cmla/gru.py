"""Gated recurrent unit over autodiff tensors.

Standard Cho-style cell: update gate z, reset gate r, candidate state
blended by interpolation

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * c

A run over a whole sequence is one graph node: the recurrence is stepped
in numpy and its backward is hand-written backpropagation through time.

Used twice in the tagger: once to fold sentence context into the word
embeddings and once to smooth per-token composition vectors into
attention features, with both heads' cells run as one block-diagonal cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, node, init_uniform, zeros

GRU_FIELDS = ("W_z", "W_r", "W_h", "U_z", "U_r", "U_h", "b_z", "b_r", "b_h")


def sigmoid(x):
    """Logistic function without overflow: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def init_tensor(name: str, shape, scale: float, gen) -> Tensor:
    """A fresh parameter: zeros for a bias (last name part `b_*`), else
    entries drawn from U(-scale, scale) with `gen`."""
    if name.rpartition(".")[2].startswith("b_"):
        return zeros(shape, requires_grad=True)
    return init_uniform(shape, -scale, scale, gen)


@dataclass
class GruParams:
    """Nine learnable tensors of one cell.

    W_* are (hidden, input), U_* are (hidden, hidden), b_* are (hidden,).
    """

    W_z: Tensor
    W_r: Tensor
    W_h: Tensor
    U_z: Tensor
    U_r: Tensor
    U_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, rng, scale: float = 0.2):
        """Uniform(-scale, scale) weights, zero biases, drawn in shapes() order."""
        gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
        return cls(**{name: init_tensor(name, shape, scale, gen)
                      for name, shape in cls.shapes(input_dim, hidden_dim).items()})

    @property
    def input_dim(self) -> int:
        return self.W_z.data.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W_z.data.shape[0]

    def tensors(self) -> dict:
        return {name: getattr(self, name) for name in GRU_FIELDS}

    @staticmethod
    def shapes(input_dim: int, hidden_dim: int) -> dict:
        """Shape of each tensor of a cell, by field name."""
        h, d = hidden_dim, input_dim
        return {
            "W_z": (h, d), "W_r": (h, d), "W_h": (h, d),
            "U_z": (h, h), "U_r": (h, h), "U_h": (h, h),
            "b_z": (h,), "b_r": (h,), "b_h": (h,),
        }


def spans(sizes) -> list:
    """Consecutive slices of the given sizes, starting at 0."""
    return [slice(end - size, end) for size, end in zip(sizes, itertools.accumulate(sizes))]


def gru_run(xs: Tensor, *cells: GruParams) -> Tensor:
    """Run the cells from a zero state over the rows of an (n, input) Tensor.

    Returns the (n, hidden) state sequence as one node. Several cells run
    as one cell with block-diagonal weights, their inputs and states side by
    side. Every step is computed from its own row and the previous state
    only, so row t depends only on inputs <= t, bit for bit.
    """
    x = xs.data
    if x.shape[0] == 0:
        raise ValueError("gru_run needs a nonempty sequence")
    width = sum(p.input_dim for p in cells)
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"input has shape {x.shape}, expected (n, {width})")
    n, k = x.shape[0], sum(p.hidden_dim for p in cells)
    # gate g (z, r, h) of cell i: rows g*k + hid[i], input columns inp[i], state columns hid[i]
    hid, inp = spans([p.hidden_dim for p in cells]), spans([p.input_dim for p in cells])
    gates = [[slice(g * k + h_at.start, g * k + h_at.stop) for g in range(3)] for h_at in hid]
    w, u, b = np.zeros((3 * k, width)), np.zeros((3 * k, k)), np.empty(3 * k)
    for p, at, h_at, x_at in zip(cells, gates, hid, inp):
        ts = [v.data for v in p.tensors().values()]   # in GRU_FIELDS order
        for g, rows in enumerate(at):
            w[rows, x_at], u[rows, h_at], b[rows] = ts[g], ts[3 + g], ts[6 + g]
    u_zr, u_h = u[: 2 * k], u[2 * k :]

    states = np.zeros((n + 1, k))   # states[t] is the state before step t
    zr, cand = np.empty((n, 2 * k)), np.empty((n, k))
    for t in range(n):
        h, wx = states[t], w @ x[t]
        zr[t] = sigmoid(wx[: 2 * k] + u_zr @ h + b[: 2 * k])
        cand[t] = np.tanh(wx[2 * k :] + u_h @ (zr[t, k:] * h) + b[2 * k :])
        states[t + 1] = (1.0 - zr[t, :k]) * h + zr[t, :k] * cand[t]

    def backprop(g):
        prev, z, r = states[:-1], zr[:, :k], zr[:, k:]
        pre = np.empty((n, 3 * k))   # gradients of the gate pre-activations, rows as in w
        dh = np.zeros(k)
        for t in range(n - 1, -1, -1):
            dh = dh + g[t]
            pre[t, 2 * k :] = dh * z[t] * (1.0 - cand[t] * cand[t])
            d_rh = pre[t, 2 * k :] @ u_h
            pre[t, :k] = dh * (cand[t] - prev[t]) * z[t] * (1.0 - z[t])
            pre[t, k : 2 * k] = d_rh * prev[t] * r[t] * (1.0 - r[t])
            dh = dh * (1.0 - z[t]) + d_rh * r[t] + pre[t, : 2 * k] @ u_zr
        dx = pre @ w if xs.requires_grad else None
        dw, db = pre.T @ x, pre.sum(axis=0)
        du = np.concatenate([pre[:, : 2 * k].T @ prev, pre[:, 2 * k :].T @ (r * prev)])
        # only each cell's own blocks, in GRU_FIELDS order
        return (dx, *(d for at, h_at, x_at in zip(gates, hid, inp)
                      for d in [dw[a, x_at] for a in at] + [du[a, h_at] for a in at] + [db[a] for a in at]))

    return node(states[1:], (xs, *(t for p in cells for t in p.tensors().values())), backprop)
