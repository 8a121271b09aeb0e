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
attention features.
"""

from __future__ import annotations

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


def gru_run(xs: Tensor, p: GruParams) -> Tensor:
    """Run the cell from a zero state over the rows of an (n, input) Tensor.

    Returns the (n, hidden) state sequence as one node. Every step is
    computed from its own row and the previous state only, so row t
    depends only on inputs <= t, bit for bit.
    """
    x = xs.data
    if x.shape[0] == 0:
        raise ValueError("gru_run needs a nonempty sequence")
    if x.ndim != 2 or x.shape[1] != p.input_dim:
        raise ValueError(f"input has shape {x.shape}, expected (n, {p.input_dim})")
    n, k = x.shape[0], p.hidden_dim
    w = np.concatenate([p.W_z.data, p.W_r.data, p.W_h.data])
    u_zr, u_h = np.concatenate([p.U_z.data, p.U_r.data]), p.U_h.data
    b = np.concatenate([p.b_z.data, p.b_r.data, p.b_h.data])

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
        du_h = pre[:, 2 * k :].T @ (r * prev)
        return (dx, *np.split(pre.T @ x, 3), *np.split(pre[:, : 2 * k].T @ prev, 2), du_h,
                *np.split(pre.sum(axis=0), 3))

    return node(states[1:], (xs, *p.tensors().values()), backprop)
