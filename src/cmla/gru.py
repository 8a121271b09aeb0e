"""Gated recurrent unit over autodiff tensors or plain arrays.

Standard Cho-style cell: update gate z, reset gate r, candidate state
blended by interpolation

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    c = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * c

A run over a Tensor is one graph node whose backward is hand-written
backpropagation through time; a run over a plain array returns its
states, with no graph. `autodiff.node` makes that choice from the input;
`gru_run` only decides whether to keep the gate values BPTT reads.
A cell exists only inside a model: CmlaParams.from_named builds it over
its stretch of the model's parameter vector, and its tensors and its
stacked gates w = [W_z; W_r; W_h], u and b are views of that stretch. Only
state-dependent work stays in the step loops: W x + b is formed up front,
one stacked matrix-vector product per row (a GEMM sums differently with
the row count, breaking bit-for-bit prefixes); the z/r terms are halved
once, so a step's sigmoid is 0.5 + 0.5 tanh of them; and the backward
forms its gate factors for all steps before its reverse loop.

Used twice in the tagger: once to fold sentence context into the word
embeddings and once to smooth per-token composition vectors into
attention features, with both heads' cells run as one block-diagonal cell.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass

import numpy as np

from .autodiff import Tensor, node, value

GRU_FIELDS = ("W_z", "W_r", "W_h", "U_z", "U_r", "U_h", "b_z", "b_r", "b_h")


def rowwise(m, x):
    """m @ row for each row of x as one stacked matmul: no row's sum depends on another."""
    return np.matmul(m, x.reshape(len(x), -1, 1)).reshape(len(x), -1)


@dataclass(frozen=True)
class GruParams:
    """Nine learnable tensors of one cell, W_* (hidden, input), U_* (hidden,
    hidden), b_* (hidden,), and its gates w = [W_z; W_r; W_h], u, b: views of
    `flat`, the cell's stretch of a model's parameter vector, in GRU_FIELDS order."""

    W_z: Tensor
    W_r: Tensor
    W_h: Tensor
    U_z: Tensor
    U_r: Tensor
    U_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor
    flat: InitVar[np.ndarray]

    def __post_init__(self, flat):
        h = self.hidden_dim
        w, u, b = (flat[at] for at in spans((3 * h * self.input_dim, 3 * h * h, 3 * h)))
        self.__dict__.update(w=w.reshape(3 * h, -1), u=u.reshape(3 * h, h), b=b)   # frozen

    def __deepcopy__(self, memo):
        # a plain deep copy would give every view an array of its own, unlinked from w, u and b
        raise TypeError("a cell views its model's parameter vector: deep-copy the CmlaParams instead")

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


def gru_blocks(*cells: GruParams) -> tuple:
    """The gates (w, u, b) of the cells run as one cell: a single cell's own
    blocks, or block-diagonal ones, cell i's gates in the rows of its hidden
    units and the columns of its inputs of each (3, k, .) gate block."""
    if len(cells) == 1:
        return cells[0].w, cells[0].u, cells[0].b
    hid, inp = spans([p.hidden_dim for p in cells]), spans([p.input_dim for p in cells])
    k = hid[-1].stop
    w, u, b = np.zeros((3, k, inp[-1].stop)), np.zeros((3, k, k)), np.zeros((3, k, 1))
    for p, at, cols in zip(cells, hid, inp):
        w[:, at, cols], u[:, at, at], b[:, at] = (a.reshape(3, p.hidden_dim, -1) for a in (p.w, p.u, p.b))
    return w.reshape(3 * k, -1), u.reshape(3 * k, -1), b.reshape(-1)


def gru_run(xs, *cells: GruParams, blocks=None):
    """Run the cells from a zero state over the rows of an (n, input) block.

    Several cells run as one cell with block-diagonal weights, their inputs
    and states side by side; `blocks` is gru_blocks(*cells) if the caller
    built it already. A Tensor in gives the (n, hidden) states as one node;
    a plain array in gives them as a plain array, with no gates kept for a
    backward. Every step is computed from its own row and the previous
    state only, so row t depends only on inputs <= t, bit for bit.
    """
    x = value(xs)
    if x.shape[0] == 0:
        raise ValueError("gru_run needs a nonempty sequence")
    w, u, b = blocks or gru_blocks(*cells)
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ValueError(f"input has shape {x.shape}, expected (n, {w.shape[1]})")
    graph = isinstance(xs, Tensor)   # a graph needs the gate values BPTT reads
    n, k = len(x), len(b) // 3
    wxb = rowwise(w, x) + b   # input terms of every step, rows as in w
    u_zr, u_h = u[: 2 * k], u[2 * k :]
    # sigmoid(v) = 0.5 + 0.5 tanh(v / 2): the z/r terms are halved once, exactly
    half_zr, half_u_zr, wx_h = 0.5 * wxb[:, : 2 * k], 0.5 * u_zr, wxb[:, 2 * k :]
    states = np.zeros((n + 1, k))   # states[t] is the state before step t
    zr, cand = (np.empty((n, 2 * k)), np.empty((n, k))) if graph else (None, None)
    h = states[0]
    for t in range(n):   # ndarray.dot: the BLAS matrix-vector product without matmul's dispatch
        s = 0.5 + 0.5 * np.tanh(half_zr[t] + half_u_zr.dot(h))
        c = np.tanh(wx_h[t] + u_h.dot(s[k:] * h))
        h = states[t + 1] = h + s[:k] * (c - h)
        if graph:
            zr[t], cand[t] = s, c

    def backprop(g):
        prev, z, r = states[:-1], zr[:, :k], zr[:, k:]
        # derivatives of the next state through each gate, per unit of carried gradient
        d_c, d_z = z * (1.0 - cand * cand), (cand - prev) * z * (1.0 - z)
        d_r, keep = prev * r * (1.0 - r), 1.0 - z
        pre = np.empty((n, 3 * k))   # gradients of the gate pre-activations, rows as in w
        dh = np.zeros(k)
        for t in range(n - 1, -1, -1):
            dh = dh + g[t]
            d_rh = (p_h := dh * d_c[t]).dot(u_h)
            pre[t, :k], pre[t, k : 2 * k], pre[t, 2 * k :] = dh * d_z[t], d_rh * d_r[t], p_h
            dh = dh * keep[t] + d_rh * r[t] + pre[t, : 2 * k].dot(u_zr)
        dx = pre @ w if xs.requires_grad else None
        dw, db = (pre.T @ x).reshape(3, k, -1), pre.sum(axis=0).reshape(3, k)
        du = np.concatenate([pre[:, : 2 * k].T @ prev, pre[:, 2 * k :].T @ (r * prev)]).reshape(3, k, k)
        # only each cell's own blocks, in GRU_FIELDS order
        hid, inp = spans([p.hidden_dim for p in cells]), spans([p.input_dim for p in cells])
        return (dx, *(d[gate] for h_at, x_at in zip(hid, inp)
                      for d in (dw[:, h_at, x_at], du[:, h_at, h_at], db[:, h_at]) for gate in range(3)))

    # on arrays node reads only xs, so the cells' tensors are not gathered
    parents = (xs, *(t for p in cells for t in p.tensors().values())) if graph else (xs,)
    return node(states[1:], parents, backprop)
