"""Coupled two-head attention tagger for aspect and opinion extraction.

One context GRU encodes the sentence. Each head (aspect, opinion) owns a
prototype vector and composes every hidden state against both its own
prototype and the other head's, through stacks of bilinear maps. The
composition vectors run through a small per-head GRU, a linear classifier
gives B/I/O logits per token, and the max of the B/I logits doubles as a
raw attention score. Between layers each prototype absorbs an
attention-weighted summary of the sentence, so the second pass attends
with sharper templates. Both heads run each layer as one pass: the
prototypes are the rows of one array, the two GRUs and classifiers run as
one block-diagonal cell and one block-diagonal map, and the loss and the
decoder read both heads' logits as one (n, 6) block. Every parameter but
the four map stacks is a view of one vector, which an SGD step updates whole.
Each layer op is written once and hands its result to `autodiff.node`,
which makes a graph node for Tensor inputs and passes plain arrays through,
so `predict` runs the same ops on plain arrays, with no graph.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from . import bio
from .autodiff import Tensor, adopt, backward, constant, init_uniform, node, value, zeros
from .bio import ASPECT, OPINION, labels_to_spans, merge_heads
from .data import DataFormatError
from .gru import GRU_FIELDS, GruParams, gru_blocks, gru_run, rowwise, spans

# class order shared by logits, gold indices and checkpointed classifiers
CLASS_ORDER = (bio.B, bio.I, bio.O)
CLASS_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}

# prototypes always start in this band regardless of the init scale used
# for the rest of the parameters
PROTOTYPE_INIT = 0.2

# rows of a (k*d, d) map the SGD update subtracts per product, so its temporary stays in cache
UPDATE_ROWS = 512

# values per json.dumps call when a checkpoint is saved
SAVE_SLICE = 4096


class TrainingDiverged(RuntimeError):
    """Loss left the finite floats; message names epoch and sentence."""


@dataclass(frozen=True)
class HeadParams:
    """Learnable state of one tagging head."""

    prototype: Tensor   # (dim,) feature template this head attends with
    comp: Tensor        # (channels, dim, dim) maps against the own prototype
    cross: Tensor       # (channels, dim, dim) maps against the other head's
    att_gru: GruParams  # smooths composition vectors, 2*channels -> channels
    classifier: Tensor  # (3, channels) B/I/O logits from attention features
    proto_map: Tensor   # (dim, dim) feedback map for the prototype update


@dataclass(frozen=True)
class CmlaParams:
    """Every tensor but the four map stacks (FLAT_NAMES, in named_tensors()
    order) is a view of `flat`. Frozen: tensors are written in place, never swapped."""

    ctx_gru: GruParams
    aspect: HeadParams
    opinion: HeadParams
    flat: np.ndarray = field(repr=False, compare=False)
    layers: int = 2

    @property
    def dim(self) -> int:
        return self.ctx_gru.hidden_dim

    @property
    def channels(self) -> int:
        return self.aspect.att_gru.hidden_dim

    @classmethod
    def init(cls, dim: int, channels: int, rng, layers: int = 2, init_scale: float = 0.2):
        if dim <= 0 or channels <= 0:
            raise ValueError(f"dim and channels must be positive, got {dim}, {channels}")
        if layers < 1:
            raise ValueError(f"need at least one layer, got {layers}")
        gen = np.random.default_rng(rng)   # a Generator comes back unchanged
        tensors = {}
        for name, shape in cls.shapes(dim, channels).items():   # zero biases draw nothing
            band = PROTOTYPE_INIT if name.endswith(".prototype") else init_scale
            bias = name.rpartition(".")[2].startswith("b_")
            tensors[name] = zeros(shape, requires_grad=True) if bias else init_uniform(shape, -band, band, gen)
        return cls.from_named(tensors, layers)

    def named_tensors(self) -> dict:
        return dict(self._named)

    def __deepcopy__(self, memo):
        """Copies of the tensors, rebuilt by from_named so that they view the
        copy's own `flat` (a plain deep copy gives every view its own array)."""
        return self.from_named({name: Tensor(t.data, requires_grad=t.requires_grad)
                                for name, t in self._named.items()}, self.layers)

    @cached_property
    def _named(self) -> dict:   # built once: the containers are frozen
        return {name: attrgetter(name)(self) for name in self.shapes(1, 1)}

    @staticmethod
    def shapes(dim: int, channels: int) -> dict:
        """Shape of every named tensor of a dim x channels model."""
        out = {f"ctx_gru.{k}": s for k, s in GruParams.shapes(dim, dim).items()}
        for head in bio.HEADS:
            out.update({f"{head}.prototype": (dim,), f"{head}.comp": (channels, dim, dim),
                        f"{head}.cross": (channels, dim, dim)})
            out.update({f"{head}.att_gru.{k}": s
                        for k, s in GruParams.shapes(2 * channels, channels).items()})
            out.update({f"{head}.classifier": (3, channels), f"{head}.proto_map": (dim, dim)})
        return out

    FLAT_NAMES = tuple(name for name, shape in shapes(1, 1).items() if len(shape) < 3)

    @classmethod
    def from_named(cls, tensors: dict, layers: int):
        """Parameters made of `tensors`, keyed as named_tensors() keys them.
        Each tensor but the maps is copied into `flat` and made a view of it;
        each cell is built over its stretch of `flat`, here only."""
        flat = np.concatenate([tensors[name].data for name in cls.FLAT_NAMES], axis=None)
        at = dict(zip(cls.FLAT_NAMES, spans([tensors[name].data.size for name in cls.FLAT_NAMES])))
        for name in cls.FLAT_NAMES:
            tensors[name].data = flat[at[name]].reshape(tensors[name].data.shape)

        def gru(prefix):
            return GruParams(**{f: tensors[f"{prefix}.{f}"] for f in GRU_FIELDS},
                             flat=flat[at[f"{prefix}.W_z"].start : at[f"{prefix}.b_h"].stop])

        def head(name):
            fields = ("prototype", "comp", "cross", "classifier", "proto_map")
            return HeadParams(att_gru=gru(f"{name}.att_gru"), **{f: tensors[f"{name}.{f}"] for f in fields})

        return cls(gru("ctx_gru"), head(ASPECT), head(OPINION), flat, layers)


class FactoredGrad:
    """Gradient of a (k, d, d) stack of maps as factors a (L, k, d) and
    b (L, d): map c's gradient is sum_l outer(a[l, c], b[l]). Clipping and
    the SGD update read the factors; np.asarray gives the dense array."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        return FactoredGrad(np.concatenate((self.a, other.a)), np.concatenate((self.b, other.b)))

    def __mul__(self, scale):
        return FactoredGrad(self.a * scale, self.b)

    def __array__(self, dtype=None, copy=None):
        """sum_l outer(a[l, c], b[l]) for every c, as one (k*d, L) x (L, d) product."""
        dense = self.a.reshape(len(self.b), -1).T @ self.b
        return np.asarray(dense.reshape(self.a.shape[1:] + self.b.shape[1:]), dtype=dtype)

    def squared_norm(self) -> float:
        """The dense array's squared L2 norm, from the factors' Gram matrices."""
        a = self.a.reshape(len(self.b), -1)
        return float(np.vdot(a @ a.T, self.b @ self.b.T))

    def subtract_from(self, param, lr: float):
        a, p = (lr * self.a).reshape(len(self.b), -1), param.reshape(-1, self.b.shape[1])
        for r in range(0, len(p), UPDATE_ROWS):
            p[r : r + UPDATE_ROWS] -= a[:, r : r + UPDATE_ROWS].T @ self.b


def compose(h_seq, u, heads):
    """Composition vectors of a sentence, (n, 2*channels per head) in (-1, 1).

    Head i's block: tanh of the bilinear form of each hidden state against
    its own prototype u[i] through its comp maps, one entry per channel, then
    against the other head's u[-1 - i] through its cross maps, which is what
    couples the heads. The maps are contracted with the prototypes first, so
    the per-token cost is one (d,) x (d, 2*channels*heads) product.
    """
    maps = [t for head in heads for t in (head.comp, head.cross)]
    protos = [j for i in range(len(heads)) for j in (i, len(heads) - 1 - i)]   # u row of each map
    h, us = value(h_seq), value(u)
    mu = np.concatenate([m.data @ us[j] for m, j in zip(maps, protos)])
    # one product per row, so appending a token never changes an earlier row's bits
    y = np.tanh(rowwise(mu, h))

    def backprop(g):
        gp = g * (1.0 - y * y)
        g_mu = (gp.T @ h).reshape(len(maps), -1, h.shape[1])
        u_rows, g_u = np.array(us), np.zeros(us.shape)   # a copy: train updates the prototypes in place
        for m, j, gm in zip(maps, protos, g_mu):
            g_u[j] += gm.reshape(-1) @ m.data.reshape(-1, h.shape[1])
        return (gp @ mu, g_u, *(FactoredGrad(gm[None], u_rows[j : j + 1]) for gm, j in zip(g_mu, protos)))

    return node(y, (h_seq, u, *maps), backprop)


def block_diagonal(*blocks):
    """The 2-D arrays as the diagonal blocks of one zero-filled array."""
    at = list(zip(spans([len(c) for c in blocks]), spans([c.shape[1] for c in blocks])))
    out = np.zeros((at[-1][0].stop, at[-1][1].stop))
    for c, a in zip(blocks, at):
        out[a] = c
    return out


def classify(features, *classifiers: Tensor, block):
    """(n, 3 per head) B/I/O logits in CLASS_ORDER from (n, channels per head)
    features, through `block`, the classifiers' block-diagonal map."""
    f = value(features)

    def backprop(g):
        cs = [c.data for c in classifiers]
        at = zip(spans([len(c) for c in cs]), spans([c.shape[1] for c in cs]))
        return (g @ block, *map((g.T @ f).__getitem__, at))

    # one product per row for bitwise prefix causality, as in compose
    return node(rowwise(block, f), (features, *classifiers), backprop)


def attend(logits):
    """Attention weights, (n, heads): per head's B/I/O column triple, the
    softmax over the sentence of each token's max(B, I).

    The max's gradient goes to the B logit when B and I tie.
    """
    x = value(logits)
    x = x.reshape(len(x), -1, len(CLASS_ORDER))   # (n, heads, B/I/O)
    raw = np.maximum(x[:, :, 0], x[:, :, 1])
    e = np.exp(raw - raw.max(axis=0))
    w = e / e.sum(axis=0)

    def backprop(g):
        pick_b = x[:, :, 0] >= x[:, :, 1]
        gw, out = (g - (g * w).sum(axis=0)) * w, np.zeros(x.shape)
        out[:, :, 0], out[:, :, 1] = np.where(pick_b, gw, 0.0), np.where(pick_b, 0.0, gw)
        return (out.reshape(len(x), -1),)

    return node(w, (logits,), backprop)


def head_blocks(heads) -> tuple:
    """The heads' block-diagonal attention cell and classifier, which every
    layer of a sentence shares."""
    return (gru_blocks(*(head.att_gru for head in heads)),
            block_diagonal(*(head.classifier.data for head in heads)))


def attention_layer(h_seq, u, heads, blocks) -> tuple:
    """One layer of every head: (n, 3 per head) logits, (n, heads) weights.
    `blocks` is head_blocks(heads)."""
    cell, classifier = blocks
    features = gru_run(compose(h_seq, u, heads), *(head.att_gru for head in heads), blocks=cell)
    logits = classify(features, *(head.classifier for head in heads), block=classifier)
    return logits, attend(logits)


def update_prototype(u, norm_scores, h_seq, proto_maps):
    """Attention-weighted feedback on the (heads, dim) prototypes:
    u'[i] = u[i] + proto_maps[i] (w[:, i]^T H). Shapes, finiteness and the
    weight sums are checked first."""
    us, w, h, maps = value(u), value(norm_scores), value(h_seq), [m.data for m in proto_maps]
    n = h.shape[0]
    if w.shape != (n, len(maps)):
        raise ValueError(f"{n} hidden states and {len(maps)} heads but scores of shape {w.shape}")
    if h.ndim != 2 or us.shape[0] != len(maps) or any(m.shape != (*us.shape[1:], h.shape[1]) for m in maps):
        raise ValueError(f"prototypes {us.shape}, maps {[m.shape for m in maps]} "
                         f"and states {h.shape} do not fit")
    for total in w.sum(axis=0).tolist():
        if not np.isfinite(total):
            raise FloatingPointError(f"non-finite attention weights (sum {total!r})")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weight-sum violation beyond 1e-9: weights sum to {total!r}")
    pooled = w.T @ h
    out = us + np.array([m @ p for m, p in zip(maps, pooled)])

    def backprop(g):
        mg = np.array([m.T @ gi for m, gi in zip(maps, g)])
        return (g, h @ mg.T, w @ mg, *map(np.outer, g, pooled))

    return node(out, (u, norm_scores, h_seq, *proto_maps), backprop)


def run_layers(x, u, params: CmlaParams) -> tuple:
    """The layer stack over (n, dim) embeddings x from (heads, dim)
    prototypes u: the final layer's logits and attention weights, as nodes
    for Tensors in and as plain arrays for plain arrays in."""
    heads = (params.aspect, params.opinion)
    h_seq = gru_run(x, params.ctx_gru)
    blocks = head_blocks(heads)
    for layer in range(params.layers):
        logits, scores = attention_layer(h_seq, u, heads, blocks)
        if layer + 1 < params.layers:
            u = update_prototype(u, scores, h_seq, [head.proto_map for head in heads])
    return logits, scores


def forward(embeddings, params: CmlaParams) -> tuple:
    """Run the full stack over one sentence of embedding vectors; return the
    final layer's (n, 6) logits, each head's B/I/O triple in CLASS_ORDER,
    aspect first, and its (n, 2) attention weights, a column per head.

    The vectors (arrays or Tensors) enter as one constant (n, dim) block,
    so no gradient flows back into them. Both heads run each layer as one
    pass on their stacked (2, dim) prototypes. Prototypes are refreshed
    between layers only; the final layer's attention output is the model's
    answer, so a trailing update would be unobservable.
    """
    xs = constant(np.array([value(x) for x in embeddings]))
    heads = (params.aspect, params.opinion)
    # the prototypes as the rows of one node; row i's gradient goes to head i
    u = node(np.array([head.prototype.data for head in heads]), [head.prototype for head in heads], tuple)
    return run_layers(xs, u, params)


def loss(logits: Tensor, gold_a: str, gold_p: str) -> Tensor:
    """Mean per-token cross-entropy of each head's (n, 3) block of the
    (n, 6) logits against its gold B/I/O string, summed over the heads."""
    n = len(gold_a)
    if len(gold_p) != n or logits.data.shape != (n, 2 * len(CLASS_ORDER)):
        raise ValueError(f"logits of shape {logits.data.shape} for {n} and {len(gold_p)} gold labels")
    x = logits.data.reshape(n, 2, len(CLASS_ORDER))
    shifted = x - x.max(axis=2, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    one_hot = np.zeros(x.shape)
    for i, gold in enumerate((gold_a, gold_p)):
        one_hot[np.arange(n), i, [CLASS_INDEX[label] for label in gold]] = 1.0
    # one contiguous row per head: numpy's pairwise sum then adds a head's
    # terms in the order it adds them in that head's (n, 3) block alone
    terms = (one_hot * log_probs).transpose(1, 0, 2).reshape(2, -1)
    return node(sum(-terms.sum(axis=1) / n), (logits,),
                lambda g: (g * (np.exp(log_probs) - one_hot).reshape(n, -1) / n,))


def embed_sentence(sentence, table) -> list:
    return [table.lookup(tok.surface) for tok in sentence.tokens]


def sentence_loss(sentence, table, params: CmlaParams) -> Tensor:
    gold = [bio.spans_to_labels(len(sentence.tokens), getattr(sentence, f"{h}_spans"), h) for h in bio.HEADS]
    logits, _ = forward(embed_sentence(sentence, table), params)
    return loss(logits, *gold)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    lr: float = 0.07
    epochs: int = 100
    clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if not self.clip > 0:
            raise ValueError(f"clip threshold must be positive, got {self.clip}")


def clip_gradients(flat_grad, map_grads: list, threshold: float) -> float:
    """Scale `flat_grad` in place and the FactoredGrads in `map_grads` to a global
    L2 norm of at most threshold; return the norm. A non-finite one raises FloatingPointError."""
    norm = float(np.sqrt(np.vdot(flat_grad, flat_grad) + sum(g.squared_norm() for g in map_grads)))
    if not np.isfinite(norm):   # BLAS's vdot overflows to inf without raising
        raise FloatingPointError(f"non-finite gradient norm {norm!r}")
    if norm > threshold:
        factor = threshold / norm
        flat_grad *= factor
        map_grads[:] = [g * factor for g in map_grads]
    return norm


def train(sentences, table, params: CmlaParams, config: TrainConfig) -> list:
    """Plain SGD over single sentences; mutates params, returns the loss trace.

    Sentence order is reshuffled every epoch from a generator seeded with
    config.seed, so two runs with identical inputs produce identical
    parameters and traces. The trace holds one mean per-sentence loss per
    epoch. Any overflow, invalid operation or non-finite loss or attention
    weight aborts immediately.
    """
    sentences = list(sentences)
    if not sentences:
        raise ValueError("training needs at least one sentence")
    named, flat = params.named_tensors(), params.flat
    maps = [named.pop(f"{head}.{m}") for head in bio.HEADS for m in ("comp", "cross")]
    for name, t in named.items():
        if t.data.base is not flat:
            raise ValueError(f"{name} is no longer a view of the parameter vector")
    # one sentence has one order, so it needs no generator (seeding one costs ~15 µs a call)
    order_gen = np.random.default_rng(config.seed) if len(sentences) > 1 else None

    trace = []
    for epoch in range(config.epochs):
        epoch_total = 0.0
        for idx in order_gen.permutation(len(sentences)) if order_gen else range(1):
            try:
                # the first overflow or invalid operation of the step raises
                with np.errstate(over="raise", invalid="raise"):
                    value = sentence_loss(sentences[idx], table, params)
                    if not np.isfinite(value.data):
                        raise FloatingPointError("non-finite loss")
                    grads = backward(value)
                    g = np.concatenate([grads[t] if t in grads else np.zeros(t.data.size)
                                        for t in named.values()], axis=None)
                    map_grads = [grads[t] for t in maps]
                    clip_gradients(g, map_grads, config.clip)
                    flat -= config.lr * g
                    for t, mg in zip(maps, map_grads):
                        mg.subtract_from(t.data, config.lr)
            except FloatingPointError as exc:
                raise TrainingDiverged(f"{exc} at epoch {epoch}, sentence index {int(idx)}") from None
            epoch_total += value.item()
        trace.append(epoch_total / len(sentences))
    return trace


# ---------------------------------------------------------------------------
# prediction


@dataclass
class TokenScores:
    token_index: int
    aspect_logits: np.ndarray
    opinion_logits: np.ndarray
    aspect_attention: float
    opinion_attention: float


@dataclass(slots=True)
class Prediction:
    aspect_spans: list
    opinion_spans: list
    merged: list                  # five-category tag per token
    aspect_logits: np.ndarray     # (n, 3) final-layer logits in CLASS_ORDER
    opinion_logits: np.ndarray
    aspect_attention: np.ndarray  # (n,) final-layer attention weights
    opinion_attention: np.ndarray

    @property
    def token_scores(self) -> list:
        """One TokenScores row per token, built from the per-head arrays."""
        return [
            TokenScores(i, self.aspect_logits[i].copy(), self.opinion_logits[i].copy(),
                        float(self.aspect_attention[i]), float(self.opinion_attention[i]))
            for i in range(len(self.merged))
        ]


def predict(sentence, table, params: CmlaParams) -> Prediction:
    """Label one tokenized sentence; OOV words go through the table policy.
    An overflow or invalid operation raises FloatingPointError naming the sentence."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            # the ops on plain arrays: no graph, no state kept for a backward
            u = np.array([params.aspect.prototype.data, params.opinion.prototype.data])
            logits, scores = run_layers(np.array(embed_sentence(sentence, table)), u, params)
            x = logits.reshape(len(logits), 2, len(CLASS_ORDER))
            probs = np.exp(x - x.max(axis=2, keepdims=True))
            probs /= probs.sum(axis=2, keepdims=True)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} in the forward pass of sentence {sentence.source_id}") from None
    aspect, opinion = ("".join([CLASS_ORDER[i] for i in picks]) for picks in probs.argmax(axis=2).T.tolist())
    return Prediction(labels_to_spans(aspect, ASPECT), labels_to_spans(opinion, OPINION),
                      merge_heads(aspect, opinion, *probs.max(axis=2).T.tolist()),
                      logits[:, :3], logits[:, 3:], scores[:, 0], scores[:, 1])


# ---------------------------------------------------------------------------
# checkpoints


CHECKPOINT_FORMAT = "cmla-checkpoint"
CHECKPOINT_VERSION = 1

# bytes of checkpoint text read at a time when a checkpoint is loaded
LOAD_SLICE = 1 << 16

# the longest text of one value a checkpoint may hold: no float64 repr is longer
FLOAT_TEXT_MAX = 24
# the bytes of a value, and the comma of the ", " that joins two
_NUMBER_BYTES = b"-+.0123456789eE,"


def _frame(dim: int, channels: int, layers: int) -> tuple:
    """The text of a checkpoint before its first tensor entry and after its last."""
    header = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
              "dim": dim, "channels": channels, "layers": layers, "tensors": {}}
    head, tail = json.dumps(header, sort_keys=True).split('"tensors": {}')
    return head + '"tensors": {', "}" + tail + "\n"


# the text before the first tensor entry, cut at its dimensions: channels, dim, layers
_HEAD = _frame(1, 1, 1)[0].split("1")


def _entry_head(name: str, shape) -> str:
    """The text of a tensor entry before its values; a name needs no JSON escapes."""
    return f'"{name}": {{"shape": {list(shape)}, "values": ['


def save_checkpoint(path, params: CmlaParams):
    """Write parameters as sorted JSON.

    Floats are serialized with repr, which round-trips every finite
    float64 bit for bit, and JSON carries no timestamps, so identical
    parameters always produce identical bytes: json.dumps(payload,
    sort_keys=True) of the whole payload, encoded SAVE_SLICE values at a
    time. They go to a sibling file that replaces `path` once it is whole,
    so a save that fails midway leaves an earlier file at `path` as it was.
    """
    head, tail = _frame(params.dim, params.channels, params.layers)
    part = f"{os.fspath(path)}.part"
    try:
        with open(part, "w", encoding="utf-8") as fh:
            fh.write(head)
            for i, (name, t) in enumerate(sorted(params.named_tensors().items())):
                values = t.data.reshape(-1)
                fh.write(("]}, " if i else "") + _entry_head(name, t.data.shape))
                for at in range(0, values.size, SAVE_SLICE):
                    fh.write((", " if at else "") + json.dumps(values[at : at + SAVE_SLICE].tolist())[1:-1])
            fh.write("]}" + tail)
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise


def load_checkpoint(path) -> CmlaParams:
    """Read a checkpoint back.

    The format is the bytes save_checkpoint writes, after one optional
    byte order mark: its header, 37 tensor entries in name order and its
    tail byte for byte, each values list holding as many finite JSON
    floats (FLOAT_TEXT_MAX bytes at most) as its shape. The file's
    position is the only cursor, and values are read LOAD_SLICE bytes at
    a time straight into the tensors' arrays. Anything else raises
    DataFormatError naming the file, the offset of the first byte (or
    value) that departs, and what was expected there.
    """
    with open(path, "rb") as raw:
        if not raw.seekable():
            raise DataFormatError(f"{path}: not a regular file; a checkpoint is read by seeking in it")
        raw.seek(3 if raw.read(3) == codecs.BOM_UTF8 else 0)

        def fail(at: int, expected: str):
            raise DataFormatError(f"{path}: byte {at}: expected {expected}")

        def take(text: str, expected: str):
            at, want = raw.tell(), text.encode()
            got = raw.read(len(want))
            if got != want:
                fail(at + next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(got)), expected)

        def dimension(before: str) -> int:
            take(before, "a header field")
            at = raw.tell()
            digits = re.match(rb"[1-9][0-9]{0,17}", raw.read(18))
            if not digits:
                fail(at, "a header field")
            raw.seek(at + digits.end())
            return int(digits[0])

        def integer(text: str):
            raise ValueError(f"{text} is an integer; checkpoint values are floats")

        def parse(text: bytes, out: np.ndarray) -> int:
            """How many values `text` holds, parsed into the start of `out`: 0 unless they are
            finite JSON floats of 1 to FLOAT_TEXT_MAX bytes, joined by ", ", that fit in `out`."""
            buf = np.frombuffer(b", " + text + b",", np.uint8)   # each value follows ", " and ends at ","
            commas = np.flatnonzero(buf == ord(","))
            lengths = np.diff(commas) - 2
            if not (len(lengths) <= out.size and 1 <= lengths.min() and lengths.max() <= FLOAT_TEXT_MAX
                    and text.translate(None, _NUMBER_BYTES) == b" " * (len(lengths) - 1)   # as many spaces
                    and (buf[commas[:-1] + 1] == ord(" ")).all()):   # as joins, each after its comma
                return 0
            head = out[: len(lengths)]
            try:
                head[:] = json.loads(b"[" + text + b"]", parse_int=integer)
            except ValueError:
                return 0
            return head.size if np.isfinite(head).all() else 0

        def floats(values: np.ndarray):
            """Fill the 1-D `values` from the values list at the file's position and
            leave the file after its last value; each piece's values take one json.loads."""
            filled = 0
            while filled < values.size:
                at, rest = raw.tell(), values[filled:]
                piece = raw.read(max(LOAD_SLICE, FLOAT_TEXT_MAX + 2))   # one whole value at least
                close = piece.find(b"]")   # its values end at its first "]", or else at its last ", "
                text = piece[:close] if close >= 0 else piece.rpartition(b", ")[0]
                end = close if close >= 0 else len(text) + 2
                count = parse(text, rest)
                if not count:
                    # value by value, up to the last one the list may hold
                    items = text.split(b", ")[: rest.size]
                    for i, value in enumerate(items):
                        if not parse(value, rest):
                            fail(at + sum(map(len, items[:i])) + 2 * i, "a finite float")
                    text = b", ".join(items)
                    count = parse(text, rest)
                filled += count
                raw.seek(at + (len(text) if filled == values.size else end))

        channels, dim, layers = map(dimension, _HEAD[:-1])
        take(_HEAD[-1], "a header field")
        shapes = sorted(CmlaParams.shapes(dim, channels).items())
        # a JSON float takes three bytes at least: the arrays cannot outgrow the file
        if 3 * sum(math.prod(shape) for _, shape in shapes) > os.fstat(raw.fileno()).st_size:
            fail(0, "a header field")
        arrays = {}
        for i, (name, shape) in enumerate(shapes):
            take(("}, " if i else "") + _entry_head(name, shape), "a tensor name")
            arrays[name] = np.empty(shape)
            floats(arrays[name].reshape(-1))
            take("]", "the end of the values list")
        take("}" + _frame(dim, channels, layers)[1], "the tail")
        if raw.read(1):
            fail(raw.tell() - 1, "the tail")
    # the arrays become the tensors' data: copies would sit in the heap above
    # the freed arrays and keep their space resident
    return CmlaParams.from_named({name: adopt(values, requires_grad=True) for name, values in arrays.items()},
                                 layers)
