"""Coupled two-head attention tagger for aspect and opinion extraction.

One context GRU encodes the sentence. Each head (aspect, opinion) owns a
prototype vector and composes every hidden state against both its own
prototype and the other head's, through stacks of bilinear maps. The
composition vectors run through a small per-head GRU, a linear classifier
gives B/I/O logits per token, and the max of the B/I logits doubles as a
raw attention score. Between layers each prototype absorbs an
attention-weighted summary of the sentence, so the second pass attends
with sharper templates. Both heads run each layer as one pass: the
prototypes are the rows of one array, and the two GRUs and classifiers
run as one block-diagonal cell and one block-diagonal map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bio
from .autodiff import Tensor, backward, constant, node
from .bio import ASPECT, OPINION, LabelSeq, labels_to_spans, merge_heads
from .data import DataFormatError, open_text
from .gru import GRU_FIELDS, GruParams, gru_run, init_tensor, spans

# class order shared by logits, gold indices and checkpointed classifiers
CLASS_ORDER = (bio.B, bio.I, bio.O)
CLASS_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}

# prototypes always start in this band regardless of the init scale used
# for the rest of the parameters
PROTOTYPE_INIT = 0.2


class TrainingDiverged(RuntimeError):
    """Loss left the finite floats; message names epoch and sentence."""


@dataclass
class HeadParams:
    """Learnable state of one tagging head."""

    prototype: Tensor   # (dim,) feature template this head attends with
    comp: Tensor        # (channels, dim, dim) maps against the own prototype
    cross: Tensor       # (channels, dim, dim) maps against the other head's
    att_gru: GruParams  # smooths composition vectors, 2*channels -> channels
    classifier: Tensor  # (3, channels) B/I/O logits from attention features
    proto_map: Tensor   # (dim, dim) feedback map for the prototype update

    def tensors(self) -> dict:
        out = {"prototype": self.prototype, "comp": self.comp, "cross": self.cross}
        out.update({f"att_gru.{k}": v for k, v in self.att_gru.tensors().items()})
        out["classifier"] = self.classifier
        out["proto_map"] = self.proto_map
        return out


@dataclass
class CmlaParams:
    ctx_gru: GruParams
    aspect: HeadParams
    opinion: HeadParams
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
        gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
        tensors = {}
        for name, shape in cls.shapes(dim, channels).items():
            band = PROTOTYPE_INIT if name.endswith(".prototype") else init_scale
            tensors[name] = init_tensor(name, shape, band, gen)
        return cls.from_named(tensors, layers)

    def named_tensors(self) -> dict:
        out = {f"ctx_gru.{k}": v for k, v in self.ctx_gru.tensors().items()}
        out.update({f"aspect.{k}": v for k, v in self.aspect.tensors().items()})
        out.update({f"opinion.{k}": v for k, v in self.opinion.tensors().items()})
        return out

    def all_tensors(self) -> list:
        return list(self.named_tensors().values())

    @staticmethod
    def shapes(dim: int, channels: int) -> dict:
        """Shape of every named tensor of a dim x channels model."""
        out = {f"ctx_gru.{k}": s for k, s in GruParams.shapes(dim, dim).items()}
        for head in (ASPECT, OPINION):
            out.update({f"{head}.prototype": (dim,), f"{head}.comp": (channels, dim, dim),
                        f"{head}.cross": (channels, dim, dim)})
            out.update({f"{head}.att_gru.{k}": s
                        for k, s in GruParams.shapes(2 * channels, channels).items()})
            out.update({f"{head}.classifier": (3, channels), f"{head}.proto_map": (dim, dim)})
        return out

    @classmethod
    def from_named(cls, tensors: dict, layers: int):
        """Parameters made of `tensors`, keyed as named_tensors() keys them."""
        def gru(prefix):
            return GruParams(**{f: tensors[f"{prefix}.{f}"] for f in GRU_FIELDS})

        def head(name):
            fields = ("prototype", "comp", "cross", "classifier", "proto_map")
            return HeadParams(att_gru=gru(f"{name}.att_gru"), **{f: tensors[f"{name}.{f}"] for f in fields})

        return cls(ctx_gru=gru("ctx_gru"), aspect=head(ASPECT), opinion=head(OPINION), layers=layers)

    def check_shapes(self):
        expected = self.shapes(self.dim, self.channels)
        for name, t in self.named_tensors().items():
            if t.data.shape != expected[name]:
                raise ValueError(f"{name} has shape {t.data.shape}, expected {expected[name]}")


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

    def _dense(self, a):
        """sum_l outer(a[l, c], b[l]) for every c, as one (k*d, L) x (L, d) product."""
        return (a.reshape(len(self.b), -1).T @ self.b).reshape(a.shape[1:] + self.b.shape[1:])

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._dense(self.a), dtype=dtype)

    def squared_norm(self) -> float:
        """The dense array's squared L2 norm, from the factors' Gram matrices."""
        a = self.a.reshape(len(self.b), -1)
        return float(np.vdot(a @ a.T, self.b @ self.b.T))

    def subtract_from(self, param, lr: float):
        param -= self._dense(lr * self.a)


def compose(h_seq: Tensor, u: Tensor, heads) -> Tensor:
    """Composition vectors of a sentence, (n, 2*channels per head) in (-1, 1).

    Head i's block: tanh of the bilinear form of each hidden state against
    its own prototype u[i] through its comp maps, one entry per channel, then
    against the other head's u[-1 - i] through its cross maps, which is what
    couples the heads. The maps are contracted with the prototypes first, so
    the per-token cost is one (d,) x (d, 2*channels*heads) product.
    """
    h, us = h_seq.data, u.data
    maps = [t for head in heads for t in (head.comp, head.cross)]
    protos = [j for i in range(len(heads)) for j in (i, len(heads) - 1 - i)]   # u row of each map
    mu = np.concatenate([m.data @ us[j] for m, j in zip(maps, protos)])
    # an unoptimised einsum sums every row the same way however many rows
    # there are, so appending a token never changes an earlier row's bits
    y = np.tanh(np.einsum("ni,ki->nk", h, mu))

    def backprop(g):
        gp = g * (1.0 - y * y)
        g_mu = (gp.T @ h).reshape(len(maps), -1, h.shape[1])
        u_rows, g_u = np.array(us), np.zeros(us.shape)   # a copy: train updates the prototypes in place
        for m, j, gm in zip(maps, protos, g_mu):
            g_u[j] += np.tensordot(gm, m.data, axes=2)
        return (gp @ mu, g_u, *(FactoredGrad(gm[None], u_rows[j : j + 1]) for gm, j in zip(g_mu, protos)))

    return node(y, (h_seq, u, *maps), backprop)


def classify(features: Tensor, *classifiers: Tensor) -> Tensor:
    """(n, 3 per head) B/I/O logits in CLASS_ORDER from (n, channels per head)
    features, through one block-diagonal classifier."""
    f, cs = features.data, [c.data for c in classifiers]
    at = list(zip(spans([len(c) for c in cs]), spans([c.shape[1] for c in cs])))
    w = np.zeros((at[-1][0].stop, at[-1][1].stop))
    for c, a in zip(cs, at):
        w[a] = c
    # unoptimised einsum for bitwise prefix causality, as in compose
    return node(np.einsum("nk,ck->nc", f, w), (features, *classifiers),
                lambda g: (g @ w, *map((g.T @ f).__getitem__, at)))


def attend(logits: Tensor) -> Tensor:
    """Attention weights, (n, heads): per head's B/I/O column triple, the
    softmax over the sentence of each token's max(B, I).

    The max's gradient goes to the B logit when B and I tie.
    """
    x = logits.data
    first = np.arange(0, x.shape[1], len(CLASS_ORDER))   # each head's B column
    rows, cols = np.arange(x.shape[0])[:, None], first + np.argmax(x[:, first[:, None] + [0, 1]], axis=2)
    raw = x[rows, cols]
    e = np.exp(raw - raw.max(axis=0))
    w = e / e.sum(axis=0)

    def backprop(g):
        out = np.zeros(x.shape)
        out[rows, cols] = (g - (g * w).sum(axis=0)) * w
        return (out,)

    return node(w, (logits,), backprop)


def take_columns(t: Tensor, cols) -> Tensor:
    """Columns `cols` (an index or a slice) of a 2-D Tensor, as one node."""
    def backprop(g):
        out = np.zeros(t.data.shape)
        out[:, cols] = g
        return (out,)

    return node(t.data[:, cols], (t,), backprop)


@dataclass
class HeadOutput:
    logits: Tensor      # (n, 3) class scores in CLASS_ORDER
    norm_scores: Tensor # (n,) softmax over the sentence of max(B, I) logits


def attention_layer(h_seq: Tensor, u: Tensor, heads) -> tuple:
    """One layer of every head: (n, 3 per head) logits, (n, heads) weights."""
    features = gru_run(compose(h_seq, u, heads), *(head.att_gru for head in heads))
    logits = classify(features, *(head.classifier for head in heads))
    return logits, attend(logits)


def update_prototype(u: Tensor, norm_scores: Tensor, h_seq: Tensor, proto_maps) -> Tensor:
    """Attention-weighted feedback on the (heads, dim) prototypes:
    u'[i] = u[i] + proto_maps[i] (w[:, i]^T H)."""
    w, h, us, maps = norm_scores.data, h_seq.data, u.data, [m.data for m in proto_maps]
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

    def backprop(g):
        mg = np.array([m.T @ gi for m, gi in zip(maps, g)])
        return (g, h @ mg.T, w @ mg, *map(np.outer, g, pooled))

    return node(us + np.array([m @ p for m, p in zip(maps, pooled)]),
                (u, norm_scores, h_seq, *proto_maps), backprop)


@dataclass
class ForwardResult:
    aspect: HeadOutput
    opinion: HeadOutput
    hidden: Tensor      # (n, dim) context GRU states


def forward(embeddings, params: CmlaParams) -> ForwardResult:
    """Run the full stack over one sentence of embedding vectors.

    The vectors (arrays or Tensors) enter as one constant (n, dim) block,
    so no gradient flows back into them. Both heads run each layer as one
    pass on their stacked (2, dim) prototypes. Prototypes are refreshed
    between layers only; the final layer's attention output is the model's
    answer, so a trailing update would be unobservable.
    """
    xs = constant(np.array([x.data if isinstance(x, Tensor) else x for x in embeddings]))
    h_seq = gru_run(xs, params.ctx_gru)
    heads = (params.aspect, params.opinion)
    # the prototypes as the rows of one node; row i's gradient goes to head i
    u = node(np.array([head.prototype.data for head in heads]), [head.prototype for head in heads], tuple)
    for layer in range(params.layers):
        logits, scores = attention_layer(h_seq, u, heads)
        if layer + 1 < params.layers:
            u = update_prototype(u, scores, h_seq, [head.proto_map for head in heads])
    a, p = (HeadOutput(take_columns(logits, slice(3 * i, 3 * i + 3)), take_columns(scores, i))
            for i in range(len(heads)))
    return ForwardResult(aspect=a, opinion=p, hidden=h_seq)


def loss(logits_a: Tensor, logits_p: Tensor, gold_a: LabelSeq, gold_p: LabelSeq) -> Tensor:
    """Mean per-token cross-entropy of each head, summed over the heads."""
    heads = []   # (log-probabilities, one-hot gold, token count) per head
    for logits, gold in ((logits_a, gold_a), (logits_p, gold_p)):
        n = len(gold)
        if logits.data.shape != (n, len(CLASS_ORDER)):
            raise ValueError(f"logits of shape {logits.data.shape} for {n} gold labels")
        shifted = logits.data - logits.data.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        one_hot = np.zeros((n, len(CLASS_ORDER)))
        one_hot[np.arange(n), [CLASS_INDEX[label] for label in gold.labels]] = 1.0
        heads.append((log_probs, one_hot, n))
    value = sum(-(one_hot * log_probs).sum() / n for log_probs, one_hot, n in heads)
    return node(value, (logits_a, logits_p),
                lambda g: tuple(g * (np.exp(lp) - oh) / n for lp, oh, n in heads))


def embed_sentence(sentence, table) -> list:
    return [table.lookup(tok.surface) for tok in sentence.tokens]


def sentence_loss(sentence, table, params: CmlaParams) -> Tensor:
    gold_a = bio.spans_to_labels(len(sentence.tokens), sentence.aspect_spans, ASPECT)
    gold_p = bio.spans_to_labels(len(sentence.tokens), sentence.opinion_spans, OPINION)
    fwd = forward(embed_sentence(sentence, table), params)
    return loss(fwd.aspect.logits, fwd.opinion.logits, gold_a, gold_p)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    lr: float = 0.07
    epochs: int = 100
    clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if not self.clip > 0:
            raise ValueError(f"clip threshold must be positive, got {self.clip}")


def clip_gradients(grads: dict, tensors, threshold: float) -> float:
    """Scale the whole gradient so its global L2 norm is at most threshold."""
    sq = 0.0
    for t in tensors:
        g = grads.get(t)
        if g is not None:
            sq += g.squared_norm() if isinstance(g, FactoredGrad) else float(np.vdot(g, g))
    norm = float(np.sqrt(sq))
    if norm > threshold:
        factor = threshold / norm
        for t in tensors:
            if t in grads:
                grads[t] = grads[t] * factor
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
    params.check_shapes()
    tensors = params.all_tensors()
    order_gen = np.random.default_rng(config.seed)

    trace = []
    for epoch in range(config.epochs):
        epoch_total = 0.0
        for idx in order_gen.permutation(len(sentences)):
            try:
                # the first overflow or invalid operation of the step raises
                with np.errstate(over="raise", invalid="raise"):
                    value = sentence_loss(sentences[idx], table, params)
                    if not np.isfinite(value.data):
                        raise FloatingPointError("non-finite loss")
                    grads = backward(value)
                    clip_gradients(grads, tensors, config.clip)
                    for t in tensors:
                        g = grads.get(t)
                        if isinstance(g, FactoredGrad):
                            g.subtract_from(t.data, config.lr)
                        elif g is not None:
                            t.data -= config.lr * g
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


@dataclass
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
    """Label one tokenized sentence; OOV words go through the table policy."""
    fwd = forward(embed_sentence(sentence, table), params)
    seqs = {}
    confidences = {}
    for head, out in ((ASPECT, fwd.aspect), (OPINION, fwd.opinion)):
        logits = out.logits.data
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        picks = probs.argmax(axis=1)
        seqs[head] = LabelSeq([CLASS_ORDER[i] for i in picks], head)
        confidences[head] = probs[np.arange(len(picks)), picks].tolist()

    return Prediction(
        aspect_spans=labels_to_spans(seqs[ASPECT]),
        opinion_spans=labels_to_spans(seqs[OPINION]),
        merged=merge_heads(seqs[ASPECT], seqs[OPINION], confidences[ASPECT], confidences[OPINION]),
        aspect_logits=fwd.aspect.logits.data,
        opinion_logits=fwd.opinion.logits.data,
        aspect_attention=fwd.aspect.norm_scores.data,
        opinion_attention=fwd.opinion.norm_scores.data,
    )


# ---------------------------------------------------------------------------
# checkpoints


CHECKPOINT_FORMAT = "cmla-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: CmlaParams):
    """Write parameters as sorted JSON.

    Floats are serialized with repr, which round-trips every finite
    float64 bit for bit, and JSON carries no timestamps, so identical
    parameters always produce identical bytes (unlike zip containers).
    The bytes are json.dumps(payload, sort_keys=True) of the whole
    payload, encoded one tensor at a time so that neither the float lists
    nor the text of all tensors are held in memory at once.
    """
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dim": params.dim,
        "channels": params.channels,
        "layers": params.layers,
        "tensors": {},
    }
    head, tail = json.dumps(header, sort_keys=True).split('"tensors": {}')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '"tensors": {')
        for i, (name, t) in enumerate(sorted(params.named_tensors().items())):
            entry = {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
            fh.write((", " if i else "") + json.dumps({name: entry}, sort_keys=True)[1:-1])
        fh.write("}" + tail + "\n")


def load_checkpoint(path) -> CmlaParams:
    """Read a checkpoint back; every stored tensor is checked against the
    shape its header implies before the parameters are built from them."""
    try:
        with open_text(path) as fh:
            payload = json.load(fh)
    except DataFormatError:
        raise
    except (ValueError, RecursionError) as exc:   # ValueError: also a too-long integer
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    # JSON integers only: true, 2.0 or "2" are not silently converted
    version = payload.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version!r}")
    header = [payload.get(key) for key in ("dim", "channels", "layers")]
    if not all(type(v) is int and v >= 1 for v in header):
        raise DataFormatError(f"{path}: malformed checkpoint: dim, channels and layers "
                              f"must be positive integers, got {header}")
    dim, channels, layers = header
    stored = payload.get("tensors")
    if not isinstance(stored, dict):
        raise DataFormatError(f"{path}: malformed checkpoint: tensors is not an object")
    shapes = CmlaParams.shapes(dim, channels)
    missing = sorted(set(shapes) - set(stored))
    extra = sorted(set(stored) - set(shapes))
    if missing or extra:
        raise DataFormatError(f"{path}: tensor names mismatch (missing {missing}, extra {extra})")
    tensors = {}
    for name, shape in shapes.items():
        entry = stored[name]
        if not isinstance(entry, dict) or "shape" not in entry or "values" not in entry:
            raise DataFormatError(f"{path}: tensor {name} is not an object with shape and values")
        # JSON integers and numbers only, as in the header: [true] == [1] and
        # numpy reads [true, 0.5] as [1.0, 0.5]
        dims, raw = entry["shape"], entry["values"]
        if not isinstance(dims, list) or any(type(d) is not int for d in dims) or dims != list(shape):
            raise DataFormatError(f"{path}: tensor {name} has shape {dims!r}, expected {list(shape)}")
        values = np.array(raw) if isinstance(raw, list) and set(map(type, raw)) <= {int, float} else None
        if values is None or values.dtype.kind not in "if" or not np.isfinite(values).all():
            raise DataFormatError(f"{path}: tensor {name} values are not a list of finite numbers")
        if values.size != np.prod(shape):
            raise DataFormatError(f"{path}: tensor {name} has {values.size} values")
        tensors[name] = Tensor(values.reshape(shape), requires_grad=True)
    return CmlaParams.from_named(tensors, layers)
