"""Coupled two-head attention tagger for aspect and opinion extraction.

One context GRU encodes the sentence. Each head (aspect, opinion) owns a
prototype vector and composes every hidden state against both its own
prototype and the other head's, through stacks of bilinear maps. The
composition vectors run through a small per-head GRU, a linear classifier
gives B/I/O logits per token, and the max of the B/I logits doubles as a
raw attention score. Between layers each prototype absorbs an
attention-weighted summary of the sentence, so the second pass attends
with sharper templates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bio
from .autodiff import (
    Tensor,
    add,
    backward,
    bilinear,
    concat,
    constant,
    init_uniform,
    log_softmax,
    matmul,
    mul,
    reduce_max,
    scale,
    slice_last,
    softmax,
    tanh,
    tensor_sum,
    transpose,
)
from .bio import ASPECT, OPINION, LabelSeq, labels_to_spans, merge_heads
from .data import DataFormatError
from .gru import GruParams, gru_run

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

        def head():
            return HeadParams(
                prototype=init_uniform((dim,), -PROTOTYPE_INIT, PROTOTYPE_INIT, gen),
                comp=init_uniform((channels, dim, dim), -init_scale, init_scale, gen),
                cross=init_uniform((channels, dim, dim), -init_scale, init_scale, gen),
                att_gru=GruParams.init(2 * channels, channels, gen, scale=init_scale),
                classifier=init_uniform((3, channels), -init_scale, init_scale, gen),
                proto_map=init_uniform((dim, dim), -init_scale, init_scale, gen),
            )

        return cls(
            ctx_gru=GruParams.init(dim, dim, gen, scale=init_scale),
            aspect=head(),
            opinion=head(),
            layers=layers,
        )

    def named_tensors(self) -> dict:
        out = {f"ctx_gru.{k}": v for k, v in self.ctx_gru.tensors().items()}
        out.update({f"aspect.{k}": v for k, v in self.aspect.tensors().items()})
        out.update({f"opinion.{k}": v for k, v in self.opinion.tensors().items()})
        return out

    def all_tensors(self) -> list:
        return list(self.named_tensors().values())

    def check_shapes(self):
        d, k = self.dim, self.channels
        self.ctx_gru.check_shapes()
        if self.ctx_gru.input_dim != d:
            raise ValueError("context GRU must map embeddings to the same dimension")
        for name, head in ((ASPECT, self.aspect), (OPINION, self.opinion)):
            head.att_gru.check_shapes()
            expected = {
                "prototype": (d,),
                "comp": (k, d, d),
                "cross": (k, d, d),
                "classifier": (3, k),
                "proto_map": (d, d),
            }
            for field_name, shape in expected.items():
                got = getattr(head, field_name).data.shape
                if got != shape:
                    raise ValueError(f"{name}.{field_name} has shape {got}, expected {shape}")
            if head.att_gru.input_dim != 2 * k or head.att_gru.hidden_dim != k:
                raise ValueError(f"{name} attention GRU must map 2*{k} -> {k}")


def compose(h_seq: Tensor, u_self: Tensor, u_other: Tensor, comp: Tensor, cross: Tensor) -> Tensor:
    """Composition vectors of a sentence, (n, 2*channels) in (-1, 1).

    First half of each row: tanh of the bilinear form of the hidden state
    against this head's own prototype, one entry per channel. Second half:
    the same against the other head's prototype, which is what couples the
    heads.
    """
    own = tanh(bilinear(h_seq, comp, u_self))
    coupled = tanh(bilinear(h_seq, cross, u_other))
    return concat(own, coupled)


@dataclass
class HeadOutput:
    features: Tensor    # (n, channels) attention features
    logits: Tensor      # (n, 3) class scores in CLASS_ORDER
    raw_scores: Tensor  # (n,) max of the B/I logits per token
    norm_scores: Tensor # (n,) softmax of raw_scores across the sentence


def attention_layer(h_seq: Tensor, head: HeadParams, u_self: Tensor, u_other: Tensor) -> HeadOutput:
    features = gru_run(compose(h_seq, u_self, u_other, head.comp, head.cross), head.att_gru)
    logits = matmul(features, transpose(head.classifier))
    raw = reduce_max(slice_last(logits, 0, 2))
    return HeadOutput(features, logits, raw, softmax(raw, axis=0))


def update_prototype(u: Tensor, norm_scores: Tensor, h_seq: Tensor, proto_map: Tensor) -> Tensor:
    """Attention-weighted feedback: u' = u + proto_map (w^T H)."""
    n = h_seq.data.shape[0]
    if norm_scores.data.shape != (n,):
        raise ValueError(f"{n} hidden states but scores of shape {norm_scores.data.shape}")
    total = float(norm_scores.data.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weight-sum violation beyond 1e-9: weights sum to {total!r}")
    return add(u, matmul(proto_map, matmul(norm_scores, h_seq)))


@dataclass
class ForwardResult:
    aspect: HeadOutput
    opinion: HeadOutput
    hidden: Tensor      # (n, dim) context GRU states


def forward(embeddings, params: CmlaParams) -> ForwardResult:
    """Run the full stack over one sentence of embedding vectors.

    The vectors (arrays or Tensors) enter as one constant (n, dim) block,
    so no gradient flows back into them. Prototypes are refreshed between
    layers only; the final layer's attention output is the model's answer,
    so a trailing update would be unobservable.
    """
    xs = constant(np.array([x.data if isinstance(x, Tensor) else x for x in embeddings]))
    h_seq = gru_run(xs, params.ctx_gru)
    u_a, u_p = params.aspect.prototype, params.opinion.prototype
    out_a = out_p = None
    for layer in range(params.layers):
        out_a = attention_layer(h_seq, params.aspect, u_a, u_p)
        out_p = attention_layer(h_seq, params.opinion, u_p, u_a)
        if layer + 1 < params.layers:
            u_a = update_prototype(u_a, out_a.norm_scores, h_seq, params.aspect.proto_map)
            u_p = update_prototype(u_p, out_p.norm_scores, h_seq, params.opinion.proto_map)
    return ForwardResult(aspect=out_a, opinion=out_p, hidden=h_seq)


def loss(logits_a: Tensor, logits_p: Tensor, gold_a: LabelSeq, gold_p: LabelSeq) -> Tensor:
    """Mean per-token cross-entropy of each head, summed over the heads."""
    terms = []
    for logits, gold in ((logits_a, gold_a), (logits_p, gold_p)):
        n = len(gold)
        if logits.data.shape != (n, len(CLASS_ORDER)):
            raise ValueError(f"logits of shape {logits.data.shape} for {n} gold labels")
        gold_mask = np.zeros((n, len(CLASS_ORDER)))
        gold_mask[np.arange(n), [CLASS_INDEX[label] for label in gold.labels]] = 1.0
        picked = tensor_sum(mul(constant(gold_mask), log_softmax(logits, axis=1)))
        terms.append(scale(picked, -1.0 / n))
    return add(terms[0], terms[1])


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
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.clip <= 0:
            raise ValueError(f"clip threshold must be positive, got {self.clip}")


def clip_gradients(grads: dict, tensors, threshold: float) -> float:
    """Scale the whole gradient so its global L2 norm is at most threshold."""
    sq = 0.0
    for t in tensors:
        g = grads.get(t)
        if g is not None:
            sq += float((np.asarray(g) ** 2).sum())
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
    epoch. Any non-finite loss aborts immediately.
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
            value = sentence_loss(sentences[idx], table, params)
            if not np.isfinite(value.data):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, sentence index {int(idx)}"
                )
            epoch_total += value.item()
            grads = backward(value)
            clip_gradients(grads, tensors, config.clip)
            for t in tensors:
                g = grads.get(t)
                if g is not None:
                    t.data -= config.lr * np.asarray(g)
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
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {payload.get('version')!r}")
    try:
        params = CmlaParams.init(
            dim=int(payload["dim"]),
            channels=int(payload["channels"]),
            rng=0,
            layers=int(payload["layers"]),
        )
        stored = payload["tensors"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint: {exc}") from None

    if not isinstance(stored, dict):
        raise DataFormatError(f"{path}: malformed checkpoint: tensors is not an object")
    expected = params.named_tensors()
    missing = sorted(set(expected) - set(stored))
    extra = sorted(set(stored) - set(expected))
    if missing or extra:
        raise DataFormatError(f"{path}: tensor names mismatch (missing {missing}, extra {extra})")
    for name, t in expected.items():
        entry = stored[name]
        if not isinstance(entry, dict) or "shape" not in entry or "values" not in entry:
            raise DataFormatError(f"{path}: tensor {name} is not an object with shape and values")
        if entry["shape"] != list(t.data.shape):
            raise DataFormatError(
                f"{path}: tensor {name} has shape {entry['shape']}, expected {list(t.data.shape)}"
            )
        try:
            values = np.array(entry["values"])
            numeric = values.ndim == 1 and values.dtype.kind in "if" and np.isfinite(values).all()
        except ValueError:   # ragged nesting
            numeric = False
        if not numeric:
            raise DataFormatError(f"{path}: tensor {name} values are not a list of finite numbers")
        if values.size != t.data.size:
            raise DataFormatError(f"{path}: tensor {name} has {values.size} values")
        t.data = values.astype(np.float64, copy=False).reshape(t.data.shape)
    params.check_shapes()
    return params
