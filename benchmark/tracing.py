"""Spans around the calls into each layer, for the benchmark's traced run.

The tracer wraps module-level names that the program looks up at call
time (see HOOKS) and records one span per call: name, parent, start, end,
the autodiff nodes created inside it and, for operation spans opened by
the benchmark itself, the tokens and sentences processed. Spans stay in
memory and are written out when the run ends. Nothing in the program is
edited; a hook whose target no longer exists is reported as missing.

Node counts are differences of the public `Tensor.node_id`, read by
creating a probe tensor at each span boundary; the probes themselves are
subtracted, so counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from time import perf_counter

from cmla.autodiff import Tensor

# (module[:class], attribute, span name); gru_run is split into context and
# attention calls by its params object
HOOKS = (
    ("cmla.model", "gru_run", "gru"),
    ("cmla.model", "compose", "model.compose"),
    ("cmla.model", "attention_layer", "model.attention_layer"),
    ("cmla.model", "update_prototype", "model.update_prototype"),
    ("cmla.model", "loss", "model.loss"),
    ("cmla.model", "backward", "autodiff.backward"),
    ("cmla.model", "clip_gradients", "model.clip_gradients"),
    ("cmla.model", "labels_to_spans", "bio.labels_to_spans"),
    ("cmla.model", "merge_heads", "bio.merge_heads"),
    ("cmla.bio", "spans_to_labels", "bio.spans_to_labels"),
    ("cmla.data:EmbeddingTable", "lookup", "data.lookup"),
)

# operation spans the benchmark opens around its own calls
TRAIN_OP, PREDICT_OP = "model.train", "model.predict"

# metric -> span names whose self time it sums, per token of the operations
# those spans ran under
PER_TOKEN_US = {
    "autodiff.backward_us_per_tok": ("autodiff.backward",),
    "gru.ctx_us_per_tok": ("gru.ctx",),
    "gru.att_us_per_tok": ("gru.att",),
    "model.compose_us_per_tok": ("model.compose",),
    "model.classify_us_per_tok": ("model.attention_layer",),
    "model.update_prototype_us_per_tok": ("model.update_prototype",),
    "model.loss_us_per_tok": ("model.loss",),
    "model.clip_us_per_tok": ("model.clip_gradients",),
    "model.train_self_us_per_tok": (TRAIN_OP,),
    "model.predict_self_us_per_tok": (PREDICT_OP,),
    "data.lookup_us_per_tok": ("data.lookup",),
}
PER_SENTENCE_US = {
    "bio.encode_us_per_sentence": ("bio.spans_to_labels",),
    "bio.decode_us_per_sentence": ("bio.labels_to_spans", "bio.merge_heads"),
}
# metric -> span name whose nodes (children included) are counted per token;
# None counts whole operations
NODES_PER_TOKEN = {
    "autodiff.nodes_per_tok": None,
    "gru.ctx_nodes_per_tok": "gru.ctx",
    "gru.att_nodes_per_tok": "gru.att",
    "model.compose_nodes_per_tok": "model.compose",
}
# metric -> span name whose mean duration per call is reported, and scale
PER_CALL = {
    "model.save_checkpoint_s": ("model.save_checkpoint", 1.0),
    "model.load_checkpoint_s": ("model.load_checkpoint", 1.0),
    "data.load_embeddings_s": ("data.load_embeddings", 1.0),
    "data.parse_xml_s": ("data.parse_xml", 1.0),
    "data.annotate_opinions_s": ("data.annotate_opinions", 1.0),
    "evaluation.score_chunks_ms": ("evaluation.score_chunks", 1e3),
}

NO_SPAN = contextlib.nullcontext()

# span record fields
NAME, PARENT, START, END, NODES, TOKENS, SENTENCES = range(7)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, parent index, start, end, nodes, tokens, sentences]
        self.missing = []     # hook targets that no longer exist
        self._stack = []
        self._probes = 0
        self._ctx_grus = []
        self._att_grus = []
        self._saved = []

    def register(self, params):
        """Make the GRUs of `params` known, so gru_run spans get their layer."""
        self._ctx_grus.append(params.ctx_gru)
        self._att_grus.extend((params.aspect.att_gru, params.opinion.att_gru))

    def _gru_name(self, args):
        p = args[1]
        if any(p is g for g in self._ctx_grus):
            return "gru.ctx"
        if any(p is g for g in self._att_grus):
            return "gru.att"
        return "gru.unregistered"

    def begin(self, name, tokens=0, sentences=0):
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0, tokens, sentences]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._probes += 1
        rec[NODES] = Tensor(0.0).node_id - self._probes
        rec[START] = perf_counter()

    def end(self):
        t = perf_counter()
        self._probes += 1
        rec = self.spans[self._stack.pop()]
        rec[END] = t
        rec[NODES] = Tensor(0.0).node_id - self._probes - rec[NODES]

    @contextlib.contextmanager
    def span(self, name, tokens=0, sentences=0):
        self.begin(name, tokens, sentences)
        try:
            yield
        finally:
            self.end()

    def _wrap(self, fn, name):
        begin, end = self.begin, self.end
        name_of = self._gru_name if name == "gru" else None

        def wrapper(*args, **kwargs):
            begin(name_of(args) if name_of else name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return wrapper

    def install(self):
        for target, attr, name in HOOKS:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                if f"{target}.{attr}" not in self.missing:
                    self.missing.append(f"{target}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)

    def merge(self, path):
        """Append the spans another process dumped (as separate roots)."""
        with open(path, encoding="utf-8") as fh:
            other = json.load(fh)
        base = len(self.spans)
        for rec in other["spans"]:
            if rec[PARENT] >= 0:
                rec[PARENT] += base
            self.spans.append(rec)
        self.missing.extend(m for m in other["missing"] if m not in self.missing)


def self_times(spans):
    """Duration minus the time direct children cover (children never overlap:
    one thread, strictly nested calls)."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def accounting(spans, windows):
    """Problems with the spans of each traced window (lo, hi, wall seconds):
    spans that do not nest, or self times plus the untraced remainder that
    do not add up to the window's wall time."""
    problems = []
    own = self_times(spans)
    for lo, hi, wall in windows:
        roots = 0.0
        for i in range(lo, hi):
            rec = spans[i]
            if rec[PARENT] < 0:
                roots += rec[END] - rec[START]
            elif not spans[rec[PARENT]][START] <= rec[START] <= rec[END] <= spans[rec[PARENT]][END]:
                problems.append(f"span {i} ({rec[NAME]}) is not inside its parent")
            if rec[NAME] == "gru.unregistered":
                problems.append(f"span {i}: gru_run called with unregistered params")
        total_self = sum(own[lo:hi])
        remainder = wall - roots
        if remainder < 0:
            problems.append(f"operation spans cover {roots:.6f}s of a {wall:.6f}s window")
        if abs(total_self + remainder - wall) > 1e-6 * max(1.0, wall):
            problems.append(f"self {total_self:.6f}s + remainder {remainder:.6f}s != wall {wall:.6f}s")
    return problems


def layer_metrics(spans, main_op):
    """Per-layer figures from all spans.

    Per-token and per-sentence figures are taken over the operations of
    kind `main_op` (SGD steps or predictions) when the layer ran in them,
    otherwise over the run's other operations; `basis` says which.
    """
    own = self_times(spans)
    root = [0] * len(spans)
    for i, rec in enumerate(spans):
        root[i] = i if rec[PARENT] < 0 else root[rec[PARENT]]
    op_kinds = (main_op, PREDICT_OP if main_op == TRAIN_OP else TRAIN_OP)
    work = {k: [0, 0] for k in op_kinds}          # kind -> [tokens, sentences]
    for rec in spans:
        if rec[PARENT] < 0 and rec[NAME] in work:
            work[rec[NAME]][0] += rec[TOKENS]
            work[rec[NAME]][1] += rec[SENTENCES]
    by_kind = {k: {} for k in op_kinds}            # kind -> name -> [self, nodes]
    calls = {}                                     # name -> [total duration, count]
    for i, rec in enumerate(spans):
        kind = spans[root[i]][NAME]
        if kind in by_kind:
            acc = by_kind[kind].setdefault(rec[NAME], [0.0, 0])
            acc[0] += own[i]
            acc[1] += rec[NODES]
        acc = calls.setdefault(rec[NAME], [0.0, 0])
        acc[0] += rec[END] - rec[START]
        acc[1] += 1

    metrics, basis = {}, {}

    def over_ops(metric, names, field, per):
        for kind in op_kinds:
            hits = [by_kind[kind][n][field] for n in names if n in by_kind[kind]]
            if hits and work[kind][per]:
                basis[metric] = kind
                return sum(hits) / work[kind][per]
        basis[metric] = None
        return 0.0

    for metric, names in PER_TOKEN_US.items():
        metrics[metric] = 1e6 * over_ops(metric, names, 0, 0)
    for metric, names in PER_SENTENCE_US.items():
        metrics[metric] = 1e6 * over_ops(metric, names, 0, 1)
    for metric, name in NODES_PER_TOKEN.items():
        metrics[metric] = over_ops(metric, (name or main_op,), 1, 0)
    for metric, (name, scale) in PER_CALL.items():
        total, count = calls.get(name, (0.0, 0))
        basis[metric] = name if count else None
        metrics[metric] = scale * total / count if count else 0.0
    return metrics, basis
