"""Reference implementation of the tagger's equations in plain numpy.

The benchmark checks the program's outputs against this module, so it
shares no code with the model: it reads parameters as a dict of arrays
keyed by checkpoint tensor names and recomputes everything from the
equations, sentence-at-a-time and without a graph.

    GRU:        z = s(W_z x + U_z h + b_z), r = s(W_r x + U_r h + b_r)
                c = tanh(W_h x + U_h (r * h) + b_h), h' = (1 - z) h + z c
    compose:    beta_i = [tanh(h_i M_k u_self) ; tanh(h_i C_k u_other)]_k
    classify:   logits_i = classifier @ GRU_att(beta)_i,  raw_i = max(B, I)
    attention:  w = softmax(raw) over the sentence
    prototype:  u' = u + proto_map @ sum_i w_i h_i   (between layers)
    loss:       mean token cross-entropy per head, summed over the heads
"""

from __future__ import annotations

import numpy as np

HEADS = ("aspect", "opinion")
B, I, O = 0, 1, 2   # logit columns


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def gru(xs, p, prefix):
    """Run one cell from a zero state; returns the (n, hidden) state sequence."""
    W = {g: p[f"{prefix}.W_{g}"] for g in "zrh"}
    U = {g: p[f"{prefix}.U_{g}"] for g in "zrh"}
    b = {g: p[f"{prefix}.b_{g}"] for g in "zrh"}
    h = np.zeros(U["z"].shape[0])
    out = []
    for x in xs:
        z = _sigmoid(W["z"] @ x + U["z"] @ h + b["z"])
        r = _sigmoid(W["r"] @ x + U["r"] @ h + b["r"])
        c = np.tanh(W["h"] @ x + U["h"] @ (r * h) + b["h"])
        h = (1.0 - z) * h + z * c
        out.append(h)
    return np.array(out)


def forward(xs, p, layers, gaps=None):
    """Final-layer logits (n, 3) and attention weights (n,) per head.

    With a `gaps` list, appends every layer's B - I logit differences: the
    loss has a kink wherever one is 0, since the raw score is max(B, I)."""
    hs = gru(xs, p, "ctx_gru")
    u = {head: p[f"{head}.prototype"] for head in HEADS}
    out = {}
    for layer in range(layers):
        for head, other in (HEADS, HEADS[::-1]):
            own = np.tanh(hs @ (p[f"{head}.comp"] @ u[head]).T)
            coupled = np.tanh(hs @ (p[f"{head}.cross"] @ u[other]).T)
            feats = gru(np.concatenate([own, coupled], axis=1), p, f"{head}.att_gru")
            logits = feats @ p[f"{head}.classifier"].T
            raw = np.maximum(logits[:, B], logits[:, I])
            if gaps is not None:
                gaps.append(logits[:, B] - logits[:, I])
            e = np.exp(raw - raw.max())
            out[head] = (logits, e / e.sum())
        if layer + 1 < layers:
            u = {head: u[head] + p[f"{head}.proto_map"] @ (out[head][1] @ hs) for head in HEADS}
    return out


def encode(n, spans):
    """BIO class indices for disjoint (start, end) spans."""
    labels = np.full(n, O)
    for start, end in spans:
        labels[start] = B
        labels[start + 1:end] = I
    return labels


def loss(out, gold):
    """gold: head -> class indices. Sum over heads of the mean token NLL."""
    total = 0.0
    for head in HEADS:
        logits = out[head][0]
        m = logits.max(axis=1)
        lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
        total += float(np.mean(lse - logits[np.arange(len(logits)), gold[head]]))
    return total


def decode(logits):
    """Argmax labels to (start, end) spans; an orphan I opens a chunk."""
    spans, start = [], None
    for i, label in enumerate(np.argmax(logits, axis=1)):
        if label == B or (label == I and start is None):
            if start is not None:
                spans.append((start, i))
            start = i
        elif label == O and start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(logits)))
    return spans


def min_lead(logits):
    """Smallest gap between the winning and the runner-up logit of any token."""
    top2 = np.sort(logits, axis=1)[:, -2:]
    return float((top2[:, 1] - top2[:, 0]).min())


def chunk_counts(gold, pred):
    """Exact-match (tp, fp, fn) over parallel per-sentence span lists."""
    tp = fp = fn = 0
    for g, q in zip(gold, pred):
        remaining = sorted(set(g))
        for span in sorted(set(q)):
            if span in remaining:
                remaining.remove(span)
                tp += 1
            else:
                fp += 1
        fn += len(remaining)
    return tp, fp, fn


def f1(tp, fp, fn):
    return 200.0 * tp / (2 * tp + fp + fn) if tp else 0.0
