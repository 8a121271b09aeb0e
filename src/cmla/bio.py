"""Span <-> BIO label conversion plus the merged five-tag view.

Two independent heads each tag tokens with B/I/O: a head's labels are a
string over "BIO", one letter per token, and the head's name travels as an
argument wherever a Span needs it. Presentation merges the heads into
{B-ASP, I-ASP, B-OP, I-OP, O}. One pattern, `_CHUNK`, finds a head's
chunks, when decoding and in the merged view: a B or an orphan I (sequence
start or right after O or, in the merged view, the other head's token),
then every I after it. Decoding is thus total, the orphan I repaired to B
(the conlleval convention, which maximizes chunk recall).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

ASPECT = "aspect"
OPINION = "opinion"
HEADS = (ASPECT, OPINION)

B, I, O = "B", "I", "O"

# merged five-category tags; the opinion head's letters are in lower case
_MERGED = {O: O, B: "B-ASP", I: "I-ASP", "b": "B-OP", "i": "I-OP"}
_CHUNK = re.compile("[BI]I*")


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """Token-indexed chunk [start, end) of one kind."""

    start: int
    end: int
    kind: str

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span bounds [{self.start}, {self.end})")
        if self.kind not in HEADS:
            raise ValueError(f"unknown span kind {self.kind!r}")


def spans_to_labels(n_tokens: int, spans, head: str) -> str:
    """Encode disjoint spans of kind `head` as a string of n_tokens B/I/O
    letters; rejects overlap, out-of-range spans and other kinds."""
    ordered = sorted(spans)
    labels = [O] * n_tokens
    prev_end = 0
    for span in ordered:
        if span.kind != head:
            raise ValueError(f"span kind {span.kind!r} does not match head {head!r}")
        if span.end > n_tokens:
            raise ValueError(f"span [{span.start}, {span.end}) exceeds {n_tokens} tokens")
        if span.start < prev_end:
            raise ValueError(f"overlapping span at token {span.start}")
        labels[span.start] = B
        for i in range(span.start + 1, span.end):
            labels[i] = I
        prev_end = span.end
    return "".join(labels)


def labels_to_spans(labels: str, head: str) -> list:
    """Decode a B/I/O string's maximal B(I)* runs as spans of kind `head`;
    total on malformed input (orphan I -> B)."""
    return [Span(m.start(), m.end(), head) for m in _CHUNK.finditer(labels)]


def merge_heads(la: str, lp: str, conf_a, conf_p) -> list:
    """Merge the aspect head's and the opinion head's B/I/O strings, in
    that order, into the five-category view.

    Tokens claimed by both heads go to the head whose argmax class is more
    confident (ties favor the aspect head). `_CHUNK` then finds each head's
    chunks among the tokens it kept, each tagged B-x, then I-x.
    """
    if not len(la) == len(lp) == len(conf_a) == len(conf_p):
        raise ValueError("merge_heads arguments must have equal length")

    # each token's kept letter, the opinion head's in lower case: _CHUNK
    # finds the aspect chunks in `kept` and the opinion ones in its swapcase
    kept = "".join([a if p == O or (a != O and ca >= cp) else p.lower()
                    for a, p, ca, cp in zip(la, lp, conf_a, conf_p)])
    merged = [_MERGED[c] for c in kept]
    for letters, begin in ((kept, _MERGED[B]), (kept.swapcase(), _MERGED["b"])):
        for chunk in _CHUNK.finditer(letters):
            merged[chunk.start()] = begin
    return merged
