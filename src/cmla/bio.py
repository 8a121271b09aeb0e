"""Span <-> BIO label conversion plus the merged five-tag view.

Two independent heads each tag tokens with B/I/O: a head's labels are a
string over "BIO", one letter per token, and the head's name travels as an
argument wherever a Span needs it. Presentation merges the heads into
{B-ASP, I-ASP, B-OP, I-OP, O}. One pattern, `_CHUNK`, finds a head's
chunks: a B or an orphan I (sequence start or right after O), then every I
after it. Decoding is thus total, the orphan I repaired to B (the
conlleval convention, which maximizes chunk recall).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

ASPECT = "aspect"
OPINION = "opinion"
HEADS = (ASPECT, OPINION)

B, I, O = "B", "I", "O"

# merged five-category tags, per head
_MERGED = {ASPECT: {B: "B-ASP", I: "I-ASP"}, OPINION: {B: "B-OP", I: "I-OP"}}
# the begin tag of each merged inside tag
_BEGIN_OF = {tags[I]: tags[B] for tags in _MERGED.values()}
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
    confident (ties favor the aspect head). A repair pass then turns any
    inside tag with no matching chunk open into a begin tag.
    """
    n = len(la)
    if len(lp) != n or len(conf_a) != n or len(conf_p) != n:
        raise ValueError("merge_heads arguments must have equal length")

    merged = []
    for i, (a, p) in enumerate(zip(la, lp)):
        if a != O and p != O:
            pick = (ASPECT, a) if conf_a[i] >= conf_p[i] else (OPINION, p)
        elif a != O:
            pick = (ASPECT, a)
        elif p != O:
            pick = (OPINION, p)
        else:
            merged.append(O)
            continue
        merged.append(_MERGED[pick[0]][pick[1]])

    prev = O
    for i, tag in enumerate(merged):
        begin = _BEGIN_OF.get(tag)
        if begin and prev != tag and prev != begin:
            merged[i] = begin
        prev = merged[i]
    return merged
