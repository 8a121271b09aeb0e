"""Span <-> BIO label conversion plus the merged five-tag view.

Two independent heads each tag tokens with B/I/O; presentation merges
them into {B-ASP, I-ASP, B-OP, I-OP, O}. One pattern, `_CHUNK`, finds a
head's chunks: a B or an orphan I (sequence start or right after O), then
every I after it. Decoding is thus total, the orphan I repaired to B (the
conlleval convention, which maximizes chunk recall).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

ASPECT = "aspect"
OPINION = "opinion"
HEADS = (ASPECT, OPINION)

B, I, O = "B", "I", "O"
LABELS = (B, I, O)

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


@dataclass
class LabelSeq:
    labels: list
    head: str

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        bad = [l for l in self.labels if l not in LABELS]
        if bad:
            raise ValueError(f"unknown labels {bad}")

    def __len__(self):
        return len(self.labels)

    def is_well_formed(self) -> bool:
        return all(m[0].startswith(B) for m in _CHUNK.finditer("".join(self.labels)))


def spans_to_labels(n_tokens: int, spans, head: str) -> LabelSeq:
    """Encode disjoint spans as B/I/O; rejects overlap and out-of-range."""
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
    return LabelSeq(labels, head)


def labels_to_spans(seq: LabelSeq) -> list:
    """Decode maximal B(I)* runs; total on malformed input (orphan I -> B)."""
    return [Span(m.start(), m.end(), seq.head) for m in _CHUNK.finditer("".join(seq.labels))]


def merge_heads(la: LabelSeq, lp: LabelSeq, conf_a, conf_p) -> list:
    """Merge two head taggings into the five-category view.

    Tokens claimed by both heads go to the head whose argmax class is more
    confident (ties favor the aspect head). A repair pass then turns any
    inside tag with no matching chunk open into a begin tag.
    """
    if la.head != ASPECT or lp.head != OPINION:
        raise ValueError("merge_heads expects (aspect seq, opinion seq)")
    n = len(la.labels)
    if len(lp.labels) != n or len(conf_a) != n or len(conf_p) != n:
        raise ValueError("merge_heads arguments must have equal length")

    merged = []
    for i in range(n):
        a, p = la.labels[i], lp.labels[i]
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
