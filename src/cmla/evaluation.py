"""Chunk-level scoring and attention reports.

Scoring is exact-match over (start, end, kind) token spans, the usual
chunking convention: no partial credit, precision/recall as percentages,
zero-denominator cases defined as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bio import ASPECT, B, I, OPINION
from .model import CLASS_ORDER, predict


@dataclass(frozen=True)
class ChunkMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "ChunkMetrics":
        precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
        recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1)

    def merged(self, other: "ChunkMetrics") -> "ChunkMetrics":
        return ChunkMetrics.from_counts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn
        )


def score_chunks(gold, pred) -> ChunkMetrics:
    """Exact-match counts over parallel per-sentence span lists."""
    gold, pred = list(gold), list(pred)
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    tp = fp = fn = 0
    for g_spans, p_spans in zip(gold, pred):
        g, p = set(g_spans), set(p_spans)
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    return ChunkMetrics.from_counts(tp, fp, fn)


@dataclass
class CorpusReport:
    aspect: ChunkMetrics
    opinion: ChunkMetrics
    n_sentences: int

    @property
    def combined(self) -> ChunkMetrics:
        return self.aspect.merged(self.opinion)


def score_corpus(params, table, sentences) -> CorpusReport:
    """Predict every sentence and score each head against its gold spans."""
    sentences = list(sentences)
    preds = [predict(s, table, params) for s in sentences]
    return CorpusReport(
        aspect=score_chunks(
            [s.aspect_spans for s in sentences], [p.aspect_spans for p in preds]
        ),
        opinion=score_chunks(
            [s.opinion_spans for s in sentences], [p.opinion_spans for p in preds]
        ),
        n_sentences=len(sentences),
    )


_METRIC_COLUMNS = ("head", "tp", "fp", "fn", "precision", "recall", "f1")


def _metric_rows(report: CorpusReport):
    for head, m in ((ASPECT, report.aspect), (OPINION, report.opinion), ("combined", report.combined)):
        yield (head, str(m.tp), str(m.fp), str(m.fn),
               f"{m.precision:.2f}", f"{m.recall:.2f}", f"{m.f1:.2f}")


def metrics_tsv(report: CorpusReport) -> str:
    lines = ["\t".join(_METRIC_COLUMNS)]
    lines.extend("\t".join(row) for row in _metric_rows(report))
    return "\n".join(lines) + "\n"


def metrics_table(report: CorpusReport) -> str:
    rows = [_METRIC_COLUMNS, *_metric_rows(report)]
    widths = [max(len(r[c]) for r in rows) for c in range(len(_METRIC_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    lines.append(f"sentences: {report.n_sentences}")
    return "\n".join(lines) + "\n"


@dataclass
class AttentionRow:
    index: int
    token: str
    aspect_score: float
    opinion_score: float
    gold_aspect: bool
    gold_opinion: bool
    pred_aspect: bool
    pred_opinion: bool


def attention_report(sentence, token_scores) -> list:
    """One row per token with normalized scores and gold/pred chunk flags.

    Rejects score columns that do not sum to 1 within 1e-9; predictions
    are read off the stored logits by argmax.
    """
    token_scores = list(token_scores)
    if len(token_scores) != len(sentence.tokens):
        raise ValueError(
            f"{len(token_scores)} score rows for {len(sentence.tokens)} tokens"
        )
    for name in ("aspect_attention", "opinion_attention"):
        total = sum(getattr(ts, name) for ts in token_scores)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"{name} column sums to {total!r}, not normalized")

    gold_a = {i for s in sentence.aspect_spans for i in range(s.start, s.end)}
    gold_p = {i for s in sentence.opinion_spans for i in range(s.start, s.end)}
    rows = []
    for i, (tok, ts) in enumerate(zip(sentence.tokens, token_scores)):
        in_a = CLASS_ORDER[int(np.argmax(ts.aspect_logits))] in (B, I)
        in_p = CLASS_ORDER[int(np.argmax(ts.opinion_logits))] in (B, I)
        rows.append(
            AttentionRow(
                index=i,
                token=tok.surface,
                aspect_score=ts.aspect_attention,
                opinion_score=ts.opinion_attention,
                gold_aspect=i in gold_a,
                gold_opinion=i in gold_p,
                pred_aspect=in_a,
                pred_opinion=in_p,
            )
        )
    return rows


def attention_tsv(rows) -> str:
    """Stable delimiter-separated rendering: scores at 6 decimals, flags as
    the head name or '-'."""
    lines = ["\t".join(("index", "token", "aspect_score", "opinion_score",
                        "gold", "pred"))]
    for r in rows:
        gold = _flags(r.gold_aspect, r.gold_opinion)
        pred = _flags(r.pred_aspect, r.pred_opinion)
        lines.append(
            f"{r.index}\t{r.token}\t{r.aspect_score:.6f}\t{r.opinion_score:.6f}"
            f"\t{gold}\t{pred}"
        )
    return "\n".join(lines) + "\n"


def _flags(aspect: bool, opinion: bool) -> str:
    marks = [name for name, on in ((ASPECT, aspect), (OPINION, opinion)) if on]
    return "+".join(marks) if marks else "-"
