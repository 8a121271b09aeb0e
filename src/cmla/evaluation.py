"""Chunk-level scoring and the per-token attention report.

Scoring is exact-match over (start, end, kind) token spans, the usual
chunking convention: no partial credit, precision/recall as percentages,
zero-denominator cases defined as 0. The attention report prints one row
per token of a `Prediction`; its `pred` column is read off the predicted
spans, so `predict` is the only place that decides B/I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bio import ASPECT, OPINION
from .model import predict


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


def attention_tsv(sentence, pred) -> str:
    """One tab-separated row per token: both heads' attention at 6 decimals,
    then the heads whose gold and predicted spans cover it ('aspect',
    'opinion', 'aspect+opinion' or '-').

    Rejects attention columns that do not have one weight per token or do
    not sum to 1 within 1e-9.
    """
    n = len(sentence.tokens)
    for name in ("aspect_attention", "opinion_attention"):
        column = getattr(pred, name)
        if len(column) != n:
            raise ValueError(f"{len(column)} {name} weights for {n} tokens")
        total = sum(map(float, column))
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"{name} column sums to {total!r}, not normalized")

    gold, guess = _covering_heads(sentence, n), _covering_heads(pred, n)
    lines = ["index\ttoken\taspect_score\topinion_score\tgold\tpred"]
    for i, tok in enumerate(sentence.tokens):
        lines.append(
            f"{i}\t{tok.surface}\t{pred.aspect_attention[i]:.6f}"
            f"\t{pred.opinion_attention[i]:.6f}\t{gold[i]}\t{guess[i]}"
        )
    return "\n".join(lines) + "\n"


def _covering_heads(spans_of, n) -> list:
    """Per token, the '+'-joined heads whose spans cover it, or '-'."""
    covered = [(head, {i for s in spans for i in range(s.start, s.end)})
               for head, spans in ((ASPECT, spans_of.aspect_spans), (OPINION, spans_of.opinion_spans))]
    return ["+".join(head for head, on in covered if i in on) or "-" for i in range(n)]
