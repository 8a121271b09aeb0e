import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmla.bio import ASPECT, OPINION, Span, labels_to_spans, merge_heads
from cmla.data import SynthConfig, generate_synthetic
from cmla.evaluation import (
    ChunkMetrics,
    CorpusReport,
    attention_tsv,
    metrics_table,
    metrics_tsv,
    score_chunks,
    score_corpus,
)
from cmla.model import CLASS_ORDER, CmlaParams, Prediction, TrainConfig, predict, train


def spans(*pairs, kind="aspect"):
    return [Span(s, e, kind) for s, e in pairs]


# --- counting ---------------------------------------------------------------


def test_identity_prediction_scores_hundred():
    gold = [spans((0, 2), (4, 5)), spans((1, 3))]
    m = score_chunks(gold, [list(g) for g in gold])
    assert (m.tp, m.fp, m.fn) == (3, 0, 0)
    assert m.precision == 100.0 and m.recall == 100.0 and m.f1 == 100.0


def test_empty_everything_scores_zero():
    m = score_chunks([[], []], [[], []])
    assert (m.tp, m.fp, m.fn) == (0, 0, 0)
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


def test_half_right_example():
    gold = [spans((0, 1), (3, 5))]
    pred = [spans((0, 1), (2, 3))]
    m = score_chunks(gold, pred)
    assert (m.tp, m.fp, m.fn) == (1, 1, 1)
    assert m.precision == pytest.approx(50.0)
    assert m.recall == pytest.approx(50.0)
    assert m.f1 == pytest.approx(50.0)


def test_offset_overlap_is_not_a_match():
    # exact span equality only; a one-token shift counts as both fp and fn
    m = score_chunks([spans((2, 4))], [spans((3, 5))])
    assert (m.tp, m.fp, m.fn) == (0, 1, 1)


def test_counts_accumulate_across_sentences():
    gold = [spans((0, 1)), spans((0, 1)), []]
    pred = [spans((0, 1)), [], spans((5, 6))]
    m = score_chunks(gold, pred)
    assert (m.tp, m.fp, m.fn) == (1, 1, 1)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="gold sentences"):
        score_chunks([[]], [[], []])


def test_from_counts_zero_denominators():
    assert ChunkMetrics.from_counts(0, 3, 0).precision == 0.0
    assert ChunkMetrics.from_counts(0, 0, 3).recall == 0.0
    assert ChunkMetrics.from_counts(0, 3, 3).f1 == 0.0


def test_merged_pools_raw_counts():
    a = ChunkMetrics.from_counts(2, 1, 0)
    b = ChunkMetrics.from_counts(1, 0, 3)
    m = a.merged(b)
    assert (m.tp, m.fp, m.fn) == (3, 1, 3)
    assert m.precision == pytest.approx(75.0)
    assert m.recall == pytest.approx(50.0)


@given(tp=st.integers(0, 40), fp=st.integers(0, 40), fn=st.integers(0, 40))
def test_f1_is_bounded_and_symmetric(tp, fp, fn):
    m = ChunkMetrics.from_counts(tp, fp, fn)
    assert 0.0 <= m.f1 <= 100.0
    assert 0.0 <= m.precision <= 100.0
    assert 0.0 <= m.recall <= 100.0
    # swapping fp and fn swaps precision/recall but keeps f1
    swapped = ChunkMetrics.from_counts(tp, fn, fp)
    assert swapped.precision == m.recall
    assert swapped.recall == m.precision
    assert swapped.f1 == pytest.approx(m.f1)


@given(tp=st.integers(1, 40), fp=st.integers(0, 40), fn=st.integers(0, 40))
def test_extra_false_positive_never_helps(tp, fp, fn):
    base = ChunkMetrics.from_counts(tp, fp, fn)
    worse = ChunkMetrics.from_counts(tp, fp + 1, fn)
    assert worse.precision <= base.precision
    assert worse.f1 <= base.f1


# --- corpus scoring ---------------------------------------------------------


@pytest.fixture(scope="module")
def scored_setup():
    sents, table = generate_synthetic(SynthConfig(n_sentences=8, dim=6))
    params = CmlaParams.init(dim=6, channels=2, rng=3)
    train(sents, table, params, TrainConfig(lr=0.4, epochs=8, seed=0))
    return sents, table, params


def test_score_corpus_composes_from_score_chunks(scored_setup):
    sents, table, params = scored_setup
    report = score_corpus(params, table, sents)
    preds = [predict(s, table, params) for s in sents]
    asp = score_chunks([s.aspect_spans for s in sents], [p.aspect_spans for p in preds])
    opi = score_chunks([s.opinion_spans for s in sents], [p.opinion_spans for p in preds])
    assert report.aspect == asp
    assert report.opinion == opi
    assert report.n_sentences == len(sents)
    assert report.combined.tp == asp.tp + opi.tp
    assert report.combined.fp == asp.fp + opi.fp
    assert report.combined.fn == asp.fn + opi.fn


def test_metrics_tsv_shape(scored_setup):
    sents, table, params = scored_setup
    text = metrics_tsv(score_corpus(params, table, sents))
    lines = text.strip("\n").split("\n")
    assert lines[0] == "head\ttp\tfp\tfn\tprecision\trecall\tf1"
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["aspect", "opinion", "combined"]
    for ln in lines[1:]:
        cells = ln.split("\t")
        assert len(cells) == 7
        for value in cells[4:]:
            assert "." in value and len(value.split(".")[1]) == 2


def test_metrics_table_mentions_counts_and_sentences():
    report = CorpusReport(
        aspect=ChunkMetrics.from_counts(2, 1, 1),
        opinion=ChunkMetrics.from_counts(1, 0, 0),
        n_sentences=4,
    )
    text = metrics_table(report)
    assert "sentences: 4" in text
    assert "66.67" in text  # aspect precision 2/3
    assert "100.00" in text
    header, rule = text.splitlines()[0], text.splitlines()[1]
    assert "precision" in header and set(rule) <= {"-", " "}


# --- attention report -------------------------------------------------------


def make_pred(att_a, att_p, la=None, lp=None):
    """A Prediction whose spans and one-hot logits follow the labels la, lp."""
    n = len(att_a)
    onehot = {"B": (5.0, 0.0, 0.0), "I": (0.0, 5.0, 0.0), "O": (0.0, 0.0, 5.0)}
    la = la or "O" * n
    lp = lp or "O" * n
    return Prediction(
        aspect_spans=labels_to_spans(la, ASPECT),
        opinion_spans=labels_to_spans(lp, OPINION),
        merged=merge_heads(la, lp, [1.0] * n, [1.0] * n),
        aspect_logits=np.array([onehot[x] for x in la]),
        opinion_logits=np.array([onehot[x] for x in lp]),
        aspect_attention=np.array(att_a, dtype=float),
        opinion_attention=np.array(att_p, dtype=float),
    )


def report_rows(sentence, pred):
    """The report's data rows as dicts keyed by its header."""
    header, *rows = attention_tsv(sentence, pred).splitlines()
    return [dict(zip(header.split("\t"), row.split("\t"))) for row in rows]


def sentence_for(text, aspects=(), opinions=()):
    from cmla.data import Sentence, tokenize

    return Sentence(
        raw_text=text,
        tokens=tokenize(text),
        aspect_spans=[Span(s, e, "aspect") for s, e in aspects],
        opinion_spans=[Span(s, e, "opinion") for s, e in opinions],
    )


def test_attention_single_token_row():
    s = sentence_for("terras", aspects=[(0, 1)])
    rows = report_rows(s, make_pred([1.0], [1.0], la="B"))
    assert rows == [{"index": "0", "token": "terras", "aspect_score": "1.000000",
                     "opinion_score": "1.000000", "gold": "aspect", "pred": "aspect"}]


def test_attention_rows_follow_token_order():
    s = sentence_for("zeer goede ligging", aspects=[(2, 3)], opinions=[(1, 2)])
    rows = report_rows(
        s, make_pred([0.2, 0.3, 0.5], [0.1, 0.6, 0.3], la="OOB", lp="OBO")
    )
    assert [r["index"] for r in rows] == ["0", "1", "2"]
    assert [r["token"] for r in rows] == ["zeer", "goede", "ligging"]
    assert [r["gold"] for r in rows] == ["-", "opinion", "aspect"]
    assert [r["pred"] for r in rows] == ["-", "opinion", "aspect"]


def test_attention_unnormalized_column_rejected():
    s = sentence_for("a b")
    with pytest.raises(ValueError, match="not normalized"):
        attention_tsv(s, make_pred([0.5, 0.6], [0.5, 0.5]))
    with pytest.raises(ValueError, match="opinion_attention"):
        attention_tsv(s, make_pred([0.5, 0.5], [0.9, 0.2]))
    with pytest.raises(ValueError, match="aspect_attention column sums to nan"):
        attention_tsv(s, make_pred([np.nan, 0.5], [0.5, 0.5]))


def test_attention_tolerates_tiny_rounding():
    s = sentence_for("a b")
    assert len(report_rows(s, make_pred([0.5, 0.5 + 5e-10], [0.5, 0.5]))) == 2
    with pytest.raises(ValueError, match="not normalized"):
        attention_tsv(s, make_pred([0.5, 0.5 + 2e-9], [0.5, 0.5]))


def test_attention_row_count_mismatch_rejected():
    s = sentence_for("a b c")
    with pytest.raises(ValueError, match="2 aspect_attention weights for 3 tokens"):
        attention_tsv(s, make_pred([0.5, 0.5], [0.5, 0.5]))
    pred = make_pred([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
    pred.opinion_attention = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="2 opinion_attention weights for 3 tokens"):
        attention_tsv(s, pred)


def test_attention_inside_label_counts_as_pred():
    s = sentence_for("a b")
    rows = report_rows(s, make_pred([0.5, 0.5], [0.5, 0.5], la="BI"))
    assert [r["pred"] for r in rows] == ["aspect", "aspect"]


def test_attention_pred_column_follows_spans_not_logits():
    # B and O round to the same probability, so predict tags the token B
    # (the first maximum) although the logits' own argmax is O
    s = sentence_for("terras")
    pred = make_pred([1.0], [1.0])
    pred.aspect_spans = [Span(0, 1, ASPECT)]
    pred.aspect_logits = np.array([[0.0, -5.0, 1e-17]])
    assert CLASS_ORDER[int(np.argmax(pred.aspect_logits[0]))] == "O"
    probs = np.exp(pred.aspect_logits[0] - pred.aspect_logits[0].max())
    assert probs[0] == probs[2]
    assert [r["pred"] for r in report_rows(s, pred)] == ["aspect"]
    pred.aspect_spans = []
    pred.aspect_logits = np.array([[5.0, 0.0, 0.0]])
    assert [r["pred"] for r in report_rows(s, pred)] == ["-"]


def test_attention_tsv_rendering():
    s = sentence_for("goede dag", aspects=[(1, 2)], opinions=[(0, 1)])
    text = attention_tsv(
        s, make_pred([0.25, 0.75], [0.75, 0.25], la="OB", lp="BO")
    )
    lines = text.strip("\n").split("\n")
    assert lines[0] == "index\ttoken\taspect_score\topinion_score\tgold\tpred"
    assert lines[1] == "0\tgoede\t0.250000\t0.750000\topinion\topinion"
    assert lines[2] == "1\tdag\t0.750000\t0.250000\taspect\taspect"
    assert text.endswith("aspect\n")


def test_attention_tsv_both_flags_and_dash():
    s = sentence_for("x", aspects=[(0, 1)], opinions=[(0, 1)])
    text = attention_tsv(s, make_pred([1.0], [1.0]))
    assert text.splitlines()[1] == "0\tx\t1.000000\t1.000000\taspect+opinion\t-"


@settings(max_examples=30)
@given(n=st.integers(1, 12), seed=st.integers(0, 1000))
def test_attention_report_row_count_property(n, seed):
    gen = np.random.default_rng(seed)
    words = " ".join("w%d" % i for i in range(n))
    s = sentence_for(words)
    raw_a = gen.uniform(0.1, 1.0, size=n)
    raw_p = gen.uniform(0.1, 1.0, size=n)
    rows = report_rows(s, make_pred(list(raw_a / raw_a.sum()), list(raw_p / raw_p.sum())))
    assert len(rows) == n
    assert sum(float(r["aspect_score"]) for r in rows) == pytest.approx(1.0, abs=n * 5e-7)

