import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmla.bio import Span
from cmla.data import SynthConfig, generate_synthetic
from cmla.evaluation import (
    AttentionRow,
    ChunkMetrics,
    CorpusReport,
    attention_report,
    attention_tsv,
    metrics_table,
    metrics_tsv,
    score_chunks,
    score_corpus,
)
from cmla.model import CmlaParams, TokenScores, TrainConfig, predict, train


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


def make_scores(att_a, att_p, la=None, lp=None):
    n = len(att_a)
    onehot = {"B": (5.0, 0.0, 0.0), "I": (0.0, 5.0, 0.0), "O": (0.0, 0.0, 5.0)}
    la = la or ["O"] * n
    lp = lp or ["O"] * n
    return [
        TokenScores(
            token_index=i,
            aspect_logits=np.array(onehot[la[i]]),
            opinion_logits=np.array(onehot[lp[i]]),
            aspect_attention=att_a[i],
            opinion_attention=att_p[i],
        )
        for i in range(n)
    ]


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
    rows = attention_report(s, make_scores([1.0], [1.0], la=["B"]))
    assert len(rows) == 1
    r = rows[0]
    assert r.token == "terras" and r.index == 0
    assert r.gold_aspect and not r.gold_opinion
    assert r.pred_aspect and not r.pred_opinion


def test_attention_rows_follow_token_order():
    s = sentence_for("zeer goede ligging", aspects=[(2, 3)], opinions=[(1, 2)])
    rows = attention_report(
        s, make_scores([0.2, 0.3, 0.5], [0.1, 0.6, 0.3], la=["O", "O", "B"], lp=["O", "B", "O"])
    )
    assert [r.index for r in rows] == [0, 1, 2]
    assert [r.token for r in rows] == ["zeer", "goede", "ligging"]
    assert [r.gold_aspect for r in rows] == [False, False, True]
    assert [r.gold_opinion for r in rows] == [False, True, False]
    assert rows[2].pred_aspect and rows[1].pred_opinion


def test_attention_unnormalized_column_rejected():
    s = sentence_for("a b")
    with pytest.raises(ValueError, match="not normalized"):
        attention_report(s, make_scores([0.5, 0.6], [0.5, 0.5]))
    with pytest.raises(ValueError, match="opinion_attention"):
        attention_report(s, make_scores([0.5, 0.5], [0.9, 0.2]))
    with pytest.raises(ValueError, match="aspect_attention column sums to nan"):
        attention_report(s, make_scores([np.nan, 0.5], [0.5, 0.5]))


def test_attention_tolerates_tiny_rounding():
    s = sentence_for("a b")
    rows = attention_report(s, make_scores([0.5, 0.5 + 5e-10], [0.5, 0.5]))
    assert len(rows) == 2


def test_attention_row_count_mismatch_rejected():
    s = sentence_for("a b c")
    with pytest.raises(ValueError, match="3 tokens"):
        attention_report(s, make_scores([0.5, 0.5], [0.5, 0.5]))


def test_attention_inside_label_counts_as_pred():
    s = sentence_for("a b")
    rows = attention_report(s, make_scores([0.5, 0.5], [0.5, 0.5], la=["B", "I"]))
    assert rows[0].pred_aspect and rows[1].pred_aspect


def test_attention_tsv_rendering():
    s = sentence_for("goede dag", aspects=[(1, 2)], opinions=[(0, 1)])
    rows = attention_report(
        s, make_scores([0.25, 0.75], [0.75, 0.25], la=["O", "B"], lp=["B", "O"])
    )
    text = attention_tsv(rows)
    lines = text.strip("\n").split("\n")
    assert lines[0] == "index\ttoken\taspect_score\topinion_score\tgold\tpred"
    assert lines[1] == "0\tgoede\t0.250000\t0.750000\topinion\topinion"
    assert lines[2] == "1\tdag\t0.750000\t0.250000\taspect\taspect"


def test_attention_tsv_both_flags_and_dash():
    row = AttentionRow(
        index=0, token="x", aspect_score=1.0, opinion_score=1.0,
        gold_aspect=True, gold_opinion=True, pred_aspect=False, pred_opinion=False,
    )
    text = attention_tsv([row])
    assert "aspect+opinion" in text and "\t-" in text


@settings(max_examples=30)
@given(n=st.integers(1, 12), seed=st.integers(0, 1000))
def test_attention_report_row_count_property(n, seed):
    gen = np.random.default_rng(seed)
    words = " ".join("w%d" % i for i in range(n))
    s = sentence_for(words)
    raw_a = gen.uniform(0.1, 1.0, size=n)
    raw_p = gen.uniform(0.1, 1.0, size=n)
    rows = attention_report(
        s, make_scores(list(raw_a / raw_a.sum()), list(raw_p / raw_p.sum()))
    )
    assert len(rows) == n
    assert sum(r.aspect_score for r in rows) == pytest.approx(1.0)
