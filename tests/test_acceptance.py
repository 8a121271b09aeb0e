"""Acceptance gate: the eight release criteria, one test each.

Each test prints a single PASS/FAIL line (visible with pytest -s) before
asserting, so a transcript of this module is a complete scorecard.  The
checks here are intentionally independent of the unit suite: oracles are
re-derived locally (brute-force counting, direct enumeration, finite
differences) rather than imported from the code under test.
"""

import itertools
import time

import numpy as np
import pytest

from cmla import cli
from cmla.autodiff import constant, grad_check
from cmla.bio import ASPECT, B, I, O, OPINION, Span, labels_to_spans, spans_to_labels
from cmla.data import (
    DataFormatError,
    SynthConfig,
    generate_synthetic,
    load_embeddings,
    parse_semeval_xml,
)
from cmla.evaluation import score_chunks, score_corpus
from cmla.model import CLASS_ORDER, CmlaParams, TrainConfig, forward, loss, predict, train


def report(number, slug, ok, detail):
    print(f"criterion {number} ({slug}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def overfit_run():
    """Train on the default 20-sentence seed-42 corpus until it is memorized."""
    sentences, table = generate_synthetic(SynthConfig())
    params = CmlaParams.init(dim=12, channels=4, rng=7)
    start = time.perf_counter()
    train(sentences, table, params, TrainConfig(lr=0.5, epochs=100, clip=5.0, seed=0))
    elapsed = time.perf_counter() - start
    return sentences, table, params, elapsed


def test_criterion_1_gradient_check():
    # five fixed configurations within the allowed envelope (dim<=8,
    # channels<=4, length<=6); exhaustive over every coordinate
    configs = [(4, 2, 3, 0), (5, 3, 3, 3), (5, 3, 4, 5), (6, 3, 5, 0), (8, 4, 6, 6)]
    start = time.perf_counter()
    worst = 0.0
    for dim, channels, length, seed in configs:
        gen = np.random.default_rng(seed)
        params = CmlaParams.init(dim=dim, channels=channels, rng=gen, init_scale=1.2)
        xs = [constant(gen.uniform(-1, 1, size=dim)) for _ in range(length)]
        gold_a = "".join(CLASS_ORDER[int(gen.integers(3))] for _ in range(length))
        gold_p = "".join(CLASS_ORDER[int(gen.integers(3))] for _ in range(length))

        def f():
            return loss(forward(xs, params)[0], gold_a, gold_p)

        worst = max(worst, grad_check(f, params.named_tensors().values()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, "gradient-check", ok,
           f"{len(configs)} configs, max rel err {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_2_synthetic_overfit(overfit_run):
    sentences, table, params, elapsed = overfit_run
    rep = score_corpus(params, table, sentences)
    ok = rep.aspect.f1 >= 95.0 and rep.opinion.f1 >= 95.0 and elapsed < 300.0
    report(2, "synthetic-overfit", ok,
           f"aspect F1 {rep.aspect.f1:.2f}, opinion F1 {rep.opinion.f1:.2f}, "
           f"trained in {elapsed:.1f}s")
    assert rep.aspect.f1 >= 95.0
    assert rep.opinion.f1 >= 95.0
    assert elapsed < 300.0


def well_formed(seq):
    """No I starts the sequence or follows an O."""
    return "OI" not in O + seq


def test_criterion_3_bio_roundtrip():
    # every well-formed label sequence up to length 10
    checked = 0
    for n in range(1, 11):
        for combo in itertools.product((B, I, O), repeat=n):
            seq = "".join(combo)
            if not well_formed(seq):
                continue
            back = spans_to_labels(n, labels_to_spans(seq, ASPECT), ASPECT)
            assert back == seq, f"label round trip broke on {seq}"
            checked += 1

    # 10,000 randomly constructed valid span sets, built without the encoder
    gen = np.random.default_rng(12345)
    for trial in range(10_000):
        n = int(gen.integers(1, 31))
        spans = []
        cursor = 0
        while cursor < n:
            if gen.random() < 0.45:
                end = cursor + 1 + int(gen.integers(0, min(4, n - cursor)))
                spans.append(Span(cursor, end, OPINION))
                cursor = end
            else:
                cursor += 1
        labels = spans_to_labels(n, spans, OPINION)
        assert well_formed(labels)
        assert labels_to_spans(labels, OPINION) == spans, f"span round trip broke on trial {trial}"

    report(3, "bio-roundtrip", True,
           f"{checked} well-formed sequences (len<=10) and 10000 random span sets")


def test_criterion_4_chunk_scoring():
    def random_span_row(gen, n):
        spans, cursor = [], 0
        while cursor < n:
            if gen.random() < 0.5:
                end = cursor + 1 + int(gen.integers(0, min(3, n - cursor)))
                spans.append(Span(cursor, end, ASPECT))
                cursor = end + int(gen.integers(0, 2))
            else:
                cursor += 1
        return spans

    def brute_counts(gold_corpus, pred_corpus):
        # greedy one-to-one matching, no set arithmetic
        tp = fp = fn = 0
        for g_row, p_row in zip(gold_corpus, pred_corpus):
            taken = [False] * len(p_row)
            for g in g_row:
                for j, p in enumerate(p_row):
                    if not taken[j] and p == g:
                        taken[j] = True
                        tp += 1
                        break
                else:
                    fn += 1
            fp += taken.count(False)
        return tp, fp, fn

    gen = np.random.default_rng(777)
    for trial in range(1_000):
        n_sent = int(gen.integers(1, 6))
        gold = [random_span_row(gen, int(gen.integers(1, 12))) for _ in range(n_sent)]
        pred = [random_span_row(gen, int(gen.integers(1, 12))) for _ in range(n_sent)]
        m = score_chunks(gold, pred)
        tp, fp, fn = brute_counts(gold, pred)
        assert (m.tp, m.fp, m.fn) == (tp, fp, fn), f"count mismatch on trial {trial}"
        precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
        recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert m.precision == precision and m.recall == recall and m.f1 == f1

    identity = [[Span(0, 2, ASPECT), Span(3, 4, ASPECT)]]
    m = score_chunks(identity, [list(identity[0])])
    assert m.precision == 100.0 and m.recall == 100.0 and m.f1 == 100.0
    empty = score_chunks([[]], [[]])
    assert (empty.tp, empty.fp, empty.fn) == (0, 0, 0)
    assert empty.precision == 0.0 and empty.recall == 0.0 and empty.f1 == 0.0

    report(4, "chunk-scoring", True,
           "1000 fuzzed corpora match brute-force counts exactly; "
           "identity scores 100.00, empty scores 0")


def test_criterion_5_attention_normalization():
    gen = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1_000):
        dim = int(gen.integers(2, 6))
        channels = int(gen.integers(1, 5))
        length = int(gen.integers(1, 7))
        layers = int(gen.integers(1, 3))
        params = CmlaParams.init(
            dim=dim, channels=channels, rng=gen, layers=layers,
            init_scale=float(gen.uniform(0.05, 1.5)),
        )
        xs = [constant(gen.uniform(-2, 2, size=dim)) for _ in range(length)]
        _, scores = forward(xs, params)
        for column in scores.data.T:   # one per head
            worst = max(worst, abs(float(column.sum()) - 1.0))
    ok = worst <= 1e-9
    report(5, "attention-normalization", ok,
           f"1000 fuzzed forwards, worst |sum-1| = {worst:.3e}")
    assert worst <= 1e-9


FIXTURE_XML = """<?xml version="1.0" encoding="UTF-8"?>
<Reviews>
  <Review rid="r1">
    <sentences>
      <sentence id="r1:0">
        <text>The food was great</text>
        <Opinions>
          <Opinion target="food" category="FOOD#QUALITY" polarity="positive" from="4" to="8"/>
        </Opinions>
      </sentence>
      <sentence id="r1:1">
        <text>Will not return</text>
        <Opinions>
          <Opinion target="NULL" category="RESTAURANT#GENERAL" polarity="negative" from="0" to="0"/>
        </Opinions>
      </sentence>
    </sentences>
  </Review>
</Reviews>
"""


def test_criterion_6_data_ingestion(tmp_path):
    xml_path = tmp_path / "fixture.xml"
    xml_path.write_text(FIXTURE_XML, encoding="utf-8")
    result = parse_semeval_xml(xml_path)
    assert len(result.sentences) == 2
    first = result.sentences[0]
    assert first.raw_text[4:8] == "food"
    assert len(first.aspect_spans) == 1
    span = first.aspect_spans[0]
    assert first.span_surface(span) == "food"
    assert (first.tokens[span.start].start, first.tokens[span.end - 1].end) == (4, 8)
    # the NULL-target sentence survives with no aspect span attached
    assert result.sentences[1].aspect_spans == []

    short = tmp_path / "short.txt"
    short.write_text("2 3\nfoo 1.0 2.0 3.0\nbar 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 3"):
        load_embeddings(short)
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("2 2\nfoo 1.0 oops\nbar 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2"):
        load_embeddings(garbled)

    report(6, "data-ingestion", True,
           "fixture XML recovers 'food' at [4,8) and keeps the NULL sentence "
           "spanless; loader errors carry line numbers")


def test_criterion_7_deterministic_training(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data)]) == 0
    flags = [
        "train",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--channels", "4",
        "--epochs", "10",
        "--lr", "0.5",
        "--seed", "0",
    ]
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    assert cli.main(flags + ["--out", str(run_a)]) == 0
    assert cli.main(flags + ["--out", str(run_b)]) == 0
    same_ckpt = (run_a / "checkpoint.json").read_bytes() == (run_b / "checkpoint.json").read_bytes()
    same_trace = (run_a / "loss_trace.txt").read_bytes() == (run_b / "loss_trace.txt").read_bytes()
    report(7, "deterministic-training", same_ckpt and same_trace,
           f"checkpoint bytes equal: {same_ckpt}, loss trace bytes equal: {same_trace}")
    assert same_ckpt
    assert same_trace


def test_criterion_8_showcase_recovery(overfit_run):
    sentences, table, params, _ = overfit_run
    showcase = {s.source_id: s for s in sentences}
    first = showcase["showcase-1"]
    second = showcase["showcase-2"]

    pred1 = predict(first, table, params)
    pred2 = predict(second, table, params)

    ok = (
        pred1.aspect_spans == sorted(first.aspect_spans)
        and pred1.opinion_spans == sorted(first.opinion_spans)
        and pred2.aspect_spans == sorted(second.aspect_spans)
        and pred2.opinion_spans == sorted(second.opinion_spans)
    )
    surfaces1 = [first.span_surface(s) for s in pred1.aspect_spans]
    opinions1 = [first.span_surface(s) for s in pred1.opinion_spans]
    surfaces2 = [second.span_surface(s) for s in pred2.aspect_spans]
    opinions2 = [second.span_surface(s) for s in pred2.opinion_spans]
    report(8, "showcase-recovery", ok,
           f"sentence 1 aspects {surfaces1} opinions {opinions1}; "
           f"sentence 2 aspects {surfaces2} opinions {opinions2}")
    assert surfaces1 == ["ligging", "terras"]
    assert opinions1 == ["goede", "prima"]
    assert surfaces2 == ["dag"]
    assert opinions2 == ["leuke"]
    assert ok
