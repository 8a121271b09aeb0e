import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmla.bio import ASPECT, OPINION, Span, spans_to_labels
from cmla.data import (
    DEFAULT_ASPECT_WORDS,
    DEFAULT_OPINION_WORDS,
    DEFAULT_TEMPLATES,
    DataFormatError,
    EmbeddingTable,
    OovPolicy,
    OpinionLexicon,
    SynthConfig,
    align_spans,
    annotate_opinions,
    dataset_stats,
    generate_synthetic,
    load_embeddings,
    load_lexicon,
    parse_semeval_xml,
    save_embeddings,
    save_lexicon,
    showcase_sentences,
    tokenize,
    write_semeval_xml,
)

REVIEW_XML = """<?xml version="1.0" encoding="utf-8"?>
<Reviews>
  <Review rid="1">
    <sentences>
      <sentence id="1:1">
        <text>The food was delicious but do not come here on an empty stomach.</text>
        <Opinions>
          <Opinion target="food" category="FOOD#QUALITY" polarity="positive" from="4" to="8"/>
        </Opinions>
      </sentence>
      <sentence id="1:2">
        <text>Service was ok.</text>
        <Opinions>
          <Opinion target="NULL" category="SERVICE#GENERAL" polarity="neutral" from="0" to="0"/>
        </Opinions>
      </sentence>
    </sentences>
  </Review>
</Reviews>
"""


# --- tokenize ---------------------------------------------------------------


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_figure_sentence_has_six_tokens():
    toks = tokenize("zeer goede ligging en prima terras")
    assert [t.surface for t in toks] == ["zeer", "goede", "ligging", "en", "prima", "terras"]


def test_tokenize_apostrophe_splits():
    toks = tokenize("don't")
    assert [t.surface for t in toks] == ["don", "'", "t"]
    assert [(t.start, t.end) for t in toks] == [(0, 3), (3, 4), (4, 5)]


def test_tokenize_punctuation_isolated():
    toks = tokenize("Goed, maar duur!")
    assert [t.surface for t in toks] == ["Goed", ",", "maar", "duur", "!"]


@given(st.text(min_size=0, max_size=40))
def test_tokenize_offsets_reconstruct_text(text):
    toks = tokenize(text)
    for t in toks:
        assert text[t.start : t.end] == t.surface
    for a, b in zip(toks, toks[1:]):
        assert a.end <= b.start
        assert text[a.end : b.start].strip() == ""
    # gaps plus surfaces rebuild the original string
    rebuilt = []
    pos = 0
    for t in toks:
        rebuilt.append(text[pos : t.start])
        rebuilt.append(t.surface)
        pos = t.end
    rebuilt.append(text[pos:])
    assert "".join(rebuilt) == text


# --- align_spans ------------------------------------------------------------


def test_align_exact_token_boundary():
    toks = tokenize("The food was great")
    spans, problems = align_spans([(4, 8)], toks, ASPECT)
    assert spans == [Span(1, 2, ASPECT)]
    assert problems == []


def test_align_partial_token_takes_whole_token():
    toks = tokenize("The food was great")
    spans, _ = align_spans([(5, 7)], toks, ASPECT)
    assert spans == [Span(1, 2, ASPECT)]


def test_align_multiword_target():
    toks = tokenize("the hot dogs here")
    spans, _ = align_spans([(4, 12)], toks, ASPECT)
    assert spans == [Span(1, 3, ASPECT)]


def test_align_span_over_whitespace_only_reports_problem():
    toks = tokenize("a  b")
    spans, problems = align_spans([(1, 2)], toks, ASPECT)
    assert spans == []
    assert len(problems) == 1


def test_align_overlap_keeps_longest_then_earliest():
    toks = tokenize("the food quality and service")
    spans, problems = align_spans([(4, 8), (4, 16), (9, 20)], toks, ASPECT)
    assert spans == [Span(1, 3, ASPECT)]
    assert problems == ["char span [9, 20) overlaps [4, 16), dropped",
                        "char span [4, 8) overlaps [4, 16), dropped"]
    spans, problems = align_spans([(9, 20), (4, 16)], toks, ASPECT)
    assert spans == [Span(1, 3, ASPECT)]
    assert problems == ["char span [9, 20) overlaps [4, 16), dropped"]


# --- parse_semeval_xml ------------------------------------------------------


def test_parse_recovers_food_span(tmp_path):
    path = tmp_path / "review.xml"
    path.write_text(REVIEW_XML, encoding="utf-8")
    result = parse_semeval_xml(path)
    assert len(result.sentences) == 2
    first = result.sentences[0]
    assert first.source_id == "1:1"
    assert first.raw_text[4:8] == "food"
    assert first.aspect_spans == [Span(1, 2, ASPECT)]
    assert first.span_surface(first.aspect_spans[0]) == "food"


def test_parse_null_target_yields_no_span(tmp_path):
    path = tmp_path / "review.xml"
    path.write_text(REVIEW_XML, encoding="utf-8")
    result = parse_semeval_xml(path)
    assert result.sentences[1].aspect_spans == []
    assert result.skipped == 0


def test_parse_empty_file_is_empty_list(tmp_path):
    path = tmp_path / "empty.xml"
    path.write_text("<Reviews/>", encoding="utf-8")
    result = parse_semeval_xml(path)
    assert result.sentences == [] and result.skipped == 0


def test_parse_malformed_xml_reports_position(tmp_path):
    path = tmp_path / "broken.xml"
    path.write_text("<Reviews>\n  <oops\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line"):
        parse_semeval_xml(path)


def test_parse_skips_sentence_with_bad_offsets(tmp_path):
    xml = """<Reviews><Review><sentences>
      <sentence id="s1"><text>short</text>
        <Opinions><Opinion target="short" from="0" to="99"/></Opinions>
      </sentence>
      <sentence id="s2"><text>fine text</text>
        <Opinions><Opinion target="fine" from="0" to="4"/></Opinions>
      </sentence>
    </sentences></Review></Reviews>"""
    path = tmp_path / "offsets.xml"
    path.write_text(xml, encoding="utf-8")
    result = parse_semeval_xml(path)
    assert result.skipped == 1
    assert [s.source_id for s in result.sentences] == ["s2"]
    assert any("s1" in d for d in result.diagnostics)


def test_parse_skips_whitespace_only_sentence(tmp_path):
    xml = """<Reviews><Review><sentences>
      <sentence id="b1"><text>  \n\t </text></sentence>
      <sentence id="s2"><text>fine text</text></sentence>
    </sentences></Review></Reviews>"""
    path = tmp_path / "blank.xml"
    path.write_text(xml, encoding="utf-8")
    result = parse_semeval_xml(path)
    assert result.skipped == 1
    assert [s.source_id for s in result.sentences] == ["s2"]
    assert "sentence 'b1': no tokens, skipped" in result.diagnostics
    assert all(s.tokens for s in result.sentences)


def test_parse_resolves_overlapping_targets(tmp_path):
    xml = """<Reviews><Review><sentences>
      <sentence id="s1"><text>The food quality was great</text>
        <Opinions>
          <Opinion target="food" from="4" to="8"/>
          <Opinion target="food quality" from="4" to="16"/>
        </Opinions>
      </sentence>
    </sentences></Review></Reviews>"""
    path = tmp_path / "overlap.xml"
    path.write_text(xml, encoding="utf-8")
    result = parse_semeval_xml(path)
    sentence = result.sentences[0]
    assert sentence.aspect_spans == [Span(1, 3, ASPECT)]
    assert result.diagnostics == ["sentence 's1': char span [4, 8) overlaps [4, 16), dropped"]
    assert result.skipped == 0
    spans_to_labels(len(sentence.tokens), sentence.aspect_spans, ASPECT)


@pytest.mark.parametrize("encoding", ["utf-32", "rot13", "no-such-codec"])
def test_parse_unreadable_declared_encoding_is_format_error(tmp_path, encoding):
    path = tmp_path / "enc.xml"
    path.write_text(f'<?xml version="1.0" encoding="{encoding}"?><Reviews/>', encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(str(path))):
        parse_semeval_xml(path)


def test_parse_drops_span_when_target_text_disagrees(tmp_path):
    xml = """<Reviews><Review><sentences>
      <sentence id="s1"><text>The food was fine</text>
        <Opinions><Opinion target="drinks" from="4" to="8"/></Opinions>
      </sentence>
    </sentences></Review></Reviews>"""
    path = tmp_path / "mismatch.xml"
    path.write_text(xml, encoding="utf-8")
    result = parse_semeval_xml(path)
    assert result.sentences[0].aspect_spans == []
    assert any("drinks" in d for d in result.diagnostics)


# --- embeddings -------------------------------------------------------------


def write_embeddings(tmp_path, text):
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_embeddings_basic(tmp_path):
    path = write_embeddings(tmp_path, "2 3\nhond 1.0 2.0 3.0\nkat 0.5 -0.5 0.25\n")
    table = load_embeddings(path)
    assert table.dim == 3
    assert np.array_equal(table.lookup("hond"), [1.0, 2.0, 3.0])
    assert table.duplicates == 0


def test_load_embeddings_wrong_count_names_line(tmp_path):
    path = write_embeddings(tmp_path, "2 3\nhond 1.0 2.0 3.0\nkat 0.5 -0.5\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_embeddings(path)


def test_load_embeddings_non_numeric_names_line(tmp_path):
    path = write_embeddings(tmp_path, "1 3\nhond 1.0 x 3.0\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_embeddings(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_load_embeddings_non_finite_names_line(tmp_path, value):
    path = write_embeddings(tmp_path, f"2 3\nhond 1.0 2.0 3.0\nkat 0.5 {value} 3.0\n")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 3: non-finite value")):
        load_embeddings(path)


def test_load_embeddings_header_errors(tmp_path):
    with pytest.raises(DataFormatError, match="line 1"):
        load_embeddings(write_embeddings(tmp_path, "3\nhond 1.0\n"))
    with pytest.raises(DataFormatError, match="line 1"):
        load_embeddings(write_embeddings(tmp_path, "two 3\nhond 1.0 2.0 3.0\n"))


def test_load_embeddings_count_mismatch(tmp_path):
    path = write_embeddings(tmp_path, "3 2\nhond 1.0 2.0\nkat 3.0 4.0\n")
    with pytest.raises(DataFormatError, match="declares 3"):
        load_embeddings(path)


def test_load_embeddings_duplicate_last_wins(tmp_path):
    path = write_embeddings(tmp_path, "3 2\nhond 1.0 2.0\nkat 3.0 4.0\nhond 9.0 9.0\n")
    table = load_embeddings(path)
    assert table.duplicates == 1
    assert np.array_equal(table.lookup("hond"), [9.0, 9.0])


def test_lookup_falls_back_to_lowercase(tmp_path):
    path = write_embeddings(tmp_path, "1 2\nhond 1.0 2.0\n")
    table = load_embeddings(path)
    assert np.array_equal(table.lookup("Hond"), [1.0, 2.0])
    assert "HOND" in table


def test_oov_zero_vector(tmp_path):
    table = load_embeddings(write_embeddings(tmp_path, "1 4\nhond 1 2 3 4\n"))
    assert np.array_equal(table.lookup("zebra"), np.zeros(4))


def test_oov_hash_bucket_deterministic(tmp_path):
    path = write_embeddings(tmp_path, "1 4\nhond 1 2 3 4\n")
    t1 = load_embeddings(path, oov=OovPolicy("hash_bucket", buckets=8))
    t2 = load_embeddings(path, oov=OovPolicy("hash_bucket", buckets=8))
    v1, v2 = t1.lookup("zebra"), t2.lookup("zebra")
    assert np.array_equal(v1, v2)
    assert np.array_equal(v1, t1.lookup("Zebra"))
    assert not np.array_equal(v1, np.zeros(4))


def test_oov_policy_validation():
    with pytest.raises(ValueError):
        OovPolicy("nearest")
    with pytest.raises(ValueError):
        OovPolicy("hash_bucket", buckets=0)


def test_save_load_roundtrip_exact(tmp_path):
    gen = np.random.default_rng(3)
    vectors = {w: gen.uniform(-1, 1, size=5) for w in ("aap", "noot", "mies")}
    table = EmbeddingTable(dim=5, vectors=vectors)
    path = tmp_path / "saved.txt"
    save_embeddings(path, table)
    loaded = load_embeddings(path)
    for word, vec in vectors.items():
        assert np.array_equal(loaded.lookup(word), vec)


# --- lexicon ----------------------------------------------------------------


def test_lexicon_validation():
    with pytest.raises(ValueError):
        OpinionLexicon(frozenset({"Goede"}))
    with pytest.raises(ValueError):
        OpinionLexicon(frozenset({"two words"}))
    with pytest.raises(ValueError):
        OpinionLexicon(frozenset({""}))


def test_lexicon_save_load(tmp_path):
    lex = OpinionLexicon(frozenset({"prima", "goede"}))
    path = tmp_path / "lex.txt"
    save_lexicon(path, lex)
    assert load_lexicon(path).words == lex.words


@pytest.mark.parametrize(
    "text, line, message",
    [("prima\nGoede\n", 2, "'Goede'"), ("prima\n\ngoede smaak\n", 3, "'goede smaak'")],
)
def test_load_lexicon_bad_entry_names_file_and_line(tmp_path, text, line, message):
    path = tmp_path / "lex.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line {line}: ") + ".*" + message):
        load_lexicon(path)


def test_load_lexicon_empty_names_file(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("\n  \n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: opinion lexicon is empty")):
        load_lexicon(path)


@pytest.mark.parametrize(
    "loader, data",
    [(load_lexicon, b"prima\nw\xe9\n"), (load_embeddings, b"1 2\nw\xe9 0.5 0.5\n")],
)
def test_non_utf8_input_names_file_and_line(tmp_path, loader, data):
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 2: not UTF-8")):
        loader(path)


def test_annotate_opinions_figure_sentence():
    sents = [showcase_sentences()[0]]
    stripped = [type(sents[0])(
        raw_text=sents[0].raw_text, tokens=sents[0].tokens,
        aspect_spans=sents[0].aspect_spans, opinion_spans=[], source_id="x",
    )]
    lex = OpinionLexicon(frozenset({"goede", "prima"}))
    out = annotate_opinions(stripped, lex)
    assert out[0].opinion_spans == [Span(1, 2, OPINION), Span(4, 5, OPINION)]
    # input untouched
    assert stripped[0].opinion_spans == []


def test_annotate_opinions_case_insensitive_and_repeats():
    from cmla.data import Sentence

    text = "Prima dag prima avond"
    s = Sentence(raw_text=text, tokens=tokenize(text), aspect_spans=[], opinion_spans=[])
    out = annotate_opinions([s], OpinionLexicon(frozenset({"prima"})))
    assert out[0].opinion_spans == [Span(0, 1, OPINION), Span(2, 3, OPINION)]


def test_annotate_opinions_rejects_empty_lexicon():
    with pytest.raises(ValueError):
        annotate_opinions([], OpinionLexicon(frozenset()))


def test_annotate_preserves_existing_spans():
    from cmla.data import Sentence

    text = "heel mooi"
    s = Sentence(raw_text=text, tokens=tokenize(text), aspect_spans=[],
                 opinion_spans=[Span(0, 1, OPINION)])
    out = annotate_opinions([s], OpinionLexicon(frozenset({"mooi"})))
    assert out[0].opinion_spans == [Span(0, 1, OPINION), Span(1, 2, OPINION)]


# --- synthetic fixtures -----------------------------------------------------


def test_showcase_sentences_annotations():
    one, two = showcase_sentences()
    assert one.raw_text == "zeer goede ligging en prima terras"
    assert one.aspect_spans == [Span(2, 3, ASPECT), Span(5, 6, ASPECT)]
    assert one.opinion_spans == [Span(1, 2, OPINION), Span(4, 5, OPINION)]
    assert two.raw_text == "het was een leuke dag en ik heb veel gedaan"
    assert len(two.tokens) == 10
    assert two.span_surface(two.aspect_spans[0]) == "dag"
    assert two.span_surface(two.opinion_spans[0]) == "leuke"


def test_generate_synthetic_deterministic():
    a_sents, a_table = generate_synthetic(SynthConfig())
    b_sents, b_table = generate_synthetic(SynthConfig())
    assert [s.raw_text for s in a_sents] == [s.raw_text for s in b_sents]
    for word in a_table.vectors:
        assert np.array_equal(a_table.vectors[word], b_table.vectors[word])


def test_generate_synthetic_single_template():
    # after the two showcase sentences, each sentence fills one default
    # template, with a one-token span per slot
    sents, table = generate_synthetic(SynthConfig(n_sentences=40))
    assert len(sents) == 40
    assert [s.source_id for s in sents[:2]] == ["showcase-1", "showcase-2"]
    fillers = {"ASPECT": DEFAULT_ASPECT_WORDS, "OPINION": DEFAULT_OPINION_WORDS}
    for s in sents[2:]:
        aspects = {span.start for span in s.aspect_spans}
        opinions = {span.start for span in s.opinion_spans}
        assert s.aspect_spans == [Span(i, i + 1, ASPECT) for i in sorted(aspects)]
        assert s.opinion_spans == [Span(i, i + 1, OPINION) for i in sorted(opinions)]
        slots = ["ASPECT" if i in aspects else "OPINION" if i in opinions else t.surface
                 for i, t in enumerate(s.tokens)]
        assert " ".join(slots) in DEFAULT_TEMPLATES
        for slot, tok in zip(slots, s.tokens):
            assert tok.surface in fillers.get(slot, (slot,))
            assert tok.surface in table


def test_generated_embeddings_distinct_per_word():
    sents, table = generate_synthetic(SynthConfig())
    vecs = list(table.vectors.values())
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert not np.array_equal(vecs[i], vecs[j])


def test_write_then_parse_roundtrip_preserves_aspects(tmp_path):
    sents, _ = generate_synthetic(SynthConfig())
    path = tmp_path / "roundtrip.xml"
    write_semeval_xml(path, sents)
    result = parse_semeval_xml(path)
    assert result.skipped == 0
    assert len(result.sentences) == len(sents)
    for orig, parsed in zip(sents, result.sentences):
        assert parsed.raw_text == orig.raw_text
        assert parsed.aspect_spans == orig.aspect_spans
        # every recovered span surfaces the annotated target string
        for span in parsed.aspect_spans:
            assert parsed.span_surface(span) == orig.span_surface(span)


def test_dataset_stats_counts_match_corpus_shape(tmp_path):
    # files shaped like the real train/test splits report their sizes
    for n in (575, 1700):
        sents, _ = generate_synthetic(SynthConfig(n_sentences=n))
        path = tmp_path / f"of_{n}.xml"
        write_semeval_xml(path, sents)
        stats = dataset_stats(parse_semeval_xml(path).sentences)
        assert stats.n_sentences == n
        assert stats.n_tokens == sum(len(s.tokens) for s in sents)
    text = stats.describe()
    assert "sentences: 1700" in text
