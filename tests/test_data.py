import codecs
import re
import unicodedata
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cmla.data as data_module
from cmla import cli
from cmla.bio import ASPECT, OPINION, Span, spans_to_labels
from cmla.data import (
    DEFAULT_ASPECT_WORDS,
    DEFAULT_OPINION_WORDS,
    DEFAULT_TEMPLATES,
    DataFormatError,
    EmbeddingTable,
    OovPolicy,
    OpinionLexicon,
    Sentence,
    SynthConfig,
    align_spans,
    annotate_opinions,
    decode_text,
    generate_synthetic,
    load_embeddings,
    load_lexicon,
    open_text,
    parse_semeval_xml,
    save_embeddings,
    save_lexicon,
    showcase_sentences,
    tokenize,
    write_semeval_xml,
)
from cmla.model import load_checkpoint

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


def test_tokenize_drops_format_characters():
    toks = tokenize("a\u200bb \ufeffc")
    assert [(t.surface, t.start, t.end) for t in toks] == [("a", 0, 1), ("b", 2, 3), ("c", 5, 6)]
    assert [t.surface for t in tokenize("ge\u00adeerd")] == ["ge", "eerd"]
    assert tokenize("\u200b\u2060 \u00ad") == []


@given(st.text(min_size=0, max_size=40))
def test_tokenize_offsets_reconstruct_text(text):
    toks = tokenize(text)
    for t in toks:
        assert text[t.start : t.end] == t.surface
    for a, b in zip(toks, toks[1:]):
        assert a.end <= b.start
        assert all(c.isspace() or unicodedata.category(c) == "Cf" for c in text[a.end : b.start])
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


# --- embeddings: numpy's C reader against the per-line parser -------------


def reference_load_embeddings(path):
    """The per-line parser the C reader replaced, kept as the oracle: Python's
    split and float on each line, checked in file order."""
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataFormatError(f"{path}: line 1: header must be 'vocab_size dim'")
        try:
            vocab_size, dim = int(header[0]), int(header[1])
        except ValueError:
            raise DataFormatError(f"{path}: line 1: non-integer header fields") from None
        if vocab_size < 0 or dim <= 0:
            raise DataFormatError(f"{path}: line 1: bad sizes {vocab_size} {dim}")
        vectors, duplicates, count = {}, 0, 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise DataFormatError(f"{path}: line {lineno}: expected {dim} values, got {len(parts) - 1}")
            try:
                vec = np.array(list(map(float, parts[1:])))
            except ValueError:
                raise DataFormatError(f"{path}: line {lineno}: non-numeric value") from None
            if not np.isfinite(vec).all():
                raise DataFormatError(f"{path}: line {lineno}: non-finite value")
            duplicates += parts[0] in vectors
            vectors[parts[0]] = vec
            count += 1
        if count != vocab_size:
            raise DataFormatError(f"{path}: header declares {vocab_size} entries but file has {count}")
    return EmbeddingTable(dim=dim, vectors=vectors, duplicates=duplicates)


def load_outcome(loader, path):
    """The error message, or the table as dim, duplicates and (word, vector bytes) in order."""
    try:
        table = loader(path)
    except DataFormatError as exc:
        return str(exc)
    return table.dim, table.duplicates, [(w, v.tobytes()) for w, v in table.vectors.items()]


LOADER_PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

WORD = st.text(alphabet='hondkaté#"-1ß', min_size=1, max_size=4)
VALUE = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map("{:e}".format),
    st.sampled_from(["-0.0", "+0", "-0", ".5", "5.", "1E5", "+2.5e+3", "-1e-300", "4.9e-324", "1e308"]),
)
SEPARATOR = st.sampled_from([" ", "  ", "\t", " \t", "\xa0", "　"])
BLANK_LINE = st.sampled_from(["", " ", "\t ", "\xa0", "　"])
# one fault per file, as (kind, replacement): the line keeps its other values
FAULTS = st.sampled_from([
    ("drop", None), ("extra", "1.0"), ("word only", None), ("value", "x"), ("value", "nan"),
    ("value", "-Infinity"), ("value", "1e999"), ("value", "1.0.0"), ("header", None),
])


@st.composite
def embedding_files(draw, faulty=False):
    """(file bytes, fault): entries over a small word pool, so words repeat,
    among blank lines, with mixed separators and LF or CRLF endings."""
    dim, pool = draw(st.integers(1, 4)), draw(st.lists(WORD, min_size=1, max_size=4))
    entries = [[draw(st.sampled_from(pool)), *draw(st.lists(VALUE, min_size=dim, max_size=dim))]
               for _ in range(draw(st.integers(1 if faulty else 0, 6)))]
    declared = len(entries)
    fault = draw(FAULTS) if faulty else None
    if fault:
        kind, replacement = fault
        fields = draw(st.sampled_from(entries))
        if kind == "drop":
            fields.pop()
        elif kind == "extra":
            fields.append(replacement)
        elif kind == "word only":
            del fields[1:]
        elif kind == "value":
            fields[draw(st.integers(1, dim))] = replacement
        else:
            declared += draw(st.sampled_from([-1, 1]))
    lines = [f"{declared} {dim}"]
    for fields in entries:
        lines += draw(st.lists(BLANK_LINE, max_size=1))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + "".join(f + draw(SEPARATOR) for f in fields[:-1]) + fields[-1] + trail)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return (newline.join(lines) + newline).encode("utf-8"), fault


@pytest.fixture(scope="module")
def embeddings_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("embeddings")


@LOADER_PROPERTY
@given(embedding_files())
def test_load_embeddings_matches_the_reference_bitwise(embeddings_dir, case):
    path = embeddings_dir / "valid.txt"
    path.write_bytes(case[0])
    expected = load_outcome(reference_load_embeddings, path)
    assert not isinstance(expected, str), expected
    assert load_outcome(load_embeddings, path) == expected


@LOADER_PROPERTY
@given(embedding_files(faulty=True))
def test_load_embeddings_names_the_faulty_line_as_the_reference_does(embeddings_dir, case):
    path = embeddings_dir / "faulty.txt"
    path.write_bytes(case[0])
    expected = load_outcome(reference_load_embeddings, path)
    assert isinstance(expected, str) and expected.startswith(f"{path}: "), expected
    assert load_outcome(load_embeddings, path) == expected


@pytest.mark.parametrize("text, message", [
    ("2 3\nhond 1 2\nkat 1 2 3\n", "line 2: expected 3 values, got 2"),
    ("3 3\nhond 1 2 3\n\nkat 1 2\nvis 1 2 3\n", "line 4: expected 3 values, got 2"),
    ("2 3\nhond 1 2 3\nkat 1 2 3 4\n", "line 3: expected 3 values, got 4"),
    ("2 3\nhond 1 2 3\nkat\n", "line 3: expected 3 values, got 0"),
    ("1 3\nkat \n", "line 2: expected 3 values, got 0"),
    ("2 3\nhond 1 2 3\nkat 1 x 3\n", "line 3: non-numeric value"),
    ("2 3\nhond 1 2 3\nkat 1 nan 3\n", "line 3: non-finite value"),
    ("2 3\nhond 1 2 3\nkat -Infinity 2 3\n", "line 3: non-finite value"),
    ("2 3\nhond 1 2 3\nkat 1 2 1e999\n", "line 3: non-finite value"),
    ("3 3\nhond 1 2 3\nkat 1 2 3\n", "header declares 3 entries but file has 2"),
    ("1 3\nhond 1 2 3\nkat 1 2 3\n", "header declares 1 entries but file has 2"),
])
def test_load_embeddings_error_matches_the_reference(tmp_path, text, message):
    path = write_embeddings(tmp_path, text)
    assert load_outcome(reference_load_embeddings, path) == f"{path}: {message}"
    assert load_outcome(load_embeddings, path) == f"{path}: {message}"


def test_load_embeddings_rejects_a_file_mended_between_its_two_reads(tmp_path, monkeypatch):
    path = write_embeddings(tmp_path, "1 3\nhond 1 x 3\n")
    first_faulty_line = data_module._first_faulty_line

    def mend_then_search(*args):
        path.write_text("1 3\nhond 1 2 3\n", encoding="utf-8")
        return first_faulty_line(*args)

    monkeypatch.setattr(data_module, "_first_faulty_line", mend_then_search)
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: no faulty line on a second read")):
        load_embeddings(path)


@pytest.mark.parametrize("text", ["0 3", "0 3\n", "0 3\n\n \t\n\r\n\n"])
def test_load_embeddings_without_entries_is_an_empty_table(tmp_path, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = load_embeddings(write_embeddings(tmp_path, text))
    assert (table.dim, table.vectors, table.duplicates) == (3, {}, 0)


@pytest.mark.parametrize("literal", ["1_0", "٣", "１"])
def test_load_embeddings_takes_ascii_literals_only(tmp_path, literal):
    """Python's float reads these; numpy's C reader does not."""
    path = write_embeddings(tmp_path, f"2 2\nhond 1 2\nkat 0.5 {literal}\n")
    assert isinstance(load_outcome(reference_load_embeddings, path), tuple)
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 3: non-numeric value")):
        load_embeddings(path)


# --- lexicon ----------------------------------------------------------------


def test_lexicon_validation():
    with pytest.raises(ValueError):
        OpinionLexicon(frozenset({"Goede"}))
    with pytest.raises(ValueError):
        OpinionLexicon(frozenset({"two words"}))
    with pytest.raises(ValueError):
        OpinionLexicon(frozenset({""}))
    with pytest.raises(ValueError):
        OpinionLexicon(frozenset({"zero\u200bwidth"}))


def test_lexicon_save_load(tmp_path):
    lex = OpinionLexicon(frozenset({"prima", "goede"}))
    path = tmp_path / "lex.txt"
    save_lexicon(path, lex)
    assert load_lexicon(path).words == lex.words


@pytest.mark.parametrize(
    "text, line, message",
    [("prima\nGoede\n", 2, "'Goede'"), ("prima\n\ngoede smaak\n", 3, "'goede smaak'"),
     # format characters, which no token holds
     ("prima\nzero\u200bwidth\n", 2, r"'zero\\u200bwidth'"), ("\u00adgoed\n", 1, r"'\\xadgoed'"),
     ("prima\ngoed\ufeff\n", 2, r"'goed\\ufeff'"), ("prima\n\u2060\n", 2, r"'\\u2060'")],
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


def test_leading_bom_is_dropped(tmp_path):
    for loader, text in ((load_lexicon, "goede\nprima\n"), (load_embeddings, "2 2\nGoede 1 2\nterras 3 4\n")):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        a, b = loader(plain), loader(marked)
        if loader is load_lexicon:
            assert a == b and "goede" in b.words
        else:
            assert list(b.vectors) == ["Goede", "terras"]
            assert all(np.array_equal(a.vectors[w], b.vectors[w]) for w in a.vectors)
    marked.write_bytes(codecs.BOM_UTF8 + b"prima\nw\xe9\n")
    with pytest.raises(DataFormatError, match=re.escape(f"{marked}: line 2: not UTF-8")):
        load_lexicon(marked)


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"], ids=["1-of-3", "2-of-3"])
@pytest.mark.parametrize("loader", [load_lexicon, load_embeddings, load_checkpoint])
def test_part_of_a_bom_is_not_empty_text(tmp_path, loader, data):
    # the utf-8-sig codec reads these files as empty text; decode_text rejects
    # the bytes, and load_checkpoint, which reads bytes, the first of them
    path = tmp_path / "cut.txt"
    path.write_bytes(data)
    message = f"{path}: line 1: not UTF-8 text (unexpected end of data)"
    loaded = f"{path}: byte 0: expected a header field" if loader is load_checkpoint else message
    with pytest.raises(DataFormatError, match=f"^{re.escape(loaded)}$"):
        loader(path)
    with pytest.raises(DataFormatError, match=f"^{re.escape(message.replace(str(path), '<stdin>'))}$"):
        decode_text("<stdin>", data)


@pytest.mark.parametrize(
    "raw, line",
    [(b"goede\nprima\n\xff\n", 3), (b"goede\rprima\r\xff\n", 3), (b"goede\r\nprima\r\n\xff\r\n", 3),
     (b"goede\r\nprima\rmooie\n\n\xff", 5)],
    ids=["LF", "CR", "CRLF", "mixed"],
)
def test_undecodable_line_counts_line_ends_as_text_mode_does(tmp_path, raw, line):
    path = tmp_path / "lex.txt"
    path.write_bytes(raw)
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line {line}: not UTF-8 text")):
        load_lexicon(path)
    with pytest.raises(DataFormatError, match=re.escape(f"<stdin>: line {line}: not UTF-8 text")):
        decode_text("<stdin>", raw)
    # text mode puts the bad byte on the same line
    good = tmp_path / "good.txt"
    good.write_bytes(raw.replace(b"\xff", b"slecht"))
    with open_text(good) as fh:
        assert [text.rstrip("\r\n") for text in fh][line - 1] == "slecht"


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


def reference_showcase_sentences() -> list:
    """showcase_sentences as it was when each head had its own code, kept as the oracle."""
    out = []
    for sid, text, aspects, opinions in (
        ("showcase-1", "zeer goede ligging en prima terras", [(2, 3), (5, 6)], [(1, 2), (4, 5)]),
        ("showcase-2", "het was een leuke dag en ik heb veel gedaan", [(4, 5)], [(3, 4)]),
    ):
        out.append(
            Sentence(
                raw_text=text,
                tokens=tokenize(text),
                aspect_spans=[Span(a, b, ASPECT) for a, b in aspects],
                opinion_spans=[Span(a, b, OPINION) for a, b in opinions],
                source_id=sid,
            )
        )
    return out


def reference_generate_synthetic(cfg: SynthConfig):
    """generate_synthetic as it was when each head had its own branch, kept as the oracle."""
    gen = np.random.default_rng(cfg.seed)
    sentences = reference_showcase_sentences()
    while len(sentences) < cfg.n_sentences:
        template = DEFAULT_TEMPLATES[int(gen.integers(len(DEFAULT_TEMPLATES)))]
        words = []
        aspect_spans = []
        opinion_spans = []
        for slot in template.split():
            idx = len(words)
            if slot == "ASPECT":
                words.append(DEFAULT_ASPECT_WORDS[int(gen.integers(len(DEFAULT_ASPECT_WORDS)))])
                aspect_spans.append(Span(idx, idx + 1, ASPECT))
            elif slot == "OPINION":
                words.append(DEFAULT_OPINION_WORDS[int(gen.integers(len(DEFAULT_OPINION_WORDS)))])
                opinion_spans.append(Span(idx, idx + 1, OPINION))
            else:
                words.append(slot)
        text = " ".join(words)
        sentences.append(
            Sentence(
                raw_text=text,
                tokens=tokenize(text),
                aspect_spans=sorted(set(aspect_spans)),
                opinion_spans=sorted(set(opinion_spans)),
                source_id=f"synth-{len(sentences)}",
            )
        )
    sentences = sentences[: cfg.n_sentences]

    vocab = sorted({tok.surface for s in sentences for tok in s.tokens})
    vectors = {word: gen.uniform(-1.0, 1.0, size=cfg.dim) for word in vocab}
    return sentences, EmbeddingTable(dim=cfg.dim, vectors=vectors)


def fixture_outcome(sentences, table=None):
    """Per sentence its id, text, token offsets and span tuples, then the table's
    (word, vector bytes) in vocabulary order."""
    rows = [(s.source_id, s.raw_text, [(t.surface, t.start, t.end) for t in s.tokens],
             [[(sp.start, sp.end, sp.kind) for sp in spans] for spans in (s.aspect_spans, s.opinion_spans)])
            for s in sentences]
    return rows, table and (table.dim, [(word, vec.tobytes()) for word, vec in table.vectors.items()])


def test_showcase_sentences_match_the_reference():
    assert fixture_outcome(showcase_sentences()) == fixture_outcome(reference_showcase_sentences())


@pytest.mark.parametrize("n_sentences", [1, 2, 3, 20, 57])
def test_generate_synthetic_matches_the_reference_bitwise(n_sentences):
    for seed in range(300):
        cfg = SynthConfig(n_sentences=n_sentences, seed=seed)
        got, want = generate_synthetic(cfg), reference_generate_synthetic(cfg)
        assert fixture_outcome(*got) == fixture_outcome(*want), f"seed {seed}"


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


def test_dataset_stats_counts_match_corpus_shape(tmp_path, capsys):
    # `cmla synth` reports the sizes of files shaped like the real train/test splits
    for n in (575, 1700):
        out = tmp_path / f"of_{n}"
        assert cli.main(["synth", "--out", str(out), "--sentences", str(n)]) == 0
        sents, _ = generate_synthetic(SynthConfig(n_sentences=n))
        assert capsys.readouterr().out.splitlines()[:4] == [
            f"sentences: {n}",
            f"tokens: {sum(len(s.tokens) for s in sents)}",
            f"aspect spans: {sum(len(s.aspect_spans) for s in sents)}",
            f"opinion spans: {sum(len(s.opinion_spans) for s in sents)}",
        ]
        parsed = parse_semeval_xml(out / "corpus.xml").sentences
        assert sum(len(s.tokens) for s in parsed) == sum(len(s.tokens) for s in sents)
