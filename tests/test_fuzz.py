"""Fuzz the corpus, lexicon, embedding and checkpoint loaders, the CLI's
--config file and the input of `cmla predict`.

Every input, however mangled, must either load into something the model
can use or raise DataFormatError; any other exception is a bug. A config
file must end the command with exit 0, or exit 1 or 2 and one printable
stderr line; predict input with exit 0, or exit 2 and one printable line.
"""

import codecs
import contextlib
import io
import itertools
import json
import math
import re
import unicodedata
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from cmla import cli, model
from cmla.bio import ASPECT, spans_to_labels
from cmla.autodiff import Tensor
from cmla.data import (
    DataFormatError,
    _is_lexicon_word,
    load_embeddings,
    load_lexicon,
    parse_semeval_xml,
)
from cmla.model import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    FLOAT_TEXT_MAX,
    CmlaParams,
    load_checkpoint,
    save_checkpoint,
)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

VALID_XML = """<?xml version="1.0" encoding="utf-8"?>
<Reviews>
  <Review rid="1">
    <sentences>
      <sentence id="1:1">
        <text>The food quality was great but the service &amp; wine were not.</text>
        <Opinions>
          <Opinion target="food" category="FOOD#QUALITY" polarity="positive" from="4" to="8"/>
          <Opinion target="food quality" category="FOOD#QUALITY" polarity="positive" from="4" to="16"/>
          <Opinion target="wine" category="DRINKS#QUALITY" polarity="negative" from="47" to="51"/>
        </Opinions>
      </sentence>
      <sentence id="1:2">
        <text>Service was ok.</text>
        <Opinions>
          <Opinion target="NULL" category="SERVICE#GENERAL" polarity="neutral" from="0" to="0"/>
        </Opinions>
      </sentence>
      <sentence id="1:3"><text>De ligging was prima.</text></sentence>
    </sentences>
  </Review>
</Reviews>
""".encode("utf-8")

# fragments a mutation may splice in: markup, entities, offsets, encodings
XML_PIECES = (
    b"<sentence>", b"</sentence>", b"<text>", b"</text>", b"<text/>", b"<Opinions>",
    b'<Opinion target="x" from="0" to="1"/>', b'from="-3"', b'to="99999999999999999999"',
    b'from="1e3"', b'target=""', b"&amp;", b"&#0;", b"&#x110000;", b"&undefined;",
    b'<!DOCTYPE r [<!ENTITY a "aaaaaaaaaa">]>', b'<?xml version="1.0" encoding="latin-1"?>',
    b'<?xml version="1.0" encoding="bogus"?>', b'<?xml version="1.0" encoding="utf-32"?>',
    b'<?xml version="1.0" encoding="rot13"?>', b'<?xml version="1.0" encoding="idna"?>',
    b"<![CDATA[ ]]>", b"\xff\xfe", b"\xc3", b"\x00", b" \t\n", "\u00e9\u00df\u2028".encode("utf-8"),
)


def mutations(pieces):
    """One edit of a byte string: an op, a position, raw bytes, and a piece to splice in."""
    return st.tuples(
        st.sampled_from(("delete", "insert", "replace", "splice", "truncate")),
        st.integers(min_value=0), st.binary(max_size=8), st.sampled_from(pieces),
    )


mutation = mutations(XML_PIECES)


def mutate(data: bytes, edits) -> bytes:
    for op, at, raw, piece in edits:
        i = at % (len(data) + 1)
        if op == "delete":
            data = data[:i] + data[i + 1 + len(raw):]
        elif op == "insert":
            data = data[:i] + raw + data[i:]
        elif op == "replace":
            data = data[:i] + raw + data[i + len(raw):]
        elif op == "splice":
            data = data[:i] + piece + data[i:]
        else:
            data = data[:i]
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def parse_or_reject(path, data: bytes):
    path.write_bytes(data)
    try:
        result = parse_semeval_xml(path)
    except DataFormatError:
        return
    for sentence in result.sentences:
        assert sentence.tokens
        spans_to_labels(len(sentence.tokens), sentence.aspect_spans, ASPECT)


@FUZZ
@given(st.binary(max_size=300))
def test_parse_semeval_xml_raw_bytes(fuzz_dir, data):
    parse_or_reject(fuzz_dir / "raw.xml", data)


@FUZZ
@given(st.lists(mutation, min_size=1, max_size=4))
def test_parse_semeval_xml_mutated(fuzz_dir, edits):
    parse_or_reject(fuzz_dir / "mutated.xml", mutate(VALID_XML, edits))


# --- opinion lexicon ---------------------------------------------------------

VALID_LEXICON = "goede\nprima\n\nleuke\ngeëerd\n".encode("utf-8")

# fragments a mutation may splice in: case, inner and outer whitespace, line
# ends, format characters (soft hyphen, zero-width space, BOM), broken UTF-8
LEXICON_PIECES = (
    b"Goede", b"twee woorden", b" \t", b"\n", b"\r", b"\r\n", b"\x00", b"\xef\xbb\xbf",
    "\u00ad".encode("utf-8"), "\u200b".encode("utf-8"), "\u2028".encode("utf-8"),
    "\u00a0".encode("utf-8"), "\u0130".encode("utf-8"), "\u00df".encode("utf-8"), b"\xff", b"\xc3",
)


def load_or_reject_lexicon(path, data: bytes):
    path.write_bytes(data)
    try:
        lexicon = load_lexicon(path)
    except DataFormatError as exc:
        assert re.match(re.escape(f"{path}: ") + r"(line \d+: |opinion lexicon is empty$)", str(exc)), str(exc)
        return
    assert lexicon.words and all(_is_lexicon_word(w) for w in lexicon.words)


@FUZZ
@given(st.binary(max_size=200))
def test_load_lexicon_raw_bytes(fuzz_dir, data):
    load_or_reject_lexicon(fuzz_dir / "raw_lexicon.txt", data)


@FUZZ
@given(st.lists(mutations(LEXICON_PIECES), min_size=1, max_size=4))
def test_load_lexicon_mutated(fuzz_dir, edits):
    load_or_reject_lexicon(fuzz_dir / "mutated_lexicon.txt", mutate(VALID_LEXICON, edits))


# --- embedding table ---------------------------------------------------------

VALID_EMBEDDINGS = "4 2\nhond 0.5 -1\nkat 1e-3 2.25\n\ngeëerd 0 .5\nHond -0 +7\n".encode("utf-8")

# fragments a mutation may splice in: separators and line ends, literals the
# C reader refuses or Python's float reads differently, broken UTF-8
EMBEDDING_PIECES = (
    b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x00", b"\xef\xbb\xbf", b"-", b"+",
    b".", b"e", b"e999", b"1e-400", b"nan", b"-inf", b"1_0", b"0x1p3", b"#", b"2 2", b"0 2",
    b"99999999999999999999", "\u0663".encode("utf-8"), "\u00a0".encode("utf-8"),
    "\u2028".encode("utf-8"), "\u0085".encode("utf-8"), b"\xff", b"\xc3",
)


def load_or_reject_embeddings(path, data: bytes):
    path.write_bytes(data)
    try:
        table = load_embeddings(path)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        return
    for vec in table.vectors.values():
        assert vec.shape == (table.dim,) and np.isfinite(vec).all()


@FUZZ
@given(st.binary(max_size=200))
def test_load_embeddings_raw_bytes(fuzz_dir, data):
    load_or_reject_embeddings(fuzz_dir / "raw_embeddings.txt", data)


@FUZZ
@given(st.lists(mutations(EMBEDDING_PIECES), min_size=1, max_size=4))
def test_load_embeddings_mutated(fuzz_dir, edits):
    load_or_reject_embeddings(fuzz_dir / "mutated_embeddings.txt", mutate(VALID_EMBEDDINGS, edits))


# --- the CLI's --config file --------------------------------------------------

# fragments a mutation may splice in: keys, values out of range or of the
# wrong type, comments, line ends, broken UTF-8
CONFIG_PIECES = (
    b"=", b" = ", b"#", b"\n", b"\r", b"\r\n", b"\x00", b"\xef\xbb\xbf", b"\xff", b"\xc3",
    "\u2028".encode("utf-8"), "\u00a0".encode("utf-8"), "\u0663".encode("utf-8"),
    b"oov = zero_vector", b"oov = none", b"buckets = 0", b"buckets = -3", b"buckets = 1e3",
    b"buckets = 99999999999999999999", b"bogus = 1", b"Buckets = 2", b"check-point = x",
    b"top = 3", b"input = ", b"checkpoint = ",
)


@pytest.fixture(scope="module")
def predict_config(fuzz_dir, valid_payload):
    """A config file's bytes naming a dim-2 checkpoint, embeddings and input."""
    (fuzz_dir / "config_embeddings.txt").write_text("2 2\nzeer 1 0\ngoede 0 1\n", encoding="utf-8")
    (fuzz_dir / "config_input.txt").write_text("zeer goede ligging\n", encoding="utf-8")
    return (
        f"# predict options\ncheckpoint = {fuzz_dir / 'valid.json'}\n"
        f"embeddings={fuzz_dir / 'config_embeddings.txt'}\n\ninput = {fuzz_dir / 'config_input.txt'}\n"
        "oov = hash_bucket\nbuckets = 7\n"
    ).encode("utf-8")


@FUZZ
@given(st.lists(mutations(CONFIG_PIECES), min_size=1, max_size=4))
def test_config_file_mutated(fuzz_dir, predict_config, edits):
    path = fuzz_dir / "mutated.cfg"
    path.write_bytes(mutate(predict_config, edits))
    out, err = io.StringIO(), io.StringIO()
    # an empty `input` reads standard input; a relative path resolves in fuzz_dir
    stdin = io.TextIOWrapper(io.BytesIO(b"goede kamer\n"), encoding="utf-8")
    with mock.patch("sys.stdin", stdin), contextlib.chdir(fuzz_dir), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["predict", "--config", str(path)])
    if code == 0:
        return
    assert code in (1, 2), code
    assert err.getvalue().startswith("cmla: ") and err.getvalue().count("\n") == 1, err.getvalue()
    assert err.getvalue()[:-1].isprintable(), err.getvalue()


# --- cmla predict input -------------------------------------------------------

VALID_PREDICT_INPUT = "de ligging was prima\nzeer goede kamer\n\nik vond de tuin echt mooie\n".encode("utf-8")

# fragments a mutation may splice in: line ends, a BOM, broken UTF-8, NUL,
# format characters (zero-width space, soft hyphen), decomposed (NFD) Dutch
# text and one long line
PREDICT_PIECES = (
    b"\r", b"\r\n", b"\xef\xbb\xbf", b"\xc3", b"\xff", b"\x00",
    "\u200b".encode("utf-8"), "\u00ad".encode("utf-8"),
    unicodedata.normalize("NFD", "geëerd café").encode("utf-8"),
    " ".join(itertools.islice(itertools.cycle(("de", "kamer", "was", "heel", "goede")), 60)).encode("utf-8"),
)


@pytest.fixture(scope="module")
def predict_model(fuzz_dir):
    """Arguments naming a dim-4, 2-channel checkpoint trained for one epoch, and its embeddings."""
    data, run = fuzz_dir / "predict_data", fuzz_dir / "predict_run"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["synth", "--out", str(data), "--dim", "4"]) == 0
        assert cli.main(["train", "--data", str(data / "corpus.xml"), "--embeddings", str(data / "embeddings.txt"),
                         "--lexicon", str(data / "lexicon.txt"), "--out", str(run),
                         "--channels", "2", "--epochs", "1"]) == 0
    return ["predict", "--checkpoint", str(run / "checkpoint.json"), "--embeddings", str(data / "embeddings.txt")]


def predict_both_ways(path, args, data: bytes):
    """`cmla predict` on `data` as --input and as standard input: exit 0, or
    exit 2 and one printable stderr line; both ways answer alike, and that
    answer is returned as (code, stdout, stderr naming the file <stdin>)."""
    path.write_bytes(data)
    outcomes = []
    for extra, stdin in ((["--input", str(path)], b""), ([], data)):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")), \
                warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")   # a numpy warning fails the case
            code = cli.main(args + extra)
        message = err.getvalue()
        assert code in (0, 2), (code, message)
        if code == 2:
            assert message.startswith("cmla: ") and message.count("\n") == 1, message
            assert message[:-1].isprintable(), message
        outcomes.append((code, out.getvalue(), message.replace(str(path), "<stdin>")))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@FUZZ
@given(st.binary(max_size=200))
def test_predict_input_raw_bytes(fuzz_dir, predict_model, data):
    predict_both_ways(fuzz_dir / "raw_input.txt", predict_model, data)


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"], ids=["1-of-3", "2-of-3"])
def test_predict_input_part_of_a_bom_is_rejected(fuzz_dir, predict_model, data):
    # the utf-8-sig codec read such a file as empty text: exit 0, "no sentences on input"
    assert predict_both_ways(fuzz_dir / "cut_bom.txt", predict_model, data) == \
        (2, "", "cmla: <stdin>: line 1: not UTF-8 text (unexpected end of data)\n")


@FUZZ
@given(st.lists(mutations(PREDICT_PIECES), min_size=1, max_size=4))
def test_predict_input_mutated(fuzz_dir, predict_model, edits):
    predict_both_ways(fuzz_dir / "mutated_input.txt", predict_model, mutate(VALID_PREDICT_INPUT, edits))


# --- checkpoints -------------------------------------------------------------

json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    | st.sampled_from((0, 1, 2, 3, -1, 10**400)) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
HEADER_KEYS = ("format", "version", "dim", "channels", "layers", "tensors")
# textual edits to one value: other spellings of a JSON number, non-finite
# numbers and leading whitespace, none of them a float's repr; the checkpoint
# still loads after `1.50` and `1E5`
VALUE_EDITS = ("1", "1.50", "1E5", "-0", "NaN", " 0.5", "1e400")
# fragments a mutation may splice in: values, separators and the tail
CHECKPOINT_PIECES = tuple(e.encode() for e in VALUE_EDITS) + (
    b"]}, ", b'"values": [', b", ", b"}}\n", b"\r\n", b"\xef\xbb\xbf", b"\xff")


@pytest.fixture(scope="module")
def valid_checkpoint(fuzz_dir):
    """save_checkpoint's bytes for a dim-2, one-channel model."""
    path = fuzz_dir / "valid.json"
    save_checkpoint(path, CmlaParams.init(dim=2, channels=1, rng=0, layers=1))
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid_payload(valid_checkpoint):
    return json.loads(valid_checkpoint)


@st.composite
def mangled_checkpoint(draw, saved: bytes):
    """`saved` with up to three values respelled. A damaged file may also get
    any of VALUE_EDITS there, up to three edits of its JSON, another encoding
    and up to two byte edits; any other file holds only the respellings that
    still load, `1.50` and `1E5`, so the accepting path is fuzzed as well as
    the rejecting one."""
    payload = json.loads(saved)
    tensors = payload["tensors"]
    damaged = draw(st.booleans())
    respelled = draw(st.lists(st.sampled_from(VALUE_EDITS if damaged else ("1.50", "1E5")), max_size=3))
    for i in range(len(respelled)):   # written into the text below
        values = tensors[draw(st.sampled_from(sorted(tensors)))]["values"]
        values[draw(st.integers(0, len(values) - 1))] = f"EDIT{i}"
    edits = draw(st.lists(st.sampled_from(("header", "drop", "shape", "values", "value", "entry")),
                          max_size=3)) if damaged else []
    for target in edits:
        name = draw(st.sampled_from(sorted(tensors)))
        entry = tensors[name]
        if target == "header":
            payload[draw(st.sampled_from(HEADER_KEYS))] = draw(json_value)
        elif target == "drop":
            payload.pop(draw(st.sampled_from(HEADER_KEYS)), None)
        elif target == "shape" and isinstance(entry, dict):
            entry["shape"] = draw(json_value | st.lists(st.integers(-1, 4), max_size=4))
        elif target == "values" and isinstance(entry, dict):
            entry["values"] = draw(json_value | st.lists(st.floats(), max_size=5))
        elif target == "value" and isinstance(entry, dict) and isinstance(entry.get("values"), list):
            entry["values"].insert(draw(st.integers(0, len(entry["values"]))), draw(json_value))
        else:
            tensors[name] = draw(json_value)
    # sorted keys give save_checkpoint's text back for what was not edited
    text = json.dumps(payload, sort_keys=True, ensure_ascii=draw(st.booleans())) + "\n"
    for i, edit in enumerate(respelled):
        text = text.replace(f'"EDIT{i}"', edit)
    if not damaged:
        return text.encode("utf-8")
    data = text.encode(draw(st.sampled_from(("utf-8", "utf-8-sig", "utf-16", "latin-1"))), errors="replace")
    return mutate(data, draw(st.lists(mutations(CHECKPOINT_PIECES), max_size=2)))


@FUZZ
@given(st.data())
def test_load_checkpoint_mangled(fuzz_dir, valid_checkpoint, data):
    path = fuzz_dir / "mangled.json"
    path.write_bytes(data.draw(mangled_checkpoint(valid_checkpoint)))
    try:
        params = load_checkpoint(path)
    except DataFormatError as exc:
        # one line: the file, a byte inside it and what belongs there
        found = re.fullmatch(rf"{re.escape(str(path))}: byte ([0-9]+): expected "
                             "(?:a header field|a tensor name|a finite float|the tail)", str(exc))
        assert found and int(found[1]) <= path.stat().st_size, str(exc)
        return
    assert {name: t.data.shape for name, t in params.named_tensors().items()} == \
        CmlaParams.shapes(params.dim, params.channels)
    assert params.layers >= 1
    assert all(np.isfinite(t.data).all() for t in params.named_tensors().values())


# a finite float's text as a checkpoint may hold it: a JSON number with a
# fraction or an exponent
JSON_FLOAT = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)")


def reference_load_checkpoint(path) -> CmlaParams:
    """load_checkpoint's rule applied to the whole text at once: after one
    optional byte order mark, the text must be what save_checkpoint writes for
    the header it starts with, except that each values list holds as many
    finite JSON floats of at most FLOAT_TEXT_MAX bytes as its shape."""
    text = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    header = re.match(rb'\{"channels": ([1-9][0-9]{0,17}), "dim": ([1-9][0-9]{0,17}), "format": "[^"]*", '
                      rb'"layers": ([1-9][0-9]{0,17}), ', text)
    if not header:
        raise DataFormatError(f"{path}: no checkpoint header")
    channels, dim, layers = map(int, header.groups())
    shapes = CmlaParams.shapes(dim, channels)
    skeleton = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION, "dim": dim, "channels": channels,
                "layers": layers, "tensors": {name: {"shape": list(shape), "values": "VALUES"}
                                              for name, shape in shapes.items()}}
    pattern = re.escape(json.dumps(skeleton, sort_keys=True) + "\n").replace('"VALUES"', r"\[([^\]]*)\]")
    found = re.fullmatch(pattern.encode(), text)
    if not found:
        raise DataFormatError(f"{path}: not save_checkpoint's text for its header")
    tensors = {}
    for (name, shape), values in zip(sorted(shapes.items()), found.groups()):
        items = values.split(b", ")
        if len(items) != math.prod(shape) or not all(
                JSON_FLOAT.fullmatch(v) and len(v) <= FLOAT_TEXT_MAX and math.isfinite(float(v)) for v in items):
            raise DataFormatError(f"{path}: tensor {name} does not hold {math.prod(shape)} finite floats")
        tensors[name] = Tensor(np.array([float(v) for v in items]).reshape(shape), requires_grad=True)
    return CmlaParams.from_named(tensors, layers)


def tensor_bytes(params: CmlaParams):
    """The layers and every tensor's name, dtype, shape and bytes."""
    return params.layers, [(name, t.data.dtype, t.data.shape, t.data.tobytes())
                           for name, t in params.named_tensors().items()]


def load_outcome(loader, path):
    """The DataFormatError message, or tensor_bytes of what `loader` loads."""
    try:
        params = loader(path)
    except DataFormatError as exc:
        return str(exc)
    return tensor_bytes(params)


def assert_loads_as_reference(path, slice_size):
    """load_checkpoint at LOAD_SLICE `slice_size` gives what it gives at its
    own slice size, and loads what the reference loads, bit for bit."""
    with mock.patch.object(model, "LOAD_SLICE", slice_size):
        outcome = load_outcome(load_checkpoint, path)
    assert outcome == load_outcome(load_checkpoint, path)
    expected = load_outcome(reference_load_checkpoint, path)
    assert outcome == expected or isinstance(outcome, str) and isinstance(expected, str)
    return outcome


def first_difference(a: bytes, b: bytes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


@FUZZ
@given(st.data())
def test_load_checkpoint_matches_reference_loader(fuzz_dir, valid_checkpoint, data):
    path = fuzz_dir / "parity.json"
    path.write_bytes(data.draw(mangled_checkpoint(valid_checkpoint)))
    # short slices put slice ends inside the values
    assert_loads_as_reference(path, data.draw(st.sampled_from((model.LOAD_SLICE, 1, 7, 40))))


def test_mangled_checkpoints_reach_the_accepting_path(fuzz_dir, valid_checkpoint):
    """The strategy draws files that load although their text is not what
    save_checkpoint writes, so the fuzz tests above check the accepting path
    on more than the saved bytes."""
    path, resaved = fuzz_dir / "reached.json", fuzz_dir / "resaved.json"

    def loads_respelled(data):
        path.write_bytes(data)
        try:
            save_checkpoint(resaved, load_checkpoint(path))
        except DataFormatError:
            return False
        return resaved.read_bytes() != data.removeprefix(codecs.BOM_UTF8)

    find(mangled_checkpoint(valid_checkpoint), loads_respelled,
         settings=settings(max_examples=500, database=None, deadline=None))


CHECKPOINT_V1 = Path(__file__).parent / "checkpoint_v1.json"


@pytest.mark.parametrize("source", ["dim-2", "dim-5", "checkpoint_v1"])
def test_own_layout_loads_alike_at_every_slice_size(tmp_path, source):
    path = CHECKPOINT_V1
    if source != "checkpoint_v1":
        dim, channels, layers = (2, 1, 1) if source == "dim-2" else (5, 3, 2)
        params = CmlaParams.init(dim=dim, channels=channels, rng=dim, layers=layers)
        # the shortest and longest float reprs, and a negative zero
        params.aspect.comp.data.flat[:4] = [-0.0, 5e-324, -2.2250738585072014e-308, 1e300]
        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        assert load_outcome(reference_load_checkpoint, path) == tensor_bytes(params)
    for size in range(1, 41):
        assert isinstance(assert_loads_as_reference(path, size), tuple)


# drawn finite floats: subnormals, a negative zero and 17-digit reprs among them
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (-0.0, 5e-324, -2.225073858507201e-308, 0.30000000000000004, -1.7976931348623157e308))


@FUZZ
@given(st.data())
def test_own_layout_checkpoint_matches_reference_loader(fuzz_dir, data):
    params = CmlaParams.init(dim=data.draw(st.integers(2, 5)), channels=data.draw(st.integers(1, 3)),
                             rng=0, layers=data.draw(st.integers(1, 3)))
    pool = data.draw(st.lists(FINITE, min_size=1, max_size=12))
    for t in params.named_tensors().values():
        t.data[...] = np.resize(pool, t.data.shape)
    path = fuzz_dir / "own.json"
    save_checkpoint(path, params)
    edit = data.draw(st.none() | st.sampled_from(VALUE_EDITS))
    if edit is not None:
        payload = json.loads(path.read_text(encoding="utf-8"))
        values = payload["tensors"][data.draw(st.sampled_from(sorted(payload["tensors"])))]["values"]
        values[data.draw(st.integers(0, len(values) - 1))] = "EDIT"
        path.write_text(json.dumps(payload, sort_keys=True).replace('"EDIT"', edit) + "\n", encoding="utf-8")
    outcome = assert_loads_as_reference(path, data.draw(st.sampled_from((model.LOAD_SLICE, 1, 7, 40))))
    # respelled finite floats load; integers, whitespace and non-finite numbers do not
    assert isinstance(outcome, tuple) == (edit in (None, "1.50", "1E5"))
    if edit is None:
        assert outcome == tensor_bytes(params)


@pytest.mark.parametrize(
    "case, first",
    [("integer", 1), ("nan", float("nan")), ("nested list", [0.5]), ("string holding ]", "0.5]"),
     ("whitespace between entries", None), ("trailing data", None), ("missing tail", None),
     ("bom then whitespace", None), ("crlf tail", None), ("non-utf-8 byte in values", None)],
)
def test_departures_from_own_layout_are_parsed_whole(fuzz_dir, valid_payload, case, first):
    # no departure is parsed whole any more: each is named at the first byte
    # (or value) that departs, with the byte order mark counted
    payload = json.loads(json.dumps(valid_payload))
    if first is not None:
        payload["tensors"]["aspect.prototype"]["values"][0] = first
    text = json.dumps(payload, sort_keys=True) + "\n"   # save_checkpoint's layout
    data = {
        "whitespace between entries": text.replace("]}, ", "]},  ", 1),
        "trailing data": text + "{}",
        "missing tail": text[: text.rindex("}}")],
        "bom then whitespace": "\ufeff" + text.replace("]}, ", "]},\n", 1),
        "crlf tail": text[:-1] + "\r\n",
    }.get(case, text).encode("utf-8")
    if case == "non-utf-8 byte in values":
        data = data.replace(b'"values": [', b'"values": [\xff', 1)
    path = fuzz_dir / "departure.json"
    path.write_bytes(data)
    saved = (json.dumps(valid_payload, sort_keys=True) + "\n").encode()
    at = first_difference(data, (codecs.BOM_UTF8 if case == "bom then whitespace" else b"") + saved)
    expected = "the tail" if "tail" in case or case == "trailing data" else \
        "a tensor name" if "whitespace" in case else "a finite float"
    assert load_outcome(load_checkpoint, path) == f"{path}: byte {at}: expected {expected}"
    assert isinstance(load_outcome(reference_load_checkpoint, path), str)


@pytest.mark.parametrize(
    "key, value",
    [("dim", {"values": [0.5, -0.0, 1e-310]}), ("version", {"values": []}),
     ("layers", [{"values": [1, 0.5]}]), ("shape", {"shape": [2], "values": [2.0]})],
)
def test_messages_quote_values_lists_as_written(fuzz_dir, valid_payload, key, value):
    # a header value or a shape that holds a "values" list is no longer quoted:
    # the message names the byte where it starts and what belongs there
    payload = json.loads(json.dumps(valid_payload))
    if key == "shape":
        payload["tensors"]["aspect.prototype"]["shape"] = value
    else:
        payload[key] = value
    path = fuzz_dir / "quoted.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    at = first_difference(path.read_bytes(), json.dumps(valid_payload).encode())
    expected = {"version": "the tail", "shape": "a tensor name"}.get(key, "a header field")
    assert load_outcome(load_checkpoint, path) == f"{path}: byte {at}: expected {expected}"
