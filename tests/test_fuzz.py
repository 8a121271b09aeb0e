"""Fuzz the corpus, lexicon, embedding and checkpoint loaders, and the
CLI's --config file.

Every input, however mangled, must either load into something the model
can use or raise DataFormatError; any other exception is a bug. A config
file must end the command with exit 0, or exit 1 or 2 and one stderr line.
"""

import contextlib
import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmla import cli
from cmla.bio import ASPECT, spans_to_labels
from cmla.autodiff import Tensor
from cmla.data import (
    DataFormatError,
    _is_lexicon_word,
    load_embeddings,
    load_lexicon,
    open_text,
    parse_semeval_xml,
)
from cmla.model import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
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


# --- checkpoints -------------------------------------------------------------

json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    | st.sampled_from((0, 1, 2, 3, -1, 10**400)) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
HEADER_KEYS = ("format", "version", "dim", "channels", "layers", "tensors")


@pytest.fixture(scope="module")
def valid_payload(fuzz_dir):
    path = fuzz_dir / "valid.json"
    save_checkpoint(path, CmlaParams.init(dim=2, channels=1, rng=0, layers=1))
    return json.loads(path.read_text(encoding="utf-8"))


@st.composite
def mangled_checkpoint(draw, payload):
    payload = json.loads(json.dumps(payload))
    tensors = payload["tensors"]
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(("header", "drop", "shape", "values", "value", "entry")))
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
    text = json.dumps(payload, ensure_ascii=draw(st.booleans()))
    encoding = draw(st.sampled_from(("utf-8", "utf-8-sig", "utf-16", "latin-1")))
    data = text.encode(encoding, errors="replace")
    return mutate(data, draw(st.lists(mutation, max_size=2)))


@FUZZ
@given(st.data())
def test_load_checkpoint_mangled(fuzz_dir, valid_payload, data):
    path = fuzz_dir / "mangled.json"
    path.write_bytes(data.draw(mangled_checkpoint(valid_payload)))
    try:
        params = load_checkpoint(path)
    except DataFormatError:
        return
    assert {name: t.data.shape for name, t in params.named_tensors().items()} == \
        CmlaParams.shapes(params.dim, params.channels)
    assert params.layers >= 1
    assert all(np.isfinite(t.data).all() for t in params.named_tensors().values())


def reference_load_checkpoint(path) -> CmlaParams:
    """load_checkpoint as it was before the values were read into arrays during
    the parse: every tensor's Python floats alive until the whole text is parsed."""
    try:
        with open_text(path) as fh:
            payload = json.load(fh)
    except DataFormatError:
        raise
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version = payload.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version!r}")
    header = [payload.get(key) for key in ("dim", "channels", "layers")]
    if not all(type(v) is int and v >= 1 for v in header):
        raise DataFormatError(f"{path}: malformed checkpoint: dim, channels and layers "
                              f"must be positive integers, got {header}")
    dim, channels, layers = header
    stored = payload.get("tensors")
    if not isinstance(stored, dict):
        raise DataFormatError(f"{path}: malformed checkpoint: tensors is not an object")
    shapes = CmlaParams.shapes(dim, channels)
    missing = sorted(set(shapes) - set(stored))
    extra = sorted(set(stored) - set(shapes))
    if missing or extra:
        raise DataFormatError(f"{path}: tensor names mismatch (missing {missing}, extra {extra})")
    tensors = {}
    for name, shape in shapes.items():
        entry = stored[name]
        if not isinstance(entry, dict) or "shape" not in entry or "values" not in entry:
            raise DataFormatError(f"{path}: tensor {name} is not an object with shape and values")
        dims, raw = entry["shape"], entry["values"]
        if not isinstance(dims, list) or any(type(d) is not int for d in dims) or dims != list(shape):
            raise DataFormatError(f"{path}: tensor {name} has shape {dims!r}, expected {list(shape)}")
        values = np.array(raw) if isinstance(raw, list) and set(map(type, raw)) <= {int, float} else None
        if values is None or values.dtype.kind not in "if" or not np.isfinite(values).all():
            raise DataFormatError(f"{path}: tensor {name} values are not a list of finite numbers")
        if values.size != np.prod(shape):
            raise DataFormatError(f"{path}: tensor {name} has {values.size} values")
        tensors[name] = Tensor(values.reshape(shape), requires_grad=True)
    return CmlaParams.from_named(tensors, layers)


def load_outcome(loader, path):
    """The DataFormatError message, or the layers and every tensor's bytes."""
    try:
        params = loader(path)
    except DataFormatError as exc:
        return str(exc)
    return params.layers, [(name, t.data.dtype, t.data.shape, t.data.tobytes())
                           for name, t in params.named_tensors().items()]


@FUZZ
@given(st.data())
def test_load_checkpoint_matches_reference_loader(fuzz_dir, valid_payload, data):
    path = fuzz_dir / "parity.json"
    path.write_bytes(data.draw(mangled_checkpoint(valid_payload)))
    assert load_outcome(load_checkpoint, path) == load_outcome(reference_load_checkpoint, path)


@pytest.mark.parametrize(
    "key, value",
    [("dim", {"values": [0.5, -0.0, 1e-310]}), ("version", {"values": []}),
     ("layers", [{"values": [1, 0.5]}]), ("shape", {"shape": [2], "values": [2.0]})],
)
def test_messages_quote_values_lists_as_written(fuzz_dir, valid_payload, key, value):
    # a "values" list of floats is an array once parsed; a message quoting it shows the list
    payload = json.loads(json.dumps(valid_payload))
    if key == "shape":
        payload["tensors"]["aspect.prototype"]["shape"] = value
    else:
        payload[key] = value
    path = fuzz_dir / "quoted.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    message = load_outcome(load_checkpoint, path)
    assert repr(value) in message
    assert message == load_outcome(reference_load_checkpoint, path)
