"""Fuzz the corpus and checkpoint loaders.

Every input, however mangled, must either load into something the model
can use or raise DataFormatError; any other exception is a bug.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmla.bio import ASPECT, spans_to_labels
from cmla.data import DataFormatError, parse_semeval_xml
from cmla.model import CmlaParams, load_checkpoint, save_checkpoint

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

mutation = st.tuples(
    st.sampled_from(("delete", "insert", "replace", "splice", "truncate")),
    st.integers(min_value=0), st.binary(max_size=8), st.sampled_from(XML_PIECES),
)


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
    assert all(np.isfinite(t.data).all() for t in params.all_tensors())
