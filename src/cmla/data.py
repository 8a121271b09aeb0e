"""Dataset ingestion: review XML, embeddings, opinion lexicon, synthetic fixtures.

Character offsets are 0-based and end-exclusive everywhere. Ingestion
accepts already-normalized text; there is no spell correction here.
"""

from __future__ import annotations

import codecs
import io
import itertools
import re
import unicodedata
import xml.etree.ElementTree as ET
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .bio import ASPECT, OPINION, Span


class DataFormatError(ValueError):
    """Malformed input file; message carries the offending line where known."""


# the line ends of text mode (universal newlines)
_LINE_END = re.compile(rb"\r\n|\r|\n")


def decode_text(name, raw: bytes) -> str:
    """`raw` as UTF-8 text after one leading byte order mark; undecodable bytes
    raise a DataFormatError naming `name` and the first line that holds them,
    counting lines as text mode does."""
    raw = raw.removeprefix(codecs.BOM_UTF8)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(_LINE_END.findall(raw, 0, exc.start)) + 1
        raise DataFormatError(f"{name}: line {lineno}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def open_text(path):
    """Open `path` for reading as text by decode_text's rule, without reading
    it whole. (The utf-8-sig codec would read a file holding only part of a
    byte order mark as empty text.)"""
    try:
        with open(path, "rb") as raw:
            if raw.peek(len(codecs.BOM_UTF8)).startswith(codecs.BOM_UTF8):
                raw.read(len(codecs.BOM_UTF8))
            with io.TextIOWrapper(raw, encoding="utf-8") as fh:
                yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            decode_text(path, fh.read())   # raises, naming the line
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason}); it changed while it was read") from None


@dataclass(frozen=True)
class Token:
    surface: str
    start: int
    end: int


@dataclass
class Sentence:
    raw_text: str
    tokens: list
    aspect_spans: list
    opinion_spans: list
    source_id: str = ""

    def span_surface(self, span: Span) -> str:
        first, last = self.tokens[span.start], self.tokens[span.end - 1]
        return self.raw_text[first.start : last.end]


# maximal alnum runs are tokens, every other non-space char stands alone,
# except a format character (category Cf: soft hyphen, zero-width space, BOM),
# which is never alnum and so only ever matches alone
_TOKEN_RE = re.compile(r"[^\W_]+|\S", re.UNICODE)


def tokenize(text: str) -> list:
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)
            if unicodedata.category(m.group()[0]) != "Cf"]


def align_spans(char_spans, tokens, kind: str):
    """Map character spans to token spans by range overlap.

    A token belongs to a span iff their character ranges overlap, so a
    span cutting a token in half claims the whole token. Token spans that
    share a token cannot both be tagged: the longest is kept, or the
    earliest of equally long ones. Returns (token spans, diagnostics)
    where diagnostics describe char spans that cover no token or were
    dropped for an overlap.
    """
    origin = {}   # token span -> the first char span that produced it
    problems = []
    for lo, hi in char_spans:
        covered = [i for i, t in enumerate(tokens) if t.start < hi and t.end > lo]
        if not covered:
            problems.append(f"char span [{lo}, {hi}) covers no token")
            continue
        origin.setdefault(Span(covered[0], covered[-1] + 1, kind), (lo, hi))
    kept = []
    for span in sorted(origin, key=lambda s: (s.start - s.end, s.start)):
        clash = next((k for k in kept if k.start < span.end and span.start < k.end), None)
        if clash is None:
            kept.append(span)
        else:
            problems.append(f"char span [{origin[span][0]}, {origin[span][1]}) overlaps "
                            f"[{origin[clash][0]}, {origin[clash][1]}), dropped")
    return sorted(kept), problems


@dataclass
class ParseResult:
    sentences: list
    diagnostics: list = field(default_factory=list)
    skipped: int = 0


def parse_semeval_xml(path) -> ParseResult:
    """Read a review-annotation XML file into sentences with aspect spans.

    Expected layout: Reviews/Review/sentences/sentence, each sentence
    carrying a <text> child and an <Opinions> list whose Opinion elements
    have target/category/polarity/from/to attributes. target="NULL" marks
    an implicit aspect and produces no span. Sentences without tokens or
    with offsets that point outside their text are skipped and counted.
    """
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        line, col = exc.position
        raise DataFormatError(f"{path}: XML parse error at line {line}, column {col}: {exc.msg}") from exc
    except (LookupError, ValueError) as exc:   # a declared encoding expat cannot read
        raise DataFormatError(f"{path}: XML encoding error: {exc}") from None

    result = ParseResult(sentences=[])

    def skip(sid, reason):
        result.diagnostics.append(f"sentence {sid!r}: {reason}, skipped")
        result.skipped += 1

    for elem in tree.getroot().iter("sentence"):
        sid = elem.get("id", "")
        text_elem = elem.find("text")
        if text_elem is None or text_elem.text is None:
            skip(sid, "missing text")
            continue
        text = text_elem.text
        tokens = tokenize(text)
        if not tokens:
            skip(sid, "no tokens")
            continue

        char_spans = []
        for op in elem.iter("Opinion"):
            target = op.get("target")
            if target is None or target == "NULL":
                continue
            try:
                lo, hi = int(op.get("from")), int(op.get("to"))
            except (TypeError, ValueError):
                skip(sid, "non-numeric from/to")
                break
            if not (0 <= lo < hi <= len(text)):
                skip(sid, f"offsets [{lo}, {hi}) outside text of length {len(text)}")
                break
            if text[lo:hi] != target:
                result.diagnostics.append(
                    f"sentence {sid!r}: target {target!r} != text slice {text[lo:hi]!r}, span dropped"
                )
                continue
            char_spans.append((lo, hi))
        else:   # no offset was bad
            spans, problems = align_spans(sorted(set(char_spans)), tokens, ASPECT)
            result.diagnostics.extend(f"sentence {sid!r}: {p}" for p in problems)
            result.sentences.append(
                Sentence(raw_text=text, tokens=tokens, aspect_spans=spans,
                         opinion_spans=[], source_id=sid)
            )
    return result


# ---------------------------------------------------------------------------
# embeddings


ZERO_VECTOR = "zero_vector"
HASH_BUCKET = "hash_bucket"
OOV_KINDS = (ZERO_VECTOR, HASH_BUCKET)


@dataclass(frozen=True)
class OovPolicy:
    kind: str = ZERO_VECTOR
    buckets: int = 0

    def __post_init__(self):
        if self.kind not in OOV_KINDS:
            raise ValueError(f"unknown OOV policy {self.kind!r}")
        if self.kind == HASH_BUCKET and self.buckets <= 0:
            raise ValueError("hash_bucket policy needs a positive bucket count")


@dataclass
class EmbeddingTable:
    dim: int
    vectors: dict
    oov: OovPolicy = OovPolicy()
    duplicates: int = 0

    def __post_init__(self):
        self._bucket_cache = {}

    def __contains__(self, word: str) -> bool:
        return self.find(word) is not None

    def find(self, word: str) -> np.ndarray | None:
        """The vector of the word's exact form, else of its lowercase form, else None."""
        vec = self.vectors.get(word)
        return self.vectors.get(word.lower()) if vec is None else vec

    def lookup(self, word: str) -> np.ndarray:
        """Total lookup: the word's own vector (find), else the OOV policy."""
        vec = self.find(word)
        if vec is not None:
            return vec
        if self.oov.kind == ZERO_VECTOR:
            return np.zeros(self.dim)
        bucket = zlib.crc32(word.lower().encode("utf-8")) % self.oov.buckets
        cached = self._bucket_cache.get(bucket)
        if cached is None:
            gen = np.random.default_rng(1_000_003 + bucket)
            cached = gen.uniform(-0.1, 0.1, size=self.dim)
            self._bucket_cache[bucket] = cached
        return cached


def load_embeddings(path, oov: OovPolicy = OovPolicy()) -> EmbeddingTable:
    """Load the text embedding format: 'vocab dim' header, then one word
    plus dim whitespace-separated reals per line; blank lines are skipped.
    Duplicate words keep the last vector and bump the table's duplicate
    counter.

    All values are parsed in one pass by numpy's C text reader
    (`np.loadtxt`), and each vector is a row view of the resulting array.
    It reads ASCII decimal literals: integers, decimals and exponents with
    an optional sign, and nan/inf/infinity in any case (rejected here as
    non-finite). Unlike Python's `float`, it refuses digit-group
    underscores (`1_0`) and non-ASCII digits. On any fault the file is read
    again line by line with the same reader, so the error names the first
    faulty line.
    """
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

        words = []

        def value_text():   # the text after each word; a word-only line yields nothing
            for line in fh:
                parts = line.split(None, 1)
                if parts:
                    words.append(parts[0])
                    yield from parts[1:]

        rows = value_text()
        first = next(rows, None)   # loadtxt warns on input without data
        try:
            values = np.empty((0, dim)) if first is None else _parse_values(itertools.chain((first,), rows))
        except UnicodeDecodeError:
            raise
        except ValueError:
            values = None
    if values is None or values.shape != (len(words), dim) or not np.isfinite(values).all():
        raise DataFormatError(f"{path}: {_first_faulty_line(path, dim)}")
    if len(words) != vocab_size:
        raise DataFormatError(
            f"{path}: header declares {vocab_size} entries but file has {len(words)}"
        )
    vectors = dict(zip(words, values))
    return EmbeddingTable(dim=dim, vectors=vectors, oov=oov, duplicates=len(words) - len(vectors))


def _parse_values(lines) -> np.ndarray:
    """numpy's C text reader over lines of whitespace-separated reals."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def _first_faulty_line(path, dim: int) -> str:
    """Message for the first entry line of an embedding file whose values
    are miscounted, unparsable or non-finite, each line parsed on its own."""
    with open_text(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                return f"line {lineno}: expected {dim} values, got {len(parts) - 1}"
            try:
                vec = _parse_values([line.split(None, 1)[1]])
            except ValueError:
                return f"line {lineno}: non-numeric value"
            if not np.isfinite(vec).all():
                return f"line {lineno}: non-finite value"
    return "no faulty line on a second read; the file changed while it was loaded"


def save_embeddings(path, table: EmbeddingTable):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.vectors)} {table.dim}\n")
        for word in sorted(table.vectors):
            values = " ".join(repr(float(v)) for v in table.vectors[word])
            fh.write(f"{word} {values}\n")


def cosine_neighbors(table: EmbeddingTable, word: str, top: int = 5):
    """Top-k cosine neighbors of a vocabulary word, the word itself included."""
    query = table.find(word)
    if query is None:
        return None
    qn = float(np.linalg.norm(query))
    scored = []
    for other, vec in table.vectors.items():
        denom = qn * float(np.linalg.norm(vec))
        cos = float(query @ vec) / denom if denom > 0 else 0.0
        scored.append((other, cos))
    scored.sort(key=lambda wc: (-wc[1], wc[0]))
    return scored[:top]


# ---------------------------------------------------------------------------
# opinion lexicon


def _is_lexicon_word(word: str) -> bool:
    # no token holds a format character (Cf), so an entry with one could never match
    return bool(word) and word == word.lower() and not any(
        c.isspace() or unicodedata.category(c) == "Cf" for c in word)


@dataclass(frozen=True)
class OpinionLexicon:
    words: frozenset

    def __post_init__(self):
        bad = [w for w in self.words if not _is_lexicon_word(w)]
        if bad:
            raise ValueError(f"lexicon entries must be lowercase single words, got {bad[:5]}")

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.words


def load_lexicon(path) -> OpinionLexicon:
    """One lowercase word per line; blank lines are ignored."""
    words = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            word = line.strip()
            if not word:
                continue
            if not _is_lexicon_word(word):
                raise DataFormatError(
                    f"{path}: line {lineno}: lexicon entries must be lowercase single words, got {word!r}"
                )
            words.add(word)
    if not words:
        raise DataFormatError(f"{path}: opinion lexicon is empty")
    return OpinionLexicon(frozenset(words))


def save_lexicon(path, lexicon: OpinionLexicon):
    with open(path, "w", encoding="utf-8") as fh:
        for word in sorted(lexicon.words):
            fh.write(word + "\n")


def annotate_opinions(sentences, lexicon: OpinionLexicon) -> list:
    """Mark every token whose lowercase form is in the lexicon as a
    single-token opinion span; existing spans are kept, duplicates dropped."""
    if not lexicon.words:
        raise ValueError("opinion lexicon is empty")
    out = []
    for s in sentences:
        spans = set(s.opinion_spans)
        for i, tok in enumerate(s.tokens):
            if tok.surface in lexicon:
                spans.add(Span(i, i + 1, OPINION))
        out.append(replace(s, opinion_spans=sorted(spans)))
    return out


# ---------------------------------------------------------------------------
# synthetic fixtures


DEFAULT_TEMPLATES = (
    "de ASPECT was OPINION",
    "het ASPECT is OPINION",
    "zeer OPINION ASPECT",
    "ik vond de ASPECT echt OPINION",
    "wat een OPINION ASPECT zeg",
    "de ASPECT en de ASPECT waren OPINION",
)

DEFAULT_ASPECT_WORDS = (
    "ligging", "terras", "dag", "eten", "service", "kamer",
    "tuin", "locatie", "bediening", "uitzicht",
)

DEFAULT_OPINION_WORDS = (
    "goede", "prima", "leuke", "slechte", "mooie", "lekkere", "fijne", "saaie",
)


@dataclass
class SynthConfig:
    n_sentences: int = 20
    seed: int = 42
    dim: int = 12


def showcase_sentences() -> list:
    """Two hand-annotated demo sentences used in reports and fixtures."""
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


def generate_synthetic(cfg: SynthConfig):
    """Deterministic template corpus plus a matching embedding table.

    Every distinct surface form gets its own uniform random vector, so the
    corpus is trivially separable and suitable for overfit tests.
    """
    gen = np.random.default_rng(cfg.seed)
    sentences = showcase_sentences()
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


def write_semeval_xml(path, sentences):
    """Serialize sentences into the review XML layout read back by
    parse_semeval_xml. Aspect spans become Opinion elements with character
    offsets; aspect-free sentences carry a single NULL-target Opinion."""
    root = ET.Element("Reviews")
    review = ET.SubElement(root, "Review", rid="r1")
    container = ET.SubElement(review, "sentences")
    for s in sentences:
        elem = ET.SubElement(container, "sentence", id=s.source_id)
        ET.SubElement(elem, "text").text = s.raw_text
        opinions = ET.SubElement(elem, "Opinions")
        if not s.aspect_spans:
            ET.SubElement(
                opinions, "Opinion",
                target="NULL", category="SYNTH", polarity="neutral",
                attrib={"from": "0", "to": "0"},
            )
        for span in s.aspect_spans:
            lo = s.tokens[span.start].start
            hi = s.tokens[span.end - 1].end
            ET.SubElement(
                opinions, "Opinion",
                target=s.raw_text[lo:hi], category="SYNTH", polarity="neutral",
                attrib={"from": str(lo), "to": str(hi)},
            )
    ET.indent(root)
    ET.ElementTree(root).write(path, encoding="utf-8", xml_declaration=True)

