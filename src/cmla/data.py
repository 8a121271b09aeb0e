"""Dataset ingestion: review XML, embeddings, opinion lexicon, synthetic fixtures.

Character offsets are 0-based and end-exclusive everywhere. Ingestion
accepts already-normalized text; there is no spell correction here.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .bio import ASPECT, OPINION, Span


class DataFormatError(ValueError):
    """Malformed input file; message carries the offending line where known."""


@contextmanager
def open_text(path):
    """Open `path` for reading as UTF-8; undecodable bytes raise a
    DataFormatError naming the first line that holds them."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise DataFormatError(f"{path}: line {lineno}: not UTF-8 text ({exc.reason})") from None


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


# maximal alnum runs are tokens, every other non-space char stands alone
_TOKEN_RE = re.compile(r"[^\W_]+|\S", re.UNICODE)


def tokenize(text: str) -> list:
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


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
    for elem in tree.getroot().iter("sentence"):
        sid = elem.get("id", "")
        text_elem = elem.find("text")
        if text_elem is None or text_elem.text is None:
            result.diagnostics.append(f"sentence {sid!r}: missing text, skipped")
            result.skipped += 1
            continue
        text = text_elem.text
        tokens = tokenize(text)
        if not tokens:
            result.diagnostics.append(f"sentence {sid!r}: no tokens, skipped")
            result.skipped += 1
            continue

        char_spans = []
        bad_offset = False
        for op in elem.iter("Opinion"):
            target = op.get("target")
            if target is None or target == "NULL":
                continue
            try:
                lo, hi = int(op.get("from")), int(op.get("to"))
            except (TypeError, ValueError):
                result.diagnostics.append(f"sentence {sid!r}: non-numeric from/to, skipped")
                bad_offset = True
                break
            if not (0 <= lo < hi <= len(text)):
                result.diagnostics.append(
                    f"sentence {sid!r}: offsets [{lo}, {hi}) outside text of length {len(text)}, skipped"
                )
                bad_offset = True
                break
            if text[lo:hi] != target:
                result.diagnostics.append(
                    f"sentence {sid!r}: target {target!r} != text slice {text[lo:hi]!r}, span dropped"
                )
                continue
            char_spans.append((lo, hi))
        if bad_offset:
            result.skipped += 1
            continue

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


@dataclass(frozen=True)
class OovPolicy:
    kind: str = ZERO_VECTOR
    buckets: int = 0

    def __post_init__(self):
        if self.kind not in (ZERO_VECTOR, HASH_BUCKET):
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
        return word in self.vectors or word.lower() in self.vectors

    def lookup(self, word: str) -> np.ndarray:
        """Total lookup: exact form, then lowercase, then the OOV policy."""
        vec = self.vectors.get(word)
        if vec is None:
            vec = self.vectors.get(word.lower())
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
    plus dim space-separated reals per line. Duplicate words keep the last
    vector and bump the table's duplicate counter."""
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

        vectors = {}
        duplicates = 0
        count = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(parts) - 1}"
                )
            word = parts[0]
            try:
                vec = np.array(list(map(float, parts[1:])))
            except ValueError:
                raise DataFormatError(f"{path}: line {lineno}: non-numeric value") from None
            if not np.isfinite(vec).all():
                raise DataFormatError(f"{path}: line {lineno}: non-finite value")
            if word in vectors:
                duplicates += 1
            vectors[word] = vec
            count += 1
        if count != vocab_size:
            raise DataFormatError(
                f"{path}: header declares {vocab_size} entries but file has {count}"
            )
    return EmbeddingTable(dim=dim, vectors=vectors, oov=oov, duplicates=duplicates)


def save_embeddings(path, table: EmbeddingTable):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.vectors)} {table.dim}\n")
        for word in sorted(table.vectors):
            values = " ".join(repr(float(v)) for v in table.vectors[word])
            fh.write(f"{word} {values}\n")


def cosine_neighbors(table: EmbeddingTable, word: str, top: int = 5):
    """Top-k cosine neighbors of a vocabulary word, the word itself included."""
    query = table.vectors.get(word, table.vectors.get(word.lower()))
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
    return bool(word) and word == word.lower() and not any(c.isspace() for c in word)


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


@dataclass
class DatasetStats:
    n_sentences: int
    n_tokens: int
    n_aspect_spans: int
    n_opinion_spans: int

    def describe(self) -> str:
        return (
            f"sentences: {self.n_sentences}\n"
            f"tokens: {self.n_tokens}\n"
            f"aspect spans: {self.n_aspect_spans}\n"
            f"opinion spans: {self.n_opinion_spans}"
        )


def dataset_stats(sentences) -> DatasetStats:
    return DatasetStats(
        n_sentences=len(sentences),
        n_tokens=sum(len(s.tokens) for s in sentences),
        n_aspect_spans=sum(len(s.aspect_spans) for s in sentences),
        n_opinion_spans=sum(len(s.opinion_spans) for s in sentences),
    )
