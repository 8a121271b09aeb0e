"""Seeded input files for the benchmark workloads.

`make_inputs(workload, seed)` builds the workload's corpus, embedding
vectors and opinion lexicon in memory; `write_inputs` turns them into the
files `cmla train` / `cmla eval` read. Run as a script it writes the files
(and, for predict-corpus, trains and saves the checkpoint to evaluate) in
its own process, so the generator's memory never counts towards the
measuring process's peak RSS:

    python3 benchmark/inputs.py --workload train-wide --seed 1 --out DIR

Sentence lengths, span counts and the whitespace-only sentences are fixed
per workload; the seed picks words, vectors and order. So every seed gives
the same amount of work and the same share of failing sentences.
"""

from __future__ import annotations

import argparse
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# every workload trains or loads params drawn from this seed
PARAM_SEED = 7


@dataclass(frozen=True)
class Spec:
    dim: int
    channels: int
    lr: float
    vocab: int = 0          # embedding-file words (pseudo-words), 0 = fixture vocab
    lengths: tuple = ()     # tokens per sentence, final "." included
    blanks: tuple = ()      # (corpus position, whitespace-only text)
    ckpt_lengths: tuple = ()  # sentences the evaluated checkpoint is trained on


SPECS = {
    # the memorisation fixture of acceptance criterion 2: 20 template sentences
    "train-small": Spec(dim=12, channels=4, lr=0.5),
    # dim-100 / 20-channel training, where the bilinear maps dominate a step
    "train-wide": Spec(
        dim=100, channels=20, lr=0.07, vocab=3000,
        lengths=(5, 5, 6, 7, 8, 9, 10, 12, 14, 16, 20, 40),
    ),
    # forward-only eval of a trained dim-100 checkpoint over a held-out corpus
    "predict-corpus": Spec(
        dim=100, channels=20, lr=0.07, vocab=20000,
        lengths=tuple(8 + (22 * i) // 23 for i in range(24)),
        blanks=((4, " "), (13, "   "), (22, "\t ")),
        ckpt_lengths=(8, 12, 16, 20),
    ),
}

OOV_WORDS = 200        # pseudo-words that occur in text but not in the embeddings
LEXICON_WORDS = 60
ASPECT_WORDS = 400
SENTENCES_PER_REVIEW = 8


@dataclass
class Sent:
    """Ground truth for one <sentence>: token surfaces and token spans."""

    sid: str
    text: str
    tokens: list
    aspects: list = field(default_factory=list)   # [(start, end)] token indices
    opinions: list = field(default_factory=list)
    char_aspects: list = field(default_factory=list)  # [(lo, hi)] in text


@dataclass
class Inputs:
    spec: Spec
    vectors: dict    # word -> float64 vector, exactly as written to the file
    corpus: list     # Sent, in file order (whitespace-only ones included)
    lexicon: list    # lowercase opinion words
    ckpt_corpus: list = field(default_factory=list)  # predict-corpus only


def _pseudo_words(gen, count):
    onsets = list("bdfghklmnprstvwz") + ["br", "st", "kr", "pl", "tr", "sch"]
    vowels = ["a", "e", "i", "o", "u", "aa", "ee", "oo", "ui", "ij"]
    codas = ["", "", "n", "r", "s", "t", "k", "l"]
    out, seen = [], set()
    while len(out) < count:
        parts = [onsets[gen.integers(len(onsets))] + vowels[gen.integers(len(vowels))]
                 for _ in range(int(gen.integers(2, 5)))]
        word = "".join(parts) + codas[gen.integers(len(codas))]
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _sentence_from_items(sid, items, capitalise):
    """items: [(kind, [words])] with kind in aspect/opinion/filler; adds '.'."""
    tokens, aspects, opinions = [], [], []
    for kind, words in items:
        start = len(tokens)
        tokens.extend(words)
        if kind == "aspect":
            aspects.append((start, len(tokens)))
        elif kind == "opinion":
            opinions.append((start, len(tokens)))
    if capitalise:
        tokens[0] = tokens[0].capitalize()
    offsets, text = [], ""
    for i, tok in enumerate(tokens):
        if i:
            text += " "
        offsets.append(len(text))
        text += tok
    tokens.append(".")
    text += "."
    char_aspects = [(offsets[s], offsets[e - 1] + len(tokens[e - 1])) for s, e in aspects]
    return Sent(sid, text, tokens, aspects, opinions, char_aspects)


def _pseudo_corpus(gen, lengths, pools, prefix):
    lexicon, aspect_pool, fillers, oov = pools
    out = []
    for n in lengths:
        slots = n - 1
        items = []
        for _ in range(1 + slots // 12):
            width = int(gen.choice([1, 2, 3], p=[0.5, 0.3, 0.2]))
            items.append(("aspect", [aspect_pool[gen.integers(len(aspect_pool))]
                                     for _ in range(width)]))
        for _ in range(1 + slots // 15):
            items.append(("opinion", [lexicon[gen.integers(len(lexicon))]]))
        # at most 3 + slots/4 aspect and 1 + slots/15 opinion tokens: they fit
        # in every length >= 5
        for _ in range(slots - sum(len(w) for _, w in items)):
            pool = oov if gen.random() < 0.05 else fillers
            items.append(("filler", [pool[gen.integers(len(pool))]]))
        order = gen.permutation(len(items))
        items = [items[i] for i in order]
        out.append(_sentence_from_items(f"{prefix}{len(out)}", items, gen.random() < 0.3))
    return out


def _fixture_corpus(gen):
    """Criterion 2's fixture with a fixed template mix: the two showcase
    sentences plus each template three times, slots filled by the seed."""
    from cmla.data import (DEFAULT_ASPECT_WORDS, DEFAULT_OPINION_WORDS,
                           DEFAULT_TEMPLATES, showcase_sentences)

    out = []
    for s in showcase_sentences():
        aspects = [(sp.start, sp.end) for sp in s.aspect_spans]
        out.append(Sent(s.source_id, s.raw_text, [t.surface for t in s.tokens], aspects,
                        [(sp.start, sp.end) for sp in s.opinion_spans],
                        [(s.tokens[a].start, s.tokens[b - 1].end) for a, b in aspects]))
    templates = [t for t in DEFAULT_TEMPLATES for _ in range(3)]
    for i in gen.permutation(len(templates)):
        words, aspects, opinions = [], [], []
        for slot in templates[i].split():
            if slot == "ASPECT":
                aspects.append((len(words), len(words) + 1))
                slot = DEFAULT_ASPECT_WORDS[gen.integers(len(DEFAULT_ASPECT_WORDS))]
            elif slot == "OPINION":
                opinions.append((len(words), len(words) + 1))
                slot = DEFAULT_OPINION_WORDS[gen.integers(len(DEFAULT_OPINION_WORDS))]
            words.append(slot)
        text = " ".join(words)
        starts = np.cumsum([0] + [len(w) + 1 for w in words])
        out.append(Sent(f"synth-{len(out)}", text, words, aspects, opinions,
                        [(int(starts[a]), int(starts[a]) + len(words[a])) for a, _ in aspects]))
    vocab = sorted({t for s in out for t in s.tokens})
    vectors = {w: gen.uniform(-1.0, 1.0, size=12) for w in vocab}
    return out, vectors, sorted(DEFAULT_OPINION_WORDS)


def make_inputs(workload: str, seed: int) -> Inputs:
    spec = SPECS[workload]
    gen = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    if workload == "train-small":
        corpus, vectors, lexicon = _fixture_corpus(gen)
        return Inputs(spec, vectors, corpus, lexicon)

    words = _pseudo_words(gen, spec.vocab + OOV_WORDS)
    vocab, oov = words[: spec.vocab], words[spec.vocab:]
    lexicon = vocab[:LEXICON_WORDS]
    aspect_pool = vocab[LEXICON_WORDS: LEXICON_WORDS + ASPECT_WORDS]
    pools = (lexicon, aspect_pool, vocab[LEXICON_WORDS + ASPECT_WORDS:], oov)
    # six-decimal values, as text embedding files usually carry
    grid = gen.integers(-500_000, 500_001, size=(spec.vocab, spec.dim))
    vectors = {w: grid[i] / 1e6 for i, w in enumerate(vocab)}
    order = gen.permutation(len(spec.lengths))
    corpus = _pseudo_corpus(gen, [spec.lengths[i] for i in order], pools, "s")
    for pos, text in spec.blanks:
        corpus.insert(pos, Sent(f"blank-{pos}", text, []))
    ckpt_corpus = _pseudo_corpus(gen, spec.ckpt_lengths, pools, "fit-")
    return Inputs(spec, vectors, corpus, sorted(lexicon), ckpt_corpus)


def corpus_ids(workload: str) -> list:
    """Ids of every <sentence> in the workload's corpus file, in file order."""
    spec = SPECS[workload]
    ids = [f"s{i}" for i in range(len(spec.lengths))]
    for pos, _ in spec.blanks:
        ids.insert(pos, f"blank-{pos}")
    return ids


# ---------------------------------------------------------------------------
# files


@dataclass(frozen=True)
class Files:
    embeddings: Path
    corpus: Path
    lexicon: Path
    checkpoint: Path   # predict-corpus: the model to evaluate
    arrays: Path       # the same parameters as .npz, to check the reload against

    @classmethod
    def under(cls, d: Path) -> "Files":
        return cls(d / "embeddings.txt", d / "corpus.xml", d / "lexicon.txt",
                   d / "checkpoint.json", d / "checkpoint_arrays.npz")


def write_inputs(inputs: Inputs, files: Files):
    with open(files.embeddings, "w", encoding="utf-8") as fh:
        fh.write(f"{len(inputs.vectors)} {inputs.spec.dim}\n")
        for word, vec in inputs.vectors.items():
            fh.write(word + " " + " ".join(map(repr, vec.tolist())) + "\n")
    with open(files.lexicon, "w", encoding="utf-8") as fh:
        fh.writelines(w + "\n" for w in inputs.lexicon)
    root = ET.Element("Reviews")
    for i, s in enumerate(inputs.corpus):
        if i % SENTENCES_PER_REVIEW == 0:
            review = ET.SubElement(root, "Review", rid=f"r{i // SENTENCES_PER_REVIEW}")
            container = ET.SubElement(review, "sentences")
        elem = ET.SubElement(container, "sentence", id=s.sid)
        ET.SubElement(elem, "text").text = s.text
        opinions = ET.SubElement(elem, "Opinions")
        targets = [(s.text[lo:hi], str(lo), str(hi)) for lo, hi in s.char_aspects]
        for target, lo, hi in targets or [("NULL", "0", "0")]:
            ET.SubElement(opinions, "Opinion", target=target, category="FOOD#QUALITY",
                          polarity="positive", attrib={"from": lo, "to": hi})
    ET.ElementTree(root).write(files.corpus, encoding="utf-8", xml_declaration=True)


def as_sentences(sents):
    """Ground-truth Sent records as the library's Sentence objects."""
    from cmla.bio import ASPECT, OPINION, Span
    from cmla.data import Sentence, tokenize

    return [Sentence(raw_text=s.text, tokens=tokenize(s.text),
                     aspect_spans=[Span(a, b, ASPECT) for a, b in s.aspects],
                     opinion_spans=[Span(a, b, OPINION) for a, b in s.opinions],
                     source_id=s.sid) for s in sents]


def write_checkpoint(inputs: Inputs, files: Files, tracer=None):
    """Train the model predict-corpus evaluates: one epoch over its own
    sentences, then save it (and its arrays, for the bitwise reload check)."""
    from cmla.data import EmbeddingTable
    from cmla.model import CmlaParams, TrainConfig, save_checkpoint, train

    spec = inputs.spec
    table = EmbeddingTable(dim=spec.dim, vectors=inputs.vectors)
    sentences = as_sentences(inputs.ckpt_corpus)
    params = CmlaParams.init(dim=spec.dim, channels=spec.channels, rng=PARAM_SEED)
    if tracer is not None:
        tracer.register(params)
    tokens = sum(len(s.tokens) for s in sentences)
    for i, s in enumerate(sentences):
        with _span(tracer, "model.train", len(s.tokens), 1):
            train([s], table, params, TrainConfig(lr=spec.lr, epochs=1, seed=i))
    with _span(tracer, "model.save_checkpoint"):
        save_checkpoint(files.checkpoint, params)
    np.savez(files.arrays, **{k: t.data for k, t in params.named_tensors().items()})
    return tokens


def _span(tracer, name, tokens=0, sentences=0):
    from tracing import NO_SPAN

    return NO_SPAN if tracer is None else tracer.span(name, tokens, sentences)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace-out", type=Path, default=None,
                    help="trace the checkpoint's training and write its spans here")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    inputs = make_inputs(args.workload, args.seed)
    files = Files.under(args.out)
    write_inputs(inputs, files)
    if inputs.ckpt_corpus:
        tracer = None
        if args.trace_out is not None:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            write_checkpoint(inputs, files, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
