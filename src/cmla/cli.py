"""Command-line front end.

Subcommands: synth (write a deterministic fixture corpus), train, eval,
predict, inspect. Options come from flags or an optional flat key=value
config file; flags win. Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric failure during training. Diagnostics go to stderr,
results to stdout or the declared output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

import numpy as np

from .bio import HEADS
from .data import (
    DataFormatError,
    DEFAULT_OPINION_WORDS,
    OOV_KINDS,
    OovPolicy,
    OpinionLexicon,
    Sentence,
    SynthConfig,
    annotate_opinions,
    cosine_neighbors,
    decode_text,
    generate_synthetic,
    load_embeddings,
    load_lexicon,
    open_text,
    parse_semeval_xml,
    save_embeddings,
    save_lexicon,
    tokenize,
    write_semeval_xml,
)
from .evaluation import attention_tsv, metrics_table, metrics_tsv, score_corpus
from .model import (
    CmlaParams,
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# dest -> (converter, default, help); a None default means the option must
# come from a flag or the config file, with a value that is not empty
_SCHEMAS = {
    "synth": {
        "out": (str, None, "directory for corpus.xml, embeddings.txt, lexicon.txt"),
        "sentences": (int, 20, "corpus size"),
        "seed": (int, 42, "generator seed"),
        "dim": (int, 12, "embedding dimension"),
    },
    "train": {
        "data": (str, None, "review XML file"),
        "embeddings": (str, None, "embedding text file"),
        "lexicon": (str, None, "opinion word list, one per line"),
        "out": (str, None, "directory for checkpoint.json and loss_trace.txt"),
        "channels": (int, 20, "composition channels per head"),
        "layers": (int, 2, "attention layers"),
        "lr": (float, 0.07, "SGD learning rate"),
        "epochs": (int, 100, "training epochs"),
        "clip": (float, 5.0, "global gradient-norm clip threshold"),
        "seed": (int, 0, "seed for parameter init and epoch shuffling"),
        "init_scale": (float, 0.2, "uniform init half-width for weights"),
        "exclude_source": (str, "", "drop sentences whose id contains this substring"),
        "oov": (str, "zero_vector", "OOV policy: zero_vector or hash_bucket"),
        "buckets": (int, 100, "bucket count for the hash_bucket policy"),
    },
    "eval": {
        "data": (str, None, "review XML file with gold annotations"),
        "embeddings": (str, None, "embedding text file"),
        "lexicon": (str, None, "opinion word list"),
        "checkpoint": (str, None, "trained checkpoint.json"),
        "out": (str, "", "also write the metrics as TSV to this file"),
        "exclude_source": (str, "", "drop sentences whose id contains this substring"),
        "oov": (str, "zero_vector", "OOV policy: zero_vector or hash_bucket"),
        "buckets": (int, 100, "bucket count for the hash_bucket policy"),
    },
    "predict": {
        "checkpoint": (str, None, "trained checkpoint.json"),
        "embeddings": (str, None, "embedding text file"),
        "input": (str, "", "sentence file, one per line (default: stdin)"),
        "oov": (str, "zero_vector", "OOV policy: zero_vector or hash_bucket"),
        "buckets": (int, 100, "bucket count for the hash_bucket policy"),
    },
    "inspect": {
        "embeddings": (str, None, "embedding text file"),
        "top": (int, 5, "neighbors per query word"),
    },
}

_INPUT_PATH_KEYS = ("data", "embeddings", "lexicon", "checkpoint", "input")

# option -> the values it accepts, checked before any file is read or
# written; `not test(v)` rejects NaN as well
_RANGES = {
    " or ".join(OOV_KINDS): (lambda v: v in OOV_KINDS, ("oov",)),
    "positive": (lambda v: v > 0, ("clip", "channels", "layers", "buckets", "sentences", "dim")),
    "positive and finite": (lambda v: 0 < v < float("inf"), ("lr",)),
    # init_uniform draws from [-v, v], whose width 2 v must be finite
    f"positive and at most {sys.float_info.max / 2!r}": (
        lambda v: 0 < v <= sys.float_info.max / 2, ("init_scale",)),
    "nonnegative": (lambda v: v >= 0, ("epochs", "seed", "top")),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmla", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key=value option file")
        for dest, (conv, _default, help_text) in schema.items():
            p.add_argument(
                "--" + dest.replace("_", "-"),
                dest=dest, type=conv, default=None, help=help_text,
            )
        if command == "inspect":
            p.add_argument("words", nargs="*", help="query words")
    return parser


def _read_config_file(path, schema) -> dict:
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    values = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise UsageError(f"{path}: line {lineno}: expected key = value")
            key, _, raw = text.partition("=")
            key = key.strip().replace("-", "_")
            if key not in schema:
                raise UsageError(f"{path}: line {lineno}: unknown option {key!r}")
            conv = schema[key][0]
            try:
                values[key] = conv(raw.strip())
            except ValueError:
                raise UsageError(
                    f"{path}: line {lineno}: bad value for {key!r}: {raw.strip()!r}"
                ) from None
    return values


def _merge_options(args, schema) -> dict:
    file_values = _read_config_file(args.config, schema) if args.config is not None else {}
    merged = {}
    missing = []
    for dest, (_conv, default, _help) in schema.items():
        flag = getattr(args, dest)
        value = flag if flag is not None else file_values.get(dest, default)
        if default is None and value in (None, ""):
            missing.append("--" + dest.replace("_", "-"))
        merged[dest] = value
    if missing:
        raise UsageError(f"missing required options: {', '.join(missing)}")
    for need, (test, keys) in _RANGES.items():
        for key in keys:
            if key in merged and not test(merged[key]):
                raise UsageError(f"--{key.replace('_', '-')} must be {need}, got {merged[key]!r}")
    for key in _INPUT_PATH_KEYS:
        path = merged.get(key)
        if path and not os.path.isfile(path):
            raise UsageError(f"{key} file not found: {path}")
    return merged


def _load_corpus(cfg):
    """Parse, filter and opinion-annotate the XML corpus named in cfg."""
    result = parse_semeval_xml(cfg["data"])
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    if result.skipped:
        print(f"skipped {result.skipped} sentence(s), see above", file=sys.stderr)
    sentences = result.sentences
    if cfg["exclude_source"]:
        before = len(sentences)
        sentences = [s for s in sentences if cfg["exclude_source"] not in s.source_id]
        print(f"excluded {before - len(sentences)} sentence(s) by source filter", file=sys.stderr)
    if not sentences:
        raise ValueError("no sentences left after parsing and filtering")
    lexicon = load_lexicon(cfg["lexicon"])
    return annotate_opinions(sentences, lexicon)


def _cmd_synth(cfg) -> int:
    os.makedirs(cfg["out"], exist_ok=True)
    synth_cfg = SynthConfig(n_sentences=cfg["sentences"], seed=cfg["seed"], dim=cfg["dim"])
    sentences, table = generate_synthetic(synth_cfg)
    write_semeval_xml(os.path.join(cfg["out"], "corpus.xml"), sentences)
    save_embeddings(os.path.join(cfg["out"], "embeddings.txt"), table)
    save_lexicon(
        os.path.join(cfg["out"], "lexicon.txt"),
        OpinionLexicon(frozenset(DEFAULT_OPINION_WORDS)),
    )
    print(f"sentences: {len(sentences)}")
    print(f"tokens: {sum(len(s.tokens) for s in sentences)}")
    print(f"aspect spans: {sum(len(s.aspect_spans) for s in sentences)}")
    print(f"opinion spans: {sum(len(s.opinion_spans) for s in sentences)}")
    print(f"wrote corpus.xml, embeddings.txt, lexicon.txt to {cfg['out']}")
    return 0


def _cmd_train(cfg) -> int:
    os.makedirs(cfg["out"], exist_ok=True)
    table = load_embeddings(cfg["embeddings"], oov=OovPolicy(cfg["oov"], buckets=cfg["buckets"]))
    sentences = _load_corpus(cfg)
    params = CmlaParams.init(
        dim=table.dim, channels=cfg["channels"], rng=cfg["seed"],
        layers=cfg["layers"], init_scale=cfg["init_scale"],
    )
    trace = train(
        sentences, table, params,
        TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], clip=cfg["clip"], seed=cfg["seed"]),
    )
    save_checkpoint(os.path.join(cfg["out"], "checkpoint.json"), params)
    with open(os.path.join(cfg["out"], "loss_trace.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(repr(v) + "\n" for v in trace)
    if trace:
        print(f"trained {cfg['epochs']} epochs, final mean loss {trace[-1]:.6f}")
    print(f"wrote checkpoint.json and loss_trace.txt to {cfg['out']}")
    return 0


def _load_model(cfg):
    table = load_embeddings(cfg["embeddings"], oov=OovPolicy(cfg["oov"], buckets=cfg["buckets"]))
    params = load_checkpoint(cfg["checkpoint"])
    if params.dim != table.dim:
        raise DataFormatError(f"{cfg['checkpoint']}: checkpoint dimension {params.dim} != "
                              f"dimension {table.dim} of embeddings {cfg['embeddings']}")
    return table, params


@contextlib.contextmanager
def _checkpoint_overflow(cfg):
    """Report a forward pass that overflows as a fault of the checkpoint."""
    try:
        yield
    except FloatingPointError as exc:
        raise DataFormatError(f"{cfg['checkpoint']}: {exc}") from None


def _cmd_eval(cfg) -> int:
    table, params = _load_model(cfg)
    sentences = _load_corpus(cfg)
    with _checkpoint_overflow(cfg):
        report = score_corpus(params, table, sentences)
    sys.stdout.write(metrics_table(report))
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(metrics_tsv(report))
        print(f"wrote {cfg['out']}")
    return 0


def _cmd_predict(cfg) -> int:
    table, params = _load_model(cfg)
    source = open(cfg["input"], "rb") if cfg["input"] else contextlib.nullcontext(sys.stdin.buffer)
    with source as fh:   # split as open() splits a file's lines
        lines = io.StringIO(decode_text(cfg["input"] or "<stdin>", fh.read()), newline=None).readlines()

    n = 0
    for raw in lines:
        text = raw.strip()
        tokens = tokenize(text)
        if not tokens:   # blank, or format characters only
            continue
        n += 1
        sentence = Sentence(
            raw_text=text, tokens=tokens,
            aspect_spans=[], opinion_spans=[], source_id=f"input-{n}",
        )
        with _checkpoint_overflow(cfg):
            pred = predict(sentence, table, params)
        print(f"sentence {n}: {text}")
        for head in HEADS:
            shown = "; ".join(
                f"[{s.start},{s.end}) {sentence.span_surface(s)!r}" for s in getattr(pred, f"{head}_spans")
            )
            print(f"  {head} spans: {shown if shown else '(none)'}")
        print(f"  merged tags: {' '.join(pred.merged)}")
        sys.stdout.write(attention_tsv(sentence, pred))
        print()
    if n == 0:
        print("no sentences on input", file=sys.stderr)
    return 0


def _cmd_inspect(cfg, words) -> int:
    table = load_embeddings(cfg["embeddings"])
    print(f"vocabulary: {len(table.vectors)} words, dimension {table.dim}")
    if table.duplicates:
        print(f"duplicate entries replaced while loading: {table.duplicates}")
    if not words:
        return 0
    found = [w for w in words if w in table]
    print(f"query coverage: {len(found)}/{len(words)} ({100.0 * len(found) / len(words):.1f}%)")
    for word in words:
        if word not in table:
            print(f"{word}: OOV")
            continue
        vec = table.lookup(word)
        print(f"{word}: norm {float(np.linalg.norm(vec)):.4f}")
        for neighbor, cos in cosine_neighbors(table, word, top=cfg["top"]):
            print(f"  {neighbor}\t{cos:.4f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (synth/train/eval/predict/inspect)")
        cfg = _merge_options(args, _SCHEMAS[args.command])
        if args.command == "synth":
            return _cmd_synth(cfg)
        if args.command == "train":
            return _cmd_train(cfg)
        if args.command == "eval":
            return _cmd_eval(cfg)
        if args.command == "predict":
            return _cmd_predict(cfg)
        return _cmd_inspect(cfg, args.words)
    except UsageError as exc:
        error, code = exc, 1
    except TrainingDiverged as exc:
        error, code = exc, 3
    except (DataFormatError, ValueError, OSError) as exc:
        error, code = exc, 2
    # one line: every unprintable character (\n, \x00, \x1b, ...) in its escaped form
    print("cmla: " + "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(error)), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
