"""Memorize the bundled synthetic corpus and show what the model learned.

Runs the whole pipeline in-process: synthesize sentences, train until the
loss flattens, score both heads, then print per-token attention tables for
the two showcase sentences. Useful as a smoke test and as a worked example
of the library API.

    python3 scripts/overfit_demo.py --epochs 100 --lr 0.5
"""

import argparse
import time

from cmla.data import SynthConfig, generate_synthetic
from cmla.evaluation import attention_tsv, metrics_table, score_corpus
from cmla.model import CmlaParams, TrainConfig, predict, train


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sentences", type=int, default=20)
    ap.add_argument("--corpus-seed", type=int, default=42)
    ap.add_argument("--dim", type=int, default=12)
    ap.add_argument("--channels", type=int, default=4)
    ap.add_argument("--layers", type=int, default=2)
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--lr", type=float, default=0.5)
    ap.add_argument("--param-seed", type=int, default=7)
    ap.add_argument("--shuffle-seed", type=int, default=0)
    args = ap.parse_args()

    cfg = SynthConfig(n_sentences=args.sentences, seed=args.corpus_seed, dim=args.dim)
    sentences, table = generate_synthetic(cfg)
    print(f"corpus: {len(sentences)} sentences, embedding dim {table.dim}")

    params = CmlaParams.init(
        dim=table.dim, channels=args.channels, rng=args.param_seed, layers=args.layers
    )
    t0 = time.perf_counter()
    trace = train(
        sentences, table, params,
        TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.shuffle_seed),
    )
    print(f"trained {args.epochs} epochs in {time.perf_counter() - t0:.1f}s, "
          f"loss {trace[0]:.4f} -> {trace[-1]:.4f}")
    print()
    print(metrics_table(score_corpus(params, table, sentences)))

    for sentence in sentences:
        if not sentence.source_id.startswith("showcase"):
            continue
        pred = predict(sentence, table, params)
        print()
        print(f"{sentence.source_id}: {sentence.raw_text}")
        print(f"  merged tags: {' '.join(pred.merged)}")
        print(attention_tsv(sentence, pred), end="")


if __name__ == "__main__":
    main()
