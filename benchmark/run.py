"""Run one benchmark workload and print its result as one JSON line.

    python3 benchmark/run.py --workload train-small --seed 1 --seconds 35 --trace 0

Workloads (inputs are made from --seed by inputs.py):
  train-small     SGD on criterion 2's 20-sentence fixture until memorised
  train-wide      SGD at dim 100 / 20 channels on 5-40-token sentences
  predict-corpus  load a dim-100 checkpoint and predict a 27-sentence corpus

One process, one caller, a closed loop over the library's public API: each
operation (one SGD step through `train`, or one `predict` call) starts
when the previous one returned. Operations run in whole rounds (an epoch,
or a pass over the corpus) until --seconds have passed and at least
MIN_ROUNDS rounds ran, so every operation is repeated.

Each operation's time is the fastest of its repetitions in the run: on a
shared host the same code runs up to 2x slower for stretches of seconds,
and the fastest repetition is the figure that holds still. tok_per_s and
the op_ms percentiles are taken over those per-operation times.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics instead: every other round runs with the tracer's hooks installed,
and the untraced rounds give trace.overhead_pct. Every run checks the
program's outputs against oracle.py and the generated inputs, writes a
record to benchmark/out/, and prints the result as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

if not (ROOT / "src" / "cmla" / "__init__.py").is_file():
    sys.exit(f"benchmark: no cmla sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from cmla.autodiff import backward  # noqa: E402
from cmla.data import annotate_opinions, load_embeddings, load_lexicon, parse_semeval_xml  # noqa: E402
from cmla.evaluation import score_chunks  # noqa: E402
from cmla.model import (CmlaParams, Prediction, TrainConfig, load_checkpoint,  # noqa: E402
                        predict, save_checkpoint, sentence_loss, train)

MIN_ROUNDS = 5
FIXTURE_EPOCHS = 100         # criterion 2 trains the fixture this long
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0
TOL = 1e-9                   # program vs oracle, relative to max(1, |oracle|)
# directional central difference vs backward: relative tolerance, plus an
# absolute one above the difference's rounding noise (~1e-11 at step 1e-5)
FD_EPS, FD_TOL, FD_ABS = 1e-5, 1e-6, 1e-9
CHECKED_SENTENCES = 3        # sampled for the loss and initial-output checks
F1_MIN = 95.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "tok_per_s": "tokens/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}


class CheckFailed(Exception):
    pass


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(a, b):
    """Elementwise |a - b| <= TOL * max(1, |b|)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b))))


def repeat(setup):
    """Set up SETUP_MIN times, then on until SETUP_BUDGET_S or SETUP_MAX;
    returns (seconds per call, last result)."""
    times, result = [], None
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        result = None          # let the previous result go before the next call
        t = perf_counter()
        result = setup()
        times.append(perf_counter() - t)
    return times, result


# ---------------------------------------------------------------------------
# the run's state, set-up and loop


class Run:
    """State of one workload run: its inputs, its tracer and its counters."""

    def __init__(self, workload, seed, seconds, traced, work_dir):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.spec = inputs.SPECS[workload]
        self.tracer = tracing.Tracer() if traced else None
        self.files = inputs.Files.under(work_dir)
        self.attempted = self.failed = 0
        self.best, self.op_tokens = {}, {}   # operation key -> fastest seconds, tokens
        self.timed_ops = 0
        self.traced_rounds, self.untraced_rounds = [], []   # seconds per token
        self.trace_windows, self.details = [], {}   # traced rounds: (first span, end, wall)

    def span(self, name, tokens=0, sentences=0):
        return tracing.NO_SPAN if self.tracer is None else self.tracer.span(name, tokens, sentences)

    def hooks(self, on):
        if self.tracer is not None:
            (self.tracer.install if on else self.tracer.uninstall)()

    def generate(self):
        cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(self.files.corpus.parent)]
        spans_file = self.files.corpus.parent / "generate_spans.json"
        if self.tracer is not None:
            cmd += ["--trace-out", str(spans_file)]
        subprocess.run(cmd, check=True, timeout=170)
        if self.tracer is not None and spans_file.exists():
            self.tracer.merge(spans_file)

    def load_corpus(self):
        """What `cmla train` / `cmla eval` read before their first step."""
        with self.span("data.load_embeddings"):
            table = load_embeddings(self.files.embeddings)
        with self.span("data.parse_xml"):
            parsed = parse_semeval_xml(self.files.corpus)
        with self.span("data.annotate_opinions"):
            sentences = annotate_opinions(parsed.sentences, load_lexicon(self.files.lexicon))
        return table, parsed, sentences

    def register(self, params):
        if self.tracer is not None:
            self.tracer.register(params)

    def round(self, ops, traced, fallible=False):
        """Time one round of (key, tokens, call) operations; returns their
        results. Untraced rounds keep each key's fastest time.

        With `fallible`, an operation raising ValueError (the known
        zero-token-sentence fault) counts as failed and is left out of the
        timings; its exception stands in for the result."""
        if traced:
            self.hooks(True)
            first = len(self.tracer.spans)
        results, tokens = [], 0
        wall = perf_counter()
        for key, n, call in ops:
            self.attempted += 1
            t = perf_counter()
            try:
                result = call()
            except ValueError as exc:
                if not fallible:
                    raise
                self.failed += 1
                results.append(exc)
                continue
            dt = perf_counter() - t
            results.append(result)
            tokens += n
            if not traced:
                self.timed_ops += 1
                self.best[key] = min(dt, self.best.get(key, dt))
                self.op_tokens[key] = n
        wall = perf_counter() - wall
        if traced:
            self.hooks(False)
            self.trace_windows.append((first, len(self.tracer.spans), wall))
            self.traced_rounds.append(wall / tokens)
        else:
            self.untraced_rounds.append(wall / tokens)
        return results

    def loop(self, make_round):
        """Whole rounds until both --seconds and MIN_ROUNDS are reached;
        with tracing, every other round is traced."""
        start = perf_counter()
        rounds = []
        while perf_counter() - start < self.seconds or len(rounds) < MIN_ROUNDS:
            traced = self.tracer is not None and len(rounds) % 2 == 1
            rounds.append(make_round(traced, len(rounds)))
        return rounds


# ---------------------------------------------------------------------------
# workloads


def run_train(run: Run, metrics):
    spec = run.spec

    def setup():
        table, _, sentences = run.load_corpus()
        with run.span("model.init_params"):
            params = CmlaParams.init(dim=table.dim, channels=spec.channels, rng=inputs.PARAM_SEED)
        return table, sentences, params

    setups, (table, sentences, params) = repeat(setup)
    run.register(params)

    config = TrainConfig(lr=spec.lr, epochs=1, clip=5.0, seed=0)
    loss_trace = []

    def step(s, traced):
        with run.span(tracing.TRAIN_OP, len(s.tokens), 1) if traced else tracing.NO_SPAN:
            return train([s], table, params, config)[0]

    def epoch(traced, index):
        order = np.random.default_rng([run.seed, 2, index]).permutation(len(sentences))
        ops = [(i, len(sentences[i].tokens), lambda s=sentences[i]: step(s, traced)) for i in order]
        losses = run.round(ops, traced)
        loss_trace.append(float(np.mean(losses)))
        return losses

    rounds = run.loop(epoch)
    while run.workload == "train-small" and len(rounds) < FIXTURE_EPOCHS:
        rounds.append(epoch(False, len(rounds)))   # a slow machine: train on until memorised
    run.details["epochs"] = len(rounds)

    run.hooks(True)
    with run.span("model.save_checkpoint"):
        save_checkpoint(run.files.checkpoint, params)
    with run.span("model.load_checkpoint"):
        reloaded = load_checkpoint(run.files.checkpoint)
    preds = predict_all(run, sentences, table, params)
    run.hooks(False)
    metrics["peak_rss_mib"] = peak_rss_mib()
    setups += repeat(setup)[0]   # again in a later stretch of the host
    metrics["setup_s"] = statistics.median(setups)
    run.details["setup_times"] = setups

    # the initial params are rebuilt from their seed, so nothing is kept
    # around (or checked) while the run is measured
    initial = CmlaParams.init(dim=table.dim, channels=spec.channels, rng=inputs.PARAM_SEED)
    gen = np.random.default_rng([run.seed, 1])
    sampled = [sentences[i] for i in gen.choice(len(sentences), CHECKED_SENTENCES, replace=False)]
    check_outputs(run, table, initial, sampled, "initial")
    check_gradient(run, table, initial,
                   [sentences[i] for i in gen.permutation(len(sentences))])
    check(all(np.isfinite(loss_trace)), f"non-finite epoch loss in {loss_trace}")
    check(loss_trace[-1] < loss_trace[0],
          f"last epoch loss {loss_trace[-1]} is not below the first {loss_trace[0]}")
    run.details["loss_first_last"] = [loss_trace[0], loss_trace[-1]]
    check_reload(reloaded, {k: t.data for k, t in params.named_tensors().items()}, params.layers)
    check_outputs(run, table, params, sampled, "trained")
    check_predictions(run, table, params, sentences, preds)
    f1s = check_scores(run, sentences, preds)
    if run.workload == "train-small":
        check(min(f1s) >= F1_MIN, f"memorised corpus scores F1 {f1s} below {F1_MIN}")
    check_files(run, table, sentences)


def run_predict(run: Run, metrics):
    def setup():
        table, parsed, sentences = run.load_corpus()
        with run.span("model.load_checkpoint"):
            params = load_checkpoint(run.files.checkpoint)
        check(params.dim == table.dim, f"checkpoint dim {params.dim} != embeddings {table.dim}")
        return table, parsed, sentences, params

    setups, (table, parsed, sentences, params) = repeat(setup)
    run.register(params)

    by_id = {s.source_id: s for s in sentences}
    plan = []   # every <sentence> of the file, in order; None = skipped by the parser
    for sid in inputs.corpus_ids(run.workload):
        s = by_id.get(sid)
        check(s is not None or any(repr(sid) in d for d in parsed.diagnostics),
              f"sentence {sid!r} vanished without a diagnostic")
        plan.append((sid, s))

    def corpus_pass(traced, index):
        ops = []
        for sid, s in plan:
            if s is None:
                ops.append((sid, 0, lambda: None))   # handled: skipped with a diagnostic
            else:
                ops.append((sid, len(s.tokens),
                            lambda s=s: predict_one(run, s, table, params, traced)))
        preds = run.round(ops, traced, fallible=True)
        scored = [(s, p) for (_, s), p in zip(plan, preds) if isinstance(p, Prediction)]
        score(run, [s for s, _ in scored], [p for _, p in scored])
        return preds

    rounds = run.loop(corpus_pass)
    run.details["passes"] = len(rounds)
    metrics["peak_rss_mib"] = peak_rss_mib()
    setups += repeat(setup)[0]   # again in a later stretch of the host
    metrics["setup_s"] = statistics.median(setups)
    run.details["setup_times"] = setups

    first = rounds[0]
    blank_ids = {f"blank-{pos}" for pos, _ in run.spec.blanks}
    failed_ids = {sid for (sid, _), p in zip(plan, first) if isinstance(p, ValueError)}
    check(failed_ids <= blank_ids, f"non-blank sentences failed: {sorted(failed_ids - blank_ids)}")
    check(all(s is None or s.tokens or sid in failed_ids for sid, s in plan),
          "a whitespace-only sentence was predicted without an error")
    run.details["failed_sentences"] = sorted(failed_ids)
    for later in rounds[1:]:
        for p, q in zip(first, later):
            check(same_prediction(p, q), "a later pass predicted differently from the first")
    ok = [(s, p) for (sid, s), p in zip(plan, first) if isinstance(p, Prediction)]
    check_predictions(run, table, params, [s for s, _ in ok], [p for _, p in ok])
    check_scores(run, [s for s, _ in ok], [p for _, p in ok])
    with np.load(run.files.arrays) as arrays:
        check_reload(params, {k: arrays[k] for k in arrays.files}, params.layers)
    check_files(run, table, sentences)


def predict_one(run, s, table, params, traced):
    with run.span(tracing.PREDICT_OP, len(s.tokens), 1) if traced else tracing.NO_SPAN:
        return predict(s, table, params)


def predict_all(run, sentences, table, params):
    """The evaluation after training: predict and score every sentence."""
    preds = [predict_one(run, s, table, params, run.tracer is not None) for s in sentences]
    score(run, sentences, preds)
    return preds


def score(run, sentences, preds):
    """Chunk counts per head from evaluation.score_chunks, as `cmla eval`
    reports them; kept for check_scores."""
    counts = {}
    for head in oracle.HEADS:
        with run.span("evaluation.score_chunks"):
            got = score_chunks([getattr(s, f"{head}_spans") for s in sentences],
                               [getattr(p, f"{head}_spans") for p in preds])
        counts[head] = (got.tp, got.fp, got.fn)
    run.details["scored_counts"] = counts


def same_prediction(p, q):
    if isinstance(p, ValueError) or p is None:
        return type(p) is type(q)
    return (p.aspect_spans == q.aspect_spans and p.opinion_spans == q.opinion_spans
            and all(a.aspect_logits.tobytes() == b.aspect_logits.tobytes()
                    and a.opinion_logits.tobytes() == b.opinion_logits.tobytes()
                    for a, b in zip(p.token_scores, q.token_scores)))


# ---------------------------------------------------------------------------
# checks against oracle.py and the generated inputs


def oracle_params(params):
    return {name: t.data for name, t in params.named_tensors().items()}


def oracle_embed(table, s):
    """Own lookup over the loaded vectors: exact, lowercase, else zeros."""
    zero = np.zeros(table.dim)
    return np.array([table.vectors.get(t.surface, table.vectors.get(t.surface.lower(), zero))
                     for t in s.tokens])


def gold(s):
    return {"aspect": oracle.encode(len(s.tokens), [(sp.start, sp.end) for sp in s.aspect_spans]),
            "opinion": oracle.encode(len(s.tokens), [(sp.start, sp.end) for sp in s.opinion_spans])}


def check_outputs(run, table, params, sampled, label):
    """Logits, attention weights and sentence loss agree with the oracle."""
    p = oracle_params(params)
    for s in sampled:
        ref = oracle.forward(oracle_embed(table, s), p, params.layers)
        check_prediction_matches(s, predict(s, table, params), ref, label)
        got = sentence_loss(s, table, params).item()
        want = oracle.loss(ref, gold(s))
        check(close(got, want), f"{label} loss of {s.source_id}: {got!r} vs oracle {want!r}")
    run.details[f"{label}_outputs_checked"] = len(sampled)


def check_prediction_matches(s, pred, ref, label):
    for head in oracle.HEADS:
        logits = np.array([getattr(ts, f"{head}_logits") for ts in pred.token_scores])
        att = np.array([getattr(ts, f"{head}_attention") for ts in pred.token_scores])
        check(close(logits, ref[head][0]), f"{label} {head} logits of {s.source_id} differ from oracle")
        check(close(att, ref[head][1]), f"{label} {head} attention of {s.source_id} differs from oracle")
        check(abs(att.sum() - 1.0) <= TOL, f"{head} attention of {s.source_id} sums to {att.sum()!r}")


def check_predictions(run, table, params, sentences, preds):
    """Every prediction against the oracle; spans against its decoding
    wherever no token's winning logit is within TOL of the runner-up."""
    p = oracle_params(params)
    decided = ties = 0
    for s, pred in zip(sentences, preds):
        ref = oracle.forward(oracle_embed(table, s), p, params.layers)
        check_prediction_matches(s, pred, ref, "predicted")
        for head in oracle.HEADS:
            if oracle.min_lead(ref[head][0]) <= TOL:
                ties += 1
                continue
            decided += 1
            got = [(sp.start, sp.end) for sp in getattr(pred, f"{head}_spans")]
            check(got == oracle.decode(ref[head][0]),
                  f"{head} spans of {s.source_id}: {got} vs oracle {oracle.decode(ref[head][0])}")
    run.details["decoded_heads_checked"] = decided
    run.details["decoded_heads_near_tie"] = ties


def check_scores(run, sentences, preds):
    """The counts score() got from score_chunks equal the oracle's counter
    on the same predictions; returns per-head F1."""
    f1s = []
    for head in oracle.HEADS:
        g = [[(sp.start, sp.end) for sp in getattr(s, f"{head}_spans")] for s in sentences]
        q = [[(sp.start, sp.end) for sp in getattr(p, f"{head}_spans")] for p in preds]
        own = oracle.chunk_counts(g, q)
        got = run.details["scored_counts"][head]
        check(got == own, f"{head} score_chunks counts {got} vs own counts {own}")
        f1s.append(oracle.f1(*own))
    run.details["f1"] = f1s
    return f1s


def check_gradient(run, table, params, candidates):
    """backward's gradient along a random unit direction vs a central
    difference of the oracle's loss, on the first candidate sentence where
    no B - I logit gap is 0 or changes sign across the difference (a
    sentence opening with an out-of-vocabulary word has both logits exactly
    0 at a zero-bias initialisation, where max(B, I) has its kink)."""
    named = params.named_tensors()
    gen = np.random.default_rng([run.seed, 3])
    direction = {k: gen.standard_normal(t.data.shape) for k, t in named.items()}
    norm = np.sqrt(sum(float((v * v).sum()) for v in direction.values()))
    base = oracle_params(params)

    def loss_at(xs, g, step, gaps):
        p = {k: v + step / norm * direction[k] for k, v in base.items()}
        return oracle.loss(oracle.forward(xs, p, params.layers, gaps), g)

    for s in candidates:
        xs, g = oracle_embed(table, s), gold(s)
        at = [[], [], []]
        hi, _, lo = (loss_at(xs, g, step, gaps) for step, gaps in zip((FD_EPS, 0.0, -FD_EPS), at))
        signs = [np.sign(np.concatenate(gaps)) for gaps in at]
        if np.all(signs[1] != 0) and np.array_equal(signs[0], signs[1]) and np.array_equal(signs[1], signs[2]):
            break
    else:
        raise CheckFailed("every sentence sits on a kink of max(B, I)")
    grads = backward(sentence_loss(s, table, params))
    analytic = sum(float((np.asarray(grads[t]) * direction[k]).sum()) / norm
                   for k, t in named.items() if t in grads)
    numeric = (hi - lo) / (2 * FD_EPS)
    run.details["directional_derivative"] = [s.source_id, analytic, numeric]
    check(abs(analytic - numeric) <= FD_TOL * max(abs(analytic), abs(numeric)) + FD_ABS,
          f"directional derivative {analytic!r} vs central difference {numeric!r}")


def check_reload(loaded, arrays, layers):
    named = loaded.named_tensors()
    check(sorted(named) == sorted(arrays) and loaded.layers == layers, "checkpoint tensor set differs")
    for k, t in named.items():
        check(t.data.dtype == arrays[k].dtype and t.data.shape == arrays[k].shape
              and t.data.tobytes() == arrays[k].tobytes(), f"checkpoint tensor {k} did not reload bitwise")


def check_files(run, table, sentences):
    """The loaders read back exactly what inputs.py generated."""
    made = inputs.make_inputs(run.workload, run.seed)
    check(table.dim == run.spec.dim and table.duplicates == 0, "embedding header or duplicates differ")
    check(list(table.vectors) == list(made.vectors), "embedding vocabulary differs")
    for word, vec in made.vectors.items():
        check(table.vectors[word].tobytes() == vec.tobytes(), f"vector of {word!r} differs")
    by_id = {s.source_id: s for s in sentences}
    for want in made.corpus:
        got = by_id.get(want.sid)
        if got is None:
            check(not want.tokens, f"sentence {want.sid} missing")
            continue
        check([t.surface for t in got.tokens] == want.tokens, f"tokens of {want.sid} differ")
        check([(sp.start, sp.end) for sp in got.aspect_spans] == want.aspects,
              f"aspect spans of {want.sid} differ")
        check([(sp.start, sp.end) for sp in got.opinion_spans] == want.opinions,
              f"opinion spans of {want.sid} differ")


# ---------------------------------------------------------------------------
# reporting


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_threads():
    """Threads OpenBLAS would use, asked of the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        fields = [line.split() for line in fh]
    libs = sorted({f[5] for f in fields if len(f) > 5 and "openblas" in f[5]})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment():
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    run = Run(args.workload, args.seed, args.seconds, args.trace == 1, work_dir)
    metrics, correct, error = {}, True, None
    try:
        run.generate()
        WORKLOADS[args.workload](run, metrics)
    except CheckFailed as exc:
        correct, error = False, str(exc)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if run.tracer is None:
        if run.best:
            best = [run.best[k] for k in run.best if run.op_tokens[k]]
            metrics["tok_per_s"] = sum(run.op_tokens.values()) / sum(best)
            metrics["op_ms_p50"] = 1e3 * float(np.percentile(best, 50))
            metrics["op_ms_p90"] = 1e3 * float(np.percentile(best, 90))
        reported = {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in END_TO_END_UNITS.items()}
    else:
        problems = tracing.accounting(run.tracer.spans, run.trace_windows)
        if correct and problems:
            correct, error = False, "; ".join(problems[:5])
        main_op = tracing.PREDICT_OP if args.workload == "predict-corpus" else tracing.TRAIN_OP
        layers, basis = tracing.layer_metrics(run.tracer.spans, main_op)
        traced = statistics.median(run.traced_rounds) if run.traced_rounds else float("nan")
        untraced = statistics.median(run.untraced_rounds) if run.untraced_rounds else float("nan")
        layers["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        units = per_layer_units()
        reported = {k: {"value": layers[k], "unit": units[k]} for k in units}
        run.details.update(basis=basis, missing_hooks=run.tracer.missing,
                           spans=len(run.tracer.spans))
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.json"
        run.tracer.dump(spans_path)
        run.details["spans_file"] = str(spans_path.relative_to(ROOT))
        if run.tracer.missing:
            print(f"missing hooks: {', '.join(run.tracer.missing)}", file=sys.stderr)

    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": reported}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, error=error, details=run.details, environment=environment(),
                  timed_ops=run.timed_ops, distinct_ops=len(run.best))
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def per_layer_units():
    units = {m: "us/tok" for m in tracing.PER_TOKEN_US}
    units.update({m: "us/sentence" for m in tracing.PER_SENTENCE_US})
    units.update({m: "nodes/tok" for m in tracing.NODES_PER_TOKEN})
    units.update({m: "ms" if m.endswith("_ms") else "s" for m in tracing.PER_CALL})
    units["trace.overhead_pct"] = "%"
    return units


WORKLOADS = {"train-small": run_train, "train-wide": run_train, "predict-corpus": run_predict}


if __name__ == "__main__":
    sys.exit(main())
