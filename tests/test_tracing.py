"""The benchmark's traced run wraps module-level names of the program; these
tests keep every hook it installs pointed at code that still runs."""

import importlib.util
import sys
from pathlib import Path

import cmla.model
from cmla.data import SynthConfig, generate_synthetic
from cmla.model import CmlaParams, TrainConfig, predict, train

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing(monkeypatch):
    """benchmark/tracing.py as a module, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_see_a_train_step_and_a_prediction(monkeypatch):
    tracing = load_tracing(monkeypatch)
    sents, table = generate_synthetic(SynthConfig(n_sentences=2, dim=6))
    params = CmlaParams.init(dim=6, channels=2, rng=3)
    clip = cmla.model.clip_gradients
    tracer = tracing.Tracer()
    tracer.register(params)
    tracer.install()
    try:
        with tracer.span(tracing.TRAIN_OP, tokens=len(sents[0].tokens), sentences=1):
            train([sents[0]], table, params, TrainConfig(epochs=1))
        with tracer.span(tracing.PREDICT_OP, tokens=len(sents[1].tokens), sentences=1):
            predict(sents[1], table, params)
    finally:
        tracer.uninstall()
    assert cmla.model.clip_gradients is clip
    assert tracer.missing == []
    names = {rec[tracing.NAME] for rec in tracer.spans}
    assert {"model.clip_gradients", "autodiff.backward", "model.loss", "gru.ctx", "gru.att"} <= names
    assert "gru.unregistered" not in names
    # predict enters every layer through the hooked names, and builds no graph
    (op,) = [i for i, rec in enumerate(tracer.spans) if rec[tracing.NAME] == tracing.PREDICT_OP]
    under, parents = set(), {op}
    for i, rec in enumerate(tracer.spans):
        if rec[tracing.PARENT] in parents:
            parents.add(i)
            under.add(rec[tracing.NAME])
    assert {"gru.ctx", "gru.att", "model.compose", "model.attention_layer", "model.update_prototype"} <= under
    assert tracer.spans[op][tracing.NODES] == 0
    metrics, _ = tracing.layer_metrics(tracer.spans, tracing.TRAIN_OP)
    assert metrics["model.clip_us_per_tok"] > 0 and metrics["autodiff.backward_us_per_tok"] > 0
