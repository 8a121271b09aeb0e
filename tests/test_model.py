import copy
import json
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmla.autodiff import Tensor, backward, constant, grad_check, init_uniform, node, zeros
from cmla.bio import ASPECT, B, I, O, OPINION, LabelSeq, Span
from cmla.data import DataFormatError, SynthConfig, generate_synthetic
from cmla.gru import gru_run
from cmla.model import (
    CLASS_INDEX,
    CLASS_ORDER,
    PROTOTYPE_INIT,
    CmlaParams,
    FactoredGrad,
    TrainConfig,
    TrainingDiverged,
    attend,
    attention_layer,
    classify,
    clip_gradients,
    compose,
    embed_sentence,
    forward,
    load_checkpoint,
    loss,
    predict,
    save_checkpoint,
    sentence_loss,
    take_columns,
    train,
    update_prototype,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_synthetic(SynthConfig(dim=6))


def random_inputs(d, n, seed=0):
    gen = np.random.default_rng(seed)
    return [constant(gen.uniform(-1, 1, size=d)) for _ in range(n)]


def random_rows(d, n, seed=0):
    """An (n, d) block of hidden states, as attention layers receive them."""
    return constant(np.random.default_rng(seed).uniform(-1, 1, size=(n, d)))


def random_gold(n, head, seed=0):
    gen = np.random.default_rng(seed)
    return LabelSeq([CLASS_ORDER[int(gen.integers(3))] for _ in range(n)], head)


# --- parameters -------------------------------------------------------------


def test_init_shapes_and_prototype_band():
    params = CmlaParams.init(dim=5, channels=3, rng=0, init_scale=0.7)
    params.check_shapes()
    assert params.dim == 5 and params.channels == 3 and params.layers == 2
    for head in (params.aspect, params.opinion):
        assert np.all(np.abs(head.prototype.data) <= 0.2)
        assert np.all(np.abs(head.comp.data) <= 0.7)
    names = set(params.named_tensors())
    assert "ctx_gru.W_z" in names and "aspect.comp" in names and "opinion.proto_map" in names
    assert len(names) == 9 + 2 * (9 + 5)


def test_init_draws_every_tensor_in_shapes_order():
    # zero biases, the prototype band, init_scale for everything else
    params = CmlaParams.init(dim=3, channels=2, rng=5, layers=3, init_scale=0.7)
    shapes = CmlaParams.shapes(3, 2)
    named = params.named_tensors()
    assert list(named) == list(shapes) and params.layers == 3
    gen = np.random.default_rng(5)
    for name, shape in shapes.items():
        if name.rpartition(".")[2].startswith("b_"):
            expected = np.zeros(shape)
        else:
            band = PROTOTYPE_INIT if name.endswith(".prototype") else 0.7
            expected = gen.uniform(-band, band, size=shape)
        assert named[name].requires_grad
        assert np.array_equal(named[name].data, expected), name


def test_init_validation():
    with pytest.raises(ValueError):
        CmlaParams.init(dim=0, channels=2, rng=0)
    with pytest.raises(ValueError):
        CmlaParams.init(dim=2, channels=2, rng=0, layers=0)


def test_init_deterministic():
    a = CmlaParams.init(dim=4, channels=2, rng=11)
    b = CmlaParams.init(dim=4, channels=2, rng=11)
    for (na, ta), (nb, tb) in zip(a.named_tensors().items(), b.named_tensors().items()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


# --- compose ----------------------------------------------------------------


def heads_of(*maps):
    """(comp, cross) pairs as the heads compose reads them."""
    return [SimpleNamespace(comp=comp, cross=cross) for comp, cross in zip(maps[::2], maps[1::2])]


def stacked_prototypes(params):
    return constant(np.array([params.aspect.prototype.data, params.opinion.prototype.data]))


def test_compose_zero_tensors_give_zero_vector():
    h = constant(np.ones((2, 3)))
    u = constant(np.ones((2, 3)))
    z = constant(np.zeros((2, 3, 3)))
    out = compose(h, u, heads_of(z, z, z, z))
    assert np.array_equal(out.data, np.zeros((2, 8)))


def test_compose_scalar_case():
    # aspect prototype 1, opinion prototype 0: aspect's own block and
    # opinion's cross block see the 1, the others the 0
    h = constant([[0.5]])
    u = constant([[1.0], [0.0]])
    g = constant([[[2.0]]])
    out = compose(h, u, heads_of(g, g, g, g))
    assert out.data.shape == (1, 4)
    assert abs(out.data[0, 0] - np.tanh(1.0)) < 1e-15
    assert abs(out.data[0, 3] - np.tanh(1.0)) < 1e-15
    assert out.data[0, 1] == 0.0 and out.data[0, 2] == 0.0


def test_compose_matches_loop_oracle():
    gen = np.random.default_rng(5)
    d, k, n = 4, 3, 3
    h = constant(gen.uniform(-1, 1, size=(n, d)))
    u = constant(gen.uniform(-1, 1, size=(2, d)))
    comp_a, cross_a, comp_p, cross_p = (constant(gen.uniform(-1, 1, size=(k, d, d))) for _ in range(4))
    out = compose(h, u, heads_of(comp_a, cross_a, comp_p, cross_p))
    assert out.data.shape == (n, 4 * k)
    assert np.all(np.abs(out.data) < 1.0)

    def form(t, c, m, proto):
        return sum(h.data[t, i] * m.data[c, i, j] * proto[j] for i in range(d) for j in range(d))

    u_a, u_p = u.data
    for t in range(n):
        for c in range(k):
            # each head's own block, then its block against the other head's prototype
            for block, (m, proto) in enumerate(((comp_a, u_a), (cross_a, u_p), (comp_p, u_p), (cross_p, u_a))):
                assert abs(out.data[t, block * k + c] - np.tanh(form(t, c, m, proto))) < 1e-12


# --- attention layer --------------------------------------------------------


def test_attention_single_token_score_is_one():
    params = CmlaParams.init(dim=4, channels=2, rng=1)
    h_seq = random_rows(4, 1, seed=2)
    _, scores = attention_layer(h_seq, stacked_prototypes(params), (params.aspect, params.opinion))
    assert scores.data.shape == (1, 2)
    assert np.all(np.abs(scores.data - 1.0) <= 1e-12)


def test_attention_zero_params_uniform_scores():
    params = CmlaParams.init(dim=4, channels=2, rng=1)
    for t in params.all_tensors():
        t.data[:] = 0.0
    h_seq = random_rows(4, 5, seed=3)
    _, scores = attention_layer(h_seq, stacked_prototypes(params), (params.aspect, params.opinion))
    assert np.allclose(scores.data, np.full((5, 2), 0.2), atol=1e-15)


def test_attention_outputs_per_token():
    params = CmlaParams.init(dim=4, channels=2, rng=4)
    heads = (params.aspect, params.opinion)
    h_seq, u = random_rows(4, 3, seed=5), stacked_prototypes(params)
    logits, scores = attention_layer(h_seq, u, heads)
    assert logits.data.shape == (3, 6) and scores.data.shape == (3, 2)
    features = gru_run(compose(h_seq, u, heads), params.aspect.att_gru, params.opinion.att_gru).data
    for i, head in enumerate(heads):
        head_logits = logits.data[:, 3 * i : 3 * i + 3]
        for t, l in enumerate(head_logits):
            assert np.allclose(l, head.classifier.data @ features[t, 2 * i : 2 * i + 2], atol=1e-15)
        raw = np.maximum(head_logits[:, 0], head_logits[:, 1])
        assert np.allclose(scores.data[:, i], np.exp(raw) / np.exp(raw).sum(), atol=1e-15)


@pytest.mark.parametrize("n", [1, 4])
def test_classify_gradcheck(n):
    gen = np.random.default_rng(50 + n)
    features = init_uniform((n, 6), -1, 1, gen)
    classifiers = [init_uniform((3, 3), -1, 1, gen) for _ in range(2)]
    gold_a = random_gold(n, ASPECT, seed=n)
    gold_p = random_gold(n, OPINION, seed=n + 1)

    def f():
        logits = classify(features, *classifiers)
        return loss(take_columns(logits, slice(0, 3)), take_columns(logits, slice(3, 6)), gold_a, gold_p)

    assert grad_check(f, [features, *classifiers]) < 1e-6


def test_rows_unchanged_by_appended_row():
    # the token-row products must not depend on the row count, or appending
    # a token could change an earlier token's bits
    gen = np.random.default_rng(32)
    for _ in range(200):
        n, d, k = (int(v) for v in gen.integers(1, 9, size=3))
        h = gen.uniform(-1, 1, size=(n + 1, d))
        u = constant(gen.uniform(-1, 1, size=(2, d)))
        heads = heads_of(*(constant(gen.uniform(-1, 1, size=(k, d, d))) for _ in range(4)))
        full = compose(constant(h), u, heads).data
        assert np.array_equal(compose(constant(h[:n]), u, heads).data, full[:n])
        w = [constant(gen.uniform(-1, 1, size=(3, c))) for c in (d - d // 2, d // 2) if c]
        assert np.array_equal(classify(constant(h[:n]), *w).data, classify(constant(h), *w).data[:n])


# --- update_prototype -------------------------------------------------------


def test_update_prototype_zero_map_is_identity():
    u = constant(np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]]))
    scores = constant(np.array([[0.3, 0.9], [0.7, 0.1]]))
    h_seq = random_rows(3, 2, seed=6)
    out = update_prototype(u, scores, h_seq, [constant(np.zeros((3, 3)))] * 2)
    assert np.array_equal(out.data, u.data)


def test_update_prototype_single_token_identity_map():
    u = constant(np.array([[1.0, 2.0], [-3.0, 0.5]]))
    h = constant(np.array([[0.25, -0.5]]))
    out = update_prototype(u, constant(np.array([[1.0, 1.0]])), h, [constant(np.eye(2))] * 2)
    assert np.allclose(out.data, u.data + h.data[0], atol=1e-15)


def test_update_prototype_matches_weighted_sum_oracle():
    gen = np.random.default_rng(7)
    d, n = 4, 5
    u = constant(gen.uniform(-1, 1, size=(2, d)))
    raw = gen.uniform(0.1, 1.0, size=(n, 2))
    w = raw / raw.sum(axis=0)
    h_seq = constant(gen.uniform(-1, 1, size=(n, d)))
    maps = [constant(gen.uniform(-1, 1, size=(d, d))) for _ in range(2)]
    out = update_prototype(u, constant(w), h_seq, maps)
    for head, v in enumerate(maps):
        expected = u.data[head] + sum(w[i, head] * (v.data @ h_seq.data[i]) for i in range(n))
        assert np.allclose(out.data[head], expected, atol=1e-12)


def test_update_prototype_rejects_unnormalized_weights():
    # the aspect column sums to 1, the opinion column does not
    u = constant(np.zeros((2, 2)))
    h_seq = random_rows(2, 2, seed=8)
    bad = constant(np.array([[0.5, 0.5], [0.5, 0.6]]))
    with pytest.raises(ValueError, match="weight-sum violation beyond 1e-9"):
        update_prototype(u, bad, h_seq, [constant(np.eye(2))] * 2)


def test_update_prototype_rejects_nan_weights():
    h_seq = random_rows(2, 2, seed=8)
    for bad in ([[np.nan, 0.5], [1.0, 0.5]], [[0.5, np.nan], [0.5, 1.0]]):
        with pytest.raises(FloatingPointError, match="non-finite"):
            update_prototype(constant(np.zeros((2, 2))), constant(bad), h_seq, [constant(np.eye(2))] * 2)


def test_update_prototype_gradcheck():
    # w enters through attend, since a finite difference on w itself
    # breaks its sum-to-one check; the closed form of dL/dw is pinned by
    # test_autodiff's test_matmul_grad_of_sum_matches_closed_form
    gen = np.random.default_rng(30)
    probe = constant(gen.uniform(-1, 1, size=(2, 3)))
    for n in (1, 4):
        u, logits = init_uniform((2, 3), -1, 1, gen), init_uniform((n, 6), -1, 1, gen)
        h_seq = init_uniform((n, 4), -1, 1, gen)
        maps = [init_uniform((3, 4), -1, 1, gen) for _ in range(2)]

        def f():
            out = update_prototype(u, attend(logits), h_seq, maps)
            return node(np.vdot(out.data, probe.data), (out,), lambda g: (g * probe.data,))

        assert grad_check(f, [u, logits, h_seq, *maps]) < 1e-6


def test_update_prototype_rejects_length_mismatch():
    u = constant(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        update_prototype(u, constant(np.array([[1.0, 1.0]])), random_rows(2, 2), [constant(np.eye(2))] * 2)


# --- forward ----------------------------------------------------------------


def test_forward_single_token_distributions_sum_to_one():
    params = CmlaParams.init(dim=4, channels=2, rng=9)
    fwd = forward(random_inputs(4, 1, seed=10), params)
    for out in (fwd.aspect, fwd.opinion):
        probs = np.exp(out.logits.data[0])
        probs /= probs.sum()
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert abs(out.norm_scores.data.sum() - 1.0) <= 1e-12


def test_forward_norm_scores_sum_to_one_multi_token():
    params = CmlaParams.init(dim=5, channels=3, rng=11)
    fwd = forward(random_inputs(5, 6, seed=12), params)
    assert abs(fwd.aspect.norm_scores.data.sum() - 1.0) <= 1e-12
    assert abs(fwd.opinion.norm_scores.data.sum() - 1.0) <= 1e-12


def test_forward_single_layer_is_causal():
    # with one attention layer the prototypes never feed back through the
    # sentence-wide softmax, so a token appended at the end cannot change
    # the logits of the tokens before it
    params = CmlaParams.init(dim=4, channels=2, rng=13, layers=1)
    xs = random_inputs(4, 4, seed=14)
    base = forward(xs, params)
    extended = forward(xs + random_inputs(4, 1, seed=15), params)
    for head in ("aspect", "opinion"):
        for t in range(4):
            assert np.array_equal(
                getattr(base, head).logits.data[t], getattr(extended, head).logits.data[t]
            )


def test_forward_layer_count_changes_output():
    xs = random_inputs(4, 3, seed=16)
    one = CmlaParams.init(dim=4, channels=2, rng=17, layers=1)
    two = CmlaParams.init(dim=4, channels=2, rng=17, layers=2)
    a = forward(xs, one).aspect.logits.data[0]
    b = forward(xs, two).aspect.logits.data[0]
    assert not np.array_equal(a, b)


def test_forward_full_gradcheck_small():
    gen = np.random.default_rng(18)
    params = CmlaParams.init(dim=6, channels=3, rng=gen, init_scale=1.2)
    xs = [constant(gen.uniform(-1, 1, size=6)) for _ in range(4)]
    ga = random_gold(4, ASPECT, seed=19)
    gp = random_gold(4, OPINION, seed=20)

    def f():
        fwd = forward(xs, params)
        return loss(fwd.aspect.logits, fwd.opinion.logits, ga, gp)

    assert grad_check(f, params.all_tensors(), max_coords_per_param=4, rng=21) < 1e-4


# recorded from commit 9431f9c, whose forward ran each head's attention
# layer and prototype update as separate calls; values are repr floats
GOLDEN = json.loads((Path(__file__).parent / "golden_forward.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=lambda c: f"layers{c['layers']}-n{len(c['inputs'])}")
def test_forward_and_gradients_match_golden(case):
    params = CmlaParams.init(dim=5, channels=3, rng=case["seed"], layers=case["layers"],
                             init_scale=case["init_scale"])
    fwd = forward(np.array(case["inputs"]), params)
    value = loss(fwd.aspect.logits, fwd.opinion.logits,
                 LabelSeq(case["gold_aspect"], ASPECT), LabelSeq(case["gold_opinion"], OPINION))
    grads = backward(value)
    close = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(value.item(), case["loss"], **close)
    for head in (ASPECT, OPINION):
        out = getattr(fwd, head)
        np.testing.assert_allclose(out.logits.data, case[f"{head}_logits"], **close)
        np.testing.assert_allclose(out.norm_scores.data, case[f"{head}_scores"], **close)
    named = {name: t for name, t in params.named_tensors().items() if t in grads}
    assert sorted(named) == sorted(case["grads"])   # one layer leaves proto_map unused
    for name, t in named.items():
        np.testing.assert_allclose(np.asarray(grads[t]).reshape(-1), case["grads"][name],
                                   err_msg=name, **close)


# --- loss -------------------------------------------------------------------


def test_loss_uniform_logits_is_two_ln_three():
    n = 5
    logits = constant(np.zeros((n, 3)))
    ga = LabelSeq([O] * n, ASPECT)
    gp = LabelSeq([O] * n, OPINION)
    val = loss(logits, logits, ga, gp)
    assert abs(val.item() - 2 * np.log(3)) < 1e-12


def test_loss_perfect_logits_tends_to_zero():
    n = 3
    gold = [B, I, O]
    rows = np.full((n, 3), -50.0)
    for t, lab in enumerate(gold):
        rows[t, CLASS_INDEX[lab]] = 50.0
    strong = constant(rows)
    val = loss(strong, strong, LabelSeq(gold, ASPECT), LabelSeq(gold, OPINION))
    assert val.item() < 1e-12


def test_loss_matches_direct_oracle():
    gen = np.random.default_rng(22)
    n = 4
    la = constant(gen.normal(size=(n, 3)))
    lp = constant(gen.normal(size=(n, 3)))
    ga = random_gold(n, ASPECT, seed=23)
    gp = random_gold(n, OPINION, seed=24)
    val = loss(la, lp, ga, gp)

    def head_nll(logits, gold):
        total = 0.0
        for vec, lab in zip(logits.data, gold.labels):
            p = np.exp(vec) / np.exp(vec).sum()
            total -= np.log(p[CLASS_INDEX[lab]])
        return total / len(gold.labels)

    expected = head_nll(la, ga) + head_nll(lp, gp)
    assert abs(val.item() - expected) < 1e-12
    assert val.item() >= 0.0


def test_loss_length_mismatch():
    logits = constant(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        loss(logits, logits, LabelSeq([O, O], ASPECT), LabelSeq([O], OPINION))
    with pytest.raises(ValueError):
        loss(constant(np.zeros(3)), logits, LabelSeq([O], ASPECT), LabelSeq([O], OPINION))


# --- training ---------------------------------------------------------------


def test_train_zero_epochs_leaves_params_bitwise(tiny_corpus):
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=25)
    before = {n: t.data.copy() for n, t in params.named_tensors().items()}
    trace = train(sents[:3], table, params, TrainConfig(epochs=0))
    assert trace == []
    for name, t in params.named_tensors().items():
        assert np.array_equal(t.data, before[name])


def test_train_two_runs_identical(tiny_corpus):
    sents, table = tiny_corpus

    def run():
        params = CmlaParams.init(dim=6, channels=2, rng=26)
        trace = train(sents[:4], table, params, TrainConfig(lr=0.3, epochs=3, seed=5))
        return trace, {n: t.data.copy() for n, t in params.named_tensors().items()}

    trace_a, state_a = run()
    trace_b, state_b = run()
    assert trace_a == trace_b
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name])


def test_train_reduces_loss_on_tiny_set(tiny_corpus):
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=27)
    trace = train(sents[:4], table, params, TrainConfig(lr=0.3, epochs=12, seed=0))
    assert trace[-1] < trace[0]


def test_train_nan_loss_aborts_naming_sentence(tiny_corpus):
    sents, table = tiny_corpus
    poisoned = copy.deepcopy(table)
    word = sents[1].tokens[0].surface.lower()
    poisoned.vectors[word] = np.full(table.dim, np.nan)
    params = CmlaParams.init(dim=6, channels=2, rng=28)
    with pytest.raises(TrainingDiverged, match="sentence index"):
        train(sents[:3], table=poisoned, params=params, config=TrainConfig(epochs=1))


def test_train_rejects_empty_dataset(tiny_corpus):
    _, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=29)
    with pytest.raises(ValueError):
        train([], table, params, TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(clip=0.0)
    # NaN compares false with everything, so it must fail `not x > 0`
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(lr=float("nan"))
    with pytest.raises(ValueError, match="clip"):
        TrainConfig(clip=float("nan"))


def test_no_dead_parameters_on_fixture(tiny_corpus):
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=30)
    totals = {t: 0.0 for t in params.all_tensors()}
    for s in sents[:6]:
        grads = backward(sentence_loss(s, table, params))
        for t in totals:
            g = grads.get(t)
            if g is not None:
                totals[t] += float(np.abs(g).sum())
    names = params.named_tensors()
    for name, t in names.items():
        assert totals[t] > 0.0, f"parameter {name} never received gradient"


def test_gradient_clipping_bounds_update(tiny_corpus):
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=31)
    grads = backward(sentence_loss(sents[0], table, params))
    tensors = params.all_tensors()
    dense = sum(float((np.asarray(grads[t]) ** 2).sum()) for t in tensors if t in grads)
    # the comp and cross terms come from FactoredGrad.squared_norm
    assert clip_gradients(grads, tensors, 0.01) == pytest.approx(np.sqrt(dense), rel=1e-12, abs=0)
    total = sum(float((np.asarray(grads[t]) ** 2).sum()) for t in tensors if t in grads)
    assert np.sqrt(total) <= 0.01 + 1e-12


# --- factored map gradients -------------------------------------------------


def dense_sgd_step(sentence, table, params, config):
    """One SGD step with every gradient made dense first; returns the norm."""
    tensors = params.all_tensors()
    grads = {t: np.asarray(g) for t, g in backward(sentence_loss(sentence, table, params)).items()}
    norm = clip_gradients(grads, tensors, config.clip)
    for t in tensors:
        if t in grads:
            t.data -= config.lr * grads[t]
    return norm


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("clip", [1e-3, 1e6])
def test_factored_update_matches_dense_update(tiny_corpus, layers, clip):
    sents, table = tiny_corpus
    config = TrainConfig(lr=0.3, epochs=1, clip=clip)
    factored = CmlaParams.init(dim=6, channels=3, rng=40, layers=layers)
    dense = copy.deepcopy(factored)
    start = copy.deepcopy(factored.named_tensors())
    grads = backward(sentence_loss(sents[1], table, factored))
    maps = [t for h in (factored.aspect, factored.opinion) for t in (h.comp, h.cross)]
    for t in factored.all_tensors():
        assert isinstance(grads.get(t), FactoredGrad) == (t in maps)
    train([sents[1]], table, factored, config)
    norm = dense_sgd_step(sents[1], table, dense, config)
    assert (norm > clip) == (clip < 1)   # the small threshold clips, the large one does not
    for name, t in factored.named_tensors().items():
        # one layer leaves proto_map unused
        assert (t in grads) == (not np.array_equal(t.data, start[name].data)), name
        np.testing.assert_allclose(t.data, dense.named_tensors()[name].data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("layers", [1, 2])
def test_map_gradient_does_not_alias_the_prototype(tiny_corpus, layers):
    # train updates each prototype in place before it updates comp and cross
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=3, rng=41, layers=layers)
    grads = backward(sentence_loss(sents[1], table, params))
    maps = [t for h in (params.aspect, params.opinion) for t in (h.comp, h.cross)]
    before = [np.asarray(grads[t]) for t in maps]
    params.aspect.prototype.data += 1.0
    params.opinion.prototype.data -= 1.0
    for t, g in zip(maps, before):
        assert np.any(g != 0.0)
        assert np.array_equal(np.asarray(grads[t]), g)


def normal_floats(top):
    """0 or a float of magnitude in [1e-3, top]: products of three stay normal."""
    return st.one_of(st.just(0.0), st.floats(1e-3, top), st.floats(-top, -1e-3))


@st.composite
def factored_pairs(draw):
    """Two factored gradients of one (k, d, d) shape, each of rank 1 to 3."""
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 5))

    def one():
        rank = draw(st.integers(1, 3))
        return FactoredGrad(draw(arrays(np.float64, (rank, k, d), elements=normal_floats(2.0))),
                            draw(arrays(np.float64, (rank, d), elements=normal_floats(2.0))))

    return one(), one()


def magnitude(x):
    """The dense form of |x|'s factors: it bounds each entry's rounding error,
    which a relative tolerance alone cannot where the terms cancel."""
    return np.asarray(FactoredGrad(np.abs(x.a), np.abs(x.b)))


@settings(max_examples=150, deadline=None)
@given(factored_pairs(), normal_floats(3.0), st.floats(1e-3, 1.0))
def test_factored_grad_matches_its_dense_form(pair, scale, lr):
    x, y = pair
    dx, dy = np.asarray(x), np.asarray(y)
    assert dx.shape == x.a.shape[1:] + x.b.shape[1:]
    assert np.all(np.abs(dx - np.einsum("lki,lj->kij", x.a, x.b)) <= 1e-12 * magnitude(x))
    assert np.all(np.abs(np.asarray(x + y) - (dx + dy)) <= 1e-12 * (magnitude(x) + magnitude(y)))
    assert np.all(np.abs(np.asarray(x * scale) - scale * dx) <= 1e-12 * abs(scale) * magnitude(x))
    mx = magnitude(x)
    assert abs(x.squared_norm() - float(np.vdot(dx, dx))) <= 1e-12 * float(np.vdot(mx, mx))
    param = np.arange(dx.size, dtype=np.float64).reshape(dx.shape) / 7.0
    expected = param - lr * dx
    x.subtract_from(param, lr)
    assert np.all(np.abs(param - expected) <= 1e-12 * (np.abs(expected) + lr * mx))


# --- predict ----------------------------------------------------------------


def test_predict_spans_roundtrip_and_merged_shape(tiny_corpus):
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=32)
    from cmla.bio import labels_to_spans, spans_to_labels

    for s in sents[:8]:
        pred = predict(s, table, params)
        n = len(s.tokens)
        assert len(pred.merged) == n
        assert len(pred.token_scores) == n
        for spans_list, head in ((pred.aspect_spans, ASPECT), (pred.opinion_spans, OPINION)):
            again = labels_to_spans(spans_to_labels(n, spans_list, head))
            assert again == spans_list
        assert abs(sum(ts.aspect_attention for ts in pred.token_scores) - 1.0) <= 1e-9


def test_predict_handles_oov_without_error(tiny_corpus):
    from cmla.data import Sentence, tokenize

    _, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=33)
    text = "volslagen onbekende woorden hier"
    s = Sentence(raw_text=text, tokens=tokenize(text), aspect_spans=[], opinion_spans=[])
    pred = predict(s, table, params)
    assert len(pred.merged) == 4


def test_predict_empty_spans_is_valid(tiny_corpus):
    # an untrained model may legitimately emit no spans for some sentence;
    # force the situation with a classifier that always prefers O
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=34)
    for head in (params.aspect, params.opinion):
        for t in head.att_gru.tensors().values():
            t.data[:] = 0.0
        head.att_gru.b_h.data[:] = 1.0  # features strictly positive at every step
        head.classifier.data[:] = 0.0
        head.classifier.data[2, :] = 1.0  # O logit > 0 = B = I
    pred = predict(sents[0], table, params)
    assert pred.aspect_spans == [] and pred.opinion_spans == []
    assert all(tag == "O" for tag in pred.merged)


# --- checkpoints ------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = CmlaParams.init(dim=5, channels=3, rng=35, layers=2)
    path = tmp_path / "model.json"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.dim == 5 and loaded.channels == 3 and loaded.layers == 2
    for (na, ta), (nb, tb) in zip(
        params.named_tensors().items(), loaded.named_tensors().items()
    ):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)
    path2 = tmp_path / "model2.json"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bytes_are_sorted_json_of_whole_payload(tmp_path):
    params = CmlaParams.init(dim=3, channels=2, rng=44, layers=3)
    path = tmp_path / "model.json"
    save_checkpoint(path, params)
    payload = {
        "format": "cmla-checkpoint", "version": 1, "dim": 3, "channels": 2, "layers": 3,
        "tensors": {name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
                    for name, t in params.named_tensors().items()},
    }
    assert path.read_text(encoding="utf-8") == json.dumps(payload, sort_keys=True) + "\n"


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_format_and_version(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}), encoding="utf-8")
    with pytest.raises(DataFormatError, match="not a"):
        load_checkpoint(path)
    params = CmlaParams.init(dim=2, channels=2, rng=36)
    good = tmp_path / "good.json"
    save_checkpoint(good, params)
    payload = json.loads(good.read_text(encoding="utf-8"))
    payload["version"] = 99
    bad = tmp_path / "version.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataFormatError, match="version"):
        load_checkpoint(bad)


def test_checkpoint_rejects_missing_tensor_and_bad_shape(tmp_path):
    params = CmlaParams.init(dim=2, channels=2, rng=37)
    good = tmp_path / "good.json"
    save_checkpoint(good, params)
    payload = json.loads(good.read_text(encoding="utf-8"))

    dropped = dict(payload, tensors={k: v for k, v in payload["tensors"].items()
                                     if k != "aspect.comp"})
    p1 = tmp_path / "missing.json"
    p1.write_text(json.dumps(dropped), encoding="utf-8")
    with pytest.raises(DataFormatError, match="aspect.comp"):
        load_checkpoint(p1)

    mangled = json.loads(good.read_text(encoding="utf-8"))
    mangled["tensors"]["aspect.prototype"]["shape"] = [3]
    p2 = tmp_path / "shape.json"
    p2.write_text(json.dumps(mangled), encoding="utf-8")
    with pytest.raises(DataFormatError, match="shape"):
        load_checkpoint(p2)


def test_checkpoint_header_cannot_force_a_large_allocation(tmp_path):
    # the stored tensors are dim 2; building a dim-300, 20-channel model
    # before checking them would take about 70 MiB
    params = CmlaParams.init(dim=2, channels=2, rng=45)
    path = tmp_path / "big.json"
    save_checkpoint(path, params)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["dim"], payload["channels"] = 300, 20
    path.write_text(json.dumps(payload), encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="expected"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "name, entry, message",
    [
        ("aspect.comp", [1.0, 2.0], "aspect.comp is not an object"),
        ("ctx_gru.b_z", {"shape": [2]}, "ctx_gru.b_z is not an object"),
        ("aspect.prototype", {"shape": [2], "values": [0.5, float("nan")]}, "finite"),
        ("aspect.prototype", {"shape": [2], "values": [0.5, float("inf")]}, "finite"),
        ("opinion.prototype", {"shape": [2], "values": ["0.5", 0.1]}, "opinion.prototype"),
        ("opinion.prototype", {"shape": [2], "values": [[0.5], [0.1]]}, "opinion.prototype"),
        ("opinion.prototype", {"shape": [2], "values": [[0.5], 0.1]}, "opinion.prototype"),
        ("opinion.prototype", {"shape": [2], "values": None}, "opinion.prototype"),
        ("opinion.prototype", {"shape": [2], "values": [0.5]}, "1 values"),
        # numpy would read each of these as numbers; true is not 1
        ("aspect.att_gru.b_z", {"shape": [True], "values": [0.0]}, "aspect.att_gru.b_z has shape"),
        ("aspect.classifier", {"shape": [3, True], "values": [0.1, 0.2, 0.3]},
         "aspect.classifier has shape"),
        ("aspect.prototype", {"shape": [2], "values": [True, 0.5]}, "aspect.prototype values"),
        ("opinion.prototype", {"shape": [2], "values": [1, False]}, "opinion.prototype values"),
    ],
)
def test_checkpoint_rejects_bad_tensor_entries(tmp_path, name, entry, message):
    params = CmlaParams.init(dim=2, channels=1, rng=38)
    good = tmp_path / "good.json"
    save_checkpoint(good, params)
    payload = json.loads(good.read_text(encoding="utf-8"))
    payload["tensors"][name] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataFormatError, match=message):
        load_checkpoint(bad)


def test_checkpoint_rejects_non_object_payloads(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(DataFormatError, match="not a"):
        load_checkpoint(path)
    params = CmlaParams.init(dim=2, channels=2, rng=39)
    save_checkpoint(path, params)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["tensors"] = list(payload["tensors"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataFormatError, match="tensors"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "key, literal",
    [("dim", "true"), ("dim", "2.7"), ("dim", '"2"'), ("channels", "2.0"), ("layers", "true"),
     ("dim", "1e400"), ("layers", "Infinity"), ("channels", "-Infinity"), ("dim", "NaN"),
     pytest.param("dim", "9" * 5000, id="dim-5000-digits"), ("version", "true"), ("version", "1.0")],
)
def test_checkpoint_header_values_must_be_json_integers(tmp_path, key, literal):
    path = tmp_path / "header.json"
    save_checkpoint(path, CmlaParams.init(dim=2, channels=2, rng=46))
    text, count = re.subn(f'"{key}": [0-9]+', f'"{key}": {literal}', path.read_text(encoding="utf-8"))
    assert count == 1
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_deep_nesting_is_a_format_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_non_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": "cmla-checkpoint",\n "version": "\xe9t\xe9"}\n')
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 2: not UTF-8")):
        load_checkpoint(path)


def test_checkpoint_loads_integer_values_as_floats(tmp_path):
    params = CmlaParams.init(dim=2, channels=2, rng=40)
    path = tmp_path / "ints.json"
    save_checkpoint(path, params)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["tensors"]["aspect.prototype"]["values"] = [1, -2]
    path.write_text(json.dumps(payload), encoding="utf-8")
    loaded = load_checkpoint(path)
    assert loaded.aspect.prototype.data.dtype == np.float64
    assert loaded.aspect.prototype.data.tolist() == [1.0, -2.0]


def test_forward_accepts_vectors_or_tensors_alike():
    params = CmlaParams.init(dim=3, channels=2, rng=41)
    xs = random_inputs(3, 4, seed=42)
    a = forward(xs, params)
    b = forward([x.data for x in xs], params)
    assert np.array_equal(a.aspect.logits.data, b.aspect.logits.data)
    assert a.hidden.data.shape == (4, 3)


def test_predict_token_scores_rows_match_head_arrays(tiny_corpus):
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=43)
    pred = predict(sents[0], table, params)
    fwd = forward(embed_sentence(sents[0], table), params)
    rows = pred.token_scores
    assert [ts.token_index for ts in rows] == list(range(len(sents[0].tokens)))
    for i, ts in enumerate(rows):
        assert np.array_equal(ts.aspect_logits, fwd.aspect.logits.data[i])
        assert np.array_equal(ts.opinion_logits, fwd.opinion.logits.data[i])
        assert ts.aspect_attention == fwd.aspect.norm_scores.data[i]
        assert ts.opinion_attention == fwd.opinion.norm_scores.data[i]
    rows[0].aspect_logits[:] = 0.0
    assert np.array_equal(pred.token_scores[0].aspect_logits, fwd.aspect.logits.data[0])
