import codecs
import copy
import json
import os
import re
import stat
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmla.autodiff import Tensor, backward, constant, grad_check, init_uniform, node, zeros
from cmla.bio import ASPECT, O, OPINION
from cmla.data import (DataFormatError, EmbeddingTable, OovPolicy, Sentence, SynthConfig,
                       generate_synthetic, tokenize)
from cmla.gru import gru_run
from cmla.model import (
    CLASS_INDEX,
    CLASS_ORDER,
    PROTOTYPE_INIT,
    CmlaParams,
    FactoredGrad,
    TrainConfig,
    UPDATE_ROWS,
    TrainingDiverged,
    attend,
    attention_layer,
    block_diagonal,
    classify,
    clip_gradients,
    compose,
    embed_sentence,
    forward,
    head_blocks,
    load_checkpoint,
    loss,
    predict,
    save_checkpoint,
    sentence_loss,
    train,
    update_prototype,
)


MAP_NAMES = ("aspect.comp", "aspect.cross", "opinion.comp", "opinion.cross")


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_synthetic(SynthConfig(dim=6))


def random_inputs(d, n, seed=0):
    gen = np.random.default_rng(seed)
    return [constant(gen.uniform(-1, 1, size=d)) for _ in range(n)]


def random_rows(d, n, seed=0):
    """An (n, d) block of hidden states, as attention layers receive them."""
    return constant(np.random.default_rng(seed).uniform(-1, 1, size=(n, d)))


def random_gold(n, seed=0):
    gen = np.random.default_rng(seed)
    return "".join(CLASS_ORDER[int(gen.integers(3))] for _ in range(n))


# --- parameters -------------------------------------------------------------


def test_init_shapes_and_prototype_band():
    params = CmlaParams.init(dim=5, channels=3, rng=0, init_scale=0.7)
    assert {name: t.data.shape for name, t in params.named_tensors().items()} == CmlaParams.shapes(5, 3)
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
    heads = (params.aspect, params.opinion)
    _, scores = attention_layer(h_seq, stacked_prototypes(params), heads, head_blocks(heads))
    assert scores.data.shape == (1, 2)
    assert np.all(np.abs(scores.data - 1.0) <= 1e-12)


def test_attention_zero_params_uniform_scores():
    params = CmlaParams.init(dim=4, channels=2, rng=1)
    for t in params.named_tensors().values():
        t.data[:] = 0.0
    h_seq = random_rows(4, 5, seed=3)
    heads = (params.aspect, params.opinion)
    _, scores = attention_layer(h_seq, stacked_prototypes(params), heads, head_blocks(heads))
    assert np.allclose(scores.data, np.full((5, 2), 0.2), atol=1e-15)


def test_attention_outputs_per_token():
    params = CmlaParams.init(dim=4, channels=2, rng=4)
    heads = (params.aspect, params.opinion)
    h_seq, u = random_rows(4, 3, seed=5), stacked_prototypes(params)
    logits, scores = attention_layer(h_seq, u, heads, head_blocks(heads))
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
    gold_a = random_gold(n, seed=n)
    gold_p = random_gold(n, seed=n + 1)

    def f():
        block = block_diagonal(*(c.data for c in classifiers))   # rebuilt: grad_check moves the data
        return loss(classify(features, *classifiers, block=block), gold_a, gold_p)

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
        block = block_diagonal(*(c.data for c in w))
        assert np.array_equal(classify(constant(h[:n]), *w, block=block).data,
                              classify(constant(h), *w, block=block).data[:n])


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
    logits, scores = forward(random_inputs(4, 1, seed=10), params)
    for head in range(2):
        probs = np.exp(logits.data[0, 3 * head : 3 * head + 3])
        probs /= probs.sum()
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert abs(scores.data[:, head].sum() - 1.0) <= 1e-12


def test_forward_norm_scores_sum_to_one_multi_token():
    params = CmlaParams.init(dim=5, channels=3, rng=11)
    _, scores = forward(random_inputs(5, 6, seed=12), params)
    assert np.all(np.abs(scores.data.sum(axis=0) - 1.0) <= 1e-12)


def test_forward_single_layer_is_causal():
    # with one attention layer the prototypes never feed back through the
    # sentence-wide softmax, so a token appended at the end cannot change
    # the logits of the tokens before it
    params = CmlaParams.init(dim=4, channels=2, rng=13, layers=1)
    xs = random_inputs(4, 4, seed=14)
    base, _ = forward(xs, params)
    extended, _ = forward(xs + random_inputs(4, 1, seed=15), params)
    for t in range(4):   # both heads' logits
        assert np.array_equal(base.data[t], extended.data[t])


def test_forward_single_layer_logits_prefix_stable_at_dim_100():
    # every row product is its own matrix-vector product, so at the
    # benchmark's dim-100, 20-channel shape a prefix of up to 40 tokens
    # reproduces the full sentence's logits bit for bit
    params = CmlaParams.init(dim=100, channels=20, rng=54, layers=1)
    xs = list(np.random.default_rng(55).uniform(-1, 1, size=(40, 100)))
    full, _ = forward(xs, params)
    for n in range(1, 41):
        assert np.array_equal(forward(xs[:n], params)[0].data, full.data[:n]), n


def test_classify_and_compose_raise_on_overflow():
    # finite terms whose row sums overflow: the row products report it
    big = constant(np.full((3, 4), 1.7e308))
    m = np.zeros((1, 2, 2))
    m[:, :, 0] = 1.7e308
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            classify(constant(np.full((2, 8), 0.9)), big, big, block=block_diagonal(big.data, big.data))
        with pytest.raises(FloatingPointError, match="overflow"):
            compose(constant(np.full((2, 2), 0.9)), constant([[1.0, 0.0], [1.0, 0.0]]),
                    heads_of(*[constant(m)] * 4))


def test_forward_layer_count_changes_output():
    xs = random_inputs(4, 3, seed=16)
    one = CmlaParams.init(dim=4, channels=2, rng=17, layers=1)
    two = CmlaParams.init(dim=4, channels=2, rng=17, layers=2)
    a = forward(xs, one)[0].data[0, :3]
    b = forward(xs, two)[0].data[0, :3]
    assert not np.array_equal(a, b)


def test_forward_full_gradcheck_small():
    gen = np.random.default_rng(18)
    params = CmlaParams.init(dim=6, channels=3, rng=gen, init_scale=1.2)
    xs = [constant(gen.uniform(-1, 1, size=6)) for _ in range(4)]
    ga = random_gold(4, seed=19)
    gp = random_gold(4, seed=20)

    def f():
        return loss(forward(xs, params)[0], ga, gp)

    assert grad_check(f, params.named_tensors().values(), max_coords_per_param=4, rng=21) < 1e-4


# recorded from commit 9431f9c, whose forward ran each head's attention
# layer and prototype update as separate calls; values are repr floats
GOLDEN = json.loads((Path(__file__).parent / "golden_forward.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=lambda c: f"layers{c['layers']}-n{len(c['inputs'])}")
def test_forward_and_gradients_match_golden(case):
    params = CmlaParams.init(dim=5, channels=3, rng=case["seed"], layers=case["layers"],
                             init_scale=case["init_scale"])
    logits, scores = forward(np.array(case["inputs"]), params)
    value = loss(logits, "".join(case["gold_aspect"]), "".join(case["gold_opinion"]))
    grads = backward(value)
    close = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(value.item(), case["loss"], **close)
    for i, head in enumerate((ASPECT, OPINION)):
        np.testing.assert_allclose(logits.data[:, 3 * i : 3 * i + 3], case[f"{head}_logits"], **close)
        np.testing.assert_allclose(scores.data[:, i], case[f"{head}_scores"], **close)
    named = {name: t for name, t in params.named_tensors().items() if t in grads}
    assert sorted(named) == sorted(case["grads"])   # one layer leaves proto_map unused
    for name, t in named.items():
        np.testing.assert_allclose(np.asarray(grads[t]).reshape(-1), case["grads"][name],
                                   err_msg=name, **close)


# --- loss -------------------------------------------------------------------


def test_loss_uniform_logits_is_two_ln_three():
    n = 5
    logits = constant(np.zeros((n, 6)))
    val = loss(logits, O * n, O * n)
    assert abs(val.item() - 2 * np.log(3)) < 1e-12


def test_loss_perfect_logits_tends_to_zero():
    n = 3
    gold = "BIO"
    rows = np.full((n, 3), -50.0)
    for t, lab in enumerate(gold):
        rows[t, CLASS_INDEX[lab]] = 50.0
    strong = constant(np.hstack([rows, rows]))
    val = loss(strong, gold, gold)
    assert val.item() < 1e-12


def test_loss_matches_direct_oracle():
    gen = np.random.default_rng(22)
    n = 4
    la = gen.normal(size=(n, 3))
    lp = gen.normal(size=(n, 3))
    ga = random_gold(n, seed=23)
    gp = random_gold(n, seed=24)
    val = loss(constant(np.hstack([la, lp])), ga, gp)

    def head_nll(logits, gold):
        total = 0.0
        for vec, lab in zip(logits, gold):
            p = np.exp(vec) / np.exp(vec).sum()
            total -= np.log(p[CLASS_INDEX[lab]])
        return total / len(gold)

    expected = head_nll(la, ga) + head_nll(lp, gp)
    assert abs(val.item() - expected) < 1e-12
    assert val.item() >= 0.0


def test_loss_length_mismatch():
    logits = constant(np.zeros((1, 6)))
    with pytest.raises(ValueError):
        loss(logits, "OO", O)
    with pytest.raises(ValueError):
        loss(logits, O, "OO")
    for bad in (np.zeros(6), np.zeros((1, 3))):   # one head's block alone
        with pytest.raises(ValueError):
            loss(constant(bad), O, O)


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


def test_train_visits_sentences_in_the_seeded_permutation_order(tiny_corpus, monkeypatch):
    sents, table = tiny_corpus
    visited = []

    def recording_loss(sentence, *args):
        visited.append(sents.index(sentence))
        return sentence_loss(sentence, *args)

    monkeypatch.setattr("cmla.model.sentence_loss", recording_loss)
    train(sents[:5], table, CmlaParams.init(dim=6, channels=2, rng=28), TrainConfig(lr=0.1, epochs=3, seed=7))
    gen = np.random.default_rng(7)
    assert visited == [int(i) for _ in range(3) for i in gen.permutation(5)]


def test_train_on_one_sentence_seeds_no_generator(tiny_corpus, monkeypatch):
    sents, table = tiny_corpus
    start = CmlaParams.init(dim=6, channels=2, rng=29)

    def run(seed):
        params = copy.deepcopy(start)
        trace = train(sents[2:3], table, params, TrainConfig(lr=0.3, epochs=3, seed=seed))
        return trace, params.flat.tobytes(), [params.named_tensors()[m].data.tobytes() for m in MAP_NAMES]

    expected = run(0)
    monkeypatch.setattr(np.random, "default_rng", None)   # calling it would raise TypeError
    assert run(0) == expected and run(123) == expected


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


def test_train_reports_classifier_overflow_as_divergence(tiny_corpus):
    # saturated attention features near 1 make every logit 2 * 1.7e308; the
    # step stops there, not at a later NaN in the attention weights
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=28)
    for head in (params.aspect, params.opinion):
        head.att_gru.b_z.data[:] = 20.0
        head.att_gru.b_h.data[:] = 20.0
        head.classifier.data[:] = 1.7e308
    with pytest.raises(TrainingDiverged, match="overflow encountered in matmul at epoch 0"):
        train(sents[:3], table, params, TrainConfig(epochs=1))


def test_train_rejects_empty_dataset(tiny_corpus):
    _, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=29)
    with pytest.raises(ValueError):
        train([], table, params, TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    for lr in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            TrainConfig(lr=lr)
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
    totals = {t: 0.0 for t in params.named_tensors().values()}
    for s in sents[:6]:
        grads = backward(sentence_loss(s, table, params))
        for t in totals:
            g = grads.get(t)
            if g is not None:
                totals[t] += float(np.abs(g).sum())
    names = params.named_tensors()
    for name, t in names.items():
        assert totals[t] > 0.0, f"parameter {name} never received gradient"


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 25])
def test_training_step_builds_one_node_per_layer_operation(tiny_corpus, layers, n):
    # the input block, the context GRU and the stacked prototypes; compose,
    # attention GRU, classify and attend per layer; one prototype update
    # between layers; the loss: 5 * layers + 3 tensors at any length
    sents, table = tiny_corpus
    words = [tok.surface for s in sents for tok in s.tokens][:n]
    sentence = Sentence(" ".join(words), tokenize(" ".join(words)), [], [])
    assert len(sentence.tokens) == n
    params = CmlaParams.init(dim=6, channels=2, rng=layers, layers=layers)
    before = Tensor(0.0).node_id
    backward(sentence_loss(sentence, table, params))
    assert Tensor(0.0).node_id - before - 1 == 5 * layers + 3


def test_gradient_clipping_bounds_update(tiny_corpus):
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=31)
    grads = backward(sentence_loss(sents[0], table, params))
    dense = sum(float((np.asarray(grads[t]) ** 2).sum()) for t in params.named_tensors().values())
    # as train passes it: the 33 dense gradients as one vector, the maps' FactoredGrads
    named = params.named_tensors()
    map_grads = [grads[named.pop(name)] for name in MAP_NAMES]
    flat = np.concatenate([grads[t] for t in named.values()], axis=None)
    # the comp and cross terms come from FactoredGrad.squared_norm
    assert clip_gradients(flat, map_grads, 0.01) == pytest.approx(np.sqrt(dense), rel=1e-12, abs=0)
    total = float((flat ** 2).sum()) + sum(float((np.asarray(g) ** 2).sum()) for g in map_grads)
    assert np.sqrt(total) <= 0.01 + 1e-12


def test_clip_gradients_raises_on_a_norm_that_overflows():
    # BLAS's vdot returns inf here without raising, even under np.errstate;
    # clipping by threshold / inf would zero the step and skip it silently
    g = np.array([1e200, 1.0])
    with pytest.raises(FloatingPointError, match="non-finite gradient norm inf"):
        clip_gradients(g, [], 5.0)
    assert np.array_equal(g, [1e200, 1.0])
    huge_map = FactoredGrad(np.full((1, 1, 1), 1e100), np.full((1, 1), 1e100))   # Gram matrices finite
    with pytest.raises(FloatingPointError, match="non-finite gradient norm"):
        clip_gradients(np.zeros(3), [huge_map], 5.0)


def test_train_reports_an_overflowing_gradient_norm_as_divergence(tiny_corpus):
    # at this classifier scale the forward and the backward stay finite but
    # the squared norm of the gradient does not
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=28)
    params.aspect.classifier.data[:] = np.array([[3e154], [0.0], [-3e154]])
    with pytest.raises(TrainingDiverged, match=r"^non-finite gradient norm inf at epoch 0, sentence index \d$"):
        train(sents[:3], table, params, TrainConfig(epochs=1))


# --- the SGD step -----------------------------------------------------------


def per_tensor_sgd_step(grads, tensors, lr, threshold):
    """The step as train made it before the parameter vector, as a reference:
    the squared norm summed tensor by tensor, then every gradient scaled and
    subtracted on its own. Returns the norm."""
    sq = 0.0
    for t in tensors:
        g = grads.get(t)
        if g is not None:
            sq += g.squared_norm() if isinstance(g, FactoredGrad) else float(np.vdot(g, g))
    norm = float(np.sqrt(sq))
    if norm > threshold:
        factor = threshold / norm
        for t in tensors:
            if t in grads:
                grads[t] = grads[t] * factor
    for t in tensors:
        g = grads.get(t)
        if isinstance(g, FactoredGrad):
            g.subtract_from(t.data, lr)
        elif g is not None:
            t.data -= lr * g
    return norm


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("clip", [1e-3, 1e6])
def test_sgd_step_matches_the_per_tensor_update(tiny_corpus, layers, clip):
    # per element both compute p - lr * (g * f); only the summation order of
    # the norm, and so f when clipping fires, may differ
    sents, table = tiny_corpus
    config = TrainConfig(lr=0.3, epochs=1, clip=clip)
    stepped, reference = (CmlaParams.init(dim=6, channels=3, rng=42, layers=layers) for _ in range(2))
    start = {name: t.data.copy() for name, t in stepped.named_tensors().items()}
    train([sents[1]], table, stepped, config)
    grads = backward(sentence_loss(sents[1], table, reference))
    norm = per_tensor_sgd_step(grads, reference.named_tensors().values(), config.lr, config.clip)
    assert (norm > clip) == (clip < 1)   # the small threshold clips, the large one does not
    want = reference.named_tensors()
    unused = {"aspect.proto_map", "opinion.proto_map"} if layers == 1 else set()
    assert len(want) == 37
    for name, t in stepped.named_tensors().items():
        assert np.array_equal(t.data, start[name]) == (name in unused), name
        if clip > 1:
            assert np.array_equal(t.data, want[name].data), name
        else:
            np.testing.assert_allclose(t.data, want[name].data, rtol=1e-15, atol=0, err_msg=name)


# --- factored map gradients -------------------------------------------------


def dense_sgd_step(sentence, table, params, config):
    """One SGD step with every gradient made dense first; returns the norm."""
    grads = {t: np.asarray(g) for t, g in backward(sentence_loss(sentence, table, params)).items()}
    return per_tensor_sgd_step(grads, params.named_tensors().values(), config.lr, config.clip)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("clip", [1e-3, 1e6])
def test_factored_update_matches_dense_update(tiny_corpus, layers, clip):
    sents, table = tiny_corpus
    config = TrainConfig(lr=0.3, epochs=1, clip=clip)
    factored, dense = (CmlaParams.init(dim=6, channels=3, rng=40, layers=layers) for _ in range(2))
    start = copy.deepcopy(factored.named_tensors())
    grads = backward(sentence_loss(sents[1], table, factored))
    maps = [t for h in (factored.aspect, factored.opinion) for t in (h.comp, h.cross)]
    for t in factored.named_tensors().values():
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


def test_factored_update_covers_every_row_block():
    # a (k*d, d) map of more than two UPDATE_ROWS blocks, the last one partial
    gen = np.random.default_rng(56)
    k, d = 2 * UPDATE_ROWS // 50 + 1, 100
    x = FactoredGrad(gen.standard_normal((2, k, d)), gen.standard_normal((2, d)))
    param = gen.standard_normal((k, d, d))
    expected = param - 0.07 * np.asarray(x)
    x.subtract_from(param, 0.07)
    assert np.all(np.abs(param - expected) <= 1e-12 * (np.abs(expected) + 0.07 * magnitude(x)))


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
            again = labels_to_spans(spans_to_labels(n, spans_list, head), head)
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



def sentence_of(words, source_id="s"):
    text = " ".join(words)
    return Sentence(text, tokenize(text), [], [], source_id=source_id)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 6), channels=st.integers(1, 3), layers=st.integers(1, 3),
       n=st.one_of(st.integers(1, 30), st.just(200)), known=st.sampled_from([0.0, 0.5, 1.0]),
       hashed=st.booleans(), seed=st.integers(0, 2**16))
@example(dim=1, channels=1, layers=1, n=1, known=1.0, hashed=False, seed=0)
@example(dim=1, channels=2, layers=3, n=200, known=0.5, hashed=False, seed=1)
@example(dim=4, channels=2, layers=3, n=7, known=0.0, hashed=False, seed=2)   # all OOV, zero vectors
@example(dim=3, channels=2, layers=1, n=200, known=0.0, hashed=True, seed=3)   # all OOV, bucket vectors
def test_predict_runs_the_forward_kernels_without_a_graph(dim, channels, layers, n, known, hashed, seed):
    # predict's logits and attention are forward's, bit for bit, and it
    # creates no autodiff node: probes before and after differ by one id
    gen = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(10)]
    vectors = {w: gen.uniform(-1, 1, size=dim) for w in vocab[: round(known * len(vocab))]}
    table = EmbeddingTable(dim, vectors, OovPolicy("hash_bucket", 3) if hashed else OovPolicy())
    sentence = sentence_of([vocab[i] for i in gen.integers(0, len(vocab), size=n)])
    params = CmlaParams.init(dim=dim, channels=channels, rng=seed, layers=layers, init_scale=0.8)
    before = Tensor(0.0).node_id
    pred = predict(sentence, table, params)
    assert Tensor(0.0).node_id - before == 1
    logits, scores = (t.data for t in forward(embed_sentence(sentence, table), params))
    got = (pred.aspect_logits, pred.opinion_logits, pred.aspect_attention, pred.opinion_attention)
    want = (logits[:, :3], logits[:, 3:], scores[:, 0], scores[:, 1])
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_predict_rejects_a_sentence_without_tokens(tiny_corpus):
    _, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=36)
    with pytest.raises(ValueError, match="nonempty sequence"):
        predict(Sentence("   ", [], [], [], source_id="blank"), table, params)


@pytest.mark.parametrize("layers", [1, 2])
def test_predict_names_the_sentence_whose_forward_pass_overflows(tiny_corpus, layers):
    # features all about 0.38 after the first step, so each logit row sums
    # four products of about 0.38 * 1.7e308 and overflows; no outer errstate:
    # predict's own turns the overflow into the error
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=4, rng=37, layers=layers)
    for head in (params.aspect, params.opinion):
        for t in head.att_gru.tensors().values():
            t.data[:] = 0.0
        head.att_gru.b_h.data[:] = 1.0
        head.classifier.data[:] = 1.7e308
    with pytest.raises(FloatingPointError, match=rf"^overflow .* in the forward pass of sentence {sents[0].source_id}$"):
        predict(sents[0], table, params)


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


CHECKPOINT_V1 = Path(__file__).parent / "checkpoint_v1.json"


def test_checkpoint_v1_loads_and_saves_back_to_identical_bytes(tmp_path):
    # checkpoint_v1.json was written before the GRU tensors became views of
    # gate blocks and of the parameter vector; the format and the bytes must not change
    params = load_checkpoint(CHECKPOINT_V1)
    assert np.shares_memory(params.ctx_gru.U_r.data, params.ctx_gru.u)
    assert params.ctx_gru.u.base is params.flat
    save_checkpoint(tmp_path / "again.json", params)
    assert (tmp_path / "again.json").read_bytes() == CHECKPOINT_V1.read_bytes()


def test_deep_copy_trains_on_its_own_parameter_vector(tiny_corpus):
    sents, table = tiny_corpus
    original = CmlaParams.init(dim=6, channels=2, rng=61)
    before = {name: t.data.tobytes() for name, t in original.named_tensors().items()}
    twin = copy.deepcopy(original)
    assert not np.shares_memory(twin.flat, original.flat) and twin.layers == original.layers
    for s in sents[:3]:
        a, b = predict(s, table, original), predict(s, table, twin)
        assert a.merged == b.merged
        assert np.array_equal(np.hstack([a.aspect_logits, a.opinion_logits]),
                              np.hstack([b.aspect_logits, b.opinion_logits]))
    trace = train(sents[:3], table, twin, TrainConfig(lr=0.3, epochs=2, seed=1))
    assert len(trace) == 2 and np.isfinite(trace).all()
    assert {name: t.data.tobytes() for name, t in original.named_tensors().items()} == before
    assert twin.flat.tobytes() != original.flat.tobytes()


@pytest.mark.parametrize("source", ["init", "from_named", "load_checkpoint", "checkpoint_v1", "deepcopy"])
def test_every_tensor_but_the_maps_is_a_view_of_the_parameter_vector(tmp_path, source):
    params = CmlaParams.init(dim=4, channels=3, rng=60, layers=3)
    if source == "from_named":
        copies = {name: Tensor(t.data, requires_grad=True) for name, t in params.named_tensors().items()}
        params = CmlaParams.from_named(copies, 3)
        assert all(params.named_tensors()[name] is t for name, t in copies.items())
    elif source == "load_checkpoint":
        save_checkpoint(tmp_path / "model.json", params)
        params = load_checkpoint(tmp_path / "model.json")
    elif source == "checkpoint_v1":
        params = load_checkpoint(CHECKPOINT_V1)
    elif source == "deepcopy":
        params = copy.deepcopy(params)
    named = params.named_tensors()
    dense = [t.data for name, t in named.items() if name not in MAP_NAMES]
    assert len(dense) == 33 and params.flat.base is None and params.flat.ndim == 1
    assert np.array_equal(params.flat, np.concatenate(dense, axis=None))
    for name, t in named.items():
        assert (t.data.base is params.flat) == (name not in MAP_NAMES), name
        assert np.shares_memory(t.data, params.flat) == (name not in MAP_NAMES), name
    cells = (params.ctx_gru, params.aspect.att_gru, params.opinion.att_gru)
    assert all(block.base is params.flat for cell in cells for block in (cell.w, cell.u, cell.b))
    # each gate block starts in the vector where its first gate does
    for cell in cells:
        for block, first in ((cell.w, cell.W_z), (cell.u, cell.U_z), (cell.b, cell.b_z)):
            assert block.ctypes.data == first.data.ctypes.data
    # distinct values in the vector show each tensor's place in it, biases too
    params.flat[:] = np.arange(params.flat.size)
    assert np.array_equal(np.concatenate(dense, axis=None), np.arange(params.flat.size))
    for cell in cells:
        gates = [t.data for t in cell.tensors().values()]
        for block, rows in ((cell.w, gates[:3]), (cell.u, gates[3:6]), (cell.b, gates[6:])):
            assert np.array_equal(block, np.concatenate(rows))


def test_checkpoint_bytes_are_sorted_json_of_whole_payload(tmp_path):
    # at dim 24 and 8 channels each map holds 4,608 values: a whole save slice and part of one
    for dim, channels, layers in ((3, 2, 3), (24, 8, 2)):
        params = CmlaParams.init(dim=dim, channels=channels, rng=44, layers=layers)
        comp = params.aspect.comp.data.reshape(-1)
        comp[[0, -1]] = [-0.0, 5e-324]
        if comp.size > 4096:
            comp[[4095, 4096]] = [-2.5e-310, 1e300]
        params.ctx_gru.b_z.data[:2] = [-0.0, 2.2250738585072014e-308]
        path = tmp_path / "model.json"
        save_checkpoint(path, params)
        payload = {
            "format": "cmla-checkpoint", "version": 1, "dim": dim, "channels": channels, "layers": layers,
            "tensors": {name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
                        for name, t in params.named_tensors().items()},
        }
        assert path.read_text(encoding="utf-8") == json.dumps(payload, sort_keys=True) + "\n"
        assert load_checkpoint(path).aspect.comp.data.tobytes() == params.aspect.comp.data.tobytes()


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_save_and_load_hold_little_beyond_the_text(tmp_path):
    # dim 60, 10 channels: a 3.76 MB file. Saving a slice at a time holds about
    # 0.16x the file. Loading it holds the arrays plus one slice of bytes and
    # floats; a whole-document parse that turned each tensor's floats into an
    # array as it went held about 2.0x. Keeping every tensor's floats took
    # 1.34x and 2.52x.
    params = CmlaParams.init(dim=60, channels=10, rng=48)
    path = tmp_path / "model.json"
    save_peak = traced_peak(save_checkpoint, path, params)
    size = path.stat().st_size
    load_peak = traced_peak(load_checkpoint, path)
    assert save_peak < 0.5 * size
    assert load_peak < 2.25 * size


def test_checkpoint_load_holds_less_than_half_the_file(tmp_path):
    # dim 60, 20 channels: a 7.0 MB file whose arrays take 2.6 MB. Read a slice
    # at a time, the load peaks at about 0.44x the file; a whole-document parse
    # that turned each tensor's floats into an array as it went took about 2.0x
    params = CmlaParams.init(dim=60, channels=20, rng=49)
    path = tmp_path / "model.json"
    save_checkpoint(path, params)
    assert traced_peak(load_checkpoint, path) < 0.5 * path.stat().st_size


def rejection(path) -> tuple:
    """The byte offset and the expected item that load_checkpoint's one-line message names."""
    with pytest.raises(DataFormatError) as info:
        load_checkpoint(path)
    found = re.fullmatch(rf"{re.escape(str(path))}: byte ([0-9]+): expected "
                         "(a header field|a tensor name|a finite float|the end of the values list|the tail)",
                         str(info.value))
    assert found, str(info.value)
    return int(found[1]), found[2]


def first_difference(a: bytes, b: bytes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def values_at(text: bytes, name: str) -> int:
    """The offset of the first value of tensor `name` in a checkpoint's bytes."""
    start = text.index(json.dumps(name).encode() + b": ")
    return text.index(b'"values": [', start) + len(b'"values": [')


def test_checkpoint_with_bom_loads_through_the_slice_reader(tmp_path):
    params = CmlaParams.init(dim=3, channels=2, rng=50, layers=3)
    path, marked = tmp_path / "model.json", tmp_path / "marked.json"
    save_checkpoint(path, params)
    text = path.read_bytes()
    marked.write_bytes(codecs.BOM_UTF8 + text)
    loaded = load_checkpoint(marked)
    assert loaded.layers == 3
    assert {name: t.data.tobytes() for name, t in loaded.named_tensors().items()} == \
        {name: t.data.tobytes() for name, t in params.named_tensors().items()}
    # offsets count the file's bytes, the byte order mark's three among them
    marked.write_bytes(codecs.BOM_UTF8 + text.replace(b'"layers": 3', b'"layers": x'))
    assert rejection(marked) == (3 + text.index(b'"layers": 3') + len(b'"layers": '), "a header field")


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all", encoding="utf-8")
    assert rejection(path) == (0, "a header field")


def test_checkpoint_rejects_wrong_format_and_version(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}), encoding="utf-8")
    assert rejection(path) == (2, "a header field")   # '{"format"' where '{"channels"' belongs
    params = CmlaParams.init(dim=2, channels=2, rng=36)
    good = tmp_path / "good.json"
    save_checkpoint(good, params)
    payload = json.loads(good.read_text(encoding="utf-8"))
    payload["version"] = 99
    bad = tmp_path / "version.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    assert rejection(bad) == (first_difference(bad.read_bytes(), good.read_bytes()), "the tail")


def test_checkpoint_rejects_missing_tensor_and_bad_shape(tmp_path):
    params = CmlaParams.init(dim=2, channels=2, rng=37)
    good = tmp_path / "good.json"
    save_checkpoint(good, params)
    payload = json.loads(good.read_text(encoding="utf-8"))

    dropped = dict(payload, tensors={k: v for k, v in payload["tensors"].items()
                                     if k != "aspect.comp"})
    p1 = tmp_path / "missing.json"
    p1.write_text(json.dumps(dropped), encoding="utf-8")
    # aspect.prototype's entry where aspect.comp's belongs
    assert rejection(p1) == (first_difference(p1.read_bytes(), good.read_bytes()), "a tensor name")

    mangled = json.loads(good.read_text(encoding="utf-8"))
    mangled["tensors"]["aspect.prototype"]["shape"] = [3]
    p2 = tmp_path / "shape.json"
    p2.write_text(json.dumps(mangled), encoding="utf-8")
    assert rejection(p2) == (first_difference(p2.read_bytes(), good.read_bytes()), "a tensor name")


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
        assert rejection(path) == (0, "a header field")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "name, entry, fault",
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
def test_checkpoint_rejects_bad_tensor_entries(tmp_path, name, entry, fault):
    # `fault` names what is wrong with the entry; the message names the byte
    # inside the entry where the file stops being a checkpoint
    params = CmlaParams.init(dim=2, channels=1, rng=38)
    good = tmp_path / "good.json"
    save_checkpoint(good, params)
    payload = json.loads(good.read_text(encoding="utf-8"))
    payload["tensors"][name] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    text, written = bad.read_bytes(), f"{json.dumps(name)}: {json.dumps(entry)}".encode()
    at, expected = rejection(bad)
    assert text.index(written) <= at <= text.index(written) + len(written)
    opened = text.find(b'"values": [', text.index(written), text.index(written) + len(written))
    assert expected == ("a finite float" if 0 <= opened < at else "a tensor name")


def test_checkpoint_rejects_non_object_payloads(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert rejection(path) == (0, "a header field")
    params = CmlaParams.init(dim=2, channels=2, rng=39)
    save_checkpoint(path, params)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["tensors"] = list(payload["tensors"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert rejection(path) == (path.read_bytes().index(b'"tensors": [') + len(b'"tensors": '), "a header field")


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
    at, expected = rejection(path)
    # at the literal, or after the digits that start it (18 at most are read)
    start = text.index(f'"{key}": ') + len(f'"{key}": ')
    assert start <= at <= start + min(len(literal), 18)
    assert expected == ("the tail" if key == "version" else "a header field")


def test_checkpoint_deep_nesting_is_a_format_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert rejection(path) == (0, "a header field")


def test_checkpoint_non_utf8_names_file_and_byte(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": "cmla-checkpoint",\n "version": "\xe9t\xe9"}\n')
    assert rejection(path) == (2, "a header field")
    save_checkpoint(path, CmlaParams.init(dim=2, channels=1, rng=52))
    text = path.read_bytes()
    for at, expected in ((text.index(b"aspect.comp"), "a tensor name"), (values_at(text, "aspect.comp"), "a finite float")):
        path.write_bytes(text[:at] + b"\xe9" + text[at + 1 :])
        assert rejection(path) == (at, expected)


def test_checkpoint_rejects_integer_values(tmp_path):
    params = CmlaParams.init(dim=2, channels=2, rng=40)
    path = tmp_path / "ints.json"
    save_checkpoint(path, params)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["tensors"]["aspect.prototype"]["values"] = [1, -2]
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert rejection(path) == (values_at(path.read_bytes(), "aspect.prototype"), "a finite float")


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory) -> bytes:
    """A dim-2, one-channel checkpoint: 3,644 bytes."""
    path = tmp_path_factory.mktemp("small") / "model.json"
    save_checkpoint(path, CmlaParams.init(dim=2, channels=1, rng=0, layers=1))
    return path.read_bytes()


def test_checkpoint_rejects_every_proper_prefix(tmp_path, small_checkpoint):
    path = tmp_path / "model.json"
    for end in range(len(small_checkpoint)):
        path.write_bytes(small_checkpoint[:end])
        assert rejection(path)[0] <= end


def test_checkpoint_names_a_change_to_its_framing_at_its_byte(tmp_path, small_checkpoint):
    # the framing is everything outside the values lists: the header, the
    # entry prefixes, the "}, " joins and the tail, all compared byte for byte
    path, text = tmp_path / "model.json", small_checkpoint
    head, tail = text.index(b'"tensors": {') + len(b'"tensors": {'), text.rindex(b"]")
    lists = {i for m in re.finditer(rb'(?<="values": \[)[^\]]*\]', text) for i in range(m.start(), m.end())}
    for at in sorted(set(range(len(text))) - lists):
        path.write_bytes(text[:at] + bytes([text[at] ^ 0x20]) + text[at + 1 :])   # never digit to digit
        assert rejection(path) == (at, "a header field" if at < head else "the tail" if at > tail else "a tensor name")


def test_checkpoint_reader_is_linear_in_a_long_value(tmp_path):
    # a run of digits with no separator: read whole, its time grew with its
    # square and its memory with its length (48 MiB and 3 s for this one)
    path = tmp_path / "run.json"
    save_checkpoint(path, CmlaParams.init(dim=2, channels=1, rng=53))
    text = path.read_bytes()
    at = values_at(text, "aspect.att_gru.U_h")
    path.write_bytes(text[:at] + b"1" * (16 << 20) + text[at:])
    tracemalloc.start()
    try:
        assert rejection(path) == (at, "a finite float")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_interrupted_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_checkpoint(path, CmlaParams.init(dim=3, channels=2, rng=54))
    before = path.read_bytes()
    dumps, calls = json.dumps, []

    def interrupted(*args, **kwargs):
        calls.append(1)
        if len(calls) == 6:   # the values of the fifth tensor entry
            raise KeyboardInterrupt
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(path, CmlaParams.init(dim=3, channels=2, rng=55))
    monkeypatch.undo()
    assert path.read_bytes() == before and list(tmp_path.iterdir()) == [path]
    # a whole save replaces the file, whose mode is a plain open's
    save_checkpoint(path, CmlaParams.init(dim=3, channels=2, rng=55))
    assert path.read_bytes() != before and list(tmp_path.iterdir()) == [path]
    plain = tmp_path / "plain"
    plain.open("w").close()
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_checkpoint_from_a_pipe_is_rejected_naming_it():
    read, write = os.pipe()
    os.write(write, b'{"channels": 1')
    os.close(write)
    try:
        with pytest.raises(DataFormatError, match=f"^/dev/fd/{read}: not a regular file"):
            load_checkpoint(f"/dev/fd/{read}")
    finally:
        os.close(read)


def test_forward_accepts_vectors_or_tensors_alike():
    params = CmlaParams.init(dim=3, channels=2, rng=41)
    xs = random_inputs(3, 4, seed=42)
    a_logits, a_scores = forward(xs, params)
    b_logits, b_scores = forward([x.data for x in xs], params)
    assert np.array_equal(a_logits.data, b_logits.data)
    assert np.array_equal(a_scores.data, b_scores.data)
    assert a_logits.data.shape == (4, 6) and a_scores.data.shape == (4, 2)


def test_predict_token_scores_rows_match_head_arrays(tiny_corpus):
    sents, table = tiny_corpus
    params = CmlaParams.init(dim=6, channels=2, rng=43)
    pred = predict(sents[0], table, params)
    logits, scores = (t.data for t in forward(embed_sentence(sents[0], table), params))
    rows = pred.token_scores
    assert [ts.token_index for ts in rows] == list(range(len(sents[0].tokens)))
    for i, ts in enumerate(rows):
        assert np.array_equal(ts.aspect_logits, logits[i, :3])
        assert np.array_equal(ts.opinion_logits, logits[i, 3:])
        assert ts.aspect_attention == scores[i, 0]
        assert ts.opinion_attention == scores[i, 1]
    rows[0].aspect_logits[:] = 0.0
    assert np.array_equal(pred.token_scores[0].aspect_logits, logits[0, :3])
