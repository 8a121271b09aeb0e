import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmla.autodiff import Tensor, backward, constant, grad_check, init_uniform, node, zeros
from cmla.gru import gru_run
from cmla.model import CLASS_INDEX, CLASS_ORDER, CmlaParams, attend, compose, loss, update_prototype


def randt(shape, seed=0, lo=-1.0, hi=1.0):
    return init_uniform(shape, lo, hi, np.random.default_rng(seed))


def dot(a, b):
    """Scalar sum(a * b) as one node, the loss these tests differentiate."""
    return node(np.vdot(a.data, b.data), (a, b), lambda g: (g * b.data, g * a.data))


def total(t):
    return dot(t, constant(np.ones(t.data.shape)))


def plus(a, b):
    """Elementwise a + b as one node, for graphs with a shared input."""
    return node(a.data + b.data, (a, b), lambda g: (g, g))


# --- init_uniform ---------------------------------------------------------


def test_init_uniform_range_and_determinism():
    a = init_uniform((3,), -0.2, 0.2, 7)
    b = init_uniform((3,), -0.2, 0.2, 7)
    assert np.all(a.data >= -0.2) and np.all(a.data <= 0.2)
    assert np.array_equal(a.data, b.data)
    assert a.requires_grad


def test_init_uniform_keeps_the_drawn_array():
    # the draw becomes the tensor's data: a copy doubled the peak, and every
    # CmlaParams.init copied its 7 MB of dim-100, 20-channel maps
    shape = (40, 100, 100)
    tracemalloc.start()
    try:
        t = init_uniform(shape, -0.2, 0.2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t.data.nbytes
    assert t.data.flags.owndata and t.data.dtype == np.float64
    assert np.array_equal(t.data, np.random.default_rng(3).uniform(-0.2, 0.2, size=shape))


def test_init_uniform_rejects_bad_shapes_and_intervals():
    with pytest.raises(ValueError):
        init_uniform((0,), -1, 1, 0)
    with pytest.raises(ValueError):
        init_uniform((2, -1), -1, 1, 0)
    with pytest.raises(ValueError):
        init_uniform((), -1, 1, 0)
    with pytest.raises(ValueError):
        init_uniform((2,), 0.0, 0.0, 0)
    with pytest.raises(ValueError):
        init_uniform((2,), 1.0, -1.0, 0)
    with pytest.raises(ValueError):   # the width 2e308 overflows
        init_uniform((2,), -1e308, 1e308, 0)


# --- node: graph node, constant or plain array ------------------------------


def test_node_returns_plain_result_for_plain_first_input():
    x, out, p = np.ones(3), np.arange(3.0), randt((3,))
    before = Tensor(0.0).node_id
    assert node(out, (x, p), lambda g: (g, g)) is out
    assert Tensor(0.0).node_id - before == 1   # the two probes are adjacent: no Tensor made
    t = node(out, (constant(x), p), lambda g: (g, g))
    assert isinstance(t, Tensor) and t.requires_grad and np.array_equal(t.data, out)
    assert backward(dot(t, constant(np.ones(3))))[p].tolist() == [1.0, 1.0, 1.0]
    c = node(out, (constant(x), constant(x)), lambda g: (g, g))
    assert isinstance(c, Tensor) and not c.requires_grad and c._parents == ()


# --- the matrix-vector products of update_prototype: u[i] + M_i (w[:, i]^T H)


def test_matmul_identity():
    # zero prototypes, identity maps, one-hot weights: each head's update is one state
    h = constant([[1.0, -2.0], [3.0, 0.5], [-4.0, 2.5]])
    w = constant([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    out = update_prototype(zeros((2, 2)), w, h, [constant(np.eye(2))] * 2)
    assert np.array_equal(out.data, h.data[1:])


def test_matmul_hand_case():
    # aspect: w^T H = 0.25 [1, 2] + 0.75 [3, 4] = [2.5, 3.5]; [1, 1] . [2.5, 3.5] = 6
    # opinion: w^T H = [2, 3]; [2, -1] . [2, 3] = 1
    out = update_prototype(constant([[0.5], [-1.0]]), constant([[0.25, 0.5], [0.75, 0.5]]),
                           constant([[1.0, 2.0], [3.0, 4.0]]),
                           [constant([[1.0, 1.0]]), constant([[2.0, -1.0]])])
    assert out.data.tolist() == [[6.5], [0.0]]


def test_matmul_grad_of_sum_matches_closed_form():
    u, h = randt((2, 3), seed=1), randt((5, 4), seed=3)
    maps = [randt((3, 4), seed=2), randt((3, 4), seed=5)]
    raw = np.random.default_rng(4).uniform(0.1, 1.0, size=(5, 2))
    w = Tensor(raw / raw.sum(axis=0), requires_grad=True)
    grads = backward(total(update_prototype(u, w, h, maps)))
    ones = np.ones(3)
    assert np.array_equal(grads[u], np.ones((2, 3)))
    for i, m in enumerate(maps):
        assert np.allclose(grads[w][:, i], h.data @ (m.data.T @ ones))
        assert np.allclose(grads[m], np.outer(ones, w.data[:, i] @ h.data))
    assert np.allclose(grads[h], sum(np.outer(w.data[:, i], m.data.T @ ones) for i, m in enumerate(maps)))


def test_matmul_shape_mismatch():
    # the first head's map fits; each check must cover every head
    w, u, eye = constant([[0.5, 0.5], [0.5, 0.5]]), constant(np.zeros((2, 2))), constant(np.eye(2))
    with pytest.raises(ValueError):   # map columns != state width
        update_prototype(u, w, constant(np.ones((2, 3))), [constant(np.ones((2, 3))), eye])
    with pytest.raises(ValueError):   # states not a matrix
        update_prototype(u, w, constant(np.ones(2)), [eye, eye])
    with pytest.raises(ValueError):   # map not a matrix
        update_prototype(u, w, constant(np.ones((2, 2))), [eye, constant(np.ones(2))])


def test_add_shape_mismatch():
    # each prototype must have one entry per map row, and there is one per map
    with pytest.raises(ValueError):
        update_prototype(constant(np.zeros((2, 3))), constant([[1.0, 1.0]]), constant(np.ones((1, 2))),
                         [constant(np.ones((3, 2))), constant(np.eye(2))])
    with pytest.raises(ValueError):
        update_prototype(constant(np.zeros((1, 2))), constant([[1.0, 1.0]]), constant(np.ones((1, 2))),
                         [constant(np.eye(2))] * 2)


# --- the model's one-node ops: tanh of bilinear forms (compose), softmax of
# the max of the B/I logits (attend), log-softmax cross-entropy (loss)


def heads_of(*maps):
    """(comp, cross) pairs as the heads compose reads them."""
    return [SimpleNamespace(comp=comp, cross=cross) for comp, cross in zip(maps[::2], maps[1::2])]


def update_gates(pre, width=400):
    """The update gates gru_run forms for the pre-activations `pre`: one step
    from the zero state of a model's context cell (`width` units at most) whose
    weights are zero and whose tanh(b_h) is 1 lands on the gate itself."""
    width = min(width, len(pre))
    cell = CmlaParams.init(dim=width, channels=1, rng=0).ctx_gru
    for t in cell.tensors().values():
        t.data[:] = 0.0
    cell.b_h.data[:] = 40.0   # np.tanh(40.0) == 1.0
    out = np.empty(len(pre))
    for at in range(0, len(pre), width):
        part = pre[at : at + width]
        cell.b_z.data[: len(part)] = part
        out[at : at + len(part)] = gru_run(np.zeros((1, width)), cell)[0, : len(part)]
    return out


def test_tanh_and_sigmoid_at_zero():
    heads = heads_of(*(randt((3, 2, 2), seed=9 + i) for i in range(4)))
    u = randt((2, 2), seed=13)
    assert np.array_equal(compose(zeros((4, 2)), u, heads).data, np.zeros((4, 12)))
    assert np.array_equal(update_gates(np.zeros(4)), np.full(4, 0.5))


def test_sigmoid_stable_at_extremes():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = update_gates(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 1.0


def two_branch_sigmoid(x):
    """The exp form, each branch exp'ing only -|x|: the oracle for the gates."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_sigmoid_matches_two_branch_form():
    x = np.linspace(-40.0, 40.0, 160_001)
    s = update_gates(x)
    # within one ulp of 1.0; below 0.5 the tanh form loses relative accuracy
    # (it gives exactly 0 far out) but never absolute accuracy
    assert np.max(np.abs(s - two_branch_sigmoid(x))) <= np.finfo(float).eps
    assert np.all(np.diff(s) >= 0.0)
    assert x[80_000] == 0.0 and s[80_000] == 0.5


def test_bilinear_matches_triple_loop_oracle():
    # each head composes against its own prototype, then the other head's
    gen = np.random.default_rng(13)
    h = init_uniform((2, 4), -1, 1, gen)
    maps = [init_uniform((3, 4, 5), -1, 1, gen) for _ in range(4)]
    u = init_uniform((2, 5), -1, 1, gen)
    out = compose(h, u, heads_of(*maps))
    expected = np.zeros((2, 12))
    for block, (m, j) in enumerate(zip(maps, (0, 1, 1, 0))):
        for n in range(2):
            for k in range(3):
                for i in range(4):
                    for jj in range(5):
                        expected[n, 3 * block + k] += h.data[n, i] * m.data[k, i, jj] * u.data[j, jj]
    assert np.allclose(out.data, np.tanh(expected), atol=1e-12)


def test_bilinear_gradcheck():
    gen = np.random.default_rng(14)
    for rows in (1, 4):
        h = init_uniform((rows, 3), -1, 1, gen)
        maps = [init_uniform((2, 3, 3), -1, 1, gen) for _ in range(4)]
        u = init_uniform((2, 3), -1, 1, gen)
        f = lambda: total(compose(h, u, heads_of(*maps)))
        assert grad_check(f, [h, u, *maps]) < 1e-6


def test_bilinear_shape_validation():
    u, heads = constant(np.ones((2, 2))), heads_of(*[constant(np.ones((1, 2, 2)))] * 4)
    with pytest.raises(ValueError):
        compose(constant(np.ones(2)), u, heads)
    with pytest.raises(ValueError):
        compose(constant(np.ones((1, 3))), u, heads)
    with pytest.raises(ValueError):
        compose(constant(np.ones((1, 2))), constant(np.ones((2, 3))), heads)


def logits_with_raw(*raws):
    """(n, 3 per head) logits whose max(B, I) of head i is raws[i]; the O
    columns must not matter."""
    blocks = []
    for raw in raws:
        raw = np.asarray(raw, dtype=float)
        blocks += [raw, raw - 1.0, np.full(raw.shape, 100.0)]
    return constant(np.stack(blocks, axis=1))


def test_softmax_uniform_and_oracle():
    x = np.array([1.0, 2.0, 3.0])
    out = attend(logits_with_raw([0.0, 0.0, 0.0], x)).data
    assert out.shape == (3, 2)
    assert np.allclose(out[:, 0], np.full(3, 1 / 3))
    assert np.allclose(out[:, 1], np.exp(x) / np.exp(x).sum(), atol=1e-12)
    out = attend(logits_with_raw(x, [0.0, 0.0, 0.0])).data
    assert np.allclose(out[:, 0], np.exp(x) / np.exp(x).sum(), atol=1e-12)
    assert np.allclose(out[:, 1], np.full(3, 1 / 3))


def test_softmax_shift_invariance():
    x = np.array([0.3, -1.2, 2.5, 0.0])
    base = attend(logits_with_raw(x, -x)).data
    for shift in ((123.456, 0.0), (0.0, 123.456)):
        shifted = attend(logits_with_raw(x + shift[0], -x + shift[1])).data
        assert np.allclose(base, shifted, rtol=1e-9)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_sums_to_one(values):
    out = attend(logits_with_raw(values, values[::-1]))
    assert np.all(np.abs(out.data.sum(axis=0) - 1.0) <= 1e-12)
    assert np.all(out.data > 0)


def test_softmax_gradcheck():
    for n in (1, 5):
        t = randt((n, 6), seed=15 + n)
        w = constant(np.random.default_rng(n).uniform(-1, 1, size=(n, 2)))
        assert grad_check(lambda: dot(attend(t), w), [t]) < 1e-6


def test_log_softmax_consistent_and_gradcheck():
    gen = np.random.default_rng(16)
    for n in (1, 3):
        logits = Tensor(np.hstack([randt((n, 3), seed=16 + n).data, randt((n, 3), seed=26 + n).data]),
                        requires_grad=True)
        ga = "".join(CLASS_ORDER[int(c)] for c in gen.integers(3, size=n))
        gp = "".join(CLASS_ORDER[int(c)] for c in gen.integers(3, size=n))
        expected = 0.0
        for block, gold in ((logits.data[:, :3], ga), (logits.data[:, 3:], gp)):
            probs = np.exp(block) / np.exp(block).sum(axis=1, keepdims=True)
            picked = probs[np.arange(n), [CLASS_INDEX[label] for label in gold]]
            expected -= np.log(picked).mean()
        assert abs(loss(logits, ga, gp).item() - expected) < 1e-12
        assert grad_check(lambda: loss(logits, ga, gp), [logits]) < 1e-6


def test_reduce_max_value_and_subgradient():
    # aspect max(B, I) is I then B, opinion B then I
    t = Tensor([[1.0, 5.0, 9.0, 4.0, 0.0, 9.0], [3.0, 2.0, 0.0, 1.0, 6.0, 0.0]], requires_grad=True)
    out = attend(t)
    for col, raw in ((0, [5.0, 3.0]), (1, [4.0, 6.0])):
        assert np.allclose(out.data[:, col], np.exp(raw) / np.exp(raw).sum(), atol=1e-15)
    grads = backward(dot(out, constant([[1.0, 0.0], [0.0, 1.0]])))
    assert np.count_nonzero(grads[t]) == 4
    assert grads[t][0, 1] > 0.0 and grads[t][1, 0] < 0.0
    assert grads[t][0, 3] < 0.0 and grads[t][1, 4] > 0.0


def test_reduce_max_tie_routes_to_first():
    # on a B = I tie the max's gradient goes to B, the first of the two, in every head
    t = Tensor([[2.0, 2.0, 0.0, -1.0, -1.0, 3.0], [1.0, 1.0, 5.0, 4.0, 4.0, 0.0]], requires_grad=True)
    grads = backward(dot(attend(t), constant([[1.0, 0.5], [0.0, 0.0]])))
    for b in (0, 3):
        assert np.all(grads[t][:, b] != 0.0)
        assert np.array_equal(grads[t][:, b + 1 : b + 3], np.zeros((2, 2)))


def test_reduce_max_rows_value_and_gradcheck():
    t = randt((4, 6), seed=40)
    out = attend(t).data
    for col, b in enumerate((0, 3)):
        raw = t.data[:, b : b + 2].max(axis=1)
        assert np.allclose(out[:, col], np.exp(raw) / np.exp(raw).sum(), atol=1e-15)
    w = constant(np.array([[0.5, -1.0], [2.0, 0.25], [-0.5, 1.5], [1.0, -2.0]]))
    assert grad_check(lambda: dot(w, attend(t)), [t]) < 1e-6


def test_attend_matches_argmax_oracle_with_ties():
    # each head's B or I pick as an argmax over the pair, which takes B on a tie
    gen = np.random.default_rng(61)
    x = gen.integers(-2, 3, size=(9, 6)).astype(float)
    out = attend(Tensor(x, requires_grad=True))
    triples = x.reshape(9, 2, 3)
    pick = np.argmax(triples[:, :, :2], axis=2)[:, :, None]
    raw = np.take_along_axis(triples, pick, axis=2)[:, :, 0]
    e = np.exp(raw - raw.max(axis=0))
    w = e / e.sum(axis=0)
    assert np.array_equal(out.data, w)
    g = gen.uniform(-1, 1, size=(9, 2))
    expected = np.zeros((9, 2, 3))
    np.put_along_axis(expected, pick, ((g - (g * w).sum(axis=0)) * w)[:, :, None], axis=2)
    assert np.array_equal(out._backprop(g)[0], expected.reshape(9, 6))


# --- backward -------------------------------------------------------------


def test_backward_sum_gives_ones():
    w = randt((4,), seed=18)
    grads = backward(total(w))
    assert np.array_equal(grads[w], np.ones(4))


def test_backward_quadratic():
    w = randt((4,), seed=19)
    grads = backward(dot(w, w))
    assert np.allclose(grads[w], 2 * w.data)


def test_backward_accumulates_through_shared_nodes():
    w = randt((3,), seed=20)
    y = plus(w, w)
    grads = backward(total(y))
    assert np.array_equal(grads[w], np.full(3, 2.0))


def test_backward_rejects_nonscalar():
    w = randt((3,), seed=21)
    with pytest.raises(ValueError):
        backward(plus(w, w))


def test_backward_skips_constants():
    w = randt((3,), seed=22)
    c = constant(np.ones(3))
    grads = backward(dot(w, c))
    assert c not in grads


def test_backward_overwrites_stale_grad():
    w = randt((2,), seed=23)
    assert np.array_equal(backward(total(w))[w], np.ones(2))
    assert np.allclose(backward(dot(w, w))[w], 2 * w.data)


@pytest.mark.parametrize("leaf", [Tensor(2.5, requires_grad=True), constant(2.5)])
def test_backward_of_a_leaf_loss_is_one(leaf):
    grads = backward(leaf)
    assert list(grads) == [leaf]
    assert grads[leaf].shape == () and grads[leaf] == 1.0


def test_backward_adds_contributions_newest_consumer_first():
    # float addition is not associative: only (1e16 + -1e16) + 1 gives 1
    w = Tensor(1.0, requires_grad=True)
    a, b, c = (node(k * w.data, (w,), lambda g, k=k: (g * k,)) for k in (1.0, -1e16, 1e16))
    grads = backward(node(a.data + b.data + c.data, (a, b, c), lambda g: (g, g, g)))
    assert grads[w] == 1.0


def test_constant_graph_is_pruned():
    a, b = constant(np.ones(2)), constant(np.ones(2))
    out = plus(a, b)
    assert not out.requires_grad
    assert out._parents == ()


# --- grad_check harness ----------------------------------------------------


def test_grad_check_sum_of_squares_tiny_error():
    w = randt((5,), seed=24)
    assert grad_check(lambda: dot(w, w), [w]) < 1e-7


def test_grad_check_eps_validation():
    w = randt((2,), seed=25)
    with pytest.raises(ValueError):
        grad_check(lambda: total(w), [w], eps=0.0)


def test_grad_check_coordinate_sampling():
    w = randt((40,), seed=26)
    err = grad_check(lambda: dot(w, w), [w], max_coords_per_param=5, rng=1)
    assert err < 1e-7


def test_determinism_two_identical_graphs():
    def run():
        gen = np.random.default_rng(99)
        a = init_uniform((4,), -1, 1, gen)
        v = init_uniform((4,), -1, 1, gen)
        out = plus(a, v)
        return dot(out, out).item()

    assert run() == run()


@settings(max_examples=50)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=6))
def test_tanh_sigmoid_ranges(values):
    # 1x1 maps and prototypes of 1 make row t of compose tanh(values[t]) four times
    one, unit = constant([[1.0], [1.0]]), constant([[[1.0]]])
    out = compose(constant([[v] for v in values]), one, heads_of(*[unit] * 4)).data
    assert np.array_equal(out, np.tile(np.tanh(values)[:, None], 4))
    assert np.all(np.abs(out) <= 1.0)
    # a context cell's states over inputs around +-1000 stay finite and in [-1, 1]
    cell = CmlaParams.init(dim=1, channels=1, rng=len(values), init_scale=1.0).ctx_gru
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        states = gru_run(np.array([[33.0 * v] for v in values]), cell)
        gates = update_gates(33.0 * np.array(values))
    assert np.all(np.isfinite(states)) and np.all(np.abs(states) <= 1.0)
    assert np.all((gates >= 0.0) & (gates <= 1.0))


def test_grad_check_perturbs_a_strided_view_parameter():
    # parameters may be views of a shared block; a flattened copy of a
    # strided view would be perturbed instead, leaving a numeric gradient of 0
    block = np.arange(12.0).reshape(3, 4) / 10.0
    p = Tensor(np.zeros((3, 2)), requires_grad=True)
    p.data = block[:, 1:3]
    f = lambda: node(float((p.data * p.data).sum()), (p,), lambda g: (2.0 * g * p.data,))
    assert grad_check(f, [p]) < 1e-8
    assert np.array_equal(block, np.arange(12.0).reshape(3, 4) / 10.0)
