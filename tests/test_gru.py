import copy
import dataclasses

import numpy as np
import pytest

from cmla.autodiff import backward, constant, grad_check, init_uniform, node, zeros
from cmla.data import SynthConfig, generate_synthetic
from cmla.gru import GRU_FIELDS, GruParams, gru_run
from cmla.model import CmlaParams, TrainConfig, train


def dot(a, b):
    """Scalar sum(a * b) as one node, the loss these tests differentiate."""
    return node(np.vdot(a.data, b.data), (a, b), lambda g: (g * b.data, g * a.data))


def model_cells(dim, channels, rng, scale=0.2, biases=0.0):
    """The cells of a fresh dim x channels model, the only place a cell is
    built: the context cell (dim -> dim) and the aspect and opinion attention
    cells (2 channels -> channels), all views of the model's parameter vector.
    A nonzero `biases` then draws every bias from U(-biases, biases)."""
    gen = np.random.default_rng(rng)   # a Generator comes back unchanged
    params = CmlaParams.init(dim=dim, channels=channels, rng=gen, init_scale=scale)
    cells = (params.ctx_gru, params.aspect.att_gru, params.opinion.att_gru)
    for cell in cells if biases else ():
        for name in GRU_FIELDS[6:]:
            getattr(cell, name).data[:] = gen.uniform(-biases, biases, size=cell.hidden_dim)
    return cells


def zeroed(cell):
    for t in cell.tensors().values():
        t.data[:] = 0.0
    return cell


def sigmoid(v):
    """The logistic function in the tanh form gru_run's gates take."""
    return 0.5 + 0.5 * np.tanh(0.5 * v)


def rows(gen, n, d, lo=-1.0, hi=1.0):
    return constant(gen.uniform(lo, hi, size=(n, d)))


def test_init_shapes_and_zero_biases():
    for p, (d, h) in zip(model_cells(3, 5, rng=1), ((3, 3), (10, 5), (10, 5))):
        assert {name: t.data.shape for name, t in p.tensors().items()} == GruParams.shapes(d, h)
        assert p.input_dim == d and p.hidden_dim == h
        assert all(np.array_equal(getattr(p, name).data, np.zeros(h)) for name in GRU_FIELDS[6:])
        assert all(t.requires_grad for t in p.tensors().values())


def test_zero_params_halve_hidden_state():
    # all gates sit at 1/2, so one step from the zero state lands halfway
    # to the candidate tanh(b_h)
    p = zeroed(model_cells(1, 3, rng=0)[1])
    p.b_h.data[:] = [0.4, -1.0, 2.0]
    h1 = gru_run(constant(np.ones((1, 6))), p)
    assert np.allclose(h1.data[0], np.tanh(p.b_h.data) / 2, atol=1e-15)


def test_zero_params_zero_state_stays_zero():
    p = zeroed(model_cells(3, 1, rng=0)[0])
    out = gru_run(constant(np.ones((4, 3))), p)
    assert np.array_equal(out.data, np.zeros((4, 3)))


def test_zero_params_run_halving_law():
    # h_t = (h_{t-1} + tanh(b_h)) / 2 from h_0 = 0 gives (1 - 2^-t) tanh(b_h)
    p = zeroed(model_cells(1, 3, rng=0)[1])
    p.b_h.data[:] = [1.0, -2.0, 0.5]
    out = gru_run(constant(np.zeros((3, 6))), p)
    for t in range(3):
        expected = (1.0 - 2.0 ** -(t + 1)) * np.tanh(p.b_h.data)
        assert np.allclose(out.data[t], expected, atol=1e-15)


def test_scalar_case_matches_hand_formula():
    gen = np.random.default_rng(2)
    p = model_cells(1, 1, rng=gen)[0]
    for name in ("b_z", "b_r", "b_h"):
        getattr(p, name).data[:] = gen.uniform(-0.2, 0.2, size=1)
    xs = [0.7, -0.4]
    out = gru_run(constant([[x] for x in xs]), p)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    w = {name: getattr(p, name).data.item() for name in GRU_FIELDS}
    h = 0.0
    for t, x in enumerate(xs):
        z = sig(w["W_z"] * x + w["U_z"] * h + w["b_z"])
        r = sig(w["W_r"] * x + w["U_r"] * h + w["b_r"])
        c = np.tanh(w["W_h"] * x + w["U_h"] * (r * h) + w["b_h"])
        h = (1 - z) * h + z * c
        assert abs(out.data[t, 0] - h) < 1e-12


def test_step_dimension_validation():
    # every row is one step's input and must have the input dimension
    p = model_cells(1, 3, rng=3)[1]
    with pytest.raises(ValueError):
        gru_run(constant(np.ones((2, 3))), p)
    with pytest.raises(ValueError):
        gru_run(constant(np.ones(6)), p)


def test_run_rejects_empty_and_preserves_length():
    p = model_cells(2, 1, rng=4)[0]
    with pytest.raises(ValueError, match="nonempty"):
        gru_run(constant(np.zeros((0, 2))), p)
    assert gru_run(constant(np.ones((5, 2))), p).data.shape == (5, 2)


def test_run_single_element_equals_single_step():
    # from h = 0 the reset gate drops out: h_1 = z * tanh(W_h x + b_h)
    p = model_cells(1, 3, rng=5)[1]
    p.b_z.data[:] = [0.1, -0.2, 0.3]
    p.b_h.data[:] = [-0.1, 0.2, 0.05]
    x = np.array([0.1, -0.6, 0.4, 0.3, -0.2, 0.5])
    out = gru_run(constant([x]), p)
    z = sigmoid(p.W_z.data @ x + p.b_z.data)
    expected = z * np.tanh(p.W_h.data @ x + p.b_h.data)
    assert np.allclose(out.data[0], expected, atol=1e-15)


def test_causality_prefix_unchanged():
    p = model_cells(1, 3, rng=6)[1]
    gen = np.random.default_rng(7)
    xs = gen.uniform(-1, 1, size=(4, 6))
    base = gru_run(constant(xs), p).data
    perturbed = xs.copy()
    perturbed[3] += 10.0
    changed = gru_run(constant(perturbed), p).data
    for t in range(3):
        assert np.array_equal(base[t], changed[t])
    assert not np.array_equal(base[3], changed[3])
    prefix = gru_run(constant(xs[:2]), p).data
    assert np.array_equal(prefix, base[:2])


def test_five_step_run_gradcheck():
    gen = np.random.default_rng(8)
    p = model_cells(1, 3, rng=gen)[1]
    xs = rows(gen, 5, 6)

    def f():
        return dot(gru_run(xs, p), constant(np.ones((5, 3))))

    assert grad_check(f, list(p.tensors().values())) < 1e-4


@pytest.mark.parametrize("n", [1, 4, 30])
def test_run_gradcheck_params_and_inputs(n):
    # random output weights so every step's gradient reaches the earlier ones
    # with a different mix; biases moved off zero so no term vanishes
    gen = np.random.default_rng(9 + n)
    p = model_cells(1, 2, rng=gen, scale=1.0, biases=0.5)[1]
    xs = init_uniform((n, 4), -1.0, 1.0, gen)
    w = constant(gen.uniform(-1, 1, size=(n, 2)))

    def f():
        return dot(w, gru_run(xs, p))

    assert grad_check(f, [xs] + list(p.tensors().values())) < 1e-6


@pytest.mark.parametrize("n", [1, 6])
def test_cells_side_by_side_match_separate_runs(n):
    # the context cell (3 -> 3) beside an attention cell (4 -> 2) runs as one
    # block-diagonal cell: states and every gradient equal the separate runs',
    # so no off-diagonal block leaks into a state or a gradient
    gen = np.random.default_rng(20 + n)
    pa, pb, _ = model_cells(3, 2, rng=gen, scale=1.0, biases=0.5)
    xa, xb = init_uniform((n, 3), -1, 1, gen), init_uniform((n, 4), -1, 1, gen)
    wa, wb = constant(gen.uniform(-1, 1, size=(n, 3))), constant(gen.uniform(-1, 1, size=(n, 2)))
    x = init_uniform((n, 7), -1, 1, gen)
    x.data[:] = np.hstack([xa.data, xb.data])
    both = gru_run(x, pa, pb)
    out_a, out_b = gru_run(xa, pa), gru_run(xb, pb)
    np.testing.assert_allclose(both.data, np.hstack([out_a.data, out_b.data]), rtol=0, atol=1e-15)

    grads = backward(dot(constant(np.hstack([wa.data, wb.data])), both))
    separate = {**backward(dot(wa, out_a)), **backward(dot(wb, out_b))}
    np.testing.assert_allclose(grads[x], np.hstack([separate[xa], separate[xb]]), rtol=0, atol=1e-12)
    for cell in (pa, pb):
        for name, t in cell.tensors().items():
            assert grads[t].shape == t.data.shape, name
            np.testing.assert_allclose(grads[t], separate[t], rtol=0, atol=1e-12, err_msg=name)


def test_cells_side_by_side_gradcheck():
    # twelve steps of the context cell (2 -> 2) beside an attention cell
    # (6 -> 3): inputs and every tensor of both cells
    gen = np.random.default_rng(40)
    pa, pb, _ = model_cells(2, 3, rng=gen, scale=1.0, biases=0.5)
    xs = init_uniform((12, 8), -1.0, 1.0, gen)
    w = constant(gen.uniform(-1, 1, size=(12, 5)))

    def f():
        return dot(w, gru_run(xs, pa, pb))

    assert grad_check(f, [xs, *pa.tensors().values(), *pb.tensors().values()]) < 1e-6


def test_backprop_twice_gives_identical_gradients():
    # the backward forms its factors from the forward's saved states and
    # gates; a write into those would change a second call's result
    gen = np.random.default_rng(41)
    _, pa, pb = model_cells(1, 2, rng=gen, scale=1.0, biases=0.5)
    out = gru_run(init_uniform((9, 8), -1, 1, gen), pa, pb)
    g = gen.uniform(-1, 1, size=(9, 4))
    first = [d.copy() for d in out._backprop(g)]
    second = out._backprop(g)
    assert len(first) == len(second) == 19
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_cells_side_by_side_rows_unchanged_by_appended_row():
    gen = np.random.default_rng(30)
    _, pa, pb = model_cells(1, 3, rng=gen, scale=1.0, biases=0.5)
    xs = gen.uniform(-1, 1, size=(5, 12))
    full = gru_run(constant(xs), pa, pb).data
    for n in range(1, 5):
        assert np.array_equal(gru_run(constant(xs[:n]), pa, pb).data, full[:n])


def test_cells_side_by_side_validation():
    pa, pb, _ = model_cells(3, 3, rng=1)
    with pytest.raises(ValueError):
        gru_run(constant(np.zeros((0, 9))), pa, pb)
    with pytest.raises(ValueError):   # the width of one cell's input only
        gru_run(constant(np.ones((3, 6))), pa, pb)
    with pytest.raises(ValueError):
        gru_run(constant(np.ones(9)), pa, pb)


def test_output_stays_in_convex_hull_of_tanh_band_and_h0():
    # each coordinate of h_t is an interpolation between h_{t-1} and a
    # tanh value, so a run started at zero can never leave (-1, 1)
    gen = np.random.default_rng(9)
    p = model_cells(1, 4, rng=gen, scale=2.0)[1]
    out = gru_run(rows(gen, 20, 8, -5, 5), p)
    assert np.all(np.abs(out.data) < 1.0)


def test_params_are_frozen_and_train_rejects_a_detached_tensor():
    # gru_run reads a cell's gate blocks and train steps the parameter vector,
    # so a swapped field or a rebound tensor would silently drop out of both
    sents, table = generate_synthetic(SynthConfig(n_sentences=3, dim=3))
    params = CmlaParams.init(dim=3, channels=2, rng=10)
    for owner, field in ((params.aspect.att_gru, "U_h"), (params.aspect, "classifier"), (params, "aspect")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(owner, field, zeros((2, 2), requires_grad=True))
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.layers = 3
    params.aspect.att_gru.U_h.data = np.zeros((2, 2))
    with pytest.raises(ValueError, match="aspect.att_gru.U_h"):
        train(sents, table, params, TrainConfig(epochs=1))


def test_cell_tensors_are_row_views_of_its_gate_blocks():
    for p in model_cells(3, 2, rng=50):
        h = p.hidden_dim
        for block, names in ((p.w, GRU_FIELDS[:3]), (p.u, GRU_FIELDS[3:6]), (p.b, GRU_FIELDS[6:])):
            assert block.shape[0] == 3 * h and block.flags.c_contiguous
            for gate, name in enumerate(names):
                t = getattr(p, name)
                assert np.shares_memory(t.data, block), name
                assert np.array_equal(block[gate * h : (gate + 1) * h], t.data), name


def test_a_cell_is_built_only_over_its_stretch_of_a_parameter_vector():
    ctx = model_cells(2, 1, rng=0)[0]
    with pytest.raises(TypeError, match="flat"):
        GruParams(**ctx.tensors())


@pytest.mark.parametrize("source", ["cell", "head"])
def test_deep_copy_of_a_cell_or_a_head_raises(source):
    # a plain deep copy would unlink a cell's tensors from its gate blocks;
    # a copy of the whole model binds its own vector and stays possible
    params = CmlaParams.init(dim=3, channels=2, rng=52)
    with pytest.raises(TypeError, match="deep-copy the CmlaParams"):
        copy.deepcopy(params.ctx_gru if source == "cell" else params.aspect)
    twin = copy.deepcopy(params)
    assert not np.shares_memory(twin.aspect.att_gru.w, params.flat)


def test_in_place_change_reaches_the_next_run():
    # a run reads the blocks, so an SGD-style write into one tensor must
    # show in the next run of the cell alone and of the cell beside another;
    # the cell of a deep copy of the model, built afresh, agrees
    gen = np.random.default_rng(51)
    params = CmlaParams.init(dim=1, channels=2, rng=gen, init_scale=1.0)
    pa, pb = params.aspect.att_gru, params.opinion.att_gru
    xs, both = rows(gen, 4, 4), rows(gen, 4, 8)
    before, before_both = gru_run(xs, pa).data, gru_run(both, pa, pb).data
    pa.W_r.data[1, 2] += 0.5
    fresh = copy.deepcopy(params).aspect.att_gru
    after, after_both = gru_run(xs, pa).data, gru_run(both, pa, pb).data
    assert not np.array_equal(before, after) and not np.array_equal(before_both, after_both)
    assert np.array_equal(after, gru_run(xs, fresh).data)
    assert np.array_equal(after_both, gru_run(both, fresh, pb).data)


def test_rows_prefix_stable_at_blas_blocking_sizes():
    # the context GRU's and the two attention cells' shapes at dim 100 and
    # 20 channels: every prefix of up to 40 rows reproduces the full run
    gen = np.random.default_rng(52)
    ctx, pa, pb = model_cells(100, 20, rng=gen)
    x, feats = gen.uniform(-1, 1, size=(40, 100)), gen.uniform(-1, 1, size=(40, 80))
    full_ctx, full_att = gru_run(constant(x), ctx).data, gru_run(constant(feats), pa, pb).data
    for n in range(1, 41):
        assert np.array_equal(gru_run(constant(x[:n]), ctx).data, full_ctx[:n]), n
        assert np.array_equal(gru_run(constant(feats[:n]), pa, pb).data, full_att[:n]), n


def gate_by_gate_run(x, p, g):
    """Oracle for one cell: the states, and the gradients of x and of the
    nine tensors in GRU_FIELDS order for output gradient g, computed with
    the weights copied gate by gate into fresh arrays, one w @ row product
    per row and the sigmoid of each unhalved pre-activation."""
    ts, (n, k) = [t.data for t in p.tensors().values()], (len(x), p.hidden_dim)
    gates = [slice(gate * k, (gate + 1) * k) for gate in range(3)]
    w, u, b = np.zeros((3 * k, x.shape[1])), np.zeros((3 * k, k)), np.empty(3 * k)
    for gate, at in enumerate(gates):
        w[at], u[at], b[at] = ts[gate], ts[3 + gate], ts[6 + gate]
    wxb = np.array([w @ row for row in x]) + b
    states = np.zeros((n + 1, k))
    zr, cand, h = np.empty((n, 2 * k)), np.empty((n, k)), states[0]
    for t in range(n):
        s = zr[t] = sigmoid(wxb[t, : 2 * k] + u[: 2 * k] @ h)
        c = cand[t] = np.tanh(wxb[t, 2 * k :] + u[2 * k :] @ (s[k:] * h))
        h = states[t + 1] = h + s[:k] * (c - h)
    prev, z, r = states[:-1], zr[:, :k], zr[:, k:]
    d_c, d_z = z * (1.0 - cand * cand), (cand - prev) * z * (1.0 - z)
    d_r, keep = prev * r * (1.0 - r), 1.0 - z
    pre, dh = np.empty((n, 3 * k)), np.zeros(k)
    for t in range(n - 1, -1, -1):
        dh = dh + g[t]
        d_rh = (p_h := dh * d_c[t]) @ u[2 * k :]
        pre[t, :k], pre[t, k : 2 * k], pre[t, 2 * k :] = dh * d_z[t], d_rh * d_r[t], p_h
        dh = dh * keep[t] + d_rh * r[t] + pre[t, : 2 * k] @ u[: 2 * k]
    dw, db = pre.T @ x, pre.sum(axis=0)
    du = np.concatenate([pre[:, : 2 * k].T @ prev, pre[:, 2 * k :].T @ (r * prev)])
    return states[1:], [pre @ w] + [dw[at] for at in gates] + [du[at] for at in gates] + [db[at] for at in gates]


@pytest.mark.parametrize("input_dim, hidden_dim, n", [(10, 5, 1), (12, 12, 7), (40, 20, 40), (100, 100, 23)])
def test_single_cell_run_matches_gate_by_gate_oracle_bitwise(input_dim, hidden_dim, n):
    # the context cell when the input is as wide as the state, else an attention cell
    gen = np.random.default_rng(53 + n)
    context = input_dim == hidden_dim
    dim, channels = (hidden_dim, 1) if context else (1, hidden_dim)
    p = model_cells(dim, channels, gen, scale=1.0, biases=0.5)[0 if context else 1]
    xs = init_uniform((n, input_dim), -1, 1, gen)
    g = gen.uniform(-1, 1, size=(n, hidden_dim))
    out = gru_run(xs, p)
    states, grads = gate_by_gate_run(xs.data, p, g)
    assert np.array_equal(out.data, states)
    got = out._backprop(g)
    assert len(got) == len(grads) == 10
    for name, a, b in zip(("x",) + GRU_FIELDS, got, grads):
        assert a.shape == b.shape and np.array_equal(a, b), name
