import numpy as np
import pytest

from cmla.autodiff import backward, constant, grad_check, init_uniform, node, zeros
from cmla.gru import GRU_FIELDS, GruParams, gru_run, sigmoid
from cmla.model import CmlaParams


def dot(a, b):
    """Scalar sum(a * b) as one node, the loss these tests differentiate."""
    return node(np.vdot(a.data, b.data), (a, b), lambda g: (g * b.data, g * a.data))


def zero_params(input_dim, hidden_dim):
    p = GruParams.init(input_dim, hidden_dim, rng=0)
    for name in GRU_FIELDS:
        getattr(p, name).data[:] = 0.0
    return p


def rows(gen, n, d, lo=-1.0, hi=1.0):
    return constant(gen.uniform(lo, hi, size=(n, d)))


def test_init_shapes_and_zero_biases():
    p = GruParams.init(3, 5, rng=1)
    assert {name: t.data.shape for name, t in p.tensors().items()} == GruParams.shapes(3, 5)
    assert p.input_dim == 3 and p.hidden_dim == 5
    assert np.array_equal(p.b_z.data, np.zeros(5))
    assert all(t.requires_grad for t in p.tensors().values())


def test_zero_params_halve_hidden_state():
    # all gates sit at 1/2, so one step from the zero state lands halfway
    # to the candidate tanh(b_h)
    p = zero_params(2, 3)
    p.b_h.data[:] = [0.4, -1.0, 2.0]
    h1 = gru_run(constant(np.ones((1, 2))), p)
    assert np.allclose(h1.data[0], np.tanh(p.b_h.data) / 2, atol=1e-15)


def test_zero_params_zero_state_stays_zero():
    p = zero_params(2, 3)
    out = gru_run(constant(np.ones((4, 2))), p)
    assert np.array_equal(out.data, np.zeros((4, 3)))


def test_zero_params_run_halving_law():
    # h_t = (h_{t-1} + tanh(b_h)) / 2 from h_0 = 0 gives (1 - 2^-t) tanh(b_h)
    p = zero_params(1, 3)
    p.b_h.data[:] = [1.0, -2.0, 0.5]
    out = gru_run(constant(np.zeros((3, 1))), p)
    for t in range(3):
        expected = (1.0 - 2.0 ** -(t + 1)) * np.tanh(p.b_h.data)
        assert np.allclose(out.data[t], expected, atol=1e-15)


def test_scalar_case_matches_hand_formula():
    gen = np.random.default_rng(2)
    p = GruParams.init(1, 1, rng=gen)
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
    p = GruParams.init(2, 3, rng=3)
    with pytest.raises(ValueError):
        gru_run(constant(np.ones((2, 3))), p)
    with pytest.raises(ValueError):
        gru_run(constant(np.ones(2)), p)


def test_run_rejects_empty_and_preserves_length():
    p = GruParams.init(2, 2, rng=4)
    with pytest.raises(ValueError, match="nonempty"):
        gru_run(constant(np.zeros((0, 2))), p)
    assert gru_run(constant(np.ones((5, 2))), p).data.shape == (5, 2)


def test_run_single_element_equals_single_step():
    # from h = 0 the reset gate drops out: h_1 = z * tanh(W_h x + b_h)
    p = GruParams.init(2, 3, rng=5)
    p.b_z.data[:] = [0.1, -0.2, 0.3]
    p.b_h.data[:] = [-0.1, 0.2, 0.05]
    x = np.array([0.1, -0.6])
    out = gru_run(constant([x]), p)
    z = sigmoid(p.W_z.data @ x + p.b_z.data)
    expected = z * np.tanh(p.W_h.data @ x + p.b_h.data)
    assert np.allclose(out.data[0], expected, atol=1e-15)


def test_causality_prefix_unchanged():
    p = GruParams.init(2, 3, rng=6)
    gen = np.random.default_rng(7)
    xs = gen.uniform(-1, 1, size=(4, 2))
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
    p = GruParams.init(2, 3, rng=gen)
    xs = rows(gen, 5, 2)

    def f():
        return dot(gru_run(xs, p), constant(np.ones((5, 3))))

    assert grad_check(f, list(p.tensors().values())) < 1e-4


@pytest.mark.parametrize("n", [1, 4])
def test_run_gradcheck_params_and_inputs(n):
    # random output weights so every step's gradient reaches the earlier ones
    # with a different mix; biases moved off zero so no term vanishes
    gen = np.random.default_rng(9 + n)
    p = GruParams.init(3, 2, rng=gen, scale=1.0)
    for name in ("b_z", "b_r", "b_h"):
        getattr(p, name).data[:] = gen.uniform(-0.5, 0.5, size=2)
    xs = init_uniform((n, 3), -1.0, 1.0, gen)
    w = constant(gen.uniform(-1, 1, size=(n, 2)))

    def f():
        return dot(w, gru_run(xs, p))

    assert grad_check(f, [xs] + list(p.tensors().values())) < 1e-6


def random_cell(input_dim, hidden_dim, gen):
    p = GruParams.init(input_dim, hidden_dim, rng=gen, scale=1.0)
    for name in ("b_z", "b_r", "b_h"):
        getattr(p, name).data[:] = gen.uniform(-0.5, 0.5, size=hidden_dim)
    return p


@pytest.mark.parametrize("n", [1, 6])
def test_cells_side_by_side_match_separate_runs(n):
    # two cells of different sizes run as one block-diagonal cell: states
    # and every gradient equal the separate runs', so no off-diagonal
    # block leaks into a state or a gradient
    gen = np.random.default_rng(20 + n)
    pa, pb = random_cell(3, 2, gen), random_cell(4, 3, gen)
    xa, xb = init_uniform((n, 3), -1, 1, gen), init_uniform((n, 4), -1, 1, gen)
    wa, wb = constant(gen.uniform(-1, 1, size=(n, 2))), constant(gen.uniform(-1, 1, size=(n, 3)))
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


def test_cells_side_by_side_rows_unchanged_by_appended_row():
    gen = np.random.default_rng(30)
    pa, pb = random_cell(2, 3, gen), random_cell(2, 3, gen)
    xs = gen.uniform(-1, 1, size=(5, 4))
    full = gru_run(constant(xs), pa, pb).data
    for n in range(1, 5):
        assert np.array_equal(gru_run(constant(xs[:n]), pa, pb).data, full[:n])


def test_cells_side_by_side_validation():
    pa, pb = GruParams.init(2, 3, rng=1), GruParams.init(4, 3, rng=2)
    with pytest.raises(ValueError):
        gru_run(constant(np.zeros((0, 6))), pa, pb)
    with pytest.raises(ValueError):   # the width of one cell's input only
        gru_run(constant(np.ones((3, 4))), pa, pb)
    with pytest.raises(ValueError):
        gru_run(constant(np.ones(6)), pa, pb)


def test_output_stays_in_convex_hull_of_tanh_band_and_h0():
    # each coordinate of h_t is an interpolation between h_{t-1} and a
    # tanh value, so a run started at zero can never leave (-1, 1)
    gen = np.random.default_rng(9)
    p = GruParams.init(3, 4, rng=gen, scale=2.0)
    out = gru_run(rows(gen, 20, 3, -5, 5), p)
    assert np.all(np.abs(out.data) < 1.0)


def test_check_shapes_catches_corruption():
    # a model's shape check covers every tensor of its GRU cells
    params = CmlaParams.init(dim=3, channels=2, rng=10)
    params.aspect.att_gru.U_h = zeros((3, 3), requires_grad=True)
    with pytest.raises(ValueError, match="aspect.att_gru.U_h"):
        params.check_shapes()
