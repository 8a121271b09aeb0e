import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmla.autodiff import (
    Tensor,
    add,
    backward,
    bilinear,
    concat,
    constant,
    grad_check,
    init_uniform,
    log_softmax,
    matmul,
    mul,
    reduce_max,
    scale,
    slice_last,
    softmax,
    tanh,
    tensor_sum,
    transpose,
    zeros,
)
from cmla.gru import sigmoid


def randt(shape, seed=0, lo=-1.0, hi=1.0):
    return init_uniform(shape, lo, hi, np.random.default_rng(seed))


# --- init_uniform ---------------------------------------------------------


def test_init_uniform_range_and_determinism():
    a = init_uniform((3,), -0.2, 0.2, 7)
    b = init_uniform((3,), -0.2, 0.2, 7)
    assert np.all(a.data >= -0.2) and np.all(a.data <= 0.2)
    assert np.array_equal(a.data, b.data)
    assert a.requires_grad


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


# --- matmul ---------------------------------------------------------------


def test_matmul_identity():
    m = constant([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(constant(np.eye(2)), m)
    assert np.array_equal(out.data, m.data)


def test_matmul_hand_case():
    out = matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_grad_of_sum_matches_closed_form():
    a = randt((3, 4), seed=1)
    b = randt((4, 2), seed=2)
    grads = backward(tensor_sum(matmul(a, b)))
    assert np.allclose(grads[a], np.ones((3, 2)) @ b.data.T)
    assert np.allclose(grads[b], a.data.T @ np.ones((3, 2)))


def test_matmul_vector_cases_gradcheck():
    m = randt((3, 4), seed=3)
    v = randt((4,), seed=4)
    assert grad_check(lambda: tensor_sum(tanh(matmul(m, v))), [m, v]) < 1e-6
    w = randt((3,), seed=5)
    assert grad_check(lambda: tensor_sum(tanh(matmul(w, m))), [w, m]) < 1e-6


def test_matmul_matrix_case_gradcheck():
    a = randt((4, 3), seed=30)
    b = randt((3, 2), seed=31)
    assert grad_check(lambda: tensor_sum(tanh(matmul(a, b))), [a, b]) < 1e-6


def test_matmul_rows_unchanged_by_appended_row():
    # forward products over token rows must not depend on the row count
    gen = np.random.default_rng(32)
    for _ in range(200):
        n, d, k = (int(v) for v in gen.integers(1, 9, size=3))
        a = gen.uniform(-1, 1, size=(n + 1, d))
        b = constant(gen.uniform(-1, 1, size=(d, k)))
        full = matmul(constant(a), b).data
        assert np.array_equal(matmul(constant(a[:n]), b).data, full[:n])


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))
    with pytest.raises(ValueError):
        matmul(constant(np.ones(3)), constant(np.ones(3)))


# --- elementwise ----------------------------------------------------------


# sigmoid is the GRU's plain numpy gate function, tested here beside tanh


def test_tanh_and_sigmoid_at_zero():
    z = zeros((4,))
    assert np.array_equal(tanh(z).data, np.zeros(4))
    assert np.array_equal(sigmoid(z.data), np.full(4, 0.5))


def test_sigmoid_stable_at_extremes():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = sigmoid(np.array([-1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 1.0


def test_mul_gradcheck():
    a = randt((5,), seed=6)
    b = randt((5,), seed=7)
    assert grad_check(lambda: tensor_sum(mul(a, b)), [a, b]) < 1e-4


def test_add_mul_shape_mismatch():
    a, b = constant(np.ones(3)), constant(np.ones(4))
    with pytest.raises(ValueError):
        add(a, b)
    with pytest.raises(ValueError):
        mul(a, b)


def test_scale_by_number():
    t = randt((3,), seed=8)
    assert np.array_equal(scale(t, 2.5).data, 2.5 * t.data)
    assert grad_check(lambda: tensor_sum(mul(scale(t, -1.5), t)), [t]) < 1e-6


# --- bilinear -------------------------------------------------------------


def test_bilinear_matches_triple_loop_oracle():
    gen = np.random.default_rng(13)
    h = init_uniform((2, 4), -1, 1, gen)
    maps = init_uniform((3, 4, 5), -1, 1, gen)
    u = init_uniform((5,), -1, 1, gen)
    out = bilinear(h, maps, u)
    expected = np.zeros((2, 3))
    for n in range(2):
        for k in range(3):
            for i in range(4):
                for j in range(5):
                    expected[n, k] += h.data[n, i] * maps.data[k, i, j] * u.data[j]
    assert np.allclose(out.data, expected, atol=1e-12)


def test_bilinear_gradcheck():
    gen = np.random.default_rng(14)
    for rows in (1, 4):
        h = init_uniform((rows, 3), -1, 1, gen)
        maps = init_uniform((2, 3, 3), -1, 1, gen)
        u = init_uniform((3,), -1, 1, gen)
        f = lambda: tensor_sum(tanh(bilinear(h, maps, u)))
        assert grad_check(f, [h, maps, u]) < 1e-6


def test_bilinear_shape_validation():
    with pytest.raises(ValueError):
        bilinear(constant(np.ones(2)), constant(np.ones((1, 2, 2))), constant(np.ones(2)))
    with pytest.raises(ValueError):
        bilinear(constant(np.ones((1, 3))), constant(np.ones((1, 2, 2))), constant(np.ones(2)))
    with pytest.raises(ValueError):
        bilinear(constant(np.ones((1, 2))), constant(np.ones((1, 2, 2))), constant(np.ones(3)))


# --- softmax / log_softmax ------------------------------------------------


def test_softmax_uniform_and_oracle():
    assert np.allclose(softmax(constant([0.0, 0.0, 0.0]), axis=0).data, np.full(3, 1 / 3))
    x = np.array([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()
    assert np.allclose(softmax(constant(x), axis=0).data, expected, atol=1e-12)


def test_softmax_shift_invariance():
    x = np.array([0.3, -1.2, 2.5, 0.0])
    base = softmax(constant(x), axis=0).data
    shifted = softmax(constant(x + 123.456), axis=0).data
    assert np.allclose(base, shifted, rtol=1e-9)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_sums_to_one(values):
    out = softmax(constant(values), axis=0)
    assert abs(out.data.sum() - 1.0) <= 1e-12
    assert np.all(out.data > 0)


def test_softmax_gradcheck():
    t = randt((5,), seed=15)
    w = constant(np.array([0.2, -1.0, 0.5, 2.0, -0.3]))
    f = lambda: tensor_sum(mul(softmax(t, axis=0), w))
    assert grad_check(f, [t]) < 1e-6


def test_log_softmax_consistent_and_gradcheck():
    t = randt((4,), seed=16)
    assert np.allclose(log_softmax(t, axis=0).data, np.log(softmax(t, axis=0).data))
    f = lambda: tensor_sum(slice_last(log_softmax(t, axis=0), 2, 3))
    assert grad_check(f, [t]) < 1e-6
    rows = randt((3, 4), seed=17)
    w = constant(np.random.default_rng(18).uniform(-1, 1, size=(3, 4)))
    assert grad_check(lambda: tensor_sum(mul(w, log_softmax(rows, axis=1))), [rows]) < 1e-6


# --- reductions and reshaping ---------------------------------------------


def test_reduce_max_value_and_subgradient():
    t = Tensor([1.0, 5.0, 3.0], requires_grad=True)
    out = reduce_max(t)
    assert out.item() == 5.0
    grads = backward(out)
    assert grads[t].tolist() == [0.0, 1.0, 0.0]


def test_reduce_max_tie_routes_to_first():
    t = Tensor([2.0, 2.0], requires_grad=True)
    grads = backward(reduce_max(t))
    assert grads[t].tolist() == [1.0, 0.0]
    rows = Tensor([[2.0, 2.0, 1.0], [0.0, 3.0, 3.0]], requires_grad=True)
    grads = backward(tensor_sum(reduce_max(rows)))
    assert grads[rows].tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def test_reduce_max_rows_value_and_gradcheck():
    t = randt((4, 3), seed=40)
    out = reduce_max(t)
    assert np.array_equal(out.data, t.data.max(axis=1))
    w = constant(np.array([0.5, -1.0, 2.0, 0.25]))
    assert grad_check(lambda: tensor_sum(mul(w, reduce_max(t))), [t]) < 1e-6


def test_transpose_value_and_gradcheck():
    t = randt((2, 3), seed=41)
    assert np.array_equal(transpose(t).data, t.data.T)
    w = constant(np.random.default_rng(42).uniform(-1, 1, size=(3, 2)))
    assert grad_check(lambda: tensor_sum(mul(w, transpose(t))), [t]) < 1e-6
    with pytest.raises(ValueError):
        transpose(constant(np.ones(3)))


def test_slice_last_concat_roundtrip():
    t = randt((6,), seed=17)
    rebuilt = concat(slice_last(t, 0, 3), slice_last(t, 3, 6))
    assert np.array_equal(rebuilt.data, t.data)
    grads = backward(tensor_sum(rebuilt))
    assert np.array_equal(grads[t], np.ones(6))

    rows = randt((3, 5), seed=43)
    left, right = slice_last(rows, 0, 2), slice_last(rows, 2, 5)
    assert left.data.shape == (3, 2) and right.data.shape == (3, 3)
    assert np.array_equal(concat(left, right).data, rows.data)

    w = constant(np.random.default_rng(44).uniform(-1, 1, size=(3, 5)))

    def swapped_weighted():
        return tensor_sum(mul(w, concat(slice_last(rows, 3, 5), slice_last(rows, 0, 3))))

    assert grad_check(swapped_weighted, [rows]) < 1e-6
    other = randt((3, 2), seed=45)
    assert grad_check(lambda: tensor_sum(tanh(concat(rows, other))), [rows, other]) < 1e-6


def test_slice_last_and_concat_bounds():
    t = constant(np.ones(4))
    with pytest.raises(ValueError):
        slice_last(t, 2, 2)
    with pytest.raises(ValueError):
        slice_last(t, -1, 2)
    with pytest.raises(ValueError):
        slice_last(t, 0, 5)
    with pytest.raises(ValueError):
        slice_last(constant(np.ones((2, 3))), 0, 4)
    with pytest.raises(ValueError):
        slice_last(constant(1.0), 0, 1)
    with pytest.raises(ValueError):
        concat(constant(np.ones((2, 3))), constant(np.ones((3, 3))))
    with pytest.raises(ValueError):
        concat(constant(np.ones((2, 3))), constant(np.ones(3)))


# --- backward -------------------------------------------------------------


def test_backward_sum_gives_ones():
    w = randt((4,), seed=18)
    grads = backward(tensor_sum(w))
    assert np.array_equal(grads[w], np.ones(4))


def test_backward_quadratic():
    w = randt((4,), seed=19)
    grads = backward(tensor_sum(mul(w, w)))
    assert np.allclose(grads[w], 2 * w.data)


def test_backward_accumulates_through_shared_nodes():
    w = randt((3,), seed=20)
    y = add(w, w)
    grads = backward(tensor_sum(y))
    assert np.array_equal(grads[w], np.full(3, 2.0))


def test_backward_rejects_nonscalar():
    w = randt((3,), seed=21)
    with pytest.raises(ValueError):
        backward(add(w, w))


def test_backward_skips_constants():
    w = randt((3,), seed=22)
    c = constant(np.ones(3))
    grads = backward(tensor_sum(mul(w, c)))
    assert c not in grads
    assert c.grad is None


def test_backward_overwrites_stale_grad():
    w = randt((2,), seed=23)
    backward(tensor_sum(w))
    assert np.array_equal(w.grad, np.ones(2))
    backward(tensor_sum(mul(w, w)))
    assert np.allclose(w.grad, 2 * w.data)


def test_constant_graph_is_pruned():
    a, b = constant(np.ones(2)), constant(np.ones(2))
    out = add(a, b)
    assert not out.requires_grad
    assert out._parents == ()


# --- grad_check harness ----------------------------------------------------


def test_grad_check_sum_of_squares_tiny_error():
    w = randt((5,), seed=24)
    assert grad_check(lambda: tensor_sum(mul(w, w)), [w]) < 1e-7


def test_grad_check_eps_validation():
    w = randt((2,), seed=25)
    with pytest.raises(ValueError):
        grad_check(lambda: tensor_sum(w), [w], eps=0.0)


def test_grad_check_coordinate_sampling():
    w = randt((40,), seed=26)
    err = grad_check(lambda: tensor_sum(mul(w, w)), [w], max_coords_per_param=5, rng=1)
    assert err < 1e-7


def test_determinism_two_identical_graphs():
    def run():
        gen = np.random.default_rng(99)
        a = init_uniform((4, 4), -1, 1, gen)
        v = init_uniform((4,), -1, 1, gen)
        return tensor_sum(tanh(matmul(a, v))).item()

    assert run() == run()


@settings(max_examples=50)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=6))
def test_tanh_sigmoid_ranges(values):
    t = constant(values)
    assert np.all(np.abs(tanh(t).data) <= 1.0)
    s = sigmoid(t.data)
    assert np.all((s >= 0.0) & (s <= 1.0))
