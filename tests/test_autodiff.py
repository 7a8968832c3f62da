"""Tensor op forward values, gradients vs float64 finite differences, Adam."""

import gc
import weakref

import numpy as np
import pytest

import wmdistill.autodiff as ad
from wmdistill.autodiff import Adam, GradientError, ShapeError, Tensor
from wmdistill.world_model import MLP

from conftest import rel_close
from oracle_refs import AdamRef, mlp_chain

EPS = 1e-4
TOL = 1e-4


def central_diff(f, arrays, eps=EPS):
    """Central finite differences of scalar f(arrays) in float64."""
    grads = []
    for k, x in enumerate(arrays):
        g = np.zeros_like(x, dtype=np.float64)
        flat = x.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(arrays)
            flat[i] = orig - eps
            lo = f(arrays)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def _mish64(x):
    return x * np.tanh(np.log1p(np.exp(x)))


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, Tensor(np.eye(2)))
    assert np.array_equal(out.data, a.data)


def test_add_zero():
    a = Tensor([[1.0, 2.0, 3.0]])
    out = ad.add(a, Tensor([[0.0, 0.0, 0.0]]))
    assert np.array_equal(out.data, a.data)


def test_matmul_hand_computed():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.item() == 11.0  # 1*3 + 2*4


def test_mse_identical_inputs_is_exactly_zero():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    assert ad.mse(x, x.data).item() == 0.0


def test_mse_hand_computed_value_and_gradient():
    pred = Tensor([1.0, 2.0], requires_grad=True)
    out = ad.mse(pred, np.array([3.0, 4.0]))
    assert out.item() == 4.0  # ((-2)^2 + (-2)^2) / 2
    ad.backward(out)
    # analytic 2*(pred-target)/n = [-2, -2], confirmed by finite differences
    assert np.allclose(pred.grad, [-2.0, -2.0])
    x64 = np.array([1.0, 2.0])
    (fd,) = central_diff(lambda arrs: np.mean((arrs[0] - [3.0, 4.0]) ** 2), [x64])
    assert rel_close(pred.grad, fd, TOL)


def test_mse_nonnegative_property():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = Tensor(rng.standard_normal((5, 2)))
        b = rng.standard_normal((5, 2))
        assert ad.mse(a, b).item() >= 0.0


def test_mean_gradient():
    w = Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
    ad.backward(ad.mean(w))
    assert np.allclose(w.grad, [0.25, 0.25, 0.25, 0.25])


def test_constants_receive_no_grad():
    w = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])
    out = ad.mean(ad.mul(w, c))
    grad_map = ad.backward(out)
    assert c.grad is None
    assert w in grad_map and c not in grad_map


def test_linear_regression_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    w64 = rng.standard_normal((3, 2))
    x64 = rng.standard_normal((4, 3))
    y64 = rng.standard_normal((4, 2))

    w = Tensor(w64, requires_grad=True)
    loss = ad.mse(ad.matmul(Tensor(x64), w), y64)
    ad.backward(loss)

    (fd,) = central_diff(lambda arrs: np.mean((x64 @ arrs[0] - y64) ** 2), [w64])
    assert rel_close(w.grad, fd, TOL)


# fixed operands of the linear entries, exact in float32
LIN_W = np.random.default_rng(21).standard_normal((3, 2)).astype(np.float32).astype(np.float64)
LIN_B = np.array([0.5, -0.25])

# fixed layers of the mlp entries around the variable first weight, exact in
# float32: b0 (2,), w1 (2, 2), b1 (2,)
MLP_B0 = np.array([0.25, -0.5])
MLP_W1 = np.random.default_rng(27).standard_normal((2, 2)).astype(np.float32).astype(np.float64)
MLP_B1 = np.array([-0.125, 0.375])


def _mlp_graph(a, b, activation="mish", out_tanh=False, frozen=False):
    return ad.mlp(a, [b, Tensor(MLP_W1)], [Tensor(MLP_B0), Tensor(MLP_B1)],
                  activation, out_tanh, frozen)


def _mlp64(a, b, act, out_tanh=False):
    y = act(a @ b + MLP_B0) @ MLP_W1 + MLP_B1
    return np.tanh(y) if out_tanh else y


ROWS_C = np.random.default_rng(25).standard_normal((3, 3)).astype(np.float32).astype(np.float64)
ROW_W = np.array([3.0, 1.5, 0.75, 0.375])

OPS = {
    "add": (lambda a, b: ad.mean(ad.square(ad.add(a, b))),
            lambda a, b: np.mean((a + b) ** 2), ((4, 3), (4, 3))),
    "add_bias": (lambda a, b: ad.mean(ad.square(ad.add(a, b))),
                 lambda a, b: np.mean((a + b) ** 2), ((4, 3), (3,))),
    "sub": (lambda a, b: ad.mean(ad.square(ad.sub(a, b))),
            lambda a, b: np.mean((a - b) ** 2), ((4, 3), (4, 3))),
    "mul": (lambda a, b: ad.mean(ad.square(ad.mul(a, b))),
            lambda a, b: np.mean((a * b) ** 2), ((4, 3), (4, 3))),
    "matmul": (lambda a, b: ad.mean(ad.square(ad.matmul(a, b))),
               lambda a, b: np.mean((a @ b) ** 2), ((4, 3), (3, 2))),
    "concat": (lambda a, b: ad.mean(ad.square(ad.concat_cols(a, b))),
               lambda a, b: np.mean(np.concatenate([a, b], axis=1) ** 2),
               ((4, 3), (4, 2))),
    "tanh": (lambda a, b: ad.mean(ad.mul(ad.tanh(a), b)),
             lambda a, b: np.mean(np.tanh(a) * b), ((4, 3), (4, 3))),
    "mish": (lambda a, b: ad.mean(ad.mul(ad.mish(a), b)),
             lambda a, b: np.mean(_mish64(a) * b), ((4, 3), (4, 3))),
    "scale": (lambda a, b: ad.mean(ad.scale(ad.square(a), 1.7)),
              lambda a, b: np.mean(1.7 * a * a), ((4, 3), (1,))),
    # linear: a one-layer mlp, x @ w + b; input and weight gradients, then
    # input and bias gradients
    "linear": (lambda a, b: ad.mean(ad.square(ad.mlp(a, [b], [Tensor(LIN_B)]))),
               lambda a, b: np.mean((a @ b + LIN_B) ** 2), ((4, 3), (3, 2))),
    "linear_bias": (lambda a, b: ad.mean(ad.square(ad.mlp(a, [Tensor(LIN_W)], [b]))),
                    lambda a, b: np.mean((a @ LIN_W + b) ** 2), ((4, 3), (2,))),
    # mean straight over a batch op: its (1,) gradient must broadcast first
    "mean_linear": (lambda a, b: ad.mean(ad.mlp(a, [b], [Tensor(LIN_B)])),
                    lambda a, b: np.mean(a @ b + LIN_B), ((4, 3), (3, 2))),
    "mean_matmul": (lambda a, b: ad.mean(ad.matmul(a, b)),
                    lambda a, b: np.mean(a @ b), ((4, 3), (3, 2))),
    "mean_concat": (lambda a, b: ad.mean(ad.concat_cols(a, b)),
                    lambda a, b: np.mean(np.concatenate([a, b], axis=1)),
                    ((4, 3), (4, 2))),
    # parts of unequal row counts around a constant part
    "concat_rows": (lambda a, b: ad.mean(ad.square(
                        ad.concat_rows([a, Tensor(ROWS_C), b]))),
                    lambda a, b: np.mean(np.concatenate([a, ROWS_C, b]) ** 2),
                    ((4, 3), (2, 3))),
    # mlp: input and first-weight gradients through both layers
    "mlp_mish": (lambda a, b: ad.mean(ad.square(_mlp_graph(a, b))),
                 lambda a, b: np.mean(_mlp64(a, b, _mish64) ** 2), ((4, 3), (3, 2))),
    "mlp_tanh": (lambda a, b: ad.mean(ad.square(_mlp_graph(a, b, "tanh"))),
                 lambda a, b: np.mean(_mlp64(a, b, np.tanh) ** 2), ((4, 3), (3, 2))),
    "mlp_out_tanh": (lambda a, b: ad.mean(ad.square(_mlp_graph(a, b, out_tanh=True))),
                     lambda a, b: np.mean(_mlp64(a, b, _mish64, True) ** 2),
                     ((4, 3), (3, 2))),
    # frozen: the weight (b) is a constant, so only a gets a gradient
    "mlp_frozen": (lambda a, b: ad.mean(ad.square(_mlp_graph(a, b, frozen=True))),
                   lambda a, b: np.mean(_mlp64(a, b, _mish64) ** 2), ((4, 3), (3, 2))),
    "mean_mlp": (lambda a, b: ad.mean(_mlp_graph(a, b)),
                 lambda a, b: np.mean(_mlp64(a, b, _mish64)), ((4, 3), (3, 2))),
    # the target (b) is a constant, so only a gets a gradient
    "mse_weighted": (lambda a, b: ad.mse(a, b, ROW_W),
                     lambda a, b: np.mean(ROW_W[:, None] * (a - b) ** 2),
                     ((4, 3), (4, 3))),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences(name):
    graph_fn, ref_fn, shapes = OPS[name]
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    a64 = rng.standard_normal(shapes[0])
    b64 = rng.standard_normal(shapes[1])

    a = Tensor(a64, requires_grad=True)
    b = Tensor(b64, requires_grad=True)
    ad.backward(graph_fn(a, b))

    fd_a, fd_b = central_diff(lambda arrs: ref_fn(arrs[0], arrs[1]), [a64, b64])
    assert rel_close(a.grad, fd_a, TOL)
    if b.grad is not None:
        assert rel_close(b.grad, fd_b, TOL)


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_keep_operand_shapes(name):
    graph_fn, _, shapes = OPS[name]
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    a = Tensor(rng.standard_normal(shapes[0]), requires_grad=True)
    b = Tensor(rng.standard_normal(shapes[1]), requires_grad=True)
    ad.backward(graph_fn(a, b))
    assert a.grad.shape == a.shape
    assert b.grad is None or b.grad.shape == b.shape


def test_mean_gradient_has_operand_shape():
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    ad.backward(ad.mean(w))
    assert w.grad.shape == w.shape
    # a tensor feeding both mean and another op, in either backward order
    for first_mean in (True, False):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        terms = [ad.mean(x), ad.mean(ad.square(x))]
        ad.backward(ad.add(*(terms if first_mean else terms[::-1])))
        assert x.grad.shape == x.shape
        np.testing.assert_allclose(x.grad, np.full((4, 3), 3.0 / 12.0), rtol=1e-6)


def test_mse_with_unit_row_weights_equals_unweighted_bitwise():
    rng = np.random.default_rng(26)
    x64, y64 = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    plain, weighted = (Tensor(x64, requires_grad=True) for _ in range(2))
    l1 = ad.mse(plain, y64)
    l2 = ad.mse(weighted, y64, np.ones(6))
    assert np.array_equal(l1.data, l2.data)
    ad.backward(l1)
    ad.backward(l2)
    assert np.array_equal(plain.grad, weighted.grad)


def test_concat_rows_and_row_weights_reject_bad_shapes():
    with pytest.raises(ShapeError) as err:
        ad.concat_rows([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))])
    assert "(2, 3)" in str(err.value) and "(2, 4)" in str(err.value)
    with pytest.raises(ShapeError):
        ad.concat_rows([])
    with pytest.raises(ShapeError):
        ad.mse(Tensor(np.zeros((4, 2))), np.zeros((4, 2)), np.ones(3))


def test_mish_np_bitwise_equals_graph_mish_factor():
    edge = np.array([0.0, -0.0, -100.0, 19.99, 20.0, 25.0, 1e4], np.float32)
    rng = np.random.default_rng(23)
    x = np.concatenate([edge, rng.standard_normal(500).astype(np.float32) * 8])
    before = x.copy()
    expected = x * ad._mish_parts(x)[0]
    got = ad.mish_np(x)
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))
    assert np.array_equal(x.view(np.uint32), before.view(np.uint32))


def test_graph_evaluation_deterministic():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4)).astype(np.float32)
    w = rng.standard_normal((4, 4)).astype(np.float32)

    def run():
        wt = Tensor(w, requires_grad=True)
        loss = ad.mse(ad.mish(ad.matmul(Tensor(x), wt)), np.ones((6, 4), np.float32))
        ad.backward(loss)
        return loss.data.copy(), wt.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


def test_dropped_graph_is_freed_without_the_cycle_collector():
    x = Tensor(np.ones((4, 3)))
    weights = [Tensor(np.ones(shape), requires_grad=True) for shape in ((3, 2), (2, 2))]
    biases = [Tensor(np.zeros(2), requires_grad=True) for _ in weights]
    gc.disable()
    try:
        hidden = ad.mlp(x, weights, biases)
        loss = ad.mse(ad.concat_rows([hidden, hidden]), np.zeros((8, 2)))
        ad.backward(loss)
        alive = [weakref.ref(hidden.data), weakref.ref(hidden.grad)]
        del hidden, loss
        assert all(ref() is None for ref in alive)
    finally:
        gc.enable()


def test_repeated_backward_accumulates():
    w = Tensor([2.0], requires_grad=True)
    ad.backward(ad.mean(ad.square(w)))
    first = w.grad.copy()
    ad.backward(ad.mean(ad.square(w)))  # no zeroing in between
    assert np.allclose(w.grad, 2 * first)


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError) as err:
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        ad.mse(Tensor(np.zeros(3)), np.zeros(4))


def test_backward_rejects_non_scalar_loss():
    with pytest.raises(GradientError):
        ad.backward(Tensor(np.zeros(3), requires_grad=True))


def test_non_finite_input_rejected_at_graph_boundary():
    with pytest.raises(ValueError):
        Tensor([np.nan, 1.0])
    with pytest.raises(ValueError):
        Tensor([np.inf])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_gradient_overflow_error_names_the_op():
    # forward stays finite but the mul backward rule overflows float32
    a = Tensor([0.0], requires_grad=True, name="a")
    big1 = Tensor([1e30])
    big2 = Tensor([1e30])
    out = ad.mean(ad.mul(ad.mul(a, big1), big2))
    with pytest.raises(GradientError) as err:
        ad.backward(out)
    assert "mul" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_gradient_overflow_inside_mlp_names_layer_and_rule():
    # layer 1 outputs 0.9, where mish's slope exceeds its value: the forward
    # 0.76 * 3.35e38 is finite, the mish rule's 3.35e38 * 1.03 is not
    def param(value, shape):
        return Tensor(np.full(shape, value), requires_grad=True)
    weights = [param(0.0, (1, 1)), param(0.0, (1, 1)), param(3.35e38, (1, 1))]
    biases = [param(0.5, (1,)), param(0.9, (1,)), param(0.0, (1,))]
    out = ad.mlp(Tensor([[1.0]]), weights, biases, "mish")
    assert np.isfinite(out.data).all()
    with pytest.raises(GradientError) as err:
        ad.backward(ad.mean(out))
    assert "op 'mlp' layer 1 (mish)" in str(err.value)


@pytest.mark.parametrize("activation", ["mish", "tanh"])
@pytest.mark.parametrize("out_tanh", [False, True])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("n_hidden", [1, 2])
@pytest.mark.parametrize("x_grad", [False, True])
def test_mlp_node_matches_single_op_chain_bitwise(activation, out_tanh, frozen,
                                                  n_hidden, x_grad):
    rng = np.random.default_rng(31)
    x1, x2 = (rng.standard_normal((16, 5)).astype(np.float32) * 2 for _ in range(2))
    target = rng.standard_normal((16, 3)).astype(np.float32)
    row_w = rng.uniform(0.5, 2.0, 16)
    results = []
    for build in (lambda m, x, f: m(x, frozen=f), mlp_chain):
        mlp = MLP("head", 5, 3, 16, n_hidden, activation, np.random.default_rng(7),
                  out_tanh=out_tanh)
        xs = [Tensor(x, requires_grad=x_grad) for x in (x1, x2)]
        # two calls into one loss, so parameter gradients accumulate
        outs = [build(mlp, x, frozen) for x in xs]
        if outs[0].requires_grad:
            ad.backward(ad.add(ad.mse(outs[0], target, row_w), ad.mse(outs[1], target)))
        results.append([o.data for o in outs] + [x.grad for x in xs]
                       + [p.grad for p in mlp.params()])
    outs, x_grads, param_grads = results[0][:2], results[0][2:4], results[0][4:]
    assert outs[0].shape == (16, 3)
    assert all((g is not None) == x_grad for g in x_grads)
    assert all((g is not None) == (not frozen) for g in param_grads)
    for got, want in zip(*results):
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_mlp_shape_error_names_both_shapes():
    weights = [Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 2)))]
    biases = [Tensor(np.zeros(4)), Tensor(np.zeros(2))]
    with pytest.raises(ShapeError) as err:
        ad.mlp(Tensor(np.zeros((2, 5))), weights, biases)
    assert "(2, 5)" in str(err.value) and "(3, 4)" in str(err.value)


def test_packed_adam_matches_per_parameter_adam_bitwise():
    chunk = ad._ADAM_CHUNK
    # one run crosses a chunk inside a parameter, one parameter is larger
    # than a chunk, and one run ends a chunk exactly at a parameter's end
    sizes = [chunk - 1000, 3000, 50, chunk + 4000, 35, chunk - 4035, 3, 6]
    shapes = [(s // 5, 5) if s % 5 == 0 else (s,) for s in sizes]
    rng = np.random.default_rng(28)
    init = [(rng.standard_normal(s) * 1e-3).astype(np.float32) for s in shapes]
    packed = [Tensor(a, requires_grad=True) for a in init]
    ref = [Tensor(a, requires_grad=True) for a in init]
    opt, opt_ref = Adam(packed, lr=1e-2), AdamRef(ref, lr=1e-2)
    assert opt._scratch.shape == (2, chunk)
    for step in range(5):
        if step == 3:  # continue from a reloaded state
            opt = Adam(packed, lr=1e-2)
            opt.load_state([(m.copy(), v.copy()) for m, v in zip(opt_ref.m, opt_ref.v)],
                           opt_ref.t)
        # the third parameter never has a gradient; the seventh skips step 2
        none = {2} | ({6} if step == 2 else set())
        for i, (p, q) in enumerate(zip(packed, ref)):
            g = None if i in none else rng.standard_normal(shapes[i]).astype(np.float32)
            p.grad = q.grad = g
        opt.step()
        opt_ref.step()
        for i, (p, q) in enumerate(zip(packed, ref)):
            assert np.array_equal(p.data, q.data), (step, i)
            assert np.array_equal(opt.m[i], opt_ref.m[i]), (step, i)
            assert np.array_equal(opt.v[i], opt_ref.v[i]), (step, i)
    assert not opt.m[2].any() and np.array_equal(packed[2].data, init[2])


def test_packed_adam_scratch_is_capped_by_the_optimizer_size():
    p = Tensor(np.ones((3, 4)), requires_grad=True)
    assert Adam([p])._scratch.shape == (2, 12)


class TestAdam:
    def test_zero_gradient_leaves_everything_untouched(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        opt = Adam([p], lr=1e-3)
        p.grad = np.zeros(2, dtype=np.float32)
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])
        assert np.all(opt.m[0] == 0) and np.all(opt.v[0] == 0)

    def test_first_step_matches_hand_evaluation(self):
        # t=1: m=0.05, v=2.5e-4; mhat=0.5, vhat=0.25
        # delta = lr * 0.5 / (0.5 + 1e-8) ~= lr
        p = Tensor([1.0], requires_grad=True)
        opt = Adam([p], lr=1e-3)
        p.grad = np.array([0.5], dtype=np.float32)
        opt.step()
        assert abs(p.data[0] - (1.0 - 1e-3)) < 1e-6
        assert abs(opt.m[0][0] - 0.05) < 1e-7
        assert abs(opt.v[0][0] - 2.5e-4) < 1e-8

    def test_two_identical_runs_are_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(42)
            p = Tensor(rng.standard_normal(8).astype(np.float32), requires_grad=True)
            opt = Adam([p], lr=1e-2)
            for step in range(50):
                g = np.random.default_rng(step).standard_normal(8).astype(np.float32)
                p.grad = g
                opt.step()
            return p.data.copy()
        assert np.array_equal(run(), run())

    def test_skipped_none_grad_params(self):
        p1 = Tensor([1.0], requires_grad=True)
        p2 = Tensor([1.0], requires_grad=True)
        opt = Adam([p1, p2], lr=1e-2)
        p1.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert p1.data[0] != 1.0 and p2.data[0] == 1.0

    def test_in_place_step_bitwise_equals_reference_expression(self):
        def reference(opt, p, m, v, g):
            # the out-of-place update this optimizer must reproduce
            b1, b2 = np.float32(opt.beta1), np.float32(opt.beta2)
            one = np.float32(1.0)
            bc1 = np.float32(1.0 - opt.beta1 ** opt.t)
            bc2 = np.float32(1.0 - opt.beta2 ** opt.t)
            lr, eps = np.float32(opt.lr), np.float32(opt.eps)
            m = m * b1 + (one - b1) * g
            v = v * b2 + (one - b2) * (g * g)
            p = p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
            return p, m, v

        rng = np.random.default_rng(24)
        shapes = [(5, 3), (3,), (7, 2)]
        # weights small against the step size, so every rounding of the
        # update shows in them
        params = [Tensor(rng.standard_normal(s) * 1e-3, requires_grad=True)
                  for s in shapes]
        opt = Adam(params, lr=1e-2)
        ref = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for p in params]
        for step in range(50):
            if step == 25:  # continue from a reloaded state
                opt = Adam(params, lr=1e-2)
                opt.load_state([(m, v) for _, m, v in ref], step)
            grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            ref = [reference(opt, *r, g) for r, g in zip(ref, grads)]
            for i, (p, (rp, rm, rv)) in enumerate(zip(params, ref)):
                assert np.array_equal(p.data, rp), (step, i)
                assert np.array_equal(opt.m[i], rm) and np.array_equal(opt.v[i], rv)

    def test_state_roundtrip(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam([p], lr=1e-2)
        p.grad = np.array([0.3, -0.7], dtype=np.float32)
        opt.step()
        opt2 = Adam([p], lr=1e-2)
        opt2.load_state(list(zip(opt.m, opt.v)), opt.t)
        assert opt2.t == opt.t
        assert np.array_equal(opt2.m[0], opt.m[0])
        assert np.array_equal(opt2.v[0], opt.v[0])
