"""Tensor op forward values, gradients vs float64 finite differences, Adam."""

import numpy as np
import pytest

import wmdistill.autodiff as ad
from wmdistill.autodiff import Adam, GradientError, ShapeError, Tensor

from conftest import rel_close

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
    # linear: input and weight gradients, then input and bias gradients
    "linear": (lambda a, b: ad.mean(ad.square(ad.linear(a, b, Tensor(LIN_B)))),
               lambda a, b: np.mean((a @ b + LIN_B) ** 2), ((4, 3), (3, 2))),
    "linear_bias": (lambda a, b: ad.mean(ad.square(ad.linear(a, Tensor(LIN_W), b))),
                    lambda a, b: np.mean((a @ LIN_W + b) ** 2), ((4, 3), (2,))),
    # mean straight over a batch op: its (1,) gradient must broadcast first
    "mean_linear": (lambda a, b: ad.mean(ad.linear(a, b, Tensor(LIN_B))),
                    lambda a, b: np.mean(a @ b + LIN_B), ((4, 3), (3, 2))),
    "mean_matmul": (lambda a, b: ad.mean(ad.matmul(a, b)),
                    lambda a, b: np.mean(a @ b), ((4, 3), (3, 2))),
    "mean_concat": (lambda a, b: ad.mean(ad.concat_cols(a, b)),
                    lambda a, b: np.mean(np.concatenate([a, b], axis=1)),
                    ((4, 3), (4, 2))),
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


def test_linear_matches_add_of_matmul_bitwise():
    rng = np.random.default_rng(22)
    x64, w64, b64 = (rng.standard_normal(s) for s in ((9, 5), (5, 4), (4,)))
    fused = [Tensor(a, requires_grad=True) for a in (x64, w64, b64)]
    split = [Tensor(a, requires_grad=True) for a in (x64, w64, b64)]
    y1 = ad.linear(*fused)
    y2 = ad.add(ad.matmul(split[0], split[1]), split[2])
    assert np.array_equal(y1.data, y2.data)
    ad.backward(ad.mean(ad.mish(y1)))
    ad.backward(ad.mean(ad.mish(y2)))
    for f, s in zip(fused, split):
        assert np.array_equal(f.grad, s.grad)


def test_linear_shape_errors_name_all_shapes():
    with pytest.raises(ShapeError) as err:
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))),
                  Tensor(np.zeros(3)))
    assert "(2, 3)" in str(err.value) and "(3, 4)" in str(err.value)
    assert "(3,)" in str(err.value)


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
        opt2.load_state(opt.state_arrays(), opt.t)
        assert opt2.t == opt.t
        assert np.array_equal(opt2.m[0], opt.m[0])
        assert np.array_equal(opt2.v[0], opt.v[0])
