"""Tape mechanics, backward rules, SGD, and the finite-difference suite."""

import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from asymfuse import autograd as ag
from asymfuse import gradcheck
from asymfuse import nn
from asymfuse import tensor as T
from asymfuse.errors import (
    DisconnectedLossError,
    LabelOutOfRangeError,
    NonScalarLossError,
    ShapeMismatchError,
)
from oracles import diagonal_kernel, rand_f32, window_loop, window_loop_grads


class TestBackwardRules:
    def test_relu_gradient_zero_at_kink_and_negatives(self):
        x = ag.Parameter(np.array([-1.0, 0.0, 2.0, 3.0], np.float32), "x")
        tape = ag.Tape()
        loss = ag.weighted_sum(ag.relu(tape.parameter(x)), np.ones(4))
        ag.backward(tape, loss)
        npt.assert_array_equal(x.grad, np.array([0.0, 0.0, 1.0, 1.0], np.float32))

    def test_broadcast_backward_sums_over_replicated_axes(self):
        a = ag.Parameter(np.zeros((3, 1, 1), np.float32), "a")
        b = ag.Parameter(np.zeros((3, 2, 2), np.float32), "b")
        tape = ag.Tape()
        loss = ag.weighted_sum(ag.add(tape.parameter(a), tape.parameter(b)),
                               np.ones((3, 2, 2)))
        ag.backward(tape, loss)
        npt.assert_array_equal(a.grad, np.full((3, 1, 1), 4.0, np.float32))
        npt.assert_array_equal(b.grad, np.ones((3, 2, 2), np.float32))

    @pytest.mark.parametrize("a_shape, b_shape, reduce", [
        ((4, 1, 3), (4, 5, 3), lambda g: g.sum(axis=1, keepdims=True)),
        # Operands of different rank: the missing leading axes are summed away.
        ((4,), (3, 2, 4), lambda g: g.sum(axis=0).sum(axis=0)),
    ], ids=["replicated-axis", "leading-axes"])
    def test_broadcast_backward_law_exact(self, a_shape, b_shape, reduce):
        # grad of the broadcast operand == full-shape grad summed over
        # the broadcast axes, exactly.
        rng = np.random.default_rng(80)
        a = ag.Parameter(rand_f32(rng, a_shape), "a")
        b = ag.Parameter(rand_f32(rng, b_shape), "b")
        proj = rng.uniform(-1, 1, size=b_shape)
        tape = ag.Tape()
        loss = ag.weighted_sum(ag.add(tape.parameter(a), tape.parameter(b)), proj)
        ag.backward(tape, loss)
        npt.assert_array_equal(a.grad, reduce(proj).astype(np.float32))
        npt.assert_array_equal(b.grad, proj.astype(np.float32))

    def test_conv_param_gradients_match_finite_differences(self):
        rng = np.random.default_rng(81)
        x = ag.Parameter(rand_f32(rng, (2, 5, 5)), "x")
        k = ag.Parameter(rand_f32(rng, (3, 2, 3, 3)), "k")
        proj = rng.uniform(-1, 1, size=(3, 3, 3))

        def loss_value():
            out = nn.conv2d_valid(x.value, k.value)
            return float((out.astype(np.float64) * proj).sum())

        tape = ag.Tape()
        loss = ag.weighted_sum(ag.conv2d(tape.parameter(x), tape.parameter(k)), proj)
        ag.backward(tape, loss)
        for p in (x, k):
            numeric = ag.finite_diff_grad(loss_value, p, eps=1e-2)
            scale = max(np.abs(numeric).max(), 1e-8)
            assert np.abs(p.grad - numeric).max() / scale < 1e-3

    def test_mean_pool_spreads_gradient_uniformly(self):
        x = ag.Parameter(np.arange(12, dtype=np.float32).reshape(3, 2, 2), "x")
        tape = ag.Tape()
        loss = ag.weighted_sum(ag.mean_pool(tape.parameter(x)), np.array([1.0, 0.0, 2.0]))
        ag.backward(tape, loss)
        expected = np.stack([np.full((2, 2), w / 4.0) for w in (1.0, 0.0, 2.0)])
        npt.assert_allclose(x.grad, expected.astype(np.float32), atol=1e-7)

    def test_taped_forward_matches_plain_forward_bitwise(self):
        # Every taped op computes its value with the plain nn/tensor
        # function; gradcheck's finite-difference reference relies on it.
        rng = np.random.default_rng(82)
        for op, (taped, plain, shapes) in TAPED_OPS.items():
            values = [rand_f32(rng, shape) for shape in shapes]
            tape = ag.Tape()
            node = taped(*[tape.parameter(ag.Parameter(v, f"in{i}"))
                           for i, v in enumerate(values)])
            expected = plain(*values)
            assert node.value.dtype == expected.dtype, op
            npt.assert_array_equal(node.value, expected, err_msg=op)


BN_MEAN = np.array([0.1, -0.2, 0.3], np.float32)
BN_VAR = np.array([0.5, 1.0, 1.5], np.float32)

# op -> (taped forward on nodes, plain forward on arrays, input shapes).
TAPED_OPS = {
    "add": (ag.add, T.broadcast_add, [(3, 1, 4), (3, 5, 4)]),
    "relu": (ag.relu, T.relu, [(4, 5)]),
    "conv2d": (ag.conv2d, nn.conv2d_valid, [(2, 6, 6), (4, 2, 3, 3)]),
    "head1x1": (ag.head1x1, nn.head1x1, [(3, 4, 5), (2, 3, 1, 1)]),
    "depthwise": (ag.depthwise, nn.depthwise_corr, [(3, 7, 6), (3, 3, 2)]),
    "xcorr": (ag.xcorr, nn.xcorr, [(2, 6, 7), (2, 2, 3)]),
    "affine": (ag.affine, lambda x, w, b: nn.fc_forward(x, nn.FcLayer(w, b)),
               [(4,), (3, 4), (3,)]),
    "mlp3": (lambda x, *wb: ag.mlp3(x, zip(wb[0::2], wb[1::2])),
             lambda x, *wb: nn.mlp3_forward(x, map(nn.FcLayer, wb[0::2], wb[1::2])),
             [(3,), (5, 3), (5,), (4, 5), (4,), (2, 4), (2,)]),
    "batchnorm": (lambda x, g, b: ag.batchnorm(x, g, b, BN_MEAN, BN_VAR),
                  lambda x, g, b: nn.batchnorm_infer(
                      x, nn.BatchNormParams(g, b, BN_MEAN, BN_VAR)),
                  [(3, 4, 4), (3,), (3,)]),
    "mean_pool": (ag.mean_pool, nn.global_avg_pool, [(3, 4, 5)]),
    "reshape": (lambda x: ag.reshape(x, (6, 1, 1)), lambda x: x.reshape(6, 1, 1), [(6,)]),
}


def depthwise_loop_grads(x, z, g):
    """float64 dz and dx of out[c,i,j] = sum_{u,v} z[c,u,v] x[c,i+u,j+v]."""
    kh, kw = z.shape[1:]
    dz, dx = np.zeros(z.shape), np.zeros(x.shape)
    for i in range(g.shape[1]):
        for j in range(g.shape[2]):
            dz += g[:, i, j, None, None] * x[:, i : i + kh, j : j + kw]
            dx[:, i : i + kh, j : j + kw] += g[:, i, j, None, None] * z
    return dz, dx


# (x shape, kernel shape P x C x kh x kw); xcorr and depthwise use kernel[0].
CONV_SHAPES = {
    "toy-conv1": ((1, 14, 14), (8, 1, 3, 3)),
    "toy-conv2": ((8, 12, 12), (16, 8, 3, 3)),
    "toy-fuse": ((16, 10, 10), (16, 16, 3, 3)),
    "one-channel": ((1, 6, 5), (3, 1, 2, 2)),
    "1x1-kernel": ((3, 4, 5), (2, 3, 1, 1)),
    "kernel-fills-map": ((2, 4, 3), (3, 2, 4, 3)),
    "non-square-kernel": ((3, 7, 6), (2, 3, 2, 4)),
}


def taped_grads(op, x_value, k_value, proj, const_input=False):
    """float64 adjoints reaching the input and kernel nodes of op(x, k)."""
    tape = ag.Tape()
    x = tape.constant(x_value) if const_input else tape.parameter(ag.Parameter(x_value, "x"))
    k = tape.parameter(ag.Parameter(k_value, "k"))
    ag.backward(tape, ag.weighted_sum(op(x, k), proj))
    return k.grad, x.grad


class TestConvBackwardTable:
    @pytest.mark.parametrize("op", ["conv2d", "xcorr", "depthwise"])
    @pytest.mark.parametrize("row", CONV_SHAPES)
    def test_matches_window_loop(self, row, op):
        x_shape, k_shape = CONV_SHAPES[row]
        rng = np.random.default_rng(sum(map(ord, row + op)))
        x = rand_f32(rng, x_shape)
        k = rand_f32(rng, k_shape if op == "conv2d" else k_shape[1:])
        out_shape = (x_shape[1] - k_shape[2] + 1, x_shape[2] - k_shape[3] + 1)
        channels = {"conv2d": k_shape[0], "xcorr": 1, "depthwise": x_shape[0]}[op]
        g = rng.uniform(-1, 1, size=(channels, *out_shape))
        x64, k64 = x.astype(np.float64), k.astype(np.float64)
        if op == "conv2d":
            want_x, want_k = window_loop_grads(x64, k64, g)
        elif op == "xcorr":
            want_x, want_k = window_loop_grads(x64, k64[None], g)
            want_k = want_k[0]
        else:
            want_k, want_x = depthwise_loop_grads(x64, k64, g)
        got_k, got_x = taped_grads(getattr(ag, op), x, k, g)
        npt.assert_allclose(got_k, want_k, rtol=0, atol=1e-10)
        npt.assert_allclose(got_x, want_x, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("op", ["conv2d", "depthwise"])
    @pytest.mark.parametrize("row", CONV_SHAPES)
    def test_input_adjoint_is_the_transpose_of_the_op(self, row, op):
        # <op(x, k), G> == <x, adjoint(G)> pins the flipped kernel and the
        # (kh-1, kw-1) padding of the input adjoint to the forward's windows.
        x_shape, k_shape = CONV_SHAPES[row]
        rng = np.random.default_rng(sum(map(ord, row + op)))
        x = rand_f32(rng, x_shape)
        if op == "conv2d":
            k = rand_f32(rng, k_shape)
            w = k.astype(np.float64)
        else:
            k = rand_f32(rng, (x_shape[0], *k_shape[2:]))
            w = diagonal_kernel(k)
        out = window_loop(x, w)
        g = rng.uniform(-1, 1, size=out.shape)
        _, adjoint = taped_grads(getattr(ag, op), x, k, g)
        npt.assert_allclose((out * g).sum(), (x * adjoint).sum(), rtol=1e-12)

    @pytest.mark.parametrize("row", ["toy-conv1", "non-square-kernel"])
    def test_constant_input_gives_same_kernel_gradient_and_no_input_adjoint(self, row):
        x_shape, k_shape = CONV_SHAPES[row]
        rng = np.random.default_rng(84)
        x, k = rand_f32(rng, x_shape), rand_f32(rng, k_shape)
        g = rng.uniform(-1, 1, size=nn.conv2d_valid(x, k).shape)
        want_k, _ = taped_grads(ag.conv2d, x, k, g)
        got_k, got_x = taped_grads(ag.conv2d, x, k, g, const_input=True)
        npt.assert_array_equal(got_k, want_k)
        assert got_x is None


class TestSoftmaxXent:
    def test_uniform_two_way_is_log2(self):
        logits = ag.Parameter(np.zeros(2, np.float32), "logits")
        tape = ag.Tape()
        loss = ag.softmax_xent(tape.parameter(logits), 0)
        assert float(loss.value) == pytest.approx(np.log(2.0), abs=1e-6)

    def test_large_logits_stay_finite(self):
        logits = ag.Parameter(np.array([1000.0, 0.0, -1000.0], np.float32), "logits")
        tape = ag.Tape()
        loss = ag.softmax_xent(tape.parameter(logits), 0)
        assert np.isfinite(float(loss.value))
        assert float(loss.value) == pytest.approx(0.0, abs=1e-6)
        ag.backward(tape, loss)
        assert np.isfinite(logits.grad).all()

    def test_matches_float64_formula(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            z = rand_f32(rng, (6,), -5.0, 5.0)
            label = int(rng.integers(0, 6))
            logits = ag.Parameter(z, "logits")
            tape = ag.Tape()
            loss = ag.softmax_xent(tape.parameter(logits), label)
            z64 = z.astype(np.float64)
            shifted = z64 - z64.max()
            expected = np.log(np.exp(shifted).sum()) - shifted[label]
            assert float(loss.value) == pytest.approx(expected, rel=1e-5)

    def test_gradient_is_probs_minus_onehot(self):
        z = np.array([1.0, 2.0, 0.5], np.float32)
        logits = ag.Parameter(z, "logits")
        tape = ag.Tape()
        loss = ag.softmax_xent(tape.parameter(logits), 1)
        ag.backward(tape, loss)
        e = np.exp(z.astype(np.float64) - z.max())
        probs = e / e.sum()
        probs[1] -= 1.0
        npt.assert_allclose(logits.grad, probs.astype(np.float32), atol=1e-6)

    def test_label_out_of_range(self):
        logits = ag.Parameter(np.zeros(3, np.float32), "logits")
        tape = ag.Tape()
        with pytest.raises(LabelOutOfRangeError):
            ag.softmax_xent(tape.parameter(logits), 3)
        with pytest.raises(LabelOutOfRangeError):
            ag.softmax_xent(tape.parameter(logits), -1)


# The input contract of the taped ops. Each row records one op on a bad input;
# recording it raises the row's class.
TAPE_CONTRACT_ROWS = {
    "mlp3 with 2 layers": (lambda t: ag.mlp3(t.constant(np.ones(2)), [
        (t.constant(np.eye(2)), t.constant(np.zeros(2)))] * 2), ValueError),
    "weighted_sum weights of another shape": (
        lambda t: ag.weighted_sum(t.constant(np.ones(3)), np.ones(2)), ShapeMismatchError),
    "softmax_xent on rank-2 logits": (
        lambda t: ag.softmax_xent(t.constant(np.ones((2, 2))), 0), ShapeMismatchError),
}


class TestBackwardContract:
    @pytest.mark.parametrize("row", TAPE_CONTRACT_ROWS)
    def test_bad_op_input_raises_its_class(self, row):
        record, error = TAPE_CONTRACT_ROWS[row]
        with pytest.raises(error):
            record(ag.Tape())

    def test_non_scalar_loss_rejected(self):
        x = ag.Parameter(np.ones((2, 2), np.float32), "x")
        tape = ag.Tape()
        node = ag.relu(tape.parameter(x))
        with pytest.raises(NonScalarLossError):
            ag.backward(tape, node)

    def test_disconnected_loss_rejected(self):
        x = ag.Parameter(np.ones(3, np.float32), "x")
        tape_a = ag.Tape()
        tape_b = ag.Tape()
        loss = ag.weighted_sum(ag.relu(tape_a.parameter(x)), np.ones(3))
        with pytest.raises(DisconnectedLossError):
            ag.backward(tape_b, loss)

    def test_tape_and_loss_freed_without_cycle_collector(self):
        # Nodes hold their tape weakly, so dropping the last references
        # frees the tape and every node by reference counting alone.
        x = ag.Parameter(np.ones(3, np.float32), "x")
        gc.disable()
        try:
            tape = ag.Tape()
            loss = ag.weighted_sum(ag.relu(tape.parameter(x)), np.ones(3))
            ag.backward(tape, loss)
            refs = [weakref.ref(tape), weakref.ref(loss.value)]
            del tape, loss
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_node_of_dropped_tape_rejected(self):
        x = ag.Parameter(np.ones(3, np.float32), "x")
        node = ag.Tape().parameter(x)
        with pytest.raises(DisconnectedLossError):
            ag.relu(node)
        tape = ag.Tape()
        loss = ag.weighted_sum(tape.parameter(x), np.ones(3))
        del tape
        with pytest.raises(DisconnectedLossError):
            ag.backward(ag.Tape(), loss)

    def test_grads_reset_between_backward_calls(self):
        x = ag.Parameter(np.array([2.0], np.float32), "x")
        for _ in range(2):
            tape = ag.Tape()
            loss = ag.weighted_sum(ag.relu(tape.parameter(x)), np.ones(1))
            ag.backward(tape, loss)
            npt.assert_array_equal(x.grad, np.ones(1, np.float32))  # not doubled

    def test_parameter_reused_twice_accumulates(self):
        x = ag.Parameter(np.array([3.0], np.float32), "x")
        tape = ag.Tape()
        node = tape.parameter(x)
        loss = ag.weighted_sum(ag.add(node, node), np.ones(1))
        ag.backward(tape, loss)
        npt.assert_array_equal(x.grad, np.array([2.0], np.float32))

    def test_returns_reached_parameters(self):
        x = ag.Parameter(np.ones(2, np.float32), "x")
        unused = ag.Parameter(np.ones(2, np.float32), "unused")
        tape = ag.Tape()
        tape.parameter(unused)
        loss = ag.weighted_sum(ag.relu(tape.parameter(x)), np.ones(2))
        reached = ag.backward(tape, loss)
        assert x in reached
        assert unused not in reached
        npt.assert_array_equal(unused.grad, np.zeros(2, np.float32))


class TestSgd:
    def test_single_step(self):
        p = ag.Parameter(np.array([1.0], np.float32), "p")
        p.grad[:] = 2.0
        ag.sgd_step([p], lr=0.5)
        npt.assert_array_equal(p.value, np.array([0.0], np.float32))
        npt.assert_array_equal(p.grad, np.zeros(1, np.float32))

    def test_zero_gradient_is_fixed_point(self):
        p = ag.Parameter(np.array([1.5, -2.0], np.float32), "p")
        ag.sgd_step([p], lr=0.1)
        npt.assert_array_equal(p.value, np.array([1.5, -2.0], np.float32))

    def test_two_steps_on_quadratic(self):
        # f(x) = x^2 from x=1 with lr 0.25: 1 -> 0.5 -> 0.25.
        p = ag.Parameter(np.array([1.0], np.float32), "p")
        for expected in (0.5, 0.25):
            p.grad[:] = 2.0 * p.value  # df/dx of x^2
            ag.sgd_step([p], lr=0.25)
            assert float(p.value[0]) == pytest.approx(expected, abs=1e-6)

    def test_non_positive_lr_rejected(self):
        p = ag.Parameter(np.ones(1, np.float32), "p")
        with pytest.raises(ValueError):
            ag.sgd_step([p], lr=0.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_non_finite_lr_rejected(self, lr):
        p = ag.Parameter(np.ones(1, np.float32), "p")
        p.grad[:] = 1.0
        with pytest.raises(ValueError):
            ag.sgd_step([p], lr=lr)
        npt.assert_array_equal(p.value, np.ones(1, np.float32))


class TestFiniteDiff:
    def test_sum_of_squares(self):
        p = ag.Parameter(np.array([1.0, 2.0], np.float32), "p")

        def f():
            return float((p.value.astype(np.float64) ** 2).sum())

        grad = ag.finite_diff_grad(f, p, eps=1e-3)
        npt.assert_allclose(grad, np.array([2.0, 4.0]), atol=1e-3)

    def test_linear_function_is_exact(self):
        p = ag.Parameter(np.array([0.5, -1.5, 2.0], np.float32), "p")
        coeffs = np.array([3.0, -1.0, 0.5])

        def f():
            return float((p.value.astype(np.float64) * coeffs).sum())

        grad = ag.finite_diff_grad(f, p, eps=1e-2)
        npt.assert_allclose(grad, coeffs, atol=1e-4)

    def test_value_restored_after_probing(self):
        p = ag.Parameter(np.array([1.0, 2.0], np.float32), "p")
        before = p.value.copy()
        ag.finite_diff_grad(lambda: float(p.value.sum()), p, eps=1e-2)
        npt.assert_array_equal(p.value, before)

    def test_zero_eps_rejected(self):
        p = ag.Parameter(np.ones(1, np.float32), "p")
        with pytest.raises(ValueError):
            ag.finite_diff_grad(lambda: 0.0, p, eps=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        p = ag.Parameter(np.ones(1, np.float32), "p")
        with pytest.raises(ValueError):
            ag.finite_diff_grad(lambda: 0.0, p, eps=eps)


class TestGradientSuite:
    def test_all_ops_pass_at_default_tolerance(self):
        results = gradcheck.gradient_check_suite(seed=0, eps=1e-2, tol=1e-2)
        ops = {r.op for r in results}
        assert {"broadcast_add", "relu", "conv2d", "head1x1", "depthwise_corr",
                "xcorr", "affine", "mlp3", "batchnorm_infer", "softmax_xent",
                "acm_block"} <= ops
        failed = [r for r in results if not r.passed]
        assert not failed, failed

    def test_injected_error_is_caught(self):
        results = gradcheck.gradient_check_suite(seed=0, inject_error=True)
        assert any(not r.passed for r in results)

    @pytest.mark.parametrize("knob", ["eps", "tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_knob_rejected(self, knob, value):
        # tol=inf would pass every row and tol=nan fail every row.
        with pytest.raises(ValueError, match=knob):
            gradcheck.gradient_check_suite(**{knob: value})

    def test_deterministic_given_seed(self):
        a = gradcheck.gradient_check_suite(seed=123)
        b = gradcheck.gradient_check_suite(seed=123)
        assert [(r.op, r.param, r.rel_error) for r in a] == \
               [(r.op, r.param, r.rel_error) for r in b]
