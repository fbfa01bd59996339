"""Tape mechanics, backward rules, SGD, and the finite-difference suite."""

import gc
import inspect
import weakref
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest

from asymfuse import autograd as ag
from asymfuse import gradcheck
from asymfuse import nn, plain
from asymfuse import tensor as T
from asymfuse import toytask as tt
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
        # Each row's forward on autograd nodes and on plain arrays gives the bits of
        # its reference; gradcheck's finite differences and the toy model's
        # evaluation rely on it.
        rng = np.random.default_rng(82)
        for op, (forward, reference, shapes) in TAPED_OPS.items():
            values = [rand_f32(rng, shape) for shape in shapes]
            tape = ag.Tape()
            node = forward(ag, *[tape.parameter(ag.Parameter(v, f"in{i}"))
                                 for i, v in enumerate(values)])
            expected = reference(*values)
            for got in (node.value, forward(plain, *values)):
                assert (got.dtype, got.shape) == (expected.dtype, expected.shape), op
                assert got.tobytes() == expected.tobytes(), op

    def test_plain_names_are_autograds_forward_ops(self):
        ag_ops = {name for name, obj in vars(ag).items() if not name.startswith("_")
                  and inspect.isfunction(obj) and obj.__module__ == ag.__name__}
        plain_ops = {name for name, obj in vars(plain).items()
                     if not name.startswith("_") and inspect.isfunction(obj)}
        assert plain_ops == ag_ops - NOT_FORWARD_OPS == set(TAPED_OPS)


BN_MEAN = np.array([0.1, -0.2, 0.3], np.float32)
BN_VAR = np.array([0.5, 1.0, 1.5], np.float32)

# op -> (forward over an op set, autograd or plain; reference on arrays, taking FC
# layers and batch norm in struct form; input shapes).
TAPED_OPS = {
    "add": (lambda ops, a, b: ops.add(a, b), T.broadcast_add, [(3, 1, 4), (3, 5, 4)]),
    "relu": (lambda ops, x: ops.relu(x), T.relu, [(4, 5)]),
    "conv2d": (lambda ops, x, k: ops.conv2d(x, k), nn.conv2d_valid, [(2, 6, 6), (4, 2, 3, 3)]),
    "head1x1": (lambda ops, x, k: ops.head1x1(x, k), nn.head1x1, [(3, 4, 5), (2, 3, 1, 1)]),
    "depthwise": (lambda ops, x, z: ops.depthwise(x, z), nn.depthwise_corr,
                  [(3, 7, 6), (3, 3, 2)]),
    "xcorr": (lambda ops, x, z: ops.xcorr(x, z), nn.xcorr, [(2, 6, 7), (2, 2, 3)]),
    "affine": (lambda ops, x, w, b: ops.affine(x, w, b),
               lambda x, w, b: nn.fc_forward(x, nn.FcLayer(w, b)), [(4,), (3, 4), (3,)]),
    "mlp3": (lambda ops, x, *wb: ops.mlp3(x, zip(wb[0::2], wb[1::2])),
             lambda x, *wb: nn.mlp3_forward(x, map(nn.FcLayer, wb[0::2], wb[1::2])),
             [(3,), (5, 3), (5,), (4, 5), (4,), (2, 4), (2,)]),
    "batchnorm": (lambda ops, x, g, b: ops.batchnorm(x, g, b, BN_MEAN, BN_VAR),
                  lambda x, g, b: nn.batchnorm_infer(
                      x, nn.BatchNormParams(g, b, BN_MEAN, BN_VAR)),
                  [(3, 4, 4), (3,), (3,)]),
    "mean_pool": (lambda ops, x: ops.mean_pool(x), nn.global_avg_pool, [(3, 4, 5)]),
    "reshape": (lambda ops, x: ops.reshape(x, (6, 1, 1)), lambda x: x.reshape(6, 1, 1),
                [(6,)]),
}

# autograd's functions that are not forward ops: the two losses and the training calls.
NOT_FORWARD_OPS = {"weighted_sum", "softmax_xent", "backward", "sgd_step", "finite_diff_grad"}


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

    def test_one_leaf_per_parameter_on_each_tape(self):
        p = ag.Parameter(np.ones(2, np.float32), "p")
        tape_a, tape_b = ag.Tape(), ag.Tape()
        leaf_a, leaf_b = tape_a.parameter(p), tape_b.parameter(p)
        assert tape_a.parameter(p) is leaf_a and tape_b.parameter(p) is leaf_b
        assert leaf_a is not leaf_b
        assert tape_a.nodes == [leaf_a] and tape_b.nodes == [leaf_b]

    def test_equal_parameters_get_their_own_leaves(self):
        # Leaves are keyed by the Parameter itself, not by its name or values.
        p, q = (ag.Parameter(np.ones(2, np.float32), "p") for _ in range(2))
        tape = ag.Tape()
        leaves = [tape.parameter(x) for x in (p, q, p, q)]
        assert leaves[0] is not leaves[1] and leaves[2:] == leaves[:2]
        loss = ag.add(ag.weighted_sum(leaves[0], [1.0, 1.0]),
                      ag.weighted_sum(leaves[1], [2.0, 2.0]))
        assert ag.backward(tape, loss) == [p, q]
        npt.assert_array_equal(p.grad, np.ones(2, np.float32))
        npt.assert_array_equal(q.grad, np.full(2, 2.0, np.float32))

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


def stale(*values):
    """A Parameter whose grad holds a stale non-zero value."""
    p = ag.Parameter(np.array(values, np.float32), "p")
    p.grad[...] = 7.0
    return p


def unreached(tape):
    used, unused = stale(1.0, 2.0), stale(3.0)
    tape.parameter(unused)
    return ag.weighted_sum(tape.parameter(used), np.ones(2)), [(used, [1, 1]), (unused, [0])]


def recorded_after_loss(tape):
    used, late = stale(1.0), stale(2.0, 3.0)
    loss = ag.weighted_sum(tape.parameter(used), np.ones(1))
    ag.relu(tape.parameter(late))
    return loss, [(used, [1]), (late, [0, 0])]


def used_twice(tape):
    # Two uses of one Parameter share its leaf, so the adjoints add in float64 and
    # 1 + 2**-24 + 2**-50 rounds once, up to 1 + 2**-23; rounding each adjoint on
    # its own first would give 1.0.
    p = stale(1.0)
    g1, g2 = np.array([1.0]), np.array([2.0**-24 + 2.0**-50])
    loss = ag.add(ag.weighted_sum(tape.parameter(p), g1), ag.weighted_sum(tape.parameter(p), g2))
    return loss, [(p, np.float32(g1 + g2))]


def tiny_negative_adjoint(tape):
    # -1e-300 rounds to float32 -0.0; the gradient is 0 + -0.0 = +0.0.
    p = stale(1.0)
    return ag.weighted_sum(tape.parameter(p), [-1e-300]), [(p, [0])]


# backward's gradient contract: each row records a loss over Parameters whose
# grads hold a stale 7.0, and names the float32 bytes each grad holds after.
GRADIENT_ROWS = {
    "a parameter no adjoint reaches ends at zero": unreached,
    "a parameter recorded after the loss ends at zero": recorded_after_loss,
    "a parameter used twice rounds its summed adjoint once": used_twice,
    "an adjoint of -1e-300 deposits +0.0": tiny_negative_adjoint,
}


class TestGradientContract:
    @pytest.mark.parametrize("row", GRADIENT_ROWS)
    def test_gradient_bytes(self, row):
        tape = ag.Tape()
        loss, want = GRADIENT_ROWS[row](tape)
        ag.backward(tape, loss)
        for p, grad in want:
            assert p.grad.tobytes() == np.asarray(grad, np.float32).tobytes(), p.grad

    def test_used_twice_row_is_not_the_rounded_sum(self):
        g1, g2 = np.float64(1.0), np.float64(2.0**-24 + 2.0**-50)
        assert np.float32(g1) + np.float32(g2) != np.float32(g1 + g2)

    @pytest.mark.parametrize("ablate", [False, True], ids=["indexed", "ablated"])
    def test_toy_step_leaves_no_negative_zero(self, ablate):
        model = tt.ToyModel(seed=0, ablate_index=ablate)
        zeros = 0
        for sample in tt.gen_dataset(0, 20):
            toy_step(model, sample)
            for p in model.parameters():
                zero = p.grad[p.grad == 0]
                zeros += zero.size
                assert not np.signbit(zero).any(), p.name
        assert zeros > 0  # dead ReLUs leave exact zeros to check


class TestPatchReuse:
    @pytest.mark.parametrize("ablate", [False, True], ids=["indexed", "ablated"])
    def test_backward_builds_only_the_input_adjoint_patches(self, ablate):
        # One im2col per conv in the forward; backward adds the patches of the
        # padded output gradient for conv2's and fuse's input adjoints (conv1's
        # input is the image, a constant), and reuses the forward's for the kernels.
        model, sample = tt.ToyModel(seed=0, ablate_index=ablate), tt.gen_dataset(0, 1)[0]
        tape = ag.Tape()
        with mock.patch.object(nn, "im2col", wraps=nn.im2col) as spy:
            loss = tt.training_loss(tape, model, sample)
            assert spy.call_count == 3
            ag.backward(tape, loss)
            assert spy.call_count == 5
            ag.sgd_step(model.parameters(), 0.03)
            assert spy.call_count == 5


class TestSgd:
    def test_single_step(self):
        # The grad stays as set: the next backward writes every grad on its tape.
        p = ag.Parameter(np.array([1.0], np.float32), "p")
        p.grad[:] = 2.0
        ag.sgd_step([p], lr=0.5)
        npt.assert_array_equal(p.value, np.array([0.0], np.float32))
        npt.assert_array_equal(p.grad, np.array([2.0], np.float32))

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


def run_taped(record):
    """Record ``record(tape, rng)`` over drawn Parameters, then run backward on its sum."""
    tape = ag.Tape()
    out = record(tape, np.random.default_rng(0))
    ag.backward(tape, ag.weighted_sum(out, np.ones(out.value.shape)))


def param_node(tape, rng, *shape):
    return tape.parameter(ag.Parameter(rand_f32(rng, shape), "p"))


def on_toy_sample(run):
    sample = tt.gen_dataset(0, 1)[0]
    for ablate in (False, True):
        run(tt.ToyModel(seed=0, ablate_index=ablate), sample)


def toy_step(model, sample):
    tape = ag.Tape()
    ag.backward(tape, tt.training_loss(tape, model, sample))


def gradcheck_acm_block():
    only = tuple(case for case in gradcheck._CASES if case.name == "acm_block")
    with mock.patch.object(gradcheck, "_CASES", only):
        results = gradcheck.gradient_check_suite()
    assert results and all(r.passed for r in results), results


# Every op that takes an FC layer or batch norm as raw arrays, and the models
# built on them: none may build an FcLayer or a BatchNormParams per call.
RAW_ARRAY_CONSUMERS = {
    "ag.affine": lambda: run_taped(lambda t, rng: ag.affine(
        param_node(t, rng, 4), param_node(t, rng, 3, 4), param_node(t, rng, 3))),
    "ag.mlp3": lambda: run_taped(lambda t, rng: ag.mlp3(param_node(t, rng, 3), [
        (param_node(t, rng, 5, 3), param_node(t, rng, 5)),
        (param_node(t, rng, 4, 5), param_node(t, rng, 4)),
        (param_node(t, rng, 2, 4), param_node(t, rng, 2))])),
    "ag.batchnorm": lambda: run_taped(lambda t, rng: ag.batchnorm(
        param_node(t, rng, 3, 4, 4), param_node(t, rng, 3), param_node(t, rng, 3),
        BN_MEAN, BN_VAR)),
    "toy_forward": lambda: on_toy_sample(tt.toy_forward),
    "training_loss": lambda: on_toy_sample(toy_step),
    "gradcheck acm_block": gradcheck_acm_block,
}


def refuse_to_build(struct):
    raise AssertionError(f"{type(struct).__name__} built inside an op")


@pytest.mark.parametrize("row", RAW_ARRAY_CONSUMERS)
def test_no_struct_is_built_per_op_call(row, monkeypatch):
    monkeypatch.setattr(nn.FcLayer, "__post_init__", refuse_to_build)
    monkeypatch.setattr(nn.BatchNormParams, "__post_init__", refuse_to_build)
    RAW_ARRAY_CONSUMERS[row]()


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
