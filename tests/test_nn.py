"""Convolution, correlation, FC and batch norm ops against loop oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from asymfuse import nn
from asymfuse import tensor as T
from asymfuse.errors import KernelTooLargeError, RankError, ShapeMismatchError


def conv_loop_oracle(x, w):
    """Plain nested-loop valid cross-correlation, float64."""
    p, c, kh, kw = w.shape
    _, h, width = x.shape
    out = np.zeros((p, h - kh + 1, width - kw + 1), dtype=np.float64)
    for po in range(p):
        for i in range(out.shape[1]):
            for j in range(out.shape[2]):
                acc = 0.0
                for ci in range(c):
                    for u in range(kh):
                        for v in range(kw):
                            acc += float(w[po, ci, u, v]) * float(x[ci, i + u, j + v])
                out[po, i, j] = acc
    return out


def rand_f32(rng, shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape).astype(np.float32)


class TestConv2dValid:
    def test_all_ones_counts_kernel_size(self):
        x = np.ones((1, 3, 3), dtype=np.float32)
        k = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = nn.conv2d_valid(x, k)
        npt.assert_array_equal(out, np.full((1, 2, 2), 4.0, dtype=np.float32))

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = int(rng.integers(1, 5))
            kh = int(rng.integers(1, 4))
            kw = int(rng.integers(1, 4))
            h = int(rng.integers(kh, 9))
            w = int(rng.integers(kw, 9))
            p = int(rng.integers(1, 5))
            out = nn.conv2d_valid(rand_f32(rng, (c, h, w)), rand_f32(rng, (p, c, kh, kw)))
            assert out.shape == (p, h - kh + 1, w - kw + 1)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rand_f32(rng, (3, 6, 5))
            k = rand_f32(rng, (2, 3, 3, 2))
            expected = conv_loop_oracle(x, k)
            npt.assert_allclose(nn.conv2d_valid(x, k), expected, atol=1e-5)

    def test_im2col_columns_are_flattened_windows(self):
        rng = np.random.default_rng(9)
        x = rand_f32(rng, (3, 5, 6))
        patches = nn.im2col(x, 2, 4)
        assert patches.dtype == np.float64
        assert patches.shape == (3 * 2 * 4, 4 * 3)
        for i in range(4):
            for j in range(3):
                npt.assert_array_equal(patches[:, i * 3 + j], x[:, i : i + 2, j : j + 4].ravel())

    def test_no_kernel_flip(self):
        # Cross-correlation orientation: kernel [0, 1] picks the RIGHT
        # neighbor, which a flipped (true convolution) kernel would not.
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 4)
        k = np.array([[[[0.0, 1.0]]]], dtype=np.float32)
        out = nn.conv2d_valid(x, k)
        npt.assert_array_equal(out[0, 0], np.array([1.0, 2.0, 3.0], dtype=np.float32))

    def test_linear_in_both_arguments(self):
        rng = np.random.default_rng(3)
        x1 = rand_f32(rng, (2, 5, 5))
        x2 = rand_f32(rng, (2, 5, 5))
        k1 = rand_f32(rng, (3, 2, 2, 2))
        k2 = rand_f32(rng, (3, 2, 2, 2))
        lhs = nn.conv2d_valid(x1 + x2, k1)
        rhs = nn.conv2d_valid(x1, k1) + nn.conv2d_valid(x2, k1)
        npt.assert_allclose(lhs, rhs, atol=1e-4)
        lhs = nn.conv2d_valid(x1, k1 + k2)
        rhs = nn.conv2d_valid(x1, k1) + nn.conv2d_valid(x1, k2)
        npt.assert_allclose(lhs, rhs, atol=1e-4)

    def test_accepts_kernel_struct(self):
        rng = np.random.default_rng(4)
        x = rand_f32(rng, (2, 4, 4))
        w = rand_f32(rng, (3, 2, 2, 2))
        npt.assert_array_equal(nn.conv2d_valid(x, nn.ConvKernel(w)), nn.conv2d_valid(x, w))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            nn.conv2d_valid(np.zeros((2, 4, 4), np.float32), np.zeros((1, 3, 2, 2), np.float32))

    def test_kernel_too_large(self):
        with pytest.raises(KernelTooLargeError):
            nn.conv2d_valid(np.zeros((1, 3, 3), np.float32), np.zeros((1, 1, 4, 2), np.float32))

    def test_rank_enforced(self):
        with pytest.raises(RankError):
            nn.conv2d_valid(np.zeros((4, 4), np.float32), np.zeros((1, 1, 2, 2), np.float32))
        with pytest.raises(RankError):
            nn.conv2d_valid(np.zeros((1, 4, 4), np.float32), np.zeros((1, 2, 2), np.float32))


class TestDepthwiseCorr:
    def test_delta_template_selects_pixels(self):
        rng = np.random.default_rng(5)
        x = rand_f32(rng, (3, 5, 5))
        z = np.zeros((3, 2, 2), dtype=np.float32)
        z[:, 0, 0] = 1.0  # each channel picks its own top-left window pixel
        out = nn.depthwise_corr(x, z)
        npt.assert_allclose(out, x[:, :4, :4], atol=1e-6)

    def test_matches_per_channel_conv_loop(self):
        rng = np.random.default_rng(6)
        x = rand_f32(rng, (4, 6, 6))
        z = rand_f32(rng, (4, 3, 3))
        per_channel = [
            nn.conv2d_valid(x[c : c + 1], z[c : c + 1][np.newaxis])[0] for c in range(4)
        ]
        npt.assert_allclose(nn.depthwise_corr(x, z), np.stack(per_channel), atol=1e-5)

    def test_channel_count_preserved(self):
        rng = np.random.default_rng(7)
        out = nn.depthwise_corr(rand_f32(rng, (5, 7, 6)), rand_f32(rng, (5, 3, 2)))
        assert out.shape == (5, 5, 5)

    def test_errors(self):
        with pytest.raises(ShapeMismatchError):
            nn.depthwise_corr(np.zeros((2, 5, 5), np.float32), np.zeros((3, 2, 2), np.float32))
        with pytest.raises(KernelTooLargeError):
            nn.depthwise_corr(np.zeros((2, 3, 3), np.float32), np.zeros((2, 4, 4), np.float32))


class TestXcorr:
    def test_self_correlation_peak_is_energy(self):
        rng = np.random.default_rng(8)
        z = rand_f32(rng, (3, 4, 4))
        out = nn.xcorr(z, z)
        assert out.shape == (1, 1, 1)
        energy = float((z.astype(np.float64) ** 2).sum())
        assert out[0, 0, 0] == pytest.approx(energy, rel=1e-6)

    def test_zero_template_zero_response(self):
        rng = np.random.default_rng(9)
        out = nn.xcorr(rand_f32(rng, (2, 6, 6)), np.zeros((2, 3, 3), np.float32))
        npt.assert_array_equal(out, np.zeros((1, 4, 4), np.float32))

    def test_equals_channel_sum_of_depthwise(self):
        rng = np.random.default_rng(10)
        x = rand_f32(rng, (4, 7, 7))
        z = rand_f32(rng, (4, 3, 3))
        summed = nn.depthwise_corr(x, z).astype(np.float64).sum(axis=0)
        npt.assert_allclose(nn.xcorr(x, z)[0], summed, atol=1e-5)


class TestFcAndMlp3:
    def test_fc_identity(self):
        layer = nn.FcLayer(np.eye(3, dtype=np.float32), np.zeros(3, np.float32))
        x = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        npt.assert_array_equal(nn.fc_forward(x, layer), x)

    def test_fc_bias_only(self):
        layer = nn.FcLayer(np.zeros((2, 3), np.float32), np.array([5.0, -1.0], np.float32))
        out = nn.fc_forward(np.ones(3, np.float32), layer)
        npt.assert_array_equal(out, np.array([5.0, -1.0], np.float32))

    def test_mlp3_hand_computed_two_unit_net(self):
        # Zero input and zero W1 leave only the bias path:
        # out = W3 @ relu(W2 @ relu(b1) + b2) + b3.
        l1 = nn.FcLayer(np.zeros((2, 2), np.float32), np.array([1.0, -2.0], np.float32))
        l2 = nn.FcLayer(np.array([[2.0, 1.0], [0.5, -1.0]], np.float32),
                        np.array([-1.0, 0.25], np.float32))
        l3 = nn.FcLayer(np.array([[1.0, 2.0], [3.0, -1.0]], np.float32),
                        np.array([0.5, 0.0], np.float32))
        # relu(b1) = [1, 0]; W2 @ [1,0] + b2 = [1, 0.75]; relu keeps it;
        # W3 @ [1, 0.75] + b3 = [1 + 1.5 + 0.5, 3 - 0.75] = [3.0, 2.25].
        out = nn.mlp3_forward(np.zeros(2, np.float32), (l1, l2, l3))
        npt.assert_allclose(out, np.array([3.0, 2.25], np.float32), atol=1e-6)

    def test_relu_placement_last_layer_unclamped(self):
        # A negative final output must pass through: no ReLU after layer 3.
        layers = (
            nn.FcLayer(np.eye(1, dtype=np.float32), np.zeros(1, np.float32)),
            nn.FcLayer(np.eye(1, dtype=np.float32), np.zeros(1, np.float32)),
            nn.FcLayer(np.array([[-1.0]], np.float32), np.zeros(1, np.float32)),
        )
        out = nn.mlp3_forward(np.array([2.0], np.float32), layers)
        npt.assert_array_equal(out, np.array([-2.0], np.float32))

    def test_chained_dims_enforced(self):
        layers = (
            nn.FcLayer(np.zeros((3, 2), np.float32), np.zeros(3, np.float32)),
            nn.FcLayer(np.zeros((3, 4), np.float32), np.zeros(3, np.float32)),
            nn.FcLayer(np.zeros((1, 3), np.float32), np.zeros(1, np.float32)),
        )
        with pytest.raises(ShapeMismatchError):
            nn.mlp3_forward(np.zeros(2, np.float32), layers)

    def test_layer_count_enforced(self):
        layer = nn.FcLayer(np.eye(2, dtype=np.float32), np.zeros(2, np.float32))
        with pytest.raises(ValueError):
            nn.mlp3_forward(np.zeros(2, np.float32), (layer, layer))

    def test_bias_length_enforced(self):
        with pytest.raises(ShapeMismatchError):
            nn.FcLayer(np.zeros((2, 3), np.float32), np.zeros(3, np.float32))


class TestBatchNorm:
    def test_identity_params(self):
        rng = np.random.default_rng(11)
        x = rand_f32(rng, (3, 4, 4))
        params = nn.BatchNormParams(np.ones(3, np.float32), np.zeros(3, np.float32),
                                    np.zeros(3, np.float32), np.ones(3, np.float32))
        # gamma=1, beta=0, mean=0, var=1: output is x / sqrt(1 + eps).
        npt.assert_allclose(nn.batchnorm_infer(x, params), x, rtol=1e-4)

    def test_constant_channel_maps_to_beta(self):
        x = np.full((2, 3, 3), 5.0, dtype=np.float32)
        params = nn.BatchNormParams(
            gamma=np.array([2.0, 0.5], np.float32),
            beta=np.array([7.0, -3.0], np.float32),
            running_mean=np.array([5.0, 5.0], np.float32),
            running_var=np.array([1.0, 4.0], np.float32),
        )
        out = nn.batchnorm_infer(x, params)
        npt.assert_allclose(out[0], 7.0, atol=1e-6)
        npt.assert_allclose(out[1], -3.0, atol=1e-6)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(12)
        x = rand_f32(rng, (2, 3, 3))
        gamma = rand_f32(rng, (2,), 0.5, 2.0)
        beta = rand_f32(rng, (2,))
        mean = rand_f32(rng, (2,))
        var = rand_f32(rng, (2,), 0.25, 2.0)
        params = nn.BatchNormParams(gamma, beta, mean, var)
        expected = np.empty_like(x, dtype=np.float64)
        for c in range(2):
            inv = 1.0 / np.sqrt(float(var[c]) + 1e-5)
            expected[c] = (x[c].astype(np.float64) - float(mean[c])) * float(gamma[c]) * inv \
                + float(beta[c])
        npt.assert_allclose(nn.batchnorm_infer(x, params), expected, atol=1e-6)

    def test_invertible(self):
        rng = np.random.default_rng(13)
        x = rand_f32(rng, (3, 5, 5), -2.0, 2.0)
        gamma = rand_f32(rng, (3,), 0.5, 1.5)
        beta = rand_f32(rng, (3,))
        mean = rand_f32(rng, (3,))
        var = rand_f32(rng, (3,), 0.5, 2.0)
        params = nn.BatchNormParams(gamma, beta, mean, var)
        y = nn.batchnorm_infer(x, params).astype(np.float64)
        inv = np.sqrt(var.astype(np.float64) + 1e-5)
        back = (y - beta.astype(np.float64)[:, None, None]) / gamma.astype(np.float64)[:, None, None]
        back = back * inv[:, None, None] + mean.astype(np.float64)[:, None, None]
        npt.assert_allclose(back, x, rtol=1e-4, atol=1e-4)

    def test_channel_mismatch(self):
        params = nn.BatchNormParams(np.ones(2, np.float32), np.zeros(2, np.float32),
                                    np.zeros(2, np.float32), np.ones(2, np.float32))
        with pytest.raises(ShapeMismatchError):
            nn.batchnorm_infer(np.zeros((3, 2, 2), np.float32), params)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            nn.BatchNormParams(np.ones(1, np.float32), np.zeros(1, np.float32),
                               np.zeros(1, np.float32), np.array([-1.0], np.float32))

    @pytest.mark.parametrize("var", [np.nan, np.inf])
    def test_non_finite_variance_rejected(self, var):
        with pytest.raises(ValueError):
            nn.BatchNormParams(np.ones(1, np.float32), np.zeros(1, np.float32),
                               np.zeros(1, np.float32), np.array([var], np.float32))

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError):
            nn.BatchNormParams(np.ones(1, np.float32), np.zeros(1, np.float32),
                               np.zeros(1, np.float32), np.ones(1, np.float32), eps)


class TestHead1x1:
    def test_identity_kernel(self):
        rng = np.random.default_rng(14)
        x = rand_f32(rng, (3, 4, 4))
        k = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        npt.assert_array_equal(nn.head1x1(x, k), x)

    def test_equals_conv2d_exactly(self):
        rng = np.random.default_rng(15)
        x = rand_f32(rng, (4, 5, 5))
        k = rand_f32(rng, (2, 4, 1, 1))
        npt.assert_array_equal(nn.head1x1(x, k), nn.conv2d_valid(x, k))

    def test_spatial_size_preserved(self):
        rng = np.random.default_rng(16)
        out = nn.head1x1(rand_f32(rng, (6, 3, 7)), rand_f32(rng, (2, 6, 1, 1)))
        assert out.shape == (2, 3, 7)

    def test_non_unit_kernel_rejected(self):
        with pytest.raises(ShapeMismatchError):
            nn.head1x1(np.zeros((2, 3, 3), np.float32), np.zeros((1, 2, 2, 2), np.float32))


class TestConvCounter:
    def test_counts_only_inside_block(self):
        rng = np.random.default_rng(17)
        x = rand_f32(rng, (2, 4, 4))
        k = rand_f32(rng, (1, 2, 2, 2))
        nn.conv2d_valid(x, k)
        with nn.count_conv_calls() as counter:
            nn.conv2d_valid(x, k)
            nn.conv2d_valid(x, k)
        nn.conv2d_valid(x, k)
        assert counter.calls == 2

    def test_nested_counters(self):
        rng = np.random.default_rng(18)
        x = rand_f32(rng, (1, 3, 3))
        k = rand_f32(rng, (1, 1, 2, 2))
        with nn.count_conv_calls() as outer:
            nn.conv2d_valid(x, k)
            with nn.count_conv_calls() as inner:
                nn.conv2d_valid(x, k)
        assert inner.calls == 1
        assert outer.calls == 2


class TestGlobalAvgPool:
    def test_means_per_channel(self):
        x = np.stack([np.full((2, 2), 3.0), np.arange(4, dtype=np.float64).reshape(2, 2)])
        out = nn.global_avg_pool(x.astype(np.float32))
        npt.assert_allclose(out, np.array([3.0, 1.5], np.float32), atol=1e-7)
