"""Convolution, correlation, FC and batch norm ops against loop oracles."""

from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from asymfuse import autograd as ag
from asymfuse import nn
from asymfuse import tensor as T
from asymfuse import toytask as tt
from asymfuse.errors import KernelTooLargeError, NonFiniteMapError, RankError, ShapeMismatchError
from oracles import rand_f32, window_loop


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


def assert_float32_rounding_of(out, x, w):
    """out is the float64 result rounded once to float32, up to 1e-12 of its scale."""
    ref = window_loop(x, w)
    scale = window_loop(np.abs(x), np.abs(w))
    assert out.dtype == np.float32 and out.shape == ref.shape and out.flags.c_contiguous
    assert np.all(np.abs(out - ref) <= 2.0**-24 * np.abs(ref) + 1e-12 * scale)


# (C, H, W, P, kh, kw, conv2d_valid takes Winograd). Winograd needs both
# kernel sides in 4..7, one whole tile of m = 10 - k outputs per axis and
# at least nn._WINOGRAD_MIN_MULTS direct multiplies. Ho or Wo is a
# multiple of its m only in track-5x5 and 7x7 (both axes), 7x7-small (Ho),
# non-square-3x5 (Wo) and the two rows whose output is one whole tile.
CONV_PATH_ROWS = [
    pytest.param(64, 29, 29, 64, 5, 5, True, id="track-5x5"),
    pytest.param(32, 23, 26, 48, 7, 4, True, id="non-square-7x4"),
    pytest.param(64, 15, 15, 64, 6, 6, True, id="6x6"),
    pytest.param(24, 33, 33, 24, 7, 7, True, id="7x7"),
    pytest.param(1, 40, 40, 256, 5, 5, True, id="C=1"),
    pytest.param(256, 40, 40, 1, 5, 5, True, id="P=1"),
    pytest.param(128, 9, 9, 128, 7, 4, True, id="one-whole-tile-7x4"),
    pytest.param(64, 9, 9, 64, 5, 5, False, id="redetect-below-crossover"),
    pytest.param(64, 29, 29, 64, 3, 3, False, id="3x3-never"),
    pytest.param(32, 31, 31, 32, 2, 2, False, id="2x2-never"),
    pytest.param(8, 12, 14, 6, 7, 7, False, id="7x7-small"),
    pytest.param(5, 11, 9, 3, 3, 5, False, id="non-square-3x5"),
    pytest.param(1, 10, 13, 1, 2, 7, False, id="C=P=1-2x7"),
    pytest.param(3, 5, 5, 4, 5, 5, False, id="kernel-as-large-as-map"),
    pytest.param(256, 7, 7, 256, 5, 5, False, id="output-short-of-one-tile"),
]


# (C, H, W, P, kh, kw, slabs). conv2d_valid's im2col product, M = P rows by
# K = C*kh*kw deep by N = Ho*Wo columns, runs as this many depth slabs in
# nn._slab_gemm; 0 where M*N*K <= nn._SLAB_MULTS keeps the helper uncalled.
SLAB_ROWS = [
    pytest.param(64, 9, 9, 64, 5, 5, 3, id="redetect-64x1600x25"),
    pytest.param(256, 7, 7, 256, 5, 5, 15, id="256x6400x9"),
    pytest.param(256, 40, 40, 1, 5, 5, 1, id="M=1-1x6400x1296"),
    pytest.param(256, 5, 5, 256, 5, 5, 1, id="N=1-256x6400x1"),
    pytest.param(64, 29, 29, 64, 3, 3, 1, id="3x3-64x576x729"),
    pytest.param(16, 10, 10, 16, 3, 3, 0, id="toy-fuse-16x144x64"),
]


class CountedMatrix(np.ndarray):
    """A view of a GEMM matrix that records the depth of each product it takes."""

    depths: list = []

    def __matmul__(self, other):
        CountedMatrix.depths.append(self.shape[1])
        return self.view(np.ndarray) @ other


# The constant of conv2d_valid's Winograd accuracy contract (see its docstring).
WINOGRAD_TILE_CONSTANT = 4096
# The Winograd rows whose maps get outliers and heavy tails.
TILE_BOUND_ROWS = [row for row in CONV_PATH_ROWS
                   if row.id in ("track-5x5", "non-square-7x4", "6x6", "7x7")]


def assert_within_tile_bound(out, x, w):
    """|out - ref| <= 2^-24 |ref| + WINOGRAD_TILE_CONSTANT * 2^-52 * T * S per output.

    T is the largest |x| in the zero-padded 9x9 Winograd input tile that
    holds the output, S the sum of |w| over its output channel's kernel.
    """
    kh, kw = w.shape[2:]
    mh, mw = nn._ALPHA + 1 - kh, nn._ALPHA + 1 - kw
    peak = np.abs(x.astype(np.float64)).max(axis=0)
    tile = np.array([[peak[i - i % mh : i - i % mh + nn._ALPHA,
                           j - j % mw : j - j % mw + nn._ALPHA].max()
                      for j in range(x.shape[2] - kw + 1)] for i in range(x.shape[1] - kh + 1)])
    total = np.abs(w.astype(np.float64)).sum(axis=(1, 2, 3))[:, None, None]
    ref = window_loop(x, w)
    bound = 2.0**-24 * np.abs(ref) + WINOGRAD_TILE_CONSTANT * 2.0**-52 * tile * total
    assert out.dtype == np.float32 and np.all(np.abs(out - ref) <= bound)


def exact_cook_toom(r):
    """B^T and A^T of F(10 - r, r) from nn._POINTS in rational arithmetic."""
    points = [Fraction(p) for p in nn._POINTS]
    m = len(points) + 2 - r

    def coefficients(roots):  # of prod (x - root), lowest degree first
        c = [Fraction(1)]
        for root in roots:
            c = [a - root * b for a, b in zip([0, *c], [*c, 0])]
        return c

    bt = [coefficients(points[:j] + points[j + 1 :]) + [0] for j in range(len(points))]
    bt.append(coefficients(points))
    at = [[p**i for p in points] + [int(i == m - 1)] for i in range(m)]
    return bt, at


class TestConvPaths:
    @pytest.mark.parametrize("r", range(2, 9))
    def test_cook_toom_is_an_exact_correlation(self, r):
        bt, g, at = nn._cook_toom(r)
        for matrix, exact in zip((bt, at), exact_cook_toom(r)):
            exact = np.array(exact, dtype=object)
            assert matrix.shape == exact.shape
            # Dyadic entries, stored without rounding.
            assert all(v.denominator & (v.denominator - 1) == 0 for v in exact.flat)
            assert all(Fraction(float(a)) == b for a, b in zip(matrix.flat, exact.flat))
        rng = np.random.default_rng(r)
        d = rng.uniform(-1.0, 1.0, (200, nn._ALPHA))
        k = rng.uniform(-1.0, 1.0, (200, r))
        out = ((k @ g.T) * (d @ bt.T)) @ at.T
        ref = np.array([np.correlate(a, b, "valid") for a, b in zip(d, k)])
        # First-order rounding bound of the three transforms and the product:
        # a per-output multiple of |g| * |d| would not hold, because B^T mixes
        # all nine samples into every transform point.
        chain = ((np.abs(k) @ np.abs(g).T) * (np.abs(d) @ np.abs(bt).T)) @ np.abs(at).T
        gamma = (2 * nn._ALPHA + r + 2) * np.finfo(np.float64).eps / 2
        assert np.all(np.abs(out - ref) <= gamma * chain)

    @pytest.mark.parametrize("r", range(2, 9))
    def test_output_transform_is_all_ones_at_point_one(self, r):
        # The epilogue adds its bias at this point alone: A^T carries it to every output.
        at = nn._cook_toom(r)[2]
        assert nn._POINTS.index(1.0) == 1 and (at[:, 1] == 1.0).all()

    @pytest.mark.parametrize("c,h,w,p,kh,kw,winograd", CONV_PATH_ROWS)
    def test_conv2d_valid_matches_window_loop(self, monkeypatch, c, h, w, p, kh, kw, winograd):
        rng = np.random.default_rng(c * h + p * kh + kw)
        x, k = rand_f32(rng, (c, h, w)), rand_f32(rng, (p, c, kh, kw))
        fast_calls = []
        real = nn._winograd_conv
        monkeypatch.setattr(nn, "_winograd_conv",
                            lambda *args: fast_calls.append(1) or real(*args))
        assert_float32_rounding_of(nn.conv2d_valid(x, nn.ConvKernel(k)), x, k)
        assert len(fast_calls) == int(winograd)
        raw = nn.conv2d_valid(x, k)
        assert len(fast_calls) == int(winograd)  # a raw array never takes it
        assert_float32_rounding_of(raw, x, k)

    @pytest.mark.parametrize("c,h,w,p,kh,kw,slabs", SLAB_ROWS)
    def test_deep_narrow_products_run_as_depth_slabs(self, monkeypatch, c, h, w, p, kh, kw,
                                                     slabs):
        rng = np.random.default_rng(c * h + p * kh + kw)
        x, k = rand_f32(rng, (c, h, w)), rand_f32(rng, (p, c, kh, kw))
        real = nn._slab_gemm
        monkeypatch.setattr(CountedMatrix, "depths", [])
        monkeypatch.setattr(nn, "_slab_gemm",
                            lambda matrix, cols: real(matrix.view(CountedMatrix), cols))
        assert_float32_rounding_of(nn.conv2d_valid(x, k), x, k)
        depths = CountedMatrix.depths
        assert len(depths) == slabs
        if slabs > 1:
            depth, n = c * kh * kw, (h - kh + 1) * (w - kw + 1)
            assert sum(depths) == depth and max(depths) - min(depths) <= 1
            assert max(depths) * p * n <= nn._SLAB_MULTS  # each slab within the budget,
            assert -(-depth // (slabs - 1)) * p * n > nn._SLAB_MULTS  # with no fewer slabs
            assert min(depths) >= nn._SLAB_MIN_DEPTH

    def test_toy_model_never_reaches_the_slab_helper(self, monkeypatch):
        def refuse(matrix, cols):
            raise AssertionError(f"_slab_gemm called on {matrix.shape} @ {cols.shape}")

        monkeypatch.setattr(nn, "_slab_gemm", refuse)
        sample = tt.gen_dataset(0, 1)[0]
        for ablate in (False, True):
            model = tt.ToyModel(seed=0, ablate_index=ablate)
            tt.toy_forward(model, sample)
            tape = ag.Tape()
            ag.backward(tape, tt.training_loss(tape, model, sample))

    @pytest.mark.parametrize("c,h,w,p,kh,kw,winograd", CONV_PATH_ROWS[5:])
    def test_winograd_routine_matches_window_loop(self, c, h, w, p, kh, kw, winograd):
        # Called directly, so a moved crossover cannot hide a broken transform.
        rng = np.random.default_rng(c * w + p * kw + kh)
        x, k = rand_f32(rng, (c, h, w)), rand_f32(rng, (p, c, kh, kw))
        assert_float32_rounding_of(nn._winograd_conv(x, nn.ConvKernel(k)), x, k)

    @pytest.mark.parametrize("c,h,w,p,kh,kw,winograd", [
        row for row in CONV_PATH_ROWS if row.id in ("non-square-7x4", "6x6", "C=1", "P=1")])
    def test_stale_workspace_cannot_reach_the_output(self, monkeypatch, c, h, w, p, kh, kw,
                                                     winograd):
        # Each row pads its map to whole tiles. With every fresh buffer NaN,
        # a margin left unwritten would spread NaN into valid outputs.
        rng = np.random.default_rng(c * h + p * kw)
        x, k = rand_f32(rng, (c, h, w)), rand_f32(rng, (p, c, kh, kw))
        kernel = nn.ConvKernel(k)
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", lambda shape, dtype=float: np.full(shape, np.nan, dtype))
            out = nn._winograd_conv(x, kernel)
        assert_float32_rounding_of(out, x, k)

    @pytest.mark.parametrize("magnitude", [1e6, 1e12, 1e30])
    @pytest.mark.parametrize("outlier", ["row", "column", "pixel"])
    @pytest.mark.parametrize("c,h,w,p,kh,kw,winograd", TILE_BOUND_ROWS)
    def test_outliers_stay_within_the_tile_bound(self, c, h, w, p, kh, kw, winograd,
                                                 outlier, magnitude):
        # One large row, column or pixel in the last row and column of the
        # map, all channels. With the 6x6 kernel's last row zero, no valid
        # window sees map row 14, yet the last tile row mixes it in.
        rng = np.random.default_rng(c * h + p * kh + kw)
        x, k = rand_f32(rng, (c, h, w)), rand_f32(rng, (p, c, kh, kw))
        if kh == kw == 6:
            k[:, :, -1] = 0.0
        x[(slice(None), -1) if outlier == "row" else
          (slice(None), slice(None), -1) if outlier == "column" else
          (slice(None), -1, -1)] = magnitude
        assert_within_tile_bound(nn.conv2d_valid(x, nn.ConvKernel(k)), x, k)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("draw", ["normal**3", "exponential**4"])
    @pytest.mark.parametrize("c,h,w,p,kh,kw,winograd", TILE_BOUND_ROWS)
    def test_heavy_tailed_maps_stay_within_the_tile_bound(self, c, h, w, p, kh, kw, winograd,
                                                          draw, seed):
        # Heavy tails instead of one planted outlier: cubed normals, and
        # fourth powers of exponentials with random signs.
        rng = np.random.default_rng([seed, c, kh, kw])
        if draw == "normal**3":
            x = rng.standard_normal((c, h, w)) ** 3
        else:
            x = rng.choice([-1.0, 1.0], (c, h, w)) * rng.exponential(size=(c, h, w)) ** 4
        x, k = x.astype(np.float32), rand_f32(rng, (p, c, kh, kw))
        assert_within_tile_bound(nn.conv2d_valid(x, nn.ConvKernel(k)), x, k)

    @pytest.mark.parametrize("r", [4, 5, 6, 7])
    def test_worst_amplifying_tap_stays_within_the_tile_bound(self, r):
        # All weight on the kernel tap that the transforms amplify most, so
        # rounding errors of a 1e12 pixel reach the output least damped.
        # Here |out - ref| - 2^-24 |ref| reaches 420-1620 times 2^-52 T S;
        # uniform kernels, as in the rows above, stay below ~100.
        bt, g, at = nn._cook_toom(r)
        gain = np.einsum("ia,a,au->u", np.abs(at), np.abs(bt).sum(axis=1), np.abs(g))
        rng = np.random.default_rng(r)
        k = rand_f32(rng, (8, 8, r, r), -1e-3, 1e-3)
        k[:, :, gain.argmax(), gain.argmax()] = rand_f32(rng, (8, 8), 0.5, 1.0)
        side = 2 * (nn._ALPHA + 1 - r) + r + 2  # two tiles and a partial third
        base = rand_f32(rng, (8, side, side))
        for i in range(nn._ALPHA):  # every pixel of the first tile
            for j in range(nn._ALPHA):
                x = base.copy()
                x[:, i, j] = 1e12
                assert_within_tile_bound(nn._winograd_conv(x, nn.ConvKernel(k)), x, k)

    def test_cropped_margin_never_reaches_the_cast(self, monkeypatch):
        # 6x6 on 15x15 pads 10 output rows to 12. Map row 14 meets only the
        # zero last kernel row in valid windows, but overflows float32 in
        # the two padded rows, which must not warn or raise: without an
        # epilogue, and with a bias of -1 and the ReLU off and on.
        k = np.ones((64, 64, 6, 6), np.float32)
        k[:, :, 5] = 0.0
        kernel = nn.ConvKernel(k)
        fast_calls = []
        real = nn._winograd_conv
        monkeypatch.setattr(nn, "_winograd_conv",
                            lambda *args: fast_calls.append(1) or real(*args))
        for epilogue in (None, (np.full(64, -1.0), False), (np.full(64, -1.0), True)):
            x = np.zeros((64, 15, 15), np.float32)
            x[:, 14] = 1e37
            out = nn.conv2d_valid(x, kernel, epilogue=epilogue)
            assert out.shape == (64, 10, 10) and np.isfinite(out).all()
            if epilogue is not None:
                # The first two tile rows never see map row 14: each output is the bias, or 0.
                assert (out[:, :8] == (0.0 if epilogue[1] else -1.0)).all()
                x[:, 13] = 1e37  # now the last valid output row overflows
                with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                    nn.conv2d_valid(x, kernel, epilogue=epilogue)
        assert len(fast_calls) == 5

    # Like every nn op, a conv's cast follows NumPy's rule on both paths, with or
    # without an epilogue: inf and a RuntimeWarning by default, FloatingPointError
    # under the caller's errstate, never a library error. Output (p, 0, 0) alone
    # overflows: the im2col row sums 2 x 2e38, the Winograd row 32 x 1e38.
    @pytest.mark.parametrize("epilogue", [None, (-1.0, False), (-1.0, True)],
                             ids=["no epilogue", "bias", "bias and ReLU"])
    @pytest.mark.parametrize("winograd", [False, True], ids=["im2col", "Winograd"])
    def test_overflow_follows_numpys_cast_rule(self, monkeypatch, winograd, epilogue):
        fast_calls = []
        real = nn._winograd_conv
        monkeypatch.setattr(nn, "_winograd_conv",
                            lambda *args: fast_calls.append(1) or real(*args))
        channels, side, k = (32, 29, 5) if winograd else (2, 6, 3)
        x = np.zeros((channels, side, side), np.float32)
        x[:, 0, 0] = 1e38
        kernel = nn.ConvKernel(np.full((channels, channels, k, k), 1.0 if winograd else 2.0,
                                       np.float32))
        if epilogue is not None:
            epilogue = (np.full(channels, epilogue[0]), epilogue[1])
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = nn.conv2d_valid(x, kernel, epilogue=epilogue)
        assert np.isposinf(out[:, 0, 0]).all()
        assert np.isfinite(out.reshape(channels, -1)[:, 1:]).all()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as caught:
            nn.conv2d_valid(x, kernel, epilogue=epilogue)
        assert caught.type is FloatingPointError
        assert len(fast_calls) == 2 * winograd

    @pytest.mark.parametrize("side", [5, 3])
    @pytest.mark.parametrize("source", ["array", "memoryview"])
    def test_kernel_ignores_later_writes_to_its_source(self, side, source):
        # side 5 caches the Winograd kernel, side 3 the GEMM matrix.
        rng = np.random.default_rng(side)
        x = rand_f32(rng, (64, 29, 29))
        w = rand_f32(rng, (64, 64, side, side))
        pristine = w.copy()
        kernel = nn.ConvKernel(w if source == "array" else memoryview(w))
        w += 1.0  # before the cached operand is built
        first = nn.conv2d_valid(x, kernel)
        w += 1.0  # after
        npt.assert_array_equal(kernel.weights, pristine)
        npt.assert_array_equal(nn.conv2d_valid(x, kernel), first)
        npt.assert_array_equal(first, nn.conv2d_valid(x, nn.ConvKernel(pristine)))
        assert not kernel.weights.flags.writeable


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


FC_W, FC_B = np.ones((2, 3), np.float32), np.ones(2, np.float32)
# A raw FC layer is a (weights, bias) pair: anything else is a ValueError naming
# the layer (or, for mlp3, the layer count), never Python's TypeError.
NOT_A_LAYER = {
    "fc_forward None": (lambda x: nn.fc_forward(x, None), "fc layer must be"),
    "fc_forward int": (lambda x: nn.fc_forward(x, 5), "fc layer must be"),
    "fc_forward triple": (lambda x: nn.fc_forward(x, (FC_W, FC_B, FC_B)), "fc layer must be"),
    "fc_forward single": (lambda x: nn.fc_forward(x, (FC_W,)), "fc layer must be"),
    "mlp3_forward int": (lambda x: nn.mlp3_forward(x, 5), "exactly 3 layers, got 1"),
}


class TestFcAndMlp3:
    @pytest.mark.parametrize("row", NOT_A_LAYER)
    def test_anything_but_a_layer_is_refused(self, row):
        call, message = NOT_A_LAYER[row]
        with pytest.raises(ValueError, match=message):
            call(np.ones(3, np.float32))

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


# The correlation ops on the im2col path, given a ``patches`` list:
# (op, x shape, kernel shape); xcorr's and depthwise's kernels are rank 3.
PATCH_ROWS = {
    "conv2d_valid": (nn.conv2d_valid, (3, 7, 6), (2, 3, 2, 4)),
    "conv2d_valid ConvKernel": (
        lambda x, k, **kw: nn.conv2d_valid(x, nn.ConvKernel(k), **kw), (3, 7, 6), (2, 3, 2, 4)),
    "head1x1": (nn.head1x1, (3, 4, 5), (2, 3, 1, 1)),
    "xcorr": (nn.xcorr, (2, 6, 7), (2, 2, 3)),
    "depthwise_corr": (nn.depthwise_corr, (3, 7, 6), (3, 3, 2)),
}


class TestPatchHandOver:
    @pytest.mark.parametrize("row", PATCH_ROWS)
    def test_appends_the_patch_matrix_and_changes_no_result(self, row):
        op, x_shape, k_shape = PATCH_ROWS[row]
        rng = np.random.default_rng(len(row))
        x, k = rand_f32(rng, x_shape), rand_f32(rng, k_shape)
        kept = []
        out = op(x, k, patches=kept)
        assert out.tobytes() == op(x, k).tobytes()
        (patches,) = kept
        want = nn.im2col(x, *k_shape[-2:])
        assert patches.dtype == want.dtype and patches.shape == want.shape
        assert patches.tobytes() == want.tobytes()

    def test_winograd_path_has_no_patch_matrix(self):
        rng = np.random.default_rng(17)
        x, k = rand_f32(rng, (64, 29, 29)), nn.ConvKernel(rand_f32(rng, (64, 64, 5, 5)))
        kept = []
        assert nn.conv2d_valid(x, k, patches=kept).tobytes() == nn.conv2d_valid(x, k).tobytes()
        assert kept == []


class TestGlobalAvgPool:
    def test_means_per_channel(self):
        x = np.stack([np.full((2, 2), 3.0), np.arange(4, dtype=np.float64).reshape(2, 2)])
        out = nn.global_avg_pool(x.astype(np.float32))
        npt.assert_allclose(out, np.array([3.0, 1.5], np.float32), atol=1e-7)
