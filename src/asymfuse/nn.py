"""Neural building blocks: valid convolutions, small FC nets, batch norm.

All spatial ops use the cross-correlation orientation (no kernel flip),
stride 1, no padding and no convolution bias:

    out[p, i, j] = sum_{c,u,v} kernel[p, c, u, v] * x[c, i+u, j+v]

Inputs are single C x H x W maps (no batch axis). Every path accumulates
in float64 and rounds the result to float32 once, at the end.

The general path of every correlation op is the float64 patch matrix
built by :func:`im2col`: one row per (c, u, v) kernel element, one column per
output position. ``conv2d_valid`` is one GEMM ``W @ patches`` whose
result is already laid out P x Ho x Wo; ``head1x1`` is the 1x1 case and
``xcorr`` the single-output-channel case (kernel ``template[None]``);
``depthwise_corr`` is the grouped product, each channel's kernel row
times that channel's block of rows. The taped backward in ``autograd``
runs on the same matrix: the kernel adjoint on the patches of the input,
the input adjoint on the patches of the zero-padded output gradient.

A :class:`ConvKernel` owns a read-only copy of its weights and builds the
float64 operands derived from them once, on first use: the GEMM matrix
above, and the Winograd-domain kernel. ``conv2d_valid`` with a
ConvKernel takes Winograd minimal filtering (Lavin & Gray, CVPR 2016)
over 9 x 9 tiles when that measured faster: both kernel sides in 4..7,
at least one whole output tile per axis, and at least
``_WINOGRAD_MIN_MULTS`` multiplies of direct work. Its transforms run
one axis at a time, the input one over a view of overlapping row
windows. Everything else, raw-array kernels from the tape and the toy
model included, takes the im2col GEMM.

``conv2d_valid``'s ``epilogue`` folds a per-output-channel scale, bias
and ReLU into the float64 result before its one rounding; fusion's
response uses it, so the search conv and its epilogue round once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import KernelTooLargeError, NonFiniteMapError, RankError, ShapeMismatchError
from .tensor import DTYPE, _as_map, _check_finite, _check_positive, as_tensor, relu


def _check_kernel(w: np.ndarray) -> np.ndarray:
    if w.ndim != 4:
        raise RankError(f"conv kernel must be rank 4, got rank {w.ndim}")
    if min(w.shape) < 1:
        raise ShapeMismatchError(f"conv kernel has a zero dimension: {w.shape}")
    return w


@dataclass(frozen=True, eq=False)
class ConvKernel:
    """Convolution weights shaped out_channels x in_channels x kh x kw.

    ``weights`` is a read-only float32 array the kernel owns: it copies
    the caller's array when :func:`as_tensor` hands that array (or a view
    of the caller's memory) back, so later writes by the caller cannot
    reach the float64 operands cached here. A NaN or infinite weight
    raises NonFiniteMapError, checked once here rather than per conv.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = as_tensor(self.weights)
        if w is self.weights or not w.flags.owndata:
            w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", _check_finite(_check_kernel(w), "conv kernel"))

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def spatial(self) -> tuple[int, int]:
        return self.weights.shape[2], self.weights.shape[3]

    @functools.cached_property
    def _gemm_matrix(self) -> np.ndarray:
        """The (P, C*kh*kw) float64 matrix of the im2col path."""
        return self.weights.reshape(self.out_channels, -1).astype(np.float64)

    @functools.cached_property
    def _winograd_kernel(self) -> np.ndarray:
        """``G theta G^T`` per (p, c), laid out (81, C, P) for ``V @ U``."""
        kh, kw = self.spatial
        u = np.einsum("au,pcuv,bv->abcp", _cook_toom(kh)[1],
                      self.weights.astype(np.float64), _cook_toom(kw)[1], optimize=True)
        return u.reshape(_ALPHA * _ALPHA, self.in_channels, self.out_channels)


@dataclass(frozen=True, eq=False)
class FcLayer:
    """Fully connected layer: weights out x in, bias out."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = as_tensor(self.weights)
        b = as_tensor(self.bias)
        if w.ndim != 2 or b.ndim != 1:
            raise RankError("FcLayer expects rank-2 weights and a rank-1 bias")
        if w.shape[0] != b.shape[0]:
            raise ShapeMismatchError(
                f"bias length {b.shape[0]} != output width {w.shape[0]}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_features(self) -> int:
        return self.weights.shape[0]

    @property
    def in_features(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class BatchNormParams:
    """Frozen inference-time batch norm statistics for C channels.

    Every array must be finite (NonFiniteMapError), ``running_var``
    non-negative, and each folded scale |gamma| / sqrt(running_var + eps)
    at most the float32 maximum (ValueError).
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        arrays = {}
        for name in ("gamma", "beta", "running_mean", "running_var"):
            arr = as_tensor(getattr(self, name))
            if arr.ndim != 1:
                raise RankError(f"{name} must be rank 1")
            arrays[name] = _check_finite(arr, name)
        lengths = {a.shape[0] for a in arrays.values()}
        if len(lengths) != 1:
            raise ShapeMismatchError("batch norm parameter lengths differ")
        _check_positive(self.eps, "eps")
        if (arrays["running_var"] < 0).any():
            raise ValueError("running_var must be non-negative")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        if (np.abs(self.scale_shift()[0]) > np.finfo(np.float32).max).any():
            raise ValueError("a folded batch-norm scale |gamma| / sqrt(running_var + eps) "
                             "exceeds the float32 range")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """float64 C x 1 x 1 (scale, shift) with norm(x) = x * scale + shift."""
        var = self.running_var.astype(np.float64)
        scale = self.gamma.astype(np.float64) / np.sqrt(var + self.eps)
        shift = self.beta.astype(np.float64) - self.running_mean.astype(np.float64) * scale
        return scale[:, None, None], shift[:, None, None]


def _kernel_weights(kernel) -> np.ndarray:
    if isinstance(kernel, ConvKernel):
        return kernel.weights
    return _check_kernel(as_tensor(kernel))


def _check_fit(x: np.ndarray, channels: int, kh: int, kw: int) -> None:
    """A kernel of ``channels`` x kh x kw must match and fit inside map x.

    The one kernel-fit check of the package; fusion's search-map check
    calls it too.
    """
    if channels != x.shape[0]:
        raise ShapeMismatchError(
            f"kernel expects {channels} input channels, map has {x.shape[0]}"
        )
    if kh > x.shape[1] or kw > x.shape[2]:
        raise KernelTooLargeError(
            f"kernel {kh}x{kw} does not fit in map {x.shape[1]}x{x.shape[2]}"
        )


def conv2d_valid(inputs, kernel, *, epilogue=None) -> np.ndarray:
    """Valid cross-correlation of a C x H x W map with a P x C x kh x kw kernel.

    Returns a P x (H-kh+1) x (W-kw+1) float32 map. Two paths compute it,
    both in float64 with one rounding to float32 at the end:

    - im2col: the :func:`im2col` patch matrix feeds one matrix product,
      one multiply-add per (output position, kernel element) pair;
    - Winograd F(m x m', kh x kw) over 9 x 9 tiles (m = 10 - kh, m' = 10 - kw): taken
      only for a :class:`ConvKernel` whose sides are both in 4..7, when
      the output holds at least one whole tile per axis and
      Ho*Wo*C*P*kh*kw is at least ``_WINOGRAD_MIN_MULTS``.

    A raw-array kernel always takes the im2col path.

    Accuracy: with ``ref`` the exact correlation, im2col's float64 error is
    relative to each output's own window. Winograd's is relative to the
    output's whole tile: ``|out - ref| <= 2**-24 * |ref| + 4096 * 2**-52 *
    T * S``, with T the largest |x| in the zero-padded 9 x 9 input tile that
    holds the output and S the sum of |theta_p| over output channel p's
    kernel. So one large value (a row, column or pixel of 1e12) moves
    outputs whose windows never see it by far more than ``bench.TOL``. The
    constant is fitted, not proven: over outlier rows, columns and pixels
    of 1e6 to 1e30, the largest ratio to ``2**-52 * T * S`` was ~80 for
    uniform kernels and ~2000 for kernels that put their weight on the tap
    the transforms amplify most.

    ``epilogue``, a ``(scale, bias, relu)`` triple, is a per-output-channel
    fold run in place on the float64 result before that one rounding:
    ``out * scale + bias`` (no product when ``scale`` is None; both are
    length-P float64 vectors), then a ReLU when ``relu`` is true. With an
    epilogue, an output beyond the float32 range raises NonFiniteMapError.

    Raises:
        ShapeMismatchError: kernel input channels differ from the map's.
        KernelTooLargeError: kernel extends past the map spatially.
    """
    x = _as_map(inputs, "conv input")
    w = _kernel_weights(kernel)
    out_ch, in_ch, kh, kw = w.shape
    _check_fit(x, in_ch, kh, kw)
    out_h, out_w = x.shape[1] - kh + 1, x.shape[2] - kw + 1
    if not isinstance(kernel, ConvKernel):
        matrix = w.reshape(out_ch, -1).astype(np.float64)
    elif (4 <= min(kh, kw) and max(kh, kw) <= 7
          and out_h >= _ALPHA + 1 - kh and out_w >= _ALPHA + 1 - kw
          and out_h * out_w * w.size >= _WINOGRAD_MIN_MULTS):
        return _winograd_conv(x, kernel, epilogue)
    else:
        matrix = kernel._gemm_matrix
    flat = matrix @ im2col(x, kh, kw)
    if epilogue is not None:
        _apply_epilogue(flat.T, epilogue)
    return _to_float32(flat.reshape(out_ch, out_h, out_w), epilogue)


def _apply_epilogue(acc: np.ndarray, epilogue) -> None:
    """Run conv2d_valid's (scale, bias, relu) fold in place on a (positions, P) float64 view."""
    scale, bias, apply_relu = epilogue
    if scale is not None:
        acc *= scale
    acc += bias
    if apply_relu:
        np.maximum(acc, 0.0, out=acc)


def _to_float32(acc: np.ndarray, epilogue) -> np.ndarray:
    """The one rounding of conv2d_valid: a C-ordered float32 copy of ``acc``.

    With an epilogue, an output beyond the float32 range raises
    NonFiniteMapError. Without one, no error state is entered: that costs
    ~2 us, which per-call-bound callers such as the toy model would feel.
    """
    if epilogue is None:
        return acc.astype(DTYPE, order="C")
    try:
        with np.errstate(over="raise"):
            return acc.astype(DTYPE, order="C")
    except FloatingPointError:
        raise NonFiniteMapError("the fused response exceeds the float32 range") from None


# Winograd minimal filtering F(m, r) on tiles of _ALPHA = m + r - 1 = 9
# inputs per axis, built by Cook-Toom from the points 0, +-1, +-2, +-1/2,
# 4 and infinity. The selection in conv2d_valid comes from single-thread
# OpenBLAS medians against the im2col path (cached GEMM matrix) over
# C = P = 8..64, square maps of side 9..45 and kernels 2x2..7x7, square
# and 5x3, 3x5, 7x5, 5x7, 4x6, 3x7 (192 shapes):
#
#   kernel sides      direct multiplies   shapes   Winograd / im2col
#   both in 4..7      below 2e6              44     0.26-1.68x
#   both in 4..7      2e6 to 8e6             27     0.84-2.51x
#   both in 4..7      8e6 and up             41     1.14-3.13x (median 2.09x)
#   a side of 3       any                    64     0.22-1.94x (won 27)
#   a side of 2       any                    16     0.18-0.64x
#
# The table was measured with an earlier form of _winograd_conv: a banded
# input transform (one dense GEMM per axis over the whole map) and a
# kron(A^T, A^T) output GEMM. The row-window and per-axis transforms that
# replaced them took 0.73-0.90x its time at eight multi-tile shapes, 0.98x
# at one whole tile (128x9x9 with 7x4) and 1.02x at C = 1, P = 256 (40x40
# with 5x5, where faulting in the 21 MB workspace dominates both), so the
# rule has not been re-measured. On the 41 shapes the rule admits, 9 x 9
# tiles beat the 8 x 8 tiles they replaced on 39 and tied on one (median
# 1.53x -> 2.09x against im2col); the one loss, 0.81x at 64x17x17 with
# 4x4, needs as many tiles either way. Side-3 kernels won and lost by
# shape (3x3: 1.51x at 64x29x29, 0.67x at 64x17x17) and stay on im2col
# until a rule for them is measured. The threshold stays above the
# redetect shape, 64x9x9 with 5x5 (2.6e6 multiplies): its Winograd kernel
# would outlive the call and raise that workload's peak memory.
_ALPHA = 9
_POINTS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 4.0)
_WINOGRAD_MIN_MULTS = 8_000_000


@functools.lru_cache(maxsize=None)
def _cook_toom(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B^T, G, A^T) of F(10 - r, r): 9 x 9, 9 x r and (10 - r) x 9, read-only.

    For a 9-sample input d and an r-tap kernel g, the 10 - r outputs
    y[i] = sum_k g[k] d[i + k] are ``A^T ((G g) * (B^T d))``. Row j < 8 of
    B^T holds the coefficients of prod_{l != j} (x - p_l) and row 8 those
    of prod_l (x - p_l); G carries the 1 / prod_{l != j} (p_j - p_l)
    Lagrange weights, so B^T and A^T are exact in binary.
    """
    m = _ALPHA + 1 - r
    points = np.array(_POINTS)
    bt = np.zeros((_ALPHA, _ALPHA))
    g = np.zeros((_ALPHA, r))
    at = np.zeros((m, _ALPHA))
    for j, p in enumerate(points):
        others = np.delete(points, j)
        bt[j, :-1] = np.poly(others)[::-1]
        g[j] = p ** np.arange(r) / np.prod(p - others)
        at[:, j] = p ** np.arange(m)
    bt[-1] = np.poly(points)[::-1]
    g[-1, -1] = at[-1, -1] = 1.0
    for matrix in (bt, g, at):
        matrix.flags.writeable = False
    return bt, g, at


def _row_windows(a: np.ndarray, count: int, step: int) -> np.ndarray:
    """Read-only (count, 9, rest) view of C-contiguous ``a``, no copy.

    Window t holds rows t*step .. t*step+8 of ``a``, each flattened.
    """
    row = a.strides[0]
    return np.lib.stride_tricks.as_strided(
        a, (count, _ALPHA, a.size // a.shape[0]), (step * row, row, a.itemsize), writeable=False)


def _winograd_conv(x: np.ndarray, kernel: ConvKernel, epilogue=None) -> np.ndarray:
    """conv2d_valid of a float32 map by Winograd F(m x m', kh x kw) tiles.

    Needs 2 <= kh, kw <= 8. The map is zero-padded to whole tiles and laid
    out (y, x, c). The input transform runs one axis at a time as one
    batched ``B^T @ windows`` over a read-only view of the overlapping
    9-row windows, so no tile is copied: th GEMMs along y, one transposing
    copy, tw GEMMs along x, then one layout copy to (81, tiles, C). One
    batched ``V @ U`` over the 81 transform points follows, and the output
    transform applies A^T per axis. ``epilogue`` (see :func:`conv2d_valid`)
    runs on the float64 (positions, P) result before the one cast to float32.
    """
    channels, height, width = x.shape
    out_ch = kernel.out_channels
    kh, kw = kernel.spatial
    bth, _, ath = _cook_toom(kh)
    btw, _, atw = _cook_toom(kw)
    mh, mw = _ALPHA + 1 - kh, _ALPHA + 1 - kw
    out_h, out_w = height - kh + 1, width - kw + 1
    th, tw = -(-out_h // mh), -(-out_w // mw)
    hp, wp = mh * th + kh - 1, mw * tw + kw - 1
    points, tiles = _ALPHA * _ALPHA, th * tw
    # Every step reads one half of a single per-call block and writes the
    # other. With a fresh temporary per step instead, glibc handed the
    # pages back and faulted ~5 MB in again on every call of a fresh
    # process (~1270 faults, 7.5 against 3.6 ms at the track shape).
    size = points * tiles * max(channels, out_ch)  # the largest stage; the rest fit
    work = np.empty(2 * size)

    def half(index, *shape):
        return work[index * size : index * size + math.prod(shape)].reshape(shape)

    padded = half(0, hp, wp, channels)
    # The margin only feeds cropped outputs, but it must be finite: stale
    # values cancel only in exact arithmetic, and a stale NaN never does.
    padded[height:] = 0.0
    padded[:height, width:] = 0.0
    padded[:height, :width] = x.transpose(1, 2, 0)
    v = np.matmul(bth, _row_windows(padded, th, mh),                # ty, a, (x, c)
                  out=half(1, th, _ALPHA, wp * channels))
    rows = half(0, wp, th, _ALPHA, channels)                        # x, (ty, a, c)
    rows[...] = v.reshape(th, _ALPHA, wp, channels).transpose(2, 0, 1, 3)
    v = np.matmul(btw, _row_windows(rows, tw, mw),                  # tx, b, (ty, a, c)
                  out=half(1, tw, _ALPHA, th * _ALPHA * channels))
    grouped = half(0, _ALPHA, _ALPHA, th, tw, channels)             # (a, b), (ty, tx), c
    grouped[...] = v.reshape(tw, _ALPHA, th, _ALPHA, channels).transpose(3, 1, 2, 0, 4)
    products = np.matmul(grouped.reshape(points, tiles, channels), kernel._winograd_kernel,
                         out=half(1, points, tiles, out_ch))
    y = np.matmul(ath, products.reshape(_ALPHA, -1),                # i, (b, ty, tx, p)
                  out=half(0, mh, _ALPHA * tiles * out_ch))
    y = np.matmul(atw, y.reshape(mh, _ALPHA, -1),                   # i, j, (ty, tx, p)
                  out=half(1, mh, mw, tiles * out_ch)).reshape(mh, mw, th, tw, out_ch)
    if epilogue is not None:
        _apply_epilogue(y.reshape(-1, out_ch), epilogue)
    # Outputs past the map are cropped below. Zeroed first, they cannot
    # overflow in the cast, where only the valid outputs may.
    y[out_h - mh * (th - 1):, :, -1] = 0.0
    y[:, out_w - mw * (tw - 1):, :, -1] = 0.0
    out = _to_float32(y.transpose(4, 2, 0, 3, 1), epilogue)
    return np.ascontiguousarray(out.reshape(out_ch, th * mh, tw * mw)[:, :out_h, :out_w])


def im2col(x, kh: int, kw: int) -> np.ndarray:
    """The float64 patch matrix of a C x H x W map for a kh x kw kernel.

    Column ``i * Wo + j`` holds the window at output position (i, j); its
    rows run over (c, u, v) in C order, the order of a P x C x kh x kw
    kernel reshaped to P x (C*kh*kw). Shape (C*kh*kw, Ho*Wo), built by one
    cast-copy of a read-only (C, kh, kw, Ho, Wo) view on x's own strides.
    The caller has checked that the kernel fits.
    """
    x = np.ascontiguousarray(x)
    channels, height, width = x.shape
    shape = (channels, kh, kw, height - kh + 1, width - kw + 1)
    windows = np.ndarray(shape, x.dtype, x, 0, x.strides + x.strides[1:])
    windows.flags.writeable = False
    return windows.astype(np.float64, order="C").reshape(channels * kh * kw, -1)


def depthwise_corr(search, template) -> np.ndarray:
    """Channel-wise valid cross-correlation; channel c only sees channel c.

    ``search`` is C x H x W, ``template`` C x kh x kw; the result keeps
    all C channels at the slid spatial size. Computed as the grouped
    product of the :func:`im2col` patches: channel c's kernel row times
    that channel's block of rows.
    """
    x = _as_map(search, "search map")
    z = _as_map(template, "template")
    channels, kh, kw = z.shape
    _check_fit(x, channels, kh, kw)
    patches = im2col(x, kh, kw).reshape(channels, kh * kw, -1)
    out = z.reshape(channels, 1, kh * kw).astype(np.float64) @ patches
    return out.reshape(channels, x.shape[1] - kh + 1, x.shape[2] - kw + 1).astype(DTYPE)


def xcorr(search, template) -> np.ndarray:
    """Single-channel valid cross-correlation summed over all channels.

    Collapses C x H x W against C x kh x kw into a 1 x Ho x Wo response:
    the :func:`conv2d_valid` with kernel ``template[None]``.
    """
    return conv2d_valid(search, _as_map(template, "template")[np.newaxis])


def fc_forward(x, layer: FcLayer) -> np.ndarray:
    """Affine map weights @ x + bias for a rank-1 input."""
    x = as_tensor(x)
    if x.ndim != 1:
        raise RankError(f"fc input must be rank 1, got rank {x.ndim}")
    if x.shape[0] != layer.in_features:
        raise ShapeMismatchError(
            f"fc expects {layer.in_features} inputs, got {x.shape[0]}"
        )
    out = layer.weights.astype(np.float64) @ x.astype(np.float64)
    return (out + layer.bias.astype(np.float64)).astype(DTYPE)


def _mlp3_layers(layers) -> tuple:
    """``layers`` as a tuple; ValueError unless it holds exactly 3.

    The one layer-count check of a 3-layer FC stack: ``mlp3_forward``,
    ``autograd.mlp3`` and fusion's prior branch all call it.
    """
    layers = tuple(layers)
    if len(layers) != 3:
        raise ValueError(f"an mlp3 stack needs exactly 3 layers, got {len(layers)}")
    return layers


def mlp3_forward(x, layers) -> np.ndarray:
    """Three chained FC layers with ReLU after the first two only."""
    layers = _mlp3_layers(layers)
    hidden = relu(fc_forward(x, layers[0]))
    hidden = relu(fc_forward(hidden, layers[1]))
    return fc_forward(hidden, layers[2])


def batchnorm_infer(t, params: BatchNormParams) -> np.ndarray:
    """Per-channel affine normalization with frozen statistics."""
    x = _as_map(t, "batch norm input")
    if x.shape[0] != params.channels:
        raise ShapeMismatchError(
            f"map has {x.shape[0]} channels, params describe {params.channels}"
        )
    scale, shift = params.scale_shift()
    out = x.astype(np.float64)
    out *= scale
    out += shift
    return out.astype(DTYPE)


def head1x1(features, kernel) -> np.ndarray:
    """1x1 convolution head: per-position channel remix, K x H x W out."""
    w = _kernel_weights(kernel)
    if w.shape[2:] != (1, 1):
        raise ShapeMismatchError(f"head kernel must be 1x1, got {w.shape[2]}x{w.shape[3]}")
    return conv2d_valid(features, kernel)


def global_avg_pool(t) -> np.ndarray:
    """Mean over both spatial axes; C x H x W in, length-C vector out."""
    x = _as_map(t, "pool input")
    return x.mean(axis=(1, 2), dtype=np.float64).astype(DTYPE)
