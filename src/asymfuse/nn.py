"""Neural building blocks: valid convolutions, small FC nets, batch norm.

All spatial ops use the cross-correlation orientation (no kernel flip),
stride 1, no padding and no convolution bias:

    out[p, i, j] = sum_{c,u,v} kernel[p, c, u, v] * x[c, i+u, j+v]

Inputs are single C x H x W maps (no batch axis). Every path accumulates
in float64 and rounds the result to float32 once, at the end.

The general path of every correlation op is the float64 patch matrix built by
:func:`im2col`: one row per (c, u, v) kernel element, one column per output position.
``conv2d_valid`` is one GEMM ``W @ patches`` whose result is already laid out
P x Ho x Wo, or, when deep and narrow, a float64 sum over equal depth slabs
(``_slab_gemm``), which OpenBLAS runs without packing all of W for a few columns.
``head1x1`` is the 1x1 case and ``xcorr`` the single-output-channel case
(kernel ``template[None]``); ``depthwise_corr`` is the grouped product, each channel's
kernel row times that channel's block of rows. Each appends the matrix to its ``patches``
list, if given: ``autograd``'s taped backward takes the kernel adjoint on it, and the
input adjoint on the patches of the zero-padded output gradient.

A :class:`ConvKernel`, :class:`FcLayer` and :class:`BatchNormParams` own
read-only copies of their arrays (``tensor._read_only``), so no later write
by the caller reaches what is derived from them once: the params' float64
batch-norm fold, when built, and the kernel's GEMM matrix above and
Winograd-domain kernel, on first use. An op takes its struct or the raw
arrays of the tape and the toy model, checked per call by the struct's
rule. ``conv2d_valid`` with a ConvKernel takes Winograd minimal filtering
(Lavin & Gray, CVPR 2016) over 9 x 9 tiles when that measured faster: both
kernel sides in 4..7, at least one whole output tile per axis, and at least
``_WINOGRAD_MIN_MULTS`` multiplies of direct work. Its transforms run one
axis at a time, the input one over views of overlapping row windows, the
second axis writing the product layout itself. Everything else, raw-array
kernels from the tape and the toy model included, takes the im2col GEMM.

``conv2d_valid``'s ``epilogue`` adds a per-output-channel bias to the
float64 result before its one rounding, then an optional ReLU on the float32
result. Fusion's response uses it on a ``_ScaledKernel``, whose cached
operands carry the norm's scale, so the search conv and the norm round once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import KernelTooLargeError, RankError, ShapeMismatchError
from .tensor import DTYPE, _as_map, _check_finite, _check_real, _read_only, as_tensor, relu


def _check_kernel(w: np.ndarray) -> np.ndarray:
    if w.ndim != 4:
        raise RankError(f"conv kernel must be rank 4, got rank {w.ndim}")
    if min(w.shape) < 1:
        raise ShapeMismatchError(f"conv kernel has a zero dimension: {w.shape}")
    return w


@dataclass(frozen=True, eq=False)
class ConvKernel:
    """Convolution weights shaped out_channels x in_channels x kh x kw.

    ``weights`` is a read-only float32 copy the kernel owns, so later writes
    cannot reach the float64 operands cached here. A NaN or infinite weight
    raises NonFiniteMapError, checked once here rather than per conv.
    """

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_kernel(_read_only(self.weights, "conv kernel")))

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


class _ScaledKernel(ConvKernel):
    """``kernel``'s weights with a length-P float64 ``scale`` folded into each
    cached operand, built on first use; ``kernel``'s own cache stays unbuilt."""

    def __init__(self, kernel: ConvKernel, scale: np.ndarray):
        object.__setattr__(self, "weights", kernel.weights)
        object.__setattr__(self, "scale", scale)

    @functools.cached_property
    def _gemm_matrix(self) -> np.ndarray:
        return ConvKernel._gemm_matrix.func(self) * self.scale[:, None]

    @functools.cached_property
    def _winograd_kernel(self) -> np.ndarray:
        u = ConvKernel._winograd_kernel.func(self)
        u *= self.scale  # in place: one 81 x C x P array at a time
        return u


def _check_fc(w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one shape check of an FC layer, of an :class:`FcLayer` and of raw arrays alike."""
    if w.ndim != 2 or b.ndim != 1:
        raise RankError("an FC layer takes rank-2 weights and a rank-1 bias")
    if w.shape[0] != b.shape[0]:
        raise ShapeMismatchError(f"bias length {b.shape[0]} != output width {w.shape[0]}")
    return w, b


@dataclass(frozen=True, eq=False)
class FcLayer:
    """Fully connected layer: weights out x in, bias out, as read-only float32
    copies the layer owns; a NaN or infinite entry raises NonFiniteMapError."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w, b = _check_fc(_read_only(self.weights, "fc weights"), _read_only(self.bias, "fc bias"))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


_NORM_ARRAYS = ("gamma", "beta", "running_mean", "running_var")


def _batchnorm_fold(gamma, beta, running_mean, running_var, eps=1e-5) -> SimpleNamespace:
    """Batch norm's one check and fold: BatchNormParams runs it once, ``autograd.batchnorm``
    per call. Arrays finite (NonFiniteMapError), rank 1 (RankError), of one length
    (ShapeMismatchError); ``eps`` positive, ``running_var`` >= 0 and each |gamma| /
    sqrt(running_var + eps) within float32 (ValueError). Returns the float32 arrays and
    float64 C x 1 x 1 ``inv_std`` = 1 / sqrt(running_var + eps), ``scale`` and ``shift``."""
    arrays = {name: _check_finite(as_tensor(value), name)
              for name, value in zip(_NORM_ARRAYS, (gamma, beta, running_mean, running_var))}
    for name, arr in arrays.items():
        if arr.ndim != 1:
            raise RankError(f"{name} must be rank 1")
    if len({a.shape[0] for a in arrays.values()}) != 1:
        raise ShapeMismatchError("batch norm parameter lengths differ")
    eps = _check_real(eps, "eps")
    if (arrays["running_var"] < 0).any():
        raise ValueError("running_var must be non-negative")
    gamma, beta, mean, var = (a.astype(np.float64)[:, None, None] for a in arrays.values())
    std = np.sqrt(var + eps)
    fold = SimpleNamespace(**arrays, inv_std=1.0 / std, scale=gamma / std)
    fold.shift = beta - mean * fold.scale
    if (np.abs(fold.scale) > np.finfo(np.float32).max).any():
        raise ValueError("a folded batch-norm scale |gamma| / sqrt(running_var + eps) "
                         "exceeds the float32 range")
    return fold


@dataclass(frozen=True, eq=False)
class BatchNormParams:
    """Frozen inference-time batch norm statistics for C channels, as read-only
    float32 copies (:func:`tensor._read_only`) that :func:`_batchnorm_fold` checks
    and folds once, into read-only float64 C x 1 x 1 members that ``__init__``
    does not take: norm(x) = x * ``scale`` + ``shift``."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    scale: np.ndarray = field(init=False, repr=False)
    shift: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        fold = _batchnorm_fold(*(_read_only(getattr(self, n), n) for n in _NORM_ARRAYS), self.eps)
        for name in (*_NORM_ARRAYS, "scale", "shift"):
            getattr(fold, name).flags.writeable = False
            object.__setattr__(self, name, getattr(fold, name))

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


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


def conv2d_valid(inputs, kernel, *, epilogue=None, patches=None) -> np.ndarray:
    """Valid cross-correlation of a C x H x W map with a P x C x kh x kw kernel.

    Returns a P x (H-kh+1) x (W-kw+1) float32 map. Two paths compute it,
    both in float64 with one rounding to float32 at the end:

    - im2col: the :func:`im2col` patch matrix feeds one matrix product,
      one multiply-add per (output position, kernel element) pair, split
      into equal depth slabs when deep and narrow (see :func:`_slab_gemm`);
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

    ``epilogue``, a ``(bias, relu)`` pair, adds the length-P float64 ``bias``
    per output channel before that one rounding (on the Winograd path, at the
    transform point whose output column is all ones), then, if ``relu`` is true,
    a ReLU on the rounded result. A per-channel scale belongs in the kernel's operands
    (:class:`_ScaledKernel`). The rounding is one plain cast: beyond float32 it gives inf
    and NumPy's RuntimeWarning, or FloatingPointError under the caller's ``over="raise"``.
    ``patches``, a list, receives the im2col path's patch matrix; no result changes.

    Raises:
        ShapeMismatchError: kernel input channels differ from the map's.
        KernelTooLargeError: kernel extends past the map spatially.
    """
    x = _as_map(inputs, "conv input")
    w = _kernel_weights(kernel)
    out_ch, in_ch, kh, kw = w.shape
    _check_fit(x, in_ch, kh, kw)
    out_h, out_w = x.shape[1] - kh + 1, x.shape[2] - kw + 1
    bias, apply_relu = (None, False) if epilogue is None else epilogue
    if (isinstance(kernel, ConvKernel) and 4 <= min(kh, kw) and max(kh, kw) <= 7
            and out_h >= _ALPHA + 1 - kh and out_w >= _ALPHA + 1 - kw
            and out_h * out_w * w.size >= _WINOGRAD_MIN_MULTS):
        out = _winograd_conv(x, kernel, bias)
    else:
        matrix = (kernel._gemm_matrix if isinstance(kernel, ConvKernel)
                  else w.reshape(out_ch, -1).astype(np.float64))
        cols = im2col(x, kh, kw)
        if patches is not None:
            patches.append(cols)
        flat = _slab_gemm(matrix, cols) if out_ch * cols.size > _SLAB_MULTS else matrix @ cols
        if bias is not None:
            flat += bias[:, None]
        out = flat.reshape(out_ch, out_h, out_w).astype(DTYPE)
    # Never fused into the cast: np.maximum into float32 clears the overflow flag an
    # earlier buffer's cast set, so the caller's np.errstate would miss it.
    return np.maximum(out, 0.0, out=out) if apply_relu else out


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
# The table was measured with an earlier form of _winograd_conv: banded input
# GEMMs and a kron(A^T, A^T) output GEMM. Per-axis row-window transforms took
# 0.73-0.90x its time at eight multi-tile shapes, 0.98x at one whole tile
# (128x9x9, 7x4) and 1.02x at C = 1, P = 256 (40x40, 5x5: the 21 MB workspace
# dominates); then the x-first input transform that writes the product layout
# took 0.70-1.02x theirs over nine shapes without an epilogue (0.81-0.92x at
# 7x7 and on 45x45 maps), so the rule has not been re-measured. On the 41
# shapes it admits, 9 x 9 tiles beat the 8 x 8 tiles they replaced on 39 and
# tied on one (median 1.53x -> 2.09x against im2col); the one loss, 0.81x at
# 64x17x17 with 4x4, needs as many tiles either way. Side-3 kernels won and
# lost by shape (3x3: 1.51x at 64x29x29, 0.67x at 64x17x17) and stay on
# im2col until a rule for them is measured. The threshold stays above the
# redetect shape, 64x9x9 with 5x5 (2.6e6 multiplies): its Winograd kernel
# would outlive the call and raise that workload's peak memory.
_ALPHA = 9
_POINTS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 4.0)
_WINOGRAD_MIN_MULTS = 8_000_000

# Depth slabs for the im2col product W @ patches (M x K times K x N): above
# 1e6 multiply-adds, OpenBLAS leaves its small-matrix kernels for the packed
# GEMM, which packs all of W for a few output columns, and the float64 rate
# drops (47 -> 36 GFLOP/s at M = 64, N = 25 from K = 625 to 650). _slab_gemm
# sums the fewest equal K slabs of at most _SLAB_MULTS multiply-adds
# instead. Fitted on single-thread OpenBLAS 0.3.31
# (NumPy 2.4) medians over M in {8, 32, 64, 128, 256}, K = C*k*k in {400,
# 576, 1600, 2304, 6400}, N in {1, 4, 9, ..., 289} (squares), M*N*K > 1e6
# (184 shapes):
#
#   slabs of          shapes   slabbed / one product
#   256 deep or more      67     0.46-0.94 (median 0.72): split
#   128 to 255 deep       37     0.55-0.99 (median 0.83)
#   under 128 deep        79     0.78-1.81 (median 0.97)
#   N = 1                  1     1.03
#
# With slabs of at most 2e6 multiply-adds, 66 of the 73 shapes it split ran
# slower (median 1.04x); with 5e5, it split 40 shapes, median 0.71x. One
# output channel (M = 1, as xcorr has) gained nothing either: 1.00-1.03x at
# five shapes with K from 1600 to 25600. The redetect search conv (64, 1600,
# 25) runs as 3 slabs in 0.76x its time.
_SLAB_MULTS = 1_000_000
_SLAB_MIN_DEPTH = 256


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


def _winograd_conv(x: np.ndarray, kernel: ConvKernel, bias=None) -> np.ndarray:
    """conv2d_valid of a float32 map by Winograd F(m x m', kh x kw) tiles.

    Needs 2 <= kh, kw <= 8. The map is zero-padded to whole tiles and laid
    out (x, y, c). The input transform runs one axis at a time as a batched
    ``B^T @ windows`` over a read-only view of overlapping 9-row windows, so no
    tile is copied: tw GEMMs along x, one transposing copy to (y, b, tx, c),
    then 9 th GEMMs along y that write the (a, b, ty, tx, c) product layout
    through ``out=``. One batched ``V @ U`` over the 81 transform points
    follows; ``bias``, if given, is added at the point (1, 1), whose output
    transform column is all ones, and A^T is applied per axis before the one
    cast to float32, whose margin is then cropped.
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

    padded = half(0, wp, hp, channels)
    # The margin only feeds cropped outputs, but it must be finite: stale
    # values cancel only in exact arithmetic, and a stale NaN never does.
    padded[width:] = 0.0
    padded[:width, height:] = 0.0
    padded[:width, :height] = x.transpose(2, 1, 0)
    v = np.matmul(btw, _row_windows(padded, tw, mw),                # tx, b, (y, c)
                  out=half(1, tw, _ALPHA, hp * channels))
    rows = half(0, hp, _ALPHA, tw, channels)                        # y, (b, tx, c)
    rows[...] = v.reshape(tw, _ALPHA, hp, channels).transpose(2, 1, 0, 3)
    grouped = half(1, _ALPHA, _ALPHA, th, tw * channels)            # a, b, ty, (tx, c)
    np.matmul(bth, _row_windows(rows, th, mh).reshape(th, _ALPHA, _ALPHA, -1).swapaxes(1, 2),
              out=grouped.transpose(2, 1, 0, 3))                    # ty, b, a, (tx, c)
    products = np.matmul(grouped.reshape(points, tiles, channels), kernel._winograd_kernel,
                         out=half(0, points, tiles, out_ch))
    if bias is not None:
        products[_POINTS.index(1.0) * (_ALPHA + 1)] += bias
    y = np.matmul(ath, products.reshape(_ALPHA, -1),                # i, (b, ty, tx, p)
                  out=half(1, mh, _ALPHA * tiles * out_ch))
    y = np.matmul(atw, y.reshape(mh, _ALPHA, -1),                   # i, j, (ty, tx, p)
                  out=half(0, mh, mw, tiles * out_ch)).reshape(mh, mw, th, tw, out_ch)
    # Outputs past the map are cropped below. Zeroed first, they cannot
    # overflow in the cast, where only the valid outputs may.
    y[out_h - mh * (th - 1):, :, -1] = 0.0
    y[:, out_w - mw * (tw - 1):, :, -1] = 0.0
    out = np.empty((out_ch, th, mh, tw, mw), DTYPE)
    np.copyto(out.transpose(2, 4, 1, 3, 0), y)
    return np.ascontiguousarray(out.reshape(out_ch, th * mh, tw * mw)[:, :out_h, :out_w])


def _slab_gemm(matrix: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``matrix @ cols`` summed over the fewest equal depth slabs of at most ``_SLAB_MULTS``
    multiply-adds; one product for a single row or column or slabs under ``_SLAB_MIN_DEPTH``."""
    (m, depth), n = matrix.shape, cols.shape[1]
    slabs = -(-depth // max(_SLAB_MULTS // (m * n), 1))
    if depth // slabs < _SLAB_MIN_DEPTH or m == 1 or n == 1:
        return matrix @ cols
    bounds = [depth * i // slabs for i in range(slabs + 1)]
    out = matrix[:, :bounds[1]] @ cols[:bounds[1]]
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        out += matrix[:, lo:hi] @ cols[lo:hi]
    return out


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


def depthwise_corr(search, template, *, patches=None) -> np.ndarray:
    """Channel-wise valid cross-correlation; channel c only sees channel c.

    ``search`` is C x H x W, ``template`` C x kh x kw; the result keeps
    all C channels at the slid spatial size. Computed as the grouped
    product of the :func:`im2col` patches: channel c's kernel row times
    that channel's block of rows. ``patches`` is as in :func:`conv2d_valid`.
    """
    x = _as_map(search, "search map")
    z = _as_map(template, "template")
    channels, kh, kw = z.shape
    _check_fit(x, channels, kh, kw)
    cols = im2col(x, kh, kw)
    if patches is not None:
        patches.append(cols)
    out = z.reshape(channels, 1, kh * kw).astype(np.float64) @ cols.reshape(channels, kh * kw, -1)
    return out.reshape(channels, x.shape[1] - kh + 1, x.shape[2] - kw + 1).astype(DTYPE)


def xcorr(search, template, *, patches=None) -> np.ndarray:
    """Single-channel valid cross-correlation summed over all channels.

    Collapses C x H x W against C x kh x kw into a 1 x Ho x Wo response:
    the :func:`conv2d_valid` with kernel ``template[None]``, ``patches`` passed on.
    """
    return conv2d_valid(search, _as_map(template, "template")[np.newaxis], patches=patches)


def _fc_arrays(layer) -> tuple[np.ndarray, np.ndarray]:
    """An FcLayer's arrays, or a raw ``(weights, bias)`` pair's, shape-checked; else ValueError."""
    try:
        return ((layer.weights, layer.bias) if isinstance(layer, FcLayer)
                else _check_fc(*map(as_tensor, layer)))
    except TypeError:  # not iterable, or not two arrays
        raise ValueError("fc layer must be an FcLayer or a (weights, bias) pair") from None


def fc_forward(x, layer) -> np.ndarray:
    """Affine map weights @ x + bias for a rank-1 input, ``layer`` read by :func:`_fc_arrays`."""
    w, b = _fc_arrays(layer)
    x = as_tensor(x)
    if x.ndim != 1:
        raise RankError(f"fc input must be rank 1, got rank {x.ndim}")
    if x.shape[0] != w.shape[1]:
        raise ShapeMismatchError(f"fc expects {w.shape[1]} inputs, got {x.shape[0]}")
    out = w.astype(np.float64) @ x.astype(np.float64)
    return (out + b.astype(np.float64)).astype(DTYPE)


def _mlp3_layers(layers) -> tuple:
    """``layers`` as a tuple, a lone layer as one; ValueError unless it holds exactly 3.

    The one layer-count check of a 3-layer FC stack: ``mlp3_forward``,
    ``autograd.mlp3`` and fusion's prior branch all call it.
    """
    layers = tuple(layers) if np.iterable(layers) else (layers,)
    if len(layers) != 3:
        raise ValueError(f"an mlp3 stack needs exactly 3 layers, got {len(layers)}")
    return layers


def mlp3_forward(x, layers) -> np.ndarray:
    """Three chained FC layers (as fc_forward takes them), ReLU after the first two only."""
    layers = _mlp3_layers(layers)
    hidden = relu(fc_forward(x, layers[0]))
    hidden = relu(fc_forward(hidden, layers[1]))
    return fc_forward(hidden, layers[2])


def batchnorm_infer(t, params) -> np.ndarray:
    """Per-channel affine normalization with frozen statistics: ``params`` is a
    BatchNormParams or the tape's :func:`_batchnorm_fold` of raw arrays."""
    x = _as_map(t, "batch norm input")
    if x.shape[0] != len(params.scale):
        raise ShapeMismatchError(
            f"map has {x.shape[0]} channels, params describe {len(params.scale)}"
        )
    out = x.astype(np.float64)
    out *= params.scale
    out += params.shift
    return out.astype(DTYPE)


def head1x1(features, kernel, *, patches=None) -> np.ndarray:
    """1x1 conv head (per-position channel remix, K x H x W out): conv2d_valid, ``patches`` too."""
    w = _kernel_weights(kernel)
    if w.shape[2:] != (1, 1):
        raise ShapeMismatchError(f"head kernel must be 1x1, got {w.shape[2]}x{w.shape[3]}")
    return conv2d_valid(features, kernel, patches=patches)


def global_avg_pool(t) -> np.ndarray:
    """Mean over both spatial axes, computed as np.mean does; C x H x W in, length-C out."""
    x = _as_map(t, "pool input")
    return (np.add.reduce(x, (1, 2), np.float64) / (x.shape[1] * x.shape[2])).astype(DTYPE)
