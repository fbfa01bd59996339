"""Neural building blocks: valid convolutions, small FC nets, batch norm.

All spatial ops use the cross-correlation orientation (no kernel flip),
stride 1, no padding and no convolution bias:

    out[p, i, j] = sum_{c,u,v} kernel[p, c, u, v] * x[c, i+u, j+v]

Inputs are single C x H x W maps (no batch axis). Accumulation is done
in float64, the result is rounded to float32 once.

Every correlation op runs on the float64 patch matrix built by
:func:`im2col`: one row per (c, u, v) kernel element, one column per
output position. ``conv2d_valid`` is one GEMM ``W @ patches`` whose
result is already laid out P x Ho x Wo; ``head1x1`` is the 1x1 case and
``xcorr`` the single-output-channel case (kernel ``template[None]``);
``depthwise_corr`` is the grouped product, each channel's kernel row
times that channel's block of rows. The taped backward in ``autograd``
runs on the same matrix: the kernel adjoint on the patches of the input,
the input adjoint on the patches of the zero-padded output gradient.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import KernelTooLargeError, RankError, ShapeMismatchError
from .tensor import DTYPE, as_tensor, relu


@dataclass(frozen=True)
class ConvKernel:
    """Convolution weights shaped out_channels x in_channels x kh x kw."""

    weights: np.ndarray

    def __post_init__(self):
        w = as_tensor(self.weights)
        if w.ndim != 4:
            raise RankError(f"conv kernel must be rank 4, got rank {w.ndim}")
        if min(w.shape) < 1:
            raise ShapeMismatchError(f"conv kernel has a zero dimension: {w.shape}")
        object.__setattr__(self, "weights", w)

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def spatial(self) -> tuple[int, int]:
        return self.weights.shape[2], self.weights.shape[3]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class BatchNormParams:
    """Frozen inference-time batch norm statistics for C channels."""

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
            arrays[name] = arr
        lengths = {a.shape[0] for a in arrays.values()}
        if len(lengths) != 1:
            raise ShapeMismatchError("batch norm parameter lengths differ")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not (np.isfinite(arrays["running_var"]) & (arrays["running_var"] >= 0)).all():
            raise ValueError("running_var must be finite and non-negative")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


# Counters let tests assert how many convolutions a code path issued.

_counter_state = threading.local()


@dataclass
class ConvCallCounter:
    calls: int = field(default=0)


@contextmanager
def count_conv_calls():
    """Count conv2d_valid invocations on this thread within the block."""
    stack = _counter_state.__dict__.setdefault("stack", [])
    counter = ConvCallCounter()
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.remove(counter)


def _tick_conv_counters() -> None:
    for counter in _counter_state.__dict__.get("stack", ()):
        counter.calls += 1


def _as_map(x, what: str) -> np.ndarray:
    x = as_tensor(x)
    if x.ndim != 3:
        raise RankError(f"{what} must be rank 3 (C x H x W), got rank {x.ndim}")
    return x


def _kernel_weights(kernel) -> np.ndarray:
    if isinstance(kernel, ConvKernel):
        return kernel.weights
    return ConvKernel(kernel).weights


def _check_fit(x: np.ndarray, channels: int, kh: int, kw: int) -> None:
    """A kernel of ``channels`` x kh x kw must match and fit inside map x."""
    if channels != x.shape[0]:
        raise ShapeMismatchError(
            f"kernel expects {channels} input channels, map has {x.shape[0]}"
        )
    if kh > x.shape[1] or kw > x.shape[2]:
        raise KernelTooLargeError(
            f"kernel {kh}x{kw} does not fit in map {x.shape[1]}x{x.shape[2]}"
        )


def conv2d_valid(inputs, kernel) -> np.ndarray:
    """Valid cross-correlation of a C x H x W map with a P x C x kh x kw kernel.

    Returns a P x (H-kh+1) x (W-kw+1) map. Internally the :func:`im2col`
    patch matrix feeds one float64 matrix product, so the cost is one
    multiply-add per (output position, kernel element) pair.

    Raises:
        ShapeMismatchError: kernel input channels differ from the map's.
        KernelTooLargeError: kernel extends past the map spatially.
    """
    x = _as_map(inputs, "conv input")
    w = _kernel_weights(kernel)
    out_ch, in_ch, kh, kw = w.shape
    _check_fit(x, in_ch, kh, kw)
    _tick_conv_counters()
    flat = w.reshape(out_ch, -1).astype(np.float64) @ im2col(x, kh, kw)
    return flat.reshape(out_ch, x.shape[1] - kh + 1, x.shape[2] - kw + 1).astype(DTYPE)


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


def mlp3_forward(x, layers) -> np.ndarray:
    """Three chained FC layers with ReLU after the first two only."""
    layers = tuple(layers)
    if len(layers) != 3:
        raise ValueError(f"mlp3 needs exactly 3 layers, got {len(layers)}")
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
    inv = 1.0 / np.sqrt(params.running_var.astype(np.float64) + params.eps)
    scale = params.gamma.astype(np.float64) * inv
    shift = params.beta.astype(np.float64)
    centered = x.astype(np.float64) - params.running_mean.astype(np.float64)[:, None, None]
    return (centered * scale[:, None, None] + shift[:, None, None]).astype(DTYPE)


def head1x1(features, kernel) -> np.ndarray:
    """1x1 convolution head: per-position channel remix, K x H x W out."""
    w = _kernel_weights(kernel)
    if w.shape[2:] != (1, 1):
        raise ShapeMismatchError(f"head kernel must be 1x1, got {w.shape[2]}x{w.shape[3]}")
    return conv2d_valid(features, w)


def global_avg_pool(t) -> np.ndarray:
    """Mean over both spatial axes; C x H x W in, length-C vector out."""
    x = _as_map(t, "pool input")
    return x.mean(axis=(1, 2), dtype=np.float64).astype(DTYPE)
