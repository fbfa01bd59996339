"""Asymmetric fusion of a small template map with a larger search map.

The module computes, for template z (C x eta x omega) and search map x
(C x H x W), the response

    relu( theta_z * z  +_b  theta_x * x  [+_b prior(box)] )

where ``*`` is valid cross-correlation, both kernels share the template's
spatial size, and ``+_b`` broadcasts the 1x1 template term over every
search position. This equals convolving each [z; window] channel stack
with the joined kernel [theta_z | theta_x], which is what
:func:`naive_concat_corr` does window by window; the decomposed form
replaces the per-window concatenation with two independent convolutions
and an add, and lets the template side be cached across search maps.
Each convolution rounds to float32 once; the add, the prior, the norm and
the ReLU then run in float64 and round to float32 once more.

The optional prior branch feeds (box width, box height), divided by
``box_scale``, through a 3-layer FC net into one extra bias per output
channel. A NaN or infinite template or search map raises NonFiniteMapError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    KernelTooLargeError,
    MissingBoxError,
    NonFiniteMapError,
    NonPositiveBoxError,
    ShapeMismatchError,
)
from .nn import BatchNormParams, ConvKernel, FcLayer, conv2d_valid, mlp3_forward
from .tensor import DTYPE, as_tensor


@dataclass(frozen=True, eq=False)
class FusionWeights:
    """Everything the fusion op learns.

    ``theta_z`` and ``theta_x`` must have identical shapes; their shared
    output-channel count fixes the response depth. ``prior``, when
    present, is the 3-layer FC stack of the box branch and must end in
    that same channel count; a box must then accompany every template.
    ``norm`` optionally batch-normalizes the summed response, before the
    ReLU unless ``norm_after_relu`` is set.
    """

    theta_z: ConvKernel
    theta_x: ConvKernel
    prior: tuple[FcLayer, FcLayer, FcLayer] | None = None
    norm: BatchNormParams | None = None
    norm_after_relu: bool = False
    box_scale: float = 255.0

    def __post_init__(self):
        if self.theta_z.weights.shape != self.theta_x.weights.shape:
            raise ShapeMismatchError(
                f"kernel shapes differ: {self.theta_z.weights.shape} "
                f"vs {self.theta_x.weights.shape}"
            )
        if self.prior is not None:
            layers = tuple(self.prior)
            if len(layers) != 3:
                raise ValueError(f"prior branch needs 3 FC layers, got {len(layers)}")
            if layers[2].out_features != self.out_channels:
                raise ShapeMismatchError(
                    f"prior branch ends in {layers[2].out_features} features, "
                    f"kernels produce {self.out_channels} channels"
                )
            object.__setattr__(self, "prior", layers)
        if self.norm is not None and self.norm.channels != self.out_channels:
            raise ShapeMismatchError(
                f"norm describes {self.norm.channels} channels, "
                f"kernels produce {self.out_channels}"
            )
        if not 0 < self.box_scale < np.inf:
            raise ValueError(f"box_scale must be positive and finite: {self.box_scale!r}")

    @property
    def out_channels(self) -> int:
        return self.theta_z.out_channels

    @property
    def in_channels(self) -> int:
        return self.theta_z.in_channels

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.theta_z.spatial


@dataclass(frozen=True, eq=False)
class TemplateCache:
    """Search-independent half of the fusion: z term plus optional prior."""

    z_term: np.ndarray
    prior_term: np.ndarray | None = None

    def __post_init__(self):
        z = as_tensor(self.z_term)
        if z.ndim != 3 or z.shape[1:] != (1, 1):
            raise ShapeMismatchError(f"z_term must be P x 1 x 1, got {z.shape}")
        object.__setattr__(self, "z_term", z)
        if self.prior_term is not None:
            p = as_tensor(self.prior_term)
            if p.shape != z.shape:
                raise ShapeMismatchError(
                    f"prior term {p.shape} does not match z term {z.shape}"
                )
            object.__setattr__(self, "prior_term", p)

    @property
    def out_channels(self) -> int:
        return self.z_term.shape[0]


def _check_template(template, weights: FusionWeights) -> np.ndarray:
    z = as_tensor(template)
    if z.ndim != 3:
        raise ShapeMismatchError(f"template must be rank 3, got rank {z.ndim}")
    if z.shape[0] != weights.in_channels or z.shape[1:] != weights.kernel_size:
        raise ShapeMismatchError(
            f"template {z.shape} does not match kernels "
            f"{weights.theta_z.weights.shape[1:]}"
        )
    if not np.isfinite(z).all():
        raise NonFiniteMapError("template holds NaN or infinite values")
    return z


def _check_search(search, weights: FusionWeights) -> np.ndarray:
    # conv2d_valid would raise RankError; fusion reports ShapeMismatchError.
    x = as_tensor(search)
    if x.ndim != 3:
        raise ShapeMismatchError(f"search map must be rank 3, got rank {x.ndim}")
    if x.shape[0] != weights.in_channels:
        raise ShapeMismatchError(
            f"search map has {x.shape[0]} channels, kernels expect "
            f"{weights.in_channels}"
        )
    eta, omega = weights.kernel_size
    if eta > x.shape[1] or omega > x.shape[2]:
        raise KernelTooLargeError(
            f"kernels {eta}x{omega} do not fit in search map "
            f"{x.shape[1]}x{x.shape[2]}"
        )
    if not np.isfinite(x).all():
        raise NonFiniteMapError("search map holds NaN or infinite values")
    return x


def naive_concat_corr(template, search, weights: FusionWeights) -> np.ndarray:
    """Reference fusion: concatenate and convolve at every window.

    For each valid position the template is stacked on top of the
    template-sized search window (template channels first) and the 2C
    channel stack is convolved with the joined kernel
    [theta_z | theta_x]. Output is P x (H-eta+1) x (W-omega+1),
    pre-activation, prior branch ignored. Quadratic in the window count;
    exists as the oracle the decomposed path is checked against.
    """
    z = _check_template(template, weights)
    x = _check_search(search, weights)
    eta, omega = weights.kernel_size
    out_h = x.shape[1] - eta + 1
    out_w = x.shape[2] - omega + 1
    joined = np.concatenate([weights.theta_z.weights, weights.theta_x.weights], axis=1)
    out = np.empty((weights.out_channels, out_h, out_w), dtype=DTYPE)
    for i in range(out_h):
        for j in range(out_w):
            window = x[:, i : i + eta, j : j + omega]
            stacked = np.concatenate([z, window], axis=0)
            out[:, i, j] = conv2d_valid(stacked, joined)[:, 0, 0]
    return out


def acm_cache_template(template, weights: FusionWeights, box=None) -> TemplateCache:
    """Precompute the search-independent terms for one template.

    Raises:
        MissingBoxError: weights carry a prior branch but box is None.
        NonFiniteMapError: the template holds a NaN or infinite value.
        ShapeMismatchError: box is not exactly two real numbers (width, height);
            strings, bytes and ragged nestings count as malformed.
        NonPositiveBoxError: box width or height is not a positive finite number.
    """
    z_term = conv2d_valid(_check_template(template, weights), weights.theta_z)
    prior_term = None
    if weights.prior is not None:
        if box is None:
            raise MissingBoxError("weights carry a prior branch; a box is required")
        try:  # np.asarray raises ValueError on a ragged box such as ((1, 2), 3)
            sides = np.asarray(box)
            if sides.shape != (2,) or sides.dtype.kind not in "iuf":
                raise ValueError
        except ValueError:
            raise ShapeMismatchError(
                f"box must be two real numbers (width, height), got {box!r}"
            ) from None
        box_w, box_h = (float(side) for side in sides)
        if not all(0 < side < np.inf for side in (box_w, box_h)):
            raise NonPositiveBoxError(f"box sides must be positive and finite: {box}")
        scaled = np.array(
            [box_w / weights.box_scale, box_h / weights.box_scale], dtype=DTYPE
        )
        prior_term = mlp3_forward(scaled, weights.prior).reshape(-1, 1, 1)
    elif box is not None:
        raise ValueError("a box was given but the weights have no prior branch")
    return TemplateCache(z_term=z_term, prior_term=prior_term)


def acm_apply_search(
    cache: TemplateCache, search, weights: FusionWeights, apply_relu: bool = True
) -> np.ndarray:
    """Fuse a cached template with one search map.

    Runs exactly one convolution (the search side). The cached terms, the
    configured norm and the activation then run in float64 on one buffer,
    per channel, and round to float32 once at the end.
    """
    x = _check_search(search, weights)
    if cache.out_channels != weights.out_channels:
        raise ShapeMismatchError(
            f"cache holds {cache.out_channels} channels, weights produce "
            f"{weights.out_channels}"
        )
    if (cache.prior_term is None) != (weights.prior is None):
        raise ShapeMismatchError("cache and weights disagree about the prior branch")
    out = conv2d_valid(x, weights.theta_x).astype(np.float64)
    bias = cache.z_term.astype(np.float64)
    if cache.prior_term is not None:
        bias += cache.prior_term
    norm = weights.norm
    if norm is not None and not weights.norm_after_relu:
        scale, shift = norm.scale_shift()
        # norm(conv + bias) = conv * scale + (bias * scale + shift)
        out *= scale
        out += bias * scale + shift
    else:
        out += bias
    if apply_relu:
        np.maximum(out, 0.0, out=out)
    if norm is not None and weights.norm_after_relu:
        scale, shift = norm.scale_shift()
        out *= scale
        out += shift
    return out.astype(DTYPE)


def acm_forward(
    template, search, weights: FusionWeights, box=None, apply_relu: bool = True
) -> np.ndarray:
    """Decomposed fusion in one call: cache the template, then apply.

    Matches :func:`naive_concat_corr` (with ``apply_relu=False`` and no
    prior branch) up to the float32 rounding of the two convolutions and
    of the sum.
    """
    cache = acm_cache_template(template, weights, box)
    return acm_apply_search(cache, search, weights, apply_relu)
