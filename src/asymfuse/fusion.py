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
The template convolution rounds to float32 once, when it is cached. The
search convolution does not: the cached terms, the prior, the optional
batch norm (always before the ReLU) and the ReLU run as one per-channel
epilogue on its float64 accumulator, which rounds to float32 once.

The optional prior branch feeds (box width, box height), divided by
:data:`BOX_SCALE` (255, SiamFC's search-image side), through a 3-layer
FC net into one extra bias per output channel. Inputs are checked by the
package's shared helpers: a template or search map of the wrong rank or
size raises ShapeMismatchError (a RankError is one), a search map
smaller than the kernels KernelTooLargeError, and a NaN or infinite map
or weight, or a term or response beyond float32, NonFiniteMapError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingBoxError, NonFiniteMapError, NonPositiveBoxError, ShapeMismatchError
from .nn import (
    BatchNormParams, ConvKernel, FcLayer, _check_fit, _mlp3_layers, conv2d_valid, mlp3_forward,
)
from .tensor import DTYPE, _as_map, _check_finite, _read_only

BOX_SCALE = 255.0


@dataclass(frozen=True, eq=False)
class FusionWeights:
    """Everything the fusion op learns.

    ``theta_z`` and ``theta_x`` must have identical shapes; their shared
    output-channel count fixes the response depth. ``prior``, when
    present, is the 3-layer FC stack of the box branch: it takes the two
    box sides, each layer's width chains into the next and it ends in that
    same channel count (else ShapeMismatchError); a box must then
    accompany every template. The weights keep the layers they are given,
    which own read-only copies of their arrays, as the kernels and ``norm``
    do. ``norm`` optionally batch-normalizes the summed response before
    the ReLU.
    """

    theta_z: ConvKernel
    theta_x: ConvKernel
    prior: tuple[FcLayer, FcLayer, FcLayer] | None = None
    norm: BatchNormParams | None = None

    def __post_init__(self):
        if self.theta_z.weights.shape != self.theta_x.weights.shape:
            raise ShapeMismatchError(
                f"kernel shapes differ: {self.theta_z.weights.shape} "
                f"vs {self.theta_x.weights.shape}"
            )
        if self.prior is not None:
            layers = _mlp3_layers(self.prior)
            widths = (2, *(layer.weights.shape[0] for layer in layers))  # out x in weights
            for i, layer in enumerate(layers):
                if layer.weights.shape[1] != widths[i]:
                    raise ShapeMismatchError(f"prior layer {i + 1} takes {layer.weights.shape[1]} "
                                             f"inputs, expected {widths[i]}")
            if widths[3] != self.out_channels:
                raise ShapeMismatchError(f"prior branch ends in {widths[3]} features, kernels "
                                         f"produce {self.out_channels} channels")
            object.__setattr__(self, "prior", layers)
        if self.norm is not None and self.norm.channels != self.out_channels:
            raise ShapeMismatchError(
                f"norm describes {self.norm.channels} channels, "
                f"kernels produce {self.out_channels}"
            )

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
    """Search-independent half of the fusion: z term plus optional prior.

    Both terms are read-only float32 copies the cache owns, so a later
    write cannot reach a response, and must be finite (NonFiniteMapError).
    """

    z_term: np.ndarray
    prior_term: np.ndarray | None = None

    def __post_init__(self):
        z = _as_map(_read_only(self.z_term, "z_term"), "z_term")
        if z.shape[1:] != (1, 1):
            raise ShapeMismatchError(f"z_term must be P x 1 x 1, got {z.shape}")
        object.__setattr__(self, "z_term", z)
        if self.prior_term is not None:
            p = _read_only(self.prior_term, "prior_term")
            if p.shape != z.shape:
                raise ShapeMismatchError(
                    f"prior term {p.shape} does not match z term {z.shape}"
                )
            object.__setattr__(self, "prior_term", p)

    @property
    def out_channels(self) -> int:
        return self.z_term.shape[0]


def _check_template(template, weights: FusionWeights) -> np.ndarray:
    z = _as_map(template, "template")
    if z.shape != weights.theta_z.weights.shape[1:]:
        raise ShapeMismatchError(
            f"template {z.shape} does not match kernels "
            f"{weights.theta_z.weights.shape[1:]}"
        )
    return _check_finite(z, "template")


def _check_search(search, weights: FusionWeights) -> np.ndarray:
    x = _as_map(search, "search map")
    _check_fit(x, weights.in_channels, *weights.kernel_size)
    return _check_finite(x, "search map")


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
        NonFiniteMapError: a NaN or infinite template, or a z or prior term beyond float32.
        ShapeMismatchError: box is not exactly two real numbers (width, height);
            strings, bytes and ragged nestings count as malformed.
        NonPositiveBoxError: box width or height is not positive, or, divided
            by BOX_SCALE, exceeds the float32 range (NaN and inf included).
    """
    z = _check_template(template, weights)
    scaled = prior_term = None
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
        box_w, box_h = (float(side) / BOX_SCALE for side in sides)
        if not all(0 < side <= float(np.finfo(DTYPE).max) for side in (box_w, box_h)):
            raise NonPositiveBoxError(f"box sides must be positive, and finite in "
                                      f"float32 once divided by {BOX_SCALE:g}: {box}")
        scaled = np.array([box_w, box_h], dtype=DTYPE)
    elif box is not None:
        raise ValueError("a box was given but the weights have no prior branch")
    try:  # under the default error state, a cast beyond float32 only warns
        with np.errstate(over="raise"):
            z_term = conv2d_valid(z, weights.theta_z)
            if scaled is not None:
                prior_term = mlp3_forward(scaled, weights.prior).reshape(-1, 1, 1)
    except FloatingPointError:
        raise NonFiniteMapError("the z term or the prior term exceeds the float32 range") from None
    return TemplateCache(z_term=z_term, prior_term=prior_term)


def acm_apply_search(
    cache: TemplateCache, search, weights: FusionWeights, apply_relu: bool = True
) -> np.ndarray:
    """Fuse a cached template with one search map.

    Runs exactly one convolution (the search side). The cached terms, the
    norm (folded into a per-channel scale and bias) and the activation
    are its ``epilogue``: they run on the conv's float64 accumulator, and
    the response rounds to float32 once; a response beyond the float32
    range raises NonFiniteMapError.
    """
    x = _check_search(search, weights)
    if cache.out_channels != weights.out_channels:
        raise ShapeMismatchError(
            f"cache holds {cache.out_channels} channels, weights produce "
            f"{weights.out_channels}"
        )
    if (cache.prior_term is None) != (weights.prior is None):
        raise ShapeMismatchError("cache and weights disagree about the prior branch")
    bias = cache.z_term.astype(np.float64).reshape(-1)
    if cache.prior_term is not None:
        bias += cache.prior_term.reshape(-1)
    scale = None
    if weights.norm is not None:
        scale, shift = weights.norm.scale.reshape(-1), weights.norm.shift.reshape(-1)
        # norm(conv + bias) = conv * scale + (bias * scale + shift)
        bias = bias * scale + shift
    return conv2d_valid(x, weights.theta_x, epilogue=(scale, bias, apply_relu))


def _acm_block(ops, x, theta_x, prior_in=None, prior_layers=None, z=None, theta_z=None,
               norm=None):
    """relu([norm](theta_x*x [+ theta_z*z] [+ reshape(mlp3(prior_in), P x 1 x 1)])) in ``ops``
    (``autograd`` or ``plain``), ``norm`` being (gamma, beta, running mean, running variance):
    the block's one composition, for the tape and the toy model; acm_forward rounds it just once."""
    out = ops.conv2d(x, theta_x)
    if z is not None:
        out = ops.add(out, ops.conv2d(z, theta_z))
    if prior_in is not None:
        out = ops.add(out, ops.reshape(ops.mlp3(prior_in, prior_layers), (-1, 1, 1)))
    if norm is not None:
        out = ops.batchnorm(out, *norm)
    return ops.relu(out)


def acm_forward(
    template, search, weights: FusionWeights, box=None, apply_relu: bool = True
) -> np.ndarray:
    """Decomposed fusion in one call: cache the template, then apply.

    Matches :func:`naive_concat_corr` (with ``apply_relu=False`` and no
    prior branch) up to the float32 rounding of the template convolution
    and of the response.
    """
    cache = acm_cache_template(template, weights, box)
    return acm_apply_search(cache, search, weights, apply_relu)
