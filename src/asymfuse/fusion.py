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
search convolution does not: the optional batch norm (always before the
ReLU) has its scale folded into the search operand, the cached terms, the
prior and its shift are the conv's bias, and the ReLU follows its rounding.

The optional prior branch feeds (box width, box height), divided by
:data:`BOX_SCALE` (255, SiamFC's search-image side) by :func:`_prior_input`,
through a 3-layer FC net into one extra bias per output channel. Each part of
:class:`FusionWeights` is its struct or the raw form that :func:`_acm_block`,
the taped block, takes under the same keyword. Inputs are checked by the
package's shared helpers: a template or search map of the wrong rank or
size raises ShapeMismatchError (a RankError is one), a search map
smaller than the kernels KernelTooLargeError, and a NaN or infinite map
or weight, or (by one guard) a term or response beyond float32, NonFiniteMapError.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from .errors import MissingBoxError, NonFiniteMapError, NonPositiveBoxError, ShapeMismatchError
from .nn import (
    BatchNormParams, ConvKernel, FcLayer, _check_fit, _fc_arrays, _mlp3_layers, _ScaledKernel,
    conv2d_valid, mlp3_forward,
)
from .tensor import DTYPE, _as_map, _check_bool, _check_finite, _read_only

BOX_SCALE = 255.0


@dataclass(frozen=True, eq=False)
class FusionWeights:
    """Everything the fusion op learns.

    Each field is its struct, kept as given, or the raw form :func:`_acm_block`
    takes, wrapped once: a kernel array, three ``(weights, bias)`` pairs, and
    ``(gamma, beta, running_mean, running_var)`` with the tape's eps, 1e-5.
    Every struct owns read-only copies of its arrays. ``theta_z`` and
    ``theta_x`` must have identical shapes; their shared output-channel count
    fixes the response depth. ``prior``, when present, is the 3-layer FC stack
    of the box branch: it takes the two box sides, each layer's width chains
    into the next and it ends in that same channel count (else
    ShapeMismatchError); a box must then accompany every template. ``norm``
    optionally batch-normalizes the summed response before the ReLU.
    """

    theta_z: ConvKernel
    theta_x: ConvKernel
    prior: tuple[FcLayer, FcLayer, FcLayer] | None = None
    norm: BatchNormParams | None = None

    def __post_init__(self):
        for name in ("theta_z", "theta_x"):
            if not isinstance(getattr(self, name), ConvKernel):
                object.__setattr__(self, name, ConvKernel(getattr(self, name)))
        if self.theta_z.weights.shape != self.theta_x.weights.shape:
            raise ShapeMismatchError(
                f"kernel shapes differ: {self.theta_z.weights.shape} "
                f"vs {self.theta_x.weights.shape}"
            )
        if self.prior is not None:
            layers = tuple(layer if isinstance(layer, FcLayer) else FcLayer(*_fc_arrays(layer))
                           for layer in _mlp3_layers(self.prior))
            widths = (2, *(layer.weights.shape[0] for layer in layers))  # out x in weights
            for i, layer in enumerate(layers):
                if layer.weights.shape[1] != widths[i]:
                    raise ShapeMismatchError(f"prior layer {i + 1} takes {layer.weights.shape[1]} "
                                             f"inputs, expected {widths[i]}")
            if widths[3] != self.out_channels:
                raise ShapeMismatchError(f"prior branch ends in {widths[3]} features, kernels "
                                         f"produce {self.out_channels} channels")
            object.__setattr__(self, "prior", layers)
        if self.norm is not None and not isinstance(self.norm, BatchNormParams):
            gamma, beta, mean, var = self.norm if np.iterable(self.norm) else ()  # else ValueError
            object.__setattr__(self, "norm", BatchNormParams(gamma, beta, mean, var))
        if self.norm is not None and self.norm.channels != self.out_channels:
            raise ShapeMismatchError(
                f"norm describes {self.norm.channels} channels, "
                f"kernels produce {self.out_channels}"
            )

    @functools.cached_property
    def _search_kernel(self) -> ConvKernel:
        """theta_x with the norm's per-channel scale folded into its float64 operands."""
        return self.theta_x if self.norm is None else _ScaledKernel(self.theta_x,
                                                                    self.norm.scale.reshape(-1))

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


def _prior_input(box) -> np.ndarray:
    """The one box rule: (width, height) / BOX_SCALE as float32, or acm_cache_template's errors."""
    try:  # np.asarray raises ValueError on a ragged box such as ((1, 2), 3)
        sides = np.asarray(box)
        if (sides.shape != (2,) or sides.dtype.kind not in "iuf"
                or any(np.asarray(side).dtype.kind == "b" for side in box)):
            raise ValueError
    except ValueError:
        raise ShapeMismatchError(f"box must be two real numbers (width, height), "
                                 f"got {box!r}") from None
    scaled = [float(side) / BOX_SCALE for side in sides]
    if not all(0 < side <= float(np.finfo(DTYPE).max) for side in scaled):
        raise NonPositiveBoxError(f"box sides must be positive, and finite in "
                                  f"float32 once divided by {BOX_SCALE:g}: {box}")
    return np.array(scaled, dtype=DTYPE)


@contextlib.contextmanager
def _within_float32(what: str):
    """The body under ``over="raise"``; an overflow raises NonFiniteMapError naming ``what``."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise NonFiniteMapError(f"{what} exceeds the float32 range") from None


def acm_cache_template(template, weights: FusionWeights, box=None) -> TemplateCache:
    """Precompute the search-independent terms for one template.

    Raises:
        MissingBoxError: weights carry a prior branch but box is None.
        NonFiniteMapError: a NaN or infinite template, or a z or prior term beyond float32.
        ShapeMismatchError: box is not exactly two real numbers (width, height);
            bools, strings, bytes and ragged nestings count as malformed.
        NonPositiveBoxError: box width or height is not positive, or, divided
            by BOX_SCALE, exceeds the float32 range (NaN and inf included).
    """
    z = _check_template(template, weights)
    prior_in = prior_term = None
    if weights.prior is not None:
        if box is None:
            raise MissingBoxError("weights carry a prior branch; a box is required")
        prior_in = _prior_input(box)
    elif box is not None:
        raise ValueError("a box was given but the weights have no prior branch")
    with _within_float32("the z term or the prior term"):
        z_term = conv2d_valid(z, weights.theta_z)
        if prior_in is not None:
            prior_term = mlp3_forward(prior_in, weights.prior).reshape(-1, 1, 1)
    return TemplateCache(z_term=z_term, prior_term=prior_term)


def acm_apply_search(
    cache: TemplateCache, search, weights: FusionWeights, apply_relu: bool = True
) -> np.ndarray:
    """Fuse a cached template with one search map.

    Runs exactly one convolution (the search side), on ``theta_x`` with the
    norm's scale folded into its float64 operand, which the weights build on
    their first search and keep. The cached terms, the norm's shift and the
    activation are its ``epilogue``: the response rounds to float32 once, then
    the ReLU runs. As for the cached terms, a response beyond float32 raises
    NonFiniteMapError; a non-bool ``apply_relu`` raises ValueError.
    """
    apply_relu = _check_bool(apply_relu, "apply_relu")
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
    if weights.norm is not None:
        # norm(conv + bias) = conv * scale + (bias * scale + shift); the scale is in the operand
        bias = bias * weights.norm.scale.reshape(-1) + weights.norm.shift.reshape(-1)
    with _within_float32("the fused response"):
        return conv2d_valid(x, weights._search_kernel, epilogue=(bias, apply_relu))


def _acm_block(ops, x, theta_x, prior_in=None, prior=None, z=None, theta_z=None, norm=None):
    """relu([norm](theta_x*x [+ theta_z*z] [+ reshape(mlp3(prior_in), P x 1 x 1)])) in ``ops``
    (``autograd`` or ``plain``), ``norm`` being (gamma, beta, running mean, running variance):
    the block's one composition, for the tape and the toy model; acm_forward rounds it just once."""
    out = ops.conv2d(x, theta_x)
    if z is not None:
        out = ops.add(out, ops.conv2d(z, theta_z))
    if prior_in is not None:
        out = ops.add(out, ops.reshape(ops.mlp3(prior_in, prior), (-1, 1, 1)))
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
