"""Reverse-mode differentiation over the library's forward ops.

A :class:`Tape` records one :class:`Node` per op in execution order,
which for a forward pass is already a topological order. ``backward``
walks the tape once in reverse, accumulating float64 adjoints on the
nodes, one leaf per :class:`Parameter` however many ops read it, then writes
each parameter's float32 gradient once. Graphs are rebuilt each forward pass;
nodes alias the parameter arrays, so a tape must not outlive an ``sgd_step``.

Forward values are computed by the same functions the inference paths
use (``nn``, ``tensor``), so a taped forward is bitwise identical to an
untaped one.

The correlation ops (conv2d, head1x1, xcorr, depthwise) share one adjoint,
``_conv_backward``. For a P x C x kh x kw kernel and output gradient g, the
kernel adjoint is the GEMM ``g @ im2col(x).T`` on the float64 patch matrix that
the forward multiplied and the node keeps; the input adjoint, with no col2im, is
the GEMM of the flipped kernel (input and output channels swapped) on the patches
of g zero-padded by (kh-1, kw-1) per side. xcorr is the conv with kernel z[None];
depthwise is the grouped case, C groups of one channel each, so both GEMMs run
per group. A constant operand (an input image) gets no adjoint.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import nn
from . import tensor as T
from .errors import (
    DisconnectedLossError,
    LabelOutOfRangeError,
    NonScalarLossError,
    ShapeMismatchError,
)


class Parameter:
    """A trainable float32 tensor and its gradient; ``value`` is updated in place, never rebound."""

    def __init__(self, value, name: str):
        self.value = T.as_tensor(value)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Node:
    """One tape entry: value, parents, and how to push adjoints back.

    A leaf pushes nothing back; the tape's leaf table knows its Parameter. A node
    holds its tape by the one weakref the tape shares (the tape holds its nodes),
    so a dropped tape is freed by reference counting, not by the cycle collector.
    """

    __slots__ = ("_tape", "op", "value", "parents", "grad", "backward_fn")

    def __init__(self, tape, op, value, parents=(), backward_fn=None):
        self._tape = tape._ref
        self.op = op
        self.value = value
        self.parents = tuple(parents)
        self.grad = None
        self.backward_fn = backward_fn
        tape.nodes.append(self)

    @property
    def tape(self) -> Tape:
        tape = self._tape()
        if tape is None:
            raise DisconnectedLossError(f"the tape of this {self.op} node was dropped")
        return tape


class Tape:
    """Append-only op record, append order doubling as topological order, and a
    leaf table: one leaf per Parameter, keyed by identity, in first-use order."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._leaves: dict[Parameter, Node] = {}
        self._ref = weakref.ref(self)

    def constant(self, value) -> Node:
        """A leaf that receives no gradient."""
        return Node(self, "const", T.as_tensor(value))

    def parameter(self, p: Parameter) -> Node:
        """``p``'s one leaf on this tape, made on first use; backward() writes ``p.grad``."""
        leaf = self._leaves.get(p)
        if leaf is None:
            leaf = self._leaves[p] = Node(self, "param", p.value)
        return leaf


def _accum(node: Node, delta) -> None:
    if node.grad is None:
        node.grad = np.zeros(node.value.shape, dtype=np.float64)
    node.grad += delta


def _sum_to_shape(grad, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Node, b: Node) -> Node:
    """Broadcast addition."""
    value = T.broadcast_add(a.value, b.value)

    def backward_fn(grad):
        _accum(a, _sum_to_shape(grad, a.value.shape))
        _accum(b, _sum_to_shape(grad, b.value.shape))

    return Node(a.tape, "add", value, (a, b), backward_fn)


def relu(x: Node) -> Node:
    """Elementwise max(x, 0); the derivative at exactly 0 is 0."""
    value = T.relu(x.value)
    mask = value > 0

    def backward_fn(grad):
        _accum(x, grad * mask)

    return Node(x.tape, "relu", value, (x,), backward_fn)


def _conv_backward(x: Node, k: Node, grad, patches) -> None:
    """Adjoints of a grouped valid correlation as two GEMMs on im2col patches.

    Output and input channels split into G equal groups, and group g's
    outputs see only group g's inputs. G follows from the shapes: conv2d
    and head1x1 are one group, so is xcorr (``k`` rank 3, taken as
    ``k[None]``), and depthwise is C groups of one channel each. ``patches``
    is the forward's patch matrix of x. Constant operands get no adjoint.
    """
    kh, kw = k.value.shape[-2:]
    out_ch, out_h, out_w = grad.shape
    channels, height, width = x.value.shape
    groups = out_ch * channels * kh * kw // k.value.size
    if k.op != "const":
        g = grad.reshape(groups, out_ch // groups, -1)
        patches = patches.reshape(groups, -1, out_h * out_w)
        _accum(k, (g @ patches.transpose(0, 2, 1)).reshape(k.value.shape))
    if x.op != "const":
        w = k.value.reshape(groups, out_ch // groups, channels // groups, kh, kw)
        flipped = w[..., ::-1, ::-1].transpose(0, 2, 1, 3, 4).astype(np.float64, order="C")
        padded = np.zeros((out_ch, out_h + 2 * kh - 2, out_w + 2 * kw - 2))
        padded[:, kh - 1 : kh - 1 + out_h, kw - 1 : kw - 1 + out_w] = grad
        cols = nn.im2col(padded, kh, kw).reshape(groups, -1, height * width)
        adjoint = flipped.reshape(groups, channels // groups, -1) @ cols
        _accum(x, adjoint.reshape(x.value.shape))


def _correlation(op: str, forward, x: Node, k: Node) -> Node:
    """Record ``forward(x, k)``, keeping its patch matrix for ``_conv_backward``."""
    patches = []
    value = forward(x.value, k.value, patches=patches)
    return Node(x.tape, op, value, (x, k), lambda grad: _conv_backward(x, k, grad, patches[0]))


def conv2d(x: Node, k: Node) -> Node:
    """Valid cross-correlation; kernel node is rank 4."""
    return _correlation("conv2d", nn.conv2d_valid, x, k)


def head1x1(x: Node, k: Node) -> Node:
    """1x1 convolution head (a conv2d with unit spatial extent)."""
    return _correlation("head1x1", nn.head1x1, x, k)


def depthwise(x: Node, z: Node) -> Node:
    """Channel-wise valid cross-correlation of search x with template z."""
    return _correlation("depthwise", nn.depthwise_corr, x, z)


def xcorr(x: Node, z: Node) -> Node:
    """All-channel valid cross-correlation, single-channel output."""
    return _correlation("xcorr", nn.xcorr, x, z)


def affine(x: Node, w: Node, b: Node) -> Node:
    """Fully connected layer w @ x + b on a rank-1 input."""
    value = nn.fc_forward(x.value, (w.value, b.value))

    def backward_fn(grad):
        x64 = x.value.astype(np.float64)
        _accum(w, grad[:, None] * x64)
        _accum(b, grad)
        _accum(x, w.value.astype(np.float64).T @ grad)

    return Node(x.tape, "affine", value, (x, w, b), backward_fn)


def mlp3(x: Node, layers) -> Node:
    """Three affine layers with ReLU after the first two."""
    for i, (w, b) in enumerate(nn._mlp3_layers(layers)):
        x = affine(relu(x) if i else x, w, b)
    return x


def batchnorm(x: Node, gamma: Node, beta: Node, running_mean, running_var) -> Node:
    """Inference-time batch norm; running statistics are constants, all checked per call."""
    fold = nn._batchnorm_fold(gamma.value, beta.value, running_mean, running_var)
    value = nn.batchnorm_infer(x.value, fold)
    centered = (x.value.astype(np.float64) - fold.running_mean[:, None, None]) * fold.inv_std

    def backward_fn(grad):
        _accum(x, grad * fold.scale)
        _accum(gamma, (grad * centered).sum(axis=(1, 2)))
        _accum(beta, grad.sum(axis=(1, 2)))

    return Node(x.tape, "batchnorm", value, (x, gamma, beta), backward_fn)


def mean_pool(x: Node) -> Node:
    """Global average pool: C x H x W down to a length-C vector."""
    value = nn.global_avg_pool(x.value)
    area = x.value.shape[1] * x.value.shape[2]

    def backward_fn(grad):
        _accum(x, grad[:, None, None] / area)  # _accum's += broadcasts it over H x W

    return Node(x.tape, "mean_pool", value, (x,), backward_fn)


def reshape(x: Node, shape) -> Node:
    """View the same values under a new shape."""
    value = x.value.reshape(shape)

    def backward_fn(grad):
        _accum(x, grad.reshape(x.value.shape))

    return Node(x.tape, "reshape", value, (x,), backward_fn)


def weighted_sum(x: Node, weights) -> Node:
    """Scalar projection sum(x * weights) with constant weights."""
    w64 = np.asarray(weights, dtype=np.float64)
    if w64.shape != x.value.shape:
        raise ShapeMismatchError(
            f"projection weights {w64.shape} do not match value {x.value.shape}"
        )
    value = np.float32((x.value.astype(np.float64) * w64).sum())

    def backward_fn(grad):
        _accum(x, float(grad) * w64)

    return Node(x.tape, "weighted_sum", np.asarray(value), (x,), backward_fn)


def softmax_xent(logits: Node, label: int) -> Node:
    """Cross-entropy of softmax(logits) against an integer label.

    Stabilized by subtracting the max logit before exponentiation.
    LabelOutOfRangeError unless ``label`` is an integer in [0, len(logits)).
    """
    if logits.value.ndim != 1:
        raise ShapeMismatchError("logits must be a rank-1 vector")
    label = T._check_int(label, "label", 0, logits.value.shape[0], LabelOutOfRangeError)
    z = logits.value.astype(np.float64)
    shifted = z - z.max()
    log_norm = np.log(np.exp(shifted).sum())
    delta = np.exp(shifted - log_norm)  # softmax, minus the one-hot label below
    value = np.float32(log_norm - shifted[label])
    delta[label] -= 1.0

    def backward_fn(grad):
        _accum(logits, float(grad) * delta)

    return Node(logits.tape, "softmax_xent", np.asarray(value), (logits,), backward_fn)


def backward(tape: Tape, loss: Node) -> list[Parameter]:
    """Run reverse-mode accumulation from ``loss`` over the whole tape.

    Resets every node's gradient first. Each Parameter on the tape then gets its
    ``grad`` written once, 0 + float32(the float64 sum of its adjoints), never
    -0.0; one that no adjoint reaches, recorded after the loss or not, gets zero.
    Returns the parameters that received gradient, in first-use order.

    Raises:
        NonScalarLossError: loss holds more than one element.
        DisconnectedLossError: loss was not recorded on this tape.
    """
    if loss.value.size != 1:
        raise NonScalarLossError(f"loss has shape {loss.value.shape}")
    if loss._tape is not tape._ref:
        raise DisconnectedLossError("loss node is not on this tape")
    for node in tape.nodes:
        node.grad = None
    loss.grad = np.ones(loss.value.shape, dtype=np.float64)
    for node in reversed(tape.nodes):  # nodes after the loss hold no adjoint
        if node.grad is not None and node.backward_fn is not None:
            node.backward_fn(node.grad)
    for param, leaf in tape._leaves.items():
        param.grad[...] = 0 if leaf.grad is None else leaf.grad
        param.grad += np.float32(0)  # turns the cast's -0.0 into 0 + -0.0 = +0.0
    return [param for param, leaf in tape._leaves.items() if leaf.grad is not None]


def sgd_step(params, lr: float) -> None:
    """Plain SGD, in place: value -= lr * grad, ``lr`` positive and finite (else ValueError);
    grads stay as the last backward wrote them."""
    rate = np.float32(T._check_real(lr, "lr"))
    for p in params:
        p.value -= rate * p.grad


def finite_diff_grad(f, p: Parameter, eps: float) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. every entry of p.

    ``f`` must be a zero-argument callable that reads ``p.value``; each entry is
    nudged in place by +-eps around its stored value and restored (``eps`` positive
    and finite, else ValueError). Returns a float64 array shaped like ``p.value``.
    """
    eps = T._check_real(eps, "eps")
    base = p.value.copy()
    grad = np.zeros(base.shape, dtype=np.float64)
    for idx in np.ndindex(*base.shape):
        p.value[idx] = base[idx] + np.float32(eps)
        hi = float(f())
        p.value[idx] = base[idx] - np.float32(eps)
        lo = float(f())
        p.value[idx] = base[idx]
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad
