"""Central-difference verification of every differentiable op.

Each case is one row of a table: the shapes of its parameters and
constants, a taped forward up to the final reduction, and that reduction
(a constant projection, or cross-entropy over a class count). Analytic
gradients come from ``autograd.backward`` on the taped loss. The function
handed to finite differences runs the same taped forward again and reduces
its value in float64; the tape computes values with the plain ``nn`` and
``tensor`` functions, so this is the untaped forward too.

Values are redrawn until every ReLU input on the tape sits at least the
kink margin away from 0; the derivative there is not defined by a limit
and central differences would disagree by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autograd as ag
from . import fusion
from . import tensor as T

# Default difference step and relative-error bound, here and in ``asymfuse gradcheck``.
EPS = 1e-2
TOL = 1e-2


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one (op, parameter) comparison."""

    op: str
    param: str
    rel_error: float
    passed: bool


@dataclass(frozen=True)
class _Case:
    name: str
    params: dict            # name -> shape; one comparison each, in this order
    consts: dict            # name -> shape; inputs that receive no gradient
    forward: Callable       # {name: Node} -> Node before the final reduction
    reduce: tuple | int     # projection shape, or class count for cross-entropy


def _layers(n, prefix):
    return [(n[f"{prefix}w{i}"], n[f"{prefix}b{i}"]) for i in (1, 2, 3)]


def _norm(n):  # running statistics from the drawn constants: mean in +-0.5, var in [0.5, 1.5]
    return n["gamma"], n["beta"], 0.5 * n["mean"].value, 1.0 + 0.5 * n["var"].value


def _mlp3_shapes(dims, prefix=""):  # w1, b1, w2, b2, w3, b3
    return {f"{prefix}{kind}{i}": shape for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]), 1)
            for kind, shape in (("w", (d_out, d_in)), ("b", (d_out,)))}


_CASES = (
    _Case("broadcast_add", {"a": (3, 1, 1), "b": (3, 4, 4)}, {},
          lambda n: ag.add(n["a"], n["b"]), (3, 4, 4)),
    _Case("relu", {"x": (4, 5)}, {}, lambda n: ag.relu(n["x"]), (4, 5)),
    _Case("conv2d", {"x": (2, 5, 5), "kernel": (3, 2, 3, 3)}, {},
          lambda n: ag.conv2d(n["x"], n["kernel"]), (3, 3, 3)),
    _Case("head1x1", {"x": (3, 4, 4), "kernel": (2, 3, 1, 1)}, {},
          lambda n: ag.head1x1(n["x"], n["kernel"]), (2, 4, 4)),
    _Case("depthwise_corr", {"search": (3, 6, 6), "template": (3, 3, 3)}, {},
          lambda n: ag.depthwise(n["search"], n["template"]), (3, 4, 4)),
    _Case("xcorr", {"search": (2, 5, 5), "template": (2, 2, 2)}, {},
          lambda n: ag.xcorr(n["search"], n["template"]), (1, 4, 4)),
    _Case("affine", {"x": (4,), "weights": (3, 4), "bias": (3,)}, {},
          lambda n: ag.affine(n["x"], n["weights"], n["bias"]), (3,)),
    _Case("mlp3", {"x": (3,), **_mlp3_shapes((3, 5, 4, 2))}, {},
          lambda n: ag.mlp3(n["x"], _layers(n, "")), (2,)),
    _Case("batchnorm_infer", {"x": (3, 4, 4), "gamma": (3,), "beta": (3,)},
          {"mean": (3,), "var": (3,)}, lambda n: ag.batchnorm(n["x"], *_norm(n)), (3, 4, 4)),
    _Case("softmax_xent", {"logits": (5,)}, {}, lambda n: n["logits"], 5),
    _Case("acm_block",
          {"theta_z": (3, 2, 2, 2), "theta_x": (3, 2, 2, 2),
           **_mlp3_shapes((2, 4, 4, 3), "prior_"), "gamma": (3,), "beta": (3,)},
          {"template": (2, 2, 2), "search": (2, 4, 4), "feats": (2,), "mean": (3,), "var": (3,)},
          lambda n: ag.mean_pool(fusion._acm_block(
              ag, n["search"], n["theta_x"], n["feats"], _layers(n, "prior_"),
              n["template"], n["theta_z"], _norm(n))), 3),
    # One kernel read by two ops, as SiamFC's one backbone embeds template and search.
    _Case("shared_kernel", {"kernel": (3, 2, 2, 2)},
          {"template": (2, 4, 4), "search": (2, 6, 6)},
          lambda n: ag.xcorr(ag.conv2d(n["search"], n["kernel"]),
                             ag.conv2d(n["template"], n["kernel"])), (1, 3, 3)),
)


def _rel_error(analytic, numeric) -> float:
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1e-8)
    return float(np.abs(analytic.astype(np.float64) - numeric).max(initial=0.0) / scale)


def _uniform(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape).astype(T.DTYPE)


def _forward(case: _Case, params, consts):
    """(tape, output node) of one taped run of the case's forward."""
    tape = ag.Tape()
    nodes = {name: tape.parameter(p) for name, p in params.items()}
    nodes.update((name, tape.constant(value)) for name, value in consts.items())
    return tape, case.forward(nodes)


def _loss_f64(out: ag.Node, target) -> float:
    """The final reduction of ``out`` in float64, as finite differences see it."""
    z = out.value.astype(np.float64)
    if isinstance(target, int):
        shifted = z - z.max()
        return float(np.log(np.exp(shifted).sum()) - shifted[target])
    return float((z * target).sum())


def _draw(case: _Case, rng, margin: float):
    """Inputs and reduction target with every ReLU input clear of its kink."""
    for _ in range(64):
        params = {name: ag.Parameter(_uniform(rng, shape), name)
                  for name, shape in case.params.items()}
        consts = {name: _uniform(rng, shape) for name, shape in case.consts.items()}
        target = (int(rng.integers(0, case.reduce)) if isinstance(case.reduce, int)
                  else rng.uniform(-1.0, 1.0, size=case.reduce))
        tape, _ = _forward(case, params, consts)
        if all(np.abs(node.parents[0].value).min() >= margin
               for node in tape.nodes if node.op == "relu"):
            return params, consts, target
    raise RuntimeError(f"could not draw a {case.name} instance clear of ReLU kinks")


def gradient_check_suite(seed: int = 0, eps: float = EPS, tol: float = TOL,
                         inject_error: bool = False) -> list[CheckResult]:
    """Compare analytic and central-difference gradients for every op.

    ``inject_error`` corrupts one analytic gradient on purpose, as a
    negative control that the comparison can actually fail.
    """
    T._check_positive(eps, "eps")
    T._check_positive(tol, "tol")
    margin = max(0.05, 4.0 * eps)
    streams = np.random.SeedSequence(seed).spawn(len(_CASES))
    results = []
    corrupt = inject_error
    for case, stream in zip(_CASES, streams):
        params, consts, target = _draw(case, np.random.default_rng(stream), margin)
        tape, out = _forward(case, params, consts)
        loss = ag.softmax_xent if isinstance(target, int) else ag.weighted_sum
        ag.backward(tape, loss(out, target))
        analytic = {name: p.grad.copy() for name, p in params.items()}

        def loss_f64():
            return _loss_f64(_forward(case, params, consts)[1], target)

        for name, p in params.items():
            numeric = ag.finite_diff_grad(loss_f64, p, eps)
            reference = analytic[name]
            if corrupt:
                reference = reference + (0.25 * max(np.abs(numeric).max(), 1.0))
                corrupt = False
            rel = _rel_error(reference, numeric)
            results.append(CheckResult(case.name, name, rel, rel <= tol))
    return results
