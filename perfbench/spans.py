"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of the library's layers (fusion, nn,
tensor, autograd, toytask) wherever callers look them up: module globals
that imported a name (``fusion.conv2d_valid``), the defining module
(``nn.conv2d_valid``) and the package namespace. Nothing inside ``src/`` is
edited; wrapping happens only between ``install()`` and ``uninstall()``.

Each span records (name, start_ns, end_ns, parent span index, op id). Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("fusion", "nn", "tensor", "autograd", "toytask")

# Argument coercion and shape checks called from nearly every op. Left
# unwrapped, their time stays in the caller's self time (validation), and
# the traced run records about half as many spans.
UNWRAPPED = {"tensor.as_tensor", "tensor.broadcast_shape"}

# autograd entry points that do not record a taped op.
_NOT_TAPED_OPS = {"autograd.backward", "autograd.sgd_step", "autograd.finite_diff_grad"}

OP = "op"


def _conv_shapes(args):
    """(C, H, W, P, kh, kw) of one conv2d_valid(inputs, kernel) call."""
    x = args[0]
    w = getattr(args[1], "weights", args[1])
    c, h, wd = x.shape
    p, _, kh, kw = w.shape
    return c, h, wd, p, kh, kw


def conv_counts(c, h, w, p, kh, kw):
    """Computed flop, im2col bytes and total bytes of one im2col conv.

    Bytes: the float32 input map and kernel read, the float64 patch matrix
    written once and read once by the GEMM, the float32 output written.
    They come from array sizes, not from cache counters.
    """
    positions = (h - kh + 1) * (w - kw + 1)
    depth = c * kh * kw
    flop = 2 * p * positions * depth
    im2col = 8 * positions * depth
    moved = 4 * c * h * w + 4 * p * depth + 2 * im2col + 4 * p * positions
    return flop, im2col, moved


class Tracer:
    """Wraps the layers of one imported ``asymfuse`` package."""

    def __init__(self, lib):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.conv_calls: list = []   # (op_id, C, H, W, P, kh, kw)
        self.tape_sizes: list = []   # (op_id, nodes on the tape at backward)
        self._patches = self._plan(lib)

    def _plan(self, lib):
        targets = {}
        for layer in LAYERS:
            module = getattr(lib, layer)
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and name not in UNWRAPPED):
                    targets[id(obj)] = (name, obj)
        for method in ("constant", "parameter"):
            obj = vars(lib.autograd.Tape)[method]
            targets[id(obj)] = (f"autograd.Tape.{method}", obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        prefix = lib.__name__ + "."
        owners = [m for n, m in list(sys.modules.items())
                  if n == lib.__name__ or n.startswith(prefix)]
        owners.append(lib.autograd.Tape)
        patches = []
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                key = id(obj)
                if key in targets and targets[key][1] is obj:
                    patches.append((owner, attr, obj, wrappers[key]))
        return patches

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self
        hook = {"nn.conv2d_valid": self._on_conv,
                "autograd.backward": self._on_backward}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op_id)
            if hook is not None:
                hook(args)
            return result

        return traced

    def _on_conv(self, args):
        self.conv_calls.append((self.op_id, *_conv_shapes(args)))

    def _on_backward(self, args):
        self.tape_sizes.append((self.op_id, len(args[0].nodes)))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def call_op(self, op_id, fn, arg):
        """Run one op under a top-level span; every layer span nests in it."""
        self.op_id = op_id
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(arg)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (OP, start, end, -1, op_id)
            self.op_id = -1

    def write(self, path, header):
        """One JSON header line, then one line per span:
        name index, start and end in ns from the first span, parent, op."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "names": names, "span_fields": [
                "name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            fh.writelines(f"{code[n]} {a - origin} {b - origin} {p} {o}\n"
                          for n, a, b, p, o in self.spans)

    def per_op_counts(self):
        """Per-op tuple of exact counts; every op of a workload should match."""
        by_op = defaultdict(list)
        for op_id, *shape in self.conv_calls:
            by_op[op_id].append(tuple(shape))
        for op_id, nodes in self.tape_sizes:
            by_op[op_id].append(("tape", nodes))
        ops = [s[4] for s in self.spans if s[0] == OP]
        return {tuple(by_op[o]) for o in ops}

    def layer_metrics(self):
        """Per-op layer metrics (see ``metric_map.json``) over traced ops."""
        spans = self.spans
        n_ops = sum(1 for s in spans if s[0] == OP)
        total = defaultdict(int)
        self_ns = defaultdict(int)
        child = [0] * len(spans)
        in_taped_op = [False] * len(spans)
        forward_ns = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            total[name] += dur
            if parent >= 0:
                child[parent] += dur
            # Taped ops nest (mlp3 calls affine): count only the outermost.
            outer = parent >= 0 and (in_taped_op[parent]
                                     or _is_taped_op(spans[parent][0]))
            in_taped_op[i] = outer
            if _is_taped_op(name) and not outer:
                forward_ns += dur
        for i, s in enumerate(spans):
            self_ns[s[0]] += (s[2] - s[1]) - child[i]

        def per_op_ms(ns):
            return ns / n_ops / 1e6

        flop = im2col = moved = 0
        for _, *shape in self.conv_calls:
            f, i2c, mv = conv_counts(*shape)
            flop, im2col, moved = flop + f, im2col + i2c, moved + mv
        conv_ns = total["nn.conv2d_valid"]
        return {
            "fusion.acm_apply_search.ms": per_op_ms(total["fusion.acm_apply_search"]),
            "fusion.acm_apply_search.self_ms": per_op_ms(self_ns["fusion.acm_apply_search"]),
            "fusion.acm_cache_template.ms": per_op_ms(total["fusion.acm_cache_template"]),
            "fusion.acm_cache_template.self_ms": per_op_ms(self_ns["fusion.acm_cache_template"]),
            "fusion.acm_forward.self_ms": per_op_ms(self_ns["fusion.acm_forward"]),
            "nn.conv2d_valid.ms": per_op_ms(conv_ns),
            "nn.conv2d_valid.calls": len(self.conv_calls) / n_ops,
            "nn.conv2d_valid.gflop": flop / n_ops / 1e9,
            "nn.conv2d_valid.im2col_mb": im2col / n_ops / 1e6,
            "nn.conv2d_valid.flop_per_byte": flop / moved if moved else 0.0,
            "nn.conv2d_valid.gflops": flop / conv_ns if conv_ns else 0.0,
            "nn.batchnorm_infer.ms": per_op_ms(total["nn.batchnorm_infer"]),
            "tensor.broadcast_add.ms": per_op_ms(total["tensor.broadcast_add"]),
            "tensor.relu.ms": per_op_ms(total["tensor.relu"]),
            "nn.mlp3_forward.ms": per_op_ms(total["nn.mlp3_forward"]),
            "autograd.forward.ms": per_op_ms(forward_ns),
            "autograd.conv2d.ms": per_op_ms(total["autograd.conv2d"]),
            "autograd.backward.ms": per_op_ms(total["autograd.backward"]),
            "autograd.sgd_step.ms": per_op_ms(total["autograd.sgd_step"]),
            "autograd.tape_nodes": sum(n for _, n in self.tape_sizes) / n_ops,
            "toytask.training_loss.self_ms": per_op_ms(self_ns["toytask.training_loss"]),
            "toytask.toy_forward.ms": per_op_ms(total["toytask.toy_forward"]),
            "toytask.fused_map.self_ms": per_op_ms(self_ns["toytask.fused_map"]),
            "op.unattributed_ms": per_op_ms(self_ns[OP]),
        }


def _is_taped_op(name):
    return name.startswith("autograd.") and name not in _NOT_TAPED_OPS
