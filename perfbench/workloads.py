"""The benchmark's four closed-loop workloads and their float64 references.

Each workload splits into:

- ``__init__``: inputs drawn from the seed by the benchmark (NumPy only);
- ``build(lib)``: the program's own set-up work, timed as ``setup_s``;
- ``gate()``: one-off checks before timing, which raise ``GateError``;
- ``arg(i)`` / ``op(arg)``: the input of op ``i`` and the timed call;
- ``check(arg, result)``: the per-op correctness check, run untimed,
  against float64 references computed once per input before timing;
- ``finish()``: end-of-run checks, returning a list of problems;
- ``corrupt(result)``: the negative control's damage to one result.

The references below use only NumPy in float64 and never call the library.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

F32 = np.float32
ATOL = RTOL = 1e-4


class GateError(RuntimeError):
    """A check made once before timing failed; nothing is timed."""


def close(out, ref, atol=ATOL, rtol=RTOL) -> bool:
    out = np.asarray(out)
    return (out.shape == ref.shape and bool(np.all(np.isfinite(out)))
            and bool(np.all(np.abs(out - ref) <= atol + rtol * np.abs(ref))))


def conv_ref(x, w):
    """Valid cross-correlation in float64: P x Ho x Wo."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    windows = sliding_window_view(x, w.shape[2:], axis=(1, 2))  # C,Ho,Wo,kh,kw
    return np.tensordot(w, windows, axes=([1, 2, 3], [0, 3, 4]))


def mlp3_ref(v, layers):
    v = np.asarray(v, dtype=np.float64)
    for i, (w, b) in enumerate(layers):
        v = w.astype(np.float64) @ v + b.astype(np.float64)
        if i < 2:
            v = np.maximum(v, 0.0)
    return v


# ---------------------------------------------------------------- fusion

C, K, P, HIDDEN = 64, 5, 64, 16
BOX_SCALE = 255.0
BN_EPS = 1e-5


class FusionWorkload:
    """Shared weights and reference for ``track`` and ``redetect``."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        bound = math.sqrt(3.0 / (C * K * K))  # unit-variance conv outputs
        self.theta_z = rng.uniform(-bound, bound, (P, C, K, K)).astype(F32)
        self.theta_x = rng.uniform(-bound, bound, (P, C, K, K)).astype(F32)
        dims = (2, HIDDEN, HIDDEN, P)
        self.prior = [(rng.uniform(-1, 1, (dims[i + 1], dims[i])).astype(F32),
                       rng.uniform(-0.5, 0.5, dims[i + 1]).astype(F32))
                      for i in range(3)]
        self.norm = {"gamma": rng.uniform(0.5, 1.5, P).astype(F32),
                     "beta": rng.uniform(-0.5, 0.5, P).astype(F32),
                     "running_mean": rng.uniform(-0.5, 0.5, P).astype(F32),
                     "running_var": rng.uniform(0.5, 2.0, P).astype(F32)}
        self.rng = rng
        n = self.norm
        self.bn_scale = (n["gamma"].astype(np.float64)
                         / np.sqrt(n["running_var"].astype(np.float64) + BN_EPS))
        self.bn_shift = (n["beta"].astype(np.float64)
                         - n["running_mean"].astype(np.float64) * self.bn_scale)

    def maps(self, count, side):
        return self.rng.standard_normal((count, C, side, side), dtype=F32)

    def boxes(self, count):
        return self.rng.uniform(10.0, 200.0, (count, 2))

    def build_weights(self, lib):
        nn = lib.nn
        return lib.fusion.FusionWeights(
            theta_z=nn.ConvKernel(self.theta_z),
            theta_x=nn.ConvKernel(self.theta_x),
            prior=tuple(nn.FcLayer(w, b) for w, b in self.prior),
            norm=nn.BatchNormParams(**self.norm, eps=BN_EPS),
        )

    def cached_ref(self, template, box):
        """z term plus prior term, float64, one value per output channel."""
        z_term = conv_ref(template, self.theta_z)[:, 0, 0]
        return z_term + mlp3_ref(np.asarray(box) / BOX_SCALE, self.prior)

    def response_ref(self, cached, search):
        """Batch norm (before the ReLU) and ReLU over the fused sum."""
        pre = conv_ref(search, self.theta_x) + cached[:, None, None]
        return np.maximum(pre * self.bn_scale[:, None, None]
                          + self.bn_shift[:, None, None], 0.0)

    def gate_naive(self, template, search):
        """Check this reference against the library oracle (no prior, no norm)."""
        plain = replace(self.weights, prior=None, norm=None)
        oracle = self.lib.fusion.naive_concat_corr(template, search, plain)
        ref = conv_ref(search, self.theta_x) + conv_ref(template, self.theta_z)
        if not close(oracle, ref):
            raise GateError(f"{self.name}: reference disagrees with naive_concat_corr")

    def corrupt(self, result):
        bad = np.array(result, copy=True)
        bad.flat[0] += 1.0
        return bad

    def finish(self):
        return []


class Track(FusionWorkload):
    """One acm_apply_search per frame on a cached template and box."""

    name = "track"
    SIDE = 29
    # 64 maps of 64x29x29 float32 are 13.8 MB, above the 4 MiB L2 per core.
    POOL = 64

    def __init__(self, seed):
        super().__init__(seed)
        self.template = self.maps(1, K)[0]
        self.box = self.boxes(1)[0]
        self.pool = self.maps(self.POOL, self.SIDE)
        cached = self.cached_ref(self.template, self.box)
        self.refs = [self.response_ref(cached, x) for x in self.pool]

    def build(self, lib):
        self.lib = lib
        self.weights = self.build_weights(lib)
        self.cache = lib.fusion.acm_cache_template(self.template, self.weights,
                                                   tuple(self.box))

    def gate(self):
        self.gate_naive(self.template, self.pool[0])

    def arg(self, i):
        return i % self.POOL

    def op(self, i):
        return self.lib.fusion.acm_apply_search(self.cache, self.pool[i], self.weights)

    def check(self, i, result):
        return close(result, self.refs[i])


class Redetect(FusionWorkload):
    """One uncached acm_forward per frame on a fresh (template, box, search)."""

    name = "redetect"
    SIDE = 9
    # 512 triples of 64x5x5 + 64x9x9 float32 are 14 MB, above L2.
    POOL = 512

    def __init__(self, seed):
        super().__init__(seed)
        self.templates = self.maps(self.POOL, K)
        self.searches = self.maps(self.POOL, self.SIDE)
        self.box_pool = [tuple(b) for b in self.boxes(self.POOL)]
        self.refs = [self.response_ref(self.cached_ref(z, box), x)
                     for z, box, x in zip(self.templates, self.box_pool, self.searches)]

    def build(self, lib):
        self.lib = lib
        self.weights = self.build_weights(lib)

    def gate(self):
        self.gate_naive(self.templates[0], self.searches[0])

    def arg(self, i):
        return i % self.POOL

    def op(self, i):
        return self.lib.fusion.acm_forward(self.templates[i], self.searches[i],
                                           self.weights, self.box_pool[i])

    def check(self, i, result):
        return close(result, self.refs[i])


# ---------------------------------------------------------------- toytask


def toy_logits_ref(params, image, index):
    """Float64 forward of the glyph-grid model from its parameter arrays."""
    feat = np.maximum(conv_ref(image, params["conv1"]), 0.0)
    feat = np.maximum(conv_ref(feat, params["conv2"]), 0.0)
    x_term = conv_ref(feat, params["fuse"])
    one_hot = np.zeros(4)
    one_hot[index] = 1.0
    prior = mlp3_ref(one_hot, [(params[f"idx_w{i}"], params[f"idx_b{i}"])
                               for i in (1, 2, 3)])
    fused = np.maximum(x_term + prior[:, None, None], 0.0)
    return params["head_w"] @ fused.mean(axis=(1, 2)) + params["head_b"]


def xent_ref(logits, label):
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


class ToyWorkload:
    """Model and dataset built exactly as ``toy_train`` builds them."""

    def __init__(self, seed):
        self.seed = seed

    def build_model(self, lib):
        toytask = lib.toytask
        config = toytask.ToyTrainConfig(seed=self.seed)
        # Fresh SeedSequences each build: spawning advances their state.
        s_model, s_train, _, s_shuffle = np.random.SeedSequence(self.seed).spawn(4)
        model = toytask.ToyModel(config.num_classes, config.glyph_size,
                                 config.conv_channels, config.fused_channels,
                                 config.index_hidden, seed=s_model)
        return config, model, s_train, s_shuffle

    def corrupt(self, result):
        bad = np.array(result, dtype=np.float64, copy=True)
        bad.flat[0] = np.nan
        return bad

    def finish(self):
        return []


class Train(ToyWorkload):
    """Per-sample SGD steps over a shuffled 2000-sample glyph set."""

    name = "train"
    WINDOW = 200

    def build(self, lib):
        self.lib = lib
        config, self.model, s_train, s_shuffle = self.build_model(lib)
        self.config = config
        self.samples = lib.toytask.gen_dataset(
            s_train, config.n_train, config.num_classes, config.glyph_size,
            config.noise_std)
        self.params = self.model.parameters()
        self.shuffle = np.random.default_rng(s_shuffle)
        self.order = np.empty(0, dtype=np.int64)
        self.losses = []

    def gate(self):
        ag, toytask, model = self.lib.autograd, self.lib.toytask, self.model
        for sample in self.samples[:4]:
            taped = float(toytask.training_loss(ag.Tape(), model, sample).value)
            plain = xent_ref(toytask.toy_forward(model, sample), sample.label)
            if abs(taped - plain) > 1e-6 * max(1.0, abs(plain)):
                raise GateError(f"train: taped loss {taped!r} != toy_forward "
                                f"cross-entropy {plain!r}")
        sample = self.samples[0]
        tape = ag.Tape()
        ag.backward(tape, toytask.training_loss(tape, model, sample))
        # Views into the live parameters: finite_diff_grad nudges them in place.
        probes = {"fuse[0,0]": (model.fuse.value[0, 0], model.fuse.grad[0, 0]),
                  "head_b": (model.head_b.value, model.head_b.grad)}
        for name, (value, grad) in probes.items():
            analytic = grad.astype(np.float64)
            numeric = ag.finite_diff_grad(
                lambda: toytask.training_loss(ag.Tape(), model, sample).value,
                ag.Parameter(value, name), 1e-3)
            if not np.all(np.abs(numeric - analytic) <= 1e-3 + 2e-2 * np.abs(analytic)):
                raise GateError(f"train: gradient of {name} disagrees with "
                                f"finite_diff_grad: {analytic} vs {numeric}")
        for p in self.params:
            p.grad[...] = 0

    def arg(self, i):
        step = i % self.config.n_train
        if step == 0:
            self.order = self.shuffle.permutation(self.config.n_train)
        return self.samples[self.order[step]]

    def op(self, sample):
        ag = self.lib.autograd
        tape = ag.Tape()
        loss = self.lib.toytask.training_loss(tape, self.model, sample)
        ag.backward(tape, loss)
        ag.sgd_step(self.params, self.config.lr)
        return loss.value

    def check(self, sample, result):
        loss = float(result)
        self.losses.append(loss)
        return math.isfinite(loss)

    def finish(self):
        window = max(1, min(self.WINDOW, len(self.losses) // 4))
        first = float(np.mean(self.losses[:window]))
        last = float(np.mean(self.losses[-window:]))
        if not last < first:
            return [f"train: mean loss of the last {window} steps ({last:.4f}) is "
                    f"not below the first {window} ({first:.4f})"]
        return []


class Evaluate(ToyWorkload):
    """Untaped toy_forward over the held-out glyph set."""

    name = "evaluate"

    def build(self, lib):
        self.lib = lib
        config, self.model, _, _ = self.build_model(lib)
        self.samples = lib.toytask.heldout_set(config)

    def gate(self):
        params = {p.name: p.value for p in self.model.parameters()}
        self.refs = [toy_logits_ref(params, s.image, s.index) for s in self.samples]

    def arg(self, i):
        return i % len(self.samples)

    def op(self, i):
        return self.lib.toytask.toy_forward(self.model, self.samples[i])

    def check(self, i, result):
        return close(result, self.refs[i])


WORKLOADS = {w.name: w for w in (Track, Redetect, Train, Evaluate)}
