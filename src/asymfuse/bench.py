"""Wall-clock comparison of the naive and decomposed fusion paths.

Timings use the monotonic nanosecond clock, take the median (and the
10th/90th percentiles) over a fixed number of repetitions (at least
:data:`MIN_REPS`, else ValueError naming ``reps``) after warm-up calls,
and never overlap measured regions. Before anything is timed, all
implementations are checked against each other; a disagreement aborts
the run, so a benchmark can never report speed for wrong results.
Results go to a JSON file that also records the environment (NumPy and
BLAS, cores, BLAS threads); ``bench --configs`` reads the configs of such
a file back in. ``naive_scaling_slope`` times one fixed sweep,
:data:`SLOPE_CONFIGS`.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import platform
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import fusion
from . import nn
from . import tensor as T

MIN_REPS = 20
# Untimed calls of each path before its samples, and the largest gap any
# two implementations may show before a config is refused.
WARMUP = 3
TOL = 1e-4

PATHS = ("naive", "acm", "cached")


@dataclass(frozen=True)
class BenchConfig:
    """One problem size: map/kernel dimensions and output channels."""

    channels: int
    eta: int
    omega: int
    height: int
    width: int
    out_channels: int

    def __post_init__(self):
        if min(self.channels, self.eta, self.omega, self.height, self.width,
               self.out_channels) < 1:
            raise ValueError(f"all dimensions must be positive: {self}")
        if self.eta > self.height or self.omega > self.width:
            raise ValueError(f"template must fit inside the search map: {self}")

    @property
    def positions(self) -> int:
        return (self.height - self.eta + 1) * (self.width - self.omega + 1)


@dataclass(frozen=True)
class BenchResult:
    """Median wall times (ns per call) for one configuration.

    ``spread_ns`` maps each of :data:`PATHS` to the (p10, p90) of its
    samples, when they were measured.
    """

    config: BenchConfig
    reps: int
    naive_ns: float
    acm_ns: float
    cached_ns: float
    spread_ns: dict = dataclasses.field(default_factory=dict, compare=False)

    def __post_init__(self):
        _check_reps(self.reps)
        if min(self.naive_ns, self.acm_ns, self.cached_ns) <= 0:
            raise ValueError("measured times must be positive")

    @property
    def speedup(self) -> float:
        """Naive time over decomposed time; > 1 means the split is faster."""
        return self.naive_ns / self.acm_ns


def default_configs() -> list[BenchConfig]:
    return [
        BenchConfig(4, 3, 3, 10, 10, 4),
        BenchConfig(8, 3, 3, 16, 16, 8),
        BenchConfig(16, 5, 5, 21, 21, 16),
        BenchConfig(64, 5, 5, 29, 29, 64),
    ]


SLOPE_CONFIGS = tuple(BenchConfig(8, 3, 3, side, side, 8) for side in (7, 10, 14, 20, 28))


def _random_problem(config: BenchConfig, rng):
    def draw(shape):
        return rng.uniform(-1.0, 1.0, size=shape).astype(T.DTYPE)

    template = draw((config.channels, config.eta, config.omega))
    search = draw((config.channels, config.height, config.width))
    dims = (2, 16, 16, config.out_channels)
    prior = tuple(
        nn.FcLayer(draw((dims[i + 1], dims[i])), draw((dims[i + 1],)))
        for i in range(3)
    )
    box = (float(rng.uniform(10.0, 200.0)), float(rng.uniform(10.0, 200.0)))
    weights = fusion.FusionWeights(
        theta_z=nn.ConvKernel(draw((config.out_channels, config.channels,
                                    config.eta, config.omega))),
        theta_x=nn.ConvKernel(draw((config.out_channels, config.channels,
                                    config.eta, config.omega))),
        prior=prior,
    )
    return template, search, weights, box


def _gated_problem(config: BenchConfig, rng):
    """Draw one problem; raise RuntimeError unless every path agrees within TOL."""
    template, search, weights, box = _random_problem(config, rng)
    plain = replace(weights, prior=None)
    out_naive = fusion.naive_concat_corr(template, search, weights)
    out_plain = fusion.acm_forward(template, search, plain, apply_relu=False)
    gap = float(np.abs(out_naive - out_plain).max())
    if gap > TOL:
        raise RuntimeError(
            f"correctness gate failed for {config}: naive vs decomposed "
            f"differ by {gap:.3e} (tol {TOL:g})"
        )
    cache = fusion.acm_cache_template(template, weights, box)
    out_uncached = fusion.acm_forward(template, search, weights, box, apply_relu=False)
    out_cached = fusion.acm_apply_search(cache, search, weights, apply_relu=False)
    gap = float(np.abs(out_uncached - out_cached).max())
    if gap > TOL:
        raise RuntimeError(
            f"correctness gate failed for {config}: cached vs uncached "
            f"differ by {gap:.3e} (tol {TOL:g})"
        )
    return template, search, weights, box, cache


def _check_reps(reps: int) -> None:
    if reps < MIN_REPS:
        raise ValueError(f"reps must be at least {MIN_REPS}, got {reps}")


def _samples_ns(calls, reps: int) -> list[list[int]]:
    """Per-call wall times; each repetition runs every call once, in turn.

    Interleaving the calls inside each repetition lets background load
    fall on all of them alike.
    """
    for call in calls:
        for _ in range(WARMUP):
            call()
    samples = [[] for _ in calls]
    for _ in range(reps):
        for call, times in zip(calls, samples):
            start = time.perf_counter_ns()
            call()
            times.append(time.perf_counter_ns() - start)
    return samples


def bench_compare(configs=None, reps: int = MIN_REPS, seed: int = 0) -> list[BenchResult]:
    """Measure naive, decomposed, and cached fusion for each config.

    Each problem carries a prior branch and a box. The template-side cache
    is built outside the timed region for the cached path; the decomposed
    and cached paths are timed round-robin. Raises RuntimeError if any
    pair of implementations disagrees beyond :data:`TOL` before timing
    starts.
    """
    if configs is None:
        configs = default_configs()
    _check_reps(reps)
    streams = np.random.SeedSequence(seed).spawn(len(configs))
    results = []
    for config, stream in zip(configs, streams):
        rng = np.random.default_rng(stream)
        template, search, weights, box, cache = _gated_problem(config, rng)
        # The naive loop evicts the caches of whatever call follows it (at
        # 64x9x9 the next fused call ran ~1.6x slower), so it is timed on its
        # own; the two fused paths, whose ratio matters, are interleaved.
        (naive,) = _samples_ns(
            [lambda: fusion.naive_concat_corr(template, search, weights)], reps)
        fused = _samples_ns(
            [lambda: fusion.acm_forward(template, search, weights, box, apply_relu=False),
             lambda: fusion.acm_apply_search(cache, search, weights, apply_relu=False)],
            reps)
        stats = {path: np.percentile(times, (50, 10, 90))
                 for path, times in zip(PATHS, [naive, *fused])}
        results.append(BenchResult(
            config=config, reps=reps, naive_ns=float(stats["naive"][0]),
            acm_ns=float(stats["acm"][0]), cached_ns=float(stats["cached"][0]),
            spread_ns={path: (float(q[1]), float(q[2])) for path, q in stats.items()}))
    return results


def naive_scaling_slope() -> float:
    """Log-log slope of naive time against the number of output positions.

    The naive path does fixed work per window, so the slope should be
    close to 1 once per-call overhead is amortized. Every size is drawn
    from seed 0, gated as in :func:`bench_compare`, then timed round-robin:
    each of :data:`MIN_REPS` repetitions times every size once.
    """
    streams = np.random.SeedSequence(0).spawn(len(SLOPE_CONFIGS))
    calls = []
    for config, stream in zip(SLOPE_CONFIGS, streams):
        template, search, weights, _, _ = _gated_problem(config, np.random.default_rng(stream))
        calls.append(lambda t=template, x=search, w=weights: fusion.naive_concat_corr(t, x, w))
    samples = _samples_ns(calls, MIN_REPS)
    positions = np.array([c.positions for c in SLOPE_CONFIGS], dtype=np.float64)
    times = np.array([np.median(t) for t in samples], dtype=np.float64)
    slope, _ = np.polyfit(np.log(positions), np.log(times), 1)
    return float(slope)


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    import glob  # here, not at the top: only --json needs it

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        handle = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    """Python, NumPy and BLAS versions, core count and BLAS thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cores": os.cpu_count(),
        "blas_threads": _blas_threads(),
    }


def write_json(results, path) -> Path:
    """Write the environment and, per config, median/p10/p90 of each path."""
    import json  # here, not at the top: it adds ~3 ms to every package import

    rows = []
    for r in results:
        paths = {}
        for name in PATHS:
            p10, p90 = r.spread_ns.get(name, (None, None))
            paths[name] = {"median_ns": getattr(r, f"{name}_ns"),
                           "p10_ns": p10, "p90_ns": p90}
        rows.append({"config": dataclasses.asdict(r.config), "reps": r.reps,
                     "paths": paths, "speedup": r.speedup})
    path = Path(path)
    path.write_text(json.dumps({"environment": _environment(), "results": rows},
                               indent=2) + "\n")
    return path
