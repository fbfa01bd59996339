"""Wall-clock comparison of the naive and decomposed fusion paths.

Timings use the monotonic nanosecond clock over a fixed number of
repetitions (at least :data:`MIN_REPS`, else ValueError naming ``reps``)
after warm-up calls, never overlap measured regions, and keep one
:class:`PathTiming` (median, p10, p90) per path. Before anything is timed,
each problem passes one gate: the naive concatenation plus the cached
prior term must match the cached decomposed path within :data:`TOL`, and a
larger or NaN gap aborts the run, so a benchmark can never report speed
for wrong results. ``asymfuse eqcheck`` runs the same comparison. This
module alone writes and reads the bench file: :func:`write_json` records
the environment too, and :func:`read_configs` reads its configs back, or
a claim file's ``after`` side. ``naive_scaling_slope`` times one fixed
sweep, :data:`SLOPE_CONFIGS`.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import fusion
from . import nn
from . import tensor as T

MIN_REPS = 20
# Untimed calls of each path before its samples, and the largest gap the
# gate (and eqcheck by default) lets through.
WARMUP = 3
TOL = 1e-4

PATHS = ("naive", "acm", "cached")


@dataclass(frozen=True)
class BenchConfig:
    """One problem size: map/kernel dimensions and output channels, each an integer
    of at least 1 (``tensor._check_int``, stored as a Python int)."""

    channels: int
    eta: int
    omega: int
    height: int
    width: int
    out_channels: int

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, T._check_int(getattr(self, f.name), f.name, 1))
        if self.eta > self.height or self.omega > self.width:
            raise ValueError(f"template must fit inside the search map: {self}")

    @property
    def positions(self) -> int:
        return (self.height - self.eta + 1) * (self.width - self.omega + 1)


class PathTiming(NamedTuple):
    """Median and 10th/90th percentile wall times (ns per call) of one path."""

    median_ns: float
    p10_ns: float
    p90_ns: float


@dataclass(frozen=True)
class BenchResult:
    """The timings of each of :data:`PATHS` for one configuration."""

    config: BenchConfig
    reps: int
    naive: PathTiming
    acm: PathTiming
    cached: PathTiming

    def __post_init__(self):
        object.__setattr__(self, "reps", _check_reps(self.reps))
        if min(min(getattr(self, name)) for name in PATHS) <= 0:
            raise ValueError("measured times must be positive")

    @property
    def speedup(self) -> float:
        """Naive median over decomposed median; > 1 means the split is faster."""
        return self.naive.median_ns / self.acm.median_ns


def default_configs() -> list[BenchConfig]:
    return [BenchConfig(4, 3, 3, 10, 10, 4), BenchConfig(8, 3, 3, 16, 16, 8),
            BenchConfig(16, 5, 5, 21, 21, 16), BenchConfig(64, 5, 5, 29, 29, 64)]


SLOPE_CONFIGS = tuple(BenchConfig(8, 3, 3, side, side, 8) for side in (7, 10, 14, 20, 28))


def _random_config(rng) -> BenchConfig:
    """eqcheck's size law: C and P in 1..8, kernel sides 1..5, map sides up to 12."""
    channels = int(rng.integers(1, 9))
    eta, omega = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    return BenchConfig(channels, eta, omega, int(rng.integers(eta, 13)),
                       int(rng.integers(omega, 13)), int(rng.integers(1, 9)))


def _random_problem(config: BenchConfig, rng):
    def draw(shape):
        return rng.uniform(-1.0, 1.0, size=shape).astype(T.DTYPE)

    template = draw((config.channels, config.eta, config.omega))
    search = draw((config.channels, config.height, config.width))
    dims = (2, 16, 16, config.out_channels)
    prior = tuple(nn.FcLayer(draw((dims[i + 1], dims[i])), draw((dims[i + 1],)))
                  for i in range(3))
    box = (float(rng.uniform(10.0, 200.0)), float(rng.uniform(10.0, 200.0)))
    kernel = (config.out_channels, config.channels, config.eta, config.omega)
    weights = fusion.FusionWeights(theta_z=nn.ConvKernel(draw(kernel)),
                                   theta_x=nn.ConvKernel(draw(kernel)), prior=prior)
    return template, search, weights, box


def _identity_gap(template, search, weights, box):
    """The template cache and the largest |naive + prior - decomposed| entry.

    A NaN on either side makes the gap NaN, which fails ``gap <= tol``.
    """
    cache = fusion.acm_cache_template(template, weights, box)
    naive = fusion.naive_concat_corr(template, search, weights) + cache.prior_term
    fused = fusion.acm_apply_search(cache, search, weights, apply_relu=False)
    return cache, float(np.abs(naive - fused).max())


def _gated_problems(configs, seed: int):
    """Per config: the config, a problem drawn from its own stream of ``seed``, its cache.

    Raises RuntimeError unless the problem's identity gap is <= TOL.
    """
    for config, stream in zip(configs, np.random.SeedSequence(seed).spawn(len(configs))):
        template, search, weights, box = _random_problem(config, np.random.default_rng(stream))
        cache, gap = _identity_gap(template, search, weights, box)
        if not gap <= TOL:
            raise RuntimeError(f"correctness gate failed for {config}: naive + prior vs "
                               f"decomposed differ by {gap:.3e} (tol {TOL:g})")
        yield config, template, search, weights, box, cache


def _check_reps(reps: int) -> int:
    return T._check_int(reps, "reps", MIN_REPS)


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
    and cached paths are timed round-robin. Raises RuntimeError, before
    timing starts, if a problem fails the gate of :func:`_gated_problems`.
    """
    if configs is None:
        configs = default_configs()
    reps = _check_reps(reps)
    results = []
    for config, template, search, weights, box, cache in _gated_problems(configs, seed):
        # The naive loop evicts the caches of whatever call follows it (at
        # 64x9x9 the next fused call ran ~1.6x slower), so it is timed on its
        # own; the two fused paths, whose ratio matters, are interleaved.
        (naive,) = _samples_ns(
            [lambda: fusion.naive_concat_corr(template, search, weights)], reps)
        fused = _samples_ns(
            [lambda: fusion.acm_forward(template, search, weights, box, apply_relu=False),
             lambda: fusion.acm_apply_search(cache, search, weights, apply_relu=False)],
            reps)
        timings = [PathTiming(*np.percentile(times, (50, 10, 90)).tolist())
                   for times in (naive, *fused)]
        results.append(BenchResult(config, reps, *timings))
    return results


def naive_scaling_slope() -> float:
    """Log-log slope of naive time against the number of output positions.

    The naive path does fixed work per window, so the slope should be
    close to 1 once per-call overhead is amortized. Every size is drawn
    from seed 0, gated as in :func:`bench_compare`, then timed round-robin:
    each of :data:`MIN_REPS` repetitions times every size once.
    """
    calls = [lambda t=template, x=search, w=weights: fusion.naive_concat_corr(t, x, w)
             for _, template, search, weights, _, _ in _gated_problems(SLOPE_CONFIGS, 0)]
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

    rows = [{"config": dataclasses.asdict(r.config), "reps": r.reps,
             "paths": {name: getattr(r, name)._asdict() for name in PATHS},
             "speedup": r.speedup} for r in results]
    path = Path(path)
    path.write_text(json.dumps({"environment": _environment(), "results": rows},
                               indent=2) + "\n")
    return path


def read_configs(path) -> list[BenchConfig]:
    """The configs of a :func:`write_json` file, in the order it lists them.

    A claim file holds two such files under ``before`` and ``after``; its
    ``after`` configs are read, and the two sides must list the same ones.
    Raises ValueError for anything else, or for a file with no configs.
    """
    import json  # as in write_json

    try:
        doc = json.loads(Path(path).read_text())
        sides = [doc["before"], doc["after"]] if "after" in doc else [doc]
        configs = [[BenchConfig(**row["config"]) for row in side["results"]]
                   for side in sides]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{str(path)!r} is not a bench --json file: {exc!r}") from exc
    if configs[0] != configs[-1]:
        raise ValueError(f"{str(path)!r}: 'before' and 'after' list different configs")
    if not configs[-1]:
        raise ValueError(f"no benchmark configurations found in {str(path)!r}")
    return configs[-1]
