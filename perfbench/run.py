"""Benchmark of the asymfuse library: four closed-loop workloads, one client.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 perfbench/run.py --workload track --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
    python3 perfbench/run.py --self-test         # exact counts and negative control
    python3 perfbench/run.py --workload train --inject-error   # must exit 1

Each workload runs in its own process with BLAS pinned to one thread before
NumPy loads. ``--seconds`` is the summed wall time of the timed ops; the
per-op correctness checks run between ops, outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced blocks of ops, prints the per-layer metrics of the
traced blocks plus the tracing overhead, and writes every span to
``perfbench/out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the environment and sample counts. Exit code 0 means
every op and gate passed, 1 that a check failed, 2 bad usage or no library.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 7          # set-up is repeated and its median reported
WARMUP_S = 0.25         # untimed ops before timing, at least MIN_WARMUP of them
MIN_WARMUP = 3
BLOCK_S = 0.5           # traced run: op time per untraced or traced block
INJECT_AT = 2           # negative control: index of the corrupted op
TAIL = 10               # samples a reported percentile must leave beyond it

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MiB"}


class UsageError(Exception):
    """The benchmark cannot run here: bad arguments or no library."""


# ---------------------------------------------------------------- set-up


def import_library():
    """Import ``asymfuse`` from ``src/`` SETUP_REPS times; median seconds.

    NumPy is already loaded, so each import times the library's own work.
    """
    if not (SRC / "asymfuse" / "__init__.py").is_file():
        raise UsageError(f"no library at {SRC / 'asymfuse'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    seconds = []
    for _ in range(SETUP_REPS):
        for name in [n for n in sys.modules if n.split(".")[0] == "asymfuse"]:
            del sys.modules[name]
        start = time.perf_counter()
        lib = importlib.import_module("asymfuse")
        seconds.append(time.perf_counter() - start)
    if Path(lib.__file__).resolve().parent != (SRC / "asymfuse").resolve():
        raise UsageError(f"asymfuse was imported from {lib.__file__}, not {SRC}")
    return lib, statistics.median(seconds)


def build(workload, lib):
    seconds = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.build(lib)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


# ---------------------------------------------------------------- environment


def blas_threads():
    """Thread count OpenBLAS reports, or None if it cannot be asked."""
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


def gemm_peak_gflops(n=512, reps=10):
    """Best single-call rate of an n x n float64 matrix product."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter_ns()
        a @ b
        best = min(best, time.perf_counter_ns() - start)
    return 2 * n ** 3 / best


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "gemm_f64_peak_gflops": gemm_peak_gflops(),
        "seed": seed,
    }


# ---------------------------------------------------------------- the run


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Run:
    """One closed loop: the next op starts when the previous one returns."""

    def __init__(self, workload, inject):
        self.workload = workload
        self.inject = inject
        self.ops = 0          # ops run so far, warm-up included
        self.attempted = 0    # timed ops
        self.failed = 0       # timed ops that raised or failed their check
        self.errors = []

    def step(self, tracer=None):
        """One op: timed call, then the untimed check. Returns (ns, ok)."""
        wl, i = self.workload, self.ops
        self.ops += 1
        arg = wl.arg(i)
        start = time.perf_counter_ns()
        try:
            result = tracer.call_op(i, wl.op, arg) if tracer else wl.op(arg)
        except Exception:  # a raising op counts as failed; the loop goes on
            elapsed = time.perf_counter_ns() - start
            self.note(f"op {i} raised:\n{traceback.format_exc(limit=3)}")
            return elapsed, False
        elapsed = time.perf_counter_ns() - start
        if self.inject and self.attempted == INJECT_AT:
            result = wl.corrupt(result)
        ok = wl.check(arg, result)
        if not ok:
            self.note(f"op {i}: result failed its check")
        return elapsed, ok

    def note(self, message):
        if len(self.errors) < 5:
            self.errors.append(message)

    def warm_up(self):
        spent = 0
        while spent < WARMUP_S * 1e9 or self.ops < MIN_WARMUP:
            ns, ok = self.step()
            spent += ns
            if not ok:
                raise GateError(f"{self.workload.name}: a warm-up op failed: "
                                f"{self.errors[-1]}")

    def measure(self, seconds, tracer=None):
        """Time ops until their summed time reaches ``seconds``.

        With a tracer, blocks of BLOCK_S alternate between unwrapped and
        wrapped layers; returns (untraced durations, traced durations).
        """
        plain, traced = [], []
        block, spent, block_spent = plain, 0, 0
        try:
            while spent < seconds * 1e9:
                ns, ok = self.step(tracer if block is traced else None)
                self.attempted += 1
                self.failed += not ok
                block.append(ns)
                spent += ns
                block_spent += ns
                if tracer is not None and block_spent >= BLOCK_S * 1e9:
                    block_spent = 0
                    if block is plain:
                        tracer.install()
                        block = traced
                    else:
                        tracer.uninstall()
                        block = plain
        finally:
            if tracer is not None:
                tracer.uninstall()
        return plain, traced


def end_to_end(durations, setup_s):
    """The bounded metrics, plus the tail and sample count for the info line."""
    ordered = sorted(durations)
    p99, beyond = percentile(ordered, 99)
    metrics = {
        "ops_per_s": len(ordered) / (sum(ordered) / 1e9),
        "op_p50_ms": statistics.median(ordered) / 1e6,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"op_p99_ms": p99 / 1e6, "samples": len(ordered),
                     "p99_beyond": beyond}


def run_workload(args):
    lib, import_s = import_library()
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = import_s + build(workload, lib)
    workload.gate()
    run = Run(workload, args.inject_error)
    run.warm_up()
    tracer = Tracer(lib) if args.trace else None
    plain, traced = run.measure(args.seconds, tracer)
    problems = workload.finish()
    info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    if tracer is None:
        metrics, tail = end_to_end(plain, setup_s)
        info.update(tail)
        if tail["p99_beyond"] < TAIL:
            print(f"warning: only {tail['samples']} samples, so p99 leaves "
                  f"{tail['p99_beyond']} beyond it, fewer than {TAIL}",
                  file=sys.stderr)
    else:
        metrics = tracer.layer_metrics()
        rate = len(plain) / sum(plain)
        traced_rate = len(traced) / sum(traced)
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / rate)
        exact = tracer.per_op_counts()
        info.update(untraced_ops=len(plain), traced_ops=len(traced),
                    counts_uniform=len(exact) == 1)
        if len(exact) != 1:
            problems.append(f"exact counts differ between ops: {sorted(exact)[:2]}")
    info["failed_ratio"] = run.failed / run.attempted
    info["errors"] = run.errors
    info["problems"] = problems
    info["env"] = environment(args.seed)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.txt",
                     {"info": info, "metrics": metrics})
    units = END_TO_END if tracer is None else layer_units()
    for name, value in metrics.items():
        print(f"{args.workload:9s} {name:36s} {value:14.6g} {units[name]}")
    if tracer is None:
        print(f"{args.workload:9s} {'op_p99_ms':36s} {info['op_p99_ms']:14.6g} ms "
              f"({info['p99_beyond']} of {info['samples']} samples beyond it)")
    print(f"{args.workload:9s} {'failed_ratio':36s} {info['failed_ratio']:14.6g} "
          f"({run.failed} of {run.attempted})")
    for line in run.errors + problems:
        print(f"{args.workload}: {line}", file=sys.stderr)
    correct = run.failed == 0 and not problems
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_units():
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


# ---------------------------------------------------------------- all, self-test


def child(workload, seed, seconds, trace, *extra):
    """Run one workload in a fresh process; (exit code, info, result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or len(lines) < 2:
        raise UsageError(f"{' '.join(cmd)} printed no result:\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-2])["info"], json.loads(lines[-1])


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        code, info, result = child(name, args.seed, args.seconds, 0)
        _, _, traced = child(name, args.seed, args.seconds, 1)
        status |= code
        print(f"\n== {name}  (seed {args.seed}, correct={result['correct']})")
        for key, metric in result["metrics"].items():
            print(f"  {key:36s} {metric['value']:14.6g} {metric['unit']}")
        print(f"  {'op_p99_ms':36s} {info['op_p99_ms']:14.6g} ms "
              f"({info['p99_beyond']} of {info['samples']} samples beyond it)")
        print(f"  {'failed_ratio':36s} {info['failed_ratio']:14.6g} "
              f"({result['failed']} of {result['attempted']})")
        for key, metric in traced["metrics"].items():
            print(f"  {key:36s} {metric['value']:14.6g} {metric['unit']}")
    print("\nenv " + json.dumps(info["env"]))
    return status


# Exact per-op counts: (conv calls, tape nodes, computed GFLOP, im2col MB).
EXACT = ("nn.conv2d_valid.calls", "autograd.tape_nodes",
         "nn.conv2d_valid.gflop", "nn.conv2d_valid.im2col_mb")
EXPECTED = {
    "track": (1.0, 0.0, 0.128, 8.0),
    "redetect": (2.0, 0.0, 0.0053248, 0.3328),
    "train": (3.0, 29.0, 0.000546048, 0.141696),
    "evaluate": (3.0, 0.0, 0.000546048, 0.141696),
}


def self_test():
    """Check names, exact counts across seeds and the negative control."""
    failures = []
    spec = benchmark_spec()
    mapped = json.loads((HERE / "metric_map.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    if set(layer_names) != set(mapped):
        failures.append("per_layer names differ from metric_map.json")
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        failures.append("end_to_end names differ from the metrics run.py reports")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("workload names differ from workloads.py")
    for name in WORKLOADS:
        seen = []
        for seed in (1, 2):
            code, info, result = child(name, seed, 1, 1)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if code != 0 or not info["counts_uniform"]:
                failures.append(f"{name} seed {seed}: traced run failed or counts "
                                f"varied between ops")
            if sorted(values) != sorted(layer_names):
                failures.append(f"{name}: traced metrics differ from per_layer")
            seen.append(tuple(values.get(k) for k in EXACT))
        if seen[0] != seen[1] or seen[0] != EXPECTED[name]:
            failures.append(f"{name}: exact counts {seen} != {EXPECTED[name]}")
        code, _, result = child(name, 1, 1, 0, "--inject-error")
        if code == 0 or result["failed"] < 1 or result["correct"]:
            failures.append(f"{name}: the injected error went unnoticed")
        print(f"self-test {name}: counts {seen[0]}, injected error -> exit {code}")
    for line in failures:
        print(f"FAIL {line}")
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-error", action="store_true",
                        help="corrupt one op's result; the run must fail")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.self_test:
            return self_test()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GateError as exc:
        print(f"gate failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
