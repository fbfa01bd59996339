"""Command-line front end.

Subcommands: eqcheck, gradcheck, bench, toytrain, analyze, heatmap.
Every run echoes its fully resolved configuration (defaults included)
before doing anything. Exit codes: 0 success, 1 a verification check
failed, 2 bad usage or configuration.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import analysis, bench, fusion, gradcheck, nn, toytask
from . import tensor as T
from .errors import FormatError

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2


class _UsageError(Exception):
    """Raised for semantically invalid flag values; maps to exit code 2."""


def _echo_config(command: str, args: argparse.Namespace) -> None:
    pairs = {k: v for k, v in vars(args).items()
             if k not in ("func", "dump_config", "command")}
    rendered = " ".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    print(f"config: command={command} {rendered}")


def _parse_ints(text: str, count: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise _UsageError(f"{what} needs {count} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"{what}: {exc}") from exc


def _cmd_eqcheck(args) -> int:
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    if not 0 <= args.tol < np.inf:
        raise _UsageError(f"--tol must be non-negative and finite, got {args.tol}")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    worst = 0.0
    for trial in range(args.trials):
        channels = int(rng.integers(1, 9))
        eta = int(rng.integers(1, 6))
        omega = int(rng.integers(1, 6))
        height = int(rng.integers(eta, 13))
        width = int(rng.integers(omega, 13))
        out_ch = int(rng.integers(1, 9))

        def draw(shape):
            return rng.uniform(-1.0, 1.0, size=shape).astype(T.DTYPE)

        weights = fusion.FusionWeights(
            theta_z=nn.ConvKernel(draw((out_ch, channels, eta, omega))),
            theta_x=nn.ConvKernel(draw((out_ch, channels, eta, omega))),
        )
        template = draw((channels, eta, omega))
        search = draw((channels, height, width))
        reference = fusion.naive_concat_corr(template, search, weights)
        decomposed = fusion.acm_forward(template, search, weights, apply_relu=False)
        diff = float(np.abs(reference - decomposed).max())
        worst = max(worst, diff)
        print(f"trial {trial:3d}: C={channels} eta={eta} omega={omega} "
              f"H={height} W={width} P={out_ch} max_abs_diff={diff:.3e}")
    verdict = "ok" if worst <= args.tol else "FAIL"
    print(f"eqcheck: {args.trials} trials, worst max_abs_diff={worst:.3e}, "
          f"tol={args.tol:g}: {verdict}")
    return _EXIT_OK if worst <= args.tol else _EXIT_CHECK_FAILED


def _cmd_gradcheck(args) -> int:
    if not 0 < args.eps < np.inf:
        raise _UsageError(f"--eps must be positive and finite, got {args.eps}")
    if not 0 < args.tol < np.inf:
        raise _UsageError(f"--tol must be positive and finite, got {args.tol}")
    results = gradcheck.gradient_check_suite(seed=args.seed, eps=args.eps,
                                             tol=args.tol,
                                             inject_error=args.inject_error)
    failed = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.op:<16} {r.param:<12} rel_error={r.rel_error:.3e} {status}")
        failed += not r.passed
    print(f"gradcheck: {len(results) - failed}/{len(results)} comparisons passed, "
          f"eps={args.eps:g} tol={args.tol:g}")
    return _EXIT_OK if failed == 0 else _EXIT_CHECK_FAILED


def _bench_config_entries(text: str) -> list[str]:
    """Accept a CSV file of C,eta,omega,H,W,P rows or inline sextuples.

    File rows whose first cell is not an integer (headers, blanks) are
    skipped, so a previous ``--out`` file can be fed straight back in.
    """
    path = Path(text)
    if not path.is_file():
        return text.split(";")
    entries = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip().lstrip("-").isdigit():
                continue
            entries.append(",".join(cell.strip() for cell in row[:6]))
    if not entries:
        raise _UsageError(f"no benchmark configurations found in {text!r}")
    return entries


def _cmd_bench(args) -> int:
    if args.reps < bench.MIN_REPS:
        raise _UsageError(f"--reps must be at least {bench.MIN_REPS}, got {args.reps}")
    configs = None
    if args.configs:
        configs = []
        for chunk in _bench_config_entries(args.configs):
            configs.append(bench.BenchConfig(*_parse_ints(chunk, 6, "--configs entry")))
    results = bench.bench_compare(configs, reps=args.reps, seed=args.seed)
    header = " ".join(f"{c:>10}" for c in bench.CSV_COLUMNS)
    print(header)
    for r in results:
        c = r.config
        print(" ".join(f"{v:>10}" for v in (
            c.channels, c.eta, c.omega, c.height, c.width, c.out_channels, r.reps,
            f"{r.naive_ns:.0f}", f"{r.acm_ns:.0f}", f"{r.cached_ns:.0f}",
            f"{r.speedup:.3f}")))
    if args.out:
        bench.write_csv(results, args.out)
        print(f"wrote {args.out}")
    if args.json:
        bench.write_json(results, args.json)
        print(f"wrote {args.json}")
    return _EXIT_OK


def _cmd_toytrain(args) -> int:
    if not 0 < args.lr < np.inf:
        raise _UsageError(f"--lr must be positive and finite, got {args.lr}")
    if args.epochs < 0:
        raise _UsageError(f"--epochs must be non-negative, got {args.epochs}")
    if args.train_samples < 1 or args.test_samples < 1:
        raise _UsageError("--train-samples and --test-samples must be at least 1")
    if not 1 <= args.classes <= toytask.MAX_CLASSES:
        raise _UsageError(f"--classes must be in [1, {toytask.MAX_CLASSES}], "
                          f"got {args.classes}")
    config = toytask.ToyTrainConfig(
        seed=args.seed, n_train=args.train_samples, n_test=args.test_samples,
        num_classes=args.classes, glyph_size=args.glyph_size,
        noise_std=args.noise_std, epochs=args.epochs, lr=args.lr,
        ablate_index=args.ablate_index,
    )
    result = toytask.toy_train(config)
    for epoch, loss in enumerate(result.train_curve):
        print(f"epoch {epoch:2d}: mean_loss={loss:.6f}")
    print(f"test_accuracy={result.test_accuracy:.4f}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "curve.csv", "w", newline="") as fh:
            fh.write("epoch,mean_loss\n")
            for epoch, loss in enumerate(result.train_curve):
                fh.write(f"{epoch},{loss:.9g}\n")
        model_dir = out / "model"
        model_dir.mkdir(exist_ok=True)
        for p in result.model.parameters():
            T.tensor_write(p.value, model_dir / f"{p.name}.tsr")
        print(f"wrote {out / 'curve.csv'} and {model_dir}")
    return _EXIT_OK


def _load_map(path: str) -> np.ndarray:
    try:
        corr = T.tensor_read(path)
    except (OSError, FormatError) as exc:
        raise _UsageError(f"cannot read map {path!r}: {exc}") from exc
    return T._as_map(corr, "map")


def _cmd_analyze(args) -> int:
    corr = _load_map(args.map)
    target = _parse_ints(args.target, 2, "--target")
    box = _parse_ints(args.exclude, 4, "--exclude")
    report = analysis.discriminability(corr, target, box,
                                       per_channel_norm=args.per_channel_norm)
    diversity = analysis.channel_diversity(corr)
    print("cosine,euclidean_norm01,target_r,target_c,distractor_r,distractor_c,"
          "degenerate,diversity_mean")
    print(f"{report.cosine:.6f},{report.euclidean_norm01:.6f},"
          f"{report.target_pos[0]},{report.target_pos[1]},"
          f"{report.distractor_pos[0]},{report.distractor_pos[1]},"
          f"{int(report.degenerate)},{diversity.mean:.6f}")
    return _EXIT_OK


def _cmd_heatmap(args) -> int:
    corr = _load_map(args.map)
    csv_path, pgm_path = analysis.heatmap_export(corr, args.out)
    print(f"wrote {csv_path} and {pgm_path}")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymfuse",
        description="Verification and measurement tools for asymmetric fusion.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dump-config", action="store_true",
                        help="print the resolved configuration and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eqcheck", parents=[common],
                       help="randomized equivalence check: naive vs decomposed fusion")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_eqcheck)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="central-difference check of every op's gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--tol", type=float, default=1e-2)
    p.add_argument("--inject-error", action="store_true",
                   help="corrupt one analytic gradient as a negative control")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("bench", parents=[common],
                       help="time naive vs decomposed vs cached fusion")
    p.add_argument("--reps", type=int, default=bench.MIN_REPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--configs", type=str, default="",
                   help="CSV file of C,eta,omega,H,W,P rows, or "
                        "semicolon-separated sextuples given inline")
    p.add_argument("--out", type=str, default="",
                   help="also write the results as CSV to this path")
    p.add_argument("--json", type=str, default="",
                   help="also write the environment and median/p10/p90 per path "
                        "as JSON to this path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("toytrain", parents=[common],
                       help="train the glyph-grid toy model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.03)
    p.add_argument("--train-samples", type=int, default=2000)
    p.add_argument("--test-samples", type=int, default=1000)
    p.add_argument("--glyph-size", type=int, default=7)
    p.add_argument("--noise-std", type=float, default=0.05)
    p.add_argument("--ablate-index", action="store_true",
                   help="zero the index branch during training and evaluation")
    p.add_argument("--out-dir", type=str, default="",
                   help="write curve.csv and the model tensors here")
    p.set_defaults(func=_cmd_toytrain)

    p = sub.add_parser("analyze", parents=[common],
                       help="discriminability and channel diversity of a stored map")
    p.add_argument("--map", type=str, required=True, help="path to a rank-3 .tsr map")
    p.add_argument("--target", type=str, required=True, help="target position r,c")
    p.add_argument("--exclude", type=str, required=True,
                   help="inclusive exclusion box r0,c0,r1,c1")
    p.add_argument("--per-channel-norm", action="store_true",
                   help="min-max rescale each channel separately")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("heatmap", parents=[common],
                       help="export the L1 strength map of a stored map as CSV and PGM")
    p.add_argument("--map", type=str, required=True, help="path to a rank-3 .tsr map")
    p.add_argument("--out", type=str, required=True, help="output path prefix")
    p.set_defaults(func=_cmd_heatmap)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_OK if exc.code in (0, None) else _EXIT_USAGE
    _echo_config(args.command, args)
    if args.dump_config:
        return _EXIT_OK
    try:
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
