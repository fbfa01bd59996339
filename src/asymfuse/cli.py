"""Command-line front end.

Subcommands: eqcheck, gradcheck, bench, toytrain, analyze, heatmap.
Every run echoes its fully resolved configuration (defaults included)
before doing anything. Exit codes: 0 success, 1 a verification check
failed (``bench``'s gate too, leaving no new ``--json`` file), 2 bad usage
or configuration, or an output path that cannot be written (an OSError).
A flag that reaches a library function is checked there, before any
work, and the ValueError it raises is printed unchanged (``error: reps
must be an integer of at least 20, got 5``). ``eqcheck`` runs ``bench``'s
correctness gate on random problems; a NaN gap fails it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import analysis, bench, gradcheck, toytask
from . import tensor as T
from .errors import FormatError

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2


def _echo_config(command: str, args: argparse.Namespace) -> None:
    pairs = {k: v for k, v in vars(args).items()
             if k not in ("func", "dump_config", "command")}
    rendered = " ".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    print(f"config: command={command} {rendered}")


def _parse_ints(text: str, count: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _cmd_eqcheck(args) -> int:
    T._check_int(args.trials, "--trials", 1)
    T._check_real(args.tol, "--tol", zero_ok=True)
    rng = np.random.default_rng(T._seed_sequence(args.seed, "--seed"))
    gaps = []
    for trial in range(args.trials):
        c = bench._random_config(rng)
        _, gap = bench._identity_gap(*bench._random_problem(c, rng))
        gaps.append(gap)
        print(f"trial {trial:3d}: C={c.channels} eta={c.eta} omega={c.omega} "
              f"H={c.height} W={c.width} P={c.out_channels} max_abs_diff={gap:.3e}")
    worst = float(np.max(gaps))  # unlike max(), NaN if any gap is NaN
    ok = worst <= args.tol
    print(f"eqcheck: {args.trials} trials, worst max_abs_diff={worst:.3e}, "
          f"tol={args.tol:g}: {'ok' if ok else 'FAIL'}")
    return _EXIT_OK if ok else _EXIT_CHECK_FAILED


def _cmd_gradcheck(args) -> int:
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


def _bench_configs(text: str) -> list[bench.BenchConfig]:
    """Inline C,eta,omega,H,W,P sextuples, or the configs of a bench file."""
    if Path(text).exists():
        return bench.read_configs(text)
    if "," not in text:  # every sextuple has commas
        raise ValueError(f"--configs file {text!r} does not exist")
    return [bench.BenchConfig(*_parse_ints(chunk, 6, "--configs entry"))
            for chunk in text.split(";")]


def _cmd_bench(args) -> int:
    configs = _bench_configs(args.configs) if args.configs else None
    if args.json:  # an unwritable path fails here, before any timing
        existed = Path(args.json).exists()
        open(args.json, "a").close()
        if not existed:  # write_json makes it again; a failed run leaves none
            Path(args.json).unlink()
    try:
        results = bench.bench_compare(configs, reps=args.reps, seed=args.seed)
    except RuntimeError as exc:  # the correctness gate failed; nothing was timed
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CHECK_FAILED
    print(" ".join(f"{c:>10}" for c in ("C", "eta", "omega", "H", "W", "P", "reps",
                                        *(f"{n}_ns" for n in bench.PATHS), "speedup")))
    for r in results:
        print(" ".join(f"{v:>10}" for v in (
            *dataclasses.astuple(r.config), r.reps,
            *(f"{getattr(r, n).median_ns:.0f}" for n in bench.PATHS), f"{r.speedup:.3f}")))
    if args.json:
        bench.write_json(results, args.json)
        print(f"wrote {args.json}")
    return _EXIT_OK


def _cmd_toytrain(args) -> int:
    config = toytask.ToyTrainConfig(
        seed=args.seed, n_train=args.train_samples, n_test=args.test_samples,
        num_classes=args.classes, glyph_size=args.glyph_size,
        noise_std=args.noise_std, epochs=args.epochs, lr=args.lr,
        ablate_index=args.ablate_index,
    )
    out = Path(args.out_dir)
    if args.out_dir:  # before training, so an unusable path costs no training time
        out.mkdir(parents=True, exist_ok=True)
    result = toytask.toy_train(config)
    for epoch, loss in enumerate(result.train_curve):
        print(f"epoch {epoch:2d}: mean_loss={loss:.6f}")
    print(f"test_accuracy={result.test_accuracy:.4f}")
    if args.out_dir:
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
    """The stored map; the analysis functions check its rank and values."""
    try:
        return T.tensor_read(path)
    except (OSError, FormatError) as exc:
        raise ValueError(f"cannot read map {path!r}: {exc}") from exc


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
    p.add_argument("--tol", type=float, default=bench.TOL)
    p.set_defaults(func=_cmd_eqcheck)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="central-difference check of every op's gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=gradcheck.EPS)
    p.add_argument("--tol", type=float, default=gradcheck.TOL)
    p.add_argument("--inject-error", action="store_true",
                   help="corrupt one analytic gradient as a negative control")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("bench", parents=[common],
                       help="time naive vs decomposed vs cached fusion")
    p.add_argument("--reps", type=int, default=bench.MIN_REPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--configs", type=str, default="",
                   help="semicolon-separated C,eta,omega,H,W,P sextuples, or a "
                        "file written by --json, whose configs rerun in order")
    p.add_argument("--json", type=str, default="",
                   help="write the environment and median/p10/p90 per path "
                        "as JSON to this path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("toytrain", parents=[common],
                       help="train the glyph-grid toy model")
    toy = toytask.ToyTrainConfig()
    p.add_argument("--seed", type=int, default=toy.seed)
    p.add_argument("--classes", type=int, default=toy.num_classes)
    p.add_argument("--epochs", type=int, default=toy.epochs)
    p.add_argument("--lr", type=float, default=toy.lr)
    p.add_argument("--train-samples", type=int, default=toy.n_train)
    p.add_argument("--test-samples", type=int, default=toy.n_test)
    p.add_argument("--glyph-size", type=int, default=toy.glyph_size)
    p.add_argument("--noise-std", type=float, default=toy.noise_std)
    p.add_argument("--ablate-index", action="store_true",
                   help="leave out the index branch in training and evaluation")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
