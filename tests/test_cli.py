"""Command-line interface: exit codes, output contracts, artifacts."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asymfuse import bench, cli, fusion, gradcheck, toytask
from asymfuse import tensor as T


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def crafted_map_file(tmp_path):
    ch0 = [[0.0, 0.1, 0.2], [0.3, 5.0, 0.4], [0.0, 0.0, 3.0]]
    ch1 = [[0.0, 0.2, 0.1], [0.1, 2.0, 0.3], [0.0, 0.0, 4.0]]
    path = tmp_path / "map.tsr"
    T.tensor_write(np.array([ch0, ch1], dtype=np.float32), path)
    return path


def inject_nan(monkeypatch):
    """Put one NaN into every acm_apply_search output, so the identity gate fails."""
    real = fusion.acm_apply_search

    def one_nan(cache, search, weights, apply_relu=True):
        out = real(cache, search, weights, apply_relu)
        out[0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(fusion, "acm_apply_search", one_nan)


class TestParsing:
    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "eqcheck", "--banana", "1")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_config_echo_comes_first_and_is_sorted(self, capsys):
        code, out, _ = run_cli(capsys, "eqcheck", "--trials", "2", "--seed", "5")
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("config: command=eqcheck ")
        keys = [kv.split("=")[0] for kv in first.split()[2:]]
        assert keys == sorted(keys)
        assert "trials=2" in first and "seed=5" in first and "tol=0.0001" in first

    def test_dump_config_skips_execution(self, capsys):
        code, out, _ = run_cli(capsys, "eqcheck", "--trials", "50", "--dump-config")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config: command=eqcheck")

    def test_dump_config_echoes_library_defaults(self, capsys):
        toy = toytask.ToyTrainConfig()
        suite = inspect.signature(gradcheck.gradient_check_suite).parameters
        defaults = {
            "toytrain": {"ablate_index": toy.ablate_index, "classes": toy.num_classes,
                         "epochs": toy.epochs, "glyph_size": toy.glyph_size, "lr": toy.lr,
                         "noise_std": toy.noise_std, "out_dir": "", "seed": toy.seed,
                         "test_samples": toy.n_test, "train_samples": toy.n_train},
            "gradcheck": {name: p.default for name, p in suite.items()},
        }
        for command, pairs in defaults.items():
            code, out, _ = run_cli(capsys, command, "--dump-config")
            rendered = " ".join(f"{k}={pairs[k]}" for k in sorted(pairs))
            assert code == 0
            assert out == f"config: command={command} {rendered}\n"

    @pytest.mark.parametrize("command, name", [
        ("eqcheck", "--seed"), ("gradcheck", "seed"), ("bench", "seed"), ("toytrain", "seed")])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, command, name):
        # Checked before any work: only the config echo is printed, and no --out-dir is made.
        out_dir = ["--out-dir", str(tmp_path / "run")] if command == "toytrain" else []
        code, out, err = run_cli(capsys, command, "--seed", "-1", *out_dir)
        assert code == 2
        assert err == f"error: {name} must be an integer of at least 0, got -1\n"
        assert len(out.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--classes", "0", "class count must be an integer of at least 1, got 0"),
        ("--glyph-size", "3", "glyph size for three 3x3 convs must be an integer of at least 4, "
                              "got 3")])
    def test_bad_model_shape_is_usage_error(self, capsys, tmp_path, flag, value, message):
        # The model's shape is checked with the config, before --out-dir is made.
        code, out, err = run_cli(capsys, "toytrain", flag, value, "--epochs", "0",
                                 "--out-dir", str(tmp_path / "run"))
        assert code == 2
        assert err == f"error: {message}\n"
        assert len(out.splitlines()) == 1
        assert not (tmp_path / "run").exists()


class TestEqcheck:
    def test_passes_and_prints_per_trial_lines(self, capsys):
        code, out, _ = run_cli(capsys, "eqcheck", "--trials", "5", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        trial_lines = [l for l in lines if l.startswith("trial ")]
        assert len(trial_lines) == 5
        assert all("max_abs_diff=" in l for l in trial_lines)
        assert lines[-1].startswith("eqcheck: 5 trials") and lines[-1].endswith("ok")

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "eqcheck", "--trials", "2", "--tol", "0")
        assert code == 1
        assert out.splitlines()[-1].endswith("FAIL")

    def test_nan_in_decomposed_path_fails(self, capsys, monkeypatch):
        inject_nan(monkeypatch)
        code, out, _ = run_cli(capsys, "eqcheck", "--trials", "3", "--seed", "7")
        assert code == 1
        assert out.splitlines()[-1].endswith("FAIL")

    def test_zero_trials_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eqcheck", "--trials", "0")
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tol_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "eqcheck", "--tol", value)
        assert code == 2
        assert "--tol" in err
        assert "max_abs_diff" not in out

    def test_stdout_is_reproducible(self, capsys):
        _, first, _ = run_cli(capsys, "eqcheck", "--trials", "4", "--seed", "9")
        _, second, _ = run_cli(capsys, "eqcheck", "--trials", "4", "--seed", "9")
        assert first == second


class TestGradcheck:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("gradcheck: 47/47 comparisons passed")
        assert sum(1 for l in lines if l.endswith(" ok")) == 47

    def test_injected_error_is_caught(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--inject-error")
        assert code == 1
        assert any(l.endswith("FAIL") for l in out.splitlines())

    def test_bad_eps_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gradcheck", "--eps", "0")
        assert code == 2
        assert "eps" in err

    @pytest.mark.parametrize("flag", ["--eps", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_scalar_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "gradcheck", flag, value)
        assert code == 2
        assert flag[2:] in err
        assert "comparisons passed" not in out


class TestBench:
    def test_json_output(self, capsys, tmp_path):
        out_json = tmp_path / "bench.json"
        code, out, _ = run_cli(capsys, "bench", "--configs", "2,2,2,4,4,2;3,2,2,5,5,2",
                               "--reps", "20", "--json", str(out_json))
        assert code == 0
        assert f"wrote {out_json}" in out
        doc = json.loads(out_json.read_text())
        assert set(doc) == {"environment", "results"}
        assert [r["config"]["channels"] for r in doc["results"]] == [2, 3]

    def test_unwritable_json_is_usage_error(self, capsys, monkeypatch, tmp_path):
        # The path is checked before timing: nothing is timed, no table printed.
        def never_timed(calls, reps):
            raise AssertionError("a path was timed")

        monkeypatch.setattr(bench, "_samples_ns", never_timed)
        code, out, err = run_cli(capsys, "bench", "--configs", "2,2,2,4,4,2",
                                 "--json", str(tmp_path / "missing" / "b.json"))
        assert code == 2
        assert err.startswith("error:")
        assert "speedup" not in out

    def test_gate_failure_leaves_no_new_json_file(self, capsys, monkeypatch, tmp_path):
        # Exit 1 with an error line; a file the run created is removed, one
        # that was there before keeps its bytes.
        inject_nan(monkeypatch)
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("kept\n")
        for path in (new, old):
            code, out, err = run_cli(capsys, "bench", "--configs", "2,2,2,4,4,2",
                                     "--json", str(path))
            assert code == 1
            assert err.startswith("error: correctness gate failed")
            assert "speedup" not in out
        assert not new.exists()
        assert old.read_text() == "kept\n"

    def test_reps_below_floor(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--reps", "5")
        assert code == 2
        assert "reps" in err

    def test_malformed_configs(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--configs", "2,2,2")
        assert code == 2

    def test_template_larger_than_map_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--configs", "2,9,9,4,4,2")
        assert code == 2

    def test_configs_roundtrip_through_json_file(self, capsys, tmp_path):
        # A --json file reruns its configs in the order it lists them.
        out_json = tmp_path / "bench.json"
        code, _, _ = run_cli(capsys, "bench", "--configs", "3,2,2,5,5,2;2,2,2,4,4,2",
                             "--reps", "20", "--json", str(out_json))
        assert code == 0
        code, out, _ = run_cli(capsys, "bench", "--configs", str(out_json),
                               "--reps", "20")
        assert code == 0
        lines = out.splitlines()
        header = next(i for i, l in enumerate(lines) if "speedup" in l)
        rows = [l.split()[:6] for l in lines[header + 1:] if l.strip()]
        assert rows == [["3", "2", "2", "5", "5", "2"], ["2", "2", "2", "4", "4", "2"]]

    def test_configs_file_without_rows(self, capsys, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text('{"environment": {}, "results": []}\n')
        code, out, err = run_cli(capsys, "bench", "--configs", str(cfg))
        assert code == 2
        assert "no benchmark configurations" in err
        assert "speedup" not in out

    @pytest.mark.parametrize("text, message", [
        ("C,eta,omega,H,W,P\n2,2,2,4,4,2\n", "not a bench --json file"),  # the old CSV
        ('{"results": [{"config": {"channels": 2}}]}', "not a bench --json file"),
        ('{"results": [{"config": {"channels": 2.0, "eta": 2, "omega": 2, '
         '"height": 4, "width": 4, "out_channels": 2}}]}', "not a bench --json file"),
        ('{"environment": {}}', "not a bench --json file"),
        ('{"before": {"results": []}}', "not a bench --json file"),  # no "after"
        ('{"before": {"results": []}, "after": {"results": [{"config": {"channels": 2, '
         '"eta": 2, "omega": 2, "height": 4, "width": 4, "out_channels": 2}}]}}',
         "different configs"),
        ("[]", "not a bench --json file"),
        (None, "does not exist"),  # no file is written
    ])
    def test_malformed_configs_file(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "bad.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(capsys, "bench", "--configs", str(cfg))
        assert code == 2
        assert err.startswith("error:") and message in err
        assert "speedup" not in out


class TestToytrain:
    # The ablated arm's model leaves the index branch out, so it writes no idx_*.tsr.
    @pytest.mark.parametrize("flags, index_branch", [
        ((), 6), (("--ablate-index",), 0)], ids=["indexed", "ablated"])
    def test_tiny_run_with_artifacts(self, capsys, tmp_path, flags, index_branch):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "toytrain", "--train-samples", "30", "--test-samples", "10",
            "--epochs", "2", "--glyph-size", "5", "--out-dir", str(out_dir), *flags,
        )
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("epoch ")) == 2
        acc_line = [l for l in lines if l.startswith("test_accuracy=")]
        assert len(acc_line) == 1
        float(acc_line[0].split("=")[1])
        curve = (out_dir / "curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,mean_loss"
        assert len(curve) == 3
        tensors = sorted(p.name for p in (out_dir / "model").glob("*.tsr"))
        trained = {f"{name}.tsr" for name in ("conv1", "conv2", "fuse", "head_w", "head_b")}
        assert {name for name in tensors if not name.startswith("idx_")} == trained
        assert len(tensors) == len(trained) + index_branch
        reloaded = T.tensor_read(out_dir / "model" / "conv1.tsr")
        assert reloaded.shape == (8, 1, 3, 3)

    def test_unusable_out_dir_fails_before_training(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        code, out, err = run_cli(capsys, "toytrain", "--epochs", "1", "--train-samples", "4",
                                 "--test-samples", "4", "--out-dir", str(tmp_path / "file" / "run"))
        assert code == 2
        assert err.startswith("error:")
        assert "mean_loss" not in out

    def test_bad_lr(self, capsys):
        code, _, err = run_cli(capsys, "toytrain", "--lr", "0")
        assert code == 2
        assert "lr" in err

    @pytest.mark.parametrize("flag", ["--lr", "--noise-std"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_scalar_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "toytrain", flag, value, "--epochs", "1",
                                 "--train-samples", "4", "--test-samples", "4")
        assert code == 2
        assert err.startswith("error:")
        assert "mean_loss" not in out

    def test_bad_class_count(self, capsys):
        code, _, err = run_cli(capsys, "toytrain", "--classes", "9")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "-1"), ("--train-samples", "0"), ("--test-samples", "0"),
        ("--classes", "0")])
    def test_bad_count_is_usage_error(self, capsys, flag, value):
        # ToyTrainConfig and ToyModel reject these before any dataset is drawn.
        code, out, err = run_cli(capsys, "toytrain", flag, value)
        assert code == 2
        assert err.startswith("error:")
        assert "mean_loss" not in out

    def test_glyph_size_too_small_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "toytrain", "--glyph-size", "3", "--epochs", "0")
        assert code == 2
        assert "glyph size" in err
        assert "test_accuracy" not in out


class TestAnalyze:
    def test_crafted_map_report(self, capsys, tmp_path):
        path = crafted_map_file(tmp_path)
        code, out, _ = run_cli(capsys, "analyze", "--map", str(path),
                               "--target", "1,1", "--exclude", "0,0,1,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == ("cosine,euclidean_norm01,target_r,target_c,"
                            "distractor_r,distractor_c,degenerate,diversity_mean")
        cells = lines[2].split(",")
        assert float(cells[0]) == pytest.approx(23.0 / (5.0 * math.sqrt(29.0)), abs=1e-5)
        assert float(cells[1]) == pytest.approx(0.4 * math.sqrt(2.0), abs=1e-5)
        assert cells[2:7] == ["1", "1", "2", "2", "0"]
        assert float(cells[7]) == pytest.approx(0.9, abs=1e-5)

    def test_missing_map_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--map", str(tmp_path / "no.tsr"),
                               "--target", "0,0", "--exclude", "0,0,0,0")
        assert code == 2
        assert "cannot read" in err

    def test_rank_enforced(self, capsys, tmp_path):
        path = tmp_path / "flat.tsr"
        T.tensor_write(np.zeros((3, 3), np.float32), path)
        code, _, err = run_cli(capsys, "analyze", "--map", str(path),
                               "--target", "0,0", "--exclude", "0,0,0,0")
        assert code == 2
        assert "rank 3" in err

    @pytest.mark.parametrize("target", ["1", "1,x"])
    def test_bad_target_format(self, capsys, tmp_path, target):
        path = crafted_map_file(tmp_path)
        code, _, err = run_cli(capsys, "analyze", "--map", str(path),
                               "--target", target, "--exclude", "0,0,1,1")
        assert code == 2
        assert "--target" in err

    def test_semantic_errors_map_to_usage(self, capsys, tmp_path):
        # Exclusion box covering the whole map leaves no distractor.
        path = crafted_map_file(tmp_path)
        code, _, err = run_cli(capsys, "analyze", "--map", str(path),
                               "--target", "1,1", "--exclude", "0,0,2,2")
        assert code == 2


class TestHeatmap:
    def test_writes_csv_and_pgm(self, capsys, tmp_path):
        path = crafted_map_file(tmp_path)
        prefix = tmp_path / "strength"
        code, out, _ = run_cli(capsys, "heatmap", "--map", str(path),
                               "--out", str(prefix))
        assert code == 0
        assert "wrote" in out
        assert (tmp_path / "strength.csv").exists()
        pgm = (tmp_path / "strength.pgm").read_bytes()
        assert pgm.startswith(b"P5\n3 3\n255\n")

    def test_unwritable_prefix_is_usage_error(self, capsys, tmp_path):
        path = crafted_map_file(tmp_path)
        code, _, err = run_cli(capsys, "heatmap", "--map", str(path),
                               "--out", str(tmp_path / "missing" / "strength"))
        assert code == 2
        assert err.startswith("error:")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "asymfuse", "eqcheck", "--trials", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("config: command=eqcheck")

    def test_import_loads_only_what_the_workloads_run(self):
        """``import asymfuse`` loads the seven modules the benchmark's workloads run, and
        no tool; the tools import by path. Bytecode writing is off, so nothing is cached."""
        script = ("import sys, asymfuse\n"
                  "print(*sorted(n for n in sys.modules if n.split('.')[0] == 'asymfuse'))\n"
                  "from asymfuse.bench import bench_compare\n"
                  "from asymfuse.gradcheck import gradient_check_suite\n"
                  "from asymfuse.analysis import heatmap_export\n")
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        modules = ["autograd", "errors", "fusion", "nn", "plain", "tensor", "toytask"]
        assert proc.stdout.split() == ["asymfuse"] + [f"asymfuse.{m}" for m in modules]
