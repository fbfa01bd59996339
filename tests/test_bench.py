"""Benchmark harness mechanics (not absolute timings)."""

import json

import numpy as np
import pytest

from asymfuse import bench, fusion


class TestBenchConfig:
    def test_positions(self):
        assert bench.BenchConfig(4, 3, 3, 10, 12, 4).positions == 8 * 10
        assert bench.BenchConfig(1, 5, 5, 5, 5, 1).positions == 1

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            bench.BenchConfig(0, 3, 3, 10, 10, 4)
        with pytest.raises(ValueError):
            bench.BenchConfig(4, 6, 3, 5, 10, 4)

    def test_default_configs_are_valid(self):
        configs = bench.default_configs()
        assert len(configs) >= 3
        assert all(isinstance(c, bench.BenchConfig) for c in configs)


class TestBenchResult:
    def make(self, **overrides):
        fields = dict(config=bench.BenchConfig(2, 2, 2, 4, 4, 2), reps=20,
                      naive_ns=400.0, acm_ns=100.0, cached_ns=50.0)
        fields.update(overrides)
        return bench.BenchResult(**fields)

    def test_speedup_ratio(self):
        assert self.make().speedup == pytest.approx(4.0)

    def test_too_few_reps_rejected(self):
        with pytest.raises(ValueError):
            self.make(reps=19)

    def test_non_positive_times_rejected(self):
        with pytest.raises(ValueError):
            self.make(naive_ns=0.0)


class TestBenchCompare:
    def test_runs_and_orders_single_window_config(self):
        # H = eta, W = omega: one output position, so the naive and
        # decomposed paths do comparable work and the gate still runs.
        config = bench.BenchConfig(4, 3, 3, 3, 3, 4)
        (result,) = bench.bench_compare([config], reps=20, seed=1)
        assert result.reps == 20
        assert result.naive_ns > 0 and result.acm_ns > 0 and result.cached_ns > 0
        assert 0.05 < result.speedup < 20.0

    def test_reps_floor_enforced(self):
        with pytest.raises(ValueError):
            bench.bench_compare([bench.BenchConfig(2, 2, 2, 4, 4, 2)], reps=5)

    def test_correctness_gate_aborts_on_disagreement(self, monkeypatch):
        # Corrupt one path; the gate must refuse to time anything.
        real = fusion.naive_concat_corr

        def wrong(template, search, weights):
            return real(template, search, weights) + 1.0

        monkeypatch.setattr(fusion, "naive_concat_corr", wrong)
        with pytest.raises(RuntimeError, match="correctness gate"):
            bench.bench_compare([bench.BenchConfig(2, 2, 2, 4, 4, 2)], reps=20)


class TestScalingSlope:
    def test_sizes_are_timed_round_robin(self):
        order = []
        calls = [lambda i=i: order.append(i) for i in range(3)]
        samples = bench._samples_ns(calls, reps=4)
        assert order == [0, 0, 0, 1, 1, 1, 2, 2, 2] + [0, 1, 2] * 4
        assert [len(times) for times in samples] == [4, 4, 4]

    def test_slope_clearly_positive(self):
        # The acceptance suite holds the same sweep to 0.9; this looser
        # bound checks only the trend.
        assert bench.naive_scaling_slope() > 0.5


class TestJson:
    def test_records_environment_and_spread_per_path(self, tmp_path):
        config = bench.BenchConfig(2, 2, 2, 5, 5, 2)
        (result,) = bench.bench_compare([config], reps=20, seed=2)
        doc = json.loads(bench.write_json([result], tmp_path / "b.json").read_text())
        env = doc["environment"]
        assert env["numpy"] == np.__version__
        assert env["cores"] >= 1 and env["blas"]
        assert "blas_threads" in env
        (row,) = doc["results"]
        assert row["config"] == {"channels": 2, "eta": 2, "omega": 2, "height": 5,
                                 "width": 5, "out_channels": 2}
        assert row["reps"] == 20
        assert set(row["paths"]) == {"naive", "acm", "cached"}
        for name, stats in row["paths"].items():
            assert stats["median_ns"] == getattr(result, f"{name}_ns")
            assert 0 < stats["p10_ns"] <= stats["median_ns"] <= stats["p90_ns"]
