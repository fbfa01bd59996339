"""Benchmark harness mechanics (not absolute timings)."""

import json
from dataclasses import replace
from pathlib import Path

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

    # The one integer rule: a NumPy integer passes (tests/test_integer_rule.py).
    @pytest.mark.parametrize("bad", [2.0, True, "2"])
    def test_dimensions_must_be_ints(self, bad):
        with pytest.raises(ValueError, match="channels must be an integer of at least 1"):
            bench.BenchConfig(bad, 2, 2, 4, 4, 2)

    def test_default_configs_are_valid(self):
        configs = bench.default_configs()
        assert len(configs) >= 3
        assert all(isinstance(c, bench.BenchConfig) for c in configs)


class TestBenchResult:
    def make(self, **overrides):
        fields = dict(config=bench.BenchConfig(2, 2, 2, 4, 4, 2), reps=20,
                      naive=bench.PathTiming(400.0, 380.0, 420.0),
                      acm=bench.PathTiming(100.0, 95.0, 105.0),
                      cached=bench.PathTiming(50.0, 45.0, 55.0))
        fields.update(overrides)
        return bench.BenchResult(**fields)

    def test_speedup_ratio(self):
        assert self.make().speedup == pytest.approx(4.0)

    def test_too_few_reps_rejected(self):
        with pytest.raises(ValueError):
            self.make(reps=19)

    def test_non_positive_times_rejected(self):
        for path in bench.PATHS:
            for times in [(0.0, 1.0, 2.0), (1.0, 0.0, 2.0), (1.0, 1.0, -2.0)]:
                with pytest.raises(ValueError, match="positive"):
                    self.make(**{path: bench.PathTiming(*times)})


class TestBenchCompare:
    def test_runs_and_orders_single_window_config(self):
        # H = eta, W = omega: one output position, so the naive and
        # decomposed paths do comparable work and the gate still runs.
        config = bench.BenchConfig(4, 3, 3, 3, 3, 4)
        (result,) = bench.bench_compare([config], reps=20, seed=1)
        assert result.reps == 20
        assert all(getattr(result, name).median_ns > 0 for name in bench.PATHS)
        assert 0.05 < result.speedup < 20.0

    def test_reps_floor_enforced(self):
        with pytest.raises(ValueError):
            bench.bench_compare([bench.BenchConfig(2, 2, 2, 4, 4, 2)], reps=5)

    def test_correctness_gate_aborts_on_disagreement(self, monkeypatch):
        # Corrupt one path; the gate must refuse to time anything.
        naive, decomposed = fusion.naive_concat_corr, fusion.acm_apply_search

        def off_by_one(template, search, weights):
            return naive(template, search, weights) + 1.0

        def one_nan(cache, search, weights, apply_relu=True):
            out = decomposed(cache, search, weights, apply_relu)
            out[0, 0, 0] = np.nan
            return out

        def no_prior(cache, search, weights, apply_relu=True):
            return decomposed(replace(cache, prior_term=None), search,
                              replace(weights, prior=None), apply_relu)

        def never_timed(calls, reps):
            raise AssertionError("a path was timed")

        monkeypatch.setattr(bench, "_samples_ns", never_timed)
        for name, fault in [("naive_concat_corr", off_by_one),
                            ("acm_apply_search", one_nan), ("acm_apply_search", no_prior)]:
            with monkeypatch.context() as patch:
                patch.setattr(fusion, name, fault)
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
            assert stats == getattr(result, name)._asdict()
            assert 0 < stats["p10_ns"] <= stats["median_ns"] <= stats["p90_ns"]

    @pytest.mark.parametrize("name", ["BENCH_6.json", "BENCH_7.json"])
    def test_committed_claim_files_read_back(self, name):
        # Each wraps two write_json outputs of the default configs under
        # "before" and "after"; a format change must not strand them.
        path = Path(__file__).resolve().parent.parent / name
        assert bench.read_configs(path) == bench.default_configs()

    def test_claim_file_sides_must_agree(self, tmp_path):
        timing = bench.PathTiming(2.0, 1.0, 3.0)

        def side(config):
            result = bench.BenchResult(config, 20, timing, timing, timing)
            return json.loads(bench.write_json([result], tmp_path / "side.json").read_text())

        sides = {"before": side(bench.BenchConfig(2, 2, 2, 4, 4, 2)),
                 "after": side(bench.BenchConfig(3, 2, 2, 4, 4, 2))}
        claim = tmp_path / "claim.json"
        claim.write_text(json.dumps(sides))
        with pytest.raises(ValueError, match="different configs"):
            bench.read_configs(claim)
        sides["before"] = sides["after"]
        claim.write_text(json.dumps(sides))
        assert bench.read_configs(claim) == [bench.BenchConfig(3, 2, 2, 4, 4, 2)]
