"""Discriminability, channel diversity, and heatmap export."""

import csv
import math

import numpy as np
import numpy.testing as npt
import pytest

from asymfuse import analysis
from asymfuse.errors import (
    EmptyExteriorError,
    NonFiniteMapError,
    NonPositiveMaxError,
    RankError,
)


def crafted_map():
    """2 x 3 x 3 map with hand-worked statistics (see assertions)."""
    ch0 = [[0.0, 0.1, 0.2], [0.3, 5.0, 0.4], [0.0, 0.0, 3.0]]
    ch1 = [[0.0, 0.2, 0.1], [0.1, 2.0, 0.3], [0.0, 0.0, 4.0]]
    return np.array([ch0, ch1], dtype=np.float32)


class TestDiscriminability:
    def test_hand_worked_example(self):
        # Exterior of box (0,0)-(1,1): l1 peaks at (2,2) with 3+4=7.
        # target vector (5,2), distractor (3,4):
        #   cosine = (15+8) / (sqrt(29) * 5)
        #   joint min-max (0..5): t=(1.0,0.4), d=(0.6,0.8), dist = 0.4*sqrt(2)
        report = analysis.discriminability(crafted_map(), (1, 1), (0, 0, 1, 1))
        assert report.distractor_pos == (2, 2)
        assert report.target_pos == (1, 1)
        assert report.cosine == pytest.approx(23.0 / (5.0 * math.sqrt(29.0)), abs=1e-6)
        assert report.euclidean_norm01 == pytest.approx(0.4 * math.sqrt(2.0), abs=1e-6)
        assert not report.degenerate

    def test_hand_worked_per_channel_norm(self):
        # ch0 spans 0..5 -> t0=1.0, d0=0.6; ch1 spans 0..4 -> t1=0.5, d1=1.0.
        report = analysis.discriminability(crafted_map(), (1, 1), (0, 0, 1, 1),
                                           per_channel_norm=True)
        assert report.euclidean_norm01 == pytest.approx(math.sqrt(0.16 + 0.25), abs=1e-6)

    def test_identical_vectors(self):
        m = np.array([[[2.0, 0.0, 2.0], [0.0, 0.0, 0.0]],
                      [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]], dtype=np.float32)
        report = analysis.discriminability(m, (0, 0), (0, 0, 1, 0))
        assert report.distractor_pos == (0, 2)
        assert report.cosine == pytest.approx(1.0, abs=1e-6)
        assert report.euclidean_norm01 == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_vectors(self):
        m = np.array([[[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.5]]], dtype=np.float32)
        report = analysis.discriminability(m, (0, 0), (0, 0, 0, 1))
        assert report.distractor_pos == (0, 2)
        assert report.cosine == pytest.approx(0.0, abs=1e-6)
        assert report.euclidean_norm01 == pytest.approx(math.sqrt(1.25), abs=1e-6)

    def test_degenerate_zero_target_vector(self):
        m = np.zeros((2, 2, 2), dtype=np.float32)
        m[:, 1, 1] = [1.0, 2.0]
        report = analysis.discriminability(m, (0, 0), (0, 0, 0, 0))
        assert report.degenerate
        assert math.isnan(report.cosine)
        assert np.isfinite(report.euclidean_norm01)

    def test_matches_loop_oracle_on_random_map(self):
        rng = np.random.default_rng(90)
        m = rng.normal(size=(8, 5, 5)).astype(np.float32)
        target = (2, 2)
        box = (1, 1, 3, 3)
        report = analysis.discriminability(m, target, box)

        # Independent pure-Python walk.
        best_pos, best_l1 = None, -1.0
        for i in range(5):
            for j in range(5):
                if box[0] <= i <= box[2] and box[1] <= j <= box[3]:
                    continue
                l1 = sum(abs(float(m[c, i, j])) for c in range(8))
                if l1 > best_l1:
                    best_pos, best_l1 = (i, j), l1
        assert report.distractor_pos == best_pos
        tv = [float(m[c, 2, 2]) for c in range(8)]
        dv = [float(m[c, best_pos[0], best_pos[1]]) for c in range(8)]
        dot = sum(a * b for a, b in zip(tv, dv))
        cos = dot / (math.sqrt(sum(a * a for a in tv)) * math.sqrt(sum(b * b for b in dv)))
        assert report.cosine == pytest.approx(cos, abs=1e-6)
        lo = float(m.min())
        hi = float(m.max())
        dist = math.sqrt(sum(((a - lo) / (hi - lo) - (b - lo) / (hi - lo)) ** 2
                             for a, b in zip(tv, dv)))
        assert report.euclidean_norm01 == pytest.approx(dist, abs=1e-6)

    def test_row_major_tie_break(self):
        m = np.array([[[0.0, 5.0, 5.0], [0.0, 5.0, 0.0]]], dtype=np.float32)
        pos = analysis.find_distractor(m, (0, 0, 1, 0))
        assert pos == (0, 1)

    def test_scale_invariance_of_cosine(self):
        m = crafted_map()
        base = analysis.discriminability(m, (1, 1), (0, 0, 1, 1))
        scaled = analysis.discriminability(3.0 * m, (1, 1), (0, 0, 1, 1))
        assert scaled.cosine == pytest.approx(base.cosine, abs=1e-6)
        assert scaled.distractor_pos == base.distractor_pos

    def test_affine_invariance_of_normalized_euclidean(self):
        m = crafted_map()
        base = analysis.discriminability(m, (1, 1), (0, 0, 1, 1))
        transformed = analysis.discriminability(2.5 * m + 7.0, (1, 1), (0, 0, 1, 1))
        assert transformed.euclidean_norm01 == pytest.approx(base.euclidean_norm01, abs=1e-6)

    def test_empty_exterior(self):
        with pytest.raises(EmptyExteriorError):
            analysis.discriminability(crafted_map(), (1, 1), (0, 0, 2, 2))

    def test_box_must_contain_target(self):
        with pytest.raises(ValueError):
            analysis.discriminability(crafted_map(), (2, 2), (0, 0, 1, 1))

    def test_positions_validated(self):
        bad_boxes = [5, None, (0, 0, 1), (0, 0, 1, 1, 1)]
        bad_targets = [1, (1,), (1, 1, 1)]
        cases = [((5, 0), (0, 0, 1, 1), "target row"), ((1, 1), (0, 0, 4, 4), "box r1")]
        cases += [((1, 1), box, "exclude_box must be 4 integers") for box in bad_boxes]
        cases += [(target, (0, 0, 1, 1), "target_pos must be 2 integers")
                  for target in bad_targets]
        for target, box, message in cases:
            with pytest.raises(ValueError, match=message) as caught:
                analysis.discriminability(crafted_map(), target, box)
            assert caught.type is ValueError
        for box in bad_boxes:
            with pytest.raises(ValueError, match="exclude_box must be 4 integers"):
                analysis.find_distractor(crafted_map(), box)

    def test_rank_enforced(self):
        with pytest.raises(RankError):
            analysis.discriminability(np.zeros((3, 3)), (0, 0), (0, 0, 1, 1))


class TestChannelDiversity:
    def test_hand_worked(self):
        d = analysis.channel_diversity(crafted_map())
        npt.assert_allclose(d.per_channel, np.array([1.0, 0.8], np.float32), atol=1e-6)
        assert d.mean == pytest.approx(0.9, abs=1e-6)

    def test_equal_peaks_give_one(self):
        m = np.stack([np.eye(3, dtype=np.float32) * 4.0] * 5)
        d = analysis.channel_diversity(m)
        npt.assert_allclose(d.per_channel, 1.0, atol=1e-7)
        assert d.mean == pytest.approx(1.0, abs=1e-7)

    def test_single_active_channel_gives_one_over_n(self):
        m = np.zeros((4, 2, 2), dtype=np.float32)
        m[2, 1, 0] = 3.0
        d = analysis.channel_diversity(m)
        assert d.mean == pytest.approx(0.25, abs=1e-7)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(91)
        m = rng.uniform(0.1, 2.0, size=(8, 5, 5)).astype(np.float32)
        d = analysis.channel_diversity(m)
        global_max = max(float(v) for v in m.ravel())
        expected = [max(float(v) for v in m[c].ravel()) / global_max for c in range(8)]
        npt.assert_allclose(d.per_channel, expected, atol=1e-6)
        assert d.mean == pytest.approx(sum(expected) / 8.0, abs=1e-6)

    def test_non_positive_max_rejected(self):
        with pytest.raises(NonPositiveMaxError):
            analysis.channel_diversity(-np.ones((2, 2, 2), dtype=np.float32))
        with pytest.raises(NonPositiveMaxError):
            analysis.channel_diversity(np.zeros((2, 2, 2), dtype=np.float32))


class TestHeatmapExport:
    def test_pgm_scaling_spot_check(self, tmp_path):
        m = np.array([[[0.0, 1.0], [2.0, 3.0]]], dtype=np.float32)
        _, pgm = analysis.heatmap_export(m, tmp_path / "map")
        blob = pgm.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert list(blob[len(b"P5\n2 2\n255\n"):]) == [0, 85, 170, 255]

    def test_constant_map_renders_black(self, tmp_path):
        m = np.full((3, 2, 2), 1.25, dtype=np.float32)
        _, pgm = analysis.heatmap_export(m, tmp_path / "flat")
        payload = pgm.read_bytes().split(b"255\n", 1)[1]
        assert payload == b"\x00" * 4

    def test_csv_reparses_to_l1_map(self, tmp_path):
        rng = np.random.default_rng(92)
        m = rng.normal(size=(4, 6, 5)).astype(np.float32)
        csv_path, _ = analysis.heatmap_export(m, tmp_path / "rand")
        with open(csv_path, newline="") as fh:
            rows = [[float(v) for v in row] for row in csv.reader(fh)]
        parsed = np.array(rows)
        expected = np.abs(m.astype(np.float64)).sum(axis=0)
        assert parsed.shape == (6, 5)
        npt.assert_allclose(parsed, expected, atol=1e-5)

    def test_csv_uses_lf_line_endings(self, tmp_path):
        m = np.ones((1, 2, 2), dtype=np.float32)
        csv_path, _ = analysis.heatmap_export(m, tmp_path / "lf")
        raw = csv_path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_export_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(93)
        m = rng.normal(size=(3, 4, 4)).astype(np.float32)
        a_csv, a_pgm = analysis.heatmap_export(m, tmp_path / "a")
        b_csv, b_pgm = analysis.heatmap_export(m, tmp_path / "b")
        assert a_csv.read_bytes() == b_csv.read_bytes()
        assert a_pgm.read_bytes() == b_pgm.read_bytes()


# Entry point -> call on a map (2 x 5 x 5); heatmap_export writes under tmp.
ANALYSIS_CALLS = {
    "find_distractor": lambda m, tmp: analysis.find_distractor(m, (0, 0, 1, 1)),
    "discriminability": lambda m, tmp: analysis.discriminability(m, (0, 0), (0, 0, 1, 1)),
    "channel_diversity": lambda m, tmp: analysis.channel_diversity(m),
    "heatmap_export": lambda m, tmp: analysis.heatmap_export(m, tmp / "map"),
}


class TestNonFiniteMaps:
    @pytest.mark.parametrize("call", ANALYSIS_CALLS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejected(self, bad, call, tmp_path):
        m = np.ones((2, 5, 5), dtype=np.float32)
        m[0, 3, 3] = bad
        with pytest.raises(NonFiniteMapError):
            ANALYSIS_CALLS[call](m, tmp_path)
        assert not any(tmp_path.iterdir())
