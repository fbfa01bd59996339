"""Synthetic grid task: data generation, model wiring, training loop."""

import math
import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from asymfuse import autograd as ag
from asymfuse import tensor as T
from asymfuse import toytask as tt
from asymfuse.errors import (
    EmptyDatasetError,
    LabelOutOfRangeError,
    TooManyClassesError,
)


class TestGlyphs:
    def test_solid_and_hollow(self):
        solid = tt.glyph_bitmap(0, 5)
        assert solid.min() == 1.0
        box = tt.glyph_bitmap(1, 5)
        assert box[0].min() == 1.0 and box[-1].min() == 1.0
        assert box[2, 2] == 0.0

    def test_cross_hits_both_diagonals(self):
        x = tt.glyph_bitmap(2, 5)
        assert x[0, 0] == x[4, 4] == x[0, 4] == x[4, 0] == 1.0
        assert x[0, 2] == 0.0

    def test_checkerboard_parity(self):
        chk = tt.glyph_bitmap(6, 4)
        rows, cols = np.indices((4, 4))
        npt.assert_array_equal(chk, ((rows + cols) % 2 == 0).astype(np.float32))

    def test_all_eight_are_distinct(self):
        bitmaps = [tt.glyph_bitmap(g, 7).tobytes() for g in range(8)]
        assert len(set(bitmaps)) == 8

    def test_binary_values_only(self):
        for g in range(8):
            assert set(np.unique(tt.glyph_bitmap(g, 9))) <= {0.0, 1.0}

    def test_bad_ids_and_sizes(self):
        with pytest.raises(ValueError):
            tt.glyph_bitmap(8, 7)
        with pytest.raises(ValueError):
            tt.glyph_bitmap(-1, 7)
        with pytest.raises(ValueError):
            tt.glyph_bitmap(0, 2)


class TestOneHot:
    def test_basis_vector(self):
        npt.assert_array_equal(tt.one_hot(2), np.array([0, 0, 1, 0], np.float32))

    def test_range_check(self):
        with pytest.raises(ValueError):
            tt.one_hot(4)
        with pytest.raises(ValueError):
            tt.one_hot(-1)


class TestGenDataset:
    def test_shapes_and_ranges(self):
        samples = tt.gen_dataset(seed=3, n=20, glyph_size=5)
        assert len(samples) == 20
        for s in samples:
            assert s.image.shape == (1, 10, 10)
            assert s.image.dtype == np.float32
            assert 0 <= s.index < 4
            assert 0 <= s.label < 4
            assert float(s.image.min()) >= 0.0
            assert float(s.image.max()) <= 1.0

    def test_deterministic_bytes(self):
        a = tt.gen_dataset(seed=11, n=8)
        b = tt.gen_dataset(seed=11, n=8)
        for sa, sb in zip(a, b):
            assert sa.image.tobytes() == sb.image.tobytes()
            assert (sa.index, sa.label) == (sb.index, sb.label)

    def test_prefix_stable_under_larger_n(self):
        # Sample i derives from spawned child i, so extending the set
        # must not disturb earlier samples.
        short = tt.gen_dataset(seed=5, n=3)
        long = tt.gen_dataset(seed=5, n=9)
        for s, l in zip(short, long):
            assert s.image.tobytes() == l.image.tobytes()
            assert (s.index, s.label) == (l.index, l.label)

    def test_different_seeds_differ(self):
        a = tt.gen_dataset(seed=0, n=4)
        b = tt.gen_dataset(seed=1, n=4)
        assert any(x.image.tobytes() != y.image.tobytes() for x, y in zip(a, b))

    def test_zero_noise_is_binary(self):
        samples = tt.gen_dataset(seed=2, n=6, noise_std=0.0)
        for s in samples:
            assert set(np.unique(s.image)) <= {0.0, 1.0}

    def test_zero_noise_quadrant_is_a_glyph(self):
        size = 7
        for s in tt.gen_dataset(seed=7, n=10, noise_std=0.0, glyph_size=size):
            r0 = (s.index // 2) * size
            c0 = (s.index % 2) * size
            quadrant = s.image[0, r0 : r0 + size, c0 : c0 + size]
            npt.assert_array_equal(quadrant, tt.glyph_bitmap(s.label, size))

    def test_label_frequencies_near_uniform(self):
        samples = tt.gen_dataset(seed=13, n=4000)
        counts = np.bincount([s.label for s in samples], minlength=4)
        sigma = math.sqrt(4000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 1000) < 3 * sigma)

    def test_restricted_class_count(self):
        samples = tt.gen_dataset(seed=4, n=30, num_classes=2)
        assert {s.label for s in samples} <= {0, 1}

    def test_validation_errors(self):
        with pytest.raises(TooManyClassesError):
            tt.gen_dataset(seed=0, n=1, num_classes=9)
        with pytest.raises(ValueError):
            tt.gen_dataset(seed=0, n=-1)
        with pytest.raises(ValueError):
            tt.gen_dataset(seed=0, n=1, num_classes=0)
        with pytest.raises(ValueError):
            tt.gen_dataset(seed=0, n=1, noise_std=-0.1)
        with pytest.raises(ValueError):
            tt.gen_dataset(seed=0, n=1, glyph_size=2)

    @pytest.mark.parametrize("noise_std", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, noise_std):
        with pytest.raises(ValueError):
            tt.gen_dataset(seed=0, n=1, noise_std=noise_std)


def small_model(seed=0, ablate_index=False):
    return tt.ToyModel(conv_channels=(3, 4), fused_channels=5, index_hidden=6,
                       seed=seed, ablate_index=ablate_index)


SHARED = ("conv1", "conv2", "fuse", "head_w", "head_b")
INDEX_BRANCH = ("idx_w1", "idx_b1", "idx_w2", "idx_b2", "idx_w3", "idx_b3")


def small_samples(n=6, seed=21):
    return tt.gen_dataset(seed=seed, n=n, glyph_size=5)


class TestToyModel:
    # An ablated model holds only the tensors its forward reads.
    @pytest.mark.parametrize("ablate_index, names", [
        (False, SHARED[:3] + INDEX_BRANCH + SHARED[3:]), (True, SHARED)],
        ids=["indexed", "ablated"])
    def test_parameter_inventory(self, ablate_index, names):
        model = small_model(ablate_index=ablate_index)
        params = model.parameters()
        assert tuple(p.name for p in params) == names
        assert len({id(p) for p in params}) == len(names)
        assert model.fuse.value.shape == (5, 4, 3, 3)
        assert model.head_w.value.shape == (4, 5)

    def test_arms_draw_the_same_shared_tensors(self):
        indexed, ablated = small_model(seed=3), small_model(seed=3, ablate_index=True)
        for name in SHARED:
            assert getattr(indexed, name).value.tobytes() == getattr(ablated, name).value.tobytes()

    def test_init_bounds_follow_fan_in(self):
        model = tt.ToyModel(seed=1)
        bound = math.sqrt(6.0 / (16 * 3 * 3))
        assert float(np.abs(model.fuse.value).max()) <= bound
        assert float(np.abs(model.idx_w1.value).max()) <= math.sqrt(6.0 / 4)

    def test_same_seed_same_weights(self):
        a, b = small_model(seed=9), small_model(seed=9)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.value.tobytes() == pb.value.tobytes()

    def test_class_count_validated(self):
        with pytest.raises(TooManyClassesError):
            tt.ToyModel(num_classes=9)
        with pytest.raises(ValueError):
            tt.ToyModel(num_classes=0)

    @pytest.mark.parametrize("build", [
        lambda v: tt.ToyModel(conv_channels=v),
        lambda v: tt.toy_train(tt.ToyTrainConfig(conv_channels=v, epochs=0, n_test=1)),
        lambda v: tt.ToyTrainConfig(conv_channels=v)],
        ids=["ToyModel", "toy_train", "ToyTrainConfig"])
    @pytest.mark.parametrize("conv_channels", [(8,), (8, 16, 4), 8, None],
                             ids=["one width", "three widths", "int", "None"])
    def test_conv_channels_must_be_two_widths(self, build, conv_channels):
        with pytest.raises(ValueError, match=f"conv_channels must be 2 integers, got "
                                             f"{re.escape(repr(conv_channels))}$"):
            build(conv_channels)

    @pytest.mark.parametrize("build", [
        lambda v: tt.ToyModel(ablate_index=v),
        lambda v: tt.ToyTrainConfig(ablate_index=v)], ids=["ToyModel", "ToyTrainConfig"])
    @pytest.mark.parametrize("ablate_index", ["False", "no", 1, 0, None])
    def test_ablate_index_must_be_a_bool(self, build, ablate_index, monkeypatch):
        monkeypatch.setattr(tt, "_uniform_init", lambda *a: pytest.fail("drew a weight"))
        with pytest.raises(ValueError, match=f"ablate_index must be a bool, got "
                                             f"{re.escape(repr(ablate_index))}$"):
            build(ablate_index)

    @pytest.mark.parametrize("ablate_index", [False, True, np.False_, np.True_],
                             ids=["False", "True", "np.False_", "np.True_"])
    def test_python_and_numpy_bools_pick_the_arm(self, ablate_index):
        model = tt.ToyModel(ablate_index=ablate_index)
        assert model.ablate_index is bool(ablate_index)
        assert len(model.parameters()) == (5 if ablate_index else 11)
        assert tt.ToyTrainConfig(ablate_index=ablate_index).ablate_index == ablate_index

    # A config is checked by the model's shape rule when it is built: each row
    # raises ToyModel's class and message, before a weight is drawn.
    @pytest.mark.parametrize("field, value, error", [
        pytest.param(field, value, error, id=f"{field}={value!r}") for field, value, error in [
            ("num_classes", 0, ValueError), ("num_classes", 9, TooManyClassesError),
            ("glyph_size", 3, ValueError), ("conv_channels", (0, 8), ValueError),
            ("conv_channels", (8,), ValueError), ("fused_channels", 0, ValueError),
            ("index_hidden", 0, ValueError)]])
    def test_config_checks_the_models_shape(self, field, value, error, monkeypatch):
        with pytest.raises(error) as from_model:
            tt.ToyModel(**{field: value})
        monkeypatch.setattr(tt, "_uniform_init", lambda *a: pytest.fail("drew a weight"))
        with pytest.raises(error) as from_config:
            tt.ToyTrainConfig(**{field: value})
        assert from_model.type is from_config.type is error
        assert str(from_config.value) == str(from_model.value)

    def test_glyph_size_too_small_for_three_convs(self):
        # A 2x3-sided image shrinks to 0x0 under three valid 3x3 convs.
        with pytest.raises(ValueError, match="glyph size"):
            tt.ToyModel(glyph_size=3)
        tt.ToyModel(glyph_size=4)


class TestForward:
    def test_logit_shape(self):
        model = small_model()
        (sample,) = small_samples(n=1)
        logits = tt.toy_forward(model, sample)
        assert logits.shape == (4,)
        assert logits.dtype == np.float32

    def test_fused_map_shape_and_nonnegative(self):
        model = small_model()
        (sample,) = small_samples(n=1)
        fused = tt.fused_map(model, sample)
        assert fused.shape == (5, 4, 4)
        assert float(fused.min()) >= 0.0

    def test_index_changes_logits(self):
        model = small_model()
        (sample,) = small_samples(n=1)
        outputs = {tt.toy_forward(model, replace(sample, index=i)).tobytes()
                   for i in range(4)}
        assert len(outputs) > 1

    def test_ablation_ignores_index(self):
        model = small_model(ablate_index=True)
        (sample,) = small_samples(n=1)
        ablated = [tt.toy_forward(model, replace(sample, index=i)) for i in range(4)]
        for other in ablated[1:]:
            assert other.tobytes() == ablated[0].tobytes()

    @pytest.mark.parametrize("ablate_index", [False, True])
    def test_training_loss_matches_forward_logits(self, ablate_index):
        model = small_model(ablate_index=ablate_index)
        for sample in small_samples(n=4):
            loss = tt.training_loss(ag.Tape(), model, sample)
            assert loss.op == "softmax_xent"
            (logits,) = loss.parents
            forward = tt.toy_forward(model, sample)
            assert logits.value.dtype == forward.dtype
            assert logits.value.tobytes() == forward.tobytes()

    def test_training_loss_label_range(self):
        model = small_model()
        (sample,) = small_samples(n=1)
        bad = tt.GridSample(image=sample.image, index=sample.index, label=7)
        with pytest.raises(LabelOutOfRangeError):
            tt.training_loss(ag.Tape(), model, bad)

    @pytest.mark.parametrize("ablate_index", [False, True], ids=["indexed", "ablated"])
    def test_loss_reaches_every_parameter(self, ablate_index):
        model = small_model(ablate_index=ablate_index)
        (sample,) = small_samples(n=1)
        tape = ag.Tape()
        loss = tt.training_loss(tape, model, sample)
        reached = ag.backward(tape, loss)
        assert {id(p) for p in reached} == {id(p) for p in model.parameters()}

    def test_ablated_loss_skips_index_branch(self):
        model = small_model(ablate_index=True)
        (sample,) = small_samples(n=1)
        tape = ag.Tape()
        loss = tt.training_loss(tape, model, sample)
        reached = {p.name for p in ag.backward(tape, loss)}
        assert not any(name.startswith("idx_") for name in reached)
        assert "conv1" in reached and "head_w" in reached


class TestEvaluation:
    def test_perfect_and_constant_predictors(self):
        samples = small_samples(n=12)
        perfect = tt.prediction_accuracy(
            lambda s: tt.one_hot(s.label), samples
        )
        assert perfect == 1.0
        always_zero = tt.prediction_accuracy(
            lambda s: np.array([1.0, 0, 0, 0], np.float32), samples
        )
        assert always_zero == sum(s.label == 0 for s in samples) / len(samples)

    def test_argmax_takes_first_on_ties(self):
        samples = [tt.GridSample(image=np.zeros((1, 4, 4), np.float32), index=0,
                                 label=0)]
        acc = tt.prediction_accuracy(lambda s: np.zeros(4, np.float32), samples)
        assert acc == 1.0

    def test_empty_dataset_rejected(self):
        model = small_model()
        with pytest.raises(EmptyDatasetError):
            tt.prediction_accuracy(lambda s: np.zeros(4), [])
        with pytest.raises(EmptyDatasetError):
            tt.toy_evaluate(model, [])
        with pytest.raises(EmptyDatasetError):
            tt.locality_rate(model, [])

    @pytest.mark.parametrize("ablate_index", [False, True])
    def test_evaluate_matches_manual_argmax_loop(self, ablate_index):
        model = small_model(ablate_index=ablate_index)
        samples = small_samples(n=8)
        hits = sum(
            int(np.argmax(tt.toy_forward(model, s))) == s.label
            for s in samples
        )
        assert tt.toy_evaluate(model, samples) == hits / len(samples)

    def test_locality_rate_bounded(self):
        rate = tt.locality_rate(small_model(), small_samples(n=8))
        assert 0.0 <= rate <= 1.0


class TestTraining:
    def tiny_config(self, **overrides):
        base = dict(seed=0, n_train=40, n_test=16, epochs=3, lr=0.05,
                    glyph_size=5, conv_channels=(3, 4), fused_channels=5,
                    index_hidden=6)
        base.update(overrides)
        return tt.ToyTrainConfig(**base)

    def test_loss_decreases(self):
        result = tt.toy_train(self.tiny_config())
        assert len(result.train_curve) == 3
        assert result.train_curve[-1] < result.train_curve[0]

    def test_training_is_deterministic(self):
        a = tt.toy_train(self.tiny_config())
        b = tt.toy_train(self.tiny_config())
        assert a.train_curve == b.train_curve
        assert a.test_accuracy == b.test_accuracy
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert pa.value.tobytes() == pb.value.tobytes()

    def test_reported_accuracy_matches_heldout_set(self):
        config = self.tiny_config()
        result = tt.toy_train(config)
        replay = tt.toy_evaluate(result.model, tt.heldout_set(config))
        assert replay == result.test_accuracy

    def test_ablated_run_is_index_blind_everywhere(self):
        # The index-blind control of acceptance 5: locality_rate must read the
        # trained ablated model without its (absent) index branch.
        config = self.tiny_config(epochs=1, ablate_index=True)
        model = tt.toy_train(config).model
        samples = tt.heldout_set(config)
        for sample in samples[:4]:
            for read in (tt.fused_map, tt.toy_forward):
                outputs = {read(model, replace(sample, index=i)).tobytes() for i in range(4)}
                assert len(outputs) == 1
        blind = []
        for sample in samples:
            s = T.l1_map(tt.fused_map(model, replace(sample, index=0))).astype(np.float64)
            r, c = s.shape[0] // 2, s.shape[1] // 2
            sums = (s[:r, :c].sum(), s[:r, c:].sum(), s[r:, :c].sum(), s[r:, c:].sum())
            blind.append(int(np.argmax(sums)) == sample.index)
        assert tt.locality_rate(model, samples) == sum(blind) / len(samples)

    @pytest.mark.parametrize("ablate_index", [False, True], ids=["indexed", "ablated"])
    def test_value_map_aliases_the_trained_parameters(self, ablate_index):
        # toy_forward reads the map built with the model; training updates the
        # Parameters in place, so the map holds the trained arrays themselves.
        config = self.tiny_config(epochs=1, ablate_index=ablate_index)
        result = tt.toy_train(config)
        fresh = tt.ToyModel(4, 5, (3, 4), 5, 6, seed=np.random.SeedSequence(0).spawn(4)[0],
                            ablate_index=ablate_index)
        params = result.model.parameters()
        assert list(result.model._values) == [p.name for p in params]
        for p, untrained in zip(params, fresh.parameters()):
            assert result.model._values[p.name] is p.value
            assert p.value.tobytes() != untrained.value.tobytes()

    def test_zero_epochs_returns_untrained_model(self):
        config = self.tiny_config(epochs=0)
        result = tt.toy_train(config)
        assert result.train_curve == []
        fresh = tt.ToyModel(4, 5, (3, 4), 5, 6,
                            seed=np.random.SeedSequence(0).spawn(4)[0])
        for pa, pb in zip(result.model.parameters(), fresh.parameters()):
            assert pa.value.tobytes() == pb.value.tobytes()

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            tt.toy_train(self.tiny_config(epochs=-1))

    @pytest.mark.parametrize("field, value", [
        ("epochs", -1), ("n_train", 0), ("n_test", 0),
        ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf"))])
    def test_bad_config_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            self.tiny_config(**{field: value})


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        samples = small_samples(n=5)
        tt.dataset_write(samples, tmp_path / "ds")
        loaded = tt.dataset_read(tmp_path / "ds")
        assert len(loaded) == 5
        for orig, back in zip(samples, loaded):
            assert back.image.tobytes() == orig.image.tobytes()
            assert (back.index, back.label) == (orig.index, orig.label)

    def test_manifest_layout(self, tmp_path):
        tt.dataset_write(small_samples(n=2), tmp_path / "ds")
        lines = (tmp_path / "ds" / "manifest.csv").read_text().splitlines()
        assert lines[0] == "id,index,label"
        assert lines[1].startswith("sample_00000,")
        assert (tmp_path / "ds" / "sample_00001.tsr").exists()
