"""Tensor core: broadcasting, norms, cosine, and .tsr round trips."""

import os
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from asymfuse import analysis, fusion, nn
from asymfuse import autograd as ag
from asymfuse import tensor as T
from asymfuse.errors import (
    FormatError,
    RankError,
    ShapeMismatchError,
    ZeroVectorError,
)


def f32(values):
    return np.asarray(values, dtype=np.float32)


class TestBroadcastAdd:
    def test_trailing_alignment_vector_onto_matrix(self):
        out = T.broadcast_add([[1.0, 2.0], [3.0, 4.0]], [10.0, 20.0])
        npt.assert_array_equal(out, f32([[11.0, 22.0], [13.0, 24.0]]))

    def test_channel_constants_onto_map(self):
        # The fusion use case: P x 1 x 1 bias onto a P x H x W map.
        bias = f32([1.0, -1.0]).reshape(2, 1, 1)
        grid = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        out = T.broadcast_add(grid, bias)
        npt.assert_array_equal(out[0], grid[0] + 1.0)
        npt.assert_array_equal(out[1], grid[1] - 1.0)

    def test_column_against_row(self):
        out = T.broadcast_add(f32([[1.0], [2.0], [3.0]]), f32([[10.0, 20.0]]))
        assert out.shape == (3, 2)
        npt.assert_array_equal(out, f32([[11, 21], [12, 22], [13, 23]]))

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ShapeMismatchError):
            T.broadcast_add(np.zeros(3), np.zeros(4))
        with pytest.raises(ShapeMismatchError):
            T.broadcast_add(np.zeros((2, 3, 4)), np.zeros((3, 1, 4, 1)))

    def test_zeros_are_identity(self):
        rng = np.random.default_rng(11)
        for shape in [(3,), (2, 4), (3, 1, 5), (2, 3, 4)]:
            x = rng.normal(size=shape).astype(np.float32)
            npt.assert_array_equal(T.broadcast_add(x, np.zeros(shape[-1:])), x)

    def test_commutative(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            full = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 4))))
            # Degrade one operand to a broadcastable variant of the other.
            a_shape = tuple(1 if rng.uniform() < 0.4 else d for d in full)
            drop = int(rng.integers(0, len(full)))
            b_shape = full[drop:]
            a = rng.normal(size=a_shape).astype(np.float32)
            b = rng.normal(size=b_shape if b_shape else (1,)).astype(np.float32)
            npt.assert_array_equal(T.broadcast_add(a, b), T.broadcast_add(b, a))

    def test_inputs_not_mutated_and_output_fresh(self):
        a = f32([[1.0, 2.0]])
        b = f32([3.0, 4.0])
        a_copy, b_copy = a.copy(), b.copy()
        out = T.broadcast_add(a, b)
        npt.assert_array_equal(a, a_copy)
        npt.assert_array_equal(b, b_copy)
        assert out is not a and out is not b
        assert out.dtype == np.float32
        assert out.flags["C_CONTIGUOUS"]


class TestBroadcastShape:
    """broadcast_add's output shape follows NumPy's rule, zero-size axes included."""

    def test_examples(self):
        for a, b, shape in [((2, 1, 3), (4, 3), (2, 4, 3)), ((5,), (5,), (5,)),
                            ((1,), (7, 1), (7, 1)), ((0,), (1,), (0,)),
                            ((1, 0), (3, 1), (3, 0)), ((4,), (3, 2, 4), (3, 2, 4))]:
            assert T.broadcast_add(np.ones(a), np.ones(b)).shape == shape

    def test_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            T.broadcast_add(np.ones((2, 3)), np.ones((2, 4)))


class TestRelu:
    def test_clamps_negatives_only(self):
        npt.assert_array_equal(T.relu(f32([-1.0, 0.0, 2.0])), f32([0.0, 0.0, 2.0]))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4)).astype(np.float32)
        once = T.relu(x)
        npt.assert_array_equal(T.relu(once), once)


class TestL1Map:
    def test_single_pixel(self):
        m = f32([3.0, -4.0]).reshape(2, 1, 1)
        npt.assert_array_equal(T.l1_map(m), f32([[7.0]]))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(4, 3, 5)).astype(np.float32)
        expected = np.zeros((3, 5), dtype=np.float64)
        for c in range(4):
            for i in range(3):
                for j in range(5):
                    expected[i, j] += abs(float(m[c, i, j]))
        npt.assert_allclose(T.l1_map(m), expected.astype(np.float32), atol=1e-6)

    def test_nonnegative_and_zero_only_for_zeros(self):
        rng = np.random.default_rng(22)
        m = rng.normal(size=(2, 4, 4)).astype(np.float32)
        m[:, 1, 2] = 0.0
        out = T.l1_map(m)
        assert (out >= 0).all()
        assert out[1, 2] == 0.0
        assert (out[out != out[1, 2]] > 0).all()

    def test_rank_enforced(self):
        with pytest.raises(RankError):
            T.l1_map(np.zeros((3, 3)))


class TestCosine:
    def test_orthogonal(self):
        assert T.cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-6)

    def test_parallel(self):
        assert T.cosine_similarity([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0, abs=1e-6)

    def test_antiparallel(self):
        assert T.cosine_similarity([1.0, -1.0], [-2.0, 2.0]) == pytest.approx(-1.0, abs=1e-6)

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.normal(size=8).astype(np.float32)
            b = rng.normal(size=8).astype(np.float32)
            base = T.cosine_similarity(a, b)
            scaled = T.cosine_similarity(3.5 * a, 0.25 * b)
            assert scaled == pytest.approx(base, abs=1e-6)

    def test_bounded(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a = rng.normal(size=5).astype(np.float32)
            b = rng.normal(size=5).astype(np.float32)
            assert -1.0 <= T.cosine_similarity(a, b) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            T.cosine_similarity([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ZeroVectorError):
            T.cosine_similarity([1.0, 2.0], [0.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            T.cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_rank_enforced(self):
        with pytest.raises(RankError):
            T.cosine_similarity(np.zeros((2, 2)), np.zeros((2, 2)))


class TestTsrFormat:
    def test_exact_bytes_of_small_tensor(self, tmp_path):
        t = f32([[1.5, -2.0, 0.0], [3.25, 4.0, -0.5]])
        path = tmp_path / "t.tsr"
        T.tensor_write(t, path)
        expected = (
            b"TSRF"
            + struct.pack("<III", 1, 1, 2)
            + struct.pack("<II", 2, 3)
            + t.astype("<f4").tobytes()
        )
        assert path.read_bytes() == expected

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        shapes = [(4,), (2, 3), (1, 1, 5), (3, 2, 4, 2)]
        for i, shape in enumerate(shapes):
            t = rng.normal(size=shape).astype(np.float32)
            t.flat[0] = -0.0
            path = tmp_path / f"t{i}.tsr"
            T.tensor_write(t, path)
            back = T.tensor_read(path)
            assert back.shape == t.shape
            assert back.tobytes() == t.tobytes()

    def test_scalar_round_trip(self, tmp_path):
        path = tmp_path / "s.tsr"
        T.tensor_write(np.float32(2.5), path)
        back = T.tensor_read(path)
        assert back.shape == ()
        assert float(back) == 2.5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tsr"
        path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 0) + b"\x00" * 4)
        with pytest.raises(FormatError):
            T.tensor_read(path)

    def test_bad_version_and_dtype(self, tmp_path):
        path = tmp_path / "v.tsr"
        path.write_bytes(b"TSRF" + struct.pack("<III", 2, 1, 0) + b"\x00" * 4)
        with pytest.raises(FormatError):
            T.tensor_read(path)
        path.write_bytes(b"TSRF" + struct.pack("<III", 1, 9, 0) + b"\x00" * 4)
        with pytest.raises(FormatError):
            T.tensor_read(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.tsr"
        T.tensor_write(f32([1.0, 2.0, 3.0]), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError):
            T.tensor_read(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "long.tsr"
        T.tensor_write(f32([1.0, 2.0]), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            T.tensor_read(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "zero.tsr"
        path.write_bytes(b"TSRF" + struct.pack("<III", 1, 1, 2) + struct.pack("<II", 2, 0))
        with pytest.raises(FormatError):
            T.tensor_read(path)

    def test_zero_sized_tensor_not_written(self, tmp_path):
        path = tmp_path / "empty.tsr"
        for shape in [(0, 3), (0,), (2, 0, 1)]:
            with pytest.raises(FormatError):
                T.tensor_write(np.zeros(shape, np.float32), path)
            assert not path.exists()

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "header.tsr"
        path.write_bytes(b"TSRF\x01")
        with pytest.raises(FormatError):
            T.tensor_read(path)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            T.tensor_read(tmp_path / "absent.tsr")


# as_tensor is every public entry point's coercion. Input with no real value is
# refused there, with a ValueError naming its type. Each row below makes one
# bad input in the shape its entry point reads.
NO_REAL_VALUE = {
    "None": lambda shape: None,
    "complex": lambda shape: np.full(shape, 1 + 1j),
    "object()": lambda shape: object(),
    "object array": lambda shape: np.ones(shape, dtype=object),
    "string array": lambda shape: np.full(shape, "1"),
}


def ones(*shape):
    return np.ones(shape, np.float32)


FC = nn.FcLayer(ones(2, 2), ones(2))
NORM = nn.BatchNormParams(ones(2), ones(2), ones(2), ones(2))
FUSION = fusion.FusionWeights(nn.ConvKernel(ones(2, 2, 2, 2)), nn.ConvKernel(ones(2, 2, 2, 2)))
# entry point -> (shape of the argument it reads, call with that argument)
COERCING_ENTRY_POINTS = {
    "relu": ((2, 2), T.relu),
    "broadcast_add": ((1, 2, 2), lambda bad: T.broadcast_add(bad, ones(1, 2, 2))),
    "l1_map": ((2, 3, 3), T.l1_map),
    "cosine_similarity": ((2,), lambda bad: T.cosine_similarity(bad, ones(2))),
    "tensor_write": ((2, 2), lambda bad: T.tensor_write(bad, os.devnull)),
    "conv2d_valid map": ((2, 3, 3), lambda bad: nn.conv2d_valid(bad, ones(1, 2, 3, 3))),
    "conv2d_valid kernel": ((1, 2, 3, 3), lambda bad: nn.conv2d_valid(ones(2, 3, 3), bad)),
    "xcorr": ((2, 3, 3), lambda bad: nn.xcorr(bad, ones(2, 2, 2))),
    "depthwise_corr": ((2, 3, 3), lambda bad: nn.depthwise_corr(bad, ones(2, 2, 2))),
    "head1x1": ((2, 3, 3), lambda bad: nn.head1x1(bad, ones(1, 2, 1, 1))),
    "global_avg_pool": ((2, 3, 3), nn.global_avg_pool),
    "fc_forward": ((2,), lambda bad: nn.fc_forward(bad, FC)),
    "fc_forward raw weights": ((2, 2), lambda bad: nn.fc_forward(ones(2), (bad, ones(2)))),
    "mlp3_forward": ((2,), lambda bad: nn.mlp3_forward(bad, [FC] * 3)),
    "batchnorm_infer": ((2, 3, 3), lambda bad: nn.batchnorm_infer(bad, NORM)),
    "ConvKernel": ((1, 2, 3, 3), nn.ConvKernel),
    "FcLayer": ((2, 2), lambda bad: nn.FcLayer(bad, ones(2))),
    "BatchNormParams": ((2,), lambda bad: nn.BatchNormParams(bad, ones(2), ones(2), ones(2))),
    "acm_forward": ((2, 2, 2), lambda bad: fusion.acm_forward(bad, ones(2, 3, 3), FUSION)),
    "channel_diversity": ((2, 3, 3), analysis.channel_diversity),
    "Parameter": ((2,), lambda bad: ag.Parameter(bad, "p")),
    "Tape.constant": ((2,), lambda bad: ag.Tape().constant(bad)),
}


class TestCoercion:
    @pytest.mark.parametrize("bad", NO_REAL_VALUE)
    @pytest.mark.parametrize("entry", COERCING_ENTRY_POINTS)
    def test_input_with_no_real_value_is_refused(self, entry, bad):
        shape, call = COERCING_ENTRY_POINTS[entry]
        value = NO_REAL_VALUE[bad](shape)
        with pytest.raises(ValueError, match=f"cannot coerce {type(value).__name__} input"):
            call(value)

    @pytest.mark.parametrize("values", [[True, False], [1, -2], np.array([1, -2], np.int64),
                                        np.array([0.5, -1.5], np.float16), [0.5, -1.5]],
                             ids=["bool", "int", "int64", "float16", "float"])
    def test_real_input_still_coerces(self, values):
        out = T.as_tensor(values)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        npt.assert_array_equal(out, np.asarray(values, dtype=np.float64))

    def test_float32_arrays_are_not_copied(self):
        values = np.ones((2, 3, 3), np.float32)
        assert T.as_tensor(values) is values
        assert ag.Parameter(values[0], "p").value.base is values  # a view, still aliased


# _as_map is every rank-3 entry point's map check, and it refuses a map with an
# empty axis. Each row gives the map's shape, a call on that map whose other
# operands fit it, so the empty axis is its one fault, and the name the error
# gives the map.
CACHE = fusion.acm_cache_template(ones(2, 2, 2), FUSION)
EMPTY_MAPS = {
    "l1_map": ((2, 0, 3), T.l1_map, "l1_map input"),
    "conv2d_valid": ((2, 3, 0), lambda m: nn.conv2d_valid(m, ones(1, 2, 1, 1)), "conv input"),
    "xcorr search": ((2, 0, 3), lambda m: nn.xcorr(m, ones(2, 1, 1)), "conv input"),
    "xcorr template": ((2, 0, 1), lambda m: nn.xcorr(ones(2, 3, 3), m), "template"),
    "depthwise_corr search": ((0, 3, 3), lambda m: nn.depthwise_corr(m, ones(0, 2, 2)),
                              "search map"),
    "depthwise_corr template": ((2, 0, 2), lambda m: nn.depthwise_corr(ones(2, 3, 3), m),
                                "template"),
    "head1x1": ((2, 3, 0), lambda m: nn.head1x1(m, ones(1, 2, 1, 1)), "conv input"),
    "batchnorm_infer": ((2, 0, 3), lambda m: nn.batchnorm_infer(m, NORM), "batch norm input"),
    "global_avg_pool": ((2, 0, 3), nn.global_avg_pool, "pool input"),
    "TemplateCache": ((0, 1, 1), fusion.TemplateCache, "z_term"),
    "acm_cache_template": ((2, 0, 2), lambda m: fusion.acm_cache_template(m, FUSION),
                           "template"),
    "acm_apply_search": ((2, 0, 3), lambda m: fusion.acm_apply_search(CACHE, m, FUSION),
                         "search map"),
    "acm_forward template": ((0, 2, 2), lambda m: fusion.acm_forward(m, ones(2, 3, 3), FUSION),
                             "template"),
    "acm_forward search": ((2, 3, 0), lambda m: fusion.acm_forward(ones(2, 2, 2), m, FUSION),
                           "search map"),
    "naive_concat_corr template": (
        (2, 2, 0), lambda m: fusion.naive_concat_corr(m, ones(2, 3, 3), FUSION), "template"),
    "naive_concat_corr search": (
        (0, 3, 3), lambda m: fusion.naive_concat_corr(ones(2, 2, 2), m, FUSION), "search map"),
    "find_distractor": ((0, 3, 3), lambda m: analysis.find_distractor(m, (0, 0, 0, 0)),
                        "response map"),
    "discriminability": ((0, 3, 3), lambda m: analysis.discriminability(m, (0, 0), (0, 0, 0, 0)),
                         "response map"),
    "channel_diversity": ((2, 0, 2), analysis.channel_diversity, "response map"),
    "heatmap_export": ((0, 3, 3), lambda m: analysis.heatmap_export(m, "map"), "response map"),
}


class TestEmptyAxes:
    @pytest.mark.parametrize("entry", EMPTY_MAPS)
    def test_map_with_an_empty_axis_is_refused(self, entry, tmp_path, monkeypatch):
        shape, call, what = EMPTY_MAPS[entry]
        monkeypatch.chdir(tmp_path)  # heatmap_export's prefix is relative
        with pytest.raises(ShapeMismatchError,
                           match=re.escape(f"{what} has an empty axis: shape {shape}")):
            call(np.ones(shape, np.float32))
        assert not any(tmp_path.iterdir())
