"""Fusion: naive concat-and-convolve vs the decomposed two-kernel path."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from asymfuse import autograd as ag
from asymfuse import bench, fusion, nn
from asymfuse.errors import (
    KernelTooLargeError,
    MissingBoxError,
    NonFiniteMapError,
    NonPositiveBoxError,
    RankError,
    ShapeMismatchError,
)
from oracles import rand_f32, window_loop


def make_weights(rng, channels, eta, omega, out_ch, with_prior=False, hidden=4):
    prior = None
    if with_prior:
        dims = (2, hidden, hidden, out_ch)
        prior = tuple(
            nn.FcLayer(rand_f32(rng, (dims[i + 1], dims[i])), rand_f32(rng, (dims[i + 1],)))
            for i in range(3)
        )
    return fusion.FusionWeights(
        theta_z=nn.ConvKernel(rand_f32(rng, (out_ch, channels, eta, omega))),
        theta_x=nn.ConvKernel(rand_f32(rng, (out_ch, channels, eta, omega))),
        prior=prior,
    )


def naive_loop_oracle(template, search, weights):
    """Six-deep loop over (p, window i, window j, c, u, v), float64."""
    theta_z = weights.theta_z.weights.astype(np.float64)
    theta_x = weights.theta_x.weights.astype(np.float64)
    p, c, eta, omega = theta_z.shape
    out_h = search.shape[1] - eta + 1
    out_w = search.shape[2] - omega + 1
    z = template.astype(np.float64)
    x = search.astype(np.float64)
    out = np.zeros((p, out_h, out_w))
    for po in range(p):
        for i in range(out_h):
            for j in range(out_w):
                acc = 0.0
                for ci in range(c):
                    for u in range(eta):
                        for v in range(omega):
                            acc += theta_z[po, ci, u, v] * z[ci, u, v]
                            acc += theta_x[po, ci, u, v] * x[ci, i + u, j + v]
                out[po, i, j] = acc
    return out


class TestNaiveConcatCorr:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(50)
        template = rand_f32(rng, (2, 2, 2))
        search = rand_f32(rng, (2, 4, 4))
        weights = make_weights(rng, 2, 2, 2, 3)
        expected = naive_loop_oracle(template, search, weights)
        npt.assert_allclose(fusion.naive_concat_corr(template, search, weights),
                            expected, atol=1e-5)

    def test_single_window_is_concat_conv(self):
        # When the search map is template-sized there is one window, and
        # the output must equal convolving the stacked 2C channels once.
        rng = np.random.default_rng(51)
        template = rand_f32(rng, (3, 3, 3))
        search = rand_f32(rng, (3, 3, 3))
        weights = make_weights(rng, 3, 3, 3, 4)
        stacked = np.concatenate([template, search], axis=0)
        joined = np.concatenate([weights.theta_z.weights, weights.theta_x.weights], axis=1)
        expected = nn.conv2d_valid(stacked, joined)
        out = fusion.naive_concat_corr(template, search, weights)
        npt.assert_array_equal(out, expected)

    def test_each_window_splits_into_two_convs(self):
        # Per position the joined convolution equals theta_z * z plus
        # theta_x * window, each computed independently.
        rng = np.random.default_rng(52)
        template = rand_f32(rng, (2, 2, 3))
        search = rand_f32(rng, (2, 5, 6))
        weights = make_weights(rng, 2, 2, 3, 3)
        out = fusion.naive_concat_corr(template, search, weights)
        z_term = nn.conv2d_valid(template, weights.theta_z)[:, 0, 0]
        for i in range(out.shape[1]):
            for j in range(out.shape[2]):
                window = search[:, i : i + 2, j : j + 3]
                x_term = nn.conv2d_valid(window, weights.theta_x)[:, 0, 0]
                npt.assert_allclose(out[:, i, j], z_term + x_term, atol=1e-5)

    def test_output_shape(self):
        rng = np.random.default_rng(53)
        template = rand_f32(rng, (2, 3, 2))
        search = rand_f32(rng, (2, 8, 7))
        weights = make_weights(rng, 2, 3, 2, 5)
        assert fusion.naive_concat_corr(template, search, weights).shape == (5, 6, 6)

    def test_template_kernel_size_enforced(self):
        rng = np.random.default_rng(54)
        weights = make_weights(rng, 2, 3, 3, 2)
        with pytest.raises(ShapeMismatchError):
            fusion.naive_concat_corr(rand_f32(rng, (2, 2, 2)), rand_f32(rng, (2, 6, 6)), weights)

    def test_template_must_fit_search(self):
        rng = np.random.default_rng(55)
        weights = make_weights(rng, 2, 4, 4, 2)
        with pytest.raises(KernelTooLargeError):
            fusion.naive_concat_corr(rand_f32(rng, (2, 4, 4)), rand_f32(rng, (2, 3, 5)), weights)


class TestEquivalence:
    def test_decomposed_matches_naive_randomized(self):
        rng = np.random.default_rng(56)
        worst = 0.0
        for _ in range(100):
            channels = int(rng.integers(1, 9))
            eta = int(rng.integers(1, 6))
            omega = int(rng.integers(1, 6))
            height = int(rng.integers(eta, 13))
            width = int(rng.integers(omega, 13))
            out_ch = int(rng.integers(1, 9))
            template = rand_f32(rng, (channels, eta, omega))
            search = rand_f32(rng, (channels, height, width))
            weights = make_weights(rng, channels, eta, omega, out_ch)
            naive = fusion.naive_concat_corr(template, search, weights)
            acm = fusion.acm_forward(template, search, weights, apply_relu=False)
            worst = max(worst, float(np.abs(naive - acm).max()))
        assert worst <= 1e-4

    def test_relu_respects_equivalence(self):
        rng = np.random.default_rng(57)
        template = rand_f32(rng, (3, 2, 2))
        search = rand_f32(rng, (3, 6, 6))
        weights = make_weights(rng, 3, 2, 2, 4)
        naive = np.maximum(fusion.naive_concat_corr(template, search, weights), 0.0)
        acm = fusion.acm_forward(template, search, weights, apply_relu=True)
        npt.assert_allclose(acm, naive, atol=1e-4)
        assert (acm >= 0).all()


# Template-side inputs whose terms leave float32. Each row scales theta_z, the
# template and the prior's first-layer weights of one bench problem, and gives
# the box; acm_cache_template raises the row's class, and warns of nothing.
TEMPLATE_SIDE_ROWS = {
    "box width 1e300": (1, 1, 1, (1e300, 1.0), NonPositiveBoxError),
    "box height 1e300": (1, 1, 1, (1.0, 1e300), NonPositiveBoxError),
    "box width / 255 past float32": (1, 1, 1, (255 * 3.5e38, 1.0), NonPositiveBoxError),
    "z term": (1e30, 1e10, 1, (10.0, 10.0), NonFiniteMapError),
    "prior term": (1, 1, 1e30, (1e38, 1e38), NonFiniteMapError),
}


class TestAcmForward:
    def test_zero_theta_x_gives_constant_map(self):
        rng = np.random.default_rng(58)
        template = rand_f32(rng, (2, 2, 2))
        search = rand_f32(rng, (2, 5, 5))
        weights = fusion.FusionWeights(
            theta_z=nn.ConvKernel(rand_f32(rng, (3, 2, 2, 2))),
            theta_x=nn.ConvKernel(np.zeros((3, 2, 2, 2), np.float32)),
        )
        out = fusion.acm_forward(template, search, weights, apply_relu=False)
        z_term = nn.conv2d_valid(template, weights.theta_z)
        for p in range(3):
            npt.assert_array_equal(out[p], np.full((4, 4), z_term[p, 0, 0]))

    def test_prior_adds_pure_channel_shift(self):
        rng = np.random.default_rng(59)
        template = rand_f32(rng, (2, 3, 3))
        search = rand_f32(rng, (2, 7, 7))
        with_prior = make_weights(rng, 2, 3, 3, 4, with_prior=True)
        without = fusion.FusionWeights(theta_z=with_prior.theta_z, theta_x=with_prior.theta_x)
        box = (40.0, 80.0)
        shifted = fusion.acm_forward(template, search, with_prior, box, apply_relu=False)
        base = fusion.acm_forward(template, search, without, apply_relu=False)
        delta = shifted.astype(np.float64) - base.astype(np.float64)
        scaled = np.array([box[0] / 255.0, box[1] / 255.0], np.float32)
        expected = nn.mlp3_forward(scaled, with_prior.prior)
        for p in range(4):
            assert float(delta[p].var()) <= 1e-6  # spatially constant shift
            npt.assert_allclose(delta[p].mean(), expected[p], atol=1e-5)

    def test_missing_box_rejected(self):
        rng = np.random.default_rng(61)
        weights = make_weights(rng, 2, 2, 2, 3, with_prior=True)
        with pytest.raises(MissingBoxError):
            fusion.acm_forward(rand_f32(rng, (2, 2, 2)), rand_f32(rng, (2, 5, 5)), weights)

    def test_non_positive_box_rejected(self):
        rng = np.random.default_rng(62)
        weights = make_weights(rng, 2, 2, 2, 3, with_prior=True)
        for box in [(0.0, 10.0), (10.0, -1.0), (np.nan, 5.0), (np.inf, 5.0), (5.0, -np.inf)]:
            with pytest.raises(NonPositiveBoxError):
                fusion.acm_forward(rand_f32(rng, (2, 2, 2)), rand_f32(rng, (2, 5, 5)),
                                   weights, box)

    @pytest.mark.parametrize("row", TEMPLATE_SIDE_ROWS)
    def test_template_side_beyond_float32_raises_its_class(self, row):
        z_scale, template_scale, w1_scale, box, error = TEMPLATE_SIDE_ROWS[row]
        config = bench.BenchConfig(4, 3, 3, 10, 10, 4)
        template, _, weights, _ = bench._random_problem(config, np.random.default_rng(0))
        first, *rest = weights.prior
        weights = fusion.FusionWeights(
            theta_z=nn.ConvKernel(weights.theta_z.weights * np.float32(z_scale)),
            theta_x=weights.theta_x,
            prior=(nn.FcLayer(first.weights * np.float32(w1_scale), first.bias), *rest))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                fusion.acm_cache_template(template * np.float32(template_scale), weights, box)

    def test_wrong_length_box_rejected(self):
        rng = np.random.default_rng(66)
        weights = make_weights(rng, 2, 2, 2, 3, with_prior=True)
        template = rand_f32(rng, (2, 2, 2))
        for box in [(10.0, 20.0, 30.0), (10.0,), 5.0, "55", ((10.0, 20.0),),
                    ("5", "5"), (b"5", 5), ((1, 2), 3), (True, False)]:
            with pytest.raises(ShapeMismatchError):
                fusion.acm_cache_template(template, weights, box)

    def test_box_without_prior_rejected(self):
        rng = np.random.default_rng(63)
        weights = make_weights(rng, 2, 2, 2, 3)
        with pytest.raises(ValueError):
            fusion.acm_forward(rand_f32(rng, (2, 2, 2)), rand_f32(rng, (2, 5, 5)),
                               weights, box=(10.0, 10.0))

    def test_mismatched_kernel_shapes_rejected(self):
        rng = np.random.default_rng(64)
        with pytest.raises(ShapeMismatchError):
            fusion.FusionWeights(
                theta_z=nn.ConvKernel(rand_f32(rng, (3, 2, 2, 2))),
                theta_x=nn.ConvKernel(rand_f32(rng, (3, 2, 3, 2))),
            )

    def test_prior_width_must_match_channels(self):
        rng = np.random.default_rng(65)
        dims = (2, 4, 4, 5)  # ends in 5, kernels produce 3
        prior = tuple(
            nn.FcLayer(rand_f32(rng, (dims[i + 1], dims[i])), rand_f32(rng, (dims[i + 1],)))
            for i in range(3)
        )
        with pytest.raises(ShapeMismatchError):
            fusion.FusionWeights(
                theta_z=nn.ConvKernel(rand_f32(rng, (3, 2, 2, 2))),
                theta_x=nn.ConvKernel(rand_f32(rng, (3, 2, 2, 2))),
                prior=prior,
            )


class TestTemplateCache:
    def test_cached_path_is_bitwise_identical(self):
        rng = np.random.default_rng(66)
        template = rand_f32(rng, (3, 3, 3))
        weights = make_weights(rng, 3, 3, 3, 4, with_prior=True)
        box = (31.0, 55.0)
        cache = fusion.acm_cache_template(template, weights, box)
        for _ in range(10):
            search = rand_f32(rng, (3, 8, 8))
            uncached = fusion.acm_forward(template, search, weights, box)
            cached = fusion.acm_apply_search(cache, search, weights)
            npt.assert_array_equal(cached, uncached)

    def test_zero_template_zero_z_term(self):
        rng = np.random.default_rng(66)
        weights = make_weights(rng, 2, 2, 2, 3)
        cache = fusion.acm_cache_template(np.zeros((2, 2, 2), np.float32), weights)
        npt.assert_array_equal(cache.z_term, np.zeros((3, 1, 1), np.float32))
        assert cache.prior_term is None

    # (C, kernel side, search side, P, search conv takes Winograd): the
    # second row is the track shape, whose search conv takes the fast path.
    @pytest.mark.parametrize("channels,side,search,out_ch,winograd", [
        (2, 2, 6, 3, False),
        (64, 5, 29, 64, True),
    ])
    def test_apply_runs_exactly_one_convolution(self, monkeypatch, channels, side,
                                                search, out_ch, winograd):
        rng = np.random.default_rng(67)
        template = rand_f32(rng, (channels, side, side))
        weights = make_weights(rng, channels, side, side, out_ch, with_prior=True)
        cache = fusion.acm_cache_template(template, weights, box=(20.0, 20.0))
        conv_calls, fast_calls = [], []
        real_conv, real_fast = fusion.conv2d_valid, nn._winograd_conv
        monkeypatch.setattr(fusion, "conv2d_valid",
                            lambda *a, **kw: conv_calls.append(1) or real_conv(*a, **kw))
        monkeypatch.setattr(nn, "_winograd_conv",
                            lambda *args: fast_calls.append(1) or real_fast(*args))
        fusion.acm_apply_search(cache, rand_f32(rng, (channels, search, search)), weights)
        assert len(conv_calls) == 1
        assert len(fast_calls) == int(winograd)

    def test_cache_weights_prior_agreement_enforced(self):
        rng = np.random.default_rng(69)
        with_prior = make_weights(rng, 2, 2, 2, 3, with_prior=True)
        without = fusion.FusionWeights(theta_z=with_prior.theta_z, theta_x=with_prior.theta_x)
        cache_plain = fusion.acm_cache_template(rand_f32(rng, (2, 2, 2)), without)
        with pytest.raises(ShapeMismatchError):
            fusion.acm_apply_search(cache_plain, rand_f32(rng, (2, 5, 5)), with_prior)


class TestNormPlacement:
    def test_norm_runs_before_relu(self):
        rng = np.random.default_rng(70)
        template = rand_f32(rng, (2, 2, 2))
        search = rand_f32(rng, (2, 5, 5))
        base = make_weights(rng, 2, 2, 2, 3)
        norm = nn.BatchNormParams(
            gamma=rand_f32(rng, (3,), 0.5, 1.5), beta=rand_f32(rng, (3,)),
            running_mean=rand_f32(rng, (3,)), running_var=rand_f32(rng, (3,), 0.5, 1.5),
        )
        weights = fusion.FusionWeights(theta_z=base.theta_z, theta_x=base.theta_x, norm=norm)
        out = fusion.acm_forward(template, search, weights)
        plain = fusion.FusionWeights(theta_z=weights.theta_z, theta_x=weights.theta_x)
        pre = fusion.acm_forward(template, search, plain, apply_relu=False)
        expected = np.maximum(nn.batchnorm_infer(pre, weights.norm), 0.0)
        npt.assert_allclose(out, expected, atol=1e-6)
        assert (out >= 0).all()


# (C, kernel sides, search sides, P, search conv takes Winograd): the track
# shape, a non-square shape whose output is not a whole number of tiles,
# and a small im2col shape.
ROUNDING_ROWS = [
    pytest.param(64, (5, 5), (29, 29), 64, True, id="track-winograd"),
    pytest.param(32, (7, 4), (23, 26), 48, True, id="non-square-7x4-winograd"),
    pytest.param(3, (3, 2), (8, 9), 4, False, id="small-im2col"),
]


class TestResponseRounding:
    @pytest.mark.parametrize("apply_relu", [False, True])
    @pytest.mark.parametrize("channels,kernel,search,out_ch,winograd", ROUNDING_ROWS)
    def test_response_is_rounded_once(self, monkeypatch, channels, kernel, search, out_ch,
                                      winograd, apply_relu):
        # The float64 response from the window loop and the cache's terms,
        # rounded to float32 once: the bound of test_nn.assert_float32_rounding_of.
        rng = np.random.default_rng(channels + out_ch)
        base = make_weights(rng, channels, *kernel, out_ch, with_prior=True)
        norm = nn.BatchNormParams(
            gamma=rand_f32(rng, (out_ch,), 0.5, 1.5), beta=rand_f32(rng, (out_ch,)),
            running_mean=rand_f32(rng, (out_ch,)), running_var=rand_f32(rng, (out_ch,), 0.5, 1.5),
        )
        weights = fusion.FusionWeights(base.theta_z, base.theta_x, base.prior, norm)
        cache = fusion.acm_cache_template(rand_f32(rng, (channels, *kernel)), weights,
                                          box=(30.0, 50.0))
        x = rand_f32(rng, (channels, *search))
        fast_calls = []
        real_fast = nn._winograd_conv
        monkeypatch.setattr(nn, "_winograd_conv",
                            lambda *args: fast_calls.append(1) or real_fast(*args))
        out = fusion.acm_apply_search(cache, x, weights, apply_relu)
        assert len(fast_calls) == int(winograd)
        theta = weights.theta_x.weights
        bias = cache.z_term.astype(np.float64) + cache.prior_term
        scale, shift = norm.scale, norm.shift
        ref = (window_loop(x, theta) + bias) * scale + shift
        if apply_relu:
            ref = np.maximum(ref, 0.0)
        magnitude = (window_loop(np.abs(x), np.abs(theta)) + np.abs(bias)) * np.abs(scale)
        magnitude += np.abs(shift)
        assert out.dtype == np.float32 and out.shape == ref.shape
        assert np.all(np.abs(out - ref) <= 2.0**-24 * np.abs(ref) + 1e-12 * magnitude)


def with_pixel(good, value):
    """A copy of map ``good`` with one pixel set to ``value``."""
    bad = good.copy()
    bad[1, 1, 2] = value
    return bad


# The error contract of the four fusion entry points. Each row makes one
# input bad; every entry point that takes that input raises the row's
# class, and the others, given only good inputs, return normally.
CONTRACT_TEMPLATE = np.zeros((2, 3, 3), np.float32)
CONTRACT_SEARCH = np.zeros((2, 6, 6), np.float32)
CONTRACT_ROWS = {
    # Leading axes match the kernels' channels, so only a rank check rejects them.
    "rank-2 template": ("template", np.zeros((2, 3), np.float32), ShapeMismatchError),
    "rank-2 search": ("search", np.zeros((2, 6), np.float32), ShapeMismatchError),
    "template channels != kernel": ("template", np.zeros((3, 3, 3), np.float32),
                                    ShapeMismatchError),
    "search channels != kernel": ("search", np.zeros((3, 6, 6), np.float32),
                                  ShapeMismatchError),
    "template size != kernel": ("template", np.zeros((2, 2, 2), np.float32),
                                ShapeMismatchError),
    "search smaller than kernel": ("search", np.zeros((2, 2, 6), np.float32),
                                   KernelTooLargeError),
    "nan in template": ("template", with_pixel(CONTRACT_TEMPLATE, np.nan), NonFiniteMapError),
    "nan in search": ("search", with_pixel(CONTRACT_SEARCH, np.nan), NonFiniteMapError),
    "inf in template": ("template", with_pixel(CONTRACT_TEMPLATE, np.inf), NonFiniteMapError),
    "inf in search": ("search", with_pixel(CONTRACT_SEARCH, np.inf), NonFiniteMapError),
    "-inf in template": ("template", with_pixel(CONTRACT_TEMPLATE, -np.inf), NonFiniteMapError),
    "-inf in search": ("search", with_pixel(CONTRACT_SEARCH, -np.inf), NonFiniteMapError),
}
CONTRACT_ENTRY_POINTS = {
    "naive_concat_corr": ({"template", "search"}, fusion.naive_concat_corr),
    "acm_forward": ({"template", "search"}, fusion.acm_forward),
    "acm_cache_template": ({"template"}, lambda z, x, w: fusion.acm_cache_template(z, w)),
    "acm_apply_search": ({"search"}, lambda z, x, w: fusion.acm_apply_search(
        fusion.acm_cache_template(CONTRACT_TEMPLATE, w), x, w)),
}


class TestErrorContract:
    @pytest.mark.parametrize("entry", CONTRACT_ENTRY_POINTS)
    @pytest.mark.parametrize("row", CONTRACT_ROWS)
    def test_bad_input_raises_its_class(self, row, entry):
        which, bad, error = CONTRACT_ROWS[row]
        takes, call = CONTRACT_ENTRY_POINTS[entry]
        weights = make_weights(np.random.default_rng(72), 2, 3, 3, 2)
        inputs = {"template": CONTRACT_TEMPLATE, "search": CONTRACT_SEARCH, which: bad}
        if which in takes:
            with pytest.raises(error):
                call(inputs["template"], inputs["search"], weights)
        else:
            call(inputs["template"], inputs["search"], weights)


KERNEL = np.ones((2, 2, 5, 5), np.float32)
STRUCTS = {
    "ConvKernel": lambda: nn.ConvKernel(KERNEL),
    "FcLayer": lambda: nn.FcLayer(np.ones((2, 3), np.float32), np.zeros(2, np.float32)),
    "BatchNormParams": lambda: nn.BatchNormParams(*np.ones((4, 2), np.float32)),
    "FusionWeights": lambda: fusion.FusionWeights(nn.ConvKernel(KERNEL), nn.ConvKernel(KERNEL)),
    "TemplateCache": lambda: fusion.TemplateCache(np.zeros((2, 1, 1), np.float32)),
}


@pytest.mark.parametrize("make", STRUCTS.values(), ids=STRUCTS.keys())
def test_structs_compare_by_identity(make):
    a, b = make(), make()  # equal contents, distinct objects
    assert a == a and a != b
    assert {a: "a", b: "b"}[a] == "a" and hash(a) == hash(a)
    if isinstance(a, nn.ConvKernel):  # the cached float64 operands still build
        assert a._gemm_matrix is a._gemm_matrix and a._gemm_matrix.shape == (2, 50)
        assert a._winograd_kernel is a._winograd_kernel
        assert a._winograd_kernel.shape == (nn._ALPHA**2, 2, 2)


# A later write, into the arrays a struct was built from or into the struct's
# own arrays, must not reach a response. Each row's builder returns the
# (source array, value) writes, the struct's own arrays and the call that
# responds; the row's value goes into the struct's own arrays.
LATER_TEMPLATE = np.full((2, 5, 5), 0.5, np.float32)
LATER_SEARCH = np.linspace(-1.0, 1.0, 98, dtype=np.float32).reshape(2, 7, 7)


def arrays_of(struct):
    return [v for v in vars(struct).values() if isinstance(v, np.ndarray)]


def later_norm():
    gamma, beta, mean, var = ones(2), ones(2), ones(2), ones(2)
    norm = nn.BatchNormParams(gamma, beta, mean, var)
    weights = fusion.FusionWeights(nn.ConvKernel(KERNEL), nn.ConvKernel(KERNEL), norm=norm)
    return ([(gamma, np.nan), (beta, np.inf), (mean, -np.inf), (var, -1.0)], arrays_of(norm),
            lambda: fusion.acm_forward(LATER_TEMPLATE, LATER_SEARCH, weights))


def later_cache():
    z_term, prior_term = ones(2, 1, 1), ones(2, 1, 1)
    cache, weights = fusion.TemplateCache(z_term, prior_term), weights_of()
    return ([(z_term, np.inf), (prior_term, np.nan)], arrays_of(cache),
            lambda: fusion.acm_apply_search(cache, LATER_SEARCH, weights))


def later_built_cache():
    weights = weights_of()
    cache = fusion.acm_cache_template(LATER_TEMPLATE, weights, box=(10.0, 20.0))
    return [], arrays_of(cache), lambda: fusion.acm_apply_search(cache, LATER_SEARCH, weights)


def later_prior():
    prior = prior_of(ones(4, 2), ones(4, 4), ones(2, 4), np.zeros(2, np.float32))
    weights = weights_of(prior=prior)
    return ([(a, np.nan) for layer in prior for a in (layer.weights, layer.bias)],
            [a for layer in weights.prior for a in (layer.weights, layer.bias)],
            lambda: fusion.acm_forward(LATER_TEMPLATE, LATER_SEARCH, weights, box=(10.0, 20.0)))


LATER_WRITE_ROWS = {
    "BatchNormParams": (later_norm, np.nan),
    "TemplateCache": (later_cache, np.inf),
    "TemplateCache from acm_cache_template": (later_built_cache, np.inf),
    "FusionWeights prior": (later_prior, -np.inf),
}


@pytest.mark.parametrize("row", LATER_WRITE_ROWS)
def test_later_writes_cannot_reach_a_struct(row):
    build, value = LATER_WRITE_ROWS[row]
    expected = build()[2]()  # from pristine arrays
    writes, owned, respond = build()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for source, bad in writes:
            source[(0,) * source.ndim] = bad
        refused = 0
        for arr in owned:
            try:
                arr[(0,) * arr.ndim] = value
            except ValueError:  # assignment destination is read-only
                refused += 1
        out = respond()
    assert out.tobytes() == expected.tobytes(), out
    assert refused == len(owned) and not any(arr.flags.writeable for arr in owned)
    assert not caught, [str(w.message) for w in caught]


def ones(*shape):
    return np.ones(shape, np.float32)


def with_first(arr, value):
    """A copy of ``arr`` with its first entry set to ``value``."""
    bad = np.array(arr, np.float32)
    bad.flat[0] = value
    return bad


def prior_of(w1=ones(4, 2), w2=ones(4, 4), w3=ones(2, 4), b3=np.zeros(2, np.float32)):
    return (nn.FcLayer(w1, np.zeros(len(w1), np.float32)),
            nn.FcLayer(w2, np.zeros(len(w2), np.float32)), nn.FcLayer(w3, b3))


def norm_of(gamma=ones(2), beta=ones(2), running_mean=ones(2), running_var=ones(2), eps=1e-5):
    return nn.BatchNormParams(gamma, beta, running_mean, running_var, eps)


def weights_of(theta_z=KERNEL, theta_x=KERNEL, prior=None, norm=None):
    """Fusion weights on KERNEL's shape with a prior branch and a norm."""
    return fusion.FusionWeights(nn.ConvKernel(theta_z), nn.ConvKernel(theta_x),
                                prior=prior or prior_of(), norm=norm or norm_of())


# The error contract of the learned weights and of a template cache. Each row
# builds one with a bad part; building it raises the row's class, before any
# search map is seen. The last three rows build sound parts that fail when
# used: a prior fed a rank-2 input, a cache whose depth the weights do not
# produce, and a response that must raise rather than round to inf.
WEIGHT_ROWS = {
    "zero-size theta_x": (lambda: weights_of(theta_x=np.zeros((2, 2, 0, 5), np.float32)),
                          ShapeMismatchError),
    "prior with 2 layers": (lambda: weights_of(prior=prior_of()[:2]), ValueError),
    "prior layer 1 takes 3 inputs": (lambda: weights_of(prior=prior_of(w1=ones(4, 3))),
                                     ShapeMismatchError),
    "prior widths do not chain": (lambda: weights_of(prior=prior_of(w2=ones(4, 5))),
                                  ShapeMismatchError),
    "rank-3 prior layer weights": (lambda: weights_of(prior=prior_of(w1=ones(4, 2, 1))),
                                   RankError),
    "nan in theta_x": (lambda: weights_of(theta_x=with_first(KERNEL, np.nan)), NonFiniteMapError),
    "inf in theta_z": (lambda: weights_of(theta_z=with_first(KERNEL, np.inf)), NonFiniteMapError),
    "nan in prior weights": (lambda: weights_of(prior=prior_of(w2=with_first(ones(4, 4), np.nan))),
                             NonFiniteMapError),
    "inf in prior bias": (lambda: weights_of(prior=prior_of(b3=with_first(ones(2), np.inf))),
                          NonFiniteMapError),
    "nan gamma": (lambda: weights_of(norm=norm_of(gamma=with_first(ones(2), np.nan))),
                  NonFiniteMapError),
    "inf beta": (lambda: weights_of(norm=norm_of(beta=with_first(ones(2), np.inf))),
                 NonFiniteMapError),
    "-inf running_mean": (lambda: weights_of(norm=norm_of(running_mean=with_first(ones(2),
                                                                                  -np.inf))),
                          NonFiniteMapError),
    "rank-2 gamma": (lambda: weights_of(norm=norm_of(gamma=ones(2, 1))), RankError),
    "norm lengths differ": (lambda: weights_of(norm=norm_of(beta=ones(3))), ShapeMismatchError),
    "norm channels != kernels": (lambda: weights_of(norm=norm_of(*[ones(3)] * 4)),
                                 ShapeMismatchError),
    # |gamma| / sqrt(0 + 1e-300) = 1e150 would overflow the float32 output.
    "folded norm scale beyond float32": (
        lambda: weights_of(norm=norm_of(running_var=np.zeros(2, np.float32), eps=1e-300)),
        ValueError),
    "nan in z_term": (lambda: fusion.TemplateCache(with_first(ones(2, 1, 1), np.nan)),
                      NonFiniteMapError),
    "inf in prior_term": (lambda: fusion.TemplateCache(ones(2, 1, 1),
                                                       with_first(ones(2, 1, 1), np.inf)),
                          NonFiniteMapError),
    "z_term not P x 1 x 1": (lambda: fusion.TemplateCache(ones(2, 2, 1)), ShapeMismatchError),
    "prior_term shape != z_term": (lambda: fusion.TemplateCache(ones(2, 1, 1), ones(3, 1, 1)),
                                   ShapeMismatchError),
    "rank-2 prior input": (lambda: nn.mlp3_forward(ones(1, 2), prior_of()), RankError),
    "cache channels != weights": (
        lambda: fusion.acm_apply_search(fusion.TemplateCache(ones(3, 1, 1), ones(3, 1, 1)),
                                        ones(2, 7, 7), weights_of()),
        ShapeMismatchError),
    # A folded scale of 1e38 fits float32; 36 times it, from all-ones 3x3 kernels, does not.
    "response beyond float32": (
        lambda: fusion.acm_forward(ones(2, 3, 3), ones(2, 5, 5), fusion.FusionWeights(
            nn.ConvKernel(ones(2, 2, 3, 3)), nn.ConvKernel(ones(2, 2, 3, 3)),
            norm=norm_of(running_var=np.zeros(2, np.float32), eps=1e-76))),
        NonFiniteMapError),
}


class TestWeightContract:
    @pytest.mark.parametrize("row", WEIGHT_ROWS)
    def test_bad_weights_raise_their_class(self, row):
        build, error = WEIGHT_ROWS[row]
        with pytest.raises(error):
            build()

    def test_good_weights_give_a_finite_response(self):
        out = fusion.acm_forward(ones(2, 5, 5), ones(2, 7, 7), weights_of(), box=(10.0, 20.0))
        assert out.shape == (2, 3, 3) and np.isfinite(out).all()


# The largest |taped block - acm_forward| entry over 20,000 draws of
# ``taped_block_and_weights`` (seeds 0-19999) was 3.815e-6, at seed 7, one of
# the 300 below; 862 of the 20,000 responses were byte-identical. The tape
# rounds to float32 after every op, acm_forward once, in the search conv's
# epilogue. The bound is twice the worst gap.
TAPED_BLOCK_GAP = 8e-6


def taped_block_and_weights(rng):
    """The taped block with every arm over drawn Parameters, and FusionWeights built
    from those Parameters' values: (output node, weights, template, search, box)."""
    config = bench._random_config(rng)
    p = config.out_channels

    def param(name, shape, lo=-1.0, hi=1.0):
        return ag.Parameter(rand_f32(rng, shape, lo, hi), name)

    kernel = (p, config.channels, config.eta, config.omega)
    theta_z, theta_x = param("theta_z", kernel), param("theta_x", kernel)
    dims = (2, 16, 16, p)
    layers = [(param(f"w{i}", (dims[i + 1], dims[i])), param(f"b{i}", (dims[i + 1],)))
              for i in range(3)]
    gamma, beta = param("gamma", (p,), 0.5, 1.5), param("beta", (p,), -0.5, 0.5)
    mean, var = rand_f32(rng, (p,), -0.5, 0.5), rand_f32(rng, (p,), 0.5, 2.0)
    template = rand_f32(rng, (config.channels, config.eta, config.omega))
    search = rand_f32(rng, (config.channels, config.height, config.width))
    box = (float(rng.uniform(10.0, 200.0)), float(rng.uniform(10.0, 200.0)))

    tape = ag.Tape()
    out = fusion._acm_block(
        ag, tape.constant(search), tape.parameter(theta_x),
        tape.constant(np.asarray(box) / fusion.BOX_SCALE),
        [(tape.parameter(w), tape.parameter(b)) for w, b in layers],
        tape.constant(template), tape.parameter(theta_z),
        (tape.parameter(gamma), tape.parameter(beta), mean, var))
    weights = fusion.FusionWeights(
        nn.ConvKernel(theta_z.value), nn.ConvKernel(theta_x.value),
        prior=tuple(nn.FcLayer(w.value, b.value) for w, b in layers),
        norm=nn.BatchNormParams(gamma.value, beta.value, mean, var))
    return out, weights, template, search, box


class TestTapedBlock:
    """The taped block's Parameters, copied into FusionWeights, run on the inference path."""

    def test_exported_weights_give_acm_forwards_response(self):
        worst = 0.0
        for seed in range(300):
            out, weights, template, search, box = taped_block_and_weights(
                np.random.default_rng(seed))
            response = fusion.acm_forward(template, search, weights, box)
            assert out.value.shape == response.shape and out.value.dtype == response.dtype
            worst = max(worst, float(np.abs(out.value.astype(np.float64) - response).max()))
        assert worst <= TAPED_BLOCK_GAP <= bench.TOL
