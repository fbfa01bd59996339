"""Property tests over random shapes and bytes.

The correlation ops and their taped gradients are checked against window
loops. Entries are float32 in [-1, 1] and every kernel has at most 64
elements, so an output is at most 64 in magnitude and one float32
rounding of it stays below 4e-6, inside the 1e-5 tolerance; gradients
stay in float64 and are held to 1e-10. The ``.tsr`` reader and writer
are checked on arbitrary bytes and random tensors.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asymfuse import autograd as ag
from asymfuse import fusion, nn
from asymfuse import tensor as T
from asymfuse.errors import FormatError
from oracles import diagonal_kernel, window_loop, window_loop_grads

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)

dims = st.integers(1, 4)
entries = st.floats(-1.0, 1.0, width=32)


def f32(shape):
    return hnp.arrays(np.float32, shape, elements=entries)


@st.composite
def map_and_kernel(draw):
    """(C x H x W map, P x C x kh x kw kernel) with the kernel fitting the map."""
    c, p, kh, kw = draw(dims), draw(dims), draw(dims), draw(dims)
    h, w = kh + draw(st.integers(0, 5)), kw + draw(st.integers(0, 5))
    return draw(f32((c, h, w))), draw(f32((p, c, kh, kw)))


@PROPERTY_SETTINGS
@given(map_and_kernel())
def test_conv2d_valid_matches_window_loop(case):
    x, w = case
    npt.assert_allclose(nn.conv2d_valid(x, w), window_loop(x, w), rtol=0, atol=1e-5)


@PROPERTY_SETTINGS
@given(map_and_kernel())
def test_xcorr_matches_window_loop(case):
    x, w = case
    npt.assert_allclose(nn.xcorr(x, w[0]), window_loop(x, w[:1]), rtol=0, atol=1e-5)


@PROPERTY_SETTINGS
@given(map_and_kernel())
def test_depthwise_corr_matches_window_loop(case):
    x, w = case
    z = w[0]
    want = np.stack([window_loop(x[c : c + 1], z[None, c : c + 1])[0] for c in range(len(z))])
    npt.assert_allclose(nn.depthwise_corr(x, z), want, rtol=0, atol=1e-5)


@PROPERTY_SETTINGS
@given(map_and_kernel(), st.sampled_from(["conv2d", "xcorr", "depthwise"]), st.data())
def test_taped_gradients_match_window_loop(case, op, data):
    x, w = case
    if op == "conv2d":
        k, w_loop = w, w
    elif op == "xcorr":
        k, w_loop = w[0], w[:1]
    else:
        k = w[0]
        w_loop = diagonal_kernel(k)
    out_shape = (w_loop.shape[0], x.shape[1] - k.shape[-2] + 1, x.shape[2] - k.shape[-1] + 1)
    g = data.draw(hnp.arrays(np.float64, out_shape, elements=st.floats(-1.0, 1.0)))
    want_x, want_w = window_loop_grads(x, w_loop, g)
    if op == "xcorr":
        want_w = want_w[0]
    elif op == "depthwise":
        want_w = np.stack([want_w[c, c] for c in range(len(k))])
    tape = ag.Tape()
    x_node = tape.parameter(ag.Parameter(x, "x"))
    k_node = tape.parameter(ag.Parameter(k, "k"))
    ag.backward(tape, ag.weighted_sum(getattr(ag, op)(x_node, k_node), g))
    npt.assert_allclose(x_node.grad, want_x, rtol=0, atol=1e-10)
    npt.assert_allclose(k_node.grad, want_w, rtol=0, atol=1e-10)


@PROPERTY_SETTINGS
@given(map_and_kernel(), st.data())
def test_decomposed_fusion_equals_naive_concat(case, data):
    search, theta_x = case
    template = data.draw(f32(theta_x.shape[1:]))
    theta_z = data.draw(f32(theta_x.shape))
    weights = fusion.FusionWeights(nn.ConvKernel(theta_z), nn.ConvKernel(theta_x))
    acm = fusion.acm_forward(template, search, weights, apply_relu=False)
    naive = fusion.naive_concat_corr(template, search, weights)
    # acm rounds the z term, the x term and their sum to float32, naive rounds
    # once; at magnitudes up to 128 the two stay within 2.3e-5.
    npt.assert_allclose(acm, naive, rtol=0, atol=5e-5)


@PROPERTY_SETTINGS
@given(map_and_kernel(), st.data())
def test_fusion_with_prior_and_norm_equals_naive_concat(case, data):
    search, theta_x = case
    p, c, kh, kw = theta_x.shape
    template = data.draw(f32(theta_x.shape[1:]))
    theta_z = data.draw(f32(theta_x.shape))
    hidden = data.draw(dims)
    prior = tuple(nn.FcLayer(data.draw(f32((n_out, n_in))), data.draw(f32((n_out,))))
                  for n_in, n_out in ((2, hidden), (hidden, hidden), (hidden, p)))
    running_var = hnp.arrays(np.float32, p, elements=st.floats(0.0, 4.0, width=32))
    norm = nn.BatchNormParams(data.draw(f32(p)), data.draw(f32(p)), data.draw(f32(p)),
                              data.draw(running_var))
    box = data.draw(st.tuples(st.floats(1.0, 500.0), st.floats(1.0, 500.0)))
    weights = fusion.FusionWeights(nn.ConvKernel(theta_z), nn.ConvKernel(theta_x),
                                   prior=prior, norm=norm)
    acm = fusion.acm_forward(template, search, weights, box)

    scaled = np.array([box[0] / fusion.BOX_SCALE, box[1] / fusion.BOX_SCALE], np.float32)
    prior_term = nn.mlp3_forward(scaled, prior).astype(np.float64)[:, None, None]
    pre = fusion.naive_concat_corr(template, search, weights).astype(np.float64) + prior_term
    gamma, beta, mean, var = (a.astype(np.float64)[:, None, None] for a in (
        norm.gamma, norm.beta, norm.running_mean, norm.running_var))
    scale = gamma / np.sqrt(var + norm.eps)
    shift = beta - mean * scale
    want = np.maximum(pre * scale + shift, 0.0)
    # With u = 2**-24 and K = C*kh*kw, each of theta_z*z and theta_x*x is at
    # most K in magnitude (entries in [-1, 1]) and their sum at most 2K. acm
    # rounds the two convs to float32 (u*K each), naive rounds their sum once
    # (2*u*K), and both sides then run prior, norm and ReLU in float64. ReLU
    # is 1-Lipschitz, so before acm's final cast the gap is at most
    # 4*u*K*max|scale|; that cast adds u*max|want|, and the float64 steps
    # stay below 1e-9 at these magnitudes.
    u = 2.0**-24
    tol = u * (4 * c * kh * kw * float(np.abs(scale).max()) + float(np.abs(want).max())) + 1e-9
    npt.assert_allclose(acm, want, rtol=0, atol=tol)


@st.composite
def tsr_like_bytes(draw):
    """Arbitrary bytes, or a ``.tsr`` header with arbitrary fields, dims and payload."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    ndim = draw(st.integers(0, 4))
    dims = draw(st.lists(st.integers(0, 3) | st.integers(0, 2**32 - 1),
                         min_size=ndim, max_size=ndim))
    count = int(np.prod(dims, dtype=object))
    payload = draw(st.binary(min_size=4 * count, max_size=4 * count)
                   if count <= 16 else st.binary(max_size=64))
    payload += draw(st.just(b"") | st.binary(min_size=1, max_size=4))  # trailing bytes
    code = st.just(1) | st.integers(0, 2)  # version and dtype code; 1 is valid
    blob = b"TSRF" + struct.pack(f"<3I{ndim}I", draw(code), draw(code), ndim, *dims) + payload
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@settings(max_examples=200, deadline=None)  # a read is cheap; most blobs are refused
@given(tsr_like_bytes())
def test_tensor_read_returns_or_raises_format_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsr"
        path.write_bytes(blob)
        try:
            t = T.tensor_read(path)
        except FormatError:
            return
    assert t.dtype == np.float32
    assert t.nbytes == len(blob) - 16 - 4 * t.ndim


@PROPERTY_SETTINGS
@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=4, max_side=5)))
def test_tensor_write_then_read_round_trips(t):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsr"
        T.tensor_write(t, path)
        back = T.tensor_read(path)
    assert back.dtype == np.float32
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()
