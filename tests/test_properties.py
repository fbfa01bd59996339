"""Property tests over random shapes: correlation ops against window loops.

Entries are float32 in [-1, 1] and every kernel has at most 64 elements,
so an output is at most 64 in magnitude and one float32 rounding of it
stays below 4e-6, inside the 1e-5 tolerance.
"""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asymfuse import fusion, nn

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


def window_loop(x, w):
    """float64 out[p,i,j] = sum_{c,u,v} w[p,c,u,v] x[c,i+u,j+v], window by window."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    p, _, kh, kw = w.shape
    out = np.empty((p, x.shape[1] - kh + 1, x.shape[2] - kw + 1))
    for i in range(out.shape[1]):
        for j in range(out.shape[2]):
            out[:, i, j] = np.tensordot(w, x[:, i : i + kh, j : j + kw], axes=3)
    return out


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
