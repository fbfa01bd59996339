"""Random inputs and float64 window-loop oracles shared by the test modules."""

import numpy as np


def rand_f32(rng, shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape).astype(np.float32)


def window_loop(x, w):
    """float64 out[p,i,j] = sum_{c,u,v} w[p,c,u,v] x[c,i+u,j+v], window by window."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    p, _, kh, kw = w.shape
    out = np.empty((p, x.shape[1] - kh + 1, x.shape[2] - kw + 1))
    for i in range(out.shape[1]):
        for j in range(out.shape[2]):
            out[:, i, j] = np.tensordot(w, x[:, i : i + kh, j : j + kw], axes=3)
    return out


def window_loop_grads(x, w, g):
    """float64 (dx, dw) of window_loop(x, w) for output gradient g, window by window."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    kh, kw = w.shape[2:]
    dx, dw = np.zeros(x.shape), np.zeros(w.shape)
    for i in range(g.shape[1]):
        for j in range(g.shape[2]):
            dw += g[:, i, j, None, None, None] * x[None, :, i : i + kh, j : j + kw]
            dx[:, i : i + kh, j : j + kw] += np.tensordot(g[:, i, j], w, axes=1)
    return dx, dw


def diagonal_kernel(z):
    """The P = C kernel whose conv is depthwise correlation with template z."""
    return np.eye(len(z))[:, :, None, None] * z[None].astype(np.float64)
