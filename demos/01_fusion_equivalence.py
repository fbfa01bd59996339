"""
Decomposed fusion equals the concatenation form
===============================================

The fusion op convolves the template map and each search window with
separate kernels and adds the results. Stacking [template; window] along
channels and convolving once with the joined kernel gives the same
numbers. This script builds a random instance of both and prints the
largest absolute disagreement. The weights are built from raw arrays:
a kernel array for each side and (weights, bias) pairs for the prior,
which FusionWeights wraps once into its own read-only structs.
"""

import numpy as np

from asymfuse import FusionWeights, acm_forward, naive_concat_corr

rng = np.random.default_rng(0)

# One problem size: 8-channel maps, a 3x3 template, a 12x12 search region,
# 4 output channels.
C, eta, omega, H, W, P = 8, 3, 3, 12, 12, 4


def draw(*shape):
    return rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)


template = draw(C, eta, omega)
search = draw(C, H, W)
weights = FusionWeights(
    theta_z=draw(P, C, eta, omega),
    theta_x=draw(P, C, eta, omega),
)

# The naive reference walks every template-sized window of the search map,
# concatenates the template onto it channel-wise, and convolves with the
# joined kernel [theta_z | theta_x]. The decomposed path convolves template
# and search separately and broadcast-adds the template term.
reference = naive_concat_corr(template, search, weights)
decomposed = acm_forward(template, search, weights, apply_relu=False)

print(f"output shape: {decomposed.shape} "
      f"(expected {(P, H - eta + 1, W - omega + 1)})")
print(f"max |naive - decomposed| = {np.abs(reference - decomposed).max():.3e}")

# The equality survives the extra prior branch: a 3-layer FC net maps the
# normalized box size to one bias per output channel, which shifts every
# spatial position equally and so commutes with both forms.
hidden = 16
dims = (2, hidden, hidden, P)
prior = [(draw(dims[i + 1], dims[i]), draw(dims[i + 1])) for i in range(3)]
with_prior = FusionWeights(theta_z=weights.theta_z, theta_x=weights.theta_x,
                           prior=prior)
box = (44.0, 61.0)

shifted = acm_forward(template, search, with_prior, box=box, apply_relu=False)
offset = shifted - decomposed
print(f"prior branch adds a per-channel constant: spatial variance = "
      f"{float(offset.var(axis=(1, 2)).max()):.3e}")

# With the ReLU applied, both forms still agree because they agree
# pre-activation.
a = np.maximum(reference, 0.0)
b = acm_forward(template, search, weights, apply_relu=True)
print(f"post-ReLU max difference = {np.abs(a - b).max():.3e}")
