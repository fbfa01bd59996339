"""
Reading a correlation map: discriminability and diversity
=========================================================

Given a response map, two questions matter: how confusable is the target
with the strongest background position, and how evenly do channels share
the signal? This script builds a map with a known target and a planted
distractor, computes both statistics, and exports the strength map as
CSV and PGM.
"""

import numpy as np

from asymfuse.analysis import channel_diversity, discriminability, heatmap_export

rng = np.random.default_rng(3)

# A 6-channel 15x15 map: background noise, a strong target blob at
# (7, 7), and a weaker look-alike at (2, 12).
corr = rng.uniform(0.0, 0.2, size=(6, 15, 15)).astype(np.float32)
target = (7, 7)
corr[:, 7, 7] += np.linspace(1.0, 2.0, 6, dtype=np.float32)
corr[:, 2, 12] += np.linspace(0.9, 1.7, 6, dtype=np.float32)

# The exclusion box hides the target's own neighborhood so the distractor
# search looks only at the background.
report = discriminability(corr, target_pos=target, exclude_box=(5, 5, 9, 9))
print(f"strongest exterior position: {report.distractor_pos} (planted (2, 12))")
print(f"cosine(target, distractor)  = {report.cosine:.4f}")
print(f"normalized euclidean gap    = {report.euclidean_norm01:.4f}")

# High cosine + small gap means the two vectors look alike: this map
# would confuse a tracker. Channel diversity tells a complementary
# story: values near 1 mean all channels carry comparable energy.
div = channel_diversity(corr)
print(f"channel diversity: per-channel {np.round(div.per_channel, 3)}, "
      f"mean {div.mean:.3f}")

csv_path, pgm_path = heatmap_export(corr, "response_map")
print(f"wrote {csv_path} and {pgm_path}")
