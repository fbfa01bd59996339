"""Response-map diagnostics: discriminability, diversity, heatmap export.

These read a fused correlation map (P x H x W) and quantify how well it
separates the annotated target position from its strongest off-target
rival, and how evenly the channels share the response energy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyExteriorError, NonPositiveMaxError, ZeroVectorError
from .tensor import _as_map, _check_finite, cosine_similarity, l1_map


@dataclass(frozen=True)
class DiscriminabilityReport:
    """Target-vs-distractor comparison at two fixed map positions.

    ``cosine`` is NaN (and ``degenerate`` is set) when either channel
    vector has zero norm. ``euclidean_norm01`` is the distance after the
    whole map was min-max rescaled to [0, 1] (jointly over all channels
    unless the per-channel variant was requested).
    """

    cosine: float
    euclidean_norm01: float
    target_pos: tuple[int, int]
    distractor_pos: tuple[int, int]
    degenerate: bool = False


@dataclass(frozen=True)
class ChannelDiversity:
    """Per-channel maxima relative to the global maximum, and their mean."""

    per_channel: np.ndarray
    mean: float


def _check_map(corr) -> np.ndarray:
    return _check_finite(_as_map(corr, "response map"), "response map")


def _check_pos(pos, height, width, what):
    row, col = int(pos[0]), int(pos[1])
    if not (0 <= row < height and 0 <= col < width):
        raise ValueError(f"{what} ({row}, {col}) outside map {height}x{width}")
    return row, col


def find_distractor(corr, exclude_box) -> tuple[int, int]:
    """Strongest position strictly outside an inclusive (r0, c0, r1, c1) box.

    Strength is the per-pixel L1 norm across channels; ties resolve to
    the first position in row-major order.

    Raises:
        EmptyExteriorError: the box covers the whole map.
    """
    corr = _check_map(corr)
    _, height, width = corr.shape
    r0, c0, r1, c1 = (int(v) for v in exclude_box)
    if not (0 <= r0 <= r1 < height and 0 <= c0 <= c1 < width):
        raise ValueError(f"exclusion box {exclude_box} outside map {height}x{width}")
    outside = np.ones((height, width), dtype=bool)
    outside[r0 : r1 + 1, c0 : c1 + 1] = False
    if not outside.any():
        raise EmptyExteriorError("exclusion box covers the entire map")
    strength = l1_map(corr).astype(np.float64)
    strength[~outside] = -np.inf
    flat_index = int(np.argmax(strength))  # first max in row-major order
    return flat_index // width, flat_index % width


def _normalized01(corr, per_channel: bool) -> np.ndarray:
    x = corr.astype(np.float64)
    if per_channel:
        lo = x.min(axis=(1, 2), keepdims=True)
        hi = x.max(axis=(1, 2), keepdims=True)
        span = hi - lo
        out = np.zeros_like(x)
        np.divide(x - lo, span, out=out, where=span > 0)
        return out
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def discriminability(
    corr, target_pos, exclude_box, per_channel_norm: bool = False
) -> DiscriminabilityReport:
    """Compare the channel vector at the target against the distractor's.

    The distractor is the strongest position strictly outside
    ``exclude_box`` (which must contain ``target_pos``). Cosine uses the
    raw vectors; the Euclidean distance is taken after min-max rescaling
    the map to [0, 1], jointly across channels by default.
    """
    corr = _check_map(corr)
    _, height, width = corr.shape
    target = _check_pos(target_pos, height, width, "target position")
    r0, c0, r1, c1 = (int(v) for v in exclude_box)
    if not (r0 <= target[0] <= r1 and c0 <= target[1] <= c1):
        raise ValueError(f"exclusion box {exclude_box} does not contain target {target}")
    distractor = find_distractor(corr, exclude_box)
    target_vec = corr[:, target[0], target[1]]
    distractor_vec = corr[:, distractor[0], distractor[1]]
    degenerate = False
    try:
        cos = cosine_similarity(target_vec, distractor_vec)
    except ZeroVectorError:
        cos = float("nan")
        degenerate = True
    scaled = _normalized01(corr, per_channel_norm)
    diff = scaled[:, target[0], target[1]] - scaled[:, distractor[0], distractor[1]]
    euclid = float(np.sqrt((diff * diff).sum()))
    return DiscriminabilityReport(
        cosine=cos,
        euclidean_norm01=euclid,
        target_pos=target,
        distractor_pos=distractor,
        degenerate=degenerate,
    )


def channel_diversity(corr) -> ChannelDiversity:
    """Each channel's peak as a fraction of the global peak, plus the mean.

    Raises:
        NonPositiveMaxError: the global maximum is not strictly positive.
    """
    corr = _check_map(corr)
    x = corr.astype(np.float64)
    global_max = float(x.max())
    if global_max <= 0:
        raise NonPositiveMaxError(f"global maximum {global_max} is not positive")
    per_channel = (x.max(axis=(1, 2)) / global_max).astype(np.float32)
    return ChannelDiversity(per_channel=per_channel, mean=float(per_channel.mean(dtype=np.float64)))


def heatmap_export(corr, path_prefix) -> tuple[Path, Path]:
    """Write the per-pixel L1 map as ``<prefix>.csv`` and ``<prefix>.pgm``.

    The CSV holds one map row per line (LF endings, ``.`` decimal point,
    enough digits to reparse within 1e-5). The PGM is binary P5 with the
    map min-max scaled to 0..255; a constant map becomes all zeros.
    """
    strength = l1_map(_check_map(corr))
    prefix = Path(path_prefix)
    csv_path = prefix.with_name(prefix.name + ".csv")
    pgm_path = prefix.with_name(prefix.name + ".pgm")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in strength:
            writer.writerow([f"{float(v):.9g}" for v in row])
    height, width = strength.shape
    pixels = np.rint(_normalized01(strength, per_channel=False) * 255.0).astype(np.uint8)
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    return csv_path, pgm_path
