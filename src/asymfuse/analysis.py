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
from .tensor import _as_map, _check_finite, _check_int, as_tensor, cosine_similarity, l1_map


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


def _unpack(value, count: int, what: str) -> tuple:
    items = tuple(value) if np.iterable(value) else ()
    if len(items) != count:
        raise ValueError(f"{what} must be {count} integers, got {value!r}")
    return items


def find_distractor(corr, exclude_box) -> tuple[int, int]:
    """Strongest position strictly outside an inclusive (r0, c0, r1, c1) box.

    Strength is the per-pixel L1 norm across channels; ties resolve to
    the first position in row-major order.

    Raises:
        ValueError: the box is not four integers 0 <= r0 <= r1 < H, 0 <= c0 <= c1 < W.
        EmptyExteriorError: the box covers the whole map.
    """
    corr = _check_map(corr)
    _, height, width = corr.shape
    r0, c0, r1, c1 = _unpack(exclude_box, 4, "exclude_box")
    r0, c0 = _check_int(r0, "box r0", 0, height), _check_int(c0, "box c0", 0, width)
    r1, c1 = _check_int(r1, "box r1", r0, height), _check_int(c1, "box c1", c0, width)
    outside = np.ones((height, width), dtype=bool)
    outside[r0 : r1 + 1, c0 : c1 + 1] = False
    if not outside.any():
        raise EmptyExteriorError("exclusion box covers the entire map")
    strength = l1_map(corr).astype(np.float64)
    strength[~outside] = -np.inf
    flat_index = int(np.argmax(strength))  # first max in row-major order
    return flat_index // width, flat_index % width


def _normalized01(corr, per_channel: bool) -> np.ndarray:
    """Min-max rescale to [0, 1], per channel or over the whole map; a constant one gives 0."""
    x = corr.astype(np.float64)
    lo = x.min(axis=(1, 2) if per_channel else None, keepdims=True)
    span = x.max(axis=(1, 2) if per_channel else None, keepdims=True) - lo
    out = np.zeros_like(x)
    np.divide(x - lo, span, out=out, where=span > 0)
    return out


def discriminability(
    corr, target_pos, exclude_box, per_channel_norm: bool = False
) -> DiscriminabilityReport:
    """Compare the channel vector at the target against the distractor's.

    The distractor is the strongest position strictly outside ``exclude_box``
    (which must contain ``target_pos``, else ValueError). Cosine uses the raw
    vectors; the Euclidean distance is taken after min-max rescaling the map
    to [0, 1], jointly across channels by default.
    """
    distractor = find_distractor(corr, exclude_box)  # checks the map and the box
    corr = as_tensor(corr)
    (r0, c0, r1, c1), (row, col) = exclude_box, _unpack(target_pos, 2, "target_pos")
    target = (_check_int(row, "target row inside the box", r0, r1 + 1),
              _check_int(col, "target column inside the box", c0, c1 + 1))
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
