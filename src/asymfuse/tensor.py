"""Dense float32 tensors: broadcasting, norms and ``.tsr`` file I/O.

Tensors are plain C-contiguous ``numpy.float32`` arrays (row-major flat
storage plus a shape). Every operation here is a pure function: inputs
are never mutated and results are freshly allocated. Reductions
accumulate in float64 and round to float32 once, at the end.
"""

from __future__ import annotations

import contextlib
import struct
from pathlib import Path

import numpy as np

from .errors import (
    FormatError,
    NonFiniteMapError,
    RankError,
    ShapeMismatchError,
    ZeroVectorError,
)

DTYPE = np.float32
_F32 = np.dtype(DTYPE)

_MAGIC = b"TSRF"
_VERSION = 1
_CODE_F32 = 1
_HEADER = struct.Struct("<III")  # version, dtype code, ndim


def as_tensor(values) -> np.ndarray:
    """Coerce ``values`` to a C-contiguous float32 array (rank preserved); None,
    complex, object and string input has no real value: ValueError naming its type."""
    if type(values) is not np.ndarray or values.dtype is not _F32:  # float32 arrays skip it
        if (dtype := np.asarray(values).dtype).kind not in "biuf":
            raise ValueError(f"cannot coerce {type(values).__name__} input ({dtype}) to float32")
    return np.asarray(values, dtype=DTYPE, order="C")


def _as_map(x, what: str) -> np.ndarray:
    """``x`` as a float32 C x H x W map; the one rank-3 check of the package."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise RankError(f"{what} must be rank 3 (C x H x W), got rank {x.ndim}")
    return x


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` unchanged; NonFiniteMapError if it holds a NaN or an infinity."""
    if not np.isfinite(x).all():
        raise NonFiniteMapError(f"{what} holds NaN or infinite values")
    return x


def _read_only(values, what: str) -> np.ndarray:
    """``values`` as a finite read-only float32 array, copied unless as_tensor made it."""
    t = as_tensor(values)
    if t is values or not t.flags.owndata:
        t = t.copy()
    t.flags.writeable = False
    return _check_finite(t, what)


def _check_int(value, what: str, low: int = 0, high=np.inf, error=ValueError) -> int:
    """``value`` as an int in [low, high), else ``error``: the one rule for every index,
    label, position and count. Python and NumPy integers pass; bools, floats
    (integral ones too), NaN and strings are refused, never truncated."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if is_int and low <= value < high:
        return int(value)
    bounds = f"of at least {low}" if high == np.inf else f"in [{low}, {high})"
    raise error(f"{what} must be an integer {bounds}, got {value!r}")


def _check_bool(value, what: str) -> bool:
    """``value`` as a bool: Python and NumPy bools pass, anything else is a ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a bool, got {value!r}")
    return bool(value)


def _unpack(value, count: int, what: str) -> tuple:
    """``value`` as a tuple of ``count`` items (each checked by its caller), else ValueError."""
    items = tuple(value) if np.iterable(value) else ()
    if len(items) != count:
        raise ValueError(f"{what} must be {count} integers, got {value!r}")
    return items


def _check_real(value, name: str, zero_ok: bool = False) -> float:
    """``value`` as a float, else ValueError: the one rule of every real-valued setting. A Python
    or NumPy int or float, not a bool, passes if finite and > 0 (>= 0 with ``zero_ok``)."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    with contextlib.suppress(OverflowError):  # float() of a Python int beyond the float range
        if real and 0 <= (number := float(value)) < np.inf and (zero_ok or number != 0):
            return number
    raise ValueError(f"{name} must be {'non-negative' if zero_ok else 'positive'} and finite, "
                     f"got {value!r}")


def _seed_sequence(seed, name: str = "seed") -> np.random.SeedSequence:
    """The one seed rule: a SeedSequence passes through, else ``_check_int`` (at least 0)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(_check_int(seed, name))


def broadcast_add(a, b) -> np.ndarray:
    """Elementwise sum with size-1 dimensions virtually replicated."""
    a = as_tensor(a)
    b = as_tensor(b)
    try:
        return a + b
    except ValueError:
        raise ShapeMismatchError(f"cannot broadcast {a.shape} with {b.shape}") from None


def relu(t) -> np.ndarray:
    """max(t, 0), elementwise."""
    return np.maximum(as_tensor(t), DTYPE(0))


def l1_map(t) -> np.ndarray:
    """Collapse a C x H x W map to H x W by summing |t| over channels."""
    t = _as_map(t, "l1_map input")
    return np.abs(t.astype(np.float64)).sum(axis=0).astype(DTYPE)


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two equal-length vectors.

    Raises:
        RankError: an argument is not rank 1.
        ShapeMismatchError: lengths differ.
        ZeroVectorError: either vector has zero norm.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise RankError("cosine_similarity expects rank-1 vectors")
    if a.shape != b.shape:
        raise ShapeMismatchError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    norm_a = float(np.sqrt(a64 @ a64))
    norm_b = float(np.sqrt(b64 @ b64))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for zero vectors")
    value = float(a64 @ b64) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))


def tensor_write(t, path) -> None:
    """Serialize a tensor to ``path`` in the .tsr format.

    Layout, all little-endian: magic ``b"TSRF"``, u32 version (1), u32
    dtype code (1 = float32), u32 ndim, u32 dims[ndim], then the raw
    row-major float32 payload. No padding or trailing bytes.

    Raises:
        FormatError: ``t`` has a zero-sized dimension, which
            :func:`tensor_read` would refuse; nothing is written.
    """
    t = as_tensor(t)
    if t.size == 0:
        raise FormatError(f"cannot write zero-sized tensor of shape {t.shape}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, _CODE_F32, t.ndim))
        if t.ndim:
            fh.write(struct.pack(f"<{t.ndim}I", *t.shape))
        fh.write(t.astype("<f4", copy=False).tobytes())


def tensor_read(path) -> np.ndarray:
    """Deserialize a .tsr file written by :func:`tensor_write`.

    Raises:
        FormatError: bad magic, unsupported version or dtype, zero
            dimensions, or a payload whose size disagrees with the dims.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 4 + _HEADER.size:
        raise FormatError("truncated header")
    if blob[:4] != _MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}")
    version, dtype_code, ndim = _HEADER.unpack_from(blob, 4)
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    if dtype_code != _CODE_F32:
        raise FormatError(f"unsupported dtype code {dtype_code}")
    offset = 4 + _HEADER.size
    if len(blob) < offset + 4 * ndim:
        raise FormatError("truncated dimension list")
    dims = struct.unpack_from(f"<{ndim}I", blob, offset) if ndim else ()
    if any(d == 0 for d in dims):
        raise FormatError("zero-sized dimension")
    offset += 4 * ndim
    count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
    payload = blob[offset:]
    if len(payload) != 4 * count:
        raise FormatError(f"payload is {len(payload)} bytes, expected {4 * count}")
    return np.frombuffer(payload, dtype="<f4", count=count).reshape(dims).astype(DTYPE)
