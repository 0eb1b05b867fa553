"""Binary portable graymap/pixmap I/O.

Masks travel as 8-bit P5 (values 0 and 255), probability maps as 16-bit P5
scaled to 0..65535 (quantization error at most 1/131070), and RGB images as
8-bit P6. Only maxval 255 and 65535 are accepted; anything else is a
deliberate rejection rather than a silent rescale. Multi-byte samples are
big-endian, as the format requires. The writers reject NaN and infinite
values, and values outside [0, 1] where the format scales them, with an
error that names the file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import PnmError

__all__ = [
    "read_pnm",
    "write_mask_pgm",
    "write_prob_pgm",
    "write_ppm",
]

_ALLOWED_MAXVAL = (255, 65535)


def _parse_header(data: bytes, path) -> tuple[bytes, int, int, int, int]:
    """Return (magic, width, height, maxval, payload offset)."""
    if len(data) < 2 or data[:1] != b"P" or data[1:2] not in (b"5", b"6"):
        raise PnmError(f"{path}: not a binary PGM/PPM file")
    magic = data[:2]
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(data):
            raise PnmError(f"{path}: truncated header")
        ch = data[pos : pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            nl = data.find(b"\n", pos)
            if nl == -1:
                raise PnmError(f"{path}: unterminated comment in header")
            pos = nl + 1
        elif ch.isdigit():
            end = pos
            while end < len(data) and data[end : end + 1].isdigit():
                end += 1
            fields.append(int(data[pos:end]))
            pos = end
        else:
            raise PnmError(f"{path}: unexpected byte {ch!r} in header")
    if pos >= len(data) or data[pos : pos + 1] not in b" \t\r\n":
        raise PnmError(f"{path}: missing whitespace before payload")
    pos += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmError(f"{path}: bad dimensions {width}x{height}")
    if maxval not in _ALLOWED_MAXVAL:
        raise PnmError(
            f"{path}: unsupported maxval {maxval}; only 255 and 65535 are accepted"
        )
    return magic, width, height, maxval, pos


def read_pnm(path) -> np.ndarray:
    """Read a P5 graymap as (H, W) or a P6 pixmap as (H, W, 3), in [0, 1]."""
    data = Path(path).read_bytes()
    magic, width, height, maxval, pos = _parse_header(data, path)
    channels = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype(np.uint8)
    count = width * height * channels
    payload = data[pos:]
    if len(payload) < count * dtype.itemsize:
        raise PnmError(
            f"{path}: truncated payload, expected {count * dtype.itemsize} bytes, "
            f"got {len(payload)}"
        )
    if len(payload) > count * dtype.itemsize:
        raise PnmError(f"{path}: trailing bytes after payload")
    values = np.frombuffer(payload, dtype=dtype).astype(np.float64) / maxval
    if channels == 3:
        return values.reshape(height, width, 3)
    return values.reshape(height, width)


def _header(magic: bytes, width: int, height: int, maxval: int) -> bytes:
    return b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)


def _check_values(path, values: np.ndarray, unit_range: bool) -> None:
    """Reject what the writers would store as some in-range sample without a
    word: NaN (``NaN < 0`` is False, and the cast turns it into 0) and
    infinities, and, when ``unit_range``, values outside [0, 1].
    """
    if not np.isfinite(values).all():
        raise PnmError(f"{path}: values must be finite")
    if unit_range and (values.min() < 0.0 or values.max() > 1.0):
        raise PnmError(f"{path}: values must lie in [0, 1]")


def write_mask_pgm(path, mask: np.ndarray) -> None:
    """Write a binary mask as 8-bit P5 with values 0 and 255."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise PnmError(f"{path}: mask must be 2-D, got shape {m.shape}")
    _check_values(path, m, unit_range=False)
    payload = np.where(m > 0.5, 255, 0).astype(np.uint8)
    h, w = m.shape
    Path(path).write_bytes(_header(b"P5", w, h, 255) + payload.tobytes())


def write_prob_pgm(path, probs: np.ndarray) -> None:
    """Write a probability map as 16-bit P5 scaled to 0..65535."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise PnmError(f"{path}: probability map must be 2-D, got shape {p.shape}")
    _check_values(path, p, unit_range=True)
    payload = np.round(p * 65535).astype(">u2")
    h, w = p.shape
    Path(path).write_bytes(_header(b"P5", w, h, 65535) + payload.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an RGB image in [0, 1] as 8-bit P6."""
    img = np.asarray(rgb, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise PnmError(f"{path}: image must be (H, W, 3), got shape {img.shape}")
    _check_values(path, img, unit_range=True)
    payload = np.round(img * 255).astype(np.uint8)
    h, w, _ = img.shape
    Path(path).write_bytes(_header(b"P6", w, h, 255) + payload.tobytes())
