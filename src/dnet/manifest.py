"""Dataset manifests: a split tag plus image/mask (and optional FOV) paths.

Format, one record per line, paths relative to the manifest's directory::

    split train
    img_000.ppm mask_000.pgm
    img_001.ppm mask_001.pgm fov_001.pgm

Blank lines and lines starting with ``#`` are skipped. Loading a manifest
validates that every referenced file exists and decodes, that image and
mask (and FOV) spatial dimensions agree, and that every record has the
first one's size.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ManifestError
from .pnm import read_pnm

__all__ = ["load_manifest", "write_manifest", "as_rgb"]

_SPLITS = ("train", "test")


def as_rgb(img: np.ndarray) -> np.ndarray:
    """An (H, W, 3) image as is; an (H, W) graymap repeated to three channels."""
    return np.repeat(img[:, :, None], 3, axis=2) if img.ndim == 2 else img


def load_manifest(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Validate a manifest and decode each file once into (image, mask) arrays.

    Images are (H, W, 3), graymaps repeated to three channels; masks are
    (H, W, 1) binary. Every image must have the first record's size, as a
    training batch stacks them. FOV files are only checked for size. Errors
    name the manifest and the line of the file at fault.
    """
    path = Path(path)
    base = path.parent
    records = [
        (lineno, line.strip())
        for lineno, line in enumerate(path.read_text(errors="replace").splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not records or records[0][1].split()[0] != "split":
        raise ManifestError(f"{path}: first line must be 'split train|test'")
    split_line = records[0][1]
    split_parts = split_line.split()
    if len(split_parts) != 2 or split_parts[1] not in _SPLITS:
        raise ManifestError(f"{path}: bad split line {split_line!r}")

    dataset = []
    for lineno, line in records[1:]:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ManifestError(
                f"{path}:{lineno}: expected 'image mask [fov]', got {line!r}"
            )
        files = [base / p for p in parts]
        for p in files:
            if not p.is_file():
                raise ManifestError(f"{path}:{lineno}: missing file {p}")
        img = read_pnm(files[0])
        mask = read_pnm(files[1])
        if mask.ndim != 2:
            raise ManifestError(f"{path}:{lineno}: mask {files[1]} must be a graymap")
        if img.shape[:2] != mask.shape:
            raise ManifestError(
                f"{path}:{lineno}: image {img.shape[:2]} vs mask {mask.shape} size mismatch"
            )
        if len(files) == 3 and read_pnm(files[2]).shape != mask.shape:
            raise ManifestError(f"{path}:{lineno}: fov size does not match mask")
        if dataset and mask.shape != dataset[0][1].shape[:2]:
            raise ManifestError(
                f"{path}:{lineno}: image {files[0]} is {mask.shape}, the first record's "
                f"is {dataset[0][1].shape[:2]}; all images must share one size"
            )
        dataset.append((as_rgb(img), (mask > 0.5).astype(np.float64)[:, :, None]))
    if not dataset:
        raise ManifestError(f"{path}: manifest lists no records")
    return dataset


def write_manifest(path, split: str, entries) -> None:
    """Write relative-path records; entries are (image, mask) or (image, mask, fov)."""
    if split not in _SPLITS:
        raise ManifestError(f"bad split {split!r}")
    lines = [f"split {split}"]
    for entry in entries:
        lines.append(" ".join(str(p) for p in entry))
    Path(path).write_text("\n".join(lines) + "\n")
