"""Binary portable pixmap I/O (P6 color, P5 grayscale, 8-bit) and frame
directory handling. Pixels map to [0,1] by division by 255.

:func:`read_frames` is the one frame reader, for :func:`load_frames` and
the CLI's ``detect`` and ``run``. It decodes a raster only when it differs
from the previous file's, so the repeated rasters of a static scene share
one read-only pixel array, which no frame can change under another.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .motion import Frame
from .tensor import Tensor

__all__ = ["frame_from_image", "list_frame_files", "load_frames", "read_frames",
           "read_ppm", "save_frames", "write_ppm"]


def write_ppm(path, image: np.ndarray) -> None:
    """Write a uint8 [H,W] or [H,W,1|3] array as P5/P6 with maxval 255."""
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        raise ValueError(f"image must be uint8, got {arr.dtype}")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError(f"image must be [H,W] or [H,W,1|3], got shape {arr.shape}")
    h, w, c = arr.shape
    magic = b"P6" if c == 3 else b"P5"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(arr).tobytes())


# One header number: whitespace and comments, then at most 9 digits.
_HEADER_NUMBER = re.compile(rb"(?:\s|#[^\n]*\n)*(\d{0,9})")


def read_ppm(path) -> np.ndarray:
    """Read a binary P5/P6 file into a uint8 [H,W,C] array.

    A malformed file raises ``ValueError`` naming the path and the byte
    offset of the fault.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"P6":
        channels = 3
    elif data[:2] == b"P5":
        channels = 1
    else:
        raise ValueError(f"{path}: byte 0: not a binary PPM/PGM file (magic {data[:2]!r})")
    pos, fields = 2, []
    for name in ("width", "height", "maxval"):
        m = _HEADER_NUMBER.match(data, pos)
        start, pos = m.span(1)
        value = int(m[1]) if m[1] and not data[pos:pos + 1].strip() else 0
        if value == 0 or (name == "maxval" and value != 255):
            expected = "255, for 8-bit samples" if name == "maxval" else "1 to 9 digits, not 0"
            raise ValueError(f"{path}: byte {start}: bad {name} {data[start:start + 12]!r}, "
                             f"expected {expected}")
        fields.append(value)
    width, height, _ = fields
    pos += 1  # single whitespace byte after maxval
    need = width * height * channels
    if len(data) - pos < need:
        raise ValueError(f"{path}: byte {pos}: raster truncated, expected {need} bytes, "
                         f"got {max(len(data) - pos, 0)}")
    return np.frombuffer(data, np.uint8, need, pos).reshape(height, width, channels)


def frame_from_image(index: int, image: np.ndarray) -> Frame:
    """uint8 [H,W,C] array, C in {1,3}, to a Frame with [C,H,W] pixels in [0,1].

    That contract and ``index >= 0`` are checked in O(1); anything else,
    such as a float image, raises ``ValueError``. The bytes are copied to
    planar order, then cast and divided in the frame's own C-order buffer,
    so a frame makes one float array and one byte-sized temporary, and a run
    that reads frames as it goes keeps its transient heap under the
    allocator's trim point. Bytes / 255 are finite and in [0,1], so neither
    ``Tensor``'s finiteness scan nor ``Frame``'s range scan runs.
    """
    if not (isinstance(image, np.ndarray) and image.dtype == np.uint8
            and image.ndim == 3 and image.shape[2] in (1, 3) and image.size):
        raise ValueError("image must be a non-empty uint8 [H,W,1|3] array, got "
                         f"{np.asarray(image).dtype} {np.shape(image)}")
    if index < 0:
        raise ValueError(f"frame index must be non-negative, got {index}")
    # A strided cast from interleaved bytes is slower than copying the
    # bytes to planar order first and casting them contiguously.
    pixels = np.ascontiguousarray(image.transpose(2, 0, 1)).astype(np.float32)
    pixels /= np.float32(255.0)
    return Frame._trusted(index, Tensor._trusted(pixels))


_FRAME_NUM = re.compile(r"(\d+)")


def list_frame_files(directory) -> list[tuple[int, Path]]:
    """(index, path) pairs for *.ppm/*.pgm files, sorted by filename.

    The index is the trailing number in the stem when present, else the
    1-based position in sorted order. Two files with the same index raise
    ``ValueError`` naming both.
    """
    directory = Path(directory)
    # Names whose ``Path.suffix`` is .ppm or .pgm in any case; in one
    # directory, sorting the names orders their paths the same way.
    with os.scandir(directory) as entries:
        names = sorted(e.name for e in entries
                       if len(e.name) > 4 and e.name[-4:].lower() in (".ppm", ".pgm"))
    if not names:
        raise FileNotFoundError(f"no .ppm/.pgm frames in {directory}")
    by_index: dict[int, Path] = {}
    for n, name in enumerate(names, start=1):
        numbers = _FRAME_NUM.findall(name[:-4])
        index = int(numbers[-1]) if numbers else n
        path = directory / name
        if index in by_index:
            raise ValueError(f"{by_index[index]} and {path} both have frame index {index}")
        by_index[index] = path
    return list(by_index.items())


def read_frames(files: Iterable[tuple[int, Path]]) -> Iterator[Frame]:
    """The frames of ``(index, path)`` pairs, as :func:`list_frame_files`
    gives them, each file read when the frame is asked for.

    Each file goes through :func:`read_ppm`. A raster whose shape and bytes
    equal the previous file's gives a frame with its own index that shares
    the previous frame's pixel ``Tensor``; any other raster goes through
    :func:`frame_from_image`. The pixels are read-only. Between frames the
    reader keeps the previous raster's bytes and its frame's pixels.
    """
    shape = raster = pixels = None  # the previous file's
    for index, path in files:
        image = read_ppm(path)
        data = image.tobytes()
        # ``bytes ==`` stops at the first differing byte; a negative index
        # goes to frame_from_image, which rejects it.
        if image.shape == shape and data == raster and index >= 0:
            frame = Frame._trusted(index, pixels)
        else:
            frame = frame_from_image(index, image)
            frame.pixels.data.flags.writeable = False
        shape, raster, pixels = image.shape, data, frame.pixels
        yield frame


def load_frames(directory) -> list[Frame]:
    """Every frame of ``directory`` in index order, read by :func:`read_frames`,
    so successive frames of equal rasters share their pixels."""
    return list(read_frames(list_frame_files(directory)))


def save_frames(directory, images: list[np.ndarray], start_index: int = 1) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for offset, image in enumerate(images):
        path = directory / f"frame_{start_index + offset:06d}.ppm"
        write_ppm(path, image)
        paths.append(path)
    return paths
