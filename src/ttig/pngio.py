"""Minimal deterministic PNG codec for 8-bit RGB images.

Writes non-interlaced RGB with filter type 0 on every scanline and a fixed
zlib level, so the same pixels always produce the same bytes. The reader
accepts only what the writer emits: 8-bit non-interlaced RGB with filter 0
on every line (the image data may span several IDAT chunks), every chunk's
CRC intact, and an IEND chunk that ends the file. Anything else (another
filter, RGBA, grey, a palette, 16 bits, interlacing, a bad CRC, no IEND,
bytes after it) is a data error naming the file, not a half-supported path.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import DataError

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def to_uint8(img: np.ndarray) -> np.ndarray:
    """Float [0,1] (or uint8 passthrough) -> uint8, clipping out-of-range."""
    img = np.asarray(img)
    if img.dtype == np.uint8:
        return img
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def write_png(path, img: np.ndarray):
    """img: (H, W, 3) float in [0,1] or uint8."""
    arr = to_uint8(img)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DataError(f"write_png needs (H, W, 3), got {arr.shape}")
    h, w, _ = arr.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit RGB
    raw = b"".join(b"\x00" + arr[r].tobytes() for r in range(h))
    data = zlib.compress(raw, 9)
    with open(path, "wb") as f:
        f.write(_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", data)
                + _chunk(b"IEND", b""))


def _unfilter(path, raw: bytes, h: int, w: int) -> np.ndarray:
    """(h, w * 3) pixel bytes: the inflated lines without their filter byte,
    which must be 0 on every line, as the writer's are."""
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + w * 3)
    if lines[:, 0].any():
        r = int(np.flatnonzero(lines[:, 0])[0])
        raise DataError(f"{path}: line {r} uses PNG filter {lines[r, 0]}; "
                        f"only filter 0 is supported")
    return lines[:, 1:]


def read_png(path, blob: bytes | None = None) -> np.ndarray:
    """-> (H, W, 3) float32 in [0,1]. blob: the file's bytes, when the
    caller has read them already."""
    if blob is None:
        with open(path, "rb") as f:
            blob = f.read()
    if blob[:8] != _SIG:
        raise DataError(f"{path}: not a PNG file")
    pos = 8
    ihdr = None
    idat = b""
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise DataError(f"{path}: truncated chunk header")
        length, tag = struct.unpack(">I4s", blob[pos:pos + 8])
        end = pos + 8 + length
        payload, crc = blob[pos + 8:end], blob[end:end + 4]
        if len(payload) != length or len(crc) != 4:
            raise DataError(f"{path}: truncated {tag.decode('latin1')!r} chunk")
        if int.from_bytes(crc, "big") != zlib.crc32(blob[pos + 4:end]):
            raise DataError(f"{path}: {tag.decode('latin1')!r} chunk fails its CRC check")
        pos = end + 4
        if tag == b"IHDR":
            if length != 13:
                raise DataError(f"{path}: IHDR chunk is {length} bytes, not 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    else:
        raise DataError(f"{path}: no IEND chunk")
    if pos != len(blob):
        raise DataError(f"{path}: {len(blob) - pos} bytes after the IEND chunk")
    if ihdr is None:
        raise DataError(f"{path}: missing IHDR")
    w, h, depth, color, comp, filt, interlace = ihdr
    if w < 1 or h < 1:
        raise DataError(f"{path}: image is {w}x{h}; PNG needs width and height "
                        f"of at least 1")
    if depth != 8 or color != 2 or comp or filt or interlace:
        raise DataError(f"{path}: only 8-bit non-interlaced RGB supported")
    try:
        raw = zlib.decompress(idat)
    except zlib.error as e:
        raise DataError(f"{path}: corrupt image data: {e}") from None
    if len(raw) != h * (1 + w * 3):
        raise DataError(f"{path}: pixel data has wrong length")
    px = _unfilter(path, raw, h, w).reshape(h, w, 3)
    return px.astype(np.float32) / 255.0
