"""Minimal deterministic PNG codec for 8-bit RGB images.

Writes non-interlaced RGB with filter type 0 on every scanline and a fixed
zlib level, so the same pixels always produce the same bytes. The reader
accepts only what the writer emits plus per-line filters 0-4 (the full
baseline set), 8-bit RGB or RGBA, non-interlaced; anything else is a data
error rather than a half-supported path.
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


def _unfilter(raw: bytes, h: int, w: int, channels: int) -> np.ndarray:
    """(h, w * channels) pixel bytes; lines that all use filter 0, as the
    writer's do, are the inflated bytes without the filter column."""
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + w * channels)
    if not lines[:, 0].any():
        return lines[:, 1:]
    return _unfilter_lines(raw, h, w, channels)


def _unfilter_lines(raw: bytes, h: int, w: int, channels: int) -> np.ndarray:
    stride = w * channels
    out = np.zeros((h, stride), dtype=np.uint8)
    pos = 0
    for r in range(h):
        ftype = raw[pos]
        pos += 1
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=pos).copy()
        pos += stride
        prev = out[r - 1] if r else np.zeros(stride, dtype=np.uint8)
        if ftype == 0:
            out[r] = line
        elif ftype == 2:  # up
            out[r] = line + prev
        elif ftype in (1, 3, 4):
            cur = out[r]
            for i in range(stride):
                a = int(cur[i - channels]) if i >= channels else 0
                b = int(prev[i])
                if ftype == 1:
                    pred = a
                elif ftype == 3:
                    pred = (a + b) // 2
                else:
                    c = int(prev[i - channels]) if i >= channels else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                cur[i] = (int(line[i]) + pred) & 0xFF
        else:
            raise DataError(f"unsupported PNG filter {ftype}")
    return out


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
        payload = blob[pos + 8:pos + 8 + length]
        if len(payload) != length:
            raise DataError(f"{path}: truncated {tag.decode('latin1')} chunk")
        pos += 12 + length
        if tag == b"IHDR":
            if length != 13:
                raise DataError(f"{path}: IHDR chunk is {length} bytes, not 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if ihdr is None:
        raise DataError(f"{path}: missing IHDR")
    w, h, depth, color, comp, filt, interlace = ihdr
    if w < 1 or h < 1:
        raise DataError(f"{path}: image is {w}x{h}; PNG needs width and height "
                        f"of at least 1")
    if depth != 8 or color not in (2, 6) or comp or filt or interlace:
        raise DataError(f"{path}: only 8-bit non-interlaced RGB/RGBA supported")
    channels = 3 if color == 2 else 4
    try:
        raw = zlib.decompress(idat)
    except zlib.error as e:
        raise DataError(f"{path}: corrupt image data: {e}") from None
    if len(raw) != h * (1 + w * channels):
        raise DataError(f"{path}: pixel data has wrong length")
    px = _unfilter(raw, h, w, channels).reshape(h, w, channels)[:, :, :3]
    return px.astype(np.float32) / 255.0
