"""PNG codec: byte-stable writes, reads of exactly what it writes, typed
rejections of everything else."""

import struct
import zlib

import numpy as np
import pytest

from ttig import pngio
from ttig.errors import DataError

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag, payload):
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def _png_bytes(px, color=2, depth=8, interlace=0, filters=None, idat=None):
    """Build a PNG by hand. px: (H, W, C) uint8; filters: per-row types."""
    h, w, ch = px.shape
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0, interlace)
    if idat is None:
        filters = filters or [0] * h
        rows = []
        for r in range(h):
            cur = px[r].reshape(-1).astype(np.int64)
            prev = px[r - 1].reshape(-1).astype(np.int64) if r else \
                np.zeros(w * ch, np.int64)
            ftype = filters[r]
            enc = np.empty(w * ch, np.int64)
            for i in range(w * ch):
                a = cur[i - ch] if i >= ch else 0
                b = prev[i]
                c = prev[i - ch] if i >= ch else 0
                if ftype == 0:
                    pred = 0
                elif ftype == 1:
                    pred = a
                elif ftype == 2:
                    pred = b
                elif ftype == 3:
                    pred = (a + b) // 2
                else:
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                enc[i] = (cur[i] - pred) % 256
            rows.append(bytes([ftype]) + enc.astype(np.uint8).tobytes())
        idat = zlib.compress(b"".join(rows))
    return _SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _rand_px(rng, h=5, w=7, ch=3):
    return rng.integers(0, 256, size=(h, w, ch), dtype=np.uint8)


def test_round_trip_uint8(tmp_path):
    px = _rand_px(np.random.default_rng(0))
    path = tmp_path / "a.png"
    pngio.write_png(path, px)
    back = pngio.read_png(path)
    assert back.dtype == np.float32
    assert np.array_equal(pngio.to_uint8(back), px)


def test_round_trip_float(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.random((8, 6, 3)).astype(np.float32)
    path = tmp_path / "f.png"
    pngio.write_png(path, img)
    back = pngio.read_png(path)
    assert np.array_equal(pngio.to_uint8(back), pngio.to_uint8(img))
    assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-6


def test_write_is_byte_deterministic(tmp_path):
    px = _rand_px(np.random.default_rng(2))
    pngio.write_png(tmp_path / "a.png", px)
    pngio.write_png(tmp_path / "b.png", px)
    assert (tmp_path / "a.png").read_bytes() == (tmp_path / "b.png").read_bytes()


def test_to_uint8_values():
    img = np.array([[-0.5, 0.0, 0.498, 1.0, 1.5]], np.float32)
    assert pngio.to_uint8(img).tolist() == [[0, 0, 127, 255, 255]]
    u = np.arange(6, dtype=np.uint8).reshape(2, 3)
    assert pngio.to_uint8(u) is u


def test_write_shape_rejections(tmp_path):
    with pytest.raises(DataError):
        pngio.write_png(tmp_path / "x.png", np.zeros((4, 4), np.uint8))
    with pytest.raises(DataError):
        pngio.write_png(tmp_path / "x.png", np.zeros((4, 4, 4), np.uint8))


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_reader_handles_each_baseline_filter(tmp_path, ftype):
    # the writer's filter 0 reads back; the other baseline filters are data
    # errors naming the file, the first line that uses one, and the filter
    rng = np.random.default_rng(10 + ftype)
    px = _rand_px(rng, h=6, w=4)
    path = tmp_path / "f.png"
    path.write_bytes(_png_bytes(px, filters=[ftype] * 6))
    if ftype == 0:
        assert np.array_equal(pngio.to_uint8(pngio.read_png(path)), px)
        return
    with pytest.raises(DataError) as err:
        pngio.read_png(path)
    assert str(err.value) == (f"{path}: line 0 uses PNG filter {ftype}; "
                              f"only filter 0 is supported")


def test_reader_handles_mixed_filters(tmp_path):
    rng = np.random.default_rng(3)
    px = _rand_px(rng, h=5, w=5)
    path = tmp_path / "m.png"
    path.write_bytes(_png_bytes(px, filters=[0, 0, 2, 0, 4]))
    with pytest.raises(DataError, match="line 2 uses PNG filter 2") as err:
        pngio.read_png(path)
    assert str(path) in str(err.value)


def test_rgba_rejected(tmp_path):
    rng = np.random.default_rng(4)
    px = _rand_px(rng, ch=4)
    path = tmp_path / "rgba.png"
    path.write_bytes(_png_bytes(px, color=6))
    with pytest.raises(DataError, match="only 8-bit non-interlaced RGB supported") as err:
        pngio.read_png(path)
    assert str(path) in str(err.value)


def test_idat_may_be_split_across_chunks(tmp_path):
    px = _rand_px(np.random.default_rng(5))
    whole = _png_bytes(px)
    # split the single IDAT payload into two chunks
    body = whole[8:]
    ln = struct.unpack(">I", body[:4])[0]
    ihdr_chunk, rest = body[:12 + ln], body[12 + ln:]
    ln2 = struct.unpack(">I", rest[:4])[0]
    payload = rest[8:8 + ln2]
    half = len(payload) // 2
    rebuilt = (_SIG + ihdr_chunk + _chunk(b"IDAT", payload[:half])
               + _chunk(b"IDAT", payload[half:]) + _chunk(b"IEND", b""))
    path = tmp_path / "split.png"
    path.write_bytes(rebuilt)
    assert np.array_equal(pngio.to_uint8(pngio.read_png(path)), px)


def test_bad_signature_rejected(tmp_path):
    path = tmp_path / "bad.png"
    path.write_bytes(b"NOTAPNG!" + b"\x00" * 32)
    with pytest.raises(DataError, match="not a PNG"):
        pngio.read_png(path)


def test_truncated_file_rejected(tmp_path):
    px = _rand_px(np.random.default_rng(6))
    whole = _png_bytes(px)
    path = tmp_path / "trunc.png"
    path.write_bytes(whole[:len(whole) - 20])
    with pytest.raises(DataError, match="truncated"):
        pngio.read_png(path)


def test_interlaced_rejected(tmp_path):
    px = _rand_px(np.random.default_rng(7))
    path = tmp_path / "i.png"
    path.write_bytes(_png_bytes(px, interlace=1))
    with pytest.raises(DataError, match="non-interlaced"):
        pngio.read_png(path)


def test_sixteen_bit_rejected(tmp_path):
    px = _rand_px(np.random.default_rng(8))
    path = tmp_path / "d.png"
    path.write_bytes(_png_bytes(px, depth=16))
    with pytest.raises(DataError, match="8-bit"):
        pngio.read_png(path)


def test_grayscale_rejected(tmp_path):
    px = _rand_px(np.random.default_rng(9), ch=1)
    path = tmp_path / "g.png"
    path.write_bytes(_png_bytes(px, color=0))
    with pytest.raises(DataError):
        pngio.read_png(path)


def test_corrupt_idat_rejected(tmp_path):
    px = _rand_px(np.random.default_rng(11))
    path = tmp_path / "z.png"
    path.write_bytes(_png_bytes(px, idat=b"\x00not zlib data"))
    with pytest.raises(DataError):
        pngio.read_png(path)


def test_wrong_pixel_count_rejected(tmp_path):
    px = _rand_px(np.random.default_rng(12))
    h, w, _ = px.shape
    ihdr = struct.pack(">IIBBBBB", w + 1, h, 8, 2, 0, 0, 0)  # lie about width
    rows = b"".join(b"\x00" + px[r].tobytes() for r in range(h))
    blob = (_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", zlib.compress(rows))
            + _chunk(b"IEND", b""))
    path = tmp_path / "w.png"
    path.write_bytes(blob)
    with pytest.raises(DataError, match="wrong length"):
        pngio.read_png(path)


def test_missing_ihdr_rejected(tmp_path):
    path = tmp_path / "no.png"
    path.write_bytes(_SIG + _chunk(b"IEND", b""))
    with pytest.raises(DataError, match="IHDR"):
        pngio.read_png(path)


@pytest.mark.parametrize("ihdr", [
    struct.pack(">I", 5),                                 # 4 bytes
    struct.pack(">IIBBBBB", 5, 5, 8, 2, 0, 0, 0) + b"\x00",  # 14 bytes
], ids=["short", "long"])
def test_ihdr_of_the_wrong_length_rejected(tmp_path, ihdr):
    path = tmp_path / "ihdr.png"
    path.write_bytes(_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IEND", b""))
    with pytest.raises(DataError, match=f"IHDR chunk is {len(ihdr)} bytes") as err:
        pngio.read_png(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("w,h", [(0, 0), (0, 5), (5, 0)])
def test_empty_image_rejected(tmp_path, w, h):
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    rows = b"\x00" * h  # each line's filter byte and no pixels
    path = tmp_path / "empty.png"
    path.write_bytes(_SIG + _chunk(b"IHDR", ihdr)
                     + _chunk(b"IDAT", zlib.compress(rows)) + _chunk(b"IEND", b""))
    with pytest.raises(DataError, match=f"{w}x{h}.*at least 1") as err:
        pngio.read_png(path)
    assert str(path) in str(err.value)


def test_unknown_filter_rejected(tmp_path):
    px = _rand_px(np.random.default_rng(13))
    h, w, _ = px.shape
    rows = b"\x07" + px[0].tobytes() + b"".join(
        b"\x00" + px[r].tobytes() for r in range(1, h))
    path = tmp_path / "filt.png"
    path.write_bytes(_png_bytes(px, idat=zlib.compress(rows)))
    with pytest.raises(DataError, match="filter"):
        pngio.read_png(path)


@pytest.mark.parametrize("case", ["IHDR", "IDAT", "IEND", "no IEND", "after IEND"])
def test_chunk_crcs_and_iend_are_required(tmp_path, case):
    # in a write_png file the IHDR CRC is bytes 29-32, and the 12-byte IEND
    # chunk, whose CRC is the last 4 bytes, follows the IDAT CRC
    pngio.write_png(tmp_path / "a.png", _rand_px(np.random.default_rng(14)))
    blob = bytearray((tmp_path / "a.png").read_bytes())
    if case == "no IEND":
        blob, words = blob[:-12], "no IEND chunk"
    elif case == "after IEND":
        blob, words = blob + b"\0", "1 bytes after the IEND chunk"
    else:
        blob[{"IHDR": 29, "IDAT": -13, "IEND": -1}[case]] ^= 0xFF
        words = f"{case!r} chunk fails its CRC check"
    path = tmp_path / "b.png"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError) as err:
        pngio.read_png(path)
    assert str(err.value) == f"{path}: {words}"


def test_read_png_decodes_given_bytes_like_the_file(tmp_path):
    px = _rand_px(np.random.default_rng(8))
    pngio.write_png(tmp_path / "a.png", px)
    blob = (tmp_path / "a.png").read_bytes()
    np.testing.assert_array_equal(pngio.read_png(tmp_path / "nowhere.png", blob),
                                  pngio.read_png(tmp_path / "a.png"))
