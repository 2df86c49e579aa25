"""Every input fails typed: damaged copies of a format the CLI reads, run
through a command that reads it.

A command given a damaged file must return 0-3, write at most one stderr
line, name the file in that line when it fails, and raise no warning. The
mutations are a fixed list, so a run is reproducible; this covers the PNG
images that eval-fid reads.
"""

import warnings
import zlib

import numpy as np
import pytest

from ttig import checkpoint, cli, contrastive, pngio

SIZE = 16  # pixels a side; the reranker's image_size
REAL, GEN = ["r0.png", "r1.png"], ["g0.png", "g1.png"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A tiny reranker and two directories of write_png images."""
    root = tmp_path_factory.mktemp("mutations")
    enc = contrastive.build_encoder(contrastive.EncoderConfig(
        image_size=SIZE, d_model=16, heads=2, n_blocks=1, d_mlp=32,
        text_vocab=300, text_len=8), seed=0)
    checkpoint.save_encoder(enc, root / "rr")
    rng = np.random.default_rng(0)
    for name, files in (("real", REAL), ("gen", GEN)):
        (root / name).mkdir()
        for f in files:
            pngio.write_png(root / name / f, rng.integers(0, 256, (SIZE, SIZE, 3), np.uint8))
    return root


# byte offsets in a write_png file: the 8-byte signature, the IHDR chunk
# (length 8, tag 12, payload 16: width 16, height 20, depth 24, colour 25,
# compression 26, filter method 27, interlace 28; CRC 29), then the IDAT
# chunk (length 33, tag 37, zlib data from 41), then the 12-byte IEND chunk.
# Negative offsets count from the end of the file.

def _set(offset, value, *more):
    """Set the byte at offset to value, and so on for each further pair."""
    def mutate(blob):
        blob = bytearray(blob)
        pairs = (offset, value, *more)
        for o, v in zip(pairs[::2], pairs[1::2]):
            blob[o] = v
        return bytes(blob)
    return mutate


def _flip(offset):
    def mutate(blob):
        return _set(offset, blob[offset] ^ 0xFF)(blob)
    return mutate


def _cut(n):
    return lambda blob: blob[:n]


def _filter(line, ftype):
    """Re-deflate the image with the given line's filter byte set."""
    def mutate(blob):
        n = int.from_bytes(blob[33:37], "big")
        raw = bytearray(zlib.decompress(blob[41:41 + n]))
        raw[line * (1 + 3 * SIZE)] = ftype
        data = zlib.compress(bytes(raw), 9)
        idat = (len(data).to_bytes(4, "big") + b"IDAT" + data
                + (zlib.crc32(b"IDAT" + data) & 0xFFFFFFFF).to_bytes(4, "big"))
        return blob[:33] + idat + blob[41 + n + 4:]
    return mutate


MUTATIONS = {
    "signature_first": _flip(0), "signature_last": _flip(7),
    "ihdr_length_12": _set(11, 12), "ihdr_length_14": _set(11, 14),
    "ihdr_length_huge": _set(8, 0x7F), "ihdr_tag": _flip(12),
    "width_0": _set(19, 0), "width_15": _set(19, 15), "width_17": _set(19, 17),
    "width_huge": _set(16, 0xFF),
    "height_0": _set(23, 0), "height_15": _set(23, 15), "height_17": _set(23, 17),
    "height_huge": _set(20, 0xFF),
    "depth_1": _set(24, 1), "depth_16": _set(24, 16),
    "colour_grey": _set(25, 0), "colour_palette": _set(25, 3),
    "colour_grey_alpha": _set(25, 4), "colour_rgba": _set(25, 6),
    "compression_1": _set(26, 1), "filter_method_1": _set(27, 1),
    "interlace_1": _set(28, 1),
    "idat_length_0": _set(36, 0), "idat_length_huge": _set(33, 0xFF),
    "idat_tag": _flip(37), "idat_tag_newline_length_huge": _set(37, 0x0A, 33, 0xFF),
    "idat_zlib_cmf": _flip(41), "idat_zlib_flg": _flip(42),
    "idat_data_43": _flip(43), "idat_data_50": _flip(50), "idat_data_60": _flip(60),
    "idat_data_tail": _flip(-30), "idat_adler_first": _flip(-20),
    "idat_adler_last": _flip(-17),
    "line_0_filter_1": _filter(0, 1), "line_5_filter_2": _filter(5, 2),
    "line_9_filter_3": _filter(9, 3), "line_15_filter_4": _filter(15, 4),
    "line_0_filter_5": _filter(0, 5), "line_7_filter_255": _filter(7, 255),
    "cut_0": _cut(0), "cut_7": _cut(7), "cut_8": _cut(8), "cut_12": _cut(12),
    "cut_20": _cut(20), "cut_33": _cut(33), "cut_40": _cut(40), "cut_41": _cut(41),
    "cut_60": _cut(60), "cut_idat_crc": _cut(-16), "cut_iend": _cut(-12),
    "cut_last_byte": _cut(-1),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_eval_fid_of_a_damaged_png_fails_typed(artifacts, tmp_path, capsys, mutation):
    real = tmp_path / "real"
    real.mkdir()
    blob = (artifacts / "real" / REAL[0]).read_bytes()
    damaged = real / REAL[0]
    damaged.write_bytes(MUTATIONS[mutation](blob))
    (real / REAL[1]).write_bytes((artifacts / "real" / REAL[1]).read_bytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(["eval-fid", "--real", str(real), "--gen", str(artifacts / "gen"),
                        "--features", str(artifacts / "rr")])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2, 3)
    assert len(err) <= 1, err
    if code:
        assert len(err) == 1 and str(damaged) in err[0], err
