"""Every input fails typed: damaged copies of a format the CLI reads, run
through a command that reads it.

A command given a damaged file must return 0-3, write at most one stderr
line, name the file in that line when it fails, and raise no warning. The
mutations are a fixed list, so a run is reproducible. They cover the PNG
images that eval-fid reads (damaged, of another size, or one to a
directory), the checkpoint files (manifest.json, weights.bin, vocab.json)
that inspect-checkpoint, sample and rerank read, the sample meta.json and
PNGs that rerank and eval-alignment read, and the prompt TSV that sample
--prompts reads.
"""

import json
import shutil
import warnings
import zlib

import numpy as np
import pytest

from ttig import checkpoint, cli, contrastive, pngio, seq2seq, textproc, vq

SIZE = 16  # pixels a side; the reranker's and the tokenizer's image_size
REAL, GEN = ["r0.png", "r1.png"], ["g0.png", "g1.png"]
CAPTIONS = ["a red circle above a blue square", "a green circle",
            "a blue square next to a red triangle"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Tiny checkpoints (a tokenizer, a model and a reranker, the last two
    with a vocab), two directories of write_png images, and a sample
    directory that rerank reads."""
    root = tmp_path_factory.mktemp("mutations")
    enc = contrastive.build_encoder(contrastive.EncoderConfig(
        image_size=SIZE, d_model=16, heads=2, n_blocks=1, d_mlp=32,
        text_vocab=300, text_len=8), seed=0)
    checkpoint.save_encoder(enc, root / "rr")
    checkpoint.save_tokenizer(vq.build_tokenizer(vq.TokenizerConfig(
        image_size=SIZE, patch=4, d_model=16, heads=2, n_blocks=1, d_mlp=32,
        codebook_size=16), seed=0), root / "tok")
    checkpoint.save_model(seq2seq.build_model(seq2seq.ModelConfig(
        enc_layers=1, dec_layers=1, d_model=16, d_mlp=32, heads=2,
        text_vocab=300, image_vocab=16, text_len=12, grid_h=4, grid_w=4),
        seed=0), root / "model")
    vocab = textproc.train_bpe(CAPTIONS, 300)
    for ck in ("model", "rr"):
        textproc.save_vocab(vocab, root / ck / "vocab.json")
    rng = np.random.default_rng(0)
    for name, files in (("real", REAL), ("gen", GEN)):
        (root / name).mkdir()
        for f in files:
            pngio.write_png(root / name / f, rng.integers(0, 256, (SIZE, SIZE, 3), np.uint8))
    (root / "s").mkdir()
    for f in GEN:
        shutil.copy(root / "gen" / f, root / "s" / f)
    (root / "s" / "meta.json").write_text(json.dumps(
        {"prompt": CAPTIONS[0], "seed": 0, "files": GEN, "grids": [[[0]], [[1]]]}))
    return root


def _fails_typed(argv, damaged, capsys) -> int:
    """Run argv; assert the contract for a command given the damaged file.
    -> its exit code."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(argv)
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2, 3)
    assert len(err) <= 1, err
    if code:
        assert len(err) == 1 and str(damaged) in err[0], err
    return code


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
    "interlace_1": _set(28, 1), "ihdr_crc": _flip(29),
    "idat_length_0": _set(36, 0), "idat_length_huge": _set(33, 0xFF),
    "idat_tag": _flip(37), "idat_tag_newline_length_huge": _set(37, 0x0A, 33, 0xFF),
    "idat_zlib_cmf": _flip(41), "idat_zlib_flg": _flip(42),
    "idat_data_43": _flip(43), "idat_data_50": _flip(50), "idat_data_60": _flip(60),
    "idat_data_tail": _flip(-30), "idat_adler_first": _flip(-20),
    "idat_adler_last": _flip(-17), "idat_crc": _flip(-13), "iend_crc": _flip(-1),
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
    code = _fails_typed(["eval-fid", "--real", str(real), "--gen", str(artifacts / "gen"),
                         "--features", str(artifacts / "rr")], damaged, capsys)
    # each chunk is CRC-checked and IEND is required, so no damage reads
    assert code == 2


# ------------------------------------------------------- checkpoint files
# Each rule maps a file's bytes to damaged bytes. The JSON rules name a leaf
# by its path of keys and indices; the vocab rules work on its lines: line 0
# is the header, one line reads "merges M", and the M merge lines follow it.

JSON_VALUES = {"null": None, "bool": True, "int": 7, "float": 0.5,
               "string": "x", "list": [], "object": {}}
# top-level keys, and the first and last params entries: path -> JSON type
LEAVES = {("format_version",): "int", ("config",): "object", ("params",): "list"}
for _i in (0, -1):
    LEAVES.update({("params", _i): "object", ("params", _i, "name"): "string",
                   ("params", _i, "shape"): "list", ("params", _i, "shape", 0): "int"})


def _edit_json(path, value=None, delete=False):
    def mutate(blob):
        doc = json.loads(blob)
        node = doc
        for key in path[:-1]:
            node = node[key]
        if delete:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return json.dumps(doc, indent=2).encode()
    return mutate


def _insert(offset, byte):
    return lambda blob: blob[:offset] + byte + blob[offset:]


def _half(rule):
    """rule applied at the middle of the file."""
    return lambda blob: rule(len(blob) // 2)(blob)


def _name(path):
    return ".".join(str(k) for k in path)


MANIFEST_RULES = {
    **{f"{_name(p)}_to_{t}": _edit_json(p, v)
       for p, own in LEAVES.items() for t, v in JSON_VALUES.items() if t != own},
    **{f"del_{_name(p)}": _edit_json(p, delete=True)
       for p in LEAVES if isinstance(p[-1], str)},
    "cut_0": _cut(0), "cut_1": _cut(1), "cut_30": _cut(30),
    "cut_half": _half(_cut), "cut_last_byte": _cut(-1),
    "non_utf8_first": _insert(0, b"\xff"), "non_utf8_half": _half(lambda o: _insert(o, b"\xc3")),
}

WEIGHTS_RULES = {
    "cut_0": _cut(0), "cut_4": _cut(4), "cut_half": _half(_cut),
    "cut_4_short": _cut(-4), "cut_1_short": _cut(-1),
    "extend_1": lambda blob: blob + b"\x00", "extend_4": lambda blob: blob + b"\x00" * 4,
}


def _lines(edit):
    """A vocab rule from edit(lines, k), where k is the count line's index."""
    def mutate(blob):
        lines = blob.decode("utf-8").split("\n")[:-1]
        k = next(i for i, ln in enumerate(lines) if ln.startswith("merges "))
        return ("\n".join(edit(lines, k)) + "\n").encode("utf-8")
    return mutate


def _set_line(which, text):
    """Replace line which(k), where k is the count line's index."""
    def edit(lines, k):
        lines[which(k)] = text(lines[which(k)])
        return lines
    return _lines(edit)


def _count(delta):
    return _set_line(lambda k: k, lambda ln: f"merges {int(ln.split()[1]) + delta}")


VOCAB_RULES = {
    "header_v0": _set_line(lambda k: 0, lambda ln: "bpe v0"),
    "header_v9": _set_line(lambda k: 0, lambda ln: "bpe v9"),
    "header_empty": _set_line(lambda k: 0, lambda ln: ""),
    "header_deleted": _lines(lambda lines, k: lines[1:]),
    "count_plus_1": _count(1), "count_minus_1": _count(-1),
    "count_negative": _set_line(lambda k: k, lambda ln: "merges -1"),
    "count_not_a_number": _set_line(lambda k: k, lambda ln: "merges x"),
    "count_word": _set_line(lambda k: k, lambda ln: "mergez" + ln[6:]),
    "count_deleted": _lines(lambda lines, k: lines[:k] + lines[k + 1:]),
    "first_merge_deleted": _lines(lambda lines, k: lines[:k + 1] + lines[k + 2:]),
    "last_merge_deleted": _lines(
        lambda lines, k: lines[:k + 1 + int(lines[k].split()[1]) - 1]
        + lines[k + 1 + int(lines[k].split()[1]):]),
    "first_merge_duplicated": _lines(lambda lines, k: lines[:k + 2] + lines[k + 1:]),
    "merge_odd_hex": _set_line(lambda k: k + 1, lambda ln: ln[1:]),
    "merge_not_hex": _set_line(lambda k: k + 1, lambda ln: "zz " + ln.split()[1]),
    "merge_one_field": _set_line(lambda k: k + 1, lambda ln: ln.split()[0]),
    "merge_three_fields": _set_line(lambda k: k + 1, lambda ln: ln + " 61"),
    "cut_0": _cut(0), "cut_3": _cut(3), "cut_half": _half(_cut),
    "cut_last_byte": _cut(-1), "cut_2_short": _cut(-2),
    "non_utf8_first": _insert(0, b"\xff"), "non_utf8_half": _half(lambda o: _insert(o, b"\xc3")),
}

# the checkpoint directory a rule damages, and the command that reads it
READERS = {"manifest.json": [("model", "inspect"), ("model", "sample"), ("rr", "rerank")],
           "weights.bin": [("model", "inspect"), ("model", "sample"), ("rr", "rerank")],
           "vocab.json": [("model", "sample"), ("rr", "rerank")]}
RULES = {"manifest.json": MANIFEST_RULES, "weights.bin": WEIGHTS_RULES,
         "vocab.json": VOCAB_RULES}
CASES = [(f, ck, cmd, rule) for f, readers in READERS.items()
         for ck, cmd in readers for rule in sorted(RULES[f])]


def _argv(cmd, ck, root, tmp_path):
    return {"inspect": ["inspect-checkpoint", "--dir", str(ck)],
            "sample": ["sample", "--model", str(ck), "--tokenizer", str(root / "tok"),
                       "--prompt", CAPTIONS[0], "--n-samples", "1",
                       "--out", str(tmp_path / "out")],
            "rerank": ["rerank", "--dir", str(root / "s"), "--reranker", str(ck),
                       "--out", str(tmp_path / "out")]}[cmd]


@pytest.mark.parametrize("file,ck,cmd,rule", CASES,
                         ids=[f"{cmd}-{f}-{rule}" for f, ck, cmd, rule in CASES])
def test_a_command_given_a_damaged_checkpoint_file_fails_typed(
        artifacts, tmp_path, capsys, file, ck, cmd, rule):
    work = tmp_path / ck
    shutil.copytree(artifacts / ck, work)
    damaged = work / file
    damaged.write_bytes(RULES[file][rule](damaged.read_bytes()))
    code = _fails_typed(_argv(cmd, work, artifacts, tmp_path), damaged, capsys)
    # save_vocab ends its last line with a newline too, so a file without
    # one is not a saved vocab
    if (file, rule) == ("vocab.json", "cut_last_byte"):
        assert code == 2


# ------------------------------------------------------- sample meta.json
# the keys rerank reads (eval-alignment reads all but grids): path -> JSON type
META_LEAVES = {("prompt",): "string", ("seed",): "int", ("files",): "list",
               ("files", 0): "string", ("files", -1): "string", ("grids",): "list",
               ("grids", 0): "list", ("grids", -1, 0): "list", ("grids", 0, 0, 0): "int"}

META_RULES = {
    **{f"{_name(p)}_to_{t}": _edit_json(p, v)
       for p, own in META_LEAVES.items() for t, v in JSON_VALUES.items() if t != own},
    **{f"del_{_name(p)}": _edit_json(p, delete=True) for p in META_LEAVES},
    "prompt_empty": _edit_json(("prompt",), ""),
    "prompt_off_grammar": _edit_json(("prompt",), "a purple hexagon"),
    "seed_negative": _edit_json(("seed",), -1),
    "seed_huge": _edit_json(("seed",), 2 ** 70),
    "files_empty": _edit_json(("files",), []),
    "file_missing": _edit_json(("files", 0), "missing.png"),
    "file_empty_name": _edit_json(("files", 0), ""),
    "file_parent_dir": _edit_json(("files", 0), ".."),
    "file_is_meta": _edit_json(("files", 0), "meta.json"),
    "grids_ragged": _edit_json(("grids", 0), [[0, 1]]),
    "cut_0": _cut(0), "cut_half": _half(_cut), "cut_last_byte": _cut(-1),
    "non_utf8_first": _insert(0, b"\xff"),
}
META_CASES = [(cmd, rule) for cmd in ("rerank", "eval-alignment") for rule in sorted(META_RULES)]


@pytest.mark.parametrize("cmd,rule", META_CASES, ids=[f"{c}-{r}" for c, r in META_CASES])
def test_a_command_given_a_damaged_sample_meta_fails_typed(artifacts, tmp_path, capsys,
                                                          cmd, rule):
    work = tmp_path / "s"
    shutil.copytree(artifacts / "s", work)
    damaged = work / "meta.json"
    damaged.write_bytes(META_RULES[rule](damaged.read_bytes()))
    argv = {"rerank": ["rerank", "--dir", str(work), "--reranker", str(artifacts / "rr"),
                       "--out", str(tmp_path / "out")],
            "eval-alignment": ["eval-alignment", "--dir", str(work)]}[cmd]
    _fails_typed(argv, damaged, capsys)


# sample PNGs written at another size, (width, height): the reranker takes
# SIZE x SIZE images, and so does eval-fid, whose features it computes; the
# oracle takes square ones whose side is even. eval-fid reads the sample
# directory's PNGs as one of its two image sets
SAMPLE_SIZES = {"15x15": (15, 15), "17x17": (17, 17), "8x8": (8, 8), "18x18": (18, 18),
                "8x16": (8, 16), "16x8": (16, 8)}
SIZE_CASES = [(cmd, size) for cmd in ("rerank", "eval-alignment", "eval-fid-real", "eval-fid-gen")
              for size in SAMPLE_SIZES]


def _eval_fid(artifacts, flag, work):
    """eval-fid's argv, with work as the image directory of flag."""
    dirs = {"--real": artifacts / "real", "--gen": artifacts / "gen", flag: work}
    return ["eval-fid", *(a for f, d in dirs.items() for a in (f, str(d))),
            "--features", str(artifacts / "rr")]


@pytest.mark.parametrize("cmd,size", SIZE_CASES, ids=[f"{c}-{s}" for c, s in SIZE_CASES])
def test_a_command_given_sample_pngs_of_another_size_fails_typed(artifacts, tmp_path, capsys,
                                                                cmd, size):
    work = tmp_path / "s"
    shutil.copytree(artifacts / "s", work)
    w, h = SAMPLE_SIZES[size]
    rng = np.random.default_rng(1)
    for f in GEN:  # all of one size, so the first file is the one named
        pngio.write_png(work / f, rng.integers(0, 256, (h, w, 3), np.uint8))
    argv = {"rerank": ["rerank", "--dir", str(work), "--reranker", str(artifacts / "rr"),
                       "--out", str(tmp_path / "out")],
            "eval-alignment": ["eval-alignment", "--dir", str(work)],
            "eval-fid-real": _eval_fid(artifacts, "--real", work),
            "eval-fid-gen": _eval_fid(artifacts, "--gen", work)}[cmd]
    code = _fails_typed(argv, work / GEN[0], capsys)
    assert code == (0 if cmd == "eval-alignment" and w == h and w % 2 == 0 else 2)


@pytest.mark.parametrize("flag", ["--real", "--gen"], ids=["real", "gen"])
def test_eval_fid_given_a_directory_of_one_png_fails_typed(artifacts, tmp_path, capsys, flag):
    work = tmp_path / "one"
    work.mkdir()
    shutil.copy(artifacts / "real" / REAL[0], work / REAL[0])
    assert _fails_typed(_eval_fid(artifacts, flag, work), work, capsys) == 2


# ------------------------------------------------------- prompt TSV
PROMPTS = ("Prompt\tCategory\tChallenge\n"
           f"{CAPTIONS[0]}\tAbstract\tBasic\n"
           f"{CAPTIONS[1]}\tArts\tSimple Detail\n")


def _lines_of(edit):
    """A TSV rule from edit(lines)."""
    def mutate(blob):
        return ("\n".join(edit(blob.decode("utf-8").split("\n")[:-1])) + "\n").encode("utf-8")
    return mutate


def _row(i, edit):
    """Replace line i of the TSV (0 is the header) by edit(line)."""
    return _lines_of(lambda lines: lines[:i] + [edit(lines[i])] + lines[i + 1:])


PROMPT_RULES = {
    "header_deleted": _lines_of(lambda lines: lines[1:]),
    "header_lowercase": _row(0, str.lower),
    "header_bom": _row(0, lambda ln: "\ufeff" + ln),
    "row_blank_between": _lines_of(lambda lines: lines[:2] + [""] + lines[2:]),
    "row_tab_to_space": _row(1, lambda ln: ln.replace("\t", " ")),
    "row_fourth_column": _row(1, lambda ln: ln + "\tx"),
    "row_two_columns": _row(1, lambda ln: ln.rsplit("\t", 1)[0]),
    "row_prompt_empty": _row(1, lambda ln: ln[ln.index("\t"):]),
    "row_prompt_spaces": _row(1, lambda ln: "   " + ln[ln.index("\t"):]),
    "row_prompt_off_grammar": _row(1, lambda ln: "a cat" + ln[ln.index("\t"):]),
    "row_prompt_long": _row(1, lambda ln: "a red circle " * 80 + ln[ln.index("\t"):]),
    "row_prompt_nul": _row(1, lambda ln: "a\x00" + ln),
    "row_prompt_non_ascii": _row(1, lambda ln: "a r\u00e9d circle \u2603" + ln[ln.index("\t"):]),
    "row_category_unknown": _row(1, lambda ln: ln.replace("Abstract", "Nope")),
    "row_category_lowercase": _row(1, lambda ln: ln.replace("Abstract", "abstract")),
    "row_challenge_unknown": _row(2, lambda ln: ln.replace("Simple Detail", "Hard")),
    "crlf": lambda blob: blob.replace(b"\n", b"\r\n"),
    "cut_0": _cut(0), "cut_half": _half(_cut), "cut_last_byte": _cut(-1),
    "non_utf8_first": _insert(0, b"\xff"), "non_utf8_half": _half(lambda o: _insert(o, b"\xc3")),
}


@pytest.mark.parametrize("rule", sorted(PROMPT_RULES))
def test_sample_given_a_damaged_prompt_list_fails_typed(artifacts, tmp_path, capsys, rule):
    damaged = tmp_path / "prompts.tsv"
    damaged.write_bytes(PROMPT_RULES[rule](PROMPTS.encode("utf-8")))
    _fails_typed(["sample", "--model", str(artifacts / "model"),
                  "--tokenizer", str(artifacts / "tok"), "--prompts", str(damaged),
                  "--n-samples", "1", "--out", str(tmp_path / "out")], damaged, capsys)
