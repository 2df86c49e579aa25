"""Command-line surface: fast subcommands, config validation, exit codes, and
the README and format docs that show them."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from ttig import (checkpoint, cli, contrastive, metrics, pngio, sampling, scenes,
                  seq2seq, textproc, vq)

ROOT = Path(__file__).resolve().parents[1]


def _cfg(tmp_path, body):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body))
    return str(path)


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


TINY_DATA = {"data": {"n_train": 8, "n_eval": 4, "image_size": 16, "seed": 0}}


def _one_usage_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("usage error: ")


def test_no_arguments_is_a_usage_error(capsys):
    assert cli.run([]) == 1
    assert _one_usage_error_line(capsys)


def test_unknown_command_is_a_usage_error(capsys):
    assert cli.run(["frobnicate"]) == 1
    assert _one_usage_error_line(capsys)


def test_missing_required_flag_is_a_usage_error(capsys):
    assert cli.run(["make-data"]) == 1
    assert _one_usage_error_line(capsys)


def test_make_data_writes_images_and_manifest(tmp_path, capsys):
    cfg = _cfg(tmp_path, TINY_DATA)
    out = tmp_path / "data"
    assert cli.run(["make-data", "--config", cfg, "--out", str(out)]) == 0
    rec = _last_json(capsys)
    assert rec["metric"] == "dataset_size" and rec["value"] == 8
    pngs = sorted((out / "images").glob("*.png"))
    assert len(pngs) == 8
    captions = (out / "captions.txt").read_text().splitlines()
    assert len(captions) == 8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["split"] == "train"
    img = pngio.read_png(pngs[0])
    assert img.shape == (16, 16, 3)


def test_make_data_is_reproducible(tmp_path, capsys):
    cfg = _cfg(tmp_path, TINY_DATA)
    for name in ("a", "b"):
        assert cli.run(["make-data", "--config", cfg,
                        "--out", str(tmp_path / name)]) == 0
    for p in sorted((tmp_path / "a" / "images").glob("*.png")):
        q = tmp_path / "b" / "images" / p.name
        assert p.read_bytes() == q.read_bytes()
    assert (tmp_path / "a" / "captions.txt").read_text() == \
           (tmp_path / "b" / "captions.txt").read_text()


def test_make_data_eval_split_differs(tmp_path, capsys):
    cfg = _cfg(tmp_path, TINY_DATA)
    cli.run(["make-data", "--config", cfg, "--out", str(tmp_path / "tr")])
    cli.run(["make-data", "--config", cfg, "--split", "eval",
             "--out", str(tmp_path / "ev")])
    tr = set((tmp_path / "tr" / "captions.txt").read_text().splitlines())
    ev = set((tmp_path / "ev" / "captions.txt").read_text().splitlines())
    assert not tr & ev


def test_make_data_with_no_scenes_is_a_data_error(tmp_path, capsys):
    for split, key in (("train", "n_train"), ("eval", "n_eval")):
        empty = {"data": {**TINY_DATA["data"], key: 0}}
        assert cli.run(["make-data", "--config", _cfg(tmp_path, empty),
                        "--split", split, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["data error: data.n_train must be at least 1, got 0",
                   "data error: data.n_eval must be at least 1, got 0"]
    assert not (tmp_path / "d").exists()


# scenes sit on a 2x2 grid of cells, so no other size holds one
@pytest.mark.parametrize("size", [-2, 0, 3])
def test_make_data_of_an_image_size_no_scene_fits_is_a_data_error(tmp_path, capsys, size):
    cfg = _cfg(tmp_path, {"data": {**TINY_DATA["data"], "image_size": size}})
    assert cli.run(["make-data", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: data.image_size must be a positive multiple of 2, "
                   f"got {size}"]
    assert not (tmp_path / "d").exists()


# command -> its config section
_TRAINING = {"train-tokenizer": "tokenizer", "train-model": "model",
             "train-reranker": "reranker"}


@pytest.mark.parametrize("steps", [0, -1])
@pytest.mark.parametrize("cmd", sorted(_TRAINING))
def test_training_with_fewer_than_one_step_is_a_data_error(tmp_path, capsys, cmd, steps):
    section = _TRAINING[cmd]
    extra = ["--tokenizer", str(_tiny_checkpoints(tmp_path)[1])] if cmd == "train-model" else []
    data = {"data": {**TINY_DATA["data"], "n_train": 32}}  # one reranker batch
    cfg = _cfg(tmp_path, {**data, section: {"steps": steps}})
    assert cli.run([cmd, "--config", cfg, *extra, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: {section}.steps must be at least 1, got {steps}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patch", [0, -4])
@pytest.mark.parametrize("cmd", ["train-tokenizer", "train-reranker"])
def test_training_with_a_patch_below_1_is_a_data_error(tmp_path, capsys, cmd, patch):
    section = _TRAINING[cmd]
    data = {"data": {**TINY_DATA["data"], "n_train": 32}}  # one reranker batch
    cfg = _cfg(tmp_path, {**data, section: {"patch": patch, "steps": 1}})
    assert cli.run([cmd, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: {section}.patch must be a positive divisor of "
                   f"image_size 16, got {patch}"]
    assert not (tmp_path / "out").exists()


# in range, but not a divisor: image_size is 16 and d_model 64
@pytest.mark.parametrize("key,value,message", [
    ("patch", 5, "patch must be a positive divisor of image_size 16, got 5"),
    ("heads", 3, "heads 3 must divide d_model 64")])
@pytest.mark.parametrize("cmd", ["train-tokenizer", "train-reranker"])
def test_training_with_a_size_that_does_not_divide_is_a_data_error(tmp_path, capsys, cmd,
                                                                  key, value, message):
    section = _TRAINING[cmd]
    cfg = _cfg(tmp_path, {**TINY_DATA, section: {key: value, "steps": 1}})
    assert cli.run([cmd, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {section}.{message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,value", [
    ("model", "heads", 0), ("tokenizer", "heads", 0), ("reranker", "heads", 0),
    ("reranker", "d_model", 0), ("tokenizer", "d_code", 0), ("tokenizer", "d_code", -1),
    ("tokenizer", "d_mlp", 0), ("reranker", "d_mlp", 0), ("reranker", "d_e", 0),
    ("tokenizer", "codebook_size", 0), ("model", "batch", 0), ("model", "batch", -1),
    ("tokenizer", "batch", 0), ("tokenizer", "batch", -1)])
def test_training_with_a_size_below_1_is_a_data_error_naming_the_key(tmp_path, capsys,
                                                                     section, key, value):
    cmd = next(c for c, sec in _TRAINING.items() if sec == section)
    extra = ["--tokenizer", str(_tiny_checkpoints(tmp_path)[1])] if cmd == "train-model" else []
    data = {"data": {**TINY_DATA["data"], "n_train": 32}}  # one reranker batch
    cfg = _cfg(tmp_path, {**data, section: {key: value, "steps": 1}})
    assert cli.run([cmd, "--config", cfg, *extra, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: {section}.{key} must be at least 1, got {value}"]
    assert not (tmp_path / "out").exists()


def test_every_config_field_declares_its_range():
    # a field with no declared range, derived ones included, is a setting
    # nothing checks
    classes = [cls for group in cli._CONFIGS.values() for cls in group]
    missing = [f"{cls.__name__}.{f.name}" for cls in classes
               for f in dataclasses.fields(cls) if "range" not in f.metadata]
    assert not missing, missing


def _out_of_range():
    """(section, key, value) for every config key: one value below its range,
    one above it if it has an upper bound, and NaN and both infinities if it
    is a float key."""
    cases = []
    for section, classes in cli._CONFIGS.items():
        for f in (f for cls in classes for f in dataclasses.fields(cls)):
            if f.name not in cli._SCHEMA[section]:
                continue  # derived: set by the command, not by a key
            low, high = f.metadata["range"]
            values = [low - 1] + ([high + 1] if high < float("inf") else [])
            if f.type == "float":
                values += [float("nan"), float("inf"), -float("inf")]
            cases += [(section, f.name, v) for v in values]
    return cases


# config section -> the command that builds its configs, less --config and --out;
# None stands for the tokenizer checkpoint
_READER = {"data": ["make-data"], "tokenizer": ["train-tokenizer"],
           "model": ["train-model", "--tokenizer", None],
           "sampler": ["sample", "--model", "m", "--tokenizer", "t", "--prompt", "a red circle"],
           "reranker": ["train-reranker"]}


@pytest.fixture(scope="module")
def tiny_tokenizer(tmp_path_factory):
    return str(_tiny_checkpoints(tmp_path_factory.mktemp("ck"))[1])


def _reader_argv(tmp_path, section, tokenizer, **values):
    """The reader of section with a config of tiny data, one training step
    and values, so a value that slips through fails fast."""
    body = {"data": dict(TINY_DATA["data"])}
    body.setdefault(section, {"steps": 1} if section in _TRAINING.values() else {})
    body[section].update(values)
    return [tokenizer if a is None else a for a in _READER[section]] + [
        "--config", _cfg(tmp_path, body), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("section,key,value", _out_of_range())
def test_config_value_out_of_range_fails_while_the_config_is_built(
        tmp_path, capsys, tiny_tokenizer, section, key, value):
    assert cli.run(_reader_argv(tmp_path, section, tiny_tokenizer, **{key: value})) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {section}.{key} "), err
    assert not (tmp_path / "out").exists()


# a flag sets the same config field as its key, so the same range holds
@pytest.mark.parametrize("section,key,flag,value", [
    ("sampler", "seed", "--seed", "-1"), ("sampler", "guidance", "--lambda", "nan"),
    ("sampler", "n_samples", "--n-samples", "0")])
def test_flag_value_out_of_range_is_a_data_error(tmp_path, capsys, tiny_tokenizer,
                                                 section, key, flag, value):
    assert cli.run([*_reader_argv(tmp_path, section, tiny_tokenizer), flag, value]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {section}.{key} "), err
    assert not (tmp_path / "out").exists()


# inside its range, but guidance times a logit difference overflows float32:
# one line naming the setting, and no numpy warning, which pytest makes an error
def test_sample_whose_guidance_overflows_float32_is_one_numeric_error_line(tmp_path, capsys):
    model, tok = _tiny_checkpoints(tmp_path)
    cfg = _cfg(tmp_path, {"sampler": {"n_samples": 2}})
    assert cli.run(["sample", "--config", cfg, "--model", str(model), "--tokenizer", str(tok),
                    "--prompt", "a red circle", "--lambda", "1e300",
                    "--out", str(tmp_path / "s")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numeric error: sampling: a logit row has no finite entries at sampler.guidance 1e+300"]


def test_unknown_config_section_rejected(tmp_path, capsys):
    # each trainer states its own schedule, so there is no optimizer section
    for section in ("dta", "sim", "optimizer"):
        cfg = _cfg(tmp_path, {section: {}})
        assert cli.run(["make-data", "--config", cfg,
                        "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"unknown config section {section!r}" in err[0]


# the pretraining keys were removed with the masked-text pretraining,
# data_init with its off switch (the codebook always starts from data), the
# decoder's own width and depth with the wider decoder, and the caption
# holdout, the learning rates, the commitment weight, tau's start and floor
# and the sampler's temperature became the one value every caller used
@pytest.mark.parametrize("section,key", [("data", "n_trian"),
                                         ("model", "pretrain_steps"),
                                         ("model", "pretrain_mask_rate"),
                                         ("tokenizer", "data_init"),
                                         ("tokenizer", "dec_d_model"),
                                         ("tokenizer", "dec_blocks"),
                                         ("data", "holdout_frac"),
                                         ("data", "holdout_seed"),
                                         ("tokenizer", "lr"),
                                         ("tokenizer", "beta_commit"),
                                         ("reranker", "lr"),
                                         ("reranker", "tau_init"),
                                         ("reranker", "tau_min"),
                                         ("sampler", "temperature")])
def test_unknown_config_key_rejected(tmp_path, capsys, section, key):
    cfg = _cfg(tmp_path, {section: {key: 8}})
    assert cli.run(["make-data", "--config", cfg,
                    "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{section}.{key}" in err[0]
    assert "unknown config field" in err[0]  # tmp_path holds "unknown" too
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("section,key,value", [
    ("data", "n_train", "8"),
    ("model", "steps", 1.5),
    ("reranker", "warmup", True),
    ("tokenizer", "codebook_size", False),
    ("model", "cond_dropout_rate", "x"),
])
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, section, key,
                                             value):
    cfg = _cfg(tmp_path, {section: {key: value}})
    assert cli.run(["make-data", "--config", cfg,
                    "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{section}.{key}" in err[0]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("section,key,value", [
    ("tokenizer", "image_size", 32),  # data.image_size
    ("reranker", "image_size", 32),
    ("model", "image_vocab", 64),     # the tokenizer's codebook_size
    ("model", "grid_h", 8),           # the tokenizer's grid
    ("model", "grid_w", 8),
    ("model", "log_every", 200),      # train-model passes no hooks
])
def test_config_key_set_from_elsewhere_rejected(tmp_path, capsys, section, key,
                                                value):
    cfg = _cfg(tmp_path, {section: {key: value}})
    assert cli.run(["make-data", "--config", cfg,
                    "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{section}.{key}" in err[0]


@pytest.mark.parametrize("argv", [
    ["rerank", "--dir", "s", "--reranker", "rr", "--config", "c.json"],
    ["rerank", "--dir", "s", "--reranker", "rr", "--seed", "1"],
    ["eval-alignment", "--dir", "s", "--config", "c.json"],
    ["eval-alignment", "--dir", "s", "--seed", "1"],
    ["inspect-checkpoint", "--dir", "ck", "--config", "c.json"],
    ["inspect-checkpoint", "--dir", "ck", "--seed", "1"],
    ["eval-fid", "--real", "a", "--gen", "b", "--features", "rr",
     "--config", "c.json"],
    # FID draws nothing at random
    ["eval-fid", "--real", "a", "--gen", "b", "--features", "rr",
     "--seed", "1"],
    ["retrieve", "--reranker", "rr", "--caption", "a red circle",
     "--seed", "1"],
    # the saved index and its flags were removed: retrieve always builds
    ["retrieve", "--reranker", "rr", "--caption", "a red circle",
     "--index", "idx"],
    ["retrieve", "--reranker", "rr", "--caption", "a red circle",
     "--index-out", "idx"],
    ["retrieve", "--reranker", "rr", "--caption", "a red circle",
     "--exclude-query"],
    # flags that repeated a config key, which stays (data.seed, data.n_train
    # and n_eval, each trainer's steps and seed, the sampler's top_k), the
    # temperature, which is no setting now, and --full: inspect-checkpoint
    # lists every parameter. The config and the checkpoint do not exist, so
    # a command that still took the flag would exit 2, not 1.
    *([cmd, "--config", "no.json", "--out", "out", *extra, flag, "1"]
      for cmd, extra, flags in (("make-data", [], ("--seed", "--n")),
                                ("train-tokenizer", [], ("--steps", "--seed")),
                                ("train-model", ["--tokenizer", "tok"], ("--steps", "--seed")),
                                ("train-reranker", [], ("--steps", "--seed")),
                                ("sample", ["--model", "m", "--tokenizer", "t",
                                            "--prompt", "a red circle"],
                                 ("--top-k", "--temperature")))
      for flag in flags),
    ["inspect-checkpoint", "--dir", "no_ck", "--full"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv
                             if a.startswith("--") or a == argv[0]))
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    assert cli.run(argv) == 1
    assert _one_usage_error_line(capsys)


def test_malformed_config_json_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for body in (b"{oops", b'{"data": {"seed": "\xff"}}'):  # bad JSON, bad UTF-8
        path.write_bytes(body)
        assert cli.run(["make-data", "--config", str(path),
                        "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0], err


def test_missing_config_file_rejected(tmp_path, capsys):
    assert cli.run(["make-data", "--config", str(tmp_path / "none.json"),
                    "--out", str(tmp_path / "d")]) == 2


def test_inspect_checkpoint(tmp_path, capsys):
    state = {"layer.w": np.arange(24, dtype=np.float32).reshape(4, 6),
             "layer.b": np.zeros(6, np.float32)}
    checkpoint.save_checkpoint(state, {"kind": "demo"}, tmp_path / "ck")
    assert cli.run(["inspect-checkpoint", "--dir", str(tmp_path / "ck")]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["kind"] == "demo"
    assert rec["n_params"] == 30
    names = {p["name"]: p for p in rec["params"]}
    assert names["layer.w"]["shape"] == [4, 6]


def test_inspect_checkpoint_lists_every_parameter(tmp_path, capsys):
    state = {f"p{i:02d}": np.zeros(i + 1, np.float32) for i in range(20)}
    checkpoint.save_checkpoint(state, {"kind": "demo"}, tmp_path / "ck")
    assert cli.run(["inspect-checkpoint", "--dir", str(tmp_path / "ck")]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["params"] == [{"name": k, "shape": [v.size]} for k, v in state.items()]
    assert "params_truncated" not in rec


def test_inspect_checkpoint_missing_dir(tmp_path, capsys):
    assert cli.run(["inspect-checkpoint", "--dir", str(tmp_path / "no")]) == 2


def test_inspect_checkpoint_rejects_corrupt_manifest(tmp_path, capsys):
    ck = tmp_path / "ck"
    checkpoint.save_checkpoint({"w": np.zeros(3, np.float32)}, {}, ck)
    manifest = json.loads((ck / "manifest.json").read_text())
    manifest["params"][0]["byte_len"] = 999
    (ck / "manifest.json").write_text(json.dumps(manifest))
    assert cli.run(["inspect-checkpoint", "--dir", str(ck)]) == 2


def _entry0(**change):
    """A manifest damage that changes the first params entry."""
    return lambda m: {**m, "params": [{**m["params"][0], **change}, *m["params"][1:]]}


# manifest.json damage -> what its one data error line says
_BAD_MANIFESTS = {
    "a_list": (lambda m: [m], "not a JSON object"),
    "config_an_int": (lambda m: {**m, "config": 3}, "config is missing or not an object"),
    "config_missing": (lambda m: {k: v for k, v in m.items() if k != "config"},
                       "config is missing or not an object"),
    "entry_a_list": (lambda m: {**m, "params": [["w"], *m["params"][1:]]},
                     "params[0] is not an object"),
    "name_an_int": (_entry0(name=7), "params[0] has name 7, not a string"),
    "duplicate_name": (_entry0(name="b"), "'b' appears twice"),
    "negative_shape": (_entry0(shape=[-1, -4]), "not a list of non-negative ints"),
    "shape_of_strings": (_entry0(shape=["2", "2"]), "not a list of non-negative ints"),
    "shape_a_string": (_entry0(shape="22"), "not a list of non-negative ints"),
    # an entry holds name and shape alone, so a stored offset or length is
    # rejected whatever its value
    "fractional_offset": (_entry0(byte_offset=0.5),
                          "params[0] has the keys ['byte_offset', 'name', 'shape']"),
    "negative_offset": (_entry0(byte_offset=-4),
                        "params[0] has the keys ['byte_offset', 'name', 'shape']"),
    "bool_len": (_entry0(byte_len=True), "params[0] has the keys ['byte_len', 'name', 'shape']"),
}


@pytest.mark.parametrize("damage", sorted(_BAD_MANIFESTS))
def test_inspect_checkpoint_of_a_mistyped_manifest_is_a_data_error(tmp_path, capsys, damage):
    ck = tmp_path / "ck"
    checkpoint.save_checkpoint({"w": np.zeros((2, 2), np.float32),
                                "b": np.zeros(2, np.float32)}, {"kind": "demo"}, ck)
    mpath = ck / "manifest.json"
    mutate, words = _BAD_MANIFESTS[damage]
    mpath.write_text(json.dumps(mutate(json.loads(mpath.read_text()))))
    assert cli.run(["inspect-checkpoint", "--dir", str(ck)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(mpath) in err[0] and words in err[0], err[0]


def _format_1(ck):
    """Rewrite the checkpoint at ck as the format-1 writer wrote it: each
    entry also held its dtype, byte offset and byte length."""
    mpath = ck / "manifest.json"
    manifest = json.loads(mpath.read_text())
    offset = 0
    for e in manifest["params"]:
        n = 4 * int(np.prod(e["shape"]))
        e.update(dtype="<f4", byte_offset=offset, byte_len=n)
        offset += n
    manifest["format_version"] = 1
    mpath.write_text(json.dumps(manifest, indent=2))


# a checkpoint another writer made -> (the file it damages, what the error says)
_FOREIGN_CHECKPOINTS = {
    "format_1": (_format_1, "manifest.json", "unsupported checkpoint format_version 1"),
    "trailing_8_bytes": (lambda ck: (ck / "weights.bin").write_bytes(
        (ck / "weights.bin").read_bytes() + bytes(8)), "weights.bin", "is 48 bytes"),
    "short_4_bytes": (lambda ck: (ck / "weights.bin").write_bytes(
        (ck / "weights.bin").read_bytes()[:-4]), "weights.bin", "is 36 bytes"),
}


@pytest.mark.parametrize("case", sorted(_FOREIGN_CHECKPOINTS))
def test_inspect_checkpoint_reads_only_what_save_checkpoint_writes(tmp_path, capsys, case):
    ck = tmp_path / "ck"
    checkpoint.save_checkpoint({"w": np.zeros((2, 4), np.float32),
                                "b": np.zeros(2, np.float32)}, {"kind": "demo"}, ck)
    damage, name, words = _FOREIGN_CHECKPOINTS[case]
    damage(ck)
    assert cli.run(["inspect-checkpoint", "--dir", str(ck)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(ck / name) in err[0] and words in err[0], err[0]


_TINY_TOKENIZER = dict(image_size=16, patch=4, d_model=32, heads=4, n_blocks=1, d_mlp=64,
                       codebook_size=16)


def _tiny_checkpoints(tmp_path):
    tok_cfg = vq.TokenizerConfig(**_TINY_TOKENIZER)
    checkpoint.save_tokenizer(vq.build_tokenizer(tok_cfg, seed=0),
                              tmp_path / "tok")
    mcfg = seq2seq.ModelConfig(enc_layers=1, dec_layers=1, d_model=32,
                               d_mlp=64, heads=4, text_vocab=300,
                               image_vocab=16, text_len=12, grid_h=4, grid_w=4)
    w = seq2seq.build_model(mcfg, seed=0)
    checkpoint.save_model(w, tmp_path / "model")
    vocab = textproc.train_bpe(["a red circle", "a blue square"], 300)
    textproc.save_vocab(vocab, tmp_path / "model" / "vocab.json")
    return tmp_path / "model", tmp_path / "tok"


def test_train_model_takes_image_vocab_and_grid_from_the_tokenizer(tmp_path, capsys):
    # a 4x4 tokenizer with 16 codes; ModelConfig's defaults are 8x8 and 64
    _, tok = _tiny_checkpoints(tmp_path)
    model = {"enc_layers": 1, "dec_layers": 1, "d_model": 32, "d_mlp": 64,
             "heads": 4, "text_vocab": 300, "text_len": 12, "batch": 4, "steps": 1}
    out = tmp_path / "m"
    assert cli.run(["train-model", "--tokenizer", str(tok),
                    "--config", _cfg(tmp_path, {**TINY_DATA, "model": model}),
                    "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    got = manifest["config"]["model"]
    assert (got["grid_h"], got["grid_w"], got["image_vocab"]) == (4, 4, 16)


# the tiny model predicts 16 codes on a 4x4 grid; a tokenizer of another grid
# or codebook decodes none of its samples right, so sample stops before it
# samples anything
@pytest.mark.parametrize("change", [{"image_size": 32}, {"codebook_size": 8},
                                    {"codebook_size": 32}],
                         ids=["8x8-grid", "8-codes", "32-codes"])
def test_sample_with_a_tokenizer_the_model_does_not_fit_is_a_data_error(
        tmp_path, capsys, monkeypatch, change):
    model, _ = _tiny_checkpoints(tmp_path)
    tok_cfg = vq.TokenizerConfig(**{**_TINY_TOKENIZER, **change})
    tok = tmp_path / "other_tok"
    checkpoint.save_tokenizer(vq.build_tokenizer(tok_cfg, seed=0), tok)
    monkeypatch.setattr(sampling, "generate", lambda *a: pytest.fail("sampled"))
    assert cli.run(["sample", "--model", str(model), "--tokenizer", str(tok),
                    "--prompt", "a red circle", "--n-samples", "2",
                    "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: the model at {model} predicts 16 codes on a 4x4 grid, but the "
        f"tokenizer at {tok} has {tok_cfg.codebook_size} codes on a "
        f"{tok_cfg.grid}x{tok_cfg.grid} grid"]
    assert not (tmp_path / "s").exists()


def test_train_model_on_images_its_tokenizer_does_not_take_is_a_data_error(
        tmp_path, capsys, monkeypatch):
    # the tokenizer takes 16x16 images; the check comes before any data is rendered
    _, tok = _tiny_checkpoints(tmp_path)
    monkeypatch.setattr(cli, "_dataset", lambda *a: pytest.fail("rendered"))
    cfg = _cfg(tmp_path, {"data": {**TINY_DATA["data"], "image_size": 32},
                          "model": {"steps": 1}})
    assert cli.run(["train-model", "--tokenizer", str(tok), "--config", cfg,
                    "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: data.image_size is 32, but the tokenizer at {tok} takes "
        f"16x16 images"]
    assert not (tmp_path / "m").exists()


# textproc.MIN_VOCAB is the floor for a trained BPE vocabulary; library code
# builds models with smaller vocabularies, so the config range starts at 1
@pytest.mark.parametrize("cmd", ["train-model", "train-reranker"])
def test_training_a_text_vocab_below_the_bpe_floor_names_the_key(tmp_path, capsys,
                                                                  monkeypatch, cmd):
    section = _TRAINING[cmd]
    extra = ["--tokenizer", str(_tiny_checkpoints(tmp_path)[1])] if cmd == "train-model" else []
    monkeypatch.setattr(cli, "_dataset", None)  # the check comes before any data
    cfg = _cfg(tmp_path, {**TINY_DATA, section: {"text_vocab": 100, "steps": 1}})
    assert cli.run([cmd, "--config", cfg, *extra, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {section}.text_vocab must be at least 260 to train a BPE "
        f"vocabulary, got 100"]
    assert not (tmp_path / "out").exists()


def test_sample_requires_exactly_one_prompt_source(tmp_path, capsys):
    model, tok = _tiny_checkpoints(tmp_path)
    base = ["sample", "--model", str(model), "--tokenizer", str(tok),
            "--out", str(tmp_path / "s")]
    assert cli.run(base) == 1
    assert cli.run(base + ["--prompt", "a red circle",
                           "--prompts", "x.tsv"]) == 1


def test_sample_prompt_list_writes_one_dir_per_row(tmp_path, capsys):
    model, tok = _tiny_checkpoints(tmp_path)
    tsv = tmp_path / "p.tsv"
    tsv.write_text("Prompt\tCategory\tChallenge\n"
                   "a red circle\tAbstract\tBasic\n"
                   "a blue square\tArts\tSimple Detail\n")
    out = tmp_path / "batch"
    assert cli.run(["sample", "--model", str(model), "--tokenizer", str(tok),
                    "--prompts", str(tsv), "--n-samples", "1",
                    "--out", str(out)]) == 0
    index = json.loads((out / "index.json").read_text())
    assert [r["prompt"] for r in index] == ["a red circle", "a blue square"]
    assert index[0]["seed"] != index[1]["seed"]
    text = (out / "prompt_001" / "meta.json").read_text()
    assert text == json.dumps(json.loads(text))  # compact JSON
    meta = json.loads(text)
    assert meta["category"] == "Arts"
    assert (out / "prompt_001" / "sample_00.png").exists()


def test_sample_malformed_prompt_list_is_a_data_error(tmp_path, capsys):
    model, tok = _tiny_checkpoints(tmp_path)
    tsv = tmp_path / "bad.tsv"
    tsv.write_text("a red circle\tNope\tBasic\n")
    assert cli.run(["sample", "--model", str(model), "--tokenizer", str(tok),
                    "--prompts", str(tsv), "--out", str(tmp_path / "s")]) == 2


def test_sample_missing_prompt_list_is_a_data_error(tmp_path, capsys):
    model, tok = _tiny_checkpoints(tmp_path)
    assert cli.run(["sample", "--model", str(model), "--tokenizer", str(tok),
                    "--prompts", str(tmp_path / "no.tsv"),
                    "--out", str(tmp_path / "s")]) == 2


def test_sample_with_damaged_model_config_is_a_data_error(tmp_path, capsys):
    model, tok = _tiny_checkpoints(tmp_path)
    manifest = json.loads((model / "manifest.json").read_text())
    manifest["config"]["model"]["bogus"] = 1
    (model / "manifest.json").write_text(json.dumps(manifest))
    assert cli.run(["sample", "--model", str(model), "--tokenizer", str(tok),
                    "--prompt", "a red circle", "--out", str(tmp_path / "s")]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["not_utf8", "a_directory"])
def test_unreadable_prompt_list_is_a_data_error(tmp_path, capsys, case):
    model, tok = _tiny_checkpoints(tmp_path)
    tsv = tmp_path / "p.tsv"
    if case == "not_utf8":
        tsv.write_bytes("a red circl\xe9\tAbstract\tBasic\n".encode("latin-1"))
    else:
        tsv.mkdir()
    assert cli.run(["sample", "--model", str(model), "--tokenizer", str(tok),
                    "--prompts", str(tsv), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(tsv) in err[0], err[0]
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("text", ["", "Prompt\tCategory\tChallenge\n", "\n\n"],
                         ids=["empty", "header_only", "blank_lines"])
def test_sample_of_a_prompt_list_with_no_prompts_is_a_data_error(tmp_path, capsys, text):
    tsv = tmp_path / "p.tsv"
    tsv.write_text(text)
    # the list is read before any checkpoint, so none is needed
    assert cli.run(["sample", "--model", "m", "--tokenizer", "t",
                    "--prompts", str(tsv), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {tsv}: no prompts"]
    assert not (tmp_path / "s").exists()


def test_sample_with_a_vocab_not_utf8_is_a_data_error(tmp_path, capsys):
    model, tok = _tiny_checkpoints(tmp_path)
    vocab = model / "vocab.json"
    vocab.write_bytes(b"bpe v2\n\xff\xfe\n")
    assert cli.run(["sample", "--model", str(model), "--tokenizer", str(tok),
                    "--prompt", "a red circle", "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(vocab) in err[0] and "UTF-8" in err[0], err[0]


@pytest.mark.parametrize("damage", ["header", "token_table_header", "no_final_newline"])
def test_sample_with_a_malformed_vocab_names_the_file(tmp_path, capsys, damage):
    model, tok = _tiny_checkpoints(tmp_path)
    vocab = model / "vocab.json"
    if damage == "header":
        vocab.write_text("nope\n")
    elif damage == "token_table_header":  # nothing follows the merges: no token table
        vocab.write_text(vocab.read_text() + "tokens 5\n")
    else:  # save_vocab ends every line with a newline, the last one too
        vocab.write_text(vocab.read_text()[:-1])
    assert cli.run(["sample", "--model", str(model), "--tokenizer", str(tok),
                    "--prompt", "a red circle", "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(vocab) in err[0], err[0]
    assert not (tmp_path / "s").exists()


def test_tokenizer_checkpoint_of_the_wider_decoder_is_a_data_error(tmp_path, capsys):
    # a tokenizer saved while the config had the decoder's own width and depth
    model, tok = _tiny_checkpoints(tmp_path)
    manifest = json.loads((tok / "manifest.json").read_text())
    manifest["config"]["tokenizer"].update(dec_d_model=0, dec_blocks=0)
    (tok / "manifest.json").write_text(json.dumps(manifest))
    assert cli.run(["sample", "--model", str(model), "--tokenizer", str(tok),
                    "--prompt", "a red circle", "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert "tokenizer.dec_d_model" in err[0], err[0]
    assert not (tmp_path / "s").exists()
    # the raw container still opens
    assert cli.run(["inspect-checkpoint", "--dir", str(tok)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tokenizer"]["dec_blocks"] == 0


@pytest.mark.parametrize("case", ["train-sr", "sample-sr", "sr-checkpoint"])
def test_the_removed_super_resolution_stage_is_rejected(tmp_path, capsys, case):
    model, tok = _tiny_checkpoints(tmp_path)
    sample = ["sample", "--model", str(model), "--tokenizer", str(tok),
              "--prompt", "a red circle", "--out", str(tmp_path / "s")]
    if case == "train-sr":
        argv, code, said = ["train-sr", "--out", str(tmp_path / "sr")], 1, "invalid choice"
    elif case == "sample-sr":
        argv, code, said = [*sample, "--sr", "x"], 1, "unrecognized arguments"
    else:
        checkpoint.save_checkpoint({"in.w": np.zeros((3, 3, 3, 8), np.float32)},
                                   {"kind": "sr", "sr": {"channels": 8}}, model)
        argv, code, said = sample, 2, "expected a 'seq2seq' checkpoint, found 'sr'"
    assert cli.run(argv) == code
    assert said in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def _tiny_reranker(tmp_path):
    enc = contrastive.build_encoder(contrastive.EncoderConfig(
        image_size=16, d_model=16, heads=2, n_blocks=1, d_mlp=32,
        text_vocab=300, text_len=8), seed=0)
    checkpoint.save_encoder(enc, tmp_path / "rr")
    textproc.save_vocab(textproc.train_bpe(["a red circle"], 300),
                        tmp_path / "rr" / "vocab.json")
    return enc


def test_in_dataset_is_whether_the_train_split_drew_the_caption(tmp_path, capsys):
    _tiny_reranker(tmp_path)
    retrieve = ["retrieve", "--reranker", str(tmp_path / "rr"), "--k", "2",
                "--config", _cfg(tmp_path, TINY_DATA)]
    held_out = sorted(scenes.split_captions()[1])[0]
    assert cli.run([*retrieve, "--caption", held_out]) == 0
    doc = _last_json(capsys)
    assert doc["in_dataset"] is False
    drawn = doc["results"][0]["caption"]
    assert cli.run([*retrieve, "--caption", drawn]) == 0
    assert _last_json(capsys)["in_dataset"] is True


def test_retrieve_over_images_its_reranker_does_not_take_is_a_data_error(
        tmp_path, capsys, monkeypatch):
    # the reranker takes 16x16 images; the check comes before any data is rendered
    _tiny_reranker(tmp_path)
    monkeypatch.setattr(cli, "_dataset", lambda *a: pytest.fail("rendered"))
    cfg = _cfg(tmp_path, {"data": {**TINY_DATA["data"], "image_size": 32}})
    assert cli.run(["retrieve", "--reranker", str(tmp_path / "rr"), "--caption",
                    "a red circle", "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: data.image_size is 32, but the reranker at {tmp_path / 'rr'} takes "
        f"16x16 images"]


_META = {"files": ["sample_00.png"], "prompt": "a red circle", "seed": 0,
         "grids": [[0]]}


# eval-alignment does not read grids
@pytest.mark.parametrize("cmd,damage", [
    (cmd, damage) for cmd in ("rerank", "eval-alignment")
    for damage in ("not_json", "not_an_object", "no_files", *_META)
    if (cmd, damage) != ("eval-alignment", "grids")])
def test_bad_sample_meta_is_a_data_error(tmp_path, capsys, cmd, damage):
    meta = {k: v for k, v in _META.items() if k != damage}
    if damage == "no_files":
        meta["files"] = []
    text = {"not_json": "{oops", "not_an_object": "[]"}.get(damage, json.dumps(meta))
    (tmp_path / "s").mkdir()
    (tmp_path / "s" / "meta.json").write_text(text)
    argv = [cmd, "--dir", str(tmp_path / "s")]
    if cmd == "rerank":
        argv += ["--reranker", str(tmp_path / "rr")]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(tmp_path / "s" / "meta.json") in err[0]


@pytest.mark.parametrize("cmd,damage", [
    ("eval-alignment", {"files": [3]}),
    ("eval-alignment", {"files": "sample_00.png"}),
    ("eval-alignment", {"prompt": ["a red circle"]}),
    ("eval-alignment", {"seed": "0"}),
    ("eval-alignment", {"seed": True}),
    ("rerank", {"grids": {"0": [0]}}),
], ids=["files_of_ints", "files_a_string", "prompt_a_list", "seed_a_string", "seed_a_bool",
        "grids_an_object"])
def test_mistyped_sample_meta_is_a_data_error(tmp_path, capsys, cmd, damage):
    (tmp_path / "s").mkdir()
    (tmp_path / "s" / "meta.json").write_text(json.dumps({**_META, **damage}))
    argv = [cmd, "--dir", str(tmp_path / "s")]
    if cmd == "rerank":
        argv += ["--reranker", str(tmp_path / "rr")]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(tmp_path / "s" / "meta.json") in err[0]


def test_reranker_checkpoint_saved_with_tau_keys_is_a_data_error(tmp_path, capsys):
    # a reranker saved while tau's start and floor were config keys
    _tiny_reranker(tmp_path)
    rr = tmp_path / "rr"
    manifest = json.loads((rr / "manifest.json").read_text())
    manifest["config"]["encoder"].update(tau_init=1 / 0.07, tau_min=1e-3)
    (rr / "manifest.json").write_text(json.dumps(manifest))
    d = tmp_path / "s"
    d.mkdir()
    pngio.write_png(d / "sample_00.png", np.zeros((16, 16, 3), np.uint8))
    (d / "meta.json").write_text(json.dumps(_META))
    assert cli.run(["rerank", "--dir", str(d), "--reranker", str(rr)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert "encoder.tau_init" in err[0], err[0]
    assert not (d / "reranked").exists()
    # the raw container still opens
    assert cli.run(["inspect-checkpoint", "--dir", str(rr)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["encoder"]["tau_min"] == 1e-3


def test_rerank_of_grids_one_short_names_the_meta_json(tmp_path, capsys):
    _tiny_reranker(tmp_path)
    d = tmp_path / "s"
    d.mkdir()
    files = [f"sample_{i:02d}.png" for i in range(3)]
    rng = np.random.default_rng(0)
    for f in files:
        pngio.write_png(d / f, rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    (d / "meta.json").write_text(json.dumps(
        {"prompt": "a red circle", "seed": 3, "files": files, "grids": [[[0]], [[1]]]}))
    assert cli.run(["rerank", "--dir", str(d), "--reranker", str(tmp_path / "rr")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(d / "meta.json") in err[0] and "3 grids" in err[0]


@pytest.mark.parametrize("out", ["s", "s/.", "s/../s"])
def test_rerank_out_of_the_sample_directory_itself_is_a_data_error(tmp_path, capsys, out):
    # ranking into --dir would replace its meta.json, the samples' own record
    _tiny_reranker(tmp_path)
    d = tmp_path / "s"
    d.mkdir()
    pngio.write_png(d / "sample_00.png", np.zeros((16, 16, 3), np.uint8))
    (d / "meta.json").write_text(json.dumps(_META))
    before = sorted((f.name, f.read_bytes()) for f in d.iterdir())
    assert cli.run(["rerank", "--dir", str(d), "--reranker", str(tmp_path / "rr"),
                    "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: rerank --out {tmp_path / out} is the sample directory --dir; "
        f"ranking there would overwrite its meta.json"]
    assert sorted((f.name, f.read_bytes()) for f in d.iterdir()) == before
    assert not (d / "reranked").exists()


def test_rerank_of_ragged_grids_names_the_meta_json(tmp_path, capsys):
    _tiny_reranker(tmp_path)
    d = tmp_path / "s"
    d.mkdir()
    files = [f"sample_{i:02d}.png" for i in range(2)]
    for f in files:
        pngio.write_png(d / f, np.zeros((16, 16, 3), np.uint8))
    (d / "meta.json").write_text(json.dumps(
        {"prompt": "a red circle", "seed": 3, "files": files, "grids": [[[0]], []]}))
    assert cli.run(["rerank", "--dir", str(d), "--reranker", str(tmp_path / "rr")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(d / "meta.json") in err[0] and "one shape" in err[0], err[0]
    assert not (d / "reranked").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("cmd", ["rerank", "eval-fid"])
def test_reranker_weights_that_are_not_finite_are_a_data_error(tmp_path, capsys, cmd, value):
    _tiny_reranker(tmp_path)
    rr = tmp_path / "rr"
    manifest = json.loads((rr / "manifest.json").read_text())
    entry = manifest["params"][0]  # img.in.w, which both commands read, comes first
    weights = bytearray((rr / "weights.bin").read_bytes())
    weights[:4] = np.float32(value).tobytes()
    (rr / "weights.bin").write_bytes(bytes(weights))
    d = tmp_path / "s"
    d.mkdir()
    files = [f"sample_{i:02d}.png" for i in range(2)]
    rng = np.random.default_rng(0)
    for f in files:
        pngio.write_png(d / f, rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    (d / "meta.json").write_text(json.dumps(
        {"prompt": "a red circle", "seed": 3, "files": files, "grids": [[[0]], [[1]]]}))
    argv = {"rerank": ["rerank", "--dir", str(d), "--reranker", str(rr)],
            "eval-fid": ["eval-fid", "--real", str(d), "--gen", str(d), "--features", str(rr)]}
    assert cli.run(argv[cmd]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(rr / "weights.bin") in err[0] and repr(entry["name"]) in err[0], err[0]
    assert not (d / "reranked").exists()
    # the raw container still opens
    assert cli.run(["inspect-checkpoint", "--dir", str(rr)]) == 0


def _png(w, h, color, lines):
    """The bytes of an 8-bit PNG of colour type color around the raw lines."""
    def chunk(tag, payload):
        return (len(payload).to_bytes(4, "big") + tag + payload
                + (zlib.crc32(tag + payload) & 0xFFFFFFFF).to_bytes(4, "big"))
    ihdr = w.to_bytes(4, "big") + h.to_bytes(4, "big") + bytes([8, color, 0, 0, 0])
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(lines)) + chunk(b"IEND", b""))


@pytest.mark.parametrize("color,ftype", [(6, 0), (2, 1), (2, 2), (2, 3), (2, 4)],
                         ids=["rgba", "sub", "up", "average", "paeth"])
def test_eval_fid_of_a_png_ttig_does_not_write_names_the_file(tmp_path, capsys, color,
                                                              ftype):
    # an RGBA file, or an RGB file whose lines use a filter other than 0
    _tiny_reranker(tmp_path)
    real, gen = tmp_path / "real", tmp_path / "gen"
    rng = np.random.default_rng(ftype)
    for d in (real, gen):
        d.mkdir()
        for i in range(2):
            pngio.write_png(d / f"{i}.png", rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    channels = 4 if color == 6 else 3
    lines = np.full((16, 1 + 16 * channels), ftype, np.uint8)
    lines[:, 1:] = rng.integers(0, 256, (16, 16 * channels), dtype=np.uint8)
    foreign = real / "foreign.png"
    foreign.write_bytes(_png(16, 16, color, lines.tobytes()))
    argv = ["eval-fid", "--real", str(real), "--gen", str(gen),
            "--features", str(tmp_path / "rr")]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {foreign}: "), err


def test_eval_fid_of_a_directory_of_two_image_sizes_names_the_file(tmp_path, capsys):
    _tiny_reranker(tmp_path)
    d = tmp_path / "s"
    d.mkdir()
    for name, size in (("a.png", 16), ("b.png", 16), ("c.png", 8)):
        pngio.write_png(d / name, np.zeros((size, size, 3), np.uint8))
    assert cli.run(["eval-fid", "--real", str(d), "--gen", str(d),
                    "--features", str(tmp_path / "rr")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: {d / 'c.png'}: image is 8x8, but {d / 'a.png'} is 16x16"]


@pytest.mark.parametrize("cmd", ["rerank", "eval-alignment"])
def test_a_sample_dir_of_two_image_sizes_names_the_file(tmp_path, capsys, cmd):
    _tiny_reranker(tmp_path)
    d = tmp_path / "s"
    d.mkdir()
    pngio.write_png(d / "sample_00.png", np.zeros((32, 32, 3), np.uint8))
    pngio.write_png(d / "sample_01.png", np.zeros((16, 16, 3), np.uint8))
    (d / "meta.json").write_text(json.dumps(
        {**_META, "files": ["sample_00.png", "sample_01.png"], "grids": [[[0]], [[1]]]}))
    argv = {"rerank": ["rerank", "--dir", str(d), "--reranker", str(tmp_path / "rr")],
            "eval-alignment": ["eval-alignment", "--dir", str(d)]}[cmd]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {d / 'sample_01.png'}: image is 16x16, but {d / 'sample_00.png'} is 32x32"]
    assert not (d / "reranked").exists()


def test_eval_alignment_of_a_png_with_a_short_ihdr_is_a_data_error(tmp_path, capsys):
    d = tmp_path / "s"
    d.mkdir()
    png = d / "sample_00.png"
    pngio.write_png(png, np.zeros((16, 16, 3), np.uint8))
    blob = png.read_bytes()
    # cut the IHDR payload to 4 bytes and fix up its length and CRC
    ihdr = blob[16:20]
    chunk = (len(ihdr).to_bytes(4, "big") + b"IHDR" + ihdr
             + (zlib.crc32(b"IHDR" + ihdr) & 0xFFFFFFFF).to_bytes(4, "big"))
    png.write_bytes(blob[:8] + chunk + blob[8 + 25:])
    (d / "meta.json").write_text(json.dumps(_META))
    assert cli.run(["eval-alignment", "--dir", str(d)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(png) in err[0] and "IHDR" in err[0]


def _code_blocks(markdown):
    return re.findall(r"^```[^\n]*\n(.*?)^```", markdown, re.M | re.S)


def test_readme_usage_shows_every_subcommand_and_no_other():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    shown = {word for block in _code_blocks((ROOT / "README.md").read_text())
             for word in re.findall(r"\bttig ([a-z][a-z-]*)", block)}
    assert shown == set(sub.choices)


def test_formats_doc_example_config_loads(tmp_path):
    doc = (ROOT / "docs" / "formats.md").read_text()
    example = _code_blocks(doc[doc.index("## Run configuration"):])[0]
    path = tmp_path / "cfg.json"
    path.write_text(example)
    doc = cli.load_config(path)
    assert set(doc) == set(cli._SCHEMA)
    for section, classes in cli._CONFIGS.items():
        for cls in classes:
            cli._pick(doc[section], cls)  # every value is inside its range


def _formats_doc_table():
    """(section.key, default text) for every key of docs/formats.md's config
    table. A row may list several keys, the later ones without their section,
    with one default each or one default for all."""
    doc = (ROOT / "docs" / "formats.md").read_text()
    lines = doc[doc.index("| key | default | legal values |"):].splitlines()[2:]
    rows = []
    for line in lines[:next(i for i, ln in enumerate(lines) if not ln.startswith("|"))]:
        keys, defaults = line.split(" | ")[:2]
        names = re.findall(r"`([\w.]+)`", keys.removeprefix("| derived: ").removeprefix("| "))
        section = names[0].split(".")[0]
        names = [n if "." in n else f"{section}.{n}" for n in names]
        values = defaults.split(", ")
        rows += zip(names, values if len(values) == len(names) else [defaults] * len(names))
    return rows


def test_formats_doc_config_table_lists_every_key_once_with_its_default():
    rows = _formats_doc_table()
    fields = {f"{section}.{f.name}": f for section, classes in cli._CONFIGS.items()
              for cls in classes for f in dataclasses.fields(cls)}
    # every schema key and every derived field, each in one row
    assert sorted(name for name, _ in rows) == sorted(fields)
    for name, default in rows:
        number = re.fullmatch(r"-?\d+(\.\d+)?", default.split(" (")[0])
        if number:
            assert float(number[0]) == fields[name].default, name


# eval-alignment records of _oracle_sample_dir, as the per-placement oracle
# computed them: (caption_fidelity_mean, caption_fidelity_best)
_EVAL_ALIGNMENT_RECORDS = {
    "a red circle": (0.9722222222222222, 1.0),
    "a blue square above a green triangle": (0.8472222222222223, 1.0),
    "a yellow triangle next to a purple circle": (0.888888888888889, 1.0),
    "a orange square to the left of a cyan circle": (0.9305555555555557, 1.0),
}


def _oracle_sample_dir(path, caption, seed):
    """A sample directory of 12 PNGs for caption: renders of its legal layouts,
    most with noise, and one of uniform noise."""
    rng = np.random.default_rng(seed)
    layouts = list(metrics._placements(scenes.parse_caption(caption)))
    images = [scenes.render(layouts[rng.integers(len(layouts))]) for _ in range(12)]
    images = [np.clip(img + rng.normal(0, 0.12 * (i % 4), img.shape), 0, 1)
              for i, img in enumerate(images)]
    images[-1] = rng.random(images[-1].shape)
    path.mkdir()
    files = [f"sample_{i:02d}.png" for i in range(len(images))]
    for name, img in zip(files, images):
        pngio.write_png(path / name, img)
    (path / "meta.json").write_text(json.dumps(
        {"prompt": caption, "seed": seed, "files": files}))


def test_eval_alignment_records_are_fixed(tmp_path, capsys):
    for seed, (caption, want) in enumerate(_EVAL_ALIGNMENT_RECORDS.items()):
        d = tmp_path / f"s{seed}"
        _oracle_sample_dir(d, caption, seed)
        assert cli.run(["eval-alignment", "--dir", str(d)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["metric"], r["n_a"], r["feature_fn"], r["seed"]) for r in records] == [
            ("caption_fidelity_mean", 12, "oracle", seed),
            ("caption_fidelity_best", 12, "oracle", seed)]
        assert tuple(r["value"] for r in records) == want, caption


def test_eval_alignment_out_that_is_a_directory_is_a_data_error(tmp_path, capsys):
    d = tmp_path / "s"
    _oracle_sample_dir(d, "a red circle", 0)
    assert cli.run(["eval-alignment", "--dir", str(d), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(tmp_path) in err[0], err[0]
    assert captured.out == ""


def test_run_shares_one_parser_and_each_result_matches_a_fresh_process(tmp_path, capsys):
    """run() builds its parser once per process. A second subcommand, a usage
    error, and a later run that leaves out a flag an earlier run set each give
    what a fresh process gives, files included."""
    cfg = _cfg(tmp_path, {"data": {**TINY_DATA["data"], "n_train": 3, "n_eval": 3}})
    _oracle_sample_dir(tmp_path / "samples", "a red circle", 0)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    runs = ((0, ["make-data", "--config", cfg, "--split", "eval", "--out", "{}/a"]),
            (0, ["eval-alignment", "--dir", str(tmp_path / "samples")]),
            (1, ["make-data", "--config", cfg]),
            (0, ["make-data", "--config", cfg, "--out", "{}/b"]))
    for want_code, argv in runs:
        code = cli.run([a.format(tmp_path / "in") for a in argv])
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ttig",
                                *(a.format(tmp_path / "fresh") for a in argv)],
                               capture_output=True, text=True, env=env)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == want_code
        assert len(got.err.splitlines()) == code  # one usage-error line, or none
    assert cli._parser() is cli._parser()
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert all(callable(getattr(cli, "cmd_" + name.replace("-", "_"))) for name in sub.choices)
    files = sorted(p.relative_to(tmp_path / "in") for p in (tmp_path / "in").rglob("*.*"))
    assert len(files) == 2 * (3 + 2)  # per dataset: 3 PNGs, captions, manifest
    assert all((tmp_path / "in" / f).read_bytes() == (tmp_path / "fresh" / f).read_bytes()
               for f in files)


@pytest.mark.parametrize("preset", [None, "3"])
def test_ttig_sets_one_blas_thread_unless_the_caller_set_one(preset):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = ("import os, ttig, numpy; print([os.environ[v] for v in "
             "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == repr([preset or "1", "1", "1"])


def test_rerank_writes_the_sample_files_in_score_order(tmp_path, monkeypatch, capsys):
    enc = _tiny_reranker(tmp_path)
    vocab = textproc.load_vocab(tmp_path / "rr" / "vocab.json")
    rng = np.random.default_rng(0)
    d = tmp_path / "s"
    d.mkdir()
    files = [f"sample_{i:02d}.png" for i in range(6)]
    for f in files:
        pngio.write_png(d / f, rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    grids = rng.integers(0, 8, (6, 2, 2)).tolist()
    (d / "meta.json").write_text(json.dumps(
        {"prompt": "a red circle", "seed": 3, "files": files, "grids": grids}))
    images = np.stack([pngio.read_png(d / f) for f in files])
    scores = contrastive.make_scorer(enc, vocab)(images, "a red circle")
    order = np.argsort(-np.asarray(scores, np.float64), kind="stable")

    def no_encode(*args):
        raise AssertionError("rerank re-encoded a PNG")

    monkeypatch.setattr(pngio, "write_png", no_encode)
    assert cli.run(["rerank", "--dir", str(d), "--reranker", str(tmp_path / "rr")]) == 0
    text = (d / "reranked" / "meta.json").read_text()
    assert text == json.dumps(json.loads(text))  # compact JSON
    meta = json.loads(text)
    assert meta["files"] == [f"rank_{i:02d}.png" for i in range(6)]
    assert meta["grids"] == [grids[i] for i in order]
    for name, i in zip(meta["files"], order):
        assert (d / "reranked" / name).read_bytes() == (d / files[i]).read_bytes()
