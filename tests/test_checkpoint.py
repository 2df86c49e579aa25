"""Checkpoint container: bit-exact round trips and manifest validation."""

import json

import numpy as np
import pytest

from ttig import checkpoint, contrastive, nn, seq2seq, vq
from ttig.errors import DataError


def _state(rng):
    return {
        "enc.w": rng.normal(size=(4, 3)).astype(np.float32),
        "enc.b": rng.normal(size=(3,)).astype(np.float32),
        "scalar": rng.normal(size=(1,)).astype(np.float32),
        "deep.block.k": rng.normal(size=(2, 2, 2)).astype(np.float32),
    }


def test_round_trip_is_bit_exact(tmp_path):
    state = _state(np.random.default_rng(0))
    cfg = {"kind": "demo", "depth": 3}
    checkpoint.save_checkpoint(state, cfg, tmp_path / "ck")
    loaded, got_cfg = checkpoint.load_checkpoint(tmp_path / "ck")
    assert got_cfg == cfg
    assert set(loaded) == set(state)
    for name in state:
        a = np.asarray(state[name], np.float32)
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == a.shape
        assert np.array_equal(
            loaded[name].view(np.uint32), a.view(np.uint32))


def test_resave_reproduces_identical_files(tmp_path):
    state = _state(np.random.default_rng(1))
    checkpoint.save_checkpoint(state, {"s": 1}, tmp_path / "a")
    loaded, cfg = checkpoint.load_checkpoint(tmp_path / "a")
    checkpoint.save_checkpoint(loaded, cfg, tmp_path / "b")
    assert (tmp_path / "a" / "weights.bin").read_bytes() == \
           (tmp_path / "b" / "weights.bin").read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_text() == \
           (tmp_path / "b" / "manifest.json").read_text()


def test_parameter_order_is_preserved(tmp_path):
    state = {"z": np.zeros(2, np.float32), "a": np.ones(2, np.float32)}
    checkpoint.save_checkpoint(state, {}, tmp_path / "ck")
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    assert [e["name"] for e in manifest["params"]] == ["z", "a"]


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(DataError, match="not a checkpoint"):
        checkpoint.load_checkpoint(tmp_path / "nope")


def test_corrupt_manifest_rejected(tmp_path):
    checkpoint.save_checkpoint({"w": np.zeros(2, np.float32)}, {}, tmp_path / "ck")
    (tmp_path / "ck" / "manifest.json").write_text("{not json")
    with pytest.raises(DataError, match="corrupt"):
        checkpoint.load_checkpoint(tmp_path / "ck")


def _tamper(tmp_path, mutate):
    path = tmp_path / "ck"
    checkpoint.save_checkpoint(
        {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
         "b": np.zeros(3, np.float32)}, {}, path)
    mpath = path / "manifest.json"
    manifest = json.loads(mpath.read_text())
    mutate(manifest)
    mpath.write_text(json.dumps(manifest))
    return path


def test_wrong_format_version_rejected(tmp_path):
    def bump(m):
        m["format_version"] = 99
    path = _tamper(tmp_path, bump)
    with pytest.raises(DataError, match="format_version"):
        checkpoint.load_checkpoint(path)


def test_wrong_dtype_rejected(tmp_path):
    def flip(m):
        m["params"][0]["dtype"] = "<f8"
    path = _tamper(tmp_path, flip)
    with pytest.raises(DataError, match="dtype"):
        checkpoint.load_checkpoint(path)


def test_byte_len_shape_mismatch_rejected(tmp_path):
    # an entry holds only name and shape: a stored length, right or wrong, is
    # no part of it
    def shrink(m):
        m["params"][0]["byte_len"] = 20
    path = _tamper(tmp_path, shrink)
    with pytest.raises(DataError, match="byte_len"):
        checkpoint.load_checkpoint(path)


@pytest.mark.parametrize("change", [-4, -1, 1, 4, 8])
def test_weights_of_another_size_rejected(tmp_path, change):
    # the last parameter's span runs past the end of weights.bin, or bytes
    # follow it: the shapes need exactly 4 * (6 + 3) = 36 bytes
    path = _tamper(tmp_path, lambda m: None)
    wpath = path / "weights.bin"
    blob = wpath.read_bytes()
    wpath.write_bytes(blob[:change] if change < 0 else blob + b"\0" * change)
    with pytest.raises(DataError) as err:
        checkpoint.load_checkpoint(path)
    assert str(err.value) == (f"{wpath} is {36 + change} bytes, but the shapes "
                              f"in its manifest.json need 36")


def test_out_of_bounds_span_rejected(tmp_path):
    # a shape that needs more floats than weights.bin holds
    def grow(m):
        m["params"][-1]["shape"] = [4]
    path = _tamper(tmp_path, grow)
    with pytest.raises(DataError, match="36 bytes, but .* need 40"):
        checkpoint.load_checkpoint(path)


@pytest.mark.parametrize("shape", [[0, 2**70], [0, 2**40, 2**40]])
def test_empty_shape_too_large_for_an_array_rejected(tmp_path, shape):
    # the product is 0, so weights.bin has the size the shapes need
    def zero(m):
        m["params"].append({"name": "z", "shape": shape})
    path = _tamper(tmp_path, zero)
    with pytest.raises(DataError) as err:
        checkpoint.load_checkpoint(path)
    assert str(err.value) == (f"{path / 'manifest.json'}: 'z' has shape {shape}, "
                              f"too large for an array")


def test_manifest_entry_holds_name_and_shape_alone(tmp_path):
    checkpoint.save_checkpoint(_state(np.random.default_rng(2)), {}, tmp_path / "ck")
    manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
    assert manifest["format_version"] == 2
    assert all(set(e) == {"name", "shape"} for e in manifest["params"])


def test_missing_entry_key_rejected(tmp_path):
    def strip(m):
        del m["params"][0]["shape"]
    path = _tamper(tmp_path, strip)
    with pytest.raises(DataError, match="shape"):
        checkpoint.load_checkpoint(path)


def test_missing_params_list_rejected(tmp_path):
    def drop(m):
        del m["params"]
    path = _tamper(tmp_path, drop)
    with pytest.raises(DataError, match="params"):
        checkpoint.load_checkpoint(path)


# ---------------------------------------------------------------- typed

def test_model_wrapper_round_trip(tmp_path):
    cfg = seq2seq.ModelConfig(d_model=32, heads=4, enc_layers=1,
                              dec_layers=1, d_mlp=64, text_vocab=300,
                              image_vocab=16, text_len=8, grid_h=4, grid_w=4)
    w = seq2seq.build_model(cfg, seed=3)
    checkpoint.save_model(w, tmp_path / "m")
    back = checkpoint.load_model(tmp_path / "m")
    assert back.cfg == cfg
    for name, arr in w.params.state_dict().items():
        assert np.array_equal(back.params.state_dict()[name], arr)


def test_tokenizer_wrapper_round_trip(tmp_path):
    cfg = vq.TokenizerConfig(image_size=16, patch=4, d_model=32, heads=4,
                             n_blocks=1, d_mlp=64, codebook_size=16)
    w = vq.build_tokenizer(cfg, seed=1)
    checkpoint.save_tokenizer(w, tmp_path / "t")
    back = checkpoint.load_tokenizer(tmp_path / "t")
    assert back.cfg == cfg
    for name, arr in w.params.state_dict().items():
        assert np.array_equal(back.params.state_dict()[name], arr)


def test_encoder_wrapper_round_trip(tmp_path):
    enc = contrastive.build_encoder(contrastive.EncoderConfig(), seed=2)
    checkpoint.save_encoder(enc, tmp_path / "e")
    back = checkpoint.load_encoder(tmp_path / "e")
    assert back.cfg == enc.cfg
    state = enc.params.state_dict()
    for name, arr in back.params.state_dict().items():
        assert np.array_equal(state[name], arr)


def test_kind_mismatch_rejected(tmp_path):
    cfg = vq.TokenizerConfig(image_size=16, patch=4, d_model=32, heads=4,
                             n_blocks=1, d_mlp=64, codebook_size=16)
    checkpoint.save_tokenizer(vq.build_tokenizer(cfg, seed=0), tmp_path / "t")
    with pytest.raises(DataError, match="seq2seq"):
        checkpoint.load_model(tmp_path / "t")


_TYPED = {
    "seq2seq": (checkpoint.save_model, checkpoint.load_model,
                lambda: seq2seq.build_model(seq2seq.ModelConfig(
                    d_model=16, heads=2, enc_layers=1, dec_layers=1, d_mlp=32,
                    text_vocab=300, image_vocab=16, text_len=8, grid_h=4,
                    grid_w=4), seed=0)),
    "tokenizer": (checkpoint.save_tokenizer, checkpoint.load_tokenizer,
                  lambda: vq.build_tokenizer(vq.TokenizerConfig(
                      image_size=16, patch=4, d_model=16, heads=2, n_blocks=1,
                      d_mlp=32, codebook_size=16), seed=0)),
    "dual_encoder": (checkpoint.save_encoder, checkpoint.load_encoder,
                     lambda: contrastive.build_encoder(contrastive.EncoderConfig(
                         image_size=16, d_model=16, heads=2, n_blocks=1,
                         d_mlp=32, text_vocab=300, text_len=8), seed=0)),
}


@pytest.mark.parametrize("kind", sorted(_TYPED))
@pytest.mark.parametrize("damage", ["unknown_field", "no_section", "wrong_type"])
def test_typed_load_rejects_bad_config_section(tmp_path, kind, damage):
    save, load, build = _TYPED[kind]
    path = tmp_path / "ck"
    save(build(), path)
    load(path)
    manifest = json.loads((path / "manifest.json").read_text())
    section = next(k for k in manifest["config"] if k != "kind")
    if damage == "unknown_field":
        manifest["config"][section]["bogus"] = 1
    elif damage == "wrong_type":
        # an int field written as a JSON string, like "16" for 16
        field = next(iter(manifest["config"][section]))
        manifest["config"][section][field] = str(manifest["config"][section][field])
    else:
        del manifest["config"][section]
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=kind) as err:
        load(path)
    assert str(path) in str(err.value)
    if damage == "wrong_type":
        assert f"{section}.{field}" in str(err.value)


@pytest.mark.parametrize("kind", sorted(_TYPED))
def test_typed_load_rejects_a_config_value_out_of_range(tmp_path, kind):
    # the config dataclass checks its ranges however it is built
    save, load, build = _TYPED[kind]
    path = tmp_path / "ck"
    save(build(), path)
    manifest = json.loads((path / "manifest.json").read_text())
    section = next(k for k in manifest["config"] if k != "kind")
    manifest["config"][section]["heads"] = -2
    (path / "manifest.json").write_text(json.dumps(manifest))
    # the message names the file and its kind: sample reads two checkpoints
    with pytest.raises(DataError) as e:
        load(path)
    kind = manifest["config"]["kind"]
    assert str(e.value).startswith(f"{kind!r} checkpoint at {path}: ")
    assert str(e.value).endswith(".heads must be at least 1, got -2")


@pytest.mark.parametrize("kind", sorted(_TYPED))
def test_typed_load_is_byte_exact_and_draws_no_init(tmp_path, kind, monkeypatch):
    """A load builds its skeleton from no generator: no truncated-normal draw
    (nor the tokenizer's codebook draw), only the saved bytes."""
    save, load, build = _TYPED[kind]
    w = build()
    save(w, tmp_path / "ck")
    trunc_normal = nn.trunc_normal

    def no_draw(rng, shape, std=0.02):
        if rng is not None:
            raise AssertionError(f"a load drew a {shape} init")
        return trunc_normal(rng, shape, std)

    def no_generator(*args, **kwargs):
        raise AssertionError("a load made a random generator")

    with monkeypatch.context() as m:
        m.setattr(nn, "trunc_normal", no_draw)
        m.setattr(np.random, "default_rng", no_generator)
        back = load(tmp_path / "ck")
    assert back.cfg == w.cfg
    saved, loaded = w.params.state_dict(), back.params.state_dict()
    assert list(loaded) == list(saved)
    for name, arr in saved.items():
        assert loaded[name].dtype == np.float32 and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes(), name
    # seed=None keeps numpy's meaning, a fresh random init: every parameter
    # a seeded build draws is drawn, not left as a zero placeholder
    builder = {"seq2seq": seq2seq.build_model, "tokenizer": vq.build_tokenizer,
               "dual_encoder": contrastive.build_encoder}[kind]
    fresh = builder(w.cfg, None).params.state_dict()
    drawn = [name for name, arr in saved.items() if np.any(arr)]
    assert drawn and all(np.any(fresh[name]) for name in drawn)
