"""Layer builders, ParamSet bookkeeping, attention masking."""

import dataclasses
import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from ttig import contrastive, nn, vq
from ttig import tensor as T
from ttig.errors import DataError


def _ps_linear(d_in=4, d_out=3, seed=0):
    ps = nn.ParamSet()
    nn.add_linear(ps, "lay", d_in, d_out, np.random.default_rng(seed))
    return ps


def test_add_linear_shapes_and_zero_bias():
    ps = _ps_linear()
    assert ps["lay.w"].data.shape == (4, 3)
    assert ps["lay.b"].data.shape == (3,)
    assert (ps["lay.b"].data == 0).all()


def test_linear_matches_manual_affine():
    ps = _ps_linear()
    x = np.random.default_rng(1).normal(size=(5, 4)).astype(np.float32)
    got = nn.linear(ps, "lay", T.constant(x)).data
    want = x @ ps["lay.w"].data + ps["lay.b"].data
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_add_ln_identity_affine_at_init():
    ps = nn.ParamSet()
    nn.add_ln(ps, "n", 8)
    assert (ps["n.g"].data == 1).all() and (ps["n.b"].data == 0).all()
    x = np.random.default_rng(0).normal(size=(3, 8)).astype(np.float32)
    got = nn.ln_affine(ps, "n", T.constant(x)).data
    np.testing.assert_array_equal(got, T._layer_norm(x)[0])


def test_add_block_param_names():
    ps = nn.ParamSet()
    nn.add_block(ps, "b0", 8, 16, np.random.default_rng(0))
    names = set(ps.params)
    for suffix in ("ln1.g", "attn.wq", "attn.bo", "ln2.g", "mlp.fc1.w", "mlp.fc2.b"):
        assert f"b0.{suffix}" in names
    assert not any(".xattn." in n for n in names)
    ps2 = nn.ParamSet()
    nn.add_block(ps2, "d0", 8, 16, np.random.default_rng(0), cross=True)
    assert "d0.xattn.wq" in ps2 and "d0.lnx.g" in ps2


def test_paramset_state_dict_roundtrip():
    ps = nn.ParamSet()
    nn.add_mlp(ps, "m", 4, 8, np.random.default_rng(0))
    state = ps.state_dict()
    ps2 = nn.ParamSet()
    nn.add_mlp(ps2, "m", 4, 8, np.random.default_rng(7))
    ps2.load_state(state)
    for name in ps.params:
        np.testing.assert_array_equal(ps[name].data, ps2[name].data)


def test_paramset_load_state_rejects_shape_mismatch():
    ps = nn.ParamSet()
    nn.add_ln(ps, "n", 4)
    with pytest.raises(DataError):
        ps.load_state({"n.g": np.ones(5, np.float32), "n.b": np.zeros(4, np.float32)})


def _attn_params(d):
    """The attention sublayer "a" and its LayerNorm "n" at width d."""
    ps = nn.ParamSet()
    nn.add_attn(ps, "a", d, np.random.default_rng(0))
    nn.add_ln(ps, "n", d)
    return ps


def test_attention_mask_blocks_future_positions():
    d, heads, L = 8, 2, 4
    ps = _attn_params(d)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, L, d)).astype(np.float32)
    causal = T.attention_window(np.tril(np.ones((L, L), bool)))
    base = nn.attention(ps, "a", "n", T.constant(x), heads, window=causal).data
    # changing position 3 must not affect outputs at positions 0..2
    x2 = x.copy()
    x2[0, 3] += 5.0
    out2 = nn.attention(ps, "a", "n", T.constant(x2), heads, window=causal).data
    np.testing.assert_array_equal(base[0, :3], out2[0, :3])
    assert np.abs(base[0, 3] - out2[0, 3]).max() > 0


def test_attention_all_allowed_matches_dense():
    d, heads, L = 8, 2, 3
    ps = _attn_params(d)
    x = np.random.default_rng(1).normal(size=(2, L, d)).astype(np.float32)
    full = T.attention_window(np.ones((L, L), bool))
    a = nn.attention(ps, "a", "n", T.constant(x), heads, window=full).data
    b = nn.attention(ps, "a", "n", T.constant(x), heads).data
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_cross_attention_reads_kv_not_x():
    d, heads = 8, 2
    ps = _attn_params(d)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 2, d)).astype(np.float32)
    kv = rng.normal(size=(1, 5, d)).astype(np.float32)
    out = nn.attention(ps, "a", "n", T.constant(x), heads, kv=T.constant(kv)).data
    kv2 = kv.copy()
    kv2[0, 4] += 3.0
    out2 = nn.attention(ps, "a", "n", T.constant(x), heads, kv=T.constant(kv2)).data
    assert np.abs(out - out2).max() > 0


@pytest.mark.parametrize("mask", ["dense", "windowed"])
def test_attention_ignores_a_key_bias(mask):
    # q . bk shifts every key's score of a query alike, which softmax ignores:
    # the reason add_attn creates no key bias
    B, L, d, heads = 2, 6, 8, 2
    rng = np.random.default_rng(2)
    q = rng.normal(size=(B, L, d)).astype(np.float32)
    S = 5 if mask == "dense" else L
    k, v = (rng.normal(size=(B, S, d)).astype(np.float32) for _ in range(2))
    bk = rng.normal(size=d).astype(np.float32)
    band = np.subtract.outer(np.arange(L), np.arange(L))
    window = None if mask == "dense" else T.attention_window((band >= 0) & (band <= 2))
    with_bias = T._attend(q, k + bk, v, heads, window, {})
    without = T._attend(q, k, v, heads, window, {})
    np.testing.assert_allclose(with_bias, without, atol=1e-6, rtol=0)


def test_attention_rejects_a_mask_with_kv():
    ps = _attn_params(8)
    x = T.constant(np.zeros((1, 3, 8), np.float32))
    window = T.attention_window(np.ones((3, 3), bool))
    with pytest.raises(T.ShapeError, match="self-attention only"):
        nn.attention(ps, "a", "n", x, 2, kv=x, window=window)


def test_trunc_normal_bounded_and_deterministic():
    a = nn.trunc_normal(np.random.default_rng(3), (200, 5), std=0.02)
    b = nn.trunc_normal(np.random.default_rng(3), (200, 5), std=0.02)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a).max() <= 2 * 0.02 + 1e-8
    assert a.dtype == np.float32


def test_grads_of_returns_only_reached_params():
    ps = nn.ParamSet()
    nn.add_linear(ps, "used", 3, 2, np.random.default_rng(0))
    nn.add_linear(ps, "unused", 3, 2, np.random.default_rng(1))
    x = T.constant(np.ones((4, 3), np.float32))
    with T.Tape():
        loss = T.reduce_sum(nn.linear(ps, "used", x))
    g = nn.grads_of(loss, ps)
    assert "used.w" in g and "used.b" in g
    assert "unused.w" not in g
    np.testing.assert_allclose(g["used.b"], 4.0 * np.ones(2), atol=1e-6)


def test_grads_of_skips_a_param_left_bound_to_an_earlier_tape():
    ps = nn.ParamSet()
    a = ps.add("a", np.ones(2, np.float32))
    b = ps.add("b", np.ones(2, np.float32))
    with T.Tape():
        T.reduce_sum(T.mul(a, b))
    with T.Tape():
        loss = T.reduce_sum(T.mul(b, T.constant(np.full(2, 4.0, np.float32))))
    assert a.node_id == b.node_id  # a's stale id names b on tape 2
    g = nn.grads_of(loss, ps)
    assert set(g) == {"b"}
    np.testing.assert_array_equal(g["b"], [4.0, 4.0])


def test_mse_oracle():
    a = T.constant(np.array([[1.0, 2.0]], np.float32))
    b = np.array([[0.0, 4.0]], np.float32)
    assert abs(float(nn.mse(a, b).data) - 2.5) < 1e-6


def test_dropout_train_and_eval_modes():
    x = T.constant(np.ones((200, 10), np.float32))
    assert nn.dropout(x, None) is x
    rng = np.random.default_rng(0)
    y = nn.dropout(x, (rng, 0.5)).data
    kept = y != 0
    # inverted dropout: kept entries rescaled by 1/keep
    np.testing.assert_allclose(y[kept], 2.0, atol=1e-6)
    assert 0.3 < kept.mean() < 0.7


def _param_digest(ps):
    """sha256 over every parameter's name, shape and bytes, in order."""
    h = hashlib.sha256()
    for name, t in ps.items():
        h.update(f"{name} {t.data.shape}\n".encode())
        h.update(t.data.tobytes())
    return h.hexdigest()[:16]


_SMALL_TOWER = dict(image_size=16, patch=2, d_model=16, n_blocks=1, heads=2, d_mlp=32)
_TOWER = ["image_size", "patch", "d_model", "n_blocks", "heads", "d_mlp"]


# each builder's parameters at seed 0 and its config's keys, pinned: a
# checkpoint's weights.bin follows the parameter order and its manifest.json
# embeds the config in asdict order, so a change to either breaks saved
# checkpoints
@pytest.mark.parametrize("build,cfg,digest,keys", [
    (vq.build_tokenizer, vq.TokenizerConfig(), "4d934fb2433a9441",
     _TOWER + ["d_code", "codebook_size"]),
    (vq.build_tokenizer, vq.TokenizerConfig(**_SMALL_TOWER, d_code=4, codebook_size=16),
     "19409b8af8daf2f3", _TOWER + ["d_code", "codebook_size"]),
    (contrastive.build_encoder, contrastive.EncoderConfig(), "313575aaa657c9d1",
     _TOWER + ["d_e", "text_vocab", "text_len"]),
    (contrastive.build_encoder, contrastive.EncoderConfig(**_SMALL_TOWER, d_e=8, text_vocab=64,
                                                          text_len=8),
     "298581de4ef5d8a8", _TOWER + ["d_e", "text_vocab", "text_len"]),
], ids=["tokenizer", "tokenizer-small", "reranker", "reranker-small"])
def test_patch_tower_builders_keep_their_parameters_and_config_keys(build, cfg, digest, keys):
    assert _param_digest(build(cfg, 0).params) == digest
    assert list(dataclasses.asdict(cfg)) == keys


def _traced(fn, x):
    """(fn(x), the tracemalloc peak of the call above what was live before it)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(x)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["embed_image", "image_features", "detokenize"])
def test_tape_free_tower_passes_run_in_bounded_chunks(monkeypatch, name):
    # three chunks' worth of inputs give the bytes of one call per chunk, and
    # the pass peaks near one chunk's call, not near three
    monkeypatch.setattr(nn, "TOWER_CHUNK", 4)
    rng = np.random.default_rng(0)
    if name == "detokenize":
        cfg = vq.TokenizerConfig(**_SMALL_TOWER, d_code=4, codebook_size=16)
        fn = functools.partial(vq.detokenize, vq.build_tokenizer(cfg, 0))
        x = rng.integers(0, cfg.codebook_size, (12, cfg.grid, cfg.grid))
    else:
        enc = contrastive.build_encoder(contrastive.EncoderConfig(
            **_SMALL_TOWER, d_e=8, text_vocab=64, text_len=8), 0)
        fn = functools.partial(getattr(contrastive, name), enc)
        x = rng.random((12, 16, 16, 3)).astype(np.float32)
    one, one_peak = _traced(fn, x[:4])
    whole, peak = _traced(fn, x)
    by_chunk = np.concatenate([one, fn(x[4:8]), fn(x[8:])])
    assert whole.dtype == by_chunk.dtype and whole.shape == by_chunk.shape
    assert whole.tobytes() == by_chunk.tobytes()
    assert peak < 1.5 * one_peak, (peak, one_peak)
