"""Quantizer math, tokenizer pipeline, codebook stats."""

import numpy as np
import pytest

from ttig import nn, scenes, vq
from ttig import tensor as T
from ttig.errors import DataError, NumericError


def _unit_codebook(K=8, d=4, seed=0):
    cb = np.random.default_rng(seed).normal(size=(K, d)).astype(np.float32)
    return cb / np.linalg.norm(cb, axis=1, keepdims=True)


def test_patchify_unpatchify_roundtrip():
    imgs = np.random.default_rng(0).random((3, 16, 16, 3)).astype(np.float32)
    flat = vq.patchify(imgs, 4)
    assert flat.shape == (3, 16, 48)
    back = vq.unpatchify(flat, 4, 4)
    np.testing.assert_array_equal(back, imgs)


def test_quantize_returns_nearest_rows():
    cb = _unit_codebook()
    z = cb[[2, 5, 0]] * 3.0  # scaled copies still map to the same rows
    np.testing.assert_array_equal(vq.quantize(cb, z), [2, 5, 0])


def test_quantize_maps_each_code_row_to_itself():
    cb = _unit_codebook()
    np.testing.assert_array_equal(vq.quantize(cb, cb.copy()), np.arange(len(cb)))


def test_quantize_hand_case_and_ties():
    cb = np.array([[1.0, 0.0], [0.0, 1.0]])
    z = np.array([[0.9, 0.1], [0.1, 0.9]])
    assert vq.quantize(cb, z).tolist() == [0, 1]
    # a duplicated codebook row goes to the lower index
    ids = vq.quantize(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[2.0, 0.0]]))
    assert ids.tolist() == [0]


def test_quantize_idempotent():
    cb = _unit_codebook()
    z = np.random.default_rng(1).normal(size=(10, 4)).astype(np.float32)
    ids = vq.quantize(cb, z)
    np.testing.assert_array_equal(vq.quantize(cb, cb[ids]), ids)


def test_quantize_batched_leading_dims():
    cb = _unit_codebook()
    z = np.random.default_rng(2).normal(size=(2, 5, 4)).astype(np.float32)
    ids = vq.quantize(cb, z)
    assert ids.shape == (2, 5)
    ids_flat = vq.quantize(cb, z.reshape(-1, 4))
    np.testing.assert_array_equal(ids.reshape(-1), ids_flat)


def test_quantize_rejects_bad_inputs():
    cb = _unit_codebook()
    with pytest.raises(DataError):
        vq.quantize(cb, np.ones((3, 5), np.float32))  # dim mismatch
    with pytest.raises(NumericError):
        vq.quantize(cb * 2.0, np.ones((3, 4), np.float32))  # not unit norm
    z = np.ones((2, 4), np.float32)
    z[0, 0] = np.nan
    with pytest.raises(NumericError):
        vq.quantize(cb, z)
    with pytest.raises(NumericError):
        vq.quantize(cb, np.zeros((1, 4), np.float32))  # zero-norm code


def test_straight_through_identity_gradient():
    # gradient of sum(z + const(zq - z)) w.r.t. z must be exactly ones
    z = T.Tensor(np.random.default_rng(0).normal(size=(4, 4)).astype(np.float32),
                 requires_grad=True)
    cb = _unit_codebook()
    with T.Tape():
        zn = T.l2_normalize(z, eps=0.0)
        zq = cb[vq.quantize(cb, zn.data)]
        st = T.add(z, T.constant(zq - z.data))
        loss = T.reduce_sum(T.mul(st, st))
    g = T.backward(loss)[z.node_id].data
    want = 2.0 * (z.data + (zq - z.data))  # d(st^2)/d st, identity through st
    np.testing.assert_allclose(g, want, atol=1e-5)


def test_build_tokenizer_shapes_and_validation():
    cfg = vq.TokenizerConfig()
    w = vq.build_tokenizer(cfg, seed=0)
    assert w.codebook.shape == (cfg.codebook_size, cfg.d_code)
    with pytest.raises(DataError):
        vq.build_tokenizer(vq.TokenizerConfig(image_size=30), seed=0)


def test_tokenize_detokenize_shapes_and_determinism():
    cfg = vq.TokenizerConfig()
    w = vq.build_tokenizer(cfg, seed=0)
    # normalize codebook so quantize accepts it
    w.params["codebook"].data /= np.linalg.norm(w.codebook, axis=1, keepdims=True)
    ds = scenes.gen_dataset(4, 0)
    toks = vq.tokenize(w, ds.images)
    assert toks.shape == (4, cfg.grid, cfg.grid)
    assert toks.min() >= 0 and toks.max() < cfg.codebook_size
    np.testing.assert_array_equal(toks, vq.tokenize(w, ds.images))
    np.testing.assert_array_equal(vq.tokenize(w, ds.images[:1]), toks[:1])  # one image
    imgs = vq.detokenize(w, toks)
    assert imgs.shape == ds.images.shape
    assert np.isfinite(imgs).all()
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0


def test_chunked_tokenize_equals_one_image_at_a_time(monkeypatch):
    w = vq.build_tokenizer(vq.TokenizerConfig(), seed=0)
    images = scenes.gen_dataset(130, 0).images  # chunks of 64, 64 and 2
    assert len(images) > 2 * nn.TOWER_CHUNK
    toks = vq.tokenize(w, images)
    one_by_one = np.concatenate([vq.tokenize(w, images[i:i + 1])
                                 for i in range(len(images))])
    np.testing.assert_array_equal(toks, one_by_one)
    monkeypatch.setattr(nn, "TOWER_CHUNK", len(images))  # one pass over all
    np.testing.assert_array_equal(vq.tokenize(w, images), toks)


def test_short_tokenizer_training_reduces_loss_and_keeps_unit_norm():
    ds = scenes.gen_dataset(64, 0)
    cfg = vq.TokenizerConfig(codebook_size=16)
    tcfg = vq.TokTrainConfig(steps=60, batch=16, warmup=5)
    w, hist = vq.train_tokenizer(ds.images, cfg, tcfg)
    assert len(hist) == 60
    assert np.mean(hist[-10:]) < np.mean(hist[:10])
    np.testing.assert_allclose(np.linalg.norm(w.codebook, axis=1), 1.0, atol=1e-5)


def test_codebook_stats_oracle():
    # 3 codes over K=4: usage 3/4, perplexity from the empirical distribution
    stream = np.array([0, 0, 1, 2, 2, 2])
    st = vq.codebook_stats(stream, 4)
    p = np.array([2, 1, 3, 0]) / 6.0
    nz = p[p > 0]
    want_perp = float(np.exp(-(nz * np.log(nz)).sum()))
    assert st["usage_fraction"] == 0.75
    assert abs(st["perplexity"] - want_perp) < 1e-9


def test_codebook_stats_uniform_hits_K():
    st = vq.codebook_stats(np.arange(16), 16)
    assert st["usage_fraction"] == 1.0
    assert abs(st["perplexity"] - 16.0) < 1e-9
