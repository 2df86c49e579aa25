"""Quantizer math, tokenizer pipeline, codebook stats, 2x upsampler."""

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
    ids, zq, cl, co = vq.quantize(cb, z)
    np.testing.assert_array_equal(ids, [2, 5, 0])
    np.testing.assert_allclose(zq, cb[[2, 5, 0]], atol=1e-6)


def test_quantize_exact_match_zero_loss():
    cb = _unit_codebook()
    ids, zq, cl, co = vq.quantize(cb, cb.copy())
    assert cl < 1e-12 and co < 1e-12
    np.testing.assert_array_equal(ids, np.arange(len(cb)))


def test_quantize_hand_case_losses_and_ties():
    cb = np.array([[1.0, 0.0], [0.0, 1.0]])
    z = np.array([[0.9, 0.1], [0.1, 0.9]])
    ids, zq, cl, co = vq.quantize(cb, z)
    assert ids.tolist() == [0, 1]
    zhat = z / np.linalg.norm(z, axis=1, keepdims=True)
    assert abs(cl - ((zhat - cb) ** 2).sum(axis=1).mean()) < 1e-12
    assert cl == co
    # a duplicated codebook row goes to the lower index
    ids, _, _, _ = vq.quantize(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[2.0, 0.0]]))
    assert ids.tolist() == [0]


def test_quantize_idempotent():
    cb = _unit_codebook()
    z = np.random.default_rng(1).normal(size=(10, 4)).astype(np.float32)
    ids1, zq1, _, _ = vq.quantize(cb, z)
    ids2, zq2, cl2, _ = vq.quantize(cb, zq1)
    np.testing.assert_array_equal(ids1, ids2)
    np.testing.assert_array_equal(zq1, zq2)
    assert cl2 < 1e-12


def test_quantize_batched_leading_dims():
    cb = _unit_codebook()
    z = np.random.default_rng(2).normal(size=(2, 5, 4)).astype(np.float32)
    ids, zq, _, _ = vq.quantize(cb, z)
    assert ids.shape == (2, 5) and zq.shape == (2, 5, 4)
    ids_flat, _, _, _ = vq.quantize(cb, z.reshape(-1, 4))
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
        zn = T.l2_normalize(z, axis=-1, eps=0.0)
        _, zq, _, _ = vq.quantize(cb, zn.data)
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
    np.testing.assert_array_equal(vq.tokenize(w, ds.images[0]), toks[0])  # one image
    imgs = vq.detokenize(w, toks)
    assert imgs.shape == ds.images.shape
    assert np.isfinite(imgs).all()
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0


def test_chunked_tokenize_equals_one_image_at_a_time(monkeypatch):
    w = vq.build_tokenizer(vq.TokenizerConfig(), seed=0)
    images = scenes.gen_dataset(130, 0).images  # chunks of 64, 64 and 2
    assert len(images) > 2 * vq.TOKENIZE_CHUNK
    toks = vq.tokenize(w, images)
    one_by_one = np.stack([vq.tokenize(w, im) for im in images])
    np.testing.assert_array_equal(toks, one_by_one)
    monkeypatch.setattr(vq, "TOKENIZE_CHUNK", len(images))  # one pass over all
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


def test_nn_upsample_baseline_repeats():
    img = np.arange(12, dtype=np.float32).reshape(1, 2, 2, 3)
    up = vq.nn_upsample_baseline(img)
    assert up.shape == (1, 4, 4, 3)
    np.testing.assert_array_equal(up[0, :2, :2, 0], np.full((2, 2), img[0, 0, 0, 0]))


def test_sr_upsample_shape_and_training_improves_over_start():
    lo = scenes.gen_dataset(24, 0, size=16).images
    hi = scenes.gen_dataset(24, 0, size=32).images
    cfg = vq.SRConfig(n_blocks=2, channels=8)
    w0 = vq.build_sr(cfg, seed=0)
    base = float(np.mean((vq.upsample(w0, lo) - hi) ** 2))
    w, hist = vq.train_sr(lo, hi, cfg, steps=80, batch=8, seed=0)
    trained = float(np.mean((vq.upsample(w, lo) - hi) ** 2))
    assert vq.upsample(w, lo).shape == (24, 32, 32, 3)
    assert trained < base
    assert np.mean(hist[-10:]) < np.mean(hist[:10])


def test_train_sr_rejects_mismatched_pairs():
    lo = np.zeros((3, 16, 16, 3), np.float32)
    hi = np.zeros((2, 32, 32, 3), np.float32)
    with pytest.raises(DataError):
        vq.train_sr(lo, hi, vq.SRConfig(), steps=1)
