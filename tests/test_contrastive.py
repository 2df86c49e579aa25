"""Dual encoder: symmetric loss, temperature, retrieval."""

import tracemalloc

import numpy as np
import pytest

from ttig import contrastive, optim, scenes, seq2seq, textproc
from ttig import tensor as T
from ttig.errors import DataError

CFG = contrastive.EncoderConfig(d_model=32, n_blocks=1, heads=2, d_mlp=64,
                                d_e=16, text_vocab=300, text_len=16)


def _enc(seed=0, cfg=CFG):
    return contrastive.build_encoder(cfg, seed=seed)


def _data(n=8, seed=0):
    ds = scenes.gen_dataset(n, seed)
    vocab = textproc.train_bpe(ds.captions, vocab_size=300)
    ids = [textproc.encode_clipped(vocab, c, CFG.text_len) for c in ds.captions]
    return ds, vocab, ids


def test_tau_initialized_and_floored():
    enc = _enc()
    tau = enc.params["tau"].data
    assert abs(tau[0, 0] - contrastive.TAU_INIT) < 1e-4
    tau[:] = -5.0
    np.maximum(tau, contrastive.TAU_MIN, out=tau)
    assert tau[0, 0] == np.float32(contrastive.TAU_MIN)


def test_embeddings_are_unit_norm():
    enc = _enc()
    ds, _, ids = _data()
    zi = contrastive.embed_image(enc, ds.images)
    zt = contrastive.embed_text(enc, contrastive._pad_rows(CFG, ids))
    assert zi.shape == (8, CFG.d_e) and zt.shape == (8, CFG.d_e)
    np.testing.assert_allclose(np.linalg.norm(zi, axis=1), 1.0, atol=1e-5)
    np.testing.assert_allclose(np.linalg.norm(zt, axis=1), 1.0, atol=1e-5)


def test_image_features_precede_projection():
    enc = _enc()
    ds, _, _ = _data()
    feats = contrastive.image_features(enc, ds.images)
    assert feats.shape == (8, CFG.d_model)
    # unnormalized pooled features, not the unit-sphere projections
    assert np.abs(np.linalg.norm(feats, axis=1) - 1.0).max() > 1e-3


def test_initial_loss_near_log_batch():
    # default-width towers wash out input detail at init, so every logit row
    # is near uniform and the symmetric loss sits at ln(batch)
    cfg = contrastive.EncoderConfig()
    enc = contrastive.build_encoder(cfg, seed=0)
    ds, _, _ = _data(8)
    vocab = textproc.train_bpe(ds.captions, vocab_size=cfg.text_vocab)
    ids = [textproc.encode_clipped(vocab, c, cfg.text_len) for c in ds.captions]
    with T.Tape():
        loss = contrastive.contrastive_loss(enc, ds.images,
                                            contrastive._pad_rows(cfg, ids))
    assert abs(float(loss.data) - np.log(8)) < 0.35


def test_loss_requires_two_examples():
    enc = _enc()
    ds, _, ids = _data(2)
    with pytest.raises(DataError):
        contrastive.contrastive_loss(enc, ds.images[:1],
                                     contrastive._pad_rows(CFG, ids[:1]))
    with pytest.raises(DataError):
        contrastive.train_contrastive(ds.images, ids,
                                      contrastive.CLTrainConfig(steps=1, batch=1), CFG)


def test_loss_does_not_depend_on_pair_order():
    enc = _enc()
    ds, _, ids = _data()
    text = contrastive._pad_rows(CFG, ids)
    perm = np.random.default_rng(0).permutation(len(text))
    a = float(contrastive.contrastive_loss(enc, ds.images, text).data)
    b = float(contrastive.contrastive_loss(enc, ds.images[perm], text[perm]).data)
    assert abs(a - b) < 1e-5


def test_zero_learning_rate_leaves_encoder_at_init(monkeypatch):
    monkeypatch.setattr(optim, "lr_at", lambda step, steps, cfg: 0.0)
    ds, _, ids = _data()
    tcfg = contrastive.CLTrainConfig(steps=3, batch=8)
    enc, _ = contrastive.train_contrastive(ds.images, ids, tcfg, CFG)
    fresh = _enc(seed=tcfg.seed)
    for name, t in fresh.params.items():
        np.testing.assert_array_equal(enc.params[name].data, t.data)


def test_pad_rows_clips_and_pads():
    rows = contrastive._pad_rows(CFG, [[1, 2, 3], list(range(100))])
    assert rows.shape == (2, CFG.text_len)
    assert rows[0, 3] == textproc.PAD_ID
    assert rows.dtype == np.int64


def test_scorer_is_cosine_of_image_and_caption_embeddings():
    enc = _enc()
    ds, vocab, ids = _data()
    scores = contrastive.make_scorer(enc, vocab)(ds.images[:3], ds.captions[0])
    zt = contrastive.embed_text(enc, ids[0])[0]
    for k in range(3):
        zi = contrastive.embed_image(enc, ds.images[k:k + 1])[0]
        assert abs(scores[k] - float(zi @ zt)) < 1e-6
    assert np.all(np.abs(scores) <= 1.0 + 1e-6)  # cosine range


def test_short_training_separates_pairs():
    ds, vocab, ids = _data(32, seed=1)
    tcfg = contrastive.CLTrainConfig(steps=120, batch=16)
    enc, hist = contrastive.train_contrastive(ds.images, ids, tcfg, CFG)
    assert len(hist) == 120
    assert np.mean(hist[-20:]) < np.mean(hist[:20])
    zi = contrastive.embed_image(enc, ds.images)
    zt = contrastive.embed_text(enc, contrastive._pad_rows(CFG, ids))
    sims = zi @ zt.T
    matched = np.mean(np.diag(sims))
    mismatched = np.mean(sims[~np.eye(len(ds), dtype=bool)])
    assert matched > mismatched


def test_tau_stays_above_floor_during_training():
    ds, vocab, ids = _data(16, seed=2)
    tcfg = contrastive.CLTrainConfig(steps=30, batch=8)
    enc, _ = contrastive.train_contrastive(ds.images, ids, tcfg, CFG)
    assert enc.params["tau"].data[0, 0] >= contrastive.TAU_MIN


# ---------------------------------------------------------------- retrieval

def test_nearest_matches_brute_force():
    enc = _enc()
    ds, vocab, ids = _data(16, seed=3)
    emb = contrastive.embed_image(enc, ds.images)
    np.testing.assert_array_equal(contrastive.embed_image(enc, ds.images), emb)
    q = ids[5]
    got_rows, got_sims = contrastive.retrieve_nearest(enc, emb, q, 4)
    zq = contrastive.embed_text(enc, contrastive._pad_rows(CFG, [q]))[0]
    sims = emb @ zq
    order = np.lexsort((np.arange(16), -sims))[:4]
    np.testing.assert_array_equal(got_rows, order)
    np.testing.assert_allclose(got_sims, sims[order], atol=1e-7)
    assert (np.diff(got_sims) <= 1e-9).all()


def test_retrieval_ties_break_by_ascending_id():
    enc = _enc()
    ds, _, ids = _data(4)
    # rows 1-3 are one embedding, so they tie exactly
    z = contrastive.embed_image(enc, ds.images[:2])
    emb = z[[1, 0, 0, 0]]
    got_rows, got_sims = contrastive.retrieve_nearest(enc, emb, ids[0], 4)
    assert (np.diff(got_sims) <= 1e-9).all()
    assert [r for r in got_rows.tolist() if r != 0] == [1, 2, 3]


def test_retrieve_k_bounds():
    enc = _enc()
    ds, _, ids = _data(4)
    emb = contrastive.embed_image(enc, ds.images)
    for n, k in ((4, 0), (4, 5), (0, 1)):  # (0, 1): no rows to rank
        with pytest.raises(DataError, match=rf"k must be in \[1, {n}\], got {k}"):
            contrastive.retrieve_nearest(enc, emb[:n], ids[0], k)


def test_reranker_training_peak_at_the_benchmark_batch():
    # the default encoder at batch 64 on 512 training scenes: the phase that
    # sets the train benchmark's peak. Backward frees each record that keeps
    # its inputs as it runs it; an attention sublayer's record keeps its
    # LayerNorm's xhat and its softmax's row max and sum, not the LayerNorm
    # output, q, k, v or the probabilities, and dense scores run in blocks
    # of images: 31.1 MiB above start for 3 steps, against 41.4 MiB with
    # the sublayer as separate records and all the scores at once, and 50.8
    # MiB when besides that its record keeps the probabilities
    _, held = scenes.split_captions()
    ds = scenes.gen_dataset(512, 1, exclude_captions=held)
    vocab = textproc.train_bpe(ds.captions, vocab_size=seq2seq.DESK.text_vocab)
    cfg = contrastive.EncoderConfig()
    ids = [textproc.encode_clipped(vocab, c, cfg.text_len) for c in ds.captions]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        contrastive.train_contrastive(
            ds.images, ids, contrastive.CLTrainConfig(steps=3, batch=64, seed=1, warmup=1), cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak / 2**20
