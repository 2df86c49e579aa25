"""Dual encoder: symmetric loss, temperature, retrieval, persistence."""

import numpy as np
import pytest

from ttig import contrastive, scenes, textproc
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
    assert abs(enc.tau - 1.0 / 0.07) < 1e-4
    enc.params["tau"].data[:] = -5.0
    np.maximum(enc.params["tau"].data, CFG.tau_min, out=enc.params["tau"].data)
    assert enc.tau == np.float32(CFG.tau_min)


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


def test_single_image_accepted_as_3d():
    enc = _enc()
    ds, _, _ = _data()
    one = contrastive.embed_image(enc, ds.images[0])
    np.testing.assert_allclose(one, contrastive.embed_image(enc, ds.images[:1]),
                               atol=1e-6)


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


def test_zero_learning_rate_leaves_encoder_at_init():
    ds, _, ids = _data()
    tcfg = contrastive.CLTrainConfig(steps=3, batch=8, lr=0.0, warmup=0)
    enc, _ = contrastive.train_contrastive(ds.images, ids, tcfg, CFG)
    fresh = _enc(seed=tcfg.seed)
    for name, t in fresh.params.items():
        np.testing.assert_array_equal(enc.params[name].data, t.data)


def test_pad_rows_clips_and_pads():
    rows = contrastive._pad_rows(CFG, [[1, 2, 3], list(range(100))])
    assert rows.shape == (2, CFG.text_len)
    assert rows[0, 3] == textproc.PAD_ID
    assert rows.dtype == np.int64


def test_alignment_score_matches_scorer():
    enc = _enc()
    ds, vocab, ids = _data()
    s1 = contrastive.alignment_score(enc, ds.images[0], ids[0])
    scorer = contrastive.make_scorer(enc, vocab)
    s2 = scorer(ds.images[:1], ds.captions[0])[0]
    assert abs(s1 - s2) < 1e-6
    assert -1.0 - 1e-6 <= s1 <= 1.0 + 1e-6  # cosine range


def test_short_training_separates_pairs():
    ds, vocab, ids = _data(32, seed=1)
    tcfg = contrastive.CLTrainConfig(steps=120, batch=16, log_every=40)
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
    cfg = contrastive.EncoderConfig(d_model=32, n_blocks=1, heads=2, d_mlp=64,
                                    d_e=16, text_vocab=300, text_len=16,
                                    tau_min=1e-3)
    tcfg = contrastive.CLTrainConfig(steps=30, batch=8)
    enc, _ = contrastive.train_contrastive(ds.images, ids, tcfg, cfg)
    assert enc.tau >= cfg.tau_min


# ---------------------------------------------------------------- retrieval

def test_build_index_and_nearest_matches_brute_force():
    enc = _enc()
    ds, vocab, ids = _data(16, seed=3)
    index = contrastive.build_index(enc, ds.images)
    assert len(index) == 16
    np.testing.assert_array_equal(contrastive.build_index(enc, ds.images).embeddings,
                                  index.embeddings)
    q = ids[5]
    got_ids, got_sims = contrastive.retrieve_nearest(enc, index, q, 4)
    zq = contrastive.embed_text(enc, contrastive._pad_rows(CFG, [q]))[0]
    sims = index.embeddings @ zq
    order = np.lexsort((index.ids, -sims))[:4]
    np.testing.assert_array_equal(got_ids, index.ids[order])
    np.testing.assert_allclose(got_sims, sims[order], atol=1e-7)
    assert (np.diff(got_sims) <= 1e-9).all()


def test_retrieval_ties_break_by_ascending_id():
    enc = _enc()
    ds, _, ids = _data(4)
    # identical embeddings forced: duplicate one image three times
    imgs = np.stack([ds.images[0]] * 3 + [ds.images[1]])
    index = contrastive.build_index(enc, imgs)
    got_ids, got_sims = contrastive.retrieve_nearest(enc, index, ids[0], 4)
    assert (np.diff(got_sims) <= 1e-9).all()
    # within every run of equal sims, ids ascend
    for i in range(3):
        if got_sims[i] == got_sims[i + 1]:
            assert got_ids[i] < got_ids[i + 1]


def test_retrieve_k_bounds():
    enc = _enc()
    ds, _, ids = _data(4)
    index = contrastive.build_index(enc, ds.images)
    with pytest.raises(DataError):
        contrastive.retrieve_nearest(enc, index, ids[0], 0)
    with pytest.raises(DataError):
        contrastive.retrieve_nearest(enc, index, ids[0], 5)


def test_build_index_custom_ids_and_empty_rejection():
    enc = _enc()
    ds, _, _ = _data(4)
    idx = contrastive.build_index(enc, ds.images, ids=[10, 20, 30, 40])
    np.testing.assert_array_equal(idx.ids, [10, 20, 30, 40])
    with pytest.raises(DataError):
        contrastive.build_index(enc, np.zeros((0, 32, 32, 3), np.float32))


def test_index_save_load_roundtrip(tmp_path):
    enc = _enc()
    ds, _, ids = _data(6)
    index = contrastive.build_index(enc, ds.images)
    contrastive.save_index(index, tmp_path / "idx")
    back = contrastive.load_index(tmp_path / "idx")
    np.testing.assert_array_equal(back.embeddings, index.embeddings)
    np.testing.assert_array_equal(back.ids, index.ids)
    a_ids, a_sims = contrastive.retrieve_nearest(enc, index, ids[2], 3)
    b_ids, b_sims = contrastive.retrieve_nearest(enc, back, ids[2], 3)
    np.testing.assert_array_equal(a_ids, b_ids)
    np.testing.assert_array_equal(a_sims, b_sims)


def test_load_index_rejects_bad_dir(tmp_path):
    with pytest.raises(DataError):
        contrastive.load_index(tmp_path / "missing")
