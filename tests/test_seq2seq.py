"""Encoder-decoder model: shapes, causality, conditioning, short training."""

import numpy as np
import pytest

from ttig import seq2seq, textproc
from ttig import tensor as T
from ttig.errors import DataError

TINY = seq2seq.ModelConfig(enc_layers=1, dec_layers=2, d_model=32, d_mlp=64,
                           heads=2, text_vocab=300, image_vocab=16,
                           text_len=12, grid_h=4, grid_w=4)


def _model(cfg=TINY, seed=0):
    return seq2seq.build_model(cfg, seed=seed)


def _ids(cfg=TINY, B=2, seed=0):
    rng = np.random.default_rng(seed)
    text = rng.integers(4, cfg.text_vocab, (B, cfg.text_len))
    img = rng.integers(0, cfg.image_vocab, (B, cfg.image_len))
    return text, img


def test_logits_shape_and_determinism():
    w = _model()
    text, img = _ids()
    out = seq2seq.logits_fn(w, text, img).data
    assert out.shape == (2, TINY.image_len, TINY.image_vocab)
    np.testing.assert_array_equal(out, seq2seq.logits_fn(w, text, img).data)


def test_decoder_causality_exact():
    # changing image token t must leave logits at positions <= t unchanged
    w = _model()
    text, img = _ids()
    base = seq2seq.logits_fn(w, text, img).data
    img2 = img.copy()
    t = 9
    img2[:, t] = (img2[:, t] + 1) % TINY.image_vocab
    out2 = seq2seq.logits_fn(w, text, img2).data
    np.testing.assert_array_equal(base[:, :t + 1], out2[:, :t + 1])
    assert np.abs(base[:, t + 1:] - out2[:, t + 1:]).max() > 0


def test_first_position_ignores_all_image_tokens():
    w = _model()
    text, img = _ids()
    a = seq2seq.logits_fn(w, text, img).data[:, 0]
    img2 = (img + 3) % TINY.image_vocab
    b = seq2seq.logits_fn(w, text, img2).data[:, 0]
    np.testing.assert_array_equal(a, b)


def test_text_conditioning_changes_logits():
    w = _model()
    text, img = _ids()
    text2 = text.copy()
    text2[:, 2:] = (text2[:, 2:] + 7) % (TINY.text_vocab - 4) + 4
    a = seq2seq.logits_fn(w, text, img).data
    b = seq2seq.logits_fn(w, text2, img).data
    assert np.abs(a - b).max() > 0


def test_trim_pad_drops_shared_trailing_pads_only():
    text = np.array([[5, 6, 0, 0], [7, 0, 8, 0]])
    out = seq2seq.trim_pad(text)
    np.testing.assert_array_equal(out, text[:, :3])  # col 2 still has a non-pad
    all_pad = np.zeros((2, 4), np.int64)
    assert seq2seq.trim_pad(all_pad).shape == (2, 1)


def test_encoder_rows_are_independent():
    # row r of a batch encodes identically to that row alone
    w = _model()
    text, img = _ids(B=3)
    batch = seq2seq.encode_text(w, text).data
    solo = seq2seq.encode_text(w, text[1:2]).data
    np.testing.assert_allclose(batch[1:2], solo, atol=1e-6)


def test_drop_condition_rates():
    rng = np.random.default_rng(0)
    text = np.full((400, 6), 9)
    out = seq2seq.drop_condition(text, rng, 0.25)
    dropped = (out == textproc.PAD_ID).all(axis=1)
    assert 0.15 < dropped.mean() < 0.35
    kept = ~dropped
    np.testing.assert_array_equal(out[kept], text[kept])
    np.testing.assert_array_equal(seq2seq.drop_condition(text, rng, 0.0), text)


def test_forward_loss_near_uniform_at_init():
    w = _model()
    text, img = _ids(B=4)
    loss = float(seq2seq.forward_loss(w, text, img).data)
    assert abs(loss - np.log(TINY.image_vocab)) < 0.5


def test_bad_ids_rejected():
    w = _model()
    text, img = _ids()
    with pytest.raises(DataError):
        seq2seq.logits_fn(w, text, img[:, :-1])  # wrong image length
    bad_text = text.copy()
    bad_text[0, 0] = TINY.text_vocab
    with pytest.raises(DataError):
        seq2seq.logits_fn(w, bad_text, img)
    with pytest.raises(DataError):
        seq2seq.encode_text(w, np.zeros((2, TINY.text_len + 1), np.int64))


def test_conv_sparse_mask_window():
    m = seq2seq.conv_sparse_mask(3, 3, 3)
    assert m.shape == (9, 9)
    assert m.dtype == bool
    # strictly causal in raster order plus locality: row i allows only j <= i
    assert not np.triu(m, 1).any()
    assert m.diagonal().all()
    # position 8 (center-adjacent corner) must see its spatial neighborhood only
    allowed = np.where(m[8])[0]
    assert set(allowed) <= set(range(9))
    # the center cell sees the row above and its left neighbour
    assert set(np.flatnonzero(m[4])) == {0, 1, 2, 3, 4}
    np.testing.assert_array_equal(seq2seq.conv_sparse_mask(3, 3, 1), np.eye(9, dtype=bool))
    with pytest.raises(DataError):
        seq2seq.conv_sparse_mask(3, 3, 2)


def test_build_model_is_seeded_and_validated():
    a, b = _model(seed=3), _model(seed=3)
    for name in a.params.names():
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    with pytest.raises(DataError):
        seq2seq.build_model(seq2seq.ModelConfig(d_model=66), seed=0)  # 4 heads


def test_full_condition_dropout_ignores_the_text():
    w = _model()
    text, img = _ids(B=4)
    text2, _ = _ids(B=4, seed=1)
    losses = [float(seq2seq.forward_loss(w, t, img, rng=np.random.default_rng(9),
                                         cond_dropout_rate=1.0).data)
              for t in (text, text2)]
    assert losses[0] == losses[1]


@pytest.mark.parametrize("name", ["image_emb", "dec.b0.attn.wq", "enc.b0.mlp.fc1.w",
                                  "out.w", "dec.start"])
def test_forward_loss_gradient_matches_finite_differences(name):
    cfg = seq2seq.ModelConfig(enc_layers=1, dec_layers=1, d_model=8, d_mlp=16, heads=2,
                              text_vocab=11, image_vocab=5, text_len=3, grid_h=2,
                              grid_w=2, dropout=0.0)
    w = _model(cfg, seed=1)
    for t in w.params.params.values():
        t.data = t.data.astype(np.float64)
    rng = np.random.default_rng(2)
    text, img = rng.integers(0, 11, (2, 3)), rng.integers(0, 5, (2, 4))

    def loss_at(leaf):
        w.params.params[name] = leaf
        return seq2seq.forward_loss(w, text, img)

    assert T.grad_check(loss_at, w.params[name].data, eps=1e-4) < 1e-4


def test_param_count_reports_totals():
    pc = seq2seq.param_count(TINY)
    w = _model()
    assert pc["total"] == w.params.n_params()


def test_short_training_run_reduces_loss():
    rng = np.random.default_rng(0)
    n = 64
    text = rng.integers(4, TINY.text_vocab, (n, TINY.text_len))
    # make images a deterministic function of text so there is signal
    img = (text.sum(axis=1, keepdims=True) + np.arange(TINY.image_len)) % TINY.image_vocab
    w = _model()
    tcfg = seq2seq.TrainConfig(steps=80, batch=16, log_every=20)
    w, hist = seq2seq.train_model(w, text, img, tcfg)
    assert len(hist) == 80
    assert np.mean(hist[-10:]) < np.mean(hist[:10])


def test_train_model_hooks_fire():
    w = _model()
    text, img = _ids(B=8, seed=3)
    seen = []
    tcfg = seq2seq.TrainConfig(steps=6, batch=4, log_every=2)
    seq2seq.train_model(w, text, img, tcfg,
                        hooks=[lambda step, loss, ww: seen.append((step, loss))])
    assert [s for s, _ in seen] == [2, 4, 6]


def test_smoothed_window_mean():
    hist = list(range(10))
    assert seq2seq.smoothed(hist, window=4) == np.mean([6, 7, 8, 9])
    assert seq2seq.smoothed([5.0], window=100) == 5.0


def test_pretrain_text_encoder_runs_and_changes_encoder():
    w = _model()
    before = w.params["enc.b0.attn.wq"].data.copy()
    decoder = {n: t.data.copy() for n, t in w.params.items()
               if n.startswith("dec.") or n.startswith("out.")}
    corpus = np.random.default_rng(0).integers(4, TINY.text_vocab, (32, TINY.text_len))
    w, hist = seq2seq.pretrain_text_encoder(w, corpus, steps=80, batch=16)
    assert len(hist) == 80
    assert np.mean(hist[-10:]) < np.mean(hist[:10])
    assert np.abs(w.params["enc.b0.attn.wq"].data - before).max() > 0
    for n, arr in decoder.items():
        np.testing.assert_array_equal(w.params[n].data, arr)


def test_pretrain_without_masking_is_a_no_op():
    w = _model()
    corpus = np.random.default_rng(0).integers(4, TINY.text_vocab, (32, TINY.text_len))
    w, hist = seq2seq.pretrain_text_encoder(w, corpus, mask_rate=0.0, steps=3, batch=8)
    assert hist == [0.0] * 3
    fresh = _model()
    for n, t in w.params.items():
        np.testing.assert_array_equal(t.data, fresh.params[n].data)
