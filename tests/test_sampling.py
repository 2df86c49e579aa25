"""Guided decoding: algebra, filtering, rng discipline, cache parity, and the
buffered step's bits against the unbuffered reference."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ttig import sampling, scenes, seq2seq, textproc, vq
from ttig import tensor as T
from ttig.errors import DataError, NumericError

TINY = seq2seq.ModelConfig(enc_layers=1, dec_layers=2, d_model=32, d_mlp=64,
                           heads=2, text_vocab=300, image_vocab=16,
                           text_len=12, grid_h=4, grid_w=4)


def _model(seed=0):
    return seq2seq.build_model(TINY, seed=seed)


def _text(B=1, seed=0):
    return np.random.default_rng(seed).integers(4, TINY.text_vocab, (B, 8))


# ------------------------------------------------------------------ algebra

def test_guided_logits_literal_case():
    # float64 so the decimal literals are meaningful at 1e-12
    u = np.array([[0.0, 1.0]], np.float64)
    c = np.array([[1.0, 0.0]], np.float64)
    out = sampling.guided_logits(u, c, 1.2)
    np.testing.assert_allclose(out, [[1.2, -0.2]], atol=1e-12)


def test_guided_logits_extrapolates_past_conditional():
    u = np.zeros((1, 4), np.float32)
    c = np.array([[0.0, 2.0, 0.0, 0.0]], np.float32)
    out = sampling.guided_logits(u, c, 2.0)
    np.testing.assert_allclose(out, 2.0 * c, atol=1e-6)


def test_guided_logits_shape_mismatch_rejected():
    with pytest.raises(DataError):
        sampling.guided_logits(np.zeros((2, 3), np.float32),
                               np.zeros((2, 4), np.float32), 1.0)


# ---------------------------------------------------------------- filtering

def test_top_k_keeps_k_largest():
    z = np.array([[1.0, 5.0, 3.0, 2.0, 4.0]], np.float32)
    out = sampling._filter_top_k(z, 2)
    finite = np.isfinite(out)
    assert finite.sum() == 2
    assert finite[0, 1] and finite[0, 4]
    np.testing.assert_array_equal(out[finite], [5.0, 4.0])


def test_top_k_zero_keeps_everything():
    z = np.random.default_rng(0).normal(size=(2, 6)).astype(np.float32)
    np.testing.assert_array_equal(sampling._filter_top_k(z, 0), z)


def test_sampler_config_validation():
    # a SamplerConfig checks itself when built; top_k's bound is the model's
    for bad in ({"top_k": -2}, {"n_samples": 0}):
        with pytest.raises(DataError):
            sampling.SamplerConfig(**bad)
    w = _model()
    assert w.cfg.image_vocab == 16
    sampling.sample_token_batch(w, _text(), sampling.SamplerConfig(top_k=16, n_samples=1))
    with pytest.raises(DataError, match="^sampler.top_k must be at most image_vocab 16, got 17$"):
        sampling.sample_token_batch(w, _text(), sampling.SamplerConfig(top_k=17, n_samples=1))


# ---------------------------------------------------------------- sampling

def test_sample_tokens_deterministic_per_seed():
    w = _model()
    text = _text()
    cfg = sampling.SamplerConfig(guidance=1.2, n_samples=3, seed=5)
    a = sampling.sample_token_batch(w, text, cfg)
    b = sampling.sample_token_batch(w, text, cfg)
    np.testing.assert_array_equal(a, b)
    c = sampling.sample_token_batch(w, text, sampling.SamplerConfig(
        guidance=1.2, n_samples=3, seed=6))
    assert not np.array_equal(a, c)


def test_samples_in_batch_differ_across_chains():
    w = _model()
    cfg = sampling.SamplerConfig(guidance=1.0, n_samples=4, seed=0)
    toks = sampling.sample_token_batch(w, _text(), cfg)
    assert toks.shape == (4, TINY.grid_h, TINY.grid_w)
    flat = toks.reshape(4, -1)
    assert len({tuple(r) for r in flat}) > 1


def test_guidance_zero_ignores_the_prompt():
    w = _model()
    cfg = sampling.SamplerConfig(guidance=0.0, n_samples=2, seed=9)
    a = sampling.sample_token_batch(w, _text(seed=1), cfg)
    b = sampling.sample_token_batch(w, _text(seed=2), cfg)
    np.testing.assert_array_equal(a, b)


def test_guidance_one_matches_conditional_only_path():
    # lambda=1 must short-circuit to the conditional branch exactly
    w = _model()
    text = _text()
    cfg = sampling.SamplerConfig(guidance=1.0, n_samples=2, seed=3)
    a = sampling.sample_token_batch(w, text, cfg)
    b = sampling.sample_token_batch(w, text, cfg)
    np.testing.assert_array_equal(a, b)


def test_top_k_one_is_greedy_and_consumes_no_uniforms():
    w = _model()
    text = _text()
    calls = []

    def counting_uniform(t):
        calls.append(t)
        return np.zeros(1)

    cfg = sampling.SamplerConfig(guidance=1.0, n_samples=1, top_k=1, seed=0)
    toks = sampling._run_chains(w, text, 1, cfg, counting_uniform)
    assert calls == []
    # greedy equals itself under a different seed
    cfg2 = sampling.SamplerConfig(guidance=1.0, n_samples=1, top_k=1, seed=77)
    toks2 = sampling.sample_token_batch(w, text, cfg2)
    np.testing.assert_array_equal(toks.reshape(1, TINY.grid_h, TINY.grid_w), toks2)


def test_exactly_one_uniform_per_step_per_sample():
    w = _model()
    text = _text()
    counts = []

    def counting_uniform(t):
        counts.append(t)
        return np.full(3, 0.5)

    cfg = sampling.SamplerConfig(guidance=1.2, n_samples=3, seed=0)
    sampling._run_chains(w, text, 3, cfg, counting_uniform)
    assert counts == list(range(TINY.image_len))


def test_vector_draw_equals_scalar_draws_for_one_stream():
    seq = np.random.SeedSequence(11, spawn_key=(3,))
    scalar = np.random.default_rng(seq)
    vector = np.random.default_rng(seq).random(TINY.image_len)
    np.testing.assert_array_equal(vector, [scalar.random() for _ in range(TINY.image_len)])


def test_sample_token_batch_equals_one_scalar_draw_per_step():
    w = _model()
    text = _text()
    cfg = sampling.SamplerConfig(guidance=1.2, n_samples=3, seed=5)
    rngs = [np.random.default_rng(np.random.SeedSequence(5, spawn_key=(i,))) for i in range(3)]
    want = sampling._run_chains(w, text, 3, cfg,
                                lambda t: np.array([r.random() for r in rngs]))
    np.testing.assert_array_equal(sampling.sample_token_batch(w, text, cfg), want)


def test_nonfinite_probability_row_raises():
    with pytest.raises(NumericError):
        sampling._probs_from(np.full((1, 5), -np.inf, np.float32),
                             sampling.SamplerConfig())


@pytest.mark.parametrize("top_k", [0, 1, 5])
def test_probs_are_the_softmax_of_the_filtered_logits(top_k):
    # the head normalises the filtered logits in place: the probabilities
    # must be exactly the softmax of a filtered copy, and the logits must
    # come back untouched
    logits = (np.random.default_rng(6).normal(size=(6, 16)) * 3).astype(np.float32)
    kept = logits.copy()
    z = sampling._filter_top_k(logits.copy(), top_k)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    got = sampling._probs_from(logits, sampling.SamplerConfig(top_k=top_k))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(logits, kept)


def test_inverse_cdf_draw_covers_edges():
    probs = np.array([[0.25, 0.25, 0.5]], np.float64)
    assert sampling._draw(probs, np.array([0.0]))[0] == 0
    assert sampling._draw(probs, np.array([0.2499]))[0] == 0
    assert sampling._draw(probs, np.array([0.25]))[0] == 1
    assert sampling._draw(probs, np.array([0.9999]))[0] == 2
    assert sampling._draw(probs, np.array([1.0 - 1e-16]))[0] == 2


# ------------------------------------------------------------ generate/rerank

def _pipeline_bits():
    ds = scenes.gen_dataset(8, 0)
    vocab = textproc.train_bpe(ds.captions, vocab_size=300)
    tok_cfg = vq.TokenizerConfig(codebook_size=16, d_code=8)
    tw = vq.build_tokenizer(tok_cfg, seed=0)
    tw.params["codebook"].data /= np.linalg.norm(tw.codebook, axis=1, keepdims=True)
    mcfg = seq2seq.ModelConfig(enc_layers=1, dec_layers=2, d_model=32, d_mlp=64,
                               heads=2, text_vocab=300, image_vocab=16,
                               text_len=12, grid_h=8, grid_w=8)
    w = seq2seq.build_model(mcfg, seed=0)
    return ds, vocab, tw, w


def test_generate_returns_images_and_grids():
    ds, vocab, tw, w = _pipeline_bits()
    cfg = sampling.SamplerConfig(guidance=1.2, n_samples=2, seed=0)
    batch = sampling.generate(w, vocab, tw, ds.captions[0], cfg)
    assert batch.prompt == ds.captions[0]
    assert batch.grids.shape == (2, 8, 8)
    assert batch.images.shape == (2, 32, 32, 3)
    assert batch.scores is None


def test_rerank_orders_by_scorer_descending():
    ds, vocab, tw, w = _pipeline_bits()
    cfg = sampling.SamplerConfig(guidance=1.0, n_samples=4, seed=1)
    batch = sampling.generate(w, vocab, tw, ds.captions[0], cfg)

    def scorer(images, prompt):
        return np.array([0.1, 0.9, 0.4, 0.9], np.float32)

    ranked = sampling.rerank(batch, scorer)
    np.testing.assert_allclose(ranked.scores, [0.9, 0.9, 0.4, 0.1])
    # stable: the two 0.9 entries keep original relative order (1 before 3)
    np.testing.assert_array_equal(ranked.images[0], batch.images[1])
    np.testing.assert_array_equal(ranked.images[1], batch.images[3])
    np.testing.assert_array_equal(ranked.images[3], batch.images[0])
    assert ranked.order.tolist() == [1, 3, 2, 0]
    # input batch untouched
    assert batch.scores is None


def test_rerank_rejects_bad_scorer_shape():
    ds, vocab, tw, w = _pipeline_bits()
    cfg = sampling.SamplerConfig(n_samples=2, seed=0)
    batch = sampling.generate(w, vocab, tw, ds.captions[0], cfg)
    with pytest.raises(DataError):
        sampling.rerank(batch, lambda imgs, p: np.zeros((2, 2), np.float32))


def _perturb_gains_and_biases(w):
    rng = np.random.default_rng(0)
    for name, t in w.params.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "g" or leaf.startswith("b"):
            t.data = t.data + rng.normal(0.0, 0.1, t.shape).astype(np.float32)


def _cache_vs_forward_gap(w, forced, texts):
    """Teacher-force forced (n, image_len) through one _Branch of
    len(texts) * n rows, group j conditioned on texts[j] (each (1, L)), and
    return the worst absolute gap to the one-shot forward's logits.

    Every LayerNorm gain and bias and every bias first gets seeded noise:
    untrained they are exactly 1 and 0, where a wrong fold into the packed
    projections would still agree."""
    cfg = w.cfg
    _perturb_gains_and_biases(w)
    enc = seq2seq.encode_text(w, np.concatenate(texts)).data
    rows = len(texts) * len(forced)
    branch = sampling._Branch(w, enc, rows)
    prev = None
    step_logits = np.zeros((rows, cfg.image_len, cfg.image_vocab), np.float32)
    for t in range(cfg.image_len):
        step_logits[:, t] = branch.step_logits(prev, t)
        prev = np.tile(forced[:, t], len(texts))
    full = np.concatenate([
        seq2seq.logits_fn(w, np.repeat(text, len(forced), axis=0), forced).data
        for text in texts])
    return np.abs(step_logits - full).max()


def test_incremental_decoder_matches_full_forward():
    # teacher-force a fixed token sequence through the cached decoder and
    # compare every step's logits against the one-shot forward pass
    w = _model()
    text = _text()
    rng = np.random.default_rng(4)
    forced = rng.integers(0, TINY.image_vocab, (2, TINY.image_len))
    worst = _cache_vs_forward_gap(w, forced, [text])
    assert worst < 1e-6, f"cache/forward divergence {worst:.2e}"


DESK_D_MODEL = seq2seq.ModelConfig().d_model


@pytest.mark.parametrize("conv_kernel,grid_h,grid_w,heads,d_model", [
    pytest.param(1, 4, 4, TINY.heads, TINY.d_model, id="1-4-4"),
    pytest.param(3, 4, 4, TINY.heads, TINY.d_model, id="3-4-4"),
    pytest.param(5, 4, 4, TINY.heads, TINY.d_model, id="5-4-4"),
    pytest.param(3, 3, 5, TINY.heads, TINY.d_model, id="3-3-5"),
    (3, 4, 4, 1, DESK_D_MODEL),
    (3, 4, 4, 2, DESK_D_MODEL),
    (3, 4, 4, 8, DESK_D_MODEL),
])
def test_stacked_decoder_matches_full_forward(conv_kernel, grid_h, grid_w, heads, d_model):
    # the guided layout: rows :n cross-attend to the PAD encoding, rows n: to
    # the prompt's; the window gather and the head-indicator scoring must
    # agree with the masked forward for every kernel, on a non-square grid
    # and for one to eight heads
    cfg = replace(TINY, conv_kernel=conv_kernel, grid_h=grid_h, grid_w=grid_w,
                  heads=heads, d_model=d_model)
    w = seq2seq.build_model(cfg, seed=1)
    text = _text()
    forced = np.random.default_rng(4).integers(0, cfg.image_vocab, (2, cfg.image_len))
    worst = _cache_vs_forward_gap(w, forced, [np.full_like(text, textproc.PAD_ID), text])
    assert worst < 1e-6, f"cache/forward divergence {worst:.2e}"


def test_greedy_chain_is_argmax_of_full_forward():
    w = _model(seed=2)
    text = _text(seed=3)
    cfg = sampling.SamplerConfig(guidance=1.0, n_samples=1, top_k=1, seed=0)
    toks = sampling.sample_token_batch(w, text, cfg).reshape(1, -1)
    full = seq2seq.logits_fn(w, text, toks).data
    np.testing.assert_array_equal(np.argmax(full[0], axis=-1), toks[0])


def test_guided_greedy_chain_is_argmax_of_guided_full_forward():
    # lambda = 1.2 runs both halves of the stacked step; the chain must pick
    # the argmax of the guided teacher-forced logits on its own grid
    w = _model(seed=2)
    text = _text(seed=3)
    cfg = sampling.SamplerConfig(guidance=1.2, n_samples=2, top_k=1, seed=0)
    toks = sampling.sample_token_batch(w, text, cfg).reshape(2, -1)
    texts = np.repeat(text, 2, axis=0)
    z = sampling.guided_logits(
        seq2seq.logits_fn(w, np.full_like(texts, textproc.PAD_ID), toks).data,
        seq2seq.logits_fn(w, texts, toks).data, 1.2)
    picked = np.take_along_axis(z, toks[..., None], axis=-1)[..., 0]
    tie = picked >= z.max(axis=-1) - 1e-5
    assert np.all((toks == z.argmax(axis=-1)) | tie)


@pytest.mark.parametrize("lam,batch", [(0.0, 1), (1.0, 1), (1.2, 2)])
def test_one_encoder_call_per_chain(monkeypatch, lam, batch):
    w = _model()
    seen = []
    encode = seq2seq.encode_text

    def counting_encode(w_, ids, *a, **kw):
        seen.append(np.asarray(ids).shape[0])
        return encode(w_, ids, *a, **kw)

    monkeypatch.setattr(seq2seq, "encode_text", counting_encode)
    cfg = sampling.SamplerConfig(guidance=lam, n_samples=3, seed=0)
    sampling.sample_token_batch(w, _text(), cfg)
    assert seen == [batch]


@pytest.mark.parametrize("lam", [1.0, 1.2])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_grid_does_not_depend_on_n_samples(lam, k):
    # documented contract: sample i's grid is the same whether it was drawn
    # alone or with 31 others
    w = _model()
    text = _text()
    big = sampling.sample_token_batch(
        w, text, sampling.SamplerConfig(guidance=lam, n_samples=32, seed=7))
    small = sampling.sample_token_batch(
        w, text, sampling.SamplerConfig(guidance=lam, n_samples=k, seed=7))
    np.testing.assert_array_equal(small, big[:k])


# ------------------------------------------------- buffered step vs reference

# The decode step as it ran before it wrote into per-chain buffers, a fresh
# array for every operation, kept verbatim: the buffered step must return
# the same bits at every step.

def _affine(x, w, b):
    y = x @ w
    y += b
    return y


def _normalize(x):
    return T._layer_norm(x)[0]


class _ReferenceBranch(sampling._Branch):
    def __init__(self, w, enc_out, n):
        super().__init__(w, enc_out, n)
        assert not self.twice  # the reference has no row doubling
        self.cfg, self.n, self.groups, self.heads = w.cfg, n, len(enc_out), w.cfg.heads
        # the packed weights, with each bias as one row (the buffered step
        # adds it tiled to the branch's rows)
        self.p = {name: t.data for name, t in w.params.items()}
        self.qkv = [(layer[0], layer[1][0]) for layer in self.layers]
        self.keys = [layer[2] for layer in self.layers]
        self.vals = [layer[3] for layer in self.layers]
        self.cross = [(layer[6], layer[7][..., :1], layer[8]) for layer in self.layers]
        self.fc1 = [(layer[10], layer[11][0]) for layer in self.layers]
        self.out = (self.out[0], self.out[1][0])

    def _attn_self(self, x, layer, t):
        d = self.cfg.d_model
        qkv = _affine(x, *self.qkv[layer])
        keys, vals = self.keys[layer], self.vals[layer]
        keys[t] = qkv[:, d:2 * d]
        vals[t] = qkv[:, 2 * d:]
        window = self.windows[t]
        qk = keys[window]                                      # (w, n, d)
        qk *= qkv[:, :d]
        scores = (qk.reshape(-1, d) @ self.head_sum).reshape(len(window), self.n, self.heads)
        att = T._softmax(scores, 0)                            # over the window
        mix = np.matmul(att.reshape(-1, self.heads), self.head_spread,
                        out=qk.reshape(-1, d)).reshape(qk.shape)
        mix *= vals[window]
        return np.add.reduce(mix, axis=0)

    def _attn_cross(self, x, layer):
        qk, bias, vo = self.cross[layer]
        G = self.groups
        scores = qk @ x.reshape(G, -1, x.shape[1]).swapaxes(1, 2)  # (G, S * heads, m)
        scores += bias
        att = T._softmax(scores.reshape(G, -1, self.heads * scores.shape[2]), 1)
        return (att.reshape(scores.shape).swapaxes(1, 2) @ vo).reshape(self.n, -1)

    def step_logits(self, prev_tokens, t: int) -> np.ndarray:
        """Advance to position t given the token drawn at t-1 (None at t=0);
        returns next-token logits (n, image_vocab)."""
        p = self.p
        if t == 0:
            x = np.tile(p["dec.start"] + p["image_pos"][0], (self.n, 1))
        else:
            x = p["image_emb"][prev_tokens]
            x += p["image_pos"][t]
        for i in range(self.cfg.dec_layers):
            pre = f"dec.b{i}"
            a = self._attn_self(_normalize(x), i, t)
            x += _affine(a, p[pre + ".attn.wo"], p[pre + ".attn.bo"])
            a = self._attn_cross(_normalize(x), i)
            a += p[pre + ".xattn.bo"]
            x += a
            h = T._gelu(_affine(_normalize(x), *self.fc1[i]))[0]
            x += _affine(h, p[pre + ".mlp.fc2.w"], p[pre + ".mlp.fc2.b"])
        return _affine(_normalize(x), *self.out)


def _branch_inputs(w, lam, n):
    """The encoder output and row count _run_chains builds a branch from for
    n samples under guidance lam."""
    text = np.random.default_rng(0).integers(4, w.cfg.text_vocab, (1, 8))
    pad = np.full_like(text, textproc.PAD_ID)
    if lam in (0.0, 1.0):
        return seq2seq.encode_text(w, pad if lam == 0.0 else text).data, n
    return seq2seq.encode_text(w, np.concatenate([pad, text])).data, 2 * n


def _teacher_forced(branch, forced):
    """Every step's logits, feeding forced[:, t] to step t + 1."""
    prev, out = None, []
    for t in range(forced.shape[1]):
        out.append(branch.step_logits(prev, t))
        prev = forced[:, t]
    return out


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("lam", [0.0, 1.0, 1.2])
@pytest.mark.parametrize("cfg", [TINY, seq2seq.DESK], ids=["tiny", "desk"])
def test_buffered_step_equals_reference_bitwise(cfg, lam, n):
    w = seq2seq.build_model(cfg, seed=1)
    _perturb_gains_and_biases(w)
    enc, rows = _branch_inputs(w, lam, n)
    forced = np.random.default_rng(2).integers(0, cfg.image_vocab, (rows, cfg.image_len))
    got = _teacher_forced(sampling._Branch(w, enc, rows), forced)
    want = _teacher_forced(_ReferenceBranch(w, enc, rows), forced)
    for t, (a, b) in enumerate(zip(got, want)):
        np.testing.assert_array_equal(a, b, err_msg=f"step {t}")


@pytest.mark.parametrize("n", [1, 3])
def test_step_logits_survive_the_next_step(n):
    # each step returns a new array: no buffer of the branch is aliased
    w = _model()
    enc, rows = _branch_inputs(w, 1.2, n)
    branch = sampling._Branch(w, enc, rows)
    forced = np.random.default_rng(2).integers(0, TINY.image_vocab, (rows, TINY.image_len))
    z = branch.step_logits(None, 0)
    for t in range(1, TINY.image_len):
        kept = z.copy()
        z_next = branch.step_logits(forced[:, t - 1], t)
        np.testing.assert_array_equal(z, kept, err_msg=f"step {t - 1}")
        z = z_next


@pytest.mark.parametrize("lam", [1.0, 1.2], ids=["unguided", "guided"])
def test_step_logits_of_a_row_do_not_depend_on_the_row_count(lam):
    # a one-row group would take BLAS's matrix-vector path; the branch runs
    # it on two rows, so every row count gives each row the same bits
    w = seq2seq.build_model(seq2seq.DESK, seed=0)
    L, V = w.cfg.image_len, w.cfg.image_vocab
    forced = np.random.default_rng(3).integers(0, V, (8, L))

    def logits(n):  # (steps, halves, n, image_vocab)
        enc, rows = _branch_inputs(w, lam, n)
        halves = rows // n
        z = _teacher_forced(sampling._Branch(w, enc, rows), np.tile(forced[:n], (halves, 1)))
        return np.stack(z).reshape(L, halves, n, V)

    full = logits(8)
    for n in (1, 2, 3, 5):
        np.testing.assert_array_equal(logits(n), full[:, :, :n], err_msg=f"n={n}")


def test_warm_desk_step_allocates_under_80_kb():
    # a warmed guided 16-row desk step writes into its chain's buffers: what
    # it still allocates is the GELU table lookup's index and offset
    # temporaries and the logits it returns. Measured 66 KB (numpy 2.4); the
    # same step with a fresh array for every operation peaked at 141 KB
    w = seq2seq.build_model(seq2seq.DESK, seed=0)
    enc, rows = _branch_inputs(w, 1.2, 8)
    branch = sampling._Branch(w, enc, rows)
    forced = np.random.default_rng(2).integers(0, w.cfg.image_vocab, (rows, w.cfg.image_len))
    _teacher_forced(branch, forced[:, :20])
    tracemalloc.start()
    try:
        branch.step_logits(forced[:, 19], 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80_000, peak
