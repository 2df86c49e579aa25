"""Autoregressive image-token sampling with classifier-free guidance.

Guidance combines two logit rows per sample, one under the real text
encoding and one under an all-PAD encoding (the same stand-in used for
conditioning dropout during training), as u + lam * (c - u). Both rows come
from the same weights, so a guided step is one decoder pass over 2n stacked
rows: the encoder runs once on the 2-row batch [PAD; prompt], rows :n
cross-attend to the PAD encoding and rows n: to the prompt's, and every step
feeds the same previous tokens to both halves. Guidance endpoints
short-circuit: lam = 0 encodes only PAD and lam = 1 only the prompt, each
decoding n rows, so the other condition never runs.

The decoder here is a numpy re-implementation of the taped training forward
that calls tensor's LayerNorm, GELU and softmax kernels and keeps
per-layer key/value caches, so a length-L chain costs O(L) block passes
instead of O(L^2). The caches are position-major, (image_len, rows,
d_model), so a step writes one contiguous slab per cache and self-attention
gathers only the slabs inside the conv window (at most 5 for
conv_kernel=3); a step's attention cost does not grow with its position.
Step t reads its window from the model's tensor.Window, the table the
training op's windowed mode uses: keys t - offsets[w] where valid[w, t], in
ascending order. Heads are never split out: a window's scores are the
elementwise product of query and keys times a (d_model, heads)
head-indicator matrix that also carries the 1/sqrt(d_head) scale, the softmax
runs over the window axis, and the transposed indicator spreads each head's
weights back over its lanes before they weight the values, the layout the
training op shares.

Weights are packed once per chain, with every LayerNorm's gain g and bias b
folded into the projection after it: (xhat * g + b) @ W + c is
xhat @ (g W) + (b @ W + c). So each of a step's 13 LayerNorms is a bare
normalise: ln1 folds into the one (d_model, 3 d_model) QKV matmul, ln2 into
fc1, dec.ln_out into out.
Cross-attention keys and values are fixed for the chain, so lnx, the
1/sqrt(d_head) scale and the query projection fold into each group's keys,
one (S * heads, d_model) score matrix, and the values into the output
projection: the step is two matmuls around a softmax over the leading text
axis. Folding and summation order differ from the taped forward, so cached
logits are not bitwise equal to seq2seq.logits_fn; they agree within 1e-6,
which the tests check on weights whose gains and biases are perturbed.

A step is dispatch-bound (about 350 numpy calls on arrays of about
(rows, d_model)), so it allocates almost nothing: each chain owns buffers for
the residual stream and its normalised copy, QKV, the attention scores and
mixes, the attention and projection outputs, and the MLP hidden and its cdf.
Every matmul and elementwise op writes into them with out=, and the
LayerNorms, GELUs and softmaxes are tensor's _layer_norm, _gelu and
_softmax called with out=, the same kernels the taped forward runs. Each
layer's weights sit in one tuple, resolved once per chain, with every bias
tiled to the chain's rows. Each step returns a new logits array, so a caller
may keep it past the next step.
BLAS rounds a one-row matrix product (its matrix-vector path) differently
from the same row inside a larger one, so a branch whose groups have one row
each runs every row twice and returns every other row: a row's logits are
the same bits for any row count.

Every sample consumes exactly one uniform per step from its own rng stream
(inverse-CDF draw), so a sample's grid does not depend on how many other
samples were drawn alongside it; a test checks this too. The uniform at step
t is the stream's t-th double; each stream's image_len doubles are drawn in
one call per chain, which gives the same values as one call per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, seq2seq, textproc, vq
from . import tensor as T
from .errors import DataError, NumericError


@dataclass(frozen=True)
class SamplerConfig:
    guidance: float = nn.setting(1.2, low=0)
    top_k: int = nn.setting(0, low=0)  # 0 disables the filter
    n_samples: int = nn.setting(16, low=1)
    seed: int = nn.setting(0, low=0)

    def __post_init__(self):
        nn.check_settings(self, "sampler")


@dataclass
class SampleBatch:
    prompt: str
    grids: np.ndarray              # (n, grid_h, grid_w) int token ids
    images: np.ndarray             # (n, H, W, 3) floats in [0, 1]
    scores: np.ndarray | None = None  # set by rerank, descending
    order: np.ndarray | None = None  # set by rerank: each row's index in its input


def guided_logits(u, c, lam: float) -> np.ndarray:
    u = np.asarray(u)
    c = np.asarray(c)
    if u.shape != c.shape:
        raise DataError(f"guided_logits: shape mismatch {u.shape} vs {c.shape}")
    z = lam * (c - u)
    z += u
    return z


# ---------------------------------------------------------------------------
# cached decoder

def _affine(x, w, b):
    y = x @ w
    y += b
    return y


class _Branch:
    """Cached decoder state for n rows: weights packed once per chain, fixed
    cross-attention matrices, self-attention caches that grow one position
    per step, and the step's buffers.

    enc_out holds G encoder outputs and G divides n: the rows split into G
    equal consecutive groups and group g cross-attends to enc_out[g]."""

    def __init__(self, w: seq2seq.TransformerWeights, enc_out: np.ndarray, n: int):
        cfg = w.cfg
        p = {name: t.data for name, t in w.params.items()}
        G, S = enc_out.shape[:2]
        d, heads = cfg.d_model, cfg.heads
        dh = d // heads
        scale = np.float32(1.0 / np.sqrt(dh))
        # a group of one row would take BLAS's matrix-vector path, which
        # rounds differently from the matrix-matrix path of larger groups;
        # so then every row runs twice and the step returns every other row
        self.twice = n == G
        rows = 2 * n if self.twice else n
        m = rows // G
        # lane j of the model width belongs to head j // dh: head_sum adds
        # up each head's lanes (and applies the attention scale), head_spread
        # copies each head's weight back onto its lanes
        lanes = T.head_lanes(d, heads, np.float32)
        self.head_sum = lanes * scale                          # (d, heads)
        self.head_spread = np.ascontiguousarray(lanes.T)       # (heads, d)

        def folded(ln, wt, b, s=np.float32(1.0)):
            # (xhat * g + beta) @ wt + b == xhat @ (g wt) + (beta @ wt + b)
            return wt * (p[ln + ".g"] * s)[:, None], (p[ln + ".b"] @ wt + b) * s

        def tiled(b):
            # the bias repeated for every row: a same-shape add takes about
            # half the time of a broadcast one at these sizes
            return np.tile(b, (rows, 1))

        L = cfg.image_len
        cache = (L, rows, d)
        # one tuple per layer: QKV, self-attention key and value caches and
        # output projection; cross-attention scores, bias, values and output
        # bias; the MLP's two projections. Each cache is its own array: one
        # block for all eight (8 MB at 64 rows) kept 7 MB more resident
        self.layers = []
        for i in range(cfg.dec_layers):
            pre, a, c = f"dec.b{i}", f"dec.b{i}.attn", f"dec.b{i}.xattn"
            wqkv, bqkv = folded(
                pre + ".ln1", np.concatenate([p[a + ".wq"], p[a + ".wk"], p[a + ".wv"]], axis=1),
                np.concatenate([p[a + ".bq"], np.zeros(d, np.float32), p[a + ".bv"]]))
            wq, bq = folded(pre + ".lnx", p[c + ".wq"], p[c + ".bq"], scale)
            k = (enc_out @ p[c + ".wk"]).reshape(G, S, heads, dh).transpose(0, 2, 1, 3)
            v = _affine(enc_out, p[c + ".wv"], p[c + ".bv"]).reshape(G, S, heads, dh)
            # per group, rows (text position, head): query and key projections
            # in one score matrix, value and output projections in another
            qk = k @ wq.reshape(d, heads, dh).transpose(1, 2, 0)         # (G, heads, S, d)
            vo = v.transpose(0, 2, 1, 3) @ p[c + ".wo"].reshape(heads, dh, d)
            cross = (
                qk.transpose(0, 2, 1, 3).reshape(G, S * heads, d),
                np.repeat((k @ bq.reshape(heads, dh, 1)).transpose(0, 2, 1, 3)
                          .reshape(G, S * heads, 1), m, axis=2),
                vo.transpose(0, 2, 1, 3).reshape(G, S * heads, d))
            w1, b1 = folded(pre + ".ln2", p[pre + ".mlp.fc1.w"], p[pre + ".mlp.fc1.b"])
            self.layers.append((
                wqkv, tiled(bqkv), np.empty(cache, np.float32), np.empty(cache, np.float32),
                p[a + ".wo"], tiled(p[a + ".bo"]), *cross, tiled(p[c + ".bo"]),
                w1, tiled(b1), p[pre + ".mlp.fc2.w"], tiled(p[pre + ".mlp.fc2.b"])))
        w_out, b_out = folded("dec.ln_out", p["out.w"], p["out.b"])
        self.out = w_out, tiled(b_out)
        self.start = p["dec.start"] + p["image_pos"][0]
        self.emb, self.pos = p["image_emb"], p["image_pos"]
        # step t's keys t - offsets[w] where valid[w, t], ascending
        keys = (np.arange(L) - w.window.offsets[:, None]).T[w.window.valid.T]
        ends = np.cumsum(w.window.valid.sum(axis=0)).tolist()
        self.windows = [keys[a:b] for a, b in zip([0, *ends], ends)]

        # the step's buffers: the residual stream x and its normalised copy,
        # QKV, the attention output and the projections' outputs, the MLP
        # hidden and its cdf, and the attention scores and mixes
        self.x, self.xn, self.a, self.proj = np.empty((4, rows, d), np.float32)
        self.qkv = np.empty((rows, 3 * d), np.float32)
        self.q, self.k, self.v = self.qkv[:, :d], self.qkv[:, d:2 * d], self.qkv[:, 2 * d:]
        self.hidden = np.empty((rows, cfg.d_mlp), np.float32)
        self.cdf = np.empty_like(self.hidden)
        # self-attention: window keys (then the mix) and values, and scores,
        # viewed per step at the step's window length
        lengths = {len(k) for k in self.windows}
        win, vals = np.empty((2, max(lengths), rows, d), np.float32)
        scores = np.empty((max(lengths), rows, heads), np.float32)
        views = {n: (win[:n], win[:n].reshape(-1, d), vals[:n],
                     scores[:n], scores[:n].reshape(-1, heads)) for n in lengths}
        self.steps = [(k, *views[len(k)]) for k in self.windows]
        # cross-attention: per group, scores (S * heads, m) against the
        # group's normalised rows; the softmax runs over the text axis
        self.xscores = np.empty((G, S * heads, m), np.float32)
        self.xn_groups = self.xn.reshape(G, m, d).swapaxes(1, 2)
        self.xscores_text = self.xscores.reshape(G, S, heads * m)
        self.a_groups = self.a.reshape(G, m, d)

    def _attn_self(self, t, wqkv, bqkv, keys, vals):
        """Self-attention of xn at position t, into a."""
        qkv = np.matmul(self.xn, wqkv, out=self.qkv)
        qkv += bqkv
        keys[t] = self.k
        vals[t] = self.v
        window, qk, qk_rows, v, scores, score_rows = self.steps[t]
        keys.take(window, 0, qk, "clip")                    # (w, rows, d)
        qk *= self.q
        np.matmul(qk_rows, self.head_sum, out=score_rows)
        T._softmax(scores, 0, out=scores)                   # over the window
        mix = np.matmul(score_rows, self.head_spread, out=qk_rows).reshape(qk.shape)
        mix *= vals.take(window, 0, v, "clip")
        np.add.reduce(mix, 0, None, self.a)

    def _attn_cross(self, qk, bias, vo):
        """Cross-attention of xn to each group's text, into a."""
        scores = np.matmul(qk, self.xn_groups, out=self.xscores)  # (G, S * heads, m)
        scores += bias
        T._softmax(self.xscores_text, 1, out=self.xscores_text)
        np.matmul(scores.swapaxes(1, 2), vo, out=self.a_groups)

    def step_logits(self, prev_tokens, t: int) -> np.ndarray:
        """Advance to position t given the token drawn at t-1 (None at t=0);
        returns next-token logits (n, image_vocab), a new array."""
        x, xn, a, proj, h = self.x, self.xn, self.a, self.proj, self.hidden
        if t == 0:
            x[...] = self.start
        else:
            if self.twice:
                prev_tokens = np.repeat(prev_tokens, 2)
            self.emb.take(prev_tokens, 0, x, "clip")
            x += self.pos[t]
        for wqkv, bqkv, keys, vals, wo, bo, xqk, xbias, xvo, xbo, w1, b1, w2, b2 in self.layers:
            T._layer_norm(x, out=xn)
            self._attn_self(t, wqkv, bqkv, keys, vals)
            np.matmul(a, wo, out=proj)
            proj += bo
            x += proj
            T._layer_norm(x, out=xn)
            self._attn_cross(xqk, xbias, xvo)
            a += xbo
            x += a
            T._layer_norm(x, out=xn)
            np.matmul(xn, w1, out=h)
            h += b1
            T._gelu(h, out=h, cdf=self.cdf)
            np.matmul(h, w2, out=proj)
            proj += b2
            x += proj
        logits = _affine(T._layer_norm(x, out=xn)[0], *self.out)
        return logits[::2] if self.twice else logits


def _filter_top_k(z: np.ndarray, k: int) -> np.ndarray:
    if k <= 0 or k >= z.shape[-1]:
        return z
    kth = np.partition(z, -k, axis=-1)[:, -k, None]
    return np.where(z < kth, np.float32(-np.inf), z)


def _probs_from(logits: np.ndarray, cfg: SamplerConfig) -> np.ndarray:
    z = _filter_top_k(logits, cfg.top_k)
    if not np.isfinite(np.maximum.reduce(z, -1)).all():
        raise NumericError(f"sampling: a logit row has no finite entries at "
                           f"sampler.guidance {cfg.guidance}")
    return T._softmax(z, -1)


def _draw(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF categorical draw; smallest index whose cdf exceeds u."""
    cdf = np.add.accumulate(probs, -1, np.float64)  # the cumsum, in float64
    cdf[:, -1] = 1.0  # absorb accumulated rounding
    idx = (cdf <= uniforms[:, None]).sum(axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


def _run_chains(w: seq2seq.TransformerWeights, text_ids, n: int,
                cfg: SamplerConfig, uniform_fn) -> np.ndarray:
    """Sample n token grids for one prompt; uniform_fn(t) -> (n,) uniforms."""
    mcfg = w.cfg
    if cfg.top_k > mcfg.image_vocab:
        raise DataError(f"sampler.top_k must be at most image_vocab {mcfg.image_vocab}, got {cfg.top_k}")
    text_ids = np.asarray(text_ids)
    if text_ids.ndim == 1:
        text_ids = text_ids[None]
    lam = cfg.guidance
    pad = np.full_like(text_ids, textproc.PAD_ID)
    guided = lam not in (0.0, 1.0)
    if guided:  # rows :n unconditional, rows n: conditional
        cond_ids = np.concatenate([pad, text_ids])
    else:
        cond_ids = pad if lam == 0.0 else text_ids
    rows = 2 * n if guided else n
    branch = _Branch(w, seq2seq.encode_text(w, cond_ids).data, rows)
    tokens = np.zeros((n, mcfg.image_len), dtype=np.int64)
    prev = None
    # a guidance that overflows float32 is _probs_from's one error line, with
    # no numpy warnings before it
    with np.errstate(all="ignore"):
        for t in range(mcfg.image_len):
            logits = branch.step_logits(prev, t)
            if guided:
                logits = guided_logits(logits[:n], logits[n:], lam)
            probs = _probs_from(logits, cfg)
            if cfg.top_k == 1:
                tok = np.argmax(probs, axis=-1)
            else:
                tok = _draw(probs, uniform_fn(t))
            tokens[:, t] = tok
            prev = np.concatenate([tok, tok]) if guided else tok
    return tokens.reshape(n, mcfg.grid_h, mcfg.grid_w)


def sample_token_batch(w: seq2seq.TransformerWeights, text_ids,
                       cfg: SamplerConfig) -> np.ndarray:
    """(n_samples, grid_h, grid_w) grids; sample i draws from the stream
    spawned as SeedSequence(seed, spawn_key=(i,))."""
    rngs = [np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
            for i in range(cfg.n_samples)]
    draws = None  # (image_len, n): column i is stream i's draws for the chain

    def uniforms(t):
        nonlocal draws
        if draws is None:
            draws = np.stack([r.random(w.cfg.image_len) for r in rngs], axis=1)
        return draws[t]

    return _run_chains(w, text_ids, cfg.n_samples, cfg, uniforms)


def generate(w: seq2seq.TransformerWeights, vocab, tokenizer: vq.TokenizerWeights,
             text: str, cfg: SamplerConfig) -> SampleBatch:
    """Prompt to images: sample grids, then decode them to pixels."""
    ids = textproc.encode_clipped(vocab, text, w.cfg.text_len)
    grids = sample_token_batch(w, np.asarray(ids), cfg)
    images = vq.detokenize(tokenizer, grids)
    return SampleBatch(prompt=text, grids=grids, images=images)


def rerank(batch: SampleBatch, scorer) -> SampleBatch:
    """Order a batch by scorer(images, prompt), best first; ties keep their
    original order, so a constant scorer leaves the batch unchanged."""
    n = len(batch.grids)
    if n == 0:
        raise DataError("rerank: empty batch")
    scores = np.asarray(scorer(batch.images, batch.prompt), dtype=np.float64)
    if scores.shape != (n,):
        raise DataError(f"rerank: scorer must return ({n},) scores, got {scores.shape}")
    order = np.argsort(-scores, kind="stable")
    return SampleBatch(prompt=batch.prompt, grids=batch.grids[order],
                       images=batch.images[order], scores=scores[order],
                       order=order)
