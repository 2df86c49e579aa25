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
that calls the catalog's LayerNorm, GELU and softmax kernels and keeps
per-layer key/value caches, so a length-L chain costs O(L) block passes
instead of O(L^2). The caches are position-major, (image_len, rows,
d_model), so a step writes one contiguous slab per cache and self-attention
gathers only the slabs inside the conv window (at most 5 for
conv_kernel=3); a step's attention cost does not grow with its position.
Q, K and V come from one (d_model, 3 d_model) matmul whose weights are packed
once per chain. Heads are never split out: a window's scores are the
elementwise product of query and keys times a (d_model, heads) head-indicator
matrix that also carries the 1/sqrt(d_head) scale, the softmax runs over the
window axis, and the transposed indicator spreads each head's weights back
over its lanes before they weight the values. Encoder outputs and the
cross-attention K/V projections are computed once per chain. Summation order
differs from the taped forward, so cached logits are not bitwise equal to
seq2seq.logits_fn; they agree within 1e-6, which the tests check.

Every sample consumes exactly one uniform per step from its own rng stream
(inverse-CDF draw), so a sample's grid does not depend on how many other
samples were drawn alongside it; a test checks this too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seq2seq, textproc, vq
from . import tensor as T
from .errors import DataError, NumericError


@dataclass(frozen=True)
class SamplerConfig:
    guidance: float = 1.2
    temperature: float = 1.0
    top_k: int = 0          # 0 disables the filter
    n_samples: int = 16
    seed: int = 0

    def validate(self, image_vocab: int) -> "SamplerConfig":
        if self.guidance < 0:
            raise DataError(f"guidance weight must be >= 0, got {self.guidance}")
        if self.temperature <= 0:
            raise DataError(f"temperature must be > 0, got {self.temperature}")
        if not 0 <= self.top_k <= image_vocab:
            raise DataError(f"top_k must be in [0, {image_vocab}], got {self.top_k}")
        if self.n_samples < 1:
            raise DataError(f"n_samples must be >= 1, got {self.n_samples}")
        return self


@dataclass
class SampleBatch:
    prompt: str
    grids: np.ndarray              # (n, grid_h, grid_w) int token ids
    images: np.ndarray             # (n, H, W, 3) floats in [0, 1]
    scores: np.ndarray | None = None  # set by rerank, descending
    seed: int = 0


def guided_logits(u, c, lam: float) -> np.ndarray:
    u = np.asarray(u)
    c = np.asarray(c)
    if u.shape != c.shape:
        raise DataError(f"guided_logits: shape mismatch {u.shape} vs {c.shape}")
    if lam == 0.0:
        return u.copy()
    if lam == 1.0:
        return c.copy()
    return u + lam * (c - u)


# ---------------------------------------------------------------------------
# cached decoder

class _Branch:
    """Cached decoder state for n rows: fixed cross-attention K/V plus
    self-attention caches that grow one position per step.

    enc_out holds G encoder outputs and G divides n: the rows split into G
    equal consecutive groups and group g cross-attends to enc_out[g]."""

    def __init__(self, w: seq2seq.TransformerWeights, enc_out: np.ndarray, n: int):
        cfg = w.cfg
        p = {name: t.data for name, t in w.params.items()}
        G, S = enc_out.shape[:2]
        d, heads = cfg.d_model, cfg.heads
        dh = d // heads
        self.cfg = cfg
        self.p = p
        self.n = n
        self.groups = G
        self.heads = heads
        self.dh = dh
        self.scale = np.float32(1.0 / np.sqrt(dh))
        # lane j of the model width belongs to head j // dh: head_sum adds
        # up each head's lanes (and applies the attention scale), head_spread
        # copies each head's weight back onto its lanes
        lanes = np.repeat(np.eye(heads, dtype=np.float32), dh, axis=0)
        self.head_sum = lanes * self.scale                     # (d, heads)
        self.head_spread = np.ascontiguousarray(lanes.T)       # (heads, d)
        self.qkv = []
        self.cross = []
        for i in range(cfg.dec_layers):
            pre = f"dec.b{i}.attn"
            self.qkv.append((
                np.concatenate([p[pre + ".wq"], p[pre + ".wk"], p[pre + ".wv"]], axis=1),
                np.concatenate([p[pre + ".bq"], p[pre + ".bk"], p[pre + ".bv"]])))
            pre = f"dec.b{i}.xattn"
            k = enc_out @ p[pre + ".wk"] + p[pre + ".bk"]
            v = enc_out @ p[pre + ".wv"] + p[pre + ".bv"]
            kt = k.reshape(G, S, heads, dh).transpose(0, 2, 3, 1)
            v = v.reshape(G, S, heads, dh).transpose(0, 2, 1, 3)
            self.cross.append((np.ascontiguousarray(kt), np.ascontiguousarray(v)))
        L = cfg.image_len
        self.keys = [np.empty((L, n, d), dtype=np.float32) for _ in range(cfg.dec_layers)]
        self.vals = [np.empty((L, n, d), dtype=np.float32) for _ in range(cfg.dec_layers)]

    def _ln_affine(self, pre, x):
        return T._fwd_layer_norm([x], {"axis": -1}) * self.p[pre + ".g"] + self.p[pre + ".b"]

    def _attn_self(self, pre, x, layer, t, window):
        p = self.p
        d = self.cfg.d_model
        w, b = self.qkv[layer]
        qkv = x @ w + b
        keys, vals = self.keys[layer], self.vals[layer]
        keys[t] = qkv[:, d:2 * d]
        vals[t] = qkv[:, 2 * d:]
        qk = keys[window]                                      # (w, n, d)
        qk *= qkv[:, :d]
        scores = (qk.reshape(-1, d) @ self.head_sum).reshape(len(window), self.n, self.heads)
        att = T._fwd_softmax([scores], {"axis": 0})            # over the window
        mix = (att.reshape(-1, self.heads) @ self.head_spread).reshape(qk.shape)
        mix *= vals[window]
        return np.add.reduce(mix, axis=0) @ p[pre + ".wo"] + p[pre + ".bo"]

    def _attn_cross(self, pre, x, layer):
        p = self.p
        G, m = self.groups, self.n // self.groups
        q = (x @ p[pre + ".wq"] + p[pre + ".bq"]).reshape(G, m, self.heads, self.dh)
        kt, vs = self.cross[layer]
        att = T._fwd_softmax([(q.transpose(0, 2, 1, 3) @ kt) * self.scale], {"axis": -1})
        out = (att @ vs).transpose(0, 2, 1, 3).reshape(self.n, -1)
        return out @ p[pre + ".wo"] + p[pre + ".bo"]

    def step_logits(self, prev_tokens, t: int, allowed_row) -> np.ndarray:
        """Advance to position t given the token drawn at t-1 (None at t=0);
        returns next-token logits (n, image_vocab)."""
        cfg = self.cfg
        p = self.p
        if t == 0:
            x = np.broadcast_to(p["dec.start"], (self.n, cfg.d_model))
        else:
            x = p["image_emb"][prev_tokens]
        x = (x + p["image_pos"][t]).astype(np.float32)
        window = np.flatnonzero(allowed_row[:t + 1])
        for i in range(cfg.dec_layers):
            pre = f"dec.b{i}"
            h = self._ln_affine(pre + ".ln1", x)
            x = x + self._attn_self(pre + ".attn", h, i, t, window)
            h = self._ln_affine(pre + ".lnx", x)
            x = x + self._attn_cross(pre + ".xattn", h, i)
            h = self._ln_affine(pre + ".ln2", x)
            h = T._fwd_gelu([h @ p[pre + ".mlp.fc1.w"] + p[pre + ".mlp.fc1.b"]], {})
            x = x + (h @ p[pre + ".mlp.fc2.w"] + p[pre + ".mlp.fc2.b"])
        x = self._ln_affine("dec.ln_out", x)
        return x @ p["out.w"] + p["out.b"]


def _filter_top_k(z: np.ndarray, k: int) -> np.ndarray:
    if k <= 0 or k >= z.shape[-1]:
        return z
    kth = np.partition(z, -k, axis=-1)[:, -k, None]
    return np.where(z < kth, np.float32(-np.inf), z)


def _probs_from(logits: np.ndarray, cfg: SamplerConfig) -> np.ndarray:
    z = logits / np.float32(cfg.temperature)
    z = _filter_top_k(z, cfg.top_k)
    m = z.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise NumericError("sampling: a logit row has no finite entries")
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def _draw(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF categorical draw; smallest index whose cdf exceeds u."""
    cdf = np.cumsum(probs.astype(np.float64), axis=-1)
    cdf[:, -1] = 1.0  # absorb accumulated rounding
    idx = (cdf <= uniforms[:, None]).sum(axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


def _run_chains(w: seq2seq.TransformerWeights, text_ids, n: int,
                cfg: SamplerConfig, uniform_fn) -> np.ndarray:
    """Sample n token grids for one prompt; uniform_fn(t) -> (n,) uniforms."""
    mcfg = w.cfg
    cfg.validate(mcfg.image_vocab)
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
    for t in range(mcfg.image_len):
        logits = branch.step_logits(prev, t, w.mask[t])
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

    def uniforms(t):
        return np.array([r.random() for r in rngs])

    return _run_chains(w, text_ids, cfg.n_samples, cfg, uniforms)


def generate(w: seq2seq.TransformerWeights, vocab, tokenizer: vq.TokenizerWeights,
             text: str, cfg: SamplerConfig,
             sr: "vq.SRWeights | None" = None) -> SampleBatch:
    """Prompt to images: sample grids, decode to pixels, optionally upsample."""
    ids = textproc.encode_clipped(vocab, text, w.cfg.text_len)
    grids = sample_token_batch(w, np.asarray(ids), cfg)
    images = vq.detokenize(tokenizer, grids)
    if sr is not None:
        images = vq.upsample(sr, images)
    return SampleBatch(prompt=text, grids=grids, images=images, seed=cfg.seed)


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
                       seed=batch.seed)
