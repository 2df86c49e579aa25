"""Encoder-decoder transformer from text tokens to image tokens.

Decoder self-attention is conv-shaped sparse: causal intersected with a
Chebyshev window over the token grid, one mask shared by all decoder layers.
Decoder positions line up with raster cells (position p predicts cell p; its
input is the previous cell's token, with a learned start vector at p=0), so
the grid mask applies to the shifted inputs unchanged and predicting cell p
can only see tokens strictly before p.

Conditioning dropout replaces a whole example's text with PAD before the
encoder runs, which is what later lets one model serve both the conditional
and unconditional branches of guided sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, optim, textproc
from . import tensor as T
from .errors import DataError


@dataclass(frozen=True)
class ModelConfig:
    enc_layers: int = nn.setting(2, low=1)
    dec_layers: int = nn.setting(4, low=1)
    d_model: int = nn.setting(64, low=1)
    d_mlp: int = nn.setting(256, low=1)
    heads: int = nn.setting(4, low=1)
    text_vocab: int = nn.setting(512, low=1)
    image_vocab: int = nn.setting(64, low=1)
    text_len: int = nn.setting(32, low=1, high=128)
    grid_h: int = nn.setting(8, low=1)
    grid_w: int = nn.setting(8, low=1)
    cond_dropout_rate: float = nn.setting(0.1, low=0, high=1)
    conv_kernel: int = nn.setting(3, low=1)
    dropout: float = nn.setting(0.1, low=0, high=1)

    def __post_init__(self):
        nn.check_settings(self, "model")
        if self.d_model % self.heads:
            raise DataError(f"model.heads {self.heads} must divide d_model {self.d_model}")
        if self.conv_kernel % 2 == 0:
            raise DataError(f"model.conv_kernel must be odd, got {self.conv_kernel}")
        if self.dropout == 1:
            raise DataError(f"model.dropout must be below 1, got {self.dropout}")

    @property
    def image_len(self) -> int:
        return self.grid_h * self.grid_w


DESK = ModelConfig()


@dataclass
class TransformerWeights:
    cfg: ModelConfig
    params: nn.ParamSet
    window: T.Window  # decoder self-attention keys, from conv_sparse_mask


def conv_sparse_mask(grid_h: int, grid_w: int, k: int) -> np.ndarray:
    """allowed[i][j]: j == i, or j < i with Chebyshev(cell_i, cell_j) <= (k-1)/2,
    for an odd k (ModelConfig.conv_kernel). A subset of the causal lower triangle."""
    n = grid_h * grid_w
    rows = np.arange(n) // grid_w
    cols = np.arange(n) % grid_w
    cheb = np.maximum(np.abs(rows[:, None] - rows[None, :]),
                      np.abs(cols[:, None] - cols[None, :]))
    causal = np.arange(n)[:, None] >= np.arange(n)[None, :]
    mask = causal & (cheb <= (k - 1) // 2)
    np.fill_diagonal(mask, True)
    return mask


def build_model(cfg: ModelConfig, seed: int, *,
                skeleton: bool = False) -> TransformerWeights:
    rng = None if skeleton else np.random.default_rng(seed)
    ps = nn.ParamSet()
    ps.add("text_emb", nn.trunc_normal(rng, (cfg.text_vocab, cfg.d_model)))
    ps.add("text_pos", nn.trunc_normal(rng, (cfg.text_len, cfg.d_model)))
    ps.add("image_emb", nn.trunc_normal(rng, (cfg.image_vocab, cfg.d_model)))
    ps.add("image_pos", nn.trunc_normal(rng, (cfg.image_len, cfg.d_model)))
    ps.add("dec.start", nn.trunc_normal(rng, (cfg.d_model,)))
    nn.add_stack(ps, "enc", cfg.enc_layers, cfg.d_model, cfg.d_mlp, rng)
    nn.add_stack(ps, "dec", cfg.dec_layers, cfg.d_model, cfg.d_mlp, rng, cross=True)
    nn.add_linear(ps, "out", cfg.d_model, cfg.image_vocab, rng)
    mask = conv_sparse_mask(cfg.grid_h, cfg.grid_w, cfg.conv_kernel)
    return TransformerWeights(cfg=cfg, params=ps, window=T.attention_window(mask))


def _check_ids(ids, vocab, what):
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise DataError(f"{what} must be a (batch, length) array, got {ids.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise DataError(f"{what} must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise DataError(f"{what} contains ids outside [0, {vocab})")
    return ids


def encode_text(w: TransformerWeights, text_ids: np.ndarray, drop=None):
    """Text ids (B, L), L <= text_len -> encoder output (B, L, d_model).

    Shorter-than-capacity batches use the first L positional rows, so padded
    tails can be trimmed before encoding.
    """
    cfg = w.cfg
    p = w.params
    text_ids = _check_ids(text_ids, cfg.text_vocab, "text_ids")
    L = text_ids.shape[1]
    if not 1 <= L <= cfg.text_len:
        raise DataError(f"text length {L} not in [1, text_len={cfg.text_len}]")
    pos = T.embedding_gather(p["text_pos"], np.arange(L))
    h = nn.dropout(T.add(T.embedding_gather(p["text_emb"], text_ids), pos), drop)
    return nn.stack(p, "enc", h, cfg.enc_layers, cfg.heads, drop=drop)


def trim_pad(text_ids: np.ndarray) -> np.ndarray:
    """Drop all-PAD trailing columns (keeping at least one column)."""
    text_ids = np.asarray(text_ids)
    # columns after the last column containing any non-PAD are droppable
    last = np.flatnonzero((text_ids != textproc.PAD_ID).any(axis=0))
    keep = int(last.max()) + 1 if last.size else 1
    return text_ids[:, :keep]


def decode_logits(w: TransformerWeights, enc_out, image_ids: np.ndarray, drop=None):
    """Teacher-forced decoder pass; logits (B, image_len, image_vocab)."""
    cfg = w.cfg
    p = w.params
    image_ids = _check_ids(image_ids, cfg.image_vocab, "image_ids")
    B, L = image_ids.shape
    if L != cfg.image_len:
        raise DataError(f"image length {L} != grid {cfg.grid_h}x{cfg.grid_w}")
    prev = T.embedding_gather(p["image_emb"], image_ids[:, :-1])
    # start vector tiled over the batch via zero base + trailing broadcast
    base = T.constant(np.zeros((B, 1, cfg.d_model), dtype=p["dec.start"].dtype))
    h = T.concat([T.add(base, p["dec.start"]), prev], axis=1)
    h = T.add(h, p["image_pos"])
    h = nn.dropout(h, drop)
    h = nn.stack(p, "dec", h, cfg.dec_layers, cfg.heads, window=w.window,
                 cross_kv=enc_out, drop=drop)
    return nn.linear(p, "out", h)


def logits_fn(w: TransformerWeights, text_ids: np.ndarray, image_ids: np.ndarray):
    """Deterministic full forward (no dropout); used by checks and scoring."""
    return decode_logits(w, encode_text(w, text_ids), image_ids)


def drop_condition(text_ids: np.ndarray, rng, rate: float) -> np.ndarray:
    """Per example, replace the whole text row with PAD with probability rate."""
    if rate <= 0.0 or rng is None:
        return text_ids
    dropped = rng.random(text_ids.shape[0]) < rate
    out = text_ids.copy()
    out[dropped] = textproc.PAD_ID
    return out


def forward_loss(w: TransformerWeights, text_ids: np.ndarray, image_ids: np.ndarray,
                 rng=None):
    """Mean next-token cross-entropy over image positions and batch.

    rng drives conditioning dropout (cfg.cond_dropout_rate) and activation
    dropout; pass None for a deterministic evaluation pass with both off.
    """
    cfg = w.cfg
    text_ids = _check_ids(text_ids, cfg.text_vocab, "text_ids")
    image_ids = _check_ids(image_ids, cfg.image_vocab, "image_ids")
    text_ids = drop_condition(text_ids, rng, cfg.cond_dropout_rate)
    drop = (rng, cfg.dropout) if rng is not None and cfg.dropout > 0 else None
    logits = decode_logits(w, encode_text(w, text_ids, drop=drop), image_ids, drop=drop)
    B, L, V = logits.shape
    flat = T.reshape(logits, (B * L, V))
    per_tok = T.cross_entropy_with_logits(flat, image_ids.reshape(-1))
    return T.reduce_mean(per_tok)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = nn.setting(20000, low=1)
    batch: int = nn.setting(16, low=1)
    seed: int = nn.setting(0, low=0)
    log_every: int = nn.setting(200, low=1)

    def __post_init__(self):
        nn.check_settings(self, "model")


def train_model(w: TransformerWeights, text_ids: np.ndarray, image_ids: np.ndarray,
                tcfg: TrainConfig, hooks=None):
    """Train on aligned (N, text_len) / (N, image_len) id arrays.

    Returns (weights, history of per-step losses). hooks, if given, is a
    list of callables (step, loss, weights) -> None run every log_every
    steps.
    """
    if len(text_ids) != len(image_ids) or len(text_ids) == 0:
        raise DataError("train_model: need matching nonempty id arrays")
    opt_cfg = optim.OptimizerConfig(base_lr=6e-3, warmup=max(1, tcfg.steps // 40),
                                    decay_frac=0.5, final_ratio=0.05,
                                    weight_decay=1e-4)
    rng = np.random.default_rng(tcfg.seed)

    def loss_at(step):
        idx = rng.integers(0, len(text_ids), tcfg.batch)
        return forward_loss(w, trim_pad(text_ids[idx]), image_ids[idx], rng=rng)

    def run_hooks(step, loss):
        if hooks and (step + 1) % tcfg.log_every == 0:
            for h in hooks:
                h(step + 1, loss, w)

    history = optim.train_loop(w.params, loss_at, tcfg.steps, opt_cfg,
                               "seq2seq.train_model", run_hooks)
    return w, history


def smoothed(history, window: int = 100) -> float:
    if not history:
        raise DataError("smoothed: empty history")
    k = min(window, len(history))
    return float(np.mean(history[-k:]))
