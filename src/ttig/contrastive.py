"""Dual-encoder image-text alignment model and exact retrieval.

Two small transformer towers project images and captions into a shared
unit-sphere space of dimension d_e. Training pulls matched pairs together
with a symmetric cross-entropy over the in-batch similarity matrix times a
learned logit scale tau (TAU_INIT at the start, floored at TAU_MIN). The
resulting cosine is the reranking score, and the image side doubles as the
feature extractor for distribution metrics.

Retrieval is an exact scan: cosine against every image embedding row,
descending, ties broken toward the lower row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, optim, textproc, vq
from . import tensor as T
from .errors import DataError


# the learned logit scale that multiplies the cosines: its initial value, and
# the floor it is clamped to after every training step
TAU_INIT = 1.0 / 0.07
TAU_MIN = 1e-3


@dataclass(frozen=True)
class EncoderConfig(nn.PatchTowerConfig):
    SECTION = "reranker"
    d_mlp: int = nn.setting(128, low=1)
    d_e: int = nn.setting(32, low=1)
    text_vocab: int = nn.setting(512, low=1)
    text_len: int = nn.setting(32, low=1)


@dataclass
class DualEncoder:
    cfg: EncoderConfig
    params: nn.ParamSet


def build_encoder(cfg: EncoderConfig, seed: int = 0, *,
                  skeleton: bool = False) -> DualEncoder:
    rng = None if skeleton else np.random.default_rng(seed)
    ps = nn.ParamSet()
    nn.add_patch_tower(ps, "img", cfg.patch_dim, cfg, rng)
    nn.add_linear(ps, "img.proj", cfg.d_model, cfg.d_e, rng)
    ps.add("txt.emb", nn.trunc_normal(rng, (cfg.text_vocab, cfg.d_model)))
    ps.add("txt.pos", nn.trunc_normal(rng, (cfg.text_len, cfg.d_model)))
    nn.add_stack(ps, "txt", cfg.n_blocks, cfg.d_model, cfg.d_mlp, rng)
    nn.add_linear(ps, "txt.proj", cfg.d_model, cfg.d_e, rng)
    ps.add("tau", np.array([[TAU_INIT]], dtype=np.float32))
    return DualEncoder(cfg=cfg, params=ps)


def _image_pooled(enc: DualEncoder, images: np.ndarray):
    """Mean-pooled image-tower features (B, d_model), before projection."""
    cfg = enc.cfg
    images = np.asarray(images, dtype=np.float32)
    if images.shape[1:] != (cfg.image_size, cfg.image_size, 3):
        raise DataError(f"expected {cfg.image_size}x{cfg.image_size}x3 images, "
                        f"got {images.shape[1:]}")
    x = nn.patch_tower(enc.params, "img", T.constant(vq.patchify(images, cfg.patch)), cfg)
    return T.reduce_mean(x, axis=1)


def _text_pooled(enc: DualEncoder, text_ids: np.ndarray):
    cfg = enc.cfg
    p = enc.params
    ids = np.asarray(text_ids, dtype=np.int64)
    if ids.shape[1] != cfg.text_len:
        raise DataError(f"text rows must have length {cfg.text_len}, got {ids.shape[1]}")
    if ids.min() < 0 or ids.max() >= cfg.text_vocab:
        raise DataError("text id out of range")
    x = T.add(T.embedding_gather(p["txt.emb"], ids), p["txt.pos"])
    x = nn.stack(p, "txt", x, cfg.n_blocks, cfg.heads)
    return T.reduce_mean(x, axis=1)


def _project(p: nn.ParamSet, pre: str, pooled):
    return T.l2_normalize(nn.linear(p, pre, pooled), eps=1e-12)


def embed_image(enc: DualEncoder, images: np.ndarray) -> np.ndarray:
    """Unit-norm projected image embeddings (n, d_e)."""
    return nn.in_chunks(
        lambda x: _project(enc.params, "img.proj", _image_pooled(enc, x)).data, images)


def embed_text(enc: DualEncoder, text_ids) -> np.ndarray:
    """Unit-norm projected text embeddings (n, d_e); rows padded to text_len."""
    return _project(enc.params, "txt.proj", _text_pooled(enc, _pad_rows(enc.cfg, text_ids))).data


def image_features(enc: DualEncoder, images: np.ndarray) -> np.ndarray:
    """Pooled pre-projection features (n, d_model); the FID feature hook."""
    return nn.in_chunks(lambda x: _image_pooled(enc, x).data, images)


def _pad_rows(cfg: EncoderConfig, text_ids):
    """Accept one id list or a list of lists; clip/pad every row to text_len."""
    if isinstance(text_ids, np.ndarray) and text_ids.ndim == 2:
        return text_ids
    rows = text_ids
    if len(rows) and np.isscalar(rows[0]):
        rows = [rows]
    out = np.zeros((len(rows), cfg.text_len), dtype=np.int64)
    for i, r in enumerate(rows):
        r = list(r)[:cfg.text_len]
        out[i, :len(r)] = r
    return out


def make_scorer(enc: DualEncoder, vocab: textproc.Vocab):
    """rerank-compatible scorer: (images, prompt) -> per-image cosines."""
    def scorer(images, prompt):
        ids = textproc.encode_clipped(vocab, prompt, enc.cfg.text_len)
        zt = embed_text(enc, ids)[0]
        return embed_image(enc, images) @ zt
    return scorer


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class CLTrainConfig:
    steps: int = nn.setting(600, low=1)
    batch: int = nn.setting(32, low=2)  # in-batch negatives
    seed: int = nn.setting(0, low=0)
    warmup: int = nn.setting(50, low=0)

    def __post_init__(self):
        nn.check_settings(self, "reranker")


def contrastive_loss(enc: DualEncoder, images: np.ndarray, text_ids: np.ndarray):
    """Symmetric InfoNCE over the tau-scaled in-batch similarity matrix."""
    B = len(images)
    if B < 2:
        raise DataError("contrastive loss needs at least 2 pairs per batch")
    zi = _project(enc.params, "img.proj", _image_pooled(enc, images))
    zt = _project(enc.params, "txt.proj", _text_pooled(enc, text_ids))
    sim = T.matmul(zi, T.transpose(zt, (1, 0)))
    flat = T.reshape(sim, (B * B, 1))
    sim = T.reshape(T.matmul(flat, enc.params["tau"]), (B, B))
    labels = np.arange(B)
    i2t = T.reduce_mean(T.cross_entropy_with_logits(sim, labels))
    t2i = T.reduce_mean(T.cross_entropy_with_logits(T.transpose(sim, (1, 0)), labels))
    return T.scale(T.add(i2t, t2i), 0.5)


def train_contrastive(images: np.ndarray, captions_ids, tcfg: CLTrainConfig,
                      cfg: EncoderConfig | None = None):
    """Train a dual encoder on paired (image, caption-id) data.

    captions_ids is one id row per image (variable length ok, padded here).
    Returns (encoder, loss history).
    """
    cfg = cfg or EncoderConfig()
    n = len(images)
    if n < tcfg.batch:
        raise DataError(f"need at least {tcfg.batch} pairs, got {n}")
    enc = build_encoder(cfg, seed=tcfg.seed)
    text = _pad_rows(cfg, captions_ids)
    ocfg = optim.OptimizerConfig(base_lr=2e-3, warmup=tcfg.warmup,
                                 decay_frac=0.5, final_ratio=0.1,
                                 weight_decay=0.0)
    rng = np.random.default_rng(tcfg.seed + 1)
    tau = enc.params["tau"]

    def loss_at(step):
        idx = rng.choice(n, size=tcfg.batch, replace=False)
        return contrastive_loss(enc, images[idx], text[idx])

    def floor_tau(step, loss):
        np.maximum(tau.data, TAU_MIN, out=tau.data)

    history = optim.train_loop(enc.params, loss_at, tcfg.steps, ocfg,
                               "contrastive.train_contrastive", floor_tau)
    return enc, history


# ---------------------------------------------------------------------------
# retrieval

def retrieve_nearest(enc: DualEncoder, embeddings: np.ndarray, text_ids, k: int):
    """Exact top-k over embed_image's (n, d_e) rows -> (row indices, cosines),
    descending; ties broken by lower row."""
    n = len(embeddings)
    if not 1 <= k <= n:
        raise DataError(f"k must be in [1, {n}], got {k}")
    sims = embeddings @ embed_text(enc, text_ids)[0]
    top = np.argsort(-sims, kind="stable")[:k]
    return top, sims[top]
