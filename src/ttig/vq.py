"""Discrete image tokenizer: patch transformer encoder, factorized
l2-normalized vector quantization, mirror decoder with no output squashing
(outputs clamped to [0,1] only when an image is materialized).

Quantization happens in a d_code-dim projected space. Codes and codebook rows
are unit norm, so nearest-by-Euclidean equals max cosine; ties go to the
lowest index. The codebook learns by gradient through the stop-gradient VQ
objective (commitment weighted by BETA_COMMIT) and is renormalized to unit
rows after every optimizer step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, optim
from . import tensor as T
from .errors import DataError, NumericError


@dataclass(frozen=True)
class TokenizerConfig(nn.PatchTowerConfig):
    SECTION = "tokenizer"
    d_code: int = nn.setting(8, low=1)
    codebook_size: int = nn.setting(64, low=1)


@dataclass
class TokenizerWeights:
    cfg: TokenizerConfig
    params: nn.ParamSet

    @property
    def codebook(self) -> np.ndarray:
        return self.params["codebook"].data


def build_tokenizer(cfg: TokenizerConfig, seed: int, *,
                    skeleton: bool = False) -> TokenizerWeights:
    rng = None if skeleton else np.random.default_rng(seed)
    ps = nn.ParamSet()
    nn.add_patch_tower(ps, "enc", cfg.patch_dim, cfg, rng)
    nn.add_linear(ps, "enc.proj", cfg.d_model, cfg.d_code, rng)
    if rng is None:
        ps.add("codebook", np.zeros((cfg.codebook_size, cfg.d_code), dtype=np.float32))
    else:
        cb = rng.standard_normal((cfg.codebook_size, cfg.d_code))
        ps.add("codebook", cb / np.linalg.norm(cb, axis=1, keepdims=True))
    nn.add_patch_tower(ps, "dec", cfg.d_code, cfg, rng)
    nn.add_linear(ps, "dec.out", cfg.d_model, cfg.patch_dim, rng)
    return TokenizerWeights(cfg=cfg, params=ps)


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """(B,H,W,3) -> (B, n_patches, patch*patch*3), raster patch order."""
    B, H, W, C = images.shape
    gh, gw = H // patch, W // patch
    x = images.reshape(B, gh, patch, gw, patch, C)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x.reshape(B, gh * gw, patch * patch * C))


def unpatchify(flat: np.ndarray, patch: int, grid: int) -> np.ndarray:
    B = flat.shape[0]
    x = flat.reshape(B, grid, grid, patch, patch, 3)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x.reshape(B, grid * patch, grid * patch, 3))


def _encode_tensor(w: TokenizerWeights, images: np.ndarray):
    x = T.constant(patchify(images.astype(np.float32), w.cfg.patch))
    h = nn.patch_tower(w.params, "enc", x, w.cfg)
    return nn.linear(w.params, "enc.proj", h)  # (B, n_patches, d_code)


def _decode_tensor(w: TokenizerWeights, z_q):
    h = nn.patch_tower(w.params, "dec", z_q, w.cfg)
    return nn.linear(w.params, "dec.out", h)  # (B, n_patches, patch_dim), unclamped


def quantize(codebook: np.ndarray, z: np.ndarray):
    """Nearest-codebook assignment in the normalized code space.

    z may be (n, d_c) or batched (..., d_c); returns the nearest code's index
    per row, shaped z.shape[:-1]. Straight-through convention: train-time
    graphs treat d z_q / d z as identity (see train_tokenizer).
    """
    codebook = np.asarray(codebook)
    z = np.asarray(z)
    if z.shape[-1] != codebook.shape[1]:
        raise DataError(f"code dim mismatch: z {z.shape} vs codebook {codebook.shape}")
    if not np.all(np.isfinite(z)):
        raise NumericError("quantize: non-finite codes")
    norms = np.linalg.norm(codebook, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-3):
        raise NumericError("quantize: codebook rows are not unit norm")
    flat = z.reshape(-1, z.shape[-1])
    zn_norm = np.linalg.norm(flat, axis=1, keepdims=True)
    if np.any(zn_norm == 0.0):
        raise NumericError("quantize: zero-norm code row")
    zhat = flat / zn_norm
    # unit vectors: argmin Euclidean == argmax dot; argmax takes lowest index on ties
    ids = np.argmax(zhat @ codebook.T, axis=1)
    return ids.reshape(z.shape[:-1])


def tokenize(w: TokenizerWeights, images: np.ndarray) -> np.ndarray:
    """Images (n, H, W, 3) in [0,1] -> int token grids (n, grid, grid)."""
    cfg = w.cfg
    if images.shape[1] != cfg.image_size or images.shape[2] != cfg.image_size:
        raise DataError(f"expected {cfg.image_size}x{cfg.image_size} input, got {images.shape[1:3]}")
    ids = nn.in_chunks(lambda x: quantize(w.codebook, _encode_tensor(w, x).data), images)
    return ids.reshape(images.shape[0], cfg.grid, cfg.grid)


def detokenize(w: TokenizerWeights, tokens: np.ndarray) -> np.ndarray:
    """Token grids (n, grid, grid) -> images (n, H, W, 3), clamped to [0,1]
    here at materialization."""
    tokens = np.asarray(tokens)
    cfg = w.cfg
    if tokens.min() < 0 or tokens.max() >= cfg.codebook_size:
        raise DataError(f"token id outside [0, {cfg.codebook_size})")

    def decode(grids):
        zq = w.codebook[grids.reshape(len(grids), -1)]
        flat = _decode_tensor(w, T.constant(zq)).data
        return np.clip(unpatchify(flat, cfg.patch, cfg.grid), 0.0, 1.0)

    return nn.in_chunks(decode, tokens)


def reconstruction_mse(w: TokenizerWeights, images: np.ndarray) -> float:
    recon = detokenize(w, tokenize(w, images))
    return float(np.mean((recon - images) ** 2))


@dataclass(frozen=True)
class TokTrainConfig:
    steps: int = nn.setting(6000, low=1)
    batch: int = nn.setting(32, low=1)
    seed: int = nn.setting(0, low=0)
    warmup: int = nn.setting(200, low=0)

    def __post_init__(self):
        nn.check_settings(self, "tokenizer")


# weight of the commitment term, which pulls the encoder's codes toward
# their codebook rows
BETA_COMMIT = 0.25


def _row_mean_sq(diff):
    return T.reduce_mean(T.reduce_sum(T.mul(diff, diff), axis=2))


def _init_codebook_from_data(w: TokenizerWeights, images, rng):
    probe = images[rng.permutation(len(images))[:max(8, w.cfg.codebook_size)]]
    z = _encode_tensor(w, probe).data.reshape(-1, w.cfg.d_code)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    z = z[norms[:, 0] > 0] / norms[norms[:, 0] > 0]
    uniq, order = [], rng.permutation(len(z))
    for i in order:
        if all(np.abs(z[i] @ u) < 0.999 for u in uniq):
            uniq.append(z[i])
        if len(uniq) == w.cfg.codebook_size:
            break
    while len(uniq) < w.cfg.codebook_size:
        r = rng.standard_normal(w.cfg.d_code)
        uniq.append(r / np.linalg.norm(r))
    w.params["codebook"].data = np.stack(uniq).astype(np.float32)


def train_tokenizer(images: np.ndarray, cfg: TokenizerConfig, tcfg: TokTrainConfig):
    """Train encoder/decoder/codebook on images (n, H, W, 3) in [0,1].

    Loss = mean||x_hat - x||^2 + codebook_loss + BETA_COMMIT * commitment.
    The codebook starts from the encoder's outputs on a probe batch, and its
    rows are renormalized after every step. Returns (weights, history).
    """
    if images.ndim != 4 or images.shape[0] == 0:
        raise DataError(f"need a nonempty (n,H,W,3) image array, got {images.shape}")
    w = build_tokenizer(cfg, tcfg.seed)
    rng = np.random.default_rng(tcfg.seed + 1)
    _init_codebook_from_data(w, images, rng)
    opt_cfg = optim.OptimizerConfig(base_lr=3e-3, warmup=tcfg.warmup,
                                    decay_frac=0.6, final_ratio=0.05,
                                    weight_decay=0.0)
    cb = w.params["codebook"]

    def loss_at(step):
        idx = rng.integers(0, len(images), tcfg.batch)
        x = images[idx].astype(np.float32)
        z = _encode_tensor(w, x)
        zhat = T.l2_normalize(z, eps=0.0)
        ids = quantize(cb.data, zhat.data)
        e = T.embedding_gather(cb, ids.reshape(-1))
        e = T.reshape(e, z.shape)
        z_q_st = T.add(z, T.constant(e.data - z.data))  # straight-through
        recon = _decode_tensor(w, z_q_st)
        rec_loss = nn.mse(recon, patchify(x, cfg.patch))
        # each difference is an add of the negated constant; (e - zhat)**2
        # is (zhat - e)**2 exactly, and so are its gradients
        cb_loss = _row_mean_sq(T.add(e, T.constant(-zhat.data)))
        commit = _row_mean_sq(T.add(zhat, T.constant(-e.data)))
        return T.add(T.add(rec_loss, cb_loss), T.scale(commit, BETA_COMMIT))

    def renormalize_codebook(step, loss):
        n = np.linalg.norm(cb.data, axis=1, keepdims=True)
        if np.any(n == 0):
            raise NumericError("codebook row collapsed to zero norm")
        cb.data = (cb.data / n).astype(np.float32)

    history = optim.train_loop(w.params, loss_at, tcfg.steps, opt_cfg,
                               "vq.train_tokenizer", renormalize_codebook)
    return w, history


def codebook_stats(index_stream, K: int) -> dict:
    """usage_fraction = distinct/K; perplexity = exp(entropy) of the
    empirical id distribution (natural log)."""
    ids = np.asarray(index_stream).reshape(-1)
    if ids.size == 0:
        raise DataError("codebook_stats: empty index stream")
    counts = np.bincount(ids, minlength=K).astype(np.float64)
    probs = counts[counts > 0] / ids.size
    entropy = float(-(probs * np.log(probs)).sum())
    return {"usage_fraction": float((counts > 0).sum() / K),
            "perplexity": float(np.exp(entropy))}
