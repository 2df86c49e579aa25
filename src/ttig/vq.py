"""Discrete image tokenizer: patch transformer encoder, factorized
l2-normalized vector quantization, mirror decoder with no output squashing
(outputs clamped to [0,1] only when an image is materialized), plus a small
residual-conv super-resolution head.

Quantization happens in a d_code-dim projected space. Codes and codebook rows
are unit norm, so nearest-by-Euclidean equals max cosine; ties go to the
lowest index. The codebook learns by gradient through the stop-gradient VQ
objective and is renormalized to unit rows after every optimizer step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, optim
from . import tensor as T
from .errors import DataError, NumericError


@dataclass(frozen=True)
class TokenizerConfig:
    image_size: int = 32
    patch: int = 4
    d_model: int = 64
    n_blocks: int = 2
    heads: int = 4
    d_mlp: int = 256
    d_code: int = 8
    codebook_size: int = 64
    dec_d_model: int = 0   # 0 = same as d_model (the wider-decoder flag)
    dec_blocks: int = 0    # 0 = same as n_blocks

    @property
    def grid(self) -> int:
        return self.image_size // self.patch

    @property
    def n_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch * 3

    @property
    def dec_d(self) -> int:
        return self.dec_d_model or self.d_model

    @property
    def dec_n(self) -> int:
        return self.dec_blocks or self.n_blocks


@dataclass
class TokenizerWeights:
    cfg: TokenizerConfig
    params: nn.ParamSet

    @property
    def codebook(self) -> np.ndarray:
        return self.params["codebook"].data


def build_tokenizer(cfg: TokenizerConfig, seed: int) -> TokenizerWeights:
    if cfg.image_size % cfg.patch:
        raise DataError(f"image_size {cfg.image_size} not divisible by patch {cfg.patch}")
    if cfg.d_model % cfg.heads:
        raise DataError(f"heads {cfg.heads} must divide d_model {cfg.d_model}")
    rng = np.random.default_rng(seed)
    ps = nn.ParamSet()
    nn.add_linear(ps, "enc.in", cfg.patch_dim, cfg.d_model, rng)
    ps.add("enc.pos", nn.trunc_normal(rng, (cfg.n_patches, cfg.d_model)))
    for i in range(cfg.n_blocks):
        nn.add_block(ps, f"enc.b{i}", cfg.d_model, cfg.d_mlp, rng)
    nn.add_ln(ps, "enc.ln_out", cfg.d_model)
    nn.add_linear(ps, "enc.proj", cfg.d_model, cfg.d_code, rng)
    cb = rng.standard_normal((cfg.codebook_size, cfg.d_code))
    cb /= np.linalg.norm(cb, axis=1, keepdims=True)
    ps.add("codebook", cb)
    nn.add_linear(ps, "dec.in", cfg.d_code, cfg.dec_d, rng)
    ps.add("dec.pos", nn.trunc_normal(rng, (cfg.n_patches, cfg.dec_d)))
    for i in range(cfg.dec_n):
        nn.add_block(ps, f"dec.b{i}", cfg.dec_d, cfg.d_mlp, rng)
    nn.add_ln(ps, "dec.ln_out", cfg.dec_d)
    nn.add_linear(ps, "dec.out", cfg.dec_d, cfg.patch_dim, rng)
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
    cfg = w.cfg
    p = w.params
    x = T.constant(patchify(images.astype(np.float32), cfg.patch))
    h = T.add(nn.linear(p, "enc.in", x), p["enc.pos"])
    for i in range(cfg.n_blocks):
        h = nn.block(p, f"enc.b{i}", h, cfg.heads)
    h = nn.ln_affine(p, "enc.ln_out", h)
    return nn.linear(p, "enc.proj", h)  # (B, n_patches, d_code)


def _decode_tensor(w: TokenizerWeights, z_q):
    cfg = w.cfg
    p = w.params
    h = T.add(nn.linear(p, "dec.in", z_q), p["dec.pos"])
    for i in range(cfg.dec_n):
        h = nn.block(p, f"dec.b{i}", h, cfg.heads)
    h = nn.ln_affine(p, "dec.ln_out", h)
    return nn.linear(p, "dec.out", h)  # (B, n_patches, patch_dim), unclamped


def quantize(codebook: np.ndarray, z: np.ndarray):
    """Nearest-codebook assignment in the normalized code space.

    Returns (indices, z_q, codebook_loss, commitment_loss). z may be (n, d_c)
    or batched (..., d_c). Straight-through convention: train-time graphs
    treat d z_q / d z as identity (see train_tokenizer).
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
    zq = codebook[ids]
    codebook_loss = float(((zhat - zq) ** 2).sum(axis=1).mean())
    commitment_loss = codebook_loss  # identical value; gradients differ by stop-grad side
    lead = z.shape[:-1]
    return ids.reshape(lead), zq.reshape(z.shape), codebook_loss, commitment_loss


# Images per encoder pass in tokenize: bounds its peak memory on large sets.
# Every op of the untaped encoder acts row by row, so the codes do not depend
# on the chunking.
TOKENIZE_CHUNK = 64


def tokenize(w: TokenizerWeights, images: np.ndarray) -> np.ndarray:
    """Image(s) in [0,1] -> int token grid(s) (grid, grid) over the codebook."""
    single = images.ndim == 3
    if single:
        images = images[None]
    cfg = w.cfg
    if images.shape[1] % cfg.patch or images.shape[2] % cfg.patch:
        raise DataError(f"image dims {images.shape[1:3]} not divisible by patch {cfg.patch}")
    if images.shape[1] != cfg.image_size or images.shape[2] != cfg.image_size:
        raise DataError(f"expected {cfg.image_size}x{cfg.image_size} input, got {images.shape[1:3]}")
    ids = [quantize(w.codebook, _encode_tensor(w, images[s:s + TOKENIZE_CHUNK]).data)[0]
           for s in range(0, len(images), TOKENIZE_CHUNK)]
    grids = np.concatenate(ids or [np.zeros(0, np.intp)])
    grids = grids.reshape(images.shape[0], cfg.grid, cfg.grid)
    return grids[0] if single else grids


def detokenize(w: TokenizerWeights, tokens: np.ndarray) -> np.ndarray:
    """Token grid(s) -> image(s), clamped to [0,1] here at materialization."""
    tokens = np.asarray(tokens)
    single = tokens.ndim == 2
    if single:
        tokens = tokens[None]
    cfg = w.cfg
    if tokens.min() < 0 or tokens.max() >= cfg.codebook_size:
        raise DataError(f"token id outside [0, {cfg.codebook_size})")
    zq = w.codebook[tokens.reshape(tokens.shape[0], -1)]
    flat = _decode_tensor(w, T.constant(zq)).data
    imgs = np.clip(unpatchify(flat, cfg.patch, cfg.grid), 0.0, 1.0)
    return imgs[0] if single else imgs


def reconstruction_mse(w: TokenizerWeights, images: np.ndarray) -> float:
    recon = detokenize(w, tokenize(w, images))
    return float(np.mean((recon - images) ** 2))


@dataclass
class TokTrainConfig:
    steps: int = 6000
    lr: float = 3e-3
    beta_commit: float = 0.25
    batch: int = 32
    seed: int = 0
    warmup: int = 200
    data_init: bool = True  # seed codebook from encoder outputs of a probe batch


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


def train_tokenizer(images: np.ndarray, cfg: TokenizerConfig, tcfg: TokTrainConfig,
                    opt_cfg: optim.OptimizerConfig | None = None):
    """Train encoder/decoder/codebook on images (n, H, W, 3) in [0,1].

    Loss = mean||x_hat - x||^2 + codebook_loss + beta_commit * commitment.
    Codebook rows renormalized after every step. Returns (weights, history).
    """
    if images.ndim != 4 or images.shape[0] == 0:
        raise DataError(f"need a nonempty (n,H,W,3) image array, got {images.shape}")
    w = build_tokenizer(cfg, tcfg.seed)
    rng = np.random.default_rng(tcfg.seed + 1)
    if tcfg.data_init:
        _init_codebook_from_data(w, images, rng)
    if opt_cfg is None:
        opt_cfg = optim.OptimizerConfig(
            base_lr=tcfg.lr, warmup=tcfg.warmup, decay_start=int(tcfg.steps * 0.6),
            total_steps=tcfg.steps, final_ratio=0.05, weight_decay=0.0)
    state = optim.OptimizerState()
    cb = w.params["codebook"]
    history = []
    for _ in range(tcfg.steps):
        idx = rng.integers(0, len(images), tcfg.batch)
        x = images[idx].astype(np.float32)
        with T.Tape():
            z = _encode_tensor(w, x)
            zhat = T.l2_normalize(z, axis=-1, eps=0.0)
            ids, zq, _, _ = quantize(cb.data, zhat.data)
            e = T.embedding_gather(cb, ids.reshape(-1))
            e = T.reshape(e, z.shape)
            z_q_st = T.add(z, T.constant(e.data - z.data))  # straight-through
            recon = _decode_tensor(w, z_q_st)
            target = T.constant(patchify(x, cfg.patch))
            rec_loss = nn.mse(recon, target)
            cb_loss = _row_mean_sq(T.sub(T.constant(zhat.data), e))
            commit = _row_mean_sq(T.sub(zhat, T.constant(e.data)))
            loss = T.add(T.add(rec_loss, cb_loss), T.scale(commit, tcfg.beta_commit))
        lval = float(loss.data)
        if not np.isfinite(lval):
            raise NumericError(f"tokenizer training diverged at step {state.step}")
        grads = nn.grads_of(loss, w.params)
        optim.adafactor_step(w.params, grads, state, opt_cfg)
        n = np.linalg.norm(cb.data, axis=1, keepdims=True)
        if np.any(n == 0):
            raise NumericError("codebook row collapsed to zero norm")
        cb.data = (cb.data / n).astype(np.float32)
        history.append(lval)
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


# ---------------------------------------------------------------------------
# super-resolution head

@dataclass(frozen=True)
class SRConfig:
    n_blocks: int = 4
    channels: int = 32
    kernel: int = 3


@dataclass
class SRWeights:
    cfg: SRConfig
    params: nn.ParamSet


def build_sr(cfg: SRConfig, seed: int) -> SRWeights:
    rng = np.random.default_rng(seed)
    ps = nn.ParamSet()
    k, c = cfg.kernel, cfg.channels
    ps.add("in.w", nn.trunc_normal(rng, (k, k, 3, c)))
    ps.add("in.b", np.zeros(c, dtype=np.float32))
    for i in range(cfg.n_blocks):
        ps.add(f"b{i}.w1", nn.trunc_normal(rng, (k, k, c, c)))
        ps.add(f"b{i}.b1", np.zeros(c, dtype=np.float32))
        ps.add(f"b{i}.w2", nn.trunc_normal(rng, (k, k, c, c)))
        ps.add(f"b{i}.b2", np.zeros(c, dtype=np.float32))
    ps.add("out.w", nn.trunc_normal(rng, (k, k, c, 3)))
    ps.add("out.b", np.zeros(3, dtype=np.float32))
    return SRWeights(cfg=cfg, params=ps)


def _sr_tensor(w: SRWeights, x):
    p = w.params
    pad = w.cfg.kernel // 2
    h = T.add(T.conv2d(x, p["in.w"], stride=1, pad=pad), p["in.b"])
    for i in range(w.cfg.n_blocks):
        r = T.relu(T.add(T.conv2d(h, p[f"b{i}.w1"], stride=1, pad=pad), p[f"b{i}.b1"]))
        r = T.add(T.conv2d(r, p[f"b{i}.w2"], stride=1, pad=pad), p[f"b{i}.b2"])
        h = T.add(h, r)
    up = nn.upsample2x(h)
    out = T.add(T.conv2d(up, p["out.w"], stride=1, pad=pad), p["out.b"])
    return T.add(out, nn.upsample2x(x))  # global nearest-neighbor skip


def upsample(w: SRWeights, images: np.ndarray) -> np.ndarray:
    """2x super-resolution; clamps to [0,1] at materialization."""
    single = images.ndim == 3
    if single:
        images = images[None]
    out = _sr_tensor(w, T.constant(images.astype(np.float32))).data
    out = np.clip(out, 0.0, 1.0)
    return out[0] if single else out


def nn_upsample_baseline(images: np.ndarray) -> np.ndarray:
    return images.repeat(2, axis=-3).repeat(2, axis=-2)


def train_sr(lo: np.ndarray, hi: np.ndarray, cfg: SRConfig, steps: int = 400,
             lr: float = 3e-3, batch: int = 8, seed: int = 0):
    """Fit the SR head on (low-res, high-res) render pairs. Returns
    (weights, history)."""
    if len(lo) != len(hi) or len(lo) == 0:
        raise DataError("train_sr: need matching nonempty lo/hi arrays")
    w = build_sr(cfg, seed)
    rng = np.random.default_rng(seed + 3)
    opt_cfg = optim.OptimizerConfig(base_lr=lr, warmup=max(1, steps // 20),
                                    decay_start=int(steps * 0.6), total_steps=steps,
                                    final_ratio=0.1, weight_decay=0.0)
    state = optim.OptimizerState()
    history = []
    for _ in range(steps):
        idx = rng.integers(0, len(lo), batch)
        with T.Tape():
            pred = _sr_tensor(w, T.constant(lo[idx].astype(np.float32)))
            loss = nn.mse(pred, T.constant(hi[idx].astype(np.float32)))
        lval = float(loss.data)
        if not np.isfinite(lval):
            raise NumericError("sr training diverged")
        grads = nn.grads_of(loss, w.params)
        optim.adafactor_step(w.params, grads, state, opt_cfg)
        history.append(lval)
    return w, history
