"""Shared transformer building blocks on top of the tensor catalog.

Pre-LN blocks, learned absolute positions, truncated-normal init (std 0.02,
resampled beyond 2 sigma), layer norms carrying their own gain/bias params.
Attention masks are boolean "allowed" matrices; the softmax op fills
disallowed slots with tensor.NEG_FILL (-1e9) before normalising.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DataError


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    x = rng.standard_normal(shape)
    bad = np.abs(x) > 2.0
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
    return (x * std).astype(np.float32)


class ParamSet:
    """Ordered name -> Tensor registry; the unit the optimizer walks."""

    def __init__(self):
        self.params = {}

    def add(self, name: str, arr) -> T.Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = T.Tensor(np.ascontiguousarray(arr, dtype=np.float32), requires_grad=True)
        self.params[name] = t
        return t

    def __getitem__(self, name: str) -> T.Tensor:
        return self.params[name]

    def __contains__(self, name):
        return name in self.params

    def names(self):
        return list(self.params)

    def items(self):
        return self.params.items()

    def subset(self, prefixes) -> "ParamSet":
        """View (shared Tensors) restricted to names starting with any prefix."""
        out = ParamSet()
        for name, t in self.params.items():
            if any(name.startswith(p) for p in prefixes):
                out.params[name] = t
        return out

    def state_dict(self):
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state(self, sd):
        if set(sd) != set(self.params):
            missing = set(self.params) - set(sd)
            extra = set(sd) - set(self.params)
            raise DataError(f"state mismatch; missing={sorted(missing)} extra={sorted(extra)}")
        for name, arr in sd.items():
            t = self.params[name]
            if tuple(arr.shape) != t.shape:
                raise DataError(f"shape mismatch for {name}: {arr.shape} vs {t.shape}")
            t.data = np.ascontiguousarray(arr, dtype=np.float32)

    def n_params(self):
        return sum(t.data.size for t in self.params.values())


def add_linear(ps: ParamSet, pre: str, d_in: int, d_out: int, rng):
    ps.add(pre + ".w", trunc_normal(rng, (d_in, d_out)))
    ps.add(pre + ".b", np.zeros(d_out, dtype=np.float32))


def add_ln(ps: ParamSet, pre: str, d: int):
    ps.add(pre + ".g", np.ones(d, dtype=np.float32))
    ps.add(pre + ".b", np.zeros(d, dtype=np.float32))


def add_attn(ps: ParamSet, pre: str, d: int, rng):
    for nm in ("wq", "wk", "wv", "wo"):
        ps.add(f"{pre}.{nm}", trunc_normal(rng, (d, d)))
    for nm in ("bq", "bk", "bv", "bo"):
        ps.add(f"{pre}.{nm}", np.zeros(d, dtype=np.float32))


def add_mlp(ps: ParamSet, pre: str, d: int, d_mlp: int, rng):
    add_linear(ps, pre + ".fc1", d, d_mlp, rng)
    add_linear(ps, pre + ".fc2", d_mlp, d, rng)


def add_block(ps: ParamSet, pre: str, d: int, d_mlp: int, rng, cross: bool = False):
    add_ln(ps, pre + ".ln1", d)
    add_attn(ps, pre + ".attn", d, rng)
    if cross:
        add_ln(ps, pre + ".lnx", d)
        add_attn(ps, pre + ".xattn", d, rng)
    add_ln(ps, pre + ".ln2", d)
    add_mlp(ps, pre + ".mlp", d, d_mlp, rng)


def linear(p: ParamSet, pre: str, x):
    return T.add(T.matmul(x, p[pre + ".w"]), p[pre + ".b"])


def ln_affine(p: ParamSet, pre: str, x, eps: float = 1e-5):
    return T.add(T.mul(T.layer_norm(x, axis=-1, eps=eps), p[pre + ".g"]), p[pre + ".b"])


def dropout(x, drop):
    """drop = None or (rng, rate); inverted-scale mask as a constant."""
    if drop is None:
        return x
    rng, rate = drop
    if rate <= 0.0:
        return x
    keep = (rng.random(x.shape, dtype=np.float32) >= rate) * np.float32(1.0 / (1.0 - rate))
    return T.mul(x, T.constant(keep, dtype=x.dtype))


def attention(p: ParamSet, pre: str, x, heads: int, kv=None, allowed=None):
    """x (B,L,D) queries; kv (B,S,D) or None for self-attention; allowed is an
    optional boolean (L,S) mask, True where attention is permitted."""
    B, L, D = x.shape
    dh = D // heads
    src = x if kv is None else kv
    S = src.shape[1]
    q = T.add(T.matmul(x, p[pre + ".wq"]), p[pre + ".bq"])
    k = T.add(T.matmul(src, p[pre + ".wk"]), p[pre + ".bk"])
    v = T.add(T.matmul(src, p[pre + ".wv"]), p[pre + ".bv"])
    q = T.transpose(T.reshape(q, (B, L, heads, dh)), (0, 2, 1, 3))
    k = T.transpose(T.reshape(k, (B, S, heads, dh)), (0, 2, 3, 1))
    v = T.transpose(T.reshape(v, (B, S, heads, dh)), (0, 2, 1, 3))
    att = T.softmax(T.matmul(q, k), axis=-1, scale=1.0 / np.sqrt(dh), allowed=allowed)
    out = T.matmul(att, v)
    out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (B, L, D))
    return T.add(T.matmul(out, p[pre + ".wo"]), p[pre + ".bo"])


def mlp(p: ParamSet, pre: str, x):
    return linear(p, pre + ".fc2", T.gelu(linear(p, pre + ".fc1", x)))


def block(p: ParamSet, pre: str, x, heads: int, allowed=None, cross_kv=None, drop=None):
    """One pre-LN block: self-attn, optional cross-attn, MLP, residuals."""
    a = attention(p, pre + ".attn", ln_affine(p, pre + ".ln1", x), heads, allowed=allowed)
    x = T.add(x, dropout(a, drop))
    if cross_kv is not None:
        a = attention(p, pre + ".xattn", ln_affine(p, pre + ".lnx", x), heads, kv=cross_kv)
        x = T.add(x, dropout(a, drop))
    m = mlp(p, pre + ".mlp", ln_affine(p, pre + ".ln2", x))
    return T.add(x, dropout(m, drop))


def grads_of(loss, params: ParamSet) -> dict:
    """Gradient arrays for the params reached by backward, keyed by name."""
    gm = T.backward(loss)
    return {name: gm[t.node_id].data for name, t in params.items()
            if t.node_id is not None and t.node_id in gm}


def mse(a, b):
    d = T.sub(a, b)
    return T.reduce_mean(T.mul(d, d))


def upsample2x(x):
    """Nearest-neighbor 2x upsample of (B,H,W,C), built from catalog ops."""
    B, H, W, C = x.shape
    r = T.reshape(x, (B, H, 1, W, 1, C))
    r = T.concat([r, r], axis=2)
    r = T.concat([r, r], axis=4)
    return T.reshape(r, (B, 2 * H, 2 * W, C))
