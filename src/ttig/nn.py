"""Shared transformer building blocks on top of the tensor catalog.

Pre-LN blocks, learned absolute positions, truncated-normal init (std 0.02,
resampled beyond 2 sigma), layer norms carrying their own gain/bias params.
A biased projection is one tensor.linear op, and a LayerNorm with its gain
and bias one tensor.layer_norm op. An attention sublayer is one
tensor.attention op (its LayerNorm, the Q/K/V projections, the key one
without bias, and the head mix) and the output projection wo, a linear op;
a training step keeps neither the normalised input nor q, k, v. The MLP is
two linear ops: fc1 takes the block's ln2 as its pre-step and fc2 the GELU,
so a training step keeps neither the normalised input nor the GELU output.
A self-attention mask is the tensor.Window that tensor.attention_window builds
once per model from a boolean "allowed" matrix: the op scores only its keys
and gives ruled-out slots tensor.NEG_FILL (-1e9), which is exactly zero
weight, before normalising. A mask row that allows no key is a ShapeError.

Every transformer tower (tokenizer encoder and decoder, text encoder and
image decoder, reranker image and text towers) is one add_stack/stack pair:
blocks pre.b0 ... pre.b{n-1}, then the final LayerNorm pre.ln_out. Outside
this module only the sampler's per-chain packing reads those names. The
three over an image's patches (tokenizer encoder and decoder, reranker image
tower) are one add_patch_tower/patch_tower pair sized by a PatchTowerConfig:
the in-projection pre.in, the learned positions pre.pos, then the stack.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import tensor as T
from .errors import DataError


def trunc_normal(rng: np.random.Generator | None, shape, std: float = 0.02) -> np.ndarray:
    """Normal draws resampled beyond 2 sigma, times std. With rng None (a
    builder's skeleton=True) it draws nothing and gives zeros: a placeholder
    a checkpoint's load_state overwrites."""
    if rng is None:
        return np.zeros(shape, dtype=np.float32)
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

    def items(self):
        return self.params.items()

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


def setting(default, low, high=np.inf):
    """A config dataclass field of legal values [low, high], for check_settings."""
    return dataclasses.field(default=default, metadata={"range": (low, high)})


def check_settings(cfg, section: str):
    """Raise a DataError naming section.key for the first field of cfg, a
    dataclass of setting fields, that is NaN, infinite or out of its range."""
    for f in dataclasses.fields(cfg):
        low, high = f.metadata["range"]
        value = getattr(cfg, f.name)
        if not -np.inf < value < np.inf:  # NaN fails the comparison too
            raise DataError(f"{section}.{f.name} must be finite, got {value}")
        if not low <= value <= high:
            bound = f"at least {low}" if high == np.inf else f"in [{low}, {high}]"
            raise DataError(f"{section}.{f.name} must be {bound}, got {value}")


@dataclasses.dataclass(frozen=True)
class PatchTowerConfig:
    """The settings of a transformer over an image's patches. A subclass
    declares its own fields after these (re-declaring one keeps its place)
    and names its config section, for the messages, in the class attribute
    SECTION, which is not a field."""
    image_size: int = setting(32, low=1)
    patch: int = setting(4, low=1)
    d_model: int = setting(64, low=1)
    n_blocks: int = setting(2, low=1)
    heads: int = setting(4, low=1)
    d_mlp: int = setting(256, low=1)

    def __post_init__(self):
        if self.patch < 1 or self.image_size % self.patch:
            raise DataError(f"{self.SECTION}.patch must be a positive divisor of "
                            f"image_size {self.image_size}, got {self.patch}")
        check_settings(self, self.SECTION)
        if self.d_model % self.heads:
            raise DataError(f"{self.SECTION}.heads {self.heads} must divide "
                            f"d_model {self.d_model}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch  # patches a side

    @property
    def n_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch * 3


def add_linear(ps: ParamSet, pre: str, d_in: int, d_out: int, rng):
    ps.add(pre + ".w", trunc_normal(rng, (d_in, d_out)))
    ps.add(pre + ".b", np.zeros(d_out, dtype=np.float32))


def add_ln(ps: ParamSet, pre: str, d: int):
    ps.add(pre + ".g", np.ones(d, dtype=np.float32))
    ps.add(pre + ".b", np.zeros(d, dtype=np.float32))


def add_attn(ps: ParamSet, pre: str, d: int, rng):
    for nm in ("wq", "wk", "wv", "wo"):
        ps.add(f"{pre}.{nm}", trunc_normal(rng, (d, d)))
    for nm in ("bq", "bv", "bo"):
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


def add_stack(ps: ParamSet, pre: str, n: int, d: int, d_mlp: int, rng, cross: bool = False):
    """n blocks pre.b0 ... pre.b{n-1}, then the final LayerNorm pre.ln_out."""
    for i in range(n):
        add_block(ps, f"{pre}.b{i}", d, d_mlp, rng, cross=cross)
    add_ln(ps, pre + ".ln_out", d)


def add_patch_tower(ps: ParamSet, pre: str, d_in: int, cfg: PatchTowerConfig, rng):
    """The in-projection pre.in from d_in, the positions pre.pos of cfg's
    patches, then add_stack's blocks under pre."""
    add_linear(ps, pre + ".in", d_in, cfg.d_model, rng)
    ps.add(pre + ".pos", trunc_normal(rng, (cfg.n_patches, cfg.d_model)))
    add_stack(ps, pre, cfg.n_blocks, cfg.d_model, cfg.d_mlp, rng)


def linear(p: ParamSet, pre: str, x):
    return T.linear(x, p[pre + ".w"], p[pre + ".b"])


def ln_affine(p: ParamSet, pre: str, x):
    return T.layer_norm(x, p[pre + ".g"], p[pre + ".b"])


def dropout(x, drop):
    """drop = None or (rng, rate); inverted-scale mask as a constant."""
    if drop is None:
        return x
    rng, rate = drop
    if rate <= 0.0:
        return x
    keep = (rng.random(x.shape, dtype=np.float32) >= rate) * np.float32(1.0 / (1.0 - rate))
    return T.mul(x, T.constant(keep, dtype=x.dtype))


def attention(p: ParamSet, pre: str, ln: str, x, heads: int, kv=None, window=None):
    """The attention sublayer pre with the LayerNorm ln on x (B,L,D): queries
    from ln(x), keys and values from ln(x) or, when given, kv (B,S,D); window
    is an optional self-attention mask, the tensor.Window of an (L,L) one."""
    if window is not None and kv is not None:
        raise T.ShapeError("attention: a window applies to self-attention only, "
                           "but kv was given")
    out = T.attention(x, p[ln + ".g"], p[ln + ".b"],
                      *(p[f"{pre}.{nm}"] for nm in ("wq", "bq", "wk", "wv", "bv")),
                      heads, kv=kv, window=window)
    return T.linear(out, p[pre + ".wo"], p[pre + ".bo"])


def mlp(p: ParamSet, pre: str, x, ln: str):
    """fc2(GELU(fc1(the LayerNorm ln of x))), as two linear ops whose
    pre-steps are the LayerNorm and the GELU."""
    h = T.norm_linear(x, p[ln + ".g"], p[ln + ".b"], p[pre + ".fc1.w"], p[pre + ".fc1.b"])
    return T.gelu_linear(h, p[pre + ".fc2.w"], p[pre + ".fc2.b"])


def block(p: ParamSet, pre: str, x, heads: int, window=None, cross_kv=None, drop=None):
    """One pre-LN block: self-attn, optional cross-attn, MLP, residuals."""
    a = attention(p, pre + ".attn", pre + ".ln1", x, heads, window=window)
    x = T.add(x, dropout(a, drop))
    if cross_kv is not None:
        a = attention(p, pre + ".xattn", pre + ".lnx", x, heads, kv=cross_kv)
        x = T.add(x, dropout(a, drop))
    m = mlp(p, pre + ".mlp", x, pre + ".ln2")
    return T.add(x, dropout(m, drop))


def stack(p: ParamSet, pre: str, x, n: int, heads: int, window=None, cross_kv=None,
          drop=None):
    """The n blocks of add_stack(..., pre, n, ...) and their final LayerNorm."""
    for i in range(n):
        x = block(p, f"{pre}.b{i}", x, heads, window=window, cross_kv=cross_kv, drop=drop)
    return ln_affine(p, pre + ".ln_out", x)


def patch_tower(p: ParamSet, pre: str, x, cfg: PatchTowerConfig):
    """The tower of add_patch_tower(..., pre, ...) on x (B, n_patches, d_in)."""
    h = T.add(linear(p, pre + ".in", x), p[pre + ".pos"])
    return stack(p, pre, h, cfg.n_blocks, cfg.heads)


# Images per tape-free patch-tower pass, which bounds the peak memory of a
# pass over a large set. Every op of such a pass acts image by image, so its
# output does not depend on the chunking.
TOWER_CHUNK = 64


def in_chunks(fn, x):
    """fn(x) for a tape-free tower pass fn over x's leading axis: fn of each
    run of at most TOWER_CHUNK rows, concatenated."""
    if len(x) <= TOWER_CHUNK:
        return fn(x)
    return np.concatenate([fn(x[s:s + TOWER_CHUNK]) for s in range(0, len(x), TOWER_CHUNK)])


def grads_of(loss, params: ParamSet) -> dict:
    """Gradient arrays for the params reached by backward, keyed by name; a
    param bound to an earlier tape keeps that tape's id, so it must not count."""
    gm = T.backward(loss)
    return {name: gm[t.node_id].data for name, t in params.items()
            if t._tape is loss._tape and t.node_id in gm}


def mse(pred, target):
    """Mean squared error of the Tensor pred against the array target, as
    pred plus the negated target: the same bits as pred - target."""
    d = T.add(pred, T.constant(-np.asarray(target)))
    return T.reduce_mean(T.mul(d, d))
