"""Reverse-mode autodiff over numpy with a fixed, enumerable op catalog.

Design rules:
  * arrays are row-major numpy, float32 by default, float64 for verification
  * a Tape records op applications; backward replays it in reverse order, so
    gradient accumulation order is deterministic run to run
  * the op catalog is closed: apply() rejects unknown kinds, every op carries
    its own shape check and backward rule
  * broadcasting is restricted to trailing-axis alignment (one operand's shape
    must be a suffix of the other's, rank-0 scalars included); anything fancier
    must be spelled out with reshape/transpose
  * integer ids and boolean masks ride along as op attrs, never as Tensors
  * a record keeps only what its backward reads: each op declares whether
    that is its inputs, its output, the other input of a binary op, or
    nothing; of the rest it keeps the shape and dtype. Backward computes a
    gradient only for inputs that require one and drops each intermediate
    gradient once its record has used it
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import erf

from .errors import NumericError

DEFAULT_DTYPE = np.float32

_SQRT_2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class CatalogError(ValueError):
    """Unknown op kind requested from apply()."""


class ShapeError(ValueError):
    """Input shapes or attrs violate an op's contract."""


_check_finite = False


def set_check_finite(flag: bool):
    """Debug mode: verify every op output is finite (slows training)."""
    global _check_finite
    _check_finite = bool(flag)


class Tensor:
    """A numpy array plus autodiff bookkeeping.

    node_id/_tape are assigned lazily when the tensor first participates in a
    recorded op; outside any Tape ops are plain numpy evaluation.
    """

    __slots__ = ("data", "requires_grad", "node_id", "_tape")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.node_id = None
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    # arithmetic sugar; all routed through apply() so everything is on-tape
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, dtype=dtype, requires_grad=False)


_TAPES: list["Tape"] = []


class Tape:
    """Records ops applied while active (innermost tape wins)."""

    def __init__(self):
        # (op, out_id, in_ids, in_datas, out_data, attrs, needs): in_datas and
        # out_data hold an array where the op's backward reads it, else a _Spec
        self.records = []
        self.leaf_ids = set()
        self._out_ids = set()
        self._next_id = 0

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def _bind(self, t: Tensor) -> int:
        if t._tape is self and t.node_id is not None:
            return t.node_id
        t._tape = self
        t.node_id = self._next_id
        self._next_id += 1
        return t.node_id


def _active_tape():
    return _TAPES[-1] if _TAPES else None


# ---------------------------------------------------------------------------
# shape helpers

def _suffix_ok(sa, sb) -> bool:
    if sa == sb:
        return True
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if len(small) == 0:
        return True
    return big[len(big) - len(small):] == small


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    # inverse of suffix broadcasting: sum the extra leading axes
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _norm_axis(axis, ndim, op):
    if not isinstance(axis, (int, np.integer)):
        raise ShapeError(f"{op}: axis must be an int, got {axis!r}")
    if axis < 0:
        axis += ndim
    if not 0 <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} out of range for ndim {ndim}")
    return int(axis)


def _require(cond, op, msg):
    if not cond:
        raise ShapeError(f"{op}: {msg}")


# ---------------------------------------------------------------------------
# op catalog: each entry is an _Op (arity, forward, backward, reads)
# forward(datas, attrs) -> out array
# backward(g, datas, out, attrs, needs) -> list of per-input grads; needs[i]
#   says whether input i requires a gradient, and a rule may return None for
#   one that does not
# reads names what backward reads besides g and attrs (see _READS); the tape
#   hands backward a _Spec, carrying only shape and dtype, for anything else

class _Spec:
    """Shape and dtype of an array a record does not keep."""

    __slots__ = ("shape", "dtype")

    def __init__(self, a: np.ndarray):
        self.shape, self.dtype = a.shape, a.dtype

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def size(self):
        return math.prod(self.shape)


# The checks on the hot ops (add/sub/mul/matmul) test first and format the
# message only on failure: formatting dtype names costs about half an add.

def _ew_check(op, a, b):
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")
    if not _suffix_ok(a.shape, b.shape):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not trailing-aligned")


def _fwd_add(d, attrs):
    _ew_check("add", d[0], d[1])
    return d[0] + d[1]


def _bwd_add(g, d, out, attrs, needs):
    return [_unbroadcast(g, x.shape) if need else None for x, need in zip(d, needs)]


def _fwd_sub(d, attrs):
    _ew_check("sub", d[0], d[1])
    return d[0] - d[1]


def _bwd_sub(g, d, out, attrs, needs):
    return [_unbroadcast(g, d[0].shape) if needs[0] else None,
            _unbroadcast(-g, d[1].shape) if needs[1] else None]


def _fwd_mul(d, attrs):
    _ew_check("mul", d[0], d[1])
    return d[0] * d[1]


def _bwd_mul(g, d, out, attrs, needs):
    return [_unbroadcast(g * d[1], d[0].shape) if needs[0] else None,
            _unbroadcast(g * d[0], d[1].shape) if needs[1] else None]


def _fwd_matmul(d, attrs):
    a, b = d
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul: dtype mismatch {a.dtype} vs {b.dtype}")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: need ndim>=2, got {a.shape} @ {b.shape}")
    if b.ndim > 2 and (a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]):
        raise ShapeError(f"matmul: leading dims differ: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims {a.shape} @ {b.shape}")
    return a @ b


def _bwd_matmul(g, d, out, attrs, needs):
    a, b = d
    ga = gb = None
    if b.ndim == 2:
        if needs[0]:
            ga = g @ b.T
        if needs[1]:
            gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    else:
        if needs[0]:
            ga = g @ np.swapaxes(b, -1, -2)
        if needs[1]:
            gb = np.swapaxes(a, -1, -2) @ g
    return [ga, gb]


def _fwd_reshape(d, attrs):
    shape = tuple(attrs["shape"])
    _require(int(np.prod(shape, dtype=np.int64)) == d[0].size, "reshape",
             f"cannot reshape {d[0].shape} to {shape}")
    return d[0].reshape(shape)


def _bwd_reshape(g, d, out, attrs, needs):
    return [g.reshape(d[0].shape)]


def _fwd_transpose(d, attrs):
    axes = tuple(attrs["axes"])
    _require(sorted(axes) == list(range(d[0].ndim)), "transpose",
             f"axes {axes} is not a permutation for ndim {d[0].ndim}")
    return np.transpose(d[0], axes)


def _bwd_transpose(g, d, out, attrs, needs):
    axes = tuple(attrs["axes"])
    inv = np.argsort(axes)
    return [np.transpose(g, inv)]


def _norm_bounds(bounds, shape):
    out = []
    _require(len(bounds) == len(shape), "slice",
             f"need one (start, stop) per axis, got {len(bounds)} for shape {shape}")
    for ax, b in enumerate(bounds):
        if b is None:
            out.append((0, shape[ax]))
            continue
        start, stop = b
        if start is None:
            start = 0
        if stop is None:
            stop = shape[ax]
        _require(0 <= start <= stop <= shape[ax], "slice",
                 f"bounds {b} invalid for axis {ax} of extent {shape[ax]}")
        out.append((int(start), int(stop)))
    return out


def _fwd_slice(d, attrs):
    bounds = _norm_bounds(attrs["bounds"], d[0].shape)
    key = tuple(slice(s, e) for s, e in bounds)
    return d[0][key].copy()


def _bwd_slice(g, d, out, attrs, needs):
    bounds = _norm_bounds(attrs["bounds"], d[0].shape)
    gx = np.zeros(d[0].shape, dtype=d[0].dtype)
    key = tuple(slice(s, e) for s, e in bounds)
    gx[key] = g
    return [gx]


def _fwd_concat(d, attrs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "concat")
    for x in d[1:]:
        _require(x.ndim == d[0].ndim, "concat", "rank mismatch")
        _require(x.dtype == d[0].dtype, "concat", "dtype mismatch")
        for ax in range(d[0].ndim):
            _require(ax == axis or x.shape[ax] == d[0].shape[ax], "concat",
                     f"non-concat axis {ax} differs: {x.shape} vs {d[0].shape}")
    return np.concatenate(d, axis=axis)


def _bwd_concat(g, d, out, attrs, needs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "concat")
    splits = np.cumsum([x.shape[axis] for x in d])[:-1]
    return list(np.split(g, splits, axis=axis))


def _fwd_embedding_gather(d, attrs):
    table = d[0]
    ids = np.asarray(attrs["ids"])
    _require(table.ndim == 2, "embedding_gather", f"table must be 2-D, got {table.shape}")
    _require(np.issubdtype(ids.dtype, np.integer), "embedding_gather", "ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding_gather: ids outside [0, {table.shape[0]})")
    return table[ids]


def _bwd_embedding_gather(g, d, out, attrs, needs):
    ids = np.asarray(attrs["ids"])
    gt = np.zeros(d[0].shape, dtype=d[0].dtype)
    np.add.at(gt, ids.reshape(-1), g.reshape(-1, d[0].shape[1]))
    return [gt]


# softmax and layer_norm run the ufunc reductions directly: ndarray.max/sum
# /mean are Python wrappers around the same reductions, so this is
# bit-identical and skips their dispatch (a third of a small layer_norm).

NEG_FILL = -1e9  # softmax input in the slots its "allowed" mask rules out


def _fwd_softmax(d, attrs):
    # optional attention-score prologue, run before the normalisation in
    # this order: multiply by attrs["scale"], then set the slots where the
    # boolean attrs["allowed"] is False to NEG_FILL, which gives them exactly
    # zero weight in any row that allows at least one slot
    axis = _norm_axis(attrs["axis"], d[0].ndim, "softmax")
    x = d[0]
    if "scale" in attrs:
        x = x * np.asarray(float(attrs["scale"]), dtype=x.dtype)
    if "allowed" in attrs:
        allowed = np.asarray(attrs["allowed"])
        _require(allowed.dtype == np.bool_, "softmax", "allowed must be boolean")
        _require(_suffix_ok(allowed.shape, x.shape) and allowed.ndim <= x.ndim, "softmax",
                 f"allowed shape {allowed.shape} not trailing-aligned with {x.shape}")
        x = np.where(allowed, x, np.asarray(NEG_FILL, dtype=x.dtype))
    z = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=axis, keepdims=True)
    return z


def _bwd_softmax(g, d, out, attrs, needs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "softmax")
    inner = np.add.reduce(g * out, axis=axis, keepdims=True)
    r = g - inner
    r *= out
    # the prologue's backward, in reverse order
    if "allowed" in attrs:
        r = np.where(np.asarray(attrs["allowed"]), r, np.zeros((), dtype=r.dtype))
    if "scale" in attrs:
        r *= np.asarray(float(attrs["scale"]), dtype=r.dtype)
    return [r]


def _fwd_log_softmax(d, attrs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "log_softmax")
    x = d[0]
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def _bwd_log_softmax(g, d, out, attrs, needs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "log_softmax")
    return [g - np.exp(out) * g.sum(axis=axis, keepdims=True)]


def _mean(x, axis):
    # what ndarray.mean computes: the add reduction divided by the count
    return np.add.reduce(x, axis=axis, keepdims=True) / x.shape[axis]


def _layer_norm_center(x, axis, eps):
    xc = x - _mean(x, axis)
    return xc, 1.0 / np.sqrt(_mean(xc * xc, axis) + eps)


def _fwd_layer_norm(d, attrs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "layer_norm")
    xc, inv = _layer_norm_center(d[0], axis, float(attrs.get("eps", 1e-5)))
    attrs["_inv"] = inv  # reused by backward together with out (= xhat)
    return xc * inv


def _bwd_layer_norm(g, d, out, attrs, needs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "layer_norm")
    inv = attrs.get("_inv")
    if inv is None:
        inv = _layer_norm_center(d[0], axis, float(attrs.get("eps", 1e-5)))[1]
    xhat = out
    gm = _mean(g, axis)
    gxm = _mean(g * xhat, axis)
    r = g - gm
    r -= xhat * gxm
    r *= inv
    return [r]


# Float32 GELU reads the normal CDF from a piecewise-linear table instead of
# calling scipy's erf, which has no vectorised float32 kernel. The knots sit
# on [-6, 6] at a power-of-two spacing, so a knot and the offset of x from
# it are exact in float32; the CDF error stays below 1e-7 (float32 rounding
# plus interpolation). Outside the range the CDF is exactly 0 or 1. Float64
# keeps erf as the reference that grad_check and the tests use.
_CDF_LO = -6.0
_CDF_STEP = 2.0 ** -10
_CDF_SEGMENTS = int(-2 * _CDF_LO / _CDF_STEP)
_CDF_BLOCK = 1 << 14  # elements per pass, so the pass temporaries stay small


def _cdf_table():
    knots = _CDF_LO + _CDF_STEP * np.arange(_CDF_SEGMENTS + 1)
    cdf = 0.5 * (1.0 + erf(knots / _SQRT_2))
    cdf[0], cdf[-1] = 0.0, 1.0
    slope = np.append(np.diff(cdf) / _CDF_STEP, 0.0)  # flat past the last knot
    return cdf.astype(np.float32), slope.astype(np.float32)


_CDF_VALUES, _CDF_SLOPES = _cdf_table()


def _normal_cdf(x):
    if x.dtype != np.float32:
        cdf = erf(x * np.asarray(1.0 / _SQRT_2, dtype=x.dtype))
        cdf += 1.0
        cdf *= 0.5
        return cdf
    lo, hi = np.float32(_CDF_LO), np.float32(-_CDF_LO)
    inv_step, step = np.float32(1.0 / _CDF_STEP), np.float32(_CDF_STEP)
    mid = np.float32(_CDF_SEGMENTS // 2)
    cdf = np.empty(x.shape, dtype=np.float32)
    flat_x, flat_cdf = x.reshape(-1), cdf.reshape(-1)
    for s in range(0, flat_x.size, _CDF_BLOCK):
        # fmin/fmax map NaN to a bound, so the index cast never sees NaN;
        # gelu's x * cdf turns NaN back into NaN
        xc = np.fmin(flat_x[s:s + _CDF_BLOCK], hi)
        np.fmax(xc, lo, out=xc)
        knot = xc * inv_step
        knot += mid
        np.floor(knot, out=knot)
        i = knot.astype(np.intp)
        knot *= step
        knot += lo
        np.subtract(xc, knot, out=xc)
        out = flat_cdf[s:s + _CDF_BLOCK]
        _CDF_SLOPES.take(i, out=out, mode="clip")
        out *= xc
        out += _CDF_VALUES.take(i, mode="clip")
    return cdf


def _fwd_gelu(d, attrs):
    x = d[0]
    cdf = _normal_cdf(x)
    attrs["_cdf"] = cdf  # reused by backward
    with np.errstate(invalid="ignore"):  # -inf * 0 is NaN, as erf gives
        return (x * cdf).astype(x.dtype, copy=False)


def _bwd_gelu(g, d, out, attrs, needs):
    x = d[0]
    cdf = attrs.get("_cdf")
    if cdf is None:
        cdf = _normal_cdf(x)
    t = x * x
    t *= -0.5
    np.exp(t, out=t)
    t *= _INV_SQRT_2PI
    t *= x
    t += cdf
    t *= g
    return [t.astype(x.dtype, copy=False)]


def _fwd_relu(d, attrs):
    return np.maximum(d[0], 0)


def _bwd_relu(g, d, out, attrs, needs):
    return [g * (out > 0)]  # out > 0 exactly where the input is


def _conv_geometry(x, w, stride, pad):
    _require(x.ndim == 4, "conv2d", f"input must be (B,H,W,Cin), got {x.shape}")
    _require(w.ndim == 4, "conv2d", f"kernel must be (kh,kw,Cin,Cout), got {w.shape}")
    _require(x.shape[3] == w.shape[2], "conv2d",
             f"channel mismatch: input {x.shape} kernel {w.shape}")
    kh, kw = w.shape[0], w.shape[1]
    ho = (x.shape[1] + 2 * pad - kh) // stride + 1
    wo = (x.shape[2] + 2 * pad - kw) // stride + 1
    _require(ho > 0 and wo > 0, "conv2d", f"empty output for {x.shape} with k=({kh},{kw})")
    return kh, kw, ho, wo


def _fwd_conv2d(d, attrs):
    x, w = d
    stride = int(attrs.get("stride", 1))
    pad = int(attrs.get("pad", 0))
    kh, kw, ho, wo = _conv_geometry(x, w, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    out = np.zeros((x.shape[0], ho, wo, w.shape[3]), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i:i + ho * stride:stride, j:j + wo * stride:stride, :]
            out += patch @ w[i, j]
    return out


def _bwd_conv2d(g, d, out, attrs, needs):
    x, w = d
    stride = int(attrs.get("stride", 1))
    pad = int(attrs.get("pad", 0))
    kh, kw, ho, wo = _conv_geometry(x, w, stride, pad)
    b, h, wd, c = x.shape
    gxp = np.zeros((b, h + 2 * pad, wd + 2 * pad, c), dtype=x.dtype) if needs[0] else None
    gw = np.zeros(w.shape, dtype=w.dtype) if needs[1] else None
    if needs[1]:
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    for i in range(kh):
        for j in range(kw):
            sl = np.s_[:, i:i + ho * stride:stride, j:j + wo * stride:stride, :]
            if needs[1]:
                gw[i, j] = np.tensordot(xp[sl], g, axes=([0, 1, 2], [0, 1, 2]))
            if needs[0]:
                gxp[sl] += g @ w[i, j].T
    gx = gxp[:, pad:pad + h, pad:pad + wd, :] if pad and needs[0] else gxp
    return [gx, gw]


def _fwd_reduce_sum(d, attrs):
    axis = attrs.get("axis")
    if axis is None:
        return np.asarray(d[0].sum(), dtype=d[0].dtype)
    return d[0].sum(axis=_norm_axis(axis, d[0].ndim, "reduce_sum"))


def _bwd_reduce_sum(g, d, out, attrs, needs):
    axis = attrs.get("axis")
    if axis is None:
        return [np.broadcast_to(g, d[0].shape).astype(d[0].dtype, copy=False)]
    axis = _norm_axis(axis, d[0].ndim, "reduce_sum")
    return [np.broadcast_to(np.expand_dims(g, axis), d[0].shape).copy()]


def _fwd_reduce_mean(d, attrs):
    axis = attrs.get("axis")
    if axis is None:
        return np.asarray(d[0].mean(), dtype=d[0].dtype)
    return d[0].mean(axis=_norm_axis(axis, d[0].ndim, "reduce_mean"))


def _bwd_reduce_mean(g, d, out, attrs, needs):
    axis = attrs.get("axis")
    if axis is None:
        n = d[0].size
        return [np.broadcast_to(g / n, d[0].shape).astype(d[0].dtype, copy=False)]
    axis = _norm_axis(axis, d[0].ndim, "reduce_mean")
    n = d[0].shape[axis]
    return [np.broadcast_to(np.expand_dims(g / n, axis), d[0].shape).copy()]


def _fwd_scale(d, attrs):
    factor = float(attrs["factor"])
    return d[0] * np.asarray(factor, dtype=d[0].dtype)


def _bwd_scale(g, d, out, attrs, needs):
    factor = float(attrs["factor"])
    return [g * np.asarray(factor, dtype=g.dtype)]


def _fwd_l2_normalize(d, attrs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "l2_normalize")
    eps = float(attrs.get("eps", 0.0))
    x = d[0]
    sq = (x * x).sum(axis=axis, keepdims=True) + eps
    if eps == 0.0 and np.any(sq == 0.0):
        raise NumericError("l2_normalize: zero-norm slice with eps=0")
    return x / np.sqrt(sq)


def _bwd_l2_normalize(g, d, out, attrs, needs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "l2_normalize")
    eps = float(attrs.get("eps", 0.0))
    x = d[0]
    sq = (x * x).sum(axis=axis, keepdims=True) + eps
    n = np.sqrt(sq)
    dot = (g * x).sum(axis=axis, keepdims=True)
    return [g / n - x * dot / (n * sq)]


def _fwd_cross_entropy(d, attrs):
    logits = d[0]
    targets = np.asarray(attrs["targets"])
    _require(logits.ndim == 2, "cross_entropy_with_logits",
             f"logits must be (N,V), got {logits.shape}")
    _require(targets.shape == (logits.shape[0],), "cross_entropy_with_logits",
             f"targets shape {targets.shape} does not match N={logits.shape[0]}")
    _require(np.issubdtype(targets.dtype, np.integer), "cross_entropy_with_logits",
             "targets must be integers")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise ShapeError(f"cross_entropy_with_logits: targets outside [0, {logits.shape[1]})")
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return lse - z[np.arange(logits.shape[0]), targets]


def _bwd_cross_entropy(g, d, out, attrs, needs):
    logits = d[0]
    targets = np.asarray(attrs["targets"])
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(logits.shape[0]), targets] -= 1.0
    return [p * g[:, None]]


class _Op(NamedTuple):
    arity: int | None  # None: any positive number of inputs
    forward: object
    backward: object
    reads: str  # one of _READS


# What a backward rule reads besides g and attrs: nothing, all its inputs, its
# output, or ("cross", binary ops only) for each input's gradient the other
# input, so an input is kept only when the other one requires a gradient.
_READS = ("nothing", "inputs", "output", "cross")

_CATALOG = {
    "add": _Op(2, _fwd_add, _bwd_add, "nothing"),
    "sub": _Op(2, _fwd_sub, _bwd_sub, "nothing"),
    "mul": _Op(2, _fwd_mul, _bwd_mul, "cross"),
    "matmul": _Op(2, _fwd_matmul, _bwd_matmul, "cross"),
    "reshape": _Op(1, _fwd_reshape, _bwd_reshape, "nothing"),
    "transpose": _Op(1, _fwd_transpose, _bwd_transpose, "nothing"),
    "slice": _Op(1, _fwd_slice, _bwd_slice, "nothing"),
    "concat": _Op(None, _fwd_concat, _bwd_concat, "nothing"),
    "embedding_gather": _Op(1, _fwd_embedding_gather, _bwd_embedding_gather, "nothing"),
    "softmax": _Op(1, _fwd_softmax, _bwd_softmax, "output"),
    "log_softmax": _Op(1, _fwd_log_softmax, _bwd_log_softmax, "output"),
    "layer_norm": _Op(1, _fwd_layer_norm, _bwd_layer_norm, "output"),
    "gelu": _Op(1, _fwd_gelu, _bwd_gelu, "inputs"),
    "relu": _Op(1, _fwd_relu, _bwd_relu, "output"),
    "conv2d": _Op(2, _fwd_conv2d, _bwd_conv2d, "cross"),
    "reduce_sum": _Op(1, _fwd_reduce_sum, _bwd_reduce_sum, "nothing"),
    "reduce_mean": _Op(1, _fwd_reduce_mean, _bwd_reduce_mean, "nothing"),
    "scale": _Op(1, _fwd_scale, _bwd_scale, "nothing"),
    "l2_normalize": _Op(1, _fwd_l2_normalize, _bwd_l2_normalize, "inputs"),
    "cross_entropy_with_logits": _Op(1, _fwd_cross_entropy, _bwd_cross_entropy, "inputs"),
}

OP_KINDS = tuple(sorted(_CATALOG))


def _kept(reads, datas, out, needs):
    """The (inputs, output) a record keeps: arrays backward reads, else _Spec."""
    if reads == "inputs":
        ins = tuple(datas)
    elif reads == "cross":
        a, b = datas
        ins = (a if needs[1] else _Spec(a), b if needs[0] else _Spec(b))
    else:
        ins = tuple(_Spec(x) for x in datas)
    return ins, (out if reads == "output" else _Spec(out))


def apply(op_kind: str, inputs, attrs: dict | None = None) -> Tensor:
    """Apply a catalog op. inputs is a list of Tensors, attrs is op-specific.

    Records the application on the innermost active Tape when any input
    requires grad; otherwise this is plain numpy evaluation.
    """
    if op_kind not in _CATALOG:
        raise CatalogError(f"unknown op kind: {op_kind!r}")
    arity, fwd, _, reads = _CATALOG[op_kind]
    inputs = list(inputs)
    if arity is not None and len(inputs) != arity:
        raise ShapeError(f"{op_kind}: expected {arity} inputs, got {len(inputs)}")
    if not inputs:
        raise ShapeError(f"{op_kind}: needs at least one input")
    for x in inputs:
        if not isinstance(x, Tensor):
            raise ShapeError(f"{op_kind}: inputs must be Tensors, got {type(x).__name__}")
    attrs = attrs or {}
    datas = [x.data for x in inputs]
    out_data = fwd(datas, attrs)
    if _check_finite and not np.all(np.isfinite(out_data)):
        raise NumericError(f"{op_kind}: non-finite values in output")
    out = Tensor(out_data, dtype=out_data.dtype)
    tape = _active_tape()
    if tape is not None and any(x.requires_grad for x in inputs):
        needs = tuple(x.requires_grad for x in inputs)
        in_ids = [tape._bind(x) for x in inputs]
        out.requires_grad = True
        out_id = tape._bind(out)
        # a leaf is a grad-requiring tensor that is not itself a record output
        for x, nid in zip(inputs, in_ids):
            if x.requires_grad and nid not in tape._out_ids:
                tape.leaf_ids.add(nid)
        tape._out_ids.add(out_id)
        kept_in, kept_out = _kept(reads, datas, out_data, needs)
        tape.records.append((op_kind, out_id, tuple(in_ids), kept_in, kept_out, attrs, needs))
    return out


def backward(root: Tensor) -> dict:
    """Walk root's tape in reverse; returns {node_id: Tensor} for every
    requires_grad leaf reachable from root. A scalar constant root (nothing
    recorded) yields an empty map."""
    if root.shape != ():
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    tape = root._tape
    if tape is None or root.node_id is None:
        return {}
    grads = {root.node_id: np.ones((), dtype=root.data.dtype)}
    for op_kind, out_id, in_ids, in_datas, out_data, attrs, needs in reversed(tape.records):
        # every consumer of out_id comes later on the tape, so its gradient
        # is complete here and nothing reads it again
        g = grads.pop(out_id, None)
        if g is None:
            continue
        in_grads = _CATALOG[op_kind].backward(g, in_datas, out_data, attrs, needs)
        for nid, ig, idata, need in zip(in_ids, in_grads, in_datas, needs):
            if ig is None or not need:
                continue
            ig = np.asarray(ig, dtype=idata.dtype)
            if nid in grads:
                grads[nid] = grads[nid] + ig
            else:
                grads[nid] = ig
    return {nid: Tensor(grads[nid]) for nid in tape.leaf_ids if nid in grads}


def grad(root: Tensor, leaf: Tensor) -> np.ndarray:
    """Convenience: gradient of scalar root with respect to one leaf."""
    gm = backward(root)
    if leaf.node_id not in gm:
        raise ShapeError("grad: leaf not reachable from root")
    return gm[leaf.node_id].data


# ---------------------------------------------------------------------------
# thin named wrappers (the public surface most code uses)

def add(a, b):
    return apply("add", [a, b])


def sub(a, b):
    return apply("sub", [a, b])


def mul(a, b):
    return apply("mul", [a, b])


def matmul(a, b):
    return apply("matmul", [a, b])


def reshape(x, shape):
    return apply("reshape", [x], {"shape": tuple(shape)})


def transpose(x, axes):
    return apply("transpose", [x], {"axes": tuple(axes)})


def slice_(x, bounds):
    return apply("slice", [x], {"bounds": tuple(bounds)})


def concat(xs, axis):
    return apply("concat", list(xs), {"axis": axis})


def embedding_gather(table, ids):
    return apply("embedding_gather", [table], {"ids": np.asarray(ids)})


def softmax(x, axis=-1, scale=None, allowed=None):
    """softmax(x * scale) over axis, with zero weight where the boolean
    allowed mask (trailing-aligned with x) is False; scale and allowed are
    optional and fused into the one op."""
    attrs = {"axis": axis}
    if scale is not None:
        attrs["scale"] = scale
    if allowed is not None:
        attrs["allowed"] = np.asarray(allowed)
    return apply("softmax", [x], attrs)


def log_softmax(x, axis=-1):
    return apply("log_softmax", [x], {"axis": axis})


def layer_norm(x, axis=-1, eps=1e-5):
    return apply("layer_norm", [x], {"axis": axis, "eps": eps})


def gelu(x):
    return apply("gelu", [x])


def relu(x):
    return apply("relu", [x])


def conv2d(x, w, stride=1, pad=0):
    return apply("conv2d", [x, w], {"stride": stride, "pad": pad})


def reduce_sum(x, axis=None):
    return apply("reduce_sum", [x], {"axis": axis})


def reduce_mean(x, axis=None):
    return apply("reduce_mean", [x], {"axis": axis})


def scale(x, factor):
    return apply("scale", [x], {"factor": factor})


def l2_normalize(x, axis=-1, eps=0.0):
    return apply("l2_normalize", [x], {"axis": axis, "eps": eps})


def cross_entropy_with_logits(logits, targets):
    return apply("cross_entropy_with_logits", [logits], {"targets": np.asarray(targets)})


# ---------------------------------------------------------------------------

def grad_check(f, x, eps: float = 1e-6) -> float:
    """Max relative error between tape gradients and central differences.

    f maps one Tensor to a scalar Tensor and must be a pure function; the
    check runs in float64 regardless of the input dtype. Error is
    max |a - n| / max(|a|, |n|, 1e-8) over components.
    """
    x64 = np.asarray(x, dtype=np.float64)
    leaf = Tensor(x64.copy(), dtype=np.float64, requires_grad=True)
    with Tape():
        out = f(leaf)
    if out.shape != ():
        raise ShapeError(f"grad_check: f must return a scalar, got shape {out.shape}")
    analytic = backward(out)[leaf.node_id].data.reshape(-1)

    def eval_at(arr):
        return float(f(Tensor(arr, dtype=np.float64)).data)

    numeric = np.zeros(x64.size, dtype=np.float64)
    for i in range(x64.size):
        xp = x64.copy()
        xm = x64.copy()
        xp.flat[i] += eps
        xm.flat[i] -= eps
        numeric[i] = (eval_at(xp) - eval_at(xm)) / (2.0 * eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom)) if x64.size else 0.0
