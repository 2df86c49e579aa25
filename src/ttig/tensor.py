"""Reverse-mode autodiff over numpy with a fixed, enumerable op catalog.

Design rules:
  * arrays are row-major numpy, float32 by default, float64 for verification
  * a Tape records op applications; backward replays it in reverse order, so
    gradient accumulation order is deterministic run to run
  * the op catalog is closed: apply() rejects unknown kinds, every op carries
    its own shape check and backward rule, and every kind in it is one that
    a training loop records. Softmax is a plain kernel pair, _softmax and
    _softmax_grad, not a catalog op: the attention op, cross-entropy's
    backward and the sampler share it (dense attention runs _softmax's calls
    itself, to keep their row max and sum)
  * backward rules may read what their forward stored in the recorded attrs
    (a LayerNorm's xhat and inverse deviation, a GELU's normal CDF, dense
    attention's softmax max and sum)
  * broadcasting is restricted to trailing-axis alignment (one operand's shape
    must be a suffix of the other's, rank-0 scalars included); anything fancier
    must be spelled out with reshape/transpose
  * matmul multiplies (..., n) by a 2-D (n, m) matrix; linear adds a bias
    to the product in place, after an optional pre-step on its left operand,
    a LayerNorm or a GELU (see the notes above _PRE_READS). layer_norm takes
    its gain and bias as inputs. It and l2_normalize work on the last axis:
    layer_norm with eps LN_EPS, l2_normalize with the eps its caller passes.
    There is no bare GELU kind: the MLP's GELU is the pre-step of its second
    projection. scale(x, f) is a mul by a 0-d constant of x's dtype, not a
    kind of its own; there is no sub either: x - c is add(x, constant(-c)),
    which IEEE arithmetic rounds the same
  * integer ids and attention windows ride along as op attrs,
    never as Tensors
  * an attention sublayer up to its head mix (LayerNorm, Q/K/V projections,
    multi-head attention) is one op that splits the heads itself; it scores
    every key, or only a self-attention mask's static Window, and its
    softmax reduces over a leading key axis. Its record keeps the
    LayerNorm's xhat and inverse deviation and, for dense attention, the
    softmax's row max and sum, from which backward recomputes the LayerNorm
    output, q, k, v and the probabilities; a windowed record keeps the
    probabilities. Dense scores run in bounded blocks of images (see the
    notes above NEG_FILL)
  * a record keeps only what its backward reads: each op declares whether
    that is its inputs, its parameters (every input but the first), the
    other one of its first two inputs, or nothing (a linear op's follows its
    pre-step); of the rest it keeps the shape and dtype. No record keeps an
    output: a linear's backward recomputes its pre-step's instead. Backward
    computes a gradient only for inputs that require one and drops each
    intermediate gradient once its record has used it
  * a record whose op keeps its inputs (a linear with a GELU pre-step,
    l2_normalize, cross_entropy_with_logits) goes as soon as
    backward has run its rule, so its inputs and attrs scratch are free
    while backward allocates gradients.
    The other records live until the next step's forward replaces them: a
    Tape built with replaces=<the previous step's tape> drops that tape's
    record i just before it records its own op i, so the freed arrays, which
    have the same shapes, are what the new arrays reuse; the rest goes when
    the new tape's block exits. Freeing those in backward too would empty the
    top of the heap each step, and the next forward would fault it back in
  * each tape supports one backward: a second one, or one on a replaced or
    released tape, raises TapeReleasedError
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericError

DEFAULT_DTYPE = np.float32

_SQRT_2 = float(np.sqrt(2.0))
_erf = np.vectorize(math.erf, otypes=[np.float64])  # elementwise, any shape
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class CatalogError(ValueError):
    """Unknown op kind requested from apply()."""


class ShapeError(ValueError):
    """Input shapes or attrs violate an op's contract."""


class TapeReleasedError(RuntimeError):
    """backward() on a tape whose records are gone: its backward already ran
    (and released the records that keep their inputs), a later tape replaced
    it, or it was released."""


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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, dtype=dtype, requires_grad=False)


_TAPES: list["Tape"] = []


class Tape:
    """Records ops applied while active (innermost tape wins).

    replaces, if given, is a finished tape whose records this one's forward
    frees as it goes (see the module docstring); it is released from the
    moment this tape is built.
    """

    def __init__(self, replaces: "Tape | None" = None):
        # (op, out_id, in_ids, in_datas, attrs, needs): in_datas holds an
        # array where the op's backward reads it, else a _Spec
        self.records = []
        self._next_id = 0
        self.released = False
        self.backward_ran = False
        self._replaces = replaces
        if replaces is not None:
            replaces.released = True

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPES.pop()
        assert popped is self
        if self._replaces is not None:
            self._replaces.release()
            self._replaces = None
        return False

    def release(self):
        """Drop every record; backward on this tape then raises
        TapeReleasedError."""
        self.released = True
        self.records.clear()

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


# ---------------------------------------------------------------------------
# op catalog: each entry is an _Op (arity, forward, backward, reads)
# forward(datas, attrs) -> out array
# backward(g, datas, attrs, needs) -> list of per-input grads; needs[i] says
#   whether input i requires a gradient, and a rule may return None for one
#   that does not
# reads names the inputs backward reads besides g and attrs (see _READS); the
#   tape hands backward a _Spec, carrying only shape and dtype, for the rest

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


# Every op's checks test first and format the message only on failure:
# formatting dtype names costs about half an add.

def _ew_check(op, a, b):
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")
    if not _suffix_ok(a.shape, b.shape):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not trailing-aligned")


def _fwd_add(d, attrs):
    _ew_check("add", d[0], d[1])
    return d[0] + d[1]


def _bwd_add(g, d, attrs, needs):
    return [_unbroadcast(g, x.shape) if need else None for x, need in zip(d, needs)]


def _fwd_mul(d, attrs):
    _ew_check("mul", d[0], d[1])
    return d[0] * d[1]


def _bwd_mul(g, d, attrs, needs):
    return [_unbroadcast(g * d[1], d[0].shape) if needs[0] else None,
            _unbroadcast(g * d[0], d[1].shape) if needs[1] else None]


def _check_matmul(op, a, b):
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"{op}: need (..., n) @ (n, m), got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"{op}: inner dims {a.shape} @ {b.shape}")


def _fwd_matmul(d, attrs):
    _check_matmul("matmul", *d)
    return d[0] @ d[1]


def _weight_grad(a, g):
    """The gradient at b of a @ b, given g at its output."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _bwd_matmul(g, d, attrs, needs):
    a, b = d
    return [g @ b.T if needs[0] else None, _weight_grad(a, g) if needs[1] else None]


def _fwd_reshape(d, attrs):
    shape = tuple(attrs["shape"])
    if int(np.prod(shape, dtype=np.int64)) != d[0].size:
        raise ShapeError(f"reshape: cannot reshape {d[0].shape} to {shape}")
    return d[0].reshape(shape)


def _bwd_reshape(g, d, attrs, needs):
    return [g.reshape(d[0].shape)]


def _fwd_transpose(d, attrs):
    axes = tuple(attrs["axes"])
    if sorted(axes) != list(range(d[0].ndim)):
        raise ShapeError(f"transpose: axes {axes} is not a permutation for ndim "
                         f"{d[0].ndim}")
    return np.transpose(d[0], axes)


def _bwd_transpose(g, d, attrs, needs):
    axes = tuple(attrs["axes"])
    inv = np.argsort(axes)
    return [np.transpose(g, inv)]


def _fwd_concat(d, attrs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "concat")
    for x in d[1:]:
        if x.ndim != d[0].ndim:
            raise ShapeError("concat: rank mismatch")
        if x.dtype != d[0].dtype:
            raise ShapeError("concat: dtype mismatch")
        for ax in range(d[0].ndim):
            if ax != axis and x.shape[ax] != d[0].shape[ax]:
                raise ShapeError(f"concat: non-concat axis {ax} differs: "
                                 f"{x.shape} vs {d[0].shape}")
    return np.concatenate(d, axis=axis)


def _bwd_concat(g, d, attrs, needs):
    axis = _norm_axis(attrs["axis"], d[0].ndim, "concat")
    splits = np.cumsum([x.shape[axis] for x in d])[:-1]
    return list(np.split(g, splits, axis=axis))


def _fwd_embedding_gather(d, attrs):
    table = d[0]
    ids = np.asarray(attrs["ids"])
    if table.ndim != 2:
        raise ShapeError(f"embedding_gather: table must be 2-D, got {table.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding_gather: ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding_gather: ids outside [0, {table.shape[0]})")
    return table[ids]


def _bwd_embedding_gather(g, d, attrs, needs):
    ids = np.asarray(attrs["ids"])
    gt = np.zeros(d[0].shape, dtype=d[0].dtype)
    np.add.at(gt, ids.reshape(-1), g.reshape(-1, d[0].shape[1]))
    return [gt]


# softmax and layer_norm run the ufunc reductions directly: ndarray.max/sum
# /mean are Python wrappers around the same reductions, so this is
# bit-identical and skips their dispatch (a third of a small layer_norm).
# The reductions take (axis, dtype, out, keepdims) by position: parsing them
# as keywords costs another 1.2 us, about what a (16, 64) sum costs itself.
# _softmax, _layer_norm and _gelu take an optional out buffer of the
# result's shape and dtype (softmax's and gelu's may be their input): the
# sampler's decode step writes into per-chain buffers, with the same bits as
# a fresh result.

def _softmax(x, axis, out=None):
    """exp(x - max) / sum along axis, into out if given."""
    z = np.subtract(x, np.maximum.reduce(x, axis, None, None, True), out=out)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis, None, None, True)
    return z


def _softmax_grad(g, p, axis):
    """The gradient at softmax's input, given g at its output p."""
    inner = np.add.reduce(g * p, axis, None, None, True)
    r = g - inner
    r *= p
    return r


# The attention op is a whole sublayer up to its head mix: the LayerNorm
# (gain, bias), the query projection (bias), the key projection (no bias:
# q . bk would shift every score of a query alike) and the value projection
# (bias), then the multi-head core. Its inputs are x, the LayerNorm's gain
# and bias, wq, bq, wk, wv and bv, plus for cross-attention the key-value
# source twice (values' slot first). The record keeps x's xhat and 1/sigma
# and what the core's backward reads (below), not the LayerNorm output, q, k
# or v: backward rebuilds them with the calls the forward made (_affine,
# _projections), and gives every gradient the bits, and at a shared input
# the summation order, of the separate layer_norm, linear and matmul
# records the sublayer once was.
#
# The core splits heads itself and normalises over a leading key axis: a
# reduction over an axis ahead of the last one runs as elementwise work on
# whole rows (np.maximum.reduce on float32 (32, 4, 64, 64): 0.27 ms over
# axis -2 against 0.92 ms over the last axis, one core, numpy 2.4).
#
# Dense attention scores key-major, (B, H, S, L), and normalises over axis 2.
# Its record keeps the softmax's row max and sum, (B, H, 1, L), not the
# probabilities: backward rebuilds them from q and k with the forward's
# calls (_dense_probs), which gives the same bits at 1/S of the memory held
# from forward to backward. Forward and backward score runs of consecutive
# images, at most _SCORES_BLOCK floats each, so the (B, H, S, L) temporaries
# stay bounded: a stacked matmul multiplies each (image, head) slice on its
# own and the softmax reduces within one, so the blocks change no bit.
# Windowed self-attention reads a Window: key j = i - offsets[w] serves query
# i where valid[w, i]. Each offset pairs a shifted slab of the (B, L, D) keys
# with the queries, so the scores are (W, B, L, H): the slab's elementwise
# q * k with each head's lanes summed and scaled by 1/sqrt(d_head). Ruled-out
# slots get NEG_FILL before the softmax over axis 0, which gives them exactly
# zero weight and zero gradient (attention_window guarantees every query one
# allowed key). The (heads, D) head-indicator matrix spreads each head's
# weights back over its lanes before they weight the shifted values. A
# windowed record keeps its (W, B, L, H) probabilities: they are H/D of the
# (W, B, L, D) buffer its backward builds anyway (1/16 in the desk model),
# and rebuilding them would cost another _window_products pass.

NEG_FILL = -1e9  # attention score in the window slots the mask rules out
_SCORES_BLOCK = 1 << 18  # dense scores per block of images, so its temporaries stay small


class Window(NamedTuple):
    """Static key table of a square self-attention mask, built by
    attention_window: query i attends to key i - offsets[w] where valid[w, i].
    offsets descend, so along the window the key positions ascend."""

    offsets: np.ndarray  # (W,) int
    valid: np.ndarray    # (W, L) bool


def attention_window(allowed) -> Window:
    """The Window of a boolean (L, L) mask, True where query i may attend to
    key j. Raises ShapeError for a non-square mask or a row allowing no key."""
    allowed = np.asarray(allowed)
    if allowed.dtype != np.bool_:
        raise ShapeError("attention_window: allowed must be boolean")
    if not (allowed.ndim == 2 and allowed.shape[0] == allowed.shape[1]):
        raise ShapeError(f"attention_window: allowed must be a square (L, L) mask, "
                         f"got shape {allowed.shape}")
    empty = np.flatnonzero(~allowed.any(axis=1))
    if empty.size:
        raise ShapeError(f"attention_window: query rows {empty.tolist()} allow no key")
    i, j = np.nonzero(allowed)
    offsets = np.unique(i - j)[::-1]
    valid = np.zeros((len(offsets), allowed.shape[0]), dtype=bool)
    valid[len(offsets) - 1 - np.searchsorted(offsets[::-1], i - j), i] = True
    return Window(offsets, valid)


def _window_slices(o, n):
    """For key = query - o over n positions: the query range, the key range,
    and the queries the offset leaves out."""
    if o >= 0:
        return slice(o, n), slice(0, n - o), slice(0, o)
    return slice(0, n + o), slice(-o, n), slice(n + o, n)


def head_lanes(d, heads, dtype):
    """(d, heads) indicator: lane j of the model width belongs to head
    j // (d // heads)."""
    return np.repeat(np.eye(heads, dtype=dtype), d // heads, axis=0)


def _check_attention(d, attrs):
    if len(d) not in (8, 10):
        raise ShapeError(f"attention: takes 8 inputs, or 10 with the key-value source "
                         f"listed twice, got {len(d)}")
    if len(d) == 10 and d[8] is not d[9]:
        raise ShapeError("attention: the key-value source must be one array, listed twice")
    x = d[0]
    src = d[8] if len(d) == 10 else x
    if not (x.ndim == 3 and src.ndim == 3 and x.shape[0] == src.shape[0]
            and x.shape[2] == src.shape[2]):
        raise ShapeError(f"attention: need x (B,L,D) and kv (B,S,D), got {x.shape}, {src.shape}")
    D = x.shape[2]
    if not (all(w.shape == (D, D) for w in (d[3], d[5], d[6]))
            and d[4].shape == d[7].shape == (D,)):
        raise ShapeError(f"attention: the projections of width {D} must be ({D}, {D}) "
                         f"with ({D},) biases, got {[a.shape for a in d[3:8]]}")
    if any(a.dtype != x.dtype for a in d[3:]):
        raise ShapeError(f"attention: dtype mismatch {[a.dtype.name for a in d]}")
    heads = attrs["heads"]
    if not (isinstance(heads, (int, np.integer)) and heads >= 1 and D % heads == 0):
        raise ShapeError(f"attention: heads {heads!r} must divide width {D}")
    window = attrs.get("window")
    if window is not None:
        if not isinstance(window, Window):
            raise ShapeError(f"attention: window must be a Window, got {type(window).__name__}")
        if not (len(d) == 8 and x.shape[1] == window.valid.shape[1]):
            raise ShapeError(f"attention: a window of {window.valid.shape[1]} positions needs "
                             f"self-attention over as many, got x {x.shape}, kv {src.shape}")


def _scale(d, heads, dtype):
    return np.asarray(1.0 / math.sqrt(d // heads), dtype=dtype)


def _split_heads(x, heads, axes):
    # (B, N, D) -> (B, H, N, dh) transposed by axes
    B, N, D = x.shape
    return x.reshape(B, N, heads, D // heads).transpose(axes)


def _merge_heads(x):
    # (B, H, dh, N) -> (B, N, D), a view when x is contiguous
    B, H, dh, N = x.shape
    return x.transpose(0, 3, 1, 2).reshape(B, N, H * dh)


def _image_blocks(B, per_image):
    """Slices of consecutive images, each scoring at most _SCORES_BLOCK
    floats (one image at least) when an image scores per_image."""
    n = max(1, _SCORES_BLOCK // per_image)
    return [slice(lo, min(lo + n, B)) for lo in range(0, B, n)]


def _dense_probs(qs, k, heads, stats=None):
    """(probs, max, sum): the (B, H, S, L) probabilities of the scaled
    queries qs over the keys k, by _softmax's calls over axis 2 in place on
    the scores, and the row max and sum they reduce. Backward passes the
    forward's (max, sum) as stats, so its probabilities have the same bits."""
    z = _split_heads(k, heads, (0, 2, 1, 3)) @ _split_heads(qs, heads, (0, 2, 3, 1))
    m = np.maximum.reduce(z, 2, None, None, True) if stats is None else stats[0]
    np.subtract(z, m, out=z)
    np.exp(z, out=z)
    s = np.add.reduce(z, 2, None, None, True) if stats is None else stats[1]
    z /= s
    return z, m, s


def _attend(q, k, v, heads, window, attrs):
    """The (B, L, D) head mix of projected q over k, v (B, S, D); what
    backward reads besides them goes to attrs."""
    if window is not None:
        return _fwd_window_attention(q, k, v, heads, window, attrs)
    B, L, D = q.shape
    scale = _scale(D, heads, q.dtype)
    out = np.empty((B, heads, D // heads, L), dtype=q.dtype)
    m = attrs["_max"] = np.empty((B, heads, 1, L), dtype=q.dtype)
    s = attrs["_sum"] = np.empty_like(m)
    for b in _image_blocks(B, heads * k.shape[1] * L):
        probs, m[b], s[b] = _dense_probs(q[b] * scale, k[b], heads)
        np.matmul(_split_heads(v[b], heads, (0, 2, 3, 1)), probs, out=out[b])
    return _merge_heads(out)


def _attend_grad(g, q, k, v, heads, window, attrs, needs):
    """[gq, gk, gv]: the gradients at _attend's q, k and v, given g at its
    output; None for those needs rules out. Dense gq and gv are (B, L, D)
    views of (B, D, L)-ordered buffers, as _merge_heads gives them: the
    bits of the bias gradients, sums over their leading axes, depend on
    that layout."""
    if window is not None:
        return _bwd_window_attention(g, q, k, v, heads, window, attrs["_probs"], needs)
    B, L, D = q.shape
    scale = _scale(D, heads, q.dtype)
    gq, gv = (np.empty((B, heads, D // heads, n), dtype=q.dtype) if need else None
              for n, need in ((L, needs[0]), (k.shape[1], needs[2])))
    gk = np.empty_like(k) if needs[1] else None
    for b in _image_blocks(B, heads * k.shape[1] * L):
        qs = q[b] * scale
        probs = _dense_probs(qs, k[b], heads, (attrs["_max"][b], attrs["_sum"][b]))[0]
        gh = _split_heads(g[b], heads, (0, 2, 3, 1))              # (b, H, dh, L)
        if needs[0] or needs[1]:
            gs = _softmax_grad(_split_heads(v[b], heads, (0, 2, 1, 3)) @ gh, probs, 2)
        if needs[2]:
            np.matmul(gh, np.swapaxes(probs, -1, -2), out=gv[b])
        if needs[0]:
            np.matmul(_split_heads(k[b], heads, (0, 2, 3, 1)), gs, out=gq[b])
        if needs[1]:
            gk[b] = _merge_heads(np.swapaxes(gs @ _split_heads(qs, heads, (0, 2, 1, 3)), -1, -2))
    if needs[0]:
        gq = _merge_heads(gq)
        gq *= scale
    return [gq, gk, None if gv is None else _merge_heads(gv)]


def _projections(y, d):
    """q, k, v of the attention inputs d, given the LayerNorm output y, by
    the calls the separate linear and matmul ops made."""
    wq, bq, wk, wv, bv = d[3:8]
    src = y if len(d) == 8 else d[8]
    q = y @ wq
    q += bq
    k = src @ wk
    v = src @ wv
    v += bv
    return q, k, v


def _fwd_attention(d, attrs):
    _check_attention(d, attrs)
    q, k, v = _projections(_fwd_ln_affine(d[:3], attrs), d)
    return _attend(q, k, v, attrs["heads"], attrs.get("window"), attrs)


def _bwd_attention(g, d, attrs, needs):
    gain, bias, wq, bq, wk, wv, bv = d[1:8]
    cross = len(d) == 10
    y = _affine(attrs["_xhat"], gain, bias)
    src = d[8] if cross else y
    q, k, v = _projections(y, d)
    # the core's q, k and v gradients, each wanted by its projection's
    # parameters or by the array it projects
    want_y = any(needs[:3])
    want_src = needs[8] if cross else want_y
    gq, gk, gv = _attend_grad(g, q, k, v, attrs["heads"], attrs.get("window"), attrs,
                              (want_y or needs[3] or needs[4], want_src or needs[5],
                               want_src or needs[6] or needs[7]))
    del q, k, v
    grads = [None] * len(d)
    for i, (a, ga) in zip((3, 5, 6), ((y, gq), (src, gk), (src, gv))):
        if needs[i]:
            grads[i] = _weight_grad(a, ga)
    for i, ga in ((4, gq), (7, gv)):
        if needs[i]:
            grads[i] = _unbroadcast(ga, d[i].shape)
    del y, src
    if want_src:
        # the tape summed the v, k and q records' gradients at y in that
        # order; kv's values' slot comes before its keys' for the same sum
        gsrc = gv @ wv.T
        del gv
        gk = gk @ wk.T
        if cross:
            grads[8:] = gsrc, gk
        else:
            gsrc += gk
        del gk
    if want_y:
        gy = gq @ wq.T
        del gq
        if not cross:
            gsrc += gy
            gy = gsrc
        grads[:3] = _bwd_ln_affine(gy, d[:3], attrs, needs[:3])
    return grads


def _window_products(a, b, offsets):
    """(W, B, L, D): slab w holds a[:, i] * b[:, i - offsets[w]], zero where
    that key is out of range."""
    B, L, D = a.shape
    prod = np.empty((len(offsets), B, L, D), dtype=a.dtype)
    for w, o in enumerate(offsets):
        qs, ks, rest = _window_slices(int(o), L)
        np.multiply(a[:, qs], b[:, ks], out=prod[w, :, qs])
        prod[w, :, rest] = 0
    return prod


def _window_mix(s, x, offsets, to_keys):
    """(B, L, D) sum over the window of s[w, :, i] * x[:, i - offsets[w]],
    landing on query i, or with to_keys of s[w, :, i] * x[:, i], landing on
    key i - offsets[w]. Consumes s."""
    out = np.zeros_like(x)
    for w, o in enumerate(offsets):
        qs, ks, _ = _window_slices(int(o), x.shape[1])
        slab = s[w, :, qs]
        slab *= x[:, qs] if to_keys else x[:, ks]
        out[:, ks if to_keys else qs] += slab
    return out


def _head_sums(x, heads, factor):
    """(..., D) -> (..., heads): each head's lanes summed, times factor. A
    matrix-vector product, about twice as fast as the (D, heads) indicator."""
    lane_sum = np.full(x.shape[-1] // heads, factor, dtype=x.dtype)
    return (x.reshape(-1, len(lane_sum)) @ lane_sum).reshape(*x.shape[:-1], heads)


def _head_spread(w, out):
    """(..., heads) -> (..., D) in out: each head's weight on all its lanes."""
    D, heads = out.shape[-1], w.shape[-1]
    spread = head_lanes(D, heads, w.dtype).T
    return np.matmul(w.reshape(-1, heads), spread, out=out.reshape(-1, D)).reshape(out.shape)


def _fwd_window_attention(q, k, v, heads, window, attrs):
    prod = _window_products(q, k, window.offsets)
    scores = _head_sums(prod, heads, _scale(q.shape[2], heads, q.dtype))
    np.copyto(scores, np.asarray(NEG_FILL, dtype=q.dtype),
              where=~window.valid[:, None, :, None])
    probs = _softmax(scores, 0)                                # (W, B, L, H)
    attrs["_probs"] = probs  # reused by backward
    return _window_mix(_head_spread(probs, prod), v, window.offsets, to_keys=False)


def _bwd_window_attention(g, q, k, v, heads, window, probs, needs):
    # every (W, B, L, D) intermediate reuses the one buffer
    buf = _window_products(g, v, window.offsets)
    gp = _head_sums(buf, heads, 1.0)
    gq = gk = gv = None
    if needs[2]:
        gv = _window_mix(_head_spread(probs, buf), g, window.offsets, to_keys=True)
    if needs[0] or needs[1]:
        gs = _softmax_grad(gp, probs, 0)
        gs *= _scale(q.shape[2], heads, q.dtype)
        if needs[0]:
            gq = _window_mix(_head_spread(gs, buf), k, window.offsets, to_keys=False)
        if needs[1]:
            gk = _window_mix(_head_spread(gs, buf), q, window.offsets, to_keys=True)
    return [gq, gk, gv]


def _mean(x):
    # what ndarray.mean(axis=-1) computes: the add reduction divided by the count
    m = np.add.reduce(x, -1, None, None, True)
    m /= x.shape[-1]
    return m


LN_EPS = 1e-5  # added to the variance before the square root


def _layer_norm(x, out=None):
    """(x-hat, 1/sigma): the LayerNorm of x, into out if given, and its
    inverse deviation."""
    xc = np.subtract(x, _mean(x), out=out)
    inv = _mean(xc * xc)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xc *= inv
    return xc, inv


def _layer_norm_grad(g, xhat, inv):
    """The gradient at x of its LayerNorm xhat, given g at xhat."""
    gm = _mean(g)
    gxm = _mean(g * xhat)
    r = g - gm
    r -= xhat * gxm
    r *= inv
    return r


def _affine(xhat, gain, bias):
    y = xhat * gain
    y += bias
    return y


def _fwd_ln_affine(d, attrs):
    """xhat * gain + bias for d = [x, gain, bias]; xhat and 1/sigma stay in
    attrs for backward."""
    x, gain, bias = d
    if not (x.ndim >= 1 and gain.shape == bias.shape == x.shape[-1:]):
        raise ShapeError(f"layer_norm: gain {gain.shape} and bias {bias.shape} must match "
                         f"x {x.shape}'s last axis")
    if not (x.dtype == gain.dtype == bias.dtype):
        raise ShapeError(f"layer_norm: dtype mismatch {x.dtype}, {gain.dtype}, {bias.dtype}")
    attrs["_xhat"], attrs["_inv"] = _layer_norm(x)
    return _affine(attrs["_xhat"], gain, bias)


def _bwd_ln_affine(g, d, attrs, needs):
    xhat, gain = attrs["_xhat"], d[1]
    return [_layer_norm_grad(g * gain, xhat, attrs["_inv"]) if needs[0] else None,
            _unbroadcast(g * xhat, gain.shape) if needs[1] else None,
            _unbroadcast(g, d[2].shape) if needs[2] else None]


# Float32 GELU reads the normal CDF from a piecewise-linear table built once
# with math.erf. The knots sit on [-6, 6] at a power-of-two spacing, so a
# knot and the offset of x from it are exact in float32; the CDF error stays
# below 1e-7 (float32 rounding plus interpolation). Outside the range the CDF
# is exactly 0 or 1. Float64, the reference that grad_check and the tests
# use, calls math.erf per element: 0.5 * (1 + erf(x / sqrt 2)).
_CDF_LO = -6.0
_CDF_STEP = 2.0 ** -10
_CDF_SEGMENTS = int(-2 * _CDF_LO / _CDF_STEP)
_CDF_BLOCK = 1 << 14  # elements per pass, so the pass temporaries stay small


def _cdf_table():
    knots = _CDF_LO + _CDF_STEP * np.arange(_CDF_SEGMENTS + 1)
    cdf = 0.5 * (1.0 + _erf(knots / _SQRT_2))
    cdf[0], cdf[-1] = 0.0, 1.0
    slope = np.append(np.diff(cdf) / _CDF_STEP, 0.0)  # flat past the last knot
    return cdf.astype(np.float32), slope.astype(np.float32)


_CDF_VALUES, _CDF_SLOPES = _cdf_table()
# the float32 kernel's constants: the range ends, knot spacing and its
# inverse, and the index of the knot at 0
_CDF_LO32, _CDF_HI32 = np.float32(_CDF_LO), np.float32(-_CDF_LO)
_CDF_STEP32, _CDF_INV_STEP32 = np.float32(_CDF_STEP), np.float32(1.0 / _CDF_STEP)
_CDF_MID32 = np.float32(_CDF_SEGMENTS // 2)


def _cdf_block(x, out):
    """The float32 table lookup for one block: out = cdf(x)."""
    # fmin/fmax map NaN to a bound, so the index cast never sees NaN;
    # gelu's x * cdf turns NaN back into NaN
    xc = np.fmin(x, _CDF_HI32)
    np.fmax(xc, _CDF_LO32, out=xc)
    knot = xc * _CDF_INV_STEP32
    knot += _CDF_MID32
    np.floor(knot, out=knot)
    i = knot.astype(np.intp)
    knot *= _CDF_STEP32
    knot += _CDF_LO32
    np.subtract(xc, knot, out=xc)
    _CDF_SLOPES.take(i, out=out, mode="clip")
    out *= xc
    out += _CDF_VALUES.take(i, out=knot, mode="clip")


def _normal_cdf(x, out=None):
    """cdf(x). For a float32 x it is written to out (contiguous, x's shape)
    if given."""
    if x.dtype != np.float32:
        cdf = _erf(x / _SQRT_2)
        cdf += 1.0
        cdf *= 0.5
        return cdf
    cdf = np.empty(x.shape, dtype=np.float32) if out is None else out
    # one block needs no flat views; a 0-d x takes the flat path, since
    # ufuncs return scalars for 0-d operands
    if x.size <= _CDF_BLOCK and x.ndim:
        _cdf_block(x, cdf)
        return cdf
    flat_x, flat_cdf = x.reshape(-1), cdf.reshape(-1)
    for s in range(0, flat_x.size, _CDF_BLOCK):
        _cdf_block(flat_x[s:s + _CDF_BLOCK], flat_cdf[s:s + _CDF_BLOCK])
    return cdf


def _gelu(x, out=None, cdf=None):
    """(x * cdf(x), cdf(x)): the GELU of x, into out if given (out may be x
    itself), and the cdf, into the buffer cdf if given."""
    cdf = _normal_cdf(x, cdf)
    return _gelu_of(x, cdf, out), cdf


def _gelu_of(x, cdf, out=None):
    """x * cdf, the GELU of x given its cdf, into out if given."""
    with np.errstate(invalid="ignore"):  # -inf * 0 is NaN, as erf gives
        if out is not None:
            return np.multiply(x, cdf, out=out)
        return (x * cdf).astype(x.dtype, copy=False)


def _gelu_grad(g, x, cdf):
    """The gradient at x of its GELU, given g at the GELU's output."""
    t = x * x
    t *= -0.5
    np.exp(t, out=t)
    t *= _INV_SQRT_2PI
    t *= x
    t += cdf
    t *= g
    return t.astype(x.dtype, copy=False)


# linear is x @ w + b, the bias added in place, after an optional pre-step on
# x that attrs["pre"] names: "layer_norm" (inputs x, gain, bias, w, b) or
# "gelu" (inputs x, w, b). Its record keeps no pre-step output: for w's
# gradient backward recomputes it from xhat and the LayerNorm's parameters,
# or from x and its cdf, with the calls the forward made, so every result
# has the bits of the separate ops.

# what a linear record reads (see _READS), by pre-step
_PRE_READS = {None: "cross", "layer_norm": "params", "gelu": "inputs"}


def _pre_output(pre, d, attrs):
    """The matmul's left operand: the pre-step's output, recomputed, or x."""
    if pre == "layer_norm":
        return _affine(attrs["_xhat"], d[1], d[2])
    if pre == "gelu":
        return _gelu_of(d[0], attrs["_cdf"])
    return d[0]


def _fwd_linear(d, attrs):
    pre = attrs.get("pre")
    if pre not in _PRE_READS:
        raise ShapeError(f"linear: pre must be one of {list(_PRE_READS)}, got {pre!r}")
    n = 5 if pre == "layer_norm" else 3
    if len(d) != n:
        raise ShapeError(f"linear: pre {pre!r} takes {n} inputs, got {len(d)}")
    x, w, b = d[0], d[-2], d[-1]
    _check_matmul("linear", x, w)
    if not (b.shape == w.shape[1:] and b.dtype == w.dtype):
        raise ShapeError(f"linear: bias {b.shape} {b.dtype} does not fit w {w.shape} {w.dtype}")
    if pre == "layer_norm":
        x = _fwd_ln_affine(d[:3], attrs)
    elif pre == "gelu":
        x, attrs["_cdf"] = _gelu(x)
    y = x @ w
    y += b
    return y


def _bwd_linear(g, d, attrs, needs):
    pre = attrs.get("pre")
    grads = [None] * len(d)
    if needs[-1]:
        grads[-1] = _unbroadcast(g, d[-1].shape)
    if needs[-2]:
        grads[-2] = _weight_grad(_pre_output(pre, d, attrs), g)
    if any(needs[:-2]):
        gx = g @ d[-2].T
        if pre == "layer_norm":
            grads[:3] = _bwd_ln_affine(gx, d[:3], attrs, needs[:3])
        elif pre == "gelu":
            grads[0] = _gelu_grad(gx, d[0], attrs["_cdf"])
        else:
            grads[0] = gx
    return grads


def _fwd_reduce_sum(d, attrs):
    axis = attrs.get("axis")
    if axis is None:
        return np.asarray(d[0].sum(), dtype=d[0].dtype)
    return d[0].sum(axis=_norm_axis(axis, d[0].ndim, "reduce_sum"))


def _bwd_reduce_sum(g, d, attrs, needs):
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


def _bwd_reduce_mean(g, d, attrs, needs):
    axis = attrs.get("axis")
    if axis is None:
        n = d[0].size
        return [np.broadcast_to(g / n, d[0].shape).astype(d[0].dtype, copy=False)]
    axis = _norm_axis(axis, d[0].ndim, "reduce_mean")
    n = d[0].shape[axis]
    return [np.broadcast_to(np.expand_dims(g / n, axis), d[0].shape).copy()]


def _fwd_l2_normalize(d, attrs):
    eps = float(attrs.get("eps", 0.0))
    x = d[0]
    sq = (x * x).sum(axis=-1, keepdims=True) + eps
    if eps == 0.0 and np.any(sq == 0.0):
        raise NumericError("l2_normalize: zero-norm slice with eps=0")
    return x / np.sqrt(sq)


def _bwd_l2_normalize(g, d, attrs, needs):
    eps = float(attrs.get("eps", 0.0))
    x = d[0]
    sq = (x * x).sum(axis=-1, keepdims=True) + eps
    n = np.sqrt(sq)
    dot = (g * x).sum(axis=-1, keepdims=True)
    return [g / n - x * dot / (n * sq)]


def _fwd_cross_entropy(d, attrs):
    logits = d[0]
    targets = np.asarray(attrs["targets"])
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_with_logits: logits must be (N,V), got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy_with_logits: targets shape {targets.shape} "
                         f"does not match N={logits.shape[0]}")
    if not np.issubdtype(targets.dtype, np.integer):
        raise ShapeError("cross_entropy_with_logits: targets must be integers")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise ShapeError(f"cross_entropy_with_logits: targets outside [0, {logits.shape[1]})")
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return lse - z[np.arange(logits.shape[0]), targets]


def _bwd_cross_entropy(g, d, attrs, needs):
    logits = d[0]
    p = _softmax(logits, 1)
    p[np.arange(logits.shape[0]), np.asarray(attrs["targets"])] -= 1.0
    return [p * g[:, None]]


class _Op(NamedTuple):
    arity: int | None  # None: any positive number of inputs
    forward: object
    backward: object
    reads: str | dict  # one of _READS, or a dict from attrs["pre"] to one


# What a backward rule reads besides g and attrs: nothing, all its inputs,
# its parameters (every input but the first), or ("cross") for the gradient
# of each of its first two inputs the other one, so each is kept only when
# the other requires a gradient, and none of the rest (a bias).
_READS = ("nothing", "inputs", "params", "cross")

_CATALOG = {
    "add": _Op(2, _fwd_add, _bwd_add, "nothing"),
    "mul": _Op(2, _fwd_mul, _bwd_mul, "cross"),
    "matmul": _Op(2, _fwd_matmul, _bwd_matmul, "cross"),
    "linear": _Op(None, _fwd_linear, _bwd_linear, _PRE_READS),
    "reshape": _Op(1, _fwd_reshape, _bwd_reshape, "nothing"),
    "transpose": _Op(1, _fwd_transpose, _bwd_transpose, "nothing"),
    "concat": _Op(None, _fwd_concat, _bwd_concat, "nothing"),
    "embedding_gather": _Op(1, _fwd_embedding_gather, _bwd_embedding_gather, "nothing"),
    "attention": _Op(None, _fwd_attention, _bwd_attention, "params"),
    "layer_norm": _Op(3, _fwd_ln_affine, _bwd_ln_affine, "params"),
    "reduce_sum": _Op(1, _fwd_reduce_sum, _bwd_reduce_sum, "nothing"),
    "reduce_mean": _Op(1, _fwd_reduce_mean, _bwd_reduce_mean, "nothing"),
    "l2_normalize": _Op(1, _fwd_l2_normalize, _bwd_l2_normalize, "inputs"),
    "cross_entropy_with_logits": _Op(1, _fwd_cross_entropy, _bwd_cross_entropy, "inputs"),
}

OP_KINDS = tuple(sorted(_CATALOG))


def _reads(op, attrs):
    """What a record of op reads: one of _READS."""
    return op.reads if isinstance(op.reads, str) else op.reads[attrs.get("pre")]


def _kept(reads, datas, needs):
    """The inputs a record keeps: arrays backward reads, else _Spec."""
    if reads == "inputs":
        return tuple(datas)
    if reads == "params":
        return (_Spec(datas[0]), *datas[1:])
    if reads == "cross":
        a, b, *rest = datas
        return (a if needs[1] else _Spec(a), b if needs[0] else _Spec(b),
                *(_Spec(x) for x in rest))
    return tuple(_Spec(x) for x in datas)


def apply(op_kind: str, inputs, attrs: dict | None = None) -> Tensor:
    """Apply a catalog op. inputs is a list of Tensors, attrs is op-specific.

    Records the application on the innermost active Tape when any input
    requires grad; otherwise this is plain numpy evaluation.
    """
    if op_kind not in _CATALOG:
        raise CatalogError(f"unknown op kind: {op_kind!r}")
    op = _CATALOG[op_kind]
    inputs = list(inputs)
    if op.arity is not None and len(inputs) != op.arity:
        raise ShapeError(f"{op_kind}: expected {op.arity} inputs, got {len(inputs)}")
    if not inputs:
        raise ShapeError(f"{op_kind}: needs at least one input")
    for x in inputs:
        if not isinstance(x, Tensor):
            raise ShapeError(f"{op_kind}: inputs must be Tensors, got {type(x).__name__}")
    attrs = attrs or {}
    datas = [x.data for x in inputs]
    tape = _active_tape()
    if tape is not None and not any(x.requires_grad for x in inputs):
        tape = None  # nothing to record
    if tape is not None and tape._replaces is not None:
        i, old = len(tape.records), tape._replaces.records
        if i < len(old):
            # free the replaced tape's record at this position before the
            # forward allocates the arrays that take its place
            old[i] = None
    out_data = op.forward(datas, attrs)
    out = Tensor(out_data, dtype=out_data.dtype)
    if tape is not None:
        needs = tuple(x.requires_grad for x in inputs)
        in_ids = [tape._bind(x) for x in inputs]
        out.requires_grad = True
        out_id = tape._bind(out)
        kept = _kept(_reads(op, attrs), datas, needs)
        tape.records.append((op_kind, out_id, tuple(in_ids), kept, attrs, needs))
    return out


def backward(root: Tensor) -> dict:
    """Walk root's tape in reverse; returns {node_id: Tensor} for every
    requires_grad leaf reachable from root. A scalar constant root yields an
    empty map. Each tape supports one backward: it releases the records that
    keep their inputs as it runs them."""
    if root.shape != ():
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    tape = root._tape
    if tape is None or root.node_id is None or not root.requires_grad:
        return {}
    if tape.released:
        raise TapeReleasedError(
            "backward: the root's tape was released (a later step's tape replaced "
            "it, or its training loop returned), so its records are gone")
    if tape.backward_ran:
        raise TapeReleasedError(
            "backward: the root's tape's backward already ran, and it released "
            "the records that keep their inputs")
    tape.backward_ran = True
    grads = {root.node_id: np.ones((), dtype=root.data.dtype)}
    records = tape.records
    for i in range(len(records) - 1, -1, -1):
        _run_record(records, i, grads)
    # each record popped its output's gradient, so what is left belongs to
    # the grad-requiring inputs no record produced: the leaves
    return {nid: Tensor(g) for nid, g in grads.items()}


def _run_record(records, i, grads):
    """Run record i's backward rule, adding its input gradients to grads.

    A record whose op keeps its inputs is dropped from the tape first, so
    this call's locals hold the last references to its arrays and attrs
    scratch, and they are freed on return, before the next rule allocates.
    """
    op_kind, out_id, in_ids, in_datas, attrs, needs = records[i]
    op = _CATALOG[op_kind]
    if _reads(op, attrs) == "inputs":
        records[i] = None
    # every consumer of out_id comes later on the tape, so its gradient
    # is complete here and nothing reads it again
    g = grads.pop(out_id, None)
    if g is None:
        return
    in_grads = op.backward(g, in_datas, attrs, needs)
    for nid, ig, idata, need in zip(in_ids, in_grads, in_datas, needs):
        if ig is None or not need:
            continue
        ig = np.asarray(ig, dtype=idata.dtype)
        if nid in grads:
            grads[nid] = grads[nid] + ig
        else:
            grads[nid] = ig


# ---------------------------------------------------------------------------
# thin named wrappers (the public surface most code uses)

def add(a, b):
    return apply("add", [a, b])


def mul(a, b):
    return apply("mul", [a, b])


def matmul(a, b):
    return apply("matmul", [a, b])


def reshape(x, shape):
    return apply("reshape", [x], {"shape": tuple(shape)})


def transpose(x, axes):
    return apply("transpose", [x], {"axes": tuple(axes)})


def concat(xs, axis):
    return apply("concat", list(xs), {"axis": axis})


def embedding_gather(table, ids):
    return apply("embedding_gather", [table], {"ids": np.asarray(ids)})


def attention(x, gain, bias, wq, bq, wk, wv, bv, heads, kv=None, window=None):
    """One attention sublayer up to its head mix: the (B,L,D) multi-head
    attention of queries y @ wq + bq over keys src @ wk and values
    src @ wv + bv, where y is x's LayerNorm with gain and bias and src is
    y, or for cross-attention kv (B,S,D). window is None (every key) or the
    Window of a self-attention mask (see attention_window)."""
    attrs = {"heads": heads}
    if window is not None:
        attrs["window"] = window
    return apply("attention", [x, gain, bias, wq, bq, wk, wv, bv]
                 + ([] if kv is None else [kv, kv]), attrs)


def linear(x, w, b):
    """x @ w + b."""
    return apply("linear", [x, w, b])


def norm_linear(x, gain, bias, w, b):
    """layer_norm(x, gain, bias) @ w + b, whose record keeps no LayerNorm
    output."""
    return apply("linear", [x, gain, bias, w, b], {"pre": "layer_norm"})


def gelu_linear(x, w, b):
    """GELU(x) @ w + b, whose record keeps no GELU output."""
    return apply("linear", [x, w, b], {"pre": "gelu"})


def layer_norm(x, gain, bias):
    """x normalised over its last axis, times gain, plus bias."""
    return apply("layer_norm", [x, gain, bias])


def reduce_sum(x, axis=None):
    return apply("reduce_sum", [x], {"axis": axis})


def reduce_mean(x, axis=None):
    return apply("reduce_mean", [x], {"axis": axis})


def scale(x, factor):
    """x times the number factor: a mul by a 0-d constant of x's dtype."""
    return mul(x, constant(np.asarray(factor, dtype=x.dtype)))


def l2_normalize(x, eps=0.0):
    return apply("l2_normalize", [x], {"eps": eps})


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
