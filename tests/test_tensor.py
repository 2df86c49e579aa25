"""Op catalog: forward oracles, gradient checks, shape rules, tape mechanics."""

import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from ttig import contrastive, nn, scenes, seq2seq, textproc, vq
from ttig import tensor as T
from ttig.tensor import CatalogError, ShapeError, TapeReleasedError

TOL = 1e-5


def _rng(seed=0):
    return np.random.default_rng(seed)


def _check(f, x, tol=TOL, eps=1e-6):
    err = T.grad_check(f, x, eps=eps)
    assert err < tol, f"max_rel_error {err:.3e}"


# ---------------------------------------------------------------- forwards

def test_add_sub_mul_forward_match_numpy():
    a = _rng().normal(size=(3, 4)).astype(np.float32)
    b = _rng(1).normal(size=(3, 4)).astype(np.float32)
    np.testing.assert_allclose(T.add(T.constant(a), T.constant(b)).data, a + b, rtol=1e-6)
    # there is no sub kind: a - b is an add of the negated b, the same bits
    np.testing.assert_array_equal(T.add(T.constant(a), T.constant(-b)).data, a - b)
    np.testing.assert_allclose(T.mul(T.constant(a), T.constant(b)).data, a * b, rtol=1e-6)


def test_trailing_suffix_broadcast_accepted():
    a = _rng().normal(size=(2, 3, 4)).astype(np.float32)
    b = _rng().normal(size=(4,)).astype(np.float32)
    out = T.add(T.constant(a), T.constant(b))
    np.testing.assert_allclose(out.data, a + b, rtol=1e-6)


def test_equal_rank_shapes_must_match_exactly():
    a = T.constant(np.zeros((3, 3), np.float32))
    b = T.constant(np.zeros((3, 1), np.float32))
    with pytest.raises(ShapeError):
        T.add(a, b)


def test_lower_rank_operand_must_equal_suffix():
    a = T.constant(np.zeros((2, 2), np.float32))
    with pytest.raises(ShapeError):
        T.add(a, T.constant(np.zeros((1,), np.float32)))
    with pytest.raises(ShapeError):
        T.mul(a, T.constant(np.zeros((3,), np.float32)))


def test_dtype_mismatch_message_unchanged():
    a32 = T.constant(np.zeros((2, 2), np.float32))
    a64 = T.constant(np.zeros((2, 2), np.float64))
    for op in (T.add, T.mul, T.matmul):
        with pytest.raises(ShapeError) as e:
            op(a32, a64)
        assert str(e.value) == f"{op.__name__}: dtype mismatch float32 vs float64"
    with pytest.raises(ShapeError, match=r"^add: shapes \(3,\) and \(2, 2\) are not trailing-aligned$"):
        T.add(T.constant(np.zeros(3, np.float32)), a32)
    with pytest.raises(ShapeError, match=r"^matmul: inner dims \(2, 2\) @ \(3, 2\)$"):
        T.matmul(a32, T.constant(np.zeros((3, 2), np.float32)))


def test_matmul_forward_and_shape_check():
    a = _rng().normal(size=(5, 3)).astype(np.float32)
    b = _rng(1).normal(size=(3, 7)).astype(np.float32)
    np.testing.assert_allclose(T.matmul(T.constant(a), T.constant(b)).data, a @ b, rtol=1e-5)
    with pytest.raises(ShapeError):
        T.matmul(T.constant(a), T.constant(a))


def test_matmul_right_operand_must_be_a_matrix():
    a = T.constant(np.zeros((2, 5, 3), np.float32))
    for shape in [(2, 3, 7), (3,)]:
        with pytest.raises(ShapeError, match=r"^matmul: need \(\.\.\., n\) @ \(n, m\)"):
            T.matmul(a, T.constant(np.zeros(shape, np.float32)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scale_is_one_mul_by_a_0d_constant(dtype):
    rng = _rng(2)
    x = T.Tensor(rng.normal(size=(3, 4)).astype(dtype), requires_grad=True)
    g = rng.normal(size=(3, 4)).astype(dtype)
    f = -1.7
    with T.Tape() as tape:
        y = T.scale(x, f)
        loss = T.reduce_sum(T.mul(y, T.constant(g)))
    assert [r[0] for r in tape.records] == ["mul", "mul", "reduce_sum"]
    kept = tape.records[0][3][1]
    assert kept.shape == () and kept.dtype == dtype
    np.testing.assert_array_equal(y.data, x.data * np.asarray(f, dtype))
    assert y.data.dtype == dtype
    np.testing.assert_array_equal(T.backward(loss)[x.node_id].data, g * np.asarray(f, dtype))


def test_softmax_rows_sum_to_one():
    x = _rng().normal(size=(4, 9)).astype(np.float32)
    s = T._softmax(x, -1)
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)
    assert (s > 0).all()


def test_softmax_shift_invariance():
    x = _rng().normal(size=(2, 5)).astype(np.float32)
    a = T._softmax(x, -1)
    b = T._softmax(x + 100.0, -1)
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_layer_norm_zero_mean_unit_var():
    rng = _rng()
    x = rng.normal(size=(6, 32)).astype(np.float32)
    gain, bias = (rng.normal(size=32).astype(np.float32) for _ in range(2))
    one, zero = np.ones(32, np.float32), np.zeros(32, np.float32)
    y = T.layer_norm(*map(T.constant, (x, one, zero))).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)
    # biased variance normalization, eps inside the sqrt
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)
    np.testing.assert_allclose(T.layer_norm(*map(T.constant, (x, gain, bias))).data,
                               y * gain + bias, atol=1e-5)


def test_gelu_against_erf_form():
    x = np.linspace(-4, 4, 33, dtype=np.float32)
    want = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    np.testing.assert_allclose(T._gelu(x)[0], want, atol=1e-6)


def _erf_cdf(x):
    # scipy's erf form: an independent float64 reference, and the float32
    # kernel the table replaced
    cdf = erf(x * np.asarray(1.0 / np.sqrt(2.0), dtype=x.dtype))
    cdf += 1.0
    cdf *= 0.5
    return cdf


def test_float32_gelu_table_within_stated_tolerance_of_erf():
    # stated tolerance: CDF within 2e-7 and GELU within 1e-6, absolute, of
    # the float64 erf form (float32 rounding plus linear interpolation)
    grid = np.linspace(-8.0, 8.0, 400_001)
    normal = _rng().normal(scale=2.0, size=100_000)
    x = np.concatenate([grid, normal]).astype(np.float32)
    x64 = x.astype(np.float64)
    want_cdf = _erf_cdf(x64)
    got, cdf = T._gelu(x)
    assert got.dtype == np.float32 and cdf.dtype == np.float32
    assert np.abs(cdf - want_cdf).max() <= 2e-7
    assert np.abs(got - x64 * want_cdf).max() <= 1e-6
    # exactly 0 and 1 outside the table's range
    far = np.array([-7.0, -6.5, 6.5, 7.0], np.float32)
    np.testing.assert_array_equal(T._normal_cdf(far), [0.0, 0.0, 1.0, 1.0])


def test_float32_cdf_table_is_the_one_scipy_erf_builds():
    knots = T._CDF_LO + T._CDF_STEP * np.arange(T._CDF_SEGMENTS + 1)
    cdf = 0.5 * (1.0 + erf(knots / np.sqrt(2.0)))
    cdf[0], cdf[-1] = 0.0, 1.0
    slope = np.append(np.diff(cdf) / T._CDF_STEP, 0.0)
    np.testing.assert_array_equal(T._CDF_VALUES, cdf.astype(np.float32))
    np.testing.assert_array_equal(T._CDF_SLOPES, slope.astype(np.float32))


def test_float64_gelu_is_the_erf_form():
    x = np.linspace(-8.0, 8.0, 1001)
    got = T._gelu(x)[0]
    want = [v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.tolist()]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(got, x * _erf_cdf(x), rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(), (0,), (2, 0, 3), (3, 4)],
                         ids=["0d", "empty", "empty_3d", "2d"])
def test_float64_gelu_takes_any_shape(shape):
    x = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
    y = T._gelu(x)[0]
    assert y.shape == shape and y.dtype == np.float64
    np.testing.assert_allclose(y, x * _erf_cdf(x), rtol=0, atol=1e-15)


def test_importing_every_ttig_module_loads_no_scipy():
    # a fresh interpreter, so no other test's import of scipy is seen
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import importlib, pkgutil, sys; sys.path.insert(0, {src!r}); import ttig\n"
            "for m in pkgutil.iter_modules(ttig.__path__):\n"
            "    if m.name != '__main__':\n"
            "        importlib.import_module('ttig.' + m.name)\n"
            "assert 'ttig.cli' in sys.modules\n"
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_nonfinite_inputs_propagate_without_warning(dtype):
    x = np.array([np.nan, np.inf, -np.inf, 1.0], dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = T._gelu(x)[0]
    assert np.isnan(y[0])
    assert not np.isfinite(y[1]) and not np.isfinite(y[2])
    assert np.isfinite(y[3])


def test_gelu_peak_memory_within_one_block_of_erf_kernel():
    x = _rng().normal(size=(2048, 256)).astype(np.float32)

    def erf_kernel(x):
        cdf = _erf_cdf(x)
        return x * cdf, cdf

    def peak(f):
        tracemalloc.start()
        try:
            kept = f(x)  # noqa: F841  (both kernels keep the output and the cdf)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    old = peak(erf_kernel)
    new = peak(T._gelu)
    assert new <= old + T._CDF_BLOCK * x.itemsize, (new, old)


def _mean_ln_fwd(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv


def _mean_ln_bwd(g, x, out, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    r = g - g.mean(axis=-1, keepdims=True)
    r -= out * (g * out).mean(axis=-1, keepdims=True)
    r *= inv
    return r


def _sum_softmax_fwd(x, axis):
    z = x - x.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_and_softmax_reductions_bit_identical_to_method_forms(dtype):
    rng = _rng(3)
    for shape in [(7, 64), (3, 5, 33), (2000, 256)]:
        x = (rng.normal(size=shape) * rng.uniform(0.1, 30.0)).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        out, inv = T._layer_norm(x)
        np.testing.assert_array_equal(out, _mean_ln_fwd(x))
        want = _mean_ln_bwd(g, x, out)
        np.testing.assert_array_equal(T._layer_norm_grad(g, out, inv), want)
        for axis in (0, -1):
            sm = T._softmax(x, axis)
            np.testing.assert_array_equal(sm, _sum_softmax_fwd(x, axis))
            r = g - (g * sm).sum(axis=axis, keepdims=True)
            r *= sm
            np.testing.assert_array_equal(T._softmax_grad(g, sm, axis), r)


def _chain_attention(q, k, v, heads, allowed, g):
    """The chain attention ran as before it was one op: split heads, q @ kT,
    scale, fill the ruled-out slots, softmax over the last axis, @ v, merge
    heads; with its backward for upstream gradient g. Returns out, gq, gk, gv."""
    B, L, D = q.shape
    S, dh = k.shape[1], D // heads
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=q.dtype)
    qh, kh, vh, gh = (x.reshape(B, -1, heads, dh).transpose(0, 2, 1, 3) for x in (q, k, v, g))
    s = (qh @ kh.swapaxes(-1, -2)) * scale
    if allowed is not None:
        s = np.where(allowed, s, np.asarray(-1e9, dtype=q.dtype))
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    gp = gh @ vh.swapaxes(-1, -2)
    gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p
    if allowed is not None:
        gs = np.where(allowed, gs, np.zeros((), dtype=q.dtype))
    gs *= scale

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(B, -1, D)

    return merge(p @ vh), merge(gs @ kh), merge(gs.swapaxes(-1, -2) @ qh), \
        merge(p.swapaxes(-1, -2) @ gh)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["conv_mask", "no_mask", "cross"])
def test_attention_matches_scale_fill_softmax_chain(dtype, mode):
    # desk shapes: decoder self-attention under the conv mask, dense
    # self-attention, and cross-attention to a trimmed caption; inputs and
    # upstream gradient at std 0.5, above what a desk layer's projections give
    cfg = seq2seq.DESK
    B, L, S = 16, cfg.image_len, (9 if mode == "cross" else cfg.image_len)
    rng = _rng(5)
    q, g = (rng.normal(scale=0.5, size=(B, L, cfg.d_model)).astype(dtype) for _ in range(2))
    k, v = (rng.normal(scale=0.5, size=(B, S, cfg.d_model)).astype(dtype) for _ in range(2))
    allowed = seq2seq.conv_sparse_mask(cfg.grid_h, cfg.grid_w, cfg.conv_kernel) \
        if mode == "conv_mask" else None
    want = _chain_attention(q, k, v, cfg.heads, allowed, g)

    # the attention op's multi-head core, forward and backward
    window = None if allowed is None else T.attention_window(allowed)
    attrs = {}
    got = [T._attend(q, k, v, cfg.heads, window, attrs)]
    got += T._attend_grad(g, q, k, v, cfg.heads, window, attrs, (True, True, True))
    for name, a, b in zip(("out", "gq", "gk", "gv"), got, want):
        assert a.dtype == dtype, name
        err = np.abs(a - b).max()
        assert err <= 1e-6, f"{name}: {err:.2e}"


def test_attention_window_gives_ruled_out_keys_zero_weight_and_gradient():
    allowed = seq2seq.conv_sparse_mask(4, 4, 3)
    window = T.attention_window(allowed)
    rng = _rng(2)
    q, k, v = (rng.normal(size=(2, 16, 8)).astype(np.float32) for _ in range(3))
    i = 9
    ruled_out = ~allowed[i]
    pick = np.zeros((2, 16, 8), np.float32)
    pick[:, i] = 1.0  # the upstream gradient reads query i's output only
    attrs = {}
    out = T._attend(q, k, v, 2, window, attrs)
    for g in T._attend_grad(pick, q, k, v, 2, window, attrs, (True, True, True))[1:]:
        assert (g[:, ruled_out] == 0.0).all() and (g[:, allowed[i]] != 0.0).all()
    # keys and values query i rules out do not move its output by one bit
    k2, v2 = k.copy(), v.copy()
    k2[:, ruled_out] += 3.0
    v2[:, ruled_out] -= 5.0
    moved = T._attend(q, k2, v2, 2, window, {})
    np.testing.assert_array_equal(moved[:, i], out[:, i])


_WINDOW_CASES = [pytest.param(k, grid, id=f"k{k}-{grid[0]}x{grid[1]}")
                 for grid in [(8, 8), (3, 5)] for k in (1, 3, 5)]


@pytest.mark.parametrize("kernel,grid", _WINDOW_CASES)
def test_attention_window_round_trips_its_mask(kernel, grid):
    allowed = seq2seq.conv_sparse_mask(*grid, kernel)
    window = T.attention_window(allowed)
    n = allowed.shape[0]
    rebuilt = np.zeros_like(allowed)
    for o, valid in zip(window.offsets, window.valid):
        rows = np.flatnonzero(valid)
        rebuilt[rows, rows - o] = True
    np.testing.assert_array_equal(rebuilt, allowed)
    assert (np.diff(window.offsets) < 0).all()  # the keys of a row ascend
    # a non-causal mask gives negative offsets: keys after the query
    full = T.attention_window(np.ones((n, n), bool))
    np.testing.assert_array_equal(full.offsets, np.arange(n - 1, -n, -1))


def test_attention_window_rejects_a_row_allowing_no_key():
    allowed = np.tril(np.ones((4, 4), bool))
    allowed[2] = False
    with pytest.raises(ShapeError, match=r"query rows \[2\] allow no key"):
        T.attention_window(allowed)


def _sublayer_inputs(rng, B, L, D, S=None):
    """Inputs of one attention op: x (B, L, D), the LayerNorm's gain and
    bias, wq, bq, wk, wv, bv, then kv (B, S, D) if S is given; float64."""
    x = rng.normal(size=(B, L, D))
    params = [rng.normal(size=D) * 0.1 + 1.0, rng.normal(size=D) * 0.1]
    for shape in [(D, D), (D,), (D, D), (D, D), (D,)]:
        params.append(rng.normal(size=shape) * (0.3 if len(shape) == 2 else 0.1))
    return [x, *params] + ([] if S is None else [rng.normal(size=(B, S, D))])


def _sublayer(*ins, heads, window=None):
    """The attention op of _sublayer_inputs' inputs."""
    return T.attention(*ins[:8], heads, kv=ins[8] if len(ins) == 9 else None, window=window)


def test_attention_takes_a_window_not_a_mask():
    ins = [T.constant(a, np.float32) for a in _sublayer_inputs(_rng(), 1, 4, 8)]
    with pytest.raises(ShapeError, match="window must be a Window"):
        _sublayer(*ins, heads=2, window=np.tril(np.ones((4, 4), bool)))


def test_attention_takes_its_key_value_source_twice():
    ins = [T.constant(a, np.float32) for a in _sublayer_inputs(_rng(), 1, 4, 8, S=3)]
    with pytest.raises(ShapeError, match="listed twice"):
        T.apply("attention", ins + [T.constant(ins[-1].data.copy())], {"heads": 2})
    with pytest.raises(ShapeError, match="takes 8 inputs, or 10"):
        T.apply("attention", ins, {"heads": 2})


def test_attention_window_rejects_a_non_square_mask():
    with pytest.raises(ShapeError, match="square"):
        T.attention_window(np.ones((3, 4), bool))
    with pytest.raises(ShapeError, match="boolean"):
        T.attention_window(np.ones((4, 4), np.float32))


def test_concat_roundtrips_slice():
    x = _rng().normal(size=(4, 6)).astype(np.float32)
    a, b = T.constant(x[:2]), T.constant(x[2:])
    np.testing.assert_array_equal(T.concat([a, b], axis=0).data, x)


def test_embedding_gather_picks_rows():
    table = _rng().normal(size=(10, 4)).astype(np.float32)
    ids = np.array([[3, 1], [0, 9]])
    out = T.embedding_gather(T.constant(table), ids).data
    np.testing.assert_array_equal(out, table[ids])


def test_reduce_ops_match_numpy():
    x = _rng().normal(size=(3, 4)).astype(np.float32)
    np.testing.assert_allclose(T.reduce_sum(T.constant(x)).data, x.sum(), rtol=1e-6)
    np.testing.assert_allclose(T.reduce_mean(T.constant(x), axis=0).data, x.mean(axis=0), rtol=1e-6)
    np.testing.assert_allclose(T.scale(T.constant(x), 2.5).data, 2.5 * x, rtol=1e-6)


def test_l2_normalize_rows_unit_norm():
    x = _rng().normal(size=(5, 8)).astype(np.float32)
    y = T.l2_normalize(T.constant(x)).data
    np.testing.assert_allclose(np.linalg.norm(y, axis=-1), 1.0, atol=1e-5)


def test_cross_entropy_is_per_example_nll():
    logits = _rng().normal(size=(4, 7)).astype(np.float32)
    targets = np.array([2, 0, 6, 3])
    got = T.cross_entropy_with_logits(T.constant(logits), targets).data
    z = logits.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    ls = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -ls[np.arange(4), targets]
    np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_gradient_is_the_shared_softmax_minus_onehot(dtype):
    rng = _rng(4)
    logits = (rng.normal(size=(6, 9)) * 5.0).astype(dtype)
    targets = np.array([2, 0, 8, 3, 3, 5])
    g = rng.normal(size=6).astype(dtype)
    x = T.Tensor(logits, requires_grad=True)
    with T.Tape():
        loss = T.reduce_sum(T.mul(T.cross_entropy_with_logits(x, targets), T.constant(g)))
    onehot = np.eye(9, dtype=dtype)[targets]
    want = (T._softmax(logits, 1) - onehot) * g[:, None]
    got = T.backward(loss)[x.node_id].data
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, want)


def test_transpose_and_reshape_roundtrip():
    x = _rng().normal(size=(2, 3, 4)).astype(np.float32)
    y = T.transpose(T.constant(x), (2, 0, 1)).data
    np.testing.assert_array_equal(y, x.transpose(2, 0, 1))
    z = T.reshape(T.constant(x), (6, 4)).data
    np.testing.assert_array_equal(z, x.reshape(6, 4))


def test_unknown_op_kind_rejected():
    with pytest.raises(CatalogError):
        T.apply("outer_product", [T.constant(np.ones(2, np.float32))])


# ---------------------------------------------------------------- gradients

def test_grad_elementwise_ops():
    x = _rng().normal(size=(3, 4))
    c = _rng(1).normal(size=(3, 4))
    _check(lambda t: T.reduce_sum(T.mul(t, t)), x)
    _check(lambda t: T.reduce_sum(T.add(t, T.constant(c, np.float64))), x)


def test_grad_broadcast_bias():
    b = _rng().normal(size=(4,))
    x = _rng(1).normal(size=(3, 4))
    _check(lambda t: T.reduce_sum(T.mul(T.add(T.constant(x, np.float64), t),
                                        T.add(T.constant(x, np.float64), t))), b)


def test_grad_matmul_both_sides():
    a = _rng().normal(size=(3, 4))
    b = _rng(1).normal(size=(4, 2))
    _check(lambda t: T.reduce_sum(T.matmul(t, T.constant(b, np.float64))), a)
    _check(lambda t: T.reduce_sum(T.matmul(T.constant(a, np.float64), t)), b)


def _check_each_input(op, xs, rng, eps=1e-6):
    """grad_check op's gradient at each of its inputs xs in turn, under a
    sum of its output weighted by draws from rng."""
    w = rng.normal(size=op(*(T.constant(x, np.float64) for x in xs)).shape)
    for i in range(len(xs)):
        def f(t):
            ins = [t if j == i else T.constant(x, np.float64) for j, x in enumerate(xs)]
            return T.reduce_sum(T.mul(op(*ins), T.constant(w, np.float64)))
        _check(f, xs[i], eps=eps)


def test_grad_layer_norm():
    rng = _rng()
    _check_each_input(T.layer_norm, [rng.normal(size=(4, 8)), rng.normal(size=8) + 1.0,
                                     rng.normal(size=8)], rng)


def test_grad_linear():
    rng = _rng()
    _check_each_input(T.linear, [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)),
                                 rng.normal(size=5)], rng)


def test_grad_linear_with_a_layer_norm_pre_step():
    rng = _rng()
    _check_each_input(T.norm_linear, [rng.normal(size=(2, 3, 4)), rng.normal(size=4) + 1.0,
                                      rng.normal(size=4), rng.normal(size=(4, 5)),
                                      rng.normal(size=5)], rng)


def test_grad_linear_with_a_gelu_pre_step():
    # well conditioned grid; far tails make the finite-difference quotient noisy
    x = (np.linspace(-3.0, 3.0, 18) + 0.01).reshape(2, 3, 3)
    rng = _rng()
    _check_each_input(T.gelu_linear, [x, rng.normal(size=(3, 5)), rng.normal(size=5)], rng)


def test_grad_structural_ops():
    x = _rng().normal(size=(4, 6))
    _check(lambda t: T.reduce_sum(T.mul(T.transpose(t, (1, 0)), T.transpose(t, (1, 0)))), x)
    _check(lambda t: T.reduce_sum(T.mul(T.reshape(t, (2, 12)), T.reshape(t, (2, 12)))), x)
    _check(lambda t: T.reduce_sum(T.mul(T.concat([t, t], axis=1), T.concat([t, t], axis=1))), x)


def test_grad_embedding_gather():
    table = _rng().normal(size=(6, 3))
    ids = np.array([[0, 2], [5, 2]])  # duplicate id accumulates
    _check(lambda t: T.reduce_sum(T.mul(T.embedding_gather(t, ids),
                                        T.embedding_gather(t, ids))), table)


def test_grad_reduce_and_scale():
    x = _rng().normal(size=(3, 4))
    _check(lambda t: T.reduce_mean(T.mul(t, t)), x)
    _check(lambda t: T.reduce_sum(T.scale(t, -1.7)), x)
    _check(lambda t: T.reduce_sum(T.mul(T.reduce_sum(t, axis=1), T.reduce_sum(t, axis=1))), x)


def test_grad_l2_normalize():
    x = _rng().normal(size=(3, 5)) + 0.5
    w = _rng(1).normal(size=(3, 5))
    _check(lambda t: T.reduce_sum(T.mul(T.l2_normalize(t), T.constant(w, np.float64))), x)


def test_grad_cross_entropy():
    logits = _rng().normal(size=(5, 9))
    targets = np.array([1, 4, 0, 8, 3])
    _check(lambda t: T.reduce_mean(T.cross_entropy_with_logits(t, targets)), logits)


def _gelu_grad_written_out(g, x, cdf):
    t = x * x
    t *= -0.5
    np.exp(t, out=t)
    t *= float(1.0 / np.sqrt(2.0 * np.pi))  # a Python float keeps float32
    t *= x
    t += cdf
    t *= g
    return t


@pytest.mark.parametrize("L", [12, 64], ids=["text", "image"])
@pytest.mark.parametrize("chain", ["mlp", "projection"])
def test_linear_and_layer_norm_have_the_bits_of_the_separate_ops(chain, L):
    # desk widths, at a caption's and an image's token count. "mlp" is
    # ln2 -> fc1, GELU -> fc2; "projection" is ln1 -> a biased projection.
    # The want side is the ufunc sequence the separate layer_norm, mul, add,
    # matmul, add and gelu ops ran, forward and backward
    rng = _rng(9)
    d, m = 64, 256 if chain == "mlp" else 64

    def draw(*shape, scale=0.02, mean=0.0):
        return (mean + scale * rng.normal(size=shape)).astype(np.float32)

    x, g = draw(16, L, d, scale=1.0), draw(16, L, m if chain == "projection" else d, scale=1.0)
    gain, beta, w1, b1 = draw(d, scale=0.1, mean=1.0), draw(d, scale=0.1), draw(d, m), draw(m)
    w2, b2 = draw(m, d), draw(d)
    ins = [x, gain, beta, w1, b1] + ([w2, b2] if chain == "mlp" else [])

    xhat = T._layer_norm(x)[0]
    a = xhat * gain
    a += beta
    h = a @ w1
    h += b1
    want_grads = {}
    if chain == "mlp":
        u, cdf = T._gelu(h)
        want = u @ w2
        want += b2
        want_grads[5] = u.reshape(-1, m).T @ g.reshape(-1, d)
        want_grads[6] = g.sum(axis=(0, 1))
        gh = _gelu_grad_written_out(g @ w2.T, h, cdf)
    else:
        want, gh = h, g
    want_grads[3] = a.reshape(-1, d).T @ gh.reshape(-1, m)
    want_grads[4] = gh.sum(axis=(0, 1))
    ga = gh @ w1.T
    want_grads[2] = ga.sum(axis=(0, 1))
    want_grads[1] = (ga * xhat).sum(axis=(0, 1))
    want_grads[0] = _mean_ln_bwd(ga * gain, x, xhat)

    leaves = [T.Tensor(v, requires_grad=True) for v in ins]
    with T.Tape():
        if chain == "mlp":
            out = T.gelu_linear(T.norm_linear(*leaves[:5]), *leaves[5:])
        else:
            out = T.linear(T.layer_norm(*leaves[:3]), *leaves[3:])
        loss = T.reduce_sum(T.mul(out, T.constant(g)))
    grads = T.backward(loss)
    np.testing.assert_array_equal(out.data.view(np.uint32), want.view(np.uint32))
    for i, leaf in enumerate(leaves):
        got = grads[leaf.node_id].data
        assert got.dtype == np.float32, i
        np.testing.assert_array_equal(got.view(np.uint32), want_grads[i].view(np.uint32),
                                      err_msg=f"input {i}")


def _check_attention_grads(B, L, S, D, heads, window=None):
    # S None: self-attention. The gradient at x passes the LayerNorm's
    # projection, which leaves some components far below the gradient's
    # scale: at eps 1e-6 the central difference's rounding (about 1e-9)
    # is a large part of them, so the step is 1e-5
    rng = _rng(heads)
    xs = _sublayer_inputs(rng, B, L, D, S)
    _check_each_input(lambda *ins: _sublayer(*ins, heads=heads, window=window), xs, rng,
                      eps=1e-5)


@pytest.mark.parametrize("heads", [1, 2, 4], ids=lambda h: f"h{h}")
@pytest.mark.parametrize("L,S", [(5, None), (5, 3)], ids=["self", "cross"])
def test_grad_attention_dense(L, S, heads):
    _check_attention_grads(2, L, S, 8, heads)


@pytest.mark.parametrize("heads", [1, 2, 4], ids=lambda h: f"h{h}")
@pytest.mark.parametrize("kernel,grid", _WINDOW_CASES)
def test_grad_attention_window(kernel, grid, heads):
    allowed = seq2seq.conv_sparse_mask(*grid, kernel)
    _check_attention_grads(1, len(allowed), None, 8, heads, T.attention_window(allowed))


def _kept_probs_attention(g, q, k, v, heads, needs):
    """Dense attention's output and gradients as the rule that kept the
    probabilities from forward to backward computed them (with g None, the
    output alone): the reference for the one that recomputes them from the
    kept row max and sum."""
    scale = T._scale(q.shape[2], heads, q.dtype)
    qs = q * scale
    scores = T._split_heads(k, heads, (0, 2, 1, 3)) @ T._split_heads(qs, heads, (0, 2, 3, 1))
    probs = T._softmax(scores, 2)
    out = T._merge_heads(T._split_heads(v, heads, (0, 2, 3, 1)) @ probs)
    if g is None:
        return out, None
    gh = T._split_heads(g, heads, (0, 2, 3, 1))
    gq = gk = gv = None
    if needs[2]:
        gv = T._merge_heads(gh @ np.swapaxes(probs, -1, -2))
    if needs[0] or needs[1]:
        gs = T._softmax_grad(T._split_heads(v, heads, (0, 2, 1, 3)) @ gh, probs, 2)
        if needs[0]:
            gq = T._merge_heads(T._split_heads(k, heads, (0, 2, 3, 1)) @ gs)
            gq *= scale
        if needs[1]:
            qs = q * scale
            gk = T._merge_heads(np.swapaxes(gs @ T._split_heads(qs, heads, (0, 2, 1, 3)),
                                            -1, -2))
    return out, [gq, gk, gv]


_NEEDS = [n for n in itertools.product((False, True), repeat=3) if any(n)]


# the shapes the trainers run: q (B, L, D) over S keys, 4 heads
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B,L,S", [(32, 64, 64), (64, 32, 32), (16, 64, 8)],
                         ids=["tokenizer", "reranker-text", "seq2seq-cross"])
def test_dense_attention_recomputes_the_kept_probabilities_bits(B, L, S, dtype):
    heads, D = 4, 64
    rng = _rng(L + S)
    q, k, v = (rng.normal(size=(B, n, D)).astype(dtype) for n in (L, S, S))
    g = rng.normal(size=(B, L, D)).astype(dtype)
    for needs in _NEEDS:
        # the attention op's multi-head core, forward and backward
        attrs = {}
        out = T._attend(q, k, v, heads, None, attrs)
        assert all(a.shape != (B, heads, S, L) for a in attrs.values()), needs
        assert attrs["_max"].shape == attrs["_sum"].shape == (B, heads, 1, L)
        got = T._attend_grad(g, q, k, v, heads, None, attrs, needs)
        want_out, want = _kept_probs_attention(g, q, k, v, heads, needs)
        np.testing.assert_array_equal(out, want_out)
        for n, gg, wg in zip(needs, got, want):
            if n:
                assert gg.dtype == dtype
                np.testing.assert_array_equal(gg, wg, err_msg=f"{needs}")
            else:
                assert gg is None and wg is None


# The attention sublayer as six records, as it ran before it was one op:
# layer_norm, the q linear, the k matmul, the v linear, an attention op over
# the projected q, k and v that keeps them (registered below as
# "qkv_attention": dense scores over the whole batch at once, the window
# kernels of tensor.py), and the wo linear. The op that replaced it must
# give every output and gradient the same bits.

def _qkv_attention_fwd(d, attrs):
    q, k, v = d
    if "window" in attrs:
        return T._fwd_window_attention(q, k, v, attrs["heads"], attrs["window"], attrs)
    return _kept_probs_attention(None, q, k, v, attrs["heads"], (False,) * 3)[0]


def _qkv_attention_bwd(g, d, attrs, needs):
    q, k, v = d
    if "window" in attrs:
        return T._bwd_window_attention(g, q, k, v, attrs["heads"], attrs["window"],
                                       attrs["_probs"], needs)
    return _kept_probs_attention(g, q, k, v, attrs["heads"], needs)[1]


@pytest.fixture
def six_records(monkeypatch):
    monkeypatch.setitem(T._CATALOG, "qkv_attention",
                        T._Op(3, _qkv_attention_fwd, _qkv_attention_bwd, "inputs"))

    def sublayer(x, gain, bias, wq, bq, wk, wv, bv, wo, bo, heads, kv=None, window=None):
        y = T.layer_norm(x, gain, bias)
        src = y if kv is None else kv
        attrs = {"heads": heads} if window is None else {"heads": heads, "window": window}
        a = T.apply("qkv_attention",
                    [T.linear(y, wq, bq), T.matmul(src, wk), T.linear(src, wv, bv)], attrs)
        return T.linear(a, wo, bo)
    return sublayer


def _one_record(x, gain, bias, wq, bq, wk, wv, bv, wo, bo, heads, kv=None, window=None):
    a = T.attention(x, gain, bias, wq, bq, wk, wv, bv, heads, kv=kv, window=window)
    return T.linear(a, wo, bo)


def _sublayer_run(sublayer, arrays, layers, heads, window=None):
    """Output bits and every leaf's gradient bits of `layers` attention
    sublayers, each a residual step x + sublayer(x), over float32 arrays:
    x (B, L, D), then the nine parameters of each layer (LayerNorm gain and
    bias, wq, bq, wk, wv, bv, wo, bo), the upstream gradient and, for
    cross-attention, kv (B, S, D), which every layer reads."""
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays[:1 + 9 * layers]]
    g = arrays[1 + 9 * layers]
    kv = T.Tensor(arrays[-1], requires_grad=True) if len(arrays) > 2 + 9 * layers else None
    with T.Tape():
        x = leaves[0]
        for i in range(layers):
            x = T.add(x, sublayer(x, *leaves[1 + 9 * i:10 + 9 * i], heads, kv=kv,
                                  window=window))
        loss = T.reduce_sum(T.mul(x, T.constant(g)))
    grads = T.backward(loss)
    every = leaves + ([] if kv is None else [kv])
    return [x.data.view(np.uint32)] + [grads[t.node_id].data.view(np.uint32) for t in every]


def _sublayer_arrays(B, L, D, layers=1, S=None):
    rng = _rng(B + L + D)

    def draw(*shape, scale=1.0, mean=0.0):
        return (mean + scale * rng.normal(size=shape)).astype(np.float32)

    arrays = [draw(B, L, D)]
    for _ in range(layers):
        arrays += [draw(D, scale=0.1, mean=1.0), draw(D, scale=0.1)]
        arrays += [draw(*shape, scale=0.2 if len(shape) == 2 else 0.1)
                   for shape in [(D, D), (D,), (D, D), (D, D), (D,), (D, D), (D,)]]
    arrays.append(draw(B, L, D))  # the upstream gradient
    return arrays + ([] if S is None else [draw(B, S, D)])


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        np.testing.assert_array_equal(a, b, err_msg=f"output or gradient {i}")


# the shapes the trainers run, 4 heads over width 64: the tokenizer's
# (32, 64, 64), the reranker image tower's (64, 64, 64), four blocks of
# scores, and its text tower's (64, 32, 64)
@pytest.mark.parametrize("B,L", [(32, 64), (64, 64), (64, 32)],
                         ids=["tokenizer", "reranker-image", "reranker-text"])
def test_attention_op_has_the_bits_of_the_six_records(six_records, B, L):
    arrays = _sublayer_arrays(B, L, 64)
    _assert_same_bits(_sublayer_run(_one_record, arrays, 1, 4),
                      _sublayer_run(six_records, arrays, 1, 4))


def test_windowed_attention_op_has_the_bits_of_the_six_records(six_records):
    cfg = seq2seq.DESK
    window = T.attention_window(seq2seq.conv_sparse_mask(cfg.grid_h, cfg.grid_w,
                                                         cfg.conv_kernel))
    arrays = _sublayer_arrays(16, cfg.image_len, cfg.d_model)
    _assert_same_bits(_sublayer_run(_one_record, arrays, 1, cfg.heads, window),
                      _sublayer_run(six_records, arrays, 1, cfg.heads, window))


def test_two_cross_attention_ops_sum_their_shared_source_in_the_six_records_order(
        six_records):
    # the desk decoder's cross-attention: two layers read one encoder output,
    # whose gradient is the sum, layer by layer, of the values' and keys' parts
    cfg = seq2seq.DESK
    arrays = _sublayer_arrays(16, cfg.image_len, cfg.d_model, layers=2, S=9)
    _assert_same_bits(_sublayer_run(_one_record, arrays, 2, cfg.heads),
                      _sublayer_run(six_records, arrays, 2, cfg.heads))


@pytest.mark.parametrize("images", [1, 3, 64])
def test_dense_score_blocks_change_no_bit(six_records, monkeypatch, images):
    # the reranker image tower's shape: one image scores 4 * 64 * 64 floats
    arrays = _sublayer_arrays(64, 64, 64)
    want = _sublayer_run(six_records, arrays, 1, 4)
    monkeypatch.setattr(T, "_SCORES_BLOCK", images * 4 * 64 * 64)
    _assert_same_bits(_sublayer_run(_one_record, arrays, 1, 4), want)


@pytest.mark.parametrize("mask", ["dense", "windowed"])
def test_attention_record_keeps_xhat_and_the_softmax_scratch_only(mask):
    # no LayerNorm output, q, k or v: backward rebuilds them
    window = T.attention_window(seq2seq.conv_sparse_mask(8, 8, 3)) if mask == "windowed" else None
    ins = [T.Tensor(a, np.float32, requires_grad=True)
           for a in _sublayer_inputs(_rng(2), 2, 64, 16)]
    with T.Tape() as tape:
        _sublayer(*ins, heads=4, window=window)
    (_, _, _, kept, attrs, _), = tape.records
    assert isinstance(kept[0], T._Spec) and all(k is x.data for k, x in zip(kept[1:], ins[1:]))
    scratch = {"_xhat": (2, 64, 16), "_inv": (2, 64, 1)}
    if window is None:
        scratch.update(_max=(2, 4, 1, 64), _sum=(2, 4, 1, 64))
    else:
        scratch["_probs"] = (len(window.offsets), 2, 64, 4)
    assert {key: a.shape for key, a in attrs.items() if key.startswith("_")} == scratch


# ---------------------------------------------------------------- tape

def test_backward_accumulates_over_reuse():
    x = T.Tensor(np.array([2.0, 3.0], np.float32), requires_grad=True)
    with T.Tape():
        y = T.reduce_sum(T.add(T.mul(x, x), x))  # d/dx = 2x + 1
    g = T.backward(y)[x.node_id].data
    np.testing.assert_allclose(g, [5.0, 7.0], atol=1e-6)


def test_constant_leaves_get_no_gradient():
    c = T.constant(np.ones(3, np.float32))
    x = T.Tensor(np.ones(3, np.float32), requires_grad=True)
    with T.Tape():
        y = T.reduce_sum(T.mul(x, c))
    grads = T.backward(y)
    assert x.node_id in grads
    assert c.node_id not in grads


def test_ops_outside_tape_do_not_record():
    x = T.Tensor(np.ones(3, np.float32), requires_grad=True)
    y = T.reduce_sum(x)  # no tape active
    assert y.node_id is None or not hasattr(y, "_parents") or True
    with T.Tape():
        z = T.reduce_sum(x)
    assert T.backward(z)[x.node_id].data.shape == (3,)


def _square_sum(x):
    return T.reduce_sum(T.mul(T.add(x, x), x))  # d/dx = 4x


def test_replacing_tape_drops_old_records_as_it_records_and_keeps_gradients():
    x = T.Tensor(np.array([1.0, 2.0], np.float32), requires_grad=True)
    with T.Tape() as first:
        y1 = _square_sum(x)
    g1 = T.backward(y1)[x.node_id].data
    assert len(first.records) == 3
    with T.Tape(replaces=first) as second:
        a = T.add(x, x)
        # the new tape's op 0 took the place of the old tape's record 0
        assert first.records[0] is None and first.records[1] is not None
        y2 = T.reduce_sum(T.mul(a, x))
    assert first.records == [] and len(second.records) == 3
    np.testing.assert_array_equal(T.backward(y2)[x.node_id].data, g1)
    np.testing.assert_allclose(g1, [4.0, 8.0], atol=1e-6)


def test_backward_on_a_released_tape_raises_a_typed_error():
    x = T.Tensor(np.array([1.0, 2.0], np.float32), requires_grad=True)
    with T.Tape() as first:
        y1 = _square_sum(x)
    with T.Tape(replaces=first):
        y2 = _square_sum(x)
    with pytest.raises(TapeReleasedError, match="tape was released"):
        T.backward(y1)
    y2._tape.release()
    assert y2._tape.records == []
    with pytest.raises(TapeReleasedError, match="tape was released"):
        T.backward(y2)
    # the error is raised before any record is read, also mid-replacement
    with T.Tape() as third:
        y3 = _square_sum(x)
    with T.Tape(replaces=third):
        T.add(x, x)
        with pytest.raises(TapeReleasedError):
            T.backward(y3)


def _keeps_inputs(record):
    return (record[0] in {"l2_normalize", "cross_entropy_with_logits"}
            or (record[0] == "linear" and record[4].get("pre") == "gelu"))


def _every_reads_kind(x, w, v):
    """A scalar loss over ops of every reads kind, the three that keep their
    inputs among them, and over each linear pre-step."""
    h = T.matmul(x, w)                                     # (2, 3, 4)
    a = T.attention(h, v, v, w, v, w, w, v, heads=2)
    z = T.gelu_linear(T.norm_linear(a, v, v, w, v), w, v)
    z = T.layer_norm(T.linear(z, w, v), v, v)
    e = T.l2_normalize(T.reduce_mean(z, axis=1))           # (2, 4)
    logits = T.matmul(e, T.transpose(e, (1, 0)))
    return T.reduce_mean(T.cross_entropy_with_logits(logits, [0, 1]))


def _every_reads_kind_inputs():
    rng = _rng(3)
    return (T.Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32)),
            T.Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True),
            T.Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True))


def test_backward_releases_exactly_the_records_that_keep_their_inputs():
    ins = _every_reads_kind_inputs()
    with T.Tape() as first:
        loss = _every_reads_kind(*ins)
    before = list(first.records)
    assert {T._reads(T._CATALOG[r[0]], r[4]) for r in before} == set(T._READS)
    assert sum(map(_keeps_inputs, before)) == 3
    T.backward(loss)
    for old, now in zip(before, first.records, strict=True):
        if _keeps_inputs(old):
            assert now is None, old[0]
        else:
            assert now is old, old[0]
    # the rest stay until the next step's forward replaces them
    with T.Tape(replaces=first) as second:
        loss = _every_reads_kind(*ins)
    assert first.records == [] and len(second.records) == len(before)


def test_released_arrays_are_free_before_the_next_rule_runs(monkeypatch):
    ins = _every_reads_kind_inputs()
    with T.Tape() as tape:
        loss = _every_reads_kind(*ins)
    i = next(i for i, r in enumerate(tape.records) if r[0] == "linear" and _keeps_inputs(r))
    rec = tape.records[i]
    # the GELU pre-step linear's kept input that is no parameter and its
    # attrs scratch, the GELU's CDF
    kept = [weakref.ref(a) for a in (rec[3][0], rec[4]["_cdf"])]
    del rec
    seen = []
    op = T._CATALOG["linear"]

    def watching(g, d, attrs, needs):
        seen.append([ref() is None for ref in kept])
        return op.backward(g, d, attrs, needs)

    # record i - 1, the LayerNorm pre-step linear, is the rule backward
    # runs after record i
    assert tape.records[i - 1][0] == "linear"
    monkeypatch.setitem(T._CATALOG, "linear", op._replace(backward=watching))
    T.backward(loss)
    assert seen[-1] == [True] * len(kept), seen


def test_a_second_backward_on_the_same_tape_raises_a_typed_error():
    ins = _every_reads_kind_inputs()
    with T.Tape():
        loss = _every_reads_kind(*ins)
    T.backward(loss)
    with pytest.raises(TapeReleasedError, match="backward already ran"):
        T.backward(loss)


def test_float32_results_from_float32_inputs():
    x = T.constant(np.ones((2, 2), np.float32))
    v = T.constant(np.ones(2, np.float32))
    assert T.matmul(x, x).data.dtype == np.float32
    assert T.layer_norm(x, v, v).data.dtype == np.float32
    assert T.norm_linear(x, v, v, x, v).data.dtype == np.float32
    assert T.gelu_linear(x, x, v).data.dtype == np.float32


# one application per op kind, and per linear pre-step: the kind, input
# shapes and attrs
_KIND_CASES = {
    "add": ("add", [(3, 4), (4,)], {}),
    "mul": ("mul", [(3, 4), (3, 4)], {}),
    "matmul": ("matmul", [(2, 3, 4), (4, 5)], {}),
    "linear": ("linear", [(2, 3, 4), (4, 5), (5,)], {}),
    "linear-layer_norm": ("linear", [(2, 3, 4), (4,), (4,), (4, 5), (5,)],
                          {"pre": "layer_norm"}),
    "linear-gelu": ("linear", [(2, 3, 4), (4, 5), (5,)], {"pre": "gelu"}),
    "reshape": ("reshape", [(3, 4)], {"shape": (4, 3)}),
    "transpose": ("transpose", [(3, 4)], {"axes": (1, 0)}),
    "concat": ("concat", [(3, 4), (3, 2)], {"axis": 1}),
    "embedding_gather": ("embedding_gather", [(5, 3)], {"ids": np.array([0, 4, 4])}),
    "attention": ("attention", [(2, 5, 8), (8,), (8,), (8, 8), (8,), (8, 8), (8, 8), (8,)],
                  {"heads": 2}),
    "layer_norm": ("layer_norm", [(3, 4), (4,), (4,)], {}),
    "reduce_sum": ("reduce_sum", [(3, 4)], {"axis": 1}),
    "reduce_mean": ("reduce_mean", [(3, 4)], {"axis": None}),
    "l2_normalize": ("l2_normalize", [(3, 4)], {}),
    "cross_entropy_with_logits": ("cross_entropy_with_logits", [(3, 4)],
                                  {"targets": np.array([0, 3, 1])}),
}


def test_every_catalog_op_is_recorded_by_a_trainer(monkeypatch):
    # each kind, and each linear pre-step
    recorded = set()
    grads_of = nn.grads_of

    def spy(loss, params):
        recorded.update((r[0], r[4].get("pre")) for r in loss._tape.records)
        return grads_of(loss, params)

    monkeypatch.setattr(nn, "grads_of", spy)
    rng = _rng(5)
    vq.train_tokenizer(scenes.gen_dataset(2, 0, size=8).images,
                       vq.TokenizerConfig(image_size=8, d_model=8, n_blocks=1, heads=2,
                                          d_mlp=16, codebook_size=4),
                       vq.TokTrainConfig(steps=1, batch=2))
    model = seq2seq.ModelConfig(enc_layers=1, dec_layers=1, d_model=16, d_mlp=32, heads=2,
                                text_vocab=64, image_vocab=8, text_len=8, grid_h=2, grid_w=2)
    text = np.full((2, 8), textproc.PAD_ID, np.int64)
    text[:, :3] = rng.integers(4, 64, (2, 3))  # train_model trims the PAD tail
    seq2seq.train_model(seq2seq.build_model(model, 0), text, rng.integers(0, 8, (2, 4)),
                        seq2seq.TrainConfig(steps=1, batch=2))
    contrastive.train_contrastive(
        scenes.gen_dataset(2, 0).images, rng.integers(4, 64, (2, 8)),
        contrastive.CLTrainConfig(steps=1, batch=2),
        contrastive.EncoderConfig(d_model=8, n_blocks=1, heads=2, d_mlp=16, d_e=4,
                                  text_vocab=64, text_len=8))
    assert recorded == ({(kind, None) for kind in T.OP_KINDS}
                        | {("linear", pre) for pre in T._PRE_READS})


def test_every_op_kind_declares_its_reads():
    assert {kind for kind, _, _ in _KIND_CASES.values()} == set(T.OP_KINDS)
    for kind in T.OP_KINDS:
        reads = T._CATALOG[kind].reads
        assert reads in T._READS or set(reads.values()) <= set(T._READS), kind
    # a LayerNorm pre-step keeps its parameters and, in attrs, xhat, not x
    assert T._CATALOG["linear"].reads == {None: "cross", "layer_norm": "params",
                                          "gelu": "inputs"}


def _pre_step_outputs(kind, attrs, datas):
    """The arrays a linear's pre-step or an attention sublayer makes on the
    way, written out as the separate ops made them: the LayerNorm's
    gain-and-bias output, the GELU output, or attention's q, k and v."""
    pre = "layer_norm" if kind == "attention" else attrs.get("pre")
    made = []
    if pre == "layer_norm":
        made.append(T._layer_norm(datas[0])[0] * datas[1] + datas[2])
    if kind == "attention":
        y = made[0]
        made += [y @ datas[3] + datas[4], y @ datas[5], y @ datas[6] + datas[7]]
    return [T._gelu(datas[0])[0]] if pre == "gelu" else made


@pytest.mark.parametrize("case", sorted(_KIND_CASES))
def test_record_keeps_only_declared_reads_and_gradients_are_unchanged(case):
    kind, shapes, attrs = _KIND_CASES[case]
    reads = T._reads(T._CATALOG[kind], attrs)
    rng = _rng(7)
    datas = [rng.normal(size=s).astype(np.float32) for s in shapes]
    n = len(datas)
    for needs in {(True,) * n, (True,) + (False,) * (n - 1), (False,) * (n - 1) + (True,)}:
        ins = [T.Tensor(d, requires_grad=n) for d, n in zip(datas, needs)]
        with T.Tape() as tape:
            out = T.apply(kind, ins, dict(attrs))
            _, _, _, kept_in, rec_attrs, rec_needs = tape.records[-1]
            w = rng.normal(size=out.shape).astype(np.float32)
            loss = T.reduce_sum(T.mul(out, T.constant(w)))
        assert rec_needs == needs
        for i, (d, k) in enumerate(zip(datas, kept_in)):
            keep = (reads == "inputs" or (reads == "params" and i > 0)
                    or (reads == "cross" and i < 2 and needs[1 - i]))
            assert (k is d) if keep else isinstance(k, T._Spec), (i, needs)
            assert (k.shape, k.dtype) == (d.shape, d.dtype)
        # no record holds its output or a pre-step's output, nor an input it
        # declares unread (a LayerNorm pre-step's x, attention's x)
        held = [a for a in (*kept_in, *rec_attrs.values()) if isinstance(a, np.ndarray)]
        for made in [out.data, *_pre_step_outputs(kind, attrs, datas)]:
            assert not any(a.shape == made.shape and np.array_equal(a, made) for a in held)
        for d, k in zip(datas, kept_in):
            if isinstance(k, T._Spec):
                assert not any(np.shares_memory(a, d) for a in held)
        got = T.backward(loss)
        # the rule on full arrays, asked for every input's gradient
        want = T._CATALOG[kind].backward(w, datas, rec_attrs, (True,) * len(datas))
        for x, n, wg in zip(ins, needs, want):
            if n:
                np.testing.assert_array_equal(got[x.node_id].data, wg)
            else:
                assert x.node_id not in got


def _pinned_mib(tape):
    """Bytes the records and their attrs hold, each owning array once."""
    owners = {}
    for _, _, _, kept_in, attrs, _ in tape.records:
        for a in (*kept_in, *attrs.values()):
            if isinstance(a, np.ndarray):
                while a.base is not None:
                    a = a.base
                owners[id(a)] = a.nbytes
    return sum(owners.values()) / 2**20


def _one_step_pinned_mib(monkeypatch, train):
    """What the tape of train()'s one step pins when its backward starts."""
    pinned = []
    grads_of = nn.grads_of

    def measuring_grads_of(loss, params):
        pinned.append(_pinned_mib(loss._tape))
        return grads_of(loss, params)

    monkeypatch.setattr(nn, "grads_of", measuring_grads_of)
    train()
    assert len(pinned) == 1
    return pinned[0]


# The limits below sit just above what one step pins with an attention
# sublayer's LayerNorm output, q, k and v, and the MLP's LayerNorm and GELU
# outputs, recomputed in backward, and dense attention keeping its
# softmax's row max and sum instead of its probabilities: 26.1 (tokenizer),
# 24.4 (reranker) and 19.8 MiB (desk seq2seq). Keeping the sublayer's
# LayerNorm output, q, k and v, as separate layer_norm, linear, matmul and
# attention records did, pins 34.1, 36.4 and 26.3 MiB; keeping besides them
# the dense probabilities pins 41.9, 46.0 and 26.7 MiB, and besides those
# the ln2 and GELU outputs, and the LayerNorm's own output besides its
# gain-and-bias one, 51.9, 55.0 and 32.0 MiB.

def test_tokenizer_train_step_tape_pins_at_most_27_mib(monkeypatch):
    images = scenes.gen_dataset(32, 1).images
    pinned = _one_step_pinned_mib(monkeypatch, lambda: vq.train_tokenizer(
        images, vq.TokenizerConfig(), vq.TokTrainConfig(steps=1, batch=32)))
    assert pinned <= 27.0, pinned


def test_reranker_train_step_tape_pins_at_most_25_5_mib(monkeypatch):
    images = scenes.gen_dataset(64, 1).images
    ids = [list(r) for r in _rng(0).integers(4, 512, (64, 12))]  # padded to text_len
    pinned = _one_step_pinned_mib(monkeypatch, lambda: contrastive.train_contrastive(
        images, ids, contrastive.CLTrainConfig(steps=1, batch=64), contrastive.EncoderConfig()))
    assert pinned <= 25.5, pinned


def test_desk_train_step_tape_pins_at_most_21_mib(monkeypatch):
    cfg = seq2seq.DESK
    rng = _rng(11)
    # scene captions encode to about 7 tokens; trim_pad drops the PAD tail
    text = np.zeros((64, cfg.text_len), np.int64)
    text[:, :8] = rng.integers(4, cfg.text_vocab, (64, 8))
    image = rng.integers(0, cfg.image_vocab, (64, cfg.image_len))
    pinned = _one_step_pinned_mib(monkeypatch, lambda: seq2seq.train_model(
        seq2seq.build_model(cfg, 0), text, image, seq2seq.TrainConfig(steps=1, batch=16, seed=0)))
    # a tape that keeps every input and output of every op, with the score
    # chain unfused (scale, fill, softmax), pins about 77 MiB here
    assert pinned <= 21.0, pinned
