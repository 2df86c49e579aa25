"""Op catalog: forward oracles, gradient checks, shape rules, tape mechanics."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erf

from ttig import nn, seq2seq
from ttig import tensor as T
from ttig.tensor import CatalogError, ShapeError

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
    np.testing.assert_allclose(T.sub(T.constant(a), T.constant(b)).data, a - b, rtol=1e-6)
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
    for op in (T.add, T.sub, T.mul, T.matmul):
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


def test_softmax_rows_sum_to_one():
    x = _rng().normal(size=(4, 9)).astype(np.float32)
    s = T.softmax(T.constant(x)).data
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)
    assert (s > 0).all()


def test_log_softmax_matches_log_of_softmax():
    x = _rng().normal(size=(3, 6)).astype(np.float32)
    ls = T.log_softmax(T.constant(x)).data
    s = T.softmax(T.constant(x)).data
    np.testing.assert_allclose(ls, np.log(s), atol=1e-6)


def test_softmax_shift_invariance():
    x = _rng().normal(size=(2, 5)).astype(np.float32)
    a = T.softmax(T.constant(x)).data
    b = T.softmax(T.constant(x + 100.0)).data
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_layer_norm_zero_mean_unit_var():
    x = _rng().normal(size=(6, 32)).astype(np.float32)
    y = T.layer_norm(T.constant(x)).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)
    # biased variance normalization, eps inside the sqrt
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)


def test_gelu_against_erf_form():
    x = np.linspace(-4, 4, 33, dtype=np.float32)
    want = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    np.testing.assert_allclose(T.gelu(T.constant(x)).data, want, atol=1e-6)


def _erf_cdf(x):
    # the float64 reference, and the float32 kernel the table replaced
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
    attrs = {}
    got = T._fwd_gelu([x], attrs)
    assert got.dtype == np.float32 and attrs["_cdf"].dtype == np.float32
    assert np.abs(attrs["_cdf"] - want_cdf).max() <= 2e-7
    assert np.abs(got - x64 * want_cdf).max() <= 1e-6
    # exactly 0 and 1 outside the table's range
    far = np.array([-7.0, -6.5, 6.5, 7.0], np.float32)
    np.testing.assert_array_equal(T._normal_cdf(far), [0.0, 0.0, 1.0, 1.0])


def test_float64_gelu_is_the_erf_form():
    x = np.linspace(-8.0, 8.0, 1001)
    np.testing.assert_array_equal(T._fwd_gelu([x], {}), x * _erf_cdf(x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_nonfinite_inputs_propagate_without_warning(dtype):
    x = np.array([np.nan, np.inf, -np.inf, 1.0], dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = T._fwd_gelu([x], {})
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
    new = peak(lambda x: (T._fwd_gelu([x], {}),))
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
        attrs = {"axis": -1}
        out = T._fwd_layer_norm([x], attrs)
        np.testing.assert_array_equal(out, _mean_ln_fwd(x))
        want = _mean_ln_bwd(g, x, out)
        np.testing.assert_array_equal(T._bwd_layer_norm(g, [x], out, attrs, (True,))[0], want)
        np.testing.assert_array_equal(
            T._bwd_layer_norm(g, [x], out, {"axis": -1}, (True,))[0], want)
        for axis in (0, -1):
            sm = T._fwd_softmax([x], {"axis": axis})
            np.testing.assert_array_equal(sm, _sum_softmax_fwd(x, axis))
            r = g - (g * sm).sum(axis=axis, keepdims=True)
            r *= sm
            np.testing.assert_array_equal(
                T._bwd_softmax(g, [x], sm, {"axis": axis}, (True,))[0], r)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [True, False], ids=["conv_mask", "no_mask"])
def test_fused_softmax_bit_identical_to_scale_fill_softmax_chain(dtype, masked):
    # desk decoder self-attention scores: (batch, heads, image_len, image_len)
    cfg = seq2seq.DESK
    n = cfg.image_len
    rng = _rng(5)
    x = (rng.normal(size=(16, cfg.heads, n, n)) * 4.0).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    factor = 1.0 / np.sqrt(cfg.d_model // cfg.heads)
    allowed = seq2seq.conv_sparse_mask(cfg.grid_h, cfg.grid_w, cfg.conv_kernel) if masked else None

    # the unfused chain: scale, fill the disallowed slots, softmax
    scaled = T._fwd_scale([x], {"factor": factor})
    filled = scaled if allowed is None else \
        np.where(~allowed, np.asarray(T.NEG_FILL, dtype=dtype), scaled)
    want = T._fwd_softmax([filled], {"axis": -1})
    gw = T._bwd_softmax(g, [filled], want, {"axis": -1}, (True,))[0]
    if allowed is not None:
        gw = np.where(~allowed, np.zeros((), dtype=dtype), gw)
    gw = T._bwd_scale(gw, [scaled], None, {"factor": factor}, (True,))[0]

    leaf = T.Tensor(x, requires_grad=True)
    with T.Tape():
        out = T.softmax(leaf, axis=-1, scale=factor, allowed=allowed)
        loss = T.reduce_sum(T.mul(out, T.constant(g)))  # upstream gradient is g
    got = T.backward(loss)[leaf.node_id].data
    assert out.data.dtype == got.dtype == dtype
    np.testing.assert_array_equal(out.data, want)
    np.testing.assert_array_equal(got, gw)


def test_relu_clamps_negatives():
    x = np.array([-2.0, -0.0, 0.5], np.float32)
    np.testing.assert_allclose(T.relu(T.constant(x)).data, [0.0, 0.0, 0.5])


def test_softmax_allowed_gives_masked_slots_zero_probability():
    x = _rng().normal(size=(2, 3)).astype(np.float32)
    allowed = np.array([[False, True, True], [True, True, False]])
    y = T.softmax(T.constant(x), allowed=allowed).data
    assert y[0, 0] == 0.0 and y[1, 2] == 0.0
    for row, keep in enumerate(allowed):
        e = np.exp(x[row, keep] - x[row, keep].max())
        np.testing.assert_allclose(y[row, keep], e / e.sum(), rtol=1e-6)
    with pytest.raises(ShapeError, match="boolean"):
        T.softmax(T.constant(x), allowed=allowed.astype(np.float32))
    with pytest.raises(ShapeError, match="trailing-aligned"):
        T.softmax(T.constant(x), allowed=np.ones((3, 2), bool))


def test_slice_matches_numpy_basic_indexing():
    x = _rng().normal(size=(4, 5, 6)).astype(np.float32)
    y = T.slice_(T.constant(x), ((1, 3), (0, 5), (2, 6))).data
    np.testing.assert_array_equal(y, x[1:3, :, 2:6])


def test_concat_roundtrips_slice():
    x = _rng().normal(size=(4, 6)).astype(np.float32)
    a = T.slice_(T.constant(x), ((0, 2), (0, 6)))
    b = T.slice_(T.constant(x), ((2, 4), (0, 6)))
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
    ls = T.log_softmax(T.constant(logits)).data
    want = -ls[np.arange(4), targets]
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_conv2d_matches_direct_correlation():
    x = _rng().normal(size=(2, 5, 5, 3)).astype(np.float32)
    w = _rng(1).normal(size=(3, 3, 3, 4)).astype(np.float32)
    out = T.conv2d(T.constant(x), T.constant(w), stride=1, pad=1).data
    assert out.shape == (2, 5, 5, 4)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    want = np.zeros_like(out)
    for i in range(5):
        for j in range(5):
            patch = xp[:, i:i + 3, j:j + 3, :]
            want[:, i, j, :] = np.einsum("bhwc,hwco->bo", patch, w)
    np.testing.assert_allclose(out, want, atol=1e-4)


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
    _check(lambda t: T.reduce_sum(T.sub(T.constant(c, np.float64), t)), x)


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


def test_grad_softmax_family():
    x = _rng().normal(size=(3, 5))
    w = _rng(1).normal(size=(3, 5))
    _check(lambda t: T.reduce_sum(T.mul(T.softmax(t), T.constant(w, np.float64))), x)
    _check(lambda t: T.reduce_sum(T.mul(T.log_softmax(t), T.constant(w, np.float64))), x)


def test_grad_layer_norm():
    x = _rng().normal(size=(4, 8))
    w = _rng(1).normal(size=(4, 8))
    _check(lambda t: T.reduce_sum(T.mul(T.layer_norm(t), T.constant(w, np.float64))), x)


def test_grad_gelu_relu():
    # well conditioned grid; far tails make the finite-difference quotient noisy
    x = np.linspace(-3.0, 3.0, 17) + 0.01
    _check(lambda t: T.reduce_sum(T.mul(T.gelu(t), t)), x)
    xr = np.abs(_rng().normal(size=(9,))) + 0.1
    _check(lambda t: T.reduce_sum(T.mul(T.relu(t), t)), xr)


def test_grad_structural_ops():
    x = _rng().normal(size=(4, 6))
    _check(lambda t: T.reduce_sum(T.mul(T.transpose(t, (1, 0)), T.transpose(t, (1, 0)))), x)
    _check(lambda t: T.reduce_sum(T.mul(T.reshape(t, (2, 12)), T.reshape(t, (2, 12)))), x)
    _check(lambda t: T.reduce_sum(T.mul(T.slice_(t, ((1, 3), (2, 5))),
                                        T.slice_(t, ((1, 3), (2, 5))))), x)
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


def test_grad_conv2d():
    x = _rng().normal(size=(2, 4, 4, 2))
    w = _rng(1).normal(size=(3, 3, 2, 3))
    _check(lambda t: T.reduce_sum(T.mul(T.conv2d(t, T.constant(w, np.float64), pad=1),
                                        T.conv2d(t, T.constant(w, np.float64), pad=1))), x, tol=1e-4)
    _check(lambda t: T.reduce_sum(T.mul(T.conv2d(T.constant(x, np.float64), t, pad=1),
                                        T.conv2d(T.constant(x, np.float64), t, pad=1))), w, tol=1e-4)


def test_grad_softmax_allowed_blocks_masked_positions():
    x = _rng().normal(size=(3, 4))
    w = _rng(1).normal(size=(3, 4))
    allowed = np.ones((3, 4), bool)
    allowed[0, 1] = allowed[2, 3] = False
    _check(lambda t: T.reduce_sum(T.mul(T.softmax(t, scale=0.7, allowed=allowed),
                                        T.constant(w, np.float64))), x)
    leaf = T.Tensor(x.astype(np.float32), requires_grad=True)
    with T.Tape():
        out = T.reduce_sum(T.mul(T.softmax(leaf, allowed=allowed), T.constant(w, np.float32)))
    g = T.backward(out)[leaf.node_id].data
    assert g[0, 1] == 0.0 and g[2, 3] == 0.0 and g[0, 0] != 0.0


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


def test_grad_helper_returns_leaf_gradient():
    x = T.Tensor(np.array([1.0, 2.0], np.float32), requires_grad=True)
    with T.Tape():
        y = T.reduce_sum(T.mul(x, x))
    np.testing.assert_allclose(T.grad(y, x), [2.0, 4.0], atol=1e-6)


def test_float32_results_from_float32_inputs():
    x = T.constant(np.ones((2, 2), np.float32))
    assert T.matmul(x, x).data.dtype == np.float32
    assert T.layer_norm(x).data.dtype == np.float32


# one application per op kind: input shapes and attrs
_KIND_CASES = {
    "add": ([(3, 4), (4,)], {}),
    "sub": ([(3, 4), (4,)], {}),
    "mul": ([(3, 4), (3, 4)], {}),
    "matmul": ([(2, 3, 4), (4, 5)], {}),
    "reshape": ([(3, 4)], {"shape": (4, 3)}),
    "transpose": ([(3, 4)], {"axes": (1, 0)}),
    "slice": ([(3, 4)], {"bounds": ((0, 2), (1, 3))}),
    "concat": ([(3, 4), (3, 2)], {"axis": 1}),
    "embedding_gather": ([(5, 3)], {"ids": np.array([0, 4, 4])}),
    "softmax": ([(3, 4)], {"axis": -1, "scale": 0.5,
                           "allowed": np.array([True, False, True, True])}),
    "log_softmax": ([(3, 4)], {"axis": -1}),
    "layer_norm": ([(3, 4)], {"axis": -1}),
    "gelu": ([(3, 4)], {}),
    "relu": ([(3, 4)], {}),
    "conv2d": ([(2, 4, 4, 2), (3, 3, 2, 3)], {"pad": 1}),
    "reduce_sum": ([(3, 4)], {"axis": 1}),
    "reduce_mean": ([(3, 4)], {"axis": None}),
    "scale": ([(3, 4)], {"factor": -1.5}),
    "l2_normalize": ([(3, 4)], {"axis": -1}),
    "cross_entropy_with_logits": ([(3, 4)], {"targets": np.array([0, 3, 1])}),
}


def test_every_op_kind_declares_its_reads():
    assert set(_KIND_CASES) == set(T.OP_KINDS)
    for kind in T.OP_KINDS:
        assert T._CATALOG[kind].reads in T._READS, kind
        assert T._CATALOG[kind].reads != "cross" or T._CATALOG[kind].arity == 2, kind


@pytest.mark.parametrize("kind", sorted(_KIND_CASES))
def test_record_keeps_only_declared_reads_and_gradients_are_unchanged(kind):
    shapes, attrs = _KIND_CASES[kind]
    reads = T._CATALOG[kind].reads
    rng = _rng(7)
    datas = [rng.normal(size=s).astype(np.float32) for s in shapes]
    for needs in {(True,) * len(datas), (True, False)[:len(datas)], (False, True)[-len(datas):]}:
        ins = [T.Tensor(d, requires_grad=n) for d, n in zip(datas, needs)]
        with T.Tape() as tape:
            out = T.apply(kind, ins, dict(attrs))
            _, _, _, kept_in, kept_out, rec_attrs, rec_needs = tape.records[-1]
            w = rng.normal(size=out.shape).astype(np.float32)
            loss = T.reduce_sum(T.mul(out, T.constant(w)))
        assert rec_needs == needs
        for i, (d, k) in enumerate(zip(datas, kept_in)):
            keep = reads == "inputs" or (reads == "cross" and needs[1 - i])
            assert (k is d) if keep else isinstance(k, T._Spec), (i, needs)
            assert (k.shape, k.dtype) == (d.shape, d.dtype)
        assert (kept_out is out.data) if reads == "output" else isinstance(kept_out, T._Spec)
        got = T.backward(loss)
        # the rule on full arrays, asked for every input's gradient
        want = T._CATALOG[kind].backward(w, datas, out.data, rec_attrs, (True,) * len(datas))
        for x, n, wg in zip(ins, needs, want):
            if n:
                np.testing.assert_array_equal(got[x.node_id].data, wg)
            else:
                assert x.node_id not in got


def _pinned_mib(tape):
    """Bytes the records and their attrs hold, each owning array once."""
    owners = {}
    for _, _, _, kept_in, kept_out, attrs, _ in tape.records:
        for a in (*kept_in, kept_out, *attrs.values()):
            if isinstance(a, np.ndarray):
                while a.base is not None:
                    a = a.base
                owners[id(a)] = a.nbytes
    return sum(owners.values()) / 2**20


def test_desk_train_step_tape_pins_at_most_45_mib(monkeypatch):
    cfg = seq2seq.DESK
    rng = _rng(11)
    # scene captions encode to about 7 tokens; trim_pad drops the PAD tail
    text = np.zeros((64, cfg.text_len), np.int64)
    text[:, :8] = rng.integers(4, cfg.text_vocab, (64, 8))
    image = rng.integers(0, cfg.image_vocab, (64, cfg.image_len))
    pinned = []

    def measuring_grads_of(loss, params):
        pinned.append(_pinned_mib(loss._tape))
        return grads_of(loss, params)

    grads_of = nn.grads_of
    monkeypatch.setattr(nn, "grads_of", measuring_grads_of)
    seq2seq.train_model(seq2seq.build_model(cfg, 0), text, image,
                        seq2seq.TrainConfig(steps=1, batch=16, seed=0))
    # a tape that keeps every input and output of every op, with the score
    # chain unfused (scale, fill, softmax), pins about 77 MiB here
    assert len(pinned) == 1 and pinned[0] <= 45.0, pinned
