"""Schedule shape, factored second moment, clipping, failure modes."""

import numpy as np
import pytest

from ttig import nn, optim
from ttig import tensor as T
from ttig.errors import NumericError


def _one_param(shape, seed=0, name="p"):
    ps = nn.ParamSet()
    ps.add(name, np.random.default_rng(seed).normal(size=shape).astype(np.float32))
    return ps


def test_lr_schedule_phases():
    cfg = optim.OptimizerConfig(base_lr=1.0, warmup=10, decay_start=20,
                                total_steps=40, final_ratio=0.1)
    assert optim.lr_at(0, cfg) == 0.0
    assert abs(optim.lr_at(5, cfg) - 0.5) < 1e-12
    assert optim.lr_at(10, cfg) == 1.0
    assert optim.lr_at(20, cfg) == 1.0
    assert 0.1 < optim.lr_at(30, cfg) < 1.0
    assert abs(optim.lr_at(40, cfg) - 0.1) < 1e-9
    assert abs(optim.lr_at(400, cfg) - 0.1) < 1e-9  # held after total_steps


def test_lr_decay_is_exponential_in_steps():
    cfg = optim.OptimizerConfig(base_lr=1.0, warmup=0, decay_start=0,
                                total_steps=100, final_ratio=0.01)
    mid = optim.lr_at(50, cfg)
    assert abs(mid - np.sqrt(0.01)) < 1e-9


def test_step_moves_params_and_advances_state():
    ps = _one_param((4, 3))
    before = ps["p"].data.copy()
    state = optim.OptimizerState()
    g = {"p": np.ones((4, 3), np.float32)}
    cfg = optim.OptimizerConfig(base_lr=1e-2, warmup=1)
    optim.adafactor_step(ps, g, state, cfg)
    assert state.step == 1
    assert not np.array_equal(ps["p"].data, before) or optim.lr_at(0, cfg) == 0.0
    optim.adafactor_step(ps, g, state, cfg)
    assert state.step == 2
    assert not np.array_equal(ps["p"].data, before)


def test_matrix_params_use_factored_second_moment():
    ps = _one_param((6, 5))
    state = optim.OptimizerState()
    g = {"p": np.random.default_rng(1).normal(size=(6, 5)).astype(np.float32)}
    optim.adafactor_step(ps, g, state, optim.OptimizerConfig(warmup=1))
    r, c = state.second["p"]
    assert r.shape == (6,) and c.shape == (5,)
    assert state.first_q["p"].dtype == np.int8


def test_vector_params_use_full_second_moment():
    ps = _one_param((7,))
    state = optim.OptimizerState()
    g = {"p": np.ones(7, np.float32)}
    optim.adafactor_step(ps, g, state, optim.OptimizerConfig(warmup=1))
    assert state.second["p"].shape == (7,)


def test_absent_grad_names_leave_params_untouched():
    ps = nn.ParamSet()
    ps.add("a", np.ones((2, 2), np.float32))
    ps.add("b", np.ones((2, 2), np.float32))
    before_b = ps["b"].data.copy()
    state = optim.OptimizerState()
    optim.adafactor_step(ps, {"a": np.ones((2, 2), np.float32)}, state,
                         optim.OptimizerConfig(warmup=1))
    np.testing.assert_array_equal(ps["b"].data, before_b)


def test_clip_rescales_large_gradients_like_scaled_ones():
    # clipping g to norm c must behave exactly like feeding g*c/|g|:
    # both the applied update and the stored accumulators must agree
    cfg = optim.OptimizerConfig(base_lr=1e-2, warmup=1, clip_norm=1.0)
    g = np.random.default_rng(2).normal(size=(4, 4)).astype(np.float32)
    g_big = g * np.float32(100.0)
    gnorm = float(np.linalg.norm(g_big))
    g_ref = g_big * np.float32(1.0 / gnorm)

    ps1 = _one_param((4, 4), seed=5)
    st1 = optim.OptimizerState()
    optim.adafactor_step(ps1, {"p": g_big}, st1, cfg)

    ps2 = _one_param((4, 4), seed=5)
    st2 = optim.OptimizerState()
    optim.adafactor_step(ps2, {"p": g_ref}, st2, cfg)

    np.testing.assert_allclose(ps1["p"].data, ps2["p"].data, atol=1e-6)
    np.testing.assert_allclose(st1.second["p"][0], st2.second["p"][0], rtol=1e-5)
    np.testing.assert_allclose(st1.second["p"][1], st2.second["p"][1], rtol=1e-5)


def test_small_gradients_are_not_clipped():
    cfg = optim.OptimizerConfig(base_lr=1e-2, warmup=1, clip_norm=4.0)
    g = np.full((3, 3), 0.01, np.float32)
    ps1 = _one_param((3, 3), seed=8)
    ps2 = _one_param((3, 3), seed=8)
    st = optim.OptimizerState()
    optim.adafactor_step(ps1, {"p": g}, st, cfg)
    # same step by hand with no clip applied
    st2 = optim.OptimizerState()
    optim.adafactor_step(ps2, {"p": g.copy()}, st2, cfg)
    np.testing.assert_array_equal(ps1["p"].data, ps2["p"].data)


def test_adafactor_fits_a_linear_regression():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, 8)).astype(np.float32)
    y = x @ rng.standard_normal((8, 3)).astype(np.float32)
    ps = nn.ParamSet()
    nn.add_linear(ps, "lin", 8, 3, rng)
    state = optim.OptimizerState()
    cfg = optim.OptimizerConfig(base_lr=0.05, warmup=10, decay_start=150, total_steps=200)
    losses = []
    for _ in range(200):
        with T.Tape():
            loss = nn.mse(nn.linear(ps, "lin", T.constant(x)), T.constant(y))
        gm = T.backward(loss)
        optim.adafactor_step(ps, {n: gm[t.node_id].data for n, t in ps.items()}, state, cfg)
        losses.append(float(loss.data))
    assert losses[-1] < 0.05 * losses[0]


def test_nonfinite_gradients_raise_with_param_name():
    ps = _one_param((2, 2))
    g = {"p": np.array([[np.nan, 0], [0, 0]], np.float32)}
    with pytest.raises(NumericError, match="p"):
        optim.adafactor_step(ps, g, optim.OptimizerState(), optim.OptimizerConfig())


def test_weight_decay_shrinks_toward_zero():
    cfg = optim.OptimizerConfig(base_lr=1e-2, warmup=1, beta1=0.0,
                                weight_decay=1.0)
    ps = _one_param((3,), seed=0)
    big = ps["p"].data.copy()
    zero_g = {"p": np.zeros(3, np.float32)}
    state = optim.OptimizerState()
    # burn one step for warmup so lr > 0, then decay acts alone on zero grads
    optim.adafactor_step(ps, zero_g, state, cfg)
    before = ps["p"].data.copy()
    optim.adafactor_step(ps, zero_g, state, cfg)
    after = ps["p"].data
    assert (np.abs(after) <= np.abs(before) + 1e-8).all()
    assert np.abs(after).sum() < np.abs(big).sum() or np.abs(big).sum() == 0


def test_determinism_across_runs():
    def run():
        ps = _one_param((4, 4), seed=3)
        state = optim.OptimizerState()
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = {"p": rng.normal(size=(4, 4)).astype(np.float32)}
            optim.adafactor_step(ps, g, state, optim.OptimizerConfig(warmup=2))
        return ps["p"].data
    np.testing.assert_array_equal(run(), run())


def test_full_scale_preset_values():
    c = optim.FULL_SCALE_PRESET
    assert c.base_lr == 4.5e-5 and c.warmup == 5000
    assert c.decay_start == 85000 and c.total_steps == 450000
    assert c.weight_decay == 4.5e-2 and c.final_ratio == 0.025
