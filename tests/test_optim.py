"""Schedule shape, factored second moment, clipping, failure modes, and
the training loop every trainer shares."""

import re
import tracemalloc

import numpy as np
import pytest

from ttig import contrastive, nn, optim, scenes, seq2seq, vq
from ttig import tensor as T
from ttig.errors import NumericError


def _one_param(shape, seed=0, name="p"):
    ps = nn.ParamSet()
    ps.add(name, np.random.default_rng(seed).normal(size=shape).astype(np.float32))
    return ps


def test_lr_schedule_phases():
    cfg = optim.OptimizerConfig(base_lr=1.0, warmup=10, decay_frac=0.5,
                                final_ratio=0.1)
    assert optim.lr_at(0, 40, cfg) == 0.0
    assert abs(optim.lr_at(5, 40, cfg) - 0.5) < 1e-12
    assert optim.lr_at(10, 40, cfg) == 1.0
    assert optim.lr_at(20, 40, cfg) == 1.0  # decay starts at int(40 * 0.5)
    assert 0.1 < optim.lr_at(21, 40, cfg) < 1.0
    assert 0.1 < optim.lr_at(30, 40, cfg) < 1.0
    assert abs(optim.lr_at(40, 40, cfg) - 0.1) < 1e-9
    assert abs(optim.lr_at(400, 40, cfg) - 0.1) < 1e-9  # held after the run
    # the same config stretches to the length of a longer run
    assert optim.lr_at(40, 80, cfg) == 1.0
    assert abs(optim.lr_at(80, 80, cfg) - 0.1) < 1e-9


def test_lr_decay_is_exponential_in_steps():
    cfg = optim.OptimizerConfig(base_lr=1.0, warmup=0, decay_frac=0.0,
                                final_ratio=0.01)
    mid = optim.lr_at(50, 100, cfg)
    assert abs(mid - np.sqrt(0.01)) < 1e-9


def test_step_moves_params_and_advances_state():
    ps = _one_param((4, 3))
    before = ps["p"].data.copy()
    state = optim.OptimizerState()
    g = {"p": np.ones((4, 3), np.float32)}
    cfg = optim.OptimizerConfig()
    optim.adafactor_step(ps, g, state, cfg, 0.0)
    assert state.step == 1
    np.testing.assert_array_equal(ps["p"].data, before)  # lr 0 moves nothing
    optim.adafactor_step(ps, g, state, cfg, 1e-2)
    assert state.step == 2
    assert not np.array_equal(ps["p"].data, before)


def test_matrix_params_use_factored_second_moment():
    ps = _one_param((6, 5))
    state = optim.OptimizerState()
    g = {"p": np.random.default_rng(1).normal(size=(6, 5)).astype(np.float32)}
    optim.adafactor_step(ps, g, state, optim.OptimizerConfig(), 1e-2)
    r, c = state.second["p"]
    assert r.shape == (6,) and c.shape == (5,)
    assert state.first_q["p"].dtype == np.int8


def test_vector_params_use_full_second_moment():
    ps = _one_param((7,))
    state = optim.OptimizerState()
    g = {"p": np.ones(7, np.float32)}
    optim.adafactor_step(ps, g, state, optim.OptimizerConfig(), 1e-2)
    assert state.second["p"].shape == (7,)


def test_absent_grad_names_leave_params_untouched():
    ps = nn.ParamSet()
    ps.add("a", np.ones((2, 2), np.float32))
    ps.add("b", np.ones((2, 2), np.float32))
    before_b = ps["b"].data.copy()
    state = optim.OptimizerState()
    optim.adafactor_step(ps, {"a": np.ones((2, 2), np.float32)}, state,
                         optim.OptimizerConfig(), 1e-2)
    np.testing.assert_array_equal(ps["b"].data, before_b)


def test_clip_rescales_large_gradients_like_scaled_ones():
    # clipping g to norm c must behave exactly like feeding g*c/|g|:
    # both the applied update and the stored accumulators must agree
    cfg = optim.OptimizerConfig()
    g = np.random.default_rng(2).normal(size=(4, 4)).astype(np.float32)
    g_big = g * np.float32(100.0)
    gnorm = float(np.linalg.norm(g_big))
    assert gnorm > 10 * optim.CLIP_NORM
    g_ref = g_big * np.float32(optim.CLIP_NORM / gnorm)

    ps1 = _one_param((4, 4), seed=5)
    st1 = optim.OptimizerState()
    optim.adafactor_step(ps1, {"p": g_big}, st1, cfg, 1e-2)

    ps2 = _one_param((4, 4), seed=5)
    st2 = optim.OptimizerState()
    optim.adafactor_step(ps2, {"p": g_ref}, st2, cfg, 1e-2)

    np.testing.assert_allclose(ps1["p"].data, ps2["p"].data, atol=1e-6)
    np.testing.assert_allclose(st1.second["p"][0], st2.second["p"][0], rtol=1e-5)
    np.testing.assert_allclose(st1.second["p"][1], st2.second["p"][1], rtol=1e-5)


def test_small_gradients_are_not_clipped():
    cfg = optim.OptimizerConfig()
    g = np.full((3, 3), 0.01, np.float32)
    assert np.linalg.norm(g) < optim.CLIP_NORM
    ps1 = _one_param((3, 3), seed=8)
    ps2 = _one_param((3, 3), seed=8)
    st = optim.OptimizerState()
    optim.adafactor_step(ps1, {"p": g}, st, cfg, 1e-2)
    # same step by hand with no clip applied
    st2 = optim.OptimizerState()
    optim.adafactor_step(ps2, {"p": g.copy()}, st2, cfg, 1e-2)
    np.testing.assert_array_equal(ps1["p"].data, ps2["p"].data)


def test_adafactor_fits_a_linear_regression():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, 8)).astype(np.float32)
    y = x @ rng.standard_normal((8, 3)).astype(np.float32)
    ps = nn.ParamSet()
    nn.add_linear(ps, "lin", 8, 3, rng)
    state = optim.OptimizerState()
    cfg = optim.OptimizerConfig(base_lr=0.05, warmup=10, decay_frac=0.75)
    losses = []
    for _ in range(200):
        with T.Tape():
            loss = nn.mse(nn.linear(ps, "lin", T.constant(x)), y)
        gm = T.backward(loss)
        optim.adafactor_step(ps, {n: gm[t.node_id].data for n, t in ps.items()}, state, cfg,
                             optim.lr_at(state.step, 200, cfg))
        losses.append(float(loss.data))
    assert losses[-1] < 0.05 * losses[0]


def test_nonfinite_gradients_raise_with_param_name():
    ps = _one_param((2, 2))
    g = {"p": np.array([[np.nan, 0], [0, 0]], np.float32)}
    with pytest.raises(NumericError, match="p"):
        optim.adafactor_step(ps, g, optim.OptimizerState(), optim.OptimizerConfig(), 1e-2)


def test_weight_decay_shrinks_toward_zero():
    cfg = optim.OptimizerConfig(weight_decay=1.0)
    ps = _one_param((3,), seed=0)
    before = ps["p"].data.copy()
    # decay acts alone on zero grads
    optim.adafactor_step(ps, {"p": np.zeros(3, np.float32)},
                         optim.OptimizerState(), cfg, 1e-2)
    np.testing.assert_allclose(ps["p"].data, before * np.float32(0.99), rtol=1e-6)


def test_determinism_across_runs():
    def run():
        ps = _one_param((4, 4), seed=3)
        state = optim.OptimizerState()
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = {"p": rng.normal(size=(4, 4)).astype(np.float32)}
            optim.adafactor_step(ps, g, state, optim.OptimizerConfig(), 1e-2)
        return ps["p"].data
    np.testing.assert_array_equal(run(), run())


def test_train_loop_runs_the_schedule_over_its_own_steps(monkeypatch):
    cfg = optim.OptimizerConfig(base_lr=1.0, warmup=2, decay_frac=0.5,
                                final_ratio=0.1)
    lrs = []
    step = optim.adafactor_step

    def recording_step(params, grads, state, cfg, lr):
        lrs.append(lr)
        return step(params, grads, state, cfg, lr)

    monkeypatch.setattr(optim, "adafactor_step", recording_step)
    ps = _one_param((2,))

    def loss_at(i):
        return T.reduce_sum(T.mul(ps["p"], ps["p"]))

    optim.train_loop(ps, loss_at, 6, cfg, "test")
    assert lrs == [optim.lr_at(s, 6, cfg) for s in range(6)]


_TOK = vq.TokenizerConfig(image_size=8, d_model=8, n_blocks=1, heads=2, d_mlp=16,
                          codebook_size=4)
_MODEL = seq2seq.ModelConfig(enc_layers=1, dec_layers=1, d_model=16, d_mlp=32, heads=2,
                             text_vocab=64, image_vocab=8, text_len=8, grid_h=2, grid_w=2)
_ENC = contrastive.EncoderConfig(d_model=8, n_blocks=1, heads=2, d_mlp=16, d_e=4,
                                 text_vocab=64, text_len=8)


def _ids(low, high, shape):
    return np.random.default_rng(0).integers(low, high, shape)


_TOK_IMAGES = scenes.gen_dataset(4, 0, size=8).images


def _tokenizer_before_step_0():
    """The tokenizer train_tokenizer(_TOK_IMAGES, _TOK, seed 0) starts from."""
    w = vq.build_tokenizer(_TOK, 0)
    vq._init_codebook_from_data(w, _TOK_IMAGES, np.random.default_rng(1))
    return w


# trainer -> (module, the function in it that takes the weights first and
# builds the loss, a short run of the trainer, its weights before step 0)
_TRAINERS = {
    "vq.train_tokenizer": (
        vq, "_decode_tensor",
        lambda: vq.train_tokenizer(_TOK_IMAGES, _TOK, vq.TokTrainConfig(steps=2, batch=2)),
        _tokenizer_before_step_0),
    "seq2seq.train_model": (
        seq2seq, "forward_loss",
        lambda: seq2seq.train_model(seq2seq.build_model(_MODEL, 0), _ids(4, 64, (4, 8)),
                                    _ids(0, 8, (4, 4)), seq2seq.TrainConfig(steps=2, batch=2)),
        lambda: seq2seq.build_model(_MODEL, 0)),
    "contrastive.train_contrastive": (
        contrastive, "contrastive_loss",
        lambda: contrastive.train_contrastive(scenes.gen_dataset(2, 0).images,
                                              _ids(4, 64, (2, 8)),
                                              contrastive.CLTrainConfig(steps=2, batch=2),
                                              _ENC),
        lambda: contrastive.build_encoder(_ENC, 0)),
}


@pytest.mark.parametrize("trainer", sorted(_TRAINERS))
def test_training_loops_fail_loudly_on_nan_loss(trainer, monkeypatch):
    module, loss_fn, train, fresh = _TRAINERS[trainer]
    original = getattr(module, loss_fn)
    seen = []

    def nan_loss_fn(w, *args, **kwargs):
        seen.append(w)
        out = original(w, *args, **kwargs)
        out.data = np.full_like(out.data, np.nan)
        return out

    monkeypatch.setattr(module, loss_fn, nan_loss_fn)
    with pytest.raises(NumericError,
                       match=rf"^{re.escape(trainer)} diverged at step 0: loss nan$"):
        train()
    # the loss of step 0 was the only one built, and no optimizer step ran
    assert len(seen) == 1
    want = fresh().params
    for name, t in seen[0].params.items():
        np.testing.assert_array_equal(t.data, want[name].data, err_msg=name)


@pytest.mark.parametrize("trainer", sorted(_TRAINERS))
def test_trained_params_pin_no_tape_records(trainer):
    _, _, train, _ = _TRAINERS[trainer]
    w, history = train()
    assert len(history) == 2
    taped = {name: t._tape for name, t in w.params.items() if t._tape is not None}
    assert taped  # the trained parameters were on a tape
    for name, tape in taped.items():
        assert tape.records == [] and tape.released, name


@pytest.mark.parametrize("trainer", sorted(_TRAINERS))
def test_every_trainable_parameter_receives_a_gradient(trainer, monkeypatch):
    # a parameter no loss reads is dead weight in every checkpoint
    calls = []
    grads_of = nn.grads_of

    def recording_grads_of(loss, params):
        grads = grads_of(loss, params)
        calls.append((set(params.params), set(grads)))
        return grads

    monkeypatch.setattr(nn, "grads_of", recording_grads_of)
    _TRAINERS[trainer][2]()
    assert calls
    for trainable, reached in calls:
        assert reached == trainable, sorted(trainable ^ reached)


def test_train_loop_holds_one_step_tape(monkeypatch):
    # the desk tokenizer at batch 12: about 10.4 MiB traced when each
    # step's forward is done
    images = scenes.gen_dataset(12, 0).images
    held = []  # traced bytes when each step's forward is done: its tape, mostly

    def measuring_grads_of(loss, params):
        held.append(tracemalloc.get_traced_memory()[0])
        return grads_of(loss, params)

    grads_of = nn.grads_of
    monkeypatch.setattr(nn, "grads_of", measuring_grads_of)

    def peak(steps):
        tracemalloc.start()
        try:
            vq.train_tokenizer(images, vq.TokenizerConfig(),
                               vq.TokTrainConfig(steps=steps, batch=12))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(1)
    tape = held[0]
    four = peak(4)
    assert tape > 8 * 2**20, tape
    # a loop that keeps the finished tape until the next one is complete
    # peaks about 0.8 tapes higher here; replacing it record by record
    # costs about 0.02
    assert four - one < 0.25 * tape, ((four - one) / tape, one, four, tape)
