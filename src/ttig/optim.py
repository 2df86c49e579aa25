"""Adafactor-style optimizer: factored second moments, int8 first moment,
global grad clipping, decoupled weight decay, warmup + exponential decay,
and the one training loop every trainer runs on top of it.

Memory shape: an m x n matrix keeps two mean accumulators of sizes m and n
(never m*n); any other parameter keeps a full second moment. The first
moment is materialized in float for the update, then requantized to int8 with
a per-tensor absmax scale, so its storage error is bounded by scale/127.

Each trainer sets its schedule and weight decay in an OptimizerConfig. The
rest is shared by all of them: the moment decays BETA1 and BETA2, the global
gradient norm CLIP_NORM and EPS, added to squared gradients and to vhat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import tensor as T
from .errors import NumericError

BETA1 = 0.9
BETA2 = 0.96
CLIP_NORM = 4.0
EPS = 1e-30


@dataclass
class OptimizerConfig:
    base_lr: float = 1e-2
    warmup: int = 500
    decay_frac: float = 0.2
    final_ratio: float = 0.025
    weight_decay: float = 0.0


def lr_at(step: int, steps: int, cfg: OptimizerConfig) -> float:
    """Piecewise schedule over a run of `steps` steps: linear 0 -> base over
    warmup, constant until decay starts at int(steps * decay_frac), then
    exponential decay hitting base*final_ratio at `steps` (held there
    after)."""
    if step < cfg.warmup:
        return cfg.base_lr * step / cfg.warmup
    start = int(steps * cfg.decay_frac)
    if step <= start or steps <= start:
        return cfg.base_lr
    frac = (step - start) / (steps - start)
    return cfg.base_lr * cfg.final_ratio ** min(frac, 1.0)


@dataclass
class OptimizerState:
    step: int = 0
    second: dict = field(default_factory=dict)       # name -> (R, C) or full v
    first_q: dict = field(default_factory=dict)      # name -> int8 array
    first_scale: dict = field(default_factory=dict)  # name -> float


def _factored_vhat(name, g2, state):
    row = g2.mean(axis=1)
    col = g2.mean(axis=0)
    if name in state.second:
        r, c = state.second[name]
        r = BETA2 * r + (1 - BETA2) * row
        c = BETA2 * c + (1 - BETA2) * col
    else:
        r = (1 - BETA2) * row
        c = (1 - BETA2) * col
    state.second[name] = (r, c)
    denom = r.mean()
    if denom <= 0:
        return np.zeros_like(g2)
    return np.outer(r, c) / denom


def _full_vhat(name, g2, state):
    v = state.second.get(name)
    v = (1 - BETA2) * g2 if v is None else BETA2 * v + (1 - BETA2) * g2
    state.second[name] = v
    return v


def adafactor_step(params, grads: dict, state: OptimizerState,
                   cfg: OptimizerConfig, lr: float):
    """One optimizer step of learning rate lr over params (a ParamSet).
    grads maps a subset of parameter names to arrays; absent names are
    untouched. Updates in place and returns (params, state)."""
    sq_sum = 0.0
    for name, g in grads.items():
        flat = g.reshape(-1)
        sq_sum += float(np.dot(flat, flat))
    if not np.isfinite(sq_sum):
        bad = [n for n, g in grads.items() if not np.all(np.isfinite(g))]
        raise NumericError(f"non-finite gradient for {bad or 'unknown parameters'}")
    gnorm = np.sqrt(sq_sum)
    clip = 1.0 if gnorm <= CLIP_NORM or gnorm == 0.0 else CLIP_NORM / gnorm

    for name, t in params.items():
        g = grads.get(name)
        if g is None:
            continue
        g = np.asarray(g, dtype=np.float32) * np.float32(clip)
        g2 = g * g + np.float32(EPS)
        if g.ndim == 2:
            vhat = _factored_vhat(name, g2, state)
        else:
            vhat = _full_vhat(name, g2, state)
        u = g / np.sqrt(vhat + np.float32(EPS))
        q = state.first_q.get(name)
        if q is None:
            m = (1 - BETA1) * u
        else:
            m = q.astype(np.float32) * np.float32(BETA1 * state.first_scale[name] / 127.0)
            m += np.float32(1 - BETA1) * u
        step_arr = np.float32(lr) * m
        if cfg.weight_decay:
            step_arr += np.float32(lr * cfg.weight_decay) * t.data
        t.data -= step_arr
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        if scale > 0:
            state.first_q[name] = np.round(m * np.float32(127.0 / scale)).astype(np.int8)
        else:
            state.first_q[name] = np.zeros(m.shape, dtype=np.int8)
        state.first_scale[name] = scale
    state.step += 1
    return params, state


def train_loop(params, loss_at, steps: int, cfg: OptimizerConfig, what: str,
               after_step=None) -> list:
    """Train params (a ParamSet) for `steps` steps, the length of cfg's
    schedule; returns the per-step losses.

    loss_at(step) builds the scalar loss on the active tape.
    after_step(step, loss), if given, runs after every optimizer step. A
    non-finite loss raises NumericError naming `what` and the step, before
    any parameter of that step changes.

    At most one step's tape is alive: each step's backward runs once and
    frees the records that keep their inputs, the next step's tape replaces
    the rest record by record as its forward runs, and the last one is
    released on return, so the trained params pin no records.
    """
    state = OptimizerState()
    history = []
    tape = None
    try:
        for step in range(steps):
            with T.Tape(replaces=tape) as tape:
                loss = loss_at(step)
            lval = float(loss.data)
            if not np.isfinite(lval):
                raise NumericError(f"{what} diverged at step {step}: loss {lval}")
            adafactor_step(params, nn.grads_of(loss, params), state, cfg,
                           lr_at(state.step, steps, cfg))
            history.append(lval)
            if after_step is not None:
                after_step(step, lval)
    finally:
        if tape is not None:
            tape.release()
    return history
