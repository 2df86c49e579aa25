"""The three ttig benchmark workloads: train, interactive and batch.

Each workload has a set-up step, which builds every input from the workload
seed, and a timed step, which calls ttig's public API from outside, checks
its outputs and hashes them. Sizes follow from --seconds through fixed rates
(not from a measurement of the machine), so one seed and one length always
give the same inputs and the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ttig import (checkpoint, cli, contrastive, metrics, pngio, sampling,
                  scenes, seq2seq, textproc, vq)
from ttig.errors import NumericError, TtigError

HOLDOUT_SEED, HOLDOUT_FRAC = 0, 0.15   # the caption holdout cli uses
N_SCENES = 512
GUIDANCE = 1.2
TOKENIZER = vq.TokenizerConfig(codebook_size=64)
MODEL = seq2seq.DESK
ENCODER = contrastive.EncoderConfig()


@dataclass
class Outcome:
    ops: int             # operations timed: model steps, requests or prompts
    op_ms: list          # latency of each timed operation
    window: tuple        # perf_counter (start, end) of the timed part
    images: int          # images the timed part produced or trained on
    attempted: int
    failed: int
    digest: str          # sha256 of the outputs
    notes: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]


def _training_scenes(seed):
    """Scenes of the training split and the BPE vocab trained on them."""
    _, held = scenes.split_captions(HOLDOUT_SEED, HOLDOUT_FRAC)
    ds = scenes.gen_dataset(N_SCENES, seed, exclude_captions=held)
    vocab = textproc.train_bpe(ds.captions, vocab_size=MODEL.text_vocab)
    return ds, vocab, held


def _hash_arrays(h, arrays):
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


# ---------------------------------------------------------------------------
# train: every training loop, no sampling

RERANKER_BATCH = 64
# The reranker's in-batch InfoNCE loss starts at chance, ln(batch), and stays on
# that plateau for about 45 steps at the default lr, longer than this
# schedule's reranker loop. "Final below first" would compare noise there, so
# its smoothed final loss must only not exceed chance level.
LOSS_CEILING = {"reranker": float(np.log(RERANKER_BATCH)) + 0.01}


def train_sizes(seconds):
    """(tokenizer, model, reranker) steps in the quickstart's 800:2500:800."""
    model = max(8, 4 * seconds)
    side = max(4, round(model * 800 / 2500))
    return side, model, side


def setup_train(seed, seconds, work):
    ds, vocab, _ = _training_scenes(seed)
    text_ids = np.asarray(
        [textproc.pad_to(textproc.encode_clipped(vocab, c, MODEL.text_len),
                         MODEL.text_len) for c in ds.captions], dtype=np.int64)
    cap_ids = [textproc.encode_clipped(vocab, c, ENCODER.text_len)
               for c in ds.captions]
    return {"seed": seed, "images": ds.images, "text_ids": text_ids,
            "cap_ids": cap_ids, "steps": train_sizes(seconds)}


def run_train(inp, tracer=None):
    seed, images = inp["seed"], inp["images"]
    steps = dict(zip(("tokenizer", "model", "reranker"), inp["steps"]))
    histories, weights, stamps = {}, {}, []

    def hook(step, loss, w):
        stamps.append(time.perf_counter())
        if tracer:
            tracer.op = step

    phase, error = "tokenizer", None
    t0 = time.perf_counter()
    try:
        n = steps[phase]
        tok, histories[phase] = vq.train_tokenizer(
            images, TOKENIZER,
            vq.TokTrainConfig(steps=n, batch=32, seed=seed, warmup=max(1, n // 4)))
        weights[phase] = tok.params
        image_ids = vq.tokenize(tok, images).reshape(len(images), -1)
        phase = "model"
        model = seq2seq.build_model(MODEL, seed)
        stamps.append(time.perf_counter())
        model, histories[phase] = seq2seq.train_model(
            model, inp["text_ids"], image_ids,
            seq2seq.TrainConfig(steps=steps[phase], batch=16, seed=seed, log_every=1),
            hooks=[hook])
        weights[phase] = model.params
        phase = "reranker"
        n = steps[phase]
        enc, histories[phase] = contrastive.train_contrastive(
            images, inp["cap_ids"],
            contrastive.CLTrainConfig(steps=n, batch=RERANKER_BATCH, seed=seed,
                                      warmup=max(1, n // 16)), ENCODER)
        weights[phase] = enc.params
    except NumericError as e:
        error = f"{phase}: {e}"
    t1 = time.perf_counter()

    failed = 0
    digest = hashlib.sha256()
    for name, n in steps.items():
        h = histories.get(name)
        # a loop that diverged, or did not learn, failed every one of its steps
        if (h is None or len(h) != n or not np.all(np.isfinite(h))
                or not seq2seq.smoothed(h, max(1, n // 10)) < LOSS_CEILING.get(name, h[0])):
            failed += n
            continue
        digest.update(np.asarray(h, dtype=np.float64).tobytes())
        _hash_arrays(digest, (t.data for _, t in weights[name].items()))
    n_tok, n_model, n_cl = inp["steps"]
    return Outcome(
        ops=n_model, op_ms=list(np.diff(stamps) * 1e3), window=(t0, t1),
        images=32 * n_tok + len(images) + 16 * n_model + RERANKER_BATCH * n_cl,
        attempted=sum(steps.values()), failed=failed, digest=digest.hexdigest(),
        notes={"error": error,
               "first_loss": {k: h[0] for k, h in histories.items()},
               "final_loss": {k: seq2seq.smoothed(h, max(1, len(h) // 10))
                              for k, h in histories.items()}})


# ---------------------------------------------------------------------------
# interactive: one client, one caption per request, guided n=8 and rerank

GREEDY_CHECKS = 2
TIE_TOL = 1e-5  # logits this close may be ordered either way by rounding


def interactive_sizes(seconds):
    return max(4, 6 * seconds)


def setup_interactive(seed, seconds, work):
    ds, vocab, held = _training_scenes(seed)
    rng = np.random.default_rng(seed)
    n = interactive_sizes(seconds)
    prompts = [held[i] for i in rng.integers(0, len(held), n)]
    enc = contrastive.build_encoder(ENCODER, seed)
    return {"model": seq2seq.build_model(MODEL, seed),
            "tokenizer": vq.build_tokenizer(TOKENIZER, seed),
            "scorer": contrastive.make_scorer(enc, vocab), "vocab": vocab,
            "prompts": prompts, "seeds": rng.integers(0, 2**31, n).tolist()}


def request_ok(ranked, n_samples, image_vocab) -> bool:
    """Token ids in range, images in [0, 1], scores best-first."""
    g, im, s = ranked.grids, ranked.images, ranked.scores
    return bool(
        g.shape == (n_samples, MODEL.grid_h, MODEL.grid_w)
        and g.min() >= 0 and g.max() < image_vocab
        and im.shape[0] == n_samples and np.all(im >= 0.0) and np.all(im <= 1.0)
        and s is not None and s.shape == (n_samples,) and np.all(np.isfinite(s))
        and np.all(s[:-1] >= s[1:]))


def greedy_ok(model, vocab, tokenizer, prompt, seed) -> bool:
    """A top_k=1 request equals the argmax of the guided teacher-forced
    logits from seq2seq.logits_fn on the grid it produced."""
    cfg = sampling.SamplerConfig(guidance=GUIDANCE, n_samples=2, top_k=1, seed=seed)
    grids = sampling.generate(model, vocab, tokenizer, prompt, cfg).grids
    grids = grids.reshape(len(grids), -1)
    ids = np.asarray([textproc.encode_clipped(vocab, prompt, model.cfg.text_len)])
    text = np.repeat(ids, len(grids), axis=0)
    cond = seq2seq.logits_fn(model, text, grids).data
    uncond = seq2seq.logits_fn(model, np.full_like(text, textproc.PAD_ID), grids).data
    z = sampling.guided_logits(uncond, cond, GUIDANCE)
    picked = np.take_along_axis(z, grids[..., None], axis=-1)[..., 0]
    exact = grids == z.argmax(axis=-1)
    return bool(np.all(exact | (picked >= z.max(axis=-1) - TIE_TOL)))


def run_interactive(inp, tracer=None):
    model, vocab, tok = inp["model"], inp["vocab"], inp["tokenizer"]
    op_ms, failed = [], 0
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for i, (prompt, seed) in enumerate(zip(inp["prompts"], inp["seeds"])):
        if tracer:
            tracer.op = i
        cfg = sampling.SamplerConfig(guidance=GUIDANCE, n_samples=8, seed=seed)
        t = time.perf_counter()
        try:
            ranked = sampling.rerank(
                sampling.generate(model, vocab, tok, prompt, cfg), inp["scorer"])
        except (TtigError, ValueError):  # ValueError: tensor shape/catalog errors
            ranked = None
        op_ms.append((time.perf_counter() - t) * 1e3)
        if ranked is None or not request_ok(ranked, cfg.n_samples, MODEL.image_vocab):
            failed += 1
            continue
        digest.update(np.asarray(ranked.grids, dtype=np.int64).tobytes())
    t1 = time.perf_counter()
    if tracer:
        tracer.op = -1
    for prompt, seed in zip(inp["prompts"][:GREEDY_CHECKS], inp["seeds"]):
        failed += not greedy_ok(model, vocab, tok, prompt, seed)
    n = len(inp["prompts"])
    return Outcome(ops=n, op_ms=op_ms, window=(t0, t1), images=8 * n,
                   attempted=n + GREEDY_CHECKS, failed=failed,
                   digest=digest.hexdigest(), notes={"requests": n})


# ---------------------------------------------------------------------------
# batch: offline evaluation through ttig.cli.run, jobs of PROMPTS_PER_JOB

PROMPTS_PER_JOB = 2
N_SAMPLES = 32


def batch_sizes(seconds):
    return PROMPTS_PER_JOB * max(1, round(0.8 * seconds))


def setup_batch(seed, seconds, work):
    ds, vocab, held = _training_scenes(seed)
    model = seq2seq.build_model(MODEL, seed)
    tok = vq.build_tokenizer(TOKENIZER, seed)
    checkpoint.save_model(model, work / "model")
    textproc.save_vocab(vocab, work / "model" / "vocab.json")
    checkpoint.save_tokenizer(tok, work / "tok")
    checkpoint.save_encoder(contrastive.build_encoder(ENCODER, seed), work / "reranker")
    textproc.save_vocab(vocab, work / "reranker" / "vocab.json")
    # held-out captions with their ground-truth renders
    train_caps = set(scenes.all_captions()) - set(held)
    truth = scenes.gen_dataset(batch_sizes(seconds), seed + 1,
                               exclude_captions=train_caps)
    jobs = []
    for j in range(0, len(truth), PROMPTS_PER_JOB):
        caps = truth.captions[j:j + PROMPTS_PER_JOB]
        tsv = f"prompts_{j // PROMPTS_PER_JOB:03d}.tsv"
        (work / tsv).write_text("Prompt\tCategory\tChallenge\n" + "".join(
            f"{c}\tAbstract\t{'Basic' if len(c.split()) == 3 else 'Complex'}\n"
            for c in caps))
        jobs.append((tsv, caps, seed * 10_000 + j))
    return {"work": work, "tokenizer": tok, "jobs": jobs,
            "truth": list(zip(truth.captions, truth.images))}


def _cli(*argv):
    """ttig.cli.run in process; returns (exit code, stdout JSON records)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, [json.loads(line) for line in out.getvalue().splitlines() if line]


def _pngs_match(d: Path, meta, tok) -> bool:
    """Every PNG named in meta reads back to the uint8 image of its grid."""
    expect = pngio.to_uint8(vq.detokenize(tok, np.asarray(meta["grids"])))
    return len(meta["files"]) == N_SAMPLES and all(
        np.array_equal(pngio.to_uint8(pngio.read_png(d / f)), e)
        for f, e in zip(meta["files"], expect))


def prompt_ok(d: Path, tok, records, caption, truth) -> bool:
    try:
        meta = json.loads((d / "meta.json").read_text())
        ranked = json.loads((d / "reranked" / "meta.json").read_text())
    except FileNotFoundError:
        return False
    scores = np.asarray(ranked["scores"], dtype=np.float64)
    fidelity = {r["metric"]: r["value"] for r in records}
    return bool(
        meta["prompt"] == caption
        and _pngs_match(d, meta, tok) and _pngs_match(d / "reranked", ranked, tok)
        and scores.shape == (N_SAMPLES,) and np.all(scores[:-1] >= scores[1:])
        and 0.0 <= fidelity.get("caption_fidelity_mean", -1.0) <= 1.0
        and metrics.caption_fidelity(truth, caption) == 1.0)


def run_batch(inp, tracer=None):
    work = inp["work"]
    shutil.rmtree(work / "out", ignore_errors=True)
    op_ms, results = [], []
    t0 = time.perf_counter()
    with contextlib.chdir(work):  # relative paths keep meta.json run-independent
        for j, (tsv, caps, seed) in enumerate(inp["jobs"]):
            if tracer:
                tracer.op = j
            t = time.perf_counter()
            out = f"out/job_{j:03d}"
            code, _ = _cli("sample", "--model", "model", "--tokenizer", "tok",
                           "--prompts", tsv, "--out", out, "--seed", str(seed),
                           "--n-samples", str(N_SAMPLES), "--lambda", str(GUIDANCE))
            for k in range(len(caps)):
                d = f"{out}/prompt_{k:03d}"
                rc, _ = _cli("rerank", "--dir", d, "--reranker", "reranker")
                ec, records = _cli("eval-alignment", "--dir", d)
                results.append((Path(d), records if code == rc == ec == 0 else None))
            op_ms.append((time.perf_counter() - t) * 1e3 / len(caps))
        t1 = time.perf_counter()
        if tracer:
            tracer.op = -1
        failed, fidelity = 0, []
        for (d, records), (caption, truth) in zip(results, inp["truth"]):
            if records is None or not prompt_ok(d, inp["tokenizer"], records,
                                                caption, truth):
                failed += 1
                continue
            fidelity.append({r["metric"]: r["value"] for r in records}
                            ["caption_fidelity_mean"])
        digest = hashlib.sha256()
        for f in sorted(Path("out").rglob("*")):
            if f.suffix == ".png" or f.name == "meta.json":
                digest.update(str(f).encode() + b"\0" + f.read_bytes())
    n = len(inp["truth"])
    return Outcome(ops=n, op_ms=op_ms, window=(t0, t1), images=N_SAMPLES * n,
                   attempted=n, failed=failed, digest=digest.hexdigest(),
                   notes={"prompts": n, "jobs": len(inp["jobs"]),
                          "oracle_fidelity_mean": float(np.mean(fidelity))
                          if fidelity else None})


# name -> (set-up, timed run, what one operation is, ops count of an outcome)
WORKLOADS = {
    "train": (setup_train, run_train, "seq2seq train step"),
    "interactive": (setup_interactive, run_interactive, "request"),
    "batch": (setup_batch, run_batch, "prompt"),
}
