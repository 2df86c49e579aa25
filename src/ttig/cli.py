"""Command-line orchestration: data, training, sampling, evaluation.

The commands that render, train, sample or retrieve read an optional JSON
run config with a strict schema (unknown keys and wrongly typed values are
rejected), which only sample's --seed, --lambda and --n-samples override;
no command accepts a flag or key it does not read. Exit codes: 0 success,
1 usage error, 2 data/format error, 3 numeric failure. Diagnostics are one
line on stderr; structured results are JSON lines on stdout or in files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import (checkpoint, contrastive, metrics, nn, pngio, sampling,
               scenes, seq2seq, textproc, vq)
from .checkpoint import check_section, field_types
from .errors import DataError, NumericError, UsageError
from .tensor import CatalogError, ShapeError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# run config

@dataclasses.dataclass(frozen=True)
class DataConfig:
    """The seeded scene data every command draws its splits from."""
    n_train: int = nn.setting(2048, low=1)
    n_eval: int = nn.setting(256, low=1)
    seed: int = nn.setting(0, low=0)
    image_size: int = nn.setting(32, low=1)

    def __post_init__(self):
        if self.image_size < 1 or self.image_size % scenes.GRID:
            raise DataError(f"data.image_size must be a positive multiple of "
                            f"{scenes.GRID}, got {self.image_size}")
        nn.check_settings(self, "data")


# Keys a command sets from elsewhere, so no section but data takes them:
# image_size comes from data, the generator's image vocabulary and grid from
# its tokenizer, and log_every paces hooks, which train-model does not pass.
_DERIVED = {"image_size", "image_vocab", "grid_h", "grid_w", "log_every"}
# config section -> the config dataclasses its keys are fields of
_CONFIGS = {"data": (DataConfig,), "tokenizer": (vq.TokenizerConfig, vq.TokTrainConfig),
            "model": (seq2seq.ModelConfig, seq2seq.TrainConfig),
            "sampler": (sampling.SamplerConfig,),
            "reranker": (contrastive.EncoderConfig, contrastive.CLTrainConfig)}
_SCHEMA = {section: {k: v for cls in classes for k, v in field_types(cls).items()
                     if section == "data" or k not in _DERIVED}
           for section, classes in _CONFIGS.items()}


def load_config(path) -> dict:
    """Parse and validate a RunConfig JSON file: unknown sections and keys,
    and values of the wrong JSON type, are rejected."""
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}") from None
    except ValueError as e:  # bad JSON or bad UTF-8
        raise DataError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DataError(f"config {path} must be a JSON object")
    for section, content in doc.items():
        if section not in _SCHEMA:
            raise DataError(f"unknown config section {section!r} "
                            f"(expected one of {sorted(_SCHEMA)})")
        if not isinstance(content, dict):
            raise DataError(f"config section {section!r} must be an object")
        check_section(content, _SCHEMA[section], section, f"config {path}")
    return doc


def _pick(section: dict, cls, **overrides):
    """Instantiate cls from the matching keys of a config section."""
    kwargs = {k: v for k, v in section.items() if k in field_types(cls)}
    for k, v in overrides.items():
        if v is not None:
            kwargs[k] = v
    return cls(**kwargs)


def _split_seed(d: DataConfig, split: str) -> int:
    return d.seed + (1 if split == "eval" else 0)


def _dataset(d: DataConfig, split="train"):
    """One split of the seeded scene data. train and eval draw from disjoint
    parts of the caption space; all draws from the whole space."""
    train_caps, held_caps = scenes.split_captions()
    exclude = {"train": held_caps, "eval": train_caps, "all": ()}[split]
    n = d.n_eval if split == "eval" else d.n_train
    return scenes.gen_dataset(n, _split_seed(d, split),
                              exclude_captions=exclude,
                              size=d.image_size)


def _emit(record: dict, out=None):
    line = json.dumps(record)
    if out:
        with open(out, "a") as f:
            f.write(line + "\n")
    print(line)


def _finish_run(out, history, records: dict, n: int, seed):
    """A trainer's ending: history.json, then its final metric records."""
    out = Path(out)
    (out / "history.json").write_text(json.dumps(history))
    for name, value in records.items():
        _emit(metrics.metric_record(name, value, n, 0, "none", seed),
              out / "metrics.jsonl")


def _read_image_dir(path):
    """-> (the .png files of path, or of path/images if it is a directory,
    sorted; their pixels). FID needs at least 2 of them."""
    root = Path(path)
    if (root / "images").is_dir():
        root = root / "images"
    files = sorted(root.glob("*.png"))
    if len(files) < 2:
        raise DataError(f"FID needs at least 2 images per set, but {root} holds {len(files)}")
    return files, _stack(files, [pngio.read_png(f) for f in files])


def _stack(files, images) -> np.ndarray:
    """images, each read from its file, as one array; all must be one size."""
    for f, img in zip(files, images):
        if img.shape != images[0].shape:
            raise DataError(f"{f}: image is {img.shape[1]}x{img.shape[0]}, but "
                            f"{files[0]} is {images[0].shape[1]}x{images[0].shape[0]}")
    return np.stack(images)


def _check_text_vocab(cfg, section: str):
    """Name the key of a text_vocab too small for BPE before data is rendered."""
    if cfg.text_vocab < textproc.MIN_VOCAB:
        raise DataError(f"{section}.text_vocab must be at least {textproc.MIN_VOCAB} "
                        f"to train a BPE vocabulary, got {cfg.text_vocab}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_make_data(args) -> int:
    d = _pick(load_config(args.config).get("data", {}), DataConfig)
    ds = _dataset(d, args.split)
    n, seed = len(ds), _split_seed(d, args.split)
    out = Path(args.out)
    (out / "images").mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(ds.images):
        pngio.write_png(out / "images" / f"img_{i:05d}.png", img)
    (out / "captions.txt").write_text("\n".join(ds.captions) + "\n")
    manifest = {"kind": "dataset", "format_version": 1, "n": n, "seed": seed,
                "split": args.split, "image_size": d.image_size}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    _emit(metrics.metric_record("dataset_size", n, n, 0, "none", seed))
    return 0


def cmd_train_tokenizer(args) -> int:
    cfg = load_config(args.config)
    d = _pick(cfg.get("data", {}), DataConfig)
    sec = cfg.get("tokenizer", {})
    tok_cfg = _pick(sec, vq.TokenizerConfig, image_size=d.image_size)
    tcfg = _pick(sec, vq.TokTrainConfig)
    ds = _dataset(d)
    w, history = vq.train_tokenizer(ds.images, tok_cfg, tcfg)
    checkpoint.save_tokenizer(w, args.out)
    held = _dataset(d, "eval")
    ids = vq.tokenize(w, ds.images[:256]).reshape(-1)
    stats = vq.codebook_stats(ids, tok_cfg.codebook_size)
    _finish_run(args.out, history,
                {"tokenizer_holdout_mse": vq.reconstruction_mse(w, held.images),
                 "codebook_usage_fraction": stats["usage_fraction"],
                 "codebook_perplexity": stats["perplexity"]},
                len(held), tcfg.seed)
    return 0


def _encode_captions(vocab, captions, text_len):
    rows = [textproc.pad_to(textproc.encode_clipped(vocab, c, text_len), text_len)
            for c in captions]
    return np.asarray(rows, dtype=np.int64)


def cmd_train_model(args) -> int:
    cfg = load_config(args.config)
    d = _pick(cfg.get("data", {}), DataConfig)
    sec = cfg.get("model", {})
    tok = checkpoint.load_tokenizer(args.tokenizer)
    mcfg = _pick(sec, seq2seq.ModelConfig, image_vocab=tok.cfg.codebook_size,
                 grid_h=tok.cfg.grid, grid_w=tok.cfg.grid)
    tcfg = _pick(sec, seq2seq.TrainConfig)
    _check_text_vocab(mcfg, "model")
    if d.image_size != tok.cfg.image_size:
        raise DataError(f"data.image_size is {d.image_size}, but the tokenizer at "
                        f"{args.tokenizer} takes {tok.cfg.image_size}x{tok.cfg.image_size} images")
    ds = _dataset(d)
    vocab = textproc.train_bpe(ds.captions, vocab_size=mcfg.text_vocab)
    text_ids = _encode_captions(vocab, ds.captions, mcfg.text_len)
    image_ids = vq.tokenize(tok, ds.images).reshape(len(ds), -1)
    w = seq2seq.build_model(mcfg, seed=tcfg.seed)
    w, history = seq2seq.train_model(w, text_ids, image_ids, tcfg)
    checkpoint.save_model(w, args.out)
    textproc.save_vocab(vocab, Path(args.out) / "vocab.json")
    _finish_run(args.out, history,
                {"final_smoothed_loss": seq2seq.smoothed(history)},
                len(ds), tcfg.seed)
    return 0


def cmd_train_reranker(args) -> int:
    cfg = load_config(args.config)
    d = _pick(cfg.get("data", {}), DataConfig)
    sec = cfg.get("reranker", {})
    ecfg = _pick(sec, contrastive.EncoderConfig, image_size=d.image_size)
    tcfg = _pick(sec, contrastive.CLTrainConfig)
    _check_text_vocab(ecfg, "reranker")
    ds = _dataset(d)
    vocab = textproc.train_bpe(ds.captions, vocab_size=ecfg.text_vocab)
    cap_ids = [textproc.encode_clipped(vocab, c, ecfg.text_len)
               for c in ds.captions]
    enc, history = contrastive.train_contrastive(ds.images, cap_ids, tcfg, ecfg)
    checkpoint.save_encoder(enc, args.out)
    textproc.save_vocab(vocab, Path(args.out) / "vocab.json")
    _finish_run(args.out, history,
                {"contrastive_final_loss": seq2seq.smoothed(history, 20)},
                len(ds), tcfg.seed)
    return 0


def _write_sample_dir(out: Path, batch, scfg, extra=None):
    out.mkdir(parents=True, exist_ok=True)
    names = [f"sample_{i:02d}.png" for i in range(len(batch.images))]
    for name, img in zip(names, batch.images):
        pngio.write_png(out / name, img)
    meta = {"prompt": batch.prompt, "seed": scfg.seed, "guidance": scfg.guidance,
            "top_k": scfg.top_k, "n_samples": scfg.n_samples,
            "files": names, "scores": None,
            "grids": np.asarray(batch.grids).tolist()}
    if extra:
        meta.update(extra)
    (out / "meta.json").write_text(json.dumps(meta))
    return names


def cmd_sample(args) -> int:
    if (args.prompt is None) == (args.prompts is None):
        raise UsageError("give exactly one of --prompt or --prompts")
    scfg = _pick(load_config(args.config).get("sampler", {}), sampling.SamplerConfig,
                 guidance=args.guidance, n_samples=args.n_samples, seed=args.seed)
    # parse the prompt list before loading anything heavy
    rows = scenes.load_prompts(args.prompts) if args.prompts else None
    w = checkpoint.load_model(args.model)
    vocab = textproc.load_vocab(Path(args.model) / "vocab.json")
    tok = checkpoint.load_tokenizer(args.tokenizer)
    m, t = w.cfg, tok.cfg
    if (m.image_vocab, m.grid_h, m.grid_w) != (t.codebook_size, t.grid, t.grid):
        raise DataError(f"the model at {args.model} predicts {m.image_vocab} codes on a "
                        f"{m.grid_h}x{m.grid_w} grid, but the tokenizer at {args.tokenizer} "
                        f"has {t.codebook_size} codes on a {t.grid}x{t.grid} grid")
    out = Path(args.out)
    if rows is None:
        batch = sampling.generate(w, vocab, tok, args.prompt, scfg)
        names = _write_sample_dir(out, batch, scfg)
        _emit(metrics.metric_record("samples_written", len(names), len(names),
                                    0, "none", scfg.seed))
        return 0
    index = []
    total = 0
    for i, row in enumerate(rows):
        # one seed per row so the whole list is reproducible yet varied
        row_cfg = dataclasses.replace(scfg, seed=scfg.seed + i)
        batch = sampling.generate(w, vocab, tok, row.prompt, row_cfg)
        sub = f"prompt_{i:03d}"
        names = _write_sample_dir(out / sub, batch, row_cfg,
                                  extra={"category": row.category,
                                         "challenge": row.challenge})
        total += len(names)
        index.append({"dir": sub, "prompt": row.prompt,
                      "category": row.category, "challenge": row.challenge,
                      "seed": row_cfg.seed})
    (out / "index.json").write_text(json.dumps(index, indent=2))
    _emit(metrics.metric_record("samples_written", total, total, len(rows),
                                "none", scfg.seed))
    return 0


def _load_sample_dir(path, *keys):
    """-> (meta, each listed PNG file's bytes, their pixels). meta.json must
    hold files (a non-empty list of names), prompt (a string), seed (an int)
    and every one of keys; grids, if a key, is a list with one grid per
    file, all of one shape, and is returned as an array."""
    meta_path = Path(path) / "meta.json"
    if not meta_path.exists():
        raise DataError(f"{path} has no meta.json (not a sample directory)")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as e:  # bad JSON or bad UTF-8
        raise DataError(f"{meta_path} is not valid JSON: {e}") from None
    keys = ("files", "prompt", "seed", *keys)
    if not isinstance(meta, dict) or not all(k in meta for k in keys):
        raise DataError(f"{meta_path} is not a sample meta.json: it needs "
                        f"the keys {', '.join(keys)}")
    names = meta["files"]
    if not isinstance(names, list) or not all(isinstance(f, str) for f in names):
        raise DataError(f"{meta_path}: files must be a list of file names")
    if not names:
        raise DataError(f"{meta_path} lists no files")
    if not isinstance(meta["prompt"], str):
        raise DataError(f"{meta_path}: prompt must be a string")
    if type(meta["seed"]) is not int:  # bool is an int subclass
        raise DataError(f"{meta_path}: seed must be an integer")
    if "grids" in keys:
        if not (isinstance(meta["grids"], list) and len(meta["grids"]) == len(names)):
            raise DataError(f"{meta_path}: grids must be a list of {len(names)} grids, "
                            f"one per file")
        try:
            meta["grids"] = np.asarray(meta["grids"])
        except ValueError:  # ragged nesting
            raise DataError(f"{meta_path}: grids must all have one shape") from None
    files = [Path(path) / f for f in names]
    try:
        blobs = [f.read_bytes() for f in files]
    except OSError as e:  # missing, or a directory
        raise DataError(f"{meta_path} lists {e.filename}: {e.strerror}") from None
    images = _stack(files, [pngio.read_png(f, b) for f, b in zip(files, blobs)])
    return meta, blobs, images


def _check_image_size(first, images, fits, want: str):
    """Name first, the file of images[0], unless fits(height, width) of the
    images: _stack made them one size, so the first fails if any does."""
    h, w = images.shape[1:3]
    if not fits(h, w):
        raise DataError(f"{first}: image is {w}x{h}, but {want}")


def cmd_rerank(args) -> int:
    if args.out and Path(args.out).resolve() == Path(args.dir).resolve():
        raise DataError(f"rerank --out {args.out} is the sample directory --dir; "
                        f"ranking there would overwrite its meta.json")
    meta, blobs, images = _load_sample_dir(args.dir, "grids")
    enc = checkpoint.load_encoder(args.reranker)
    size = enc.cfg.image_size
    _check_image_size(Path(args.dir) / meta["files"][0], images, lambda h, w: h == w == size,
                      f"the reranker at {args.reranker} takes {size}x{size} images")
    vocab = textproc.load_vocab(Path(args.reranker) / "vocab.json")
    batch = sampling.SampleBatch(prompt=meta["prompt"], grids=meta["grids"],
                                 images=images)
    ranked = sampling.rerank(batch, contrastive.make_scorer(enc, vocab))
    out = Path(args.out or (Path(args.dir) / "reranked"))
    # each ranked image is a sample file's pixels, so its file is that file
    out.mkdir(parents=True, exist_ok=True)
    names = [f"rank_{i:02d}.png" for i in range(len(blobs))]
    for name, i in zip(names, ranked.order):
        (out / name).write_bytes(blobs[i])
    meta_out = {**meta, "files": names, "scores": ranked.scores.tolist(),
                "grids": np.asarray(ranked.grids).tolist(),
                "source": str(args.dir)}
    (out / "meta.json").write_text(json.dumps(meta_out))
    _emit(metrics.metric_record("rerank_top_score", ranked.scores[0],
                                len(names), 0, "contrastive-cosine",
                                meta["seed"]))
    return 0


def cmd_eval_fid(args) -> int:
    real_files, real = _read_image_dir(args.real)
    gen_files, gen = _read_image_dir(args.gen)
    enc = checkpoint.load_encoder(args.features)
    size = enc.cfg.image_size
    for files, images in ((real_files, real), (gen_files, gen)):
        _check_image_size(files[0], images, lambda h, w: h == w == size,
                          f"the reranker at {args.features} takes {size}x{size} images")
    value = metrics.fid(real, gen, lambda imgs: contrastive.image_features(enc, imgs))
    # FID draws nothing at random
    _emit(metrics.metric_record("fid", value, len(real), len(gen),
                                "contrastive-pool", 0), args.out)
    return 0


def cmd_eval_alignment(args) -> int:
    meta, _, images = _load_sample_dir(args.dir)
    _check_image_size(Path(args.dir) / meta["files"][0], images,
                      lambda h, w: h == w and h % scenes.GRID == 0,
                      f"the oracle scores square images whose side is a multiple "
                      f"of {scenes.GRID}")
    try:  # the oracle scores captions of the scene grammar only
        scenes.parse_caption(meta["prompt"])
    except DataError as e:
        raise DataError(f"{Path(args.dir) / 'meta.json'}: {e}") from None
    scores = metrics.caption_fidelities(images, meta["prompt"])
    for name, value in (("caption_fidelity_mean", np.mean(scores)),
                        ("caption_fidelity_best", np.max(scores))):
        _emit(metrics.metric_record(name, value, len(images), 0, "oracle",
                                    meta["seed"]), args.out)
    return 0


def cmd_retrieve(args) -> int:
    enc = checkpoint.load_encoder(args.reranker)
    vocab = textproc.load_vocab(Path(args.reranker) / "vocab.json")
    cap_ids = textproc.encode_clipped(vocab, args.caption, enc.cfg.text_len)
    d = _pick(load_config(args.config).get("data", {}), DataConfig)
    if d.image_size != enc.cfg.image_size:
        raise DataError(f"data.image_size is {d.image_size}, but the reranker at "
                        f"{args.reranker} takes {enc.cfg.image_size}x{enc.cfg.image_size} images")
    ds = _dataset(d)
    rows, sims = contrastive.retrieve_nearest(
        enc, contrastive.embed_image(enc, ds.images), cap_ids, args.k)
    results = [{"id": i, "score": s, "caption": ds.captions[i]}
               for i, s in zip(rows.tolist(), sims.tolist())]
    print(json.dumps({"caption": args.caption, "k": args.k,
                      "in_dataset": args.caption in ds.captions,
                      "results": results}))
    return 0


def cmd_inspect_checkpoint(args) -> int:
    state, config = checkpoint.load_checkpoint(args.dir)
    total = sum(a.size for a in state.values())
    doc = {"kind": config.get("kind"), "config": config,
           "n_params": total, "n_tensors": len(state),
           "total_bytes": 4 * total,
           "params": [{"name": k, "shape": list(v.shape)} for k, v in state.items()]}
    print(json.dumps(doc, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    p = _Parser(prog="ttig", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, help, config=True):
        """The subparser of name; run() calls cmd_<name, "-" read as "_">."""
        sp = sub.add_parser(name, help=help)
        if config:
            sp.add_argument("--config", default=None, help="RunConfig JSON path")
        return sp

    sp = add("make-data", "render a captioned dataset to PNGs")
    sp.add_argument("--out", required=True)
    sp.add_argument("--split", choices=("train", "eval", "all"), default="train")

    for name, what in (
            ("train-tokenizer", "train tokenizer and checkpoint it"),
            ("train-reranker", "train reranker and checkpoint it"),
            ("train-model", "train the text-to-image model")):
        sp = add(name, what)
        if name == "train-model":
            sp.add_argument("--tokenizer", required=True)
        sp.add_argument("--out", required=True)

    sp = add("sample", "generate images for a prompt")
    sp.add_argument("--model", required=True)
    sp.add_argument("--tokenizer", required=True)
    sp.add_argument("--prompt", default=None)
    sp.add_argument("--prompts", default=None,
                    help="prompt TSV; one sample dir per row")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--lambda", dest="guidance", type=float, default=None)
    sp.add_argument("--n-samples", type=int, default=None)

    sp = add("rerank", "order sampled images by alignment", config=False)
    sp.add_argument("--dir", required=True)
    sp.add_argument("--reranker", required=True)
    sp.add_argument("--out", default=None)

    sp = add("eval-fid", "FID between two image directories", config=False)
    sp.add_argument("--real", required=True)
    sp.add_argument("--gen", required=True)
    sp.add_argument("--features", required=True, help="dual-encoder checkpoint")
    sp.add_argument("--out", default=None)

    sp = add("eval-alignment", "oracle fidelity of a sample dir", config=False)
    sp.add_argument("--dir", required=True)
    sp.add_argument("--out", default=None)

    sp = add("retrieve", "nearest training images for a caption")
    sp.add_argument("--reranker", required=True)
    sp.add_argument("--caption", required=True)
    sp.add_argument("--k", type=int, default=5)

    sp = add("inspect-checkpoint", "print checkpoint summary", config=False)
    sp.add_argument("--dir", required=True)

    return p


@functools.cache
def _parser() -> _Parser:
    """build_parser(), built on the first run() and shared by every later one:
    parsing reads the parser and never changes it."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up on every call, not kept in the parser that outlives it, so
        # a wrapper set on the module attribute (perfbench's tracer) runs
        return globals()["cmd_" + args.cmd.replace("-", "_")](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (OSError, DataError, ShapeError, CatalogError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
