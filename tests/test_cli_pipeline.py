"""Every subcommand on a toy config, run twice: the same config and seeds must
give byte-identical files and stdout (the determinism contract, end to end)."""

import argparse
import contextlib
import io
import json
from pathlib import Path

from ttig import cli

TOY = {
    "data": {"n_train": 16, "n_eval": 8, "seed": 3, "image_size": 16},
    "tokenizer": {"patch": 4, "d_model": 16, "n_blocks": 1, "heads": 2,
                  "d_mlp": 32, "d_code": 4, "codebook_size": 16, "batch": 8,
                  "warmup": 1, "steps": 3, "seed": 1},
    "model": {"enc_layers": 1, "dec_layers": 1, "d_model": 16, "d_mlp": 32,
              "heads": 2, "text_vocab": 300, "text_len": 12, "batch": 4,
              "steps": 3, "seed": 1},
    "sampler": {"guidance": 1.2, "n_samples": 3, "top_k": 8},
    "reranker": {"patch": 4, "d_model": 16, "n_blocks": 1, "heads": 2,
                 "d_mlp": 32, "d_e": 8, "text_vocab": 300, "text_len": 12,
                 "batch": 4, "warmup": 1, "steps": 3, "seed": 1},
}
# the other configs the chain runs: a small data set drawn from the whole
# caption space, and a sampler with its own top_k, whose seed, guidance and
# sample count come from flags
CONFIGS = {"cfg.json": TOY,
           "cfg_all.json": {"data": {**TOY["data"], "n_train": 5, "seed": 9}},
           "cfg_many.json": {"sampler": {**TOY["sampler"], "top_k": 4}}}

PROMPTS = ("Prompt\tCategory\tChallenge\n"
           "a red circle\tAbstract\tBasic\n"
           "a blue square above a green triangle\tArts\tSimple Detail\n")

CFG = ["--config", "cfg.json"]
CAPTION = "a red circle"

# every subcommand, in pipeline order; paths are relative to the run directory
CHAIN = [
    ["make-data", *CFG, "--out", "data/train"],
    ["make-data", *CFG, "--split", "eval", "--out", "data/eval"],
    ["make-data", "--config", "cfg_all.json", "--split", "all", "--out", "data/all"],
    ["train-tokenizer", *CFG, "--out", "tok"],
    ["train-model", *CFG, "--tokenizer", "tok", "--out", "model"],
    ["train-reranker", *CFG, "--out", "rr"],
    ["sample", *CFG, "--model", "model", "--tokenizer", "tok",
     "--prompt", CAPTION, "--out", "one"],
    ["sample", "--config", "cfg_many.json", "--model", "model", "--tokenizer", "tok",
     "--prompts", "prompts.tsv", "--n-samples", "2", "--seed", "5",
     "--lambda", "2.0", "--out", "many"],
    ["rerank", "--dir", "one", "--reranker", "rr"],
    ["rerank", "--dir", "many/prompt_001", "--reranker", "rr",
     "--out", "many_reranked"],
    ["eval-alignment", "--dir", "one/reranked", "--out", "align.jsonl"],
    ["eval-fid", "--real", "data/eval", "--gen", "one", "--features", "rr",
     "--out", "fid.jsonl"],
    ["retrieve", *CFG, "--reranker", "rr", "--caption", CAPTION, "--k", "3"],
    ["inspect-checkpoint", "--dir", "model"],
    ["inspect-checkpoint", "--dir", "tok"],
]

def run_chain(root: Path):
    """Run CHAIN with root as the working directory.

    -> (stdout lines, {relative path: file bytes}).
    """
    for name, body in CONFIGS.items():
        (root / name).write_text(json.dumps(body))
    (root / "prompts.tsv").write_text(PROMPTS)
    lines = []
    for argv in CHAIN:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        assert code == 0, (argv, code)
        lines += [f"{argv[0]}: {line}" for line in buf.getvalue().splitlines()]
    files = {str(p.relative_to(root)): p.read_bytes()
             for p in sorted(root.rglob("*")) if p.is_file()}
    return lines, files


def test_every_subcommand_twice_gives_identical_bytes(tmp_path, monkeypatch):
    runs = []
    for name in ("a", "b"):
        # both passes use the same relative paths: rerank records its source
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        runs.append(run_chain(root))
    (lines_a, files_a), (lines_b, files_b) = runs
    assert lines_a == lines_b
    assert sorted(files_a) == sorted(files_b)
    for rel in files_a:
        assert files_a[rel] == files_b[rel], rel
    produced = {rel.split("/")[0] for rel in files_a}
    assert {"data", "tok", "model", "rr", "one", "many", "many_reranked",
            "align.jsonl", "fid.jsonl"} <= produced
    assert len(lines_a) >= len(CHAIN)


def test_chain_runs_every_subcommand_and_no_other():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in CHAIN} == set(sub.choices)


def test_chain_gives_every_flag_of_every_subcommand():
    # a flag no step gives is a flag the twice-run check never exercises
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    missing = [f"{name} {flag}" for name, sp in sub.choices.items()
               for action in sp._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"
               and not any(argv[0] == name and flag in argv for argv in CHAIN)]
    assert missing == []
