"""Fast checks of the benchmark itself (about a minute):

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test run: they
start the benchmark as a subprocess at its smallest size.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from ttig import pngio, sampling, seq2seq  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        report, result = _result(_bench(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        assert report["env"]["blas_threads"] == 1 and report["env"]["seed"] == 3
        if trace:
            assert report["digests_equal"]
        else:
            assert all(result["metrics"][m["name"]]["value"] > 0
                       for m in SPEC["end_to_end"])


def test_same_seed_same_digest():
    first, _ = _result(_bench("interactive", 0, seed=5))
    second, _ = _result(_bench("interactive", 0, seed=5))
    other, _ = _result(_bench("interactive", 0, seed=6))
    assert first["digest"] == second["digest"] != other["digest"]


def test_refuses_without_source_tree(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = _bench("train", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""


# corrupt outputs are counted as failed operations, not passes

def test_corrupt_png_fails_its_prompt(tmp_path, monkeypatch):
    write = pngio.write_png

    def flip_one(path, img):
        img = pngio.to_uint8(img).copy()
        if Path(path).name == "sample_03.png":
            img[0, 0, 0] ^= 1
        write(path, img)

    inp = workloads.setup_batch(1, 1, tmp_path)
    monkeypatch.setattr(pngio, "write_png", flip_one)
    out = workloads.run_batch(inp)
    assert out.attempted == 2 and out.failed == 2


def test_misordered_rerank_fails_its_request(monkeypatch):
    rerank = sampling.rerank

    def worst_first(batch, scorer):
        ranked = rerank(batch, scorer)
        ranked.scores = ranked.scores[::-1]
        return ranked

    inp = workloads.setup_interactive(1, 1, None)
    monkeypatch.setattr(sampling, "rerank", worst_first)
    out = workloads.run_interactive(inp)
    assert out.failed == out.attempted - workloads.GREEDY_CHECKS > 0


def test_wrong_greedy_token_fails(monkeypatch):
    generate = sampling.generate

    def off_by_one(*args, **kwargs):
        batch = generate(*args, **kwargs)
        batch.grids = (batch.grids + 1) % seq2seq.DESK.image_vocab
        return batch

    inp = workloads.setup_interactive(1, 1, None)
    monkeypatch.setattr(sampling, "generate", off_by_one)
    assert not workloads.greedy_ok(inp["model"], inp["vocab"], inp["tokenizer"],
                                   inp["prompts"][0], inp["seeds"][0])


def test_diverged_training_fails_its_steps(monkeypatch):
    forward_loss = seq2seq.forward_loss

    def nan_loss(*args, **kwargs):
        loss = forward_loss(*args, **kwargs)
        loss.data = np.float32(np.nan)
        return loss

    inp = workloads.setup_train(1, 1, None)
    monkeypatch.setattr(seq2seq, "forward_loss", nan_loss)
    out = workloads.run_train(inp)
    n_tok, n_model, n_cl = inp["steps"]
    assert out.attempted == n_tok + n_model + n_cl and out.failed == n_model + n_cl
