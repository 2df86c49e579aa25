"""Run one ttig benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the root of a ttig checkout; ttig is imported from its `src/`.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the workload runs once untraced and once traced, and the last line
holds the per-layer metrics read from the spans. The line before it is a
report: environment, output digest, the workload's own metric names and, when
traced, the per-layer table of perfbench/README.md. BLAS runs on one thread.
"""

import time

_T0 = time.perf_counter()  # process start, as near as the script can see it

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"
SETUP_REPS = 3

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "images_per_s": "images/s"}
# the workload's own name for the latency of one operation
OP_NAMES = {"train": "train_step_ms", "interactive": "request_ms",
            "batch": "prompt_ms"}

# layers every workload runs, so their times are never zero
TIMED_LAYERS = ("tensor", "nn", "seq2seq", "vq", "contrastive")
APPLY_KINDS = ("gelu", "matmul", "layer_norm", "softmax")
COUNTED = ("tensor.apply", "tensor.backward", "optim.adafactor_step",
           "seq2seq.encode_text", "sampling.guided_logits", "vq.detokenize",
           "contrastive.embed_image", "checkpoint.load_encoder",
           "pngio.write_png", "metrics.alignment_oracle")


def per_layer_units(layers):
    units = {f"{l}.self_ms_per_op": "ms" for l in TIMED_LAYERS}
    units["tensor.apply.ms_per_op"] = "ms"
    units.update({f"tensor.apply.{k}.ms_per_op": "ms" for k in APPLY_KINDS})
    units.update({f"{l}.self_pct": "%" for l in layers})
    units.update({f"{f}.calls_per_op": "count" for f in COUNTED})
    units["trace_overhead_pct"] = "%"
    return units


def environment(seed):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints instead
        blas = "unknown"
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "seed": seed}


def latencies(workload, outcome):
    """Latency percentiles and throughput under the workload's own names."""
    import numpy as np
    name = OP_NAMES[workload]
    out = {f"{name}_p{q}": float(np.percentile(outcome.op_ms, q)) for q in (50, 90)}
    out["images_per_s"] = outcome.images / outcome.wall_s
    if workload == "train":
        out["train_s"] = outcome.wall_s
    return out


def end_to_end(outcome, setup_s):
    return {"setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "images_per_s": outcome.images / outcome.wall_s}


def import_seconds():
    """Wall time of a fresh interpreter importing everything a workload uses."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import workloads"], env=env, check=True)
    return time.perf_counter() - t


def per_layer(summary, outcome, untraced_wall_s, layers):
    ops, wall = outcome.ops, outcome.wall_s
    v = {f"{l}.self_ms_per_op": summary.self_s[l] * 1e3 / ops for l in TIMED_LAYERS}
    v["tensor.apply.ms_per_op"] = summary.prefixed(summary.total, "tensor.apply") * 1e3 / ops
    for k in APPLY_KINDS:
        v[f"tensor.apply.{k}.ms_per_op"] = summary.total[f"tensor.apply.{k}"] * 1e3 / ops
    v.update({f"{l}.self_pct": 100 * summary.self_s[l] / wall for l in layers})
    v.update({f"{f}.calls_per_op": summary.prefixed(summary.calls, f) / ops
              for f in COUNTED})
    v["trace_overhead_pct"] = 100 * (wall / untraced_wall_s - 1)
    return v


def named_layers(workload, spans, outcome, Summary):
    """The per-layer figures under the workload's own names (README table)."""
    s = Summary(spans, outcome.window)
    ops = outcome.ops
    if workload == "train":
        m = Summary(spans, outcome.window, scope="seq2seq.train_model")
        out = {f"{n}.ms_per_step": m.total[n] * 1e3 / ops for n in
               ("seq2seq.forward_loss", "tensor.backward", "optim.adafactor_step")}
        out["tensor.apply.calls_per_step"] = m.prefixed(m.calls, "tensor.apply") / ops
        out.update({f"tensor.apply.{k}.ms_per_step": m.total[f"tensor.apply.{k}"] * 1e3 / ops
                    for k in APPLY_KINDS})
        out.update({f"{n}.s": s.total[n] for n in
                    ("vq.train_tokenizer", "vq.tokenize", "seq2seq.train_model",
                     "contrastive.train_contrastive")})
        return out
    if workload == "interactive":
        out = {f"{n}.ms_per_request": s.total[n] * 1e3 / ops for n in
               ("seq2seq.encode_text", "sampling.sample_token_batch",
                "vq.detokenize", "sampling.rerank", "contrastive.embed_image")}
        out["seq2seq.encode_text.calls_per_request"] = s.calls["seq2seq.encode_text"] / ops
        out["sampling.guided_logits.calls_per_request"] = s.calls["sampling.guided_logits"] / ops
        return out
    images = outcome.images
    out = {f"cli.{n}.s": s.total[f"cli.cmd_{n}"] for n in ("sample", "rerank", "eval_alignment")}
    out.update({f"{n}.ms_per_prompt": s.total[n] * 1e3 / ops
                for n in ("sampling.sample_token_batch", "vq.detokenize")})
    out["checkpoint.load_encoder.ms"] = s.total["checkpoint.load_encoder"] * 1e3
    out["checkpoint.load_encoder.calls"] = s.calls["checkpoint.load_encoder"]
    out.update({f"{n}.ms_per_image": s.total[n] * 1e3 / images
                for n in ("pngio.write_png", "pngio.read_png", "metrics.caption_fidelity")})
    out["metrics.alignment_oracle.calls_per_image"] = s.calls["metrics.alignment_oracle"] / images
    return out


def run(workload, seed, seconds, trace, work, trace_path):
    """Set up and run one workload; returns (report, result) dicts."""
    import workloads
    import spans
    first_import_s = time.perf_counter() - _T0
    setup, timed, op_kind = workloads.WORKLOADS[workload]
    # set-up time = a fresh interpreter's imports + building the inputs;
    # the median of SETUP_REPS repetitions
    reps = []
    for _ in range(SETUP_REPS):
        import_s = import_seconds()
        t = time.perf_counter()
        inp = setup(seed, seconds, work)
        reps.append({"import_s": import_s, "inputs_s": time.perf_counter() - t})
    setup_s = statistics.median(r["import_s"] + r["inputs_s"] for r in reps)
    outcome = timed(inp)
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": environment(seed), "op": op_kind,
              "ops": outcome.ops, "op_samples": len(outcome.op_ms),
              "digest": outcome.digest, "notes": outcome.notes}
    report["setup"] = {"first_import_s": first_import_s, "reps": reps}
    report["as_named"] = latencies(workload, outcome)
    if not trace:
        metrics = end_to_end(outcome, setup_s)
        units = E2E_UNITS
        attempted, failed = outcome.attempted, outcome.failed
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = timed(inp, tracer)
        finally:
            tracer.uninstall()
        # tracing must not change a single output bit
        same = traced.digest == outcome.digest
        attempted = traced.attempted
        failed = traced.failed if same else attempted
        summary = spans.Summary(tracer.spans, traced.window)
        metrics = per_layer(summary, traced, outcome.wall_s, spans.LAYERS)
        units = per_layer_units(spans.LAYERS)
        report.update({
            "digest_traced": traced.digest, "digests_equal": same,
            "spans": len(tracer.spans),
            "as_named_traced": latencies(workload, traced),
            "layers": named_layers(workload, tracer.spans, traced, spans.Summary),
            "self_ms_per_op": {l: summary.self_s[l] * 1e3 / traced.ops
                               for l in spans.LAYERS}})
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return report, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "interactive", "batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ttig" / "__init__.py").is_file():
        print(f"no ttig source tree at {ROOT / 'src'}; run from a ttig checkout",
              file=sys.stderr)
        return 2
    # before numpy is imported: one BLAS thread, for this process only
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report, result = run(args.workload, args.seed, args.seconds, args.trace, work,
                             HERE / "out" / f"trace-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
