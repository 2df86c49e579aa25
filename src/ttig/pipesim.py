"""Deterministic simulator of pipeline and in-layer parallelism costs.

A pipeline of S stages runs S*R model chunks round-robin (chunk c's stage s
lives on device s), so R=1 is the classic fill-drain schedule and R>1 is the
circular schedule that shrinks the bubble. The simulator is an event-driven
list scheduler: a free device runs the ready task with the smallest
(backward?, chunk, microbatch) key, and under R=1 a device additionally
finishes all its forwards before its first backward. Everything is pure and
replayable; bubble values come from the trace, never from a formula.

Sharding costs model one feed-forward layer partitioned on d_mlp and compare
AllReduce against ReduceScatter+AllGather: identical bytes on the wire, but
the scattered output shrinks peak activation memory by the shard count.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import DataError

# stage count of the full-scale deployment's pipeline
FULL_SCALE_STAGES = 16


@dataclass(frozen=True)
class PipelineSpec:
    stages: int = FULL_SCALE_STAGES
    microbatches: int = 8
    rounds: int = 1
    t_f: float = 1.0
    t_b: float = 1.0
    latency: float = 0.0

    def validate(self) -> "PipelineSpec":
        if self.stages < 1 or self.microbatches < 1 or self.rounds < 1:
            raise DataError("stages, microbatches and rounds must all be >= 1")
        if self.t_f < 0 or self.t_b < 0 or self.latency < 0:
            raise DataError("costs must be >= 0")
        return self


@dataclass(frozen=True)
class Task:
    stage: int
    chunk: int
    microbatch: int
    direction: str   # "f" or "b"


@dataclass
class ScheduleTrace:
    spec: PipelineSpec
    devices: list            # devices[d] = ordered [(Task, start, end), ...]
    makespan: float


def _chain(spec: PipelineSpec, m: int):
    """Forward tasks of microbatch m in execution order, then backwards."""
    fwd = [Task(p % spec.stages, p // spec.stages, m, "f")
           for p in range(spec.stages * spec.rounds)]
    bwd = [Task(t.stage, t.chunk, m, "b") for t in reversed(fwd)]
    return fwd, bwd


def _dependencies(spec: PipelineSpec):
    """task -> list of (dep task, link latency)."""
    deps = {}
    for m in range(spec.microbatches):
        fwd, bwd = _chain(spec, m)
        prev = None
        for t in fwd:
            deps[t] = [] if prev is None else [
                (prev, spec.latency if prev.stage != t.stage else 0.0)]
            prev = t
        # the first backward consumes the last forward on the same device
        deps[bwd[0]] = [(fwd[-1], 0.0)]
        for a, b in zip(bwd, bwd[1:]):
            deps[b] = [(a, spec.latency if a.stage != b.stage else 0.0)]
    return deps


def _policy_key(t: Task):
    return (t.direction == "b", t.chunk, t.microbatch)


def simulate_pipeline(spec: PipelineSpec) -> ScheduleTrace:
    spec.validate()
    deps = _dependencies(spec)
    duration = {"f": spec.t_f, "b": spec.t_b}
    end_at = {}
    dev_free = [0.0] * spec.stages
    fwd_left = [spec.rounds * spec.microbatches] * spec.stages
    devices = [[] for _ in range(spec.stages)]
    unscheduled = set(deps)

    while unscheduled:
        # per device: the task it would start next, and when
        best = None
        for dev in range(spec.stages):
            choice = None
            for t in unscheduled:
                if t.stage != dev:
                    continue
                if spec.rounds == 1 and t.direction == "b" and fwd_left[dev]:
                    continue  # fill-drain: forwards first on each device
                if any(d not in end_at for d, _ in deps[t]):
                    continue
                ready = max((end_at[d] + lat for d, lat in deps[t]), default=0.0)
                start = max(ready, dev_free[dev])
                cand = (start, _policy_key(t), t)
                if choice is None or cand[:2] < choice[:2]:
                    choice = cand
            if choice is None:
                continue
            if best is None or (choice[0], dev) < (best[0], best[3]):
                best = (choice[0], choice[1], choice[2], dev)
        start, _, task, dev = best
        end = start + duration[task.direction]
        end_at[task] = end
        dev_free[dev] = end
        if task.direction == "f":
            fwd_left[dev] -= 1
        devices[dev].append((task, start, end))
        unscheduled.remove(task)

    makespan = max(dev_free)
    return ScheduleTrace(spec=spec, devices=devices, makespan=makespan)


def bubble_ratio(trace: ScheduleTrace) -> float:
    """Idle fraction of the device-time rectangle: (S*makespan - work)/(S*makespan)."""
    n_dev = len(trace.devices)
    total = sum(end - start for dev in trace.devices for _, start, end in dev)
    if n_dev == 0 or total == 0:
        raise DataError("bubble_ratio of an empty trace")
    area = n_dev * trace.makespan
    return (area - total) / area


def validate_trace(trace: ScheduleTrace):
    """Raise if tasks overlap on a device or any dependency is violated."""
    spec = trace.spec
    deps = _dependencies(spec)
    end_at = {}
    for dev in trace.devices:
        last = 0.0
        for task, start, end in dev:
            if start < last - 1e-9:
                raise DataError(f"device overlap at {task}")
            last = end
            end_at[task] = end
    for dev in trace.devices:
        for task, start, _ in dev:
            for d, lat in deps[task]:
                if start + 1e-9 < end_at[d] + lat:
                    raise DataError(f"{task} starts before dependency {d} clears")
    if set(end_at) != set(deps):
        raise DataError("trace does not cover every task")


def critical_path_bound(spec: PipelineSpec) -> float:
    """max(busiest-device work, one microbatch's full chain with latencies)."""
    spec.validate()
    per_dev = spec.rounds * spec.microbatches * (spec.t_f + spec.t_b)
    fwd, bwd = _chain(spec, 0)
    chain = fwd + bwd
    lat = sum(spec.latency for a, b in zip(chain, chain[1:]) if a.stage != b.stage)
    path = spec.stages * spec.rounds * (spec.t_f + spec.t_b) + lat
    return max(per_dev, path)


def trace_to_json(trace: ScheduleTrace) -> dict:
    return {
        "spec": asdict(trace.spec),
        "devices": [
            {"tasks": [{"stage": t.stage, "chunk": t.chunk, "microbatch": t.microbatch,
                        "dir": t.direction, "start": start, "end": end}
                       for t, start, end in dev]}
            for dev in trace.devices
        ],
        "makespan": trace.makespan,
    }


def write_trace(trace: ScheduleTrace, path):
    Path(path).write_text(json.dumps(trace_to_json(trace), indent=2))


def sweep_rows(specs, prologue: float = 0.0, epilogue: float = 0.0,
               dp_ways: int = 1):
    """Simulate each spec; rows for the CSV summary. Embedding/softmax work
    outside the pipeline is a fixed prologue/epilogue, and data parallelism
    only multiplies reported throughput."""
    rows = []
    for spec in specs:
        trace = simulate_pipeline(spec)
        ratio = bubble_ratio(trace)
        total = prologue + trace.makespan + epilogue
        rows.append({
            **asdict(spec), "makespan": trace.makespan,
            "bubble_ratio": ratio, "total_time": total,
            "dp_ways": dp_ways,
            "microbatches_per_time": dp_ways * spec.microbatches / total,
        })
    return rows


def write_sweep_csv(rows, path):
    if not rows:
        raise DataError("empty sweep")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# in-layer sharding

STRATEGIES = ("allreduce", "reducescatter_allgather")


@dataclass(frozen=True)
class ShardSpec:
    n_way: int = 4
    batch: int = 16
    seq: int = 256
    d_model: int = 1024
    d_mlp: int = 4096
    strategy: str = "allreduce"
    element_size: int = 2      # bf16 wire format

    def validate(self) -> "ShardSpec":
        if self.n_way < 1:
            raise DataError("n_way must be >= 1")
        if min(self.batch, self.seq, self.d_model, self.d_mlp) < 1:
            raise DataError("all layer dims must be >= 1")
        if self.strategy not in STRATEGIES:
            raise DataError(f"strategy must be one of {STRATEGIES}")
        if self.d_mlp % self.n_way:
            raise DataError(f"n_way={self.n_way} must divide d_mlp={self.d_mlp}")
        if (self.batch * self.seq * self.d_model) % self.n_way:
            raise DataError("n_way must divide the output element count")
        return self


def shard_cost(spec: ShardSpec) -> dict:
    """Per-device comm bytes and peak activation elements for one FF layer.

    Weights are split on d_mlp, so every device produces a partial sum of the
    full (batch, seq, d_model) output. AllReduce materializes the summed
    replica everywhere; ReduceScatter leaves each device 1/n of it (the
    AllGather that rebuilds a full input for the next layer moves the same
    bytes, which is why the wire cost ties).
    """
    spec.validate()
    out_elems = spec.batch * spec.seq * spec.d_model
    n = spec.n_way
    comm = 2.0 * (n - 1) / n * out_elems * spec.element_size
    if spec.strategy == "allreduce":
        peak = out_elems
    else:
        peak = out_elems // n
    return {
        "comm_bytes_per_layer": comm,
        "peak_activation_elems": peak,
        "gathered_input_elems": out_elems,
    }
