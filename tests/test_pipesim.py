"""Schedule simulator invariants, closed-form bubbles, and sharding costs."""

import csv
import json

import pytest

from ttig import pipesim
from ttig.errors import DataError
from ttig.pipesim import PipelineSpec, ShardSpec


def _run(stages, microbatches, rounds=1, **kw):
    spec = PipelineSpec(stages=stages, microbatches=microbatches,
                        rounds=rounds, **kw)
    return pipesim.simulate_pipeline(spec)


def test_single_stage_single_microbatch():
    trace = _run(1, 1)
    assert trace.makespan == 2.0
    assert pipesim.bubble_ratio(trace) == 0.0


def test_single_stage_never_bubbles():
    trace = _run(1, 5)
    assert trace.makespan == 10.0
    assert pipesim.bubble_ratio(trace) == 0.0


def test_two_stage_one_microbatch_chain():
    # f0 f1 b1 b0 strictly serial when there is nothing to overlap
    trace = _run(2, 1)
    assert trace.makespan == 4.0
    assert pytest.approx(pipesim.bubble_ratio(trace)) == 0.5


def test_fill_drain_closed_form():
    # uniform costs, zero latency, one round: bubble = (S-1)/(M+S-1)
    for s, m in [(s, m) for s in range(1, 9) for m in range(1, 17)]:
        trace = _run(s, m)
        want = (s - 1) / (m + s - 1)
        assert pytest.approx(pipesim.bubble_ratio(trace), abs=1e-12) == want


def test_fill_drain_makespan_value():
    # S=4, M=8: work 16 per device, bubble 3/11 -> makespan 22
    trace = _run(4, 8)
    assert trace.makespan == 22.0
    assert pytest.approx(pipesim.bubble_ratio(trace)) == 3.0 / 11.0


def test_latency_stretches_the_chain():
    trace = _run(2, 1, latency=0.5)
    # two cross-device hops at 0.5 each; the f->b turnaround is local
    assert trace.makespan == 5.0


def test_unequal_forward_backward_costs():
    trace = _run(1, 2, t_f=1.0, t_b=3.0)
    assert trace.makespan == 8.0


def test_more_rounds_shrink_the_bubble():
    r1 = pipesim.bubble_ratio(_run(4, 4, rounds=1))
    r2 = pipesim.bubble_ratio(_run(4, 4, rounds=2))
    assert r2 < r1
    # the paper's 16-stage, 8-microbatch pipeline, and never worse on a grid
    assert (pipesim.bubble_ratio(_run(16, 8, rounds=4))
            < pipesim.bubble_ratio(_run(16, 8, rounds=1)))
    for s in (2, 4, 8):
        for m in (2, 4, 8, 16):
            assert (pipesim.bubble_ratio(_run(s, m, rounds=2))
                    <= pipesim.bubble_ratio(_run(s, m, rounds=1)) + 1e-12)


def test_round_robin_chunk_placement():
    # with R=2, S=2 each device owns two chunks of the model
    trace = _run(2, 1, rounds=2)
    chunks_on = [{t.chunk for t, _, _ in dev} for dev in trace.devices]
    assert chunks_on == [{0, 1}, {0, 1}]


def test_trace_is_deterministic():
    a = pipesim.trace_to_json(_run(3, 4, rounds=2, t_f=0.7, t_b=1.3))
    b = pipesim.trace_to_json(_run(3, 4, rounds=2, t_f=0.7, t_b=1.3))
    assert a == b


def test_validate_trace_accepts_simulator_output():
    for s, m, r in [(1, 1, 1), (4, 8, 1), (3, 4, 2)]:
        pipesim.validate_trace(_run(s, m, r))


def test_validate_trace_catches_tampering():
    trace = _run(2, 2)
    task, start, end = trace.devices[1][0]
    trace.devices[1][0] = (task, start - 1.0, end - 1.0)
    with pytest.raises(DataError):
        pipesim.validate_trace(trace)


def test_validate_trace_catches_missing_tasks():
    trace = _run(2, 2)
    trace.devices[0].pop()
    with pytest.raises(DataError):
        pipesim.validate_trace(trace)


def test_critical_path_bound_is_a_lower_bound():
    for s, m, r, lat in [(2, 2, 1, 0.0), (4, 8, 1, 0.0), (3, 3, 2, 0.2),
                         (5, 2, 1, 1.0)]:
        spec = PipelineSpec(stages=s, microbatches=m, rounds=r, latency=lat)
        trace = pipesim.simulate_pipeline(spec)
        assert pipesim.critical_path_bound(spec) <= trace.makespan + 1e-9


def test_bound_is_tight_without_contention():
    spec = PipelineSpec(stages=1, microbatches=7)
    assert pipesim.critical_path_bound(spec) == \
        pipesim.simulate_pipeline(spec).makespan


def test_spec_validation():
    with pytest.raises(DataError):
        PipelineSpec(stages=0, microbatches=1).validate()
    with pytest.raises(DataError):
        PipelineSpec(stages=1, microbatches=0).validate()
    with pytest.raises(DataError):
        PipelineSpec(stages=1, microbatches=1, rounds=0).validate()
    with pytest.raises(DataError):
        PipelineSpec(stages=1, microbatches=1, t_f=-1.0).validate()


def test_zero_work_trace_rejected():
    trace = _run(2, 2, t_f=0.0, t_b=0.0)
    with pytest.raises(DataError):
        pipesim.bubble_ratio(trace)


def test_trace_json_schema(tmp_path):
    trace = _run(2, 3)
    blob = pipesim.trace_to_json(trace)
    assert set(blob) == {"spec", "devices", "makespan"}
    assert blob["spec"]["stages"] == 2
    assert len(blob["devices"]) == 2
    first = blob["devices"][0]["tasks"][0]
    assert set(first) == {"stage", "chunk", "microbatch", "dir", "start", "end"}
    path = tmp_path / "trace.json"
    pipesim.write_trace(trace, path)
    assert json.loads(path.read_text()) == blob


def test_sweep_rows_and_csv(tmp_path):
    specs = [PipelineSpec(stages=2, microbatches=m) for m in (1, 2, 4)]
    rows = pipesim.sweep_rows(specs, prologue=1.0, epilogue=2.0, dp_ways=3)
    assert [r["microbatches"] for r in rows] == [1, 2, 4]
    for r in rows:
        assert r["total_time"] == r["makespan"] + 3.0
        assert r["dp_ways"] == 3
        assert r["microbatches_per_time"] == pytest.approx(
            3 * r["microbatches"] / r["total_time"])
    path = tmp_path / "sweep.csv"
    pipesim.write_sweep_csv(rows, path)
    with open(path) as f:
        got = list(csv.DictReader(f))
    assert list(got[0]) == ["stages", "microbatches", "rounds", "t_f", "t_b",
                            "latency", "makespan", "bubble_ratio",
                            "total_time", "dp_ways", "microbatches_per_time"]
    assert len(got) == 3


def test_empty_sweep_rejected(tmp_path):
    with pytest.raises(DataError):
        pipesim.write_sweep_csv([], tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# sharding

def test_shard_cost_formulas():
    spec = ShardSpec(n_way=4, batch=2, seq=8, d_model=16, d_mlp=64)
    out = pipesim.shard_cost(spec)
    elems = 2 * 8 * 16
    assert out["comm_bytes_per_layer"] == 2.0 * 3 / 4 * elems * 2
    assert out["peak_activation_elems"] == elems
    assert out["gathered_input_elems"] == elems


def test_scatter_divides_peak_by_shard_count():
    kw = dict(batch=2, seq=8, d_model=16, d_mlp=64)
    for n in (1, 2, 4):
        ar = pipesim.shard_cost(ShardSpec(n_way=n, strategy="allreduce", **kw))
        sc = pipesim.shard_cost(
            ShardSpec(n_way=n, strategy="reducescatter_allgather", **kw))
        assert sc["comm_bytes_per_layer"] == ar["comm_bytes_per_layer"]
        assert sc["peak_activation_elems"] * n == ar["peak_activation_elems"]


def test_single_way_is_free():
    spec = ShardSpec(n_way=1, batch=1, seq=4, d_model=8, d_mlp=32)
    assert pipesim.shard_cost(spec)["comm_bytes_per_layer"] == 0.0


def test_shard_spec_validation():
    good = dict(batch=2, seq=8, d_model=16, d_mlp=64)
    with pytest.raises(DataError):
        ShardSpec(n_way=0, **good).validate()
    with pytest.raises(DataError):
        ShardSpec(n_way=3, **good).validate()          # 3 does not divide 64
    with pytest.raises(DataError):
        ShardSpec(n_way=2, batch=2, seq=8, d_model=16, d_mlp=64,
                  strategy="ring").validate()
    with pytest.raises(DataError):
        ShardSpec(n_way=2, batch=0, seq=8, d_model=16, d_mlp=64).validate()
    with pytest.raises(DataError):
        # divides d_mlp but not the output element count
        ShardSpec(n_way=5, batch=1, seq=1, d_model=4, d_mlp=10).validate()


def test_element_size_scales_bytes():
    kw = dict(n_way=2, batch=1, seq=4, d_model=8, d_mlp=16)
    b2 = pipesim.shard_cost(ShardSpec(element_size=2, **kw))
    b4 = pipesim.shard_cost(ShardSpec(element_size=4, **kw))
    assert b4["comm_bytes_per_layer"] == 2 * b2["comm_bytes_per_layer"]
