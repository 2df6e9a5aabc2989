"""Tests of the benchmark's own metric arithmetic.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import run  # noqa: E402


def test_tail_has_exactly_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct, n = harness.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_ignores_input_order_and_uses_the_sample_count():
    values = [5.0, 0.1, 3.0, 9.0, 7.0, 2.0, 8.0, 1.0, 6.0, 4.0, 10.0, 0.5]
    value, pct, n = harness.tail(values)
    assert value == 0.5 and n == 12
    assert pct == pytest.approx(100.0 * 2 / 12)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10)


def test_fail_share_counts_against_attempted():
    assert harness.fail_share(16, 96) == pytest.approx(1 / 6)
    assert harness.fail_share(0, 5) == 0.0
    with pytest.raises(ValueError):
        harness.fail_share(1, 0)
    with pytest.raises(ValueError):
        harness.fail_share(6, 5)


def _span(name, start, end, parent=None):
    return harness.Span(name, start, end, parent, op=0, round=1)


def test_self_time_subtracts_children():
    spans = [_span("op", 0.0, 10.0), _span("a", 1.0, 3.0, 0), _span("b", 5.0, 9.0, 0), _span("c", 6.0, 7.0, 2)]
    assert harness.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("op", 0.0, 10.0), _span("a", 1.0, 5.0, 0), _span("b", 4.0, 6.0, 0)]
    assert harness.self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_records_parent_operation_and_failure():
    t = harness.Tracer()
    t.op, t.round = 7, 1

    def inner():
        raise KeyError("x")

    def outer():
        with pytest.raises(KeyError):
            t.call("inner", inner)
        return 3

    assert t.call("outer", outer) == 3
    outer_span, inner_span = t.spans
    assert inner_span.parent == 0 and outer_span.parent is None
    assert inner_span.failed and not outer_span.failed
    assert {s.op for s in t.spans} == {7}
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end


class _Workload:
    """Op 0 works, op 1 raises, op 2 fails its check, op 3 is a known defect."""

    @staticmethod
    def run_op(op, t):
        if op == 1:
            raise RuntimeError("boom")
        return t.call("layer.fn", lambda: op)

    @staticmethod
    def check(op, out):
        if op == 2:
            raise AssertionError("wrong")
        return "known" if op == 3 else None

    @staticmethod
    def digest(op, out):
        return out

    @staticmethod
    def op_counts(op, out):
        return {"layer.value": out}


def test_round_loop_counts_failures_per_execution():
    result = harness.run_rounds(_Workload, [0, 1, 2, 3], seconds=0.0, trace=False, min_rounds=3)
    assert result.attempted == 12
    # op 1 raises in each round; op 2 fails its check, then has no digest to match
    assert result.failed == 6
    assert result.failed_ops() == 3
    assert [r.known_defect for r in result.records] == [None, None, None, "known"]
    assert result.op_counts == [{"layer.value": 0}, {}, {}, {"layer.value": 3}]


def test_traced_rounds_alternate_and_give_per_round_stats():
    result = harness.run_rounds(_Workload, [0, 3], seconds=0.0, trace=True, min_rounds=3)
    assert len(result.rounds_untraced) == 3 and len(result.rounds_traced) == 2
    stats = harness.layer_stats(result.tracer.spans, len(result.rounds_traced))
    assert stats["op"]["calls"] == 2 and stats["layer.fn"]["calls"] == 2
    assert all(len(r.latencies) == 3 for r in result.records)


def test_count_reduction_sums_and_averages():
    per_op = [{"a.iterations_mean": 4, "b.count": 1}, {"a.iterations_mean": 6, "b.count": 2}, {}]
    assert run.reduce_counts(per_op) == {"a.iterations_mean": 5.0, "b.count": 3}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


class _Part:
    def __init__(self, name, n, bad=None):
        self.name, self.n, self.bad = name, n, bad

    def generate(self, seed, workdir):
        return [f"{self.name}{i}" for i in range(self.n)]

    def run_op(self, op, t):
        return op

    def check(self, op, out):
        return None

    def digest(self, op, out):
        return out

    def op_counts(self, op, out):
        return {}

    def check_batch(self, ops, counts):
        return {ops.index(self.bad): "pooled check failed"} if self.bad else {}


def test_mix_interleaves_parts_and_maps_batch_failures_back():
    a, b = _Part("a", 4), _Part("b", 2, bad="b1")
    mix = harness.Mix([a, b])
    ops = mix.generate(0, "")
    assert [op for _, op in ops] == ["a0", "b0", "a1", "a2", "b1", "a3"]
    assert mix.run_op(ops[1], harness.NullTracer()) == "b0"
    assert mix.check_batch(ops, [{}] * len(ops)) == {4: "pooled check failed"}
