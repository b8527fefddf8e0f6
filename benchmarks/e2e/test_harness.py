"""Tests for the benchmark's arithmetic; no server is started.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from harness import Span  # noqa: E402


def test_percentile_interpolates_like_numpy():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == pytest.approx(50.5)
    assert harness.percentile(values, 90) == pytest.approx(90.1)
    assert harness.percentile([3.0], 99) == 3.0


def test_percentile_reaching_failures_is_infinite():
    values = [1.0] * 8 + [math.inf] * 2
    assert harness.percentile(values, 50) == 1.0
    assert math.isinf(harness.percentile(values, 90))


@pytest.mark.parametrize(
    "n, pct, beyond, eligible",
    [
        (100, 90, 10, True),
        (99, 90, 9, False),
        (1000, 99, 10, True),
        (999, 99, 9, False),
        (20, 50, 10, True),
        (19, 50, 9, False),
    ],
)
def test_percentile_eligibility_needs_ten_beyond(n, pct, beyond, eligible):
    assert harness.beyond(n, pct) == beyond
    assert harness.eligible(n, pct) is eligible


def test_self_time_with_overlapping_children_from_two_threads():
    spans = [
        Span(1, None, "parent", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 5.0),  # thread 1
        Span(3, 1, "b", 3.0, 8.0),  # thread 2, overlaps a
        Span(4, 2, "a.child", 2.0, 3.0),
        Span(5, 1, "late", 9.5, 11.0),  # clipped to the parent
    ]
    own = harness.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(5.0)
    assert own[4] == pytest.approx(1.0)


def test_union_length_merges_touching_and_nested_intervals():
    assert harness.union_length([]) == 0.0
    assert harness.union_length([(0, 2), (2, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_open_loop_latency_is_timed_from_the_due_time():
    dues = [0.0, 0.25, 0.5, 0.75]
    # The tick due at 0.25 went out late, behind a stalled first tick.
    sent = [0.0, 0.40, 0.5, 0.75]
    done = [0.35, 0.45, 0.52, 0.8]
    assert harness.from_due(dues, sent) == pytest.approx([0.0, 0.15, 0.0, 0.0])
    assert harness.from_due(dues, done) == pytest.approx([0.35, 0.2, 0.02, 0.05])
    # The reader's second refresh covered ticks 1 and 2 at once; tick 3
    # was never viewed.
    views = [(0, 0.6), (2, 0.9)]
    assert harness.tick_to_view(dues, views) == pytest.approx([0.6, 0.65, 0.4])


def test_self_times_plus_residual_equal_client_latency():
    # Two requests, each a serving span wrapping middleware and app.
    spans = [
        Span(1, None, "serving", 0.010, 0.050, "r1"),
        Span(2, 1, "middleware", 0.012, 0.048, "r1"),
        Span(3, 2, "app", 0.013, 0.040, "r1"),
        Span(4, 3, "json_codec", 0.030, 0.038, "r1", 900),
        Span(5, None, "serving", 0.100, 0.120, "r2"),
        Span(6, 5, "app", 0.101, 0.119, "r2"),
    ]
    client = (0.055 - 0.008) + (0.124 - 0.099)
    layers_ = harness.attribute(spans)
    assert layers_["serving"]["calls"] == 2
    assert layers_["app"]["self_s"] == pytest.approx(0.019 + 0.018)
    attributed = sum(entry["self_s"] for entry in layers_.values())
    assert attributed == pytest.approx(0.040 + 0.020)
    rest = harness.residual(client, layers_)
    assert rest == pytest.approx(client - 0.060)
    assert attributed + rest == pytest.approx(client)


class _Run:
    def __init__(self, samples, lateness_ms=()):
        self.samples = samples
        self.lateness_ms = list(lateness_ms)


class _Phase:
    def __init__(self, samples, spans=(), counters=None, profiler_samples=0):
        self.run = _Run(samples)
        self.trace = {"spans": [list(s) for s in spans], "queue_waits": [0.001, 0.002]}
        empty = {"counters": []}
        self.counters = counters or (empty, empty)
        self.profiler_samples = profiler_samples
        self.warmup_s = 1.5


def _counter(name, value, **labels):
    return {"name": name, "labels": labels, "value": value}


def test_per_layer_table_closes_the_latency_budget():
    from loadgen import Sample

    samples = [
        Sample("a", 0.008, 0.055, 200, "r1"),
        Sample("b", 0.099, 0.124, 200, "r2"),
    ]
    spans = [
        Span(1, None, "serving", 0.010, 0.050, "r1"),
        Span(2, 1, "middleware", 0.012, 0.048, "r1"),
        Span(3, 2, "app", 0.013, 0.040, "r1"),
        Span(4, 3, "json_codec", 0.030, 0.038, "r1", 900),
        Span(5, None, "serving", 0.100, 0.120, "r2"),
        Span(6, 5, "app", 0.101, 0.119, "r2"),
        Span(7, 6, "singleflight", 0.102, 0.110, "r2", "waiter"),
    ]
    before = {"counters": [_counter("pipeline_cache_total", 5, op="embed", result="hit")]}
    after = {"counters": [
        _counter("pipeline_cache_total", 8, op="embed", result="hit"),
        _counter("pipeline_singleflight_total", 1, op="embed", result="leader"),
    ]}
    traced = _Phase(samples, spans, (before, after))
    plain = _Phase([s._replace(end=s.end - 0.002) for s in samples])
    profiled = _Phase(samples, profiler_samples=321)
    out = layers.per_layer(traced, plain, profiled)
    assert set(out) == set(layers.metric_units())
    assert out["serving.connections"] == 2
    assert out["app.self_ms"] == pytest.approx((19 + 10) / 2)
    assert out["singleflight.wait_ms"] == pytest.approx(8.0)
    assert out["json_codec.bytes"] == 900
    assert out["singleflight.hit"] == 3
    assert out["singleflight.useful_ratio"] == pytest.approx(1 / 4)
    assert out["trace.client_ms"] == pytest.approx((47 + 25) / 2)
    assert out["trace.attributed_ms"] == pytest.approx(60 / 2)
    assert out["trace.attributed_ms"] + out["trace.residual_ms"] == pytest.approx(
        out["trace.client_ms"]
    )
    assert out["obs.trace_overhead_pct"] == pytest.approx(100 * (36 / 34 - 1))
    assert out["obs.profiler_samples"] == 321


def test_verdict_flags_a_regression_beyond_the_bound():
    a = [100, 101, 99, 100, 100]
    assert harness.verdict(a, [112, 111, 113, 112, 112], "lower", 0.10) == "regression"
    assert harness.verdict(a, [108, 107, 109, 108, 108], "lower", 0.10) == "ok"
    assert harness.verdict(a, [88, 89, 87, 88, 88], "higher", 0.10) == "regression"
    assert harness.verdict(a, [120, 121, 119, 120, 120], "higher", 0.10) == "ok"


def test_verdict_is_unresolved_when_the_spread_exceeds_the_bound():
    a = [80, 90, 100, 110, 120]
    assert harness.relative_spread(a) > 0.10
    assert harness.verdict(a, [99, 100, 101, 100, 100], "lower", 0.10) == "unresolved"


def test_every_run_winning_resolves_a_noisy_comparison():
    a = [80, 90, 100, 110, 120]
    b = [60, 65, 70, 75, 79]
    assert harness.every_run_wins(a, b, "lower")
    assert harness.verdict(a, b, "lower", 0.10) == "ok"
    assert not harness.every_run_wins(a, b + [81], "lower")
    assert harness.verdict(a, b + [81], "lower", 0.10) == "unresolved"


def test_compare_reads_documents_and_rows(tmp_path):
    def doc(value):
        return {"workload": "w", "trace": 0, "metrics": {"latency_p50_ms": {"value": value}}}

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps([doc(10.0), doc(10.1), doc(9.9)]))
    b.write_text(json.dumps([doc(12.0), doc(12.1), doc(11.9)]))
    specs = [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]
    (row,) = compare.compare(compare.load([str(a)]), compare.load([str(b)]), specs)
    assert row["verdict"] == "regression"
    assert row["change"] == pytest.approx(0.2)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == {
        name: (unit, "higher" if name in layers.HIGHER_IS_BETTER else "lower")
        for name, unit in layers.metric_units().items()
    }
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
