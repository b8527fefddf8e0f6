"""Per-layer metrics of a traced run.

Times come from the span recorders ``server.py --trace`` installs; each
``<layer>.self_ms`` is that layer's self time summed over the measured
window and divided by the requests completed, so the self times plus
``trace.residual_ms`` add up to ``trace.client_ms``, the mean latency the
client saw.  Counts come from the program's own counters (``GET
/api/metrics``), as the difference between snapshots taken just before
and just after the measured window.
"""

from __future__ import annotations

from harness import Span, attribute, percentile, residual

PIPELINE_OPS = (
    "embed", "density", "shift", "granularity_sweep", "quantile_sweep",
    "rollups_catch_up", "pattern_of", "profile_of",
)

# Every span name server.py records, in table order.
SPAN_NAMES = (
    "serving", "middleware", "app", "tenancy", "json_codec",
    *(f"pipeline.{op}" for op in PIPELINE_OPS),
    "singleflight", "reduction.features", "reduction.tsne",
    "shift.kde", "shift.flows", "shift.sweep",
    "patterns.select", "patterns.propose", "patterns.label",
    "rollup.apply_hours", "rollup.bucket_field", "rollup.window_field",
    "db.demand", "db.readings_for", "db.ingest_hours", "stream.apply",
)

# Span names whose call counts are reported too (``<name>.calls``; the
# serving layer's count is ``serving.connections``).
CALLED = (
    "serving", "json_codec", *(f"pipeline.{op}" for op in PIPELINE_OPS),
    "reduction.tsne", "shift.kde", "rollup.apply_hours",
    "rollup.bucket_field", "stream.apply",
)

# (metric, counter name, label filter) read from /api/metrics.
COUNTERS = (
    ("middleware.shed_total", "http_throttled_total", {}),
    ("singleflight.hit", "pipeline_cache_total", {"result": "hit"}),
    ("singleflight.leader", "pipeline_singleflight_total", {"result": "leader"}),
    ("singleflight.waiter", "pipeline_singleflight_total", {"result": "waiter"}),
    ("rollup.hours_applied", "rollup_hours_applied_total", {}),
    ("rollup.fallbacks", "pipeline_rollup_fallback_total", {}),
    ("parallel.runs", "parallel_pool_runs_total", {"mode": "fork"}),
    ("parallel.fallbacks", "parallel_fallback_total", {}),
)


# Per-layer metrics where more is better; for every other one, less is.
HIGHER_IS_BETTER = frozenset({
    "serving.connections", "singleflight.hit", "singleflight.waiter",
    "shift.kde.binned_share", "obs.trace_requests", "obs.profiler_samples",
})


def _calls(name: str) -> str:
    return "serving.connections" if name == "serving" else f"{name}.calls"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        if name in CALLED:
            units[_calls(name)] = "count"
        units[f"{name}.self_ms"] = "ms/req"
    units.update({
        "serving.queue_wait_p90_ms": "ms",
        "json_codec.bytes": "B",
        "singleflight.wait_ms": "ms",
        "singleflight.useful_ratio": "ratio",
        "reduction.tsne.iterations": "count",
        "shift.kde.binned_share": "ratio",
        "db.ingest_bytes": "B_computed",
        "trace.client_ms": "ms/req",
        "trace.attributed_ms": "ms/req",
        "trace.residual_ms": "ms/req",
        "obs.trace_overhead_pct": "%",
        "obs.trace_requests": "count",
        "obs.profiler_overhead_pct": "%",
        "obs.profiler_samples": "count",
        "loadgen.lateness_p90_ms": "ms",
        "warmup_s": "s",
    })
    for metric, _, _ in COUNTERS:
        units[metric] = "count"
    return units


def counter(snapshot: dict, name: str, labels: dict[str, str]) -> float:
    """Sum of a counter's series whose labels include ``labels``."""
    return sum(
        record["value"]
        for record in snapshot["counters"]
        if record["name"] == name
        and all(record["labels"].get(k) == v for k, v in labels.items())
    )


def mean_latency_ms(samples) -> float:
    return 1000.0 * sum(s.latency for s in samples) / len(samples)


def per_layer(traced, plain, profiled) -> dict[str, float]:
    """The per-layer metrics from three runs of one workload: ``traced``
    (span recorders on), ``plain`` (as measured end to end) and
    ``profiled`` (``StackProfiler`` at 100 hz)."""
    samples = traced.run.samples
    # Only the measured requests' spans: the untimed requests that
    # bracket the window (snapshots, trace fetches) carry other ids.
    rids = {s.rid for s in samples}
    spans = [Span(*record) for record in traced.trace["spans"] if record[5] in rids]
    layers = attribute(spans)
    n = len(samples)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        entry = layers.get(name, {"calls": 0, "self_s": 0.0})
        if name in CALLED:
            out[_calls(name)] = entry["calls"]
        out[f"{name}.self_ms"] = 1000.0 * entry["self_s"] / n

    waits = traced.trace["queue_waits"]
    out["serving.queue_wait_p90_ms"] = 1000.0 * percentile(waits, 90) if waits else 0.0
    out["json_codec.bytes"] = sum(s.value for s in spans if s.name == "json_codec")
    waited = [s.end - s.start for s in spans if s.name == "singleflight" and s.value == "waiter"]
    out["singleflight.wait_ms"] = 1000.0 * sum(waited) / len(waited) if waited else 0.0
    out["reduction.tsne.iterations"] = sum(
        s.value for s in spans if s.name == "reduction.tsne"
    )
    out["db.ingest_bytes"] = sum(s.value for s in spans if s.name == "db.ingest_hours")

    before, after = traced.counters
    for metric, name, labels in COUNTERS:
        out[metric] = counter(after, name, labels) - counter(before, name, labels)
    lookups = out["singleflight.hit"] + out["singleflight.leader"] + out["singleflight.waiter"]
    out["singleflight.useful_ratio"] = out["singleflight.leader"] / lookups if lookups else 0.0
    kde = {"kernel": "kde"}
    runs = counter(after, "kernel_runs_total", kde) - counter(before, "kernel_runs_total", kde)
    binned = (counter(after, "kernel_method_total", {**kde, "method": "binned"})
              - counter(before, "kernel_method_total", {**kde, "method": "binned"}))
    out["shift.kde.binned_share"] = binned / runs if runs else 0.0

    client_s = sum(s.latency for s in samples)
    out["trace.client_ms"] = 1000.0 * client_s / n
    out["trace.residual_ms"] = 1000.0 * residual(client_s, layers) / n
    out["trace.attributed_ms"] = out["trace.client_ms"] - out["trace.residual_ms"]

    base = mean_latency_ms(plain.run.samples)
    out["obs.trace_overhead_pct"] = 100.0 * (out["trace.client_ms"] / base - 1.0)
    out["obs.trace_requests"] = n
    out["obs.profiler_overhead_pct"] = 100.0 * (
        mean_latency_ms(profiled.run.samples) / base - 1.0
    )
    out["obs.profiler_samples"] = profiled.profiler_samples
    lateness = plain.run.lateness_ms
    out["loadgen.lateness_p90_ms"] = percentile(lateness, 90) if lateness else 0.0
    out["warmup_s"] = plain.warmup_s
    return out
