"""The instrumented layers actually report: pipeline, db, kernels, stream."""

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.cluster.kmeans import kmeans
from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.data.timeseries import HourWindow
from repro.db.engine import EnergyDatabase
from repro.obs import JsonLogger, MetricsRegistry, RingBufferSink, SlowOpLog
from repro.stream.clock import SimulatedClock


@pytest.fixture(scope="module")
def obs_city():
    return generate_city(CityConfig(n_customers=25, n_days=7, seed=13))


def _counter_value(registry, name, **labels):
    return registry.counter(name, **labels).value


class TestPipelineInstrumentation:
    def test_embed_cache_hit_miss_counters(self, obs_city):
        registry = MetricsRegistry()
        session = VapSession.from_city(obs_city, metrics=registry)
        session.embed(n_iter=30, perplexity=5.0)
        session.embed(n_iter=30, perplexity=5.0)  # cache hit
        session.embed(n_iter=40, perplexity=5.0)  # other key: miss
        assert _counter_value(
            registry, "pipeline_cache_total", op="embed", result="miss"
        ) == 2
        assert _counter_value(
            registry, "pipeline_cache_total", op="embed", result="hit"
        ) == 1
        # Feature matrix computed once, reused twice.
        assert _counter_value(
            registry, "pipeline_cache_total", op="features", result="miss"
        ) == 1

    def test_stage_timers_observed(self, obs_city):
        registry = MetricsRegistry()
        session = VapSession.from_city(obs_city, metrics=registry)
        session.shift(HourWindow(13, 15), HourWindow(19, 21))
        session.kmeans_baseline(k=3)
        snap = {
            (h["name"], h["labels"]["op"]): h["count"]
            for h in registry.snapshot()["histograms"]
            if h["name"] == "pipeline_seconds"
        }
        assert snap[("pipeline_seconds", "shift")] == 1
        assert snap[("pipeline_seconds", "density")] == 2  # t1 + t2
        assert snap[("pipeline_seconds", "kmeans_baseline")] == 1

    def test_span_tree_spans_all_layers(self, obs_city):
        previous = obs.get_tracer()
        sink = RingBufferSink()
        obs.configure(sink=sink)
        try:
            session = VapSession.from_city(obs_city, metrics=MetricsRegistry())
            session.shift(HourWindow(13, 15), HourWindow(19, 21))
        finally:
            obs.configure(tracer=previous)
        roots = [r for r in sink.records() if r.name == "pipeline.shift"]
        assert roots, "shift must open a root span"
        names = [s.name for s in roots[-1].walk()]
        assert "pipeline.density" in names
        assert "db.demand" in names
        assert "kernel.kde" in names


class TestDbInstrumentation:
    def test_query_timing_per_op(self, obs_city):
        from repro.db.engine import EnergyDatabase
        from repro.db.spatial import BBox

        registry = MetricsRegistry()
        db = EnergyDatabase(obs_city.customers, obs_city.raw, metrics=registry)
        db.demand(HourWindow(0, 24))
        db.ids_in_bbox(BBox(-180, -90, 180, 90))
        db.nearest(obs_city.customers[0].lon, obs_city.customers[0].lat, k=3)
        db.sql("SELECT count(*) AS n FROM customers")
        ops = {
            h["labels"]["op"]: h["count"]
            for h in registry.snapshot()["histograms"]
            if h["name"] == "db_query_seconds"
        }
        assert ops["demand"] == 1
        assert ops["readings"] == 1  # demand slices through readings_for
        assert ops["bbox"] == 1
        assert ops["nearest"] == 1
        assert ops["sql"] == 1


class TestSlowQueryContext:
    """Slow queries stay attributable to the request and tenant that
    issued them: the log line and the slow-op record both carry the ids
    bound around the call."""

    def test_slow_query_log_carries_request_id_and_tenant(
        self, fresh_obs, obs_city
    ):
        stream = io.StringIO()
        obs.configure(logger=JsonLogger(stream=stream))
        db = EnergyDatabase(
            obs_city.customers, obs_city.raw, slow_query_seconds=1e-9
        )
        with obs.bind_request_id("req-from-http"), obs.bind_tenant("acme"):
            db.demand(HourWindow(8, 12))
        events = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if json.loads(line)["event"] == "db.slow_query"
        ]
        assert events, "expected slow-query log records"
        assert all(e["request_id"] == "req-from-http" for e in events)
        assert all(e["tenant"] == "acme" for e in events)

    def test_slow_op_records_carry_request_id_and_tenant(
        self, fresh_obs, obs_city
    ):
        slow_log = SlowOpLog()
        obs.configure(slow_log=slow_log)
        db = EnergyDatabase(
            obs_city.customers, obs_city.raw, slow_query_seconds=1e-9
        )
        with obs.bind_request_id("req-slow"), obs.bind_tenant("globex"):
            db.demand(HourWindow(0, 24))
        records = [r for r in slow_log.records() if r["name"] == "db.demand"]
        assert records
        assert all(r["request_id"] == "req-slow" for r in records)
        assert all(r["tenant"] == "globex" for r in records)


class TestKernelInstrumentation:
    def test_kmeans_reports_iterations_and_convergence(self, fresh_obs):
        registry, _ = fresh_obs
        rng = np.random.default_rng(0)
        result = kmeans(rng.normal(size=(40, 3)), k=3, n_init=2, seed=1)
        assert registry.counter("kernel_runs_total", kernel="kmeans").value == 1
        assert registry.counter("kmeans_restarts_total").value == 2
        hist = registry.histogram(
            "kernel_iterations", buckets=obs.COUNT_BUCKETS, kernel="kmeans"
        )
        assert hist.count == 1
        assert hist.sum >= result.n_iter  # total across restarts
        assert registry.gauge(
            "kernel_last_objective", kernel="kmeans"
        ).value == pytest.approx(result.inertia)

    def test_tsne_and_mds_report_runs(self, fresh_obs):
        from repro.core.reduction.mds import mds
        from repro.core.reduction.tsne import tsne

        registry, _ = fresh_obs
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(12, 6))
        tsne(feats, n_iter=20, perplexity=3.0)
        mds(feats, method="classical")
        assert registry.counter("kernel_runs_total", kernel="tsne").value == 1
        assert registry.counter("kernel_runs_total", kernel="mds").value == 1
        assert registry.histogram(
            "kernel_iterations", buckets=obs.COUNT_BUCKETS, kernel="tsne"
        ).sum == 20


class TestStreamClockInstrumentation:
    def test_ticks_and_logical_time_reported(self):
        registry = MetricsRegistry()
        clock = SimulatedClock(tick_seconds=10.0, metrics=registry)
        clock.tick()
        clock.tick()
        clock.advance(5.0)
        assert registry.counter("stream_ticks_total").value == 2
        assert registry.gauge("stream_clock_seconds").value == 25.0
        assert clock.now == 25.0
