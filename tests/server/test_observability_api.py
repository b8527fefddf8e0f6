"""End-to-end observability: /api/traces and /api/profile.

Covers the acceptance criteria of the observability-v2 story:

- a request produces ONE trace, retrievable via ``GET /api/traces/<id>``,
  whose spans (down to the database query) all carry the HTTP request's
  id;
- ``GET /api/profile`` serves folded stacks, flamegraph SVG and JSON in
  both burst and continuous modes.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro import obs
from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.obs import MetricsRegistry, SlowOpLog, TimeWindowStore, TraceStore
from repro.obs.profiler import parse_folded
from repro.server import TestClient, VapApp

@pytest.fixture(scope="module")
def obs_city():
    return generate_city(CityConfig(n_customers=30, n_days=7, seed=31))


@pytest.fixture()
def trace_store():
    previous = obs.get_tracer()
    store = TraceStore()
    obs.configure(sink=obs.NullSink(), trace_store=store)
    yield store
    obs.configure(tracer=previous)


def make_app(city, **kwargs):
    session = VapSession.from_city(city, metrics=MetricsRegistry())
    kwargs.setdefault("window_store", TimeWindowStore())
    kwargs.setdefault("slow_log", SlowOpLog())
    return VapApp(session, layout=city.layout, **kwargs)


class TestTracesApi:
    def test_request_yields_one_stitched_trace(self, obs_city, trace_store):
        client = TestClient(make_app(obs_city))
        response = client.get(
            "/api/density?t_start=8&t_end=12",
            headers={"X-Request-ID": "req-acceptance"},
        )
        assert response.ok
        listing = client.get("/api/traces?request_id=req-acceptance").json
        assert listing["count"] == 1
        summary = listing["traces"][0]
        assert summary["name"] == "http.request"
        assert summary["request_id"] == "req-acceptance"

        detail = client.get(f"/api/traces/{summary['trace_id']}").json
        tree = detail["trace"]
        assert tree["trace_id"] == summary["trace_id"]

        def walk(node):
            yield node
            for child in node.get("children", []):
                yield from walk(child)

        spans = list(walk(tree))
        assert len(spans) == summary["n_spans"] > 1
        # The database query ran inside this request's trace.
        assert any(s["name"] == "db.demand" for s in spans)
        # Every span carries the originating HTTP request's id and
        # parents back into this trace, not a disconnected root.
        assert all(s["request_id"] == "req-acceptance" for s in spans)
        span_ids = {s["span_id"] for s in spans}
        assert all(
            s["parent_id"] in span_ids for s in spans if s is not tree
        )

    def test_trace_listing_filters_by_tenant(self, obs_city, trace_store):
        client = TestClient(make_app(obs_city))
        assert client.get("/api/density?t_start=8&t_end=10").ok
        listing = client.get("/api/traces?tenant=default").json
        assert listing["count"] >= 1
        assert all(t["tenant"] == "default" for t in listing["traces"])
        assert client.get("/api/traces?tenant=nobody").json["count"] == 0

    def test_unknown_trace_404(self, obs_city, trace_store):
        client = TestClient(make_app(obs_city))
        response = client.get("/api/traces/deadbeef00000000")
        assert response.status == 404
        assert "unknown trace" in response.json["error"]

    def test_traces_404_when_tracing_disabled(self, obs_city):
        previous = obs.get_tracer()
        obs.configure(tracer=obs.Tracer())  # no store, no sink
        try:
            client = TestClient(make_app(obs_city))
            response = client.get("/api/traces")
            assert response.status == 404
            assert "tracing is not enabled" in response.json["error"]
        finally:
            obs.configure(tracer=previous)

    def test_trace_limit_param(self, obs_city, trace_store):
        client = TestClient(make_app(obs_city))
        for _ in range(3):
            assert client.get("/api/health").ok
        listing = client.get("/api/traces?limit=2").json
        assert listing["count"] == 2
        assert listing["stored"] >= 3


class TestProfileApi:
    def test_folded_output_parses(self, obs_city):
        client = TestClient(make_app(obs_city))
        response = client.get("/api/profile?seconds=0.2&hz=200")
        assert response.ok
        assert response.headers["Content-Type"].startswith("text/plain")
        parse_folded(response.body.decode("utf-8"))  # malformed would raise

    def test_svg_output_is_wellformed(self, obs_city):
        client = TestClient(make_app(obs_city))
        response = client.get("/api/profile?seconds=0.2&hz=200&format=svg")
        assert response.ok
        assert response.headers["Content-Type"] == "image/svg+xml"
        root = ET.fromstring(response.body.decode("utf-8"))
        assert root.tag.endswith("svg")

    def test_json_output_burst_mode(self, obs_city):
        client = TestClient(make_app(obs_city))
        payload = client.get(
            "/api/profile?seconds=0.2&hz=200&format=json"
        ).json
        assert payload["seconds"] == 0.2
        assert payload["continuous"] is False
        assert isinstance(payload["stacks"], dict)

    def test_continuous_profiler_reports_delta(self, obs_city):
        profiler = obs.StackProfiler(hz=200.0)
        profiler.start()
        try:
            client = TestClient(make_app(obs_city, profiler=profiler))
            payload = client.get(
                "/api/profile?seconds=0.2&format=json"
            ).json
            assert payload["continuous"] is True
        finally:
            profiler.stop()

    def test_parameter_validation(self, obs_city):
        client = TestClient(make_app(obs_city))
        assert client.get("/api/profile?seconds=0").status == 400
        assert client.get("/api/profile?seconds=120").status == 400
        assert client.get("/api/profile?hz=0").status == 400
        assert client.get("/api/profile?hz=5000").status == 400
        assert client.get("/api/profile?format=perf").status == 400
