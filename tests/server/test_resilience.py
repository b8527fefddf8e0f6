"""Server-level resilience: breaker-open 503s, shedding, telemetry."""

import json

import pytest

from repro import obs
from repro.core.pipeline import BREAKER_OPS, VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.obs import MetricsRegistry, SlowOpLog, TimeWindowStore
from repro.resilience import faults
from repro.resilience.breaker import OPEN, CircuitBreaker
from repro.server import TestClient, VapApp


@pytest.fixture(scope="module")
def chaos_city():
    return generate_city(CityConfig(n_customers=30, n_days=7, seed=23))


def _build(city, breakers=None):
    session = VapSession.from_city(
        city, metrics=MetricsRegistry(), breakers=breakers
    )
    app = VapApp(
        session,
        layout=city.layout,
        window_store=TimeWindowStore(),
        slow_log=SlowOpLog(),
    )
    return session, TestClient(app)


def _trip(breaker: CircuitBreaker) -> None:
    for _ in range(breaker.min_calls):
        breaker.record_failure()
    assert breaker.state == OPEN


def _body(response) -> dict:
    return json.loads(response.body.decode("utf-8"))


class TestDegradedServing:
    def test_breaker_open_miss_is_503_not_500(self, chaos_city):
        """A breaker-open cache miss answers 503 + Retry-After — never a
        500, and never the last surface computed for another window."""
        session, client = _build(chaos_city)
        warm = client.get("/api/density?t_start=0&t_end=4")
        assert warm.ok

        _trip(session.breakers["density"])
        # A different window misses the cache, so the kernel would run —
        # the open breaker refuses it.
        response = client.get("/api/density?t_start=4&t_end=8")
        assert response.status == 503
        payload = _body(response)
        assert payload["breaker"] == "pipeline.density"
        # The breaker's remaining open window, on the real clock.
        assert 0 < payload["retry_after_seconds"] <= 30
        assert response.headers["Retry-After"] == str(payload["retry_after_seconds"])

    def test_breaker_open_cache_hits_still_exact(self, chaos_city):
        session, client = _build(chaos_city)
        warm = client.get("/api/density?t_start=0&t_end=4")
        _trip(session.breakers["density"])
        again = client.get("/api/density?t_start=0&t_end=4")
        assert again.ok and again.body == warm.body

    def test_breaker_open_without_fallback_is_503_with_retry_after(
        self, chaos_city
    ):
        session, client = _build(chaos_city)
        _trip(session.breakers["embed"])
        response = client.get("/api/embedding?method=tsne&n_iter=10")
        assert response.status == 503
        assert "Retry-After" in response.headers
        payload = _body(response)
        assert payload["breaker"] == "pipeline.embed"

    def test_shift_503_when_either_window_misses(self, chaos_city):
        session, client = _build(chaos_city)
        warm = client.get("/api/shift?t1_start=0&t1_end=4&t2_start=4&t2_end=8")
        assert warm.ok
        _trip(session.breakers["density"])
        response = client.get(
            "/api/shift?t1_start=0&t1_end=4&t2_start=8&t2_end=12"
        )
        assert response.status == 503
        payload = _body(response)
        assert payload["breaker"] == "pipeline.density"
        assert response.headers["Retry-After"] == str(payload["retry_after_seconds"])
        again = client.get("/api/shift?t1_start=0&t1_end=4&t2_start=4&t2_end=8")
        assert again.ok and again.body == warm.body


class TestTransientShedding:
    def test_unretried_transient_fault_is_503_not_500(self, chaos_city):
        """With breakers disabled and a hard kernel fault, the API sheds
        (503 + Retry-After) instead of crashing the worker with a 500."""
        _, client = _build(chaos_city, breakers={})
        plan = faults.FaultPlan.parse("kernel.kde=error:1.0")
        with faults.injected(plan, metrics=MetricsRegistry()):
            response = client.get("/api/density?t_start=0&t_end=4")
        assert response.status == 503
        assert "Retry-After" in response.headers
        assert "transient failure" in _body(response)["error"]


class TestResilienceTelemetry:
    def test_telemetry_reports_breakers_and_retries(self, chaos_city):
        session, client = _build(chaos_city)
        client.get("/api/density?t_start=0&t_end=4")
        _trip(session.breakers["density"])
        client.get("/api/density?t_start=4&t_end=8")
        # Record a retry so the site shows up.
        session.metrics.counter("retry_attempts_total", site="storage.load").inc()

        payload = _body(client.get("/api/telemetry"))
        block = payload["resilience"]
        assert set(block["breakers"]) == set(BREAKER_OPS)
        assert block["breakers"]["density"]["state"] == OPEN
        assert block["breakers"]["embed"]["state"] == "closed"
        assert block["retry_attempts_total"] == {"storage.load": 1}

    def test_telemetry_reports_armed_fault_plan(self, chaos_city):
        session, client = _build(chaos_city)
        plan = faults.FaultPlan.parse("stream.tick=error:0.5", seed=77)
        with faults.injected(plan, metrics=session.metrics) as injector:
            for _ in range(20):
                try:
                    injector.check("stream.tick")
                except faults.InjectedFault:
                    pass
            block = _body(client.get("/api/telemetry"))["resilience"]
        assert block["fault_plan"]["seed"] == 77
        assert block["fault_plan"]["n_specs"] == 1
        assert block["fault_plan"]["n_injected"] > 0
        assert block["fault_plan"]["by_site"] == {
            "stream.tick:error": block["fault_plan"]["n_injected"]
        }
        assert block["faults_injected_total"]["stream.tick:error"] > 0

    def test_no_fault_plan_block_when_disarmed(self, chaos_city):
        _, client = _build(chaos_city)
        if faults.active_injector() is not None:
            pytest.skip("an env-armed chaos plan is active for this run")
        block = _body(client.get("/api/telemetry"))["resilience"]
        assert "fault_plan" not in block
