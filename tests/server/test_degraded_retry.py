"""Breaker-open answers: the requested key or a 503, with an honest
``Retry-After``.

- While a breaker is open, a cache hit answers exactly and a miss for
  any other key (another window, other embedding parameters) is a 503 —
  never the result computed under another key.
- A breaker-open 503's ``Retry-After`` must reflect the breaker's
  remaining open window rather than a constant.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.obs import MetricsRegistry
from repro.resilience.breaker import OPEN, BreakerOpen, CircuitBreaker
from repro.server import TestClient, VapApp


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(n_customers=30, n_days=7, seed=29))


def _build(city, breakers=None):
    session = VapSession.from_city(
        city, metrics=MetricsRegistry(), breakers=breakers
    )
    return session, TestClient(VapApp(session, layout=city.layout))


def _trip(breaker: CircuitBreaker) -> None:
    for _ in range(breaker.min_calls):
        breaker.record_failure()
    assert breaker.state == OPEN


def _body(response) -> dict:
    return json.loads(response.body.decode("utf-8"))


class TestDegradedServedKey:
    def test_cross_window_miss_is_503(self, city):
        session, client = _build(city)
        warm = client.get("/api/density?t_start=0&t_end=4")
        assert warm.ok
        _trip(session.breakers["density"])
        response = client.get("/api/density?t_start=4&t_end=8")
        assert response.status == 503
        payload = _body(response)
        assert payload["breaker"] == "pipeline.density"
        assert "values" not in payload

    def test_exact_cache_hit_while_open_is_not_degraded(self, city):
        session, client = _build(city)
        warm = client.get("/api/density?t_start=0&t_end=4")
        _trip(session.breakers["density"])
        again = client.get("/api/density?t_start=0&t_end=4")
        assert again.ok
        assert "degraded" not in _body(again)
        assert _body(again)["values"] == _body(warm)["values"]

    def test_cross_parameter_embedding_miss_is_503(self, city):
        session, client = _build(city)
        warm = client.get("/api/embedding?method=tsne&n_iter=30&seed=1")
        assert warm.ok
        _trip(session.breakers["embed"])
        # Another n_iter is another embedding (another seed would be the
        # same one: exact t-SNE with PCA init never reads it).
        response = client.get("/api/embedding?method=tsne&n_iter=31")
        assert response.status == 503
        payload = _body(response)
        assert payload["breaker"] == "pipeline.embed"
        assert "points" not in payload
        # The warm embedding itself is still a hit.
        assert client.get("/api/embedding?method=tsne&n_iter=30&seed=1").body == (
            warm.body
        )


class TestBreakerRetryAfter:
    def _clocked_build(self, city, open_seconds=120.0):
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="pipeline.embed",
            open_seconds=open_seconds,
            clock=clock,
        )
        session, client = _build(city, breakers={"embed": breaker})
        return clock, breaker, client

    def test_retry_after_equals_remaining_open_window(self, city):
        clock, breaker, client = self._clocked_build(city)
        _trip(breaker)
        response = client.get("/api/embedding?method=tsne&n_iter=10")
        assert response.status == 503
        assert response.headers["Retry-After"] == "120"
        assert _body(response)["retry_after_seconds"] == 120

    def test_retry_after_shrinks_as_the_window_elapses(self, city):
        clock, breaker, client = self._clocked_build(city)
        _trip(breaker)
        clock.advance(50.0)
        response = client.get("/api/embedding?method=tsne&n_iter=10")
        assert response.status == 503
        assert response.headers["Retry-After"] == "70"

    def test_fractional_remaining_rounds_up_to_at_least_one(self, city):
        clock, breaker, client = self._clocked_build(city)
        _trip(breaker)
        clock.advance(119.7)
        response = client.get("/api/embedding?method=tsne&n_iter=10")
        assert response.status == 503
        assert response.headers["Retry-After"] == "1"

    def test_unknowing_breaker_falls_back_to_constant(self, city):
        _, client = _build(city)
        app = client.app
        assert (
            app._breaker_retry_after(BreakerOpen("pipeline.embed"))
            == app._backpressure.retry_after
        )

    def test_remaining_open_seconds_zero_when_closed(self):
        breaker = CircuitBreaker(name="x")
        assert breaker.remaining_open_seconds() == 0.0
