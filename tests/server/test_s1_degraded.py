"""View C answers never come from another embedding.

``/api/selection`` and ``/api/proposals`` resolve against the default
embedding for their ``method``.  While the embed breaker is open and that
embedding is not cached, both routes answer 503 + Retry-After — never a
body computed from another cached embedding — and no proposals are
cached.  CI re-runs this file under a seeded ``kernel.tsne`` fault plan,
where injected faults trip the breaker on their own.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import pytest

from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.obs import MetricsRegistry
from repro.resilience import faults
from repro.resilience.breaker import OPEN, CircuitBreaker
from repro.server import TestClient, VapApp

KNN = {"type": "knn", "x": 0.0, "y": 0.0, "k": 6}
FAR_RECT = {"type": "rect", "x_min": 1e5, "y_min": 1e5, "x_max": 1e6, "y_max": 1e6}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(n_customers=30, n_days=7, seed=29))


@pytest.fixture(scope="module")
def reference(city):
    """Bodies computed from the default embedding, no faults, no breaker."""
    session = VapSession.from_city(city, metrics=MetricsRegistry(), breakers={})
    client = TestClient(VapApp(session))
    with faults.disarmed():
        return {
            "proposals": client.get("/api/proposals").body,
            "knn": client.post("/api/selection", json=KNN).body,
        }


def _build(city, clock, max_embeddings=16, **breaker_kwargs):
    breaker = CircuitBreaker(name="pipeline.embed", clock=clock, **breaker_kwargs)
    session = VapSession.from_city(
        city, metrics=MetricsRegistry(), breakers={"embed": breaker},
        max_embeddings=max_embeddings,
    )
    return session, breaker, TestClient(VapApp(session))


def _trip(breaker: CircuitBreaker) -> None:
    for _ in range(breaker.min_calls):
        breaker.record_failure()
    assert breaker.state == OPEN


class TestFallbackEmbeddingIsFlagged:
    def test_selection_and_proposals_shed_503(self, city):
        clock = FakeClock()
        session, breaker, client = _build(city, clock)
        with faults.disarmed():
            assert client.get("/api/embedding?seed=5&n_iter=30").ok
        _trip(breaker)
        clock.now += 10.5
        for response in (
            client.get("/api/embedding"),
            client.post("/api/selection", json=KNN),
            client.post("/api/selection", json=FAR_RECT),
            client.get("/api/proposals"),
        ):
            assert response.status == 503
            assert response.json["breaker"] == "pipeline.embed"
            expected = math.ceil(breaker.open_seconds - 10.5)
            assert response.headers["Retry-After"] == str(expected)
        # The seed-5 embedding stays cached, but nothing was built on it.
        assert len(session._proposals) == 0

    def test_answers_come_from_the_requested_embedding_once_closed(
        self, city, reference
    ):
        clock = FakeClock()
        _, breaker, client = _build(city, clock)
        with faults.disarmed():
            assert client.get("/api/embedding?seed=5&n_iter=30").ok
        _trip(breaker)
        assert client.get("/api/proposals").status == 503
        # Under a fault plan the half-open probe may fault and reopen the
        # breaker; keep waiting out the cooldown until a probe succeeds.
        for _ in range(20):
            clock.now += breaker.open_seconds
            response = client.get("/api/proposals")
            if response.status == 503:
                continue
            assert response.status == 200
            break
        else:
            pytest.fail("the embed breaker never closed")
        assert response.body == reference["proposals"]
        assert client.post("/api/selection", json=KNN).body == reference["knn"]


def test_injected_faults_never_leak_another_embedding(city, reference):
    """Under ``kernel.tsne`` faults (the CI plan, or the same plan armed
    here), every 200 from selection and proposals equals the default
    embedding's answer; everything else is a 503."""
    clock = FakeClock()
    _, breaker, client = _build(
        city, clock, max_embeddings=1, failure_threshold=0.25, min_calls=2
    )
    plan = (
        nullcontext()
        if faults.active_injector() is not None
        else faults.injected(faults.FaultPlan.parse("kernel.tsne=error:0.3", seed=42))
    )
    seen = {"exact": 0, "shed": 0}
    with plan:
        for step in range(40):
            # A new parameter set per step (n_iter changes the result; a
            # seed would not): a t-SNE run that may fault, and
            # (max_embeddings=1) evicts the default embedding.
            client.get(f"/api/embedding?n_iter={20 + step}")
            for kind, response in (
                ("proposals", client.get("/api/proposals")),
                ("knn", client.post("/api/selection", json=KNN)),
            ):
                if response.status == 503:
                    seen["shed"] += 1
                    continue
                assert response.status == 200, response.json
                assert response.body == reference[kind], (step, kind)
                seen["exact"] += 1
            if step % 3 == 2:
                clock.now += breaker.open_seconds
    assert seen["shed"] > 0 and seen["exact"] > 0, seen
