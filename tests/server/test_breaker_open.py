"""An open breaker answers 503, never another request's result.

While a kernel's circuit breaker is open, a request whose result is
cached answers exactly; a request that would run the kernel raises
:class:`~repro.resilience.breaker.BreakerOpen` — 503 with ``Retry-After``
equal to the breaker's remaining open window over HTTP, a failed job in
the job service.  No path serves the result of another cache key (an
earlier density window, or a t-SNE embedding for an MDS request).
"""

from __future__ import annotations

import math

import pytest

from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.data.timeseries import HourWindow
from repro.jobs import ArtifactStore, JobService
from repro.obs import MetricsRegistry
from repro.resilience import faults
from repro.resilience.breaker import OPEN, BreakerOpen, CircuitBreaker
from repro.server import TestClient, VapApp
from repro.tenancy import TenantRegistry

OPEN_SECONDS = 60.0
ELAPSED = 30.4  # remaining open window 29.6s: Retry-After rounds up to 30

KNN = {"type": "knn", "x": 0.0, "y": 0.0, "k": 6}

# Requests whose results are warmed before the breakers trip.
CACHED = [
    ("GET", "/api/embedding?n_iter=30", None),
    ("GET", "/api/embedding", None),
    ("POST", "/api/selection", KNN),
    ("GET", "/api/proposals", None),
    ("GET", "/api/density?t_start=0&t_end=4", None),
    ("GET", "/api/shift?t1_start=0&t1_end=4&t2_start=4&t2_end=8", None),
]
# Requests that miss the cache once the breakers are open.
UNCACHED = [
    ("GET", "/api/embedding?n_iter=31", None),
    ("GET", "/api/embedding?method=mds_classical", None),
    ("POST", "/api/selection", {**KNN, "method": "mds"}),
    ("GET", "/api/proposals?method=mds", None),
    # The embedding is cached, so only DBSCAN runs: not breaker-guarded.
    ("GET", "/api/proposals?min_size=3", None),
    ("GET", "/api/density?t_start=20&t_end=24", None),
    ("GET", "/api/shift?t1_start=0&t1_end=4&t2_start=12&t2_end=16", None),
]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(n_customers=30, n_days=7, seed=31))


def _breakers(clock) -> dict[str, CircuitBreaker]:
    return {
        op: CircuitBreaker(
            name=f"pipeline.{op}", clock=clock, open_seconds=OPEN_SECONDS
        )
        for op in ("embed", "density")
    }


def _session(city, breakers) -> VapSession:
    return VapSession.from_city(city, metrics=MetricsRegistry(), breakers=breakers)


def _trip(breaker: CircuitBreaker) -> None:
    for _ in range(breaker.min_calls):
        breaker.record_failure()
    assert breaker.state == OPEN


def _send(client: TestClient, method: str, path: str, body):
    if method == "POST":
        return client.post(path, json=body)
    return client.get(path)


class TestSessionRaises:
    def test_density_of_another_window_raises(self, city):
        session = _session(city, _breakers(FakeClock()))
        warm = session.density(HourWindow(0, 4))
        _trip(session.breakers["density"])
        assert session.density(HourWindow(0, 4)) is warm
        with pytest.raises(BreakerOpen):
            session.density(HourWindow(4, 8))

    def test_mds_request_never_gets_the_tsne_embedding(self, city):
        session = _session(city, _breakers(FakeClock()))
        with faults.disarmed():
            assert session.embed(method="tsne", n_iter=30).method == "tsne"
        _trip(session.breakers["embed"])
        with pytest.raises(BreakerOpen):
            session.embed(method="mds_classical")


def test_mds_job_fails_with_the_breaker_message(city, tmp_path):
    session = _session(city, _breakers(FakeClock()))
    with faults.disarmed():
        session.embed(method="tsne", n_iter=30)
    _trip(session.breakers["embed"])
    tenants = TenantRegistry(default_tenant="acme")
    tenants.add("acme", session)
    root = tmp_path / "store"
    service = JobService(tenants, ArtifactStore(root), workers=1)
    try:
        job = service.submit("acme", "embed", {"method": "mds_classical"})
        done = service.wait("acme", job.job_id, timeout=60)
    finally:
        service.shutdown()
    assert done.state == "failed"
    assert done.error == "BreakerOpen: circuit breaker 'pipeline.embed' is open"
    assert done.artifact is None
    assert not [path for path in root.rglob("*") if path.is_file()]


def test_http_answers_are_exact_or_503(city):
    """Every route, cached and uncached, with both breakers open: a 200
    is byte-identical to a fresh breaker-less session's answer, anything
    else is a 503 whose Retry-After is the remaining open window."""
    with faults.disarmed():
        fresh = TestClient(VapApp(_session(city, {})))
        reference = {
            (path, str(body)): _send(fresh, method, path, body).body
            for method, path, body in CACHED + UNCACHED
        }
        clock = FakeClock()
        session = _session(city, _breakers(clock))
        client = TestClient(VapApp(session))
        for method, path, body in CACHED:
            assert _send(client, method, path, body).status == 200, path
    for breaker in session.breakers.values():
        _trip(breaker)
    clock.now += ELAPSED
    retry_after = str(math.ceil(OPEN_SECONDS - ELAPSED))
    statuses = {}
    for method, path, body in CACHED + UNCACHED:
        response = _send(client, method, path, body)
        statuses[(path, str(body))] = response.status
        if response.status == 200:
            assert response.body == reference[(path, str(body))], path
        else:
            assert response.status == 503, (path, response.json)
            assert response.headers["Retry-After"] == retry_after, path
            assert response.json["retry_after_seconds"] == int(retry_after)
            assert response.json["breaker"].startswith("pipeline."), path
    for method, path, body in CACHED:
        assert statuses[(path, str(body))] == 200, path
    shed = [key for key, status in statuses.items() if status == 503]
    assert len(shed) == len(UNCACHED) - 1, statuses
