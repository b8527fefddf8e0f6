"""Pool knobs on the REST API: workers, landmarks, minibatch, telemetry."""

from __future__ import annotations

import pytest

from repro import obs
from repro.bench.perf import _blob_features
from repro.core.reduction.tsne import tsne
from repro.server import TestClient, VapApp


@pytest.fixture(scope="module")
def client(small_session, small_city):
    return TestClient(VapApp(small_session, layout=small_city.layout))


class TestWorkersParam:
    def test_worker_count_never_changes_the_answer(self, client):
        runs = obs.get_registry().counter("kernel_runs_total", kernel="tsne")
        before = runs.value
        url = "/api/embedding?n_iter=40&tsne_method=bh&seed=913&workers="
        serial = client.get(url + "1")
        forked = client.get(url + "2")
        # Worker count is not in the cache key: one t-SNE run, one answer.
        assert runs.value == before + 1
        assert serial.ok and forked.body == serial.body

    def test_kernel_result_is_worker_count_independent(self):
        # Above one 2048-row block, so workers=2 really fans out.
        feats = _blob_features(2100, seed=4)
        pooled = obs.get_registry().counter(
            "parallel_pool_runs_total", pool="perplexity", mode="fork"
        )
        before = pooled.value
        serial = tsne(feats, n_iter=8, method="bh", workers=1)
        forked = tsne(feats, n_iter=8, method="bh", workers=2)
        assert pooled.value == before + 1
        assert forked.embedding.tobytes() == serial.embedding.tobytes()

    def test_zero_workers_is_400(self, client):
        response = client.get("/api/embedding?workers=0")
        assert response.status == 400
        assert "workers" in response.json["error"]

    def test_junk_workers_is_400(self, client):
        assert client.get("/api/embedding?workers=lots").status == 400


class TestLandmarkParams:
    def test_landmark_method_with_budget(self, client):
        data = client.get(
            "/api/embedding?n_iter=40&tsne_method=landmark&n_landmarks=16"
        ).json
        assert len(data["points"]) == len(data["customer_ids"])

    def test_invalid_landmark_budget_is_400(self, client):
        response = client.get(
            "/api/embedding?n_iter=40&tsne_method=landmark&n_landmarks=2"
        )
        assert response.status == 400
        assert "n_landmarks" in response.json["error"]

    def test_junk_landmark_budget_is_400(self, client):
        assert client.get("/api/embedding?n_landmarks=afew").status == 400


class TestKmeansAlgorithm:
    def test_minibatch_algorithm(self, client):
        data = client.get("/api/kmeans?k=3&algorithm=minibatch").json
        assert data["algorithm"] == "minibatch"
        assert len(data["labels"]) == len(data["customer_ids"])
        assert data["inertia"] > 0.0

    def test_default_is_lloyd(self, client):
        assert client.get("/api/kmeans?k=3").json["algorithm"] == "lloyd"

    def test_unknown_algorithm_is_400(self, client):
        response = client.get("/api/kmeans?k=3&algorithm=spectral")
        assert response.status == 400
        assert "algorithm" in response.json["error"]


class TestParallelTelemetry:
    def test_parallel_block_shape(self, client):
        # Force at least one pooled kernel run first.
        client.get("/api/embedding?n_iter=30&tsne_method=bh&workers=2")
        data = client.get("/api/telemetry").json
        parallel = data["parallel"]
        assert parallel["budget"] >= 1
        assert isinstance(parallel["pools"], dict)
        assert parallel["pools"], "pooled kernel runs must be reported"
        for stats in parallel["pools"].values():
            assert stats["runs"] >= 1
            assert stats["tasks"] >= stats["runs"]
            assert stats["fork_runs"] >= 0
        assert isinstance(parallel["fallbacks"], dict)
