"""Kernel knobs on the REST API: landmarks, minibatch, telemetry."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.server import TestClient, VapApp


@pytest.fixture(scope="module")
def client(small_session, small_city):
    app = VapApp(small_session, layout=small_city.layout)
    yield TestClient(app)
    app.jobs.shutdown()


class TestWorkersParam:
    def test_worker_count_never_changes_the_answer(self, client):
        """``workers`` is no option: a leftover key is ignored like any
        other unknown key, by the embedding route and by embed jobs."""
        runs = obs.get_registry().counter("kernel_runs_total", kernel="tsne")
        before = runs.value
        url = "/api/embedding?n_iter=40&tsne_method=bh&seed=913"
        plain = client.get(url)
        stale = client.get(url + "&workers=0")
        assert plain.ok and stale.body == plain.body
        assert runs.value == before + 1

        artifacts = []
        for params in ({"n_iter": 40}, {"n_iter": 40, "workers": 2}):
            job = client.post("/api/jobs", json={"kind": "embed", "params": params})
            assert job.status == 202
            poll = job.headers["Location"]
            deadline = time.monotonic() + 60.0
            while (state := client.get(poll).json["state"]) in ("queued", "running"):
                assert time.monotonic() < deadline, "embed job stuck"
                time.sleep(0.02)
            assert state == "succeeded"
            artifacts.append(client.get(poll + "/artifact").body)
        assert artifacts[0] == artifacts[1]


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
        # Force at least one blockwise kernel run first.
        client.get("/api/embedding?n_iter=30&tsne_method=bh")
        parallel = client.get("/api/telemetry").json["parallel"]
        assert list(parallel) == ["pools"]
        assert parallel["pools"], "blockwise kernel runs must be reported"
        for stats in parallel["pools"].values():
            assert set(stats) == {"runs", "tasks"}
            assert stats["runs"] >= 1
            assert stats["tasks"] >= stats["runs"]
