"""Regression tests for request-path validation fixes.

Covers the correctness sweep: non-finite float parameters and malformed
``Content-Length`` headers must map to 400 responses instead of 500s
(or, worse, 200s full of NaNs).
"""

import pytest

from repro.server import TestClient, VapApp


@pytest.fixture(scope="module")
def client(small_session, small_city):
    return TestClient(VapApp(small_session, layout=small_city.layout))


class TestNonFiniteFloatParams:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_density_rejects_non_finite_bandwidth(self, client, bad):
        response = client.get(f"/api/density?t_start=61&t_end=63&bandwidth_m={bad}")
        assert response.status == 400
        assert "finite" in response.json["error"]

    def test_density_rejects_non_positive_bandwidth(self, client):
        response = client.get("/api/density?t_start=61&t_end=63&bandwidth_m=-5")
        assert response.status == 400

    def test_density_accepts_finite_bandwidth(self, client):
        response = client.get(
            "/api/density?t_start=61&t_end=63&bandwidth_m=5000"
        )
        assert response.status == 200

    def test_embedding_rejects_nan_perplexity(self, client):
        response = client.get("/api/embedding?perplexity=nan")
        assert response.status == 400
        assert "finite" in response.json["error"]

    def test_shift_rejects_inf_bandwidth(self, client):
        response = client.get(
            "/api/shift?t1_start=61&t1_end=63&t2_start=67&t2_end=69"
            "&bandwidth_m=inf"
        )
        assert response.status == 400


class TestMalformedContentLength:
    def test_non_numeric_content_length_is_400(self, client):
        response = client.post(
            "/api/selection",
            json={"type": "knn", "x": 0.0, "y": 0.0, "k": 3},
            headers={"Content-Length": "banana"},
        )
        assert response.status == 400
        assert "Content-Length" in response.json["error"]

    def test_valid_content_length_still_works(self, client):
        response = client.post(
            "/api/selection",
            json={"type": "knn", "x": 0.0, "y": 0.0, "k": 3},
        )
        assert response.status == 200
