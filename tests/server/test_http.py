"""Real-HTTP integration: the WSGI app served by wsgiref in a thread.

Everything else drives the app in-process; this module confirms the same
contract holds over an actual TCP socket — status codes, JSON bodies and
concurrent-ish sequential requests.
"""

import http.client
import json
import threading
from wsgiref.simple_server import WSGIRequestHandler, make_server

import pytest

from repro.server import VapApp


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, *args):  # pragma: no cover - silence test output
        pass


@pytest.fixture(scope="module")
def http_server(small_session, small_city):
    app = VapApp(small_session, layout=small_city.layout)
    server = make_server("127.0.0.1", 0, app, handler_class=_QuietHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join(timeout=5)


def _get(address: str, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(address, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _post(address: str, path: str, payload: dict) -> tuple[int, dict]:
    body = json.dumps(payload)
    conn = http.client.HTTPConnection(address, timeout=10)
    try:
        conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestOverHttp:
    def test_health(self, http_server, small_session):
        status, data = _get(http_server, "/api/health")
        assert status == 200
        assert data["n_customers"] == len(small_session.db)

    def test_selection_round_trip(self, http_server):
        status, emb = _get(http_server, "/api/embedding")
        assert status == 200
        x, y = emb["points"][0]
        status, sel = _post(
            http_server, "/api/selection", {"type": "knn", "x": x, "y": y, "k": 4}
        )
        assert status == 200
        assert sel["count"] == 4

    def test_errors_over_http(self, http_server):
        status, data = _get(http_server, "/api/customers/123456789")
        assert status == 404
        assert "error" in data

    def test_sequential_requests_reuse_state(self, http_server):
        """Several requests against one server: caches keep working."""
        for _ in range(3):
            status, _ = _get(http_server, "/api/embedding")
            assert status == 200
