"""Startup and the S1 embed path stay off scipy.

The flow labeller imports ``scipy.ndimage`` lazily, and t-SNE is numpy
only: importing scipy costs ~30 MiB RSS and ~0.5 s, which an embed
request must not pay.  Each probe runs in a fresh interpreter, since this
test process may already have imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SETUP = """
import sys
from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.server import TestClient
from repro.server.app import VapApp

city = generate_city(CityConfig(n_customers=12, n_days=7, seed=5))
client = TestClient(VapApp(VapSession.from_city(city), layout=city.layout))
assert client.get("/api/health").ok
"""


def _run(script: str) -> list[str]:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", SETUP + script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return out.stdout.split()


def test_app_startup_does_not_import_scipy_ndimage():
    out = _run(
        """
print("scipy.ndimage" in sys.modules)
assert client.get("/api/shift?t1_start=0&t1_end=24&t2_start=96&t2_end=120").ok
print("scipy.ndimage" in sys.modules)
"""
    )
    # Before the first shift: not loaded.  After it: loaded, which shows
    # the probe can see the import at all.
    assert out == ["False", "True"]


def test_embedding_request_imports_no_scipy():
    out = _run(
        """
assert client.get("/api/embedding?n_iter=50&perplexity=3").ok
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy") or "none")
"""
    )
    assert out == ["none"]


def test_proposals_request_imports_no_scipy():
    out = _run(
        """
# A miss (DBSCAN runs), then a hit from the proposals cache.
assert client.get("/api/proposals?min_points=3&min_size=2").ok
assert client.get("/api/proposals?min_points=3&min_size=2").ok
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy") or "none")
"""
    )
    assert out == ["none"]
