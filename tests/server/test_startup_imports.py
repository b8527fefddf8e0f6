"""Startup stays off scipy.ndimage: the flow labeller imports it lazily.

Run in a fresh interpreter, since this test process may already have
imported it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys
from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.server import TestClient
from repro.server.app import VapApp

city = generate_city(CityConfig(n_customers=12, n_days=7, seed=5))
client = TestClient(VapApp(VapSession.from_city(city), layout=city.layout))
assert client.get("/api/health").ok
print("scipy.ndimage" in sys.modules)
assert client.get("/api/shift?t1_start=0&t1_end=24&t2_start=96&t2_end=120").ok
print("scipy.ndimage" in sys.modules)
"""


def test_app_startup_does_not_import_scipy_ndimage():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    # Before the first shift: not loaded.  After it: loaded, which shows
    # the probe can see the import at all.
    assert out.stdout.split() == ["False", "True"]
