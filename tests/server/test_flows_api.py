"""Flow arrows at the API boundary vs the flood-fill oracle.

Every field the server hands to ``major_flows`` is recorded; the response
must carry exactly what the loop oracle computes on that same field.  Also
checks the ``flows`` kernel timing surfaces in ``/api/telemetry``.
"""

import numpy as np
import pytest

from repro.core.pipeline import VapSession
from repro.core.shift import sensitivity
from repro.data.generator.simulate import CityConfig, generate_city
from repro.server import TestClient, VapApp
from repro.server import app as app_module
from tests.shift.flow_oracle import oracle_flows

SHIFT = "t1_start=24&t1_end=48&t2_start=120&t2_end=144"


@pytest.fixture(scope="module")
def client():
    city = generate_city(CityConfig(n_customers=40, n_days=10, seed=71))
    session = VapSession.from_city(city)
    return TestClient(VapApp(session, layout=city.layout))


@pytest.fixture()
def recorded(monkeypatch):
    """Fields passed to ``major_flows`` by the shift route and the sweeps."""
    fields = []

    def record(real):
        def wrapper(field, *args, **kwargs):
            fields.append(field)
            return real(field, *args, **kwargs)

        return wrapper

    for module in (app_module, sensitivity):
        monkeypatch.setattr(module, "major_flows", record(module.major_flows))
    return fields


def _assert_arrow_json(got: dict, want) -> None:
    np.testing.assert_allclose(
        [*got["from"], *got["to"], got["magnitude"]],
        [want.lon, want.lat, *want.tip, want.magnitude],
        rtol=1e-9,
        atol=0.0,
    )


def test_shift_flows_match_oracle(client, recorded):
    response = client.get(f"/api/shift?{SHIFT}")
    assert response.ok
    [field] = recorded
    want = oracle_flows(field)
    got = response.json["flows"]
    assert want and len(got) == len(want)
    for arrow_json, arrow in zip(got, want):
        _assert_arrow_json(arrow_json, arrow)


@pytest.mark.parametrize("source", ["rollup", "raw"])
def test_quantile_sweep_flows_match_oracle(client, recorded, source):
    response = client.get(f"/api/sweep/quantile?{SHIFT}&source={source}")
    assert response.ok
    results = response.json["results"]
    swept = [r for r in results if r["n_customers"] >= 2]
    assert swept and len(swept) == len(recorded)
    assert any(r["n_flows"] for r in swept)
    for result, field in zip(swept, recorded):
        want = oracle_flows(field)
        assert result["n_flows"] == len(want)
        if want:
            _assert_arrow_json(result["main_flow"], want[0])
        else:
            assert result["main_flow"] is None


def test_telemetry_lists_flows_kernel(client):
    assert client.get(f"/api/shift?{SHIFT}").ok
    kernels = {k["kernel"]: k for k in client.get("/api/telemetry").json["kernels"]}
    assert "flows" in kernels
    assert kernels["flows"]["count"] >= 1
    assert kernels["flows"]["mean_seconds"] >= 0.0
