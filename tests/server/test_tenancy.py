"""Tenant isolation at the API boundary.

Two tenants with different cities share one :class:`VapApp`.  Nothing may
leak between them: query results, cached kernel outputs (identical query
parameters are the classic cache-key collision), request accounting in
``/api/telemetry``, or quota state.  Routing itself is also pinned:
``X-Tenant`` header, ``tenant=`` parameter, their disagreement, unknown
tenants, and the default-tenant fallback.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.server import VapApp
from repro.server.client import TestClient
from repro.tenancy import TenantQuota, TenantRegistry

ACME_CUSTOMERS = 40
GLOBEX_CUSTOMERS = 30


@pytest.fixture(scope="module")
def cities():
    return {
        "acme": generate_city(
            CityConfig(n_customers=ACME_CUSTOMERS, n_days=7, seed=1)
        ),
        "globex": generate_city(
            CityConfig(n_customers=GLOBEX_CUSTOMERS, n_days=7, seed=2)
        ),
    }


@pytest.fixture()
def registry(cities):
    registry = TenantRegistry(default_tenant="acme")
    registry.create_from_city("acme", cities["acme"])
    registry.create_from_city("globex", cities["globex"])
    return registry


@pytest.fixture()
def client(registry):
    return TestClient(VapApp(tenants=registry))


class TestRouting:
    def test_header_selects_tenant(self, client):
        acme = client.get("/api/health", headers={"X-Tenant": "acme"})
        globex = client.get("/api/health", headers={"X-Tenant": "globex"})
        assert acme.status == globex.status == 200
        assert acme.json["tenant"] == "acme"
        assert globex.json["tenant"] == "globex"
        assert acme.json["n_customers"] == ACME_CUSTOMERS
        assert globex.json["n_customers"] == GLOBEX_CUSTOMERS

    def test_param_equals_header(self, client):
        via_param = client.get("/api/health?tenant=globex")
        via_header = client.get(
            "/api/health", headers={"X-Tenant": "globex"}
        )
        assert via_param.status == 200
        assert via_param.json["tenant"] == via_header.json["tenant"]
        assert via_param.json["n_customers"] == via_header.json["n_customers"]

    def test_agreeing_header_and_param_ok(self, client):
        response = client.get(
            "/api/health?tenant=acme", headers={"X-Tenant": "acme"}
        )
        assert response.status == 200
        assert response.json["tenant"] == "acme"

    def test_disagreeing_header_and_param_is_400(self, client):
        response = client.get(
            "/api/health?tenant=globex", headers={"X-Tenant": "acme"}
        )
        assert response.status == 400
        assert "disagree" in response.json["error"]

    def test_unknown_tenant_is_404(self, client):
        for response in (
            client.get("/api/health", headers={"X-Tenant": "nobody"}),
            client.get("/api/health?tenant=nobody"),
        ):
            assert response.status == 404
            assert "unknown tenant" in response.json["error"]

    def test_no_tenant_falls_back_to_default(self, client):
        response = client.get("/api/health")
        assert response.status == 200
        assert response.json["tenant"] == "acme"
        assert response.json["n_customers"] == ACME_CUSTOMERS

    def test_single_tenant_app_unchanged(self, cities):
        # The pre-tenancy constructor shape still works: one session,
        # no registry, requests need no tenant routing at all.
        app = VapApp(VapSession.from_city(cities["globex"]))
        response = TestClient(app).get("/api/health")
        assert response.status == 200
        assert response.json["n_customers"] == GLOBEX_CUSTOMERS


class TestIsolation:
    def test_queries_hit_the_right_database(self, client, registry):
        for tenant in ("acme", "globex"):
            want = sorted(registry.session(tenant).db.customer_ids)
            got = client.get(
                "/api/customers", headers={"X-Tenant": tenant}
            )
            assert got.status == 200
            assert sorted(
                row["customer_id"] for row in got.json["customers"]
            ) == want

    def test_identical_params_never_collide_on_cache(self, client):
        """Same URL, different tenants: the single-flight caches are
        per-tenant objects, so a warm cache for one tenant must not be
        served to the other (nor poison repeat calls)."""
        url = "/api/embedding?method=mds_classical&seed=0"
        first_acme = client.get(url, headers={"X-Tenant": "acme"})
        first_globex = client.get(url, headers={"X-Tenant": "globex"})
        assert first_acme.status == first_globex.status == 200
        assert len(first_acme.json["points"]) == ACME_CUSTOMERS
        assert len(first_globex.json["points"]) == GLOBEX_CUSTOMERS
        assert (
            first_acme.json["customer_ids"]
            != first_globex.json["customer_ids"]
        )
        # Repeat calls (cache hits) return each tenant's own result.
        again_acme = client.get(url, headers={"X-Tenant": "acme"})
        again_globex = client.get(url, headers={"X-Tenant": "globex"})
        assert again_acme.json["points"] == first_acme.json["points"]
        assert again_globex.json["points"] == first_globex.json["points"]

    def test_telemetry_counts_per_tenant(self, client):
        before = client.get("/api/telemetry").json["tenants"]
        for _ in range(3):
            assert client.get(
                "/api/customers", headers={"X-Tenant": "acme"}
            ).status == 200
        after = client.get("/api/telemetry").json["tenants"]
        assert set(after) == {"acme", "globex"}
        assert after["acme"]["requests"] == before["acme"]["requests"] + 3
        assert after["globex"]["requests"] == before["globex"]["requests"]
        assert after["acme"]["n_customers"] == ACME_CUSTOMERS
        assert after["globex"]["n_customers"] == GLOBEX_CUSTOMERS


class TestQuota:
    def test_quota_exhaustion_is_429_per_tenant(self, cities):
        registry = TenantRegistry(default_tenant="acme")
        registry.create_from_city(
            "acme", cities["acme"], quota=TenantQuota(max_requests=3)
        )
        registry.create_from_city("globex", cities["globex"])
        client = TestClient(VapApp(tenants=registry))
        for _ in range(3):
            assert client.get(
                "/api/health?tenant=acme"  # health is never charged
            ).status == 200
            assert client.get(
                "/api/customers", headers={"X-Tenant": "acme"}
            ).status == 200
        blocked = client.get("/api/customers", headers={"X-Tenant": "acme"})
        assert blocked.status == 429
        assert "quota" in blocked.json["error"]
        assert blocked.json["tenant"] == "acme"
        assert "Retry-After" in blocked.headers
        # The other tenant is untouched, and the throttled tenant can
        # still be diagnosed through the uncharged observability paths.
        assert client.get(
            "/api/customers", headers={"X-Tenant": "globex"}
        ).status == 200
        assert client.get(
            "/api/health", headers={"X-Tenant": "acme"}
        ).status == 200
        telemetry = client.get("/api/telemetry")
        assert telemetry.status == 200
        assert telemetry.json["tenants"]["acme"]["requests"] == 3

    def test_reset_usage_reopens_the_gate(self, cities):
        registry = TenantRegistry(default_tenant="acme")
        registry.create_from_city(
            "acme", cities["acme"], quota=TenantQuota(max_requests=1)
        )
        client = TestClient(VapApp(tenants=registry))
        assert client.get("/api/customers").status == 200
        assert client.get("/api/customers").status == 429
        registry.reset_usage("acme")
        assert client.get("/api/customers").status == 200


class TestRegistryValidation:
    def test_duplicate_tenant_rejected(self, cities):
        registry = TenantRegistry()
        registry.create_from_city("acme", cities["acme"])
        with pytest.raises(ValueError, match="already registered"):
            registry.create_from_city("acme", cities["globex"])

    def test_bad_tenant_ids_rejected(self, cities):
        registry = TenantRegistry()
        session = VapSession.from_city(cities["globex"])
        for bad in ("", "../x", "a b", "-lead", "x" * 65):
            with pytest.raises(ValueError, match="tenant id"):
                registry.add(bad, session)
