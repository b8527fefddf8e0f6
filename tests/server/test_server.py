"""Tests for the JSON codec, router and the REST API contract."""

import math

import numpy as np
import pytest

from repro.server import TestClient, VapApp, json_codec
from repro.server.router import MethodNotAllowed, Router


class TestJsonCodec:
    def test_numpy_types(self):
        payload = {
            "i": np.int64(4),
            "f": np.float64(1.5),
            "b": np.bool_(True),
            "arr": np.array([1.0, 2.0]),
        }
        text = json_codec.dumps(payload)
        assert json_codec.loads(text) == {
            "i": 4,
            "f": 1.5,
            "b": True,
            "arr": [1.0, 2.0],
        }

    def test_nan_and_inf_become_null(self):
        text = json_codec.dumps({"x": float("nan"), "y": np.inf, "arr": np.array([np.nan])})
        assert json_codec.loads(text) == {"x": None, "y": None, "arr": [None]}
        assert "NaN" not in text  # strict JSON

    def test_enum_and_to_record(self):
        from repro.data.meter import ZoneKind
        from repro.data.timeseries import HourWindow

        text = json_codec.dumps({"zone": ZoneKind.PARK, "w": HourWindow(1, 2)})
        assert json_codec.loads(text) == {
            "zone": "park",
            "w": {"start_hour": 1, "end_hour": 2},
        }

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            json_codec.dumps({"x": object()})

    def test_nested_collections(self):
        text = json_codec.dumps([(1, 2), {3, 3}])
        assert json_codec.loads(text) == [[1, 2], [3]]


class TestRouter:
    def test_static_and_param_routes(self):
        router = Router()
        router.add("GET", "/a", lambda req: "a")
        router.add("GET", "/a/<int:x>", lambda req, x: x)
        router.add("GET", "/a/<name>/b", lambda req, name: name)
        handler, params = router.match("GET", "/a/42")
        assert handler(None, **params) == 42
        handler, params = router.match("GET", "/a/hello/b")
        assert handler(None, **params) == "hello"
        assert router.match("GET", "/nope") is None

    def test_method_not_allowed(self):
        router = Router()
        router.add("GET", "/x", lambda req: None)
        with pytest.raises(MethodNotAllowed):
            router.match("POST", "/x")

    def test_validation(self):
        router = Router()
        with pytest.raises(ValueError):
            router.add("PATCH", "/x", lambda req: None)
        with pytest.raises(ValueError):
            router.add("GET", "no-slash", lambda req: None)
        with pytest.raises(ValueError, match="duplicate"):
            router.add("GET", "/a/<x>/<x>", lambda req, x: None)

    def test_negative_int_param(self):
        router = Router()
        router.add("GET", "/h/<int:h>", lambda req, h: h)
        _, params = router.match("GET", "/h/-5")
        assert params["h"] == -5


@pytest.fixture(scope="module")
def client(small_session, small_city):
    return TestClient(VapApp(small_session, layout=small_city.layout))


class TestApi:
    def test_health(self, client, small_session):
        data = client.get("/api/health").json
        assert data["status"] == "ok"
        assert data["n_customers"] == len(small_session.db)

    def test_quality_includes_anomaly_report(self, client):
        data = client.get("/api/quality").json
        assert "missing_fraction" in data
        assert "anomalies_removed" in data

    def test_zones(self, client, small_city):
        data = client.get("/api/zones").json
        assert len(data["zones"]) == len(small_city.layout.zones)
        assert {"name", "kind", "center", "radius_deg"} <= set(data["zones"][0])

    def test_customers_zone_filter(self, client, small_session):
        data = client.get("/api/customers?zone=residential").json
        want = len(small_session.db.ids_in_zone("residential"))
        assert data["count"] == want

    def test_customers_bbox_filter(self, client, small_session):
        box = small_session.db.bounding_box()
        mid = box.center
        url = f"/api/customers?bbox={box.min_lon},{box.min_lat},{mid.lon},{mid.lat}"
        data = client.get(url).json
        assert 0 < data["count"] < len(small_session.db)

    def test_customers_bad_bbox(self, client):
        assert client.get("/api/customers?bbox=1,2,3").status == 400
        assert client.get("/api/customers?bbox=a,b,c,d").status == 400
        for nan_box in ("nan,nan,nan,nan", "nan,0,1,1", "0,0,nan,1"):
            response = client.get(f"/api/customers?bbox={nan_box}")
            assert response.status == 400
            assert "NaN" in response.json["error"]

    def test_customers_infinite_bbox_returns_everyone(self, client, small_session):
        data = client.get("/api/customers?bbox=-inf,-inf,inf,inf").json
        assert data["count"] == len(small_session.db)

    def test_customer_detail_and_404(self, client, small_session):
        cid = small_session.db.customer_ids[0]
        data = client.get(f"/api/customers/{cid}").json
        assert data["customer_id"] == cid
        assert client.get("/api/customers/99999").status == 404

    def test_readings_window(self, client, small_session):
        cid = small_session.db.customer_ids[0]
        data = client.get(f"/api/customers/{cid}/readings?start=0&end=24").json
        assert len(data["values"]) == 24
        assert data["start_hour"] == 0

    def test_readings_bad_window(self, client, small_session):
        cid = small_session.db.customer_ids[0]
        resp = client.get(f"/api/customers/{cid}/readings?start=10&end=2")
        assert resp.status == 400

    def test_readings_unknown_customer_is_404(self, client):
        assert client.get("/api/customers/99999/readings").status == 404

    def test_embedding_and_selection_round_trip(self, client):
        emb = client.get("/api/embedding?n_iter=200").json
        assert len(emb["points"]) == len(emb["customer_ids"])
        x, y = emb["points"][0]
        sel = client.post(
            "/api/selection", json={"type": "knn", "x": x, "y": y, "k": 6}
        ).json
        assert sel["count"] == 6
        assert len(sel["customer_ids"]) == 6
        assert sel["pattern"]
        assert len(sel["profile"]) > 0

    def test_selection_rect_empty(self, client):
        sel = client.post(
            "/api/selection",
            json={"type": "rect", "x_min": 1e5, "y_min": 1e5, "x_max": 1e6, "y_max": 1e6},
        ).json
        assert sel["count"] == 0

    def test_selection_lasso(self, client):
        emb = client.get("/api/embedding").json
        xs = [p[0] for p in emb["points"]]
        ys = [p[1] for p in emb["points"]]
        lo_x, hi_x = min(xs) - 1, max(xs) + 1
        lo_y, hi_y = min(ys) - 1, max(ys) + 1
        sel = client.post(
            "/api/selection",
            json={
                "type": "lasso",
                "vertices": [
                    [lo_x, lo_y], [hi_x, lo_y], [hi_x, hi_y], [lo_x, hi_y],
                ],
            },
        ).json
        assert sel["count"] == len(emb["points"])

    def test_selection_errors(self, client):
        assert client.post("/api/selection", json={"type": "blob"}).status == 400
        assert client.post("/api/selection", json={"type": "knn"}).status == 400
        assert client.post("/api/selection", json=[1, 2]).status == 400

    @pytest.mark.parametrize(
        "body, field",
        [
            ('{"type":"knn","x":NaN,"y":0,"k":3}', "x"),
            ('{"type":"knn","x":Infinity,"y":0,"k":3}', "x"),
            ('{"type":"radius","x":0,"y":-Infinity,"radius":1}', "y"),
            ('{"type":"radius","x":0,"y":0,"radius":NaN}', "radius"),
            ('{"type":"rect","x_min":0,"y_min":NaN,"x_max":1,"y_max":1}', "y_min"),
            (
                '{"type":"lasso","vertices":[[0,0],[1,0],[1,NaN],[0,1]]}',
                "lasso vertex 2",
            ),
        ],
    )
    def test_non_finite_geometry_is_400_naming_the_field(
        self, client, body, field
    ):
        # Raw bytes: the client's encoder would turn NaN/inf into null.
        response = client._request("POST", "/api/selection", body.encode())
        assert response.status == 400
        error = response.json["error"]
        assert error.startswith("bad selection geometry: ")
        assert field in error

    def test_infinite_rect_bounds_select_everything(self, client):
        response = client._request(
            "POST",
            "/api/selection",
            b'{"type":"rect","x_min":-Infinity,"y_min":-Infinity,'
            b'"x_max":Infinity,"y_max":Infinity}',
        )
        assert response.status == 200
        emb = client.get("/api/embedding").json
        assert response.json["count"] == len(emb["points"])

    def test_density_grid(self, client):
        data = client.get("/api/density?t_start=0&t_end=24").json
        assert data["nx"] > 0
        assert len(data["values"]) == data["ny"]

    def test_shift_flows(self, client):
        data = client.get(
            "/api/shift?t1_start=61&t1_end=63&t2_start=67&t2_end=69"
        ).json
        assert data["energy"] > 0
        for flow in data["flows"]:
            assert {"from", "to", "magnitude"} <= set(flow)

    def test_shift_missing_params(self, client):
        assert client.get("/api/shift?t1_start=0").status == 400

    def test_kmeans(self, client, small_session):
        data = client.get("/api/kmeans?k=4").json
        assert data["k"] == 4
        assert len(data["labels"]) == len(small_session.db)
        assert len(set(data["labels"])) == 4

    def test_unknown_endpoint_404(self, client):
        assert client.get("/api/wat").status == 404

    def test_method_not_allowed_405(self, client):
        assert client.post("/api/health", json={}).status == 405

    def test_model_validation_maps_to_400(self, client):
        # embed() raises ValueError for an unknown method.
        assert client.get("/api/embedding?method=umap").status == 400

    def test_responses_are_strict_json(self, client):
        body = client.get("/api/density?t_start=0&t_end=4").body.decode()
        assert "NaN" not in body and "Infinity" not in body


class TestForecastEndpoint:
    def test_forecast_methods(self, client, small_session):
        cid = small_session.db.customer_ids[0]
        for method in ("profile", "seasonal", "naive"):
            data = client.get(
                f"/api/customers/{cid}/forecast?horizon=12&method={method}"
            ).json
            assert len(data["values"]) == 12
            assert data["start_hour"] == small_session.series.end_hour
            assert all(v is None or v >= 0 for v in data["values"])

    def test_forecast_errors(self, client, small_session):
        cid = small_session.db.customer_ids[0]
        assert client.get(f"/api/customers/{cid}/forecast?method=arima").status == 400
        assert client.get(f"/api/customers/{cid}/forecast?horizon=0").status == 400
        assert client.get("/api/customers/424242/forecast").status == 404


class TestProposalsEndpoint:
    def test_proposals_are_labelled(self, client, small_session):
        data = client.get("/api/proposals?min_points=4&min_size=5").json
        assert data["count"] >= 1
        first = data["proposals"][0]
        assert {"cluster_id", "size", "center", "indices", "pattern"} <= set(first)
        assert first["size"] == len(first["indices"])
        # Sizes are sorted descending.
        sizes = [p["size"] for p in data["proposals"]]
        assert sizes == sorted(sizes, reverse=True)

    def test_bad_params(self, client):
        assert client.get("/api/proposals?min_points=0").status == 400
