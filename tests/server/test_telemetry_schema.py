"""Blocking schema-snapshot check for the /api/telemetry JSON document.

``/api/telemetry`` is the repo's operational contract: dashboards, the
CI artifact exporter and the SVG panel all consume it.  This test
round-trips the payload's *structure* (key tree + value kinds, not
values) against a checked-in snapshot, so an accidental rename, removal
or type change of any block — including the new ``slo`` block — fails
CI loudly instead of silently breaking consumers.

To accept an intentional schema change, regenerate the snapshot::

    REPRO_UPDATE_SNAPSHOTS=1 PYTHONPATH=src python -m pytest \
        tests/server/test_telemetry_schema.py

and commit the updated ``snapshots/telemetry_schema.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import obs
from repro.core.pipeline import VapSession
from repro.data.generator.simulate import CityConfig, generate_city
from repro.obs import MetricsRegistry, SlowOpLog, TimeWindowStore, TraceStore
from repro.server import TestClient, VapApp

SNAPSHOT_PATH = Path(__file__).parent / "snapshots" / "telemetry_schema.json"


def schema_of(value: object) -> object:
    """Structural schema: key tree and value kinds, order-normalised.

    Scalars collapse to ``"scalar"`` (``None`` included — nullable
    fields must not flap the schema); dicts map each key to its value's
    schema; lists merge every element's schema so the snapshot does not
    depend on how many routes/ops/slow-ops happened to be recorded.
    """
    if isinstance(value, dict):
        return {
            "type": "object",
            "keys": {str(k): schema_of(v) for k, v in sorted(value.items())},
        }
    if isinstance(value, (list, tuple)):
        merged: object | None = None
        for item in value:
            merged = _merge(merged, schema_of(item))
        return {"type": "array", "items": merged if merged is not None else "unknown"}
    return "scalar"


def _merge(a: object | None, b: object) -> object:
    if a is None or a == b:
        return b
    if (
        isinstance(a, dict)
        and isinstance(b, dict)
        and a.get("type") == b.get("type") == "object"
    ):
        keys = dict(a["keys"])
        for key, sub in b["keys"].items():
            keys[key] = _merge(keys.get(key), sub)
        return {"type": "object", "keys": keys}
    if (
        isinstance(a, dict)
        and isinstance(b, dict)
        and a.get("type") == b.get("type") == "array"
    ):
        items_a, items_b = a["items"], b["items"]
        if items_a == "unknown":
            return b
        if items_b == "unknown":
            return a
        return {"type": "array", "items": _merge(items_a, items_b)}
    return "mixed"


@pytest.fixture(scope="module")
def schema_city():
    return generate_city(CityConfig(n_customers=25, n_days=7, seed=41))


def _build_payload(city) -> dict:
    """A telemetry payload with every optional block populated."""
    previous = obs.get_tracer()
    obs.configure(sink=obs.RingBufferSink(), trace_store=TraceStore())
    try:
        session = VapSession.from_city(city, metrics=MetricsRegistry())
        app = VapApp(
            session,
            layout=city.layout,
            window_store=TimeWindowStore(),
            slow_log=SlowOpLog(),
        )
        client = TestClient(app)
        # Exercise enough surface that the data-bearing lists are
        # non-empty: routed requests, an error, a kernel run, db queries.
        assert client.get("/api/health").ok
        assert client.get("/api/density?t_start=8&t_end=12").ok
        assert client.get("/api/embedding?n_iter=40&perplexity=5").ok
        assert client.post("/api/rollups/rebuild", {}).ok
        assert client.get("/api/no-such-endpoint").status == 404
        return client.get("/api/telemetry").json
    finally:
        obs.configure(tracer=previous)


def test_telemetry_schema_matches_snapshot(schema_city):
    schema = schema_of(_build_payload(schema_city))
    if os.environ.get("REPRO_UPDATE_SNAPSHOTS") == "1":
        SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT_PATH.write_text(
            json.dumps(schema, indent=2, sort_keys=True) + "\n"
        )
    assert SNAPSHOT_PATH.exists(), (
        f"missing snapshot {SNAPSHOT_PATH}; run with "
        "REPRO_UPDATE_SNAPSHOTS=1 to create it"
    )
    expected = json.loads(SNAPSHOT_PATH.read_text())
    assert schema == expected, (
        "telemetry schema drifted from the checked-in snapshot; if the "
        "change is intentional, regenerate with REPRO_UPDATE_SNAPSHOTS=1 "
        "and commit the diff"
    )


def test_snapshot_includes_slo_block(schema_city):
    """The new slo block is part of the frozen contract."""
    expected = json.loads(SNAPSHOT_PATH.read_text())
    slo = expected["keys"]["slo"]
    assert slo["type"] == "object"
    slo_entry = slo["keys"]["slos"]["items"]
    for key in (
        "name", "kind", "objective", "error_budget_remaining",
        "firing", "rules",
    ):
        assert key in slo_entry["keys"], key
    rule_entry = slo_entry["keys"]["rules"]["items"]
    for key in (
        "rule", "short_seconds", "long_seconds", "threshold",
        "short_burn_rate", "long_burn_rate", "firing",
    ):
        assert key in rule_entry["keys"], key


class TestSchemaExtractor:
    def test_scalars_collapse(self):
        assert schema_of(1) == schema_of("x") == schema_of(None) == "scalar"

    def test_list_length_does_not_matter(self):
        assert schema_of([{"a": 1}]) == schema_of([{"a": 2.5}, {"a": 3}])

    def test_list_element_keys_merge(self):
        schema = schema_of([{"a": 1}, {"b": 2}])
        assert schema["items"]["keys"].keys() == {"a", "b"}

    def test_key_rename_changes_schema(self):
        assert schema_of({"old": 1}) != schema_of({"new": 1})

    def test_type_change_changes_schema(self):
        assert schema_of({"a": 1}) != schema_of({"a": [1]})
