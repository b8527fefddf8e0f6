"""Tests for the ``python -m repro.server`` entry point."""

import pytest

from repro import obs
from repro.server import __main__ as server_main


@pytest.fixture(autouse=True)
def _restore_tracer():
    """main() installs a trace store on the global tracer; undo it."""
    previous = obs.get_tracer()
    yield
    obs.configure(tracer=previous)


class _FakeServer:
    """Stands in for the pooled server: records the app, never blocks."""

    instances: list["_FakeServer"] = []

    def __init__(self, host, port, app, threads=8):
        self.host = host
        self.port = port
        self.app = app
        self.threads = threads
        _FakeServer.instances.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def serve_forever(self):
        raise KeyboardInterrupt  # return immediately in tests


def test_main_builds_app_and_serves(monkeypatch, capsys):
    monkeypatch.setattr(server_main, "make_server", _FakeServer)
    _FakeServer.instances.clear()
    with pytest.raises(KeyboardInterrupt):
        server_main.main(
            [
                "--port", "9999", "--customers", "15", "--days", "7",
                "--threads", "4", "--max-inflight", "6",
                "--deadline-seconds", "5",
            ]
        )
    assert len(_FakeServer.instances) == 1
    server = _FakeServer.instances[0]
    assert server.port == 9999
    assert server.threads == 4
    # The app is a live VapApp over the generated city, with the
    # backpressure limits from the CLI flags wired in.
    from repro.server.app import VapApp

    assert isinstance(server.app, VapApp)
    assert len(server.app.session.db) == 15
    assert server.app._backpressure.max_inflight == 6
    assert server.app._backpressure.deadline_seconds == 5.0
    assert "listening" in capsys.readouterr().out


def test_main_arms_fault_plan(monkeypatch, capsys):
    from repro.resilience import faults

    monkeypatch.setattr(server_main, "make_server", _FakeServer)
    _FakeServer.instances.clear()
    previous = faults.active_injector()
    try:
        with pytest.raises(KeyboardInterrupt):
            server_main.main(
                [
                    "--customers", "10", "--days", "7",
                    "--fault-plan", "storage.load.readings=error:0.2",
                    "--fault-seed", "11",
                ]
            )
        injector = faults.active_injector()
        assert injector is not None
        assert injector.plan.seed == 11
        (spec,) = injector.plan.specs
        assert spec.site == "storage.load.readings"
        assert spec.rate == pytest.approx(0.2)
        out = capsys.readouterr().out
        assert "fault plan armed (seed 11)" in out
    finally:
        faults.install(None)
        if previous is not None:
            # Restore the session-level env plan if one was armed.
            faults.install(previous.plan)


def test_main_inflight_cap_disabled_with_zero(monkeypatch):
    monkeypatch.setattr(server_main, "make_server", _FakeServer)
    _FakeServer.instances.clear()
    with pytest.raises(KeyboardInterrupt):
        server_main.main(
            ["--customers", "10", "--days", "7", "--max-inflight", "0"]
        )
    app = _FakeServer.instances[0].app
    assert app._backpressure.max_inflight is None


def test_main_wires_tracing_and_profiler(monkeypatch, capsys):
    monkeypatch.setattr(server_main, "make_server", _FakeServer)
    _FakeServer.instances.clear()
    with pytest.raises(KeyboardInterrupt):
        server_main.main(
            [
                "--customers", "10", "--days", "7",
                "--trace-capacity", "64", "--profile-hz", "50",
            ]
        )
    app = _FakeServer.instances[0].app
    store = obs.get_trace_store()
    assert store is not None and store.max_traces == 64
    assert app.profiler is not None
    assert app.profiler.hz == 50.0
    assert app.profiler.running
    app.profiler.stop()
    out = capsys.readouterr().out
    assert "/api/traces" in out
    assert "continuous @ 50 hz" in out


def test_main_trace_capacity_zero_disables_tracing(monkeypatch):
    monkeypatch.setattr(server_main, "make_server", _FakeServer)
    _FakeServer.instances.clear()
    with pytest.raises(KeyboardInterrupt):
        server_main.main(
            ["--customers", "10", "--days", "7", "--trace-capacity", "0"]
        )
    assert obs.get_trace_store() is None


def test_main_builds_multi_tenant_app(monkeypatch, capsys):
    monkeypatch.setattr(server_main, "make_server", _FakeServer)
    _FakeServer.instances.clear()
    with pytest.raises(KeyboardInterrupt):
        server_main.main(
            [
                "--customers", "12", "--days", "7",
                "--tenants", "acme, globex",
                "--tenant-quota", "50",
            ]
        )
    app = _FakeServer.instances[0].app
    assert app.tenants.names() == ["acme", "globex"]
    assert app.tenants.default_tenant == "acme"
    for name in ("acme", "globex"):
        assert len(app.tenants.session(name).db) == 12
        assert app.tenants.usage(name)["max_requests"] == 50
    # Tenants get distinct cities: isolation is visible in the data.
    acme_box = app.tenants.session("acme").db.bounding_box()
    globex_box = app.tenants.session("globex").db.bounding_box()
    assert acme_box != globex_box
    out = capsys.readouterr().out
    assert "acme, globex" in out
