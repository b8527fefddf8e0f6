"""The server the end-to-end benchmark measures, in a child process.

Reads a pickled ``{"city": CityDataset, "replay": SeriesSet | None}``
from stdin (written by ``run.py``, never from elsewhere), builds the
session and app the way ``python -m repro.server`` does — trace store
of 256, ``max_inflight=32``, a ``PooledWSGIServer`` with 8 threads, JSON
and access logs on stderr — binds an ephemeral port on 127.0.0.1,
prints the port on stdout and serves until killed.

A thin WSGI shim in front of the app adds two routes and nothing else:

- ``POST /_bench/tick`` applies the next replay hour through
  :class:`repro.stream.routing.ShardRouter` (the live-feed writer);
- ``GET /_bench/trace`` returns, and forgets, the spans recorded since
  the previous call, plus the profiler's sample count.

With ``--trace`` every layer's entry points are wrapped, from here, in
span recorders (name, start, end, parent, request id); nothing under
``src/`` is changed.  ``--profile-hz`` starts the program's own
``StackProfiler``.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import itertools
import json
import pickle
import sys
import threading
import time

from repro import obs
from repro.core import pipeline
from repro.core.patterns import autodiscover
from repro.core.patterns.selection import (
    KnnSelection,
    LassoSelection,
    RadiusSelection,
    RectSelection,
)
from repro.core.pipeline import VapSession
from repro.core.shift import sensitivity
from repro.core.singleflight import SingleFlightCache
from repro.db.engine import EnergyDatabase
from repro.obs.logging import bind_request_id, current_request_id
from repro.rollup.store import RollupStore
from repro.server import app as app_module
from repro.server import json_codec
from repro.server.app import VapApp
from repro.server.middleware import BackpressureMiddleware, MetricsMiddleware
from repro.server.serving import PooledWSGIServer, make_threaded_server
from repro.stream.feed import ReplayFeed
from repro.stream.routing import ShardRouter
from repro.tenancy import TenantRegistry


class SpanRecorder:
    """Records one span per wrapped call, in memory.

    A span is ``(id, parent id, name, start, end, request id, value)``;
    ``value`` is an optional per-call quantity (bytes encoded, t-SNE
    iterations, single-flight outcome).  The parent is the innermost
    wrapped call open in the same context.  A span's request id is the
    one bound while it ran, or the first one a child reported, so the
    serving span that wraps a whole connection carries it too.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.queue_waits: list[float] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=None
        )

    def wrap(self, name: str, fn, value=None):
        current = self._current
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            frame = [next(ids), None]
            token = current.set(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                current.reset(token)
                rid = frame[1] or current_request_id()
                if parent is not None and parent[1] is None:
                    parent[1] = rid
                measured = (
                    value(result, args)
                    if value is not None and result is not None
                    else None
                )
                spans.append(
                    (
                        frame[0],
                        None if parent is None else parent[0],
                        name,
                        start,
                        end,
                        rid,
                        measured,
                    )
                )

        return traced

    def patch(self, owner, attr: str, name: str, value=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), value))

    def drain(self) -> dict:
        spans = self.spans[:]
        del self.spans[: len(spans)]
        waits = self.queue_waits[:]
        del self.queue_waits[: len(waits)]
        return {"spans": spans, "queue_waits": waits}


def _ingested_bytes(result, args) -> int:
    # ingest_hours rebuilds the whole readings matrix: the bytes it
    # writes are the new matrix's size.
    return args[0].readings.matrix.nbytes


# (object, attribute, span name, per-call value) for every layer entry
# point the traced run records.  Module-level functions are patched in
# the module that calls them, because the callers imported them by name.
TRACED = [
    (MetricsMiddleware, "__call__", "middleware", None),
    (BackpressureMiddleware, "__call__", "middleware", None),
    (VapApp, "_dispatch", "app", None),
    (TenantRegistry, "session", "tenancy", None),
    (TenantRegistry, "charge", "tenancy", None),
    (json_codec, "dumps", "json_codec", lambda r, a: len(r)),
    (json_codec, "loads", "json_codec", lambda r, a: len(a[0])),
    (VapSession, "embed_degradable", "pipeline.embed", None),
    (VapSession, "density_degradable", "pipeline.density", None),
    (VapSession, "shift_degradable", "pipeline.shift", None),
    (VapSession, "granularity_sweep", "pipeline.granularity_sweep", None),
    (VapSession, "quantile_sweep", "pipeline.quantile_sweep", None),
    (VapSession, "rollups_catch_up", "pipeline.rollups_catch_up", None),
    (VapSession, "pattern_of", "pipeline.pattern_of", None),
    (VapSession, "profile_of", "pipeline.profile_of", None),
    (SingleFlightCache, "get_or_compute", "singleflight", lambda r, a: r[1]),
    (pipeline, "tsne", "reduction.tsne", lambda r, a: r.n_iter),
    (pipeline, "extract_features", "reduction.features", None),
    (pipeline, "kde_density", "shift.kde", None),
    (sensitivity, "kde_density", "shift.kde", None),
    (app_module, "major_flows", "shift.flows", None),
    (sensitivity, "major_flows", "shift.flows", None),
    (pipeline, "granularity_sweep_from_rollups", "shift.sweep", None),
    (pipeline, "quantile_sweep_from_rollups", "shift.sweep", None),
    (pipeline, "_granularity_sweep_raw", "shift.sweep", None),
    (pipeline, "_quantile_sweep_raw", "shift.sweep", None),
    (RectSelection, "apply", "patterns.select", None),
    (KnnSelection, "apply", "patterns.select", None),
    (RadiusSelection, "apply", "patterns.select", None),
    (LassoSelection, "apply", "patterns.select", None),
    (autodiscover, "propose_selections", "patterns.propose", None),
    (pipeline, "label_selection", "patterns.label", None),
    (pipeline, "label_customers", "patterns.label", None),
    (RollupStore, "apply_hours", "rollup.apply_hours", None),
    (RollupStore, "bucket_field", "rollup.bucket_field", None),
    (RollupStore, "window_field", "rollup.window_field", None),
    (EnergyDatabase, "demand", "db.demand", None),
    (EnergyDatabase, "readings_for", "db.readings_for", None),
    (EnergyDatabase, "ingest_hours", "db.ingest_hours", _ingested_bytes),
    (ShardRouter, "apply", "stream.apply", None),
]


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point in :data:`TRACED`, plus the serving layer.

    Must run before the app is built: the app binds its handlers and
    ``_dispatch`` at construction.
    """
    for owner, attr, name, value in TRACED:
        recorder.patch(owner, attr, name, value)

    # Serving: one span per connection handled by a pool thread, and the
    # time each accepted connection waited for a free thread.
    submitted: dict[int, float] = {}
    submit = PooledWSGIServer.process_request
    work = recorder.wrap("serving", PooledWSGIServer._work)

    def process_request(self, request, client_address):
        submitted[id(request)] = time.perf_counter()
        return submit(self, request, client_address)

    def _work(self, request, client_address):
        queued = submitted.pop(id(request), None)
        if queued is not None:
            recorder.queue_waits.append(time.perf_counter() - queued)
        return work(self, request, client_address)

    PooledWSGIServer.process_request = process_request
    PooledWSGIServer._work = _work


class BenchShim:
    """WSGI front that adds ``/_bench/tick`` and ``/_bench/trace``."""

    def __init__(
        self,
        app: VapApp,
        recorder: SpanRecorder | None,
        profiler: obs.StackProfiler | None,
        router: ShardRouter | None,
        feed: ReplayFeed | None,
    ) -> None:
        self.app = app
        self.recorder = recorder
        self.profiler = profiler
        self.router = router
        self._batches = iter(feed) if feed is not None else iter(())
        self._tick_lock = threading.Lock()

    @staticmethod
    def _json(start_response, status: str, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        start_response(
            status,
            [("Content-Type", "application/json"), ("Content-Length", str(len(body)))],
        )
        return [body]

    def __call__(self, environ, start_response):
        path = environ.get("PATH_INFO", "")
        method = environ.get("REQUEST_METHOD", "GET")
        if path == "/_bench/tick" and method == "POST":
            return self._tick(environ, start_response)
        if path == "/_bench/trace" and method == "GET":
            return self._trace(environ, start_response)
        return self.app(environ, start_response)

    def _tick(self, environ, start_response):
        if self.router is None:
            return self._json(
                start_response, "404 Not Found", {"error": "no replay feed"}
            )
        rid = environ.get("HTTP_X_REQUEST_ID") or obs.new_request_id()
        with self._tick_lock, bind_request_id(rid):
            batch = next(self._batches, None)
            if batch is None:
                return self._json(
                    start_response, "409 Conflict", {"error": "replay exhausted"}
                )
            end_hour = self.router.apply(batch)
        return self._json(
            start_response, "200 OK", {"tick": batch.tick, "end_hour": end_hour}
        )

    def _trace(self, environ, start_response):
        payload = (
            self.recorder.drain()
            if self.recorder is not None
            else {"spans": [], "queue_waits": []}
        )
        payload["profiler_samples"] = (
            self.profiler.samples if self.profiler is not None else 0
        )
        return self._json(start_response, "200 OK", payload)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--profile-hz", type=float, default=0.0)
    parser.add_argument("--jobs-root", required=True)
    args = parser.parse_args(argv)

    payload = pickle.load(sys.stdin.buffer)
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder)

    trace_store = obs.TraceStore(max_traces=256)
    obs.configure(sink=obs.RingBufferSink(), trace_store=trace_store)
    profiler = None
    if args.profile_hz > 0:
        profiler = obs.StackProfiler(hz=args.profile_hz)
        profiler.start()

    city = payload["city"]
    session = VapSession.from_city(city, shards=None)
    app = VapApp(
        session,
        layout=city.layout,
        max_inflight=32,
        profiler=profiler,
        jobs_root=args.jobs_root,
        job_workers=2,
    )
    replay = payload.get("replay")
    router = feed = None
    if replay is not None:
        router = ShardRouter(session.db, replay.customer_ids)
        feed = ReplayFeed(replay, hours_per_tick=1)
    shim = BenchShim(app, recorder, profiler, router, feed)
    with make_threaded_server("127.0.0.1", 0, shim, threads=8) as server:
        print(server.server_port, flush=True)
        server.serve_forever()


if __name__ == "__main__":
    main()
