"""The VAP WSGI application.

Endpoints mirror what the paper's three views request from the logic layer:

====================================  =======================================
``GET  /api/health``                  liveness + data set shape
``GET  /api/quality``                 data-quality report of the raw extract
``GET  /api/zones``                   zone geometry for the basemap
``GET  /api/customers``               customer list; filters: ``zone``,
                                      ``bbox=min_lon,min_lat,max_lon,max_lat``
``GET  /api/customers/<id>``          one customer's metadata
``GET  /api/customers/<id>/readings`` readings; ``start``/``end`` hour params
``GET  /api/embedding``               view C coordinates; params ``method``,
                                      ``metric``, ``perplexity``,
                                      ``n_iter``, ``tsne_method``
                                      (auto/exact/bh/landmark), ``theta``
                                      (read by bh and landmark only,
                                      incl. auto at n >= BH_THRESHOLD),
                                      ``seed`` and ``n_landmarks``
                                      (landmark only), ``dtw_max_rows``
                                      (dtw only); one run per distinct
                                      ``EmbedParams.key``
``POST /api/selection``               run a selection gesture; body gives
                                      ``type`` (rect/radius/knn/lasso) and
                                      geometry; returns indices, customer
                                      ids, pattern label and view-B profile
``GET  /api/density``                 Eq. 3 heat-map grid for a window;
                                      optional ``bandwidth_m`` (metres,
                                      Silverman's rule when absent) and
                                      ``kde_method`` (auto/exact/binned)
``GET  /api/shift``                   Eq. 4 stats + major flows between two
                                      windows (``t1_start`` ... ``t2_end``);
                                      optional ``bandwidth_m``,
                                      ``kde_method``
``GET  /api/sweep/granularity``       S2 temporal-granularity sweep from
                                      the rollup layer (``source=raw``
                                      forces the exact path); params
                                      ``max_pairs``, ``bandwidth_m``
``GET  /api/sweep/quantile``          S2 intensity sweep (``t1_start`` ...
                                      ``t2_end``); rollup-backed with the
                                      same ``source``/``bandwidth_m``
``GET  /api/rollups``                 rollup staleness: last-applied tick,
                                      lag vs the database end hour,
                                      rebuild/refold counters, per-table
                                      bucket counts
``POST /api/rollups/rebuild``         force a full rollup rebuild from
                                      the database
``GET  /api/kmeans``                  S1d baseline labels; param ``k``
``POST /api/sql``                     ad-hoc SELECT over the customers
                                      table; body ``{"query": ...}``
``GET  /api/customers/<id>/forecast`` day-ahead forecast; params
                                      ``horizon``, ``method``
                                      (profile/seasonal/naive)
``GET  /api/proposals``               auto-discovered selection proposals
                                      (DBSCAN over view C), labelled;
                                      params ``method``, ``min_points``,
                                      ``min_size``; cached per embedding
``POST /api/jobs``                    submit heavy work asynchronously;
                                      body ``{"kind": embed|render|export,
                                      "params": {...}, "priority": n}``;
                                      answers 202 + job id immediately
``GET  /api/jobs``                    the tenant's jobs, newest first
``GET  /api/jobs/<id>``               job status: state, progress, ETA,
                                      attempts, checkpoint, artifact ref
``DELETE /api/jobs/<id>``             cancel a queued or running job
``POST /api/jobs/<id>/resume``        re-queue a failed job; embedding
                                      jobs resume their last checkpoint
``GET  /api/jobs/<id>/artifact``      the finished job's result bytes
                                      (``ETag`` is the content digest)
``GET  /api/metrics``                 observability snapshot: request
                                      counters/latency histograms per
                                      route, pipeline cache hit/miss,
                                      kernel stats, recent trace spans,
                                      span-sink export/drop counts;
                                      ``?format=prometheus`` returns
                                      Prometheus text exposition
``GET  /api/telemetry``               self-monitoring dashboard data:
                                      rolling request-rate and latency
                                      windows, cache hit ratios, per-op
                                      runtimes, SLO burn rates and error
                                      budgets, slowest operations with
                                      request IDs; ``?format=svg``
                                      renders the SVG panel
``GET  /api/traces``                  finished traces, newest first;
                                      filters ``request_id``, ``tenant``,
                                      ``min_duration_ms``, ``limit``
``GET  /api/traces/<id>``             one assembled trace tree (pooled
                                      tasks appear as child spans)
``GET  /api/profile``                 stack-sampling profile over
                                      ``seconds``; ``format`` folded
                                      (default), svg flamegraph, or json
====================================  =======================================

Errors return ``{"error": ...}`` with 400/404/405 status.  Answers built
from a breaker-open fallback (embedding, selection, proposals, density,
shift) carry ``"degraded": true`` and the served vs requested cache key.
The app is a plain WSGI callable — serve it with any WSGI server, or
in-process through :class:`repro.server.client.TestClient`.

Every request carries a correlation ID (``X-Request-ID`` in and out) and
emits one structured JSON log line; see :mod:`repro.server.middleware`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable
from urllib.parse import parse_qs

import numpy as np

from repro import __version__, obs
from repro.core.deadline import DeadlineExceeded
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.core.patterns.selection import (
    KnnSelection,
    LassoSelection,
    RadiusSelection,
    RectSelection,
)
from repro.core.params import EmbedParams, parse_option
from repro.core.pipeline import VapSession
from repro.core.shift.flow import major_flows
from repro.data.generator.city import CityLayout
from repro.data.timeseries import HourWindow
from repro.db.spatial import BBox
from repro.jobs import (
    ArtifactError,
    ArtifactStore,
    JobQueueFull,
    JobService,
)
from repro.server import json_codec
from repro.resilience.breaker import BreakerOpen
from repro.resilience.faults import active_injector
from repro.resilience.retry import RetryExhausted
from repro.server.middleware import BackpressureMiddleware, MetricsMiddleware
from repro.server.router import MethodNotAllowed, Router
from repro.tenancy import QuotaExceeded, TenantRegistry

_STATUS = {
    200: "200 OK",
    202: "202 Accepted",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
}

# Observability endpoints are never charged against a tenant quota — an
# over-quota tenant must stay diagnosable.  Prefix-matched so the trace
# and profile sub-paths (/api/traces/<id>) are covered too.  Shared with
# the stock SLOs, which exclude the same routes from their scope.
_UNCHARGED_PREFIXES = obs.OBSERVABILITY_ROUTE_PREFIXES


@dataclass(slots=True)
class RawResponse:
    """A handler result served as-is instead of being JSON-encoded."""

    body: bytes
    content_type: str = "application/octet-stream"
    status: int = 200
    headers: list[tuple[str, str]] = field(default_factory=list)


class ApiError(Exception):
    """Handler-raised error carrying an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """Parsed request: query params, tenant and (for POST) JSON body.

    ``tenant`` and ``session`` are filled in by the dispatcher after
    tenant resolution; handlers read :attr:`session` instead of the
    app-level default so every request operates on its own tenant's
    isolated database and caches.
    """

    def __init__(self, environ: dict) -> None:
        self.method = environ.get("REQUEST_METHOD", "GET").upper()
        self.path = environ.get("PATH_INFO", "/")
        self.query: dict[str, str] = {
            k: v[-1] for k, v in parse_qs(environ.get("QUERY_STRING", "")).items()
        }
        self.tenant_header: str | None = environ.get("HTTP_X_TENANT")
        self.tenant: str | None = None
        self.session: VapSession | None = None
        self.body: object = None
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except (TypeError, ValueError):
            raise ApiError(
                400,
                f"malformed Content-Length header: "
                f"{environ.get('CONTENT_LENGTH')!r}",
            ) from None
        if length > 0 and "wsgi.input" in environ:
            raw = environ["wsgi.input"].read(length)
            try:
                self.body = json_codec.loads(raw)
            except ValueError as exc:
                raise ApiError(400, f"malformed JSON body: {exc}") from exc

    def _param(self, name: str, kind: type, default):
        if name not in self.query:
            if default is None:
                raise ApiError(400, f"missing required parameter {name!r}")
            return default
        return parse_option(name, kind, self.query[name])

    def param_int(self, name: str, default: int | None = None) -> int:
        return self._param(name, int, default)

    def param_float(self, name: str, default: float | None = None) -> float:
        return self._param(name, float, default)

    def param_str(self, name: str, default: str | None = None) -> str:
        return self._param(name, str, default)


class VapApp:
    """WSGI application over one :class:`~repro.core.pipeline.VapSession`.

    Every request flows through a
    :class:`~repro.server.middleware.MetricsMiddleware` that records
    per-route counters and latency histograms into :attr:`metrics` —
    the session's registry unless an explicit one is given — and
    ``GET /api/metrics`` exposes the snapshot.

    The app is safe to serve from multiple threads: the session's caches
    are single-flight, and ``max_inflight``/``deadline_seconds`` wire a
    :class:`~repro.server.middleware.BackpressureMiddleware` between the
    metrics layer and the handlers, so overload answers ``503`` +
    ``Retry-After`` instead of queueing unboundedly.
    """

    def __init__(
        self,
        session: VapSession | None = None,
        layout: CityLayout | None = None,
        registry: obs.MetricsRegistry | None = None,
        window_store: obs.TimeWindowStore | None = None,
        slow_log: obs.SlowOpLog | None = None,
        max_inflight: int | None = None,
        deadline_seconds: float | None = None,
        retry_after_seconds: float = 1.0,
        tenants: TenantRegistry | None = None,
        slo_engine: obs.SloEngine | None = None,
        profiler: obs.StackProfiler | None = None,
        jobs: JobService | None = None,
        jobs_root: str | None = None,
        job_workers: int = 2,
    ) -> None:
        if session is None and tenants is None:
            raise ValueError("VapApp needs a session or a tenant registry")
        if tenants is None:
            # Single-tenant deployment: the given session becomes the
            # registry's default tenant, so the tenant-routing code path
            # is identical in both shapes.
            tenants = TenantRegistry(metrics=registry)
            tenants.add(tenants.default_tenant, session)
        self.tenants = tenants
        if session is None:
            names = tenants.names()
            if not names:
                raise ValueError("tenant registry has no tenants")
            default = (
                tenants.default_tenant
                if tenants.default_tenant in tenants
                else names[0]
            )
            session = tenants.session(default)
        self.session = session
        self.layout = layout
        self._metrics = registry
        self._window_store = window_store
        self._slow_log = slow_log
        # Every app gets an SLO engine (stock availability + latency
        # objectives) so /api/telemetry's slo block is always present;
        # pass one with a dispatcher to get burn-rate alert delivery.
        self.slo_engine = (
            slo_engine if slo_engine is not None else obs.SloEngine()
        )
        self.profiler = profiler
        # The async job service shares the app's tenant registry (same
        # quotas, same sessions).  When none is injected, one is built
        # over a throwaway artifact root — worker threads start lazily
        # on first submit, so an app that never sees a job pays nothing.
        if jobs is None:
            import tempfile

            root = jobs_root or tempfile.mkdtemp(prefix="repro-jobs-")
            jobs = JobService(
                self.tenants,
                ArtifactStore(root),
                workers=job_workers,
                metrics=registry,
                layout=layout,
            )
        self.jobs = jobs
        self.router = Router()
        self._register()
        self._backpressure = BackpressureMiddleware(
            self._dispatch,
            max_inflight=max_inflight,
            deadline_seconds=deadline_seconds,
            retry_after_seconds=retry_after_seconds,
            registry=lambda: self.metrics,
        )
        self._pipeline = MetricsMiddleware(
            self._backpressure,
            registry=lambda: self.metrics,
            route_resolver=self.router.pattern_of,
            window_store=window_store,
            slow_log=slow_log,
            slo_engine=self.slo_engine,
        )
        self._start_time = self.metrics.clock()

    @property
    def metrics(self) -> obs.MetricsRegistry:
        """The registry requests are recorded into."""
        return self._metrics if self._metrics is not None else self.session.metrics

    @property
    def window_store(self) -> obs.TimeWindowStore:
        """The rolling window store telemetry reads (default unless given)."""
        return (
            self._window_store
            if self._window_store is not None
            else obs.get_window_store()
        )

    @property
    def slow_log(self) -> obs.SlowOpLog:
        """The slow-op log telemetry reads (default unless given)."""
        return self._slow_log if self._slow_log is not None else obs.get_slow_log()

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this app was constructed (registry clock)."""
        return max(self.metrics.clock() - self._start_time, 0.0)

    # ------------------------------------------------------------------
    # WSGI plumbing
    # ------------------------------------------------------------------
    def __call__(self, environ: dict, start_response: Callable) -> Iterable[bytes]:
        return self._pipeline(environ, start_response)

    def _resolve_tenant(self, request: Request) -> None:
        """Fill ``request.tenant``/``request.session`` from the
        ``X-Tenant`` header or ``tenant=`` parameter (header wins; a
        disagreement between the two is a client error), charging the
        tenant's quota for non-observability endpoints.

        On ``/api/traces`` the ``tenant=`` parameter stays with the
        handler as a trace-search filter, so selection there is
        header-only (other observability endpoints keep the parameter:
        ``/api/health?tenant=x`` still selects a tenant)."""
        header = request.tenant_header
        filter_only = request.path.startswith("/api/traces")
        param = None if filter_only else request.query.get("tenant")
        if header is not None and param is not None and header != param:
            raise ApiError(
                400,
                f"X-Tenant header ({header!r}) and tenant parameter "
                f"({param!r}) disagree",
            )
        name = header or param or self.tenants.default_tenant
        try:
            request.session = self.tenants.session(name)
        except KeyError:
            raise ApiError(404, f"unknown tenant {name!r}") from None
        request.tenant = name
        if not request.path.startswith(_UNCHARGED_PREFIXES):
            self.tenants.charge(name)

    def _dispatch(self, environ: dict, start_response: Callable) -> Iterable[bytes]:
        extra_headers: list[tuple[str, str]] = []
        try:
            request = Request(environ)
            matched = self.router.match(request.method, request.path)
            if matched is None:
                raise ApiError(404, f"no such endpoint: {request.path}")
            self._resolve_tenant(request)
            # Expose the resolved tenant to the metrics middleware (for
            # the span/slow-op/SLO labels) and bind it to the context so
            # everything the handler runs — including worker threads
            # re-binding a captured TraceContext — carries it.
            environ["repro.tenant"] = request.tenant
            handler, params = matched
            with obs.bind_tenant(request.tenant):
                payload = handler(request, **params)
            status = 200
        except ApiError as exc:
            payload = {"error": exc.message}
            status = exc.status
        except QuotaExceeded as exc:
            payload = {"error": str(exc), "tenant": exc.tenant}
            status = 429
            extra_headers.append(
                ("Retry-After", str(self._backpressure.retry_after))
            )
        except MethodNotAllowed:
            payload = {"error": "method not allowed"}
            status = 405
        except DeadlineExceeded as exc:
            # Graceful degradation: the request ran out of budget before
            # (or while waiting on) a heavy kernel — tell the client to
            # come back rather than hold the worker longer.
            payload = {"error": str(exc)}
            status = 503
            extra_headers.append(
                ("Retry-After", str(self._backpressure.retry_after))
            )
        except BreakerOpen as exc:
            # The kernel's circuit is open and the session had no cached
            # result to degrade to: shed with an honest Retry-After —
            # the breaker's remaining open window when it can say, the
            # backpressure constant otherwise.
            retry_after = self._breaker_retry_after(exc)
            payload = {
                "error": str(exc),
                "breaker": exc.name,
                "retry_after_seconds": retry_after,
            }
            status = 503
            extra_headers.append(("Retry-After", str(retry_after)))
        except JobQueueFull as exc:
            # The job queue is a shedding bound like request inflight:
            # tell the client to resubmit later rather than queueing
            # unboundedly.
            payload = {"error": str(exc), "depth": exc.depth, "limit": exc.limit}
            status = 503
            extra_headers.append(
                ("Retry-After", str(self._backpressure.retry_after))
            )
        except ValueError as exc:
            # Model-layer validation errors surface as 400s.
            payload = {"error": str(exc)}
            status = 400
        except (RetryExhausted, OSError) as exc:
            # A transient infrastructure failure survived the retry
            # layer: answer 503 so clients back off and try again,
            # rather than letting the worker die with a 500.
            payload = {"error": f"transient failure: {exc}"}
            status = 503
            extra_headers.append(
                ("Retry-After", str(self._backpressure.retry_after))
            )
        if isinstance(payload, RawResponse):
            start_response(
                _STATUS[payload.status],
                [
                    ("Content-Type", payload.content_type),
                    ("Content-Length", str(len(payload.body))),
                    *payload.headers,
                ],
            )
            return [payload.body]
        body = json_codec.dumps(payload).encode("utf-8")
        start_response(
            _STATUS[status],
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(body))),
                *extra_headers,
            ],
        )
        return [body]

    def _breaker_retry_after(self, exc: BreakerOpen) -> int:
        """``Retry-After`` seconds for a breaker-open 503.

        Derived from the breaker's remaining open window (rounded up, at
        least 1s so clients always back off); the backpressure constant
        when the breaker could not say (e.g. a half-open trial-budget
        refusal, where a probe slot frees up almost immediately).
        """
        if exc.retry_after is not None and exc.retry_after > 0:
            return max(1, math.ceil(exc.retry_after))
        return self._backpressure.retry_after

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _register(self) -> None:
        r = self.router
        r.add("GET", "/api/health", self.health)
        r.add("GET", "/api/quality", self.quality)
        r.add("GET", "/api/zones", self.zones)
        r.add("GET", "/api/customers", self.customers)
        r.add("GET", "/api/customers/<int:customer_id>", self.customer)
        r.add(
            "GET", "/api/customers/<int:customer_id>/readings", self.readings
        )
        r.add("GET", "/api/embedding", self.embedding)
        r.add("POST", "/api/selection", self.selection)
        r.add("GET", "/api/density", self.density)
        r.add("GET", "/api/shift", self.shift)
        r.add("GET", "/api/sweep/granularity", self.sweep_granularity)
        r.add("GET", "/api/sweep/quantile", self.sweep_quantile)
        r.add("GET", "/api/rollups", self.rollups)
        r.add("POST", "/api/rollups/rebuild", self.rollups_rebuild)
        r.add("GET", "/api/kmeans", self.kmeans)
        r.add("POST", "/api/sql", self.sql)
        r.add(
            "GET", "/api/customers/<int:customer_id>/forecast", self.forecast
        )
        r.add("GET", "/api/proposals", self.proposals)
        r.add("POST", "/api/jobs", self.jobs_submit)
        r.add("GET", "/api/jobs", self.jobs_list)
        r.add("GET", "/api/jobs/<job_id>", self.job_status)
        r.add("DELETE", "/api/jobs/<job_id>", self.job_cancel)
        r.add("POST", "/api/jobs/<job_id>/resume", self.job_resume)
        r.add("GET", "/api/jobs/<job_id>/artifact", self.job_artifact)
        r.add("GET", "/api/metrics", self.metrics_snapshot)
        r.add("GET", "/api/telemetry", self.telemetry)
        r.add("GET", "/api/traces", self.traces)
        r.add("GET", "/api/traces/<trace_id>", self.trace)
        r.add("GET", "/api/profile", self.profile)

    def metrics_snapshot(self, request: Request) -> dict | RawResponse:
        """Observability snapshot: counters, gauges, histograms, spans.

        ``?format=prometheus`` returns the registry part as Prometheus
        text exposition instead of JSON.  In the JSON form, span trees
        appear only when the process tracer exports to a
        :class:`~repro.obs.RingBufferSink` (``?spans=N`` bounds how many
        recent roots are included, default 20), and ``span_sink`` reports
        the sink's exported/dropped counts so span loss under load is
        visible.
        """
        fmt = request.param_str("format", "json")
        if fmt == "prometheus":
            text = render_prometheus(self.metrics.snapshot())
            return RawResponse(
                text.encode("utf-8"), content_type=PROMETHEUS_CONTENT_TYPE
            )
        if fmt != "json":
            raise ApiError(400, f"unknown format {fmt!r}; use json or prometheus")
        snapshot = self.metrics.snapshot()
        limit = request.param_int("spans", 20)
        sink = obs.get_tracer().sink
        if isinstance(sink, obs.RingBufferSink):
            snapshot["span_sink"] = {
                "exported": sink.n_exported,
                "dropped": sink.n_dropped,
                "buffered": len(sink),
                "capacity": sink.capacity,
            }
            if limit > 0:
                snapshot["spans"] = [
                    r.to_record() for r in sink.records()[-limit:]
                ]
        return snapshot

    def _trace_store(self) -> obs.TraceStore:
        store = obs.get_trace_store()
        if store is None:
            raise ApiError(
                404,
                "tracing is not enabled; configure a trace store "
                "(repro serve does this by default)",
            )
        return store

    def traces(self, request: Request) -> dict:
        """Finished traces, newest first; filters ``request_id``,
        ``tenant``, ``min_duration_ms``, ``limit`` (default 50)."""
        store = self._trace_store()
        roots = store.traces(
            request_id=request.query.get("request_id"),
            tenant=request.query.get("tenant"),
            min_duration_ms=request.param_float("min_duration_ms", 0.0),
            limit=request.param_int("limit", 50),
        )
        return {
            "count": len(roots),
            "stored": len(store),
            "dropped_fragments": store.dropped_fragments,
            "traces": [
                {
                    "trace_id": root.trace_id,
                    "name": root.name,
                    "request_id": root.request_id,
                    "tenant": root.tenant,
                    "duration_ms": round(root.duration * 1000.0, 3),
                    "n_spans": sum(1 for _ in root.walk()),
                    "error": root.error,
                }
                for root in roots
            ],
        }

    def trace(self, request: Request, trace_id: str) -> dict:
        """One assembled trace tree by id."""
        root = self._trace_store().get(trace_id)
        if root is None:
            raise ApiError(404, f"unknown trace {trace_id!r}")
        return {"trace": root.to_record()}

    def profile(self, request: Request) -> dict | RawResponse:
        """Sample the process for ``seconds`` and return the profile.

        ``?format=folded`` (default) returns folded-stack text;
        ``?format=svg`` a standalone flamegraph; ``?format=json`` the
        raw counts.  With a continuous profiler running (``repro serve
        --profile-hz``) the window is a delta of its samples; otherwise
        a burst sampler runs inline at ``hz`` (default 100).
        """
        seconds = request.param_float("seconds", 2.0)
        if not 0 < seconds <= 60:
            raise ApiError(400, "seconds must be in (0, 60]")
        hz = request.param_float("hz", 100.0)
        if not 0 < hz <= 1000:
            raise ApiError(400, "hz must be in (0, 1000]")
        fmt = request.param_str("format", "folded")
        if fmt not in ("folded", "svg", "json"):
            raise ApiError(
                400, f"unknown format {fmt!r}; use folded, svg or json"
            )
        profiler = (
            self.profiler
            if self.profiler is not None
            else obs.StackProfiler(hz=0.0)
        )
        counts = profiler.collect(seconds, hz=hz)
        if fmt == "json":
            return {
                "seconds": seconds,
                "continuous": profiler.running,
                "stacks": counts,
            }
        if fmt == "svg":
            from repro.viz.flamegraph import render_flamegraph

            svg = render_flamegraph(
                counts, title=f"repro profile ({seconds:g}s)"
            )
            return RawResponse(
                svg.encode("utf-8"), content_type="image/svg+xml"
            )
        from repro.obs.profiler import render_folded

        return RawResponse(
            render_folded(counts).encode("utf-8"),
            content_type="text/plain; charset=utf-8",
        )

    def telemetry(self, request: Request) -> dict | RawResponse:
        """Self-monitoring dashboard data from the rolling window store.

        ``?format=svg`` renders the SVG telemetry panel instead of JSON;
        ``?top=N`` bounds the slow-op list (default 10).
        """
        fmt = request.param_str("format", "json")
        payload = self.telemetry_payload(top=request.param_int("top", 10))
        if fmt == "svg":
            from repro.viz.telemetry import render_telemetry_panel

            svg = render_telemetry_panel(payload).render_document()
            return RawResponse(
                svg.encode("utf-8"), content_type="image/svg+xml"
            )
        if fmt != "json":
            raise ApiError(400, f"unknown format {fmt!r}; use json or svg")
        return payload

    def telemetry_payload(self, top: int = 10) -> dict:
        """The ``/api/telemetry`` JSON document (also feeds the SVG)."""
        from repro.server.middleware import WINDOW_ERROR_SERIES, WINDOW_SERIES

        store = self.window_store
        requests_overall = store.series(WINDOW_SERIES)
        by_route = []
        errors = []
        for name, labels in store.keys():
            if name == WINDOW_SERIES and labels:
                by_route.append(store.series(name, **labels))
            elif name == WINDOW_ERROR_SERIES:
                errors.append(store.series(name, **labels))
        snapshot = self.metrics.snapshot()
        cache: dict[str, dict[str, float]] = {}
        for record in snapshot["counters"]:
            if record["name"] != "pipeline_cache_total":
                continue
            op = record["labels"].get("op", "?")
            entry = cache.setdefault(op, {"hit": 0.0, "miss": 0.0})
            entry[record["labels"].get("result", "miss")] = record["value"]
        for entry in cache.values():
            total = entry["hit"] + entry["miss"]
            entry["ratio"] = entry["hit"] / total if total else 0.0
        ops = [
            {
                "op": record["labels"].get("op", "?"),
                "count": record["count"],
                "mean_seconds": (
                    record["sum"] / record["count"] if record["count"] else 0.0
                ),
                "p50": record["p50"],
                "p99": record["p99"],
            }
            for record in snapshot["histograms"]
            if record["name"] == "pipeline_seconds"
        ]
        kernels = [
            {
                "kernel": record["labels"].get("kernel", "?"),
                "count": record["count"],
                "mean_seconds": (
                    record["sum"] / record["count"] if record["count"] else 0.0
                ),
                "p50": record["p50"],
                "p99": record["p99"],
            }
            for record in snapshot["histograms"]
            if record["name"] == "kernel_runtime_seconds"
        ]
        throttled = sum(
            record["value"]
            for record in snapshot["counters"]
            if record["name"] == "http_throttled_total"
        )
        inflight = next(
            (
                record["value"]
                for record in snapshot["gauges"]
                if record["name"] == "http_inflight_requests"
            ),
            0.0,
        )
        payload: dict = {
            "uptime_seconds": self.uptime_seconds,
            "version": __version__,
            "ready": len(self.session.db) > 0,
            "window_seconds": store.width_seconds,
            "requests": {"overall": requests_overall, "by_route": by_route},
            "errors": errors,
            "cache": cache,
            "ops": ops,
            "kernels": kernels,
            "backpressure": {
                "inflight": inflight,
                "throttled_total": throttled,
                "max_inflight": self._backpressure.max_inflight,
                "deadline_seconds": self._backpressure.deadline_seconds,
            },
            "resilience": self._resilience_payload(snapshot),
            "tenants": self.tenants.to_record(),
            "parallel": self._parallel_payload(snapshot),
            "rollup": self._rollup_payload(),
            "jobs": self.jobs.to_record(),
            "slo": {"slos": self.slo_engine.evaluate()},
            "slow_ops": self.slow_log.records()[: max(top, 0)],
        }
        sink = obs.get_tracer().sink
        if isinstance(sink, obs.RingBufferSink):
            payload["span_sink"] = {
                "exported": sink.n_exported,
                "dropped": sink.n_dropped,
                "buffered": len(sink),
                "capacity": sink.capacity,
            }
        return payload

    def _parallel_payload(self, snapshot: dict) -> dict:
        """Blockwise-kernel usage — the ``parallel`` block of
        ``/api/telemetry``: ``pools`` holds the runs and tasks (row
        blocks) of each kernel, from the ``parallel_*`` counters."""
        pools: dict[str, dict[str, float]] = {}
        fields = {"parallel_pool_runs_total": "runs", "parallel_tasks_total": "tasks"}
        for record in snapshot["counters"]:
            field = fields.get(record["name"])
            if field is not None:
                pool = record["labels"].get("pool", "?")
                entry = pools.setdefault(pool, {"runs": 0.0, "tasks": 0.0})
                entry[field] += record["value"]
        return {"pools": pools}

    def _rollup_payload(self, session: VapSession | None = None) -> dict:
        """Staleness block of the materialized rollup layer — the
        ``rollup`` block of ``/api/telemetry`` and the ``/api/rollups``
        body.  Every key is present whether or not the store has been
        built yet (nullable scalars), so the telemetry schema never
        flaps."""
        session = session or self.session
        info = session.rollup_status()
        status = info["status"] or {}
        return {
            "enabled": info["enabled"],
            "n_customers": status.get("n_customers"),
            "bandwidth_m": status.get("bandwidth_m"),
            "first_hour": status.get("first_hour"),
            "last_applied_hour": status.get("last_applied_hour"),
            "source_end_hour": status.get("source_end_hour"),
            "lag_hours": status.get("lag_hours"),
            "rebuilds_total": status.get("rebuilds_total"),
            "hours_applied_total": status.get("hours_applied_total"),
            "grid_builds_total": status.get("grid_builds_total"),
            "grid_adds_total": status.get("grid_adds_total"),
            "grid_refolds_total": status.get("grid_refolds_total"),
            "refold_every": status.get("refold_every"),
            "tables": status.get("tables", []),
        }

    def _resilience_payload(self, snapshot: dict) -> dict:
        """Breaker states, retry totals, degraded serves and injected
        faults — the ``resilience`` block of ``/api/telemetry``."""
        retries = {
            record["labels"].get("site", "?"): record["value"]
            for record in snapshot["counters"]
            if record["name"] == "retry_attempts_total"
        }
        degraded = {
            record["labels"].get("op", "?"): record["value"]
            for record in snapshot["counters"]
            if record["name"] == "pipeline_degraded_total"
        }
        faults = {
            f"{record['labels'].get('site', '?')}:"
            f"{record['labels'].get('kind', '?')}": record["value"]
            for record in snapshot["counters"]
            if record["name"] == "faults_injected_total"
        }
        payload: dict = {
            "breakers": {
                op: breaker.to_record()
                for op, breaker in sorted(self.session.breakers.items())
            },
            "retry_attempts_total": retries,
            "degraded_total": degraded,
            "faults_injected_total": faults,
        }
        injector = active_injector()
        if injector is not None:
            payload["fault_plan"] = {
                "seed": injector.plan.seed,
                "n_specs": len(injector.plan.specs),
                "n_injected": injector.n_injected,
                "by_site": injector.counts(),
            }
        return payload

    def health(self, request: Request) -> dict:
        span = request.session.db.time_span
        return {
            "status": "ok",
            "tenant": request.tenant,
            "ready": len(request.session.db) > 0,
            "version": __version__,
            "uptime_seconds": self.uptime_seconds,
            "n_customers": len(request.session.db),
            "start_hour": span.start_hour,
            "end_hour": span.end_hour,
        }

    def quality(self, request: Request) -> dict:
        report = request.session.quality.to_record()
        if request.session.anomalies is not None:
            report["anomalies_removed"] = {
                "spikes": request.session.anomalies.n_spikes,
                "negatives": request.session.anomalies.n_negatives,
                "stuck": request.session.anomalies.n_stuck,
            }
        return report

    def zones(self, request: Request) -> dict:
        if self.layout is None:
            raise ApiError(404, "no zone layout configured for this data set")
        return {
            "zones": [
                {
                    "name": z.name,
                    "kind": z.kind.value,
                    "center": [z.center_lon, z.center_lat],
                    "radius_deg": z.radius_deg,
                }
                for z in self.layout.zones
            ]
        }

    def customers(self, request: Request) -> dict:
        db = request.session.db
        ids: list[int]
        if "bbox" in request.query:
            parts = request.query["bbox"].split(",")
            if len(parts) != 4:
                raise ApiError(400, "bbox must be min_lon,min_lat,max_lon,max_lat")
            try:
                box = BBox(*(float(p) for p in parts))
            except ValueError as exc:
                raise ApiError(400, f"bad bbox: {exc}") from exc
            ids = [int(i) for i in db.ids_in_bbox(box)]
        else:
            ids = db.customer_ids
        zone = request.query.get("zone")
        rows = []
        for cid in ids:
            cust = db.customer(cid)
            if zone is not None and cust.zone.value != zone:
                continue
            rows.append(cust.to_record())
        return {"customers": rows, "count": len(rows)}

    def customer(self, request: Request, customer_id: int) -> dict:
        try:
            return request.session.db.customer(customer_id).to_record()
        except KeyError:
            raise ApiError(404, f"unknown customer {customer_id}") from None

    def readings(self, request: Request, customer_id: int) -> dict:
        db = request.session.db
        span = db.time_span
        start = request.param_int("start", span.start_hour)
        end = request.param_int("end", span.end_hour)
        if end < start:
            raise ApiError(400, "end must not precede start")
        try:
            series = db.readings_for([customer_id], HourWindow(start, end))
        except KeyError:
            raise ApiError(404, f"unknown customer {customer_id}") from None
        return {
            "customer_id": customer_id,
            "start_hour": series.start_hour,
            "values": series.matrix[0],
        }

    def embedding(self, request: Request) -> dict:
        info, degraded = request.session.embed_spec(
            EmbedParams.parse(request.query)
        )
        payload = {
            "method": info.method,
            "metric": info.metric,
            "objective": info.objective,
            "customer_ids": request.session.series.customer_ids,
            "points": info.coords,
        }
        if degraded:
            # Breaker-open fallback: the last-good embedding, which may
            # not match the requested parameters — flagged (with the
            # served vs requested cache keys) so clients can render it
            # dimmed and retry later.
            self._mark_degraded(payload, degraded)
        return payload

    @staticmethod
    def _mark_degraded(payload: dict, degraded: dict | bool) -> None:
        """Flag a breaker-open fallback response, recording which cache
        key the served value was actually computed under."""
        payload["degraded"] = True
        if isinstance(degraded, dict):
            payload["degraded_served"] = degraded

    def selection(self, request: Request) -> dict:
        body = request.body
        if not isinstance(body, dict):
            raise ApiError(400, "selection body must be a JSON object")
        kind = body.get("type")
        try:
            if kind == "rect":
                selector = RectSelection(
                    float(body["x_min"]),
                    float(body["y_min"]),
                    float(body["x_max"]),
                    float(body["y_max"]),
                )
            elif kind == "radius":
                selector = RadiusSelection(
                    float(body["x"]), float(body["y"]), float(body["radius"])
                )
            elif kind == "knn":
                selector = KnnSelection(
                    float(body["x"]), float(body["y"]), int(body["k"])
                )
            elif kind == "lasso":
                selector = LassoSelection(
                    [(float(x), float(y)) for x, y in body["vertices"]]
                )
            else:
                raise ApiError(
                    400, f"unknown selection type {kind!r}; use rect/radius/knn/lasso"
                )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ApiError):
                raise
            raise ApiError(400, f"bad selection geometry: {exc}") from exc
        info, degraded = request.session.embed_degradable(
            method=str(body.get("method", "tsne")),
        )
        indices = selector.apply(info.coords)
        if indices.size == 0:
            payload = {"indices": [], "customer_ids": [], "count": 0}
        else:
            pattern = request.session.pattern_of(indices)
            payload = {
                "indices": indices,
                "customer_ids": request.session.customers_of(indices),
                "count": int(indices.size),
                "pattern": pattern.archetype.value,
                "pattern_score": pattern.score,
                "profile": request.session.profile_of(indices),
            }
        if degraded:
            self._mark_degraded(payload, degraded)
        return payload

    def _window(self, request: Request, prefix: str) -> HourWindow:
        start = request.param_int(f"{prefix}_start")
        end = request.param_int(f"{prefix}_end")
        if end < start:
            raise ApiError(400, f"{prefix}_end must not precede {prefix}_start")
        return HourWindow(start, end)

    def _bandwidth(self, request: Request) -> float | None:
        """Optional ``bandwidth_m`` query param (Silverman when absent)."""
        if "bandwidth_m" not in request.query:
            return None
        return request.param_float("bandwidth_m")

    def density(self, request: Request) -> dict:
        window = self._window(request, "t")
        grid, degraded = request.session.density_degradable(
            window,
            bandwidth_m=self._bandwidth(request),
            method=request.param_str("kde_method", "auto"),
        )
        payload = {
            "nx": grid.spec.nx,
            "ny": grid.spec.ny,
            "bbox": [
                grid.spec.bbox.min_lon,
                grid.spec.bbox.min_lat,
                grid.spec.bbox.max_lon,
                grid.spec.bbox.max_lat,
            ],
            "values": grid.values,
            "max_cell": list(grid.max_cell()),
        }
        if degraded:
            self._mark_degraded(payload, degraded)
        return payload

    def shift(self, request: Request) -> dict:
        t1 = self._window(request, "t1")
        t2 = self._window(request, "t2")
        field, degraded = request.session.shift_degradable(
            t1,
            t2,
            bandwidth_m=self._bandwidth(request),
            method=request.param_str("kde_method", "auto"),
        )
        flows = major_flows(field)
        payload = {
            "energy": field.energy(),
            "peak_gain": list(field.peak_gain()),
            "peak_loss": list(field.peak_loss()),
            "flows": [
                {
                    "from": [f.lon, f.lat],
                    "to": list(f.tip),
                    "magnitude": f.magnitude,
                }
                for f in flows
            ],
        }
        if degraded:
            self._mark_degraded(payload, degraded)
        return payload

    @staticmethod
    def _num(value: float) -> float | None:
        """A float JSON-safe: NaN/inf (empty-sweep statistics) become
        null instead of emitting invalid JSON."""
        value = float(value)
        return value if math.isfinite(value) else None

    def sweep_granularity(self, request: Request) -> dict:
        """S2 step 1 over every tracked granularity, rollup-backed."""
        results = request.session.granularity_sweep(
            max_pairs_per_resolution=request.param_int("max_pairs", 8),
            bandwidth_m=self._bandwidth(request),
            use_rollups=request.param_str("source", "rollup") != "raw",
        )
        return {
            "results": [
                {
                    "resolution": str(r.resolution),
                    "n_window_pairs": r.n_window_pairs,
                    "mean_energy": self._num(r.mean_energy),
                    "mean_flows": self._num(r.mean_flows),
                    "peak_gain": self._num(r.peak_gain),
                    "peak_loss": self._num(r.peak_loss),
                }
                for r in results
            ],
            "count": len(results),
        }

    def sweep_quantile(self, request: Request) -> dict:
        """S2 step 2 between two windows, rollup-backed."""
        t1 = self._window(request, "t1")
        t2 = self._window(request, "t2")
        results = request.session.quantile_sweep(
            t1,
            t2,
            bandwidth_m=self._bandwidth(request),
            use_rollups=request.param_str("source", "rollup") != "raw",
        )
        return {
            "results": [
                {
                    "quantile": r.quantile,
                    "n_customers": r.n_customers,
                    "energy": self._num(r.energy),
                    "n_flows": r.n_flows,
                    "main_flow": (
                        None
                        if r.main_flow is None
                        else {
                            "from": [r.main_flow.lon, r.main_flow.lat],
                            "to": list(r.main_flow.tip),
                            "magnitude": r.main_flow.magnitude,
                        }
                    ),
                }
                for r in results
            ],
            "count": len(results),
        }

    def rollups(self, request: Request) -> dict:
        """Rollup staleness + maintenance state."""
        return self._rollup_payload(request.session)

    def rollups_rebuild(self, request: Request) -> dict:
        """Force a full rollup rebuild from the data plane."""
        request.session.rollups(rebuild=True)
        return self._rollup_payload(request.session)

    def proposals(self, request: Request) -> dict:
        """Auto-discovered selection proposals (DBSCAN over view C), each
        labelled with its pattern; params ``method``, ``min_points``,
        ``min_size``."""
        proposals, degraded = request.session.proposals(
            method=request.param_str("method", "tsne"),
            min_points=request.param_int("min_points", 5),
            min_size=request.param_int("min_size", 5),
        )
        out = [
            {
                "cluster_id": proposal.cluster_id,
                "size": proposal.size,
                "center": list(proposal.center),
                "indices": proposal.indices,
                "pattern": label.archetype.value,
                "pattern_score": label.score,
            }
            for proposal, label in proposals
        ]
        payload = {"proposals": out, "count": len(out)}
        if degraded:
            self._mark_degraded(payload, degraded)
        return payload

    # ------------------------------------------------------------------
    # async jobs: submit → poll → artifact
    # ------------------------------------------------------------------
    def jobs_submit(self, request: Request) -> RawResponse:
        """Submit heavy work; answers ``202 Accepted`` immediately.

        Body: ``{"kind": "embed"|"render"|"export", "params": {...},
        "priority": n}``.  The response carries the job record plus a
        ``Location`` header to poll; quota and queue bounds answer 429 /
        503 like the synchronous endpoints."""
        body = request.body if request.body is not None else {}
        if not isinstance(body, dict):
            raise ApiError(400, "job submission body must be a JSON object")
        kind = body.get("kind")
        if not isinstance(kind, str):
            raise ApiError(400, 'body must carry "kind" (embed/render/export)')
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ApiError(400, '"params" must be a JSON object')
        if kind == "embed":
            EmbedParams.parse(params)  # a bad option is a 400, not a failed job
        try:
            priority = int(body.get("priority", 0))
        except (TypeError, ValueError):
            raise ApiError(400, '"priority" must be an integer') from None
        job = self.jobs.submit(request.tenant, kind, params, priority=priority)
        record = job.to_record(self.jobs.clock())
        record["poll"] = f"/api/jobs/{job.job_id}"
        return RawResponse(
            json_codec.dumps(record).encode("utf-8"),
            content_type="application/json",
            status=202,
            headers=[("Location", f"/api/jobs/{job.job_id}")],
        )

    def jobs_list(self, request: Request) -> dict:
        """The tenant's jobs, newest first."""
        now = self.jobs.clock()
        records = [
            job.to_record(now) for job in self.jobs.list_jobs(request.tenant)
        ]
        return {"jobs": records, "count": len(records)}

    def _job(self, request: Request, job_id: str):
        try:
            return self.jobs.get(request.tenant, job_id)
        except KeyError:
            raise ApiError(404, f"unknown job {job_id!r}") from None

    def job_status(self, request: Request, job_id: str) -> dict:
        """Poll one job: state, monotonic progress, ETA, artifact ref."""
        return self._job(request, job_id).to_record(self.jobs.clock())

    def job_cancel(self, request: Request, job_id: str) -> dict:
        """Cancel a job.  Queued jobs finalise immediately; running ones
        stop at their next cancellation point.  Idempotent."""
        self._job(request, job_id)  # tenant-scoped 404 before acting
        return self.jobs.cancel(request.tenant, job_id).to_record(
            self.jobs.clock()
        )

    def job_resume(self, request: Request, job_id: str) -> dict:
        """Re-queue a failed job; embedding jobs pick up from their last
        descent checkpoint (bit-identically)."""
        self._job(request, job_id)
        return self.jobs.resume(request.tenant, job_id).to_record(
            self.jobs.clock()
        )

    def job_artifact(self, request: Request, job_id: str) -> RawResponse:
        """The finished job's result bytes; 404 until it succeeds.

        ``ETag`` carries the content digest (strong validator — the
        store is content-addressed) and ``X-Job-Id`` ties the bytes back
        to the producing job."""
        job = self._job(request, job_id)
        if job.artifact is None:
            raise ApiError(
                404,
                f"job {job_id!r} has no artifact (state: {job.state})",
            )
        try:
            data = self.jobs.artifacts.get(request.tenant, job.artifact.digest)
        except ArtifactError as exc:
            raise ApiError(404, str(exc)) from None
        return RawResponse(
            data,
            content_type=job.artifact.content_type,
            headers=[
                ("ETag", f'"{job.artifact.digest}"'),
                ("X-Job-Id", job.job_id),
            ],
        )

    def forecast(self, request: Request, customer_id: int) -> dict:
        horizon = request.param_int("horizon", 24)
        if not 1 <= horizon <= 24 * 14:
            raise ApiError(400, "horizon must be between 1 and 336 hours")
        method = request.param_str("method", "profile")
        try:
            values = request.session.forecast(customer_id, horizon, method)
        except KeyError:
            raise ApiError(404, f"unknown customer {customer_id}") from None
        return {
            "customer_id": customer_id,
            "method": method,
            "start_hour": request.session.series.end_hour,
            "values": values,
        }

    def sql(self, request: Request) -> dict:
        """Ad-hoc SQL over the customers table: ``{"query": "SELECT ..."}``."""
        from repro.db.sql import SqlError

        body = request.body
        if not isinstance(body, dict) or not isinstance(body.get("query"), str):
            raise ApiError(400, 'body must be {"query": "SELECT ..."}')
        try:
            rows = request.session.db.sql(body["query"])
        except SqlError as exc:
            raise ApiError(400, f"SQL error: {exc}") from exc
        return {"rows": rows, "count": len(rows)}

    def kmeans(self, request: Request) -> dict:
        k = request.param_int("k", 5)
        algorithm = request.param_str("algorithm", "lloyd")
        result = request.session.kmeans_baseline(
            k=k, seed=request.param_int("seed", 0), algorithm=algorithm
        )
        return {
            "k": k,
            "algorithm": algorithm,
            "inertia": result.inertia,
            "n_iter": result.n_iter,
            "labels": result.labels,
            "customer_ids": request.session.series.customer_ids,
        }
