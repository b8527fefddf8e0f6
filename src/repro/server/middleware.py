"""WSGI observability middleware: metrics, logs and windows per request.

Wraps any WSGI callable and, for every request,

- binds a *request ID* (honouring an incoming ``X-Request-ID`` header,
  generating one otherwise) to the logging context variable, so every
  span, log line and slow-op record produced while handling the request
  carries the same ID — and echoes it back as an ``X-Request-ID``
  response header;
- records ``http_requests_total{method, route, status}``,
  ``http_errors_total{route, status}`` (4xx/5xx subset) and the
  ``http_request_seconds{route}`` latency histogram;
- records the request into the rolling time-window store (overall and
  per-route series, plus an error series) for ``GET /api/telemetry``;
- offers the request to the slow-op log and emits one structured JSON
  log line (``http.request``) with method, route, status and latency;
- opens an ``http.request`` trace span when the tracer has a real sink.

The response passes through byte-for-byte — error bodies, headers and
status codes are untouched.

Requests are tagged with the *declared route pattern* (e.g.
``/api/customers/<int:customer_id>``), not the raw path, so per-customer
URLs don't explode the label space; a resolver callable supplies the
pattern and unmatched paths fall under ``<unmatched>``.

:class:`BackpressureMiddleware` adds the load-shedding half of the
concurrent serving story: a hard in-flight request cap answered with
``503`` + ``Retry-After`` instead of unbounded queueing, and a
per-request deadline bound into the context for the heavy kernel paths
(see :mod:`repro.core.deadline`).
"""

from __future__ import annotations

import json
import math
import threading
from typing import Callable, Iterable

from repro import obs
from repro.core.deadline import Deadline, bind_deadline
from repro.obs.logging import bind_request_id, new_request_id

UNMATCHED = "<unmatched>"

# Overall request series in the window store (no labels); per-route
# series use the same name with a route label.
WINDOW_SERIES = "http_request"
WINDOW_ERROR_SERIES = "http_error"


class MetricsMiddleware:
    """Times, logs and correlates each request.

    Parameters
    ----------
    app:
        The wrapped WSGI callable.
    registry:
        A :class:`~repro.obs.MetricsRegistry`, or a zero-argument callable
        returning one (resolved per request, so late configuration wins).
        The process-wide default registry when omitted.
    route_resolver:
        ``(method, path) -> pattern | None`` used for the ``route`` label;
        raw paths collapse to :data:`UNMATCHED` when it returns None.
        Without a resolver every request is labelled with its raw path.
    clock:
        Monotonic-seconds callable; defaults to the registry's clock.
    window_store:
        Rolling :class:`~repro.obs.TimeWindowStore` receiving per-window
        request/latency series; the process-wide default when omitted.
    slow_log:
        :class:`~repro.obs.SlowOpLog` receiving every request (it keeps
        only the slowest); the process-wide default when omitted.
    logger:
        :class:`~repro.obs.JsonLogger` for the per-request log line; the
        process-wide default when omitted.
    """

    def __init__(
        self,
        app: Callable,
        registry: obs.MetricsRegistry | Callable[[], obs.MetricsRegistry] | None = None,
        route_resolver: Callable[[str, str], str | None] | None = None,
        clock: Callable[[], float] | None = None,
        window_store: obs.TimeWindowStore | None = None,
        slow_log: obs.SlowOpLog | None = None,
        logger: obs.JsonLogger | None = None,
    ) -> None:
        self.app = app
        self._registry = registry
        self.route_resolver = route_resolver
        self._clock = clock
        self._window_store = window_store
        self._slow_log = slow_log
        self._logger = logger

    def _resolve_registry(self) -> obs.MetricsRegistry:
        if self._registry is None:
            return obs.get_registry()
        if callable(self._registry) and not isinstance(
            self._registry, obs.MetricsRegistry
        ):
            return self._registry()
        return self._registry

    @property
    def window_store(self) -> obs.TimeWindowStore:
        return (
            self._window_store
            if self._window_store is not None
            else obs.get_window_store()
        )

    @property
    def slow_log(self) -> obs.SlowOpLog:
        return self._slow_log if self._slow_log is not None else obs.get_slow_log()

    @property
    def logger(self) -> obs.JsonLogger:
        return self._logger if self._logger is not None else obs.get_logger()

    def __call__(self, environ: dict, start_response: Callable) -> Iterable[bytes]:
        registry = self._resolve_registry()
        clock = self._clock if self._clock is not None else registry.clock
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/")
        if self.route_resolver is not None:
            route = self.route_resolver(method, path) or UNMATCHED
        else:
            route = path
        request_id = environ.get("HTTP_X_REQUEST_ID") or new_request_id()
        captured: dict[str, str] = {}

        def recording_start_response(status, headers, exc_info=None):
            captured["status"] = status.split(" ", 1)[0]
            headers = list(headers) + [("X-Request-ID", request_id)]
            if exc_info is not None:
                return start_response(status, headers, exc_info)
            return start_response(status, headers)

        with bind_request_id(request_id):
            start = clock()
            with obs.span("http.request", method=method, route=route) as span_rec:
                chunks = self.app(environ, recording_start_response)
                try:
                    # Materialise so the timing covers body generation too.
                    body = b"".join(chunks)
                finally:
                    closer = getattr(chunks, "close", None)
                    if closer is not None:
                        closer()
                status = captured.get("status", "500")
                tenant = environ.get("repro.tenant")
                if span_rec is not None:
                    span_rec.tags["status"] = status
                    # The span opened before the app resolved the tenant;
                    # stamp it now so traces are searchable per tenant.
                    if tenant is not None:
                        span_rec.tenant = tenant
            elapsed = clock() - start

            trace_id = span_rec.trace_id if span_rec is not None else None
            registry.counter(
                "http_requests_total", method=method, route=route, status=status
            ).inc()
            if int(status) >= 400:
                registry.counter(
                    "http_errors_total", route=route, status=status
                ).inc()
            registry.histogram("http_request_seconds", route=route).observe(
                elapsed, trace_id=trace_id
            )

            window = self.window_store
            window.record(WINDOW_SERIES, elapsed)
            window.record(WINDOW_SERIES, elapsed, route=route)
            if int(status) >= 400:
                window.record(WINDOW_ERROR_SERIES, route=route)
            self.slow_log.offer(
                "http.request",
                elapsed,
                tenant=tenant,
                method=method,
                route=route,
                status=status,
            )
            log_fields: dict[str, object] = {
                "method": method,
                "route": route,
                "status": int(status),
                "duration_ms": round(elapsed * 1000.0, 3),
            }
            if tenant is not None:
                log_fields["tenant"] = tenant
            self.logger.info("http.request", **log_fields)
        return [body]


class BackpressureMiddleware:
    """Caps in-flight requests and binds per-request deadlines.

    Sits *inside* :class:`MetricsMiddleware` so shed requests still show
    up in the request counters, error series and latency windows.

    Parameters
    ----------
    app:
        The wrapped WSGI callable.  It must materialise its body before
        returning (the VAP app does), because the in-flight slot is
        released when the call returns.
    max_inflight:
        Admit at most this many concurrent requests; the rest are
        answered immediately with ``503`` + ``Retry-After`` (shedding
        beats queueing unboundedly once the server is saturated).
        ``None`` disables the cap.
    deadline_seconds:
        Time budget bound to each admitted request's context; the heavy
        kernel paths check it and raise
        :class:`~repro.core.deadline.DeadlineExceeded` (mapped to 503)
        instead of starting work nobody is waiting for.  ``None``
        disables deadlines.
    retry_after_seconds:
        Value advertised in the ``Retry-After`` header of shed responses
        (rounded up to whole seconds, minimum 1).
    registry:
        A :class:`~repro.obs.MetricsRegistry` or zero-argument callable
        returning one; receives the ``http_inflight_requests`` gauge and
        the ``http_throttled_total`` counter.  The process-wide default
        when omitted.
    """

    def __init__(
        self,
        app: Callable,
        max_inflight: int | None = None,
        deadline_seconds: float | None = None,
        retry_after_seconds: float = 1.0,
        registry: obs.MetricsRegistry | Callable[[], obs.MetricsRegistry] | None = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if deadline_seconds is not None and not deadline_seconds > 0:
            raise ValueError(
                f"deadline_seconds must be positive, got {deadline_seconds}"
            )
        if not retry_after_seconds > 0:
            raise ValueError(
                f"retry_after_seconds must be positive, got {retry_after_seconds}"
            )
        self.app = app
        self.max_inflight = max_inflight
        self.deadline_seconds = deadline_seconds
        self.retry_after = max(1, math.ceil(retry_after_seconds))
        self._registry = registry
        self._slots = (
            threading.BoundedSemaphore(max_inflight)
            if max_inflight is not None
            else None
        )

    def _resolve_registry(self) -> obs.MetricsRegistry:
        if self._registry is None:
            return obs.get_registry()
        if callable(self._registry) and not isinstance(
            self._registry, obs.MetricsRegistry
        ):
            return self._registry()
        return self._registry

    def _shed(self, start_response: Callable) -> Iterable[bytes]:
        body = json.dumps(
            {
                "error": "server at capacity; retry later",
                "retry_after_seconds": self.retry_after,
            }
        ).encode("utf-8")
        start_response(
            "503 Service Unavailable",
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(body))),
                ("Retry-After", str(self.retry_after)),
            ],
        )
        return [body]

    def __call__(self, environ: dict, start_response: Callable) -> Iterable[bytes]:
        registry = self._resolve_registry()
        if self._slots is not None and not self._slots.acquire(blocking=False):
            registry.counter("http_throttled_total").inc()
            obs.log_event(
                "http.throttled",
                level="warning",
                path=environ.get("PATH_INFO", "/"),
                max_inflight=self.max_inflight,
            )
            return self._shed(start_response)
        gauge = registry.gauge("http_inflight_requests")
        gauge.inc()
        try:
            deadline = (
                Deadline(self.deadline_seconds, clock=registry.clock)
                if self.deadline_seconds is not None
                else None
            )
            with bind_deadline(deadline):
                return self.app(environ, start_response)
        finally:
            gauge.dec()
            if self._slots is not None:
                self._slots.release()
