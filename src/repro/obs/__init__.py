"""Observability: metrics, spans, structured logs, rolling windows.

The VAP reproduction aims at interactive latency on ever-larger data
sets; this package is how any perf claim gets measured.  Four parts:

- :class:`~repro.obs.registry.MetricsRegistry` — thread-safe counters,
  gauges and fixed-bucket histograms (request rates, cache hit ratios,
  latency percentiles);
- :class:`~repro.obs.spans.Tracer` / :func:`~repro.obs.spans.span` —
  nested wall-time spans exported as trees to a sink
  (:class:`~repro.obs.sinks.RingBufferSink` in memory, or the default
  :class:`~repro.obs.sinks.NullSink` which makes tracing free);
- :class:`~repro.obs.logging.JsonLogger` — one-JSON-object-per-line
  structured logs, correlated across layers by the request ID the WSGI
  middleware binds in a context variable
  (:func:`~repro.obs.logging.bind_request_id`);
- :class:`~repro.obs.timewindow.TimeWindowStore` /
  :class:`~repro.obs.timewindow.SlowOpLog` — rolling per-window
  rates/quantiles and the K slowest operations with their request IDs,
  the data behind ``GET /api/telemetry``.

One process-wide default of each serves call sites that are not handed
an explicit one (the numeric kernels, the CLI); sessions, databases and
apps accept their own for isolation.  Swap the defaults with
:func:`configure`::

    from repro import obs
    from repro.obs import RingBufferSink

    sink = RingBufferSink()
    obs.configure(sink=sink)          # start collecting span trees
    ... run a workload ...
    for root in sink.records():
        print("\\n".join(root.format_tree()))
    print(obs.get_registry().snapshot())

Outward surfaces: ``GET /api/metrics`` (JSON, or Prometheus text with
``?format=prometheus``), ``GET /api/telemetry`` (windowed series, JSON
or an SVG panel), the ``repro stats`` CLI command (``--dashboard`` for
the SVG), and the ``REPRO_BENCH_SPANS=1`` benchmark dump hook.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.logging import (
    JsonLogger,
    bind_request_id,
    bind_tenant,
    current_request_id,
    current_tenant,
    new_request_id,
)
from repro.obs.profiler import StackProfiler
from repro.obs.prometheus import render_prometheus
from repro.obs.registry import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    set_exemplar_provider,
)
from repro.obs.sinks import NullSink, RingBufferSink
from repro.obs.spans import SpanRecord, Tracer, span
from repro.obs.timewindow import SlowOpLog, TimeWindowStore
from repro.obs.tracecontext import TraceContext, current_remote_parent
from repro.obs.tracestore import TraceStore

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "MetricsRegistry",
    "NullSink",
    "RingBufferSink",
    "SlowOpLog",
    "SpanRecord",
    "StackProfiler",
    "TimeWindowStore",
    "TraceContext",
    "TraceStore",
    "Tracer",
    "bind_request_id",
    "bind_tenant",
    "configure",
    "current_request_id",
    "current_remote_parent",
    "current_tenant",
    "current_trace_id",
    "get_logger",
    "get_registry",
    "get_slow_log",
    "get_trace_store",
    "get_tracer",
    "get_window_store",
    "log_event",
    "new_request_id",
    "render_prometheus",
    "reset",
    "set_exemplar_provider",
    "span",
]

_default_registry = MetricsRegistry()
_default_tracer = Tracer()
_default_logger = JsonLogger()
_default_window_store = TimeWindowStore()
_default_slow_log = SlowOpLog()


def current_trace_id() -> str | None:
    """The trace id active on this thread (open span or remote parent).

    Installed as the registry's exemplar provider, so any histogram
    observation made while a trace is active links back to it.
    """
    current = _default_tracer.current()
    if current is not None and current.trace_id is not None:
        return current.trace_id
    remote = current_remote_parent()
    if remote is not None:
        return remote[0]
    return None


set_exemplar_provider(current_trace_id)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def get_tracer() -> Tracer:
    """The process-wide default tracer (NullSink until configured)."""
    return _default_tracer


def get_trace_store() -> TraceStore | None:
    """The default tracer's trace store, if one is attached."""
    store = _default_tracer.store
    return store if isinstance(store, TraceStore) else None


def get_logger() -> JsonLogger:
    """The process-wide default structured logger (stderr, info level)."""
    return _default_logger


def get_window_store() -> TimeWindowStore:
    """The process-wide default rolling time-window store."""
    return _default_window_store


def get_slow_log() -> SlowOpLog:
    """The process-wide default slow-operation log."""
    return _default_slow_log


def log_event(event: str, level: str = "info", **fields: object) -> None:
    """Emit one structured record through the default logger."""
    _default_logger.log(event, level=level, **fields)


def configure(
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    sink: object | None = None,
    clock: Callable[[], float] | None = None,
    trace_store: TraceStore | None = None,
    logger: JsonLogger | None = None,
    window_store: TimeWindowStore | None = None,
    slow_log: SlowOpLog | None = None,
) -> tuple[MetricsRegistry, Tracer]:
    """Swap the process-wide defaults; returns ``(registry, tracer)``.

    Only the arguments given change: ``tracer`` installs that exact
    tracer (use it to restore a saved one), ``sink``/``clock``/
    ``trace_store`` rebuild the default tracer keeping the untouched
    parts, and ``registry``, ``logger``, ``window_store`` and
    ``slow_log`` replace their defaults wholesale.
    """
    global _default_registry, _default_tracer, _default_logger
    global _default_window_store, _default_slow_log
    if tracer is not None and (
        sink is not None or clock is not None or trace_store is not None
    ):
        raise ValueError(
            "pass either tracer or sink/clock/trace_store, not both"
        )
    if registry is not None:
        _default_registry = registry
    if tracer is not None:
        _default_tracer = tracer
    elif sink is not None or clock is not None or trace_store is not None:
        _default_tracer = Tracer(
            sink=sink if sink is not None else _default_tracer.sink,
            clock=clock if clock is not None else _default_tracer.clock,
            store=(
                trace_store
                if trace_store is not None
                else _default_tracer.store
            ),
        )
    if logger is not None:
        _default_logger = logger
    if window_store is not None:
        _default_window_store = window_store
    if slow_log is not None:
        _default_slow_log = slow_log
    return _default_registry, _default_tracer


def reset() -> tuple[MetricsRegistry, Tracer]:
    """Restore fresh process-wide defaults (test isolation).

    Returns ``(registry, tracer)`` like :func:`configure`; the logger,
    window store and slow-op log are recreated too.
    """
    global _default_registry, _default_tracer, _default_logger
    global _default_window_store, _default_slow_log
    _default_registry = MetricsRegistry()
    _default_tracer = Tracer()
    _default_logger = JsonLogger()
    _default_window_store = TimeWindowStore()
    _default_slow_log = SlowOpLog()
    return _default_registry, _default_tracer
