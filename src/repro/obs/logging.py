"""Structured JSON logging correlated by request ID.

Every log record is one JSON object per line — machine-parseable, so a
five-minute incident can be reconstructed by grepping a request ID across
layers instead of eyeballing free-text lines.  The request ID itself lives
in a :class:`contextvars.ContextVar` set by the WSGI middleware: anything
that runs while a request is being handled (pipeline stages, database
queries, numeric kernels) inherits it for free, including worker threads
started with a copied context.

The same context variable feeds the tracer
(:class:`~repro.obs.spans.SpanRecord` carries ``request_id``) and the
slow-op log (:class:`~repro.obs.timewindow.SlowOpLog`), so a slow span, a
log line and a Prometheus series can all be joined on one ID.

The logger's clock is injectable (``time.time`` by default) so timestamp
tests are deterministic; the output stream is resolved lazily (default
``sys.stderr``) so pytest capture and late redirection both work.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, TextIO

# Numeric severity thresholds; "off" silences a logger entirely.
LEVELS: dict[str, int] = {
    "debug": 10,
    "info": 20,
    "warning": 30,
    "error": 40,
    "off": 100,
}

_request_id: ContextVar[str | None] = ContextVar("repro_request_id", default=None)
_tenant: ContextVar[str | None] = ContextVar("repro_tenant", default=None)


def new_request_id() -> str:
    """A fresh 16-hex-char request ID (collision-safe at any real rate)."""
    return uuid.uuid4().hex[:16]


def current_request_id() -> str | None:
    """The request ID bound to the current context, if any."""
    return _request_id.get()


@contextmanager
def bind_request_id(request_id: str) -> Iterator[str]:
    """Bind ``request_id`` to the current context for the block's duration.

    Nested binds shadow the outer ID and restore it on exit, so internal
    sub-requests (e.g. the stats CLI driving the app in-process) keep
    their own identity.
    """
    token = _request_id.set(request_id)
    try:
        yield request_id
    finally:
        _request_id.reset(token)


def current_tenant() -> str | None:
    """The tenant bound to the current context, if any."""
    return _tenant.get()


@contextmanager
def bind_tenant(tenant: str | None) -> Iterator[str | None]:
    """Bind a tenant id for the block's duration (None binds "no tenant").

    The server binds the resolved tenant around each handler call so
    spans, slow-op records and log lines emitted while handling the
    request — including work on other threads that re-binds a captured
    context — can be attributed per tenant.
    """
    token = _tenant.set(tenant)
    try:
        yield tenant
    finally:
        _tenant.reset(token)


class JsonLogger:
    """Thread-safe one-JSON-object-per-line logger.

    Parameters
    ----------
    stream:
        Destination text stream; ``None`` (the default) resolves to the
        *current* ``sys.stderr`` at each emit, so redirection after
        construction still takes effect.
    level:
        Minimum severity emitted, one of :data:`LEVELS` (``"off"``
        silences the logger).
    clock:
        Zero-argument callable returning epoch seconds; ``time.time`` by
        default, injectable for deterministic tests.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        level: str = "info",
        clock: Callable[[], float] = time.time,
    ) -> None:
        if level not in LEVELS:
            raise ValueError(
                f"unknown level {level!r}; pick one of {sorted(LEVELS)}"
            )
        self._stream = stream
        self.level = level
        self.clock = clock
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """False when the threshold is ``"off"`` (every emit is skipped)."""
        return LEVELS[self.level] < LEVELS["off"]

    def _resolve_stream(self) -> TextIO:
        return self._stream if self._stream is not None else sys.stderr

    def log(self, event: str, level: str = "info", **fields: object) -> None:
        """Emit one record; unknown levels raise, filtered levels no-op.

        The record always leads with ``ts`` (epoch seconds), ``level`` and
        ``event``; a bound request ID is attached as ``request_id``.
        Emission never raises — a broken stream must not take down the
        request being logged.
        """
        if level not in LEVELS:
            raise ValueError(
                f"unknown level {level!r}; pick one of {sorted(LEVELS)}"
            )
        if LEVELS[level] < LEVELS[self.level]:
            return
        record: dict[str, object] = {
            "ts": round(self.clock(), 6),
            "level": level,
            "event": event,
        }
        request_id = _request_id.get()
        if request_id is not None:
            record["request_id"] = request_id
        tenant = _tenant.get()
        if tenant is not None:
            record.setdefault("tenant", tenant)
        record.update(fields)
        line = json.dumps(record, default=str, separators=(",", ":"))
        try:
            with self._lock:
                stream = self._resolve_stream()
                stream.write(line + "\n")
        except Exception:
            pass  # logging is best-effort; never break the caller

    def debug(self, event: str, **fields: object) -> None:
        self.log(event, level="debug", **fields)

    def info(self, event: str, **fields: object) -> None:
        self.log(event, level="info", **fields)

    def warning(self, event: str, **fields: object) -> None:
        self.log(event, level="warning", **fields)

    def error(self, event: str, **fields: object) -> None:
        self.log(event, level="error", **fields)
